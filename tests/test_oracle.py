import math

import numpy as np
import pytest

from mzparity import (
    ConsistencyError,
    DomainError,
    Frame,
    MAX_ORACLE_PHOTONS,
    NormalizationError,
    TwoModeState,
    bruteforce_parity_expectation,
    dual_fock_input,
    noon_internal,
    parity_expectation,
    pezze_smerzi_input,
    single_fock_input,
    yuen_input,
    yurke_input,
)
from mzparity.oracle import DenseOperator, build_generators, evolve, fock_basis


def test_basis_layout():
    basis = fock_basis(4)
    assert basis.dim == 5
    assert basis.states == ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))
    assert basis.index(3, 1) == 1
    with pytest.raises(DomainError):
        basis.index(2, 1)  # photons do not sum to 4
    with pytest.raises(DomainError):
        basis.index(-1, 5)


def test_photon_cap():
    with pytest.raises(DomainError):
        fock_basis(MAX_ORACLE_PHOTONS + 1)
    with pytest.raises(DomainError):
        bruteforce_parity_expectation(single_fock_input(MAX_ORACLE_PHOTONS + 1), 0.1)
    fock_basis(MAX_ORACLE_PHOTONS)


@pytest.mark.parametrize("n_total", [1, 2, 3, 7, 12])
def test_su2_commutators(n_total):
    jx, jy, jz, _ = (op.matrix for op in build_generators(n_total))
    eye = np.eye(n_total + 1)
    np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
    np.testing.assert_allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-12)
    np.testing.assert_allclose(jz @ jx - jx @ jz, 1j * jy, atol=1e-12)
    j = 0.5 * n_total
    np.testing.assert_allclose(
        jx @ jx + jy @ jy + jz @ jz, j * (j + 1.0) * eye, atol=1e-11
    )


@pytest.mark.parametrize("n_total", [1, 4, 9])
def test_generators_hermitian_and_parity_diagonal(n_total):
    jx, jy, jz, parity = build_generators(n_total)
    for op in (jx, jy, jz, parity):
        np.testing.assert_allclose(op.matrix, op.matrix.conj().T, atol=1e-14)
    want = [(-1.0) ** i for i in range(n_total + 1)]
    np.testing.assert_allclose(parity.matrix, np.diag(want), atol=0)
    # parity flips the transverse generators and fixes jz
    p = parity.matrix
    np.testing.assert_allclose(p @ jx.matrix @ p, -jx.matrix, atol=1e-14)
    np.testing.assert_allclose(p @ jy.matrix @ p, -jy.matrix, atol=1e-14)
    np.testing.assert_allclose(p @ jz.matrix @ p, jz.matrix, atol=1e-14)


def test_generator_matrices_frozen():
    jx, _, _, _ = build_generators(3)
    with pytest.raises(ValueError):
        jx.matrix[0, 0] = 5.0


def test_evolve_identity_and_group_property():
    _, jy, _, _ = build_generators(5)
    rng = np.random.default_rng(2)
    vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    vec /= np.linalg.norm(vec)
    np.testing.assert_allclose(evolve(vec, jy, 0.0), vec, atol=1e-13)
    once = evolve(vec, jy, 0.9)
    twice = evolve(evolve(vec, jy, 0.45), jy, 0.45)
    np.testing.assert_allclose(twice, once, atol=1e-11)
    assert np.linalg.norm(once) == pytest.approx(1.0, abs=1e-12)


def test_evolve_validation():
    _, jy, _, _ = build_generators(3)
    with pytest.raises(DomainError):
        evolve(np.ones(2, dtype=complex), jy, 0.1)
    lopsided = DenseOperator("bad", np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ConsistencyError):
        evolve(np.ones(2, dtype=complex), lopsided, 0.1)
    tall = DenseOperator("tall", np.zeros((3, 2), dtype=complex))
    with pytest.raises(DomainError):
        evolve(np.ones(3, dtype=complex), tall, 0.1)


def test_half_turn_about_jy_antidiagonal():
    _, jy, _, _ = build_generators(2)
    cols = [evolve(np.eye(3, dtype=complex)[:, c], jy, math.pi) for c in range(3)]
    matrix = np.column_stack(cols)
    want = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
    np.testing.assert_allclose(matrix, want, atol=1e-14)


def test_frame_equivalence():
    rng = np.random.default_rng(9)
    for n_total in (1, 2, 5, 8):
        vec = rng.standard_normal(n_total + 1) + 1j * rng.standard_normal(n_total + 1)
        vec /= np.linalg.norm(vec)
        at_input = TwoModeState({n_total: vec}, Frame.AT_INPUT, "random")
        jx = build_generators(n_total)[0]
        inside_vec = evolve(vec, jx, 0.5 * math.pi)
        inside = TwoModeState({n_total: inside_vec}, Frame.INSIDE_INTERFEROMETER, "random")
        for phi in (0.0, 0.4, 2.1):
            assert bruteforce_parity_expectation(
                inside, phi
            ) == pytest.approx(bruteforce_parity_expectation(at_input, phi), abs=1e-12)


def test_known_values():
    assert bruteforce_parity_expectation(yuen_input(1), 0.7) == pytest.approx(0.0, abs=1e-14)
    assert bruteforce_parity_expectation(single_fock_input(2), 0.0) == pytest.approx(1.0)
    assert bruteforce_parity_expectation(dual_fock_input(1), math.pi / 4.0) == pytest.approx(
        0.0, abs=1e-14
    )


def test_vacuum_block_contributes_unity():
    state = TwoModeState({0: [1.0]}, Frame.AT_INPUT, "vacuum")
    assert bruteforce_parity_expectation(state, 1.3) == pytest.approx(1.0)


def test_requires_normalized_state():
    lopsided = TwoModeState({1: [0.5, 0.0]}, Frame.AT_INPUT, "half")
    with pytest.raises(NormalizationError):
        bruteforce_parity_expectation(lopsided, 0.2)


@pytest.mark.parametrize(
    "state",
    [
        single_fock_input(5),
        dual_fock_input(3),
        yurke_input(6),
        yuen_input(5),
        pezze_smerzi_input(6),
        noon_internal(7),
    ],
    ids=lambda s: s.label,
)
def test_engine_matches_oracle(state):
    for phi in (0.0, 0.3, 1.1, 2.6):
        assert parity_expectation(state, phi) == pytest.approx(
            bruteforce_parity_expectation(state, phi), abs=1e-10
        )
