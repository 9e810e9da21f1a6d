import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzparity import (
    DomainError,
    Frame,
    FrameError,
    TwoModeState,
    apply_beam_splitter,
    apply_mzi,
    apply_phase_shifter,
    fidelity,
    noon_input,
    noon_internal,
    q_apply,
    single_fock_input,
)
from mzparity.wigner import _I_POWERS as I_POWERS


def random_state(rng, two_js, frame=Frame.AT_INPUT):
    blocks = {}
    for two_j in two_js:
        vec = rng.standard_normal(two_j + 1) + 1j * rng.standard_normal(two_j + 1)
        blocks[two_j] = vec
    total = math.sqrt(sum(float(np.sum(np.abs(v) ** 2)) for v in blocks.values()))
    return TwoModeState(
        {two_j: vec / total for two_j, vec in blocks.items()}, frame, "random"
    )


def assert_states_equal(first, second, atol=1e-12):
    assert set(first.components) == set(second.components)
    for two_j, vec in first.components.items():
        np.testing.assert_allclose(vec, second.block(two_j), atol=atol)


@pytest.mark.parametrize("phi", [0.0, 0.3, 1.7, -2.4])
def test_mzi_rotates_single_photon(phi):
    out = apply_mzi(single_fock_input(1), phi)
    np.testing.assert_allclose(
        out.block(1), [math.cos(phi / 2.0), math.sin(phi / 2.0)], atol=1e-14
    )


def test_mzi_requires_input_frame():
    with pytest.raises(FrameError):
        apply_mzi(noon_internal(2), 0.4)


def test_phase_shifter_requires_internal_frame():
    with pytest.raises(FrameError):
        apply_phase_shifter(single_fock_input(2), 0.4)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_rejected_before_rotating(phi):
    with pytest.raises(DomainError, match="phase phi must be finite"):
        apply_mzi(single_fock_input(2), phi)
    with pytest.raises(DomainError, match="phase phi must be finite"):
        apply_phase_shifter(noon_internal(2), phi)


def test_phase_shifter_phases():
    state = apply_phase_shifter(noon_internal(3), 0.5)
    vec = state.block(3)
    amp = 1.0 / math.sqrt(2.0)
    # mu = +3/2 at index 0, mu = -3/2 at index 3
    assert vec[0] == pytest.approx(amp * np.exp(-0.75j), abs=1e-14)
    assert vec[3] == pytest.approx(amp * np.exp(+0.75j), abs=1e-14)


def test_beam_splitter_toggles_frame_and_inverts():
    rng = np.random.default_rng(7)
    state = random_state(rng, [1, 2, 5])
    inside = apply_beam_splitter(state)
    assert inside.frame is Frame.INSIDE_INTERFEROMETER
    back = apply_beam_splitter(inside, inverse=True)
    assert back.frame is Frame.AT_INPUT
    assert_states_equal(back, state, atol=1e-13)


def test_beam_splitter_preserves_norm():
    rng = np.random.default_rng(11)
    state = random_state(rng, [3, 4])
    assert apply_beam_splitter(state).norm() == pytest.approx(1.0, abs=1e-13)


def test_composition_matches_direct_mzi():
    rng = np.random.default_rng(3)
    for phi in (0.0, 0.27, 1.9, -1.1):
        state = random_state(rng, [1, 2, 3, 8, 16])
        direct = apply_mzi(state, phi)
        staged = apply_beam_splitter(
            apply_phase_shifter(apply_beam_splitter(state), phi), inverse=True
        )
        assert staged.frame is Frame.AT_INPUT
        assert_states_equal(staged, direct, atol=1e-12)


@given(
    st.integers(1, 12),
    st.floats(-3.0, 3.0, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
def test_composition_property(two_j, phi, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, [two_j])
    direct = apply_mzi(state, phi)
    staged = apply_beam_splitter(
        apply_phase_shifter(apply_beam_splitter(state), phi), inverse=True
    )
    assert_states_equal(staged, direct, atol=1e-12)


def test_mzi_norm_stable_at_large_j():
    rng = np.random.default_rng(23)
    state = random_state(rng, [200])
    out = apply_mzi(state, 1.3)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_total", [1, 4, 9])
def test_noon_input_is_beam_splitter_preimage(n_total):
    internal = apply_beam_splitter(noon_input(n_total), inverse=True)
    assert fidelity(internal, noon_internal(n_total)) == pytest.approx(1.0, abs=1e-12)


def _parity_apply(two_j: int, vec: np.ndarray) -> np.ndarray:
    """P = (-1)^(j - J_z) on one block: sign (-1)^index, diagonal."""
    return np.where(np.arange(two_j + 1) % 2 == 0, 1.0, -1.0) * vec


def test_parity_apply_alternates_signs():
    out = _parity_apply(2, np.array([1.0, 1.0, 1.0], dtype=complex))
    np.testing.assert_allclose(out, [1.0, -1.0, 1.0])
    vec = np.array([0.3, -0.1j, 0.2, 1.0], dtype=complex)
    np.testing.assert_allclose(_parity_apply(3, _parity_apply(3, vec)), vec)


def test_q_apply_is_an_involution():
    rng = np.random.default_rng(5)
    for two_j in (1, 2, 3, 6, 11):
        vec = rng.standard_normal(two_j + 1) + 1j * rng.standard_normal(two_j + 1)
        np.testing.assert_allclose(q_apply(two_j, q_apply(two_j, vec)), vec, atol=1e-15)


def test_q_apply_single_photon_matrix():
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    np.testing.assert_allclose(q_apply(1, e0), [0.0, -1j])
    np.testing.assert_allclose(q_apply(1, e1), [1j, 0.0])


def q_matrix_element(n_total: int, k: int, k_p: int) -> complex:
    """<k', N-k'| Q |N-k, k> in photon numbers, as commonly quoted.

    Returns i^N (-1)^k when k' = N - k, else 0.  This is the literal
    published form; for odd N it differs from the operator realized by
    q_apply by a global sign, which the detection engine does not use.
    """
    if k_p != n_total - k:
        return 0j
    return complex(I_POWERS[n_total % 4]) * (-1) ** k


def test_q_matrix_element_values():
    assert q_matrix_element(1, 0, 1) == 1j
    assert q_matrix_element(1, 1, 0) == -1j
    assert q_matrix_element(1, 0, 0) == 0j
    assert q_matrix_element(2, 0, 2) == -1
    assert q_matrix_element(2, 1, 1) == 1
    assert q_matrix_element(2, 2, 0) == -1
    assert q_matrix_element(2, 0, 1) == 0j


@pytest.mark.parametrize("n_total", [1, 2, 3, 4, 7, 101, 102, 103, 140])
def test_q_matrix_element_vs_q_apply_sign(n_total):
    # the quoted element equals the realized operator only up to (-1)^N;
    # both take i^N exactly, also past N = 100
    basis = np.eye(n_total + 1, dtype=complex)
    realized = np.column_stack([q_apply(n_total, basis[:, c]) for c in range(n_total + 1)])
    for k in range(n_total + 1):
        quoted = q_matrix_element(n_total, k, n_total - k)
        assert realized[n_total - k, k] == (-1) ** n_total * quoted


def test_mzi_preserves_truncation_tail_and_label():
    state = single_fock_input(3)
    out = apply_mzi(state, 0.8)
    assert out.label == state.label
    assert out.truncation_tail == state.truncation_tail


def test_dense_rotation_past_the_old_eigensystem_budget():
    # every column at 2j = 5000 would have taken 200 MB and was refused;
    # the two projections hold O(columns)
    state = random_state(np.random.default_rng(29), [5000])
    tracemalloc.start()
    try:
        out = apply_mzi(state, 0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(out.norm() - 1.0) <= 1e-13
    assert peak < 16 * 2**20
    back = apply_mzi(out, -0.9)
    assert np.abs(back.block(5000) - state.block(5000)).max() <= 1e-14


def test_dense_rotation_over_the_work_bound_is_refused():
    # folding every column at 2j = 8192 visits 4097^2 > 2^24 column-rows
    state = random_state(np.random.default_rng(31), [8192])
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="budget"):
            apply_mzi(state, 0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
