import math
import tracemalloc

import numpy as np
import pytest

import mzparity.states as states_module
from mzparity import (
    CombinedStateParams,
    DomainError,
    Frame,
    NormalizationError,
    STATE_LABELS,
    TwoModeState,
    berry_wiseman_internal,
    coherent_input,
    combined_input,
    dual_fock_input,
    fidelity,
    noon_input,
    noon_internal,
    pezze_smerzi_input,
    single_fock_input,
    yuen_input,
    yurke_input,
)
from mzparity.cli import build_state
from mzparity.detection import closed_form_expectation, parity_expectation

SQ2 = 1.0 / math.sqrt(2.0)


def test_state_labels_exported():
    assert "combined" in STATE_LABELS
    assert len(STATE_LABELS) == len(set(STATE_LABELS))


def test_single_fock_layout():
    state = single_fock_input(2)
    assert state.frame is Frame.AT_INPUT
    assert state.label == "single-fock"
    assert list(state.components) == [2]
    np.testing.assert_allclose(state.block(2), [1.0, 0.0, 0.0])
    assert state.fock_terms() == [(2, 0, 1.0 + 0j)]


def test_dual_fock_layout():
    state = dual_fock_input(1)
    np.testing.assert_allclose(state.block(2), [0.0, 1.0, 0.0])
    assert state.fock_terms() == [(1, 1, 1.0 + 0j)]
    assert dual_fock_input(4).fock_terms() == [(4, 4, 1.0 + 0j)]


def test_noon_internal_layout():
    state = noon_internal(3)
    assert state.frame is Frame.INSIDE_INTERFEROMETER
    np.testing.assert_allclose(state.block(3), [SQ2, 0.0, 0.0, SQ2])


def test_yurke_layout():
    state = yurke_input(8)
    terms = state.fock_terms()
    assert [(na, nb) for na, nb, _ in terms] == [(5, 3), (4, 4)]
    assert all(amp == pytest.approx(SQ2) for _, _, amp in terms)
    with pytest.raises(DomainError):
        yurke_input(5)


def test_yuen_layouts():
    plain = yuen_input(3)
    vec = plain.block(3)
    assert vec[1] == pytest.approx(SQ2)
    assert vec[2] == pytest.approx(1j * SQ2)
    assert plain.label == "yuen"

    modified = yuen_input(9, modified=True)
    assert modified.label == "modified-yuen"
    assert [(na, nb) for na, nb, _ in modified.fock_terms()] == [(5, 4), (4, 5)]
    assert all(amp == pytest.approx(SQ2) for _, _, amp in modified.fock_terms())
    with pytest.raises(DomainError):
        yuen_input(4)


def test_pezze_smerzi_layout():
    state = pezze_smerzi_input(8)
    assert [(na, nb) for na, nb, _ in state.fock_terms()] == [(5, 3), (3, 5)]
    with pytest.raises(DomainError):
        pezze_smerzi_input(7)
    with pytest.raises(DomainError):
        pezze_smerzi_input(0)


def test_berry_wiseman_profile():
    state = berry_wiseman_internal(4)
    assert state.frame is Frame.INSIDE_INTERFEROMETER
    assert state.norm() == pytest.approx(1.0, abs=1e-14)
    vec = state.block(4)
    # C_mu = sin((mu + j + 1) pi / (2j + 2)) / sqrt(j + 1), mu = j - i
    want = [math.sin((4 - i + 1) * math.pi / 6.0) / math.sqrt(3.0) for i in range(5)]
    np.testing.assert_allclose(vec, want, atol=1e-15)
    # symmetric under mu -> -mu
    np.testing.assert_allclose(vec, vec[::-1], atol=1e-15)


def test_coherent_moments_and_tail():
    state = coherent_input(9.0)
    assert state.frame is Frame.AT_INPUT
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert state.truncation_tail < 1e-12
    assert state.mean_photon_number() == pytest.approx(9.0, abs=1e-8)
    # every block holds mode a only
    for two_j, vec in state.components.items():
        assert np.all(vec[1:] == 0)


def test_coherent_vacuum_and_domain():
    assert coherent_input(0.0).fock_terms() == [(0, 0, 1.0 + 0j)]
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            coherent_input(bad)
    with pytest.raises(DomainError):
        coherent_input(4.0, tail_bound=0.1)


def test_coherent_phase_rotates_amplitudes():
    flat = coherent_input(2.0)
    spun = coherent_input(2.0, coherent_phase=0.3)
    for two_j, vec in flat.components.items():
        expect = vec[0] * np.exp(1j * 0.3 * two_j)
        assert spun.block(two_j)[0] == pytest.approx(expect, abs=1e-14)


def test_noon_input_shape():
    state = noon_input(6)
    assert state.frame is Frame.AT_INPUT
    assert state.label == "noon"
    assert list(state.components) == [6]
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_exact_zeros_are_not_stored():
    # the dense constructor and the beam splitter keep each block's nonzero
    # rows only: a block with none is dropped, and past N ~ 2150 the tails of
    # noon_input underflow to exact zeros
    state = TwoModeState(
        {1: [0.0, 1.0], 2: [0.0, 0.0, 0.0], 3: [0.5, 0, 0, 0]}, Frame.AT_INPUT, "sparse"
    )
    assert state.two_js.tolist() == [1, 3] and state.rows.tolist() == [1, 0]
    assert state.offsets.tolist() == [0, 1, 2]
    for n in (2000, 2500):
        noon = noon_input(n)
        dense = noon.block(n)
        assert np.array_equal(noon.rows, np.flatnonzero(dense))
        assert np.all(noon.amplitudes != 0)
    assert noon.rows.size < 2501


def test_combined_normalization_and_structure():
    params = CombinedStateParams(SQ2, SQ2, 0.0)
    state = combined_input(8, params)
    assert state.norm() == pytest.approx(1.0, abs=1e-14)
    assert state.label == "combined"
    with pytest.raises(DomainError):
        combined_input(7, params)
    with pytest.raises(DomainError):
        combined_input(8, "not-params")


def test_combined_params_validation():
    with pytest.raises(DomainError):
        CombinedStateParams(0.9, 0.9)
    with pytest.raises(DomainError):
        CombinedStateParams(-0.1, 1.0)
    CombinedStateParams(0.6, 0.8)  # 0.36 + 0.64 = 1


def test_combined_pure_noon_limit():
    params = CombinedStateParams(1.0, 0.0, 0.0)
    state = combined_input(4, params)
    assert fidelity(state, noon_input(4)) == pytest.approx(1.0, abs=1e-12)


def test_quoted_combined_norm_fails_exactly_at_n_2_mod_4_off_the_real_axis():
    # 1/C_N as quoted, with the corner d^j_{j,0}(pi/2) = (-1)^j sqrt(C(2j, j) / 4^j)
    # exact; the state's own norm comes from the assembled vector
    failing, agreeing = 0, 0
    for n in range(2, 101, 2):
        noon = noon_input(n).block(n)
        half = n // 2
        corner = (-1.0) ** half * math.sqrt(math.comb(n, half) / 4**half)
        for alpha_sq in (0.1, 0.25, 0.6, 0.9):
            alpha, beta = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
            for k in (0, 1, 2, 3, 4, 6):  # theta = k pi / 4
                theta = k * math.pi / 4.0
                vec = alpha * complex(math.cos(theta), math.sin(theta)) * noon
                vec[half] += beta
                norm = math.sqrt(float(np.vdot(vec, vec).real))
                quoted = math.sqrt(
                    1.0 + 2.0 * math.sqrt(2.0) * alpha * beta * corner * math.cos(theta - n * math.pi / 4.0)
                )
                expect_failure = n % 4 == 2 and k % 4 != 0
                assert (abs(quoted - norm) > 1e-8) == expect_failure, (n, alpha_sq, k)
                failing += expect_failure
                agreeing += not expect_failure
    assert (failing, agreeing) == (400, 800)


def test_fidelity_basic():
    assert fidelity(single_fock_input(3), single_fock_input(3)) == pytest.approx(1.0)
    assert fidelity(single_fock_input(3), single_fock_input(4)) == 0.0
    assert fidelity(yurke_input(4), dual_fock_input(2)) == pytest.approx(SQ2)


def test_fidelity_reads_stored_rows_of_a_wide_coherent_state():
    # the dense vectors would need 1.4e10 amplitudes; about 14,000 are stored
    state = coherent_input(1e6)
    assert fidelity(state, coherent_input(1e6)) == pytest.approx(1.0, abs=1e-12)


def test_block_builds_only_the_requested_block():
    state = coherent_input(3000.0)
    two_j = int(state.two_js[state.two_js.size // 2])
    tracemalloc.start()
    try:
        vec = state.block(two_j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert vec.size == two_j + 1 and np.count_nonzero(vec) == 1 and not vec.flags.writeable
    with pytest.raises(KeyError):
        state.block(1)


def test_state_validation():
    with pytest.raises(DomainError):
        TwoModeState({2: np.ones(2)}, Frame.AT_INPUT, "bad")  # wrong block length
    with pytest.raises(DomainError):
        TwoModeState({-1: np.ones(1)}, Frame.AT_INPUT, "bad")
    with pytest.raises(DomainError):
        TwoModeState({}, Frame.AT_INPUT, "bad")
    with pytest.raises(DomainError):
        TwoModeState({1: [1.0, np.inf]}, Frame.AT_INPUT, "bad")
    with pytest.raises(DomainError):
        TwoModeState({0: [1.0]}, "at-input", "bad")  # frame must be the enum


def test_require_normalized():
    lopsided = TwoModeState({1: [0.5, 0.0]}, Frame.AT_INPUT, "half")
    with pytest.raises(NormalizationError):
        lopsided.require_normalized()
    assert isinstance(NormalizationError("x"), DomainError)
    single_fock_input(1).require_normalized()


def test_blocks_are_read_only():
    state = single_fock_input(2)
    with pytest.raises(ValueError):
        state.block(2)[0] = 0.0


def test_mu_values_descending():
    state = dual_fock_input(2)
    np.testing.assert_allclose(state.mu_values(4), [2.0, 1.0, 0.0, -1.0, -2.0])


def test_positive_int_rejections():
    for bad in (0, -3, 2.5, "4", True, math.inf, math.nan):
        with pytest.raises(DomainError):
            single_fock_input(bad)


def test_combined_params_default_to_the_even_superposition():
    assert CombinedStateParams() == CombinedStateParams(SQ2, SQ2, 0.0)


def test_mean_photon_number_simple():
    assert single_fock_input(5).mean_photon_number() == pytest.approx(5.0)
    assert dual_fock_input(3).mean_photon_number() == pytest.approx(6.0)
    assert noon_internal(7).mean_photon_number() == pytest.approx(7.0)


def _poisson(nbar, n):
    return math.exp(-nbar + n * math.log(nbar) - math.lgamma(n + 1))


@pytest.mark.parametrize("nbar", [9.0, 1000.0])
def test_coherent_window_drops_both_tails_below_bound(nbar):
    state = coherent_input(nbar)
    first, last = min(state.components), max(state.components)
    assert sorted(state.components) == list(range(first, last + 1))
    if nbar == 1000.0:
        assert first > 700 and 440 <= len(state.components) <= 460  # of 1233 from 0 up
    else:
        assert first == 0  # e^-9 is far above the bound
    dropped = sum(_poisson(nbar, n) for n in range(first)) + sum(
        _poisson(nbar, n) for n in range(last + 1, last + 400)
    )
    assert state.truncation_tail < 1e-12
    assert state.truncation_tail == pytest.approx(dropped, rel=1e-9)
    # the window is tight: dropping either edge block would break the bound
    edge = min(_poisson(nbar, first), _poisson(nbar, last))
    assert state.truncation_tail + edge >= 1e-12
    for n, vec in state.components.items():
        want = _poisson(nbar, n) / (1.0 - state.truncation_tail)
        assert abs(vec[0]) ** 2 == pytest.approx(want, rel=1e-10)


def test_coherent_budget_counts_kept_amplitudes(monkeypatch):
    # one stored amplitude per kept block, with no zero padding
    state = coherent_input(100.0)
    needed = state.amplitudes.size
    assert needed == len(state.components) and np.all(state.rows == 0)
    monkeypatch.setattr(states_module, "_MAX_AMPLITUDES", needed)
    coherent_input(100.0)
    monkeypatch.setattr(states_module, "_MAX_AMPLITUDES", needed - 1)
    with pytest.raises(DomainError, match="budget"):
        coherent_input(100.0)


@pytest.mark.parametrize("nbar", [7012.0, 1e6, 1e300])
def test_coherent_over_budget_raises_before_allocating(monkeypatch, nbar):
    # under a budget of 1000 stored amplitudes (7012 keeps 1195, 1e6 about
    # 14000); 1e300 is refused by its Poisson scan before that is sized
    monkeypatch.setattr(states_module, "_MAX_AMPLITUDES", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="budget"):
            coherent_input(nbar)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("nbar", [7012.0, 1e6])
def test_coherent_states_past_the_padded_budget_build(nbar):
    # both needed more than 2^23 amplitudes while every block was zero-padded
    state = coherent_input(nbar)
    assert int(np.sum(state.two_js + 1)) > 2**23
    phi = 1.0 / math.sqrt(2.0 * nbar)  # <P> near e^(-1/4)
    want = closed_form_expectation("coherent", nbar, phi)
    assert parity_expectation(state, phi) == pytest.approx(want, rel=1e-10, abs=0.0)
    # below 1e-100 here, where the dropped Poisson tail sets the relative error
    want = closed_form_expectation("coherent", nbar, 0.3)
    assert abs(parity_expectation(state, 0.3) - want) <= 1e-10
    with pytest.raises(DomainError, match="budget"):
        state.components


@pytest.mark.parametrize(
    "build",
    [single_fock_input, lambda n: dual_fock_input(n // 2), noon_internal, yurke_input,
     lambda n: yuen_input(n + 1), pezze_smerzi_input],
)
def test_single_block_constructors_store_no_padding(build):
    n = 10**7
    tracemalloc.start()
    try:
        state = build(n)
        with pytest.raises(DomainError, match="budget"):
            state.components
        with pytest.raises(DomainError, match="budget"):
            state.block(state.max_two_j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert state.amplitudes.size <= 2 and state.norm() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("where", [0, 2, -1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_amplitude_in_any_block_raises(where, bad):
    blocks = {two_j: np.full(two_j + 1, 0.1 + 0j) for two_j in (0, 1, 2, 3, 4)}
    two_j = sorted(blocks)[where]
    blocks[two_j][-1] = bad
    with pytest.raises(DomainError, match="amplitude vectors must be finite"):
        TwoModeState(blocks, Frame.AT_INPUT, "bad")


def test_huge_finite_amplitude_is_not_reported_as_non_finite():
    state = TwoModeState({0: [1e200], 1: [0.0, 1.0]}, Frame.AT_INPUT, "huge")
    assert state.norm() == math.inf
    with pytest.raises(NormalizationError):
        state.require_normalized()


@pytest.mark.parametrize("label", STATE_LABELS)
def test_norm_matches_per_block_sum(label):
    for n in (9, 10, 41, 42):
        try:
            state = build_state(label, n)
        except DomainError:
            continue  # N outside the family's parity class
        want = math.sqrt(sum(float(np.sum(np.abs(v) ** 2)) for v in state.components.values()))
        assert abs(state.norm() - want) <= 1e-15
