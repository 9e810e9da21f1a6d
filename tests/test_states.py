import logging
import math

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


def test_combined_norm_mismatch_logged_once(caplog):
    params = CombinedStateParams(SQ2, SQ2, math.pi / 4.0)
    states_module._norm_mismatch_reported.clear()
    with caplog.at_level(logging.WARNING, logger="mzparity.states"):
        combined_input(6, params)
    assert any("normalization" in rec.message for rec in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="mzparity.states"):
        combined_input(6, params)
    assert not caplog.records


def test_combined_norm_mismatch_logged_once_per_parameter_set(caplog):
    # N = 2 (mod 4) at theta = pi/4: the quoted constant is wrong for every N
    params = CombinedStateParams(SQ2, SQ2, math.pi / 4.0)
    states_module._norm_mismatch_reported.clear()
    with caplog.at_level(logging.WARNING, logger="mzparity.states"):
        for n in (6, 10, 14, 50):
            combined_input(n, params)
    assert sum("normalization" in rec.message for rec in caplog.records) == 1
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="mzparity.states"):
        combined_input(6, CombinedStateParams(SQ2, SQ2, 3.0 * math.pi / 4.0))
    assert sum("normalization" in rec.message for rec in caplog.records) == 1


def test_fidelity_basic():
    assert fidelity(single_fock_input(3), single_fock_input(3)) == pytest.approx(1.0)
    assert fidelity(single_fock_input(3), single_fock_input(4)) == 0.0
    assert fidelity(yurke_input(4), dual_fock_input(2)) == pytest.approx(SQ2)


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
    for bad in (0, -3, 2.5, "4", True):
        with pytest.raises(DomainError):
            single_fock_input(bad)


def test_mean_photon_number_simple():
    assert single_fock_input(5).mean_photon_number() == pytest.approx(5.0)
    assert dual_fock_input(3).mean_photon_number() == pytest.approx(6.0)
    assert noon_internal(7).mean_photon_number() == pytest.approx(7.0)
