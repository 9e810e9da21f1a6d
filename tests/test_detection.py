import math
import tracemalloc

import numpy as np
import pytest

from mzparity import (
    CombinedStateParams,
    DISCREPANT_CLOSED_FORMS,
    DomainError,
    NormalizationError,
    NumericalLimitError,
    STATE_LABELS,
    TwoModeState,
    Frame,
    apply_beam_splitter,
    apply_phase_shifter,
    benchmark_limits,
    berry_wiseman_internal,
    bruteforce_parity_expectation,
    closed_form_derivative,
    closed_form_expectation,
    closed_form_parts,
    closed_form_uncertainty,
    closed_form_uncertainty_limit,
    coherent_input,
    combined_input,
    dual_fock_input,
    fidelity,
    noon_input,
    noon_internal,
    parity_derivative,
    parity_expectation,
    pezze_smerzi_input,
    phase_uncertainty,
    phase_uncertainties,
    phase_uncertainty_limit,
    phase_uncertainty_limits,
    q_apply,
    single_fock_input,
    yuen_input,
    yurke_input,
)
from mzparity import detection, wigner
from mzparity.cli import build_state
from mzparity.states import parity_needed
from mzparity.detection import _extrapolate_limit, _limit_from_series, _phi_ladder

SQ2 = 1.0 / math.sqrt(2.0)


def make_state(label, n):
    if label == "coherent":
        return coherent_input(float(n))
    factory = {
        "single-fock": single_fock_input,
        "dual-fock": lambda m: dual_fock_input(m // 2),
        "noon": noon_input,
        "noon-internal": noon_internal,
        "yurke": yurke_input,
        "yuen": yuen_input,
        "modified-yuen": lambda m: yuen_input(m, modified=True),
        "pezze-smerzi": pezze_smerzi_input,
        "berry-wiseman": berry_wiseman_internal,
        "combined": lambda m: combined_input(m, CombinedStateParams(SQ2, SQ2, 0.0)),
    }[label]
    return factory(n)


def test_yuen_has_no_parity_signal():
    for phi in (0.0, 0.3, 1.0, 2.7):
        assert parity_expectation(yuen_input(5), phi) == pytest.approx(0.0, abs=1e-14)
        assert parity_derivative(yuen_input(5), phi) == pytest.approx(0.0, abs=1e-13)


def test_yuen_limit_is_infinite():
    assert phase_uncertainty_limit(yuen_input(3)) == math.inf


def test_dual_fock_at_zero_phase():
    for n_per_mode in (1, 2, 3, 5):
        want = (-1.0) ** n_per_mode
        assert parity_expectation(dual_fock_input(n_per_mode), 0.0) == pytest.approx(want)


def test_noon_internal_two_photons_cosine():
    for phi in np.linspace(-2.0, 2.0, 9):
        assert parity_expectation(noon_internal(2), phi) == pytest.approx(
            -math.cos(2.0 * phi), abs=1e-12
        )


def test_noon_pointwise_uncertainty():
    result = phase_uncertainty(noon_internal(4), 0.2)
    assert result.delta_phi == pytest.approx(0.25, abs=1e-12)
    for n in (1, 3, 8, 15):
        got = phase_uncertainty(noon_input(n), 0.3 / n).delta_phi
        assert got == pytest.approx(1.0 / n, rel=1e-11)


def test_noon_input_matches_internal_route():
    for n in (2, 5, 9):
        for phi in (0.1, 0.7):
            assert parity_expectation(noon_input(n), phi) == pytest.approx(
                parity_expectation(noon_internal(n), phi), abs=1e-11
            )


def test_dual_fock_single_pair_uncertainty():
    result = phase_uncertainty(dual_fock_input(1), 1e-4)
    assert result.delta_phi == pytest.approx(0.5, abs=1e-6)


def test_coherent_limit_is_shot_noise():
    assert phase_uncertainty_limit(coherent_input(16.0)) == pytest.approx(0.25, rel=1e-6)


@pytest.mark.parametrize(
    "label,n,want",
    [
        ("single-fock", 9, 1.0 / 3.0),
        ("single-fock", 25, 0.2),
        ("dual-fock", 8, math.sqrt(2.0) / math.sqrt(8.0 * 10.0)),
        ("yurke", 8, 1.0 / math.sqrt(4.0 * 5.0)),
        ("modified-yuen", 9, 2.0 / 10.0),
        ("pezze-smerzi", 8, 1.0 / math.sqrt(6.0 * 3.0)),
    ],
)
def test_family_limits(label, n, want):
    got = phase_uncertainty_limit(make_state(label, n))
    assert got == pytest.approx(want, rel=1e-6)


def test_pezze_smerzi_two_photon_state_is_phase_blind():
    # j = 1, mu = +-1 is an eigenstate of the rotation: no signal at any phi
    assert phase_uncertainty_limit(pezze_smerzi_input(2)) == math.inf


@pytest.mark.parametrize(
    "label,ns",
    [
        ("single-fock", (1, 2, 7, 16)),
        ("dual-fock", (2, 8, 14)),
        ("yurke", (2, 8, 16)),
        ("yuen", (1, 7, 15)),
        ("modified-yuen", (1, 7, 15)),
        ("pezze-smerzi", (4, 8, 16)),
        ("noon", (1, 5, 12)),
        ("noon-internal", (1, 6, 13)),
        ("coherent", (4, 9)),
    ],
)
def test_engine_agrees_with_quoted_closed_forms(label, ns):
    for n in ns:
        state = make_state(label, n)
        for phi in (0.05, 0.3, 1.1):
            engine = parity_expectation(state, phi)
            quoted = closed_form_expectation(label, n, phi)
            assert engine == pytest.approx(quoted, abs=1e-9)
            engine_d = parity_derivative(state, phi)
            quoted_d = closed_form_derivative(label, n, phi)
            assert engine_d == pytest.approx(quoted_d, abs=1e-8)


def test_discrepant_labels_registered():
    assert DISCREPANT_CLOSED_FORMS == frozenset({"berry-wiseman", "combined"})


def test_berry_wiseman_quoted_form_disagrees_with_engine():
    state = berry_wiseman_internal(8)
    phi = 0.3
    engine = parity_expectation(state, phi)
    quoted = closed_form_expectation("berry-wiseman", 8, phi)
    assert abs(engine - quoted) > 0.1
    # the engine, not the quoted form, matches the brute-force oracle
    assert engine == pytest.approx(bruteforce_parity_expectation(state, phi), abs=1e-12)


def test_berry_wiseman_quoted_form_is_parity_at_a_quarter_turn_bias():
    # flipping the sign of every odd-nu term is a pi/2 phase bias
    for n in range(1, 101):
        state = berry_wiseman_internal(n)
        for phi in (0.0, 1e-3, 0.3, 1.3):
            quoted = closed_form_expectation("berry-wiseman", n, phi)
            engine = parity_expectation(state, phi + math.pi / 2.0)
            assert engine == pytest.approx(quoted, rel=0.0, abs=1e-14)


def test_combined_quoted_form_disagrees_with_engine():
    params = CombinedStateParams(SQ2, SQ2, 0.0)
    state = combined_input(8, params)
    phi = 0.3
    engine = parity_expectation(state, phi)
    quoted = closed_form_expectation("combined", 8, phi, params)
    assert abs(engine - quoted) > 0.05
    assert engine == pytest.approx(bruteforce_parity_expectation(state, phi), abs=1e-12)


def test_combined_zero_phase_parity():
    for n in (4, 6, 10):
        state = combined_input(n, CombinedStateParams(SQ2, SQ2, 0.0))
        assert parity_expectation(state, 0.0) == pytest.approx((-1.0) ** (n // 2), abs=1e-12)


def test_derivative_matches_finite_differences():
    step = 1e-6
    cases = [
        ("single-fock", 7),
        ("dual-fock", 8),
        ("yurke", 12),
        ("modified-yuen", 9),
        ("noon-internal", 5),
        ("berry-wiseman", 10),
        ("combined", 8),
        ("coherent", 9),
        ("noon", 12),
    ]
    for label, n in cases:
        state = make_state(label, n)
        for phi in (0.1, 0.8):
            fd = (
                parity_expectation(state, phi + step)
                - parity_expectation(state, phi - step)
            ) / (2.0 * step)
            an = parity_derivative(state, phi)
            assert abs(an - fd) <= 1e-6 * max(1.0, abs(an))


def test_result_invariants():
    state = yurke_input(8)
    result = phase_uncertainty(state, 0.4)
    assert result.phi == 0.4
    assert -1.0 <= result.expectation <= 1.0
    assert result.variance**2 + result.expectation**2 == pytest.approx(1.0, abs=1e-10)
    assert result.delta_phi == result.variance / abs(result.derivative)


def test_stationary_point_reports_infinity():
    result = phase_uncertainty(noon_internal(2), math.pi / 2.0)
    assert result.expectation == pytest.approx(1.0)
    assert result.delta_phi == math.inf


def test_requires_normalized_state():
    lopsided = TwoModeState({1: [0.5, 0.0]}, Frame.AT_INPUT, "half")
    with pytest.raises(NormalizationError):
        parity_expectation(lopsided, 0.1)


def test_benchmark_limits_values():
    limits = benchmark_limits(4)
    assert limits.shot_noise == pytest.approx(0.5)
    assert limits.heisenberg == pytest.approx(0.25)
    assert benchmark_limits(2).bw_povm == pytest.approx(1.0, abs=0)
    big = benchmark_limits(1000)
    assert big.bw_povm * 1000 == pytest.approx(math.pi, rel=0.01)
    for bad in (0, -2, 1.5):
        with pytest.raises(DomainError):
            benchmark_limits(bad)


def test_closed_form_residues_small_for_standard_families():
    for label, n in [
        ("single-fock", 6),
        ("dual-fock", 6),
        ("yurke", 6),
        ("modified-yuen", 7),
        ("pezze-smerzi", 6),
        ("noon", 7),
    ]:
        for phi in (0.2, 0.9):
            _, imag = closed_form_parts(label, n, phi)
            assert abs(imag) < 1e-12
    # i^N is exact past N = 100 too, where 1j**N is not
    for n in range(95, 141):
        assert closed_form_parts("noon", n, 0.3)[1] == 0.0


def test_closed_form_domain_errors():
    with pytest.raises(DomainError):
        closed_form_expectation("squeezed", 4, 0.1)
    with pytest.raises(DomainError):
        closed_form_expectation("yurke", 5, 0.1)
    with pytest.raises(DomainError):
        closed_form_expectation("yuen", 4, 0.1)
    with pytest.raises(DomainError):
        closed_form_expectation("coherent", 0.0, 0.1)
    with pytest.raises(DomainError):
        closed_form_expectation("single-fock", -3, 0.1)
    # quoted coherent envelope has a cusp where cos phi vanishes
    with pytest.raises(DomainError):
        closed_form_derivative("coherent", 4.0, math.pi / 2.0)


def test_closed_form_uncertainty_matches_engine_for_noon():
    quoted = closed_form_uncertainty("noon", 8, 0.1)
    engine = phase_uncertainty(noon_input(8), 0.1)
    assert quoted.delta_phi == pytest.approx(engine.delta_phi, rel=1e-9)


def test_phi_ladder_halves():
    ladder = _phi_ladder(9)
    assert ladder[0] == pytest.approx(1e-3)
    for a, b in zip(ladder, ladder[1:]):
        assert b == pytest.approx(0.5 * a)


def test_extrapolation_all_infinite_is_divergent():
    assert _extrapolate_limit([math.inf] * 7, "t") == math.inf


def test_extrapolation_mixed_finiteness_raises():
    with pytest.raises(NumericalLimitError):
        _extrapolate_limit([1.0, math.inf, 1.0, 1.0, 1.0, 1.0, 1.0], "t")


def test_extrapolation_divergent_ladder_is_infinite():
    values = [1.0, 3.0, 9.0, 27.0, 81.0, 243.0, 729.0]
    assert _extrapolate_limit(values, "t") == math.inf


def test_extrapolation_constant_ladder_is_exact():
    assert _extrapolate_limit([0.7] * 7, "t") == pytest.approx(0.7, abs=1e-15)


def test_extrapolation_power_series_converges():
    phis = _phi_ladder(9)
    values = [2.0 + 0.5 * phi + 3.0 * phi**2 for phi in phis]
    assert _extrapolate_limit(values, "t") == pytest.approx(2.0, rel=1e-9)


def test_extrapolation_noise_raises():
    rng = np.random.default_rng(0)
    values = list(1.0 + 1e-2 * rng.standard_normal(7))
    with pytest.raises(NumericalLimitError):
        _extrapolate_limit(values, "t")


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_rejected(phi):
    state = noon_input(4)
    for fn in (parity_expectation, parity_derivative, phase_uncertainty):
        with pytest.raises(DomainError):
            fn(state, phi)


@pytest.mark.parametrize("n", [200, 1000])
def test_exact_limits_at_large_n(n):
    dual = phase_uncertainty_limit(dual_fock_input(n // 2))
    assert dual == pytest.approx(math.sqrt(2.0) / math.sqrt(n * (n + 2.0)), rel=1e-12)
    assert phase_uncertainty_limit(noon_input(n)) == pytest.approx(1.0 / n, rel=1e-12)


def test_phase_blind_states_have_infinite_limit():
    assert phase_uncertainty_limit(pezze_smerzi_input(2)) == math.inf
    for n in (1, 5, 21, 101):
        assert phase_uncertainty_limit(yuen_input(n)) == math.inf


# Spectra (weights, frequencies) of <P>(phi) = sum w exp(-2i phi lam) for the
# leading-order logic alone, without a state behind them.
COSINE = ([0.5, 0.5], [1.0, -1.0])  # cos 2phi: 1 - f^2 ~ 4 phi^2, f' ~ -4 phi
FLAT_TOP = ([0.7, 0.2, 0.2, -0.05, -0.05], [0.0, 1.0, -1.0, 2.0, -2.0])  # 1 - 0.8 phi^4


def spectrum_series(weights, freqs):
    """F_m = sum w (-2i lam)^m / m! and bounds (2 max|lam|)^m / m!, m <= _TAYLOR_ORDER."""
    order = detection._TAYLOR_ORDER
    weights, freqs = np.asarray(weights, dtype=complex), np.asarray(freqs, dtype=float)
    span = 2.0 * float(np.max(np.abs(freqs)))
    series, bounds = np.empty(order + 1, dtype=complex), np.empty(order + 1)
    term, bound = weights, 1.0
    for m in range(order + 1):
        series[m], bounds[m] = term.sum(), bound
        term = term * (-2j * freqs) / (m + 1)
        bound *= span / (m + 1)
    return series, bounds


def spectrum_limit(spectrum):
    series, bounds = spectrum_series(*spectrum)
    return _limit_from_series(series[None], bounds[None], ["t"])[0]


def test_series_limit_finite():
    assert spectrum_limit(COSINE) == pytest.approx(0.5, rel=1e-15)
    # off the extremum: f = 0.6 + 0.4 cos(2 phi - 0.3) has |f(0)| < 1, f'(0) != 0
    a = 0.2 * np.exp(0.3j)
    f0 = 0.6 + 0.4 * math.cos(0.3)
    want = math.sqrt(1.0 - f0**2) / (0.8 * math.sin(0.3))
    assert spectrum_limit(([0.6, a, np.conj(a)], [0.0, 1.0, -1.0])) == pytest.approx(
        want, rel=1e-14
    )


def test_series_limit_divergent():
    assert spectrum_limit(FLAT_TOP) == math.inf


def test_series_limit_phase_blind():
    assert spectrum_limit(([0.3, 0.0, 0.0], [0.0, 1.5, -1.5])) == math.inf
    assert spectrum_limit(([1.0], [0.0])) == math.inf


def test_series_limit_without_leading_order_raises():
    # f = 1 + 0.1 phi: 1 - f^2 starts at order 1 and f' at order 0, which
    # no state can have
    series = np.zeros(detection._TAYLOR_ORDER + 1, dtype=complex)
    series[:2] = 1.0, 0.1
    bounds = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, detection._TAYLOR_ORDER + 1)])
    with pytest.raises(NumericalLimitError):
        _limit_from_series(series[None], bounds[None], ["t"])


def _mixed_state(frame, seed):
    """Random amplitudes on blocks of both parities of 2j, some rows exactly 0."""
    rng = np.random.default_rng(seed)
    blocks = {}
    for two_j in (0, 1, 2, 3, 4, 7, 30, 31):
        vec = rng.standard_normal(two_j + 1) + 1j * rng.standard_normal(two_j + 1)
        vec[rng.random(two_j + 1) < 0.3] = 0.0
        blocks[two_j] = vec
    blocks[30][:12] = blocks[30][20:] = 0.0  # a window away from both edges
    norm = math.sqrt(sum(np.vdot(v, v).real for v in blocks.values()))
    return TwoModeState({k: v / norm for k, v in blocks.items()}, frame, "mixed")


@pytest.mark.parametrize(
    "build,args",
    [(make_state, case) for case in (
        ("coherent", 30), ("coherent", 0.4), ("single-fock", 17), ("dual-fock", 60),
        ("noon", 41), ("noon", 2), ("noon-internal", 9), ("yurke", 40), ("yuen", 21),
        ("modified-yuen", 15), ("pezze-smerzi", 50), ("berry-wiseman", 12),
        ("combined", 10), ("combined", 2),
    )]
    + [(_mixed_state, (frame, seed)) for frame in Frame for seed in (3, 4, 5)],
    ids=lambda arg: "-".join(str(a.value if isinstance(a, Frame) else a) for a in arg)
    if isinstance(arg, tuple) else None,
)
def test_moment_series_matches_spectrum(build, args):
    state = build(*args)
    (series,), (bounds,) = detection._taylor_series([state])
    want, want_bounds = spectrum_series(*full_spectrum(state))
    assert np.allclose(bounds, want_bounds, rtol=1e-15, atol=0.0)
    assert np.all(np.abs(series - want) <= 1e-13 * bounds)


def test_noon_limits_are_exact_and_take_bounded_memory():
    for n in range(1, 1001):
        assert abs(phase_uncertainty_limit(noon_input(n)) * n - 1.0) <= 1e-12
    tracemalloc.start()
    try:
        limit = phase_uncertainty_limit(noon_input(10**5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(limit * 10**5 - 1.0) <= 1e-12
    assert peak < 32 * 2**20


def test_batched_limits_match_one_state_limits():
    # Every family at N = 1..60 (parity gaps left out) in both frames,
    # interleaved, then the mixed layouts, a coherent state of many blocks
    # and the Berry-Wiseman state behind its pi/2 bias.
    batch = []
    for n in range(1, 61):
        for label in STATE_LABELS:
            if parity_needed(label, n) is None:
                state = make_state(label, n)
                inside = state.frame is Frame.INSIDE_INTERFEROMETER
                batch += [state, apply_beam_splitter(state, inverse=inside)]
    batch += [_mixed_state(frame, seed) for frame in Frame for seed in (3, 4, 5)]
    batch.append(coherent_input(1000.0))
    batch += [apply_phase_shifter(berry_wiseman_internal(n), math.pi / 2.0) for n in (1, 8, 60)]
    assert batch[-4].two_js.size > 100
    batched = np.array(phase_uncertainty_limits(batch))
    single = np.array([phase_uncertainty_limit(state) for state in batch])
    np.testing.assert_array_equal(np.isinf(batched), np.isinf(single))
    finite = np.isfinite(single)
    assert 0 < finite.sum() < len(batch)
    np.testing.assert_array_max_ulp(batched[finite], single[finite], maxulp=4)
    assert phase_uncertainty_limits([]) == []


POINT_PHIS = (0.0, 1e-6, 1e-3, 0.3, 1.3, -0.7)


def test_batched_points_match_one_state_points():
    # Every family at N = 1..60 (parity gaps left out) in both frames,
    # interleaved, then the mixed layouts: one batch shares a flat J_y
    # recurrence, while each state alone runs its own.
    batch = []
    for n in range(1, 61):
        for label in STATE_LABELS:
            if parity_needed(label, n) is None:
                state = make_state(label, n)
                inside = state.frame is Frame.INSIDE_INTERFEROMETER
                batch += [state, apply_beam_splitter(state, inverse=inside)]
    batch += [_mixed_state(frame, seed) for frame in Frame for seed in (3, 4, 5)]
    batch.append(_row_zero_mixed_state())

    def table(results):
        return np.array([(r.expectation, r.derivative, r.variance, r.delta_phi) for r in results])

    for phi in POINT_PHIS:
        batched = table(phase_uncertainties(batch, phi))
        single = table([phase_uncertainty(state, phi) for state in batch])
        np.testing.assert_array_equal(np.isinf(batched), np.isinf(single))
        finite = np.isfinite(single)
        np.testing.assert_array_max_ulp(batched[finite], single[finite], maxulp=4)
        assert np.isinf(single[:, 3]).any() and finite[:, 3].any()
    assert phase_uncertainties([], 0.3) == []


def test_stored_row_route_holds_only_its_columns():
    # 1000 stored rows of a 2j = 4000 block take the stored-row route: their
    # 1000 columns over 4001 rows visit fewer column-rows than all 2001
    # columns folded.  It keeps the upper rows of those columns (15 MiB) and
    # reads them one panel at a time.  At phi = 0, <P> and d<P>/dphi are the
    # Taylor moments F_0 and F_1, which need no eigensystem.
    rng = np.random.default_rng(1)
    vec = np.zeros(4001, dtype=complex)
    vec[:1000] = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    state = TwoModeState({4000: vec / np.linalg.norm(vec)}, Frame.AT_INPUT, "scattered")
    tracemalloc.start()
    try:
        result = phase_uncertainty(state, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    (series,), (bounds,) = detection._taylor_series([state])
    assert abs(result.expectation - series[0].real) <= 1e-14
    assert abs(result.derivative - series[1].real) <= 1e-14 * bounds[1]


def _jy_spread(state):
    """Delta J_y of an at-input state from one product of 2i J_y = J_+ - J_- with its stored rows.

    u = (J_+ - J_-) psi gives <J_y^2> = ||u||^2 / 4 and <J_y> = <psi|u> / (2i);
    no eigensystem is involved.
    """
    square = mean = 0.0
    for two_j, vec in state.components.items():
        r = np.arange(two_j)
        coupling = np.sqrt((r + 1.0) * (two_j - r))  # <mu_r|J_+|mu_(r+1)>
        u = np.zeros_like(vec)
        u[:-1] += coupling * vec[1:]
        u[1:] -= coupling * vec[:-1]
        square += np.vdot(u, u).real / 4.0
        mean += (np.vdot(vec, u) / 2j).real
    return math.sqrt(square - mean * mean)


def test_fixed_phi_points_obey_the_quantum_cramer_rao_bound():
    # delta_phi >= 1 / (2 Delta J_y) for a pure state and U = exp(-i phi J_y)
    # (Braunstein & Caves, PRL 72, 3439 (1994)), far beyond the oracle's
    # N <= 12, with Delta J_y from no eigensystem.  NOON saturates it at
    # every phi, so the tolerance is the propagated roundoff, not a
    # constant: <P> is good to about 1e-15, which moves 1 - <P>^2 by 2e-15
    # and delta_phi by 1e-15 / (1 - <P>^2) relative (1.7e-11 at NOON N = 89,
    # phi = 0.3); the test allows four times that.
    sets = [(2.0 / 3.0, 0.0), (1.0 / 3.0, 0.0), (0.5, 0.0), (0.5, math.pi), (0.5, math.pi / 4.0)]
    states = [noon_input(n) for n in range(1, 401)]
    for n in range(2, 401, 2):
        states += [dual_fock_input(n // 2), yurke_input(n), pezze_smerzi_input(n)]
        states += [
            combined_input(n, CombinedStateParams(math.sqrt(a), math.sqrt(1.0 - a), theta))
            for a, theta in sets
        ]
    spreads = np.array([_jy_spread(state) for state in states])
    blind = spreads < 1e-12  # Pezze-Smerzi at N = 2 is a J_y eigenstate
    assert blind.sum() == 1
    for phi in (1e-3, 0.3, 1.3):
        results = phase_uncertainties(states, phi)
        delta = np.array([r.delta_phi for r in results])
        assert np.all(np.isinf(delta[blind]))
        ratio = delta[~blind] * 2.0 * spreads[~blind]
        tol = 1e-13 + 4e-15 / np.array([1.0 - r.expectation**2 for r in results])[~blind]
        assert np.all(ratio >= 1.0 - tol)
        assert np.all(np.abs(ratio[:400] - 1.0) <= tol[:400])  # the NOON states


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_closed_forms_reject_non_finite_inputs(phi):
    for label, n in (("noon", 4), ("dual-fock", 4), ("coherent", 3.0), ("combined", 4)):
        for fn in (closed_form_expectation, closed_form_derivative, closed_form_uncertainty):
            with pytest.raises(DomainError):
                fn(label, n, phi)
    with pytest.raises(DomainError):
        closed_form_expectation("coherent", phi, 0.3)  # nbar


def test_dual_fock_closed_form_limit_matches_exact_value():
    for n in range(2, 201, 2):
        exact = math.sqrt(2.0) / math.sqrt(n * (n + 2.0))
        assert closed_form_uncertainty_limit("dual-fock", n) == pytest.approx(exact, rel=2e-8)


def test_pezze_smerzi_closed_form_limit_matches_engine():
    for n in range(2, 201, 2):
        engine = phase_uncertainty_limit(pezze_smerzi_input(n))
        quoted = closed_form_uncertainty_limit("pezze-smerzi", n)
        if math.isinf(engine):
            assert quoted == math.inf
        else:
            assert quoted == pytest.approx(engine, rel=5e-8)


def _parity_image(state, two_j, vec):
    signs = np.where(np.arange(two_j + 1) % 2 == 0, 1.0, -1.0)
    if state.frame is Frame.AT_INPUT:
        return signs * vec
    return wigner._I_POWERS[two_j % 4] * signs * vec[::-1]


def _on_row_zero(state, vec):
    """An at-input block whose only nonzero amplitude is row 0 (mu = +j)."""
    return state.frame is Frame.AT_INPUT and vec[0] != 0 and not np.any(vec[1:])


def full_spectrum(state):
    """The engine's grid, with the exact binomial weights of each row-0 block added.

    Row 0 of the J_y eigenvectors squared is C(2j, k) / 4^j at lam_k = k - j,
    so a row-0 block adds |psi_0|^2 C(2j, k) / 2^(2j) there: the weights the
    engine no longer forms, since it reads those blocks as cos(phi)^(2j).
    """
    spectrum = detection._spectra([state])
    top = max(state.components)
    weights = np.zeros(2 * top + 1, dtype=complex)
    inner = (spectrum.weights.size - 1) // 2
    if spectrum.weights.size:
        weights[top - inner : top + inner + 1] += spectrum.weights
    row_zero = {
        two_j: vec[0] for two_j, vec in state.components.items() if _on_row_zero(state, vec)
    }
    row = np.ones(1)  # C(n, k) / 2^n, advanced by Pascal's rule
    for n in range(max(row_zero, default=-1) + 1):
        if n:
            row = 0.5 * (np.r_[row, 0.0] + np.r_[0.0, row])
        if n in row_zero:
            weights[top - n : top + n + 1 : 2] += abs(row_zero[n]) ** 2 * row
    return weights, (np.arange(2 * top + 1) - top) / 2.0


@pytest.mark.parametrize(
    "label,n",
    [("coherent", 30), ("noon", 41), ("dual-fock", 60), ("noon-internal", 9),
     ("berry-wiseman", 12), ("combined", 10), ("modified-yuen", 15)],
)
def test_spectrum_weights_sum_to_parity_at_zero(label, n):
    # the grid spans the largest block that is not on row 0 alone, and
    # each row-0 block is cos(0)^(2j) = 1 times its weight
    state = make_state(label, n)
    spectrum = detection._spectra([state])
    gridded = [
        two_j for two_j, vec in state.components.items() if not _on_row_zero(state, vec)
    ]
    top = max(gridded, default=-0.5)
    assert np.array_equal(spectrum.freqs, (np.arange(int(2 * top + 1)) - top) / 2.0)
    want = sum(
        np.vdot(vec, _parity_image(state, two_j, vec))
        for two_j, vec in state.components.items()
    )
    assert abs(spectrum.weights.sum() + spectrum.probs.sum() - want) <= 1e-13


def _jy_dense(two_j):
    """Complex J_y = (J_+ - J_-)/(2i) on one block, rows by descending mu."""
    n = two_j + 1
    mu = (two_j - 2.0 * np.arange(n)) / 2.0
    jj = (two_j / 2.0) * (two_j / 2.0 + 1.0)
    raise_ = np.zeros((n, n))
    for col in range(1, n):  # J_+ |mu> = sqrt(jj - mu(mu+1)) |mu+1>
        raise_[col - 1, col] = math.sqrt(jj - mu[col] * (mu[col] + 1.0))
    return (raise_ - raise_.T) / 2j


@pytest.mark.parametrize("frame", [Frame.AT_INPUT, Frame.INSIDE_INTERFEROMETER])
def test_spectrum_matches_per_amplitude_sum(frame):
    # blocks of both parities of 2j, random amplitudes, some exact zeros
    rng = np.random.default_rng(7)
    blocks = {}
    for two_j in (0, 1, 2, 3, 4, 7):
        vec = rng.standard_normal(two_j + 1) + 1j * rng.standard_normal(two_j + 1)
        vec[rng.random(two_j + 1) < 0.3] = 0.0
        blocks[two_j] = vec
    norm = math.sqrt(sum(np.vdot(v, v).real for v in blocks.values()))
    state = TwoModeState({k: v / norm for k, v in blocks.items()}, frame, "mixed")
    top = max(state.components)
    want = np.zeros(2 * top + 1, dtype=complex)
    for two_j, vec in state.components.items():
        image = _parity_image(state, two_j, vec)
        if frame is Frame.AT_INPUT:
            lam, basis = np.linalg.eigh(_jy_dense(two_j))
            terms = [(lam[k], np.vdot(basis[:, k], image).conjugate() * np.vdot(basis[:, k], vec))
                     for k in range(two_j + 1)]
        else:
            terms = [(-(two_j - 2.0 * r) / 2.0, np.conj(vec[r]) * image[r])
                     for r in range(two_j + 1)]
        for freq, weight in terms:
            want[top + int(round(2.0 * freq))] += weight
    weights, _ = full_spectrum(state)
    assert np.abs(weights - want).max() <= 1e-14


@pytest.mark.parametrize("phi", [1e-4, 1e-3, 0.02])
def test_noon_uncertainty_is_exact_near_zero_phase(phi):
    for n in range(1, 13):
        for state in (noon_input(n), noon_internal(n)):
            result = phase_uncertainty(state, phi)
            assert result.delta_phi * n == pytest.approx(1.0, rel=2e-15, abs=0.0)
    # <P> = -cos 2phi for the two-photon internal NOON state
    assert phase_uncertainty(noon_internal(2), phi).variance == pytest.approx(
        math.sin(2.0 * phi), rel=2e-15, abs=0.0
    )


def test_variance_away_from_zero_phase_is_one_minus_square():
    # 8 phi is pi - 2.3e-4 here: <P> is near -1 away from phi = 0, where the
    # expm1 route would only trade one roundoff for another
    result = phase_uncertainty(noon_input(8), 0.3926707666874683)
    assert result.variance == math.sqrt(1.0 - result.expectation**2)


def test_coherent_uncertainty_near_zero_phase_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for nbar in (1.0, 16.0, 50.0):
            for phi in (1e-4, 1e-3):
                x, p = mp.mpf(nbar), mp.mpf(phi)
                envelope = mp.cos(p)  # sqrt((1 + cos 2phi)/2) for |phi| < pi/2
                value = mp.exp(-x + x * envelope)
                slope = value * x * mp.sin(2 * p) / (2 * envelope)
                want = float(mp.sqrt(1 - value**2) / slope)
                got = phase_uncertainty(coherent_input(nbar), phi).delta_phi
                # the 1e-12 truncation tail of coherent_input is the floor
                assert got == pytest.approx(want, rel=1e-11)


def test_dual_fock_matches_legendre_on_middle_rows():
    # |N/2, N/2> reads the middle row of each eigenvector, the far end of
    # the eigenvector recurrence: <P> = (-1)^(N/2) P_{N/2}(cos 2 phi)
    mp = pytest.importorskip("mpmath")
    for n_total in range(100, 301, 4):
        state = dual_fock_input(n_total // 2)
        order = n_total // 2
        for phi in (0.05, 0.3, 0.7, 1.1):
            with mp.workdps(30):
                x = mp.cos(2 * mp.mpf(phi))
                sign = (-1) ** order
                value = mp.legendre(order, x)
                slope = order * (x * value - mp.legendre(order - 1, x)) / (x * x - 1)
                want = float(sign * value)
                want_slope = float(sign * slope * -2 * mp.sin(2 * mp.mpf(phi)))
            assert abs(parity_expectation(state, phi) - want) <= 4e-15
            error = abs(parity_derivative(state, phi) - want_slope)
            assert error <= 5e-13 * max(1.0, abs(want_slope))


@pytest.mark.parametrize("order", [2500, 10000])
def test_dual_fock_points_past_the_dense_eigensystem_budget(order):
    # 2j = 5000 and 20000: the one stored row builds one J_y eigenvector,
    # where every column would take 0.2 GB and 3.2 GB
    want = (-1) ** order * np.polynomial.legendre.legval(math.cos(0.6), [0.0] * order + [1.0])
    tracemalloc.start()
    try:
        result = phase_uncertainty(dual_fock_input(order), 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(result.expectation - want) <= 1e-13
    assert peak < 4 * 2**20


@pytest.mark.parametrize("nbar", [math.nan, math.inf])
def test_coherent_closed_form_limit_rejects_non_finite_nbar(nbar):
    with pytest.raises(DomainError):
        closed_form_uncertainty_limit("coherent", nbar)


def test_benchmark_limits_rejects_infinity():
    with pytest.raises(DomainError):
        benchmark_limits(math.inf)


def test_bool_is_not_a_photon_number():
    with pytest.raises(DomainError):
        benchmark_limits(True)
    for label in ("noon", "single-fock", "coherent"):
        for fn in (closed_form_expectation, closed_form_derivative, closed_form_uncertainty):
            with pytest.raises(DomainError):
                fn(label, True, 0.1)
        with pytest.raises(DomainError):
            closed_form_uncertainty_limit(label, True)


def _eigen_projection(state):
    """At-input weights with every block projected on a dense eigh of its phased J_y.

    The phased J_y is the real tridiagonal T with T[r, r+1] = -sqrt((r+1)(2j-r))/2.
    Its eigenvectors come with arbitrary signs, so the ones at lam > 0 are
    taken as the parity mirror D v of those at -lam, as the engine's are;
    each weight pairs k with 2j - k, so the remaining signs cancel.
    """
    top = max(state.components)
    assert top <= 9
    weights = np.zeros(2 * top + 1, dtype=complex)
    for two_j, vec in state.components.items():
        n = two_j + 1
        off = -0.5 * np.sqrt(np.arange(1.0, n) * np.arange(two_j, 0.0, -1.0))
        _, basis = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        signs = np.where(np.arange(n) % 2, -1.0, 1.0)
        basis[:, n - n // 2 :] = signs[:, None] * basis[:, : n // 2][:, ::-1]
        plain = (wigner._I_POWERS[np.arange(n) % 4] * vec) @ basis
        weights[top - two_j : top + two_j + 1 : 2] += np.conj(plain[::-1]) * plain
    return weights


ROW_ZERO_PHIS = (0.0, 1e-6, 1e-3, 0.3, math.pi / 2, 2.0, 3.0, -0.7)


def _check_against_eigen_projection(state, weights=None):
    """<P>, d<P>/dphi and delta_phi against every block projected on its eigensystem.

    The reference takes 1 -+ <P> the way the engine does, from the odd and
    even rows and an expm1 shift, so delta_phi keeps its accuracy near
    phi = 0 on both sides.  Its own derivative error grows with the block,
    to about 1.2e-14 at 2j = 2200.  Other reference weights on the same
    grid may be passed instead.
    """
    if weights is None:
        weights = _eigen_projection(state)
    top = max(state.components)
    freqs = (np.arange(2 * top + 1) - top) / 2.0
    below = above = 0.0
    for vec in state.components.values():
        below += 2.0 * np.vdot(vec[1::2], vec[1::2]).real
        above += 2.0 * np.vdot(vec[0::2], vec[0::2]).real
    slope_tol = 1e-14 * max(1.0, top / 1000.0)
    for phi in ROW_ZERO_PHIS:
        phase = np.exp(-2j * phi * freqs)
        want = np.sum(weights * phase).real
        want_slope = np.sum(weights * (-2j * freqs) * phase).real
        result = phase_uncertainty(state, phi)
        assert abs(result.expectation - want) <= 1e-14
        assert abs(result.derivative - want_slope) <= slope_tol
        assert parity_expectation(state, phi) == result.expectation
        assert parity_derivative(state, phi) == result.derivative
        if abs(phi) * top < 1.0:
            shift = np.sum(weights * np.expm1(-2j * phi * freqs)).real
            spread = (below - shift) * (above + shift)
        else:
            spread = 1.0 - want * want
        if abs(want_slope) >= 1e-12:
            # errors of 1e-14 in <P> and slope_tol in the slope, propagated
            rel = 1e-12 + slope_tol / abs(want_slope) + 1e-14 / spread
            want_delta = math.sqrt(spread) / abs(want_slope)
            assert result.delta_phi == pytest.approx(want_delta, rel=rel, abs=0.0)
        elif abs(want_slope) < 1e-15:
            assert result.delta_phi == math.inf


@pytest.mark.parametrize(
    "label,n",
    [("coherent", nbar) for nbar in (0.5, 9, 30, 150, 400, 1000)]
    + [("single-fock", n) for n in (1, 2, 7, 300, 2200)],
)
def test_row_zero_blocks_match_eigensystem_projection(label, n):
    # every block sits on row 0 alone, so <P> is sum p_n cos(phi)^n: no grid
    state = make_state(label, n)
    spectrum = detection._spectra([state])
    assert spectrum.weights.size == 0 and spectrum.powers.size == len(state.components)
    # the eigenvectors' row 0, squared, is the binomial C(2j, k) / 4^j that
    # full_spectrum adds
    _check_against_eigen_projection(state, full_spectrum(state)[0])


def _row_zero_mixed_state():
    """Row-0 blocks 0, 3, 6 and 9 beside general blocks 5 and 8 (8 with row 0 too)."""
    rng = np.random.default_rng(11)
    blocks = {}
    for two_j in (0, 3, 5, 6, 8, 9):
        blocks[two_j] = np.zeros(two_j + 1, dtype=complex)
        blocks[two_j][0] = rng.standard_normal() + 1j * rng.standard_normal()
    for two_j in (5, 8):  # general blocks, one with row 0 occupied too
        blocks[two_j][2:] = rng.standard_normal(two_j - 1)
    blocks[5][0] = 0.0
    norm = math.sqrt(sum(np.vdot(v, v).real for v in blocks.values()))
    return TwoModeState({k: v / norm for k, v in blocks.items()}, Frame.AT_INPUT, "mixed")


def test_row_zero_rule_in_a_mixed_state(monkeypatch):
    state = _row_zero_mixed_state()
    built = []
    original = wigner._run_columns

    def counting(two_js, seeds, take):
        built.extend(np.unique(two_js).tolist())
        return original(two_js, seeds, take)

    monkeypatch.setattr(wigner, "_run_columns", counting)
    spectrum = detection._spectra([state])
    assert sorted(built) == [5, 8]
    assert spectrum.powers.tolist() == [0, 3, 6, 9]
    assert spectrum.weights.size == 2 * 8 + 1
    _check_against_eigen_projection(state)


@pytest.mark.parametrize(
    "state",
    [coherent_input(0.5), single_fock_input(1), single_fock_input(7), _row_zero_mixed_state()],
    ids=["coherent-0.5", "single-fock-1", "single-fock-7", "mixed"],
)
def test_row_zero_closed_form_matches_oracle(state):
    assert max(state.components) <= 12
    for phi in ROW_ZERO_PHIS:
        want = bruteforce_parity_expectation(state, phi)
        assert parity_expectation(state, phi) == pytest.approx(want, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("nbar", [0.5, 30.0, 1000.0])
def test_coherent_parity_deficit_keeps_relative_accuracy_near_zero_phase(nbar):
    # 1 - <P> is about nbar phi^2 / 2 here, far below the roundoff of <P>
    # itself; the engine's spread (1 - <P>)(1 + <P>) must carry it to 1e-10
    phi = 1e-6
    result = phase_uncertainty(coherent_input(nbar), phi)
    got = result.variance**2 / (1.0 + result.expectation)
    want = -math.expm1(-2.0 * nbar * math.sin(0.5 * phi) ** 2)  # 1 - exp(-nbar (1 - cos phi))
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_coherent_and_single_fock_need_no_eigensystem(monkeypatch):
    # _run_columns is the J_y recurrence behind every eigenvector
    def refuse(two_js, seeds, take):
        raise AssertionError(f"J_y recurrence run for 2j = {two_js}")

    monkeypatch.setattr(wigner, "_run_columns", refuse)
    coherent = coherent_input(1000.0)
    assert phase_uncertainty_limit(coherent) * math.sqrt(1000.0) == pytest.approx(
        1.0, rel=0.0, abs=1e-12
    )
    single = single_fock_input(2000)
    assert phase_uncertainty_limit(single) * math.sqrt(2000.0) == pytest.approx(
        1.0, rel=0.0, abs=1e-12
    )
    for state, size in ((coherent, 1000.0), (single, 2000)):
        label = state.label
        result = phase_uncertainty(state, 0.01)
        assert result.expectation == pytest.approx(
            closed_form_expectation(label, size, 0.01), rel=1e-11
        )
        assert result.derivative == pytest.approx(
            closed_form_derivative(label, size, 0.01), rel=1e-11
        )


def test_parity_gaps_copy_one_block_at_a_time():
    # near phi = 0 the uncertainty reads 1 -+ <P>(0) off the odd and even
    # stored rows, which keeps the peak far below the 3.5M dense
    # amplitudes of this state
    state = coherent_input(4000.0)
    tracemalloc.start()
    try:
        result = phase_uncertainty(state, 1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # shot noise, up to the finite-phi correction of about nbar phi^2 / 4
    assert result.delta_phi * math.sqrt(4000.0) == pytest.approx(1.0, abs=1e-6)
    assert peak < 2 * 2**20


def test_inside_parity_gaps_count_rows_whose_mirror_is_not_stored():
    # block 5 stores rows 0 and 1 without their mirrors 5 and 4, block 4 the
    # mirror pair 1, 3, and block 2 row 0 without row 2
    entries = {5: {0: 0.5, 1: 0.3j}, 4: {1: 0.4 - 0.2j, 3: -0.35}, 2: {0: 0.25 + 0.1j}}
    blocks = {two_j: np.zeros(two_j + 1, dtype=complex) for two_j in entries}
    for two_j, rows in entries.items():
        blocks[two_j][list(rows)] = list(rows.values())
    norm = math.sqrt(sum(np.vdot(v, v).real for v in blocks.values()))
    state = TwoModeState(
        {k: v / norm for k, v in blocks.items()}, Frame.INSIDE_INTERFEROMETER, "unpaired"
    )
    image, paired = detection._q_image(state)
    want = [q_apply(two_j, state.block(two_j))[rows] for two_j, rows, _ in state.stored_blocks()]
    np.testing.assert_array_equal(image, np.concatenate(want))
    assert paired.tolist() == [False, False, True, True, False]
    for phi in (1e-3, 0.05):
        p = bruteforce_parity_expectation(state, phi)
        variance = phase_uncertainty(state, phi).variance
        assert abs(variance**2 - (1.0 - p) * (1.0 + p)) <= 1e-14


@pytest.mark.parametrize("two_j", [101, 102, 103, 140])
def test_q_image_equals_dense_q_apply_exactly(two_j):
    rng = np.random.default_rng(two_j)
    vec = rng.standard_normal(two_j + 1) + 1j * rng.standard_normal(two_j + 1)
    state = TwoModeState(
        {two_j: vec / np.linalg.norm(vec)}, Frame.INSIDE_INTERFEROMETER, "dense"
    )
    image, paired = detection._q_image(state)
    assert paired.all()
    np.testing.assert_array_equal(image, q_apply(two_j, state.block(two_j)))


def test_engine_reads_build_no_dense_vector(monkeypatch):
    def refuse(self):
        raise AssertionError(f"dense components of {self.label!r} built")

    monkeypatch.setattr(TwoModeState, "components", property(refuse))
    states = []
    for label in STATE_LABELS:
        for n in (5, 9) if label in ("yuen", "modified-yuen") else (6, 10):
            state = build_state(label, n)
            states.append(state)
            if state.frame is Frame.AT_INPUT:
                states.append(apply_beam_splitter(state))
    assert sum(s.frame is Frame.INSIDE_INTERFEROMETER for s in states) == 22
    for state in states:
        for phi in (0.05, 0.7):
            phase_uncertainty(state, phi)
            parity_expectation(state, phi)
            parity_derivative(state, phi)
        phase_uncertainty_limit(state)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)
