"""Parity-detection observables and the error-propagation phase uncertainty.

Fixed-phi observables come from one spectrum per state: weights w and
frequencies lam, plus the at-input blocks stored on row 0 alone, such that

    <P>(phi) = sum_k w_k exp(-2i phi lam_k) + sum_b p_b cos(phi)^(n_b).

A block whose only stored row is 0 (mu = +j, mode b empty: every coherent
and single-Fock block) is |psi_0|^2 times d[0, 0](2 phi) = cos(phi)^(2j),
so it keeps only n_b = 2j and p_b = |psi_0|^2 and is read in closed form,
with no eigensystem and no grid: a coherent state costs O(blocks).  Every
other block adds into one grid, lam = -J, -J + 1/2, ..., J for the largest
such block 2J, so at most 2 * 2J + 1 terms remain however many blocks and
amplitudes the state has.  For at-input states w_k = conj(<e_k|S psi>)
<e_k|psi> over the J_y eigenvectors e_k of each block, with S the
diagonal parity sign and lam_k the exact eigenvalues; the eigensystem's
exact parity mirror makes <e_k|S psi> the mirror entry of <e_k|psi>, so
each block is projected once, from its stored rows, on the eigenvectors
at those rows alone (the eigenvector matrix is symmetric): a dual-Fock
block builds one eigenvector at any 2j.  For states inside the
interferometer w = conj(psi) (Q psi) and lam = -mu, with no
eigensystem at all: Q maps row r of block 2j to row 2j - r, so Q psi is
read on every stored row at once, by one lookup of each row's mirror in
the flat stored arrays, and the grid, the parity gaps and the phi -> 0
moments of an inside state all come from that one image with no loop
over blocks.  ``parity_expectation`` and ``parity_derivative`` are
sums over that spectrum, and ``phase_uncertainty`` builds it once for
both and takes Delta P from 1 -+ <P> without cancellation.

``phase_uncertainty_limit`` needs no spectrum.  Since P G P = -G for the
phase generator G (J_y at input, J_z inside), <P>(phi) =
<psi| exp(2i phi G) P |psi>, so its Taylor coefficients at phi = 0 are the
moments F_m = <psi|(2iG)^m P psi> / m!: products with the tridiagonal J_y
over a few rows around each block's nonzero amplitudes, or with the
diagonal J_z.  The exact phi -> 0 limit is read off their leading orders.
The engine is cross-checked against the brute-force Fock oracle.

The commonly quoted per-family closed forms are evaluated verbatim by
``closed_form_expectation`` as secondary cross-checks, and their phi -> 0
limit is taken by Richardson extrapolation over phase points, treating
them as black boxes.  Two of them (``berry-wiseman`` and ``combined``,
listed in ``DISCREPANT_CLOSED_FORMS``) carry phase conventions that
contradict the operator algebra, so they disagree with the engine by more
than roundoff and the engine value is authoritative wherever physics is
at stake.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError, NumericalLimitError
from .halfint import HalfInt
from .interferometer import _finite_phase
from .states import (
    CombinedStateParams,
    Frame,
    TwoModeState,
    _positive_int,
    parity_needed,
)
from .wigner import _I_POWERS, _project, d_derivative, d_element

__all__ = [
    "BenchmarkLimits",
    "DISCREPANT_CLOSED_FORMS",
    "DetectionResult",
    "benchmark_limits",
    "closed_form_expectation",
    "closed_form_parts",
    "closed_form_derivative",
    "closed_form_uncertainty",
    "closed_form_uncertainty_limit",
    "parity_derivative",
    "parity_expectation",
    "phase_uncertainty",
    "phase_uncertainty_limit",
]

_RESIDUE_TOL = 1e-10
_DERIVATIVE_FLOOR = 1e-14
# Taylor terms the phi -> 0 limit looks at, and the relative size (against
# each coefficient's bound) below which a coefficient is roundoff.
_TAYLOR_ORDER = 8
_ZERO_TOL = 1e-11

# Families whose quoted closed form deviates from the engine (and from the
# oracle) at equal phi by more than roundoff.  The optimal-state formula
# flips the sign of every odd-nu term, which is the engine's <P> at
# phi + pi/2: parity detection behind a pi/2 bias, the readout the CLI
# limits use.  The combined-state cross term freezes the rotation argument
# and drops the N pi/4 phase offset.  The engine is authoritative for
# both; the quoted forms are still evaluated verbatim for comparison.
DISCREPANT_CLOSED_FORMS = frozenset({"berry-wiseman", "combined"})


@dataclass(frozen=True)
class DetectionResult:
    """Observable bundle at one phase point."""

    phi: float
    expectation: float
    derivative: float
    variance: float
    delta_phi: float


@dataclass(frozen=True)
class BenchmarkLimits:
    """Reference uncertainty scales at total photon number N."""

    n_total: int
    shot_noise: float
    heisenberg: float
    bw_povm: float


def _real_with_residue_check(value: complex, context: str) -> float:
    if abs(value.imag) > _RESIDUE_TOL:
        raise ConsistencyError(
            f"{context}: imaginary residue {value.imag!r} exceeds {_RESIDUE_TOL}"
        )
    return value.real


class _Spectrum(NamedTuple):
    """<P>(phi) = sum_k w_k exp(-2i phi lam_k) + sum_b p_b cos(phi)^(n_b).

    weights and freqs form the grid of the blocks read through an
    eigensystem (at input) or through Q (inside); powers n_b = 2j and probs
    p_b = |psi_0|^2 describe the at-input blocks stored on row 0 alone.
    """

    weights: np.ndarray
    freqs: np.ndarray
    powers: np.ndarray
    probs: np.ndarray


def _q_image(state: TwoModeState) -> tuple[np.ndarray, np.ndarray]:
    """(Q psi)_r = i^(2j) (-1)^r psi_(2j - r) on every stored row r of an inside state.

    Each row's mirror 2j - r is found among the stored rows of its block
    by one searchsorted over keys that rise through the flat arrays.  Also
    returns which rows have their mirror stored; the image is 0 on the rest.
    """
    owner = np.repeat(state.two_js, state.sizes)
    base = np.repeat(np.cumsum(state.two_js + 1) - (state.two_js + 1), state.sizes)
    keys, mirrors = base + state.rows, base + owner - state.rows
    at = np.minimum(np.searchsorted(keys, mirrors), keys.size - 1)
    paired = keys[at] == mirrors
    image = np.where(paired, _I_POWERS[(owner + 2 * state.rows) % 4] * state.amplitudes[at], 0.0)
    return image, paired


def _spectrum(state: TwoModeState) -> _Spectrum:
    """The terms of <P>(phi): a frequency grid, and the row-0 blocks apart.

    An at-input block stored on row 0 alone (mu = +j, mode b empty, as in
    every coherent and single-Fock block) is |psi_0|^2 times
    d[0, 0](2 phi) = cos(phi)^(2j), so it keeps only its 2j and |psi_0|^2
    and needs no eigensystem and no grid.  Every other block adds into
    the grid lam = -J ... J in steps of 1/2, with 2J the largest such
    block, so equal frequencies are merged as they arrive.  At-input
    blocks: w_k = conj(<e_k|S psi>) <e_k|psi> over the J_y eigenvectors
    e_k at lam_k.  The eigensystem's exact parity mirror D V = V[:, ::-1]
    makes <e_k|S psi> the mirror entry of <e_k|psi>, so each block is
    projected once, and only on the eigenvectors at its stored rows.
    Inside states: w = conj(psi) (Q psi) and lam = -mu on every stored
    row, because the phase shifter gives the mu and -mu entries the
    relative phase exp(2i phi mu); one bincount over the flat rows fills
    the grid.
    """
    state.require_normalized()
    at_input = state.frame is Frame.AT_INPUT
    starts = state.offsets[:-1]
    on_row0 = (state.sizes == 1) & at_input
    on_row0[on_row0] = state.rows[starts[on_row0]] == 0
    if at_input:
        gridded = np.flatnonzero(~on_row0)
        top = int(state.two_js[gridded].max(initial=0))
        weights = np.zeros(2 * top + 1 if gridded.size else 0, dtype=complex)
        for two_j, rows, amps in state.stored_blocks(gridded.tolist()):
            plain = _project(two_j, rows, amps)
            weights[top - two_j : top + two_j + 1 : 2] += np.conj(plain[::-1]) * plain
    else:
        top = state.max_two_j
        slots = top - np.repeat(state.two_js, state.sizes) + 2 * state.rows
        terms = np.conj(state.amplitudes) * _q_image(state)[0]
        weights = np.bincount(slots, terms.real, 2 * top + 1) + 1j * np.bincount(
            slots, terms.imag, 2 * top + 1
        )
    return _Spectrum(
        weights,
        (np.arange(weights.size) - top) / 2.0,
        state.two_js[on_row0],
        np.abs(state.amplitudes[starts[on_row0]]) ** 2,
    )


def _cos_powers(phi: float, powers: np.ndarray) -> np.ndarray:
    """cos(phi)^n for integer n, accurate where it stays near +-1 at large n.

    Where |cos phi| >= 1/2, log|cos phi| is log1p(-2 sin^2(phi/2)) or
    log1p(-2 cos^2(phi/2)), both free of cancellation, so the powers keep
    full relative accuracy near phi = 0 and pi.  The double nearest a zero
    of cos is never one, so negative n stay finite.
    """
    cosine = math.cos(phi)
    if abs(cosine) < 0.5:
        return cosine ** powers.astype(float)
    half = math.sin(0.5 * phi) if cosine > 0.0 else math.cos(0.5 * phi)
    values = np.exp(powers * math.log1p(-2.0 * half * half))
    if cosine < 0.0:
        values[powers % 2 == 1] *= -1.0
    return values


def _parity_gaps(state: TwoModeState) -> tuple[float, float]:
    """||psi - P psi||^2 / 2 and ||psi + P psi||^2 / 2, that is 1 -+ <P>(0).

    P is S at input and Q inside.  Both are sums of squares, so they keep
    full relative accuracy where 1 - <P> itself would cancel.  At input
    they are twice the mass of the odd and of the even stored rows.
    Inside, psi -+ Q psi is taken on the stored rows; a row whose mirror
    is not stored adds its |psi|^2 once more, for the mirror row, where
    psi is 0 and Q psi is not.
    """
    amps = state.amplitudes
    if state.frame is Frame.AT_INPUT:
        odd = state.rows % 2 == 1
        return 2.0 * np.vdot(amps[odd], amps[odd]).real, 2.0 * np.vdot(amps[~odd], amps[~odd]).real
    image, paired = _q_image(state)
    minus, plus = amps - image, amps + image
    unpaired = np.vdot(amps[~paired], amps[~paired]).real
    return (
        0.5 * (np.vdot(minus, minus).real + unpaired),
        0.5 * (np.vdot(plus, plus).real + unpaired),
    )


def _expectation_at(spectrum: _Spectrum, phi: float) -> complex:
    weights, freqs, powers, probs = spectrum
    value = complex(np.sum(weights * np.exp(-2j * phi * freqs)))
    if powers.size:
        value += probs @ _cos_powers(phi, powers)
    return value


def _derivative_at(spectrum: _Spectrum, phi: float) -> complex:
    weights, freqs, powers, probs = spectrum
    value = complex(np.sum(weights * (-2j * freqs) * np.exp(-2j * phi * freqs)))
    if powers.size:
        # d/dphi cos^n = -n sin cos^(n-1); the factor n makes the 2j = 0 term exactly 0
        value -= math.sin(phi) * ((probs * powers) @ _cos_powers(phi, powers - 1))
    return value


def _shift_at(spectrum: _Spectrum, phi: float) -> float:
    """<P>(phi) - <P>(0) without cancellation, for |phi| 2J < 1 (so cos(phi) > 0).

    Grid terms take w expm1(-2i phi lam), and a row-0 block
    p expm1(n log1p(-2 sin^2(phi/2))), since cos phi = 1 - 2 sin^2(phi/2).
    """
    weights, freqs, powers, probs = spectrum
    shift = float(np.sum(weights * np.expm1(-2j * phi * freqs)).real)
    if powers.size and powers.max() > 0:  # a block 2j = 0 alone never moves
        shift += float(probs @ np.expm1(powers * math.log1p(-2.0 * math.sin(0.5 * phi) ** 2)))
    return shift


def parity_expectation(state: TwoModeState, phi: float) -> float:
    """<P> after phase phi: output-port photon-number parity."""
    phi = _finite_phase(phi)
    value = _expectation_at(_spectrum(state), phi)
    return _real_with_residue_check(value, f"parity expectation for {state.label!r}")


def parity_derivative(state: TwoModeState, phi: float) -> float:
    """d<P>/dphi, differentiating the same spectral sum term by term."""
    phi = _finite_phase(phi)
    value = _derivative_at(_spectrum(state), phi)
    return _real_with_residue_check(value, f"parity derivative for {state.label!r}")


def _bundle(
    phi: float, expectation: float, derivative: float, spread: float
) -> DetectionResult:
    """Result at one phase point; spread is 1 - <P>^2, Delta P its square root."""
    if abs(expectation) > 1.0 + 1e-10:
        raise ConsistencyError(
            f"expectation {expectation!r} leaves [-1, 1] beyond tolerance"
        )
    variance = math.sqrt(max(spread, 0.0))
    if abs(derivative) < _DERIVATIVE_FLOOR:
        delta_phi = math.inf
    else:
        delta_phi = variance / abs(derivative)
    return DetectionResult(phi, expectation, derivative, variance, delta_phi)


def phase_uncertainty(state: TwoModeState, phi: float) -> DetectionResult:
    """Error-propagation uncertainty delta phi = Delta P / |d<P>/dphi|.

    Delta P = sqrt((1 - <P>)(1 + <P>)) because P^2 = 1.  Near phi = 0,
    while every phase 2 phi lam of the spectrum stays below one radian,
    each factor is taken as 1 -+ <P>(0) from _parity_gaps -+ the change
    sum w expm1(-2i phi lam) of <P> since phi = 0, so Delta P keeps full
    relative accuracy as <P> -> +-1 there.  Further out Delta P is
    sqrt(1 - <P>^2).  Points where the derivative vanishes (below 1e-14)
    report +infinity; the phi -> 0 operating point is handled by
    phase_uncertainty_limit instead.  A non-finite phi raises DomainError.
    """
    phi = _finite_phase(phi)
    spectrum = _spectrum(state)
    context = f"for {state.label!r}"
    expectation = _real_with_residue_check(
        _expectation_at(spectrum, phi), f"parity expectation {context}"
    )
    derivative = _real_with_residue_check(
        _derivative_at(spectrum, phi), f"parity derivative {context}"
    )
    if abs(phi) * state.max_two_j < 1.0:
        shift = _shift_at(spectrum, phi)
        below, above = _parity_gaps(state)
        spread = (below - shift) * (above + shift)
    else:
        spread = 1.0 - expectation * expectation
    return _bundle(phi, expectation, derivative, spread)


def _phi_ladder(two_j_max: int) -> list[float]:
    return [1e-2 / (2**k * (two_j_max + 1)) for k in range(7)]


def _extrapolate_limit(values: list[float], context: str) -> float:
    """Richardson extrapolation on a halving ladder, assuming a power series.

    Column m removes the phi^m term (weight 2^m), so the scheme converges
    whether the uncertainty is even in phi or carries odd terms too (it
    does for states mixing adjacent mu values).  The entry with the
    smallest self-consistency estimate wins, which keeps cancellation
    noise at the deepest ladder points from polluting the answer.  A
    sequence that grows by an order of magnitude is reported as +infinity
    (divergent limit), and anything that neither converges nor diverges
    raises NumericalLimitError.
    """
    finite = [math.isfinite(v) for v in values]
    if not any(finite):
        return math.inf
    if not all(finite):
        raise NumericalLimitError(
            f"{context}: mixed finite/non-finite uncertainty ladder {values!r}"
        )
    increasing = all(b >= a for a, b in zip(values, values[1:]))
    if increasing and values[-1] > 10.0 * values[0]:
        return math.inf
    # Neville walk, shallow rows first.  Deep ladder points sit closest to
    # the 0/0 cancellation and are the noisiest, so the walk aborts once
    # the diagonal stops improving on the best estimate seen so far.
    rows = [[values[0]]]
    best_value = values[0]
    best_estimate = math.inf
    for k in range(1, len(values)):
        row = [values[k]]
        for m in range(1, k + 1):
            weight = 2.0**m
            entry = (weight * row[m - 1] - rows[k - 1][m - 1]) / (weight - 1.0)
            estimate = max(abs(entry - row[m - 1]), abs(entry - rows[k - 1][m - 1]))
            row.append(entry)
            if estimate <= best_estimate:
                best_value, best_estimate = entry, estimate
        rows.append(row)
        if k >= 2 and abs(row[-1] - rows[k - 1][-1]) >= 2.0 * best_estimate:
            break
    if best_estimate <= 1e-6 * max(abs(best_value), 1e-12):
        return best_value
    raise NumericalLimitError(
        f"{context}: limit did not converge (best estimate {best_estimate!r} "
        f"for value {best_value!r}; ladder {values!r})"
    )


def _leading_order(coeffs: np.ndarray, bounds: np.ndarray) -> int | None:
    """Index of the first coefficient that is not roundoff, or None."""
    above = np.flatnonzero(np.abs(coeffs) > _ZERO_TOL * bounds)
    return int(above[0]) if above.size else None


def _taylor_series(state: TwoModeState) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients F_m of <P>(phi) at phi = 0, m <= _TAYLOR_ORDER, and their bounds.

    <P>(phi) = <psi| exp(2i phi G) P |psi>, so F_m = <psi|(2iG)^m P psi> / m!.
    Inside the interferometer G = J_z and P = Q, so the moments are one
    product of conj(psi) (Q psi) on the stored rows with the Vandermonde
    matrix of 2i mu.  At input G = J_y and P = S, and 2i J_y = J_+ - J_-
    is the real tridiagonal matrix with <mu_r|J_+|mu_(r+1)> =
    sqrt((r+1)(2j-r)) above the diagonal and its negative below.  Its
    m-th power reaches m rows beyond the stored ones, so each block keeps
    only the rows within _TAYLOR_ORDER of its first and last stored row,
    which is exact for every m kept; all blocks share one flat array,
    built from the stored rows in one pass, whose coupling is zero at
    block edges.  A row-0 block (coherent,
    single-Fock) costs O(_TAYLOR_ORDER), and no block needs an
    eigensystem.  |F_m| <= (2J)^m / m! for a normalized state, with 2J
    the largest block; those are the bounds.
    """
    state.require_normalized()
    order = _TAYLOR_ORDER
    factorials = np.array([math.factorial(m) for m in range(order + 1)], dtype=float)
    if state.frame is Frame.AT_INPUT:
        offsets, two_js = state.offsets, state.two_js
        firsts = np.maximum(state.rows[offsets[:-1]] - order, 0)
        widths = np.minimum(state.rows[offsets[1:] - 1] + order, two_js) - firsts + 1
        ends = np.cumsum(widths)
        row_zero_at = ends - widths - firsts  # flat index of each block's row 0
        # block size and row index of every entry of the flat array
        block = np.repeat(two_js, widths)
        row = np.arange(ends[-1]) - np.repeat(row_zero_at, widths)
        raising = np.sqrt((row[:-1] + 1.0) * (block[:-1] - row[:-1]))
        raising[ends[:-1] - 1] = 0.0  # no coupling from one block into the next
        # u_k = A^k psi for A = J_+ - J_-, k <= order/2 rounded up.  A is
        # real and antisymmetric, and S A S = -A, so
        # <psi|A^m S psi> = (-1)^m <u_a|S u_b> for any a + b = m.
        powers = np.zeros((order - order // 2 + 1, ends[-1]), dtype=complex)
        powers[0, np.repeat(row_zero_at, state.sizes) + state.rows] = state.amplitudes
        for k in range(order - order // 2):
            np.multiply(raising, powers[k, 1:], out=powers[k + 1, :-1])
            powers[k + 1, 1:] -= raising * powers[k, :-1]
        left = powers * np.where(row % 2, -1.0, 1.0)
        gram = np.conj(left, out=left) @ powers.T  # <u_a|S u_b>
        m = np.arange(order + 1)
        series = np.where(m % 2, -1.0, 1.0) * gram[m // 2, m - m // 2]
    else:
        generator = 1j * (np.repeat(state.two_js, state.sizes) - 2.0 * state.rows)
        term = np.conj(state.amplitudes) * _q_image(state)[0]
        series = term @ np.vander(generator, order + 1, increasing=True)
    top = state.max_two_j
    return series / factorials, np.array([float(top**m) for m in range(order + 1)]) / factorials


def _limit_from_series(series: np.ndarray, bounds: np.ndarray, context: str) -> float:
    """Exact phi -> 0 limit of sqrt(1 - f^2) / |f'| for f = sum_m series[m] phi^m.

    bounds[m] bounds |series[m]|, and a coefficient counts as zero below
    _ZERO_TOL times its bound.  If every coefficient past the constant is
    zero, f does not depend on phi and the limit is +inf: for a
    normalized state with |F_0| < 1 the limit diverges anyway, and with
    |F_0| = 1, P psi = +-psi, so F_2 = 0 forces G psi = 0 and the state
    is phase-blind.  Otherwise, with p and q the leading orders of
    1 - f^2 and f', the uncertainty behaves as phi^(p/2 - q): finite when
    p = 2q, +inf when p < 2q.  No leading order within the coefficients
    given, or orders no state can have, raise NumericalLimitError;
    coefficients that are not real raise ConsistencyError.
    """
    if np.all(np.abs(series[1:]) <= _ZERO_TOL * bounds[1:]):
        return math.inf
    if np.any(np.abs(series.imag) > _ZERO_TOL * bounds):
        raise ConsistencyError(f"{context}: Taylor coefficients {series!r} are not real")
    series = series.real
    order = series.size - 1
    # 1 - f^2 and f' as power series; the bounds propagate the same way
    spread = -np.convolve(series, series)[: order + 1]
    spread[0] += 1.0
    spread_bounds = np.convolve(bounds, bounds)[: order + 1]
    orders = np.arange(1, order + 1)
    slope, slope_bounds = series[1:] * orders, bounds[1:] * orders
    p = _leading_order(spread, spread_bounds)
    q = _leading_order(slope, slope_bounds)
    if p is not None and q is not None and p == 2 * q and spread[p] > 0.0:
        return math.sqrt(spread[p]) / abs(slope[q])
    if p is not None and (q is None or p < 2 * q):
        return math.inf
    raise NumericalLimitError(
        f"{context}: no consistent leading orders within {order} Taylor terms "
        f"(1 - <P>^2 starts at order {p}, d<P>/dphi at order {q}; coefficients {series!r})"
    )


def phase_uncertainty_limit(state: TwoModeState) -> float:
    """The phi -> 0 operating-point uncertainty, from Taylor coefficients.

    Exact: the leading orders of 1 - <P>^2 and d<P>/dphi at phi = 0 come
    from the moments <psi|(2iG)^m P psi> of the phase generator G, so no
    phase point is evaluated and no eigensystem is built.  Returns
    +infinity for states with no phase information (for example the
    plain Yuen state) and for divergent limits; raises
    NumericalLimitError if no leading order appears within the Taylor
    terms kept.
    """
    series, bounds = _taylor_series(state)
    return _limit_from_series(
        series, bounds, f"phase uncertainty limit for {state.label!r}"
    )


def benchmark_limits(n_total: int) -> BenchmarkLimits:
    """Shot-noise, Heisenberg, and optimal-POVM reference scales."""
    n_total = _positive_int(n_total, "n_total")
    # tan(pi/4) rounds just below 1 in floats; the N = 2 value is exactly 1
    povm = 1.0 if n_total == 2 else math.tan(math.pi / (n_total + 2))
    return BenchmarkLimits(
        n_total=n_total,
        shot_noise=1.0 / math.sqrt(n_total),
        heisenberg=1.0 / n_total,
        bw_povm=povm,
    )


def _closed_form_size(label: str, n) -> float | int:
    """The closed forms' photon number N, or nbar for ``coherent``, validated."""
    if label != "coherent":
        return _positive_int(n, f"{label} closed form N")
    try:
        nbar = math.nan if isinstance(n, bool) else float(n)
    except (TypeError, ValueError, OverflowError):
        nbar = math.nan
    if not math.isfinite(nbar) or nbar <= 0:
        raise DomainError(f"coherent closed form needs finite nbar > 0, got {n!r}")
    return nbar


def _closed_form_complex(
    label: str, n, phi: float, params: CombinedStateParams | None, derivative: bool
) -> complex:
    """Quoted closed forms, literally, with their i^j / i^N factors intact."""
    phi = _finite_phase(phi)
    n = _closed_form_size(label, n)
    if label == "coherent":
        nbar = n
        envelope = math.sqrt(max(1.0 + math.cos(2.0 * phi), 0.0)) / math.sqrt(2.0)
        value = math.exp(-nbar + nbar * envelope)
        if not derivative:
            return complex(value)
        if envelope == 0.0:
            raise DomainError(
                "coherent closed form is not differentiable at |cos phi| = 0"
            )
        return complex(value * nbar * (-math.sin(2.0 * phi)) / (2.0 * envelope))

    need = parity_needed(label, n)
    if need is not None:
        raise DomainError(f"{label} closed form needs {need} N, got {n}")
    j = 0.5 * n
    half = HalfInt(n)

    if label == "single-fock":
        u = 0.5 * (1.0 + math.cos(2.0 * phi))
        if not derivative:
            return complex(u**j)
        return complex(j * u ** (j - 1.0) * (-math.sin(2.0 * phi)))

    if label == "dual-fock":
        sign = (-1.0) ** (n // 2)
        zero = HalfInt(0)
        if not derivative:
            return complex(sign * d_element(half, zero, zero, 2.0 * phi))
        return complex(sign * 2.0 * d_derivative(half, zero, zero, 2.0 * phi))

    if label == "yurke":
        sign = (-1.0) ** (n // 2)
        zero, one = HalfInt(0), HalfInt(2)
        fn = d_derivative if derivative else d_element
        scale = 2.0 if derivative else 1.0
        combo = (
            fn(half, zero, zero, 2.0 * phi)
            - fn(half, one, one, 2.0 * phi)
            + 2.0 * fn(half, zero, one, 2.0 * phi)
        )
        return complex(0.5 * sign * scale * combo)

    if label == "yuen":
        return 0j

    if label == "modified-yuen":
        # i (-1)^j for half-integer j needs a branch; exp(-i pi j) makes
        # the prefactor real and matches both the engine and the oracle.
        prefactor = 1j * cmath.exp(-1j * math.pi * j)
        up, down = HalfInt(1), HalfInt(-1)
        fn = d_derivative if derivative else d_element
        scale = 2.0 if derivative else 1.0
        return prefactor * scale * fn(half, up, down, 2.0 * phi)

    if label == "pezze-smerzi":
        sign = (-1.0) ** (n // 2 + 1)
        one, minus = HalfInt(2), HalfInt(-2)
        fn = d_derivative if derivative else d_element
        scale = 2.0 if derivative else 1.0
        combo = fn(half, one, one, 2.0 * phi) + fn(half, minus, one, 2.0 * phi)
        return complex(sign * scale * combo)

    if label in ("noon", "noon-internal"):
        if n % 2 == 0:
            if not derivative:
                return complex(_I_POWERS[n % 4]) * math.cos(n * phi)
            return complex(_I_POWERS[n % 4]) * (-n * math.sin(n * phi))
        if not derivative:
            return complex(_I_POWERS[(n + 1) % 4]) * math.sin(n * phi)
        return complex(_I_POWERS[(n + 1) % 4]) * (n * math.cos(n * phi))

    if label == "berry-wiseman":
        i = np.arange(n + 1)
        amps = np.sin((n - i + 1.0) * math.pi / (n + 2.0)) / math.sqrt(0.5 * n + 1.0)
        two_nu = n - 2 * i  # nu = j - i, doubled
        sign = np.where(two_nu % 2 == 0, 1.0, -1.0)  # (-1)^(2 nu)
        phases = np.exp(1j * two_nu * phi)  # e^(i 2 nu phi)
        terms = sign * amps * amps[::-1] * phases
        if derivative:
            terms = terms * (1j * two_nu)
        return complex(np.sum(terms))

    if label == "combined":
        params = params or CombinedStateParams()
        sign = (-1.0) ** (n // 2)
        corner = d_element(half, half, HalfInt(0), 0.5 * math.pi)
        cross_weight = (
            2.0
            * math.sqrt(2.0)
            * params.alpha_mag
            * params.beta_mag
        )
        radicand = 1.0 + cross_weight * corner * math.cos(
            params.theta - n * math.pi / 4.0
        )
        if radicand <= 0.0:
            raise DomainError(
                f"quoted combined-state normalization degenerates for N={n}, {params}"
            )
        c_sq = 1.0 / radicand
        zero = HalfInt(0)
        d00 = d_element(half, zero, zero, 2.0 * phi)
        ij = complex(_I_POWERS[n // 2 % 4])
        if not derivative:
            noon_part = sign * math.cos(n * phi)
            dual_part = sign * d00
            cross = ij * cross_weight * d00 * math.cos(n * phi) * math.cos(params.theta)
        else:
            d00p = 2.0 * d_derivative(half, zero, zero, 2.0 * phi)
            noon_part = sign * (-n * math.sin(n * phi))
            dual_part = sign * d00p
            cross = (
                ij
                * cross_weight
                * (d00p * math.cos(n * phi) - n * d00 * math.sin(n * phi))
                * math.cos(params.theta)
            )
        return c_sq * (
            params.alpha_mag**2 * noon_part + params.beta_mag**2 * dual_part + cross
        )

    raise DomainError(f"no closed form catalogued for state label {label!r}")


def closed_form_parts(
    label: str, n, phi: float, params: CombinedStateParams | None = None
) -> tuple[float, float]:
    """(real part, imaginary residue) of the quoted closed form."""
    value = _closed_form_complex(label, n, phi, params, derivative=False)
    return value.real, value.imag


def closed_form_expectation(
    label: str, n, phi: float, params: CombinedStateParams | None = None
) -> float:
    """The quoted per-family <P>, evaluated verbatim; real part returned.

    The imaginary residue is available from closed_form_parts.  Labels in
    DISCREPANT_CLOSED_FORMS reproduce what is quoted, not what the
    operator algebra gives; use the engine for physics.
    """
    return closed_form_parts(label, n, phi, params)[0]


def closed_form_derivative(
    label: str, n, phi: float, params: CombinedStateParams | None = None
) -> float:
    """d/dphi of the quoted closed form (real part)."""
    return _closed_form_complex(label, n, phi, params, derivative=True).real


def closed_form_uncertainty(
    label: str, n, phi: float, params: CombinedStateParams | None = None
) -> DetectionResult:
    """Error-propagation uncertainty computed from the quoted closed form."""
    phi = float(phi)
    expectation = closed_form_expectation(label, n, phi, params)
    return _bundle(
        phi,
        expectation,
        closed_form_derivative(label, n, phi, params),
        1.0 - expectation * expectation,
    )


def closed_form_uncertainty_limit(
    label: str, n, params: CombinedStateParams | None = None
) -> float:
    """phi -> 0 limit of the closed-form uncertainty, by Richardson extrapolation.

    The quoted forms are black boxes with no spectrum to expand, so their
    uncertainty is evaluated on a halving ladder of phase points and
    extrapolated; this is the reference the engine's exact limit is
    checked against.
    """
    size = _closed_form_size(label, n)
    two_j_max = size if label != "coherent" else max(math.ceil(size), 1)
    ladder = _phi_ladder(two_j_max)
    values = [closed_form_uncertainty(label, n, phi, params).delta_phi for phi in ladder]
    return _extrapolate_limit(values, f"closed-form uncertainty limit for {label!r}")
