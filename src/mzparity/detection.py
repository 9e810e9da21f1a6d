"""Parity-detection observables and the error-propagation phase uncertainty.

Fixed-phi observables come from one list of terms per state: weights w
and frequencies lam, plus the at-input blocks stored on row 0 alone, such
that

    <P>(phi) = sum_k w_k exp(-2i phi lam_k) + sum_b p_b cos(phi)^(n_b).

A block whose only stored row is 0 (mu = +j, mode b empty: every coherent
and single-Fock block) is |psi_0|^2 times d[0, 0](2 phi) = cos(phi)^(2j),
so it keeps only n_b = 2j and p_b = |psi_0|^2 and is read in closed form,
with no eigensystem and no terms: a coherent state costs O(blocks).  Every
other at-input block gives one term per J_y eigenvector e_k of the block,
w_k = conj(<e_k|S psi>) <e_k|psi> at the exact eigenvalue lam_k, with S
the diagonal parity sign; the exact parity mirror makes <e_k|S psi> the
component on e_(2j-k).  A block inside the interferometer gives one term
per stored row, w = conj(psi) (Q psi) at lam = -mu, with no eigensystem
at all: Q maps row r of block 2j to row 2j - r, so Q psi is read on every
stored row at once, by one lookup of each row's mirror in the flat stored
arrays, and the terms, the parity gaps and the phi -> 0 moments of an
inside state all come from that one image.  Equal frequencies are not
merged, so a NOON state inside the interferometer holds two terms at
any N.

``phase_uncertainties(states, phi)`` takes a batch of states.  Their
blocks lie end to end, and the J_y projections of every at-input block
come from one ``wigner._projections`` call, whose columns advance in one
flat three-term recurrence: a dense block (``noon_input``,
``combined_input``) folds each column into its projection as the rows
arrive, in O(columns) memory, and a block stored on a few rows
(dual-Fock, Yurke, Yuen, Pezze-Smerzi) runs only the columns at those
rows.  The CLI builds NOON and combined inside the interferometer, so
their points take the O(rows) Q route and run no recurrence.  <P>,
d<P>/dphi and the shift of <P> since phi = 0 are then read for every
state at once, each summed over its own run of terms, so a state's
numbers do not depend on the batch it came in.  ``phase_uncertainty``,
``parity_expectation`` and ``parity_derivative`` are that call on one
state, and each chunk of a CLI sweep makes one.

``phase_uncertainty_limits`` needs no spectrum.  Since P G P = -G for
the phase generator G (J_y at input, J_z inside), <P>(phi) =
<psi| exp(2i phi G) P |psi>, so its Taylor coefficients at phi = 0 are the
moments F_m = <psi|(2iG)^m P psi> / m!: products with the tridiagonal J_y
over a few rows around each block's nonzero amplitudes, or with the
diagonal J_z.  The exact phi -> 0 limit is read off their leading orders.
It takes a batch of states: their blocks lie end to end in one flat array
per frame, each product runs once over all of them, each state's moments
are summed over its own segment, and the leading orders of every state
are read in one vectorized step.  ``phase_uncertainty_limit`` is the same
call on one state, and every CLI figure, the table and each chunk of a
``--limit`` sweep make one batched call.  The engine is cross-checked
against the brute-force Fock oracle.

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
from . import wigner
from .wigner import _I_POWERS, d_derivative, d_element

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
    "phase_uncertainties",
    "phase_uncertainty",
    "phase_uncertainty_limit",
    "phase_uncertainty_limits",
]

_RESIDUE_TOL = 1e-10
_DERIVATIVE_FLOOR = 1e-14
# Taylor terms the phi -> 0 limit looks at (even: the at-input pass makes
# the orders in pairs 2k - 1, 2k), and the relative size (against each
# coefficient's bound) below which a coefficient is roundoff.
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


class _Stored(NamedTuple):
    """The stored form of several states end to end.

    Each block's 2j and its number of stored rows, then the flat rows and
    amplitudes of every block in turn: what ``_q_image`` reads from a
    TwoModeState, for a whole batch.
    """

    two_js: np.ndarray
    sizes: np.ndarray
    rows: np.ndarray
    amplitudes: np.ndarray


def _stored(states: list[TwoModeState]) -> tuple[_Stored, np.ndarray]:
    """The stored form of states end to end, and the index of each state's first block."""
    counts = np.array([state.two_js.size for state in states])
    offsets = [state.offsets for state in states]
    stored = _Stored(
        np.concatenate([state.two_js for state in states]),
        np.concatenate([o[1:] for o in offsets]) - np.concatenate([o[:-1] for o in offsets]),
        np.concatenate([state.rows for state in states]),
        np.concatenate([state.amplitudes for state in states]),
    )
    return stored, np.cumsum(counts) - counts


def _on_row_zero(stored) -> np.ndarray:
    """Which blocks of a TwoModeState or a ``_Stored`` batch store row 0 alone."""
    return (stored.sizes == 1) & (stored.rows[np.cumsum(stored.sizes) - stored.sizes] == 0)


def _point_entries(state: TwoModeState) -> int:
    """Flat entries a fixed-phi pass holds for state: its stored rows and its terms.

    An inside state has one term per stored row; an at-input state 2j + 1
    projections, one term each, for every block not read as cos(phi)^(2j).
    """
    if state.frame is not Frame.AT_INPUT:
        return 2 * state.rows.size
    projected = state.two_js[~_on_row_zero(state)]
    return state.rows.size + int(projected.sum()) + projected.size


def _limit_entries(state: TwoModeState) -> int:
    """Flat entries a limit holds for state: its stored rows, and _TAYLOR_ORDER on each side of each block."""
    return state.rows.size + 2 * _TAYLOR_ORDER * state.two_js.size


def _q_image(state) -> tuple[np.ndarray, np.ndarray]:
    """(Q psi)_r = i^(2j) (-1)^r psi_(2j - r) on every stored row r of an inside state.

    state is a TwoModeState or a ``_Stored`` batch of them.  Each row's
    mirror 2j - r is found among the stored rows of its block by one
    searchsorted over keys that rise through the flat arrays, across
    states too, since the block bases keep rising.  Also returns which
    rows have their mirror stored; the image is 0 on the rest.
    """
    owner = np.repeat(state.two_js, state.sizes)
    base = np.repeat(np.cumsum(state.two_js + 1) - (state.two_js + 1), state.sizes)
    keys, mirrors = base + state.rows, base + owner - state.rows
    at = np.minimum(np.searchsorted(keys, mirrors), keys.size - 1)
    paired = keys[at] == mirrors
    image = np.where(paired, _I_POWERS[(owner + 2 * state.rows) % 4] * state.amplitudes[at], 0.0)
    return image, paired


class _Spectra(NamedTuple):
    """<P>(phi) of each state s = sum_k w_k exp(-2i phi lam_k) + sum_b p_b cos(phi)^(n_b).

    weights and freqs hold every state's terms end to end, terms[s] of them
    for state s: the blocks read through their J_y projection (at input)
    or through Q (inside).  powers n_b = 2j and probs p_b = |psi_0|^2 list
    the at-input blocks stored on row 0 alone, counts[s] of them for state
    s.  below and above are 1 -+ <P>(0) of each state, as sums of squares.
    """

    weights: np.ndarray
    freqs: np.ndarray
    terms: np.ndarray
    powers: np.ndarray
    probs: np.ndarray
    counts: np.ndarray
    below: np.ndarray
    above: np.ndarray


def _segment_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The sum of each run of sizes[s] consecutive values, 0 for an empty run.

    Each run is summed alone, the same way wherever it sits in values.
    """
    sums = np.zeros(sizes.size, dtype=values.dtype)
    filled = sizes > 0
    if filled.any():
        sums[filled] = np.add.reduceat(values, (np.cumsum(sizes) - sizes)[filled])
    return sums


def _spectra(states: list[TwoModeState]) -> _Spectra:
    """The terms of each state's <P>(phi), and the row-0 blocks apart.

    An at-input block stored on row 0 alone (mu = +j, mode b empty, as in
    every coherent and single-Fock block) is |psi_0|^2 times
    d[0, 0](2 phi) = cos(phi)^(2j), so it keeps only its 2j and |psi_0|^2
    and needs no eigensystem.  Every other at-input block gives one term
    per k: w_k = conj(<e_k|S psi>) <e_k|psi> over the J_y eigenvectors e_k
    at lam_k = k - j; the parity mirror D V = V[:, ::-1] makes <e_k|S psi>
    the component on e_(2j-k), so w_k = conj(c_(2j-k)) c_k for the
    projections c.  The projections of every such block of every state
    come from one ``wigner._projections`` call.  An inside block gives one
    term per stored row: w = conj(psi) (Q psi) at lam = -mu = r - j,
    because the phase shifter gives the mu and -mu entries the relative
    phase exp(2i phi mu).  Equal frequencies are not merged, so a state
    holds only as many terms as it has projections or stored rows.

    The gaps 1 -+ <P>(0) are ||psi -+ P psi||^2 / 2, sums of squares that
    keep full relative accuracy where 1 - <P> itself would cancel: at
    input twice the mass of the odd and of the even stored rows; inside,
    psi -+ Q psi on the stored rows, where a row whose mirror is not stored
    adds its |psi|^2 once more, for the mirror row, where psi is 0 and
    Q psi is not.
    """
    for state in states:
        state.require_normalized()
    stored, first_blocks = _stored(states)
    two_js, sizes, rows, amps = stored
    at_input = np.array([state.frame is Frame.AT_INPUT for state in states])
    owner = np.repeat(np.arange(len(states)), np.diff(first_blocks, append=two_js.size))
    block_input = at_input[owner]
    on_row0 = block_input & _on_row_zero(stored)
    mass = amps.real**2 + amps.imag**2
    odd = rows % 2 == 1
    below, above = np.where(odd, 2.0 * mass, 0.0), np.where(odd, 0.0, 2.0 * mass)
    # (state, weight w, doubled frequency 2 lam) of every term, block by block
    parts = [(np.empty(0, dtype=int), np.empty(0, dtype=complex), np.empty(0, dtype=int))]
    projected = block_input & ~on_row0
    if projected.any():  # every k of each block read through its J_y projection
        picked = np.repeat(projected, sizes)
        plain = wigner._projections(two_js[projected], sizes[projected], rows[picked], amps[picked])
        n = two_js[projected] + 1
        k = wigner._ragged(n)
        mirrored = np.conj(plain[np.arange(plain.size) + np.repeat(n - 1, n) - 2 * k])
        parts.append(
            (np.repeat(owner[projected], n), mirrored * plain, 2 * k - np.repeat(n - 1, n))
        )
    if not at_input.all():  # every stored row of an inside state, through Q
        entries = ~np.repeat(block_input, sizes)
        inside = _Stored(two_js[~block_input], sizes[~block_input], rows[entries], amps[entries])
        image, paired = _q_image(inside)
        parts.append((
            np.repeat(owner[~block_input], inside.sizes),
            np.conj(inside.amplitudes) * image,
            2 * inside.rows - np.repeat(inside.two_js, inside.sizes),
        ))
        minus, plus = inside.amplitudes - image, inside.amplitudes + image
        unpaired = np.where(paired, 0.0, mass[entries])
        below[entries] = 0.5 * (minus.real**2 + minus.imag**2 + unpaired)
        above[entries] = 0.5 * (plus.real**2 + plus.imag**2 + unpaired)
    holders, weights, doubled = (np.concatenate(part) for part in zip(*parts))
    by_state = np.argsort(holders, kind="stable")  # each state's terms in one run
    rows_per_state = np.array([state.rows.size for state in states])
    return _Spectra(
        weights[by_state],
        doubled[by_state] / 2.0,
        np.bincount(holders, minlength=len(states)),
        two_js[on_row0],
        mass[(np.cumsum(sizes) - sizes)[on_row0]],
        np.bincount(owner[on_row0], minlength=len(states)),
        _segment_sums(below, rows_per_state),
        _segment_sums(above, rows_per_state),
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


def phase_uncertainties(states, phi: float) -> list[DetectionResult]:
    """The observables at phase phi of each state, in input order.

    <P>, d<P>/dphi (the spectral sums term by term) and the error-propagation
    uncertainty delta phi = Delta P / |d<P>/dphi|, with Delta P =
    sqrt((1 - <P>)(1 + <P>)) because P^2 = 1.  For a state whose every
    phase 2 phi lam stays below one radian (|phi| 2J < 1), each factor is
    taken as 1 -+ <P>(0) from the gaps -+ the change of <P> since
    phi = 0, sum w expm1(-2i phi lam) and p expm1(n log cos phi), so Delta P
    keeps full relative accuracy as <P> -> +-1 there; further out it is
    sqrt(1 - <P>^2).  A derivative below 1e-14 gives delta phi = +infinity;
    the phi -> 0 operating point is phase_uncertainty_limits' job.

    Every state's terms come from one ``_spectra`` pass, whose J_y
    projections run in one flat recurrence, and every sum is read for all
    states at once, each over its own run of terms.  A non-finite phi
    raises DomainError, and so does an at-input block whose projection
    would pass the J_y kernel's work bound, before anything is allocated;
    an unnormalized state NormalizationError, and an imaginary residue
    above 1e-10 or an expectation outside [-1, 1] ConsistencyError, for
    the first such state.
    """
    phi = _finite_phase(phi)
    states = list(states)
    if not states:
        return []
    weights, freqs, terms, powers, probs, counts, below, above = _spectra(states)
    phase = np.exp(-2j * phi * freqs)
    expectations = _segment_sums(weights * phase, terms)
    derivatives = _segment_sums(weights * (-2j * freqs) * phase, terms)
    if powers.size:
        expectations += _segment_sums(probs * _cos_powers(phi, powers), counts)
        # d/dphi cos^n = -n sin cos^(n-1); the factor n makes the 2j = 0 term exactly 0
        slopes = (probs * powers) * _cos_powers(phi, powers - 1)
        derivatives -= math.sin(phi) * _segment_sums(slopes, counts)
    # <P>(phi) - <P>(0) without cancellation where |phi| 2J < 1, so cos(phi) > 0
    near = abs(phi) * np.array([state.max_two_j for state in states]) < 1.0
    shifts = np.zeros(len(states))
    if near.any():
        picked = np.repeat(near, terms)
        shifts[near] = _segment_sums(
            weights[picked] * np.expm1(-2j * phi * freqs[picked]), terms[near]
        ).real
        moving = np.repeat(near, counts) & (powers > 0)  # a block 2j = 0 alone never moves
        if moving.any():
            drops = np.zeros(powers.size)
            drops[moving] = probs[moving] * np.expm1(
                powers[moving] * math.log1p(-2.0 * math.sin(0.5 * phi) ** 2)
            )
            shifts += _segment_sums(drops, counts)
    results = []
    for s, state in enumerate(states):
        context = f"for {state.label!r}"
        expectation = _real_with_residue_check(
            complex(expectations[s]), f"parity expectation {context}"
        )
        derivative = _real_with_residue_check(
            complex(derivatives[s]), f"parity derivative {context}"
        )
        if near[s]:
            spread = (below[s] - shifts[s]) * (above[s] + shifts[s])
        else:
            spread = 1.0 - expectation * expectation
        results.append(_bundle(phi, expectation, derivative, float(spread)))
    return results


def phase_uncertainty(state: TwoModeState, phi: float) -> DetectionResult:
    """The observables of one state at phase phi: ``phase_uncertainties([state], phi)[0]``."""
    return phase_uncertainties([state], phi)[0]


def parity_expectation(state: TwoModeState, phi: float) -> float:
    """<P> after phase phi: output-port photon-number parity."""
    return phase_uncertainty(state, phi).expectation


def parity_derivative(state: TwoModeState, phi: float) -> float:
    """d<P>/dphi, differentiating the same spectral sum term by term."""
    return phase_uncertainty(state, phi).derivative


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


def _input_moments(stored: _Stored, first_blocks: np.ndarray) -> np.ndarray:
    """m! F_m of at-input states, one row per state, m <= _TAYLOR_ORDER.

    first_blocks indexes the first block of each state in ``stored``.
    2i J_y = J_+ - J_- is the real tridiagonal matrix with
    <mu_r|J_+|mu_(r+1)> = sqrt((r+1)(2j-r)) above the diagonal and its
    negative below.  Its m-th power reaches m rows beyond the stored ones,
    so each block keeps only the rows within _TAYLOR_ORDER of its first
    and last stored row, which is exact for every m kept.  The blocks of
    every state share one flat array, built from the stored rows in one
    pass, whose coupling is zero at block edges; a row-0 block (coherent,
    single-Fock) costs O(_TAYLOR_ORDER).
    """
    order = _TAYLOR_ORDER
    two_js, sizes, rows = stored.two_js, stored.sizes, stored.rows
    stored_ends = np.cumsum(sizes)
    firsts = np.maximum(rows[stored_ends - sizes] - order, 0)
    widths = np.minimum(rows[stored_ends - 1] + order, two_js) - firsts + 1
    ends = np.cumsum(widths)
    row_zero_at = ends - widths - firsts  # flat index of each block's row 0
    # block size and row index of every entry of the flat array
    block = np.repeat(two_js, widths)
    row = np.arange(ends[-1]) - np.repeat(row_zero_at, widths)
    raising = np.sqrt((row[:-1] + 1.0) * (block[:-1] - row[:-1]))
    raising[ends[:-1] - 1] = 0.0  # no coupling from one block into the next
    sign = np.where(row % 2, -1.0, 1.0)  # the diagonal of S
    starts = (ends - widths)[first_blocks]
    # u_k = A^k psi for A = J_+ - J_-.  A is real and antisymmetric, and
    # S A S = -A, so <psi|A^m S psi> = (-1)^m <u_a|S u_b> for any a + b = m;
    # a = m // 2 and b = m - a differ by at most 1, so each step keeps
    # only u_(k-1) and u_k, for orders 2k - 1 and 2k.
    moments = np.empty((first_blocks.size, order + 1), dtype=complex)
    current = np.zeros(ends[-1], dtype=complex)
    current[np.repeat(row_zero_at, sizes) + rows] = stored.amplitudes
    moments[:, 0] = np.add.reduceat(np.conj(current) * (sign * current), starts)
    for k in range(1, order // 2 + 1):
        following = np.empty_like(current)
        np.multiply(raising, current[1:], out=following[:-1])
        following[-1] = 0.0
        following[1:] -= raising * current[:-1]
        signed = sign * following
        moments[:, 2 * k - 1] = np.add.reduceat(np.conj(current) * signed, starts)
        moments[:, 2 * k] = np.add.reduceat(np.conj(following) * signed, starts)
        current = following
    moments[:, 1::2] *= -1.0
    return moments


def _inside_moments(stored: _Stored, first_blocks: np.ndarray) -> np.ndarray:
    """m! F_m of inside states, one row per state, m <= _TAYLOR_ORDER.

    G = J_z and P = Q, so the moments are the sums of conj(psi) (Q psi)
    times the powers of 2i mu over each state's stored rows, read one order
    at a time: (2i mu)^m = i^m (2 mu)^m, and i^m is exact.
    """
    generator = np.repeat(stored.two_js, stored.sizes) - 2.0 * stored.rows
    terms = np.conj(stored.amplitudes) * _q_image(stored)[0]
    starts = (np.cumsum(stored.sizes) - stored.sizes)[first_blocks]
    moments = np.empty((first_blocks.size, _TAYLOR_ORDER + 1), dtype=complex)
    power = np.ones(generator.size)
    for m in range(_TAYLOR_ORDER + 1):
        moments[:, m] = _I_POWERS[m % 4] * np.add.reduceat(terms * power, starts)
        power *= generator
    return moments


def _taylor_series(states: list[TwoModeState]) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients F_m of each state's <P>(phi) at phi = 0, and their bounds.

    Rows are states, columns m = 0 .. _TAYLOR_ORDER.  <P>(phi) =
    <psi| exp(2i phi G) P |psi>, so F_m = <psi|(2iG)^m P psi> / m!.  The
    states of each frame are laid end to end, their block offsets
    continuing from state to state, and take one flat pass
    (``_input_moments``, ``_inside_moments``) that needs no eigensystem;
    each state's moments are summed over its own segment of the flat
    arrays.  |F_m| <= (2J)^m / m! for a normalized state, with 2J its
    largest block; those are the bounds.
    """
    for state in states:
        state.require_normalized()
    order = _TAYLOR_ORDER
    series = np.empty((len(states), order + 1), dtype=complex)
    tops = np.empty(len(states))
    for frame, moments in (
        (Frame.AT_INPUT, _input_moments),
        (Frame.INSIDE_INTERFEROMETER, _inside_moments),
    ):
        picked = [s for s, state in enumerate(states) if state.frame is frame]
        if not picked:
            continue
        stored, first_blocks = _stored([states[s] for s in picked])
        series[picked] = moments(stored, first_blocks)
        tops[picked] = np.maximum.reduceat(stored.two_js, first_blocks)
    factorials = np.array([math.factorial(m) for m in range(order + 1)], dtype=float)
    return series / factorials, tops[:, None] ** np.arange(order + 1) / factorials


def _square_series(coeffs: np.ndarray) -> np.ndarray:
    """Each row's power series squared and cut at its length: column k is sum_i c_i c_(k-i).

    The products are summed in order of i, the same in every row.
    """
    size = coeffs.shape[1]
    shift = np.arange(size)[None, :] - np.arange(size)[:, None]  # k - i at row i, column k
    shifted = np.where(shift >= 0, coeffs[:, np.maximum(shift, 0)], 0.0)
    return (coeffs[:, :, None] * shifted).sum(axis=1)


def _leading_orders(coeffs: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the index of the first coefficient that is not roundoff, and whether there is one."""
    above = np.abs(coeffs) > _ZERO_TOL * bounds
    return above.argmax(axis=1), above.any(axis=1)


def _limit_from_series(series: np.ndarray, bounds: np.ndarray, labels: list[str]) -> np.ndarray:
    """Exact phi -> 0 limit of sqrt(1 - f^2) / |f'| for f = sum_m series[s, m] phi^m, per row s.

    bounds[s, m] bounds |series[s, m]|, and a coefficient counts as zero
    below _ZERO_TOL times its bound.  If every coefficient past the
    constant is zero, f does not depend on phi and the limit is +inf: for
    a normalized state with |F_0| < 1 the limit diverges anyway, and with
    |F_0| = 1, P psi = +-psi, so F_2 = 0 forces G psi = 0 and the state
    is phase-blind.  Otherwise, with p and q the leading orders of
    1 - f^2 and f', the uncertainty behaves as phi^(p/2 - q): finite when
    p = 2q, +inf when p < 2q.  Every row is read at once.  A row with no
    leading order within the coefficients given, or with orders no state
    can have, raises NumericalLimitError, and one whose coefficients are
    not real raises ConsistencyError; the first such row raises, and the
    message names its label.
    """
    order = series.shape[1] - 1
    blind = np.all(np.abs(series[:, 1:]) <= _ZERO_TOL * bounds[:, 1:], axis=1)
    unreal = ~blind & np.any(np.abs(series.imag) > _ZERO_TOL * bounds, axis=1)
    real = series.real
    # 1 - f^2 and f' as power series; the bounds propagate the same way
    spread = -_square_series(real)
    spread[:, 0] += 1.0
    spread_bounds = _square_series(bounds)
    orders = np.arange(1, order + 1)
    slope, slope_bounds = real[:, 1:] * orders, bounds[:, 1:] * orders
    p, has_p = _leading_orders(spread, spread_bounds)
    q, has_q = _leading_orders(slope, slope_bounds)
    every = np.arange(series.shape[0])
    lead, rate = spread[every, p], slope[every, q]
    finite = ~blind & ~unreal & has_p & has_q & (p == 2 * q) & (lead > 0.0)
    divergent = blind | (~unreal & ~finite & has_p & (~has_q | (p < 2 * q)))
    failed = np.flatnonzero(~finite & ~divergent)
    if failed.size:
        s = failed[0]
        context = f"phase uncertainty limit for {labels[s]!r}"
        if unreal[s]:
            raise ConsistencyError(f"{context}: Taylor coefficients {series[s]!r} are not real")
        raise NumericalLimitError(
            f"{context}: no consistent leading orders within {order} Taylor terms "
            f"(1 - <P>^2 starts at order {int(p[s]) if has_p[s] else None}, d<P>/dphi at "
            f"order {int(q[s]) if has_q[s] else None}; coefficients {real[s]!r})"
        )
    limits = np.full(series.shape[0], math.inf)
    limits[finite] = np.sqrt(lead[finite]) / np.abs(rate[finite])
    return limits


def phase_uncertainty_limits(states) -> list[float]:
    """The phi -> 0 operating-point uncertainty of each state, in input order.

    Exact: the leading orders of 1 - <P>^2 and d<P>/dphi at phi = 0 come
    from the moments <psi|(2iG)^m P psi> of the phase generator G, so no
    phase point is evaluated and no eigensystem is built.  All states
    take one flat Taylor pass per frame and one vectorized read of the
    leading orders, so a batch costs a few numpy calls, not a few per
    state.  A state with no phase information (for example the plain
    Yuen state) or a divergent limit gives +infinity.  If any state has
    no leading order within the Taylor terms kept, NumericalLimitError
    names the first such state; an unnormalized state raises
    NormalizationError.
    """
    states = list(states)
    series, bounds = _taylor_series(states)
    return _limit_from_series(series, bounds, [state.label for state in states]).tolist()


def phase_uncertainty_limit(state: TwoModeState) -> float:
    """The phi -> 0 operating-point uncertainty of one state: ``phase_uncertainty_limits([state])``."""
    return phase_uncertainty_limits([state])[0]


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
