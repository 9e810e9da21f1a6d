"""Parity-detection observables and the error-propagation phase uncertainty.

Fixed-phi observables come from one list of terms per state: weights w
and frequencies lam, plus the at-input blocks stored on row 0 alone and
the Jacobi forms of the at-input blocks stored within |mu| <= 1, such that

    <P>(phi) = sum_k w_k exp(-2i phi lam_k) + sum_b p_b cos(phi)^(n_b)
               + sum_f g_f d_f(phi).

Each at-input block takes one of three routes, chosen by its stored rows.
A block whose only stored row is 0 (mu = +j, mode b empty: every coherent
and single-Fock block) is |psi_0|^2 times d[0, 0](2 phi) = cos(phi)^(2j),
so it keeps only n_b = 2j and p_b = |psi_0|^2 and is read in closed form,
with no eigensystem and no terms: a coherent state costs O(blocks).  A
block whose stored rows all lie within |mu| <= 1 (every dual-Fock, Yurke,
Yuen, modified-Yuen and Pezze-Smerzi block) needs the d numbers
d^j_(mu mu')(2 phi) between those rows alone, and each is a fixed factor
times a Jacobi polynomial P^(a,b)_n(cos 2 phi) whose a and b do not change
with j (``_central_forms``): it keeps one factor g_f per family (a, b)
and its degree n, and no terms.  At a phase, one three-term recurrence in
the degree per family present (``_jacobi_reads``) runs from degree 0 to
the pass's largest degree on Python floats and reads every such block as
it passes the block's degree, so a sweep of these families costs
O(largest N) and one point O(1) memory.  Every other at-input block (a
dense ``noon_input`` or ``combined_input`` block, or any state built with
other rows) gives one term per J_y eigenvector e_k of the block,
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

``phase_uncertainties(states, phi)`` lays its states end to end in one
batch (a TwoModeState of several states), and its core ``_point_columns``
returns the columns <P>, d<P>/dphi, Delta P and delta phi of a batch,
which the CLI formats straight into rows.  Both cores bound their own memory
(``_in_passes``): they cut a batch into runs of states whose flat entries
(``_point_entries``, ``_limit_entries``) sum to at most ``_PASS_ENTRIES``,
a state over the bound alone, make one pass (``_point_pass``,
``_limit_pass``) per run and join the columns.  In a pass, the J_y
projections of every projected block come from one ``wigner._projections``
call, which folds each column of one flat three-term recurrence of a
dense block into its projection as the rows arrive, in O(columns) memory.
<P>, d<P>/dphi and the shift of <P> since phi = 0 are read for every
state of the pass at once, each summed over its own run of terms, row-0
blocks and Jacobi forms, and every recurrence starts from degree 0 in
every pass, so a state's numbers do not depend on the batch or the pass
it came in.  ``phase_uncertainty``, ``parity_expectation`` and
``parity_derivative`` are that call on one state.

``phase_uncertainty_limits`` needs no spectrum.  Since P G P = -G for
the phase generator G (J_y at input, J_z inside), <P>(phi) =
<psi| exp(2i phi G) P |psi>, so its Taylor coefficients at phi = 0 are the
moments F_m = <psi|(2iG)^m P psi> / m!.  Because |<P>(phi)| <= 1 for every
state, F_0, F_1 and F_2 decide the exact phi -> 0 limit: it is
sqrt(1 - F_0^2) / |F_1| when |F_0| < 1 (+inf where F_1 = 0); a parity
eigenstate, F_0 = +-1, has <G> = 0, so F_1 = 0 and F_2 = -2 F_0 <G^2>, and
its limit is 1/(2 Delta G), parity detection at the quantum Cramer-Rao
bound (Seshadreesan et al., PRA 87, 043833 (2013)), or +inf where
G psi = 0 as well (``_limit_from_series``).  The three are one product
u = (J_+ - J_-) psi with the tridiagonal 2i J_y over the stored rows and
one row either side of each block, or sums over the stored rows with the
diagonal J_z.  Its core ``_limit_column`` takes a batch: in each pass each
product runs once over all its blocks (once per frame it holds), each
state's moments are summed over its own segment, and the leading orders
of every state are read in one vectorized step.  Every CLI figure, the
table and each builder group of a sweep make one core call.  The engine
is cross-checked against the brute-force Fock oracle.

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
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError, NumericalLimitError
from .halfint import HalfInt
from .interferometer import _finite_phase
from .states import (
    CombinedStateParams,
    TwoModeState,
    _cuts,
    _joined,
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
# The relative size (against each Taylor coefficient's bound) below which
# a coefficient of the phi -> 0 limit is roundoff.
_ZERO_TOL = 1e-11
# Bound of one detection pass, in the flat entries that ``_point_entries``
# and ``_limit_entries`` count.  A pass over 2^13 entries raises the traced
# memory by at most about 1.2 MiB, for limits and for the points of every
# family; 2^12 halves that but takes about twice as long on dual-Fock
# points, and 2^14 doubles it for no gain.
_PASS_ENTRIES = 2**13

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


def _on_row_zero(batch: TwoModeState) -> np.ndarray:
    """Which blocks of a batch store row 0 alone."""
    return (batch.sizes == 1) & (batch.rows[np.cumsum(batch.sizes) - batch.sizes] == 0)


def _near_center(batch: TwoModeState) -> np.ndarray:
    """Which blocks of a batch store rows within |mu| <= 1 alone: |2j - 2r| <= 2 on each."""
    close = np.abs(np.repeat(batch.two_js, batch.sizes) - 2 * batch.rows) <= 2
    return np.logical_and.reduceat(close, np.cumsum(batch.sizes) - batch.sizes)


def _point_entries(batch: TwoModeState) -> np.ndarray:
    """Flat entries a fixed-phi pass holds for each state of a batch: stored rows and terms.

    An inside state has one term per stored row; an at-input state 2j + 1
    projections, one term each, for every block read neither as
    cos(phi)^(2j) nor by the degree recurrences (stored within |mu| <= 1),
    which hold no terms.
    """
    terms = np.where(_on_row_zero(batch) | _near_center(batch), 0, batch.two_js + 1)
    terms = np.where(np.repeat(batch.inside, np.diff(batch.firsts)), batch.sizes, terms)
    return np.add.reduceat(batch.sizes + terms, batch.firsts[:-1])


def _limit_entries(batch: TwoModeState) -> np.ndarray:
    """Flat entries a limit holds for each state: stored rows, and one row each side of a block."""
    return np.add.reduceat(batch.sizes + 2, batch.firsts[:-1])


def _in_passes(batch: TwoModeState, entries, one_pass) -> np.ndarray:
    """one_pass on runs of the batch's states, their columns joined in order.

    A run takes the next states while their ``entries`` sum to at most
    ``_PASS_ENTRIES``, and a state over the bound makes a run alone, so a
    pass holds a bounded number of entries whatever the batch.  Each
    state's numbers are summed over its own segment, so they do not
    depend on the run it falls in.
    """
    cuts = _cuts(entries(batch), _PASS_ENTRIES)
    return np.concatenate([one_pass(batch[a:b]) for a, b in zip(cuts, cuts[1:])], axis=-1)


def _q_image(batch: TwoModeState) -> tuple[np.ndarray, np.ndarray]:
    """(Q psi)_r = i^(2j) (-1)^r psi_(2j - r) on every stored row r of inside states.

    Each row's mirror 2j - r is found among the stored rows of its block
    by one searchsorted over keys that rise through the flat arrays, across
    states too, since the block bases keep rising.  Also returns which
    rows have their mirror stored; the image is 0 on the rest.
    """
    owner = np.repeat(batch.two_js, batch.sizes)
    base = np.repeat(np.cumsum(batch.two_js + 1) - (batch.two_js + 1), batch.sizes)
    keys, mirrors = base + batch.rows, base + owner - batch.rows
    at = np.minimum(np.searchsorted(keys, mirrors), keys.size - 1)
    paired = keys[at] == mirrors
    image = np.where(paired, _I_POWERS[(owner + 2 * batch.rows) % 4] * batch.amplitudes[at], 0.0)
    return image, paired


class _Spectra(NamedTuple):
    """<P>(phi) of each state s = sum_k w_k exp(-2i phi lam_k) + sum_b p_b cos(phi)^(n_b)
    + sum_f g_f d_f(phi).

    weights and freqs hold every state's terms end to end, terms[s] of them
    for state s: the blocks read through their J_y projection (at input)
    or through Q (inside).  powers n_b = 2j and probs p_b = |psi_0|^2 list
    the at-input blocks stored on row 0 alone, counts[s] of them for state
    s.  kinds, degrees and factors list the Jacobi forms of the at-input
    blocks stored within |mu| <= 1 (``_central_forms``), forms[s] of them
    for state s: the family 3a + b, the degree n and the factor g of each
    d_f, a sin^a(phi) cos^b(phi) P^(a,b)_n(cos 2 phi) (``_jacobi_reads``).
    below and above are 1 -+ <P>(0) of each state, as sums of squares, and
    tops the largest 2j of each state.
    """

    weights: np.ndarray
    freqs: np.ndarray
    terms: np.ndarray
    powers: np.ndarray
    probs: np.ndarray
    counts: np.ndarray
    kinds: np.ndarray
    degrees: np.ndarray
    factors: np.ndarray
    forms: np.ndarray
    below: np.ndarray
    above: np.ndarray
    tops: np.ndarray


def _segment_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The sum of each run of sizes[s] consecutive values, 0 for an empty run.

    Each run is summed alone, the same way wherever it sits in values.
    """
    sums = np.zeros(sizes.size, dtype=values.dtype)
    filled = sizes > 0
    if filled.any():
        sums[filled] = np.add.reduceat(values, (np.cumsum(sizes) - sizes)[filled])
    return sums


def _spectra(batch: TwoModeState) -> _Spectra:
    """The terms of each state's <P>(phi) in a batch, with the row-0 blocks and Jacobi forms apart.

    An at-input block stored on row 0 alone (mu = +j, mode b empty, as in
    every coherent and single-Fock block) is |psi_0|^2 times
    d[0, 0](2 phi) = cos(phi)^(2j), so it keeps only its 2j and |psi_0|^2
    and needs no eigensystem.  Any other at-input block stored within
    |mu| <= 1 (dual-Fock, Yurke, Yuen, modified Yuen, Pezze-Smerzi) keeps
    its Jacobi forms (``_central_forms``), read at a phase by degree
    recurrences, and no terms; it is held to the J_y projection's work
    bound all the same (``wigner._lanes``), so the 2j a point admits, and
    its refusal before anything is allocated, do not depend on the route.
    Every other at-input block gives one term per k:
    w_k = conj(<e_k|S psi>) <e_k|psi> over the J_y eigenvectors e_k
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
    batch.require_normalized()
    two_js, sizes, rows, amps = batch.two_js, batch.sizes, batch.rows, batch.amplitudes
    first_blocks = batch.firsts[:-1]
    owner = np.repeat(np.arange(len(batch)), np.diff(batch.firsts))
    block_input = ~batch.inside[owner]
    on_row0 = block_input & _on_row_zero(batch)
    central = block_input & ~on_row0 & _near_center(batch)
    mass = amps.real**2 + amps.imag**2
    odd = rows % 2 == 1
    below, above = np.where(odd, 2.0 * mass, 0.0), np.where(odd, 0.0, 2.0 * mass)
    blocks, kinds, degrees, factors = (np.empty(0, dtype=int),) * 3 + (np.empty(0, dtype=complex),)
    if central.any():  # the Jacobi forms of each block stored within |mu| <= 1
        picked = np.repeat(central, sizes)
        stored = (two_js[central], sizes[central], rows[picked])
        wigner._lanes(*stored)  # the projection's work bound
        blocks, kinds, degrees, factors = _central_forms(*stored, amps[picked])
        blocks = np.flatnonzero(central)[blocks]
    # (state, weight w, doubled frequency 2 lam) of every term, block by block
    parts = [(np.empty(0, dtype=int), np.empty(0, dtype=complex), np.empty(0, dtype=int))]
    projected = block_input & ~on_row0 & ~central
    if projected.any():  # every k of each block read through its J_y projection
        picked = np.repeat(projected, sizes)
        plain = wigner._projections(two_js[projected], sizes[projected], rows[picked], amps[picked])
        n = two_js[projected] + 1
        k = wigner._ragged(n)
        mirrored = np.conj(plain[np.arange(plain.size) + np.repeat(n - 1, n) - 2 * k])
        parts.append(
            (np.repeat(owner[projected], n), mirrored * plain, 2 * k - np.repeat(n - 1, n))
        )
    if batch.inside.any():  # every stored row of an inside state, through Q
        entries = ~np.repeat(block_input, sizes)
        image, paired = (part[entries] for part in _q_image(batch))
        inside, inside_sizes = amps[entries], sizes[~block_input]
        parts.append((
            np.repeat(owner[~block_input], inside_sizes),
            np.conj(inside) * image,
            2 * rows[entries] - np.repeat(two_js[~block_input], inside_sizes),
        ))
        minus, plus = inside - image, inside + image
        unpaired = np.where(paired, 0.0, mass[entries])
        below[entries] = 0.5 * (minus.real**2 + minus.imag**2 + unpaired)
        above[entries] = 0.5 * (plus.real**2 + plus.imag**2 + unpaired)
    holders, weights, doubled = (np.concatenate(part) for part in zip(*parts))
    by_state = np.argsort(holders, kind="stable")  # each state's terms in one run
    rows_per_state = np.add.reduceat(sizes, first_blocks)
    return _Spectra(
        weights[by_state],
        doubled[by_state] / 2.0,
        np.bincount(holders, minlength=len(batch)),
        two_js[on_row0],
        mass[(np.cumsum(sizes) - sizes)[on_row0]],
        np.bincount(owner[on_row0], minlength=len(batch)),
        kinds,
        degrees,
        factors,
        np.bincount(owner[blocks], minlength=len(batch)),
        _segment_sums(below, rows_per_state),
        _segment_sums(above, rows_per_state),
        np.maximum.reduceat(two_js, first_blocks),
    )


def _central_forms(two_js, sizes, rows, amps):
    """The Jacobi forms of at-input blocks stored within |mu| <= 1, given in stored form.

    A block stored on rows R adds sum over r', r in R of
    conj(psi_r') (-1)^r psi_r <r'|exp(2i phi J_y)|r> to <P>.  With
    mu = j - r, that matrix element is d^j_(mu mu')(2 phi) =
    sigma sqrt(c) sin^a(phi) cos^b(phi) P^(a,b)_n(cos 2 phi), a Jacobi
    polynomial with a = |mu - mu'|, b = |mu + mu'| and n = j - (a + b) / 2
    (Edmonds, Angular Momentum in Quantum Mechanics, 1957), where
    sigma = -1 if mu - mu' = 1, else 1, and c = prod_(i = 1..b) (n + a + i)
    / (n + i).  For |mu|, |mu'| <= 1, a and b do not depend on j, so every
    pair of stored rows falls in one of six families 3a + b, and the pairs
    of a block in one family add up to one factor.  Returns the block,
    family, degree and factor of each nonzero sum, by block, then family.
    """
    pairs = sizes * sizes
    k = wigner._ragged(pairs)
    width = np.repeat(sizes, pairs)
    start = np.repeat(np.cumsum(sizes) - sizes, pairs)
    left, right = start + k // width, start + k % width  # rows r' and r
    a = np.abs(rows[right] - rows[left])
    b = np.abs(np.repeat(two_js, pairs) - rows[left] - rows[right])
    sign = np.where(rows[right] % 2, -1.0, 1.0)
    sign[rows[left] - rows[right] == 1] *= -1.0
    weights = np.conj(amps[left]) * sign * amps[right]
    keys = np.repeat(np.arange(sizes.size), pairs) * 9 + 3 * a + b
    bins = 9 * sizes.size
    factors = np.bincount(keys, weights.real, bins) + 1j * np.bincount(keys, weights.imag, bins)
    blocks, kinds = np.divmod(np.flatnonzero(factors), 9)
    return blocks, kinds, (two_js[blocks] - kinds // 3 - kinds % 3) // 2, factors[factors != 0.0]


# Degrees a Jacobi recurrence advances per numpy call for its coefficients:
# two arrays of 2^11 floats, 32 KiB, whatever the degree it runs to.
_STEPS = 2**11


def _jacobi_steps(a: int, b: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients w_n and v_n of ``_jacobi_run`` for n = lo .. hi - 1."""
    n = np.arange(lo, hi, dtype=float)
    c = a + b
    w = (2.0 * n + c - 1.0) * (2.0 * n + c) / (2.0 * (n + c) * (n + a))
    # the last factor is 0 at n = 1, c = 0, where n - 1 = 0 makes v_1 = 0 anyway
    v = (n + b - 1.0) * (2.0 * n + c) * (n - 1.0) / (
        (n + c) * (n + a) * np.maximum(2.0 * n + c - 2.0, 1.0)
    )
    return w, v


def _jacobi_run(a: int, b: int, e: float, degrees: list[int]) -> tuple[np.ndarray, ...]:
    """p_n, p_n - 1 and (p_n - p_(n-1)) / e at each degree n, given rising; p_n = P^(a,b)_n(t) / P^(a,b)_n(1).

    t = 1 + e, with e given exactly.  The three-term recurrence in the
    degree (DLMF 18.9.1), divided by P_n(1), holds at t = 1 with every
    p_n = 1, so it can be written on the differences:
    p_n - p_(n-1) = e r_n with r_n = w_n p_(n-1) + v_n r_(n-1).  Near t = 1
    every r_n has one sign, so the gaps p_n - 1, summed from the e r_n,
    keep full relative accuracy where p_n itself would round to 1, in the
    spirit of Reinsch's modification of the Goertzel recurrence.  The
    recurrence runs on Python floats from degree 0, its coefficients read
    through memoryviews of arrays of _STEPS degrees, and keeps no array over
    the degrees, so a degree's numbers do not depend on the others read.
    """
    top = degrees[-1] if degrees else 0
    steps = chain.from_iterable(
        zip(*map(memoryview, _jacobi_steps(a, b, lo, min(lo + _STEPS, top + 1))))
        for lo in range(1, top + 1, _STEPS)
    )
    p, s, r, done = 1.0, 0.0, 0.0, 0
    values, shifts, ratios = [], [], []
    for n in degrees:
        for w, v in islice(steps, n - done):
            r = w * p + v * r
            step = e * r
            p += step
            s += step
        values.append(p)
        shifts.append(s)
        ratios.append(r)
        done = n
    return np.array(values), np.array(shifts), np.array(ratios)


def _jacobi_reads(phi: float, kinds: np.ndarray, degrees: np.ndarray):
    """d(phi), dd/dphi and d(phi) - d(0) of each Jacobi form (``_central_forms``) at phase phi.

    d = sqrt(c) sin^a(phi) cos^b(phi) P^(a,b)_n(x), x = cos 2 phi, of
    family 3a + b at degree n.  Each family present runs one recurrence
    (``_jacobi_run``) to its largest degree, reading its forms in rising
    degree, a repeated degree once more at no step.  Where x < 0 it runs on
    P^(b,a)_n(-x) = (-1)^n P^(a,b)_n(x) instead, so the variable t it
    reads stays within [0, 1] and 1 - t = 2 sin^2 phi or 2 cos^2 phi is
    exact.  dP/dt follows from p_n and r_n without a second recurrence
    (DLMF 18.9.16 written on the differences, free of cancellation):
    (1 + t) p_n' = n (p_n + 2 (n + b) r_n / (2n + a + b)).  At d(0) = 1
    (a = 0) the shift is cos^b(phi) (P_n - 1) + (cos^b(phi) - 1), to full
    relative accuracy near phi = 0; otherwise d(0) = 0.
    """
    values, slopes, shifts = (np.empty(kinds.size) for _ in range(3))
    # d is read at the angle 2 phi, which leaves the float range where the phases
    # exp(-2i phi lam) of a projection do, past |phi| ~ 9e307
    sine, cosine = (math.sin(phi), math.cos(phi)) if math.isfinite(2.0 * phi) else (math.nan,) * 2
    reflect = 2.0 * sine * sine > 1.0
    e = -2.0 * (cosine if reflect else sine) ** 2  # t - 1
    for kind in np.flatnonzero(np.bincount(kinds, minlength=9)).tolist():
        a, b = divmod(kind, 3)
        at = np.flatnonzero(kinds == kind)
        at = at[np.argsort(degrees[at], kind="stable")]  # rising degrees
        degree = degrees[at]
        ta, tb = (b, a) if reflect else (a, b)
        p, s, r = _jacobi_run(ta, tb, e, degree.tolist())
        n = degree.astype(float)
        slope = n * (p + 2.0 * (n + tb) * r / (2.0 * n + a + b)) / (2.0 + e)  # dp/dt
        top, scale = np.ones(n.size), np.ones(n.size)  # P^(ta,tb)_n(1) and c
        for i in range(1, ta + 1):
            top *= (n + i) / i
        for i in range(1, b + 1):
            scale *= (n + a + i) / (n + i)
        if reflect:
            top *= np.where(degree % 2, -1.0, 1.0)
            slope = -slope
        jacobi, slope = top * p, top * slope  # P^(a,b)_n(x) and its x-derivative
        trig = sine**a * cosine**b
        trig_slope = (a * sine ** (a - 1) * cosine ** (b + 1) if a else 0.0) - (
            b * sine ** (a + 1) * cosine ** (b - 1) if b else 0.0
        )
        values[at] = np.sqrt(scale) * trig * jacobi
        slopes[at] = np.sqrt(scale) * (trig_slope * jacobi - 4.0 * sine * cosine * trig * slope)
        if a:
            shifts[at] = values[at]
        else:  # cos^b(phi) - 1 without cancellation
            drop = (0.0, -2.0 * math.sin(0.5 * phi) ** 2, -sine * sine)[b]
            shifts[at] = trig * (jacobi - 1.0 if reflect else s) + drop
    return values, slopes, shifts


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


def _results(expectations, derivatives, spreads, labels) -> np.ndarray:
    """Columns <P>, d<P>/dphi, Delta P, delta phi of each state; spreads are 1 - <P>^2.

    expectations and derivatives may carry imaginary parts.  A state
    fails if either is not finite (a phase past the float range) or has
    an imaginary residue above 1e-10, or if the expectation passes +-1 by
    more than 1e-10; the first state that fails raises
    ConsistencyError, naming its first failure.  An expectation past +-1
    by at most 1e-10 is rounding and is clipped to [-1, 1].
    """
    values, slopes = expectations.real, derivatives.real
    failures = (
        ~np.isfinite(expectations),
        ~np.isfinite(derivatives),
        np.abs(expectations.imag) > _RESIDUE_TOL,
        np.abs(derivatives.imag) > _RESIDUE_TOL,
        np.abs(values) > 1.0 + 1e-10,
    )
    failed = np.logical_or.reduce(failures)
    if failed.any():
        s = int(failed.argmax())
        context = f"for {labels[s]!r}"
        messages = (
            f"parity expectation {context} is not finite: {complex(expectations[s])!r}",
            f"parity derivative {context} is not finite: {complex(derivatives[s])!r}",
            f"parity expectation {context}: imaginary residue "
            f"{float(expectations.imag[s])!r} exceeds {_RESIDUE_TOL}",
            f"parity derivative {context}: imaginary residue "
            f"{float(derivatives.imag[s])!r} exceeds {_RESIDUE_TOL}",
            f"expectation {float(values[s])!r} leaves [-1, 1] beyond tolerance",
        )
        raise ConsistencyError(next(m for fail, m in zip(failures, messages) if fail[s]))
    variances = np.sqrt(np.maximum(spreads, 0.0))
    steep = np.abs(slopes) >= _DERIVATIVE_FLOOR
    deltas = np.divide(variances, np.abs(slopes), out=np.full(slopes.size, math.inf), where=steep)
    return np.array([np.clip(values, -1.0, 1.0), slopes, variances, deltas])


def _bundle(
    phi: float, expectation: float, derivative: float, spread: float, label: str = ""
) -> DetectionResult:
    """Result at one phase point from real values: ``_results`` on one state."""
    columns = _results(np.array([expectation]), np.array([derivative]), np.array([spread]), [label])
    return DetectionResult(phi, *columns[:, 0].tolist())


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

    The states are read in passes of at most ``_PASS_ENTRIES`` flat
    entries (a larger state alone).  In each, the terms and Jacobi forms
    come from one ``_spectra`` call, whose J_y projections come from one
    ``wigner._projections`` call, each Jacobi family present runs one
    degree recurrence, and every sum and check is read for all its states
    at once, each over its own run of terms.  A non-finite phi
    raises DomainError, and so does an at-input block whose projection
    would pass the J_y kernel's work bound, before its pass allocates;
    an unnormalized state NormalizationError, and a non-finite <P> or
    d<P>/dphi (a phase past the float range), an imaginary residue above
    1e-10 or an expectation outside [-1, 1] ConsistencyError, for the
    first such state.
    """
    phi = _finite_phase(phi)
    states = list(states)
    if not states:
        return []
    columns = _point_columns(_joined(states), phi)
    return [DetectionResult(phi, *row) for row in zip(*columns.tolist())]


def _point_columns(batch: TwoModeState, phi: float) -> np.ndarray:
    """``phase_uncertainties`` of a batch, as the columns of ``_results``, in bounded passes."""
    phi = _finite_phase(phi)
    return _in_passes(batch, _point_entries, lambda run: _point_pass(run, phi))


def _point_pass(batch: TwoModeState, phi: float) -> np.ndarray:
    """The columns of ``_results`` for every state of a batch, in one pass."""
    spectra = _spectra(batch)
    weights, freqs, terms, powers, probs, counts = spectra[:6]
    kinds, degrees, factors, forms, below, above, tops = spectra[6:]
    with np.errstate(invalid="ignore"):  # a phase past the float range is NaN, refused below
        phase = np.exp(-2j * phi * freqs)
    expectations = _segment_sums(weights * phase, terms)
    derivatives = _segment_sums(weights * (-2j * freqs) * phase, terms)
    if powers.size:
        expectations += _segment_sums(probs * _cos_powers(phi, powers), counts)
        # d/dphi cos^n = -n sin cos^(n-1); the factor n makes the 2j = 0 term exactly 0
        slopes = (probs * powers) * _cos_powers(phi, powers - 1)
        derivatives -= math.sin(phi) * _segment_sums(slopes, counts)
    # <P>(phi) - <P>(0) without cancellation where |phi| 2J < 1, so cos(phi) > 0;
    # |phi| held to 1 decides the same (2J is an integer) and cannot overflow
    near = min(abs(phi), 1.0) * tops < 1.0
    shifts = np.zeros(len(batch))
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
    if kinds.size:
        values, slopes, moves = (factors * read for read in _jacobi_reads(phi, kinds, degrees))
        expectations += _segment_sums(values, forms)
        derivatives += _segment_sums(slopes, forms)
        shifts[near] += _segment_sums(moves, forms)[near].real
    values = expectations.real
    spreads = np.where(near, (below - shifts) * (above + shifts), 1.0 - values * values)
    return _results(expectations, derivatives, spreads, batch.labels)


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


def _input_moments(batch: TwoModeState) -> np.ndarray:
    """m! F_m of each state of a batch read at input, m = 0, 1, 2, one row per state.

    2i J_y = A = J_+ - J_- is the real tridiagonal matrix with
    <mu_r|J_+|mu_(r+1)> = sqrt((r+1)(2j-r)) above the diagonal and its
    negative below.  A is antisymmetric and S A S = -A, so with u = A psi
    the moments <psi|A^m S psi> are <psi|S psi>, -<psi|S u> and <u|S u>.
    u reaches one row past the stored ones, so each block keeps only the
    rows from one before its first to one after its last stored row.  The
    blocks of every state share one flat array, built from the stored rows
    in one pass, whose coupling is zero at block edges; a row-0 block
    (coherent, single-Fock) costs two rows.
    """
    two_js, sizes, rows = batch.two_js, batch.sizes, batch.rows
    stored_ends = np.cumsum(sizes)
    firsts = np.maximum(rows[stored_ends - sizes] - 1, 0)
    widths = np.minimum(rows[stored_ends - 1] + 1, two_js) - firsts + 1
    ends = np.cumsum(widths)
    row_zero_at = ends - widths - firsts  # flat index of each block's row 0
    # block size and row index of every entry of the flat array
    block = np.repeat(two_js, widths)
    row = np.arange(ends[-1]) - np.repeat(row_zero_at, widths)
    raising = np.sqrt((row[:-1] + 1.0) * (block[:-1] - row[:-1]))
    raising[ends[:-1] - 1] = 0.0  # no coupling from one block into the next
    sign = np.where(row % 2, -1.0, 1.0)  # the diagonal of S
    starts = (ends - widths)[batch.firsts[:-1]]
    psi = np.zeros(ends[-1], dtype=complex)
    psi[np.repeat(row_zero_at, sizes) + rows] = batch.amplitudes
    parity = np.add.reduceat(np.conj(psi) * (sign * psi), starts)
    u = np.empty_like(psi)
    np.multiply(raising, psi[1:], out=u[:-1])
    u[-1] = 0.0
    u[1:] -= raising * psi[:-1]
    signed = sign * u
    moved = [np.add.reduceat(np.conj(v) * signed, starts) for v in (psi, u)]
    moments = np.stack([parity, *moved], axis=1)
    moments[:, 1] *= -1.0
    return moments


def _inside_moments(batch: TwoModeState) -> np.ndarray:
    """m! F_m of each state of a batch read inside, m = 0, 1, 2, one row per state.

    G = J_z and P = Q, so the moments are the sums of conj(psi) (Q psi)
    times 1, 2 mu and (2 mu)^2 over each state's stored rows, times i^m,
    which is exact.
    """
    generator = np.repeat(batch.two_js, batch.sizes) - 2.0 * batch.rows
    terms = np.conj(batch.amplitudes) * _q_image(batch)[0]
    starts = (np.cumsum(batch.sizes) - batch.sizes)[batch.firsts[:-1]]
    sums = [np.add.reduceat(terms * power, starts) for power in (1.0, generator, generator**2)]
    return np.stack(sums, axis=1) * _I_POWERS[:3]


def _taylor_series(batch: TwoModeState) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients F_0, F_1, F_2 of each state's <P>(phi) at phi = 0, and their bounds.

    Rows are the states of the batch, columns m = 0, 1, 2.
    <P>(phi) = <psi| exp(2i phi G) P |psi>, so F_m = <psi|(2iG)^m P psi> / m!.
    The batch takes one flat pass for each frame it holds
    (``_input_moments``, ``_inside_moments``), with no eigensystem, and each
    state's moments are summed over its own segment of the flat arrays.
    |F_m| <= (2J)^m / m! for a normalized state, with 2J its largest block;
    those are the bounds.
    """
    batch.require_normalized()
    series = np.empty((len(batch), 3), dtype=complex)
    for picked, moments in ((~batch.inside, _input_moments), (batch.inside, _inside_moments)):
        if picked.any():
            series[picked] = moments(batch if picked.all() else batch.select(picked))
    # floats, so the bounds tops ** m cannot overflow
    tops = np.maximum.reduceat(batch.two_js, batch.firsts[:-1]).astype(float)
    factorials = np.array([1.0, 1.0, 2.0])
    return series / factorials, tops[:, None] ** np.arange(3) / factorials


def _leading_orders(coeffs: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the index of the first coefficient that is not roundoff, and whether there is one."""
    above = np.abs(coeffs) > _ZERO_TOL * bounds
    return above.argmax(axis=1), above.any(axis=1)


def _limit_from_series(series: np.ndarray, bounds: np.ndarray, labels: list[str]) -> np.ndarray:
    """Exact phi -> 0 limit of sqrt(1 - f^2) / |f'| for f = sum_m F_m phi^m, per row.

    series[s] holds F_0, F_1 and F_2 of state s, and bounds[s] bounds their
    sizes; a coefficient counts as zero below _ZERO_TOL times its bound.
    With p and q the leading orders of 1 - f^2 and f', the uncertainty
    behaves as phi^(p/2 - q).  Since |f| <= 1 at every phi for every state,
    these three coefficients decide it, and only (p, q) = (0, 0) or (2, 1)
    is finite:

    - |F_0| < 1: p = 0, and the limit is sqrt(1 - F_0^2) / |F_1|, or +inf
      where F_1 = 0.
    - F_0 = +-1: P psi = +-psi, a parity eigenstate.  P G P = -G makes
      <G> = 0, so F_1 = 2i F_0 <G> = 0 and F_2 = -2 F_0 <G^2>; then
      1 - f^2 = 4 <G^2> phi^2 + O(phi^3) and f' = 2 F_2 phi + O(phi^2), and
      the limit is 1/(2 Delta G): parity detection at the quantum
      Cramer-Rao bound (Seshadreesan et al., PRA 87, 043833 (2013)).  If
      F_2 = 0 too, G psi = 0, every F_m past F_0 vanishes, f does not
      depend on phi and the limit is +inf.

    So the limit is +inf wherever F_1 and F_2 are roundoff, and
    sqrt(lead) / |rate| from the leading coefficients of 1 - f^2 and f'
    where it is finite.  Any other reading (|F_0| > 1, F_1 != 0 at
    |F_0| = 1, or 1 - f^2 negative at order 2) no normalized state can
    give, and it raises NumericalLimitError; coefficients that are not
    real raise ConsistencyError.  Every row is read at once; the first row
    that fails raises, and the message names its label.
    """
    blind = np.all(np.abs(series[:, 1:]) <= _ZERO_TOL * bounds[:, 1:], axis=1)
    unreal = ~blind & np.any(np.abs(series.imag) > _ZERO_TOL * bounds, axis=1)
    (f0, f1, f2), (b0, b1, b2) = series.real.T, bounds.T
    # 1 - f^2 and f' to order 2, and their bounds; column k of a square is
    # c_0 c_k + c_1 c_(k-1) + ..., summed in that order
    spread = np.stack([1.0 - f0 * f0, -(f0 * f1 + f1 * f0), -((f0 * f2 + f1 * f1) + f2 * f0)], 1)
    spread_bounds = np.stack([b0 * b0, b0 * b1 + b1 * b0, (b0 * b2 + b1 * b1) + b2 * b0], 1)
    slope, slope_bounds = np.stack([f1, 2.0 * f2], axis=1), np.stack([b1, 2.0 * b2], axis=1)
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
            f"{context}: no consistent leading orders in F_0..F_2 "
            f"(1 - <P>^2 starts at order {int(p[s]) if has_p[s] else None}, d<P>/dphi at "
            f"order {int(q[s]) if has_q[s] else None}; coefficients {series[s].real!r})"
        )
    limits = np.full(series.shape[0], math.inf)
    limits[finite] = np.sqrt(lead[finite]) / np.abs(rate[finite])
    return limits


def phase_uncertainty_limits(states) -> list[float]:
    """The phi -> 0 operating-point uncertainty of each state, in input order.

    Exact: the leading orders of 1 - <P>^2 and d<P>/dphi at phi = 0 come
    from the moments <psi|(2iG)^m P psi> of the phase generator G, so no
    phase point is evaluated and no eigensystem is built.  The states are
    read in passes of at most ``_PASS_ENTRIES`` flat entries (a larger
    state alone), each one flat Taylor pass per frame and one vectorized
    read of the leading orders, so a batch costs a few numpy calls per
    pass, not a few per state.  A state with no phase information (for
    example the plain Yuen state) or a divergent limit gives +infinity.
    If any state's F_0, F_1 and F_2 fit no state (``_limit_from_series``),
    NumericalLimitError names the first such state; an unnormalized
    state raises NormalizationError.
    """
    states = list(states)
    return _limit_column(_joined(states)).tolist() if states else []


def _limit_column(batch: TwoModeState) -> np.ndarray:
    """``phase_uncertainty_limits`` of a batch, as one array, in bounded passes."""
    return _in_passes(batch, _limit_entries, _limit_pass)


def _limit_pass(batch: TwoModeState) -> np.ndarray:
    """The phi -> 0 limit of every state of a batch, in one pass."""
    series, bounds = _taylor_series(batch)
    return _limit_from_series(series, bounds, batch.labels)


def phase_uncertainty_limit(state: TwoModeState) -> float:
    """The phi -> 0 operating-point uncertainty of one state: ``phase_uncertainty_limits([state])``."""
    return phase_uncertainty_limits([state])[0]


def benchmark_limits(n_total: int) -> BenchmarkLimits:
    """Shot-noise, Heisenberg, and optimal-POVM reference scales."""
    n_total = _positive_int(n_total, "n_total")
    return BenchmarkLimits(n_total, *_scales(n_total))


def _scales(n_total: int) -> tuple[float, float, float]:
    """benchmark_limits(N) as (shot_noise, heisenberg, bw_povm), N taken as valid."""
    # tan(pi/4) rounds just below 1 in floats; the N = 2 value is exactly 1
    povm = 1.0 if n_total == 2 else math.tan(math.pi / (n_total + 2))
    return 1.0 / math.sqrt(n_total), 1.0 / n_total, povm


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
        label,
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
