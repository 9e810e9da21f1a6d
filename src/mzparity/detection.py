"""Parity-detection observables and the error-propagation phase uncertainty.

Fixed-phi observables come from one spectrum per state: weights w and
frequencies lam such that

    <P>(phi) = sum_k w_k exp(-2i phi lam_k).

The frequencies form one grid, lam = -J, -J + 1/2, ..., J for the largest
block 2J, and every block adds into every other grid point, so at most
2 * 2J + 1 terms remain however many blocks and amplitudes the state has.
For at-input states w_k = conj(<e_k|S psi>) <e_k|psi> over the cached J_y
eigenvectors e_k of each block, with S the diagonal parity sign and lam_k
the exact eigenvalues; the eigensystem's exact parity mirror makes
<e_k|S psi> the mirror entry of <e_k|psi>, so each block is projected
once.  A block whose only nonzero amplitude is row 0 (mu = +j, mode b
empty: every coherent and single-Fock block) needs no eigensystem, because
row 0 of the eigenvectors squared is binomial; its weights are
|psi_0|^2 C(2j, k) / 4^j at lam_k = k - j, and all such blocks join the
grid in one pass.  For states inside the interferometer
w = conj(psi) (Q psi) and lam = -mu, with no eigensystem at all.
``parity_expectation`` and ``parity_derivative`` are sums over that
spectrum, and ``phase_uncertainty`` builds it once for both and takes
Delta P from 1 -+ <P> without cancellation.

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

import numpy as np

from .errors import ConsistencyError, DomainError, NumericalLimitError
from .halfint import HalfInt
from .interferometer import _finite_phase, q_apply
from .states import (
    CombinedStateParams,
    Frame,
    TwoModeState,
    _positive_int,
    parity_needed,
)
from .wigner import _project, d_derivative, d_element

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


def _binomial_mixture(probs: np.ndarray) -> np.ndarray:
    """Binomial rows weighted by probs: sum_n probs[n] C(n, k) / 2^n at 2 lam = 2k - n.

    The result lies on the grid 2 lam = -top ... top, top = probs.size - 1.
    Horner's scheme over Pascal's rule: one averaging step
    a[i] <- (a[i-1] + a[i+1]) / 2 turns binomial row n - 1 into row n, so
    acc <- step(acc) + probs[n] delta_0, run from the top row down to 0,
    leaves sum_n probs[n] step^n(delta_0).  O(top) memory, no factorials,
    and weights too small for a float flush to 0 instead of NaN.
    """
    top = probs.size - 1
    acc = np.zeros(2 * top + 3)  # one zero guard at each end
    centre = top + 1
    acc[centre] = probs[top]
    for reach, prob in enumerate(probs[:top][::-1].tolist(), start=1):
        left, right = centre - reach, centre + reach + 1
        acc[left:right] = 0.5 * (acc[left - 1 : right - 1] + acc[left + 1 : right + 1])
        acc[centre] += prob
    return acc[1:-1]


def _spectrum(state: TwoModeState) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and frequencies lam with <P>(phi) = sum w exp(-2i phi lam).

    The frequencies are the grid lam = -J ... J in steps of 1/2, with
    2J the largest block, and each block adds its weights into every
    other grid point, so equal frequencies are merged as they arrive.
    At-input blocks: w_k = conj(<e_k|S psi>) <e_k|psi> over the J_y
    eigenvectors e_k at lam_k.  The eigensystem's exact parity mirror
    D V = V[:, ::-1] makes <e_k|S psi> the mirror entry of <e_k|psi>, so
    each block is projected once, and only its nonzero amplitudes.  A
    block whose only nonzero amplitude is row 0 (mu = +j, mode b empty,
    as in every coherent and single-Fock block) needs no eigensystem:
    row 0 of V squared is binomial, V[0, k]^2 = C(2j, k) / 4^j, and
    V[0, n-1-k] = V[0, k], so its weights are |psi_0|^2 C(2j, k) / 4^j at
    lam_k = k - j.  Those blocks only record |psi_0|^2, and all of them
    join the grid in one binomial pass (_binomial_mixture).
    Inside blocks: w = conj(psi) (Q psi) and lam = -mu, because the phase
    shifter gives the mu and -mu entries the relative phase exp(2i phi mu).
    """
    state.require_normalized()
    top = max(state.components)
    weights = np.zeros(2 * top + 1, dtype=complex)
    at_input = state.frame is Frame.AT_INPUT
    row_zero = np.zeros(top + 1)  # |psi_0|^2 of the row-0 blocks, by 2j
    for two_j, vec in state.components.items():
        grid = slice(top - two_j, top + two_j + 1, 2)
        if at_input:
            if not np.count_nonzero(vec[1:]):
                row_zero[two_j] = abs(vec[0]) ** 2
                continue
            plain = _project(two_j, vec)
            weights[grid] += np.conj(plain[::-1]) * plain
        else:
            weights[grid] += np.conj(vec) * q_apply(two_j, vec)
    occupied = np.flatnonzero(row_zero)
    if occupied.size:
        reach = int(occupied[-1])
        weights[top - reach : top + reach + 1] += _binomial_mixture(row_zero[: reach + 1])
    return weights, (np.arange(2 * top + 1) - top) / 2.0


def _parity_gaps(state: TwoModeState) -> tuple[float, float]:
    """||psi - P psi||^2 / 2 and ||psi + P psi||^2 / 2, that is 1 -+ <P>(0).

    P is S at input and Q inside.  Both are sums of squares, so they keep
    full relative accuracy where 1 - <P> itself would cancel.
    """
    at_input = state.frame is Frame.AT_INPUT
    minus = plus = 0.0
    for two_j, vec in state.components.items():
        if at_input:
            # psi - S psi is twice the odd rows, psi + S psi twice the even rows
            odd, even = vec[1::2], vec[0::2]
            minus += 4.0 * np.vdot(odd, odd).real
            plus += 4.0 * np.vdot(even, even).real
            continue
        image = q_apply(two_j, vec)
        minus += np.vdot(vec - image, vec - image).real
        plus += np.vdot(vec + image, vec + image).real
    return 0.5 * minus, 0.5 * plus


def _expectation_at(spectrum, phi: float) -> complex:
    weights, freqs = spectrum
    return complex(np.sum(weights * np.exp(-2j * phi * freqs)))


def _derivative_at(spectrum, phi: float) -> complex:
    weights, freqs = spectrum
    return complex(np.sum(weights * (-2j * freqs) * np.exp(-2j * phi * freqs)))


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
    weights, freqs = spectrum
    context = f"for {state.label!r}"
    expectation = _real_with_residue_check(
        _expectation_at(spectrum, phi), f"parity expectation {context}"
    )
    derivative = _real_with_residue_check(
        _derivative_at(spectrum, phi), f"parity derivative {context}"
    )
    if 2.0 * abs(phi) * freqs[-1] < 1.0:
        shift = float(np.sum(weights * np.expm1(-2j * phi * freqs)).real)
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
    Inside the interferometer G = J_z and P = Q, and each power is a
    diagonal product.  At input G = J_y and P = S, and 2i J_y = J_+ - J_-
    is the real tridiagonal matrix with <mu_r|J_+|mu_(r+1)> =
    sqrt((r+1)(2j-r)) above the diagonal and its negative below.  Its
    m-th power reaches m rows beyond the nonzero amplitudes, so each block
    keeps only the rows within _TAYLOR_ORDER of its first and last nonzero
    amplitude, which is exact for every m kept; all blocks share one flat
    array whose coupling is zero at block edges.  A row-0 block (coherent,
    single-Fock) costs O(_TAYLOR_ORDER), and no block needs an
    eigensystem.  |F_m| <= (2J)^m / m! for a normalized state, with 2J
    the largest block; those are the bounds.
    """
    state.require_normalized()
    order = _TAYLOR_ORDER
    factorials = np.array([math.factorial(m) for m in range(order + 1)], dtype=float)
    if state.frame is Frame.AT_INPUT:
        pieces, two_js, firsts = [], [], []
        for two_j, vec in state.components.items():
            rows = np.flatnonzero(vec)
            if not rows.size:
                continue
            first = max(int(rows[0]) - order, 0)
            pieces.append(vec[first : min(int(rows[-1]) + order, two_j) + 1])
            two_js.append(two_j)
            firsts.append(first)
        sizes = np.array([piece.size for piece in pieces])
        ends = np.cumsum(sizes)
        # block size and row index of every entry of the flat array
        block = np.repeat(two_js, sizes)
        row = np.arange(ends[-1]) - np.repeat(ends - sizes - firsts, sizes)
        raising = np.sqrt((row[:-1] + 1.0) * (block[:-1] - row[:-1]))
        raising[ends[:-1] - 1] = 0.0  # no coupling from one block into the next
        # u_k = A^k psi for A = J_+ - J_-, k <= order/2 rounded up.  A is
        # real and antisymmetric, and S A S = -A, so
        # <psi|A^m S psi> = (-1)^m <u_a|S u_b> for any a + b = m.
        powers = np.zeros((order - order // 2 + 1, ends[-1]), dtype=complex)
        powers[0] = np.concatenate(pieces)
        for k in range(order - order // 2):
            np.multiply(raising, powers[k, 1:], out=powers[k + 1, :-1])
            powers[k + 1, 1:] -= raising * powers[k, :-1]
        left = powers * np.where(row % 2, -1.0, 1.0)
        gram = np.conj(left, out=left) @ powers.T  # <u_a|S u_b>
        m = np.arange(order + 1)
        series = np.where(m % 2, -1.0, 1.0) * gram[m // 2, m - m // 2]
    else:
        term = np.concatenate(
            [np.conj(vec) * q_apply(two_j, vec) for two_j, vec in state.components.items()]
        )
        generator = 2.0j * np.concatenate([state.mu_values(two_j) for two_j in state.components])
        series = np.empty(order + 1, dtype=complex)
        for m in range(order + 1):
            series[m] = term.sum()
            term *= generator
    top = max(state.components)
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
                return (1j**n) * math.cos(n * phi)
            return (1j**n) * (-n * math.sin(n * phi))
        if not derivative:
            return (1j ** (n + 1)) * math.sin(n * phi)
        return (1j ** (n + 1)) * (n * math.cos(n * phi))

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
        ij = 1j ** (n // 2)
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
