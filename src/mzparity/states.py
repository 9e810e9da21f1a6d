"""Input and internal states of the interferometer in the Schwinger basis.

A two-mode pure state with amplitudes psi_{mu,j} over |j, mu> kets is kept
as a map from twoJ = 2j to a complex vector indexed by descending mu.  The
frame tag records whether the amplitudes describe the external input ports
or the modes between the two beam splitters; detection and transform
operations dispatch on it.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DomainError, NormalizationError
from .halfint import HalfInt
from .wigner import d_element

__all__ = [
    "CombinedStateParams",
    "FAMILY_PARITY",
    "Frame",
    "STATE_LABELS",
    "TwoModeState",
    "berry_wiseman_internal",
    "coherent_input",
    "combined_input",
    "dual_fock_input",
    "fidelity",
    "noon_input",
    "noon_internal",
    "parity_needed",
    "pezze_smerzi_input",
    "single_fock_input",
    "yuen_input",
    "yurke_input",
]

logger = logging.getLogger(__name__)

STATE_LABELS = (
    "coherent",
    "single-fock",
    "dual-fock",
    "noon",
    "noon-internal",
    "yurke",
    "yuen",
    "modified-yuen",
    "pezze-smerzi",
    "berry-wiseman",
    "combined",
)

# The parity of N each family is defined for; families not listed take any N.
FAMILY_PARITY = MappingProxyType(
    {
        "dual-fock": "even",
        "yurke": "even",
        "pezze-smerzi": "even",
        "combined": "even",
        "yuen": "odd",
        "modified-yuen": "odd",
    }
)


def parity_needed(label: str, n: int) -> str | None:
    """The parity ("even" or "odd") family label needs if n lies outside it, else None."""
    need = FAMILY_PARITY.get(label)
    if need is None or n % 2 == (need == "odd"):
        return None
    return need


class Frame(enum.Enum):
    """Where the amplitudes live relative to the beam splitters."""

    AT_INPUT = "at-input"
    INSIDE_INTERFEROMETER = "inside-interferometer"


@dataclass(frozen=True)
class TwoModeState:
    """Pure two-mode state over Schwinger labels (j, mu).

    ``components[twoJ][i]`` is the amplitude on |j, mu> with mu = j - i,
    so index 0 carries mu = +j and the last index mu = -j.
    """

    components: Mapping[int, np.ndarray]
    frame: Frame
    label: str
    truncation_tail: float = 0.0
    _norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cleaned: dict[int, np.ndarray] = {}
        for two_j, vec in self.components.items():
            two_j = int(two_j)
            if two_j < 0:
                raise DomainError(f"negative twoJ key {two_j}")
            arr = np.array(vec, dtype=complex)
            if arr.ndim != 1:
                raise DomainError("amplitude vectors must be one-dimensional")
            if arr.shape[0] != two_j + 1:
                raise DomainError(
                    f"block twoJ={two_j} needs {two_j + 1} amplitudes, got {arr.shape[0]}"
                )
            arr.flags.writeable = False
            cleaned[two_j] = arr
        if not cleaned:
            raise DomainError("state needs at least one (j, mu) block")
        if not isinstance(self.frame, Frame):
            raise DomainError(f"frame must be a Frame, got {self.frame!r}")
        # one pass over all blocks: a NaN or inf anywhere makes the sum of
        # squares non-finite, and only then are the entries themselves checked
        flat = np.concatenate(list(cleaned.values()))
        norm_sq = float(np.vdot(flat, flat).real)
        if not math.isfinite(norm_sq) and not np.isfinite(flat.view(float)).all():
            raise DomainError("amplitude vectors must be finite (NaN or inf amplitude)")
        object.__setattr__(self, "components", MappingProxyType(cleaned))
        object.__setattr__(self, "_norm", math.sqrt(norm_sq))

    def norm(self) -> float:
        """sqrt(sum |psi|^2) over every block, computed once at construction."""
        return self._norm

    def require_normalized(self, tol: float = 1e-8) -> None:
        norm = self.norm()
        if abs(norm - 1.0) > tol:
            raise NormalizationError(
                f"state {self.label!r} has norm {norm!r}, expected 1 within {tol}"
            )

    @property
    def max_two_j(self) -> int:
        return max(self.components)

    def block(self, two_j: int) -> np.ndarray:
        return self.components[two_j]

    def mean_photon_number(self) -> float:
        return sum(
            two_j * float(np.sum(np.abs(vec) ** 2))
            for two_j, vec in self.components.items()
        )

    def fock_terms(self) -> list[tuple[int, int, complex]]:
        """Nonzero amplitudes as (n_a, n_b, amplitude) occupation triples.

        n_a = j + mu and n_b = j - mu; for inside-interferometer states the
        occupations refer to the internal (primed) modes.
        """
        terms = []
        for two_j in sorted(self.components):
            vec = self.components[two_j]
            for i, amp in enumerate(vec):
                if amp != 0:
                    terms.append((two_j - i, i, complex(amp)))
        return terms

    def mu_values(self, two_j: int) -> np.ndarray:
        """The mu label (as a float) for each index of one block."""
        return (two_j - 2.0 * np.arange(two_j + 1)) / 2.0


def fidelity(first: TwoModeState, second: TwoModeState) -> float:
    """|<first|second>| over the shared blocks; global-phase invariant."""
    overlap = 0j
    for two_j, vec in first.components.items():
        other = second.components.get(two_j)
        if other is not None:
            overlap += np.vdot(vec, other)
    return abs(overlap)


def _single_block(two_j: int, entries: dict[int, complex], frame: Frame, label: str) -> TwoModeState:
    """State with one j block and amplitudes at the given indices."""
    vec = np.zeros(two_j + 1, dtype=complex)
    for idx, amp in entries.items():
        vec[idx] = amp
    return TwoModeState({two_j: vec}, frame, label)


# Amplitudes one coherent state may hold: 128 MiB of complex128 at 16 bytes
# each, the same budget as the J_y eigensystem cache.  Building a state holds
# at most three copies of them at once (the vectors built here, the validated
# copies and the concatenation that checks them), so a state at the budget
# peaks near 384 MiB.  Detection builds no eigensystem for its row-0 blocks
# and copies no more than one block at a time.  The two-sided window keeps
# about 14 sqrt(nbar) blocks of about nbar amplitudes each, so the budget
# admits nbar up to 7011.
_MAX_AMPLITUDES = 2**23


def coherent_input(
    nbar: float, coherent_phase: float = 0.0, tail_bound: float = 1e-12
) -> TwoModeState:
    """Coherent light in mode a, vacuum in mode b.

    The Poisson weight over the total photon number n = 2j puts amplitude
    e^{-|alpha|^2/2} alpha^n / sqrt(n!) on |j, j>, with nbar = |alpha|^2.
    The expansion keeps one window of photon numbers around nbar: the
    smallest weights are dropped, from either side, while the discarded
    mass of both tails together stays below tail_bound, and the rest is
    renormalized.  ``truncation_tail`` reports the discarded mass.  A
    window holding more than ``_MAX_AMPLITUDES`` amplitudes, the sum of
    n + 1 over its blocks, raises DomainError before any of them is
    allocated.
    """
    nbar = float(nbar)
    if not math.isfinite(nbar) or nbar < 0:
        raise DomainError(f"nbar must be finite and non-negative, got {nbar}")
    if not 0 < tail_bound <= 1e-6:
        raise DomainError(f"tail_bound must be in (0, 1e-6], got {tail_bound}")
    if nbar == 0.0:
        return _single_block(0, {0: 1.0 + 0j}, Frame.AT_INPUT, "coherent")
    mode = int(nbar)  # the largest weight, which every window keeps
    if mode + 1 > _MAX_AMPLITUDES:
        raise DomainError(_over_budget(nbar, mode + 1))
    reach = 20.0 * math.sqrt(nbar + 1.0) + 40.0
    lo, hi = max(0, int(nbar - reach)), int(nbar + reach)
    ns = np.arange(lo, hi + 1)
    # Poisson weights relative to the mode, summed outward from it:
    # log p_n - log p_(n-1) = log(nbar / n).  Beyond 20 standard deviations
    # the mass is below e^-200, so normalizing over the window is exact.
    steps = np.log(nbar / ns[1:])
    at = mode - lo
    log_probs = np.zeros(ns.size)
    log_probs[at + 1 :] = np.cumsum(steps[at:])
    log_probs[:at] = -np.cumsum(steps[:at][::-1])[::-1]
    probs = np.exp(log_probs)
    probs /= probs.sum()
    # drop the smallest weights while the discarded mass stays below the bound
    order = np.argsort(probs, kind="stable")
    kept = order[int(np.searchsorted(np.cumsum(probs[order]), tail_bound)) :]
    first, last = int(kept.min()), int(kept.max())
    tail = float(probs[:first].sum() + probs[last + 1 :].sum())
    kept_ns = ns[first : last + 1]
    amplitudes = int(kept_ns.sum()) + kept_ns.size  # n + 1 per block
    if amplitudes > _MAX_AMPLITUDES:
        raise DomainError(_over_budget(nbar, amplitudes))
    amps = np.sqrt(probs[first : last + 1]) * np.exp(1j * coherent_phase * kept_ns)
    amps /= math.sqrt(float(np.vdot(amps, amps).real))
    components = {}
    for n, amp in zip(kept_ns.tolist(), amps):
        vec = np.zeros(n + 1, dtype=complex)
        vec[0] = amp
        components[n] = vec
    return TwoModeState(components, Frame.AT_INPUT, "coherent", truncation_tail=tail)


def _over_budget(nbar: float, amplitudes: int) -> str:
    return (
        f"coherent state at nbar = {nbar!r} needs {amplitudes} amplitudes, "
        f"over the budget of {_MAX_AMPLITUDES}"
    )


def single_fock_input(n_total: int) -> TwoModeState:
    """|N>_a |0>_b: all photons in mode a, so mu = +j."""
    n_total = _positive_int(n_total, "n_total")
    return _single_block(n_total, {0: 1.0 + 0j}, Frame.AT_INPUT, "single-fock")


def dual_fock_input(n_per_mode: int) -> TwoModeState:
    """|N>_a |N>_b: equal occupation, mu = 0, total photon number 2N."""
    n_per_mode = _positive_int(n_per_mode, "n_per_mode")
    two_j = 2 * n_per_mode
    return _single_block(two_j, {n_per_mode: 1.0 + 0j}, Frame.AT_INPUT, "dual-fock")


def noon_internal(n_total: int) -> TwoModeState:
    """(|N,0> + |0,N>)/sqrt(2) on the internal modes: mu = +j and -j."""
    n_total = _positive_int(n_total, "n_total")
    amp = 1.0 / math.sqrt(2.0)
    return _single_block(
        n_total,
        {0: amp, n_total: amp},
        Frame.INSIDE_INTERFEROMETER,
        "noon-internal",
    )


def noon_input(n_total: int) -> TwoModeState:
    """The input state whose image after the first beam splitter is NOON.

    Built by sending noon_internal through the beam-splitter transform
    (the z-y-z product), not by the closed-form coefficients.
    """
    from .interferometer import apply_beam_splitter

    n_total = _positive_int(n_total, "n_total")
    transformed = apply_beam_splitter(noon_internal(n_total), inverse=False)
    return TwoModeState(dict(transformed.components), Frame.AT_INPUT, "noon")


def yurke_input(n_total: int) -> TwoModeState:
    """(|j,0> + |j,1>)/sqrt(2); needs integer j, so even N."""
    n_total = _positive_int(n_total, "n_total")
    if n_total % 2 != 0:
        raise DomainError(f"yurke state needs even N (integer j), got {n_total}")
    j_index = n_total // 2
    amp = 1.0 / math.sqrt(2.0)
    return _single_block(
        n_total, {j_index: amp, j_index - 1: amp}, Frame.AT_INPUT, "yurke"
    )


def yuen_input(n_total: int, modified: bool = False) -> TwoModeState:
    """(|j,1/2> + i|j,-1/2>)/sqrt(2), or with the i dropped when modified.

    Needs half-integer j, so odd N.
    """
    n_total = _positive_int(n_total, "n_total")
    if n_total % 2 != 1:
        raise DomainError(f"yuen state needs odd N (half-integer mu), got {n_total}")
    upper = (n_total - 1) // 2  # index of mu = +1/2
    amp = 1.0 / math.sqrt(2.0)
    second = amp if modified else 1j * amp
    label = "modified-yuen" if modified else "yuen"
    return _single_block(n_total, {upper: amp, upper + 1: second}, Frame.AT_INPUT, label)


def pezze_smerzi_input(n_total: int) -> TwoModeState:
    """(|j,1> + |j,-1>)/sqrt(2); needs integer j >= 1, so even N >= 2."""
    n_total = _positive_int(n_total, "n_total")
    if n_total % 2 != 0:
        raise DomainError(f"pezze-smerzi state needs even N, got {n_total}")
    j_index = n_total // 2
    amp = 1.0 / math.sqrt(2.0)
    return _single_block(
        n_total, {j_index - 1: amp, j_index + 1: amp}, Frame.AT_INPUT, "pezze-smerzi"
    )


def berry_wiseman_internal(n_total: int) -> TwoModeState:
    """Optimal internal state with C_mu = sin((mu+j+1)pi/(2j+2))/sqrt(j+1)."""
    n_total = _positive_int(n_total, "n_total")
    i = np.arange(n_total + 1)
    # mu = j - i, so mu + j + 1 = N - i + 1 and 2j + 2 = N + 2
    amps = np.sin((n_total - i + 1.0) * math.pi / (n_total + 2.0)) / math.sqrt(
        0.5 * n_total + 1.0
    )
    return TwoModeState(
        {n_total: amps.astype(complex)},
        Frame.INSIDE_INTERFEROMETER,
        "berry-wiseman",
    )


@dataclass(frozen=True)
class CombinedStateParams:
    """Superposition weights for the combined NOON / dual-Fock input.

    theta is the relative phase theta_alpha - theta_beta; the magnitudes
    must satisfy alpha_mag^2 + beta_mag^2 = 1.  The defaults are the even
    superposition, 1/sqrt(2) each, at theta = 0.
    """

    alpha_mag: float = 1.0 / math.sqrt(2.0)
    beta_mag: float = 1.0 / math.sqrt(2.0)
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha_mag <= 1.0 or not 0.0 <= self.beta_mag <= 1.0:
            raise DomainError("alpha_mag and beta_mag must lie in [0, 1]")
        if abs(self.alpha_mag**2 + self.beta_mag**2 - 1.0) > 1e-12:
            raise DomainError(
                "alpha_mag^2 + beta_mag^2 must equal 1 within 1e-12, got "
                f"{self.alpha_mag**2 + self.beta_mag**2!r}"
            )


def combined_input(n_total: int, params: CombinedStateParams) -> TwoModeState:
    """Normalized alpha * noon_input(N) + beta * |j,0>, N even.

    The state vector is assembled explicitly and renormalized numerically.
    The quoted normalization constant C_N = [1 + 2 sqrt(2) |alpha beta|
    d^j_{j,0}(pi/2) cos(theta - N pi/4)]^(-1/2) is evaluated alongside and
    any disagreement beyond 1e-8 is logged once per parameter set, never
    raised: the interference term's sign convention is checked against the
    construction, not trusted.
    """
    n_total = _positive_int(n_total, "n_total")
    if n_total % 2 != 0:
        raise DomainError(f"combined state needs even N (mu = 0 exists), got {n_total}")
    if not isinstance(params, CombinedStateParams):
        raise DomainError("combined_input needs CombinedStateParams")
    alpha = params.alpha_mag * complex(math.cos(params.theta), math.sin(params.theta))
    beta = complex(params.beta_mag)
    j_index = n_total // 2
    vec = alpha * np.asarray(noon_input(n_total).block(n_total))
    vec = vec.copy()
    vec[j_index] += beta
    norm = math.sqrt(float(np.sum(np.abs(vec) ** 2)))
    if norm < 1e-8:
        raise NormalizationError(
            f"combined state degenerates (norm {norm:.3e}) for N={n_total}, {params}"
        )
    quoted = _combined_quoted_norm(n_total, params)
    if quoted is not None and abs(quoted - norm) > 1e-8:
        if params not in _norm_mismatch_reported:
            _norm_mismatch_reported.add(params)
            logger.warning(
                "combined-state normalization: numerical %r vs quoted closed form %r "
                "(N=%d, theta=%r); using the numerical value, not reported again "
                "for these parameters",
                norm,
                quoted,
                n_total,
                params.theta,
            )
    return TwoModeState(
        {n_total: vec / norm}, Frame.AT_INPUT, "combined"
    )


# one report per parameter set: the quoted constant fails the same way for
# every affected N, and rebuilding the same state stays quiet
_norm_mismatch_reported: set[CombinedStateParams] = set()


def _combined_quoted_norm(n_total: int, params: CombinedStateParams) -> float | None:
    """1/C_N per the quoted closed form; None if it is not a real number."""
    j = HalfInt(n_total)
    corner = d_element(j, j, HalfInt(0), math.pi / 2.0)
    radicand = 1.0 + 2.0 * math.sqrt(2.0) * params.alpha_mag * params.beta_mag * (
        corner * math.cos(params.theta - n_total * math.pi / 4.0)
    )
    if radicand <= 0.0:
        return None
    return math.sqrt(radicand)


def _positive_int(n, what: str) -> int:
    """n as a positive int; bools, non-finite and fractional values raise DomainError."""
    try:
        valid = not isinstance(n, bool) and math.isfinite(n) and n == int(n) and n >= 1
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise DomainError(f"{what} must be a positive integer, got {n!r}")
    return int(n)
