"""Input and internal states of the interferometer in the Schwinger basis.

A two-mode pure state with amplitudes psi_{mu,j} over |j, mu> kets is kept
block by block, twoJ = 2j, as the sorted nonzero rows of each block (row i
is mu = j - i) and their amplitudes, laid end to end in flat arrays; the
dense vector of a block is built only when it is asked for.  The
frame tag records whether the amplitudes describe the external input ports
or the modes between the two beam splitters; detection and transform
operations dispatch on it.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DomainError, NormalizationError

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


class TwoModeState:
    """Pure two-mode state over Schwinger labels (j, mu), stored as nonzero rows.

    Row i of block 2j is the ket |j, mu> with mu = j - i, so row 0 carries
    mu = +j and row 2j carries mu = -j.  Each block keeps only its sorted
    nonzero rows and their amplitudes, and the blocks lie end to end in
    flat read-only arrays: block b has size ``two_js[b]`` and holds the
    amplitudes ``amplitudes[offsets[b]:offsets[b + 1]]`` on the rows
    ``rows[offsets[b]:offsets[b + 1]]``.  A coherent block thus stores one
    amplitude, not 2j + 1.

    ``TwoModeState(components, frame, label)`` takes a mapping from 2j to a
    dense vector of 2j + 1 amplitudes and keeps its nonzero entries; a
    block with none is not stored.
    ``components`` and ``block`` give dense vectors back, built on demand
    under the ``_MAX_AMPLITUDES`` budget.  States are immutable.
    """

    __slots__ = (
        "two_js", "offsets", "rows", "amplitudes", "frame", "label", "truncation_tail", "_norm"
    )

    def __init__(
        self,
        components: Mapping[int, np.ndarray],
        frame: Frame,
        label: str,
        truncation_tail: float = 0.0,
    ) -> None:
        two_js, blocks = [], []
        for two_j, vec in components.items():
            two_j = int(two_j)
            if two_j < 0:
                raise DomainError(f"negative twoJ key {two_j}")
            arr = np.asarray(vec, dtype=complex)
            if arr.ndim != 1:
                raise DomainError("amplitude vectors must be one-dimensional")
            if arr.shape[0] != two_j + 1:
                raise DomainError(
                    f"block twoJ={two_j} needs {two_j + 1} amplitudes, got {arr.shape[0]}"
                )
            two_js.append(two_j)
            blocks.append(arr)
        self._store(
            *_nonzero_rows(np.array(two_js, dtype=np.int64), blocks),
            frame,
            label,
            truncation_tail,
        )

    @classmethod
    def _from_rows(
        cls, two_js, offsets, rows, amplitudes, frame: Frame, label: str, truncation_tail=0.0
    ) -> "TwoModeState":
        """A state from its stored form: 2j of each block, block offsets, flat rows and amplitudes.

        The caller provides 2j >= 0 and at least one row rising within
        0 .. 2j in each block; the checks every state gets (blocks, frame, finite
        amplitudes) are made here.
        """
        state = cls.__new__(cls)
        state._store(two_js, offsets, rows, amplitudes, frame, label, truncation_tail)
        return state

    def _store(self, two_js, offsets, rows, amplitudes, frame, label, truncation_tail) -> None:
        # arrays are taken over, not copied, and made read-only
        two_js = np.array(two_js, dtype=np.int64, copy=None, ndmin=1)
        offsets = np.array(offsets, dtype=np.int64, copy=None)
        rows = np.array(rows, dtype=np.int64, copy=None, ndmin=1)
        amplitudes = np.array(amplitudes, dtype=complex, copy=None, ndmin=1)
        if not two_js.size:
            raise DomainError("state needs at least one (j, mu) block")
        if not isinstance(frame, Frame):
            raise DomainError(f"frame must be a Frame, got {frame!r}")
        # a NaN or inf anywhere makes the sum of squares non-finite, and
        # only then are the entries themselves checked
        norm_sq = float(np.vdot(amplitudes, amplitudes).real)
        if not math.isfinite(norm_sq) and not np.isfinite(amplitudes.view(float)).all():
            raise DomainError("amplitude vectors must be finite (NaN or inf amplitude)")
        for name, value in (
            ("two_js", two_js), ("offsets", offsets), ("rows", rows), ("amplitudes", amplitudes)
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "truncation_tail", truncation_tail)
        object.__setattr__(self, "_norm", math.sqrt(norm_sq))

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"TwoModeState is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return (
            f"TwoModeState(label={self.label!r}, frame={self.frame}, "
            f"blocks={self.two_js.size}, stored={self.rows.size})"
        )

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
        return int(self.two_js.max())

    @property
    def sizes(self) -> np.ndarray:
        """Stored rows of each block."""
        return self.offsets[1:] - self.offsets[:-1]

    def stored_blocks(self, which=None) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(2j, rows, amplitudes) of each block, or of the block indices ``which``, as views."""
        bounds, two_js = self.offsets.tolist(), self.two_js.tolist()
        for b in range(len(two_js)) if which is None else which:
            lo, hi = bounds[b], bounds[b + 1]
            yield two_js[b], self.rows[lo:hi], self.amplitudes[lo:hi]

    @property
    def components(self) -> Mapping[int, np.ndarray]:
        """Read-only map 2j -> read-only dense vector of the block, built on each access.

        Raises DomainError, before any vector is built, if the dense
        vectors together would exceed ``_MAX_AMPLITUDES``.
        """
        needed = int(self.two_js.sum()) + self.two_js.size
        if needed > _MAX_AMPLITUDES:
            raise DomainError(
                f"dense vectors of state {self.label!r} need {needed} amplitudes, "
                f"over the budget of {_MAX_AMPLITUDES}"
            )
        two_js = self.two_js.tolist()
        return MappingProxyType({two_j: self._dense(b) for b, two_j in enumerate(two_js)})

    def block(self, two_j: int) -> np.ndarray:
        """Read-only dense vector of block 2j, built alone; KeyError if it is not stored.

        Raises DomainError if the block has more than ``_MAX_AMPLITUDES`` rows.
        """
        where = np.flatnonzero(self.two_js == two_j)
        if not where.size:
            raise KeyError(two_j)
        if two_j + 1 > _MAX_AMPLITUDES:
            raise DomainError(
                f"dense block 2j={two_j} of state {self.label!r} needs {two_j + 1} "
                f"amplitudes, over the budget of {_MAX_AMPLITUDES}"
            )
        return self._dense(int(where[0]))

    def _dense(self, b: int) -> np.ndarray:
        lo, hi = self.offsets[b], self.offsets[b + 1]
        vec = np.zeros(int(self.two_js[b]) + 1, dtype=complex)
        vec[self.rows[lo:hi]] = self.amplitudes[lo:hi]
        vec.flags.writeable = False
        return vec

    def mean_photon_number(self) -> float:
        weights = np.abs(self.amplitudes) ** 2
        return float(np.repeat(self.two_js, self.sizes) @ weights)

    def fock_terms(self) -> list[tuple[int, int, complex]]:
        """Nonzero amplitudes as (n_a, n_b, amplitude) occupation triples.

        n_a = j + mu and n_b = j - mu; for inside-interferometer states the
        occupations refer to the internal (primed) modes.
        """
        terms = []
        for two_j, rows, amps in sorted(self.stored_blocks(), key=lambda block: block[0]):
            for row, amp in zip(rows.tolist(), amps.tolist()):
                if amp != 0:
                    terms.append((two_j - row, row, amp))
        return terms

    def mu_values(self, two_j: int) -> np.ndarray:
        """The mu label (as a float) for each index of one block."""
        return (two_j - 2.0 * np.arange(two_j + 1)) / 2.0


def _nonzero_rows(two_js: np.ndarray, blocks: list[np.ndarray]):
    """Stored form (2j, offsets, rows, amplitudes) of the dense vectors of blocks 2j.

    Each block's nonzero entries are kept, straight into the flat arrays;
    a block with none is not stored.
    """
    kept = [vec.nonzero()[0] for vec in blocks]
    stored = [b for b, rows in enumerate(kept) if rows.size]
    if len(stored) < len(kept):
        two_js, blocks, kept = two_js[stored], [blocks[b] for b in stored], [kept[b] for b in stored]
    offsets = list(itertools.accumulate((rows.size for rows in kept), initial=0))
    rows = np.concatenate([np.zeros(0, dtype=np.int64), *kept])
    amplitudes = np.concatenate(
        [np.zeros(0, dtype=complex), *(vec[rows] for vec, rows in zip(blocks, kept))]
    )
    return two_js, offsets, rows, amplitudes


def fidelity(first: TwoModeState, second: TwoModeState) -> float:
    """|<first|second>| over the rows both store; global-phase invariant.

    The shared rows are one intersection of the keys (2j, r) of both
    states, so no dense vector is built.  Each key is the complex number
    2j + i r: exact in floats for any 2j a state can hold, where an integer
    key such as 2j(2j+1)/2 + r would overflow int64 past 2j ~ 4.3e9, and
    numpy orders complex numbers by real part, then imaginary part.
    """
    keys = [np.repeat(state.two_js, state.sizes) + 1j * state.rows for state in (first, second)]
    _, mine, theirs = np.intersect1d(*keys, assume_unique=True, return_indices=True)
    return abs(np.vdot(first.amplitudes[mine], second.amplitudes[theirs]))


def _single_block(two_j: int, entries: dict[int, complex], frame: Frame, label: str) -> TwoModeState:
    """State with one j block and amplitudes at the given rows."""
    rows = sorted(entries)
    return TwoModeState._from_rows(
        [two_j], [0, len(rows)], rows, [entries[row] for row in rows], frame, label
    )


# Amplitudes a coherent state may store, and the most any state's dense
# ``components`` may hold: 128 MiB of complex128 at 16 bytes each.  The
# J_y recurrence has its own bound, in column-rows.  A coherent state
# stores one amplitude per block, about 14 sqrt(nbar) of them, so the
# budget would admit nbar near 3.6e11; the Poisson window scanned to choose
# them binds first.  Detection reads the stored rows and builds no dense
# vector.
_MAX_AMPLITUDES = 2**23

# Photon numbers coherent_input may scan, 20 standard deviations on either
# side of nbar.  The scan's arrays take 32 MiB each at the cap, which nbar
# near 1.1e10 reaches; building that state peaks near 280 MiB and keeps
# about 1.5M blocks.
_MAX_WINDOW = 2**22


def coherent_input(
    nbar: float, coherent_phase: float = 0.0, tail_bound: float = 1e-12
) -> TwoModeState:
    """Coherent light in mode a, vacuum in mode b.

    The Poisson weight over the total photon number n = 2j puts amplitude
    e^{-|alpha|^2/2} alpha^n / sqrt(n!) on |j, j>, with nbar = |alpha|^2.
    The expansion keeps one window of photon numbers around nbar: the
    smallest weights are dropped, from either side, while the discarded
    mass of both tails together stays below tail_bound, and the rest is
    renormalized.  ``truncation_tail`` reports the discarded mass.  Each
    kept block stores its one amplitude on row 0, with no zero padding.
    A scan wider than ``_MAX_WINDOW`` photon numbers raises DomainError
    before it is allocated, and so does a kept window of more than
    ``_MAX_AMPLITUDES`` blocks before the state is built.
    """
    nbar = float(nbar)
    if not math.isfinite(nbar) or nbar < 0:
        raise DomainError(f"nbar must be finite and non-negative, got {nbar}")
    if not 0 < tail_bound <= 1e-6:
        raise DomainError(f"tail_bound must be in (0, 1e-6], got {tail_bound}")
    if nbar == 0.0:
        return _single_block(0, {0: 1.0 + 0j}, Frame.AT_INPUT, "coherent")
    mode = int(nbar)  # the largest weight, which every window keeps
    reach = 20.0 * math.sqrt(nbar + 1.0) + 40.0
    scan = min(nbar, reach) + reach + 1.0  # the window below, sized before nbar +- reach round
    if scan > _MAX_WINDOW:
        raise DomainError(
            f"coherent state at nbar = {nbar!r} needs a scan of {scan:.6g} photon "
            f"numbers, over the budget of {_MAX_WINDOW}"
        )
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
    if kept_ns.size > _MAX_AMPLITUDES:
        raise DomainError(
            f"coherent state at nbar = {nbar!r} needs {kept_ns.size} amplitudes, "
            f"over the budget of {_MAX_AMPLITUDES}"
        )
    amps = np.sqrt(probs[first : last + 1]) * np.exp(1j * coherent_phase * kept_ns)
    amps /= math.sqrt(float(np.vdot(amps, amps).real))
    return TwoModeState._from_rows(
        kept_ns,
        np.arange(kept_ns.size + 1),
        np.zeros(kept_ns.size, dtype=np.int64),
        amps,
        Frame.AT_INPUT,
        "coherent",
        tail,
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
    return _noon(_positive_int(n_total, "n_total"), "noon-internal")


def _noon(n_total: int, label: str) -> TwoModeState:
    amp = 1.0 / math.sqrt(2.0)
    return _single_block(n_total, {0: amp, n_total: amp}, Frame.INSIDE_INTERFEROMETER, label)


def noon_input(n_total: int) -> TwoModeState:
    """The input state whose image after the first beam splitter is NOON.

    Built by sending the internal NOON state, labelled "noon", through the
    beam-splitter transform (the z-y-z product), not by the closed-form
    coefficients.
    """
    from .interferometer import apply_beam_splitter

    n_total = _positive_int(n_total, "n_total")
    return apply_beam_splitter(_noon(n_total, "noon"), inverse=False)


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
    # every amplitude is nonzero: the sine's argument stays inside (0, pi)
    return TwoModeState._from_rows(
        [n_total], [0, n_total + 1], i, amps, Frame.INSIDE_INTERFEROMETER, "berry-wiseman"
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
    d^j_{j,0}(pi/2) cos(theta - N pi/4)]^(-1/2) is not used: its
    interference term disagrees with this construction whenever
    N = 2 (mod 4) and sin(theta) != 0, which the tests pin.
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
    return TwoModeState(
        {n_total: vec / norm}, Frame.AT_INPUT, "combined"
    )


def _positive_int(n, what: str) -> int:
    """n as a positive int; bools, non-finite and fractional values raise DomainError."""
    try:
        valid = not isinstance(n, bool) and math.isfinite(n) and n == int(n) and n >= 1
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise DomainError(f"{what} must be a positive integer, got {n!r}")
    return int(n)
