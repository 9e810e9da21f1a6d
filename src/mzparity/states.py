"""Input and internal states of the interferometer in the Schwinger basis.

A two-mode pure state with amplitudes psi_{mu,j} over |j, mu> kets is kept
block by block, twoJ = 2j, as the sorted nonzero rows of each block (row i
is mu = j - i) and their amplitudes, laid end to end in flat arrays; the
dense vector of a block is built only when it is asked for.  The
frame tag records whether the amplitudes describe the external input ports
or the modes between the two beam splitters; detection and transform
operations dispatch on it.

One type, TwoModeState, holds one state or a batch of them end to end
(each state's first block, frame, label, tail and norm beside the flat
arrays), made and checked once by ``_batch``.  Each family the CLI sweeps
has one builder that takes an array of N and returns all their states as
one batch; detection reads batches.  The one-N constructors
(``noon_internal``, ``dual_fock_input``, ...) validate N and return the
same builder's batch of [N], so each family has one implementation of its
amplitudes.

NOON and the NOON/dual-Fock superposition have a constructor in each
frame.  At input (``noon_input``, ``combined_input``) each is a dense
block of 2j + 1 rows.  Inside (``noon_internal``, ``combined_internal``)
NOON is rows 0 and 2j, and the combined state adds the even rows of the
image of |j, 0>, built in closed form with no rotation; the CLI uses
these.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DomainError, FrameError, NormalizationError
from .wigner import _central_binomials, _ragged

__all__ = [
    "CombinedStateParams",
    "FAMILY_PARITY",
    "Frame",
    "STATE_LABELS",
    "TwoModeState",
    "berry_wiseman_internal",
    "coherent_input",
    "combined_input",
    "combined_internal",
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
    """Pure two-mode states over Schwinger labels (j, mu), stored as nonzero rows.

    Row i of block 2j is the ket |j, mu> with mu = j - i, so row 0 carries
    mu = +j and row 2j carries mu = -j.  Each block keeps only its sorted
    nonzero rows and their amplitudes, laid end to end in flat read-only
    arrays: block b has size ``two_js[b]`` and stores ``sizes[b]`` rows
    (``rows``) and amplitudes (``amplitudes``).  A coherent block thus
    stores one amplitude, not 2j + 1.

    One object holds one state, or a builder's group of them end to end:
    each state's first block, then the block count (``firsts``), and each
    state's frame (``inside``), label, truncation tail and norm.
    ``state[a:b]`` is states a .. b - 1, as views.  ``frame``, ``label``,
    ``truncation_tail``, ``offsets`` (where each block's rows start, then
    the end) and ``norm()`` read state 0.

    ``TwoModeState(components, frame, label)`` takes a mapping from 2j to a
    dense vector of 2j + 1 amplitudes and keeps its nonzero entries; a
    block with none is not stored.  ``components`` and ``block`` give
    dense vectors back, built on demand under the ``_MAX_AMPLITUDES``
    budget.  States are immutable.
    """

    __slots__ = (
        "two_js", "sizes", "rows", "amplitudes", "firsts", "inside", "labels", "tails", "norms"
    )
    __iter__ = None  # not a list of states: list(state) raises TypeError

    def __new__(
        cls,
        components: Mapping[int, np.ndarray],
        frame: Frame,
        label: str,
        truncation_tail: float = 0.0,
    ) -> "TwoModeState":
        if not isinstance(label, str):
            raise DomainError(f"label must be a str, got {label!r}")
        if not 0.0 <= truncation_tail <= 1.0:
            raise DomainError(f"truncation_tail must lie in [0, 1], got {truncation_tail!r}")
        two_js, blocks = [], []
        for key, vec in components.items():
            two_j = _positive_int(key, "twoJ key", least=0)
            arr = np.asarray(vec, dtype=complex)
            if arr.ndim != 1:
                raise DomainError("amplitude vectors must be one-dimensional")
            if arr.shape[0] != two_j + 1:
                raise DomainError(
                    f"block twoJ={two_j} needs {two_j + 1} amplitudes, got {arr.shape[0]}"
                )
            two_js.append(two_j)
            blocks.append(arr)
        stored = _nonzero_rows(np.array(two_js, dtype=np.int64), blocks)
        return _batch(*stored, [stored[0].size], frame, label, [truncation_tail])

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"TwoModeState is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return (
            f"TwoModeState(label={self.label!r}, frame={self.frame}, "
            f"blocks={self.two_js.size}, stored={self.rows.size})"
        )

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, cut: slice) -> "TwoModeState":
        a, b, _ = cut.indices(len(self))
        lo, hi = int(self.firsts[a]), int(self.firsts[b])
        start, stop = _bounds(self.sizes)[[lo, hi]].tolist()
        firsts = self.firsts[a : b + 1] - lo
        firsts.setflags(write=False)  # the rest are views of read-only arrays
        return _state(
            self.two_js[lo:hi], self.sizes[lo:hi], self.rows[start:stop],
            self.amplitudes[start:stop], firsts, self.inside[a:b],
            self.labels[a:b], self.tails[a:b], self.norms[a:b])

    def select(self, picked: np.ndarray) -> "TwoModeState":
        """The states where picked is True, joined from a slice per run of them."""
        padded = np.concatenate(([False], picked, [False]))
        edges = (padded[1:] != padded[:-1]).nonzero()[0].tolist()
        return _joined([self[a:b] for a, b in zip(edges[::2], edges[1::2])])

    @property
    def frame(self) -> Frame:
        return Frame.INSIDE_INTERFEROMETER if self.inside[0] else Frame.AT_INPUT

    @property
    def label(self) -> str:
        return self.labels[0]

    @property
    def truncation_tail(self) -> float:
        return float(self.tails[0])

    @property
    def offsets(self) -> np.ndarray:
        return _bounds(self.sizes)

    def norm(self) -> float:
        """sqrt(sum |psi|^2) over every block, computed once at construction."""
        return float(self.norms[0])

    def require_normalized(self, tol: float = 1e-8) -> None:
        """NormalizationError, naming the first state whose norm is off 1 by more than tol."""
        off = np.abs(self.norms - 1.0) > tol
        if off.any():
            s = int(off.argmax())
            raise NormalizationError(f"state {self.labels[s]!r} has norm "
                                     f"{float(self.norms[s])!r}, expected 1 within {tol}")

    @property
    def max_two_j(self) -> int:
        return int(self.two_js.max())

    def stored_blocks(self, which=None) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(2j, rows, amplitudes) of each block, or of the block indices ``which``, as views."""
        bounds, two_js = _bounds(self.sizes).tolist(), self.two_js.tolist()
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
        return MappingProxyType({block[0]: _dense(*block) for block in self.stored_blocks()})

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
        (block,) = self.stored_blocks([int(where[0])])
        return _dense(*block)

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


_SLOT_SETTERS = [getattr(TwoModeState, name).__set__ for name in TwoModeState.__slots__]


def _state(*values) -> TwoModeState:
    """The TwoModeState holding values, one per slot in order, unchecked."""
    state = object.__new__(TwoModeState)
    for put, value in zip(_SLOT_SETTERS, values):
        put(state, value)
    return state


def _dense(two_j: int, rows: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Read-only dense vector of a block 2j storing amplitudes on rows."""
    vec = np.zeros(two_j + 1, dtype=complex)
    vec[rows] = amplitudes
    vec.flags.writeable = False
    return vec


def _nonzero_rows(two_js: np.ndarray, blocks: list[np.ndarray]):
    """Stored form (2j, sizes, rows, amplitudes) of the dense vectors of blocks 2j.

    Each block's nonzero entries are kept, straight into the flat arrays;
    a block with none is not stored.
    """
    kept = [vec.nonzero()[0] for vec in blocks]
    stored = [b for b, rows in enumerate(kept) if rows.size]
    if len(stored) < len(kept):
        two_js, blocks, kept = two_js[stored], [blocks[b] for b in stored], [kept[b] for b in stored]
    rows = np.concatenate([np.zeros(0, dtype=np.int64), *kept])
    amplitudes = np.concatenate(
        [np.zeros(0, dtype=complex), *(vec[rows] for vec, rows in zip(blocks, kept))]
    )
    return two_js, [rows.size for rows in kept], rows, amplitudes


# Photons one block may hold.  Below 2^48 every flat key and running sum
# that detection forms over a pass (2j + 1 summed over at most 2^13 blocks)
# stays under 2^62, and every N is exact as a float.
_MAX_PHOTONS = 2**48


def _batch(
    two_js, sizes, rows, amplitudes, blocks, frame: Frame, label, tails=None
) -> TwoModeState:
    """The states laid end to end in one TwoModeState, state s owning the next blocks[s] blocks.

    ``label`` is every state's label or a list of them, ``tails`` each
    state's truncation_tail (0 if None).  The caller provides 2j >= 0 and
    rising rows within 0 .. 2j in each block; the checks every state gets
    (a block, the frame, finite amplitudes) are made here, once for all.
    The arrays are taken over, not copied, and made read-only.  A block of
    ``_MAX_PHOTONS`` photons or more raises DomainError before anything is
    allocated.
    """
    two_js = np.array(two_js, copy=None, ndmin=1)  # Python ints past int64 stay exact here
    over = two_js >= _MAX_PHOTONS
    if over.any():
        raise DomainError(
            f"N = {two_js[over][0]} photons in one block, over the budget of 2^48"
        )
    two_js = two_js.astype(np.int64, copy=False)
    sizes = np.array(sizes, dtype=np.int64, copy=None, ndmin=1)
    rows = np.array(rows, dtype=np.int64, copy=None, ndmin=1)
    amplitudes = np.array(amplitudes, dtype=complex, copy=None, ndmin=1, order="C")
    blocks = np.array(blocks, dtype=np.int64, copy=None, ndmin=1)
    if np.count_nonzero(blocks) < blocks.size:
        raise DomainError("state needs at least one (j, mu) block")
    if not isinstance(frame, Frame):
        raise DomainError(f"frame must be a Frame, got {frame!r}")
    firsts, bounds = _bounds(blocks), _bounds(sizes)
    # a NaN or inf anywhere makes a sum of squares non-finite, and
    # only then are the entries themselves checked; a huge finite
    # amplitude overflows its square and gives an infinite norm
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduceat(np.square(amplitudes.view(float)), 2 * bounds[firsts[:-1]]))
    if not math.isfinite(np.add.reduce(norms)) and not np.isfinite(amplitudes.view(float)).all():
        raise DomainError("amplitude vectors must be finite (NaN or inf amplitude)")
    labels = (label,) * blocks.size if isinstance(label, str) else tuple(label)
    tails = np.zeros(blocks.size) if tails is None else np.array(tails, dtype=float)
    inside = np.empty(blocks.size, dtype=bool)
    inside.fill(frame is Frame.INSIDE_INTERFEROMETER)
    for array in (two_js, sizes, rows, amplitudes, inside, tails, norms):
        array.setflags(write=False)
    return _state(two_js, sizes, rows, amplitudes, firsts, inside, labels, tails, norms)


def _bounds(counts) -> np.ndarray:
    """0, then the running sums of counts: where each run starts, then the end; read-only."""
    bounds = np.empty(len(counts) + 1, dtype=np.int64)
    bounds[0] = 0
    np.add.accumulate(counts, out=bounds[1:])
    bounds.setflags(write=False)
    return bounds


def _cuts(weights, bound: int) -> list[int]:
    """Bounds of the greedy runs of weights that sum to at most bound.

    Each run takes the next weights while they fit, by running sums and
    ``searchsorted``; a weight over the bound makes a run alone.
    """
    ends = np.add.accumulate(weights)
    cuts = [0]
    while cuts[-1] < ends.size:
        base = int(ends[cuts[-1] - 1]) if cuts[-1] else 0
        cuts.append(max(int(ends.searchsorted(base + bound, side="right")), cuts[-1] + 1))
    return cuts


def _joined(batches: list[TwoModeState]) -> TwoModeState:
    """The states of batches end to end, in one object; a lone batch is itself."""
    if len(batches) == 1:
        return batches[0]
    joined = [np.concatenate([getattr(batch, name) for batch in batches])
              for name in ("two_js", "sizes", "rows", "amplitudes", "inside", "tails", "norms")]
    firsts = _bounds(np.concatenate([batch.firsts[1:] - batch.firsts[:-1] for batch in batches]))
    for array in joined:
        array.setflags(write=False)
    labels = tuple(label for batch in batches for label in batch.labels)
    return _state(*joined[:4], firsts, joined[4], labels, *joined[5:])


def fidelity(first: TwoModeState, second: TwoModeState) -> float:
    """|<first|second>| over the rows both store; global-phase invariant.

    The states must share a frame (FrameError otherwise): the rows of two
    frames are kets of two bases.

    The shared rows are one intersection of the keys (2j, r) of both
    states, so no dense vector is built.  Each key is the complex number
    2j + i r: exact in floats for any 2j a state can hold, where an integer
    key such as 2j(2j+1)/2 + r would overflow int64 past 2j ~ 4.3e9, and
    numpy orders complex numbers by real part, then imaginary part.
    """
    if first.frame is not second.frame:
        raise FrameError(f"fidelity needs two states in one frame, got {first.frame.value} "
                         f"and {second.frame.value}")
    keys = [np.repeat(state.two_js, state.sizes) + 1j * state.rows for state in (first, second)]
    _, mine, theirs = np.intersect1d(*keys, assume_unique=True, return_indices=True)
    return abs(np.vdot(first.amplitudes[mine], second.amplitudes[theirs]))


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
    ``_MAX_AMPLITUDES`` blocks before the state is built.  A finite
    coherent_phase whose product with a kept photon number passes the
    float range raises DomainError too.
    """
    return _coherent_states([nbar], coherent_phase, tail_bound)


def _coherent_states(nbars, coherent_phase: float = 0.0, tail_bound: float = 1e-12):
    """coherent_input at each nbar: the windows built together, one row of a grid each.

    Consecutive windows share a grid (``_coherent_grid``) while it holds
    at most ``_GRID_CELLS`` cells, and every state is stored in one
    batch.  A window's numbers depend on it alone, so each state
    is bitwise the one ``coherent_input`` builds.  The windows are checked
    as ``coherent_input`` checks one, before any grid is allocated, and
    the first that fails raises.
    """
    if not math.isfinite(coherent_phase):
        raise DomainError(f"coherent_phase must be finite, got {coherent_phase!r}")
    given = np.array(nbars, dtype=float, ndmin=1)
    nbar = given.copy()
    valid = np.isfinite(nbar) & (nbar >= 0.0)
    nbar[~valid] = 0.0
    reach = 20.0 * np.sqrt(nbar + 1.0) + 40.0
    scan = np.minimum(nbar, reach) + reach + 1.0  # the window, sized before nbar +- reach round
    failed = ~valid | (scan > _MAX_WINDOW)
    if failed.any() or not 0 < tail_bound <= 1e-6:
        w = int(failed.argmax())
        if valid[0] and not 0 < tail_bound <= 1e-6:
            raise DomainError(f"tail_bound must be in (0, 1e-6], got {tail_bound}")
        if not valid[w]:
            raise DomainError(f"nbar must be finite and non-negative, got {float(given[w])}")
        raise DomainError(
            f"coherent state at nbar = {float(given[w])!r} needs a scan of {scan[w]:.6g} photon "
            f"numbers, over the budget of {_MAX_WINDOW}"
        )
    # window w reaches below[w] photon numbers under its mode, the largest
    # weight, and above[w] over it; nbar = 0 keeps the vacuum alone
    mode = nbar.astype(np.int64)
    below = mode - np.maximum((nbar - reach).astype(np.int64), 0)
    above = np.where(nbar > 0.0, (nbar + reach).astype(np.int64) - mode, 0)
    parts = [
        _coherent_grid(nbar[run], mode[run], below[run], above[run], coherent_phase, tail_bound)
        for run in _grid_runs(below, above)
    ]
    kept_ns, amps, sizes, tails = (np.concatenate(part) for part in zip(*parts))
    if np.any(sizes > _MAX_AMPLITUDES):
        w = int(np.argmax(sizes > _MAX_AMPLITUDES))
        raise DomainError(
            f"coherent state at nbar = {float(given[w])!r} needs {sizes[w]} amplitudes, "
            f"over the budget of {_MAX_AMPLITUDES}"
        )
    ones = np.ones(kept_ns.size, dtype=np.int64)
    return _batch(kept_ns, ones, 0 * ones, amps, sizes, Frame.AT_INPUT, "coherent", tails)


# Cells of one coherent grid: consecutive windows share a grid while its
# rows times its width stay within this, which holds the transient memory
# of a group near that of one window.
_GRID_CELLS = 2**14


def _grid_runs(below: np.ndarray, above: np.ndarray) -> Iterator[slice]:
    """Runs of consecutive windows whose grid stays within _GRID_CELLS, a wider one alone.

    A run's grid has one row per window and the widest reach on each side,
    so its cells never shrink as it takes the next window, and a run from
    window w holds at most _GRID_CELLS // (below[w] + above[w] + 3) of them.
    """
    start = 0
    while start < below.size:
        reach = slice(start, start + _GRID_CELLS // int(below[start] + above[start] + 3) + 1)
        width = np.maximum.accumulate(below[reach]) + np.maximum.accumulate(above[reach]) + 3
        cells = np.arange(1, width.size + 1) * width
        stop = start + max(int(np.searchsorted(cells, _GRID_CELLS, side="right")), 1)
        yield slice(start, stop)
        start = stop


def _coherent_grid(nbar, mode, below, above, coherent_phase: float, tail_bound: float):
    """(kept photon numbers, amplitudes, kept sizes, discarded masses) of windows on one grid.

    Row w holds window w, placed so that every mode, the largest weight,
    sits in column D + 1 with D = max(below): column c is photon number
    mode + c - D - 1, and zeros surround each window (the first and last
    columns are always empty).  Running sums and sorts run along each
    row, and every sum is an ``np.add.reduceat`` segment that starts on a
    zero (``_sums``), so no window's numbers depend on the others.
    """
    top = int(below.max())
    offsets = np.arange(-top - 1, int(above.max()) + 2)
    # Poisson weights relative to the mode, summed outward from it:
    # log p_n - log p_(n-1) = log(nbar / n).  Beyond 20 standard deviations
    # the mass is below e^-200, so normalizing over the window is exact.
    ns = mode[:, None] + offsets
    grid = np.maximum(mode[:, None] + (offsets + (offsets < 0)), 1, dtype=float)
    np.log(np.divide(np.where(nbar > 0.0, nbar, 1.0)[:, None], grid, out=grid), out=grid)
    grid[:, top + 1] = 0.0
    np.add.accumulate(grid[:, top + 2 :], axis=1, out=grid[:, top + 2 :])
    grid[:, top:0:-1] = -np.add.accumulate(grid[:, top:0:-1], axis=1)
    # every window's log-weights are <= 0; the empty cells left of the mode
    # of a row with nbar < 1 grow with the grid, past the float range
    np.exp(np.minimum(grid, 0.0, out=grid), out=grid)
    grid[(offsets < -below[:, None]) | (offsets > above[:, None])] = 0.0
    rows = np.arange(nbar.size)[:, None] * grid.shape[1]
    first, last = top + 1 - below, top + 1 + above  # each window's columns
    grid /= _sums(grid, rows + np.array([first - 1, last + 1]).T)[:, :1]
    # drop the smallest weights while the discarded mass stays below the
    # bound; a row's empty columns sort first and add nothing
    order = np.argsort(grid, axis=1, kind="stable")
    order += rows
    running = grid.ravel()[order]
    np.add.accumulate(running, axis=1, out=running)
    kept = np.empty(grid.shape, dtype=bool)
    kept.ravel()[order] = running >= tail_bound
    columns = np.arange(grid.shape[1])
    low, high = kept.argmax(axis=1), columns[-1] - kept[:, ::-1].argmax(axis=1)
    span = (columns >= low[:, None]) & (columns <= high[:, None])
    sizes = high - low + 1
    probs, kept_ns = grid[span], ns[span]
    amps = np.sqrt(probs)
    if coherent_phase:  # at phase 0 the factors are exactly 1
        top = int(kept_ns.max())
        if not math.isfinite(coherent_phase * top):  # Python floats: inf, with no warning
            raise DomainError(f"coherent_phase {coherent_phase!r} times photon number {top} "
                              "leaves the float range")
        amps = amps * np.exp(1j * coherent_phase * kept_ns)
    amps /= np.repeat(np.sqrt(np.add.reduceat(probs, np.cumsum(sizes) - sizes)), sizes)
    grid[span] = 0.0
    tails = _sums(grid, rows + np.array([first - 1, low, high, last + 1]).T)
    return kept_ns, amps, sizes, tails[:, 0] + tails[:, 2]


def _sums(grid: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums of the raveled grid from each of bounds to the next, shaped as bounds.

    ``np.add.reduceat`` adds a segment's first value to the pairwise sum
    of the rest, so a segment that starts on a zero gets the pairwise sum
    of the values after it, the one ``ndarray.sum`` takes of them alone.
    """
    return np.add.reduceat(grid.ravel(), bounds.ravel()).reshape(bounds.shape)


_AMP = 1.0 / math.sqrt(2.0)


def _one_block_states(ns, rows_of, amps, frame: Frame, label: str) -> TwoModeState:
    """One block 2j = N per state, storing rows_of(N)[k] with amplitude amps[k].

    ``rows_of`` takes the array of N and gives each stored row as an
    array over them, rising; an N past int64 reaches ``_batch`` as a Python
    int and is refused there.
    """
    ns = np.asarray(ns)
    rows = np.array(rows_of(ns))  # one line per stored row, one column per state
    ones = np.empty(ns.size, dtype=np.int64)
    ones.fill(1)
    amps = np.array([amps], dtype=complex).repeat(ns.size, axis=0)
    return _batch(ns, len(rows) * ones, rows.T.ravel(), amps.ravel(), ones, frame, label)


def single_fock_input(n_total: int) -> TwoModeState:
    """|N>_a |0>_b: all photons in mode a, so mu = +j."""
    return _single_fock_states([_positive_int(n_total, "n_total")])


def _single_fock_states(ns) -> TwoModeState:
    return _one_block_states(ns, lambda n: [0 * n], [1.0], Frame.AT_INPUT, "single-fock")


def dual_fock_input(n_per_mode: int) -> TwoModeState:
    """|N>_a |N>_b: equal occupation, mu = 0, total photon number 2N."""
    return _dual_fock_states([2 * _positive_int(n_per_mode, "n_per_mode")])


def _dual_fock_states(ns) -> TwoModeState:
    """dual_fock_input at total photon numbers ns, all even."""
    return _one_block_states(ns, lambda n: [n // 2], [1.0], Frame.AT_INPUT, "dual-fock")


def noon_internal(n_total: int) -> TwoModeState:
    """(|N,0> + |0,N>)/sqrt(2) on the internal modes: mu = +j and -j."""
    return _noon_states([_positive_int(n_total, "n_total")], "noon-internal")


def _noon_states(ns, label: str) -> TwoModeState:
    amps, inside = [_AMP, _AMP], Frame.INSIDE_INTERFEROMETER
    return _one_block_states(ns, lambda n: [0 * n, n], amps, inside, label)


def noon_input(n_total: int) -> TwoModeState:
    """The input state whose image after the first beam splitter is NOON.

    Built by sending the internal NOON state, labelled "noon", through the
    beam-splitter transform (the z-y-z product), not by the closed-form
    coefficients.
    """
    from .interferometer import apply_beam_splitter

    return apply_beam_splitter(_noon_states([_positive_int(n_total, "n_total")], "noon"))


def yurke_input(n_total: int) -> TwoModeState:
    """(|j,0> + |j,1>)/sqrt(2); needs integer j, so even N."""
    return _yurke_states([_in_class("yurke", n_total)])


def _yurke_states(ns) -> TwoModeState:
    return _one_block_states(
        ns, lambda n: [n // 2 - 1, n // 2], [_AMP, _AMP], Frame.AT_INPUT, "yurke"
    )


def yuen_input(n_total: int, modified: bool = False) -> TwoModeState:
    """(|j,1/2> + i|j,-1/2>)/sqrt(2), or with the i dropped when modified.

    Needs half-integer j, so odd N.
    """
    return _yuen_states([_in_class("modified-yuen" if modified else "yuen", n_total)], modified)


def _yuen_states(ns, modified: bool) -> TwoModeState:
    amps, label = [_AMP, _AMP if modified else 1j * _AMP], "modified-yuen" if modified else "yuen"
    # rows (N - 1)/2 and (N + 1)/2 carry mu = +1/2 and -1/2
    return _one_block_states(ns, lambda n: [n // 2, n // 2 + 1], amps, Frame.AT_INPUT, label)


def pezze_smerzi_input(n_total: int) -> TwoModeState:
    """(|j,1> + |j,-1>)/sqrt(2); needs integer j >= 1, so even N >= 2."""
    return _pezze_smerzi_states([_in_class("pezze-smerzi", n_total)])


def _pezze_smerzi_states(ns) -> TwoModeState:
    return _one_block_states(
        ns, lambda n: [n // 2 - 1, n // 2 + 1], [_AMP, _AMP], Frame.AT_INPUT, "pezze-smerzi"
    )


def _within_budget(n_total: int, label: str) -> None:
    """Refuse a state of N + 1 rows over ``_MAX_AMPLITUDES``, before anything is allocated."""
    if n_total + 1 > _MAX_AMPLITUDES:
        raise DomainError(
            f"{label} state at N = {n_total} spans {n_total + 1} rows, "
            f"over the budget of {_MAX_AMPLITUDES}"
        )


def berry_wiseman_internal(n_total: int) -> TwoModeState:
    """Optimal internal state with C_mu = sin((mu+j+1)pi/(2j+2))/sqrt(j+1).

    It stores all N + 1 rows, held to ``_MAX_AMPLITUDES``.
    """
    return _berry_wiseman_states([_positive_int(n_total, "n_total")])


def _berry_wiseman_states(ns) -> TwoModeState:
    """berry_wiseman_internal at each N of ns; the largest is held to the budget first."""
    ns = np.asarray(ns)
    _within_budget(int(np.maximum.reduce(ns)), "berry-wiseman")
    ns = ns.astype(np.int64, copy=False)
    i, n = _ragged(ns + 1), np.repeat(ns, ns + 1)
    # mu = j - i, so mu + j + 1 = N - i + 1 and 2j + 2 = N + 2
    amps = np.sin((n - i + 1.0) * math.pi / (n + 2.0)) / np.sqrt(0.5 * n + 1.0)
    # every amplitude is nonzero: the sine's argument stays inside (0, pi)
    return _batch(
        ns, ns + 1, i, amps, np.ones(ns.size, dtype=np.int64),
        Frame.INSIDE_INTERFEROMETER, "berry-wiseman",
    )


@dataclass(frozen=True)
class CombinedStateParams:
    """Superposition weights for the combined NOON / dual-Fock input.

    theta is the relative phase theta_alpha - theta_beta, finite; the
    magnitudes must satisfy alpha_mag^2 + beta_mag^2 = 1.  The defaults are the even
    superposition, 1/sqrt(2) each, at theta = 0.
    """

    alpha_mag: float = 1.0 / math.sqrt(2.0)
    beta_mag: float = 1.0 / math.sqrt(2.0)
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta!r}")
        if not 0.0 <= self.alpha_mag <= 1.0 or not 0.0 <= self.beta_mag <= 1.0:
            raise DomainError("alpha_mag and beta_mag must lie in [0, 1]")
        if abs(self.alpha_mag**2 + self.beta_mag**2 - 1.0) > 1e-12:
            raise DomainError(
                "alpha_mag^2 + beta_mag^2 must equal 1 within 1e-12, got "
                f"{self.alpha_mag**2 + self.beta_mag**2!r}"
            )


def _combined_weights(params, caller: str) -> tuple[complex, complex]:
    """(alpha, beta) of the combined state, alpha carrying the relative phase theta."""
    if not isinstance(params, CombinedStateParams):
        raise DomainError(f"{caller} needs CombinedStateParams")
    alpha = params.alpha_mag * complex(math.cos(params.theta), math.sin(params.theta))
    return alpha, complex(params.beta_mag)


def _combined_norms(amps: np.ndarray, starts, ns, params: CombinedStateParams) -> np.ndarray:
    """The norm of each state's run of amps from starts[s]; a degenerate state raises, naming N."""
    norms = np.sqrt(np.add.reduceat(np.abs(amps) ** 2, starts))
    degenerate = np.flatnonzero(norms < 1e-8)
    if degenerate.size:
        s = degenerate[0]
        raise NormalizationError(
            f"combined state degenerates (norm {norms[s]:.3e}) for N={ns[s]}, {params}"
        )
    return norms


def combined_input(n_total: int, params: CombinedStateParams) -> TwoModeState:
    """Normalized alpha * noon_input(N) + beta * |j,0>, N even.

    The state vector is assembled explicitly and renormalized numerically.
    The quoted normalization constant C_N = [1 + 2 sqrt(2) |alpha beta|
    d^j_{j,0}(pi/2) cos(theta - N pi/4)]^(-1/2) is not used: its
    interference term disagrees with this construction whenever
    N = 2 (mod 4) and sin(theta) != 0, which the tests pin.
    """
    n_total = _in_class("combined", n_total)
    alpha, beta = _combined_weights(params, "combined_input")
    vec = alpha * np.asarray(noon_input(n_total).block(n_total))
    vec[n_total // 2] += beta
    (norm,) = _combined_norms(vec, [0], [n_total], params)
    return TwoModeState({n_total: vec / norm}, Frame.AT_INPUT, "combined")


def combined_internal(n_total: int, params: CombinedStateParams) -> TwoModeState:
    """combined_input(N, params) after the inverse beam splitter, in closed form.

    The image of alpha * noon_input(N) is alpha times the internal NOON
    state, on rows 0 and N.  The image of |j, 0> sits on the even rows r
    alone, with amplitude i^j sqrt(c(2j - r) c(r)), where
    c(2k) = C(2k, k) / 4^k is one cumulative product of (2k - 1) / (2k);
    it needs no rotation.  The sum is renormalized, its zero rows are not
    stored, and the errors are those of combined_input, whose dense block
    of N + 1 amplitudes is held to ``_MAX_AMPLITUDES``; that budget is
    checked before anything is allocated.
    """
    return _combined_states([_in_class("combined", n_total)], params)


def _combined_states(ns, params: CombinedStateParams) -> TwoModeState:
    """combined_internal at each even N of ns: one c(2k) table up to the largest j serves all."""
    alpha, beta = _combined_weights(params, "combined_internal")
    ns = np.asarray(ns)
    _within_budget(int(np.maximum.reduce(ns)), "combined")
    ns = ns.astype(np.int64, copy=False)
    js = ns // 2
    halves = _central_binomials(int(js.max()))  # c(2k)
    half_rows, j = _ragged(js + 1), np.repeat(js, js + 1)  # row 2r carries r = half_rows
    amps = np.repeat(beta * np.array([1, 1j, -1, -1j])[js % 4], js + 1) * np.sqrt(
        halves[j - half_rows] * halves[half_rows]
    )
    starts = np.cumsum(js + 1) - (js + 1)
    amps[starts] += alpha / math.sqrt(2.0)
    amps[starts + js] += alpha / math.sqrt(2.0)
    amps /= np.repeat(_combined_norms(amps, starts, ns, params), js + 1)
    kept = amps != 0
    return _batch(
        ns, np.add.reduceat(kept, starts, dtype=np.int64), 2 * half_rows[kept], amps[kept],
        np.ones(ns.size, dtype=np.int64), Frame.INSIDE_INTERFEROMETER, "combined",
    )


def _in_class(label: str, n) -> int:
    """N as a positive int in the parity class of family label, else DomainError."""
    n = _positive_int(n, "n_total")
    need = parity_needed(label, n)
    if need is not None:
        raise DomainError(f"{label} state needs {need} N, got {n}")
    return n


def _positive_int(n, what: str, least: int = 1) -> int:
    """n as an int >= least; bools, non-finite and fractional values raise DomainError."""
    try:
        valid = not isinstance(n, bool) and math.isfinite(n) and n == int(n) and n >= least
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        kind = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise DomainError(f"{what} must be {kind}, got {n!r}")
    return int(n)
