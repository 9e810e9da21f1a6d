"""Wigner small-d rotation kernel for SU(2).

``d^j_{mu',mu}(theta)`` is the matrix element ``<j,mu'| exp(-i theta J_y)
|j,mu>`` in the J_z eigenbasis.  It is real for real theta.  Rows and
columns are ordered by descending magnetic number mu = j, j-1, ..., -j
throughout the package.

Every d number comes from the J_y eigenvectors of its block, built for
each call.  The phase rotation diag((-i)^k) turns J_y into a real
symmetric tridiagonal matrix whose spectrum is exactly mu = -j ... j, so
only real eigenvectors V are built and the i^k phases are applied on the
fly.  Because every eigenvalue is known, each column of V follows in O(n)
from the matrix's three-term recurrence, run over the upper half of the
rows in its stable, dominant direction (Gautschi, SIAM Rev. 9, 24 (1967))
and completed by exact mirrors; this is the J_y-diagonalization route to
Wigner d (Feng, Wang, Yang, Jin, PRE 92, 043307 (2015)).  The
eigenvectors come in exact parity mirror pairs: D V = V[:, ::-1] with
D = diag((-1)^r), which the detection layer uses to project each block
once.

``_projections`` is the one route to V.  It gives the components
<e_k|psi> = sum_r i^r V[r, k] psi_r of many blocks at once, and all the
columns they need advance in one flat recurrence (``_run_columns``): a
dense block folds every column into its components as the rows arrive
and keeps none, and a block stored on a few rows keeps only the columns
at those rows.  The columns at the rows |mu| <= 1 (lam = 0, -1/2, -1)
need no recurrence: they follow in closed form from the central
binomials c(2k) = C(2k, k) / 4^k (``_read_central``), so a block stored
there is read as whole arrays at any 2j.  (Detection reads the fixed-phi
points of such blocks from degree recurrences instead; ``_rotate`` and
the d numbers still project them.)  V is symmetric, so mapping J_y
components back to rows is the same fold, and every other reader is
built on it.  ``_rotate``
(exp(-i theta J_y) on a block) is two projections with the phases
exp(-i theta lam_k) between them.  The projection of a block stored on
row r alone is i^r times row r of V: ``d_element`` and ``d_derivative``
read the rows at their two labels, and ``d_block`` reads the upper half
of V from such blocks and mirrors the rest.

One case needs no eigenvectors: a block stored on no rows but 0 and n-1
(mu = +-j, as in the internal NOON state) only reads the two edge
columns of d, which are closed-form binomials,
d[r, 0] = sqrt(C(2j, r)) c^(2j-r) s^r with c, s = cos, sin(theta/2), and
their mirror.  ``_rotate`` builds them in O(n) (``_edge_column``), so
``noon_input`` and the beam splitter on such blocks run no recurrence.
Detection rotates no block at all for its row-0 blocks (coherent and
single-Fock): it reads them as d[0, 0](2 phi) = cos(phi)^(2j).

Accuracy is absolute through 2j = 1000: about 1e-14 per element and
1e-12 per derivative, so elements below that (far corners of large
blocks at small angles) come back as roundoff, not relatively accurate.
The eigenvectors stay orthonormal within 2e-14 through 2j = 3000, and
a dense rotation, which pairs their columns, carries that error: up to
2e-14 at 2j = 3000 for a block on one row near theta = 0 or pi.  The
edge columns agree with a 40-digit reference within 1e-15, and the
closed-form columns with mpmath within a few times sqrt(j) eps.

Nothing is cached.  The kernel has one bound, on work: a block may
visit ``_MAX_COLUMN_ROWS`` = 2^24 column-rows, in memory of the order of
its columns, and a closed-form column counts its 2j + 1 rows too.  A
dense projection or rotation runs up to 2j = 8191, and ``d_block``,
which holds (2j + 1)^2 entries, up to 2j = 4095; past them DomainError
is raised before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .halfint import HalfInt

__all__ = [
    "WignerBlock",
    "d_block",
    "d_derivative",
    "d_element",
]

# The one bound on the J_y kernel: the column-rows one block may visit.
# A dense block folds its columns with lam <= 0 over their upper rows,
# (2j // 2 + 1)^2 column-rows, which admits every column up to 2j = 8191;
# a block read on its stored rows visits 2j + 1 per column it needs, in
# closed form or not, which refuses the 17,033 stored rows of noon_input
# at N = 10^5 (the CLI reads NOON inside the interferometer, on two rows)
# and a dual-Fock point at N = 2^24.  Detection holds the blocks it reads
# from degree recurrences (rows within |mu| <= 1) to the same bound
# (``_lanes``).  Only fixed-phi points of blocks stored on other rows than
# 0 and |mu| <= 1, apply_mzi on such blocks and the d_* kernels run the
# recurrence: every phi -> 0 limit comes from generator moments, edge-row
# blocks rotate in closed form, and a row-0 block is read as
# cos(phi)^(2j).
_MAX_COLUMN_ROWS = 2**24

# Rows the recurrence advances between two checks for columns past 1e150.
_PANEL = 32

# Entries of kept rows the stored-row route reads in one pass: a column or
# two read all their rows at once, many columns a few panels at a time.
_READ_ENTRIES = 2**16

_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^k, indexed by k % 4


def _validated_indices(j, mu_p, mu) -> tuple[int, int, int]:
    """(2j, row, col) of d^j_{mu',mu}, with row = j - mu' and col = j - mu."""
    two_j = HalfInt.coerce(j).twice
    two_mp = HalfInt.coerce(mu_p).twice
    two_m = HalfInt.coerce(mu).twice
    if two_j < 0:
        raise DomainError(f"j must be non-negative, got {two_j}/2")
    for name, two_mu in (("mu'", two_mp), ("mu", two_m)):
        if abs(two_mu) > two_j:
            raise DomainError(f"{name} = {two_mu}/2 outside [-j, j] for j = {two_j}/2")
        if (two_j - two_mu) % 2 != 0:
            raise DomainError(f"{name} = {two_mu}/2 has wrong parity for j = {two_j}/2")
    return two_j, (two_j - two_mp) // 2, (two_j - two_m) // 2


def _finite_angle(theta) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"rotation angle theta must be finite, got {theta!r}")
    return theta


def _run_columns(two_js: np.ndarray, seeds: np.ndarray, take) -> np.ndarray:
    """Advance many J_y recurrence columns together, _PANEL rows at a time; return their norms.

    J_y conjugated by diag((-i)^index) is the real symmetric tridiagonal
    matrix T with zero diagonal and T[r, r+1] = -sqrt((r + 1)(2j - r)) / 2.
    Its spectrum is exactly lam = -j ... j, so each eigenvector follows
    from the three-term recurrence
    v[r+1] = (lam v[r] - T[r,r-1] v[r-1]) / T[r,r+1] started at v[0] = 1.
    Lane l is the column at lam = seeds[l] - j <= 0 of the block
    2j = two_js[l], over its upper rows 0 .. 2j // 2.  There each column
    grows out of its classically forbidden edge or oscillates, so the
    recurrence runs in its stable, dominant direction (Gautschi, SIAM
    Rev. 9, 24 (1967)).  T is persymmetric, so the lower rows are the row
    mirror V[n-1-r, k] = (-1)^k V[r, k], and the column at lam > 0 is the
    parity mirror D V[:, n-1-k]; callers apply both.  The lanes come sorted
    by 2j // 2, largest first, so the lanes still running at any row are a
    prefix of them, and each row is one set of array operations over that
    prefix, whatever blocks its lanes belong to.  Every step acts on each
    lane alone, so a lane's rows are bitwise the same whatever else runs
    with it.

    ``take(first, panel, scale)`` receives rows first .. first + h - 1 as
    an (h, m) array over the m lanes still running at row first, 0 past
    each lane's last row.  At the end of each panel a lane whose last two
    rows grew past 1e150 is scaled back, so blocks whose exact row 0,
    sqrt(C(2j, k)) / 2^j, would underflow (2j > ~2100) stay finite: the
    panel comes divided, and
    ``scale`` (None when no lane was) holds the factor by which the lane's
    earlier rows must be divided too.  For odd 2j + 1 the last upper row is
    the middle row, which is exactly 0 in odd-seed columns (odd under the
    row mirror).

    The norms are those of whole columns: twice the rows above the middle
    and the middle row once.  Row r of T v = lam v holds for r below the
    last upper row by construction; the last is where the column meets its
    row mirror V[n-1-r] = (-1)^seed V[r], and a lane that fails it there
    raises ConsistencyError.
    """
    size = 0.5 * two_js  # j
    low = seeds - size  # lam, exact
    heights = two_js // 2 + 1
    middle = two_js % 2 == 0  # 2j + 1 odd: the last upper row is the middle row
    zeroed = middle & (seeds % 2 == 1)
    lanes = np.arange(two_js.size)
    # runs of lanes in one block size share their steps T[r, r+1]
    runs = np.flatnonzero(np.r_[True, two_js[1:] != two_js[:-1]])
    run_sizes = np.r_[runs[1:], two_js.size] - runs
    norms = np.zeros(two_js.size)
    # the last two rows of each lane so far: rows first - 2 and first - 1
    prev, row, spare = np.zeros(two_js.size), np.zeros(two_js.size), np.empty(two_js.size)
    top = int(heights.max(initial=0))
    counts = np.searchsorted(-heights, -np.arange(top)).tolist()  # lanes still running at each row
    for first in range(0, top, _PANEL):
        h = min(_PANEL, top - first)
        running, m = counts[first : first + h], counts[first]
        ends = np.minimum(heights[:m] - first, h)  # rows of each lane in this panel
        # T[r, r+1] = -sqrt((r + 1)(2j - r)) / 2 at r = first - 2 .. first + h - 2
        at = np.arange(first - 2.0, first + h - 1.0)[:, None]
        active = int(np.searchsorted(runs, m))
        off = -0.5 * np.sqrt(np.maximum((at + 1.0) * (two_js[runs[:active]] - at), 0.0))
        off = np.repeat(off, run_sizes[:active], axis=1)
        buf = np.zeros((h + 2, m))  # rows first - 2 .. first + h - 1
        buf[0], buf[1] = prev[:m], row[:m]
        if first == 0:
            buf[2] = 1.0
        # the rows of buf and off, and low, cut to each lane count once
        cut = {k: (list(buf[:, :k]), list(off[:, :k]), low[:k], spare[:k]) for k in set(running)}
        for i in range(first == 0, h):  # row first + i from the two before it
            rows, offs, lows, tmp = cut[running[i]]
            np.multiply(lows, rows[i + 1], out=rows[i + 2])
            np.multiply(offs[i], rows[i], out=tmp)
            np.subtract(rows[i + 2], tmp, out=rows[i + 2])
            np.divide(rows[i + 2], offs[i + 1], out=rows[i + 2])
        panel, here = buf[2:], lanes[:m]
        ending = heights[:m] - first <= h
        buf[ends[zeroed[:m] & ending] + 1, here[zeroed[:m] & ending]] = 0.0
        tail = buf[[ends, ends + 1], here]  # the last two rows of each lane so far
        peak = np.abs(tail).max(axis=0)
        scale = None
        if np.any(peak > 1e150):
            scale = np.where(peak > 1e150, peak, 1.0)
            buf /= scale
            tail /= scale
            norms[:m] /= scale
            norms[:m] /= scale
        prev[:m], row[:m] = tail
        squares = np.multiply(panel, panel, out=off[:h])  # the steps are spent
        once = middle[:m] & ending  # the middle row counts once, the others twice
        squares[ends[once] - 1, here[once]] *= 0.5
        total = norms[:m]
        for square in squares:  # each lane's rows in order, however many lanes run
            total += square
        take(first, panel, scale)
    norms = np.sqrt(2.0 * norms)
    last = heights - 1.0
    below = -0.5 * np.sqrt(last * (two_js - last + 1.0))  # T[last, last - 1]
    above = -0.5 * np.sqrt((last + 1.0) * (two_js - last))  # T[last, last + 1]
    # row last + 1 mirrors row n - 2 - last: the one before the middle (odd
    # n) or the last upper row itself (even n)
    mirror = np.where(middle, prev, row) * np.where(seeds % 2, -1.0, 1.0)
    resid = np.abs(low * row - below * prev - above * mirror)
    failed = ~(resid <= 1e-10 * (size + 1.0) * norms)
    if failed.any():
        raise ConsistencyError(
            f"J_y eigenvectors for 2j = {two_js[failed.argmax()]} fail T v = lam v"
        )
    return norms


def _projections(two_js, sizes, rows, amplitudes) -> np.ndarray:
    """<e_k|psi> = sum_r i^r V[r, k] psi_r, k = 0 .. 2j, of each block, block after block.

    The blocks are given in stored form: 2j and the number of stored rows
    of each, then the sorted rows and amplitudes of every block in turn.
    All the J_y columns they need advance in one flat recurrence
    (``_run_columns``), and each block takes the route that visits fewer
    column-rows:

    - folded: every column with lam <= 0, each over its 2j // 2 + 1 upper
      rows, summing <e_k|psi> and <e_k|S psi> over its own entries as its
      rows arrive (``_fold``).  No column is kept, and the eigenvectors'
      own entries are read: their symmetric stand-in moves <P> by up to
      about 1e-15, which near <P> = +-1 is 2e-10 of delta_phi (NOON at
      N = 58, phi = 1.3).
    - stored rows: the d columns its stored rows mirror to, each read over
      all 2j + 1 rows as rows of V, which is symmetric (``_read_stored``):
      a dual-Fock block runs one column at any 2j.

    A block whose route would visit more than ``_MAX_COLUMN_ROWS``
    column-rows raises DomainError before anything is allocated.
    """
    n = two_js + 1
    block, seeds, order, fresh, pair, folded = _lanes(two_js, sizes, rows)
    phased = _I_POWERS[rows % 4] * amplitudes
    base = np.cumsum(n) - n
    out = np.zeros(int(n.sum()), dtype=complex)
    dense = folded[block]
    if dense.any():
        out[base[block[dense]] + rows[dense]] = phased[dense]
        _fold(two_js[folded], base[folded], out)
    if not dense.all():
        lanes = order[fresh][~folded[block[order[fresh]]]]  # a stored row of each pair read
        entries = np.flatnonzero(~dense)
        lane = np.searchsorted(pair[lanes], pair[entries])
        mirrored = rows[entries] != seeds[entries]  # row 2j - s of a pair, not s itself
        a = np.zeros(lanes.size, dtype=complex)
        b = np.zeros(lanes.size, dtype=complex)
        a[lane[~mirrored]] = phased[entries[~mirrored]]
        b[lane[mirrored]] = phased[entries[mirrored]]
        lane_args = (two_js[block[lanes]], base[block[lanes]], seeds[lanes], a, b)
        central = lane_args[0] - 2 * lane_args[2] <= 2  # |mu| <= 1
        for read, picked in ((_read_central, central), (_read_stored, ~central)):
            if picked.any():
                read(*(arg[picked] for arg in lane_args), out)
    return out


def _lanes(two_js, sizes, rows):
    """The columns a projection of blocks in stored form needs, and whether each block folds.

    Returns the block and the seed min(r, 2j - r) of each stored row, the
    order that sorts them by block, then seed, which of them in that order
    is the first of its (block, seed) pair, each row's pair number, and
    the folded route of each block.  A block whose cheaper route would
    visit more than ``_MAX_COLUMN_ROWS`` column-rows raises DomainError;
    only arrays over the stored rows are made first.
    """
    heights = two_js // 2 + 1
    block = np.repeat(np.arange(two_js.size), sizes)
    seeds = np.minimum(rows, two_js[block] - rows)
    # the distinct (block, seed) pairs, numbered by block, then seed
    order = np.lexsort((seeds, block))
    fresh = np.ones(order.size, dtype=bool)
    fresh[1:] = (np.diff(block[order]) != 0) | (np.diff(seeds[order]) != 0)
    pair = np.empty(order.size, dtype=np.int64)
    pair[order] = np.cumsum(fresh) - 1
    columns = np.bincount(block[order[fresh]], minlength=two_js.size)
    # column-rows: every column over its upper rows, or d columns over all rows
    folding, reading = heights.astype(float) ** 2, columns * (two_js + 1.0)
    folded = folding <= reading
    work = np.where(folded, folding, reading)
    if np.any(work > _MAX_COLUMN_ROWS):
        b = int(np.argmax(work > _MAX_COLUMN_ROWS))
        raise DomainError(
            f"J_y projection of block 2j = {two_js[b]} visits {work[b]:.0f} column-rows, "
            f"over the budget of {_MAX_COLUMN_ROWS}"
        )
    return block, seeds, order, fresh, pair, folded


def _central_binomials(top: int) -> np.ndarray:
    """c(2k) = C(2k, k) / 4^k for k = 0 .. top: one cumulative product of (2k - 1) / (2k)."""
    k = np.arange(1.0, top + 1.0)
    return np.concatenate(([1.0], np.cumprod((2.0 * k - 1.0) / (2.0 * k))))


def _read_central(two_js, base, seeds, a, b, out) -> None:
    """The closed-form route: add <e_k|psi> to out[base + k] from lanes within one of the middle.

    Lanes and a, b are as in ``_read_stored``, with 2j - 2s = 0, 1 or 2:
    the columns at lam = 0, -1/2 and -1, which the rows |mu| <= 1 read.
    Each follows from the lam = 0 column u of the even block 2J = 2 (2j // 2),
    u[2m] = (-1)^m sqrt(c(2m) c(2J - 2m)) and 0 on odd rows, with
    c(2k) = C(2k, k) / 4^k: its magnitudes are |d^J_(J - 2m, 0)(pi/2)|,
    through the associated Legendre P_J^(J - 2m)(0), and
    sum_m c(2m) c(2J - 2m) = 1 makes it exactly normalized.  Two operators that lower the J_y
    eigenvalue, both real in this basis, give the others:
    K_- = J_z - i J_x by 1 on the same block,
    (K_- u)[r] = (J - r) u[r] + (t(r-1) u[r-1] - t(r) u[r+1]) / 2 with
    t(r) = sqrt((r + 1)(2J - r)), of norm sqrt(J (J + 1)); and the mode
    (a^dag - i b^dag) / sqrt(2) by 1/2 into block 2J + 1,
    sqrt(2J + 1 - r) u[r] + sqrt(r) u[r - 1] over sqrt(2J + 2).  Both keep
    row 0 positive, as the recurrence does.  Every lane's rows are
    whole-array operations, and no recurrence runs.
    """
    half = two_js // 2
    c = _central_binomials(int(half.max()))
    for shift in (0, 1, 2):
        lanes = np.flatnonzero(two_js - 2 * seeds == shift)
        if not lanes.size:
            continue
        lane = np.repeat(lanes, half[lanes] + 1)
        m, top = _ragged(half[lanes] + 1), half[lane]
        u = np.sqrt(c[m] * c[top - m])
        u[m % 2 == 1] *= -1.0
        at, row = base[lane] + 2 * m, 2.0 * m  # the even rows
        if shift == 0:
            np.add.at(out, at, u * (a + b)[lane])
        elif shift == 1:  # into block 2J + 1, whose odd row 2m + 1 follows from u[2m]
            u /= np.sqrt(2.0 * top + 2.0)
            np.add.at(out, at, np.sqrt(2.0 * top + 1.0 - row) * u * (a + b)[lane])
            np.add.at(out, at + 1, np.sqrt(row + 1.0) * u * (a - b)[lane])
        else:  # each odd row 2m + 1 lies between u[2m] and u[2m + 2]
            u /= np.sqrt(top * (top + 1.0))
            inner = np.flatnonzero(m < top)
            r, twice = row[inner], 2.0 * top[inner]
            odd = np.sqrt((r + 1.0) * (twice - r)) * u[inner]
            odd -= np.sqrt((r + 2.0) * (twice - r - 1.0)) * u[inner + 1]
            np.add.at(out, at[inner] + 1, 0.5 * odd * (a - b)[lane[inner]])
            np.add.at(out, at, (top - row) * u * (a + b)[lane])


def _ragged(sizes: np.ndarray) -> np.ndarray:
    """0 .. s - 1 for each s in sizes, end to end."""
    return np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _by_height(two_js: np.ndarray) -> np.ndarray:
    """Lane order for ``_run_columns``: tallest columns first, ties in place."""
    return np.argsort(-(two_js // 2), kind="stable")


def _fold(two_js, base, out) -> None:
    """The folded route: replace out[base + k], the dense i^r psi of each block 2j, by <e_k|psi>.

    For the column e_s at lam_s <= 0, with upper rows u,
    <e_s|psi> = sum_r u_r (a_r + (-1)^s b_r) and, by the parity mirror,
    <e_(2j-s)|psi> = <e_s|S psi> = sum_r (-1)^r u_r (a_r + (-1)^(s+2j) b_r),
    where a_r = (i^r psi)_r and b_r = (i^r psi)_(2j-r) above the middle
    row, 0 on it.  So four coefficient vectors of each block serve all its
    columns: a + b and a - b, and both times (-1)^r.  Each block's lanes
    run even seeds first, then odd ones, and each of those two groups reads
    one vector for each sum, gathered once per group and _PANEL rows.
    """
    heights = two_js // 2 + 1
    row = _ragged(heights)
    a = out[np.repeat(base, heights) + row]
    mirror = out[np.repeat(base + two_js, heights) - row]
    b = np.where(row < np.repeat((two_js + 1) // 2, heights), mirror, 0.0)
    alternate = np.where(row % 2, -1.0, 1.0)
    vectors = (a + b, a - b, alternate * (a + b), alternate * (a - b))
    coef = np.zeros((8, row.size + _PANEL))  # Re and Im of each; lanes read past their end
    for i, vector in enumerate(vectors):
        coef[2 * i, : row.size], coef[2 * i + 1, : row.size] = vector.real, vector.imag
    # groups: the even and the odd seeds of each block, tallest blocks first
    blocks = np.repeat(_by_height(two_js), 2)
    odd = np.tile([0, 1], two_js.size)
    sizes = (heights[blocks] + 1 - odd) // 2
    plain = 2 * odd  # a + b for even seeds, a - b for odd ones
    signed = 4 + 2 * ((odd + two_js[blocks]) % 2)
    starts = (np.cumsum(heights) - heights)[blocks]
    lane = np.repeat(blocks, sizes)
    seeds = 2 * _ragged(sizes) + np.repeat(odd, sizes)
    ends = np.cumsum(sizes)
    sums = np.zeros((4, lane.size))  # Re and Im of <e_s|psi>, then of <e_s|S psi>

    def fold(first, panel, scale):
        h, m = panel.shape
        groups = int(np.searchsorted(ends, m, side="right"))
        at = starts[:groups] + np.arange(first, first + h)[:, None]
        if scale is not None:
            sums[:, :m] /= scale
        for i, vector in enumerate((plain, plain + 1, signed, signed + 1)):
            spread = np.repeat(coef[vector[:groups], at], sizes[:groups], axis=1)
            sums[i, :m] += np.einsum("hm,hm->m", panel, spread)

    norms = _run_columns(two_js[lane], seeds, fold)
    out[base[lane] + seeds] = (sums[0] + 1j * sums[1]) / norms
    out[base[lane] + two_js[lane] - seeds] = (sums[2] + 1j * sums[3]) / norms


def _read_stored(two_js, base, seeds, a, b, out) -> None:
    """The stored-row route: add <e_k|psi> of each block to out[base + k] from its lanes.

    Lane l is the column s = seeds[l] <= j of its block 2j = two_js[l]; the
    stored row s gives it a = (i^r psi)_s and the stored row 2j - s (if
    s != j) b = (i^r psi)_(2j-s).  Column 2j - s is D V[:, s], so
    <e_k|psi> gets V[k, s] (a + (-1)^k b) from the lane: its row k for k
    on its upper rows, and (-1)^s times its row 2j - k below them.  The
    upper rows are kept until the norms are known, consecutive panels of
    the same lanes merged up to _READ_ENTRIES entries, then read one merged
    panel at a time, so the transients stay that size.  The lanes of one
    block are adjacent and run together, so each panel sums them block by
    block and writes every entry of out once.
    """
    order = _by_height(two_js)
    two_js, base, seeds, a, b = two_js[order], base[order], seeds[order], a[order], b[order]
    panels = []

    def keep(first, panel, scale):
        if scale is not None:
            for earlier in panels:
                earlier[:, : panel.shape[1]] /= scale
        last = panels[-1] if panels else panel[:0, :0]
        if last.shape[1] == panel.shape[1] and last.size + panel.size <= _READ_ENTRIES:
            panels[-1] = np.concatenate([last, panel])
        else:
            panels.append(panel)

    norms = _run_columns(two_js, seeds, keep)
    mirror = np.where(seeds % 2, -1.0, 1.0)  # V[2j - r, s] = (-1)^s V[r, s]
    flip = np.where(two_js % 2, -1.0, 1.0)  # (-1)^(2j - r) = (-1)^(2j) (-1)^r
    starts = np.flatnonzero(np.diff(base, prepend=-1))  # first lane of each block
    first = 0
    for panel in panels:
        m = panel.shape[1]
        lead = starts[: np.searchsorted(starts, m)]
        r = np.arange(first, first + panel.shape[0])[:, None]
        first += panel.shape[0]
        values = panel / norms[:m]
        signed = np.where(r % 2, -1.0, 1.0) * b[:m]
        up = np.add.reduceat(values * (a[:m] + signed), lead, axis=1)
        down = np.add.reduceat(mirror[:m] * values * (a[:m] + flip[:m] * signed), lead, axis=1)
        upper = r <= two_js[lead] // 2  # past its last row a block's lanes hold zeros
        lower = r < (two_js[lead] + 1) // 2  # rows mirrored to 2j - r
        out[(base[lead] + r)[upper]] += up[upper]
        out[(base[lead] + two_js[lead] - r)[lower]] += down[lower]


def _edge_column(two_j: int, theta: float) -> np.ndarray:
    """Column 0 of d^j(theta): d[r, 0] = sqrt(C(2j, r)) c^(2j-r) s^r.

    c = cos(theta/2) and s = sin(theta/2).  Consecutive magnitudes differ
    by the factor sqrt((2j-r)/(r+1)) |s/c|, which falls with r, so the
    largest entry sits after the last factor above 1.  The log-magnitudes
    are summed outward from that peak, which keeps the entries near it,
    the ones that carry the norm, accurate to a few ulps at any 2j, and
    lets the far tails flush to 0 instead of overflowing.  The column is
    then scaled to unit norm, which it has exactly because
    (c^2 + s^2)^(2j) = 1, and the signs of c^(2j-r) s^r are applied.
    """
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    r = np.arange(two_j + 1)
    with np.errstate(divide="ignore"):  # s = 0 at theta = 0: only row 0 survives
        steps = 0.5 * np.log((two_j - r[:-1]) / (r[:-1] + 1.0)) + (
            np.log(abs(s)) - np.log(abs(c))
        )
    peak = int(np.count_nonzero(steps > 0.0))
    logs = np.zeros(two_j + 1)
    logs[peak + 1 :] = np.cumsum(steps[peak:])
    logs[:peak] = -np.cumsum(steps[:peak][::-1])[::-1]
    column = np.exp(logs)
    column /= math.sqrt(column @ column)
    flips = (two_j - r) * (c < 0.0) + r * (s < 0.0)
    column[flips % 2 == 1] *= -1.0
    return column


def _rotate(two_j: int, rows: np.ndarray, amplitudes: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i theta J_y) applied to one block, given by its stored rows.

    Returns the dense vector of 2j + 1 amplitudes.  A block stored on no
    rows but 0 and n-1 reads the two edge columns of d, d[:, 0] from
    ``_edge_column`` and its mirror d[r, n-1] = (-1)^(n-1-r) d[n-1-r, 0],
    with no recurrence.  Any other block is projected on its J_y
    eigenvectors, c_k = <e_k|psi>, and mapped back through the same
    projection: e_k[r] = (-i)^r V[r, k] and V is symmetric, so
    psi'_r = (-i)^r sum_k i^k V[k, r] (-i)^k exp(-i theta lam_k) c_k.
    """
    if rows.size <= 2 and all(row in (0, two_j) for row in rows.tolist()):
        column = _edge_column(two_j, theta)
        out = (amplitudes[0] if rows.size and rows[0] == 0 else 0j) * column
        if two_j:
            mirror = np.where(np.arange(two_j, -1, -1) % 2, -1.0, 1.0) * column[::-1]
            out = out + (amplitudes[-1] if rows.size and rows[-1] == two_j else 0j) * mirror
        return out
    n = two_j + 1
    every = np.arange(n)
    back = _I_POWERS[-every % 4]  # (-i)^k
    coeffs = _projections(np.array([two_j]), np.array([rows.size]), rows, amplitudes)
    coeffs *= back * np.exp(-1j * theta * (every - 0.5 * two_j))
    return back * _projections(np.array([two_j]), np.array([n]), every, coeffs)


def _v_rows(two_j: int, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of V for block 2j, read as the projections i^r V[r, k] of one-row blocks."""
    ones = np.ones(rows.size, dtype=np.int64)
    phased = _projections(np.full(rows.size, two_j), ones, rows, ones).reshape(rows.size, -1)
    return (_I_POWERS[-rows % 4][:, None] * phased).real


def _eigen_d_block(two_j: int, theta: float) -> np.ndarray:
    """Full d block via the J_y eigendecomposition; read-only.

    d = Re[i^(col-row) V exp(-i theta L) V^T], split into its cosine and
    sine parts.  The upper rows of V are read, and row n-1-r is row r times
    (-1)^k, the row mirror of each column.  The output is the cosine part,
    overwritten in place on each of the 16 strided sub-blocks (row mod 4,
    col mod 4), where (col - row) mod 4 is one value: cos, sin, -cos or
    -sin.  A block of more than ``_MAX_COLUMN_ROWS`` entries raises
    DomainError before anything is allocated.
    """
    n = two_j + 1
    if n * n > _MAX_COLUMN_ROWS:
        raise DomainError(
            f"d block for 2j = {two_j} holds {n * n} entries, over the budget of {_MAX_COLUMN_ROWS}"
        )
    if theta == 0.0:
        out = np.eye(n)
    else:
        lam = (2.0 * np.arange(n) - two_j) / 2.0
        vec = np.empty((n, n))
        vec[: n - n // 2] = _v_rows(two_j, np.arange(n - n // 2))
        vec[n - n // 2 :] = vec[: n // 2][::-1] * np.where(np.arange(n) % 2, -1.0, 1.0)
        out = (vec * np.cos(theta * lam)) @ vec.T
        sin_part = (vec * np.sin(theta * lam)) @ vec.T
        for row in range(4):
            for col in range(4):
                delta, part = (col - row) % 4, (np.s_[row::4], np.s_[col::4])
                if delta % 2:
                    out[part] = sin_part[part]
                if delta >= 2:
                    np.negative(out[part], out=out[part])
    out.flags.writeable = False
    return out


def _eigen_sum(j, mu_p, mu, theta, order: int) -> float:
    """Re[i^(col-row) sum_k V[row,k] V[col,k] (-i lam_k)^order exp(-i theta lam_k)].

    Entry (row, col) of d (order 0) or of its theta derivative (order 1)
    from the rows of V at row and col in O(n), after validating the labels.
    """
    two_j, row, col = _validated_indices(j, mu_p, mu)
    theta = _finite_angle(theta)
    vec = _v_rows(two_j, np.array([row, col]))
    lam = (2.0 * np.arange(two_j + 1) - two_j) / 2.0
    terms = vec[0] * vec[1] * (-1j * lam) ** order * np.exp(-1j * theta * lam)
    return float((_I_POWERS[(col - row) % 4] * terms.sum()).real)


def d_element(j, mu_p, mu, theta) -> float:
    """Single rotation matrix element d^j_{mu',mu}(theta).

    j, mu_p and mu accept ints, exact half-integer floats or HalfInt;
    theta is any finite real angle in radians.
    """
    return _eigen_sum(j, mu_p, mu, theta, 0)


@dataclass(frozen=True)
class WignerBlock:
    """One rotation block d^j(theta), indexed by descending mu.

    ``elements[r, c]`` is d^j_{mu', mu}(theta) with mu' = j - r and
    mu = j - c.  The array is read-only.
    """

    two_j: int
    theta: float
    elements: np.ndarray

    @property
    def j(self) -> HalfInt:
        return HalfInt(self.two_j)

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def element(self, mu_p, mu) -> float:
        _, row, col = _validated_indices(HalfInt(self.two_j), mu_p, mu)
        return float(self.elements[row, col])


def d_block(j, theta) -> WignerBlock:
    """Full (2j+1) x (2j+1) rotation block for one j."""
    two_j = HalfInt.coerce(j).twice
    if two_j < 0:
        raise DomainError(f"j must be non-negative, got {two_j}/2")
    theta = _finite_angle(theta)
    return WignerBlock(two_j, theta, _eigen_d_block(two_j, theta))


def d_derivative(j, mu_p, mu, theta) -> float:
    """Derivative of d^j_{mu',mu} with respect to theta, to about 1e-12 absolute.

    d/dtheta exp(-i theta J_y) = -i J_y exp(-i theta J_y): the ``d_element``
    eigensystem sum with each term multiplied by -i lambda_k.
    """
    return _eigen_sum(j, mu_p, mu, theta, 1)
