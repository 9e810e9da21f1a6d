"""Wigner small-d rotation kernel for SU(2).

``d^j_{mu',mu}(theta)`` is the matrix element ``<j,mu'| exp(-i theta J_y)
|j,mu>`` in the J_z eigenbasis.  It is real for real theta.  Rows and
columns are ordered by descending magnetic number mu = j, j-1, ..., -j
throughout the package.

Every d number comes from the J_y eigensystem of its block, built for
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
once.  V is symmetric, so a caller that reads k rows of V builds only
the k columns at those rows.

``_project`` reads a block's components on the J_y eigenvectors from the
eigenvectors at its stored rows; ``_rotate`` applies exp(-i theta J_y) to
a block in two products; ``d_block`` synthesizes
d = Re[i^(col-row) V exp(-i theta L) V^T] on demand; ``d_element`` and
``d_derivative`` read one entry of it, or of its theta derivative, from
two eigenvectors in O(n).

One case needs no eigensystem: a block stored on no rows but 0 and n-1
(mu = +-j, as in the internal NOON state) only reads the two edge
columns of d, which are closed-form binomials,
d[r, 0] = sqrt(C(2j, r)) c^(2j-r) s^r with c, s = cos, sin(theta/2), and
their mirror.  ``_rotate`` builds them in O(n) (``_edge_column``), so
``noon_input`` and the beam splitter on such blocks never diagonalize.
Detection rotates no block at all for its row-0 blocks (coherent and
single-Fock): it reads them as d[0, 0](2 phi) = cos(phi)^(2j).

Accuracy is absolute through 2j = 1000: about 1e-14 per element and
1e-12 per derivative, so elements below that (far corners of large
blocks at small angles) come back as roundoff, not relatively accurate.
The eigenvectors stay orthonormal within 2e-14 through 2j = 3000, and
the edge columns agree with a 40-digit reference within 1e-15.

Nothing is cached.  One build is bounded by bytes (``_EIGEN_BYTES``):
a build whose columns would exceed it (every column at 2j >= 4095)
raises DomainError before anything is allocated, while a block read on
a few stored rows builds at any 2j.
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

# Upper bound on the bytes of one J_y eigensystem build, lam and the
# requested columns, checked before anything is allocated.  All columns at
# 2j = 1000 take 8 MB, and 2j >= 4095 needs more than the budget; one
# column takes 8 (2j + 1) bytes, so a block read on a few stored rows
# builds at any 2j.  Only fixed-phi points of blocks with rows other than
# 0 and n-1, apply_mzi on such blocks and the d_* kernels build one:
# every phi -> 0 limit comes from generator moments, edge-row blocks
# rotate in closed form, and a row-0 block is read as cos(phi)^(2j).
_EIGEN_BYTES = 128 * 2**20

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


def _jy_eigensystem(two_j: int, cols=None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and the real eigenvectors ``cols`` (all if None) of J_y for one block.

    J_y conjugated by diag((-i)^index) is the real symmetric tridiagonal
    matrix T with zero diagonal and off-diagonal T[r, r+1] = -A(mu_r)/2,
    A(m) = sqrt(j(j+1) - m(m-1)).  Its spectrum is exactly
    lam = -j ... j, stored in ascending order, so each eigenvector follows
    from the three-term recurrence
    v[r+1] = (lam v[r] - T[r,r-1] v[r-1]) / T[r,r+1] started at v[0] = 1.
    It runs over the upper rows 0 .. ceil(n/2)-1 only, for the columns
    with lam <= 0: there each column grows out of its classically
    forbidden edge or oscillates, so the recurrence runs in its stable,
    dominant direction (Gautschi, SIAM Rev. 9, 24 (1967)).  A column that
    grows past 1e150 is scaled back (checked every 32 rows), so blocks
    whose exact row 0, sqrt(C(2j,k))/2^j, would underflow (2j > ~2100)
    stay finite.  The columns advance together, one row operation per
    step, or as Python floats when only one is needed.

    T is persymmetric, so the lower rows are the exact row mirror
    V[n-1-r, k] = (-1)^k V[r, k] (for odd n the middle row of each odd-k
    column is 0).  The columns are then normalized, and a column with
    lam > 0 is D V[:, n-1-k], D = diag((-1)^r), which makes the parity
    mirror D V = V[:, ::-1] exact because S J_y S = -J_y.  Every step acts
    on each column alone, so a column comes out bitwise the same whatever
    else is built with it.  V is also symmetric, to roundoff, so the
    columns at a block's stored rows are the rows of V that project it.
    The eigenvectors of J_y itself are e_k[r] = (-i)^r vec[r, k]; callers
    apply those phases on the fly.  This is the J_y-diagonalization route
    to Wigner d (Feng, Wang, Yang, Jin, PRE 92, 043307 (2015)), in O(n)
    per column.  A residual check on T V - V lam, applied through the
    tridiagonal, raises ConsistencyError if the construction ever fails.

    Nothing is kept between calls.  A build whose lam and columns would
    exceed ``_EIGEN_BYTES`` (all columns at 2j >= 4095) raises DomainError
    before allocating.
    """
    n = two_j + 1
    cols = np.arange(n) if cols is None else np.asarray(cols)
    size = 8 * n * (cols.size + 1)  # float64 lam and vec
    if size > _EIGEN_BYTES:
        raise DomainError(
            f"J_y eigensystem for 2j = {two_j} needs {size} bytes, "
            f"over the budget of {_EIGEN_BYTES}"
        )
    half = n // 2  # eigenvalue pairs +-lam
    rows = n - half  # upper rows, and the columns with lam <= 0
    lam = (2.0 * np.arange(n) - two_j) / 2.0
    # T[r, r+1] = -A(mu_r)/2 with mu_r = j - r = -lam_r; off[n-1] = 0 couples to no row
    off = -0.5 * np.sqrt(0.5 * two_j * (0.5 * two_j + 1.0) - lam * (lam + 1.0))
    mirrored = np.minimum(cols, two_j - cols)  # the lam <= 0 column each one mirrors
    seeds = np.flatnonzero(np.bincount(mirrored))  # each of those once, ascending
    low = lam[seeds] if seeds.size > 1 else float(lam[seeds[0]])  # one column: Python floats
    upper, steps, prev, row = [low**0], off.tolist(), 0.0, low**0  # v[0] = 1
    for r in range(rows - 1):  # row r of T v = lam v, solved for v[r + 1]
        prev, row = row, (low * row - (steps[r - 1] * prev if r else 0.0)) / steps[r]
        upper.append(row)
        if r % 32 == 0 or r == rows - 2:  # scale back columns grown past 1e150
            peak = np.maximum(np.abs(prev), np.abs(row))
            if np.any(peak > 1e150):
                scale = np.where(peak > 1e150, peak, 1.0)
                upper = [v / scale for v in upper]
                prev, row = upper[-2:]
    upper = np.array(upper).reshape(rows, -1)
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    upper[half:, seeds % 2 == 1] = 0.0  # the middle row (odd n only), odd under the row mirror
    norms = upper * upper
    norms[:half] *= 2.0  # mirrored rows twice
    # a running sum adds each column's rows in order, however many columns there are
    upper /= np.sqrt(np.cumsum(norms, axis=0, out=norms)[-1])
    # T V - V lam on the built upper rows (the last of them meets the mirror row)
    resid = low * upper
    resid[1:] -= off[: rows - 1, None] * upper[:-1]
    resid[:-1] -= off[: rows - 1, None] * upper[1:]
    resid[-1] -= off[rows - 1] * (upper[half - 1] * signs[seeds])
    if not np.abs(resid, out=resid).max() <= 1e-10 * (0.5 * two_j + 1.0):
        raise ConsistencyError(f"J_y eigenvectors for 2j = {two_j} fail T v = lam v")
    vec = np.empty((n, cols.size))
    # each requested column from the built one it mirrors ("clip" takes unbuffered)
    np.take(upper, np.searchsorted(seeds, mirrored), axis=1, out=vec[:rows], mode="clip")
    np.multiply(vec[:rows], signs[:rows, None], out=vec[:rows], where=cols > mirrored)
    np.multiply(vec[:half][::-1], signs[cols], out=vec[rows:])  # (-1)^k for every column k
    return lam, vec


def _times_real(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right for one complex and one real operand.

    Multiplying the real and imaginary parts separately avoids copying the
    real matrix to complex, which costs more than the product itself.
    """
    if np.iscomplexobj(left):
        return left.real @ right + 1j * (left.imag @ right)
    return left @ right.real + 1j * (left @ right.imag)


def _project(two_j: int, rows: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """<e_k|psi> = sum_r i^r V[r, k] psi_r over the J_y eigenvectors e_k.

    psi is given by its stored rows and their amplitudes.  V is symmetric,
    so a block with k < n stored rows reads rows of V as the k eigenvectors
    at those rows, built in O(kn).  A dense block builds all of V and reads
    the eigenvectors' own entries: the symmetric stand-in would move <P>
    by up to about 1e-15, which near <P> = +-1 is 2e-10 of delta_phi
    (NOON at N = 58, phi = 1.3).
    """
    phased = _I_POWERS[rows % 4] * amplitudes
    if rows.size <= two_j:
        return _times_real(_jy_eigensystem(two_j, rows)[1], phased)
    return _times_real(phased, _jy_eigensystem(two_j)[1])


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
    with no eigensystem.  Any other block takes two products against its
    full eigensystem: project onto the J_y eigenbasis, advance each
    component by exp(-i theta lambda_k), and map back.
    """
    if rows.size <= 2 and all(row in (0, two_j) for row in rows.tolist()):
        column = _edge_column(two_j, theta)
        out = (amplitudes[0] if rows.size and rows[0] == 0 else 0j) * column
        if two_j:
            mirror = np.where(np.arange(two_j, -1, -1) % 2, -1.0, 1.0) * column[::-1]
            out = out + (amplitudes[-1] if rows.size and rows[-1] == two_j else 0j) * mirror
        return out
    lam, basis = _jy_eigensystem(two_j)
    coeffs = _times_real(_I_POWERS[rows % 4] * amplitudes, basis[rows]) * np.exp(-1j * theta * lam)
    return np.conj(_I_POWERS[np.arange(two_j + 1) % 4]) * _times_real(basis, coeffs)


def _eigen_d_block(two_j: int, theta: float) -> np.ndarray:
    """Full d block via the J_y eigendecomposition; read-only.

    d = Re[i^(col-row) V exp(-i theta L) V^T], split into its cosine and
    sine parts.
    """
    n = two_j + 1
    if theta == 0.0:
        out = np.eye(n)
    else:
        lam, vec = _jy_eigensystem(two_j)
        cos_part = (vec * np.cos(theta * lam)) @ vec.T
        sin_part = (vec * np.sin(theta * lam)) @ vec.T
        idx = np.arange(n)
        delta = (idx[None, :] - idx[:, None]) % 4
        out = np.choose(delta, (cos_part, sin_part, -cos_part, -sin_part))
    out.flags.writeable = False
    return out


def _eigen_sum(j, mu_p, mu, theta, order: int) -> float:
    """Re[i^(col-row) sum_k V[row,k] V[col,k] (-i lam_k)^order exp(-i theta lam_k)].

    Entry (row, col) of d (order 0) or of its theta derivative (order 1)
    from the two eigenvectors at row and col (V is symmetric) in O(n),
    after validating the labels.
    """
    two_j, row, col = _validated_indices(j, mu_p, mu)
    theta = _finite_angle(theta)
    lam, vec = _jy_eigensystem(two_j, [row, col])
    terms = vec[:, 0] * vec[:, 1] * (-1j * lam) ** order * np.exp(-1j * theta * lam)
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
