"""Wigner small-d rotation kernel for SU(2).

``d^j_{mu',mu}(theta)`` is the matrix element ``<j,mu'| exp(-i theta J_y)
|j,mu>`` in the J_z eigenbasis.  It is real for real theta.  Rows and
columns are ordered by descending magnetic number mu = j, j-1, ..., -j
throughout the package.

Every d number comes from one cached object per block, the J_y
eigensystem.  The phase rotation diag((-i)^k) turns J_y into a real
symmetric tridiagonal matrix whose spectrum is exactly mu = -j ... j, so
only real eigenvectors V are stored and the i^k phases are applied on the
fly.  Because every eigenvalue is known, V follows in O(n^2) from the
matrix's three-term recurrence, run over the upper half of the rows in
its stable, dominant direction (Gautschi, SIAM Rev. 9, 24 (1967)) and
completed by exact mirrors; this is the J_y-diagonalization route to
Wigner d (Feng, Wang, Yang, Jin, PRE 92, 043307 (2015)).  The
eigenvectors come in exact parity mirror pairs: D V = V[:, ::-1] with
D = diag((-1)^r), which the detection layer uses to project each block
once.

``_project`` reads a block's components on the J_y eigenvectors from its
stored rows; ``_rotate`` applies exp(-i theta J_y) to a block in two
products; ``d_block`` synthesizes d = Re[i^(col-row) V exp(-i theta L)
V^T] on demand; ``d_element`` and ``d_derivative`` read one entry of it,
or of its theta derivative, in O(n).

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

The eigensystem cache is bounded by bytes (``_EIGEN_CACHE_BYTES``) and
evicts least-recently-used blocks; a block whose eigensystem alone
would exceed the budget raises DomainError before anything is
allocated.  No per-angle result is cached.
"""

from __future__ import annotations

import math
from collections import OrderedDict
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

# Upper bound on the bytes of cached J_y eigensystems, and on the size of
# any one of them: 2j >= 4095 raises DomainError instead of allocating.
# One block at 2j = 1000 takes 8 MB, so the budget holds every block up to
# 2j ~ 360, or about 16 blocks at 2j = 1000, while large-N work stays far
# from the GB range.  Only fixed-phi points of blocks with rows other
# than 0 and n-1, apply_mzi on such blocks and the d_* kernels build one:
# every phi -> 0 limit comes from generator moments, edge-row blocks
# rotate in closed form, and a row-0 block is read as cos(phi)^(2j).
_EIGEN_CACHE_BYTES = 128 * 2**20

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


class _EigenCache(OrderedDict):
    """LRU map 2j -> (lam, vec) with a running byte total of its arrays."""

    nbytes = 0


_eigen_cache = _EigenCache()


def _jy_eigensystem(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and real eigenvectors of J_y for one block, cached.

    J_y conjugated by diag((-i)^index) is the real symmetric tridiagonal
    matrix T with zero diagonal and off-diagonal T[r, r+1] = -A(mu_r)/2,
    A(m) = sqrt(j(j+1) - m(m-1)).  Its spectrum is exactly
    lam = -j ... j, stored in ascending order, so each eigenvector follows
    from the three-term recurrence
    v[r+1] = (lam v[r] - T[r,r-1] v[r-1]) / T[r,r+1] started at v[0] = 1.
    The columns with lam <= 0 advance together, one row operation per
    step, over the upper rows 0 .. ceil(n/2)-1 only: there each column
    grows out of its classically forbidden edge or oscillates, so the
    recurrence runs in its stable, dominant direction (Gautschi, SIAM Rev.
    9, 24 (1967)).  A column that grows past 1e150 is scaled back (checked
    every 32 rows), so blocks whose exact row 0, sqrt(C(2j,k))/2^j, would
    underflow (2j > ~2100) stay finite.

    T is persymmetric, so the lower rows are the exact row mirror
    V[n-1-r, k] = (-1)^k V[r, k] (for odd n the middle row of each odd-k
    column is 0).  The columns are then normalized, and the lam > 0 half
    is D V[:, :half] reversed, D = diag((-1)^r), which makes the parity
    mirror D V = V[:, ::-1] exact because S J_y S = -J_y.  The
    eigenvectors of J_y itself are e_k[r] = (-i)^r vec[r, k]; callers
    apply those phases on the fly.  This is the J_y-diagonalization route
    to Wigner d (Feng, Wang, Yang, Jin, PRE 92, 043307 (2015)) in O(n^2).
    A residual check on T V - V lam, applied through the tridiagonal,
    raises ConsistencyError if the construction ever fails.

    Entries are evicted least recently used first so the cached arrays
    never exceed ``_EIGEN_CACHE_BYTES``; a block whose lam and vec alone
    would exceed it (2j >= 4095) raises DomainError before allocating.
    """
    if two_j in _eigen_cache:
        _eigen_cache.move_to_end(two_j)
        return _eigen_cache[two_j]
    n = two_j + 1
    size = 8 * n * (n + 1)  # float64 lam and vec
    if size > _EIGEN_CACHE_BYTES:
        raise DomainError(
            f"J_y eigensystem for 2j = {two_j} needs {size} bytes, "
            f"over the budget of {_EIGEN_CACHE_BYTES}"
        )
    half = n // 2  # eigenvalue pairs +-lam
    rows = n - half  # upper rows, and the columns with lam <= 0
    lam = (2.0 * np.arange(n) - two_j) / 2.0
    # T[r, r+1] = -A(mu_r)/2 with mu_r = j - r = -lam_r
    off = -0.5 * np.sqrt(0.5 * two_j * (0.5 * two_j + 1.0) - lam[:-1] * (lam[:-1] + 1.0))
    vec = np.empty((n, n))
    upper, low = vec[:rows, :rows], lam[:rows]
    upper[0] = 1.0
    for r in range(rows - 1):  # row r of T v = lam v, solved for v[r + 1]
        upper[r + 1] = (low * upper[r] - (off[r - 1] * upper[r - 1] if r else 0.0)) / off[r]
        if r % 32 == 0 or r == rows - 2:  # scale back columns grown past 1e150
            peak = np.maximum(np.abs(upper[r]), np.abs(upper[r + 1]))
            upper[: r + 2, peak > 1e150] /= peak[peak > 1e150]
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    upper[half:, 1::2] = 0.0  # the middle row (odd n only), odd under the row mirror
    upper /= np.sqrt(np.where(np.arange(rows) < half, 2.0, 1.0) @ upper**2)  # mirrored rows twice
    np.multiply(upper[:half][::-1], signs[:rows], out=vec[rows:, :rows])
    np.multiply(signs[:, None], vec[:, :half][:, ::-1], out=vec[:, rows:])
    # T V - V lam on the computed quarter (its last row meets the mirror)
    resid = low * upper
    resid[1:] -= off[: rows - 1, None] * upper[:-1]
    resid[: n - 1] -= off[:rows, None] * vec[1 : rows + 1, :rows]
    if not np.abs(resid, out=resid).max() <= 1e-10 * (0.5 * two_j + 1.0):
        raise ConsistencyError(f"J_y eigenvectors for 2j = {two_j} fail T v = lam v")
    vec.flags.writeable = False
    lam.flags.writeable = False
    while _eigen_cache and _eigen_cache.nbytes + size > _EIGEN_CACHE_BYTES:
        _eigen_cache.nbytes -= sum(a.nbytes for a in _eigen_cache.popitem(last=False)[1])
    _eigen_cache[two_j] = (lam, vec)
    _eigen_cache.nbytes += size
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

    psi is given by its stored rows and their amplitudes, so a block with
    a few occupied rows costs a few rows of V, not all of it.
    """
    _, basis = _jy_eigensystem(two_j)
    if rows.size < basis.shape[0]:  # a dense block reads V in place, not a copy
        basis = basis[rows]
    return _times_real(_I_POWERS[rows % 4] * amplitudes, basis)


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
    with no eigensystem.  Any other block takes two products against the
    cached eigensystem: project onto the J_y eigenbasis, advance each
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
    coeffs = _project(two_j, rows, amplitudes) * np.exp(-1j * theta * lam)
    return np.conj(_I_POWERS[np.arange(two_j + 1) % 4]) * _times_real(basis, coeffs)


def _eigen_d_block(two_j: int, theta: float) -> np.ndarray:
    """Full d block via the J_y eigendecomposition; read-only, not cached.

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
    from the cached eigensystem in O(n), after validating the labels.
    """
    two_j, row, col = _validated_indices(j, mu_p, mu)
    theta = _finite_angle(theta)
    lam, vec = _jy_eigensystem(two_j)
    terms = vec[row] * vec[col] * (-1j * lam) ** order * np.exp(-1j * theta * lam)
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
