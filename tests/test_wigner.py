"""Rotation-kernel checks against an arbitrary-precision reference.

The reference evaluates the factorial sum for d^j_{mu',mu}(theta) with
mpmath, at 60 digits or, for large blocks, at 60 + 0.31 * 2j digits to
cover the alternating sum's ~2^(2j) cancellation, so the reference is
exact where the double-precision kernel carries roundoff.  Kernel-level invariants (orthogonality,
composition, symmetry) close the loop for block sizes where summing the
series term by term would be hopeless.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzparity import (
    ConsistencyError,
    DomainError,
    HalfInt,
    WignerBlock,
    d_block,
    d_derivative,
    d_element,
)
from mzparity import wigner
from mzparity.wigner import _eigen_d_block


def _series(two_j: int, two_mp: int, two_m: int, theta: float):
    """Factorial series for d^j_{mu',mu}(theta) at the working mpmath precision."""
    th = mp.mpf(theta)
    c = mp.cos(th / 2)
    s = -mp.sin(th / 2)
    jpm = (two_j + two_m) // 2
    jmm = (two_j - two_m) // 2
    jpp = (two_j + two_mp) // 2
    jmp = (two_j - two_mp) // 2
    prefactor = mp.sqrt(
        mp.factorial(jpm) * mp.factorial(jmm) * mp.factorial(jpp) * mp.factorial(jmp)
    )
    dm = (two_mp - two_m) // 2
    total = mp.mpf(0)
    for k in range(max(0, -dm), min(jpm, jmp) + 1):
        den = (
            mp.factorial(jpm - k)
            * mp.factorial(k)
            * mp.factorial(jmp - k)
            * mp.factorial(dm + k)
        )
        total += (-1) ** k * prefactor / den * c ** (jpm + jmp - 2 * k) * s ** (dm + 2 * k)
    return total


def reference_d(two_j: int, two_mp: int, two_m: int, theta: float, digits: int = 60) -> float:
    """Factorial-series d-element summed in arbitrary precision (60 digits by default)."""
    with mp.workdps(digits):
        return float(_series(two_j, two_mp, two_m, theta))


def reference_d_derivative(two_j: int, two_mp: int, two_m: int, theta: float, digits: int) -> float:
    """d/dtheta d^j_{mu',mu} by the ladder identity on the series.

    -i J_y = (J_- - J_+)/2 gives d' = (A_{mu'+1} d_{mu'+1,mu} - A_{mu'} d_{mu'-1,mu}) / 2
    with A_{m+1} = sqrt(j(j+1) - m(m+1)), an identity the kernel no longer uses.
    """
    with mp.workdps(digits):
        jj = mp.mpf(two_j) * (two_j + 2) / 4
        total = mp.mpf(0)
        if two_mp + 2 <= two_j:
            up = mp.sqrt(jj - mp.mpf(two_mp) * (two_mp + 2) / 4)
            total += up * _series(two_j, two_mp + 2, two_m, theta)
        if two_mp - 2 >= -two_j:
            down = mp.sqrt(jj - mp.mpf(two_mp) * (two_mp - 2) / 4)
            total -= down * _series(two_j, two_mp - 2, two_m, theta)
        return float(total / 2)


# values frozen from reference_d so a regression cannot hide behind the helper
FROZEN_REFERENCE = [
    (3, 1, -1, 0.7, -0.56484296733164981384),
    (10, 4, -6, 1.234, -0.42773722071083653983),
    (40, 0, 0, 2.0, -0.15002370399407623093),
    (33, 1, 5, 0.3, 0.019924129295403256115),
    (200, 0, 2, 1.1, 0.015859883514839174762),
    (121, 11, -3, 2.6, 0.075614085586291685231),
]


@pytest.mark.parametrize("two_j,two_mp,two_m,theta,expected", FROZEN_REFERENCE)
def test_frozen_reference_values(two_j, two_mp, two_m, theta, expected):
    assert reference_d(two_j, two_mp, two_m, theta) == pytest.approx(expected, rel=1e-15)
    got = d_element(HalfInt(two_j), HalfInt(two_mp), HalfInt(two_m), theta)
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("theta", [0.2, 0.7, 1.6, 2.6, -0.9])
def test_full_blocks_match_reference(two_j, theta):
    block = d_block(HalfInt(two_j), theta)
    for row in range(two_j + 1):
        for col in range(two_j + 1):
            want = reference_d(two_j, two_j - 2 * row, two_j - 2 * col, theta)
            assert block.elements[row, col] == pytest.approx(want, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("two_j", [12, 17, 26, 33, 40])
@pytest.mark.parametrize("theta", [0.2, 0.7, 1.6, 2.6])
def test_sampled_elements_match_reference(two_j, theta):
    rng = np.random.default_rng(two_j * 1000 + int(10 * theta))
    block = d_block(HalfInt(two_j), theta)
    for _ in range(25):
        row, col = rng.integers(0, two_j + 1, size=2)
        want = reference_d(two_j, two_j - 2 * int(row), two_j - 2 * int(col), theta)
        assert block.elements[row, col] == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_half_spin_block():
    theta = 0.7
    block = d_block(HalfInt(1), theta).elements
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert np.allclose(block, [[c, -s], [s, c]], atol=1e-15)


def test_spin_one_center_is_cosine():
    for theta in (0.0, 0.4, 1.9, -2.5):
        assert d_element(1, 0, 0, theta) == pytest.approx(math.cos(theta), abs=1e-14)


def test_corner_elements_closed_form():
    # d_{mu,j} = sqrt(C(2j, j-mu)) cos^{j+mu}(t/2) sin^{j-mu}(t/2)
    theta = 1.1
    for two_j in (2, 5, 9):
        j = two_j / 2
        for two_mu in range(-two_j, two_j + 1, 2):
            mu = two_mu / 2
            want = (
                math.sqrt(math.comb(two_j, (two_j - two_mu) // 2))
                * math.cos(theta / 2) ** (j + mu)
                * math.sin(theta / 2) ** (j - mu)
            )
            got = d_element(HalfInt(two_j), HalfInt(two_mu), HalfInt(two_j), theta)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("two_j", [1, 2, 3, 7, 12, 41, 100, 200])
@pytest.mark.parametrize("theta", [0.3, 1.1, 2.7])
def test_block_orthogonality(two_j, theta):
    mat = _eigen_d_block(two_j, theta)
    assert np.abs(mat @ mat.T - np.eye(two_j + 1)).max() < 1e-10


@pytest.mark.parametrize("two_j", [1, 2, 5, 16, 60])
def test_block_composition(two_j):
    a, b = 0.37, 1.21
    da = _eigen_d_block(two_j, a)
    db = _eigen_d_block(two_j, b)
    dab = _eigen_d_block(two_j, a + b)
    assert np.abs(da @ db - dab).max() < 1e-10


@pytest.mark.parametrize("two_j", [1, 2, 3, 8, 25, 60])
def test_block_symmetries(two_j):
    theta = 0.83
    mat = d_block(HalfInt(two_j), theta).elements
    dim = two_j + 1
    for row in range(dim):
        for col in range(dim):
            # transpose picks up (-1)^(mu'-mu); index difference has the same parity
            sign = -1.0 if (row - col) % 2 else 1.0
            assert mat[row, col] == pytest.approx(sign * mat[col, row], abs=1e-12)
            # negating both labels reverses both indices
            assert mat[row, col] == pytest.approx(
                mat[dim - 1 - col, dim - 1 - row], abs=1e-12
            )


def test_theta_zero_is_identity():
    for two_j in (1, 4, 9, 40):
        assert np.array_equal(
            d_block(HalfInt(two_j), 0.0).elements, np.eye(two_j + 1)
        )


@pytest.mark.parametrize("two_j", list(range(1, 21)))
def test_half_turn_patterns(two_j):
    """d(+-pi) is anti-diagonal with alternating signs.

    d^j_{nu,mu}(pi) = (-1)^(j-mu) delta_{nu,-mu} and
    d^j_{nu,mu}(-pi) = (-1)^(j-nu) delta_{nu,-mu}; both follow from the
    series, where exactly one term survives.
    """
    for sign_theta in (1.0, -1.0):
        mat = d_block(HalfInt(two_j), sign_theta * math.pi).elements
        for row in range(two_j + 1):
            for col in range(two_j + 1):
                if row + col != two_j:
                    expected = 0.0
                elif sign_theta > 0:
                    expected = (-1.0) ** ((two_j - (two_j - 2 * col)) // 2)
                else:
                    expected = (-1.0) ** ((two_j - (two_j - 2 * row)) // 2)
                assert mat[row, col] == pytest.approx(expected, abs=1e-13)


@pytest.mark.xfail(
    strict=True,
    reason="the often-quoted sign exponent 2*nu for the -pi anti-diagonal is "
    "wrong at integer j with nu = 0, where the true sign is (-1)^j",
)
def test_quoted_half_turn_sign_exponent():
    # nu = mu = 0, j = 1: quoted form predicts +1, true value is -1
    assert d_element(1, 0, 0, -math.pi) == pytest.approx(1.0, abs=1e-12)


def test_half_turn_example_matches_quoted_form_where_valid():
    # j = 1, mu' = 1, mu = -1: quoted and true signs coincide
    assert d_element(1, 1, -1, -math.pi) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("two_j", [1, 2, 5, 12, 40])
@pytest.mark.parametrize("theta", [0.4, 1.2, 2.9])
def test_derivative_matches_finite_differences(two_j, theta):
    # step balances h^2 truncation against element roundoff amplified by 1/h
    step = 3e-5
    rng = np.random.default_rng(two_j)
    pairs = {(int(r), int(c)) for r, c in rng.integers(0, two_j + 1, size=(12, 2))}
    for row, col in pairs:
        mu_p, mu = HalfInt(two_j - 2 * row), HalfInt(two_j - 2 * col)
        j = HalfInt(two_j)
        fd = (d_element(j, mu_p, mu, theta + step) - d_element(j, mu_p, mu, theta - step)) / (
            2 * step
        )
        an = d_derivative(j, mu_p, mu, theta)
        assert abs(an - fd) <= 1e-6 * max(1.0, abs(an))


def test_derivative_at_zero_is_ladder_bidiagonal():
    for two_j in (1, 2, 7):
        dim = two_j + 1
        for row in range(dim):
            for col in range(dim):
                got = d_derivative(
                    HalfInt(two_j), HalfInt(two_j - 2 * row), HalfInt(two_j - 2 * col), 0.0
                )
                mu = (two_j - 2 * col) / 2.0
                jj = (two_j / 2.0) * (two_j / 2.0 + 1.0)
                if row == col - 1:  # raising: mu -> mu + 1
                    want = -0.5 * math.sqrt(jj - mu * (mu + 1.0))
                elif row == col + 1:  # lowering: mu -> mu - 1
                    want = 0.5 * math.sqrt(jj - mu * (mu - 1.0))
                else:
                    want = 0.0
                assert got == pytest.approx(want, abs=1e-13)


def test_block_derivative_matches_elementwise():
    """d_derivative equals the tridiagonal -i J_y mix of whole d-block rows."""
    two_j, theta = 9, 0.77
    mat = _eigen_d_block(two_j, theta)
    jj = (two_j / 2.0) * (two_j / 2.0 + 1.0)
    for row in range(two_j + 1):
        mu_p = (two_j - 2 * row) / 2.0
        mixed = np.zeros(two_j + 1)
        if row > 0:
            mixed += math.sqrt(jj - mu_p * (mu_p + 1.0)) * mat[row - 1]
        if row < two_j:
            mixed -= math.sqrt(jj - mu_p * (mu_p - 1.0)) * mat[row + 1]
        for col in range(two_j + 1):
            got = d_derivative(
                HalfInt(two_j), HalfInt(two_j - 2 * row), HalfInt(two_j - 2 * col), theta
            )
            assert got == pytest.approx(0.5 * mixed[col], abs=1e-12)


def test_wigner_block_accessor():
    block = d_block(HalfInt(4), 0.9)
    assert isinstance(block, WignerBlock)
    assert block.dim == 5
    assert block.two_j == 4
    assert float(block.j) == 2.0
    assert block.element(HalfInt(2), HalfInt(-2)) == pytest.approx(
        d_element(HalfInt(4), HalfInt(2), HalfInt(-2), 0.9), abs=1e-13
    )
    with pytest.raises(DomainError):
        block.element(HalfInt(3), HalfInt(0))  # parity mismatch with 2j = 4


def test_domain_validation():
    with pytest.raises(DomainError):
        d_element(1, 2, 0, 0.5)  # mu' beyond j
    with pytest.raises(DomainError):
        d_element(1.5, 1, 0, 0.5)  # parity mismatch: integer mu with half-integer j
    with pytest.raises(DomainError):
        d_element(-1, 0, 0, 0.5)
    with pytest.raises(DomainError):
        d_element(0.3, 0.3, 0.3, 0.5)  # not half-integers


@given(
    two_j=st.integers(min_value=1, max_value=16),
    row=st.integers(min_value=0, max_value=16),
    col=st.integers(min_value=0, max_value=16),
    theta=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
)
def test_element_property_against_reference(two_j, row, col, theta):
    row %= two_j + 1
    col %= two_j + 1
    mu_p, mu = HalfInt(two_j - 2 * row), HalfInt(two_j - 2 * col)
    got = d_element(HalfInt(two_j), mu_p, mu, theta)
    assert abs(got) <= 1.0 + 1e-12
    assert got == pytest.approx(
        reference_d(two_j, two_j - 2 * row, two_j - 2 * col, theta), rel=1e-10, abs=1e-12
    )


@given(
    two_j=st.integers(min_value=1, max_value=40),
    theta=st.floats(min_value=-3.2, max_value=3.2, allow_nan=False),
)
def test_block_row_normalization_property(two_j, theta):
    mat = _eigen_d_block(two_j, theta)
    norms = np.sum(mat * mat, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-11


def test_projection_over_the_work_bound_is_refused(monkeypatch):
    # a dense block folds (2j // 2 + 1)^2 column-rows and d_block holds
    # (2j + 1)^2 entries: with a bound of 2^20 (8 MB as float64) both are
    # refused, before anything of that size is allocated, one size above
    # where they still run
    monkeypatch.setattr(wigner, "_MAX_COLUMN_ROWS", 2**20)
    vecs = {two_j: np.ones(two_j + 1, dtype=complex) for two_j in (2046, 2048)}
    for refuse, run in (
        (lambda: wigner._rotate(2048, np.arange(2049), vecs[2048], 0.4),
         lambda: wigner._rotate(2046, np.arange(2047), vecs[2046], 0.4)),
        (lambda: d_block(HalfInt(1024), 0.4), lambda: d_block(HalfInt(1023), 0.4)),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="budget"):
                refuse()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**19
        run()
    # the rows of d_element's labels visit 2 (2j + 1) column-rows
    d_element(HalfInt(20000), HalfInt(0), HalfInt(2), 1.3)


def test_d_block_over_the_work_bound_is_refused():
    # (2j + 1)^2 > 2^24 from 2j = 4096, at any angle
    for theta in (0.0, 0.3):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="budget"):
                d_block(HalfInt(4096), theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20_000


def test_d_block_peak_memory_per_entry():
    # V, the cosine part (which becomes the output), the scaled copy of V
    # in the product and the sine part: about 32 bytes per entry; a
    # selection over (cos, sin, -cos, -sin) by an int64 index took 56
    two_j = 1000
    tracemalloc.start()
    try:
        block = d_block(HalfInt(two_j), 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * (two_j + 1) ** 2
    assert block.element(HalfInt(two_j), HalfInt(two_j - 2)) == pytest.approx(
        d_element(HalfInt(two_j), HalfInt(two_j), HalfInt(two_j - 2), 0.7), abs=1e-14
    )


def test_dense_rotation_holds_no_eigenvector_matrix():
    # both projections fold their columns as the rows arrive: the peak is
    # a few dozen vectors of 2j + 1, where all of V would take 72 MB
    two_j = 3000
    vec = np.random.default_rng(8).standard_normal(two_j + 1) + 0j
    tracemalloc.start()
    try:
        wigner._rotate(two_j, np.arange(two_j + 1), vec, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 16 * (two_j + 1)


def test_recurrence_off_an_eigenvalue_fails_its_residual_check():
    # lam = 10.3 - 20 is no eigenvalue of the 2j = 40 block: the column the
    # recurrence builds does not meet its row mirror
    with pytest.raises(ConsistencyError, match="2j = 40"):
        wigner._run_columns(np.array([40]), np.array([10.3]), lambda *panel: None)
    norms = wigner._run_columns(np.array([40, 40]), np.array([10, 3]), lambda *panel: None)
    assert np.all(np.isfinite(norms))


def test_rotations_at_new_angles_grow_no_cache():
    cached = [name for name, obj in vars(wigner).items() if hasattr(obj, "cache_info")]
    assert cached == []
    # no module-level container that a call could fill
    mutable = [
        name
        for name, obj in vars(wigner).items()
        if not name.startswith("__") and isinstance(obj, (dict, list, set))
    ]
    assert mutable == []


def _large_block_samples(two_j):
    """(row, col, theta) spread over the block: centre, off-diagonal, near corners."""
    half, quarter = two_j // 2, two_j // 4
    return [
        (half, half, 1.3),
        (quarter, 3 * quarter, 2.9),
        (two_j // 3, half + 1, -0.4),
        (0, 1, 0.7),
        (two_j, 1, 0.05),
    ]


@pytest.mark.parametrize("two_j", [200, 1000])
def test_large_blocks_match_high_precision_reference(two_j):
    # absolute accuracy: elements to 1e-13, derivatives to 1e-12 * max(1, |d'|)
    digits = 60 + int(0.31 * two_j)
    j = HalfInt(two_j)
    for row, col, theta in _large_block_samples(two_j):
        two_mp, two_m = two_j - 2 * row, two_j - 2 * col
        labels = (j, HalfInt(two_mp), HalfInt(two_m), theta)
        want = reference_d(two_j, two_mp, two_m, theta, digits)
        assert abs(d_element(*labels) - want) <= 1e-13
        slope = reference_d_derivative(two_j, two_mp, two_m, theta, digits)
        assert abs(d_derivative(*labels) - slope) <= 1e-12 * max(1.0, abs(slope))


def test_far_tail_element_is_absolutely_accurate():
    # the true value is ~7.6e-131; the kernel returns roundoff of order 1e-16
    want = reference_d(100, 100, -100, 0.1)
    assert 0.0 < want < 1e-130
    assert abs(d_element(50, 50, -50, 0.1) - want) <= 1e-13


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_rejected(theta):
    for fn in (d_element, d_derivative):
        with pytest.raises(DomainError):
            fn(HalfInt(4), HalfInt(0), HalfInt(2), theta)
    with pytest.raises(DomainError):
        d_block(HalfInt(4), theta)


def _jy_tridiagonal_times(two_j, vec):
    """T @ vec for J_y in the phase-rotated basis: zero diagonal, off-diagonal -A/2."""
    n = two_j + 1
    mu = (two_j - 2.0 * np.arange(n)) / 2.0
    jj = (two_j / 2.0) * (two_j / 2.0 + 1.0)
    off = -0.5 * np.sqrt(jj - mu[:-1] * (mu[:-1] - 1.0))
    out = np.zeros_like(vec)
    out[:-1] += off[:, None] * vec[1:]
    out[1:] += off[:, None] * vec[:-1]
    return out


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 4, 51, 200, 1000, 2000, 2200])
def test_eigensystem_contract(two_j):
    # row r of V is read as the projection of the block stored on row r
    # alone, <e_k|r> = i^r V[r, k]: exactly i^r times a real row
    n = two_j + 1
    every = np.arange(n)
    phased = wigner._projections(np.full(n, two_j), np.ones(n, dtype=np.int64), every, np.ones(n))
    vec = wigner._v_rows(two_j, every)
    assert np.array_equal(phased.reshape(n, n), wigner._I_POWERS[every % 4][:, None] * vec)
    lam = (2.0 * every - two_j) / 2.0
    residual = _jy_tridiagonal_times(two_j, vec) - vec * lam
    assert np.abs(residual).max() <= 1e-12 * (two_j / 2.0 + 1.0)
    # past 2j = 2000 a strided subset of columns keeps the Gram product cheap
    cols = vec if two_j <= 2000 else vec[:, ::7]
    assert np.abs(cols.T @ cols - np.eye(cols.shape[1])).max() <= 1e-13
    # S J_y S = -J_y: the parity sign maps the eigenvector at lam to the one at -lam
    signs = np.where(every % 2 == 0, 1.0, -1.0)
    assert np.array_equal(signs[:, None] * vec, vec[:, ::-1])
    # T is persymmetric: reversing the rows multiplies column k by (-1)^k,
    # which for odd n makes the middle row of every odd column exactly 0
    assert np.array_equal(vec[::-1], vec * signs)
    if n % 2:
        assert not vec[n // 2, 1::2].any()
    # V is symmetric; past 2j ~ 2100, where columns are rescaled on the
    # way, row and column part by a few ulps more
    assert np.abs(vec - vec.T).max() <= (2e-15 if two_j <= 2000 else 5e-15)
    # a row is read bitwise the same whatever else is asked for:
    # single, scattered, repeated, lam > 0 (parity mirrored) and middle ones
    rng = np.random.default_rng(two_j)
    for rows in ([0], [two_j], [two_j // 2], [n - 1 - two_j // 3, two_j // 3],
                 [two_j // 2, 0, two_j, two_j // 2], rng.integers(0, n, 7)):
        assert np.array_equal(wigner._v_rows(two_j, np.array(rows)), vec[rows])


@pytest.mark.parametrize("two_j", [400, 2200])
def test_eigensystem_first_row_is_binomial(two_j):
    # V[0, k]^2 = C(2j, k) / 4^j; at 2j = 2200 the smallest values underflow
    (row,) = wigner._v_rows(two_j, np.array([0]))
    log_binom = [
        math.lgamma(two_j + 1) - math.lgamma(k + 1) - math.lgamma(two_j - k + 1)
        for k in range(two_j + 1)
    ]
    want = np.exp(np.array(log_binom) - two_j * math.log(2.0))
    assert np.abs(row**2 - want).max() <= 1e-13


def _edge_reference(two_j, theta):
    """d[:, 0] = sqrt(C(2j, r)) c^(2j-r) s^r at 40 digits, by the ratio of consecutive rows."""
    with mp.workdps(40):
        half = mp.mpf(theta) / 2
        c, s = mp.cos(half), mp.sin(half)
        term, column = c**two_j, []
        for r in range(two_j + 1):
            column.append(float(term))
            term *= mp.sqrt(mp.mpf(two_j - r) / (r + 1)) * s / c
    return np.array(column)


EDGE_THETAS = [0.0, math.pi / 2, -math.pi / 2, 0.3, 2.5, math.pi, -math.pi]


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 50, 1000, 2200, 3000])
def test_edge_rotation_matches_reference_and_eigen_route(two_j):
    n = two_j + 1
    lam = (2.0 * np.arange(n) - two_j) / 2.0
    # column k of vec is the eigenvector at lam_k: the upper rows of V are
    # read, the rest are their row mirror (held in test_eigensystem_contract)
    upper = wigner._v_rows(two_j, np.arange(n - n // 2))
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    vec = np.concatenate([upper, upper[: n // 2][::-1] * signs]).T
    mirror_signs = np.where(np.arange(two_j, -1, -1) % 2, -1.0, 1.0)
    edge = np.zeros(n, dtype=complex)
    edge[0], edge[-1] = 0.6, 0.8j
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    for theta in EDGE_THETAS:
        first = _edge_reference(two_j, theta)
        last = mirror_signs * first[::-1]  # d[r, n-1] = (-1)^(n-1-r) d[n-1-r, 0]
        want = edge[0] * first + (edge[-1] * last if two_j else 0.0)
        rows = np.flatnonzero(edge)
        assert np.abs(wigner._rotate(two_j, rows, edge[rows], theta) - want).max() <= 1e-15
        # the eigen route: d[:, 0] = Re[i^(-row) V exp(-i theta L) V[0]]
        weights = np.exp(-1j * theta * lam) * vec[0]
        mapped = vec @ weights.real + 1j * (vec @ weights.imag)
        eigen = (wigner._I_POWERS[-np.arange(n) % 4] * mapped).real
        assert np.abs(wigner._edge_column(two_j, theta) - eigen).max() <= 2e-15
        # the two-projection route, which _rotate takes from 2j = 2 when
        # every row is stored, pairs columns of V where the eigen route
        # pairs rows: at theta = 0 it gives column 0 of V^T V, so it is held
        # to the orthonormality bound of test_eigensystem_contract
        route = wigner._rotate(two_j, np.arange(n), unit, theta)
        assert np.abs(wigner._edge_column(two_j, theta) - route).max() <= 1e-13
