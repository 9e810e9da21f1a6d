"""Brute-force two-mode Fock oracle.

Everything here is built from first principles: ladder-operator matrix
elements on the fixed-total-photon-number basis, dense Hermitian
generators, and eigendecomposition exponentials.  No rotation-kernel
code is shared with the main engine, so agreement between the two is a
real cross-check rather than a tautology.

Basis order for total photon number N: (n_a, n_b) = (N, 0), (N-1, 1),
..., (0, N),  i.e. index i holds n_b = i.  This matches the block-vector
layout used by the state constructors, so no permutation is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DomainError
from .states import Frame, TwoModeState, _positive_int

__all__ = [
    "DenseOperator",
    "FockBasis",
    "MAX_ORACLE_PHOTONS",
    "bruteforce_parity_expectation",
    "build_generators",
    "evolve",
    "fock_basis",
]

MAX_ORACLE_PHOTONS = 12

_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class FockBasis:
    """Two-mode basis at fixed total photon number."""

    n_total: int
    states: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    def index(self, n_a: int, n_b: int) -> int:
        if n_a < 0 or n_b < 0 or n_a + n_b != self.n_total:
            raise DomainError(
                f"({n_a}, {n_b}) is not a two-mode state with {self.n_total} photons"
            )
        return n_b


@dataclass(frozen=True)
class DenseOperator:
    label: str
    matrix: np.ndarray


def _validated_total(n_total: int) -> int:
    n_total = _positive_int(n_total, "n_total")
    if n_total > MAX_ORACLE_PHOTONS:
        raise DomainError(
            f"oracle is capped at {MAX_ORACLE_PHOTONS} photons, got {n_total}"
        )
    return n_total


@lru_cache(maxsize=32)
def fock_basis(n_total: int) -> FockBasis:
    n_total = _validated_total(n_total)
    states = tuple((n_total - i, i) for i in range(n_total + 1))
    return FockBasis(n_total, states)


def _frozen(matrix: np.ndarray, label: str) -> DenseOperator:
    matrix.setflags(write=False)
    return DenseOperator(label, matrix)


@lru_cache(maxsize=32)
def build_generators(
    n_total: int,
) -> tuple[DenseOperator, DenseOperator, DenseOperator, DenseOperator]:
    """(jx, jy, jz, parity) as dense matrices on the fixed-N basis.

    Assembled from raw ladder elements: a^dag b sends index i to i - 1
    with weight sqrt((n_a + 1) n_b), and a b^dag sends i to i + 1 with
    weight sqrt(n_a (n_b + 1)).  Parity is photon-number parity in the
    second mode, diag((-1)^n_b).
    """
    basis = fock_basis(n_total)
    dim = basis.dim
    raising = np.zeros((dim, dim), dtype=complex)  # a^dag b
    for i in range(1, dim):
        n_a, n_b = basis.states[i]
        raising[i - 1, i] = np.sqrt((n_a + 1.0) * n_b)
    lowering = raising.conj().T  # a b^dag
    jx = 0.5 * (raising + lowering)
    jy = (raising - lowering) / 2j
    jz = np.diag([(n_a - n_b) / 2.0 for n_a, n_b in basis.states]).astype(complex)
    parity = np.diag([(-1.0) ** n_b for _, n_b in basis.states]).astype(complex)
    return (
        _frozen(jx, "jx"),
        _frozen(jy, "jy"),
        _frozen(jz, "jz"),
        _frozen(parity, "parity"),
    )


def evolve(vec: np.ndarray, generator: DenseOperator, angle: float) -> np.ndarray:
    """exp(-i angle G) applied to vec, via eigendecomposition of G."""
    matrix = generator.matrix
    if matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"{generator.label}: generator matrix is not square")
    if vec.shape != (matrix.shape[0],):
        raise DomainError(
            f"{generator.label}: vector length {vec.shape} does not match "
            f"dimension {matrix.shape[0]}"
        )
    scale = max(np.abs(matrix).max(), 1.0)
    if np.abs(matrix - matrix.conj().T).max() > _HERMITICITY_TOL * scale:
        raise ConsistencyError(f"{generator.label}: generator is not Hermitian")
    eigenvalues, vectors = np.linalg.eigh(matrix)
    phases = np.exp(-1j * float(angle) * eigenvalues)
    return vectors @ (phases * (vectors.conj().T @ vec))


def _block_expectation(
    n_total: int, vec: np.ndarray, phi: float, frame: Frame
) -> float:
    jx, jy, jz, parity = build_generators(n_total)
    if frame is Frame.AT_INPUT:
        out = evolve(vec, jy, phi)
    else:
        shifted = evolve(vec, jz, phi)
        out = evolve(shifted, jx, -0.5 * np.pi)
    value = complex(np.vdot(out, parity.matrix @ out))
    if abs(value.imag) > 1e-12:
        raise ConsistencyError(
            f"oracle parity expectation has imaginary residue {value.imag!r}"
        )
    return value.real


def bruteforce_parity_expectation(state: TwoModeState, phi: float) -> float:
    """<P> by dense evolution, for states up to MAX_ORACLE_PHOTONS photons.

    At-input states ride through exp(-i phi Jy); states inside the
    interferometer get the phase shifter exp(-i phi Jz) followed by the
    output coupler exp(+i (pi/2) Jx), then mode-b photon parity is read
    out.  Photon-number blocks contribute independently.
    """
    state.require_normalized()
    phi = float(phi)
    total = 0.0
    for two_j, vec in state.components.items():
        if two_j == 0:
            total += float(np.abs(vec[0]) ** 2)
            continue
        total += _block_expectation(two_j, np.asarray(vec, dtype=complex), phi, state.frame)
    return total
