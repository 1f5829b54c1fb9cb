"""Dense complex-matrix algebra for small multipartite Hilbert spaces.

Operators carry an ordered list of subsystem dimensions alongside their
matrix, so tensor-product structure is never implicit.  The convention
throughout is row-major ordering with the system factor leading, i.e.
``kron(A_S, B_R)`` indexes the joint space as (s, r).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BadFactorCount, DimensionMismatch, DomainError, NotHermitian

HERMITICITY_TOL = 1e-12
EIG_RECONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class Operator:
    """A dense complex square matrix tagged with subsystem dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        side = int(np.prod(self.dims))
        if mat.shape != (side, side):
            raise ValueError(
                f"matrix shape {mat.shape} inconsistent with dims {self.dims}"
            )
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")

    @property
    def side(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.matrix))) if self.matrix.size else 1.0)
        return self.hermiticity_defect() <= tol * scale

    def require_hermitian(self, tol: float = HERMITICITY_TOL) -> "Operator":
        if not self.is_hermitian(tol):
            raise NotHermitian(
                f"hermiticity defect {self.hermiticity_defect():.3e} exceeds tolerance"
            )
        return self

    def dagger(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.dims)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def expectation(self, rho: "Operator") -> float:
        """Real part of Tr(self @ rho); imaginary part must be round-off."""
        if self.dims != rho.dims:
            raise DimensionMismatch(f"dims {self.dims} vs {rho.dims}")
        val = np.trace(self.matrix @ rho.matrix)
        return float(val.real)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.matrix + other.matrix, self.dims)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.matrix - other.matrix, self.dims)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.matrix * scalar, self.dims)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.matrix @ other.matrix, self.dims)

    def _check_same_space(self, other: "Operator"):
        if self.dims != other.dims:
            raise DimensionMismatch(f"dims {self.dims} vs {other.dims}")


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace, positive-semidefinite Hermitian operator."""

    op: Operator

    TRACE_TOL = 1e-12
    EIGENVALUE_FLOOR = -1e-12

    def __post_init__(self):
        self.op.require_hermitian()
        tr = self.op.trace()
        if abs(tr - 1.0) > self.TRACE_TOL:
            raise ValueError(f"trace {tr} differs from 1 beyond tolerance")
        evals = np.linalg.eigvalsh(_symmetrized(self.op.matrix))
        if evals.min() < self.EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {evals.min():.3e}")

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims

    @property
    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and a matching unitary of eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dims: tuple[int, ...] = field(default=())

    def reconstruct(self) -> np.ndarray:
        U = self.eigenvectors
        return (U * self.eigenvalues) @ U.conj().T

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        U = self.eigenvectors
        return (U * f(self.eigenvalues)) @ U.conj().T


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    # absorbs round-off from tensor assembly before eigendecomposition
    return 0.5 * (mat + mat.conj().T)


_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(axis: str) -> Operator:
    """Standard 2x2 Pauli matrix for axis in {x, y, z}."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    return Operator(_PAULI[axis], (2,))


def identity(dims: int | Sequence[int]) -> Operator:
    if isinstance(dims, int):
        dims = (dims,)
    side = int(np.prod(dims))
    return Operator(np.eye(side, dtype=complex), tuple(dims))


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product; dims concatenate with `a` as the leading factor."""
    return Operator(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def hermitian_eig(a: Operator) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian operator, eigenvalues ascending."""
    a.require_hermitian()
    evals, evecs = np.linalg.eigh(_symmetrized(a.matrix))
    return SpectralDecomposition(evals, evecs, a.dims)


def func_of_hermitian(a: Operator, f: Callable[[np.ndarray], np.ndarray]) -> Operator:
    """Apply a real scalar function to a Hermitian operator via its spectrum."""
    dec = hermitian_eig(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        fvals = np.asarray(f(dec.eigenvalues), dtype=float)
    if not np.all(np.isfinite(fvals)):
        raise DomainError(
            f"function not finite on spectrum; eigenvalues {dec.eigenvalues}"
        )
    return Operator(dec.apply(lambda _: fvals), a.dims)


def partial_trace(o: Operator, keep: str) -> Operator:
    """Trace out one factor of a bipartite operator.

    `keep` selects the surviving factor: "S" (leading) or "R" (trailing).
    """
    if len(o.dims) != 2:
        raise BadFactorCount(f"need exactly two factors, got dims {o.dims}")
    d_s, d_r = o.dims
    four = o.matrix.reshape(d_s, d_r, d_s, d_r)
    if keep == "S":
        return Operator(np.trace(four, axis1=1, axis2=3), (d_s,))
    if keep == "R":
        return Operator(np.trace(four, axis1=0, axis2=2), (d_r,))
    raise ValueError(f"keep must be 'S' or 'R', got {keep!r}")
