"""Dense complex-matrix algebra for small multipartite Hilbert spaces.

Operators carry an ordered list of subsystem dimensions alongside their
matrix, so tensor-product structure is never implicit.  The convention
throughout is row-major ordering with the system factor leading, i.e.
``kron(A_S, B_R)`` indexes the joint space as (s, r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BadFactorCount, DimensionMismatch, DomainError, NotHermitian

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense complex square matrix tagged with subsystem dimensions.

    The operator owns a read-only copy of the matrix it is given, so the
    caller's array stays writable and later writes to it change nothing here.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        side = math.prod(self.dims)
        if mat.shape != (side, side):
            raise ValueError(
                f"matrix shape {mat.shape} inconsistent with dims {self.dims}"
            )
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")

    @property
    def side(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eig(self) -> SpectralDecomposition:
        """Read-only eigenpairs, eigenvalues ascending: the one owner of them.

        Seeded by `from_eig`, or else computed by one `eigh` on first access.
        Raises NotHermitian on every access to a non-Hermitian operator: a
        failure is not cached.
        """
        evals, evecs = eigh_stack(self.matrix[None])
        evals.setflags(write=False)
        evecs.setflags(write=False)
        return SpectralDecomposition(evals[0], evecs[0], self.dims)

    @classmethod
    def from_eig(cls, dec: SpectralDecomposition) -> "Operator":
        """The operator (U * lambda) @ U^dag, with `dec` as its cached eigenpairs.

        The matrix is built from `dec` in the order given; the cache holds
        the eigenpairs read-only and ascending, as `eig` does, so the operator
        never needs an `eigh`.  The cache may hold views of `dec`'s arrays,
        which must not be written to afterwards.
        """
        op = cls(dec.reconstruct(), dec.dims)
        # views, reversed for non-increasing values such as Gibbs populations
        step = -1 if dec.eigenvalues[0] > dec.eigenvalues[-1] else 1
        evals, evecs = dec.eigenvalues[::step], dec.eigenvectors[:, ::step]
        if (evals[1:] < evals[:-1]).any():
            order = np.argsort(evals, kind="stable")
            evals, evecs = evals[order], evecs[:, order]
        evals.setflags(write=False)
        evecs.setflags(write=False)
        vars(op)["eig"] = SpectralDecomposition(evals, evecs, op.dims)
        return op

    def require_hermitian(self) -> "Operator":
        require_hermitian_stack(self.matrix[None])
        return self

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def expectation(self, rho: "Operator") -> float:
        """Real part of Tr(self @ rho); imaginary part must be round-off."""
        if self.dims != rho.dims:
            raise DimensionMismatch(f"dims {self.dims} vs {rho.dims}")
        return float(expectation(self.matrix, rho.matrix))

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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A unit-trace, positive-semidefinite Hermitian operator.

    The trace and positivity checks run on the operator's eigenvalues,
    `op.eig`: an operator from outside input gets one checked `eigh` (which
    also checks hermiticity), and a state the engine builds with
    `Operator.from_eig` already carries its eigenpairs and needs none.
    """

    op: Operator

    TRACE_TOL = 1e-12
    EIGENVALUE_FLOOR = -1e-12

    def __post_init__(self):
        self.check_spectra(self.op.eig.eigenvalues[None])

    @classmethod
    def check_spectra(cls, spectra: np.ndarray):
        """Unit trace and no eigenvalue below EIGENVALUE_FLOOR, for each row.

        `spectra` is a (N, d) stack of state spectra.  Raises ValueError
        naming the first bad member; NaN fails both checks.
        """
        traces = spectra.sum(axis=-1)
        lowest = spectra.min(axis=-1)
        good_trace = np.abs(traces - 1.0) <= cls.TRACE_TOL
        good_min = lowest >= cls.EIGENVALUE_FLOOR
        if (good_trace & good_min).all():
            return
        if not good_trace.all():
            n = int(np.argmin(good_trace))
            raise ValueError(f"trace {traces[n]} differs from 1 beyond tolerance"
                             f"{at_index(n, len(traces))}")
        if not good_min.all():
            n = int(np.argmin(good_min))
            raise ValueError(f"negative eigenvalue {lowest[n]:.3e}"
                             f"{at_index(n, len(traces))}")

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims

    @property
    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues and a matching unitary of eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dims: tuple[int, ...] = field(default=())

    def reconstruct(self) -> np.ndarray:
        U = self.eigenvectors
        return (U * self.eigenvalues) @ U.conj().T


def dagger(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return mat.conj().swapaxes(-1, -2)


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    # absorbs round-off from tensor assembly before eigendecomposition
    return 0.5 * (mat + dagger(mat))


def expectation(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re Tr(A rho) = Re sum_ij A_ij rho_ji over the last two axes, broadcasting."""
    return (a * rho.swapaxes(-1, -2)).sum(axis=(-2, -1)).real


def at_index(n: int, size: int) -> str:
    """Error-message suffix naming member n of a stack; empty for a single one."""
    return f" at stack index {n}" if size > 1 else ""


def require_hermitian_stack(mats: np.ndarray) -> np.ndarray:
    """Raise NotHermitian naming the first member of a (N, d, d) stack that is not.

    A member passes when max |A - A^dag| <= HERMITICITY_TOL * max(1, max |A|).
    Returns the conjugate transposes A^dag it computed.
    """
    mats_h = dagger(mats)
    defect = np.abs(mats - mats_h).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1)))
    ok = defect <= HERMITICITY_TOL * scale
    if not np.all(ok):
        n = int(np.argmin(ok))
        raise NotHermitian(f"hermiticity defect {defect[n]:.3e} exceeds tolerance"
                           f"{at_index(n, len(mats))}")
    return mats_h


def eigh_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of each member of a (N, d, d) Hermitian stack, in one `eigh`.

    Checks every member first; errors name the first bad one.
    """
    return np.linalg.eigh(0.5 * (mats + require_hermitian_stack(mats)))


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
    side = math.prod(dims)
    return Operator(np.eye(side, dtype=complex), tuple(dims))


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product; dims concatenate with `a` as the leading factor."""
    return Operator(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def func_of_hermitian(a: Operator, f: Callable[[np.ndarray], np.ndarray]) -> Operator:
    """Apply a real scalar function to a Hermitian operator via its spectrum.

    `f` receives the operator's cached, read-only eigenvalues and must return
    a new array, not modify its argument in place.
    """
    dec = a.eig
    with np.errstate(invalid="ignore", divide="ignore"):
        fvals = np.asarray(f(dec.eigenvalues), dtype=float)
    if not np.all(np.isfinite(fvals)):
        raise DomainError(
            f"function not finite on spectrum; eigenvalues {dec.eigenvalues}"
        )
    return Operator.from_eig(SpectralDecomposition(fvals, dec.eigenvectors, a.dims))


def partial_trace(o: Operator, keep: str) -> Operator:
    """Trace out one factor of a bipartite operator.

    `keep` selects the surviving factor: "S" (leading) or "R" (trailing).
    """
    if len(o.dims) != 2:
        raise BadFactorCount(f"need exactly two factors, got dims {o.dims}")
    d_s, d_r = o.dims
    if keep == "S":
        return Operator(trace_out_reservoir(o.matrix, o.dims), (d_s,))
    if keep == "R":
        four = o.matrix.reshape(d_s, d_r, d_s, d_r)
        return Operator(np.trace(four, axis1=0, axis2=2), (d_r,))
    raise ValueError(f"keep must be 'S' or 'R', got {keep!r}")


def trace_out_reservoir(mats: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Tr_R over the last two axes of a stack of (d_s d_r)-sided matrices."""
    d_s, d_r = dims
    four = mats.reshape(mats.shape[:-2] + (d_s, d_r, d_s, d_r))
    return np.trace(four, axis1=-3, axis2=-1)
