"""Dense complex-matrix algebra for small multipartite Hilbert spaces.

Operators carry an ordered list of subsystem dimensions alongside their
matrix, so tensor-product structure is never implicit.  The convention
throughout is row-major ordering with the system factor leading, i.e.
``kron(A_S, B_R)`` indexes the joint space as (s, r).  Every spectrum an
`Operator` holds is finite, and a `DensityMatrix` checks its one spectrum when made.
"""

from __future__ import annotations

import contextvars
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BadFactorCount, DimensionMismatch, NotHermitian

HERMITICITY_TOL = 1e-12
_CONCURRENT_SIDE = 64  # two `eigh` on two threads: slower at side 32, faster from 48


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

    @property
    def eig(self) -> SpectralDecomposition:
        """Read-only eigenpairs, eigenvalues ascending: the one owner of them.

        Seeded by `from_eig` only, else computed on first access, on any thread, by
        `eigh_stack` of the Hermitian matrix of the lower triangle; all are finite.
        Raises on every access to a non-Hermitian operator or a non-finite spectrum.
        """
        if "eig" not in vars(self):
            evals, evecs = eigh_stack(self.matrix[None])
            evals.setflags(write=False)
            evecs.setflags(write=False)
            vars(self).setdefault("eig", SpectralDecomposition(evals[0], evecs[0], self.dims))
        return vars(self)["eig"]

    @classmethod
    def from_eig(cls, dec: SpectralDecomposition) -> "Operator":
        """The operator (U * lambda) @ U^dag, with `dec` as its cached eigenpairs.

        `dec`'s values must be finite and monotone, ascending or descending;
        the cache holds the eigenpairs read-only and ascending, as `eig` does,
        so the operator never needs an `eigh`.  The cache may hold views of
        `dec`'s arrays, which must not be written to afterwards.
        """
        # views, reversed for non-increasing values such as Gibbs populations
        step = -1 if dec.eigenvalues[0] > dec.eigenvalues[-1] else 1
        evals, evecs = dec.eigenvalues[::step], dec.eigenvectors[:, ::step]
        if not (np.isfinite(evals).all() and (evals[1:] >= evals[:-1]).all()):
            raise ValueError(f"eigenvalues must be monotone and finite, got {dec.eigenvalues}")
        op = cls(dec.reconstruct(), dec.dims)
        evals.setflags(write=False)
        evecs.setflags(write=False)
        vars(op)["eig"] = SpectralDecomposition(evals, evecs, op.dims)
        return op

    def require_hermitian(self) -> "Operator":
        require_hermitian_stack(self.matrix[None])
        return self

    def expectation(self, rho: "Operator") -> float:
        """Real part of Tr(self @ rho); imaginary part must be round-off."""
        self._check_same_space(rho)
        return float(expectation(self.matrix, rho.matrix))

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.matrix + other.matrix, self.dims)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.matrix * scalar, self.dims)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.matrix @ other.matrix, self.dims)

    def _check_same_space(self, other: "Operator"):
        if self.dims != other.dims:
            raise DimensionMismatch(f"dims {self.dims} vs {other.dims}")


@contextmanager
def _decomposing(op: Operator):
    """Run the block while a worker thread fills `op.eig`, in a copy of this context so
    numpy's error state carries over.  The worker keeps only its exception, raised after the
    join; the block's error wins over it, and a refused block keeps `op`'s checked eigenpairs.
    With `op` decomposed or of side below `_CONCURRENT_SIDE`, no thread runs."""
    if "eig" in vars(op) or op.side < _CONCURRENT_SIDE:
        yield
        return
    errors = []

    def work():
        try:
            op.eig
        except Exception as exc:  # raised on the caller's thread after the join
            errors.append(exc)

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    worker.start()
    try:
        yield
    finally:
        worker.join()
    if errors:
        raise errors[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A unit-trace, positive-semidefinite Hermitian operator.

    The trace and positivity checks run once, on the operator's ascending
    eigenvalues `op.eig`: an operator from outside input gets one checked
    `eigh`, and a state the engine builds with `Operator.from_eig` already
    carries its eigenpairs and needs none.
    """

    op: Operator

    TRACE_TOL = 1e-12
    EIGENVALUE_FLOOR = -1e-12

    def __post_init__(self):
        spectrum = self.op.eig.eigenvalues
        trace = spectrum.sum()
        if abs(trace - 1.0) > self.TRACE_TOL:
            raise ValueError(f"trace {trace} differs from 1 beyond tolerance")
        if spectrum[0] < self.EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {spectrum[0]:.3e}")

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims


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
    # (A + A^dag) / 2 absorbs the round-off of a product the package formed;
    # halving each term first keeps a finite sum finite
    return 0.5 * mat + 0.5 * dagger(mat)


def expectation(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re Tr(A rho) = Re sum_ij A_ij rho_ji over the last two axes, broadcasting."""
    return (a * rho.swapaxes(-1, -2)).sum(axis=(-2, -1)).real


def at_index(n: int, size: int) -> str:
    """Error-message suffix naming member n of a stack; empty for a single one."""
    return f" at stack index {n}" if size > 1 else ""


def _check_defect(mats: np.ndarray, target: np.ndarray, bound: float | np.ndarray,
                  error: type[Exception], message: str):
    """Raise `error(message.format(defect))` naming the first member of a (N, d, d)
    stack with defect max |A - target| > bound, a scalar or (N,); NaN fails."""
    defect = np.abs(mats - target).max(axis=(-2, -1))
    ok = defect <= bound
    if not np.all(ok):
        n = int(np.argmin(ok))
        raise error(message.format(defect[n]) + at_index(n, len(mats)))


def require_hermitian_stack(mats: np.ndarray):
    """Raise NotHermitian naming the first member of a (N, d, d) stack that is not.

    A member passes when max |A - A^dag| <= HERMITICITY_TOL * max |A|, in A's own unit.
    """
    _check_defect(mats, dagger(mats), HERMITICITY_TOL * np.abs(mats).max(axis=(-2, -1)),
                  NotHermitian, "hermiticity defect {:.3e} exceeds tolerance")


def eigh_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of each member of a (N, d, d) Hermitian stack, in one `eigh`.

    Checks hermiticity first and finite eigenvalues after; errors name the first bad member.
    `eigh` reads only the lower triangle and the real diagonal, so a member A that
    passes is decomposed as tril(A, -1) + tril(A, -1)^dag + Re diag(A).
    """
    require_hermitian_stack(mats)
    evals, evecs = np.linalg.eigh(mats)
    if not np.isfinite(evals).all():
        n = int(np.argmin(np.isfinite(evals).all(axis=-1)))
        raise ValueError(f"eigenvalues {evals[n]} are not finite{at_index(n, len(evals))}")
    return evals, evecs


_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]]),
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
    return Operator(np.eye(side), tuple(dims))


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product; dims concatenate with `a` as the leading factor."""
    return Operator(np.kron(a.matrix, b.matrix), a.dims + b.dims)


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
