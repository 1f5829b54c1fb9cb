"""Equilibrium objects and the three internal-energy definitions.

Everything works at a single inverse temperature beta (k_B = 1).  Partition
functions are always evaluated through shifted exponentials so large
beta * ||H|| cannot overflow; one helper forms log-weights, weights, z and ln Z.

All equilibrium quantities of a global Hamiltonian, or of a stack of them,
come from one `ThermalContext`, built from one broadcasting eigendecomposition,
which stores each Gibbs spectrum once, with its log.  The public statics read
the context that `thermal_context` builds from the Hamiltonian's cached
`Operator.eig`, so statics on one `Operator` share one `eigh`.  A context needs
only two numbers of the bare reservoir, ln Z_R and <H_R>_beta = sum_k p_k E_k,
which `gibbs` reads off its spectrum, building the Gibbs state only on `.state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import BadFactorCount, DimensionMismatch, NotPositiveDefinite
from .operators import (
    DensityMatrix,
    Operator,
    SpectralDecomposition,
    _symmetrized,
    at_index,
    dagger,
    identity,
    tensor_product,
)


def _gibbs_weights(evals: np.ndarray, beta: float) -> tuple[np.ndarray, ...]:
    """Over the last axis: log-weights -beta (E - E_0) with E_0 = min E, weights w,
    z = sum w and ln z (axis kept), and ln Tr e^{-beta H} = ln z - beta E_0 (axis dropped)."""
    shift = evals.min(axis=-1, keepdims=True)
    log_w = -beta * (evals - shift)
    weights = np.exp(log_w)
    z = weights.sum(axis=-1, keepdims=True)
    log_z = np.log(z)
    return log_w, weights, z, log_z, (log_z - beta * shift)[..., 0]


@dataclass(frozen=True, eq=False)
class GibbsEnsemble:
    """A Hamiltonian at beta: its Gibbs populations, ln Z and <H>; the state on read."""

    hamiltonian: Operator
    beta: float
    populations: np.ndarray  # descending, on the Hamiltonian's ascending eigenvalues
    log_partition: float
    mean_energy: float

    @cached_property
    def state(self) -> DensityMatrix:
        h = self.hamiltonian
        return DensityMatrix(Operator.from_eig(
            SpectralDecomposition(self.populations, h.eig.eigenvectors, h.dims)))


@dataclass(frozen=True, eq=False)
class MeanForceBundle:
    """Mean-force Hamiltonian, its beta-derivative companion, ln Z*_S and F_S."""

    h_star: Operator
    e_star: Operator
    log_z_star: float
    f_s: float


def _check_beta(beta: float, error: type[Exception] = ValueError):
    if not (math.isfinite(beta) and beta > 0):
        raise error(f"beta must be positive and finite, got {beta}")


def gibbs(h: Operator, beta: float) -> GibbsEnsemble:
    """Populations e^{-beta E} / Z on the eigenvalues E of H, ln Z and <H> = sum p E;
    the thermal state e^{-beta H} / Z is built when first read."""
    _check_beta(beta)
    evals = h.eig.eigenvalues
    _, weights, z, _, log_z = _gibbs_weights(evals, beta)
    populations = weights / z
    populations.setflags(write=False)  # the state's cached eigenvalues are views of it
    DensityMatrix.check_spectra(populations[None])
    return GibbsEnsemble(h, beta, populations, float(log_z), float((evals * populations).sum()))


def log_partition(h: Operator, beta: float) -> float:
    """ln Tr e^{-beta H}."""
    _check_beta(beta)
    return float(_gibbs_weights(h.eig.eigenvalues, beta)[-1])


def _trace_out_weighted(evecs: np.ndarray, weights: np.ndarray,
                        dims: tuple[int, int]) -> np.ndarray:
    """Tr_R(U diag(f) U^dag), symmetrized, for U in a (N, D, D) stack, f in a (..., N, D).

    One product: rows of U grouped by s, the column (r, k) weighted by f_k.
    """
    n, side = evecs.shape[:2]
    d_s, d_r = dims
    grouped = evecs.reshape(n, d_s, d_r, side)
    weighted = grouped * weights[..., None, None, :]
    weighted = weighted.reshape(weighted.shape[:-2] + (d_r * side,))
    return _symmetrized(weighted @ dagger(grouped.reshape(n, d_s, d_r * side)))


def _log_divided_differences(m: np.ndarray, log_m: np.ndarray) -> np.ndarray:
    """L_ij = (ln m_i - ln m_j) / (m_i - m_j), and 1 / m_i where m_i = m_j.

    Works over the last axis; `log_m` is ln m.  Near ties use
    ln m_i - ln m_j = 2 atanh(z), z = (m_i - m_j) / (m_i + m_j), which keeps
    full precision as z -> 0; well-separated pairs (|z| >= 1/2) use the
    plain quotient, which stays finite when z rounds to +-1.
    """
    mi, mj = m[..., :, None], m[..., None, :]
    z = (mi - mj) / (mi + mj)
    with np.errstate(divide="ignore", invalid="ignore"):
        atanh_ratio = np.where(z == 0, 1.0, np.arctanh(z) / z)
        quotient = (log_m[..., :, None] - log_m[..., None, :]) / (mi - mj)
    return np.where(np.abs(z) < 0.5, 2.0 * atanh_ratio / (mi + mj), quotient)


@dataclass(frozen=True, eq=False)
class ThermalContext:
    """Every equilibrium quantity of a stack of N global Hamiltonians at one beta.

    For each member, with H = U diag(E) U^dag and w = e^{-beta (E - E_0)}:

    - M = Tr_R(U diag(w) U^dag) = e^{beta E_0} Tr_R e^{-beta H}, and
      X = Tr_R(U diag(w E) U^dag) = e^{beta E_0} Tr_R(H e^{-beta H}), the
      same factor times -d_beta Tr_R e^{-beta H};
    - with M = V diag(m) V^dag, H* = -(ln M - (beta E_0 + ln Z_R) 1) / beta;
    - E* = d_beta(beta H*) = D ln[M](X) - <H_R>_beta 1 exactly, where the
      Frechet derivative of the matrix log is V [(V^dag X V) o L] V^dag
      with L the divided differences of ln on m (Daleckii-Krein);
    - the reduced Gibbs state is M / Tr M = M / z, z = sum w; the Gibbs spectra
      w / z and m / z are stored with their logs, exact where they underflow.

    Arrays carry the batch axis first.  All members come from the
    eigenpairs of the (N, D, D) stack (one broadcasting `eigh`, or the
    cached `Operator.eig` of a single Hamiltonian) and one broadcasting
    `eigh` of the (N, d_s, d_s) stack of M.
    """

    dims: tuple[int, int]
    beta: float
    evals: np.ndarray  # (N, D), ascending
    evecs: np.ndarray  # (N, D, D)
    populations: np.ndarray  # (N, D), Gibbs populations w / z, z = sum w
    log_populations: np.ndarray  # (N, D), ln(w / z) = -beta (E - E_0) - ln z
    log_rho_s: np.ndarray  # (N, d_s), ln(m / z) = ln m - ln z, ascending
    m_evecs: np.ndarray  # (N, d_s, d_s), V
    rho_s: np.ndarray  # (N, d_s, d_s), reduced Gibbs states M / Tr M = M / z
    h_star: np.ndarray  # (N, d_s, d_s)
    e_star: np.ndarray  # (N, d_s, d_s)
    log_z_star: np.ndarray  # (N,)
    f_s: np.ndarray  # (N,)
    u_r: float

    @classmethod
    def build(
        cls, evals: np.ndarray, evecs: np.ndarray, dims: tuple[int, ...],
        reservoir: GibbsEnsemble,
    ) -> "ThermalContext":
        """Contexts of a (N, D, D) stack on `dims` against one reservoir ensemble.

        `evals` (N, D) and `evecs` (N, D, D) are the stack's eigenpairs, from
        `eigh_stack` or a stack of one `Operator.eig`.
        """
        if len(dims) != 2:
            raise BadFactorCount(f"need exactly two factors, got dims {dims}")
        _check_reservoir(dims, reservoir.hamiltonian)
        beta = reservoir.beta
        log_w, weights, z, log_z, _ = _gibbs_weights(evals, beta)
        m, x = _trace_out_weighted(evecs, np.stack((weights, weights * evals)), dims)
        mvals, v = np.linalg.eigh(m)
        if np.any(mvals[:, 0] <= 0):
            k = int(np.argmax(mvals[:, 0] <= 0))
            raise NotPositiveDefinite(f"Tr_R e^(-beta H) has eigenvalue "
                                      f"{mvals[k, 0]:.3e}{at_index(k, len(evals))}")
        log_m = np.log(mvals)
        offset = beta * evals[:, :1] + reservoir.log_partition
        hstar_evals = -(log_m - offset) / beta
        vh = dagger(v)
        h_star = _symmetrized((v * hstar_evals[:, None, :]) @ vh)
        dlog = v @ ((vh @ x @ v) * _log_divided_differences(mvals, log_m)) @ vh
        u_r = reservoir.mean_energy
        e_star = _symmetrized(dlog) - u_r * np.eye(dims[0])
        log_z_star = _gibbs_weights(hstar_evals, beta)[-1]
        populations = weights / z
        DensityMatrix.check_spectra(populations)
        DensityMatrix.check_spectra(mvals / z)
        return cls(tuple(dims), beta, evals, evecs, populations, log_w - log_z, log_m - log_z,
                   v, m / z[..., None], h_star, e_star, log_z_star, -log_z_star / beta, u_r)

    def _members(self, index: slice) -> "ThermalContext":
        """The members `index` selects, as a context of views of these arrays."""
        return replace(self, **{f.name: getattr(self, f.name)[index] for f in fields(self)
                                if f.name not in ("dims", "beta", "u_r")})


def _check_reservoir(dims: tuple[int, ...], h_r: Operator):
    if h_r.dims != dims[1:]:  # R is the trailing factor of (d_s, d_r)
        raise DimensionMismatch(f"reservoir dims {h_r.dims} vs global dims {dims}")


def thermal_context(h_sur: Operator, h_r: Operator, beta: float) -> ThermalContext:
    """Context of one bipartite Hamiltonian, from its cached eigenpairs, over `h_r` at beta."""
    dec = h_sur.eig
    return ThermalContext.build(dec.eigenvalues[None], dec.eigenvectors[None],
                                h_sur.dims, gibbs(h_r, beta))


def mean_force_bundle(h_sur: Operator, h_r: Operator, beta: float) -> MeanForceBundle:
    """H*, E*, ln Z*_S and F_S of one bipartite Hamiltonian over `h_r` at beta."""
    ctx, d_s = thermal_context(h_sur, h_r, beta), h_sur.dims[:1]
    return MeanForceBundle(Operator(ctx.h_star[0], d_s), Operator(ctx.e_star[0], d_s),
                           float(ctx.log_z_star[0]), float(ctx.f_s[0]))


def mean_force_hamiltonian(h_sur: Operator, h_r: Operator, beta: float) -> Operator:
    """H* = -(1/beta) [ln Tr_R e^{-beta H_SUR} - (ln Z_R) 1_S], reproducing Tr_R pi."""
    return mean_force_bundle(h_sur, h_r, beta).h_star


def effective_energy_operator(h_sur: Operator, h_r: Operator, beta: float) -> Operator:
    """E* = d_beta(beta H*(beta)), exactly, via the derivative of the matrix log."""
    return mean_force_bundle(h_sur, h_r, beta).e_star


def internal_energy_diff(
    rho_sur: DensityMatrix, h_sur: Operator, h_r: Operator, beta: float
) -> float:
    """Total internal energy minus the bare reservoir's equilibrium energy."""
    _check_reservoir(h_sur.dims, h_r)
    return h_sur.expectation(rho_sur.op) - gibbs(h_r, beta).mean_energy


def internal_energy_estar(rho_s: DensityMatrix, e_star: Operator) -> float:
    return e_star.expectation(rho_s.op)


def thermal_entropy(u_s: float, f_s: float, beta: float) -> float:
    """Dimensionless thermodynamic entropy beta * (U_S - F_S)."""
    return beta * (u_s - f_s)


def embed_system(h_s: Operator, d_r: int) -> Operator:
    """Lift an operator on S to S (x) R as h_s (x) 1_R."""
    return tensor_product(h_s, identity(d_r))


def embed_reservoir(h_r: Operator, d_s: int) -> Operator:
    """Lift an operator on R to S (x) R as 1_S (x) h_r."""
    return tensor_product(identity(d_s), h_r)
