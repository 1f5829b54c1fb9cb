"""Equilibrium objects and the three internal-energy definitions.

Everything works at a single inverse temperature beta (k_B = 1).  Partition
functions are always evaluated through shifted exponentials so large
beta * ||H|| cannot overflow.

All equilibrium quantities of a global Hamiltonian, or of a stack of them,
come from one `ThermalContext`, built from one broadcasting
eigendecomposition; the public statics below read a context of one, built
from the Hamiltonian's cached `Operator.eig`, so statics on one `Operator`
share one `eigh`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadFactorCount, NotPositiveDefinite
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


def _shifted_weights(evals: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights e^{-beta (E - E_0)} with E_0 = min E, and ln Tr e^{-beta H}.

    Works over the last axis, so a (N, D) stack of spectra gives N values.
    """
    shift = evals.min(axis=-1, keepdims=True)
    weights = np.exp(-beta * (evals - shift))
    return weights, np.log(weights.sum(axis=-1)) - beta * shift[..., 0]


@dataclass(frozen=True, eq=False)
class GibbsEnsemble:
    """A Hamiltonian, its thermal state at beta, and ln Z."""

    hamiltonian: Operator
    beta: float
    state: DensityMatrix
    log_partition: float

    @property
    def mean_energy(self) -> float:
        return self.hamiltonian.expectation(self.state.op)


@dataclass(frozen=True, eq=False)
class MeanForceBundle:
    """Mean-force Hamiltonian, its beta-derivative companion, ln Z*_S and F_S."""

    h_star: Operator
    e_star: Operator
    log_z_star: float
    f_s: float


def _check_beta(beta: float):
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta}")


def gibbs(h: Operator, beta: float) -> GibbsEnsemble:
    """Thermal state e^{-beta H} / Z with its log partition function.

    Keeps (beta, state, ln Z) on `h`: a repeat call at that beta reuses them.
    """
    _check_beta(beta)
    slot = vars(h).get("_gibbs")
    if slot is None or slot[0] != beta:
        dec = h.eig
        weights, log_z = _shifted_weights(dec.eigenvalues, beta)
        populations = weights / weights.sum()
        state = Operator.from_eig(SpectralDecomposition(populations, dec.eigenvectors, h.dims))
        slot = vars(h)["_gibbs"] = (beta, DensityMatrix(state), float(log_z))
    return GibbsEnsemble(h, beta, slot[1], slot[2])


def log_partition(h: Operator, beta: float) -> float:
    """ln Tr e^{-beta H}, read from `gibbs`'s slot on `h` when it holds this beta."""
    _check_beta(beta)
    slot = vars(h).get("_gibbs")
    if slot is not None and slot[0] == beta:
        return slot[2]
    return float(_shifted_weights(h.eig.eigenvalues, beta)[1])


def _log_divided_differences(m: np.ndarray) -> np.ndarray:
    """L_ij = (ln m_i - ln m_j) / (m_i - m_j), and 1 / m_i where m_i = m_j.

    Works over the last axis.  Near ties use ln m_i - ln m_j = 2 atanh(z),
    z = (m_i - m_j) / (m_i + m_j), which keeps full precision as z -> 0;
    well-separated pairs (|z| >= 1/2) use the plain quotient, which stays
    finite when z rounds to +-1.
    """
    mi, mj = m[..., :, None], m[..., None, :]
    z = (mi - mj) / (mi + mj)
    with np.errstate(divide="ignore", invalid="ignore"):
        atanh_ratio = np.where(z == 0, 1.0, np.arctanh(z) / z)
        quotient = (np.log(mi) - np.log(mj)) / (mi - mj)
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
    - the reduced Gibbs state is M / Tr M.

    Arrays carry the batch axis first.  All members come from the
    eigenpairs of the (N, D, D) stack (one broadcasting `eigh`, or the
    cached `Operator.eig` of a single Hamiltonian) and one broadcasting
    `eigh` of the (N, d_s, d_s) stack of M.  `bundle`, `state_spectrum` and
    `reduced_spectrum` view a context of one Hamiltonian.
    """

    hamiltonians: np.ndarray  # (N, D, D)
    dims: tuple[int, int]
    reservoir: GibbsEnsemble
    evals: np.ndarray  # (N, D), ascending
    evecs: np.ndarray  # (N, D, D)
    populations: np.ndarray  # (N, D), Gibbs populations w / Z
    log_z: np.ndarray  # (N,)
    m: np.ndarray  # (N, d_s, d_s)
    m_evecs: np.ndarray  # (N, d_s, d_s), V
    rho_s: np.ndarray  # (N, d_s, d_s), reduced Gibbs states M / Tr M
    rho_s_evals: np.ndarray  # (N, d_s), m / Tr M
    h_star: np.ndarray  # (N, d_s, d_s)
    e_star: np.ndarray  # (N, d_s, d_s)
    log_z_star: np.ndarray  # (N,)
    f_s: np.ndarray  # (N,)
    u_r: float

    @classmethod
    def build(
        cls, hamiltonians: np.ndarray, evals: np.ndarray, evecs: np.ndarray,
        dims: tuple[int, ...], reservoir: GibbsEnsemble,
    ) -> "ThermalContext":
        """Contexts of a (N, D, D) stack on `dims` against one reservoir ensemble.

        `evals` (N, D) and `evecs` (N, D, D) are the stack's eigenpairs, from
        `eigh_stack` or a stack of one `Operator.eig`.
        """
        if len(dims) != 2:
            raise BadFactorCount(f"need exactly two factors, got dims {dims}")
        beta = reservoir.beta
        weights, log_z = _shifted_weights(evals, beta)
        z = weights.sum(axis=-1)
        n, side = evals.shape
        d_s, d_r = dims
        # M and X as Tr_R(U diag(f) U^dag) for f = w, wE in one product: rows
        # of U grouped by s, the column (r, k) of the grouped matrix weighted
        # by f_k
        grouped = evecs.reshape(n, d_s, d_r, side)
        f = np.stack((weights, weights * evals))[:, :, None, None, :]
        weighted = (grouped * f).reshape(2, n, d_s, d_r * side)
        m, x = _symmetrized(weighted @ dagger(grouped.reshape(n, d_s, d_r * side)))
        mvals, v = np.linalg.eigh(m)
        if np.any(mvals[:, 0] <= 0):
            k = int(np.argmax(mvals[:, 0] <= 0))
            raise NotPositiveDefinite(f"Tr_R e^(-beta H) has eigenvalue "
                                      f"{mvals[k, 0]:.3e}{at_index(k, n)}")
        offset = beta * evals[:, :1] + reservoir.log_partition
        hstar_evals = -(np.log(mvals) - offset) / beta
        vh = dagger(v)
        h_star = _symmetrized((v * hstar_evals[:, None, :]) @ vh)
        dlog = v @ ((vh @ x @ v) * _log_divided_differences(mvals)) @ vh
        u_r = reservoir.mean_energy
        e_star = _symmetrized(dlog) - u_r * np.eye(d_s)
        log_z_star = _shifted_weights(hstar_evals, beta)[1]
        populations = weights / z[:, None]
        rho_s_evals = mvals / z[:, None]
        DensityMatrix.check_spectra(populations)
        DensityMatrix.check_spectra(rho_s_evals)
        return cls(hamiltonians, tuple(dims), reservoir, evals, evecs, populations,
                   log_z, m, v, m / z[:, None, None], rho_s_evals, h_star, e_star,
                   log_z_star, -log_z_star / beta, u_r)

    @classmethod
    def of(cls, h: Operator, reservoir: GibbsEnsemble) -> "ThermalContext":
        """Context of one Hamiltonian, from its cached eigenpairs."""
        dec = h.eig
        return cls.build(h.matrix[None], dec.eigenvalues[None], dec.eigenvectors[None],
                         h.dims, reservoir)

    @property
    def beta(self) -> float:
        return self.reservoir.beta

    @cached_property
    def rho(self) -> np.ndarray:
        """Global Gibbs states U diag(w / Z) U^dag, (N, D, D)."""
        return (self.evecs * self.populations[:, None, :]) @ dagger(self.evecs)

    @property
    def _only(self) -> int:
        if len(self.evals) != 1:
            raise ValueError(f"view of a single-Hamiltonian context, but the "
                             f"context holds {len(self.evals)}")
        return 0

    @property
    def bundle(self) -> MeanForceBundle:
        k, (d_s, _) = self._only, self.dims
        return MeanForceBundle(Operator(self.h_star[k], (d_s,)),
                               Operator(self.e_star[k], (d_s,)),
                               float(self.log_z_star[k]), float(self.f_s[k]))

    @property
    def state_spectrum(self) -> SpectralDecomposition:
        """Gibbs populations on H's eigenvectors."""
        k = self._only
        return SpectralDecomposition(self.populations[k], self.evecs[k], self.dims)

    @property
    def reduced_spectrum(self) -> SpectralDecomposition:
        """Eigenpairs of the reduced Gibbs state M / Tr M."""
        k = self._only
        return SpectralDecomposition(self.rho_s_evals[k], self.m_evecs[k], self.dims[:1])


def thermal_context(h_sur: Operator, h_r: Operator, beta: float) -> ThermalContext:
    """Thermal context of a bipartite Hamiltonian over reservoir `h_r` at beta."""
    return ThermalContext.of(h_sur, gibbs(h_r, beta))


def mean_force_hamiltonian(h_sur: Operator, h_r: Operator, beta: float) -> Operator:
    """H* = -(1/beta) [ln Tr_R e^{-beta H_SUR} - (ln Z_R) 1_S], reproducing Tr_R pi."""
    return thermal_context(h_sur, h_r, beta).bundle.h_star


def effective_energy_operator(h_sur: Operator, h_r: Operator, beta: float) -> Operator:
    """E* = d_beta(beta H*(beta)), exactly, via the derivative of the matrix log."""
    return thermal_context(h_sur, h_r, beta).bundle.e_star


def mean_force_bundle(h_sur: Operator, h_r: Operator, beta: float) -> MeanForceBundle:
    return thermal_context(h_sur, h_r, beta).bundle


def internal_energy_diff(
    rho_sur: DensityMatrix, h_sur: Operator, h_r: Operator, beta: float
) -> float:
    """Total internal energy minus the bare reservoir's equilibrium energy."""
    return h_sur.expectation(rho_sur.op) - gibbs(h_r, beta).mean_energy


def internal_energy_hstar(rho_s: DensityMatrix, h_star: Operator) -> float:
    return h_star.expectation(rho_s.op)


def internal_energy_estar(rho_s: DensityMatrix, e_star: Operator) -> float:
    return e_star.expectation(rho_s.op)


def free_energies(
    h_sur: Operator, h_r: Operator, beta: float
) -> tuple[float, float, float]:
    """(F_SUR, F_S, F_R); F_S comes independently from the mean-force spectrum."""
    ctx = thermal_context(h_sur, h_r, beta)
    return (
        -float(ctx.log_z[0]) / beta,
        ctx.bundle.f_s,
        -ctx.reservoir.log_partition / beta,
    )


def thermal_entropy(u_s: float, f_s: float, beta: float) -> float:
    """Dimensionless thermodynamic entropy beta * (U_S - F_S)."""
    return beta * (u_s - f_s)


def embed_system(h_s: Operator, d_r: int) -> Operator:
    """Lift an operator on S to S (x) R as h_s (x) 1_R."""
    return tensor_product(h_s, identity(d_r))


def embed_reservoir(h_r: Operator, d_s: int) -> Operator:
    """Lift an operator on R to S (x) R as 1_S (x) h_r."""
    return tensor_product(identity(d_s), h_r)
