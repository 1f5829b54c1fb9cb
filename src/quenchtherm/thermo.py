"""Equilibrium objects and the three internal-energy definitions.

Everything works at a single inverse temperature beta (k_B = 1).  Partition
functions are always evaluated through shifted exponentials so large
beta * ||H|| cannot overflow.

All equilibrium quantities of a global Hamiltonian come from one
`ThermalContext`, built from a single eigendecomposition; the public statics
below read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadFactorCount, NotPositiveDefinite
from .operators import (
    DensityMatrix,
    Operator,
    SpectralDecomposition,
    _symmetrized,
    hermitian_eig,
    identity,
    tensor_product,
)


def _shifted_weights(evals: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Weights e^{-beta (E - E_0)} with E_0 = min E, and ln Tr e^{-beta H}."""
    shift = evals.min()
    weights = np.exp(-beta * (evals - shift))
    return weights, float(np.log(weights.sum()) - beta * shift)


def _log_partition(evals: np.ndarray, beta: float) -> float:
    """ln Tr e^{-beta H} from the spectrum, overflow-safe."""
    return _shifted_weights(evals, beta)[1]


@dataclass(frozen=True)
class GibbsEnsemble:
    """A Hamiltonian, its thermal state at beta, and ln Z."""

    hamiltonian: Operator
    beta: float
    state: DensityMatrix
    log_partition: float

    @property
    def mean_energy(self) -> float:
        return self.hamiltonian.expectation(self.state.op)


@dataclass(frozen=True)
class MeanForceBundle:
    """Mean-force Hamiltonian, its beta-derivative companion, ln Z*_S and F_S."""

    h_star: Operator
    e_star: Operator
    log_z_star: float
    f_s: float


def _check_beta(beta: float):
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta}")


def _gibbs_from(
    h: Operator, dec: SpectralDecomposition, beta: float
) -> tuple[GibbsEnsemble, np.ndarray]:
    """Gibbs ensemble of `h` from its spectrum, and the shifted weights."""
    weights, log_z = _shifted_weights(dec.eigenvalues, beta)
    state = DensityMatrix(Operator(dec.apply(lambda _: weights / weights.sum()), h.dims))
    return GibbsEnsemble(h, beta, state, log_z), weights


def gibbs(h: Operator, beta: float) -> GibbsEnsemble:
    """Thermal state e^{-beta H} / Z with its log partition function."""
    _check_beta(beta)
    return _gibbs_from(h, hermitian_eig(h), beta)[0]


def log_partition(h: Operator, beta: float) -> float:
    _check_beta(beta)
    return _log_partition(hermitian_eig(h).eigenvalues, beta)


def _log_divided_differences(m: np.ndarray) -> np.ndarray:
    """L_ij = (ln m_i - ln m_j) / (m_i - m_j), and 1 / m_i where m_i = m_j.

    Near ties use ln m_i - ln m_j = 2 atanh(z), z = (m_i - m_j) / (m_i + m_j),
    which keeps full precision as z -> 0; well-separated pairs (|z| >= 1/2)
    use the plain quotient, which stays finite when z rounds to +-1.
    """
    mi, mj = m[:, None], m[None, :]
    z = (mi - mj) / (mi + mj)
    with np.errstate(divide="ignore", invalid="ignore"):
        atanh_ratio = np.where(z == 0, 1.0, np.arctanh(z) / z)
        quotient = (np.log(mi) - np.log(mj)) / (mi - mj)
    return np.where(np.abs(z) < 0.5, 2.0 * atanh_ratio / (mi + mj), quotient)


@dataclass(frozen=True)
class ThermalContext:
    """Every equilibrium quantity of one global Hamiltonian at one beta.

    With H = U diag(E) U^dag (one eigh) and w = e^{-beta (E - E_0)}:

    - M = Tr_R(U diag(w) U^dag) = e^{beta E_0} Tr_R e^{-beta H}, and
      X = Tr_R(U diag(w E) U^dag) = e^{beta E_0} Tr_R(H e^{-beta H}), the
      same factor times -d_beta Tr_R e^{-beta H};
    - with M = V diag(m) V^dag (one d_s-sized eigh),
      H* = -(ln M - (beta E_0 + ln Z_R) 1) / beta;
    - E* = d_beta(beta H*) = D ln[M](X) - <H_R>_beta 1 exactly, where the
      Frechet derivative of the matrix log is V [(V^dag X V) o L] V^dag
      with L the divided differences of ln on m (Daleckii-Krein);
    - the reduced Gibbs state is M / Tr M.
    """

    spectrum: SpectralDecomposition
    state_spectrum: SpectralDecomposition  # Gibbs populations on H's eigenvectors
    ensemble: GibbsEnsemble
    reservoir: GibbsEnsemble
    reduced: DensityMatrix
    m: np.ndarray
    x: np.ndarray
    bundle: MeanForceBundle
    u_r: float

    @classmethod
    def build(cls, h_sur: Operator, reservoir: GibbsEnsemble) -> "ThermalContext":
        """Context of `h_sur` against an already computed reservoir ensemble."""
        if len(h_sur.dims) != 2:
            raise BadFactorCount(f"need exactly two factors, got dims {h_sur.dims}")
        beta = reservoir.beta
        dec = hermitian_eig(h_sur)
        ens, weights = _gibbs_from(h_sur, dec, beta)
        evals = dec.eigenvalues
        d_s, d_r = h_sur.dims
        # Tr_R(U diag(f) U^dag) in one product: rows of U grouped by s, the
        # column (r, k) of the grouped matrix weighted by f_k
        grouped = dec.eigenvectors.reshape(d_s, d_r * evals.size)

        def traced(f: np.ndarray) -> np.ndarray:
            return _symmetrized((grouped * np.tile(f, d_r)) @ grouped.conj().T)

        m, x = traced(weights), traced(weights * evals)
        mdec = hermitian_eig(Operator(m, (d_s,)))
        mvals, v = mdec.eigenvalues, mdec.eigenvectors
        if mvals.min() <= 0:
            raise NotPositiveDefinite(f"Tr_R e^(-beta H) has eigenvalue {mvals.min():.3e}")
        offset = beta * evals.min() + reservoir.log_partition
        hstar_evals = -(np.log(mvals) - offset) / beta
        h_star = Operator(_symmetrized(mdec.apply(lambda _: hstar_evals)), (d_s,))
        dlog = v @ ((v.conj().T @ x @ v) * _log_divided_differences(mvals)) @ v.conj().T
        u_r = reservoir.mean_energy
        e_star = Operator(_symmetrized(dlog) - u_r * np.eye(d_s), (d_s,))
        log_z_star = _log_partition(hstar_evals, beta)
        bundle = MeanForceBundle(h_star, e_star, log_z_star, -log_z_star / beta)
        z = weights.sum()
        populations = SpectralDecomposition(weights / z, dec.eigenvectors, dec.dims)
        reduced = DensityMatrix(Operator(m / z, (d_s,)))
        return cls(dec, populations, ens, reservoir, reduced, m, x, bundle, u_r)

    def u_diff(self, rho_sur: DensityMatrix) -> float:
        """Total internal energy minus the bare reservoir's equilibrium energy."""
        return self.ensemble.hamiltonian.expectation(rho_sur.op) - self.u_r


def thermal_context(h_sur: Operator, h_r: Operator, beta: float) -> ThermalContext:
    """Thermal context of a bipartite Hamiltonian over reservoir `h_r` at beta."""
    return ThermalContext.build(h_sur, gibbs(h_r, beta))


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
        -ctx.ensemble.log_partition / beta,
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
