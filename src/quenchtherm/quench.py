"""Sudden-quench processes: work, heat, entropy ledgers and second-law audits.

A quench replaces the global Hamiltonian A by B at t = 0 while the state is
momentarily unchanged, so the instantaneous internal-energy jump is work.
The subsequent energy exchange up to t_f is heat.  Three internal-energy
definitions (diff, H*, E*) give three parallel ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, QuenchThermError, SupportMismatch
from .operators import (
    DensityMatrix,
    Operator,
    SpectralDecomposition,
    hermitian_eig,
    partial_trace,
    tensor_product,
    identity,
)
from .thermo import (
    GibbsEnsemble,
    ThermalContext,
    gibbs,
    internal_energy_estar,
    internal_energy_hstar,
    thermal_entropy,
)

SYSTEM_QUENCH = "system"
INTERACTION_QUENCH = "interaction"
GENERAL_QUENCH = "general"

EQUILIBRATED = "equilibrated"
UNITARY = "unitary"

#: Reported second-law violations must exceed this to count as physics,
#: not round-off.
VIOLATION_THRESHOLD = 1e-6

_STRUCTURE_TOL = 1e-10

#: Sigma eigenvalues at or below this count as outside its support.
_SUPPORT_FLOOR = 1e-14


@dataclass(frozen=True)
class QuenchSpec:
    """Pre/post global Hamiltonians, bare reservoir Hamiltonian, and protocol."""

    h_sur_a: Operator
    h_sur_b: Operator
    h_r: Operator
    beta: float
    kind: str = GENERAL_QUENCH
    final_mode: str = EQUILIBRATED
    t_f: float = 0.0

    def __post_init__(self):
        if self.kind not in (SYSTEM_QUENCH, INTERACTION_QUENCH, GENERAL_QUENCH):
            raise InvalidSpec(f"unknown quench kind {self.kind!r}")
        if self.final_mode not in (EQUILIBRATED, UNITARY):
            raise InvalidSpec(f"unknown final mode {self.final_mode!r}")
        if len(self.h_sur_a.dims) != 2 or self.h_sur_a.dims != self.h_sur_b.dims:
            raise InvalidSpec(
                f"global Hamiltonians must share a bipartite space, got "
                f"{self.h_sur_a.dims} and {self.h_sur_b.dims}"
            )
        if self.h_r.dims != (self.h_sur_a.dims[1],):
            raise InvalidSpec(
                f"reservoir dims {self.h_r.dims} inconsistent with "
                f"global dims {self.h_sur_a.dims}"
            )
        if self.kind == SYSTEM_QUENCH:
            self._check_acts_on_s_only(self.h_sur_b - self.h_sur_a)
        elif self.kind == INTERACTION_QUENCH:
            d_s, d_r = self.h_sur_a.dims
            bare = self.h_sur_a - tensor_product(identity(d_s), self.h_r)
            self._check_acts_on_s_only(bare)

    @cached_property
    def _reservoir(self) -> GibbsEnsemble:
        return gibbs(self.h_r, self.beta)

    @cached_property
    def context_a(self) -> ThermalContext:
        """Equilibrium quantities of the pre-quench Hamiltonian, computed once."""
        return ThermalContext.build(self.h_sur_a, self._reservoir)

    @cached_property
    def context_b(self) -> ThermalContext:
        """Equilibrium quantities of the post-quench Hamiltonian, computed once."""
        return ThermalContext.build(self.h_sur_b, self._reservoir)

    @staticmethod
    def _check_acts_on_s_only(op: Operator):
        d_s, d_r = op.dims
        on_s = partial_trace(op, "S") * (1.0 / d_r)
        lifted = tensor_product(on_s, identity(d_r))
        defect = float(np.max(np.abs(op.matrix - lifted.matrix)))
        scale = max(1.0, float(np.max(np.abs(op.matrix))))
        if defect > _STRUCTURE_TOL * scale:
            raise InvalidSpec(
                f"operator is not of the form (S operator) x identity; "
                f"defect {defect:.3e}"
            )


@dataclass(frozen=True)
class ThermoLedger:
    """Full output record of one quench process."""

    w_diff: float
    w_hstar: float
    w_estar: float
    q_diff: float
    q_hstar: float
    q_estar: float
    delta_f_s: float
    delta_s_diff: float
    delta_s_hstar: float
    delta_s_estar: float
    diss_diff: float
    diss_hstar: float
    diss_estar: float
    second_law_w: tuple[bool, bool, bool]
    second_law_q: tuple[bool, bool, bool] | None
    beta: float

    FIELDS = (
        "w_diff", "w_hstar", "w_estar",
        "q_diff", "q_hstar", "q_estar",
        "delta_f_s",
        "delta_s_diff", "delta_s_hstar", "delta_s_estar",
        "diss_diff", "diss_hstar", "diss_estar",
    )

    def numeric_fields(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.FIELDS}


def _evolve(rho: DensityMatrix, dec: SpectralDecomposition, t: float) -> DensityMatrix:
    u = dec.eigenvectors * np.exp(-1j * dec.eigenvalues * t)
    evolved = u @ (dec.eigenvectors.conj().T @ rho.matrix @ dec.eigenvectors) @ u.conj().T
    return DensityMatrix(Operator(evolved, rho.dims))


def evolve_unitary(rho: DensityMatrix, h: Operator, t: float) -> DensityMatrix:
    """Conjugate rho by e^{-iHt}, via the spectral decomposition of H."""
    return _evolve(rho, hermitian_eig(h), t)


def _reduced(rho: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(partial_trace(rho.op, "S"))


def _energies(ctx: ThermalContext, rho: DensityMatrix, rho_s: DensityMatrix):
    """(U_diff, U_H*, U_E*) of a global state and its reduced state under ctx."""
    return (
        ctx.u_diff(rho),
        internal_energy_hstar(rho_s, ctx.bundle.h_star),
        internal_energy_estar(rho_s, ctx.bundle.e_star),
    )


def run_quench(spec: QuenchSpec) -> ThermoLedger:
    """Execute a sudden quench and assemble its three-way thermodynamic ledger."""
    beta = spec.beta
    ctx_a, ctx_b = spec.context_a, spec.context_b
    bun_a, bun_b = ctx_a.bundle, ctx_b.bundle
    pi_a = ctx_a.ensemble.state
    pi_s_a, pi_s_b = ctx_a.reduced, ctx_b.reduced

    # Work: energy jump at t = 0 with the state frozen at pi_A.
    w_diff = (spec.h_sur_b - spec.h_sur_a).expectation(pi_a.op)
    w_hstar = (bun_b.h_star - bun_a.h_star).expectation(pi_s_a.op)
    w_estar = (bun_b.e_star - bun_a.e_star).expectation(pi_s_a.op)

    if spec.final_mode == EQUILIBRATED:
        rho_f = ctx_b.ensemble.state
        rho_s_f = pi_s_b
    else:
        rho_f = _evolve(pi_a, ctx_b.spectrum, spec.t_f)
        rho_s_f = _reduced(rho_f)

    # Heat: energy change from t = 0+ to t_f under the fixed Hamiltonian B.
    q_diff = spec.h_sur_b.expectation(rho_f.op) - spec.h_sur_b.expectation(pi_a.op)
    q_hstar = bun_b.h_star.expectation(rho_s_f.op) - bun_b.h_star.expectation(pi_s_a.op)
    q_estar = bun_b.e_star.expectation(rho_s_f.op) - bun_b.e_star.expectation(pi_s_a.op)

    delta_f_s = bun_b.f_s - bun_a.f_s

    # pi_A is A's equilibrium state; the final state is B's when equilibrated
    u_a = _energies(ctx_a, pi_a, pi_s_a)
    u_b = _energies(ctx_b, ctx_b.ensemble.state, pi_s_b)
    u_f = u_b if spec.final_mode == EQUILIBRATED else _energies(ctx_b, rho_f, rho_s_f)
    _check_first_law((w_diff, w_hstar, w_estar), (q_diff, q_hstar, q_estar), u_a, u_f)

    # Entropy changes between the equilibrium endpoints (independent of t_f).
    delta_s = tuple(
        thermal_entropy(ub, bun_b.f_s, beta) - thermal_entropy(ua, bun_a.f_s, beta)
        for ua, ub in zip(u_a, u_b)
    )
    diss = (w_diff - delta_f_s, w_hstar - delta_f_s, w_estar - delta_f_s)
    flags_w = tuple(d >= -VIOLATION_THRESHOLD for d in diss)
    if spec.final_mode == EQUILIBRATED:
        heats = (q_diff, q_hstar, q_estar)
        flags_q = tuple(
            ds / beta - q >= -VIOLATION_THRESHOLD for ds, q in zip(delta_s, heats)
        )
    else:
        flags_q = None

    return ThermoLedger(
        w_diff=w_diff, w_hstar=w_hstar, w_estar=w_estar,
        q_diff=q_diff, q_hstar=q_hstar, q_estar=q_estar,
        delta_f_s=delta_f_s,
        delta_s_diff=delta_s[0], delta_s_hstar=delta_s[1], delta_s_estar=delta_s[2],
        diss_diff=diss[0], diss_hstar=diss[1], diss_estar=diss[2],
        second_law_w=flags_w, second_law_q=flags_q, beta=beta,
    )


def _check_first_law(works, heats, u_initial, u_final):
    for name, w, q, u0, u1 in zip(("diff", "hstar", "estar"), works, heats,
                                  u_initial, u_final):
        residual = abs(w + q - (u1 - u0))
        if residual > 1e-9:
            raise QuenchThermError(
                f"first-law residual {residual:.3e} for definition {name}"
            )


def _relative_entropy(
    dec_r: SpectralDecomposition, dec_s: SpectralDecomposition,
    floor: float = _SUPPORT_FLOOR,
) -> float:
    """Tr(rho (ln rho - ln sigma)) from the eigenpairs of rho and sigma."""
    p = np.clip(dec_r.eigenvalues, 0.0, None)
    q = dec_s.eigenvalues

    overlap = np.abs(dec_r.eigenvectors.conj().T @ dec_s.eigenvectors) ** 2
    weight_on_sigma_modes = p @ overlap
    bad = (q <= floor) & (weight_on_sigma_modes > 1e-10)
    if np.any(bad):
        raise SupportMismatch(
            f"sigma eigenvalue(s) {q[bad]} below floor where rho has weight"
        )

    entropy_term = float(np.sum(p[p > 0] * np.log(p[p > 0])))
    cross_term = float(weight_on_sigma_modes @ np.log(np.clip(q, floor, None)))
    value = entropy_term - cross_term
    if value < -1e-12:
        raise QuenchThermError(f"relative entropy {value:.3e} below -1e-12")
    return max(value, 0.0)


def relative_entropy(
    rho: DensityMatrix, sigma: DensityMatrix, floor: float = _SUPPORT_FLOOR
) -> float:
    """Quantum relative entropy Tr(rho (ln rho - ln sigma)), nonnegative.

    Raises SupportMismatch when sigma is effectively rank-deficient where
    rho carries weight, signalling a divergent value.
    """
    if rho.dims != sigma.dims:
        raise DimensionMismatch(f"dims {rho.dims} vs {sigma.dims}")
    return _relative_entropy(hermitian_eig(rho.op), hermitian_eig(sigma.op), floor)


@dataclass(frozen=True)
class SecondLawAudit:
    """Second-law flags plus the relative-entropy equality residuals."""

    w_flags: tuple[bool, bool, bool]
    q_flags: tuple[bool, bool, bool] | None
    residual_diff: float
    residual_hstar: float


def second_law_audit(
    spec: QuenchSpec, ledger: ThermoLedger, tol: float = 1e-9
) -> SecondLawAudit:
    """Check W >= dF_S and Q <= dS/beta and the relative-entropy equalities.

    The dissipated work equals beta^{-1} D(pi_A || pi_B) exactly for the diff
    definition (global states) and the H* definition (reduced states); the
    reported residuals quantify how well the computed ledger matches that.
    """
    beta = spec.beta
    w_flags = tuple(
        getattr(ledger, name) - ledger.delta_f_s >= -tol
        for name in ("w_diff", "w_hstar", "w_estar")
    )
    if ledger.second_law_q is not None:
        q_flags = tuple(
            ds / beta - q >= -tol
            for ds, q in (
                (ledger.delta_s_diff, ledger.q_diff),
                (ledger.delta_s_hstar, ledger.q_hstar),
                (ledger.delta_s_estar, ledger.q_estar),
            )
        )
    else:
        q_flags = None

    ctx_a, ctx_b = spec.context_a, spec.context_b
    d_global = _relative_entropy(ctx_a.state_spectrum, ctx_b.state_spectrum)
    d_reduced = relative_entropy(ctx_a.reduced, ctx_b.reduced)
    residual_diff = abs(beta * (ledger.w_diff - ledger.delta_f_s) - d_global)
    residual_hstar = abs(beta * (ledger.w_hstar - ledger.delta_f_s) - d_reduced)
    return SecondLawAudit(w_flags, q_flags, residual_diff, residual_hstar)
