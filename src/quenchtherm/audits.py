"""Seeded random-Hamiltonian invariant audits.

Each suite draws reproducible random problems, evaluates one structural
identity, and reports the worst residual against its tolerance.  The CLI's
audit command is a thin wrapper around `run_invariant_audit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    DensityMatrix,
    Operator,
    partial_trace,
)
from .quench import (
    EQUILIBRATED,
    GENERAL_QUENCH,
    QuenchSpec,
    run_quench,
    second_law_audit,
)
from .thermo import (
    embed_reservoir,
    embed_system,
    gibbs,
    internal_energy_diff,
    internal_energy_estar,
    log_partition,
    mean_force_bundle,
    mean_force_hamiltonian,
)
from .twospin import TwoSpinParams, system_quench_ledger, interaction_quench_ledger

DEFAULT_TOLERANCES = {
    "eig_reconstruction": 1e-10,
    "factorization": 1e-9,
    "reduced_state": 1e-9,
    "gibbs_estar_diff": 1e-6,
    "weak_coupling_hstar": 1e-10,
    "weak_coupling_estar": 1e-7,
    "relative_entropy_diff": 1e-8,
    "relative_entropy_hstar": 1e-8,
    "second_law_diff": 1e-10,
    "second_law_hstar": 1e-10,
    "heat_second_law": 1e-9,
    "entropy_diff_estar": 1e-10,
}


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> Operator:
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator(scale * 0.5 * (raw + raw.conj().T), (d,))


def random_two_spin_params(rng: np.random.Generator) -> TwoSpinParams:
    """Two-spin parameters, drawn in the order epsilon, alpha, gamma, chi, beta."""
    return TwoSpinParams(
        epsilon=float(rng.uniform(-2, 2)),
        alpha=float(rng.uniform(-2, 2)),
        gamma=float(rng.uniform(-1.5, 1.5)),
        chi=float(rng.uniform(-1.5, 1.5)),
        beta=float(rng.uniform(0.3, 2.0)),
    )


def random_bipartite(
    rng: np.random.Generator,
    d_s: int,
    d_r: int,
    v_scale: float = 1.0,
    scale: float = 1.0,
) -> tuple[Operator, Operator, Operator, Operator]:
    """Random (H_SUR, H_S, H_R, V) on a d_s x d_r space.

    `scale` multiplies every term; `v_scale` additionally multiplies the
    coupling, so v_scale = 1 keeps ||V|| comparable to ||H_S||.
    """
    h_s = random_hermitian(rng, d_s, scale)
    h_r = random_hermitian(rng, d_r, scale)
    raw = rng.standard_normal((d_s * d_r,) * 2) + 1j * rng.standard_normal((d_s * d_r,) * 2)
    v = Operator(scale * v_scale * 0.5 * (raw + raw.conj().T), (d_s, d_r))
    h_sur = embed_system(h_s, d_r) + embed_reservoir(h_r, d_s) + v
    return h_sur, h_s, h_r, v


@dataclass
class SuiteResult:
    name: str
    worst: float
    tolerance: float
    cases: int

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name:24s} worst={self.worst:.6e} "
            f"tol={self.tolerance:.1e} cases={self.cases}"
        )


@dataclass
class AuditReport:
    seed: int
    results: list[SuiteResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [f"invariant audit, seed={self.seed}"]
        out.extend(r.line() for r in self.results)
        out.append("RESULT " + ("PASS" if self.passed else "FAIL"))
        return out


def run_invariant_audit(
    seed: int,
    n_quenches: int = 200,
    tolerances: dict[str, float] | None = None,
) -> AuditReport:
    """Run every invariant suite with a fixed seed; deterministic output."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    rng = np.random.default_rng(seed)
    report = AuditReport(seed=seed)

    def add(name, worst, cases):
        report.results.append(SuiteResult(name, worst, tol[name], cases))

    # eigendecomposition reconstruction over random Hermitians, sides 2-16
    worst = 0.0
    n_eig = 100
    for _ in range(n_eig):
        d = int(rng.integers(2, 17))
        a = random_hermitian(rng, d)
        dec = a.eig
        defect = np.max(np.abs(a.matrix - dec.reconstruct()))
        worst = max(worst, defect / max(1.0, np.max(np.abs(a.matrix))))
    add("eig_reconstruction", worst, n_eig)

    # partition-function factorization and reduced-state identity
    worst_fac = 0.0
    worst_red = 0.0
    n_stat = 50
    for _ in range(n_stat):
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.2, 2.0))
        h_sur, h_s, h_r, v = random_bipartite(rng, 2, d_r)
        h_star = mean_force_hamiltonian(h_sur, h_r, beta)
        lhs = log_partition(h_sur, beta)
        rhs = log_partition(h_star, beta) + log_partition(h_r, beta)
        worst_fac = max(worst_fac, abs(lhs - rhs))
        pi_s = partial_trace(gibbs(h_sur, beta).state.op, "S")
        rebuilt = gibbs(h_star, beta).state.op
        worst_red = max(worst_red, float(np.max(np.abs(pi_s.matrix - rebuilt.matrix))))
    add("factorization", worst_fac, n_stat)
    add("reduced_state", worst_red, n_stat)

    # U_E* = U_diff at global Gibbs, strong coupling
    worst = 0.0
    n_gibbs = n_quenches
    for _ in range(n_gibbs):
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.2, 2.0))
        h_sur, h_s, h_r, v = random_bipartite(rng, 2, d_r, v_scale=1.0)
        ens = gibbs(h_sur, beta)
        bun = mean_force_bundle(h_sur, h_r, beta)
        u_diff = internal_energy_diff(ens.state, h_sur, h_r, beta)
        rho_s = DensityMatrix(partial_trace(ens.state.op, "S"))
        u_estar = internal_energy_estar(rho_s, bun.e_star)
        worst = max(worst, abs(u_diff - u_estar))
    add("gibbs_estar_diff", worst, n_gibbs)

    # weak-coupling collapse: V = 0 makes both effective operators equal H_S
    worst_h = 0.0
    worst_e = 0.0
    n_weak = 50
    for _ in range(n_weak):
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.2, 2.0))
        h_s = random_hermitian(rng, 2)
        h_r = random_hermitian(rng, d_r)
        h_sur = embed_system(h_s, d_r) + embed_reservoir(h_r, 2)
        bun = mean_force_bundle(h_sur, h_r, beta)
        worst_h = max(worst_h, float(np.max(np.abs(bun.h_star.matrix - h_s.matrix))))
        worst_e = max(worst_e, float(np.max(np.abs(bun.e_star.matrix - h_s.matrix))))
    add("weak_coupling_hstar", worst_h, n_weak)
    add("weak_coupling_estar", worst_e, n_weak)

    # relative-entropy equalities and the second law over random quenches
    worst_rd = worst_rh = 0.0
    worst_sl_diff = worst_sl_hstar = 0.0
    worst_q = 0.0
    for _ in range(n_quenches):
        d_r = int(rng.integers(2, 5))
        # moderate beta * spectral spread keeps every Gibbs weight far above
        # machine precision, so the spectral relative entropy is trustworthy
        beta = float(rng.uniform(0.2, 1.2))
        h_a, _, h_r, _ = random_bipartite(rng, 2, d_r, scale=0.5)
        h_b, _, _, _ = random_bipartite(rng, 2, d_r, scale=0.5)
        spec = QuenchSpec(h_a, h_b, h_r, beta, kind=GENERAL_QUENCH,
                          final_mode=EQUILIBRATED)
        ledger = run_quench(spec)
        audit = second_law_audit(spec, ledger)
        worst_rd = max(worst_rd, audit.residual_diff)
        worst_rh = max(worst_rh, audit.residual_hstar)
        worst_sl_diff = max(worst_sl_diff, -(ledger.w_diff - ledger.delta_f_s))
        worst_sl_hstar = max(worst_sl_hstar, -(ledger.w_hstar - ledger.delta_f_s))
        for ds, q in (
            (ledger.delta_s_diff, ledger.q_diff),
            (ledger.delta_s_hstar, ledger.q_hstar),
        ):
            worst_q = max(worst_q, q - ds / beta)
    add("relative_entropy_diff", worst_rd, n_quenches)
    add("relative_entropy_hstar", worst_rh, n_quenches)
    add("second_law_diff", max(worst_sl_diff, 0.0), n_quenches)
    add("second_law_hstar", max(worst_sl_hstar, 0.0), n_quenches)
    add("heat_second_law", max(worst_q, 0.0), n_quenches)

    # two-spin closed forms: diff and E* entropy changes coincide
    worst = 0.0
    n_spin = 50
    for _ in range(n_spin):
        params = random_two_spin_params(rng)
        led = system_quench_ledger(params, float(rng.uniform(-2, 2)))
        worst = max(worst, abs(led.delta_s_diff - led.delta_s_estar))
        led2 = interaction_quench_ledger(
            params.epsilon, params.alpha, params.gamma, params.chi, params.beta
        )
        worst = max(worst, abs(led2.delta_s_diff - led2.delta_s_estar))
    add("entropy_diff_estar", worst, n_spin)

    return report
