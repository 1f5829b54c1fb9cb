"""Seeded random-Hamiltonian invariant audits.

Each suite draws reproducible random problems, evaluates one structural
identity, and reports the worst residual against its tolerance.  The CLI's
audit command is a thin wrapper around `run_invariant_audit`.
"""

from __future__ import annotations

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


def run_invariant_audit(
    seed: int,
    n_quenches: int,
    tolerances: dict[str, float] | None = None,
) -> tuple[list[str], bool]:
    """Run every invariant suite with a fixed seed; deterministic report lines and verdict.

    Each suite's worst residual is the max over its cases, floored at 0.  A NaN
    residual makes its suite's worst NaN, which fails.
    """
    if n_quenches < 1:
        raise ValueError(f"n_quenches must be at least 1, got {n_quenches}")
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    rng = np.random.default_rng(seed)

    def eig_case():
        # eigendecomposition reconstruction over random Hermitians, sides 2-16
        d = int(rng.integers(2, 17))
        a = random_hermitian(rng, d)
        defect = np.max(np.abs(a.matrix - a.eig.reconstruct()))
        return (defect / max(1.0, np.max(np.abs(a.matrix))),)

    def statics_case():
        # partition-function factorization and reduced-state identity
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.2, 2.0))
        h_sur, _, h_r, _ = random_bipartite(rng, 2, d_r)
        h_star = mean_force_hamiltonian(h_sur, h_r, beta)
        lhs = log_partition(h_sur, beta)
        rhs = log_partition(h_star, beta) + log_partition(h_r, beta)
        pi_s = partial_trace(gibbs(h_sur, beta).state.op, "S")
        rebuilt = gibbs(h_star, beta).state.op
        return abs(lhs - rhs), np.max(np.abs(pi_s.matrix - rebuilt.matrix))

    def gibbs_case():
        # U_E* = U_diff at global Gibbs, strong coupling
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.2, 2.0))
        h_sur, _, h_r, _ = random_bipartite(rng, 2, d_r, v_scale=1.0)
        ens = gibbs(h_sur, beta)
        bun = mean_force_bundle(h_sur, h_r, beta)
        u_diff = internal_energy_diff(ens.state, h_sur, h_r, beta)
        rho_s = DensityMatrix(partial_trace(ens.state.op, "S"))
        return (abs(u_diff - internal_energy_estar(rho_s, bun.e_star)),)

    def weak_case():
        # weak-coupling collapse: V = 0 makes both effective operators equal H_S
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.2, 2.0))
        h_s = random_hermitian(rng, 2)
        h_r = random_hermitian(rng, d_r)
        h_sur = embed_system(h_s, d_r) + embed_reservoir(h_r, 2)
        bun = mean_force_bundle(h_sur, h_r, beta)
        return tuple(np.max(np.abs(op.matrix - h_s.matrix)) for op in (bun.h_star, bun.e_star))

    def quench_case():
        # relative-entropy equalities and the second law over random quenches
        d_r = int(rng.integers(2, 5))
        # moderate beta * spectral spread keeps every Gibbs weight far above
        # machine precision, so the spectral relative entropy is trustworthy
        beta = float(rng.uniform(0.2, 1.2))
        h_a, _, h_r, _ = random_bipartite(rng, 2, d_r, scale=0.5)
        h_b, _, _, _ = random_bipartite(rng, 2, d_r, scale=0.5)
        spec = QuenchSpec(h_a, h_b, h_r, beta, kind=GENERAL_QUENCH,
                          final_mode=EQUILIBRATED)
        led = run_quench(spec)
        audit = second_law_audit(spec, led)
        # np.maximum, unlike max(), keeps a NaN of either ledger
        heat = np.maximum(led.q_diff - led.delta_s_diff / beta,
                          led.q_hstar - led.delta_s_hstar / beta)
        return (audit.residual_diff, audit.residual_hstar,
                -led.diss_diff, -led.diss_hstar, heat)

    def spin_case():
        # two-spin closed forms: diff and E* entropy changes coincide
        params = random_two_spin_params(rng)
        led = system_quench_ledger(params, float(rng.uniform(-2, 2)))
        led2 = interaction_quench_ledger(
            params.epsilon, params.alpha, params.gamma, params.chi, params.beta
        )
        return (np.maximum(abs(led.delta_s_diff - led.delta_s_estar),
                           abs(led2.delta_s_diff - led2.delta_s_estar)),)

    suites = (  # (suite names, case count, one case's residual per name), in report order
        (("eig_reconstruction",), 100, eig_case),
        (("factorization", "reduced_state"), 50, statics_case),
        (("gibbs_estar_diff",), n_quenches, gibbs_case),
        (("weak_coupling_hstar", "weak_coupling_estar"), 50, weak_case),
        (("relative_entropy_diff", "relative_entropy_hstar", "second_law_diff",
          "second_law_hstar", "heat_second_law"), n_quenches, quench_case),
        (("entropy_diff_estar",), 50, spin_case),
    )
    lines, passed = [f"invariant audit, seed={seed}"], True
    for names, cases, case in suites:
        worst = np.max([case() for _ in range(cases)], axis=0, initial=0.0)
        for name, value in zip(names, worst.tolist()):
            ok = value <= tol[name]  # False for NaN
            passed = passed and ok
            lines.append(f"{'PASS' if ok else 'FAIL'}  {name:24s} worst={value:.6e} "
                         f"tol={tol[name]:.1e} cases={cases}")
    lines.append("RESULT " + ("PASS" if passed else "FAIL"))
    return lines, passed
