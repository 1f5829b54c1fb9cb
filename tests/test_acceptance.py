"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package and prints a single
pass/fail line, so a full run reads as a ten-line report card.  Tolerances
here are contractual; do not loosen them to make a failing build green.
"""

import numpy as np
import pytest

from quenchtherm import (
    DensityMatrix,
    QuenchSpec,
    ThermoLedger,
    gibbs,
    interaction_quench_ledger,
    internal_energy_diff,
    internal_energy_estar,
    log_partition,
    mean_force_bundle,
    partial_trace,
    pauli,
    relative_entropy,
    reservoir_hamiltonian,
    run_quench,
    system_quench_ledger,
    tensor_product,
    two_spin_hamiltonian,
    Operator,
    TwoSpinParams,
)
from quenchtherm.audits import random_bipartite, random_hermitian, random_two_spin_params
from quenchtherm.cli import main
from quenchtherm.quench import INTERACTION_QUENCH, SYSTEM_QUENCH
from quenchtherm.thermo import embed_reservoir, embed_system

ORACLE_REL = 1e-8
ORACLE_ABS = 1e-10


def report(capsys, num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"criterion {num:02d} {label}: {status}{tail}")
    assert ok, f"criterion {num} {label}{tail}"


def two_spin_spec(p_a, p_b, kind):
    return QuenchSpec(
        two_spin_hamiltonian(p_a), two_spin_hamiltonian(p_b),
        reservoir_hamiltonian(p_a), p_a.beta, kind=kind,
    )


def test_01_engine_matches_closed_form_oracle(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for kind in (SYSTEM_QUENCH, INTERACTION_QUENCH):
        for _ in range(100):
            p = random_two_spin_params(rng)
            if kind == SYSTEM_QUENCH:
                eps_b = float(rng.uniform(-2, 2))
                p_a = p
                p_b = TwoSpinParams(eps_b, p.alpha, p.gamma, p.chi, p.beta)
                oracle = system_quench_ledger(p_a, eps_b)
            else:
                p_a = TwoSpinParams(p.epsilon, p.alpha, 0.0, 0.0, p.beta)
                p_b = p
                oracle = interaction_quench_ledger(
                    p.epsilon, p.alpha, p.gamma, p.chi, p.beta
                )
            eng = run_quench(two_spin_spec(p_a, p_b, kind)).numeric_fields()
            ora = oracle.numeric_fields()
            for name in ThermoLedger.FIELDS:
                limit = ORACLE_ABS + ORACLE_REL * abs(ora[name])
                worst = max(worst, abs(eng[name] - ora[name]) / limit)
    report(capsys, 1, "oracle equivalence, 100 seeds per quench kind",
           worst <= 1.0, f"worst tolerance fraction {worst:.3f}")


def _dissipation_pattern(ledgers):
    """Shared check: diff and H* never dissipate negatively, E* does."""
    min_diff = min(l.diss_diff for l in ledgers)
    min_hstar = min(l.diss_hstar for l in ledgers)
    min_estar = min(l.diss_estar for l in ledgers)
    ok = min_diff >= -1e-10 and min_hstar >= -1e-10 and min_estar < -1e-6
    return ok, f"min diss: diff {min_diff:.2e} hstar {min_hstar:.2e} estar {min_estar:.2e}"


def test_02_field_sweep_second_law_pattern(capsys):
    p_a = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
    ledgers = [
        run_quench(two_spin_spec(
            p_a, TwoSpinParams(float(e), 0.8, 1.2, 1.8, 1.0), SYSTEM_QUENCH))
        for e in np.linspace(-5, 5, 41)
    ]
    ok, detail = _dissipation_pattern(ledgers)
    report(capsys, 2, "field-quench sweep dissipation pattern", ok, detail)


def test_03_coupling_sweep_second_law_pattern(capsys):
    ledgers = []
    p_a = TwoSpinParams(1.0, 5.0, 0.0, 0.0, 1.0)
    for g in np.linspace(-3, 3, 61):
        p_b = TwoSpinParams(1.0, 5.0, float(g), 1.2, 1.0)
        ledgers.append(run_quench(two_spin_spec(p_a, p_b, INTERACTION_QUENCH)))
    ok, detail = _dissipation_pattern(ledgers)
    report(capsys, 3, "coupling-quench sweep dissipation pattern", ok, detail)


def test_04_commuting_sweep_works_coincide(capsys):
    p_a = TwoSpinParams(0.0, 0.8, 1.2, 0.0, 1.0)
    worst_pair = 0.0
    min_diss = np.inf
    for e in np.linspace(-5, 5, 41):
        led = run_quench(two_spin_spec(
            p_a, TwoSpinParams(float(e), 0.8, 1.2, 0.0, 1.0), SYSTEM_QUENCH))
        works = (led.w_diff, led.w_hstar, led.w_estar)
        worst_pair = max(worst_pair, max(works) - min(works))
        min_diss = min(min_diss, led.diss_diff, led.diss_hstar, led.diss_estar)
    ok = worst_pair <= 1e-7 and min_diss >= -1e-10
    report(capsys, 4, "commuting-coupling sweep, all works coincide", ok,
           f"max pairwise work gap {worst_pair:.2e}, min diss {min_diss:.2e}")


def test_05_dissipated_work_equals_relative_entropy(capsys):
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(200):
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.2, 1.2))
        h_a, _, h_r, _ = random_bipartite(rng, 2, d_r, scale=0.5)
        h_b, _, _, _ = random_bipartite(rng, 2, d_r, scale=0.5)
        spec = QuenchSpec(h_a, h_b, h_r, beta)
        led = run_quench(spec)
        pi_a = gibbs(h_a, beta).state
        pi_b = gibbs(h_b, beta).state
        d_global = relative_entropy(pi_a, pi_b)
        pi_a_s = DensityMatrix(partial_trace(pi_a.op, "S"))
        pi_b_s = DensityMatrix(partial_trace(pi_b.op, "S"))
        d_local = relative_entropy(pi_a_s, pi_b_s)
        worst = max(
            worst,
            abs(beta * (led.w_diff - led.delta_f_s) - d_global),
            abs(beta * (led.w_hstar - led.delta_f_s) - d_local),
        )
    report(capsys, 5, "dissipated work equals relative entropy, 200 quenches",
           worst <= 1e-8, f"worst residual {worst:.2e}")


def test_06_uncoupled_limit_collapses(capsys):
    rng = np.random.default_rng(27182)
    worst_h = worst_e = worst_u = 0.0
    for _ in range(50):
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.3, 1.5))
        h_s = random_hermitian(rng, 2)
        h_r = random_hermitian(rng, d_r)
        h_sur = embed_system(h_s, d_r) + embed_reservoir(h_r, 2)
        bun = mean_force_bundle(h_sur, h_r, beta)
        worst_h = max(worst_h, float(np.max(np.abs(bun.h_star.matrix - h_s.matrix))))
        worst_e = max(worst_e, float(np.max(np.abs(bun.e_star.matrix - h_s.matrix))))
        ens = gibbs(h_sur, beta)
        u_diff = internal_energy_diff(ens.state, h_sur, h_r, beta)
        u_s0 = h_s.expectation(gibbs(h_s, beta).state.op)
        worst_u = max(worst_u, abs(u_diff - u_s0))
    ok = worst_h <= 1e-10 and worst_e <= 1e-7 and worst_u <= 1e-9
    report(capsys, 6, "uncoupled limit reduces to bare system", ok,
           f"hstar {worst_h:.2e} estar {worst_e:.2e} energy {worst_u:.2e}")


def test_07_equilibrium_energies_agree_strong_coupling(capsys):
    rng = np.random.default_rng(16180)
    worst = 0.0
    for _ in range(200):
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.2, 1.5))
        h_sur, _, h_r, _ = random_bipartite(rng, 2, d_r, v_scale=1.0)
        ens = gibbs(h_sur, beta)
        bun = mean_force_bundle(h_sur, h_r, beta)
        rho_s = DensityMatrix(partial_trace(ens.state.op, "S"))
        u_diff = internal_energy_diff(ens.state, h_sur, h_r, beta)
        u_estar = internal_energy_estar(rho_s, bun.e_star)
        worst = max(worst, abs(u_diff - u_estar))
    report(capsys, 7, "diff and E* energies agree at equilibrium, 200 draws",
           worst <= 1e-6, f"worst gap {worst:.2e}")


def test_08_commuting_coupling_quench_works_agree(capsys):
    rng = np.random.default_rng(14142)
    worst_h = worst_e = 0.0
    for _ in range(50):
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.3, 1.5))
        h_r = Operator(np.diag(rng.standard_normal(d_r)).astype(complex), (d_r,))
        v = tensor_product(
            pauli("z"),
            Operator(np.diag(rng.standard_normal(d_r)).astype(complex), (d_r,)),
        )
        h_s_a = float(rng.uniform(-2, 2)) * pauli("z")
        h_s_b = float(rng.uniform(-2, 2)) * pauli("z")
        h_a = embed_system(h_s_a, d_r) + embed_reservoir(h_r, 2) + v
        h_b = embed_system(h_s_b, d_r) + embed_reservoir(h_r, 2) + v
        led = run_quench(QuenchSpec(h_a, h_b, h_r, beta, kind=SYSTEM_QUENCH))
        worst_h = max(worst_h, abs(led.w_diff - led.w_hstar))
        worst_e = max(worst_e, abs(led.w_diff - led.w_estar))
    ok = worst_h <= 1e-9 and worst_e <= 1e-7
    report(capsys, 8, "diagonal-coupling quenches equalize works", ok,
           f"|W_diff-W_hstar| {worst_h:.2e} |W_diff-W_estar| {worst_e:.2e}")


def test_09_factorization_heat_bound_entropy_identity(capsys):
    rng = np.random.default_rng(17320)
    worst_fac = worst_q = worst_ds = 0.0
    for _ in range(100):
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.2, 1.2))
        h_a, _, h_r, _ = random_bipartite(rng, 2, d_r, scale=0.5)
        h_b, _, _, _ = random_bipartite(rng, 2, d_r, scale=0.5)
        f_sur = -log_partition(h_a, beta) / beta
        f_s = mean_force_bundle(h_a, h_r, beta).f_s
        f_r = -log_partition(h_r, beta) / beta
        worst_fac = max(worst_fac, abs(beta * (f_sur - f_s - f_r)))
        led = run_quench(QuenchSpec(h_a, h_b, h_r, beta))
        worst_q = max(
            worst_q,
            led.q_diff - led.delta_s_diff / beta,
            led.q_hstar - led.delta_s_hstar / beta,
        )
    for _ in range(100):
        led = system_quench_ledger(random_two_spin_params(rng), float(rng.uniform(-2, 2)))
        worst_ds = max(worst_ds, abs(led.delta_s_diff - led.delta_s_estar))
    ok = worst_fac <= 1e-9 and worst_q <= 1e-9 and worst_ds <= 1e-10
    report(capsys, 9, "factorization, heat bound, entropy identity", ok,
           f"fac {worst_fac:.2e} heat {worst_q:.2e} entropy {worst_ds:.2e}")


SWEEP_CFG = """\
[run]
mode = sweep
model = two_spin
quench = system
beta = 1.0

[parameters]
epsilon_a = 0.0
alpha = 0.8
gamma = 1.2
chi = 1.8

[sweep]
variable = epsilon_b
start = -5.0
stop = 5.0
count = 21

[output]
path = {out}
"""


def test_10_cli_outputs_deterministic(capsys, tmp_path):
    audits = []
    for name in ("a1.txt", "a2.txt"):
        code = main(["audit", "--seed", "7", "--out", str(tmp_path / name)])
        capsys.readouterr()
        assert code == 0
        audits.append((tmp_path / name).read_bytes())
    sweeps = []
    for tag in ("s1", "s2"):
        out = tmp_path / f"{tag}.csv"
        cfg = tmp_path / f"{tag}.ini"
        cfg.write_text(SWEEP_CFG.format(out=out))
        code = main(["sweep", "--config", str(cfg)])
        capsys.readouterr()
        assert code == 0
        sweeps.append(
            out.read_bytes() + (tmp_path / f"{tag}.csv.summary.txt").read_bytes()
        )
    ok = audits[0] == audits[1] and sweeps[0] == sweeps[1]
    report(capsys, 10, "audit and sweep outputs byte-identical", ok)
