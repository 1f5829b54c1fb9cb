from dataclasses import fields, replace

import numpy as np
import pytest

from quenchtherm import (
    DensityMatrix,
    DimensionMismatch,
    InvalidSpec,
    NotHermitian,
    NotPositiveDefinite,
    Operator,
    QuenchSpec,
    QuenchThermError,
    SupportMismatch,
    evolve_unitary,
    gibbs,
    identity,
    internal_energy_diff,
    internal_energy_estar,
    mean_force_bundle,
    partial_trace,
    pauli,
    relative_entropy,
    run_quench,
    run_sweep,
    second_law_audit,
    tensor_product,
    thermal_entropy,
)
from quenchtherm import quench, thermo
from quenchtherm.audits import DEFAULT_TOLERANCES, random_bipartite
from quenchtherm.quench import (
    EQUILIBRATED,
    GENERAL_QUENCH,
    INTERACTION_QUENCH,
    SYSTEM_QUENCH,
    UNITARY,
    VIOLATION_THRESHOLD,
    ThermoLedger,
    _check_first_law,
    _records,
)
from quenchtherm.thermo import embed_reservoir, embed_system
from quenchtherm.twospin import (
    TwoSpinParams,
    reservoir_hamiltonian,
    system_quench_ledger,
    two_spin_hamiltonian,
    two_spin_matrices,
)

# relative entropy between Gibbs states of 0.7*sz and 0.3*sz + 0.5*sx at
# beta = 1, precomputed by direct 2x2 spectral evaluation
QUBIT_REL_ENT = 0.1756357365109084


def two_spin_spec(p_a, p_b, kind, **kwargs):
    return QuenchSpec(
        two_spin_hamiltonian(p_a),
        two_spin_hamiltonian(p_b),
        reservoir_hamiltonian(p_a),
        p_a.beta,
        kind=kind,
        **kwargs,
    )


class TestQuenchSpecValidation:
    def test_system_quench_accepts_s_only_change(self):
        p_a = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        p_b = TwoSpinParams(1.5, 0.8, 1.2, 1.8, 1.0)
        two_spin_spec(p_a, p_b, SYSTEM_QUENCH)

    def test_system_quench_rejects_coupling_change(self):
        p_a = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        p_b = TwoSpinParams(0.0, 0.8, 0.5, 1.8, 1.0)
        with pytest.raises(InvalidSpec):
            two_spin_spec(p_a, p_b, SYSTEM_QUENCH)

    def test_interaction_quench_requires_uncoupled_start(self):
        p_a = TwoSpinParams(1.0, 5.0, 0.3, 0.0, 1.0)
        p_b = TwoSpinParams(1.0, 5.0, 0.7, 1.2, 1.0)
        with pytest.raises(InvalidSpec):
            two_spin_spec(p_a, p_b, INTERACTION_QUENCH)

    def test_dims_must_match(self):
        h4 = Operator(np.zeros((4, 4)), (2, 2))
        h6 = Operator(np.zeros((6, 6)), (2, 3))
        with pytest.raises(DimensionMismatch, match=r"^dims \(2, 2\) vs \(2, 3\)$"):
            QuenchSpec(h4, h6, Operator(np.zeros((2, 2)), (2,)), 1.0)

    @pytest.mark.parametrize("kind", [SYSTEM_QUENCH, INTERACTION_QUENCH, GENERAL_QUENCH])
    def test_reservoir_must_be_the_trailing_factor(self, kind):
        h_a = two_spin_hamiltonian(TwoSpinParams(0.0, 0.8, 0.0, 0.0, 1.0))
        h_r = Operator(np.diag([0.1, 0.2, 0.3]), (3,))
        message = r"^reservoir dims \(3,\) vs global dims \(2, 2\)$"
        with pytest.raises(DimensionMismatch, match=message):
            QuenchSpec(h_a, h_a, h_r, 1.0, kind=kind)
        with pytest.raises(DimensionMismatch, match=message):
            run_sweep(h_a, h_a.matrix[None], h_r, 1.0, kind)

    @pytest.mark.parametrize("t_f", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_f_rejected(self, t_f):
        p_a = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        p_b = TwoSpinParams(1.5, 0.8, 1.2, 1.8, 1.0)
        with pytest.raises(InvalidSpec, match="t_f"):
            two_spin_spec(p_a, p_b, SYSTEM_QUENCH, final_mode=UNITARY, t_f=t_f)

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_beta_rejected(self, beta):
        p = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        h_a, h_r = two_spin_hamiltonian(p), reservoir_hamiltonian(p)
        with pytest.raises(InvalidSpec, match="beta must be positive and finite"):
            QuenchSpec(h_a, h_a, h_r, beta)
        with pytest.raises(InvalidSpec, match="beta must be positive and finite"):
            run_sweep(h_a, h_a.matrix[None], h_r, beta)

    @pytest.mark.parametrize("kind", [SYSTEM_QUENCH, INTERACTION_QUENCH])
    def test_nan_structure_defect_rejected(self, kind):
        # NaN compares false with everything, so `defect > tol` let it pass
        p_a = TwoSpinParams(1.0, 5.0, 0.0, 0.0, 1.0)
        h_a, h_r = two_spin_hamiltonian(p_a), reservoir_hamiltonian(p_a)
        bad = h_a.matrix.copy()
        bad[1, 2] = np.nan
        h_a, h_b = (h_a, Operator(bad, (2, 2))) if kind == SYSTEM_QUENCH else (
            Operator(bad, (2, 2)), h_a)
        with pytest.raises(InvalidSpec, match="defect nan"):
            QuenchSpec(h_a, h_b, h_r, 1.0, kind=kind)

    @pytest.mark.parametrize("side", ["a", "b", "r"])
    def test_non_hermitian_rejected_at_construction(self, side):
        h_a, _, h_r, _ = random_bipartite(np.random.default_rng(1), 2, 2)
        ops = {"a": h_a, "b": h_a, "r": h_r}
        bad = ops[side].matrix.copy()
        bad[0, 1] += 0.5
        ops[side] = Operator(bad, ops[side].dims)
        with pytest.raises(NotHermitian, match="hermiticity defect 5.000e-01"):
            QuenchSpec(ops["a"], ops["b"], ops["r"], 1.0)

    def test_negative_t_f_accepted(self):
        p_a = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        p_b = TwoSpinParams(1.5, 0.8, 1.2, 1.8, 1.0)
        ledger = run_quench(
            two_spin_spec(p_a, p_b, SYSTEM_QUENCH, final_mode=UNITARY, t_f=-2.7)
        )
        assert all(np.isfinite(list(ledger.numeric_fields().values())))
        assert abs(ledger.q_diff) <= 1e-10


class TestRunQuench:
    def test_identity_quench_all_zero(self):
        p = TwoSpinParams(0.3, 0.8, 1.2, 1.8, 1.0)
        ledger = run_quench(two_spin_spec(p, p, SYSTEM_QUENCH))
        for name, value in ledger.numeric_fields().items():
            assert abs(value) <= 1e-9, name
        assert all(ledger.second_law_w)
        assert all(ledger.second_law_q)

    def test_commuting_coupling_equalizes_works(self):
        # chi = 0 makes the system term commute with the coupling, so the
        # three work definitions coincide
        p_a = TwoSpinParams(0.0, 0.8, 1.2, 0.0, 1.0)
        p_b = TwoSpinParams(2.1, 0.8, 1.2, 0.0, 1.0)
        ledger = run_quench(two_spin_spec(p_a, p_b, SYSTEM_QUENCH))
        assert ledger.w_diff == pytest.approx(ledger.w_hstar, abs=1e-9)
        assert ledger.w_diff == pytest.approx(ledger.w_estar, abs=1e-7)

    def test_commuting_random_coupling(self):
        # V diagonal in the S z-basis on the S side commutes with diagonal
        # system Hamiltonians; all works agree
        rng = np.random.default_rng(61)
        d_r = 3
        h_r = Operator(np.diag(rng.standard_normal(d_r)).astype(complex), (d_r,))
        v = tensor_product(
            pauli("z"), Operator(np.diag(rng.standard_normal(d_r)).astype(complex), (d_r,))
        )
        h_s_a = 0.4 * pauli("z")
        h_s_b = -1.3 * pauli("z")
        h_a = embed_system(h_s_a, d_r) + embed_reservoir(h_r, 2) + v
        h_b = embed_system(h_s_b, d_r) + embed_reservoir(h_r, 2) + v
        ledger = run_quench(QuenchSpec(h_a, h_b, h_r, 0.9, kind=SYSTEM_QUENCH))
        assert abs(ledger.w_diff - ledger.w_hstar) <= 1e-9
        assert abs(ledger.w_diff - ledger.w_estar) <= 1e-7

    def test_work_independent_of_final_mode(self):
        p_a = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        p_b = TwoSpinParams(1.5, 0.8, 1.2, 1.8, 1.0)
        eq = run_quench(two_spin_spec(p_a, p_b, SYSTEM_QUENCH))
        un = run_quench(
            two_spin_spec(p_a, p_b, SYSTEM_QUENCH, final_mode=UNITARY, t_f=2.7)
        )
        for name in ("w_diff", "w_hstar", "w_estar", "delta_f_s"):
            assert getattr(eq, name) == getattr(un, name)
        assert un.second_law_q is None

    def test_unitary_mode_conserves_diff_heat(self):
        p_a = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        p_b = TwoSpinParams(1.5, 0.8, 1.2, 1.8, 1.0)
        for t_f in (0.0, 0.9, 4.2):
            ledger = run_quench(
                two_spin_spec(p_a, p_b, SYSTEM_QUENCH, final_mode=UNITARY, t_f=t_f)
            )
            assert ledger.q_diff == 0.0

    def test_first_law_check_flags_nan(self):
        # NaN compares false with everything, so `residual > tol` let it pass
        zeros = np.zeros((3, 2))
        heats = zeros.copy()
        heats[1, 1] = np.nan
        with pytest.raises(QuenchThermError, match="nan for definition hstar at stack index 1"):
            _check_first_law(zeros, heats, zeros, zeros)
        _check_first_law(zeros, zeros, zeros, zeros)

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_first_law_bound_in_the_energy_unit(self, k):
        # exact at any scale; a 5e-7 residual against terms of size 3 fails at any scale
        works, heats, u_a = (np.full((3, 2), 2.0 ** k * v) for v in (1.0, 0.5, -0.25))
        _check_first_law(works, heats, u_a, u_a + works + heats)
        with pytest.raises(QuenchThermError, match="first-law residual .* for definition diff"):
            _check_first_law(works, heats * (1 + 1e-6), u_a, u_a + works + heats)

    def test_first_law_random(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            d_r = int(rng.integers(2, 5))
            beta = float(rng.uniform(0.3, 1.2))
            h_a, _, h_r, _ = random_bipartite(rng, 2, d_r, scale=0.6)
            h_b, _, _, _ = random_bipartite(rng, 2, d_r, scale=0.6)
            # run_quench raises internally if any first-law residual > 1e-9
            run_quench(QuenchSpec(h_a, h_b, h_r, beta))

    def test_heat_second_law_equilibrated(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            d_r = int(rng.integers(2, 5))
            beta = float(rng.uniform(0.3, 1.2))
            h_a, _, h_r, _ = random_bipartite(rng, 2, d_r, scale=0.6)
            h_b, _, _, _ = random_bipartite(rng, 2, d_r, scale=0.6)
            led = run_quench(QuenchSpec(h_a, h_b, h_r, beta))
            assert led.q_diff <= led.delta_s_diff / beta + 1e-9
            assert led.q_hstar <= led.delta_s_hstar / beta + 1e-9


class TestRelativeEntropy:
    def test_self_distance_zero(self):
        rho = gibbs(0.7 * pauli("z"), 1.0).state
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_gibbs_pair_frozen_value(self):
        rho = gibbs(0.7 * pauli("z"), 1.0).state
        sigma = gibbs(0.3 * pauli("z") + 0.5 * pauli("x"), 1.0).state
        assert relative_entropy(rho, sigma) == pytest.approx(
            QUBIT_REL_ENT, abs=1e-12
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            h1, _, _, _ = random_bipartite(rng, 2, 2, scale=0.5)
            h2, _, _, _ = random_bipartite(rng, 2, 2, scale=0.5)
            d = relative_entropy(gibbs(h1, 1.0).state, gibbs(h2, 1.0).state)
            assert d >= 0.0

    def test_gibbs_states_need_no_eigh(self, eig_calls):
        rng = np.random.default_rng(29)
        h1, _, _, _ = random_bipartite(rng, 4, 8)
        h2, _, _, _ = random_bipartite(rng, 4, 8)
        rho, sigma = gibbs(h1, 0.8).state, gibbs(h2, 0.8).state
        assert eig_calls["eigh"] == [32, 32]
        d = relative_entropy(rho, sigma)
        assert eig_calls["eigh"] == [32, 32]
        assert eig_calls["eigvalsh"] == []
        # against Tr(rho ln rho) - Tr(rho ln sigma) from fresh decompositions
        p, _ = np.linalg.eigh(rho.matrix)
        q, v = np.linalg.eigh(sigma.matrix)
        ln_sigma = (v * np.log(q)) @ v.conj().T
        reference = np.sum(p * np.log(p)) - np.trace(rho.matrix @ ln_sigma).real
        assert d == pytest.approx(reference, abs=1e-12)

    def test_support_mismatch(self):
        pure = DensityMatrix(Operator(np.diag([1.0, 0.0]), (2,)))
        mixed = DensityMatrix(Operator(np.diag([0.0, 1.0]), (2,)))
        with pytest.raises(SupportMismatch):
            relative_entropy(mixed, pure)

    def test_matches_dissipated_work_identity(self):
        p_a = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        p_b = TwoSpinParams(2.2, 0.8, 1.2, 1.8, 1.0)
        spec = two_spin_spec(p_a, p_b, SYSTEM_QUENCH)
        ledger = run_quench(spec)
        pi_a = gibbs(spec.h_sur_a, 1.0).state
        pi_b = gibbs(spec.h_sur_b, 1.0).state
        d = relative_entropy(pi_a, pi_b)
        assert d == pytest.approx(ledger.w_diff - ledger.delta_f_s, abs=1e-10)


class TestThermoLedgerAssemble:
    """A ledger derives its dissipated works and second-law flags from its own fields."""

    EDGE = -VIOLATION_THRESHOLD
    BELOW = float(np.nextafter(-VIOLATION_THRESHOLD, -np.inf))

    @staticmethod
    def columns(*rows):
        """(3, 4) columns whose member 2 holds `rows` and the others zeros."""
        out = np.zeros((3, 4))
        out[:, 2] = rows
        return out

    def test_work_flag_threshold_is_inclusive(self):
        led = ThermoLedger(self.EDGE, self.BELOW, 0.0, 0.0, 0.0, 0.0,
                           0.0, 0.0, 0.0, 0.0, 1.0, equilibrated=True)
        assert (led.diss_diff, led.diss_hstar, led.diss_estar) == (self.EDGE, self.BELOW, 0.0)
        assert led.second_law_w == (True, False, True)
        zeros = np.zeros((3, 4))
        cols = ThermoLedger(*self.columns(self.EDGE, self.BELOW, 0.0), *zeros,
                            np.zeros(4), *zeros, 1.0, equilibrated=True)
        assert cols.diss_hstar.tolist() == [0.0, 0.0, self.BELOW, 0.0]
        assert np.array(cols.second_law_w).tolist() == [
            [True] * 4, [True, True, False, True], [True] * 4]
        assert _records(cols)[2] == led

    def test_heat_flag_threshold_is_inclusive(self):
        # dS / beta - Q equals -Q here
        led = ThermoLedger(0.0, 0.0, 0.0, -self.EDGE, -self.BELOW, 0.0,
                           0.0, 0.0, 0.0, 0.0, 1.0, equilibrated=True)
        assert led.second_law_q == (True, False, True)
        zeros = np.zeros((3, 4))
        cols = ThermoLedger(*zeros, *self.columns(-self.EDGE, -self.BELOW, 0.0),
                            np.zeros(4), *zeros, 1.0, equilibrated=True)
        assert np.array(cols.second_law_q).tolist() == [
            [True] * 4, [True, True, False, True], [True] * 4]
        assert _records(cols)[2] == led
        assert _records(cols)[0].second_law_q == (True, True, True)

    def test_dissipated_work_subtracts_free_energy(self):
        led = ThermoLedger(0.5, 0.25, -0.75, 0.1, 0.2, 0.5, 0.25,
                           0.4, 0.5, 0.6, 2.0, equilibrated=True)
        assert (led.diss_diff, led.diss_hstar, led.diss_estar) == (0.25, 0.0, -1.0)
        assert led.second_law_w == (True, True, False)
        assert led.second_law_q == (True, True, False)
        assert led.beta == 2.0

    def test_unequilibrated_has_no_heat_flags(self):
        led = ThermoLedger(0.5, 0.25, -0.75, 0.1, 0.2, 0.3, 0.25,
                           0.4, 0.5, 0.6, 2.0, equilibrated=False)
        assert led.second_law_q is None
        assert led.second_law_w == (True, True, False)

    # the oracle record of tests/data/run_two_spin.ini's quench
    RECORD = system_quench_ledger(TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0), 1.5)

    def test_replaced_work_moves_its_dissipation_and_flag(self):
        led = self.RECORD
        assert led.diss_diff > 0 and led.second_law_w == (True, True, True)
        shifted = replace(led, w_diff=led.w_diff - 1.0)
        assert shifted.diss_diff == (led.w_diff - 1.0) - led.delta_f_s < -VIOLATION_THRESHOLD
        assert shifted.second_law_w == (False, True, True)
        assert (shifted.diss_hstar, shifted.diss_estar) == (led.diss_hstar, led.diss_estar)

    def test_replaced_heat_or_mode_moves_the_heat_flags(self):
        led = self.RECORD
        assert led.second_law_q == (True, True, True)
        hot = replace(led, q_hstar=led.delta_s_hstar / led.beta + 1.0)
        assert hot.second_law_q == (True, False, True)
        unitary = replace(hot, equilibrated=False)
        assert unitary.second_law_q is None
        assert unitary.second_law_w == led.second_law_w
        assert replace(unitary, w_estar=led.delta_f_s - 1.0).second_law_w == (True, True, False)


class TestEnergyUnit:
    """Scaling every Hamiltonian by 2^k and beta and t_f by 2^-k is exact in floating
    point: each energy field scales by exactly 2^k, and each entropy and flag stays."""

    ENERGIES = [name for name in ThermoLedger.FIELDS if not name.startswith("delta_s")]
    P_A = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
    P_BARE = TwoSpinParams(1.0, 5.0, 0.0, 0.0, 1.0)

    @classmethod
    def case(cls, name):
        """(H_A, H_B, H_R, beta, kind, final mode, t_f) of the case at k = 0."""
        if name == "system":
            # the system golden sweep's epsilon_B = -5 point: E* violates its work law
            p = cls.P_A
            return (two_spin_hamiltonian(p), two_spin_hamiltonian(replace(p, epsilon=-5.0)),
                    reservoir_hamiltonian(p), p.beta, SYSTEM_QUENCH, EQUILIBRATED, 0.0)
        if name == "interaction":
            # the interaction golden sweep's first point, gamma_B = -3
            p = cls.P_BARE
            return (two_spin_hamiltonian(p), two_spin_hamiltonian(replace(p, gamma=-3.0, chi=1.2)),
                    reservoir_hamiltonian(p), p.beta, INTERACTION_QUENCH, EQUILIBRATED, 0.0)
        rng = np.random.default_rng(131)
        h_a, _, h_r, _ = random_bipartite(rng, 4, 8, scale=0.5)
        h_b = random_bipartite(rng, 4, 8, scale=0.5)[0]
        mode = EQUILIBRATED if name == "general" else UNITARY
        return h_a, h_b, h_r, 0.8, GENERAL_QUENCH, mode, 1.3

    @classmethod
    def ledger(cls, name, k):
        h_a, h_b, h_r, beta, kind, mode, t_f = cls.case(name)
        up, down = 2.0 ** k, 2.0 ** -k
        return run_quench(QuenchSpec(up * h_a, up * h_b, up * h_r, down * beta,
                                     kind=kind, final_mode=mode, t_f=down * t_f))

    @pytest.mark.parametrize("k", [-40, -20, 0, 10, 20, 40])
    @pytest.mark.parametrize("name", ["system", "interaction", "general", "general_unitary"])
    def test_energies_scale_and_verdicts_stay(self, name, k):
        unit, scaled = self.ledger(name, 0), self.ledger(name, k)
        for field in self.ENERGIES:
            assert getattr(scaled, field) == 2.0 ** k * getattr(unit, field), field
        for field in ("delta_s_diff", "delta_s_hstar", "delta_s_estar"):
            assert getattr(scaled, field) == getattr(unit, field), field
        assert scaled.beta == 2.0 ** -k * unit.beta
        assert (scaled.second_law_w, scaled.second_law_q) == (
            unit.second_law_w, unit.second_law_q)
        if name == "system":
            assert unit.second_law_w == (True, True, False)

    @pytest.mark.parametrize("k", [-40, 0])
    def test_coupled_start_refused_as_interaction_quench(self, k):
        # the structure defect is chi = 0.8 in H_A's own unit, so no floor lets it through
        p = replace(self.P_BARE, chi=0.8)
        h_a, h_r = two_spin_hamiltonian(p), reservoir_hamiltonian(p)
        with pytest.raises(InvalidSpec, match="not of the form"):
            QuenchSpec(2.0 ** k * h_a, 2.0 ** k * h_a, 2.0 ** k * h_r, 2.0 ** -k,
                       kind=INTERACTION_QUENCH)

    def test_all_zero_hamiltonians_pass_the_input_checks(self):
        zero = Operator(np.zeros((4, 4)), (2, 2))
        ledger = run_quench(QuenchSpec(zero, zero, Operator(np.zeros((2, 2)), (2,)), 1.0,
                                       kind=INTERACTION_QUENCH))
        assert all(v == 0.0 for v in ledger.numeric_fields().values())

    def test_small_system_change_checked_against_its_operands(self):
        # H_B - H_A is 5e-7 sz_S: a defect bound on the difference's own entries
        # (about 5e-17) refuses its 1.1e-16 round-off; one on H_A's and H_B's passes it
        p = TwoSpinParams(0.3, 0.8, 1.2, 1.8, 1.0)
        ledger = run_quench(two_spin_spec(p, replace(p, epsilon=0.3 + 1e-6), SYSTEM_QUENCH))
        assert abs(ledger.w_diff) < 1e-6


class TestSecondLawAudit:
    def test_identity_quench(self):
        p = TwoSpinParams(0.3, 0.8, 1.2, 1.8, 1.0)
        spec = two_spin_spec(p, p, SYSTEM_QUENCH)
        ledger = run_quench(spec)
        audit = second_law_audit(spec, ledger)
        # W >= dF_S and Q <= dS / beta for every definition
        assert all(d >= -1e-9 for d in (
            ledger.diss_diff, ledger.diss_hstar, ledger.diss_estar))
        assert ledger.second_law_q is not None
        assert all(ds / p.beta - q >= -1e-9 for ds, q in (
            (ledger.delta_s_diff, ledger.q_diff),
            (ledger.delta_s_hstar, ledger.q_hstar),
            (ledger.delta_s_estar, ledger.q_estar),
        ))
        assert audit.residual_diff <= 1e-12
        assert audit.residual_hstar <= 1e-12

    def test_residuals_random(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            d_r = int(rng.integers(2, 5))
            beta = float(rng.uniform(0.2, 1.2))
            h_a, _, h_r, _ = random_bipartite(rng, 2, d_r, scale=0.5)
            h_b, _, _, _ = random_bipartite(rng, 2, d_r, scale=0.5)
            spec = QuenchSpec(h_a, h_b, h_r, beta)
            ledger = run_quench(spec)
            audit = second_law_audit(spec, ledger)
            assert audit.residual_diff <= 1e-8
            assert audit.residual_hstar <= 1e-8
            assert ledger.diss_diff >= -1e-9 and ledger.diss_hstar >= -1e-9

    @pytest.mark.parametrize("d_r", [4, 32], ids=["D8", "D64"])
    @pytest.mark.parametrize("beta_spread", [100.0, 300.0, 1000.0])
    def test_thermal_states_across_domain(self, d_r, beta_spread):
        # most Gibbs populations underflow to 0 here; their logs come from
        # log-weights, so no support floor is reached
        rng = np.random.default_rng(int(beta_spread) + d_r)
        for _ in range(3):
            h_a, _, h_r, _ = random_bipartite(rng, 2, d_r, scale=0.5)
            h_b, _, _, _ = random_bipartite(rng, 2, d_r, scale=0.5)
            evals = h_a.eig.eigenvalues
            spec = QuenchSpec(h_a, h_b, h_r, beta_spread / (evals[-1] - evals[0]))
            audit = second_law_audit(spec, run_quench(spec))
            assert audit.residual_diff <= DEFAULT_TOLERANCES["relative_entropy_diff"]
            assert audit.residual_hstar <= DEFAULT_TOLERANCES["relative_entropy_hstar"]

    def test_estar_violation_found_on_sweep(self):
        p_a = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        flags = []
        for eps_b in np.linspace(-5, 5, 41):
            ledger = run_quench(two_spin_spec(
                p_a, TwoSpinParams(eps_b, 0.8, 1.2, 1.8, 1.0), SYSTEM_QUENCH))
            assert ledger.diss_diff >= -1e-10
            assert ledger.diss_hstar >= -1e-10
            flags.append(ledger.diss_estar < -1e-6)
        assert any(flags)


class TestThermalContextSharing:
    """run_quench and second_law_audit share one thermal context per Hamiltonian."""

    D_S, D_R, BETA = 4, 8, 0.8

    def spec(self, final_mode, kind=GENERAL_QUENCH, t_f=1.3):
        rng = np.random.default_rng(89)
        h_a, h_s, h_r, v = random_bipartite(rng, self.D_S, self.D_R, scale=0.5)
        h_b, h_s_b, _, _ = random_bipartite(rng, self.D_S, self.D_R, scale=0.5)
        if kind == SYSTEM_QUENCH:
            h_b = h_a + embed_system(h_s_b, self.D_R)
        elif kind == INTERACTION_QUENCH:
            h_a = embed_system(h_s, self.D_R) + embed_reservoir(h_r, self.D_S)
            h_b = h_a + v
        return QuenchSpec(h_a, h_b, h_r, self.BETA, kind=kind,
                          final_mode=final_mode, t_f=t_f)

    @pytest.mark.parametrize("mode", [EQUILIBRATED, UNITARY])
    def test_two_global_eigh_per_quench_and_audit(self, eig_calls, mode):
        spec = self.spec(mode)
        second_law_audit(spec, run_quench(spec))
        assert eig_calls["eigh"].count(self.D_S * self.D_R) == 2

    @pytest.mark.parametrize("mode", [EQUILIBRATED, UNITARY])
    def test_specs_sharing_h_a_decompose_it_once(self, eig_calls, mode):
        rng = np.random.default_rng(97)
        h_a, _, h_r, _ = random_bipartite(rng, self.D_S, self.D_R, scale=0.5)
        h_bs = [random_bipartite(rng, self.D_S, self.D_R, scale=0.5)[0]
                for _ in range(4)]
        ledgers = [run_quench(QuenchSpec(h_a, h_b, h_r, self.BETA,
                                         final_mode=mode, t_f=1.3))
                   for h_b in h_bs]
        assert eig_calls["eigh"].count(self.D_S * self.D_R) == 5

        def fresh(op):
            return Operator(op.matrix.copy(), op.dims)

        for h_b, ledger in zip(h_bs, ledgers):
            spec = QuenchSpec(fresh(h_a), fresh(h_b), fresh(h_r), self.BETA,
                              final_mode=mode, t_f=1.3)
            assert run_quench(spec) == ledger

    @pytest.mark.parametrize("mode", [EQUILIBRATED, UNITARY])
    def test_ledger_matches_public_statics(self, mode):
        for kind in (GENERAL_QUENCH, SYSTEM_QUENCH, INTERACTION_QUENCH):
            for t_f in (-2.7, 0.0, 0.9, 4.2):
                case = f"{kind} t_f={t_f}"
                spec = self.spec(mode, kind, t_f)
                beta = spec.beta
                ledger = run_quench(spec)
                audit = second_law_audit(spec, ledger)
                expected, states = independent_ledger(
                    spec.h_sur_a, spec.h_sur_b, spec.h_r, beta, mode, spec.t_f)
                for name, value in ledger.numeric_fields().items():
                    assert abs(value - expected[name]) <= 1e-12, f"{case} {name}"

                pi_a, pi_b, pi_s_a, pi_s_b = states
                d_global = relative_entropy(pi_a, pi_b)
                d_reduced = relative_entropy(pi_s_a, pi_s_b)
                assert abs(audit.residual_diff
                           - abs(beta * expected["diss_diff"] - d_global)) <= 1e-12, case
                assert abs(audit.residual_hstar
                           - abs(beta * expected["diss_hstar"] - d_reduced)) <= 1e-12, case


class TestEigenCoordinates:
    """Global quantities of a quench and its audit come from one overlap C = U_B^dag U_A."""

    @staticmethod
    def count_overlaps(monkeypatch) -> list:
        calls = []
        build = quench._eigen_overlap

        def counted(ctx_a, ctx_b):
            calls.append(len(ctx_b.evals))
            return build(ctx_a, ctx_b)

        monkeypatch.setattr(quench, "_eigen_overlap", counted)
        return calls

    @pytest.mark.parametrize("mode", [EQUILIBRATED, UNITARY])
    def test_degenerate_h_b_matches_dense_ledger(self, mode):
        # H_B = H_S x 1 + 1 x H_R has levels -1.5, -0.5 (x3) and 0.5 (x2)
        rng = np.random.default_rng(107)
        h_r = Operator(np.diag([-1.0, 0.0, 0.0]).astype(complex), (3,))
        _, h_s, _, v = random_bipartite(rng, 2, 3, scale=0.5)
        h_a = embed_system(h_s, 3) + embed_reservoir(h_r, 2) + v
        h_b = embed_system(0.5 * pauli("z"), 3) + embed_reservoir(h_r, 2)
        assert np.allclose(h_b.eig.eigenvalues, [-1.5, -0.5, -0.5, -0.5, 0.5, 0.5])
        spec = QuenchSpec(h_a, h_b, h_r, 0.9, final_mode=mode, t_f=1.7)
        ledger = run_quench(spec)
        expected, _ = independent_ledger(h_a, h_b, h_r, 0.9, mode, 1.7)
        for name, value in ledger.numeric_fields().items():
            assert abs(value - expected[name]) <= 1e-12, name

    def test_identity_quench_work_is_exact(self):
        # each pair's gap E_B,j - E_A,i is 0 or multiplies |C_ji|^2 ~ eps^2;
        # E_B . (P p_A) - E_A . p_A would leave O(eps ||H||)
        h_a, _, h_r, _ = random_bipartite(np.random.default_rng(109), 3, 4, scale=0.5)
        spec = QuenchSpec(h_a, Operator(h_a.matrix.copy(), h_a.dims), h_r, 0.8)
        ledger = run_quench(spec)
        assert abs(ledger.w_diff) <= 1e-20
        assert ledger.diss_diff >= 0.0

    @pytest.mark.parametrize("mode", [EQUILIBRATED, UNITARY])
    def test_one_overlap_per_quench_and_audit(self, monkeypatch, mode):
        calls = self.count_overlaps(monkeypatch)
        rng = np.random.default_rng(113)
        h_a, _, h_r, _ = random_bipartite(rng, 2, 4, scale=0.5)
        h_b, _, _, _ = random_bipartite(rng, 2, 4, scale=0.5)
        spec = QuenchSpec(h_a, h_b, h_r, 0.8, final_mode=mode, t_f=1.3)
        second_law_audit(spec, run_quench(spec))
        assert calls == [1]
        assert not hasattr(spec._contexts[0], "rho")

    @pytest.mark.parametrize("mode", [EQUILIBRATED, UNITARY])
    def test_no_gibbs_and_one_reservoir_eigh_per_quench_and_audit(self, monkeypatch, eig_calls,
                                                                   mode):
        # both contexts derive ln Z_R and <H_R>_beta from H_R's one cached spectrum
        calls = []
        original = thermo.gibbs
        monkeypatch.setattr(thermo, "gibbs", lambda h, beta: calls.append(h) or original(h, beta))
        rng = np.random.default_rng(127)
        h_a, _, h_r, _ = random_bipartite(rng, 2, 4, scale=0.5)
        h_b, _, _, _ = random_bipartite(rng, 2, 4, scale=0.5)
        spec = QuenchSpec(h_a, h_b, h_r, 0.8, final_mode=mode, t_f=1.3)
        second_law_audit(spec, run_quench(spec))
        assert calls == [] and not hasattr(quench, "gibbs")
        assert eig_calls["eigh"].count(4) == 1  # d_s = 2 and D = 8 differ from d_r

    def test_one_overlap_per_sweep(self, monkeypatch):
        calls = self.count_overlaps(monkeypatch)
        p = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        stack = two_spin_matrices(np.linspace(-5.0, 5.0, 41), p.alpha, p.gamma, p.chi)
        run_sweep(two_spin_hamiltonian(p), stack, reservoir_hamiltonian(p), p.beta,
                  SYSTEM_QUENCH)
        assert calls == [41]


def independent_ledger(h_a, h_b, h_r, beta, mode=EQUILIBRATED, t_f=0.0):
    """A quench ledger assembled from the public statics, not from run_quench.

    Returns the numeric fields and (pi_A, pi_B, pi_S_A, pi_S_B).
    """
    pi_a, pi_b = gibbs(h_a, beta).state, gibbs(h_b, beta).state
    bun_a, bun_b = mean_force_bundle(h_a, h_r, beta), mean_force_bundle(h_b, h_r, beta)
    pi_s_a = DensityMatrix(partial_trace(pi_a.op, "S"))
    pi_s_b = DensityMatrix(partial_trace(pi_b.op, "S"))
    rho_f = pi_b if mode == EQUILIBRATED else evolve_unitary(pi_a, h_b, t_f)
    rho_s_f = DensityMatrix(partial_trace(rho_f.op, "S"))

    def energies(rho, rho_s, h, bun):
        return (
            internal_energy_diff(rho, h, h_r, beta),
            bun.h_star.expectation(rho_s.op),
            internal_energy_estar(rho_s, bun.e_star),
        )

    u_0 = energies(pi_a, pi_s_a, h_a, bun_a)
    u_jump = energies(pi_a, pi_s_a, h_b, bun_b)
    u_f = energies(rho_f, rho_s_f, h_b, bun_b)
    u_eq_b = energies(pi_b, pi_s_b, h_b, bun_b)
    delta_f_s = bun_b.f_s - bun_a.f_s
    expected = {"delta_f_s": delta_f_s}
    for k, name in enumerate(("diff", "hstar", "estar")):
        expected[f"w_{name}"] = u_jump[k] - u_0[k]
        expected[f"q_{name}"] = u_f[k] - u_jump[k]
        expected[f"delta_s_{name}"] = (thermal_entropy(u_eq_b[k], bun_b.f_s, beta)
                                       - thermal_entropy(u_0[k], bun_a.f_s, beta))
        expected[f"diss_{name}"] = expected[f"w_{name}"] - delta_f_s
    return expected, (pi_a, pi_b, pi_s_a, pi_s_b)


class TestRunSweep:
    """run_sweep: one broadcasting eigh per stack, a ledger of (N,) columns equal to
    per-point ones."""

    P_A = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
    GRID = np.linspace(-5.0, 5.0, 41)

    def system_sweep(self):
        p = self.P_A
        stack = two_spin_matrices(self.GRID, p.alpha, p.gamma, p.chi)
        return two_spin_hamiltonian(p), stack, reservoir_hamiltonian(p), p.beta

    def test_real_stack_equals_its_complex_cast(self):
        # the stack turns complex where it joins H_A's matrix, so its dtype moves no bit
        h_a, stack, h_r, beta = self.system_sweep()
        assert stack.dtype == np.float64
        assert _records(run_sweep(h_a, stack, h_r, beta, SYSTEM_QUENCH)) == _records(
            run_sweep(h_a, stack.astype(complex), h_r, beta, SYSTEM_QUENCH))

    def test_one_global_eigh_for_41_points(self, eig_calls):
        h_a, stack, h_r, beta = self.system_sweep()
        ledger = run_sweep(h_a, stack, h_r, beta, SYSTEM_QUENCH)
        assert all(getattr(ledger, name).shape == (41,) for name in ThermoLedger.FIELDS)
        assert eig_calls["eigh"].count(4) == 1
        assert eig_calls["eigvalsh"].count(4) == 0

    @pytest.mark.parametrize("kind", [SYSTEM_QUENCH, INTERACTION_QUENCH])
    def test_members_equal_run_quench(self, kind):
        # N = 41 members of one context against 41 contexts of one member each
        p = self.P_A if kind == SYSTEM_QUENCH else TwoSpinParams(1.0, 5.0, 0.0, 0.0, 1.0)
        stack = (two_spin_matrices(self.GRID, p.alpha, p.gamma, p.chi) if kind == SYSTEM_QUENCH
                 else two_spin_matrices(p.epsilon, p.alpha, self.GRID, 1.2))
        h_a, h_r = two_spin_hamiltonian(p), reservoir_hamiltonian(p)
        columns = run_sweep(h_a, stack, h_r, p.beta, kind)
        for k, mat in enumerate(stack):
            single = run_quench(QuenchSpec(h_a, Operator(mat, (2, 2)), h_r, p.beta, kind=kind))
            for name, value in single.numeric_fields().items():
                assert getattr(columns, name)[k] == value, (k, name)
            assert tuple(f[k] for f in columns.second_law_w) == single.second_law_w
            assert tuple(f[k] for f in columns.second_law_q) == single.second_law_q
            assert columns.beta[k] == single.beta

    def test_system_ledgers_match_independent_assembly(self):
        h_a, stack, h_r, beta = self.system_sweep()
        ledgers = _records(run_sweep(h_a, stack, h_r, beta, SYSTEM_QUENCH))
        for mat, ledger in zip(stack, ledgers, strict=True):
            expected, _ = independent_ledger(h_a, Operator(mat, (2, 2)), h_r, beta)
            for name, value in ledger.numeric_fields().items():
                assert abs(value - expected[name]) <= 1e-12, name
            diss = [expected[f"diss_{n}"] for n in ("diff", "hstar", "estar")]
            assert ledger.second_law_w == tuple(beta * d >= -VIOLATION_THRESHOLD for d in diss)

    def test_general_ledgers_match_independent_assembly(self):
        rng = np.random.default_rng(103)
        h_a, _, h_r, _ = random_bipartite(rng, 3, 4, scale=0.5)
        stack = np.stack([random_bipartite(rng, 3, 4, scale=0.5)[0].matrix
                          for _ in range(5)])
        ledgers = _records(run_sweep(h_a, stack, h_r, 0.7))
        for mat, ledger in zip(stack, ledgers, strict=True):
            expected, _ = independent_ledger(h_a, Operator(mat, (3, 4)), h_r, 0.7)
            for name, value in ledger.numeric_fields().items():
                assert abs(value - expected[name]) <= 1e-12, name
            single = run_quench(QuenchSpec(h_a, Operator(mat, (3, 4)), h_r, 0.7))
            for name, value in single.numeric_fields().items():
                assert abs(getattr(ledger, name) - value) <= 1e-13, name
            assert (ledger.second_law_w, ledger.second_law_q) == (
                single.second_law_w, single.second_law_q)

    def test_column_sums_derive_their_own_flags(self):
        # a totals record over the sweep: its dissipation is W - dF_S of the sums
        h_a, stack, h_r, beta = self.system_sweep()
        columns = run_sweep(h_a, stack, h_r, beta, SYSTEM_QUENCH)
        sums = {f.name: float(getattr(columns, f.name).sum()) for f in fields(ThermoLedger)
                if f.name not in ("beta", "equilibrated")}
        total = ThermoLedger(**sums, beta=beta, equilibrated=True)
        diss = [sums[f"w_{n}"] - sums["delta_f_s"] for n in ("diff", "hstar", "estar")]
        assert [total.diss_diff, total.diss_hstar, total.diss_estar] == diss
        assert total.diss_estar == pytest.approx(columns.diss_estar.sum(), abs=1e-12)
        assert total.second_law_w == tuple(beta * d >= -VIOLATION_THRESHOLD for d in diss)
        assert total.second_law_q == tuple(
            sums[f"delta_s_{n}"] - beta * sums[f"q_{n}"] >= -VIOLATION_THRESHOLD
            for n in ("diff", "hstar", "estar"))

    def test_records_hold_python_scalars(self):
        h_a, stack, h_r, beta = self.system_sweep()
        for ledger in _records(run_sweep(h_a, stack[:3], h_r, beta, SYSTEM_QUENCH)):
            assert all(type(getattr(ledger, f.name)) is float for f in fields(ledger)
                       if f.name != "equilibrated")
            assert ledger.equilibrated is True
            assert all(type(flag) is bool for flag in ledger.second_law_w + ledger.second_law_q)
            assert all(type(v) is float for v in ledger.numeric_fields().values())

    @pytest.mark.parametrize("beta", [0.7, np.float64(0.7), 2], ids=["float", "float64", "int"])
    def test_each_record_carries_beta_as_a_float(self, beta):
        h_a, stack, h_r, _ = self.system_sweep()
        columns = run_sweep(h_a, stack[:3], h_r, beta, SYSTEM_QUENCH)
        assert columns.beta.dtype == float and columns.beta.tolist() == [beta] * 3
        for ledger in _records(columns):
            assert type(ledger.beta) is float and ledger.beta == beta

    def test_non_hermitian_member_named(self):
        h_a, stack, h_r, beta = self.system_sweep()
        stack = stack.copy()
        stack[7, 0, 1] += 1e-3
        with pytest.raises(NotHermitian, match="stack index 7"):
            run_sweep(h_a, stack, h_r, beta)

    def test_non_finite_member_named(self):
        h_a, stack, h_r, beta = self.system_sweep()
        stack = stack.copy()
        stack[6] = -5e307  # finite entries; the eigenvalue -2e308 overflows in `eigh`
        with pytest.raises(ValueError, match="are not finite at stack index 6$"):
            run_sweep(h_a, stack, h_r, beta)

    def test_non_hermitian_h_a_named_without_index(self):
        h_a, stack, h_r, beta = self.system_sweep()
        bad = h_a.matrix.copy()
        bad[0, 1] += 1e-3
        with pytest.raises(NotHermitian) as info:
            run_sweep(Operator(bad, (2, 2)), stack, h_r, beta)
        assert str(info.value) == "hermiticity defect 1.000e-03 exceeds tolerance"

    def test_not_positive_definite_member_named(self):
        # uncoupled, M is diagonal with weight e^{-beta epsilon} on one state:
        # it underflows to 0 from epsilon = 20 (member 1) on, but not at H_A
        p = TwoSpinParams(0.0, 0.8, 0.0, 0.0, 40.0)
        stack = two_spin_matrices(np.linspace(0.0, 80.0, 5), p.alpha, p.gamma, p.chi)
        with pytest.raises(NotPositiveDefinite, match="stack index 1$"):
            run_sweep(two_spin_hamiltonian(p), stack, reservoir_hamiltonian(p), p.beta,
                      SYSTEM_QUENCH)

    def test_system_structure_violation_named(self):
        h_a, stack, h_r, beta = self.system_sweep()
        stack = stack.copy()
        stack[5] = two_spin_matrices(1.0, 0.8, 0.5, 1.8)
        with pytest.raises(InvalidSpec, match="stack index 5"):
            run_sweep(h_a, stack, h_r, beta, SYSTEM_QUENCH)

    def test_interaction_quench_requires_uncoupled_start(self):
        p_a = TwoSpinParams(1.0, 5.0, 0.3, 0.0, 1.0)
        stack = two_spin_matrices(1.0, 5.0, np.linspace(-1, 1, 4), 1.2)
        with pytest.raises(InvalidSpec):
            run_sweep(two_spin_hamiltonian(p_a), stack, reservoir_hamiltonian(p_a),
                      1.0, INTERACTION_QUENCH)

    def test_stack_shape_checked(self):
        h_a, stack, h_r, beta = self.system_sweep()
        for bad in (stack[0], stack[:0], np.zeros((3, 6, 6))):
            with pytest.raises(InvalidSpec):
                run_sweep(h_a, bad, h_r, beta)


class TestStackLedgers:
    """The one stack -> ledger step: from one pre-quench member to each post-quench one,
    as in a sweep, or member k to member k, as in compare."""

    @staticmethod
    def pairs(n, seed=29):
        """n system quenches on 2 x 3 spaces, each with its own H_R and beta."""
        rng, specs = np.random.default_rng(seed), []
        for _ in range(n):
            h_a, _, h_r, _ = random_bipartite(rng, 2, 3)
            h_b = h_a + embed_system(random_bipartite(rng, 2, 1)[1], 3)
            specs.append(QuenchSpec(h_a, h_b, h_r, float(rng.uniform(0.3, 2.0)),
                                    kind=SYSTEM_QUENCH))
        return specs

    @staticmethod
    def stack_of(specs):
        """The (2 n, D, D) stack [H_A's; H_B's], its (2 n,) beta and (2 n, d_r) H_R spectra."""
        hams = np.stack([s.h_sur_a.matrix for s in specs] + [s.h_sur_b.matrix for s in specs])
        return (hams, np.tile([s.beta for s in specs], 2),
                np.stack([s.h_r.eig.eigenvalues for s in specs] * 2))

    def test_paired_members_equal_run_quench(self):
        specs = self.pairs(6)
        hams, *numbers = self.stack_of(specs)
        columns = quench._stack_ledgers(hams, (2, 3), *numbers, slice(6), slice(6, None))
        assert _records(columns) == [run_quench(spec) for spec in specs]

    def test_real_stack_matches_its_complex_cast(self):
        # downstream of `eigh` the step takes either dtype: a real symmetric stack is
        # decomposed in real arithmetic and agrees with its complex cast to round-off
        rng = np.random.default_rng(31)

        def sym(d):
            x = rng.standard_normal((d, d))
            return x + x.T

        h_r, betas = sym(4), rng.uniform(0.3, 2.0, 3)
        h_as = [sym(8) + np.kron(np.eye(2), h_r) for _ in betas]
        hams = np.stack(h_as + [h + np.kron(sym(2), np.eye(4)) for h in h_as])
        spectrum = Operator(h_r, (4,)).eig.eigenvalues  # shared by every member
        real, cast = (quench._stack_ledgers(h, (2, 4), np.tile(betas, 2), spectrum,
                                            slice(3), slice(3, None))
                      for h in (hams, hams.astype(complex)))
        for name in ThermoLedger.FIELDS:
            ref = getattr(cast, name)
            assert np.all(np.abs(getattr(real, name) - ref) <= 1e-13 * np.maximum(1, abs(ref)))

    @pytest.mark.parametrize("member, named", [(2, 2), (4 + 3, 3)], ids=["pre", "post"])
    def test_non_hermitian_member_named_in_its_side(self, member, named):
        hams, *numbers = self.stack_of(self.pairs(4))
        hams[member, 0, 1] += 1e-3
        with pytest.raises(NotHermitian, match=f"at stack index {named}$"):
            quench._stack_ledgers(hams, (2, 3), *numbers, slice(4), slice(4, None))

    @pytest.mark.parametrize("bad", [0, 1], ids=["pre", "post"])
    def test_one_member_side_named_without_index(self, bad):
        hams, *numbers = self.stack_of(self.pairs(1))
        hams[bad, 0, 1] += 1e-3
        with pytest.raises(NotHermitian) as info:
            quench._stack_ledgers(hams, (2, 3), *numbers, slice(1), slice(1, None))
        assert str(info.value) == "hermiticity defect 1.000e-03 exceeds tolerance"


class TestEvolveUnitary:
    def test_zero_time_identity(self):
        rho = gibbs(0.7 * pauli("z"), 1.0).state
        out = evolve_unitary(rho, pauli("x"), 0.0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_gibbs_state_stationary(self):
        h = 0.4 * pauli("z") + 0.9 * pauli("x")
        rho = gibbs(h, 1.3).state
        out = evolve_unitary(rho, h, 5.7)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_adds_no_eigh(self, eig_calls):
        rng = np.random.default_rng(85)
        h, _, _, _ = random_bipartite(rng, 2, 3)
        rho = gibbs(0.5 * tensor_product(pauli("z"), identity(3)), 1.0).state
        h.eig
        calls = list(eig_calls["eigh"])
        t = 1.9
        out = evolve_unitary(rho, h, t)
        dec = out.op.eig
        assert eig_calls["eigh"] == calls
        assert eig_calls["eigvalsh"] == []
        np.testing.assert_array_equal(dec.eigenvalues, rho.op.eig.eigenvalues)
        np.testing.assert_allclose(dec.reconstruct(), out.matrix, atol=1e-14)
        e, v = h.eig.eigenvalues, h.eig.eigenvectors
        u = (v * np.exp(-1j * e * t)) @ v.conj().T
        np.testing.assert_allclose(out.matrix, u @ rho.matrix @ u.conj().T, atol=1e-13)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        rho = gibbs(pauli("x"), 1.0).state
        with pytest.raises(InvalidSpec, match="^t must be finite"):
            evolve_unitary(rho, 0.7 * pauli("z") + 0.3 * pauli("x"), t)

    @pytest.mark.parametrize("dims", [(2,), (4,)], ids=["d2", "d4_flat"])
    def test_state_of_another_space_rejected(self, dims):
        # a (2,) state used to reach matmul; a (4,) one passed for a (2, 2) state
        side = int(np.prod(dims))
        rho = DensityMatrix(Operator(np.eye(side) / side, dims))
        h = two_spin_hamiltonian(TwoSpinParams(0.3, 0.8, 1.2, 1.8, 1.0))
        with pytest.raises(DimensionMismatch) as info:
            evolve_unitary(rho, h, 1.0)
        assert str(info.value) == f"dims (2, 2) vs {dims}"

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(83)
        h, _, _, _ = random_bipartite(rng, 2, 2)
        rho = gibbs(0.5 * tensor_product(pauli("z"), pauli("x")), 1.0).state
        out = evolve_unitary(rho, h, 1.9)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix),
            atol=1e-10,
        )
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
