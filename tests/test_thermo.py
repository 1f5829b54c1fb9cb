import gc
import weakref

import numpy as np
import pytest

from quenchtherm import (
    DensityMatrix,
    NotHermitian,
    Operator,
    SpectralDecomposition,
    effective_energy_operator,
    free_energies,
    gibbs,
    identity,
    internal_energy_diff,
    internal_energy_estar,
    internal_energy_hstar,
    log_partition,
    mean_force_bundle,
    mean_force_hamiltonian,
    partial_trace,
    pauli,
    tensor_product,
    thermal_context,
    thermal_entropy,
)
from quenchtherm.audits import random_bipartite
from quenchtherm.thermo import embed_reservoir, embed_system
from quenchtherm.twospin import TwoSpinParams, reservoir_hamiltonian, two_spin_hamiltonian

# Tr e^{-H} for the 4x4 benchmark at beta=1, eps=0, alpha=0.8, gamma=1.2,
# chi=1.8; precomputed by direct eigendecomposition of the explicit matrix.
Z_SUR_BENCH = 23.463911596311252
BENCH = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)


class TestGibbs:
    def test_zero_hamiltonian_maximally_mixed(self):
        ens = gibbs(Operator(np.zeros((4, 4)), (4,)), beta=2.3)
        np.testing.assert_allclose(ens.state.matrix, np.eye(4) / 4, atol=1e-14)
        assert ens.log_partition == pytest.approx(np.log(4.0))

    def test_qubit_populations(self):
        eps, beta = 1.3, 0.8
        ens = gibbs((eps / 2) * pauli("z"), beta)
        z = 2 * np.cosh(beta * eps / 2)
        np.testing.assert_allclose(
            np.diag(ens.state.matrix).real,
            [np.exp(-beta * eps / 2) / z, np.exp(beta * eps / 2) / z],
            atol=1e-14,
        )

    def test_benchmark_partition_function(self):
        ens = gibbs(two_spin_hamiltonian(BENCH), 1.0)
        assert np.exp(ens.log_partition) == pytest.approx(Z_SUR_BENCH, rel=1e-12)

    def test_state_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(5)
        h_sur, _, _, _ = random_bipartite(rng, 2, 3)
        ens = gibbs(h_sur, 1.0)
        comm = ens.state.matrix @ h_sur.matrix - h_sur.matrix @ ens.state.matrix
        assert np.max(np.abs(comm)) <= 1e-10

    def test_overflow_safe_at_large_beta(self):
        ens = gibbs(100.0 * pauli("z"), beta=50.0)
        assert np.isfinite(ens.log_partition)
        assert ens.log_partition == pytest.approx(5000.0, abs=1e-6)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            gibbs(Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,)), 1.0)

    def test_state_carries_hamiltonian_eigenpairs(self, eig_calls):
        # the populations on H's eigenvectors: ascending and read-only in the
        # cache, the matrix built in H's order, and no eigh beyond H's own
        rng = np.random.default_rng(17)
        h, _, _, _ = random_bipartite(rng, 2, 4)
        beta = 1.3
        state = gibbs(h, beta).state.op
        evals, u = h.eig.eigenvalues, h.eig.eigenvectors
        weights = np.exp(-beta * (evals - evals.min()))
        p = weights / weights.sum()
        dec = state.eig
        assert eig_calls["eigh"] == [8]
        assert eig_calls["eigvalsh"] == []
        np.testing.assert_array_equal(dec.eigenvalues, np.sort(p))
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        assert np.array_equal(state.matrix, (u * p) @ u.conj().T)
        np.testing.assert_allclose(dec.reconstruct(), state.matrix, atol=1e-15)
        for arr in (dec.eigenvalues, dec.eigenvectors):
            assert not arr.flags.writeable


class TestGibbsSlot:
    """`gibbs` keeps its last (beta, state, ln Z) on the Operator."""

    @pytest.fixture
    def reconstructs(self, monkeypatch):
        calls = []
        original = SpectralDecomposition.reconstruct

        def counted(dec):
            calls.append(dec)
            return original(dec)

        monkeypatch.setattr(SpectralDecomposition, "reconstruct", counted)
        return calls

    @staticmethod
    def hamiltonian() -> Operator:
        return random_bipartite(np.random.default_rng(29), 2, 4)[0]

    def test_repeat_call_reuses_the_state(self, reconstructs):
        h = self.hamiltonian()
        first, second = gibbs(h, 0.7), gibbs(h, 0.7)
        assert len(reconstructs) == 1
        assert second.state is first.state
        assert second.hamiltonian is h and second.beta == 0.7
        assert second.log_partition == first.log_partition

    def test_other_beta_recomputes(self, reconstructs):
        h = self.hamiltonian()
        cold, hot = gibbs(h, 2.0), gibbs(h, 0.5)
        assert len(reconstructs) == 2
        assert hot.state is not cold.state
        assert hot.log_partition != cold.log_partition
        fresh = gibbs(self.hamiltonian(), 0.5)
        np.testing.assert_array_equal(hot.state.matrix, fresh.state.matrix)
        # one slot: going back to the first beta builds the state again
        assert gibbs(h, 2.0).state is not cold.state
        assert len(reconstructs) == 4

    def test_log_partition_same_bits_with_and_without_slot(self):
        for beta in (1e-2, 0.9, 40.0):
            h = self.hamiltonian()
            unslotted = log_partition(h, beta)
            ens = gibbs(h, beta)
            assert log_partition(h, beta) == ens.log_partition == unslotted
            assert log_partition(h, 2 * beta) == log_partition(self.hamiltonian(), 2 * beta)

    def test_slot_makes_no_reference_cycle(self):
        h = self.hamiltonian()
        gibbs(h, 0.7)
        ref = weakref.ref(h)
        gc.disable()
        try:
            del h
            assert ref() is None
        finally:
            gc.enable()


class TestMeanForce:
    def test_reduces_to_bare_hamiltonian_without_coupling(self):
        rng = np.random.default_rng(11)
        for d_r in (2, 3, 4):
            h_sur, h_s, h_r, _ = random_bipartite(rng, 2, d_r, v_scale=0.0)
            h_star = mean_force_hamiltonian(h_sur, h_r, beta=0.9)
            assert np.max(np.abs(h_star.matrix - h_s.matrix)) <= 1e-10

    def test_benchmark_closed_form(self):
        h = two_spin_hamiltonian(BENCH)
        h_r = (BENCH.alpha / 2) * pauli("z")
        h_star = mean_force_hamiltonian(h, h_r, BENCH.beta)
        from quenchtherm.twospin import closed_form_statics

        st = closed_form_statics(BENCH)
        np.testing.assert_allclose(
            h_star.matrix, np.diag(st.h_star_diag), atol=1e-12
        )

    def test_small_coupling_continuity(self):
        rng = np.random.default_rng(13)
        h_sur, h_s, h_r, _ = random_bipartite(rng, 2, 3, v_scale=1e-6)
        h_star = mean_force_hamiltonian(h_sur, h_r, beta=1.0)
        assert np.max(np.abs(h_star.matrix - h_s.matrix)) <= 1e-4

    def test_reduced_state_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            beta = float(rng.uniform(0.3, 1.5))
            h_sur, _, h_r, _ = random_bipartite(rng, 2, 3)
            h_star = mean_force_hamiltonian(h_sur, h_r, beta)
            lhs = gibbs(h_star, beta).state.matrix
            rhs = partial_trace(gibbs(h_sur, beta).state.op, "S").matrix
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestEffectiveEnergyOperator:
    def test_reduces_to_bare_hamiltonian_without_coupling(self):
        # H_S proportional to 1 makes M = Tr_R e^{-beta H} degenerate, which
        # the tie branch of the log divided differences has to handle.  M is
        # formed densely, so H* and E* both carry round-off of order
        # eps * cond(M); the 1e-12 bound holds up to cond(M) = 1e3.
        rng = np.random.default_rng(19)
        for d_s, d_r, degenerate in ((2, 3, 0), (3, 2, 0), (4, 4, 0), (2, 3, 1), (4, 4, 1)):
            h_sur, h_s, h_r, _ = random_bipartite(rng, d_s, d_r, v_scale=0.0)
            if degenerate:
                h_s = 0.7 * identity(d_s)
                h_sur = embed_system(h_s, d_r) + embed_reservoir(h_r, d_s)
            for beta in (0.3, 1.1, 4.0):
                ctx = thermal_context(h_sur, h_r, beta)
                tol = 1e-12 * max(1.0, np.linalg.cond(ctx.m) / 1e3)
                assert np.max(np.abs(ctx.bundle.e_star.matrix - h_s.matrix)) <= tol

    def test_benchmark_closed_form(self):
        from quenchtherm.twospin import closed_form_statics

        h = two_spin_hamiltonian(BENCH)
        h_r = (BENCH.alpha / 2) * pauli("z")
        e_star = effective_energy_operator(h, h_r, BENCH.beta)
        st = closed_form_statics(BENCH)
        np.testing.assert_allclose(
            e_star.matrix, np.diag(st.e_star_diag), atol=1e-7
        )

    def test_matches_diff_energy_at_global_gibbs(self):
        rng = np.random.default_rng(23)
        beta = 0.8
        h_sur, _, h_r, _ = random_bipartite(rng, 2, 3)
        ens = gibbs(h_sur, beta)
        e_star = effective_energy_operator(h_sur, h_r, beta)
        rho_s = DensityMatrix(partial_trace(ens.state.op, "S"))
        u_estar = internal_energy_estar(rho_s, e_star)
        u_diff = internal_energy_diff(ens.state, h_sur, h_r, beta)
        assert u_estar == pytest.approx(u_diff, abs=1e-6)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 1.0, 5.0, 20.0, 100.0])
    def test_exact_matches_closed_form_across_beta(self, beta):
        from quenchtherm.twospin import closed_form_statics

        p = TwoSpinParams(BENCH.epsilon, BENCH.alpha, BENCH.gamma, BENCH.chi, beta)
        e_star = effective_energy_operator(
            two_spin_hamiltonian(p), (p.alpha / 2) * pauli("z"), beta
        )
        st = closed_form_statics(p)
        np.testing.assert_allclose(
            e_star.matrix, np.diag(st.e_star_diag), rtol=0, atol=1e-13
        )

    def test_agrees_with_centered_difference_of_beta_hstar(self):
        rng = np.random.default_rng(61)
        for d_s, d_r in ((2, 3), (3, 4)):
            h_sur, _, h_r, _ = random_bipartite(rng, d_s, d_r)
            for beta in (0.4, 1.0, 2.5):
                step = 1e-4 * beta
                hi = (beta + step) * mean_force_hamiltonian(h_sur, h_r, beta + step).matrix
                lo = (beta - step) * mean_force_hamiltonian(h_sur, h_r, beta - step).matrix
                exact = effective_energy_operator(h_sur, h_r, beta).matrix
                assert np.max(np.abs(exact - (hi - lo) / (2 * step))) <= 1e-7


class TestInternalEnergies:
    def test_weak_coupling_collapse_at_gibbs(self):
        rng = np.random.default_rng(37)
        beta = 0.7
        h_sur, h_s, h_r, _ = random_bipartite(rng, 2, 3, v_scale=0.0)
        ens = gibbs(h_sur, beta)
        rho_s = DensityMatrix(partial_trace(ens.state.op, "S"))
        bun = mean_force_bundle(h_sur, h_r, beta)
        u_s0 = h_s.expectation(gibbs(h_s, beta).state.op)
        assert internal_energy_diff(ens.state, h_sur, h_r, beta) == pytest.approx(
            u_s0, abs=1e-6
        )
        assert internal_energy_hstar(rho_s, bun.h_star) == pytest.approx(
            u_s0, abs=1e-6
        )
        assert internal_energy_estar(rho_s, bun.e_star) == pytest.approx(
            u_s0, abs=1e-6
        )

    def test_weak_coupling_product_state_pair(self):
        # with V = 0 and an arbitrary product state, H* and E* energies agree
        # while the diff definition may differ
        rng = np.random.default_rng(41)
        beta = 1.0
        h_sur, h_s, h_r, _ = random_bipartite(rng, 2, 3, v_scale=0.0)
        bun = mean_force_bundle(h_sur, h_r, beta)
        probs = rng.dirichlet(np.ones(2))
        rho_s = DensityMatrix(Operator(np.diag(probs).astype(complex), (2,)))
        u_h = internal_energy_hstar(rho_s, bun.h_star)
        u_e = internal_energy_estar(rho_s, bun.e_star)
        assert u_h == pytest.approx(u_e, abs=1e-6)

    def test_zero_hamiltonian(self):
        rho = DensityMatrix(Operator(np.eye(4) / 4, (2, 2)))
        zero = Operator(np.zeros((4, 4)), (2, 2))
        h_r = Operator(np.zeros((2, 2)), (2,))
        assert internal_energy_diff(rho, zero, h_r, 1.0) == pytest.approx(0.0)

    def test_identity_estar_unit_trace(self):
        rho = DensityMatrix(Operator(np.diag([0.3, 0.7]), (2,)))
        assert internal_energy_estar(rho, identity(2)) == pytest.approx(1.0)


class TestFreeEnergies:
    def test_factorized_without_coupling(self):
        rng = np.random.default_rng(43)
        beta = 0.9
        h_sur, h_s, h_r, _ = random_bipartite(rng, 2, 3, v_scale=0.0)
        _, f_s, _ = free_energies(h_sur, h_r, beta)
        assert f_s == pytest.approx(-log_partition(h_s, beta) / beta, abs=1e-9)

    def test_single_qubit_reservoir(self):
        alpha, beta = 0.8, 1.0
        h_r = (alpha / 2) * pauli("z")
        h_sur = embed_system(pauli("z"), 2) + embed_reservoir(h_r, 2)
        _, _, f_r = free_energies(h_sur, h_r, beta)
        assert f_r == pytest.approx(-np.log(2 * np.cosh(beta * alpha / 2)) / beta)

    def test_benchmark_total(self):
        h = two_spin_hamiltonian(BENCH)
        h_r = (BENCH.alpha / 2) * pauli("z")
        f_sur, f_s, f_r = free_energies(h, h_r, BENCH.beta)
        assert f_sur == pytest.approx(-np.log(Z_SUR_BENCH), rel=1e-12)
        assert f_sur == pytest.approx(f_s + f_r, abs=1e-9)

    def test_factorization_random(self):
        rng = np.random.default_rng(47)
        for d_r in (2, 3, 4):
            for _ in range(20):
                beta = float(rng.uniform(0.3, 1.5))
                h_sur, _, h_r, _ = random_bipartite(rng, 2, d_r)
                f_sur, f_s, f_r = free_energies(h_sur, h_r, beta)
                assert abs(beta * (f_sur - f_s - f_r)) <= 1e-9


class TestSharedEigendecomposition:
    def test_statics_on_one_hamiltonian_share_its_eigh(self, eig_calls):
        # the public statics called one after another on one (H, H_R) pair:
        # H, H_R, M and H* are each decomposed once, and the partial trace of
        # the Gibbs state, built from outside the engine, gets one checked eigh
        rng = np.random.default_rng(23)
        d_s, d_r, beta = 2, 8, 0.9
        h, _, h_r, _ = random_bipartite(rng, d_s, d_r)
        ens = gibbs(h, beta)
        bundle = mean_force_bundle(h, h_r, beta)
        log_z = (log_partition(h, beta), log_partition(bundle.h_star, beta),
                 log_partition(h_r, beta))
        rho_s = DensityMatrix(partial_trace(ens.state.op, "S"))
        rebuilt = gibbs(bundle.h_star, beta).state
        u_diff = internal_energy_diff(ens.state, h, h_r, beta)
        u_estar = internal_energy_estar(rho_s, bundle.e_star)
        assert sorted(eig_calls["eigh"]) == [d_s, d_s, d_s, d_r, d_s * d_r]
        assert eig_calls["eigvalsh"] == []
        assert abs(log_z[0] - log_z[1] - log_z[2]) <= 1e-12
        assert np.max(np.abs(rho_s.matrix - rebuilt.matrix)) <= 1e-12
        assert abs(u_diff - u_estar) <= 1e-12


def array_records() -> dict:
    """One of each record that holds numpy arrays, built from BENCH."""
    h = two_spin_hamiltonian(BENCH)
    ens = gibbs(h, BENCH.beta)
    ctx = thermal_context(h, reservoir_hamiltonian(BENCH), BENCH.beta)
    return {
        "Operator": h, "DensityMatrix": ens.state, "SpectralDecomposition": h.eig,
        "GibbsEnsemble": ens, "MeanForceBundle": ctx.bundle, "ThermalContext": ctx,
    }


class TestArrayRecordsCompareByIdentity:
    """Records over arrays have no value equality: `==` is identity, and
    they hash, so they can sit in sets and serve as dict keys."""

    @pytest.mark.parametrize("name", sorted(array_records()))
    def test_eq_hash_and_set_membership(self, name):
        record, twin = array_records()[name], array_records()[name]
        assert type(record).__name__ == name
        assert record == record and not record != record
        assert record != twin and not record == twin
        assert hash(record) == hash(record)
        assert record in {record} and twin not in {record}
        assert len({record, twin, record}) == 2

    def test_pauli_compares_and_hashes(self):
        z = pauli("z")
        assert z == z and z != pauli("z")
        assert {z: 1}[z] == 1

    def test_scalar_records_keep_value_equality(self):
        p = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)
        assert p == BENCH and hash(p) == hash(BENCH)


class TestThermalEntropy:
    def test_zero_when_energies_equal(self):
        assert thermal_entropy(1.3, 1.3, 2.0) == 0.0

    def test_maximally_mixed_qubit(self):
        beta = 1.7
        assert thermal_entropy(0.0, -np.log(2) / beta, beta) == pytest.approx(
            np.log(2)
        )


def test_estar_diff_global_gibbs_many():
    # diff and E* energies agree at global equilibrium, strong coupling
    rng = np.random.default_rng(53)
    for _ in range(200):
        d_r = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.2, 1.5))
        h_sur, _, h_r, _ = random_bipartite(rng, 2, d_r, v_scale=1.0)
        ens = gibbs(h_sur, beta)
        bun = mean_force_bundle(h_sur, h_r, beta)
        rho_s = DensityMatrix(partial_trace(ens.state.op, "S"))
        u_diff = internal_energy_diff(ens.state, h_sur, h_r, beta)
        u_estar = internal_energy_estar(rho_s, bun.e_star)
        assert abs(u_diff - u_estar) <= 1e-6
