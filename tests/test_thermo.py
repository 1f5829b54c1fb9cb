import gc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchtherm import (
    EQUILIBRATED,
    UNITARY,
    DensityMatrix,
    DimensionMismatch,
    NotHermitian,
    NotPositiveDefinite,
    Operator,
    QuenchSpec,
    SpectralDecomposition,
    effective_energy_operator,
    gibbs,
    identity,
    internal_energy_diff,
    internal_energy_estar,
    log_partition,
    mean_force_bundle,
    mean_force_hamiltonian,
    partial_trace,
    pauli,
    run_quench,
    run_sweep,
    second_law_audit,
    tensor_product,
    thermal_context,
    thermal_entropy,
)
from quenchtherm.audits import random_bipartite, random_hermitian
from quenchtherm.operators import eigh_stack
from quenchtherm.thermo import ThermalContext, _gibbs_weights, embed_reservoir, embed_system
from quenchtherm.twospin import TwoSpinParams, reservoir_hamiltonian, two_spin_hamiltonian

# Tr e^{-H} for the 4x4 benchmark at beta=1, eps=0, alpha=0.8, gamma=1.2,
# chi=1.8; precomputed by direct eigendecomposition of the explicit matrix.
Z_SUR_BENCH = 23.463911596311252
BENCH = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)


def free_energies(h_sur, h_r, beta):
    """(F_SUR, F_S, F_R); F_S comes independently from the mean-force spectrum."""
    return (-log_partition(h_sur, beta) / beta, mean_force_bundle(h_sur, h_r, beta).f_s,
            -log_partition(h_r, beta) / beta)


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), side=st.integers(1, 512),
           log_beta_spread=st.floats(-2.0, 3.0), ties=st.floats(0.0, 1.0))
    def test_populations_of_a_finite_spectrum_are_a_distribution(
            self, seed, side, log_beta_spread, ties):
        # why neither `gibbs` nor `ThermalContext.build` checks the w / z they form
        rng = np.random.default_rng(seed)
        evals = rng.uniform(-1.0, 1.0, side) * 10.0 ** rng.uniform(-3.0, 3.0)
        evals[rng.random(side) < ties] = evals[0]
        evals.sort()
        spread = evals[-1] - evals[0]
        beta = 10.0**log_beta_spread / spread if spread > 0 else 1.0
        _, weights, z, _, _ = _gibbs_weights(evals, beta)
        populations = weights / z
        assert populations.min() >= 0 and abs(populations.sum() - 1.0) <= 1e-13


class TestLazyGibbsState:
    """`gibbs` computes O(D) numbers from `h.eig`; the state is built only when read."""

    @pytest.fixture
    def reconstructs(self, monkeypatch):
        calls = []
        original = SpectralDecomposition.reconstruct

        def counted(dec):
            calls.append(dec)
            return original(dec)

        monkeypatch.setattr(SpectralDecomposition, "reconstruct", counted)
        return calls

    @pytest.fixture
    def spectrum_checks(self, monkeypatch):
        """Counts reads of DensityMatrix.TRACE_TOL, which every spectrum check makes."""
        reads, tol = [], DensityMatrix.TRACE_TOL

        class Counted:
            def __get__(self, obj, owner):
                reads.append(owner)
                return tol

        monkeypatch.setattr(DensityMatrix, "TRACE_TOL", Counted())
        return reads

    @staticmethod
    def hamiltonian() -> Operator:
        return random_bipartite(np.random.default_rng(29), 2, 4)[0]

    @staticmethod
    def quench(mode: str) -> QuenchSpec:
        rng = np.random.default_rng(31)
        h_a, _, h_r, _ = random_bipartite(rng, 2, 4)
        h_b = random_bipartite(rng, 2, 4)[0]
        return QuenchSpec(h_a, h_b, h_r, 0.7, final_mode=mode, t_f=1.3)

    @pytest.mark.parametrize("mode", [EQUILIBRATED, UNITARY])
    def test_quench_and_audit_build_no_state(self, reconstructs, mode):
        spec = self.quench(mode)
        second_law_audit(spec, run_quench(spec))
        assert reconstructs == []

    @pytest.mark.parametrize("mode", [EQUILIBRATED, UNITARY])
    def test_only_a_state_read_checks_a_spectrum(self, spectrum_checks, mode):
        spec = self.quench(mode)
        second_law_audit(spec, run_quench(spec))
        mean_force_bundle(spec.h_sur_a, spec.h_r, 0.7)
        ens = gibbs(spec.h_r, 0.7)
        assert spectrum_checks == []
        ens.state, ens.state
        assert len(spectrum_checks) == 1

    def test_sweep_and_statics_build_no_state(self, reconstructs):
        spec = self.quench(EQUILIBRATED)
        h_a, h_b, h_r = spec.h_sur_a, spec.h_sur_b, spec.h_r
        run_sweep(h_a, np.stack([h_b.matrix, h_a.matrix + h_b.matrix]), h_r, 0.7)
        mean_force_bundle(h_a, h_r, 0.7)
        internal_energy_diff(DensityMatrix(identity(h_a.dims) * (1 / h_a.side)), h_a, h_r, 0.7)
        assert reconstructs == []

    def test_state_built_once_on_first_read(self, reconstructs):
        h = self.hamiltonian()
        ens = gibbs(h, 0.7)
        assert reconstructs == []
        first, second = ens.state, ens.state
        assert len(reconstructs) == 1 and second is first
        np.testing.assert_array_equal(first.op.eig.eigenvalues, ens.populations[::-1])
        with pytest.raises(ValueError, match="read-only"):
            ens.populations[0] = 0.5

    def test_adds_nothing_to_the_operator(self):
        h = self.hamiltonian()
        h.eig
        before = dict(vars(h))
        gibbs(h, 0.7).state
        assert log_partition(h, 0.7) == gibbs(h, 0.7).log_partition
        assert vars(h).keys() == before.keys()
        assert all(vars(h)[k] is v for k, v in before.items())

    def test_mean_energy_is_the_expectation_across_domain(self):
        rng = np.random.default_rng(37)
        for d in (1, 2, 5, 16):
            for beta_spread in (1e-2, 1.0, 40.0, 1e3):
                h = random_hermitian(rng, d, scale=float(rng.uniform(0.1, 30.0)))
                evals = h.eig.eigenvalues
                spread = evals[-1] - evals[0]
                ens = gibbs(h, beta_spread / spread if spread > 0 else 1.0)
                assert np.isfinite(ens.mean_energy)
                tol = 1e-14 * max(1.0, np.abs(evals).max())
                assert abs(ens.mean_energy - h.expectation(ens.state.op)) <= tol

    def test_log_partition_same_bits_as_gibbs(self):
        for beta in (1e-2, 0.9, 40.0):
            h = self.hamiltonian()
            alone = log_partition(h, beta)
            ens = gibbs(h, beta)
            assert log_partition(h, beta) == ens.log_partition == alone
            assert log_partition(h, 2 * beta) == log_partition(self.hamiltonian(), 2 * beta)

    def test_read_state_makes_no_reference_cycle(self):
        h = self.hamiltonian()
        gibbs(h, 0.7).state
        ref = weakref.ref(h)
        gc.disable()
        try:
            del h
            assert ref() is None
        finally:
            gc.enable()


class TestMeanForce:
    def test_nan_member_is_not_positive_definite(self):
        h_sur, _, h_r, _ = random_bipartite(np.random.default_rng(41), 2, 3)
        dec = h_sur.eig
        evals = np.stack([dec.eigenvalues, dec.eigenvalues])
        evals[1, 2] = np.nan
        with pytest.raises(NotPositiveDefinite, match="stack index 1$"):
            ThermalContext.build(evals, np.stack([dec.eigenvectors] * 2), h_sur.dims,
                                 0.7, h_r.eig.eigenvalues)

    def test_per_member_numbers_equal_one_member_builds(self):
        rng = np.random.default_rng(43)
        bipartite = [random_bipartite(rng, 2, 3) for _ in range(3)]
        evals, evecs = eigh_stack(np.stack([h.matrix for h, *_ in bipartite]))
        spectra = np.stack([h_r.eig.eigenvalues for _, _, h_r, _ in bipartite])
        beta = np.array([0.3, 0.7, 2.1])
        ctx = ThermalContext.build(evals, evecs, (2, 3), beta, spectra)
        for k in range(3):
            one = ThermalContext.build(evals[k:k + 1], evecs[k:k + 1], (2, 3),
                                       float(beta[k]), spectra[k])
            for f in fields(ThermalContext):
                if f.name != "dims":
                    assert np.array_equal(getattr(ctx, f.name)[k], getattr(one, f.name)[0]), f.name

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
                tol = 1e-12 * max(1.0, np.exp(ctx.log_rho_s[0, -1] - ctx.log_rho_s[0, 0]) / 1e3)
                e_star = mean_force_bundle(h_sur, h_r, beta).e_star
                assert np.max(np.abs(e_star.matrix - h_s.matrix)) <= tol

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


class TestStoredLogSpectra:
    """A context stores ln(w / z) and ln(m / z), finite where w / z underflows."""

    CASES = pytest.mark.parametrize("beta_spread, d_s, d_r", [
        (bs, d_s, d_r) for bs in (1e-2, 1.0, 1e3) for d_s, d_r in ((2, 3), (4, 8))])

    @staticmethod
    def context(beta_spread, d_s, d_r):
        _, h_s, h_r, v = random_bipartite(np.random.default_rng(d_s * d_r), d_s, d_r)
        # the spread comes from R, so M's spectrum stays resolvable at large beta
        h_sur = embed_system(0.01 * h_s, d_r) + embed_reservoir(h_r, d_s) + 0.01 * v
        evals = h_sur.eig.eigenvalues
        return thermal_context(h_sur, h_r, beta_spread / (evals[-1] - evals[0]))

    @CASES
    def test_log_populations_bit_for_bit_and_finite(self, beta_spread, d_s, d_r):
        ctx = self.context(beta_spread, d_s, d_r)
        log_w = -ctx.beta * (ctx.evals - ctx.evals[:, :1])
        expected = log_w - np.log(np.exp(log_w).sum(axis=-1, keepdims=True))
        assert np.array_equal(ctx.log_populations, expected)
        assert np.all(np.isfinite(ctx.log_populations))
        # e^{-x} underflows to 0 past x ~ 745, so only the 1e3 cases lose populations
        assert np.any(ctx.populations == 0) == (beta_spread > 745)

    @CASES
    def test_exp_gives_the_populations(self, beta_spread, d_s, d_r):
        ctx = self.context(beta_spread, d_s, d_r)
        assert np.max(np.abs(np.exp(ctx.log_populations) - ctx.populations)) <= 1e-15

    @CASES
    def test_log_rho_s_ascending_and_normalized(self, beta_spread, d_s, d_r):
        ctx = self.context(beta_spread, d_s, d_r)
        log_rho = ctx.log_rho_s[0]
        assert np.all(np.diff(log_rho) >= 0)
        top = log_rho.max()
        assert abs(top + np.log(np.exp(log_rho - top).sum())) <= 1e-14
        spectrum = np.linalg.eigvalsh(ctx.rho_s[0])
        assert np.max(np.abs(np.exp(log_rho) - spectrum)) <= 1e-14


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
        assert bun.h_star.expectation(rho_s.op) == pytest.approx(
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
        u_h = bun.h_star.expectation(rho_s.op)
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


class TestReservoirSpace:
    """A reservoir on another space than the global R factor is refused: H*
    would be offset by the wrong ln Z_R."""

    H_R3 = Operator(np.diag([0.4, 0.0, -0.4]), (3,))

    @pytest.mark.parametrize("static", [
        thermal_context, mean_force_bundle, mean_force_hamiltonian, effective_energy_operator,
    ], ids=lambda f: f.__name__)
    def test_statics_reject_reservoir_of_another_space(self, static):
        message = r"reservoir dims \(3,\) vs global dims \(2, 2\)"
        with pytest.raises(DimensionMismatch, match=message):
            static(two_spin_hamiltonian(BENCH), self.H_R3, BENCH.beta)

    def test_internal_energy_diff_rejects_reservoir_of_another_space(self):
        h = two_spin_hamiltonian(BENCH)
        with pytest.raises(DimensionMismatch, match=r"reservoir dims \(3,\)"):
            internal_energy_diff(gibbs(h, BENCH.beta).state, h, self.H_R3, BENCH.beta)


class TestReservoirSpectrum:
    """A context derives ln Z_R and <H_R>_beta from the bare reservoir's spectrum, at each
    member's beta, with the bits `gibbs` gives them."""

    @pytest.mark.parametrize("d_r", [2, 8, 32])  # at 32, numpy sums pairwise
    def test_beta_column_equals_one_member_contexts(self, d_r):
        h, _, h_r, _ = random_bipartite(np.random.default_rng(47 + d_r), 2, d_r)
        evals, evecs = h.eig.eigenvalues, h.eig.eigenvectors
        betas = np.logspace(-2, 3, 7) / (evals[-1] - evals[0])
        n = len(betas)
        # broadcast views of one cached eigendecomposition, one member per beta
        ctx = ThermalContext.build(np.broadcast_to(evals, (n,) + evals.shape),
                                   np.broadcast_to(evecs, (n,) + evecs.shape), h.dims, betas,
                                   h_r.eig.eigenvalues)
        for k, beta in enumerate(betas.tolist()):
            assert ctx.u_r[k] == gibbs(h_r, beta).mean_energy
            one = thermal_context(h, h_r, beta)
            for f in fields(ThermalContext):
                if f.name != "dims":
                    assert np.array_equal(getattr(ctx, f.name)[k], getattr(one, f.name)[0]), f.name

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("static", [gibbs, log_partition, thermal_context, mean_force_bundle],
                             ids=lambda f: f.__name__)
    def test_statics_refuse_beta_outside_domain(self, static, beta):
        h = two_spin_hamiltonian(BENCH)
        args = (h, beta) if static in (gibbs, log_partition) else (
            h, reservoir_hamiltonian(BENCH), beta)
        with pytest.raises(ValueError, match="^beta must be positive and finite") as info:
            static(*args)
        assert info.type is ValueError


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
    h_r = reservoir_hamiltonian(BENCH)
    return {
        "Operator": h, "DensityMatrix": ens.state, "SpectralDecomposition": h.eig,
        "GibbsEnsemble": ens, "MeanForceBundle": mean_force_bundle(h, h_r, BENCH.beta),
        "ThermalContext": thermal_context(h, h_r, BENCH.beta),
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
