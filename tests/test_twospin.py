from dataclasses import replace

import numpy as np
import pytest

from quenchtherm import (
    QuenchSpec,
    closed_form_statics,
    gibbs,
    identity,
    interaction_quench_ledger,
    pauli,
    reservoir_hamiltonian,
    run_quench,
    system_quench_ledger,
    tensor_product,
    two_spin_hamiltonian,
    two_spin_matrices,
    TwoSpinParams,
)
from quenchtherm import twospin
from quenchtherm.audits import random_two_spin_params
from quenchtherm.quench import INTERACTION_QUENCH, SYSTEM_QUENCH, ThermoLedger

BENCH = TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0)

ORACLE_MATCH_REL = 1e-8
ORACLE_MATCH_ABS = 1e-10


def assert_ledgers_match(engine, oracle):
    eng = engine.numeric_fields()
    ora = oracle.numeric_fields()
    for name in ora:
        tol = ORACLE_MATCH_ABS + ORACLE_MATCH_REL * abs(ora[name])
        assert abs(eng[name] - ora[name]) <= tol, (
            f"{name}: engine {eng[name]} vs oracle {ora[name]}"
        )


class TestTwoSpinParams:
    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_beta_must_be_positive(self, beta):
        with pytest.raises(ValueError, match=f"^beta must be positive, got {beta}$"):
            TwoSpinParams(0.0, 0.8, 1.2, 1.8, beta)


class TestClosedFormStatics:
    def test_decoupled_limit(self):
        p = TwoSpinParams(0.9, 0.8, 0.0, 0.0, 1.3)
        st = closed_form_statics(p)
        b = p.beta
        # X_s of the sz_S = +1 state (index 0), at energy +eps/2, carries the
        # e^{-beta eps/2} factor
        log_zr = np.log(2 * np.cosh(b * p.alpha / 2))
        assert st.log_x[0] == pytest.approx(log_zr - b * p.epsilon / 2, rel=1e-12)
        assert st.log_x[1] == pytest.approx(log_zr + b * p.epsilon / 2, rel=1e-12)
        # mean-force Hamiltonian collapses to the bare field (eps/2) sz
        assert st.h_star_diag[0] == pytest.approx(p.epsilon / 2, rel=1e-12)
        assert st.h_star_diag[1] == pytest.approx(-p.epsilon / 2, rel=1e-12)

    def test_partition_function_vs_brute_force(self):
        st = closed_form_statics(BENCH)
        evals = two_spin_hamiltonian(BENCH).eig.eigenvalues
        assert st.log_z == pytest.approx(np.log(np.exp(-BENCH.beta * evals).sum()), abs=1e-12)
        assert st.log_z == pytest.approx(np.logaddexp(*st.log_x), abs=1e-12)
        assert sum(st.populations) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_at_zero_field(self):
        # eps = 0 with gamma = 0: flipping the system spin is a symmetry,
        # so both weights coincide (a gamma sz sz term would break it)
        st = closed_form_statics(TwoSpinParams(0.0, 0.8, 0.0, 1.8, 1.0))
        assert st.log_x[0] == pytest.approx(st.log_x[1], rel=1e-14)
        assert st.h_star_diag[0] == pytest.approx(st.h_star_diag[1], rel=1e-14)

    def test_x_positive(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            # X_s > 0: its log is finite, and so is the population X_s / Z
            st = closed_form_statics(random_two_spin_params(rng))
            assert all(np.isfinite(v) for v in (st.log_z, *st.log_x, *st.entropies))
            assert min(st.populations) > 0
            assert sum(st.populations) == pytest.approx(1.0, abs=1e-15)

    def test_beta_derivative_vs_finite_difference(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            p = random_two_spin_params(rng)
            st = closed_form_statics(p)
            h = 1e-6 * p.beta
            up, dn = (closed_form_statics(replace(p, beta=p.beta + d)) for d in (h, -h))
            for s in range(2):  # E*_s = d(beta H*_s)/d beta
                fd = ((p.beta + h) * up.h_star_diag[s]
                      - (p.beta - h) * dn.h_star_diag[s]) / (2 * h)
                assert st.e_star_diag[s] == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_large_beta_statics_are_finite(self):
        # these parameters overflowed the hyperbolic products of the old form
        st = closed_form_statics(TwoSpinParams(1.0, 0.5, 0.7, 0.4, 1e4))
        assert np.isfinite(np.hstack(st)).all()  # every field


class TestOracleRecord:
    def test_oracle_returns_engine_record(self):
        p = TwoSpinParams(0.3, 0.8, 1.2, 1.8, 1.0)
        for led in (system_quench_ledger(p, 1.5),
                    interaction_quench_ledger(1.0, 5.0, 0.7, 1.2, 1.0)):
            assert type(led) is ThermoLedger
            assert led.beta == 1.0
            # equilibrated final state: the heat flags are always present
            assert led.second_law_q is not None

    def test_float_gives_python_scalars(self):
        led = system_quench_ledger(BENCH, 1.5)
        assert all(type(v) is float for v in (*led.numeric_fields().values(), led.beta))
        assert all(type(f) is bool for f in led.second_law_w + led.second_law_q)

    def test_one_point_array_gives_columns(self):
        for led in (system_quench_ledger(BENCH, np.array([1.5])),
                    interaction_quench_ledger(1.0, 5.0, np.array([0.7]), 1.2, 1.0)):
            for column in (*led.numeric_fields().values(), *led.second_law_w,
                           *led.second_law_q):
                assert column.shape == (1,)

    def test_array_of_more_than_one_axis_is_rejected(self):
        with pytest.raises(ValueError, match=r"at most one axis, got shape \(1, 2\)$"):
            system_quench_ledger(BENCH, np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError, match=r"at most one axis, got shape \(2, 1\)$"):
            interaction_quench_ledger(1.0, 5.0, np.array([[0.1], [0.2]]), 1.2, 1.0)

    def test_empty_array_is_rejected(self):
        with pytest.raises(ValueError, match="at least one swept value"):
            system_quench_ledger(BENCH, np.array([]))
        with pytest.raises(ValueError, match="at least one swept value"):
            interaction_quench_ledger(1.0, 5.0, np.array([]), 1.2, 1.0)


class TestOracleColumns:
    """An (N,) array of swept values gives, in every cell, the ledger each float call gives."""

    @staticmethod
    def assert_columns_equal_points(columns, values, ledger_at):
        for k, v in enumerate(values.tolist()):
            point = ledger_at(v)
            for name, value in point.numeric_fields().items():
                assert getattr(columns, name)[k] == value, (v, name)
            assert tuple(f[k] for f in columns.second_law_w) == point.second_law_w, v
            assert tuple(f[k] for f in columns.second_law_q) == point.second_law_q, v
            assert columns.beta == point.beta

    SYSTEM = [
        # chi = 0: every block's smaller level weight is 0, and eta = 0 where
        # epsilon_b = -alpha or +alpha
        pytest.param(TwoSpinParams(0.3, 0.8, 1.2, 0.0, 1.0),
                     np.array([-1.5, -0.8, -0.3, 0.0, 0.8, 2.0]), id="chi0_eta0"),
        pytest.param(TwoSpinParams(0.0, 0.8, 1.2, 1.8, 1.0), np.linspace(-5.0, 5.0, 41),
                     id="golden"),
        # beta * spread >= 1e3
        pytest.param(TwoSpinParams(1.0, 0.5, 0.7, 0.4, 800.0), np.linspace(-1.0, 1.0, 41),
                     id="beta800"),
        pytest.param(TwoSpinParams(1.0, 0.5, 0.7, 0.4, 1e4), np.array([-2.0, 0.5, 3.0]),
                     id="beta1e4"),
    ]
    INTERACTION = [
        # alpha = epsilon: the uncoupled A has a block with eta = 0; chi_b = 0
        # gives B blocks whose smaller level weight is 0
        pytest.param((0.8, 0.8, 0.0, 1.0), np.array([-1.0, 0.0, 0.4, 1.0]), id="chi0_eta0"),
        pytest.param((1.0, 5.0, 1.2, 1.0), np.linspace(-3.0, 3.0, 31), id="golden"),
        pytest.param((1.0, 0.5, 0.4, 800.0), np.linspace(-1.0, 1.0, 21), id="beta800"),
    ]

    @pytest.mark.parametrize("p_a, values", SYSTEM)
    def test_system(self, p_a, values):
        self.assert_columns_equal_points(system_quench_ledger(p_a, values), values,
                                         lambda v: system_quench_ledger(p_a, v))

    @pytest.mark.parametrize("params, values", INTERACTION)
    def test_interaction(self, params, values):
        eps, alpha, chi_b, beta = params
        self.assert_columns_equal_points(
            interaction_quench_ledger(eps, alpha, values, chi_b, beta), values,
            lambda v: interaction_quench_ledger(eps, alpha, v, chi_b, beta))

    def test_grids_reach_every_block_branch(self, monkeypatch):
        # each kind's grids above pass through every branch of `_block`
        seen = set()
        original = twospin._block

        def recorded(a, chi, b):
            eta = np.hypot(a, chi)
            seen.add("eta0" if eta == 0 else "small0" if chi == 0 else "general")
            if eta and b * 2 * eta >= 1e3:
                seen.add("beta_spread_1e3")
            return original(a, chi, b)

        monkeypatch.setattr(twospin, "_block", recorded)
        every = {"eta0", "small0", "general", "beta_spread_1e3"}
        for p_a, values in (case.values for case in self.SYSTEM):
            system_quench_ledger(p_a, values)
        assert seen == every
        seen.clear()
        for (eps, alpha, chi_b, beta), values in (case.values for case in self.INTERACTION):
            interaction_quench_ledger(eps, alpha, values, chi_b, beta)
        assert seen == every


class TestSystemQuenchLedger:
    def test_no_quench_is_trivial(self):
        led = system_quench_ledger(BENCH, BENCH.epsilon)
        for name, value in led.numeric_fields().items():
            assert abs(value) <= 1e-12, name

    def test_commuting_case_works_identical(self):
        p = TwoSpinParams(0.0, 0.8, 1.2, 0.0, 1.0)
        led = system_quench_ledger(p, 1.7)
        assert led.w_diff == pytest.approx(led.w_hstar, abs=1e-12)
        assert led.w_diff == pytest.approx(led.w_estar, abs=1e-12)

    def test_entropy_identity(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            led = system_quench_ledger(random_two_spin_params(rng), float(rng.uniform(-2, 2)))
            assert abs(led.delta_s_diff - led.delta_s_estar) <= 1e-10

    def test_matches_engine_seeded(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            p_a = random_two_spin_params(rng)
            eps_b = float(rng.uniform(-2, 2))
            oracle = system_quench_ledger(p_a, eps_b)
            p_b = TwoSpinParams(eps_b, p_a.alpha, p_a.gamma, p_a.chi, p_a.beta)
            spec = QuenchSpec(
                two_spin_hamiltonian(p_a), two_spin_hamiltonian(p_b),
                reservoir_hamiltonian(p_a), p_a.beta, kind=SYSTEM_QUENCH,
            )
            assert_ledgers_match(run_quench(spec), oracle)


class TestSmallQuenchLimit:
    """The system quench eps_A -> eps_A + lambda at small lambda: beta diss_diff and
    beta diss_H* are (lambda^2 beta^2 / 2) times a Kubo-Mori variance, of d_eps H in
    pi_A and of d_eps H* in pi_S, while beta diss_E* is lambda c_1 with
    c_1 = beta Tr(rho_S d_eps (E* - H*)), so one sign of lambda violates the second
    law for E*.  The coefficients come by Richardson over the means of +-lambda."""

    P = TwoSpinParams(-1.0, 1.0, 0.6, 0.8, 2.0)
    LAMBDAS = (1e-3, 1e-4)
    # absolute error of one ledger's beta * diss, ~50 ulps of its O(1) terms; the
    # Richardson value carries about twice it over lambda^k at the smaller lambda
    ROUNDOFF = 1e-14

    @classmethod
    def quenches(cls, source: str) -> list:
        """(lambda, ledger) at lambda = +-LAMBDAS[0], then +-LAMBDAS[1], from the oracle
        or from `run_quench`; lambda is each quench's own eps_B - eps_A."""
        p, out = cls.P, []
        h_a, h_r = two_spin_hamiltonian(p), reservoir_hamiltonian(p)
        for eps_b in (p.epsilon + s * lam for lam in cls.LAMBDAS for s in (1, -1)):
            out.append((eps_b - p.epsilon, system_quench_ledger(p, eps_b) if source == "oracle"
                        else run_quench(QuenchSpec(
                            h_a, two_spin_hamiltonian(replace(p, epsilon=eps_b)), h_r, p.beta,
                            kind=SYSTEM_QUENCH))))
        return out

    @classmethod
    def d_eps(cls, row: str) -> np.ndarray:
        """d_eps of a `closed_form_statics` pair over sz_S at P, by central differences."""
        h = 1e-5
        up, down = (np.array(getattr(closed_form_statics(replace(cls.P, epsilon=cls.P.epsilon
                                                                  + s * h)), row))
                    for s in (1, -1))
        return (up - down) / (2 * h)

    @classmethod
    def kubo_mori_diff(cls) -> float:
        """(beta^2 / 2) Var_KM(d_eps H) in pi_A, from H_A's own eigenpairs."""
        p = cls.P
        e, u = np.linalg.eigh(two_spin_matrices(p.epsilon, p.alpha, p.gamma, p.chi))
        assert np.diff(e).min() > 0.1  # no degenerate levels
        log_w = -p.beta * (e - e[0])
        log_w -= np.log(np.exp(log_w).sum())
        w = np.exp(log_w)
        x = u.conj().T @ two_spin_matrices(1.0, 0.0, 0.0, 0.0) @ u  # d_eps H = sz_S / 2
        x -= (w @ x.diagonal().real) * np.eye(4)
        # the Kubo-Mori weight int_0^1 w_i^s w_j^(1-s) ds, the logarithmic mean of w_i, w_j
        same = np.eye(4, dtype=bool)
        mean = np.where(same, w[:, None],
                        (w[:, None] - w) / np.where(same, 1.0, log_w[:, None] - log_w))
        return p.beta ** 2 / 2 * float((np.abs(x) ** 2 * mean).sum())

    @classmethod
    def expected(cls, name: str) -> float:
        pops = np.array(closed_form_statics(cls.P).populations)
        d_h = cls.d_eps("h_star_diag")
        if name == "diss_diff":
            return cls.kubo_mori_diff()
        if name == "diss_hstar":  # H* and pi_S are diagonal: a classical variance
            return cls.P.beta ** 2 / 2 * float(pops @ d_h ** 2 - (pops @ d_h) ** 2)
        return cls.P.beta * float(pops @ (cls.d_eps("e_star_diag") - d_h))

    def test_expected_coefficients(self):
        assert self.expected("diss_diff") == pytest.approx(0.0995427, abs=5e-8)
        assert self.expected("diss_hstar") == pytest.approx(0.0445182, abs=5e-8)
        assert self.expected("diss_estar") == pytest.approx(0.0744551, abs=5e-8)

    @pytest.mark.parametrize("source", ["oracle", "engine"])
    @pytest.mark.parametrize("name, order", [
        ("diss_diff", 2), ("diss_hstar", 2), ("diss_estar", 1)])
    def test_leading_coefficient(self, source, name, order):
        quenches, b = self.quenches(source), self.P.beta
        # the mean over +-lambda drops the next order, and Richardson the one after it
        s_1, s_2 = (np.mean([b * getattr(ledger, name) / lam ** order for lam, ledger in pair])
                    for pair in (quenches[:2], quenches[2:]))
        lam_1, lam_2 = self.LAMBDAS
        value = (lam_1 ** 2 * s_2 - lam_2 ** 2 * s_1) / (lam_1 ** 2 - lam_2 ** 2)
        tol = 2 * self.ROUNDOFF / lam_2 ** order
        assert abs(value - self.expected(name)) <= tol, (value, self.expected(name), tol)

    @pytest.mark.parametrize("source", ["oracle", "engine"])
    def test_only_estar_dissipation_changes_sign(self, source):
        for lam, ledger in self.quenches(source):
            assert ledger.diss_diff > 0 and ledger.diss_hstar > 0, lam
            assert np.sign(ledger.diss_estar) == np.sign(lam), lam


class TestInteractionQuenchLedger:
    def test_no_quench_is_trivial(self):
        led = interaction_quench_ledger(1.0, 5.0, 0.0, 0.0, 1.0)
        for name, value in led.numeric_fields().items():
            assert abs(value) <= 1e-12, name

    def test_entropy_identity(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            p = random_two_spin_params(rng)
            led = interaction_quench_ledger(
                p.epsilon, p.alpha, p.gamma, p.chi, p.beta
            )
            assert abs(led.delta_s_diff - led.delta_s_estar) <= 1e-10

    def test_estar_violation_on_sweep(self):
        # at the reference interaction-quench parameters the E*-based
        # dissipated work goes negative somewhere while diff and H* never do
        violations = False
        for gamma_b in np.linspace(-3, 3, 61):
            led = interaction_quench_ledger(1.0, 5.0, float(gamma_b), 1.2, 1.0)
            assert led.diss_diff >= -1e-10
            assert led.diss_hstar >= -1e-10
            if led.diss_estar < -1e-6:
                violations = True
        assert violations

    def test_matches_engine_seeded(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            p = random_two_spin_params(rng)
            oracle = interaction_quench_ledger(
                p.epsilon, p.alpha, p.gamma, p.chi, p.beta
            )
            p_a = TwoSpinParams(p.epsilon, p.alpha, 0.0, 0.0, p.beta)
            spec = QuenchSpec(
                two_spin_hamiltonian(p_a), two_spin_hamiltonian(p),
                reservoir_hamiltonian(p), p.beta, kind=INTERACTION_QUENCH,
            )
            assert_ledgers_match(run_quench(spec), oracle)


class TestTwoSpinHamiltonian:
    @staticmethod
    def kron_build(p):
        sz = np.diag([1.0, -1.0]).astype(complex)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        return (
            (p.epsilon / 2) * np.kron(sz, eye)
            + (p.alpha / 2) * np.kron(eye, sz)
            + p.gamma * np.kron(sz, sz)
            + p.chi * np.kron(sx, sx)
        )

    def test_bit_identical_to_kron_build(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            p = TwoSpinParams(*(rng.standard_normal(4) * 10.0 ** rng.integers(-8, 9)), 1.0)
            assert np.array_equal(two_spin_hamiltonian(p).matrix, self.kron_build(p))

    def test_matrices_are_real_and_operators_complex(self):
        # the model is real; only `Operator` makes its matrix complex128
        p = TwoSpinParams(0.3, 0.8, 1.2, 1.8, 1.0)
        assert two_spin_matrices(0.3, 0.8, 1.2, 1.8).dtype == np.float64
        assert two_spin_matrices(np.linspace(-1, 1, 5), 0.8, 1.2, 1.8).dtype == np.float64
        assert two_spin_hamiltonian(p).matrix.dtype == np.complex128
        assert reservoir_hamiltonian(p).matrix.dtype == np.complex128

    def test_stack_bit_identical_to_points(self):
        rng = np.random.default_rng(101)
        eps = rng.uniform(-5, 5, 41)
        stack = two_spin_matrices(eps, 0.8, 1.2, 1.8)
        assert stack.shape == (41, 4, 4)
        for value, mat in zip(eps, stack):
            p = TwoSpinParams(float(value), 0.8, 1.2, 1.8, 1.0)
            assert np.array_equal(mat, self.kron_build(p))


class TestLgtHamiltonian:
    """The Gauss-law penalty form: k(1 - sz_S sz_R) in place of the zz
    coupling, which is the plain model at gamma = -k plus k times the identity."""

    @staticmethod
    def penalty_hamiltonian(epsilon, k):
        plain = two_spin_hamiltonian(TwoSpinParams(epsilon, 0.8, -k, 1.8, 1.0))
        return plain + k * identity((2, 2))

    def test_spectrum_is_shifted_plain_spectrum(self):
        k = 2.3
        h = self.penalty_hamiltonian(0.7, k)
        plain = two_spin_hamiltonian(TwoSpinParams(0.7, 0.8, -k, 1.8, 1.0))
        np.testing.assert_allclose(
            h.eig.eigenvalues,
            plain.eig.eigenvalues + k,
            atol=1e-12,
        )

    def test_large_penalty_confines_to_constraint_subspace(self):
        k, beta = 50.0, 1.0
        h = self.penalty_hamiltonian(0.7, k)
        state = gibbs(h, beta).state
        gauss = tensor_product(pauli("z"), pauli("z"))
        # projector onto the eigenvalue -1 (constraint-violating) subspace
        proj_out = 0.5 * (np.eye(4) - gauss.matrix)
        leaked = np.trace(proj_out @ state.matrix).real
        assert leaked <= 4 * np.exp(-2 * beta * k)

    def test_identity_shift_leaves_ledger_unchanged(self):
        # quenching with a shifted Hamiltonian changes F_SUR by the shift but
        # no work, heat, or system free-energy difference
        beta = 1.0
        for k in (0.5, 2.0, 7.5):
            h_a = self.penalty_hamiltonian(0.0, k)
            h_b = self.penalty_hamiltonian(1.5, k)
            h_r = reservoir_hamiltonian(TwoSpinParams(0.0, 0.8, 0.0, 0.0, beta))
            shifted = run_quench(
                QuenchSpec(h_a, h_b, h_r, beta, kind=SYSTEM_QUENCH)
            )
            p_a = TwoSpinParams(0.0, 0.8, -k, 1.8, beta)
            p_b = TwoSpinParams(1.5, 0.8, -k, 1.8, beta)
            plain = run_quench(QuenchSpec(
                two_spin_hamiltonian(p_a), two_spin_hamiltonian(p_b), h_r,
                beta, kind=SYSTEM_QUENCH,
            ))
            for name, value in plain.numeric_fields().items():
                assert getattr(shifted, name) == pytest.approx(
                    value, abs=1e-8
                ), name
