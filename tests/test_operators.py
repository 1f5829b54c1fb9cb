import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchtherm import (
    DensityMatrix,
    NotHermitian,
    BadFactorCount,
    DomainError,
    Operator,
    func_of_hermitian,
    identity,
    partial_trace,
    pauli,
    tensor_product,
)


def rand_hermitian(rng, d):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator(0.5 * (raw + raw.conj().T), (d,))


class TestPauli:
    def test_z_is_diag(self):
        np.testing.assert_array_equal(pauli("z").matrix, np.diag([1.0, -1.0]))

    def test_x_is_antidiag(self):
        np.testing.assert_array_equal(
            pauli("x").matrix, np.array([[0, 1], [1, 0]], dtype=complex)
        )

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_involution(self, axis):
        sq = pauli(axis) @ pauli(axis)
        np.testing.assert_allclose(sq.matrix, np.eye(2), atol=1e-15)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            pauli("w")


class TestTensorProduct:
    def test_identity_case(self):
        out = tensor_product(identity(2), identity(2))
        np.testing.assert_array_equal(out.matrix, np.eye(4))
        assert out.dims == (2, 2)

    def test_zz(self):
        out = tensor_product(pauli("z"), pauli("z"))
        np.testing.assert_array_equal(out.matrix, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_trace_multiplicative(self):
        out = tensor_product(pauli("z"), pauli("x"))
        assert abs(out.trace()) < 1e-15

    def test_trace_multiplicative_random(self):
        rng = np.random.default_rng(7)
        a = rand_hermitian(rng, 2)
        b = rand_hermitian(rng, 3)
        ab = tensor_product(a, b)
        assert ab.trace() == pytest.approx(a.trace() * b.trace(), abs=1e-12)


class TestHermitianEig:
    def test_diagonal_input_sorted(self):
        dec = Operator(np.diag([3.0, 1.0, 2.0]), (3,)).eig
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0])

    def test_pauli_x_spectrum(self):
        dec = pauli("x").eig
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_two_spin_spectrum_closed_form(self):
        # spectrum of the two-spin benchmark: {g -+ eta_p, -g -+ eta_m}
        eps, alpha, gamma, chi = 0.4, 0.8, 1.2, 1.8
        sz, sx = pauli("z"), pauli("x")
        h = (
            (eps / 2) * tensor_product(sz, identity(2))
            + (alpha / 2) * tensor_product(identity(2), sz)
            + gamma * tensor_product(sz, sz)
            + chi * tensor_product(sx, sx)
        )
        eta_p = np.sqrt((eps / 2 + alpha / 2) ** 2 + chi**2)
        eta_m = np.sqrt((eps / 2 - alpha / 2) ** 2 + chi**2)
        expected = sorted(
            [gamma - eta_p, gamma + eta_p, -gamma - eta_m, -gamma + eta_m]
        )
        np.testing.assert_allclose(h.eig.eigenvalues, expected, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,)).eig

    def test_reconstruction_many_sizes(self):
        # reconstruction invariant over seeded random Hermitians, sides 2-16
        rng = np.random.default_rng(42)
        for _ in range(1000):
            d = int(rng.integers(2, 17))
            a = rand_hermitian(rng, d)
            dec = a.eig
            defect = np.max(np.abs(a.matrix - dec.reconstruct()))
            assert defect <= 1e-10 * max(1.0, np.max(np.abs(a.matrix)))
            unitary_defect = np.max(
                np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(d))
            )
            assert unitary_defect <= 1e-10


class TestOperatorOwnsItsEigenpairs:
    def test_caller_array_stays_writable_and_unshared(self):
        # one operator decomposed before the caller writes, one after
        a = np.diag([1.0, -1.0]).astype(complex)
        early, late = Operator(a, (2,)), Operator(a, (2,))
        early.eig
        a[0, 0] = 5.0
        a[0, 1] = 3.0
        for op in (early, late):
            np.testing.assert_array_equal(op.matrix, np.diag([1.0, -1.0]))
            np.testing.assert_array_equal(op.eig.eigenvalues, [-1.0, 1.0])

    def test_matrix_and_eigenpairs_read_only(self):
        op = rand_hermitian(np.random.default_rng(3), 3)
        dec = op.eig
        for arr in (op.matrix, dec.eigenvalues, dec.eigenvectors):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_decomposed_once(self, eig_calls):
        op = rand_hermitian(np.random.default_rng(5), 4)
        assert op.eig is op.eig
        func_of_hermitian(op, np.exp)
        assert eig_calls["eigh"] == [4]

    def test_non_hermitian_raises_every_time(self, eig_calls):
        op = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))
        for _ in range(3):
            with pytest.raises(NotHermitian):
                op.eig
        assert eig_calls["eigh"] == []


class TestFuncOfHermitian:
    def test_identity_map(self):
        rng = np.random.default_rng(0)
        a = rand_hermitian(rng, 4)
        out = func_of_hermitian(a, lambda x: x)
        np.testing.assert_allclose(out.matrix, a.matrix, atol=1e-12)

    def test_exp_ln_roundtrip(self):
        rng = np.random.default_rng(1)
        a = rand_hermitian(rng, 4)
        back = func_of_hermitian(func_of_hermitian(a, np.exp), np.log)
        np.testing.assert_allclose(back.matrix, a.matrix, atol=1e-9)

    def test_diagonal_exponential(self):
        out = func_of_hermitian(pauli("z"), lambda x: np.exp(-x))
        np.testing.assert_allclose(
            out.matrix, np.diag([np.exp(-1.0), np.exp(1.0)]), atol=1e-14
        )

    def test_commutes_with_input(self):
        rng = np.random.default_rng(2)
        a = rand_hermitian(rng, 5)
        f = func_of_hermitian(a, np.exp)
        comm = a.matrix @ f.matrix - f.matrix @ a.matrix
        assert np.max(np.abs(comm)) <= 1e-10 * np.max(np.abs(f.matrix))

    @pytest.mark.parametrize("f", [np.exp, lambda x: -x, lambda x: x**2],
                             ids=["increasing", "decreasing", "not-monotone"])
    def test_result_carries_ascending_eigenpairs(self, eig_calls, f):
        a = rand_hermitian(np.random.default_rng(4), 5)
        a.eig
        out = func_of_hermitian(a, f)
        dec = out.eig
        assert eig_calls["eigh"] == [5]
        np.testing.assert_array_equal(dec.eigenvalues, np.sort(f(a.eig.eigenvalues)))
        np.testing.assert_allclose(dec.reconstruct(), out.matrix, atol=1e-13)
        for arr in (dec.eigenvalues, dec.eigenvectors):
            assert not arr.flags.writeable

    def test_ln_of_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            func_of_hermitian(pauli("z"), np.log)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_exp_positive_definite(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_hermitian(rng, int(rng.integers(2, 6)))
        evals = np.linalg.eigvalsh(func_of_hermitian(a, np.exp).matrix)
        assert np.all(evals > 0)


class TestPartialTrace:
    def test_product_rule_simple(self):
        op = tensor_product(pauli("z"), identity(2))
        np.testing.assert_allclose(
            partial_trace(op, "S").matrix, 2.0 * pauli("z").matrix, atol=1e-15
        )

    def test_bell_state(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        proj = Operator(np.outer(psi, psi.conj()), (2, 2))
        np.testing.assert_allclose(
            partial_trace(proj, "S").matrix, 0.5 * np.eye(2), atol=1e-15
        )

    def test_trace_preserving(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            op = Operator(raw, (2, 3))
            for keep in ("S", "R"):
                assert abs(op.trace() - partial_trace(op, keep).trace()) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_product_rule_random(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_hermitian(rng, 2)
        b = rand_hermitian(rng, 3)
        traced = partial_trace(tensor_product(a, b), "S")
        expected = b.trace().real * a.matrix
        assert np.max(np.abs(traced.matrix - expected)) <= 1e-12

    def test_rejects_non_bipartite(self):
        with pytest.raises(BadFactorCount):
            partial_trace(identity((2, 2, 2)), "S")


class TestDensityMatrix:
    def test_valid(self):
        rho = DensityMatrix(Operator(np.diag([0.25, 0.75]), (2,)))
        assert rho.purity == pytest.approx(0.625)

    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(Operator(np.diag([0.5, 0.75]), (2,)))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(Operator(np.diag([1.5, -0.5]), (2,)))

    def test_check_spectra_passes_valid_stack(self):
        DensityMatrix.check_spectra(np.array([[0.25, 0.75], [1.0, 0.0]]))

    @pytest.mark.parametrize("spectra, message", [
        ([[0.5, 0.5], [0.5, 0.75]], "trace 1.25 differs from 1 beyond tolerance at stack index 1"),
        ([[0.5, 0.5], [1.5, -0.5]], "negative eigenvalue -5.000e-01 at stack index 1"),
        ([[np.nan, np.nan]], "trace nan differs from 1 beyond tolerance"),
        ([[0.5, 0.5], [np.nan, 1.0]], "trace nan differs from 1 beyond tolerance at stack index 1"),
    ], ids=["trace", "negative", "nan", "nan_member"])
    def test_check_spectra_names_first_bad_member(self, spectra, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DensityMatrix.check_spectra(np.array(spectra))
