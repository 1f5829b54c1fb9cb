import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchtherm import (
    DensityMatrix,
    NotHermitian,
    BadFactorCount,
    Operator,
    SpectralDecomposition,
    gibbs,
    identity,
    partial_trace,
    pauli,
    tensor_product,
)
from quenchtherm.operators import HERMITICITY_TOL


def rand_hermitian(rng, d):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator(0.5 * (raw + raw.conj().T), (d,))


def func_of_hermitian(a, f):
    """f(A) through its spectrum: `Operator.from_eig` on f of A's cached eigenpairs."""
    dec = a.eig
    fvals = f(dec.eigenvalues)
    return Operator.from_eig(SpectralDecomposition(fvals, dec.eigenvectors, a.dims))


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


class TestMatrixDtype:
    """`Operator` alone decides the dtype: every matrix it holds is complex128."""

    @pytest.mark.parametrize("make", [
        lambda: Operator(np.eye(2), (2,)),
        lambda: Operator(np.eye(2, dtype=int), (2,)),
        lambda: Operator([[0.0, 1.0], [1.0, 0.0]], (2,)),
        lambda: Operator(np.eye(2, dtype=np.complex64), (2,)),
        lambda: pauli("x"), lambda: pauli("y"), lambda: pauli("z"),
        lambda: identity((2, 3)),
        lambda: tensor_product(pauli("z"), identity(2)),
        lambda: partial_trace(tensor_product(pauli("x"), identity(3)), "S"),
    ], ids=["float", "int", "list", "complex64", "x", "y", "z", "identity", "kron",
            "partial_trace"])
    def test_matrix_is_complex128(self, make):
        assert make().matrix.dtype == np.complex128


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
        assert abs(np.trace(out.matrix)) < 1e-15

    def test_trace_multiplicative_random(self):
        rng = np.random.default_rng(7)
        a = rand_hermitian(rng, 2)
        b = rand_hermitian(rng, 3)
        ab = tensor_product(a, b)
        tr_a, tr_b = np.trace(a.matrix), np.trace(b.matrix)
        assert np.trace(ab.matrix) == pytest.approx(tr_a * tr_b, abs=1e-12)


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

    def test_rejects_non_finite_spectrum(self):
        # finite entries whose eigenvalue -2e308 overflows inside `eigh`
        with pytest.raises(ValueError, match=r"^eigenvalues \[.*\] are not finite$"):
            Operator(np.full((4, 4), -5e307), (4,)).eig

    def test_finite_spectrum_near_the_float_limit(self):
        # A + A^dag overflows here; `eigh` reads A itself, so no such sum is formed
        dec = Operator(np.diag([1e308, 1.5e308]).astype(complex), (2,)).eig
        np.testing.assert_array_equal(dec.eigenvalues, [1e308, 1.5e308])

    def test_exactly_hermitian_input_is_decomposed_as_given(self):
        two_spin = (0.2 * tensor_product(pauli("z"), identity(2))
                    + 1.2 * tensor_product(pauli("z"), pauli("z"))
                    + 1.8 * tensor_product(pauli("x"), pauli("x"))).matrix
        for a in (two_spin, rand_hermitian(np.random.default_rng(11), 16).matrix):
            assert np.array_equal(a, a.conj().T)
            dec, (evals, evecs) = Operator(a, a.shape[:1]).eig, np.linalg.eigh(a)
            np.testing.assert_array_equal(dec.eigenvalues, evals)
            np.testing.assert_array_equal(dec.eigenvectors, evecs)

    def test_within_tolerance_input_is_decomposed_as_its_lower_triangle(self):
        # a defect in the upper triangle and the imaginary diagonal, under the
        # tolerance; the average of the two triangles differs by half the defect
        rng = np.random.default_rng(12)
        a = rand_hermitian(rng, 16).matrix.copy()
        upper = np.triu_indices(16, 1)
        a[upper] += 1e-12 * np.exp(2j * np.pi * rng.random(len(upper[0])))
        a[np.diag_indices(16)] += 0.5e-12j
        defect = np.abs(a - a.conj().T).max()
        assert 1e-12 < defect <= HERMITICITY_TOL * np.abs(a).max()
        lower = np.tril(a) + np.tril(a, -1).conj().T
        lower[np.diag_indices(16)] = lower.diagonal().real
        dec = Operator(a, (16,)).eig
        assert np.abs(dec.reconstruct() - lower).max() <= 1e-14 * np.abs(a).max()

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_defect_bound_in_the_matrix_unit(self, k):
        # a 1e-3 relative defect fails at any scale, and a zero matrix passes with defect 0
        a = 2.0 ** k * np.array([[1.0, 0.3 * (1 + 1e-3)], [0.3, -1.0]])
        with pytest.raises(NotHermitian):
            Operator(a, (2,)).eig
        zero = Operator(np.zeros((2, 2)), (2,)).eig
        assert not zero.eigenvalues.any()

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
        gibbs(op, 0.7).state.op.eig
        assert eig_calls["eigh"] == [4]

    def test_non_hermitian_raises_every_time(self, eig_calls):
        op = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))
        for _ in range(3):
            with pytest.raises(NotHermitian):
                op.eig
        assert eig_calls["eigh"] == []


class TestFuncOfHermitian:
    """Functions of a Hermitian operator, built by `Operator.from_eig`."""

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

    @pytest.mark.parametrize("f", [np.exp, lambda x: -x],
                             ids=["increasing", "decreasing"])
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

    def test_non_monotone_values_rejected(self):
        with pytest.raises(ValueError, match="eigenvalues must be monotone"):
            func_of_hermitian(Operator(np.diag([-2.0, 1.0, 3.0]), (3,)), lambda x: x**2)

    @pytest.mark.parametrize("values", [[np.nan, 1.0], [np.nan], [-np.inf, 0.0], [0.0, np.inf]],
                             ids=["nan_first", "nan_alone", "minus_inf", "plus_inf"])
    def test_non_finite_values_rejected(self, values):
        dec = SpectralDecomposition(np.array(values), np.eye(len(values)), (len(values),))
        with pytest.raises(ValueError, match="^eigenvalues must be monotone and finite, got "):
            Operator.from_eig(dec)

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
                traced = partial_trace(op, keep).matrix
                assert abs(np.trace(op.matrix) - np.trace(traced)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_product_rule_random(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_hermitian(rng, 2)
        b = rand_hermitian(rng, 3)
        traced = partial_trace(tensor_product(a, b), "S")
        expected = np.trace(b.matrix).real * a.matrix
        assert np.max(np.abs(traced.matrix - expected)) <= 1e-12

    def test_rejects_non_bipartite(self):
        with pytest.raises(BadFactorCount):
            partial_trace(identity((2, 2, 2)), "S")


class TestDensityMatrix:
    def test_valid(self):
        rho = DensityMatrix(Operator(np.diag([0.25, 0.75]), (2,)))
        np.testing.assert_array_equal(rho.op.eig.eigenvalues, [0.25, 0.75])

    def test_trace_enforced(self):
        with pytest.raises(ValueError, match="^trace 1.25 differs from 1 beyond tolerance$"):
            DensityMatrix(Operator(np.diag([0.5, 0.75]), (2,)))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="^negative eigenvalue -5.000e-01$"):
            DensityMatrix(Operator(np.diag([1.5, -0.5]), (2,)))
