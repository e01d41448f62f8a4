"""Structural operators, vech gathers and derivative rules against their oracles."""

import ast
import pathlib
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portinf import kernels as kn
from portinf import oracles as orc
from portinf.errors import (
    AsymmetricInput,
    BadLength,
    NotPositiveDefinite,
    RankDeficient,
    RepeatedEigenvalue,
    ShapeMismatch,
    SingularMatrix,
    SingularTheta,
)
from portinf.kernels import MatrixShape

from conftest import fd_jac, rand_spd, rand_sym

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "portinf"


class TestVecVech:
    def test_vec_definition(self):
        np.testing.assert_array_equal(orc.vec([[1, 2], [3, 4]]), [1, 3, 2, 4])
        np.testing.assert_array_equal(orc.vec(np.eye(2)), [1, 0, 0, 1])

    def test_vec_transpose_via_commutation(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        k = orc.commutation_matrix(2)
        np.testing.assert_allclose(k @ orc.vec(a), orc.vec(a.T))

    def test_vech_definition(self):
        np.testing.assert_array_equal(kn.vech([[1, 2], [2, 5]]), [1, 2, 5])
        np.testing.assert_array_equal(kn.vech(np.eye(3)), [1, 0, 0, 1, 0, 1])

    def test_vech_equals_elimination_of_vec(self):
        m = np.array([[1.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(orc.elimination_matrix(2) @ orc.vec(m), kn.vech(m))

    def test_vech_rejects_asymmetry(self):
        with pytest.raises(AsymmetricInput):
            kn.vech([[1.0, 2.0], [2.1, 5.0]])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(1, 1), (0, 2)], ids=["diagonal", "off_diagonal"])
    def test_check_symmetric_rejects_non_finite_entries(self, entry, where, rng):
        m = rand_spd(rng, 3)
        m[where] = m[where[::-1]] = entry
        with pytest.raises(SingularTheta, match="non-finite"):
            kn.check_symmetric(m)
        stack = np.stack([rand_spd(rng, 3), m, rand_spd(rng, 3)])
        with pytest.raises(SingularTheta, match="non-finite"):
            kn.check_symmetric(stack, stacked=True)

    def test_check_symmetric_gates_each_stack_member_on_its_own_scale(self, rng):
        big, small = 1e6 * rand_spd(rng, 3), rand_spd(rng, 3)
        small[0, 1] += 1e-6          # asymmetric relative to its own scale only
        with pytest.raises(AsymmetricInput, match="1.000e-06"):
            kn.check_symmetric(np.stack([big, small]), stacked=True)
        out = kn.check_symmetric(np.stack([big, rand_spd(rng, 3)]), stacked=True)
        np.testing.assert_array_equal(out, out.swapaxes(1, 2))

    def test_stack_past_the_global_gap_is_gated_member_by_member(self, rng):
        # a gap of 1e-8 in a member of scale 1e6 is past SYMMETRY_RTOL for the stack as
        # a whole, so the stack takes the per-member gate, which passes it
        big = 1e6 * rand_spd(rng, 3)
        big[0, 1] += 1e-8
        stack = np.stack([rand_spd(rng, 3), big, rand_spd(rng, 3)])
        assert np.abs(stack - stack.swapaxes(1, 2)).max() > kn.SYMMETRY_RTOL
        out = kn.check_symmetric(stack, stacked=True)
        for member, one in zip(stack, out):
            np.testing.assert_array_equal(one, kn.check_symmetric(member))
        # a member of scale 1 with a gap of 2e-12 fails, and the message names its gap
        small = np.full((3, 3), 0.3) + 0.5 * np.eye(3)
        small[0, 1] += 2e-12
        with pytest.raises(AsymmetricInput, match="asymmetry 2.000e-12 exceeds"):
            kn.check_symmetric(np.stack([big, small, rand_spd(rng, 3)]), stacked=True)

    def test_stack_gate_holds_one_stack_beside_its_input(self, rng):
        # neither path holds |m| and |m - m'| at once: besides its input, the gate holds
        # the difference, then the output, each one stack, plus ufunc buffers
        x = rng.standard_normal((8000, 4, 6))
        stack = x @ x.swapaxes(1, 2)
        slow = stack.copy()
        slow[5] *= 1e6
        slow[5, 0, 1] += 1e-8
        for m in (stack, slow):
            kn.check_symmetric(m, stacked=True)
            tracemalloc.start()
            try:
                kn.check_symmetric(m, stacked=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * m.nbytes

    def test_ivech_symmetric_and_lower(self):
        np.testing.assert_array_equal(kn.ivech([1, 2, 5]), [[1, 2], [2, 5]])
        np.testing.assert_array_equal(
            kn.ivech([1, 2, 5], MatrixShape.LOWER_TRIANGULAR), [[1, 0], [2, 5]])

    def test_ivech_roundtrip(self, rng):
        m = rand_sym(rng, 4)
        np.testing.assert_allclose(kn.ivech(kn.vech(m)), m)

    @given(st.integers(1, 6), st.data())
    def test_vech_block_reads_the_block(self, n, data):
        # vech_block's coordinates pick the block's entries out of vech(M),
        # above the diagonal included, in the block's column-major order
        bounds = st.integers(0, n)
        r0, r1, c0, c1 = (data.draw(bounds) for _ in range(4))
        block = (slice(min(r0, r1), max(r0, r1)), slice(min(c0, c1), max(c0, c1)))
        m = rand_sym(np.random.default_rng(n), n)
        np.testing.assert_array_equal(kn.vech(m)[kn.vech_block(n, block)],
                                      m[block].reshape(-1, order="F"))

    def test_ivech_bad_length(self):
        with pytest.raises(BadLength):
            kn.ivech([1.0, 2.0])

    @given(st.integers(1, 6))
    def test_roundtrip_property(self, n):
        rng = np.random.default_rng(n)
        m = rand_sym(rng, n)
        np.testing.assert_allclose(kn.ivech(kn.vech(m)), m)


class TestStructuralMatrices:
    def test_elimination_2(self):
        expect = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        np.testing.assert_array_equal(orc.elimination_matrix(2), expect)

    def test_duplication_2(self):
        expect = [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
        np.testing.assert_array_equal(orc.duplication_matrix(2), expect)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_elimination_duplication_identity(self, n):
        prod = orc.elimination_matrix(n) @ orc.duplication_matrix(n)
        np.testing.assert_array_equal(prod, np.eye(kn.vech_len(n)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_commutation_involution_and_transpose(self, n):
        k = orc.commutation_matrix(n)
        np.testing.assert_array_equal(k @ k, np.eye(n * n))
        rng = np.random.default_rng(n)
        for _ in range(100):
            a = rng.standard_normal((n, n))
            np.testing.assert_allclose(k @ orc.vec(a), orc.vec(a.T))

    def test_remove_first(self):
        np.testing.assert_array_equal(orc.remove_first(3), np.eye(3)[1:])

    @pytest.mark.parametrize("n", range(1, 5))
    def test_kron_commutation_swap(self, n):
        # (I kron X) K = K (X kron I), the identity behind the gram rule
        rng = np.random.default_rng(n + 100)
        x = rng.standard_normal((n, n))
        k = orc.commutation_matrix(n)
        lhs = np.kron(np.eye(n), x) @ k
        rhs = k @ np.kron(x, np.eye(n))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestKron:
    def test_vec_of_product_identity(self, rng):
        a, x, b = (rng.standard_normal((2, 2)) for _ in range(3))
        np.testing.assert_allclose(
            orc.vec(a @ x @ b), np.kron(b.T, a) @ orc.vec(x), atol=1e-12)


class TestSpdInverse:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 10_000))
    def test_stack_is_its_members_and_matches_lu(self, d, n, seed):
        rng = np.random.default_rng(seed)
        # each member in its own units, so the equilibration has work to do
        well = [rand_spd(rng, d) * np.outer(u, u) for u in 10.0 ** rng.uniform(-2, 2, (n, d))]
        # near the gate: eigenvalues 1 down to 10^-e, e in [2, 10], in units 10^+-8;
        # equilibrating moves the ratio by at most a factor d (van der Sluis)
        near = []
        for e, u in zip(rng.uniform(2, 10, n), 10.0 ** rng.uniform(-8, 8, (n, d))):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            m = (q * np.logspace(0, -e, d)) @ q.T
            near.append(0.5 * (m + m.T) * np.outer(u, u))
        stack = np.stack(well + near)
        inv, ratio = kn.spd_inverse(stack)
        assert inv.shape == stack.shape and ratio.shape == (2 * n,)
        for k in range(2 * n):
            one, one_ratio = kn.spd_inverse(stack[k])
            np.testing.assert_array_equal(inv[k], one)
            assert ratio[k] == one_ratio and kn.PD_RTOL <= one_ratio <= 1.0
            np.testing.assert_array_equal(one, one.T)
            if k < n:
                want = np.linalg.inv(stack[k])
                assert np.abs(one - want).max() <= 1e-12 * np.abs(want).max()
                continue
            # Check the equilibrated inverse Y = S inv S of A = a / (s s'), s = sqrt(diag a),
            # by its relative residual. The LU inverse has a forward error of about
            # d eps cond(A) relative, cond(A) = 1/ratio for SPD A (see
            # test_matches_the_exact_inverse); the symmetrization, the unscaling and this
            # rescaling move it by a few eps. I - A Y = A (A^-1 - Y),
            # so |I - A Y| <= |A| |Y| d eps / ratio, in 2-norms, up to a constant below 10.
            # The raw residual is no smaller: symmetrizing Y leaves an antisymmetric part
            # of about eps / ratio relative, which A does not shrink.
            s = np.sqrt(np.diagonal(stack[k]))
            a, y = stack[k] / np.outer(s, s), one * np.outer(s, s)
            rel = np.linalg.norm(np.eye(d) - a @ y, 2) / (np.linalg.norm(a, 2) * np.linalg.norm(y, 2))
            assert rel <= 10 * d * np.finfo(float).eps / one_ratio

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_the_exact_inverse(self, d):
        # Equilibrated members (unit diagonal, so the scaling is exact) with eigenvalues
        # 1 down to 10^-e, e in [0, 10], against their exact rational inverses. Partial
        # pivoting on an equilibrated SPD matrix has no growth to speak of, so the LU
        # inverse has a forward error of about d eps cond(A), cond(A) = 1/ratio, and the
        # symmetrization adds at most eps relative. The bound, stated before the first
        # run: max|Y - A^-1| <= 2 d eps / ratio max|A^-1|.
        rng = np.random.default_rng(d)
        members = []
        for e in np.r_[np.arange(11), rng.uniform(0, 10, 22)]:
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            m = (q * np.logspace(0, -e, d)) @ q.T
            m = 0.5 * (m + m.T)
            s = 1.0 / np.sqrt(np.diagonal(m))
            a = m * np.outer(s, s)
            np.fill_diagonal(a, 1.0)
            members.append(a)
        inv, ratio = kn.spd_inverse(np.stack(members))
        for a, y, r in zip(members, inv, ratio):
            exact = _exact_inverse(a)
            err = max(abs(Fraction(y[i, j]) - exact[i][j]) for i in range(d) for j in range(d))
            size = max(abs(x) for row in exact for x in row)
            assert float(err / size) <= 2 * d * np.finfo(float).eps / r

    @pytest.mark.parametrize("bad", ["nan", "zero_diagonal", "indefinite", "near_singular"])
    def test_bad_member_fails_the_gate_alone(self, bad, rng):
        stack = np.stack([rand_spd(rng, 3) for _ in range(4)])
        want_inv, want_ratio = kn.spd_inverse(stack)
        if bad == "nan":
            stack[2, 0, 1] = stack[2, 1, 0] = np.nan
        elif bad == "zero_diagonal":
            stack[2, 1, 1] = 0.0
        elif bad == "indefinite":  # a positive diagonal, eigenvalues 3, 1 and -1
            stack[2] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        else:  # eigenvalues 2, 1 and 1e-14: positive, below the gate, invertible by an LU
            c = 1.0 - 1e-14
            stack[2] = [[1.0, c, 0.0], [c, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv, ratio = kn.spd_inverse(stack)
        assert not ratio[2] >= kn.PD_RTOL
        assert np.isnan(ratio[2]) == (bad in ("nan", "zero_diagonal"))
        if bad == "near_singular":
            assert ratio[2] > 0
        np.testing.assert_array_equal(inv[2], np.eye(3))
        keep = [0, 1, 3]
        np.testing.assert_array_equal(inv[keep], want_inv[keep])
        np.testing.assert_array_equal(ratio[keep], want_ratio[keep])

    def test_single_matrix_ratio_is_a_float(self):
        inv, ratio = kn.spd_inverse(np.diag([4.0, 1e-6]))
        assert ratio == 1.0
        np.testing.assert_array_equal(inv, np.diag([0.25, 1e6]))
        inv, ratio = kn.spd_inverse(np.zeros((2, 2)))
        assert isinstance(ratio, float) and np.isnan(ratio)
        np.testing.assert_array_equal(inv, np.eye(2))


def _exact_inverse(a):
    """Exact inverse of a float matrix with non-zero leading minors: Gauss-Jordan over Fractions."""
    d = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
            for i, row in enumerate(a)]
    for k in range(d):
        pivot = rows[k][k]
        rows[k] = [x / pivot for x in rows[k]]
        for i in range(d):
            if i != k and rows[i][k]:
                f = rows[i][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [row[d:] for row in rows]


class TestInverseVechDerivative:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_scalar_rule(self, x):
        np.testing.assert_allclose(kn.d_inv_vech(np.array([[x]])), [[-1.0 / x**2]])

    def test_identity_case(self):
        np.testing.assert_allclose(kn.d_inv_vech(np.eye(2)), -np.eye(3))

    def test_finite_difference(self, rng):
        a = rand_spd(rng, 3)
        jac = kn.d_inv_vech(a)
        fd = fd_jac(lambda v: kn.vech(np.linalg.inv(kn.ivech(v))), kn.vech(a))
        np.testing.assert_allclose(jac, fd, atol=1e-6)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            kn.d_inv_vech(np.zeros((2, 2)))


class TestCholeskyDerivative:
    def test_scalar_rule(self):
        np.testing.assert_allclose(orc.d_chol_vech(np.array([[2.0]])), [[0.25]])

    def test_identity_fd(self):
        jac = orc.d_chol_vech(np.eye(2))
        fd = fd_jac(lambda v: kn.vech_lower(np.linalg.cholesky(kn.ivech(v))),
                    kn.vech(np.eye(2)))
        np.testing.assert_allclose(jac, fd, atol=1e-6)

    def test_random_spd_fd(self, rng):
        x = rand_spd(rng, 3)
        jac = orc.d_chol_vech(np.linalg.cholesky(x))
        fd = fd_jac(lambda v: kn.vech_lower(np.linalg.cholesky(kn.ivech(v))), kn.vech(x))
        np.testing.assert_allclose(jac, fd, atol=1e-6)


class TestQformInverseDerivative:
    def test_identity_reduces_to_inverse_rule(self, rng):
        x = rand_spd(rng, 3)
        xinv = np.linalg.inv(x)
        np.testing.assert_allclose(
            kn.d_qform_inv(np.eye(3), x), -np.kron(xinv, xinv), atol=1e-10)

    @pytest.mark.parametrize("case", ["row", "rect"])
    def test_finite_difference(self, case, rng):
        if case == "row":
            x, j = np.eye(2), np.array([[1.0, 0.0]])
        else:
            x, j = rand_spd(rng, 3), rng.standard_normal((2, 3))
        jac = kn.d_qform_inv(j, x)
        fd = fd_jac(
            lambda v: orc.vec(np.linalg.inv(j @ orc.ivec(v) @ j.T)), orc.vec(x))
        np.testing.assert_allclose(jac, fd, atol=1e-6)


class TestProductAndGramRules:
    def test_product_rule_constant_y(self, rng):
        x = rng.standard_normal((2, 3))
        y = rng.standard_normal((3, 2))
        dx = np.eye(6)
        dy = np.zeros((6, 6))
        np.testing.assert_allclose(
            orc.d_product(x, y, dx, dy), np.kron(y.T, np.eye(2)), atol=1e-12)

    def test_product_rule_fd(self, rng):
        x0 = rng.standard_normal((2, 2))
        y0 = rng.standard_normal((2, 2))

        def f(v):
            x = v[:4].reshape(2, 2, order="F")
            y = v[4:].reshape(2, 2, order="F")
            return (x @ y).reshape(-1, order="F")

        dx = np.hstack([np.eye(4), np.zeros((4, 4))])
        dy = np.hstack([np.zeros((4, 4)), np.eye(4)])
        jac = orc.d_product(x0, y0, dx, dy)
        fd = fd_jac(f, np.concatenate([orc.vec(x0), orc.vec(y0)]))
        np.testing.assert_allclose(jac, fd, atol=1e-6)

    def test_outer_gram_identity_case(self):
        k = orc.commutation_matrix(2)
        np.testing.assert_allclose(
            orc.d_outer_gram(np.eye(2), np.eye(4)), np.eye(4) + k)

    def test_outer_gram_fd(self, rng):
        x0 = rng.standard_normal((3, 3))
        jac = orc.d_outer_gram(x0, np.eye(9))
        fd = fd_jac(lambda v: orc.vec(orc.ivec(v) @ orc.ivec(v).T), orc.vec(x0))
        np.testing.assert_allclose(jac, fd, atol=1e-6)


class TestScalarValuedRules:
    def test_trace_with_identity(self, rng):
        x = rng.standard_normal((3, 3))
        grad = orc.d_trace_prod(x, np.eye(3), np.eye(9), np.zeros((9, 9)))
        np.testing.assert_allclose(grad, orc.vec(np.eye(3)), atol=1e-12)

    def test_trace_fd(self, rng):
        x0 = rng.standard_normal((2, 3))
        y0 = rng.standard_normal((3, 2))

        def f(v):
            x = v[:6].reshape(2, 3, order="F")
            y = v[6:].reshape(3, 2, order="F")
            return np.array([np.trace(x @ y)])

        dx = np.hstack([np.eye(6), np.zeros((6, 6))])
        dy = np.hstack([np.zeros((6, 6)), np.eye(6)])
        grad = orc.d_trace_prod(x0, y0, dx, dy)
        fd = fd_jac(f, np.concatenate([x0.reshape(-1, order="F"), y0.reshape(-1, order="F")]))
        np.testing.assert_allclose(grad[None, :], fd, atol=1e-6)

    def test_det_at_identity(self):
        np.testing.assert_allclose(
            orc.d_det(np.eye(2), np.eye(4)), [1.0, 0.0, 0.0, 1.0])

    def test_det_fd(self, rng):
        x0 = rand_spd(rng, 3)
        grad = orc.d_det(x0, np.eye(9))
        fd = fd_jac(lambda v: np.array([np.linalg.det(orc.ivec(v))]), orc.vec(x0))
        np.testing.assert_allclose(grad[None, :], fd, rtol=1e-5, atol=1e-6)

    def test_det_singular_raises(self):
        with pytest.raises(SingularMatrix):
            orc.d_det(np.ones((2, 2)), np.eye(4))

    def test_eig_diagonal_case(self):
        grad = orc.d_eig(np.diag([3.0, 1.0]), 0, np.eye(4))
        np.testing.assert_allclose(grad, [1.0, 0.0, 0.0, 0.0], atol=1e-6)

    def test_eig_fd(self, rng):
        x0 = rand_sym(rng, 3) + np.diag([3.0, 1.0, -1.0])
        grad = orc.d_eig(x0, 0, np.eye(9))

        def f(v):
            m = orc.ivec(v)
            return np.array([np.linalg.eigvalsh(0.5 * (m + m.T))[-1]])

        fd = fd_jac(f, orc.vec(x0))
        np.testing.assert_allclose(grad[None, :], fd, atol=1e-6)

    def test_eig_repeated_raises(self):
        with pytest.raises(RepeatedEigenvalue):
            orc.d_eig(np.eye(2), 0, np.eye(4))


class TestFactorizations:
    def test_eigen_sym_order_and_signs(self, rng):
        x = rand_sym(rng, 4)
        vals, vecs = orc.eigen_sym(x)
        assert np.all(np.diff(vals) <= 1e-12)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, x, atol=1e-10)
        for k in range(4):
            assert vecs[np.argmax(np.abs(vecs[:, k])), k] > 0

    def test_chol_hand_case(self):
        np.testing.assert_allclose(kn.chol([[4.0, 2.0], [2.0, 5.0]]), [[2, 0], [1, 2]])

    def test_chol_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            kn.chol([[1.0, 2.0], [2.0, 1.0]])

    def test_pinv_rank_diagonal(self):
        np.testing.assert_allclose(
            orc.pinv_rank(np.diag([4.0, 1.0, 0.0]), 2), np.diag([0.25, 1.0, 0.0]))

    def test_pinv_rank_full_equals_inverse(self, rng):
        x = rand_spd(rng, 3)
        np.testing.assert_allclose(orc.pinv_rank(x, 3), np.linalg.inv(x), atol=1e-10)

    def test_pinv_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            orc.pinv_rank(np.diag([4.0, 1.0, 0.0]), 3)


class TestRowBasis:
    def test_orthonormal_rows_that_give_back_the_matrix(self, rng):
        mat = rng.standard_normal((2, 5))
        q, r = kn.row_basis(mat, "rows")
        assert q.flags.c_contiguous
        np.testing.assert_allclose(q @ q.T, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(r.T @ q, mat, atol=1e-14)
        np.testing.assert_array_equal(r, np.triu(r))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_is_a_usage_error_naming_the_matrix(self, rng, bad):
        mat = rng.standard_normal((2, 5))
        mat[1, 3] = bad
        with pytest.raises(ShapeMismatch, match="non-finite entry in contrast A"):
            kn.row_basis(mat, "contrast A")

    def test_only_row_basis_runs_a_qr(self):
        """Every restriction reaches its orthonormal rows through one function."""
        found = {(path.name, where)
                 for path in sorted(SRC.glob("*.py")) if path.name != "oracles.py"
                 for where in _qr_sites(ast.parse(path.read_text()), "<module>")}
        assert found == {("kernels.py", "row_basis")}


def _qr_sites(node, where):
    """Names of the innermost functions that read a `qr` attribute or import a `qr`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if (isinstance(node, ast.Attribute) and node.attr == "qr"
            or isinstance(node, ast.ImportFrom) and "qr" in {a.name for a in node.names}):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from _qr_sites(child, where)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10_000))
def test_duplication_recovers_symmetric_vec(n, seed):
    rng = np.random.default_rng(seed)
    m = rand_sym(rng, n)
    d = orc.duplication_matrix(n)
    np.testing.assert_allclose(d @ kn.vech(m), orc.vec(m))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_gathers_match_dense_oracles(n, seed):
    rng = np.random.default_rng(seed)
    a = rand_sym(rng, n)
    y = np.tril(rng.standard_normal((n, n)))
    el, du, ka = orc.elimination_matrix(n), orc.duplication_matrix(n), orc.commutation_matrix(n)
    for got, want in (
        (kn.d_qform_inv_vech(a), -el @ np.kron(a, a) @ du),
        (orc.d_gram(y), el @ (np.eye(n * n) + ka) @ np.kron(y, np.eye(n)) @ el.T),
    ):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _vech_pair_by_coordinate(a, rows):
    """pair(A)[(i,j),(k,l)] = A_ik A_jl + A_il A_jk, one coordinate at a time."""
    coords = list(zip(*kn.vech_indices(a.shape[0])))
    picked = np.arange(len(coords)) if rows is None else np.arange(len(coords))[rows]
    return np.array([[a[i, k] * a[j, l] + a[i, l] * a[j, k] for k, l in coords]
                     for i, j in (coords[q] for q in picked)]).reshape(len(picked), len(coords))


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("rows", [None, slice(1, 4), [2, 0, 0], [0]],
                         ids=["all", "slice", "fancy", "first"])
def test_vech_pair_is_its_definition_bit_for_bit(n, rows, rng):
    # a general (asymmetric) A, so a swapped index cannot pass unnoticed
    a = rng.standard_normal((n, n))
    if isinstance(rows, list):
        rows = np.array([q for q in rows if q < kn.vech_len(n)], dtype=int)
    np.testing.assert_array_equal(kn.vech_pair(a, rows), _vech_pair_by_coordinate(a, rows))


@pytest.mark.parametrize("n,q", [(1, 3), (2, 5), (4, 2), (3, 6)])
def test_rectangular_vech_pair_matches_the_kron_oracle(n, q, rng):
    # output vech coordinates over R's rows, input coordinates over its columns
    a = rng.standard_normal((n, q))
    want = (orc.elimination_matrix(n) @ (np.eye(n * n) + orc.commutation_matrix(n))
            @ np.kron(a, a) @ orc.elimination_matrix(q).T)
    assert kn.vech_pair(a).shape == (kn.vech_len(n), kn.vech_len(q))
    np.testing.assert_allclose(kn.vech_pair(a), want, rtol=0, atol=1e-14 * np.abs(want).max())
