import math
import re

import numpy as np
import pytest

from herglotzlab.optuple import (
    HerglotzDatum,
    NonCommutingError,
    _commuting_powers,
    OperatorTuple,
    SingularPencilError,
    herglotz_kernel,
    herglotz_taylor,
    herglotz_transform_many,
    is_commuting,
    is_row_contraction,
    is_weak_row_contraction,
    require_commuting,
    rs_duality_residual,
)
from herglotzlab.pairing import qr_pair
from herglotzlab.series import (
    DimensionMismatchError,
    TruncatedSeries,
    _check_same_d,
    enumerate_multiindices,
    simplex_size,
)

from test_series import _parents_by_tuples, make_series, random_series, weight

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
ZERO2 = np.zeros((2, 2), dtype=complex)


# -- symmetrized calculus by word enumeration ----------------------------
# The independent oracle for herglotz_taylor's word-sum recursion and for
# commuting_calculus: factorial in |alpha|, so capped.

WORD_DEGREE_CAP = 12


def _distinct_words(alpha):
    """All distinct words with letter multiplicities alpha (0-based letters)."""
    counts = list(alpha)
    word = []

    def rec():
        if not any(counts):
            yield tuple(word)
            return
        for j, c in enumerate(counts):
            if c > 0:
                counts[j] -= 1
                word.append(j)
                yield from rec()
                word.pop()
                counts[j] += 1

    yield from rec()


def sym_monomial(alpha, T: OperatorTuple) -> np.ndarray:
    """Average of T_w over all distinct words w with content alpha:
    (alpha!/|alpha|!) * sum of the word products."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != T.d:
        raise DimensionMismatchError(
            f"multi-index has {len(alpha)} entries, tuple has d={T.d}")
    k = sum(alpha)
    if k > WORD_DEGREE_CAP:
        raise ValueError(
            f"|alpha| = {k} exceeds the word-enumeration cap {WORD_DEGREE_CAP}")
    if k == 0:
        return np.eye(T.n, dtype=complex)
    acc = np.zeros((T.n, T.n), dtype=complex)
    for word in _distinct_words(alpha):
        prod = T.matrices[word[0]]
        for letter in word[1:]:
            prod = prod @ T.matrices[letter]
        acc += prod
    return acc / weight(alpha)


def sym_poly(p: TruncatedSeries, T: OperatorTuple) -> np.ndarray:
    """Linear extension of sym_monomial: sum_alpha c_alpha (z^alpha)^sym(T)."""
    if p.d != T.d:
        raise DimensionMismatchError(f"dimension mismatch: {p.d} vs {T.d}")
    acc = np.zeros((T.n, T.n), dtype=complex)
    alphas = enumerate_multiindices(p.d, p.N)
    for i in np.nonzero(p.coeffs)[0]:
        acc += p.coeffs[i] * sym_monomial(alphas[i], T)
    return acc


def commuting_calculus(p: TruncatedSeries, T: OperatorTuple,
                       tol: float = 1e-10) -> np.ndarray:
    """p(T) on a commuting tuple, from the monomial table T^alpha;
    rejects non-commuting input and a tuple of another d."""
    powers = _commuting_powers(T, p.N, tol)
    _check_same_d(p, T)
    return np.tensordot(p.coeffs, powers, axes=(0, 0))


# -- per-index recursions -------------------------------------------------
# The grade-batched herglotz_taylor and _commuting_powers must reproduce
# these one-index-at-a-time loops bit for bit, so that reports built on them
# do not change.


def herglotz_taylor_by_index(D: HerglotzDatum, N: int) -> np.ndarray:
    """Coefficients of herglotz_taylor, one multi-index at a time: U_alpha
    sums T_j U_(alpha - e_j) over j in turn, and c_alpha = 2 <U_alpha, xi>."""
    parents = _parents_by_tuples(D.d, N).tolist()
    U = np.zeros((len(parents), D.tuple.n), dtype=complex)
    U[0] = D.xi
    coeffs = np.zeros(len(parents), dtype=complex)
    coeffs[0] = np.vdot(D.xi, D.xi).real + 1j * D.t
    for i in range(1, len(parents)):
        acc = np.zeros(D.tuple.n, dtype=complex)
        for j, parent in enumerate(parents[i]):
            if parent >= 0:
                acc += D.tuple.matrices[j] @ U[parent]
        U[i] = acc
        coeffs[i] = 2.0 * np.vdot(D.xi, acc)
    return coeffs


def commuting_powers_by_index(T: OperatorTuple, N: int) -> np.ndarray:
    """T^alpha = T_j T^(alpha - e_j), j the first nonzero coordinate of
    alpha, one multi-index at a time."""
    exps = np.array(enumerate_multiindices(T.d, N))
    parents = _parents_by_tuples(T.d, N)
    powers = np.zeros((len(exps), T.n, T.n), dtype=complex)
    powers[0] = np.eye(T.n)
    for i in range(1, len(exps)):
        j = int(np.argmax(exps[i] > 0))
        powers[i] = T.matrices[j] @ powers[parents[i, j]]
    return powers


def commutator_norms_by_pair(T: OperatorTuple) -> list:
    """||T_i T_j - T_j T_i|| in operator norm for i < j, one commutator at a
    time."""
    M = T.matrices
    return [float(np.linalg.norm(M[i] @ M[j] - M[j] @ M[i], 2))
            for i in range(T.d) for j in range(i + 1, T.d)]


def random_row_tuple(d, n, seed, target=None):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    row = np.concatenate(list(mats), axis=1)
    t = target if target is not None else rng.uniform(0.3, 1.0)
    return OperatorTuple(mats * (t / np.linalg.norm(row, 2)))


class TestPredicates:
    def test_zero_tuple(self):
        T = OperatorTuple(np.array([ZERO2, ZERO2]))
        assert is_row_contraction(T) == (True, 1.0)

    def test_gap_example_not_row(self):
        T = OperatorTuple(np.array([E11, E12]))
        ok, eig = is_row_contraction(T)
        assert not ok and abs(eig + 1.0) < 1e-12

    def test_scalar_equality_case(self):
        T = OperatorTuple(np.array([[[2 ** -0.5]], [[2 ** -0.5]]], dtype=complex))
        ok, eig = is_row_contraction(T)
        assert ok and abs(eig) < 1e-12

    def test_row_implies_weak(self):
        for seed in range(5):
            T = random_row_tuple(2, 4, seed)
            rep = is_weak_row_contraction(T, samples=300, rng=np.random.default_rng(seed))
            assert rep.is_weak
            assert rep.sup_estimate <= 1.0 + 1e-9

    def test_gap_example_is_weak_with_sup_one(self):
        T = OperatorTuple(np.array([E11, E12]))
        rep = is_weak_row_contraction(T, samples=500, rng=np.random.default_rng(2))
        assert rep.is_weak
        assert abs(rep.sup_estimate - 1.0) < 1e-9

    def test_weak_violation_certificate(self):
        T = OperatorTuple(np.array([[[1.0]], [[1.0]]], dtype=complex))
        rep = is_weak_row_contraction(T, samples=500, rng=np.random.default_rng(3))
        assert not rep.is_weak
        assert abs(rep.sup_estimate - math.sqrt(2)) < 1e-6
        worst = rep.worst_zeta
        assert abs(abs(worst[0]) - 2 ** -0.5) < 1e-6

    def test_commuting(self):
        diag = OperatorTuple(np.array([np.diag([0.1, 0.2]), np.diag([0.3, 0.4])]))
        assert is_commuting(diag)[0]
        bad = OperatorTuple(np.array([E12, E21]))
        ok, worst = is_commuting(bad)
        assert not ok and abs(worst - 1.0) < 1e-12   # commutator E11 - E22
        single = OperatorTuple(np.array([E12]))
        assert is_commuting(single)[0]

    @pytest.mark.parametrize("kind", ["R+", "S+"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_commuting_value_is_the_per_commutator_norm(self, kind, d):
        # the stacked norms against one SVD per commutator, compared with ==;
        # an R+ commutator is rounding-sized, not zero
        from herglotzlab.classes import generate_member
        for seed in range(20):
            T = generate_member(kind, np.random.default_rng(seed), d, 2 + seed % 5).tuple
            ok, worst = is_commuting(T)
            assert worst == max([0.0] + commutator_norms_by_pair(T))
            assert ok == (worst <= 1e-10)

    def test_require_commuting_over_a_stack(self):
        # a (k, d, n, n) stack passes when every tuple commutes; otherwise the
        # error names the first commutator over tol in stack order
        from herglotzlab.classes import generate_member
        rng = np.random.default_rng(21)
        stack = np.stack([generate_member("R+", rng, 3, 4).tuple.matrices for _ in range(6)])
        require_commuting(stack)
        stack[4] = generate_member("S+", rng, 3, 4).tuple.matrices
        with pytest.raises(NonCommutingError):
            require_commuting(stack)
        stack[2] = generate_member("S+", rng, 3, 4).tuple.matrices
        first = next(v for v in commutator_norms_by_pair(OperatorTuple(stack[2])) if v > 1e-10)
        with pytest.raises(NonCommutingError, match=re.escape(f"norm {first:.3e}")):
            require_commuting(stack)


class TestKernel:
    def test_identity_at_origin(self):
        T = OperatorTuple(np.array([E11, E12]))
        assert np.allclose(herglotz_kernel([0, 0], T), np.eye(2))

    def test_scalar_moebius(self):
        T = OperatorTuple(np.array([[[1.0]]], dtype=complex))
        assert abs(herglotz_kernel([0.5], T)[0, 0] - 3.0) < 1e-13

    def test_real_part_factorization(self):
        # H + H* = 2 (I-A)^{-1} (I - A A*) (I-A*)^{-1}, so the Hermitian part
        # inherits positivity from the middle factor
        rng = np.random.default_rng(41)
        for seed in range(8):
            T = random_row_tuple(3, 5, seed)
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z = z / np.linalg.norm(z) * rng.uniform(0.0, 0.95)
            H = herglotz_kernel(z, T)
            A = T.zeta_dot(z)
            inv = np.linalg.solve(np.eye(5) - A, np.eye(5))
            target = 2.0 * inv @ (np.eye(5) - A @ A.conj().T) @ inv.conj().T
            assert np.linalg.norm(H + H.conj().T - target, 2) < 1e-12

    def test_singular_pencil(self):
        T = OperatorTuple(np.array([[[1.0]], [[0.0]]], dtype=complex))
        with pytest.raises(SingularPencilError):
            herglotz_kernel([1.0, 0.0], T)


class TestTransform:
    def test_zero_tuple_constant(self):
        D = HerglotzDatum(OperatorTuple(np.array([ZERO2, ZERO2])),
                          np.array([1.0, 0.0]), 0.0)
        assert abs(herglotz_transform_many(D, [0.3, -0.2])[0] - 1.0) < 1e-14

    def test_scalar_tuple_gives_boundary_kernel(self):
        from herglotzlab.classes import boundary_kernel
        zeta = np.array([0.6, 0.8j])
        zeta /= np.linalg.norm(zeta)
        D = HerglotzDatum(OperatorTuple(np.conj(zeta).reshape(2, 1, 1)),
                          np.array([1.0]), 0.0)
        pts = np.random.default_rng(5).standard_normal((7, 2)) * 0.3 + 0j
        assert np.allclose(herglotz_transform_many(D, pts),
                           boundary_kernel(zeta).values_at(pts), atol=1e-12)

    def test_nilpotent_affine(self):
        D = HerglotzDatum(OperatorTuple(np.array([E12, ZERO2])),
                          np.array([2 ** -0.5, 2 ** -0.5]), 0.0)
        z = np.array([0.37 - 0.11j, 0.6j])
        assert abs(herglotz_transform_many(D, z)[0] - (1 + z[0])) < 1e-13

    def test_constant_offset(self):
        D = HerglotzDatum(OperatorTuple(np.array([ZERO2, ZERO2])),
                          np.array([1.0, 1.0]), -0.3)
        assert abs(herglotz_transform_many(D, [0, 0])[0] - (2.0 - 0.3j)) < 1e-14

    def test_positivity_sampled(self):
        rng = np.random.default_rng(6)
        for seed in range(30):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2, 7))
            T = random_row_tuple(d, n, 100 + seed)
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            D = HerglotzDatum(T, xi, float(rng.standard_normal()))
            pts = rng.standard_normal((50, d)) + 1j * rng.standard_normal((50, d))
            pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) \
                * rng.uniform(0, 0.95, (50, 1))
            assert herglotz_transform_many(D, pts).real.min() >= -1e-10


class TestTaylor:
    def test_zero_tuple(self):
        D = HerglotzDatum(OperatorTuple(np.array([ZERO2, ZERO2])),
                          np.array([1.0, 1j]), 0.7)
        s = herglotz_taylor(D, 4)
        assert abs(s.constant_term - (2.0 + 0.7j)) < 1e-14
        assert np.allclose(s.coeffs[1:], 0.0)

    def test_scalar_tuple_matches_measure_expansion(self):
        from herglotzlab.classes import extreme_h
        zeta = np.array([0.28, 0.96j])
        zeta /= np.linalg.norm(zeta)
        D = HerglotzDatum(OperatorTuple(np.conj(zeta).reshape(2, 1, 1)),
                          np.array([1.0]), 0.0)
        assert np.allclose(herglotz_taylor(D, 8).coeffs,
                           extreme_h(zeta, 8).coeffs, atol=1e-13)

    def test_geometric_tail_bound(self):
        rng = np.random.default_rng(9)
        for seed in range(6):
            T = random_row_tuple(2, 4, 200 + seed)
            xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            D = HerglotzDatum(T, xi, 0.0)
            s = herglotz_taylor(D, 10)
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z = z / np.linalg.norm(z) * 0.8
            rho = float(np.linalg.norm(T.zeta_dot(z), 2))
            bound = 2 * np.vdot(xi, xi).real * rho ** 11 / (1 - rho)
            err = abs(s.evaluate(z) - herglotz_transform_many(D, z)[0])
            assert err <= bound + 1e-12

    def test_matches_word_enumeration(self):
        # c_alpha = 2 w(alpha) <sym_monomial(alpha, T) xi, xi> for alpha != 0
        rng = np.random.default_rng(11)
        T = random_row_tuple(2, 3, 301)
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s = herglotz_taylor(HerglotzDatum(T, xi, 0.0), 6)
        for i, alpha in enumerate(enumerate_multiindices(2, 6)[1:], start=1):
            word_sum = weight(alpha) * sym_monomial(alpha, T)
            assert abs(s.coeffs[i] - 2.0 * np.vdot(xi, word_sum @ xi)) < 1e-12

    def test_word_sum_regrouping(self):
        # sum over a grade of z^alpha w(alpha) sym_monomial = <z,T>^k
        rng = np.random.default_rng(10)
        T = random_row_tuple(2, 3, 300)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for k in range(1, 7):
            acc = np.zeros((3, 3), dtype=complex)
            for alpha in enumerate_multiindices(2, k):
                if sum(alpha) != k:
                    continue
                acc += (z[0] ** alpha[0] * z[1] ** alpha[1]
                        * weight(alpha) * sym_monomial(alpha, T))
            direct = np.linalg.matrix_power(T.zeta_dot(z), k)
            assert np.linalg.norm(acc - direct, 2) < 1e-11 * max(
                1.0, np.linalg.norm(direct, 2))


GRADE_BATCH_SIZES = [(1, 16), (2, 6), (2, 10), (3, 12), (4, 16)]


class TestGradeBatchedRecursions:
    @pytest.mark.parametrize("d,N", GRADE_BATCH_SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_taylor_bit_identical_to_per_index_loop(self, d, N, seed):
        rng = np.random.default_rng(seed)
        n = (2, 4, 8)[seed]
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        D = HerglotzDatum(random_row_tuple(d, n, 700 + seed), xi, 0.7 * seed - 0.3)
        s = herglotz_taylor(D, N)
        assert np.array_equal(s.coeffs, herglotz_taylor_by_index(D, N))
        assert s.constant_term.imag == D.t != 0.0

    @pytest.mark.parametrize("d,N", GRADE_BATCH_SIZES)
    def test_taylor_of_nilpotent_datum(self, d, N):
        # strictly upper triangular 3 x 3 matrices: every word of length 3
        # vanishes, so every grade from 3 up is exactly zero
        rng = np.random.default_rng(d)
        mats = np.triu(rng.standard_normal((d, 3, 3)) + 1j * rng.standard_normal((d, 3, 3)), 1)
        D = HerglotzDatum(OperatorTuple(0.5 * mats), np.array([0.3, -1.0j, 1.0]), 0.25)
        s = herglotz_taylor(D, N)
        assert np.array_equal(s.coeffs, herglotz_taylor_by_index(D, N))
        assert not np.any(s.coeffs[simplex_size(d, 2):])

    @pytest.mark.parametrize("d,N", GRADE_BATCH_SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_commuting_powers_bit_identical_to_per_index_loop(self, d, N, seed):
        from herglotzlab.classes import generate_member
        T = generate_member("R+", np.random.default_rng(40 * d + seed), d, 3 + seed % 2).tuple
        assert np.array_equal(_commuting_powers(T, N), commuting_powers_by_index(T, N))


class TestSymCalculus:
    def test_transposition_average(self):
        T = OperatorTuple(np.array([E11, E12]))
        assert np.allclose(sym_monomial((1, 1), T), (E11 @ E12 + E12 @ E11) / 2)

    def test_pure_power(self):
        T = OperatorTuple(np.array([E11, E12]))
        assert np.allclose(sym_monomial((2, 0), T), E11 @ E11)

    def test_commuting_collapse(self):
        T = OperatorTuple(np.array([np.diag([0.1, 0.4]), np.diag([0.2, 0.3])]))
        assert np.allclose(sym_monomial((2, 1), T),
                           np.diag([0.1 ** 2 * 0.2, 0.4 ** 2 * 0.3]))

    def test_word_cap(self):
        T = OperatorTuple(np.array([E11, E12]))
        with pytest.raises(ValueError):
            sym_monomial((7, 6), T)

    def test_sym_poly_linear_combination(self):
        p = make_series(2, 3, {(1, 0): 1.0, (1, 1): 1.0})
        T = OperatorTuple(np.array([E11, E12]))
        assert np.allclose(sym_poly(p, T), E11 + (E11 @ E12 + E12 @ E11) / 2)

    def test_sym_poly_constant(self):
        const = TruncatedSeries.constant(2, 2, 3.0 - 1j)
        T = OperatorTuple(np.array([E11, E12]))
        assert np.allclose(sym_poly(const, T), (3.0 - 1j) * np.eye(2))

    def test_commuting_calculus_matches_sym(self):
        rng = np.random.default_rng(12)
        diag = np.array([np.diag(rng.uniform(-0.5, 0.5, 3)) + 0j for _ in range(2)])
        T = OperatorTuple(diag)
        p = random_series(2, 5, 400)
        assert np.allclose(commuting_calculus(p, T), sym_poly(p, T), atol=1e-12)

    def test_commuting_calculus_diagonal_oracle(self):
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        rows *= 0.4
        mats = np.zeros((2, 3, 3), dtype=complex)
        for j in range(2):
            np.fill_diagonal(mats[j], rows[:, j])
        T = OperatorTuple(mats)
        p = random_series(2, 4, 500)
        out = commuting_calculus(p, T)
        for k in range(3):
            assert abs(out[k, k] - p.evaluate(rows[k])) < 1e-12

    def test_rejects_noncommuting(self):
        T = OperatorTuple(np.array([E12, E21]))
        with pytest.raises(NonCommutingError):
            commuting_calculus(random_series(2, 3, 1), T)

    def test_commutator_within_tol_in_operator_norm_only_is_accepted(self):
        # [E12, a E21] = diag(a, -a): operator norm a <= tol, Frobenius a sqrt(2) > tol
        a, tol = 0.8e-10, 1e-10
        T = OperatorTuple(np.array([E12, a * E21]))
        comm = T.matrices[0] @ T.matrices[1] - T.matrices[1] @ T.matrices[0]
        assert np.linalg.norm(comm) > tol >= np.linalg.norm(comm, 2)
        require_commuting(T, tol)
        ok, worst = is_commuting(T, tol)
        assert ok and abs(worst - a) <= 1e-25
        with pytest.raises(NonCommutingError):
            require_commuting(T, 0.5 * a)


class TestRsDualityIdentity:
    def test_residuals_over_grid(self):
        from herglotzlab.classes import generate_member
        rng = np.random.default_rng(14)
        for k in range(15):
            d = int(rng.integers(2, 4))
            member = generate_member("R+", np.random.default_rng(700 + k), d=d, n=5)
            f = random_series(d, int(rng.integers(1, 7)), 800 + k)
            for r in (0.05, 0.5, 0.99):
                assert rs_duality_residual(f, member, r) < 1e-10

    def test_grid_form_is_the_max_of_the_per_r_residuals(self):
        # the grid form builds the truncation and the monomial table once;
        # it must equal the per-r computation exactly
        from herglotzlab.classes import generate_member
        from herglotzlab.pairing import R_GRID

        def per_r(f, D, r):
            g = herglotz_taylor(D, f.N)
            M = commuting_calculus(f.reflect().dilate(r), D.tuple)
            rhs = 2.0 * np.conj(np.vdot(D.xi, M @ D.xi)) - 2j * D.t * f.constant_term
            return float(abs(qr_pair(f, g, r) - rhs))

        for k in range(6):
            D = generate_member("R+", np.random.default_rng(1100 + k), d=2 + k % 2, n=4)
            D = HerglotzDatum(D.tuple, D.xi, 0.3 * k)
            f = random_series(D.d, 6, 1200 + k)
            assert rs_duality_residual(f, D, R_GRID) == max(per_r(f, D, r) for r in R_GRID)
            assert rs_duality_residual(f, D, 0.7) == per_r(f, D, 0.7)

    def test_imaginary_constant_correction(self):
        # the identity needs the -2it f(0) correction once t != 0
        T = OperatorTuple(np.array([np.diag([0.2, 0.1]) + 0j,
                                    np.diag([0.3, 0.4]) + 0j]))
        D = HerglotzDatum(T, np.array([1.0, 0.5]), 0.8)
        f = random_series(2, 4, 900)
        assert rs_duality_residual(f, D, 0.7) < 1e-12

    def test_real_parts_agree_without_conjugation(self):
        # Re Q_r(f, g) equals 2 Re <f_check_r(T) xi, xi> even though the
        # complex identity needs the conjugate
        from herglotzlab.classes import generate_member
        member = generate_member("R+", np.random.default_rng(1000), d=2, n=4)
        f = random_series(2, 5, 1001)
        g = herglotz_taylor(member, 5)
        r = 0.6
        lhs = qr_pair(f, g, r)
        M = commuting_calculus(f.reflect().dilate(r), member.tuple)
        inner = np.vdot(member.xi, M @ member.xi)
        assert abs(lhs.real - 2 * inner.real) < 1e-11


class TestJson:
    def test_roundtrip(self):
        T = random_row_tuple(2, 3, 2000)
        D = HerglotzDatum(T, np.array([1.0, 2.0j, 0.5]), -0.25)
        pair = lambda v: [float(v.real), float(v.imag)]
        obj = {"d": 2, "n": 3, "t": -0.25, "xi": [pair(v) for v in D.xi],
               "matrices": [[[pair(v) for v in row] for row in m] for m in T.matrices]}
        back = HerglotzDatum.from_json(obj)
        assert np.allclose(back.tuple.matrices, T.matrices)
        assert np.allclose(back.xi, D.xi)
        assert back.t == -0.25
