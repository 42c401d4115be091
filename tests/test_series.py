import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herglotzlab import series
from herglotzlab.optuple import HerglotzDatum, OperatorTuple, herglotz_taylor
from herglotzlab.pairing import (
    AtomicMeasure,
    herglotz_of_measure,
    pairing_vs_measure_check,
)
from herglotzlab.series import (
    DimensionMismatchError,
    SeriesDomainError,
    SizeCapError,
    TruncatedSeries,
    _divide,
    _grade_chunks,
    _grade_steps,
    _product_table,
    _shifts,
    cayley,
    enumerate_multiindices,
    grade_slices,
    index_of,
    simplex_size,
    weight_array,
)


def make_series(d, N, entries):
    c = np.zeros(simplex_size(d, N), dtype=complex)
    for alpha, v in entries.items():
        c[index_of(d, N, alpha)] = v
    return TruncatedSeries(d, N, c)


def weight(alpha):
    """Multinomial weight |alpha|!/alpha! from integer factorials: an
    oracle for weight_array."""
    return math.factorial(sum(alpha)) // math.prod(math.factorial(a) for a in alpha)


def zero(d, N):
    return TruncatedSeries(d, N, np.zeros(simplex_size(d, N)))


def coordinate(d, N, j):
    """The coordinate function z_j (0-based j)."""
    return TruncatedSeries.monomial(d, N, tuple(int(p == j) for p in range(d)))


def random_series(d, N, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = simplex_size(d, N)
    return TruncatedSeries(d, N, scale * (rng.standard_normal(m)
                                          + 1j * rng.standard_normal(m)))


def compose_univariate(h, phi):
    """h(phi(z)) truncated at phi's degree, by Horner over truncated
    products; h univariate of degree >= phi.N and |phi(0)| < 1.  An oracle
    for the Cayley transforms."""
    res = TruncatedSeries.constant(phi.d, phi.N, h.coeffs[h.N])
    for k in range(h.N - 1, -1, -1):
        res = res.multiply(phi).add(TruncatedSeries.constant(phi.d, phi.N, h.coeffs[k]))
    return res


class TestEnumeration:
    def test_univariate(self):
        assert enumerate_multiindices(1, 2) == ((0,), (1,), (2,))

    def test_graded_lex(self):
        assert enumerate_multiindices(2, 1) == ((0, 0), (1, 0), (0, 1))

    def test_count(self):
        assert len(enumerate_multiindices(2, 2)) == 6
        for d in (1, 2, 3, 4):
            for N in (0, 3, 7):
                assert len(enumerate_multiindices(d, N)) == math.comb(N + d, d)

    def test_stable(self):
        assert enumerate_multiindices(3, 5) == enumerate_multiindices(3, 5)

    def test_grade2_descending(self):
        grade2 = [a for a in enumerate_multiindices(2, 2) if sum(a) == 2]
        assert grade2 == [(2, 0), (1, 1), (0, 2)]


def weight_of(alpha):
    """weight_array's entry for alpha, read through index_of."""
    d, N = len(alpha), sum(alpha)
    return weight_array(d, N)[index_of(d, N, alpha)]


class TestWeight:
    def test_values(self):
        assert weight_of((1, 1)) == 2
        assert weight_of((3, 0)) == 1
        assert weight_of((2, 1)) == 3

    def test_arrangement_count_oracle(self):
        # brute-force enumeration of distinct arrangements of the multiset
        import itertools
        for alpha in [(2, 1), (1, 1, 1), (3, 2), (2, 2, 1)]:
            letters = [j for j, a in enumerate(alpha) for _ in range(a)]
            count = len(set(itertools.permutations(letters)))
            assert weight_of(alpha) == weight(alpha) == count

    def test_degree_cap(self):
        assert weight_of((10, 10)) == weight((10, 10)) == math.comb(20, 10)
        with pytest.raises(SizeCapError):
            weight_of((11, 10))

    def test_rejects_negative(self):
        # a negative exponent has no position, so no weight
        with pytest.raises(KeyError):
            weight_of((1, -1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 12))
    def test_multinomial_identity(self, d, k):
        # sum of weights over a grade counts all words: d^k, exactly
        a, b = grade_slices(d, k)[k]
        assert weight_array(d, k)[a:b].sum() == d ** k


class TestArithmetic:
    def test_product_of_conjugate_binomials(self):
        f = make_series(1, 2, {(0,): 1, (1,): 1})
        g = make_series(1, 2, {(0,): 1, (1,): -1})
        p = f.multiply(g)
        assert p.coeff((0,)) == 1 and p.coeff((1,)) == 0 and p.coeff((2,)) == -1

    def test_add_coordinates(self):
        s = coordinate(2, 3, 0).add(coordinate(2, 3, 1))
        assert s.coeff((1, 0)) == 1 and s.coeff((0, 1)) == 1

    def test_telescoping_truncation(self):
        f = make_series(1, 3, {(k,): 1 for k in range(4)})
        g = make_series(1, 3, {(0,): 1, (1,): -1})
        p = f.multiply(g)
        assert p.coeff((0,)) == 1
        assert all(p.coeff((k,)) == 0 for k in (1, 2, 3))

    def test_multiply_truncates_to_min_degree(self):
        f = random_series(2, 6, 1)
        g = random_series(2, 3, 2)
        assert f.multiply(g).N == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            random_series(2, 3, 1).add(random_series(3, 3, 2))

    def test_multiply_matches_pointwise(self):
        f = random_series(2, 4, 3)
        g = random_series(2, 4, 4)
        z = np.array([0.21 - 0.1j, 0.05 + 0.3j])
        prod = f.multiply(g)
        direct = 0.0 + 0.0j
        for i, a in enumerate(enumerate_multiindices(2, 4)):
            for j, b in enumerate(enumerate_multiindices(2, 4)):
                if sum(a) + sum(b) <= 4:
                    direct += (f.coeffs[i] * g.coeffs[j]
                               * z[0] ** (a[0] + b[0]) * z[1] ** (a[1] + b[1]))
        assert abs(prod.evaluate(z) - direct) < 1e-12


class TestDilateReflect:
    def test_dilate_homogeneous(self):
        f = TruncatedSeries.monomial(2, 4, (1, 1))
        assert abs(f.dilate(0.5).coeff((1, 1)) - 0.25) < 1e-15

    def test_dilate_identity(self):
        f = random_series(3, 4, 5)
        assert np.allclose(f.dilate(1.0).coeffs, f.coeffs)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
    def test_dilate_semigroup(self, r, s, seed):
        f = random_series(2, 5, seed)
        lhs = f.dilate(r).dilate(s)
        rhs = f.dilate(r * s)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)

    def test_dilate_range_guard(self):
        with pytest.raises(SeriesDomainError):
            random_series(2, 3, 0).dilate(1.5)

    def test_reflect(self):
        f = TruncatedSeries.monomial(2, 2, (1, 0), 1j)
        assert f.reflect().coeff((1, 0)) == -1j

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_reflect_involution(self, seed):
        f = random_series(2, 5, seed)
        assert np.allclose(f.reflect().reflect().coeffs, f.coeffs)

    def test_reflect_fixes_real_coefficients(self):
        rng = np.random.default_rng(8)
        f = TruncatedSeries(2, 4, rng.standard_normal(simplex_size(2, 4)) + 0j)
        assert np.allclose(f.reflect().coeffs, f.coeffs)


class TestEvaluation:
    def test_affine(self):
        f = make_series(2, 2, {(0, 0): 1, (1, 0): 1})
        assert abs(f.evaluate([0.5, 0.0]) - 1.5) < 1e-14

    def test_at_origin(self):
        f = random_series(3, 5, 6)
        assert abs(f.evaluate([0, 0, 0]) - f.constant_term) < 1e-15

    def test_truncated_geometric(self):
        # sum_k <z, zeta>^k evaluated where <z, zeta> = 0.5
        N = 7
        zeta = np.array([0.6, 0.8], dtype=complex)
        entries = {}
        for alpha in enumerate_multiindices(2, N):
            entries[alpha] = weight(alpha) * np.prod(np.conj(zeta) ** np.asarray(alpha))
        f = make_series(2, N, entries)
        z = 0.5 * zeta
        expected = 2 * (1 - 0.5 ** (N + 1))
        assert abs(f.evaluate(z) - expected) < 1e-13

    def test_dilate_evaluate_consistency(self):
        f = random_series(2, 6, 7)
        z = np.array([0.3 - 0.2j, 0.1 + 0.4j])
        for r in (0.0, 0.35, 0.8, 1.0):
            assert abs(f.dilate(r).evaluate(z) - f.evaluate(r * z)) < 1e-13

    def test_batched_matches_single(self):
        f = random_series(3, 4, 9)
        pts = np.random.default_rng(0).standard_normal((11, 3)) * 0.2 + 0j
        vals = f.values_at(pts)
        for p, v in zip(pts, vals):
            assert abs(f.evaluate(p) - v) < 1e-13


class TestCayley:
    def test_zero_maps_to_one(self):
        f = cayley(zero(2, 4), "schur_to_herglotz")
        assert f.constant_term == 1.0
        assert np.allclose(f.coeffs[1:], 0.0)

    def test_coordinate_pairing_gives_kernel_truncation(self):
        zeta = np.array([0.28 + 0.96j, 0.0], dtype=complex)
        zeta /= np.linalg.norm(zeta)
        entries = {}
        for j, zj in enumerate(zeta):
            alpha = tuple(1 if p == j else 0 for p in range(2))
            entries[alpha] = np.conj(zj)
        phi = make_series(2, 8, entries)
        f = cayley(phi, "schur_to_herglotz")
        from herglotzlab.classes import extreme_h
        assert np.allclose(f.coeffs, extreme_h(zeta, 8).coeffs, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_roundtrip(self, seed):
        phi = random_series(2, 6, seed, scale=0.2)
        # keep |phi(0)| <= 0.9 so the pole guards stay quiet
        back = cayley(cayley(phi, "schur_to_herglotz"), "herglotz_to_schur")
        assert np.allclose(back.coeffs, phi.coeffs, atol=1e-12)

    def test_pole_guard(self):
        phi = TruncatedSeries.constant(2, 3, 1.0)
        with pytest.raises(SeriesDomainError):
            cayley(phi, "schur_to_herglotz")
        f = TruncatedSeries.constant(2, 3, -1.0)
        with pytest.raises(SeriesDomainError):
            cayley(f, "herglotz_to_schur")


class TestComposition:
    def test_identity_outer(self):
        phi = random_series(2, 5, 20, scale=0.3)
        ident = make_series(1, 5, {(1,): 1.0})
        assert np.allclose(compose_univariate(ident, phi).coeffs, phi.coeffs)

    def test_moebius_of_coordinate(self):
        h = make_series(1, 6, {(k,): (1.0 if k == 0 else 2.0) for k in range(7)})
        phi = make_series(2, 6, {(1, 0): 1.0})
        out = compose_univariate(h, phi)
        expect = make_series(2, 6, {(0, 0): 1.0, **{(k, 0): 2.0 for k in range(1, 7)}})
        assert np.allclose(out.coeffs, expect.coeffs)

    def test_matches_direct_transform(self):
        h = make_series(1, 6, {(k,): (1.0 if k == 0 else 2.0) for k in range(7)})
        phi = make_series(2, 6, {(1, 0): 0.5, (0, 1): 0.5})
        assert np.allclose(compose_univariate(h, phi).coeffs,
                           cayley(phi, "schur_to_herglotz").coeffs, atol=1e-12)


class TestCapsAndJson:
    def test_construction_caps(self):
        with pytest.raises(SizeCapError):
            zero(5, 3)
        with pytest.raises(SizeCapError):
            zero(2, 17)

    def test_immutable(self):
        f = random_series(2, 3, 30)
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_json_roundtrip(self):
        f = random_series(3, 4, 31)
        g = TruncatedSeries.from_json(f.to_json())
        assert g.d == f.d and g.N == f.N
        assert np.allclose(g.coeffs, f.coeffs)

    def test_json_omitted_entries_are_zero(self):
        obj = {"d": 2, "N": 2, "coeffs": [{"alpha": [1, 0], "re": 2.0, "im": -1.0}]}
        f = TruncatedSeries.from_json(obj)
        assert f.coeff((1, 0)) == 2.0 - 1.0j
        assert f.coeff((0, 1)) == 0.0


# -- the monomial engine, against independent oracles -----------------------


def _ball_points(d, n, seed, radius=0.9):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * radius * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / (2 * d))


def _grade_by_recursion(d, k):
    """Grade k in descending lexicographic order, by recursion on d."""
    if d == 1:
        return [(k,)]
    return [(a,) + rest for a in range(k, -1, -1) for rest in _grade_by_recursion(d - 1, k - a)]


def _index_dict(d, N):
    """Multi-index -> position, from the enumeration alone."""
    return {a: i for i, a in enumerate(enumerate_multiindices(d, N))}


def _parents_by_tuples(d, N):
    """(m, d) array: the index of alpha - e_j, or -1 where alpha_j = 0, from
    tuple differences and the index dict."""
    idx = _index_dict(d, N)
    return np.array([[idx[a[:j] + (a[j] - 1,) + a[j + 1:]] if a[j] else -1
                      for j in range(d)] for a in enumerate_multiindices(d, N)],
                    dtype=np.int64)


def _product_table_by_tuples(d, N):
    """The product table built from tuple sums and the index dict."""
    idx = _index_dict(d, N)
    return [np.array([idx[tuple(x + y for x, y in zip(a, b))]
                      for b in enumerate_multiindices(d, N - sum(a))], dtype=np.int64)
            for a in enumerate_multiindices(d, N)]


def _monomial_table_by_gather(Z, N):
    """The (m, npoints) monomial table of the rows of Z as a per-grade
    gather: each index i > 0 multiplies the row of alpha - e_j by coordinate
    j, j its first nonzero coordinate, through fancy-indexed parent rows and
    coordinates."""
    npts, d = Z.shape
    m = simplex_size(d, N)
    steps_j = np.argmax(np.array(enumerate_multiindices(d, N)) > 0, axis=1)
    steps_parent = np.maximum(_parents_by_tuples(d, N)[np.arange(m), steps_j], 0)
    ZT = np.ascontiguousarray(Z.T)
    P = np.empty((m, npts), dtype=complex)
    P[0] = 1.0
    for a, b in grade_slices(d, N)[1:]:
        np.multiply(P[steps_parent[a:b]], ZT[steps_j[a:b]], out=P[a:b])
    return P


def _divide_full_recompute(num, den):
    """num/den recomputing the whole convolution of the quotient so far
    with den at every grade."""
    N = min(num.N, den.N)
    m = simplex_size(num.d, N)
    v, u = num.coeffs[:m], den.coeffs[:m]
    table = _product_table_by_tuples(num.d, N)
    res = np.zeros(m, dtype=complex)
    res[0] = v[0] / u[0]
    for k in range(1, N + 1):
        a, b = grade_slices(num.d, N)[k]
        conv = np.zeros(m, dtype=complex)
        for i in np.nonzero(res)[0]:
            row = table[i]
            conv[row] += res[i] * u[: len(row)]
        res[a:b] = (v[a:b] - conv[a:b]) / u[0]
    return res


class TestMonomialEngine:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_enumeration_matches_tuple_recursion(self, d):
        expect = [a for k in range(17) for a in _grade_by_recursion(d, k)]
        assert list(enumerate_multiindices(d, 16)) == expect

    @pytest.mark.parametrize("d,N", [(1, 16), (2, 10), (3, 12), (4, 16)])
    def test_product_table_matches_tuple_oracle(self, d, N):
        table = _product_table(d, N)
        oracle = _product_table_by_tuples(d, N)
        assert len(table) == len(oracle)
        assert all(np.array_equal(row, ref) for row, ref in zip(table, oracle))

    @pytest.mark.parametrize("d,N", [(1, 16), (3, 12), (4, 16)])
    def test_parents_and_weights_match_tuple_oracle(self, d, N):
        idx = _index_dict(d, N)
        alphas = enumerate_multiindices(d, N)
        # the blocks of _grade_steps tile the indices > 0 in order, each by
        # its first nonzero coordinate j, with contiguous parents alpha - e_j
        rows = []
        for j, a, b, pa, pb in _grade_steps(d, N):
            assert b - a == pb - pa
            for i, parent in zip(range(a, b), range(pa, pb)):
                alpha = alphas[i]
                assert next(p for p, v in enumerate(alpha) if v > 0) == j
                assert parent == idx[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]]
                rows.append(i)
        assert rows == list(range(1, len(alphas)))
        exact = [weight(a) for a in enumerate_multiindices(d, N)]
        assert weight_array(d, N).tolist() == exact

    @pytest.mark.parametrize("d,N", [(1, 16), (2, 18), (3, 12), (4, 16)])
    def test_shifts_match_tuple_oracle(self, d, N):
        idx = _index_dict(d, N)
        expect = [[idx[a[:j] + (a[j] + 1,) + a[j + 1:]]
                   for a in enumerate_multiindices(d, N - 1)] for j in range(d)]
        assert _shifts(d, N).tolist() == expect

    @pytest.mark.parametrize("d,N", [(1, 16), (3, 12), (4, 16)])
    def test_index_of_matches_enumeration(self, d, N):
        for i, a in enumerate(enumerate_multiindices(d, N)):
            assert index_of(d, N, a) == i
        for bad in [(N + 1,) + (0,) * (d - 1), (-1,) + (1,) * (d - 1), (0,) * (d + 1)]:
            with pytest.raises(KeyError):
                index_of(d, N, bad)

    def test_dimension_cap_checked_before_any_table(self):
        with pytest.raises(SizeCapError):
            _shifts(9, 10)
        D = HerglotzDatum(OperatorTuple(0.1 * np.ones((9, 1, 1))), np.ones(1))
        with pytest.raises(SizeCapError):
            herglotz_taylor(D, 10)
        with pytest.raises(SizeCapError):
            herglotz_taylor(HerglotzDatum(OperatorTuple(np.zeros((2, 1, 1))), np.ones(1)), 17)
        point = np.zeros((1, 9), dtype=complex)
        point[0, 0] = 1.0
        mu = AtomicMeasure(point, np.ones(1), "boundary")
        with pytest.raises(SizeCapError):
            herglotz_of_measure(mu, 10)
        with pytest.raises(DimensionMismatchError):
            pairing_vs_measure_check(coordinate(2, 4, 0), mu, 0.5)

    def test_weight_array_cap(self):
        assert weight_array(2, 20).tolist() == [
            weight(a) for a in enumerate_multiindices(2, 20)]
        with pytest.raises(SizeCapError):
            weight_array(2, 21)

    @pytest.mark.parametrize("d,N", [(2, 10), (3, 12), (4, 16)])
    def test_grade_values_against_direct_products(self, d, N):
        f = random_series(d, N, 50 + d)
        pts = _ball_points(d, 120, seed=d)
        exps = np.array(enumerate_multiindices(d, N))
        monos = np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)   # (npts, m)
        terms = monos * f.coeffs
        got = f.grade_values(pts)
        for k, (a, b) in enumerate(grade_slices(d, N)):
            scale = np.abs(terms[:, a:b]).sum(axis=1)
            assert np.all(np.abs(got[k] - terms[:, a:b].sum(axis=1)) <= 1e-14 * scale)

    @pytest.mark.parametrize("d,N", [(1, 16), (2, 6), (2, 10), (3, 12), (4, 16)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grade_chunks_bit_identical_to_gather(self, d, N, seed):
        # 300 points span three chunks at (4, 16), whose chunks hold 146 points
        pts = _ball_points(d, 300, seed=10 * seed + d)
        ref = _monomial_table_by_gather(pts, N)
        slices = grade_slices(d, N)
        seen = np.zeros((N + 1, len(pts)), dtype=int)
        for lo, k, P in _grade_chunks(pts, N):
            (a, b), hi = slices[k], lo + P.shape[1]
            assert np.array_equal(P, ref[a:b, lo:hi])
            seen[k, lo:hi] += 1
        assert np.all(seen == 1)

    @pytest.mark.parametrize("d,N,width", [(1, 0, 262144), (1, 16, 131072),
                                           (3, 12, 1551), (4, 16, 146)])
    def test_grade_chunk_width_spans_two_grades(self, d, N, width):
        # _EVAL_BYTES over the two widest adjacent grades, 16 bytes a value
        pts = _ball_points(d, 2 * width + 1, seed=d)
        los = sorted({lo for lo, _, _ in _grade_chunks(pts, N)})
        assert los == [0, width, 2 * width]

    def test_chunk_width_changes_values_only_by_rounding(self, monkeypatch):
        f = random_series(3, 12, 60)
        pts = _ball_points(3, 50, seed=61)
        whole = f.grade_values(pts)
        # three points per chunk, the last chunk short; the contraction may
        # round differently for another chunk width
        a, b = grade_slices(3, 12)[11][0], grade_slices(3, 12)[12][1]
        monkeypatch.setattr(series, "_EVAL_BYTES", 3 * 16 * (b - a))
        chunked = f.grade_values(pts)
        assert np.abs(chunked - whole).max() <= 1e-15 * np.abs(whole).max()

    @pytest.mark.parametrize("d,N", [(2, 8), (3, 10), (4, 16)])
    def test_divide_bit_identical_to_full_recompute(self, d, N):
        rng = np.random.default_rng(d * 100 + N)
        m = simplex_size(d, N)
        num = random_series(d, N, d + N, scale=0.3)
        den_c = 0.2 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        den_c[rng.uniform(size=m) < 0.3] = 0.0      # some zero coefficients
        den_c[0] = 1.1 - 0.4j
        den = TruncatedSeries(d, N, den_c)
        assert np.array_equal(_divide(num, den).coeffs, _divide_full_recompute(num, den))
        # a quotient with exact zeros takes the nonzero-only path
        phi = coordinate(d, N, 0).scale(0.5)
        one = TruncatedSeries.constant(d, N, 1.0)
        assert np.array_equal(cayley(phi, "schur_to_herglotz").coeffs,
                              _divide_full_recompute(one.add(phi), one.add(phi.scale(-1.0))))

    @pytest.mark.parametrize("mode", ["full", "half"])
    def test_herglotz_of_measure_against_per_index_formula(self, mode):
        d, N = 4, 16
        rng = np.random.default_rng(70)
        pts = rng.standard_normal((150, d)) + 1j * rng.standard_normal((150, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        mu = AtomicMeasure(pts, rng.uniform(0.1, 1.0, 150), "boundary")
        g = herglotz_of_measure(mu, N, mode=mode)     # 150 atoms: 3 chunks
        scale = 2.0 if mode == "full" else 1.0
        expect = np.empty(simplex_size(d, N), dtype=complex)
        expect[0] = scale / 2.0 * mu.mass
        for i, alpha in enumerate(enumerate_multiindices(d, N)[1:], start=1):
            mono = np.prod(np.conj(pts) ** np.asarray(alpha), axis=1)
            expect[i] = scale * weight(alpha) * np.sum(mu.weights * mono)
        assert np.allclose(g.coeffs, expect, rtol=1e-13, atol=0.0)
        assert g.from_boundary_measure

    def test_values_at_memory_is_bounded(self):
        d, N = 4, 16
        f = random_series(d, N, 80, scale=0.1)
        pts = _ball_points(d, 20000, seed=81, radius=0.3)
        tracemalloc.start()
        try:
            f.values_at(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
