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
    _grade_steps,
    _monomial_chunks,
    _product_table,
    _shifts,
    cayley,
    compose_univariate,
    enumerate_multiindices,
    grade_slices,
    index_of,
    simplex_size,
    weight,
    weight_array,
)


def make_series(d, N, entries):
    c = np.zeros(simplex_size(d, N), dtype=complex)
    for alpha, v in entries.items():
        c[index_of(d, N, alpha)] = v
    return TruncatedSeries(d, N, c)


def random_series(d, N, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = simplex_size(d, N)
    return TruncatedSeries(d, N, scale * (rng.standard_normal(m)
                                          + 1j * rng.standard_normal(m)))


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


class TestWeight:
    def test_values(self):
        assert weight((1, 1)) == 2
        assert weight((3, 0)) == 1
        assert weight((2, 1)) == 3

    def test_arrangement_count_oracle(self):
        # brute-force enumeration of distinct arrangements of the multiset
        import itertools
        for alpha in [(2, 1), (1, 1, 1), (3, 2), (2, 2, 1)]:
            letters = [j for j, a in enumerate(alpha) for _ in range(a)]
            count = len(set(itertools.permutations(letters)))
            assert weight(alpha) == count

    def test_degree_cap(self):
        assert weight((10, 10)) > 0
        with pytest.raises(SizeCapError):
            weight((11, 10))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weight((1, -1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 12))
    def test_multinomial_identity(self, d, k):
        # sum of weights over a grade counts all words: d^k, exactly
        total = sum(weight(a) for a in enumerate_multiindices(d, k)
                    if sum(a) == k)
        assert total == d ** k


class TestArithmetic:
    def test_product_of_conjugate_binomials(self):
        f = make_series(1, 2, {(0,): 1, (1,): 1})
        g = make_series(1, 2, {(0,): 1, (1,): -1})
        p = f.multiply(g)
        assert p.coeff((0,)) == 1 and p.coeff((1,)) == 0 and p.coeff((2,)) == -1

    def test_add_coordinates(self):
        s = TruncatedSeries.coordinate(2, 3, 0).add(TruncatedSeries.coordinate(2, 3, 1))
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


class TestRadialDerivative:
    def test_monomial_eigenvector(self):
        f = TruncatedSeries.monomial(2, 3, (1, 1))
        assert f.radial_derivative().coeff((1, 1)) == 2.0

    def test_kills_constants(self):
        f = TruncatedSeries.constant(2, 3, 4.2)
        assert np.allclose(f.radial_derivative().coeffs, 0.0)

    def test_against_coordinate_derivative_oracle(self):
        # independent oracle: sum_j z_j d/dz_j via explicit coefficient shifts
        f = random_series(2, 5, 10)
        d, N = f.d, f.N
        acc = np.zeros_like(np.asarray(f.coeffs))
        for i, alpha in enumerate(enumerate_multiindices(d, N)):
            for j in range(d):
                # z_j * d/dz_j maps c_alpha z^alpha to alpha_j c_alpha z^alpha
                acc[i] += alpha[j] * f.coeffs[i]
        assert np.allclose(f.radial_derivative().coeffs, acc)

    def test_product_rule_on_truncations(self):
        f = random_series(2, 5, 11)
        g = random_series(2, 5, 12)
        lhs = f.multiply(g).radial_derivative()
        rhs = f.radial_derivative().multiply(g).add(f.multiply(g.radial_derivative()))
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)

    def test_linear(self):
        f, g = random_series(2, 4, 13), random_series(2, 4, 14)
        lhs = f.add(g.scale(2.0)).radial_derivative()
        rhs = f.radial_derivative().add(g.radial_derivative().scale(2.0))
        assert np.allclose(lhs.coeffs, rhs.coeffs)


class TestCayley:
    def test_zero_maps_to_one(self):
        f = cayley(TruncatedSeries.zero(2, 4), "schur_to_herglotz")
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

    def test_divergence_guard(self):
        h = make_series(1, 4, {(1,): 1.0})
        phi = TruncatedSeries.constant(2, 4, 1.0 + 0j)
        with pytest.raises(SeriesDomainError):
            compose_univariate(h, phi)

    def test_outer_degree_guard(self):
        h = make_series(1, 2, {(1,): 1.0})
        phi = random_series(2, 5, 21, scale=0.1)
        with pytest.raises(ValueError, match="below the target degree") as info:
            compose_univariate(h, phi)
        assert not isinstance(info.value, SizeCapError)


class TestCapsAndJson:
    def test_construction_caps(self):
        with pytest.raises(SizeCapError):
            TruncatedSeries.zero(5, 3)
        with pytest.raises(SizeCapError):
            TruncatedSeries.zero(2, 17)

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


def _monomial_chunks_by_gather(Z, N):
    """_monomial_chunks as a per-grade gather: each index i > 0 multiplies
    the row of alpha - e_j by coordinate j, j its first nonzero coordinate,
    through fancy-indexed parent rows and coordinates."""
    npts, d = Z.shape
    m = simplex_size(d, N)
    steps_j = np.argmax(np.array(enumerate_multiindices(d, N)) > 0, axis=1)
    steps_parent = np.maximum(_parents_by_tuples(d, N)[np.arange(m), steps_j], 0)
    step = max(1, series._EVAL_BYTES // (16 * m))
    for lo in range(0, npts, step):
        chunk = np.ascontiguousarray(Z.T[:, lo:lo + step])
        P = np.empty((m, chunk.shape[1]), dtype=complex)
        P[0] = 1.0
        for a, b in grade_slices(d, N)[1:]:
            np.multiply(P[steps_parent[a:b]], chunk[steps_j[a:b]], out=P[a:b])
        yield lo, P


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
            herglotz_of_measure(mu, 0.0, 10)
        with pytest.raises(DimensionMismatchError):
            pairing_vs_measure_check(TruncatedSeries.coordinate(2, 4, 0), mu, 0.5)

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
    def test_monomial_chunks_bit_identical_to_gather(self, d, N, seed):
        # 130 points span three chunks at (4, 16), whose chunks hold 54 points
        pts = _ball_points(d, 130, seed=10 * seed + d)
        got = list(_monomial_chunks(pts, N))
        ref = list(_monomial_chunks_by_gather(pts, N))
        assert [lo for lo, _ in got] == [lo for lo, _ in ref]
        assert all(np.array_equal(P, Q) for (_, P), (_, Q) in zip(got, ref))

    def test_chunk_width_changes_values_only_by_rounding(self, monkeypatch):
        f = random_series(3, 12, 60)
        pts = _ball_points(3, 50, seed=61)
        whole = f.grade_values(pts)
        # three points per chunk, the last chunk short; the contraction may
        # round differently for another chunk width
        monkeypatch.setattr(series, "_EVAL_BYTES", 3 * 16 * simplex_size(3, 12))
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
        phi = TruncatedSeries.coordinate(d, N, 0).scale(0.5)
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
        g = herglotz_of_measure(mu, 0.25, N, mode=mode)     # 150 atoms: 3 chunks
        scale = 2.0 if mode == "full" else 1.0
        expect = np.empty(simplex_size(d, N), dtype=complex)
        expect[0] = scale / 2.0 * mu.mass + 0.25j
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
