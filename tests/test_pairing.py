import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herglotzlab import pairing
from herglotzlab.pairing import (
    CLAMP_EPS,
    AtomicMeasure,
    IntegralEstimate,
    QuadratureSpec,
    R_GRID,
    h2d_inner_integral,
    h2d_inner_series,
    herglotz_of_measure,
    pairing_vs_measure_check,
    qr_pair,
)
from herglotzlab.series import (
    DimensionMismatchError,
    SeriesDomainError,
    TruncatedSeries,
    grade_array,
    simplex_size,
    weight_ratio_array,
)

from test_series import coordinate, random_series


def qr_pair_grades(f, g, r):
    """Per-grade contributions to qr_pair at a common degree; entry 0
    carries the doubled constant term, and partial sums of the array are the
    pairing truncations."""
    N = f.N
    grades = grade_array(f.d, N)
    terms = f.coeffs * np.conj(g.coeffs) * np.power(r, grades.astype(float))
    out = np.zeros(N + 1, dtype=complex)
    np.add.at(out, grades, terms * weight_ratio_array(f.d, N))
    out[0] += f.coeffs[0] * np.conj(g.coeffs[0])
    return out


def measure_json(mu):
    """The JSON object of a measure, as AtomicMeasure.from_json reads it."""
    return {"points": [[[c.real, c.imag] for c in p] for p in mu.points],
            "weights": list(mu.weights), "support": mu.support}


def boundary_atoms(d, n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return AtomicMeasure(pts, rng.uniform(0.2, 1.0, n), "boundary")


class TestQrPair:
    def test_doubled_constant(self):
        one = TruncatedSeries.constant(2, 4, 1.0)
        for r in (0.0, 0.4, 0.99):
            assert abs(qr_pair(one, one, r) - 2.0) < 1e-14

    def test_coordinate(self):
        z1 = coordinate(2, 4, 0)
        assert abs(qr_pair(z1, z1, 0.73) - 0.73) < 1e-15

    def test_mixed_monomial_weight(self):
        f = TruncatedSeries.monomial(2, 4, (1, 1))
        assert abs(qr_pair(f, f, 0.9) - 0.9 ** 2 / 2) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qr_pair(random_series(2, 3, 0), random_series(3, 3, 1), 0.5)

    def test_radius_guard(self):
        f = random_series(2, 3, 2)
        with pytest.raises(SeriesDomainError):
            qr_pair(f, f, 1.2)

    def test_r_one_blocked_for_boundary_backed(self):
        mu = boundary_atoms(2, 2, 3)
        g = herglotz_of_measure(mu, 4)
        f = random_series(2, 4, 4)
        with pytest.raises(SeriesDomainError):
            qr_pair(f, g, 1.0)
        # interior backing is allowed at r = 1
        mu_int = AtomicMeasure(0.5 * mu.points, mu.weights, "interior")
        g_int = herglotz_of_measure(mu_int, 4)
        qr_pair(f, g_int, 1.0)

    def test_grid_is_the_one_radius_pairings(self):
        # a grid gives the array of one-radius pairings, bit for bit, with
        # every radius checked
        for seed in range(5):
            f, g = random_series(2, 6, 30 + seed), random_series(2, 4 + seed % 3, 40 + seed)
            q = qr_pair(f, g, R_GRID)
            assert q.shape == (len(R_GRID),)
            assert q.tolist() == [qr_pair(f, g, r) for r in R_GRID]
        g = herglotz_of_measure(boundary_atoms(2, 2, 3), 4)
        with pytest.raises(SeriesDomainError):
            qr_pair(f, g, (0.5, 1.0))
        with pytest.raises(SeriesDomainError):
            qr_pair(f, f, (0.5, -0.1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([0.1, 0.5, 0.9, 0.99]))
    def test_hermitian_symmetry(self, seed, r):
        f = random_series(2, 5, seed)
        g = random_series(2, 5, seed + 1)
        assert abs(qr_pair(f, g, r) - np.conj(qr_pair(g, f, r))) < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(list(R_GRID)))
    def test_dilation_identity(self, seed, r):
        # the reduction behind absolute convergence: pairing = inner product
        # of sqrt(r)-dilates plus the constant product
        f = random_series(3, 5, seed)
        g = random_series(3, 5, seed + 7)
        sr = math.sqrt(r)
        ident = (h2d_inner_series(f.dilate(sr), g.dilate(sr))
                 + f.constant_term * np.conj(g.constant_term))
        assert abs(qr_pair(f, g, r) - ident) < 1e-12

    def test_grade_partial_sums_geometric_tail(self):
        from herglotzlab.classes import extreme_h
        rng = np.random.default_rng(5)
        zeta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        zeta /= np.linalg.norm(zeta)
        eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        eta /= np.linalg.norm(eta)
        f, g = extreme_h(zeta, 12), extreme_h(eta, 12)
        for r in (0.3, 0.7, 0.9):
            grades = qr_pair_grades(f, g, r)
            mags = np.abs(grades[1:])
            for a, b in zip(mags, mags[1:]):
                assert b <= r * a * (1 + 1e-9) + 1e-15
            assert abs(grades.sum() - qr_pair(f, g, r)) < 1e-12


class TestInnerProduct:
    def test_paired_monomial(self):
        f = TruncatedSeries.monomial(2, 4, (1, 1))
        assert abs(h2d_inner_series(f, f) - 0.5) < 1e-15

    def test_constants(self):
        one = TruncatedSeries.constant(2, 4, 1.0)
        assert abs(h2d_inner_series(one, one) - 1.0) < 1e-15

    def test_orthogonal_monomials(self):
        f = TruncatedSeries.monomial(2, 4, (2, 0))
        g = TruncatedSeries.monomial(2, 4, (1, 1))
        assert h2d_inner_series(f, g) == 0.0

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            h2d_inner_series(random_series(2, 3, 0), random_series(2, 4, 1))


def h2d_inner_integral_per_node(f, g, q):
    """h2d_inner_integral through the (samples x nodes) radial profiles of
    f and g, summed node by node: an oracle for the moment contraction."""
    d = f.d
    dirs = pairing.sphere_sample(d, q.sphere_samples, np.random.default_rng(q.seed))
    x, w = np.polynomial.legendre.leggauss(q.radial_nodes)
    r, w = 0.5 * (x + 1.0), 0.5 * w
    F, G = f.grade_values(dirs), g.grade_values(dirs)
    RF = F * pairing.radial_factorial_weights(d, f.N)[:, None]
    A = RF.T @ np.power.outer(r, np.arange(f.N + 1)).T      # (ns, nodes)
    B = G.T @ np.power.outer(r, np.arange(g.N + 1)).T
    per_dir = (A * np.conj(B)) @ (w / r)
    prefactor = 2.0 * d / math.factorial(d)
    mean = per_dir.mean()
    stderr = float(np.sqrt(np.mean(np.abs(per_dir - mean) ** 2) / len(per_dir)))
    return IntegralEstimate(complex(f.coeffs[0] * np.conj(g.coeffs[0]) + prefactor * mean),
                            prefactor * stderr)


class TestIntegralForm:
    def test_constants_exact(self):
        one = TruncatedSeries.constant(2, 3, 1.0)
        est = h2d_inner_integral(one, one, QuadratureSpec(16, 128, 0))
        assert abs(est.value - 1.0) < 1e-12
        assert est.stderr < 1e-12

    def test_coordinate_d2(self):
        z1 = coordinate(2, 4, 0)
        est = h2d_inner_integral(z1, z1, QuadratureSpec(64, 20000, 1))
        assert abs(est.value - 1.0) <= 3 * est.stderr

    def test_paired_monomial_value(self):
        f = TruncatedSeries.monomial(2, 4, (1, 1))
        est = h2d_inner_integral(f, f, QuadratureSpec(64, 20000, 2))
        assert abs(est.value - 0.5) <= 3 * est.stderr

    def test_random_pairs_within_three_sigma(self):
        rng = np.random.default_rng(77)
        for k in range(12):
            d = 2 if k % 2 == 0 else 3
            N = int(rng.integers(1, 7))
            f = random_series(d, N, 100 + k)
            g = random_series(d, N, 200 + k)
            exact = h2d_inner_series(f, g)
            est = h2d_inner_integral(f, g, QuadratureSpec(64, 8000, 300 + k))
            assert abs(est.value - exact) <= 3 * est.stderr

    @pytest.mark.parametrize("d,Nf,Ng", [(2, 7, 3), (3, 4, 9), (3, 6, 6), (4, 5, 5)])
    def test_shared_table_matches_one_table_per_series(self, monkeypatch, d, Nf, Ng):
        f, g = random_series(d, Nf, 40 + Nf), random_series(d, Ng, 50 + Ng)
        q = QuadratureSpec(32, 3000, d)
        shared = h2d_inner_integral(f, g, q)
        # one monomial table per series, each to its own degree
        monkeypatch.setattr(pairing, "_grade_values",
                            lambda fs, pts: [h.grade_values(pts) for h in fs])
        apart = h2d_inner_integral(f, g, q)
        if Nf == Ng:
            assert shared == apart
        else:
            assert abs(shared.value - apart.value) <= 1e-14 * abs(apart.value)
            assert abs(shared.stderr - apart.stderr) <= 1e-14 * apart.stderr
        # unequal degrees pair as if the lower one were padded with zeros
        def pad(h):
            c = np.zeros(simplex_size(d, max(Nf, Ng)), dtype=complex)
            c[:len(h.coeffs)] = h.coeffs
            return TruncatedSeries(d, max(Nf, Ng), c)

        assert abs(h2d_inner_series(pad(f), pad(g)) - shared.value) <= 3 * shared.stderr

    @pytest.mark.parametrize("nodes", [1, 3, 64])
    @pytest.mark.parametrize("d,Nf,Ng", [(2, 5, 5), (3, 12, 7), (3, 4, 9), (4, 6, 8)])
    def test_moment_contraction_matches_per_node_sum(self, nodes, d, Nf, Ng):
        f, g = random_series(d, Nf, 60 + Nf), random_series(d, Ng, 70 + Ng)
        q = QuadratureSpec(nodes, 2000, nodes + d)
        got, ref = h2d_inner_integral(f, g, q), h2d_inner_integral_per_node(f, g, q)
        assert abs(got.value - ref.value) <= 1e-13 * abs(ref.value)
        assert abs(got.stderr - ref.stderr) <= 1e-13 * ref.stderr

    def test_memory_is_bounded_in_nodes(self):
        # the per-node profiles alone would be 3 x 20000 x 64 x 16 bytes = 61 MiB
        f, g = random_series(3, 12, 90, scale=0.1), random_series(3, 12, 91, scale=0.1)
        tracemalloc.start()
        try:
            h2d_inner_integral(f, g, QuadratureSpec(64, 20000, 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            h2d_inner_integral(random_series(2, 4, 0), random_series(3, 4, 1),
                               QuadratureSpec(8, 16, 0))

    def test_returns_named_tuple(self):
        one = TruncatedSeries.constant(2, 2, 1.0)
        assert isinstance(h2d_inner_integral(one, one, QuadratureSpec(8, 16, 0)),
                          IntegralEstimate)


class TestAtomicMeasure:
    def test_boundary_validation(self):
        with pytest.raises(ValueError):
            AtomicMeasure(np.array([[0.5 + 0j, 0.0]]), np.array([1.0]), "boundary")

    def test_interior_validation(self):
        with pytest.raises(ValueError):
            AtomicMeasure(np.array([[1.0 + 0j, 0.0]]), np.array([1.0]), "interior")

    def test_positive_weights(self):
        with pytest.raises(ValueError):
            AtomicMeasure(np.array([[1.0 + 0j, 0.0]]), np.array([-1.0]), "boundary")

    def test_json_roundtrip(self):
        mu = boundary_atoms(3, 4, 11)
        back = AtomicMeasure.from_json(measure_json(mu))
        assert np.allclose(back.points, mu.points)
        assert np.allclose(back.weights, mu.weights)
        assert back.support == "boundary"

    @pytest.mark.parametrize("weights", [[], [1.0]])
    def test_json_without_points_names_points(self, weights):
        # used to say "point and weight counts differ" with both counts 0
        with pytest.raises(ValueError, match="'points' must be a non-empty list"):
            AtomicMeasure.from_json({"points": [], "weights": weights,
                                     "support": "boundary"})


class TestMeasureTransform:
    def test_point_mass_matches_boundary_kernel(self):
        from herglotzlab.classes import extreme_h
        zeta = np.array([0.6 + 0.8j, 0.0])
        mu = AtomicMeasure(zeta[None, :], np.array([1.0]), "boundary")
        g = herglotz_of_measure(mu, 8)
        assert np.allclose(g.coeffs, extreme_h(zeta, 8).coeffs)
        assert g.from_boundary_measure

    def test_empty_measure_constant(self):
        mu = AtomicMeasure(np.zeros((0, 2)), np.zeros(0), "boundary")
        g = herglotz_of_measure(mu, 4)
        assert g.N == 4 and not np.any(g.coeffs)

    def test_half_mode_reproduces_interior_values(self):
        rng = np.random.default_rng(13)
        for k in range(10):
            w0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w0 = w0 / np.linalg.norm(w0) * rng.uniform(0.0, 0.9)
            mu = AtomicMeasure(w0[None, :], np.array([1.0]), "interior")
            N = int(rng.integers(1, 8))
            f = random_series(2, N, 400 + k)
            g = herglotz_of_measure(mu, N, mode="half")
            assert abs(qr_pair(f, g, 1.0) - f.evaluate(w0)) < 1e-10

    def test_exact_evaluator_matches_truncation_inside(self):
        mu = boundary_atoms(2, 3, 17)
        g = herglotz_of_measure(mu, 16)
        pts = np.random.default_rng(3).standard_normal((6, 2)) * 0.1 + 0j
        exact = mu.values_at(pts)
        trunc = g.values_at(pts)
        # geometric tail at radius <~ 0.35 against degree 16 sits below 1e-8
        assert np.max(np.abs(exact - trunc)) < 1e-8

    def test_pole_is_clamped(self):
        # at the atom the denominator 0 is clamped to CLAMP_EPS
        zeta = np.array([1.0 + 0j, 0.0])
        mu = AtomicMeasure(zeta[None, :], np.array([1.0]), "boundary")
        vals = mu.values_at(np.array([[1.0 + 0j, 0.0], [0.5 + 0j, 0.0]]))
        assert vals[0] == 2.0 / CLAMP_EPS and vals[1] == 3.0


class TestPairingVsMeasure:
    def test_constant_against_point_mass(self):
        mu = AtomicMeasure(np.array([[1.0 + 0j, 0.0]]), np.array([1.0]), "boundary")
        one = TruncatedSeries.constant(2, 4, 1.0)
        assert pairing_vs_measure_check(one, mu, 0.5) < 1e-14

    def test_coordinate_at_half_radius(self):
        mu = AtomicMeasure(np.array([[1.0 + 0j, 0.0]]), np.array([1.0]), "boundary")
        z1 = coordinate(2, 6, 0)
        assert pairing_vs_measure_check(z1, mu, 0.5) < 1e-12

    def test_random_polynomials_and_atoms(self):
        rng = np.random.default_rng(23)
        for k in range(20):
            mu = boundary_atoms(2, 5, 500 + k)
            N = int(rng.integers(1, 9))
            f = random_series(2, N, 600 + k)
            r = float(rng.uniform(0.05, 0.99))
            norm = np.linalg.norm(f.coeffs)
            for mode in ("full", "half"):
                res = pairing_vs_measure_check(f, mu, r, mode=mode)
                assert res <= 1e-10 * (1.0 + mu.mass) * max(norm, 1.0)


class TestDualityPositivitySample:
    def test_boundary_measures_vs_positive_real_part(self):
        # one direction of the measure duality, at sampled scale: pair class
        # generators against boundary measures across the r grid
        from herglotzlab.classes import sample_duality_pairs, duality_sweep
        pairs = sample_duality_pairs("O+", "M+", 25, np.random.default_rng(999), d=2)
        out = duality_sweep(pairs)
        assert out["min_re"] >= -1e-9

    def test_series_route_agrees_on_interior_scaled_atoms(self):
        # cross-check the exact reduction against the coefficient pairing
        # where the truncation tail is negligible
        from herglotzlab.classes import duality_sweep
        from test_classes import duality_sweep_series
        rng = np.random.default_rng(31)
        pairs = []
        for k in range(5):
            pts = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            pts = 0.45 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
            mu_f = AtomicMeasure(pts, rng.uniform(0.2, 1.0, 3), "interior")
            pts2 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            pts2 = 0.45 * pts2 / np.linalg.norm(pts2, axis=1, keepdims=True)
            mu_g = AtomicMeasure(pts2, rng.uniform(0.2, 1.0, 3), "interior")
            pairs.append((mu_f, mu_g))
        exact = duality_sweep(pairs, r_grid=(0.3, 0.6, 0.9))
        series = duality_sweep_series(pairs, N=16, r_grid=(0.3, 0.6, 0.9))
        assert abs(exact["min_re"] - series["min_re"]) < 1e-5


def test_one_dimension_mismatch_message():
    # one check for every pairing of f and g, with one wording
    from herglotzlab.classes import generate_member
    from herglotzlab.optuple import rs_duality_residual
    f, g = random_series(3, 4, 1), random_series(2, 4, 2)
    mu = boundary_atoms(2, 3, 3)
    datum = generate_member("R+", np.random.default_rng(4), d=2)
    message = "f has d = 3 and g has d = 2: f and g need one number of variables"
    for call in (lambda: qr_pair(f, g, 0.5), lambda: qr_pair(f, g, R_GRID),
                 lambda: h2d_inner_series(f, g), lambda: h2d_inner_integral(f, g),
                 lambda: pairing_vs_measure_check(f, mu, 0.5), lambda: f.multiply(g),
                 lambda: rs_duality_residual(f, datum, R_GRID)):
        with pytest.raises(DimensionMismatchError) as info:
            call()
        assert str(info.value) == message
