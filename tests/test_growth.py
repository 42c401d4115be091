import math

import numpy as np
import pytest
from scipy import integrate

import herglotzlab.growth as growth
from herglotzlab import cli
from herglotzlab.classes import boundary_kernel, generate_member, random_pointset
from herglotzlab.growth import (
    DEFAULT_R_GRID,
    growth_profile,
    hp_radial_mean,
    series_radial_mean,
    sphere_sample,
)
from herglotzlab.pairing import AtomicMeasure
from herglotzlab.series import SizeCapError, TruncatedSeries


class TestSphereSample:
    def test_unit_norm(self):
        pts = sphere_sample(3, 5000, np.random.default_rng(0))
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-14

    def test_univariate_unit_modulus(self):
        pts = sphere_sample(1, 1000, np.random.default_rng(1))
        assert np.max(np.abs(np.abs(pts[:, 0]) - 1.0)) < 1e-14

    def test_coordinate_second_moment(self):
        # symmetry oracle: E |zeta_1|^2 = 1/d
        for d in (2, 3):
            pts = sphere_sample(d, 100000, np.random.default_rng(d))
            m = np.abs(pts[:, 0]) ** 2
            stderr = m.std(ddof=1) / math.sqrt(len(m))
            assert abs(m.mean() - 1.0 / d) <= 3 * stderr

    def test_deterministic(self):
        assert np.allclose(sphere_sample(2, 50, np.random.default_rng(9)),
                           sphere_sample(2, 50, np.random.default_rng(9)))

    def test_generator_seed_keeps_its_stream(self):
        # a caller's Generator is drawn from in place, so the caller can keep
        # drawing from it: random_pointset takes its radii after the sample
        rng = np.random.default_rng(9)
        dirs = sphere_sample(2, 50, rng)
        radii = 0.95 * rng.random(50) ** (1.0 / 4)
        assert np.array_equal(dirs, sphere_sample(2, 50, np.random.default_rng(9)))
        assert np.array_equal(random_pointset(2, 50, np.random.default_rng(9)),
                              dirs * radii[:, None])


class TestRadialMean:
    def test_constant_exact(self):
        one = TruncatedSeries.constant(2, 2, 1.0)
        m, e = hp_radial_mean(one, 1.0, 0.5, n=500, rng=np.random.default_rng(0))
        assert abs(m - 1.0) < 1e-14 and e < 1e-14

    def test_monotone_in_p_when_modulus_above_one(self):
        # 1 + h has modulus >= Re >= 1, so means must not decrease with p
        class Shifted:
            d = 2

            def __init__(self):
                self.base = boundary_kernel(np.array([1.0, 0.0]))

            def values_at(self, pts):
                return 1.0 + self.base.values_at(pts)

        f = Shifted()
        means = []
        for p in (0.5, 1.0, 2.0):
            m, e = hp_radial_mean(f, p, 0.8, n=40000, rng=np.random.default_rng(4))
            means.append((m, e))
        for (m1, e1), (m2, e2) in zip(means, means[1:]):
            assert m2 >= m1 - 3 * (e1 + e2)

    def test_rotation_invariance(self):
        # rotate the argument by a unitary: surface means are unchanged
        rng = np.random.default_rng(5)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        U, _ = np.linalg.qr(g)
        zeta = np.array([1.0, 0.0], dtype=complex)

        class Rotated:
            d = 2

            def __init__(self):
                self.base = boundary_kernel(zeta)

            def values_at(self, pts):
                return self.base.values_at(np.asarray(pts) @ U.T)

        m1, e1 = hp_radial_mean(boundary_kernel(zeta), 1.0, 0.9, np.random.default_rng(6),
                                n=100000)
        m2, e2 = hp_radial_mean(Rotated(), 1.0, 0.9, n=100000, rng=np.random.default_rng(7))
        assert abs(m1 - m2) <= 3 * (e1 + e2)

    def test_parameter_guards(self):
        one = TruncatedSeries.constant(2, 2, 1.0)
        with pytest.raises(ValueError):
            hp_radial_mean(one, -1.0, 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            hp_radial_mean(one, 1.0, 1.0, np.random.default_rng(0))

    def test_nan_exponent_or_radius_has_no_verdict(self):
        # the Monte Carlo path of an S+ member refuses a NaN p as the series
        # path of a one-atom measure does, before any direction is drawn
        member = generate_member("S+", np.random.default_rng(3))
        rng = np.random.default_rng(0)
        for p, r in ((math.nan, 0.5), (1.0, math.nan)):
            with pytest.raises(ValueError):
                hp_radial_mean(member, p, r, rng, n=100)
            with pytest.raises(ValueError):
                series_radial_mean(e1_kernel(2), p, r)
        with pytest.raises(ValueError, match="exponent must be positive"):
            growth_profile(member, math.nan, rng, n=100)
        assert rng.random() == np.random.default_rng(0).random()


class TestGrowthProfile:
    def test_constant_flat(self):
        prof = growth_profile(TruncatedSeries.constant(2, 2, 2.0), 1.0, np.random.default_rng(8),
                              (0.3, 0.6, 0.9), n=2000)
        assert prof.verdict == "bounded"
        assert abs(prof.slope) < 1e-12

    def test_boundary_kernel_p1_bounded(self):
        prof = growth_profile(boundary_kernel(np.array([1.0, 0.0])), 1.0,
                              np.random.default_rng(9), n=50000)
        assert prof.verdict == "bounded"
        assert prof.means[-1] / prof.means[1] <= 2.0

    def test_boundary_kernel_p3_divergent(self):
        prof = growth_profile(boundary_kernel(np.array([1.0, 0.0])), 3.0,
                              np.random.default_rng(10), n=200000)
        assert prof.verdict == "divergent"
        assert prof.means[-1] / prof.means[1] >= 50.0

    def test_composed_transform_bounded(self):
        # Cayley transform of a Schur-class function, evaluated through the
        # inner function values
        rng = np.random.default_rng(11)
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = 0.8 * c / np.linalg.norm(c)

        class Composed:
            d = 2

            def values_at(self, pts):
                phi = np.asarray(pts) @ c
                return (1.0 + phi) / (1.0 - phi)

        prof = growth_profile(Composed(), 1.0, np.random.default_rng(12), n=50000)
        assert prof.verdict == "bounded"

    def test_splus_samples_mostly_bounded(self):
        verdicts = []
        for k in range(20):
            m = generate_member("S+", np.random.default_rng(2000 + k), d=2, n=4)
            prof = growth_profile(m, 1.0, np.random.default_rng(k), n=10000)
            verdicts.append(prof.verdict)
        assert sum(v == "bounded" for v in verdicts) >= 19

    def test_grid_validation(self):
        one = TruncatedSeries.constant(2, 2, 1.0)
        with pytest.raises(ValueError):
            growth_profile(one, 1.0, np.random.default_rng(0), (0.9, 0.5), n=100)
        with pytest.raises(ValueError):
            growth_profile(one, 1.0, np.random.default_rng(0), (0.5,), n=100)

    def test_json_schema(self):
        prof = growth_profile(TruncatedSeries.constant(2, 2, 1.0), 1.0, np.random.default_rng(13),
                              (0.3, 0.7), n=500)
        obj = prof.to_json()
        assert set(obj) == {"p", "grid", "means", "stderr", "slope", "verdict",
                            "estimator", "budget"}
        assert obj["estimator"] == "monte-carlo" and obj["budget"] == {"samples": 500}


def e1_kernel(d):
    return boundary_kernel(np.eye(d)[0])


def one_atom(point, weight):
    point = np.asarray(point, dtype=complex)
    support = "boundary" if abs(np.linalg.norm(point) - 1.0) < 1e-12 else "interior"
    return AtomicMeasure(point[None, :], [weight], support)


def disk_quadrature_mean(p, r):
    """M_p(r) of the d = 2 boundary kernel by nested quadrature: <zeta, e1>
    is uniform on the unit disk, and |h|^p is averaged over its circles."""
    def circle(s):
        f = lambda t: ((1 + 2 * s * math.cos(t) + s * s)
                       / (1 - 2 * s * math.cos(t) + s * s)) ** (p / 2)
        kinks = [min(math.pi, k * (1 - s)) for k in (1, 10, 100)]
        return integrate.quad(f, 0.0, math.pi, points=kinks, epsabs=0.0,
                              epsrel=1e-11, limit=500)[0] / math.pi
    kinks = [1 - k * (1 - r) for k in (100, 10, 1) if k * (1 - r) < 1]
    return integrate.quad(lambda rho: 2 * rho * circle(r * rho), 0.0, 1.0,
                          points=kinks, epsabs=0.0, epsrel=1e-12, limit=500)[0]


class TestSeriesMeans:
    def test_p2_closed_form_d2(self):
        # sum_n 4 x^n / (n + 1) over n >= 1
        prof = growth_profile(e1_kernel(2), 2.0, np.random.default_rng(0))
        for r, m in zip(DEFAULT_R_GRID, prof.means):
            closed = 1 + 4 * (-math.log1p(-r * r) / (r * r) - 1)
            assert abs(m - closed) <= 1e-12 * closed, r

    def test_p2_closed_form_d1(self):
        # |h|^2 = |1 + 2 sum_n z^n|^2 on a circle: 1 + 4 r^2 / (1 - r^2)
        prof = growth_profile(e1_kernel(1), 2.0, np.random.default_rng(0))
        for r, m in zip(DEFAULT_R_GRID, prof.means):
            closed = (1 + 3 * r * r) / (1 - r * r)
            assert abs(m - closed) <= 1e-12 * closed, r

    @pytest.mark.parametrize("p", [1.0, 3.0])
    @pytest.mark.parametrize("r", [0.9, 0.999])
    def test_quadrature(self, p, r):
        m = series_radial_mean(e1_kernel(2), p, r)[0]
        assert abs(m - disk_quadrature_mean(p, r)) <= 1e-9 * m

    @pytest.mark.parametrize("f,p,r", [
        (e1_kernel(1), 1.5, 0.8),
        (e1_kernel(3), 1.5, 0.8),
        (e1_kernel(4), 2.5, 0.7),
        # a weighted interior atom
        (one_atom([0.3, 0.4j, -0.5], 0.7), 2.5, 0.9),
    ])
    def test_monte_carlo_agrees(self, f, p, r):
        m, _, _ = series_radial_mean(f, p, r)
        mc, err = hp_radial_mean(f, p, r, n=200000, rng=np.random.default_rng(21))
        assert abs(m - mc) <= 4 * err

    @pytest.mark.parametrize("p,d,y,terms", [(3.0, 2, 0.99, 200), (0.5, 1, 0.9, 20),
                                             (2.5, 3, 0.6, 8)])
    def test_tail_bound_covers_twice_the_terms(self, p, d, y, terms):
        head = growth._kernel_sum(p, d, y, terms)
        more = growth._kernel_sum(p, d, y, 2 * terms)
        assert 0.0 < more - head <= math.exp(growth._log_tail_bound(p, d, y * y, terms))

    def test_reported_tail_bound_covers_twice_the_terms(self):
        f = one_atom([0.0, 1.0, 0.0], 1.3)
        m, k, tail = series_radial_mean(f, 3.0, 0.999)
        more = 1.3 ** 3 * growth._kernel_sum(3.0, 3, 0.999, 2 * k)
        assert tail <= 1.3 ** 3 * growth.SERIES_TAIL
        assert 0.0 <= more - m <= tail + 4 * math.ulp(m)

    def test_default_target_p3_is_deterministic_and_divergent(self):
        # Monte Carlo at 200k samples gave "inconclusive" at seed 510 and
        # means at r = 0.999 from 906 to 36,055 across these seeds
        profiles = [cli.cmd_growth(*cli.typed_call("growth", seed, {"p": 3.0}).args)["profile"]
                    for seed in range(500, 540)]
        assert all(prof == profiles[0] for prof in profiles)
        assert profiles[0]["verdict"] == "divergent"
        assert profiles[0]["estimator"] == "series"
        assert profiles[0]["stderr"] == [0.0] * len(DEFAULT_R_GRID)
        assert abs(profiles[0]["means"][-1] - 5032.2186) < 1e-4

    def test_interior_atom_at_origin_is_constant(self):
        prof = growth_profile(one_atom([0.0, 0.0], 2.0), 3.0, np.random.default_rng(0),
                              (0.5, 0.99))
        assert prof.means == (8.0, 8.0) and prof.budget["terms"] == [1, 1]
        assert prof.verdict == "bounded"

    def test_overflow_stays_infinite(self):
        prof = growth_profile(e1_kernel(2), 1000.0, np.random.default_rng(0))
        assert prof.means[-1] == math.inf and prof.verdict == "divergent"

    def test_term_cap(self, monkeypatch):
        monkeypatch.setattr(growth, "SERIES_MAX_TERMS", 1000)
        assert series_radial_mean(e1_kernel(2), 3.0, 0.9)[1] <= 1000
        with pytest.raises(SizeCapError):
            series_radial_mean(e1_kernel(2), 3.0, 0.999)

    def test_other_targets_stay_monte_carlo(self):
        two = AtomicMeasure(
            np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex), [0.5, 0.5], "boundary")
        datum = generate_member("R+", np.random.default_rng(3), d=2, n=2)
        for f in (two, datum):
            prof = growth_profile(f, 1.0, np.random.default_rng(1), (0.5, 0.9), n=2000)
            assert prof.estimator == "monte-carlo"
            assert prof.budget == {"samples": 2000}
            assert all(e > 0.0 for e in prof.stderr)

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            series_radial_mean(e1_kernel(2), 0.0, 0.5)
        with pytest.raises(ValueError):
            series_radial_mean(e1_kernel(2), 1.0, 1.0)
        two = AtomicMeasure(np.eye(2, dtype=complex), [1.0, 1.0], "boundary")
        with pytest.raises(ValueError):
            series_radial_mean(two, 1.0, 0.5)
