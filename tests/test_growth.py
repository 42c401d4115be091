import math

import numpy as np
import pytest

from herglotzlab.classes import BoundaryKernel, generate_member, random_pointset
from herglotzlab.growth import (
    growth_profile,
    hp_radial_mean,
    sphere_sample,
)
from herglotzlab.series import TruncatedSeries


class TestSphereSample:
    def test_unit_norm(self):
        pts = sphere_sample(3, 5000, seed=0)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-14

    def test_univariate_unit_modulus(self):
        pts = sphere_sample(1, 1000, seed=1)
        assert np.max(np.abs(np.abs(pts[:, 0]) - 1.0)) < 1e-14

    def test_coordinate_second_moment(self):
        # symmetry oracle: E |zeta_1|^2 = 1/d
        for d in (2, 3):
            pts = sphere_sample(d, 100000, seed=d)
            m = np.abs(pts[:, 0]) ** 2
            stderr = m.std(ddof=1) / math.sqrt(len(m))
            assert abs(m.mean() - 1.0 / d) <= 3 * stderr

    def test_deterministic(self):
        assert np.allclose(sphere_sample(2, 50, seed=9), sphere_sample(2, 50, seed=9))

    def test_generator_seed_keeps_its_stream(self):
        # a caller's Generator is drawn from in place, so the caller can keep
        # drawing from it: random_pointset takes its radii after the sample
        rng = np.random.default_rng(9)
        dirs = sphere_sample(2, 50, rng)
        radii = 0.95 * rng.random(50) ** (1.0 / 4)
        assert np.array_equal(dirs, sphere_sample(2, 50, seed=9))
        assert np.array_equal(random_pointset(2, 50, seed=9).points,
                              dirs * radii[:, None])


class TestRadialMean:
    def test_constant_exact(self):
        one = TruncatedSeries.constant(2, 2, 1.0)
        m, e = hp_radial_mean(one, 1.0, 0.5, n=500, seed=0)
        assert abs(m - 1.0) < 1e-14 and e < 1e-14

    def test_monotone_in_p_when_modulus_above_one(self):
        # 1 + h has modulus >= Re >= 1, so means must not decrease with p
        class Shifted:
            d = 2

            def __init__(self):
                self.base = BoundaryKernel(np.array([1.0, 0.0]))

            def values_at(self, pts):
                return 1.0 + self.base.values_at(pts)

        f = Shifted()
        means = []
        for p in (0.5, 1.0, 2.0):
            m, e = hp_radial_mean(f, p, 0.8, n=40000, seed=4)
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
                self.base = BoundaryKernel(zeta)

            def values_at(self, pts):
                return self.base.values_at(np.asarray(pts) @ U.T)

        m1, e1 = hp_radial_mean(BoundaryKernel(zeta), 1.0, 0.9, n=100000, seed=6)
        m2, e2 = hp_radial_mean(Rotated(), 1.0, 0.9, n=100000, seed=7)
        assert abs(m1 - m2) <= 3 * (e1 + e2)

    def test_parameter_guards(self):
        one = TruncatedSeries.constant(2, 2, 1.0)
        with pytest.raises(ValueError):
            hp_radial_mean(one, -1.0, 0.5)
        with pytest.raises(ValueError):
            hp_radial_mean(one, 1.0, 1.0)


class TestGrowthProfile:
    def test_constant_flat(self):
        prof = growth_profile(TruncatedSeries.constant(2, 2, 2.0), 1.0,
                              (0.3, 0.6, 0.9), n=2000, seed=8)
        assert prof.verdict == "bounded"
        assert abs(prof.slope) < 1e-12

    def test_boundary_kernel_p1_bounded(self):
        prof = growth_profile(BoundaryKernel(np.array([1.0, 0.0])), 1.0,
                              n=50000, seed=9)
        assert prof.verdict == "bounded"
        assert prof.means[-1] / prof.means[1] <= 2.0

    def test_boundary_kernel_p3_divergent(self):
        prof = growth_profile(BoundaryKernel(np.array([1.0, 0.0])), 3.0,
                              n=200000, seed=10)
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

        prof = growth_profile(Composed(), 1.0, n=50000, seed=12)
        assert prof.verdict == "bounded"

    def test_splus_samples_mostly_bounded(self):
        verdicts = []
        for k in range(20):
            m = generate_member("S+", 2000 + k, d=2, n=4)
            prof = growth_profile(m.evaluator, 1.0, n=10000, seed=k)
            verdicts.append(prof.verdict)
        assert sum(v == "bounded" for v in verdicts) >= 19

    def test_grid_validation(self):
        one = TruncatedSeries.constant(2, 2, 1.0)
        with pytest.raises(ValueError):
            growth_profile(one, 1.0, (0.9, 0.5), n=100)
        with pytest.raises(ValueError):
            growth_profile(one, 1.0, (0.5,), n=100)

    def test_json_schema(self):
        prof = growth_profile(TruncatedSeries.constant(2, 2, 1.0), 1.0,
                              (0.3, 0.7), n=500, seed=13)
        obj = prof.to_json()
        assert set(obj) == {"p", "grid", "means", "stderr", "slope", "verdict"}
