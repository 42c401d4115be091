import math

import numpy as np
import pytest

from herglotzlab.classes import (
    BoundaryKernel,
    ClassMember,
    NonHermitianKernelError,
    PointSet,
    PreconditionError,
    boundary_biased_pointset,
    duality_sweep,
    extreme_h,
    generate_member,
    gram_min_eig,
    kT_test,
    mplus_atom_fit_residual,
    opool_member,
    qr_exact_vs_commuting,
    random_pointset,
    sample_duality_pairs,
    schur_test,
    schwarz_probe,
    splus_test,
)
from herglotzlab.optuple import (
    HerglotzDatum,
    NonCommutingError,
    OperatorTuple,
    is_commuting,
    is_row_contraction,
)
from herglotzlab.pairing import (
    AtomicMeasure,
    HerglotzMeasureFunction,
    herglotz_of_measure,
    R_GRID,
    qr_pair,
)
from herglotzlab.series import TruncatedSeries

from test_series import make_series

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
ZERO2 = np.zeros((2, 2), dtype=complex)


def duality_sweep_series(pairs, N, r_grid):
    """The duality sweep through degree-N truncations and the coefficient
    pairing, an oracle for the exact reductions on tame samples.

    It compares whole pairings only, so it agrees with ``duality_sweep``
    only for interior-measure or datum-backed g, where that sweep tests no
    boundary atoms on their own.
    """
    min_re = math.inf
    for f, g in pairs:
        fs, gs = f.series(N), g.series(N)
        for r in r_grid:
            min_re = min(min_re, qr_pair(fs, gs, r).real)
    return {"min_re": min_re, "pairs": len(pairs), "N": N}


def duality_sweep_per_r(pairs, r_grid=R_GRID):
    """The sweep as it was written before the r grid became the unit of
    work: f evaluated once per (pair, r) and one resolvent solve per
    (pair, r, term).  An oracle for the batched reductions, which must give
    the same dict bit for bit."""
    min_re = math.inf
    argmin = None
    atoms = 0
    for k, (f, g) in enumerate(pairs):
        boundary = g.measure is not None and g.measure.support == "boundary"
        if boundary:
            atoms += len(g.measure.weights)
        if g.measure is None:
            commuting = _commuting_per_r(f, g, r_grid)
        for i, r in enumerate(r_grid):
            if g.measure is not None:
                per_atom = 2.0 * f.values_at(r * g.measure.points)
                q = complex(np.sum(g.measure.weights * per_atom))
            else:
                q = commuting[i]
            if q.real < min_re:
                min_re = q.real
                argmin = {"pair": k, "atom": None, "r": r, "value": q.real}
            if boundary and per_atom.size:
                re = per_atom.real
                j = int(re.argmin())
                if re[j] < min_re:
                    min_re = float(re[j])
                    argmin = {"pair": k, "atom": j, "r": r, "value": min_re}
    return {"min_re": min_re, "argmin": argmin, "pairs": len(pairs),
            "atoms": atoms, "r_grid": list(r_grid)}


def _commuting_per_r(f, g, r_grid):
    Tg = g.datum.tuple
    if f.datum is not None:
        Tf = f.datum.tuple
        M = sum(np.kron(Tg.matrices[j], np.conj(Tf.matrices[j]))
                for j in range(Tg.d))
        terms = [(1.0, M, np.kron(g.datum.xi, np.conj(f.datum.xi)))]
    else:
        terms = [(wgt, sum(point[j] * Tg.matrices[j] for j in range(Tg.d)),
                  g.datum.xi)
                 for point, wgt in zip(f.measure.points, f.measure.weights)]
    eye = np.eye(terms[0][1].shape[0], dtype=complex)
    out = []
    for r in r_grid:
        total = 0.0 + 0.0j
        for wgt, M, v in terms:
            y = np.linalg.solve(eye - r * M, v)
            total += wgt * (2.0 * np.vdot(v, y) - np.vdot(v, v))
        out.append(complex(2.0 * np.conj(total)))
    return out


class _AffineZ1:
    """f = 1 + 3 z1, which has negative real part near (-1, 0); counts its
    evaluations."""

    d = 2

    def __init__(self):
        self.calls = 0

    def values_at(self, pts):
        self.calls += 1
        return 1.0 + 3.0 * np.asarray(pts)[:, 0]


class TestPointSets:
    def test_radius_cap_enforced(self):
        pts = random_pointset(3, 40, seed=0)
        assert np.linalg.norm(pts.points, axis=1).max() <= 0.95 + 1e-12

    def test_boundary_biased_band(self):
        pts = boundary_biased_pointset(2, 40, seed=1)
        radii = np.linalg.norm(pts.points, axis=1)
        assert radii.min() >= 0.9 - 1e-12 and radii.max() <= 0.99 + 1e-12

    def test_deterministic(self):
        a = random_pointset(2, 10, seed=7)
        b = random_pointset(2, 10, seed=7)
        assert np.allclose(a.points, b.points)

    def test_distinct(self):
        pts = random_pointset(2, 50, seed=3).points
        diffs = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(diffs, 1.0)
        assert diffs.min() > 1e-8


class TestGram:
    def test_rank_one_constant(self):
        rep = gram_min_eig(lambda z, w: 1.0 + 0j, random_pointset(2, 10, seed=4))
        assert rep.verdict == "pass"
        assert abs(rep.min_eig) < 1e-10

    def test_reproducing_kernel_psd(self):
        rep = gram_min_eig(lambda z, w: 1.0 / (1.0 - np.vdot(w, z)),
                           random_pointset(3, 20, seed=5), "fantappie")
        assert rep.verdict == "pass"

    def test_negative_kernel_with_witness(self):
        rep = gram_min_eig(lambda z, w: -1.0 + 0j, random_pointset(2, 8, seed=6))
        assert rep.verdict == "fail"
        assert rep.witness is not None and len(rep.witness) == 8

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianKernelError):
            gram_min_eig(lambda z, w: complex(z[0]), random_pointset(2, 6, seed=7))

    def test_report_json_schema(self):
        rep = gram_min_eig(lambda z, w: -1.0 + 0j, random_pointset(2, 5, seed=8))
        obj = rep.to_json()
        assert set(obj) == {"kernel", "points", "min_eig", "tol", "verdict", "witness"}
        assert obj["verdict"] == "fail" and len(obj["witness"]) == 5


class TestSplusMembership:
    def test_constant(self):
        rep = splus_test(TruncatedSeries.constant(2, 4, 1.0),
                         random_pointset(2, 20, seed=9))
        assert rep.verdict == "pass"

    def test_boundary_kernels_pass(self):
        rng = np.random.default_rng(10)
        for k in range(25):
            zeta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            zeta /= np.linalg.norm(zeta)
            rep = splus_test(BoundaryKernel(zeta), random_pointset(2, 25, seed=k))
            assert rep.verdict == "pass"

    def test_negative_real_part_fails_at_one_point(self):
        f = lambda z: (1.0 + 2.0 * z[0]) / (1.0 - 2.0 * z[0])
        rep = splus_test(f, PointSet(np.array([[-0.6 + 0j, 0.0 + 0j]]), 0, 0.95))
        assert rep.verdict == "fail"
        assert rep.witness is not None


class TestSchurMembership:
    def test_zero(self):
        assert schur_test(TruncatedSeries.zero(2, 4),
                          random_pointset(2, 20, seed=11)).verdict == "pass"

    def test_coordinate(self):
        assert schur_test(TruncatedSeries.coordinate(2, 4, 0),
                          random_pointset(2, 25, seed=12)).verdict == "pass"

    def test_amplified_coordinate_fails_near_boundary(self):
        phi = make_series(2, 2, {(1, 0): 1.1})
        rep = schur_test(phi, PointSet(np.array([[0.95 + 0j, 0.0 + 0j]]), 0, 0.95))
        assert rep.verdict == "fail"

    def test_cayley_verdict_equivalence(self):
        # splus on f and schur on (f-1)/(f+1) are congruent Grams, so the
        # verdicts agree on every finite set; exercise members and
        # non-members
        rng = np.random.default_rng(13)
        for k in range(100):
            member = generate_member("S+", 3000 + k, d=2, n=3)
            if k % 3 == 0:
                func = member.evaluator
            else:
                shift = 0.4 * float(np.abs(
                    member.evaluator.values_at(np.zeros((1, 2)))[0]))

                class Shifted:
                    d = 2

                    def __init__(self, base, delta):
                        self.base, self.delta = base, delta

                    def values_at(self, pts):
                        return self.base.values_at(pts) - self.delta

                func = Shifted(member.evaluator, shift + 0.05)

            class Cayley:
                d = 2

                def __init__(self, base):
                    self.base = base

                def values_at(self, pts):
                    v = self.base.values_at(pts)
                    return (v - 1.0) / (v + 1.0)

            pts = boundary_biased_pointset(2, 25, seed=500 + k)
            a = splus_test(func, pts)
            b = schur_test(Cayley(func), pts)
            assert a.verdict == b.verdict


class TestKtKernel:
    def test_zero_tuple(self):
        rep = kT_test(OperatorTuple(np.array([ZERO2, ZERO2])),
                      random_pointset(2, 15, seed=14))
        assert rep.verdict == "pass"

    def test_weak_not_row_tuple_passes(self):
        T = OperatorTuple(np.array([E11, E12]))
        assert not is_row_contraction(T)[0]
        for k in range(10):
            rep = kT_test(T, random_pointset(2, 20, seed=600 + k), seed=k)
            assert rep.verdict == "pass"

    def test_non_weak_scalar_fails(self):
        T = OperatorTuple(np.array([[[1.2]], [[0.0]]], dtype=complex))
        rep = kT_test(T, boundary_biased_pointset(2, 20, seed=15))
        assert rep.verdict == "fail"


class TestGenerators:
    def test_mplus_backing(self):
        m = generate_member("M+", 16, d=2)
        assert m.measure is not None and m.measure.support == "boundary"
        assert len(m.measure.points) <= 8

    def test_rplus_commutes_and_contracts(self):
        for k in range(10):
            m = generate_member("R+", 700 + k, d=2, n=4)
            assert is_commuting(m.datum.tuple, 1e-9)[0]
            assert is_row_contraction(m.datum.tuple, 1e-9)[0]

    def test_splus_contracts(self):
        for k in range(10):
            m = generate_member("S+", 800 + k, d=3, n=5)
            assert is_row_contraction(m.datum.tuple, 1e-9)[0]

    def test_nilpotent_example_function(self):
        D = HerglotzDatum(OperatorTuple(np.array([E12, ZERO2])),
                          np.array([2 ** -0.5, 2 ** -0.5]), 0.0)
        s = ClassMember("R+", D).series(4)
        assert abs(s.coeff((1, 0)) - 1.0) < 1e-14
        assert abs(s.constant_term - 1.0) < 1e-14
        rest = [abs(c) for i, c in enumerate(s.coeffs) if i not in (0, 1)]
        assert max(rest) < 1e-14

    def test_generated_splus_members_pass_kernel_test(self):
        for k in range(25):
            m = generate_member("S+", 900 + k, d=2, n=4)
            rep = splus_test(m.evaluator, random_pointset(2, 25, seed=950 + k))
            assert rep.verdict == "pass"

    def test_opool_rotation(self):
        kinds = {opool_member(s, d=2).kind for s in range(10)}
        assert "O+" in kinds and "S+" in kinds


class TestClassMemberBacking:
    def _measure(self):
        zeta = np.array([0.6, 0.8j])
        return AtomicMeasure(zeta[None, :], np.array([0.7]), "boundary")

    def test_accepts_consistent_members(self):
        mu = self._measure()
        own = ClassMember("M+", mu)
        kernel = ClassMember("O+", AtomicMeasure(mu.points, np.ones(1), "boundary"))
        pts = 0.5 * mu.points
        assert np.allclose(own.values_at(pts), 0.7 * kernel.values_at(pts))
        assert own.d == 2 and own.measure is mu and own.datum is None
        assert generate_member("M+", 3).measure is not None
        assert opool_member(3).measure is not None

    def test_measure_evaluator_is_the_transform_of_the_backing(self):
        # M+ members and the O+ pool's point masses (slot 3) are evaluated
        # by the transform of their own measure, built once
        members = [generate_member("M+", s) for s in range(3)]
        members += [opool_member(s) for s in (3, 8, 13)]
        for m in members:
            assert isinstance(m.evaluator, HerglotzMeasureFunction)
            assert m.evaluator.mu is m.measure
            assert m.evaluator is m.evaluator
        assert all(len(m.measure.weights) == 1 for m in members[3:])

    def test_datum_and_sample_backings(self):
        m = generate_member("R+", 4)
        assert m.evaluator is m.backing is m.datum
        assert m.measure is None and m.d == 2
        sample = opool_member(4)
        assert sample.evaluator is sample.backing
        assert sample.measure is None and sample.datum is None
        assert sample.d == 2
        with pytest.raises(TypeError):
            sample.series(4)


class TestDualitySweeps:
    def test_trivial_constant_pair(self):
        one = TruncatedSeries.constant(2, 4, 1.0)
        assert abs(qr_pair(one, one, 0.5) - 2.0) < 1e-14

    def test_kernel_against_own_atom(self):
        zeta = np.array([0.8, 0.6], dtype=complex)
        mu = AtomicMeasure(zeta[None, :], np.array([1.0]), "boundary")
        f = ClassMember("O+", mu)
        g = ClassMember("M+", mu)
        out = duality_sweep([(f, g)], r_grid=(0.1, 0.5, 0.9))
        # 2 h(r zeta) stays real and positive on its own ray
        assert out["min_re"] > 2.0

    def test_measure_pairs_positive(self):
        pairs = sample_duality_pairs("O+", "M+", 40, 17, d=2)
        assert duality_sweep(pairs)["min_re"] >= -1e-9

    def test_operator_pairs_positive(self):
        pairs = sample_duality_pairs("S+", "R+", 40, 18, d=2)
        assert duality_sweep(pairs)["min_re"] >= -1e-9

    def test_commuting_route_matches_series_route(self):
        # datum-backed f against commuting g: the Kronecker resolvent on a
        # grid against the coefficient pairing, where the tail is negligible
        grid = (0.2, 0.5, 0.9)
        for k in range(4):
            f = generate_member("S+", 40 + k, d=2, n=3)
            g = generate_member("R+", 50 + k, d=2, n=3)
            exact = qr_exact_vs_commuting(f, g, grid)
            fs, gs = f.series(16), g.series(16)
            for r, q in zip(grid, exact):
                assert abs(q - qr_pair(fs, gs, r)) < 1e-10

    def test_non_commuting_g_refused(self):
        # this sample used to give min_re 0.5223 from a reduction that does
        # not hold for it: none of its 200 g commutes
        pairs = sample_duality_pairs("S+", "S+", 200, 7)
        assert not any(is_commuting(g.datum.tuple)[0] for _, g in pairs)
        with pytest.raises(NonCommutingError):
            duality_sweep(pairs)
        with pytest.raises(NonCommutingError):
            qr_exact_vs_commuting(*pairs[0], (0.5,))

    def test_commuting_tuples_built_once_per_pair(self, monkeypatch):
        calls = []
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda a, b: calls.append(1) or kron(a, b))
        pairs = sample_duality_pairs("S+", "R+", 3, 5, d=2)
        out = duality_sweep(pairs)
        # d terms of the Kronecker tuple and one vector per pair, for all r
        assert len(calls) == 3 * (2 + 1)
        assert len(out["r_grid"]) == 20

    def test_exact_route_matches_series_route_for_tame_pairs(self):
        rng = np.random.default_rng(19)
        pairs = []
        for k in range(4):
            pts = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            pts = 0.4 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
            mu = AtomicMeasure(pts, rng.uniform(0.5, 1.0, 2), "interior")
            f = ClassMember("M+", mu)
            m = generate_member("R+", 20 + k, d=2, n=3)
            pairs.append((f, m))
        exact = duality_sweep(pairs, r_grid=(0.2, 0.5, 0.8))
        series = duality_sweep_series(pairs, N=16, r_grid=(0.2, 0.5, 0.8))
        assert abs(exact["min_re"] - series["min_re"]) < 1e-4


class TestBatchedSweepMatchesPerRadius:
    """The batched reductions against the per-r oracle, compared with ==."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kinds", [("O+", "M+"), ("S+", "R+")])
    def test_sampled_pairs(self, kinds, seed):
        # 40 O+ samples cover all five pool slots, the shifted boundary
        # kernel and measure-backed f included
        pairs = sample_duality_pairs(*kinds, 40, seed, d=2)
        assert duality_sweep(pairs) == duality_sweep_per_r(pairs)

    def test_interior_measure_and_negative_f(self):
        mu = AtomicMeasure(np.array([[-0.9, 0.0], [0.5, 0.2]], dtype=complex),
                           np.array([1.0, 0.5]), "interior")
        f = ClassMember("O+", _AffineZ1())
        pairs = [(f, ClassMember("M+", mu))]
        pairs += [(f, generate_member("M+", 1500 + k, d=2)) for k in range(5)]
        grid = (0.0, 0.3, 0.99, 1.0)
        for subset in (pairs[:1], pairs):
            assert duality_sweep(subset, grid) == duality_sweep_per_r(subset, grid)


class TestExtremePoints:
    def test_univariate_slice_coefficients(self):
        h = extreme_h(np.array([1.0, 0.0]), 6)
        assert h.constant_term == 1.0
        assert all(h.coeff((k, 0)) == 2.0 for k in range(1, 7))

    def test_matches_point_mass_transform(self):
        zeta = np.array([0.48 + 0.64j, 0.6])
        zeta /= np.linalg.norm(zeta)
        mu = AtomicMeasure(zeta[None, :], np.array([1.0]), "boundary")
        assert np.allclose(extreme_h(zeta, 7).coeffs,
                           herglotz_of_measure(mu, 0.0, 7).coeffs)

    def test_boundary_kernel_is_point_mass_transform(self):
        rng = np.random.default_rng(24)
        for d in (1, 2, 3, 4):
            zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            zeta /= np.linalg.norm(zeta)
            mu = AtomicMeasure(zeta[None, :], np.ones(1), "boundary")
            pts = random_pointset(d, 500, radius_cap=0.999, seed=d).points
            h = BoundaryKernel(zeta)
            assert h.d == d
            assert np.array_equal(h.values_at(pts),
                                  HerglotzMeasureFunction(mu).values_at(pts))
        # one point at the pole is clamped and counted, the rest are not
        h = BoundaryKernel(zeta)
        near = np.vstack([zeta * (1.0 - 1e-14), 0.5 * zeta])
        vals = h.values_at(near)
        assert h.clamps == 1
        assert np.isfinite(vals).all() and abs(vals[0]) > 1e11
        with pytest.raises(ValueError):
            BoundaryKernel(0.5 * zeta)

    def test_matches_word_state_limit(self):
        from herglotzlab.fock import cuntz_state_herglotz
        rng = np.random.default_rng(21)
        zeta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        zeta /= np.linalg.norm(zeta)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = z / np.linalg.norm(z) * 0.55
        exact = BoundaryKernel(zeta).values_at(z[None, :])[0]
        assert abs(cuntz_state_herglotz(zeta, z, 300) - exact) < 1e-10

    def test_rejects_interior_point(self):
        with pytest.raises(ValueError):
            extreme_h(np.array([0.5, 0.0]), 4)


class TestSchwarzProbe:
    def test_coordinate_passes(self):
        g = make_series(2, 4, {(1, 0): 1.0})
        rep = schwarz_probe(g, budget=80, seed=0)
        assert rep.verdict == "pass"

    def test_off_slice_perturbation_fails(self):
        g = make_series(2, 4, {(1, 0): 1.0, (0, 2): 0.5})
        rep = schwarz_probe(g, budget=200, seed=0)
        assert rep.verdict == "fail"
        assert rep.min_eig < 0

    def test_on_slice_perturbation_fails(self):
        g = make_series(2, 4, {(1, 0): 1.0, (2, 0): 0.5})
        rep = schwarz_probe(g, budget=200, seed=0)
        assert rep.verdict == "fail"

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            schwarz_probe(make_series(2, 3, {(1, 0): 0.5}))
        with pytest.raises(PreconditionError):
            schwarz_probe(make_series(2, 3, {(0, 0): 0.1, (1, 0): 1.0}))


class TestAtomRepresentability:
    def test_affine_function_has_no_small_atomic_fit(self):
        f = make_series(2, 10, {(0, 0): 1.0, (1, 0): 1.0})
        res = mplus_atom_fit_residual(f, n_atoms=8, restarts=8, seed=0)
        assert res > 1e-2

    def test_point_mass_target_fits(self):
        zeta = np.array([0.6, 0.8], dtype=complex)
        h = extreme_h(zeta, 6)
        f = TruncatedSeries(2, 6, h.coeffs)
        res = mplus_atom_fit_residual(f, n_atoms=2, restarts=10, seed=1)
        assert res < 1e-6


class TestChainEvidence:
    def test_measure_sweep_failure_implies_pointwise_failure(self):
        # consistency of the dual-cone direction: a function the measure
        # sweep rejects must also have negative real part at some point
        class Affine:
            d = 2

            def values_at(self, pts):
                return 1.0 + 3.0 * np.asarray(pts)[:, 0]

        f = ClassMember("O+", Affine())
        pairs = [(f, generate_member("M+", 1500 + k, d=2)) for k in range(20)]
        swept = duality_sweep(pairs)
        pts = random_pointset(2, 400, seed=1600).points
        pointwise_min = float(f.values_at(pts).real.min())
        assert swept["min_re"] < 0
        assert pointwise_min < 0

    def test_measure_sweep_witness_is_worst_boundary_atom(self):
        # the sweep tests each boundary atom as a unit point mass: for
        # f = 1 + 3 z1 the witness is the atom with the least Re p_1, at the
        # largest r, and the sweep evaluates f once per pair, on all r
        f = ClassMember("O+", _AffineZ1())
        pairs = [(f, generate_member("M+", 1500 + k, d=2)) for k in range(20)]
        swept = duality_sweep(pairs)
        argmin = swept["argmin"]
        assert argmin == {"pair": 13, "atom": 6, "r": 0.99,
                          "value": swept["min_re"]}
        atoms = [(k, j, p) for k, (_, g) in enumerate(pairs)
                 for j, p in enumerate(g.measure.points)]
        k, j, p = min(atoms, key=lambda a: a[2][0].real)
        assert (k, j) == (13, 6)
        assert abs(swept["min_re"] - 2.0 * (1.0 + 3.0 * 0.99 * p[0].real)) < 1e-12
        assert swept["atoms"] == len(atoms)
        assert swept["pairs"] == 20
        assert f.evaluator.calls == swept["pairs"]

    def test_interior_measure_pair_reports_whole_pairing(self):
        # interior atoms are not point masses of M+, so only the whole
        # pairing 2 sum_j w_j f(r p_j) = 2 (2 - 1.2 r) enters the minimum,
        # although the atom at -0.9 alone would pair negative
        f = ClassMember("O+", _AffineZ1())
        mu = AtomicMeasure(np.array([[-0.9, 0.0], [0.5, 0.2]], dtype=complex),
                           np.array([1.0, 1.0]), "interior")
        g = ClassMember("M+", mu)
        swept = duality_sweep([(f, g)])
        assert swept["argmin"]["atom"] is None
        assert swept["argmin"]["pair"] == 0 and swept["argmin"]["r"] == 0.99
        assert abs(swept["min_re"] - 2.0 * (2.0 - 1.2 * 0.99)) < 1e-12
        assert swept["atoms"] == 0

    def test_generated_members_have_nonnegative_real_part(self):
        rng = np.random.default_rng(22)
        for k in range(20):
            kind = ("M+", "R+", "S+")[k % 3]
            m = generate_member(kind, 1100 + k, d=2, n=4)
            pts = random_pointset(2, 60, seed=1200 + k).points
            assert m.values_at(pts).real.min() >= -1e-10

    def test_rplus_members_pass_splus_test(self):
        for k in range(15):
            m = generate_member("R+", 1300 + k, d=2, n=4)
            rep = splus_test(m.evaluator, random_pointset(2, 25, seed=1400 + k))
            assert rep.verdict == "pass"
