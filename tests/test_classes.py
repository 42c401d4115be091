import math

import numpy as np
import pytest

from herglotzlab import classes
from herglotzlab.classes import (
    CHUNK_BYTES,
    SAMPLE_CHUNK,
    PreconditionError,
    ShiftedBoundaryKernel,
    boundary_biased_pointset,
    boundary_kernel,
    duality_sweep,
    extreme_h,
    generate_member,
    kT_test,
    qr_exact_vs_commuting_many,
    random_boundary_measure,
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
    herglotz_taylor,
    is_commuting,
    is_row_contraction,
)
from herglotzlab.pairing import (
    AtomicMeasure,
    herglotz_of_measure,
    R_GRID,
    qr_pair,
)
from herglotzlab.series import DimensionMismatchError, TruncatedSeries

from test_series import coordinate, make_series, zero

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
ZERO2 = np.zeros((2, 2), dtype=complex)


def member_series(m, N):
    """The degree-N Taylor truncation of a datum or of a measure's transform."""
    if isinstance(m, HerglotzDatum):
        return herglotz_taylor(m, N)
    return herglotz_of_measure(m, N)


def duality_sweep_series(pairs, N, r_grid):
    """The duality sweep through degree-N truncations and the coefficient
    pairing, an oracle for the exact reductions on tame samples.

    It compares whole pairings only, so it agrees with ``duality_sweep``
    only for an interior measure or a datum g, where that sweep tests no
    boundary atoms on their own.
    """
    min_re = math.inf
    for f, g in pairs:
        fs, gs = member_series(f, N), member_series(g, N)
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
        measure = isinstance(g, AtomicMeasure)
        boundary = measure and g.support == "boundary"
        if boundary:
            atoms += len(g.weights)
        if not measure:
            commuting = _commuting_per_r(f, g, r_grid)
        for i, r in enumerate(r_grid):
            if measure:
                per_atom = 2.0 * f.values_at(r * g.points)
                q = complex(np.sum(g.weights * per_atom))
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


def sweep_pair_by_pair(pairs, r_grid=R_GRID):
    """The sweep with each pair in a chunk of its own, the minima combined
    in pair order: an oracle for the chunked sweep."""
    min_re, argmin, atoms = math.inf, None, 0
    for k, pair in enumerate(pairs):
        out = duality_sweep([pair], r_grid)
        atoms += out["atoms"]
        if out["min_re"] < min_re:
            min_re, argmin = out["min_re"], dict(out["argmin"], pair=k)
    return {"min_re": min_re, "argmin": argmin, "pairs": len(pairs),
            "atoms": atoms, "r_grid": list(r_grid)}


def _commuting_per_r(f, g, r_grid):
    """Q_r(f, g) for a datum g with a commuting tuple, one resolvent solve
    per r and term: the Kronecker pencil for a datum f, and for a measure f
    one pencil I - r <p_j, T_g> per atom p_j, weighted by w_j."""
    Tg = g.tuple
    if isinstance(f, HerglotzDatum):
        Tf = f.tuple
        M = sum(np.kron(Tg.matrices[j], np.conj(Tf.matrices[j]))
                for j in range(Tg.d))
        terms = [(1.0, M, np.kron(g.xi, np.conj(f.xi)))]
    else:
        terms = [(wgt, sum(point[j] * Tg.matrices[j] for j in range(Tg.d)), g.xi)
                 for point, wgt in zip(f.points, f.weights)]
    eye = np.eye(terms[0][1].shape[0], dtype=complex)
    out = []
    for r in r_grid:
        total = 0.0 + 0.0j
        for wgt, M, v in terms:
            y = np.linalg.solve(eye - r * M, v)
            total += wgt * (2.0 * np.vdot(v, y) - np.vdot(v, v))
        out.append(complex(2.0 * np.conj(total)))
    return out


# -- the per-member samplers ------------------------------------------------
# The samplers as they were written before members were finished in stacked
# chunks: one QR, one SVD and one conjugation per member.  The library must
# give the same members bit for bit.


def _unitary_per_member(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _row_contraction_per_member(d, n, rng):
    mats = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    return OperatorTuple(mats * (rng.uniform(0.3, 1.0) / np.linalg.norm(np.hstack(mats), 2)))


def _commuting_contraction_per_member(d, n, rng):
    mats = np.zeros((d, n, n), dtype=complex)
    if rng.random() < 0.5 or d < 2:
        i = np.arange(n)
        mats[:, i, i] = random_pointset(d, n, rng, 1.0).T
    else:
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a) / rng.uniform(0.3, 1.0)
        mats[:2, 0, 1] = a
    U = _unitary_per_member(rng, n)
    return OperatorTuple(U @ mats @ U.conj().T)


def member_per_member(kind, rng, d=2, n=4):
    if kind == "M+":
        return random_boundary_measure(d, rng)
    T = {"R+": _commuting_contraction_per_member, "S+": _row_contraction_per_member}[kind](d, n, rng)
    xi = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(n)
    return HerglotzDatum(T, xi, 0.0)


def pool_member_per_member(k, rng, d=2):
    slot = k % 5
    if slot < 3:
        return member_per_member(("S+", "R+", "M+")[slot], rng, d=d)
    if slot == 3:
        zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        zeta /= np.linalg.norm(zeta)
        return boundary_kernel(zeta)
    return ShiftedBoundaryKernel() if d == 2 else member_per_member("S+", rng, d=d)


def pairs_per_member(kind_f, kind_g, trials, rng, d=2):
    for k in range(trials):
        f = pool_member_per_member(k, rng, d) if kind_f == "O+" else member_per_member(kind_f, rng, d)
        yield f, member_per_member(kind_g, rng, d)


def assert_same_member(x, y):
    assert type(x) is type(y)
    if isinstance(x, AtomicMeasure):
        assert np.array_equal(x.points, y.points)
        assert np.array_equal(x.weights, y.weights)
        assert x.support == y.support
    elif isinstance(x, HerglotzDatum):
        assert np.array_equal(x.tuple.matrices, y.tuple.matrices)
        assert np.array_equal(x.xi, y.xi)
        assert x.t == y.t


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
        pts = random_pointset(3, 40, np.random.default_rng(0))
        assert np.linalg.norm(pts, axis=1).max() <= 0.95 + 1e-12

    def test_boundary_biased_band(self):
        pts = boundary_biased_pointset(2, 40, np.random.default_rng(1))
        radii = np.linalg.norm(pts, axis=1)
        assert radii.min() >= 0.9 - 1e-12 and radii.max() <= 0.99 + 1e-12

    def test_deterministic(self):
        a = random_pointset(2, 10, np.random.default_rng(7))
        b = random_pointset(2, 10, np.random.default_rng(7))
        assert np.allclose(a, b)

    def test_distinct(self):
        pts = random_pointset(2, 50, np.random.default_rng(3))
        diffs = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(diffs, 1.0)
        assert diffs.min() > 1e-8


class TestGram:
    # every Gram goes through one eigen-solve (_gram_report); these reach it
    # through the Schur kernel (1 - phi(z) conj(phi(w))) / (1 - <z, w>)
    def test_unimodular_constant_null_gram(self):
        # phi = 1 gives the zero kernel: min_eig 0 passes
        rep = schur_test(TruncatedSeries.constant(2, 3, 1.0),
                         random_pointset(2, 10, np.random.default_rng(4)))
        assert rep.verdict == "pass"
        assert abs(rep.min_eig) < 1e-10

    def test_reproducing_kernel_psd(self):
        # phi = 0 gives 1 / (1 - <z, w>)
        rep = schur_test(zero(3, 3), random_pointset(3, 20, np.random.default_rng(5)))
        assert rep.verdict == "pass"

    def test_negative_kernel_with_witness(self):
        # phi = 2 gives -3 / (1 - <z, w>)
        rep = schur_test(TruncatedSeries.constant(2, 3, 2.0),
                         random_pointset(2, 8, np.random.default_rng(6)))
        assert rep.verdict == "fail"
        assert rep.witness is not None and len(rep.witness) == 8

    def test_report_json_schema(self):
        rep = schur_test(TruncatedSeries.constant(2, 3, 2.0),
                         random_pointset(2, 5, np.random.default_rng(8)))
        obj = rep.to_json()
        assert set(obj) == {"kernel", "points", "min_eig", "tol", "verdict", "witness"}
        assert obj["verdict"] == "fail" and len(obj["witness"]) == 5


class TestSplusMembership:
    def test_constant(self):
        rep = splus_test(TruncatedSeries.constant(2, 4, 1.0),
                         random_pointset(2, 20, np.random.default_rng(9)))
        assert rep.verdict == "pass"

    def test_boundary_kernels_pass(self):
        rng = np.random.default_rng(10)
        for k in range(25):
            zeta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            zeta /= np.linalg.norm(zeta)
            rep = splus_test(boundary_kernel(zeta),
                             random_pointset(2, 25, np.random.default_rng(k)))
            assert rep.verdict == "pass"

    def test_negative_real_part_fails_at_one_point(self):
        # the transform of T = (2, 0), xi = 1: (1 + 2 z1) / (1 - 2 z1)
        f = HerglotzDatum(OperatorTuple(np.array([[[2.0]], [[0.0]]])), [1.0])
        rep = splus_test(f, np.array([[-0.6 + 0j, 0.0 + 0j]]))
        assert rep.verdict == "fail"
        assert rep.witness is not None


class TestSchurMembership:
    def test_zero(self):
        assert schur_test(zero(2, 4),
                          random_pointset(2, 20, np.random.default_rng(11))).verdict == "pass"

    def test_coordinate(self):
        assert schur_test(coordinate(2, 4, 0),
                          random_pointset(2, 25, np.random.default_rng(12))).verdict == "pass"

    def test_amplified_coordinate_fails_near_boundary(self):
        phi = make_series(2, 2, {(1, 0): 1.1})
        rep = schur_test(phi, np.array([[0.95 + 0j, 0.0 + 0j]]))
        assert rep.verdict == "fail"

    def test_cayley_verdict_equivalence(self):
        # splus on f and schur on (f-1)/(f+1) are congruent Grams, so the
        # verdicts agree on every finite set; exercise members and
        # non-members
        rng = np.random.default_rng(13)
        for k in range(100):
            member = generate_member("S+", np.random.default_rng(3000 + k), d=2, n=3)
            if k % 3 == 0:
                func = member
            else:
                shift = 0.4 * float(np.abs(member.values_at(np.zeros((1, 2)))[0]))

                class Shifted:
                    d = 2

                    def __init__(self, base, delta):
                        self.base, self.delta = base, delta

                    def values_at(self, pts):
                        return self.base.values_at(pts) - self.delta

                func = Shifted(member, shift + 0.05)

            class Cayley:
                d = 2

                def __init__(self, base):
                    self.base = base

                def values_at(self, pts):
                    v = self.base.values_at(pts)
                    return (v - 1.0) / (v + 1.0)

            pts = boundary_biased_pointset(2, 25, np.random.default_rng(500 + k))
            a = splus_test(func, pts)
            b = schur_test(Cayley(func), pts)
            assert a.verdict == b.verdict


class TestKtKernel:
    def test_zero_tuple(self):
        rep = kT_test(OperatorTuple(np.array([ZERO2, ZERO2])),
                      random_pointset(2, 15, np.random.default_rng(14)), np.random.default_rng(0))
        assert rep.verdict == "pass"

    def test_weak_not_row_tuple_passes(self):
        T = OperatorTuple(np.array([E11, E12]))
        assert not is_row_contraction(T)[0]
        for k in range(10):
            rep = kT_test(T, random_pointset(2, 20, np.random.default_rng(600 + k)),
                          np.random.default_rng(k))
            assert rep.verdict == "pass"

    def test_non_weak_scalar_fails(self):
        T = OperatorTuple(np.array([[[1.2]], [[0.0]]], dtype=complex))
        rep = kT_test(T, boundary_biased_pointset(2, 20, np.random.default_rng(15)),
                      np.random.default_rng(0))
        assert rep.verdict == "fail"


class TestGenerators:
    def test_mplus_is_a_boundary_measure(self):
        m = generate_member("M+", np.random.default_rng(16), d=2)
        assert isinstance(m, AtomicMeasure) and m.support == "boundary"
        assert len(m.points) <= 8

    def test_rplus_commutes_and_contracts(self):
        for k in range(10):
            m = generate_member("R+", np.random.default_rng(700 + k), d=2, n=4)
            assert is_commuting(m.tuple, 1e-9)[0]
            assert is_row_contraction(m.tuple, 1e-9)[0]

    @pytest.mark.parametrize("d", [2, 3])
    def test_rplus_one_by_one_is_diagonal(self, d):
        # the nilpotent pair needs n >= 2: at n = 1 it raised IndexError for
        # seeds 0, 1, 4 and 5; now a 1 x 1 tuple is drawn diagonal, after the
        # same coin, so the streams of n >= 2 are unchanged
        for seed in range(10):
            m = generate_member("R+", np.random.default_rng(seed), d=d, n=1)
            rng = np.random.default_rng(seed)
            rng.random()
            point = random_pointset(d, 1, rng, 1.0)[0]
            assert m.tuple.matrices.shape == (d, 1, 1)
            assert np.allclose(m.tuple.matrices[:, 0, 0], point, rtol=0.0, atol=1e-15)
            assert is_row_contraction(m.tuple, 1e-9)[0]

    def test_splus_contracts(self):
        for k in range(10):
            m = generate_member("S+", np.random.default_rng(800 + k), d=3, n=5)
            assert is_row_contraction(m.tuple, 1e-9)[0]

    def test_nilpotent_example_function(self):
        D = HerglotzDatum(OperatorTuple(np.array([E12, ZERO2])),
                          np.array([2 ** -0.5, 2 ** -0.5]), 0.0)
        s = member_series(D, 4)
        assert abs(s.coeff((1, 0)) - 1.0) < 1e-14
        assert abs(s.constant_term - 1.0) < 1e-14
        rest = [abs(c) for i, c in enumerate(s.coeffs) if i not in (0, 1)]
        assert max(rest) < 1e-14

    def test_generated_splus_members_pass_kernel_test(self):
        for k in range(25):
            m = generate_member("S+", np.random.default_rng(900 + k), d=2, n=4)
            rep = splus_test(m, random_pointset(2, 25, np.random.default_rng(950 + k)))
            assert rep.verdict == "pass"

    def test_splus_xi_independent_of_its_tuple(self):
        # T and xi come from one stream, one after the other; xi used to be
        # drawn from a second Generator of the same seed, and this sample
        # correlation over seeds 0-999 was 0.949
        members = [generate_member("S+", np.random.default_rng(s), d=2, n=4)
                   for s in range(1000)]
        xi0 = [m.xi[0].real for m in members]
        t00 = [m.tuple.matrices[0][0, 0].real for m in members]
        assert abs(np.corrcoef(xi0, t00)[0, 1]) <= 4.0 / math.sqrt(1000)

    def test_opool_rotation(self):
        # slots 0-2 are the S+, R+ and M+ generators, slot 3 a unit point
        # mass, slot 4 the shifted boundary kernel (at d = 2) or an S+ datum
        for k, (m, _) in enumerate(sample_duality_pairs("O+", "M+", 10, np.random.default_rng(0))):
            slot = k % 5
            if slot < 2:
                assert isinstance(m, HerglotzDatum)
            elif slot == 4:
                assert isinstance(m, ShiftedBoundaryKernel)
            else:
                assert isinstance(m, AtomicMeasure) and m.support == "boundary"
        pool = [f for f, _ in sample_duality_pairs("O+", "M+", 5, np.random.default_rng(4), d=3)]
        assert isinstance(pool[4], HerglotzDatum)


class TestMemberTypes:
    def _measure(self):
        zeta = np.array([0.6, 0.8j])
        return AtomicMeasure(zeta[None, :], np.array([0.7]), "boundary")

    def test_accepts_consistent_members(self):
        mu = self._measure()
        kernel = boundary_kernel(mu.points[0])
        pts = 0.5 * mu.points
        assert np.allclose(mu.values_at(pts), 0.7 * kernel.values_at(pts))
        assert isinstance(generate_member("M+", np.random.default_rng(3)), AtomicMeasure)
        pool = [f for f, _ in sample_duality_pairs("O+", "M+", 4, np.random.default_rng(3))]
        assert isinstance(pool[3], AtomicMeasure)

    def test_measure_members_evaluate_their_transform(self):
        # M+ members and the O+ pool's point masses (slot 3) are measures,
        # evaluated as sum_j w_j (1 + <z, p_j>) / (1 - <z, p_j>)
        members = [generate_member("M+", np.random.default_rng(s)) for s in range(3)]
        pool = [f for f, _ in sample_duality_pairs("O+", "M+", 14, np.random.default_rng(3))]
        members += pool[3::5]
        pts = random_pointset(2, 50, np.random.default_rng(23))
        for m in members:
            assert isinstance(m, AtomicMeasure)
            ip = pts @ np.conj(m.points.T)
            expect = ((1.0 + ip) / (1.0 - ip)) @ m.weights
            assert np.allclose(m.values_at(pts), expect, rtol=1e-13, atol=0.0)
        assert all(np.array_equal(m.weights, np.ones(1)) for m in members[3:])

    def test_datum_and_sample_members(self):
        m = generate_member("R+", np.random.default_rng(4))
        assert isinstance(m, HerglotzDatum)
        sample = [f for f, _ in sample_duality_pairs("O+", "M+", 5, np.random.default_rng(4))][4]
        assert isinstance(sample, ShiftedBoundaryKernel)
        with pytest.raises(TypeError):
            duality_sweep([(sample, m)], (0.5,))


class TestDualitySweeps:
    def test_trivial_constant_pair(self):
        one = TruncatedSeries.constant(2, 4, 1.0)
        assert abs(qr_pair(one, one, 0.5) - 2.0) < 1e-14

    def test_kernel_against_own_atom(self):
        zeta = np.array([0.8, 0.6], dtype=complex)
        mu = AtomicMeasure(zeta[None, :], np.array([1.0]), "boundary")
        out = duality_sweep([(mu, mu)], r_grid=(0.1, 0.5, 0.9))
        # 2 h(r zeta) stays real and positive on its own ray
        assert out["min_re"] > 2.0

    def test_measure_pairs_positive(self):
        pairs = sample_duality_pairs("O+", "M+", 40, np.random.default_rng(17), d=2)
        assert duality_sweep(pairs)["min_re"] >= -1e-9

    def test_operator_pairs_positive(self):
        pairs = sample_duality_pairs("S+", "R+", 40, np.random.default_rng(18), d=2)
        assert duality_sweep(pairs)["min_re"] >= -1e-9

    def test_commuting_route_matches_series_route(self):
        # datum-backed f against commuting g: the Kronecker resolvent on a
        # grid against the coefficient pairing, where the tail is negligible
        grid = (0.2, 0.5, 0.9)
        for k in range(4):
            f = generate_member("S+", np.random.default_rng(40 + k), d=2, n=3)
            g = generate_member("R+", np.random.default_rng(50 + k), d=2, n=3)
            exact = qr_exact_vs_commuting_many([(f, g)], grid)[0]
            fs, gs = member_series(f, 16), member_series(g, 16)
            for r, q in zip(grid, exact):
                assert abs(q - qr_pair(fs, gs, r)) < 1e-10

    def test_non_commuting_g_refused(self):
        # this sample used to give min_re 0.5223 from a reduction that does
        # not hold for it: none of its 200 g commutes
        pairs = list(sample_duality_pairs("S+", "S+", 200, np.random.default_rng(7)))
        assert not any(is_commuting(g.tuple)[0] for _, g in pairs)
        with pytest.raises(NonCommutingError):
            duality_sweep(pairs)
        with pytest.raises(NonCommutingError):
            qr_exact_vs_commuting_many([pairs[0]], (0.5,))

    def test_commuting_tuples_built_once_per_pair(self, monkeypatch):
        # a pair's resolvent is built once for the whole grid, never once per
        # radius: the 3 pairs share a chunk, and one solve over (pair, radius)
        # serves all 20 radii of all three
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: calls.append(a.shape) or solve(a, b))
        pairs = sample_duality_pairs("S+", "R+", 3, np.random.default_rng(5), d=2)
        out = duality_sweep(pairs)
        assert calls == [(3, 20, 16, 16)]
        assert len(out["r_grid"]) == 20

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_measure_f_is_the_mirrored_atom_sum(self, seed):
        # measure-backed f against commuting g: conj(Q_r(g, f)) from 2 g(r p_j)
        # at f's atoms, against one resolvent solve per (atom, r)
        grid = (0.0, 0.3, 0.7, 0.95, 0.99)
        for k in range(10):
            f = generate_member("M+", np.random.default_rng(60 + 10 * seed + k), d=2)
            g = generate_member("R+", np.random.default_rng(90 + 10 * seed + k), d=2)
            pencils = np.array(_commuting_per_r(f, g, grid))
            swept = [duality_sweep([(f, g)], (r,))["min_re"] for r in grid]
            assert np.allclose(swept, pencils.real, rtol=1e-13, atol=0.0)
            whole = duality_sweep([(f, g)], grid)
            assert np.isclose(whole["min_re"], pencils.real.min(), rtol=1e-13, atol=0.0)
            assert whole["atoms"] == 0

    def test_measure_f_against_non_commuting_g(self):
        # no pencil reduction holds here, but the atom identity does: Q_r is
        # still the conjugated sum of 2 g(r p_j), and the minimum is >= 0
        grid = (0.2, 0.6, 0.9)
        f = generate_member("M+", np.random.default_rng(5), d=2)
        gs = [g for _, g in sample_duality_pairs("S+", "S+", 20, np.random.default_rng(7))]
        assert not any(is_commuting(g.tuple)[0] for g in gs)
        out = duality_sweep([(f, g) for g in gs], grid)
        assert out["pairs"] == 20 and out["min_re"] >= -1e-9
        g = gs[0]
        expect = [np.conj(2.0 * g.values_at(r * f.points) @ f.weights)
                  for r in grid]
        assert np.isclose(duality_sweep([(f, g)], grid)["min_re"],
                          min(q.real for q in expect), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("kinds", [("O+", "M+"), ("S+", "R+")])
    def test_fewer_trials_are_a_prefix(self, kinds):
        # the members are drawn in order from one stream
        short = list(sample_duality_pairs(*kinds, 50, np.random.default_rng(3), d=2))
        long = list(sample_duality_pairs(*kinds, 200, np.random.default_rng(3), d=2))
        for a, b in zip(short, long[:50], strict=True):
            for x, y in zip(a, b):
                assert_same_member(x, y)

    def test_pairs_are_streamed(self):
        # the sampler yields pairs one at a time and the sweep counts them
        pairs = sample_duality_pairs("S+", "R+", 3, np.random.default_rng(5), d=2)
        assert iter(pairs) is pairs
        assert duality_sweep(pairs)["pairs"] == 3
        assert next(pairs, None) is None

    def test_exact_route_matches_series_route_for_tame_pairs(self):
        rng = np.random.default_rng(19)
        pairs = []
        for k in range(4):
            pts = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            pts = 0.4 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
            mu = AtomicMeasure(pts, rng.uniform(0.5, 1.0, 2), "interior")
            pairs.append((mu, generate_member("R+", np.random.default_rng(20 + k), d=2, n=3)))
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
        pairs = list(sample_duality_pairs(*kinds, 40, np.random.default_rng(seed), d=2))
        assert duality_sweep(pairs) == duality_sweep_per_r(pairs)

    def test_interior_measure_and_negative_f(self):
        mu = AtomicMeasure(np.array([[-0.9, 0.0], [0.5, 0.2]], dtype=complex),
                           np.array([1.0, 0.5]), "interior")
        f = _AffineZ1()
        pairs = [(f, mu)]
        pairs += [(f, generate_member("M+", np.random.default_rng(1500 + k), d=2))
                  for k in range(5)]
        grid = (0.0, 0.3, 0.99, 1.0)
        for subset in (pairs[:1], pairs):
            assert duality_sweep(subset, grid) == duality_sweep_per_r(subset, grid)



def _counting_solve(monkeypatch):
    """Record the shape of every np.linalg.solve matrix stack."""
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b))
    return calls


class TestStackedChunks:
    """Members and datum pairs finished in stacked chunks, against the
    per-member samplers and the per-radius resolvents, compared with ==."""

    @pytest.mark.parametrize("trials", [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 200])
    @pytest.mark.parametrize("kinds", [("O+", "M+"), ("S+", "R+")])
    def test_sampled_pairs_are_the_per_member_draws(self, kinds, trials):
        stacked = list(sample_duality_pairs(*kinds, trials, np.random.default_rng(trials), d=2))
        oracle = list(pairs_per_member(*kinds, trials, np.random.default_rng(trials), d=2))
        assert len(stacked) == len(oracle) == trials
        for a, b in zip(stacked, oracle):
            for x, y in zip(a, b):
                assert_same_member(x, y)

    @pytest.mark.parametrize("kinds", [("O+", "R+"), ("S+", "M+")])
    def test_sampled_pairs_at_d3(self, kinds):
        # at d = 3 the fifth pool slot is an S+ datum, and R+ takes both branches
        trials = SAMPLE_CHUNK + 3
        stacked = sample_duality_pairs(*kinds, trials, np.random.default_rng(9), d=3)
        oracle = pairs_per_member(*kinds, trials, np.random.default_rng(9), d=3)
        for a, b in zip(stacked, oracle, strict=True):
            for x, y in zip(a, b):
                assert_same_member(x, y)

    def test_one_member_samplers(self):
        for seed in range(10):
            for d, n in ((1, 3), (2, 4), (3, 5)):
                for kind in ("M+", "R+", "S+"):
                    assert_same_member(generate_member(kind, np.random.default_rng(seed), d, n),
                                       member_per_member(kind, np.random.default_rng(seed), d, n))
            for d in (2, 3):
                # ten O+ pool members, each of the five slots twice, against
                # pool_member_per_member drawn from the same stream
                stacked = sample_duality_pairs("O+", "M+", 10, np.random.default_rng(seed), d)
                oracle = pairs_per_member("O+", "M+", 10, np.random.default_rng(seed), d)
                for a, b in zip(stacked, oracle, strict=True):
                    for x, y in zip(a, b):
                        assert_same_member(x, y)

    def test_stacked_resolvents_are_the_one_pair_calls(self):
        # one call groups the pairs by (d, n_f, n_g): a sampled chunk, mixed
        # sizes n_f = 3 and n_g = 4, and d = 3
        rng = np.random.default_rng(31)
        pairs = list(sample_duality_pairs("S+", "R+", SAMPLE_CHUNK, rng, d=2))
        for d, nf, ng in ((2, 3, 4), (3, 4, 2), (2, 3, 4)):
            pairs.append((generate_member("S+", rng, d, nf), generate_member("R+", rng, d, ng)))
        stacked = qr_exact_vs_commuting_many(pairs, R_GRID)
        assert stacked.shape == (len(pairs), len(R_GRID))
        for q, (f, g) in zip(stacked, pairs):
            assert np.array_equal(q, qr_exact_vs_commuting_many([(f, g)], R_GRID)[0])
            assert q.tolist() == _commuting_per_r(f, g, R_GRID)

    @pytest.mark.parametrize("radii, trials, chunks", [(20, 30, [12, 12, 6]), (1024, 3, [1, 1, 1])])
    def test_chunks_are_bounded_in_bytes(self, monkeypatch, radii, trials, chunks):
        # 12 pairs of 20 (16 x 16) pencils fit 1 MiB; one pair of 1024 is
        # over it, so it is solved alone
        grid = tuple(np.linspace(0.0, 0.99, radii).tolist())
        pairs = list(sample_duality_pairs("S+", "R+", trials, np.random.default_rng(8), d=2))
        calls = _counting_solve(monkeypatch)
        out = duality_sweep(iter(pairs), grid)
        assert [shape[0] for shape in calls] == chunks
        assert all(shape[1:] == (radii, 16, 16) for shape in calls)
        assert all(16 * math.prod(shape) <= CHUNK_BYTES or shape[0] == 1 for shape in calls)
        monkeypatch.undo()
        assert out == duality_sweep_per_r(pairs, grid)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_mixed_chunk_keeps_pair_order(self, seed):
        # measure pairs pass straight through unless a datum pair waits for
        # its chunk; the witness and the atom count keep the pair order
        pairs = list(sample_duality_pairs("O+", "R+", 3 * SAMPLE_CHUNK, np.random.default_rng(seed)))
        pairs = [(f, g) for f, g in pairs if not isinstance(f, ShiftedBoundaryKernel)]
        pairs += list(sample_duality_pairs("O+", "M+", 10, np.random.default_rng(seed)))
        assert duality_sweep(pairs) == sweep_pair_by_pair(pairs)

    def test_measure_pair_ends_a_run_and_goes_out_at_once(self, monkeypatch):
        # [D, D, M, D, D]: each run of datum pairs is one stacked solve, and
        # the measure pair's table comes out before the second run is solved
        data = list(sample_duality_pairs("S+", "R+", 4, np.random.default_rng(9)))
        rng = np.random.default_rng(10)
        mu = (generate_member("M+", rng), generate_member("M+", rng))
        pairs = data[:2] + [mu] + data[2:]
        calls = _counting_solve(monkeypatch)
        seen = [(table.shape, len(calls)) for table in classes._pair_tables(iter(pairs), R_GRID)]
        assert calls == [(2, len(R_GRID), 16, 16)] * 2
        R = len(R_GRID)
        assert seen == [((R, 1), 1), ((R, 1), 1), ((R, 1 + len(mu[1].weights)), 1),
                        ((R, 1), 2), ((R, 1), 2)]
        monkeypatch.undo()
        assert duality_sweep(pairs) == duality_sweep_per_r(pairs) == sweep_pair_by_pair(pairs)

    def test_mismatched_dimensions_raise_before_any_solve(self, monkeypatch):
        # a d = 3 f against a d = 2 g used to pair T_f1, T_f2 only (Q = 5.504
        # here), and a measure of another d failed inside numpy
        calls = _counting_solve(monkeypatch)
        f = generate_member("S+", np.random.default_rng(1), d=3)
        g = generate_member("R+", np.random.default_rng(2), d=2)
        mu = generate_member("M+", np.random.default_rng(3), d=3)
        f2 = generate_member("S+", np.random.default_rng(4), d=2)
        for call in (lambda: qr_exact_vs_commuting_many([(f, g)], R_GRID),
                     lambda: duality_sweep([(f, g)]),
                     lambda: duality_sweep([(f2, mu)]),
                     lambda: duality_sweep([(mu, g)])):
            with pytest.raises(DimensionMismatchError, match=r"f has d = \d and g has d = \d"):
                call()
        with pytest.raises(DimensionMismatchError, match="f has d = 3 and g has d = 2"):
            duality_sweep([(f2, g), (f, g)])
        assert calls == []

    def test_non_commuting_g_in_a_stack_refused_before_any_solve(self, monkeypatch):
        calls = _counting_solve(monkeypatch)
        good = next(sample_duality_pairs("S+", "R+", 1, np.random.default_rng(2)))
        bad = next(sample_duality_pairs("S+", "S+", 1, np.random.default_rng(7)))
        with pytest.raises(NonCommutingError):
            qr_exact_vs_commuting_many([good, good, bad], R_GRID)
        assert calls == []


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
                           herglotz_of_measure(mu, 7).coeffs)

    def test_boundary_kernel_is_point_mass_transform(self):
        rng = np.random.default_rng(24)
        for d in (1, 2, 3, 4):
            zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            zeta /= np.linalg.norm(zeta)
            pts = random_pointset(d, 500, radius_cap=0.999, rng=np.random.default_rng(d))
            h = boundary_kernel(zeta)
            assert h.d == d and h.support == "boundary"
            assert np.array_equal(h.points, zeta[None, :])
            assert np.array_equal(h.weights, np.ones(1))
            ip = pts @ np.conj(zeta)
            assert np.allclose(h.values_at(pts), (1.0 + ip) / (1.0 - ip),
                               rtol=1e-12, atol=0.0)
        # a point at the pole is clamped to a large finite value
        vals = boundary_kernel(zeta).values_at(np.vstack([zeta * (1.0 - 1e-14), 0.5 * zeta]))
        assert np.isfinite(vals).all() and abs(vals[0]) > 1e11
        with pytest.raises(ValueError):
            boundary_kernel(0.5 * zeta)

    def test_matches_word_state_limit(self):
        from herglotzlab.fock import cuntz_state_herglotz
        rng = np.random.default_rng(21)
        zeta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        zeta /= np.linalg.norm(zeta)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = z / np.linalg.norm(z) * 0.55
        exact = boundary_kernel(zeta).values_at(z[None, :])[0]
        assert abs(cuntz_state_herglotz(zeta, z, 300) - exact) < 1e-10

    def test_rejects_interior_point(self):
        with pytest.raises(ValueError):
            extreme_h(np.array([0.5, 0.0]), 4)


class TestSchwarzProbe:
    def test_coordinate_passes(self):
        g = make_series(2, 4, {(1, 0): 1.0})
        rep = schwarz_probe(g, budget=80, rng=np.random.default_rng(0))
        assert rep.verdict == "pass"

    def test_off_slice_perturbation_fails(self):
        g = make_series(2, 4, {(1, 0): 1.0, (0, 2): 0.5})
        rep = schwarz_probe(g, budget=200, rng=np.random.default_rng(0))
        assert rep.verdict == "fail"
        assert rep.min_eig < 0

    def test_on_slice_perturbation_fails(self):
        g = make_series(2, 4, {(1, 0): 1.0, (2, 0): 0.5})
        rep = schwarz_probe(g, budget=200, rng=np.random.default_rng(0))
        assert rep.verdict == "fail"
        assert 1 <= rep.sets_tried <= 200 and rep.points == len(rep.witness)

    @pytest.mark.parametrize("budget,gram", [(5, 1), (80, 25)])
    def test_exhausted_budget_keeps_the_gram_size(self, budget, gram):
        # points is the Gram size of the last set tested, as in every kernel
        # report; the sets tried are reported on their own.  At d = 2 the
        # first 9 sets are single disk points and the 70th on are random
        g = make_series(2, 4, {(1, 0): 1.0})
        rep = schwarz_probe(g, np.random.default_rng(0), budget=budget)
        assert rep.verdict == "pass" and rep.witness is None
        assert rep.kernel == "schur-rigidity (budget exhausted)"
        assert rep.points == gram and rep.sets_tried == budget

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            schwarz_probe(make_series(2, 3, {(1, 0): 1.0}), np.random.default_rng(0), budget=0)
        with pytest.raises(PreconditionError):
            schwarz_probe(make_series(2, 3, {(1, 0): 0.5}), np.random.default_rng(0))
        with pytest.raises(PreconditionError):
            schwarz_probe(make_series(2, 3, {(0, 0): 0.1, (1, 0): 1.0}), np.random.default_rng(0))


class TestChainEvidence:
    def test_measure_sweep_failure_implies_pointwise_failure(self):
        # consistency of the dual-cone direction: a function the measure
        # sweep rejects must also have negative real part at some point
        class Affine:
            d = 2

            def values_at(self, pts):
                return 1.0 + 3.0 * np.asarray(pts)[:, 0]

        f = Affine()
        pairs = [(f, generate_member("M+", np.random.default_rng(1500 + k), d=2))
                 for k in range(20)]
        swept = duality_sweep(pairs)
        pts = random_pointset(2, 400, np.random.default_rng(1600))
        pointwise_min = float(f.values_at(pts).real.min())
        assert swept["min_re"] < 0
        assert pointwise_min < 0

    def test_measure_sweep_witness_is_worst_boundary_atom(self):
        # the sweep tests each boundary atom as a unit point mass: for
        # f = 1 + 3 z1 the witness is the atom with the least Re p_1, at the
        # largest r, and the sweep evaluates f once per pair, on all r
        f = _AffineZ1()
        pairs = [(f, generate_member("M+", np.random.default_rng(1500 + k), d=2))
                 for k in range(20)]
        swept = duality_sweep(pairs)
        argmin = swept["argmin"]
        assert argmin == {"pair": 13, "atom": 6, "r": 0.99,
                          "value": swept["min_re"]}
        atoms = [(k, j, p) for k, (_, g) in enumerate(pairs)
                 for j, p in enumerate(g.points)]
        k, j, p = min(atoms, key=lambda a: a[2][0].real)
        assert (k, j) == (13, 6)
        assert abs(swept["min_re"] - 2.0 * (1.0 + 3.0 * 0.99 * p[0].real)) < 1e-12
        assert swept["atoms"] == len(atoms)
        assert swept["pairs"] == 20
        assert f.calls == swept["pairs"]

    def test_interior_measure_pair_reports_whole_pairing(self):
        # interior atoms are not point masses of M+, so only the whole
        # pairing 2 sum_j w_j f(r p_j) = 2 (2 - 1.2 r) enters the minimum,
        # although the atom at -0.9 alone would pair negative
        mu = AtomicMeasure(np.array([[-0.9, 0.0], [0.5, 0.2]], dtype=complex),
                           np.array([1.0, 1.0]), "interior")
        swept = duality_sweep([(_AffineZ1(), mu)])
        assert swept["argmin"]["atom"] is None
        assert swept["argmin"]["pair"] == 0 and swept["argmin"]["r"] == 0.99
        assert abs(swept["min_re"] - 2.0 * (2.0 - 1.2 * 0.99)) < 1e-12
        assert swept["atoms"] == 0

    @staticmethod
    def _witness_scan(pairs, r_grid):
        """The witness by brute force: pairs in order, then r, then the
        whole pairing before atoms 0, 1, ...; a value replaces the running
        minimum only when strictly smaller."""
        min_re, argmin = math.inf, None
        for k, (f, g) in enumerate(pairs):
            for r in r_grid:
                atoms = [2.0 * f.values_at(r * p[None, :])[0] for p in g.points]
                whole = sum(w * q for w, q in zip(g.weights, atoms))
                for atom, q in [(None, whole)] + list(enumerate(atoms)):
                    if q.real < min_re:
                        min_re = float(q.real)
                        argmin = {"pair": k, "atom": atom, "r": r, "value": min_re}
        return min_re, argmin

    def test_witness_ties_go_to_the_whole_pairing(self):
        # one boundary atom of weight 1: the whole pairing is its atom bit
        # for bit, and the tie goes to the whole pairing, which comes first
        mu = AtomicMeasure(np.array([[-1.0, 0.0]], dtype=complex), np.ones(1), "boundary")
        grid = (0.2, 0.6, 0.99)
        pairs = [(_AffineZ1(), mu), (_AffineZ1(), mu)]
        swept = duality_sweep(pairs, grid)
        assert (swept["min_re"], swept["argmin"]) == self._witness_scan(pairs, grid)
        assert swept["argmin"] == {"pair": 0, "atom": None, "r": 0.99,
                                   "value": 2.0 * (1.0 - 3.0 * 0.99)}

    def test_witness_ties_between_atoms_go_to_the_first(self):
        # two equal atoms whose whole pairing (weights 1/4 each: half an
        # atom's value, which is negative) is larger: atom 0 is the witness
        mu = AtomicMeasure(np.array([[-1.0, 0.0], [-1.0, 0.0]], dtype=complex),
                           np.array([0.25, 0.25]), "boundary")
        grid = (0.2, 0.6, 0.99)
        pairs = [(_AffineZ1(), mu), (_AffineZ1(), mu)]
        swept = duality_sweep(pairs, grid)
        assert (swept["min_re"], swept["argmin"]) == self._witness_scan(pairs, grid)
        assert swept["argmin"]["pair"] == 0 and swept["argmin"]["atom"] == 0
        assert swept["argmin"]["r"] == 0.99

    def test_generated_members_have_nonnegative_real_part(self):
        rng = np.random.default_rng(22)
        for k in range(20):
            kind = ("M+", "R+", "S+")[k % 3]
            m = generate_member(kind, np.random.default_rng(1100 + k), d=2, n=4)
            pts = random_pointset(2, 60, np.random.default_rng(1200 + k))
            assert m.values_at(pts).real.min() >= -1e-10

    def test_rplus_members_pass_splus_test(self):
        for k in range(15):
            m = generate_member("R+", np.random.default_rng(1300 + k), d=2, n=4)
            rep = splus_test(m, random_pointset(2, 25, np.random.default_rng(1400 + k)))
            assert rep.verdict == "pass"
