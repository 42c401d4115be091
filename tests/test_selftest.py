"""Documented example values, one named check each.

Each check is a predicate over a small closed-form case across the modules;
the test id is the check's name, so a failure names the example it broke.
"""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import aslinearoperator

from herglotzlab.classes import (
    BoundaryKernel,
    PointSet,
    ShiftedBoundaryKernel,
    boundary_biased_pointset,
    extreme_h,
    generate_member,
    gram_min_eig,
    kT_test,
    random_pointset,
    schur_test,
    schwarz_probe,
    splus_test,
)
from herglotzlab.fock import (
    creation_operators,
    cuntz_state_herglotz,
    cuntz_state_word,
    davidson_pitts_sweep,
    operator_norm,
)
from herglotzlab.growth import growth_profile, hp_radial_mean, sphere_sample
from herglotzlab.optuple import (
    HerglotzDatum,
    OperatorTuple,
    commuting_calculus,
    herglotz_kernel,
    herglotz_taylor,
    herglotz_transform,
    is_commuting,
    is_row_contraction,
    is_weak_row_contraction,
)
from herglotzlab.pairing import (
    AtomicMeasure,
    QuadratureSpec,
    h2d_inner_integral,
    h2d_inner_series,
    herglotz_of_measure,
    pairing_vs_measure_check,
    qr_pair,
)
from herglotzlab.series import (
    TruncatedSeries,
    cayley,
    compose_univariate,
    enumerate_multiindices,
    index_of,
    weight,
)

from test_fock import dense_shifts
from test_optuple import E11, E12, E21, ZERO2, sym_monomial, sym_poly
from test_series import make_series


def _checks():
    # series ---------------------------------------------------------------
    yield ("enumerate d1 N2",
           lambda: enumerate_multiindices(1, 2) == ((0,), (1,), (2,)))
    yield ("enumerate d2 N1 graded-lex",
           lambda: enumerate_multiindices(2, 1) == ((0, 0), (1, 0), (0, 1)))
    yield ("enumerate d2 N2 count",
           lambda: len(enumerate_multiindices(2, 2)) == 6)
    yield ("weight (1,1)", lambda: weight((1, 1)) == 2)
    yield ("weight (3,0)", lambda: weight((3, 0)) == 1)
    yield ("weight (2,1)", lambda: weight((2, 1)) == 3)

    def mul_check():
        one_plus = make_series(1, 2, {(0,): 1, (1,): 1})
        one_minus = make_series(1, 2, {(0,): 1, (1,): -1})
        prod = one_plus.multiply(one_minus)
        return (abs(prod.coeff((0,)) - 1) < 1e-15
                and abs(prod.coeff((1,))) < 1e-15
                and abs(prod.coeff((2,)) + 1) < 1e-15)
    yield ("(1+z)(1-z) = 1-z^2", mul_check)

    def add_check():
        z1 = TruncatedSeries.coordinate(2, 3, 0)
        z2 = TruncatedSeries.coordinate(2, 3, 1)
        s = z1.add(z2)
        return abs(s.coeff((1, 0)) - 1) < 1e-15 and abs(s.coeff((0, 1)) - 1) < 1e-15
    yield ("add(z1, z2)", add_check)

    def telescope():
        f = make_series(1, 3, {(k,): 1 for k in range(4)})
        g = make_series(1, 3, {(0,): 1, (1,): -1})
        prod = f.multiply(g)
        return abs(prod.coeff((0,)) - 1) < 1e-15 and all(
            abs(prod.coeff((k,))) < 1e-15 for k in (1, 2, 3))
    yield ("telescoping geometric product", telescope)

    def dilate_checks():
        f = TruncatedSeries.monomial(2, 4, (1, 1))
        return (abs(f.dilate(0.5).coeff((1, 1)) - 0.25) < 1e-15
                and np.allclose(f.dilate(1.0).coeffs, f.coeffs))
    yield ("dilate homogeneous and identity", dilate_checks)

    def reflect_checks():
        f = TruncatedSeries.monomial(2, 2, (1, 0), 1j)
        return (abs(f.reflect().coeff((1, 0)) + 1j) < 1e-15
                and np.allclose(f.reflect().reflect().coeffs, f.coeffs))
    yield ("reflect involution", reflect_checks)

    def eval_checks():
        f = make_series(2, 2, {(0, 0): 1, (1, 0): 1})
        return (abs(f.evaluate([0.5, 0.0]) - 1.5) < 1e-14
                and abs(f.evaluate([0.0, 0.0]) - 1.0) < 1e-15)
    yield ("evaluate 1+z1", eval_checks)

    def radial_checks():
        f = TruncatedSeries.monomial(2, 3, (1, 1))
        g = TruncatedSeries.constant(2, 3, 5.0)
        return (abs(f.radial_derivative().coeff((1, 1)) - 2.0) < 1e-15
                and np.allclose(g.radial_derivative().coeffs, 0.0))
    yield ("radial derivative on monomials", radial_checks)

    def cayley_zero():
        phi = TruncatedSeries.zero(2, 4)
        f = cayley(phi, "schur_to_herglotz")
        return abs(f.constant_term - 1.0) < 1e-15 and np.allclose(f.coeffs[1:], 0.0)
    yield ("cayley of 0 is 1", cayley_zero)

    def cayley_hzeta():
        zeta = np.array([1.0, 0.0], dtype=complex)
        phi = make_series(2, 6, {(1, 0): 1.0})
        f = cayley(phi, "schur_to_herglotz")
        target = extreme_h(zeta, 6)
        return np.allclose(f.coeffs, target.coeffs, atol=1e-12)
    yield ("cayley of <z,e1> is the boundary kernel", cayley_hzeta)

    def compose_checks():
        ident = make_series(1, 6, {(1,): 1.0})
        phi = make_series(2, 6, {(1, 0): 0.5, (0, 1): 0.5})
        h = make_series(1, 6, {(k,): (1.0 if k == 0 else 2.0) for k in range(7)})
        direct = cayley(phi, "schur_to_herglotz")
        composed = compose_univariate(h, phi)
        return (np.allclose(compose_univariate(ident, phi).coeffs, phi.coeffs)
                and np.allclose(composed.coeffs, direct.coeffs, atol=1e-12))
    yield ("composition against direct transform", compose_checks)

    # pairing ----------------------------------------------------------------
    one2 = TruncatedSeries.constant(2, 4, 1.0)
    z1 = TruncatedSeries.coordinate(2, 4, 0)
    z1z2 = TruncatedSeries.monomial(2, 4, (1, 1))
    yield ("Q_r(1,1) = 2 doubled constant",
           lambda: abs(qr_pair(one2, one2, 0.37) - 2.0) < 1e-14)
    yield ("Q_r(z1,z1) = r",
           lambda: abs(qr_pair(z1, z1, 0.6) - 0.6) < 1e-14)
    yield ("Q_r(z1z2,z1z2) = r^2/2",
           lambda: abs(qr_pair(z1z2, z1z2, 0.9) - 0.405) < 1e-14)
    yield ("<z1z2,z1z2> = 1/2",
           lambda: abs(h2d_inner_series(z1z2, z1z2) - 0.5) < 1e-15)
    yield ("<1,1> = 1",
           lambda: abs(h2d_inner_series(one2, one2) - 1.0) < 1e-15)
    yield ("orthogonal monomials",
           lambda: abs(h2d_inner_series(
               TruncatedSeries.monomial(2, 4, (2, 0)), z1z2)) < 1e-15)

    def integral_const():
        est = h2d_inner_integral(one2, one2, QuadratureSpec(16, 64, 3))
        return abs(est.value - 1.0) < 1e-12
    yield ("integral form exact on constants", integral_const)

    def measure_checks():
        zeta = np.array([[0.6 + 0.8j, 0.0]])
        mu = AtomicMeasure(zeta, np.array([1.0]), "boundary")
        g = herglotz_of_measure(mu, 0.0, 6)
        target = extreme_h(zeta[0], 6)
        empty = herglotz_of_measure(
            AtomicMeasure(np.zeros((0, 2)), np.zeros(0), "boundary"), 2.5, 4)
        return (np.allclose(g.coeffs, target.coeffs)
                and abs(empty.constant_term - 2.5j) < 1e-15
                and np.allclose(empty.coeffs[1:], 0.0))
    yield ("measure transform matches boundary kernel / empty measure",
           measure_checks)

    def reproducing_point():
        w0 = np.array([[0.3 - 0.2j, 0.1j]])
        mu = AtomicMeasure(w0, np.array([1.0]), "interior")
        rng = np.random.default_rng(5)
        c = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        f = TruncatedSeries(2, 4, c)
        g = herglotz_of_measure(mu, 0.0, 4, mode="half")
        lhs = qr_pair(f, g, 1.0)
        return abs(lhs - f.evaluate(w0[0])) < 1e-12
    yield ("half-kernel reproduces point values", reproducing_point)

    def pvm_checks():
        zeta = np.array([[1.0, 0.0]])
        mu = AtomicMeasure(zeta, np.array([1.0]), "boundary")
        r1 = pairing_vs_measure_check(one2, mu, 0.5)
        r2 = pairing_vs_measure_check(z1, mu, 0.5)
        return r1 < 1e-14 and r2 < 1e-12
    yield ("pairing vs measure residuals", pvm_checks)

    # optuple ----------------------------------------------------------------
    T0 = OperatorTuple(np.array([ZERO2, ZERO2]))
    T_gap = OperatorTuple(np.array([E11, E12]))
    yield ("zero tuple is a row contraction",
           lambda: is_row_contraction(T0) == (True, 1.0))
    yield ("(E11,E12) is not a row contraction",
           lambda: not is_row_contraction(T_gap)[0]
           and abs(is_row_contraction(T_gap)[1] + 1.0) < 1e-12)

    def scalar_equality():
        T = OperatorTuple(np.array([[[2 ** -0.5]], [[2 ** -0.5]]], dtype=complex))
        ok, eig = is_row_contraction(T)
        return ok and abs(eig) < 1e-12
    yield ("scalar tuple equality case", scalar_equality)

    def weak_checks():
        rep = is_weak_row_contraction(T_gap, samples=200, seed=1)
        bad = OperatorTuple(np.array([[[1.0]], [[1.0]]], dtype=complex))
        rep_bad = is_weak_row_contraction(bad, samples=200, seed=1)
        return (rep.is_weak and abs(rep.sup_estimate - 1.0) < 1e-9
                and not rep_bad.is_weak
                and abs(rep_bad.sup_estimate - math.sqrt(2)) < 1e-6)
    yield ("weak contraction certificates", weak_checks)

    def commuting_checks():
        diag = OperatorTuple(np.array([np.diag([0.1, 0.2]), np.diag([0.3, 0.4])]))
        bad = OperatorTuple(np.array([E12, E21]))
        single = OperatorTuple(np.array([E12]))
        return (is_commuting(diag)[0] and not is_commuting(bad)[0]
                and is_commuting(single)[0])
    yield ("commutation predicate", commuting_checks)

    def kernel_checks():
        H0 = herglotz_kernel([0.0, 0.0], T_gap)
        T1d = OperatorTuple(np.array([[[1.0]]], dtype=complex))
        H = herglotz_kernel([0.5], T1d)
        return np.allclose(H0, np.eye(2)) and abs(H[0, 0] - 3.0) < 1e-12
    yield ("kernel at 0 and scalar kernel", kernel_checks)

    def transform_checks():
        D0 = HerglotzDatum(T0, np.array([1.0, 0.0]), 0.0)
        zeta = np.array([0.6, 0.8j])
        zeta /= np.linalg.norm(zeta)
        Tz = OperatorTuple(np.conj(zeta).reshape(2, 1, 1))
        Dz = HerglotzDatum(Tz, np.array([1.0]), 0.0)
        z = np.array([0.1, 0.2 - 0.1j])
        hz = extreme_h(zeta, 10)
        nil = HerglotzDatum(OperatorTuple(np.array([E12, ZERO2])),
                            np.array([2 ** -0.5, 2 ** -0.5]), 0.0)
        return (abs(herglotz_transform(D0, [0.3, 0.2]) - 1.0) < 1e-14
                and abs(herglotz_transform(Dz, z) - hz.evaluate(z)) < 1e-3
                and abs(herglotz_transform(nil, z) - (1 + z[0])) < 1e-13)
    yield ("transform special cases", transform_checks)

    def taylor_checks():
        D0 = HerglotzDatum(T0, np.array([1.0, 1j]), 0.7)
        s = herglotz_taylor(D0, 4)
        zeta = np.array([0.6, 0.8], dtype=complex)
        Dz = HerglotzDatum(OperatorTuple(np.conj(zeta).reshape(2, 1, 1)),
                           np.array([1.0]), 0.0)
        return (abs(s.constant_term - (2.0 + 0.7j)) < 1e-14
                and np.allclose(s.coeffs[1:], 0.0)
                and np.allclose(herglotz_taylor(Dz, 6).coeffs,
                                extreme_h(zeta, 6).coeffs))
    yield ("transform coefficients", taylor_checks)

    def sym_checks():
        T = OperatorTuple(np.array([E11, E12]))
        m11 = sym_monomial((1, 1), T)
        expect = (E11 @ E12 + E12 @ E11) / 2.0
        comm = OperatorTuple(np.array([np.diag([0.1, 0.4]), np.diag([0.2, 0.3])]))
        plain = np.diag([0.1 ** 2 * 0.2, 0.4 ** 2 * 0.3])
        return (np.allclose(m11, expect)
                and np.allclose(sym_monomial((2, 0), T), E11 @ E11)
                and np.allclose(sym_monomial((2, 1), comm), plain))
    yield ("symmetrized monomials", sym_checks)

    def sympoly_checks():
        p = make_series(2, 3, {(1, 0): 1.0, (1, 1): 1.0})
        T = OperatorTuple(np.array([E11, E12]))
        expect = E11 + (E11 @ E12 + E12 @ E11) / 2.0
        const = TruncatedSeries.constant(2, 2, 3.0 - 1j)
        return (np.allclose(sym_poly(p, T), expect)
                and np.allclose(sym_poly(const, T), (3.0 - 1j) * np.eye(2)))
    yield ("symmetrized polynomial calculus", sympoly_checks)

    def calculus_checks():
        p = make_series(2, 3, {(1, 0): 1.0, (1, 1): 1.0})
        comm = OperatorTuple(np.array([np.diag([0.1, 0.4]), np.diag([0.2, 0.3])]))
        direct = np.diag([0.1 + 0.1 * 0.2, 0.4 + 0.4 * 0.3])
        z1only = make_series(2, 1, {(1, 0): 1.0})
        return (np.allclose(commuting_calculus(p, comm), direct)
                and np.allclose(commuting_calculus(z1only, comm), comm.matrices[0])
                and np.allclose(commuting_calculus(p, comm), sym_poly(p, comm)))
    yield ("commuting calculus", calculus_checks)

    # fock --------------------------------------------------------------------
    def creation_checks():
        L1, L2 = creation_operators(2, 3)
        n_prev = 2 ** 3 - 1
        eye_block = np.zeros((15, 15))
        eye_block[np.arange(n_prev), np.arange(n_prev)] = 1.0
        v0 = np.zeros(15)
        v0[0] = 1.0
        return (np.allclose((L1 @ v0), np.eye(15)[1])
                and np.allclose((L1.conj().T @ L1).toarray(), eye_block)
                and np.allclose((L1.conj().T @ L2).toarray(), 0.0))
    yield ("creation operators: ranges and relations", creation_checks)

    def range_sum_check():
        L1, L2 = creation_operators(2, 3)
        S = (L1 @ L1.conj().T + L2 @ L2.conj().T).toarray()
        expect = np.eye(15)
        expect[0, 0] = 0.0
        return np.allclose(S, expect)
    yield ("range projections sum to I - vacuum", range_sum_check)

    def dshift_checks():
        S1 = dense_shifts(1, 4)[0]
        vals = S1[np.nonzero(S1)]
        S = dense_shifts(2, 4)
        entry = S[0][index_of(2, 4, (1, 1)), index_of(2, 4, (0, 1))]
        norm_ok = all(np.linalg.norm(Sj, 2) <= 1 + 1e-12 for Sj in S)
        return (np.allclose(vals, 1.0) and abs(entry - 2 ** -0.5) < 1e-15
                and norm_ok)
    yield ("coordinate shifts: weights and contractivity", dshift_checks)

    def norm_checks():
        rng = np.random.default_rng(7)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        A = np.outer(u, np.conj(v))
        res = operator_norm(aslinearoperator(A))
        expect = np.linalg.norm(u) * np.linalg.norm(v)
        return (abs(operator_norm(aslinearoperator(np.eye(5))).value - 1.0) < 1e-12
                and abs(res.value - expect) < 1e-10)
    yield ("operator norms: identity and rank one", norm_checks)

    def dp_small():
        out = davidson_pitts_sweep([8], N_sym=8)
        word = out["rows"][0]["norm_sym_calculus"]
        return (out["norm_sym_shift"] < math.sqrt(2.0) < word
                and word - out["norm_sym_shift"] > 0.1)
    yield ("norm separation at small truncation", dp_small)

    def cuntz_checks():
        zeta = np.array([0.6, 0.8j])
        zeta /= np.linalg.norm(zeta)
        w1 = cuntz_state_word(zeta, (1,), ())
        wI = cuntz_state_word(zeta, (), ())
        w12 = cuntz_state_word(zeta, (1,), (2,))
        return (abs(w1 - zeta[0]) < 1e-15 and abs(wI - 1.0) < 1e-15
                and abs(w12 - zeta[0] * np.conj(zeta[1])) < 1e-15)
    yield ("boundary state on words", cuntz_checks)

    def cuntz_kernel_checks():
        e1 = np.array([1.0, 0.0], dtype=complex)
        r = 0.5
        val = cuntz_state_herglotz(e1, [r, 0.0], 200)
        return (abs(cuntz_state_herglotz(e1, [0.0, 0.0], 5) - 1.0) < 1e-15
                and abs(val - (1 + r) / (1 - r)) < 1e-12)
    yield ("boundary state transform partial sums", cuntz_kernel_checks)

    # classes -------------------------------------------------------------------
    def gram_checks():
        pts = random_pointset(2, 12, seed=3)
        const = gram_min_eig(lambda z, w: 1.0 + 0.0j, pts, "const")
        fant = gram_min_eig(lambda z, w: 1.0 / (1.0 - np.vdot(w, z)), pts, "fantappie")
        neg = gram_min_eig(lambda z, w: -1.0 + 0.0j, pts, "neg")
        return (const.verdict == "pass" and fant.verdict == "pass"
                and neg.verdict == "fail" and neg.witness is not None)
    yield ("gram reports", gram_checks)

    def splus_checks():
        pts = random_pointset(2, 20, seed=11)
        one = splus_test(TruncatedSeries.constant(2, 4, 1.0), pts)
        zeta = np.array([0.8, 0.6], dtype=complex)
        h = splus_test(BoundaryKernel(zeta), pts)
        # Re of (1+2z1)/(1-2z1) turns negative past z1 = -1/2
        bad = lambda z: (1.0 + 2.0 * z[0]) / (1.0 - 2.0 * z[0])
        rep_bad = splus_test(bad, PointSet(np.array([[-0.6 + 0j, 0.0 + 0j]]), 0, 0.95))
        return (one.verdict == "pass" and h.verdict == "pass"
                and rep_bad.verdict == "fail" and rep_bad.witness is not None)
    yield ("positive-class kernel tests", splus_checks)

    def schur_checks():
        pts = random_pointset(2, 20, seed=13)
        zero = schur_test(TruncatedSeries.zero(2, 4), pts)
        coord = schur_test(TruncatedSeries.coordinate(2, 4, 0), pts)
        amplified = schur_test(make_series(2, 2, {(1, 0): 1.1}),
                               PointSet(np.array([[0.95, 0.0]]), 0, 0.95))
        return (zero.verdict == "pass" and coord.verdict == "pass"
                and amplified.verdict == "fail")
    yield ("schur kernel tests", schur_checks)

    def kt_checks():
        pts = random_pointset(2, 15, seed=17)
        zero = kT_test(OperatorTuple(np.array([ZERO2, ZERO2])), pts)
        weak = kT_test(OperatorTuple(np.array([E11, E12])), pts)
        bad = kT_test(OperatorTuple(np.array([[[1.2]], [[0.0]]], dtype=complex)),
                      boundary_biased_pointset(2, 15, seed=19))
        return (zero.verdict == "pass" and weak.verdict == "pass"
                and bad.verdict == "fail")
    yield ("operator kernel tests", kt_checks)

    def member_checks():
        nil = HerglotzDatum(OperatorTuple(np.array([E12, ZERO2])),
                            np.array([2 ** -0.5, 2 ** -0.5]), 0.0)
        s = herglotz_taylor(nil, 4)
        member = generate_member("S+", 23, d=2, n=4)
        pts = random_pointset(2, 25, seed=29)
        rep = splus_test(member.evaluator, pts)
        return (abs(s.coeff((1, 0)) - 1.0) < 1e-14 and rep.verdict == "pass")
    yield ("generated members pass necessary tests", member_checks)

    def extreme_checks():
        zeta = np.array([1.0, 0.0], dtype=complex)
        h = extreme_h(zeta, 6)
        slice_ok = all(abs(h.coeff((k, 0)) - 2.0) < 1e-15 for k in range(1, 7))
        mu = AtomicMeasure(zeta[None, :], np.array([1.0]), "boundary")
        same = np.allclose(herglotz_of_measure(mu, 0.0, 6).coeffs, h.coeffs)
        z = np.array([0.45, 0.1j])
        lim = cuntz_state_herglotz(zeta, z, 300)
        exact = BoundaryKernel(zeta).values_at(z[None, :])[0]
        return slice_ok and same and abs(lim - exact) < 1e-10
    yield ("three routes to the boundary kernel agree", extreme_checks)

    def schwarz_checks():
        good = make_series(2, 4, {(1, 0): 1.0})
        rep_good = schwarz_probe(good, budget=60, seed=5)
        probe = make_series(2, 4, {(1, 0): 1.0, (0, 2): 0.5})
        rep_bad = schwarz_probe(probe, budget=200, seed=5)
        slice_bad = make_series(2, 4, {(1, 0): 1.0, (2, 0): 0.5})
        rep_slice = schwarz_probe(slice_bad, budget=200, seed=5)
        return (rep_good.verdict == "pass" and rep_bad.verdict == "fail"
                and rep_slice.verdict == "fail")
    yield ("rigidity probe", schwarz_checks)

    def duality_trivial():
        one = TruncatedSeries.constant(2, 4, 1.0)
        q = qr_pair(one, one, 0.5)
        zeta = np.array([0.6, 0.8], dtype=complex)
        mu = AtomicMeasure(zeta[None, :], np.array([1.0]), "boundary")
        g = herglotz_of_measure(mu, 0.0, 8)
        h = extreme_h(zeta, 8)
        vals = [qr_pair(h, g, r).real for r in (0.1, 0.3, 0.5)]
        return abs(q - 2.0) < 1e-14 and all(v > 0 for v in vals)
    yield ("pairing positivity spot checks", duality_trivial)

    # growth ---------------------------------------------------------------------
    def sphere_checks():
        pts = sphere_sample(3, 2000, seed=31)
        norms = np.linalg.norm(pts, axis=1)
        mod = np.abs(sphere_sample(1, 500, seed=32))
        return np.max(np.abs(norms - 1.0)) < 1e-14 and np.max(np.abs(mod - 1.0)) < 1e-14
    yield ("sphere samples are unit vectors", sphere_checks)

    def growth_checks():
        const = TruncatedSeries.constant(2, 2, 1.0)
        m, e = hp_radial_mean(const, 1.0, 0.5, n=2000, seed=33)
        prof = growth_profile(const, 2.0, (0.3, 0.6, 0.9), n=2000, seed=34)
        return abs(m - 1.0) < 1e-13 and e < 1e-13 and prof.verdict == "bounded"
    yield ("flat growth profiles", growth_checks)

    def opool_spot():
        f = ShiftedBoundaryKernel()
        pts = random_pointset(2, 400, seed=37).points
        return float(f.values_at(pts).real.min()) > -1e-12
    yield ("shifted boundary kernel stays positive", opool_spot)


CHECKS = list(_checks())


@pytest.mark.parametrize("check", [check for _, check in CHECKS],
                         ids=[name for name, _ in CHECKS])
def test_check(check):
    assert check()
