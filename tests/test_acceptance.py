"""Acceptance gate: every release-blocking criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline); the
assertions carry the same tolerances as the printed verdicts.
"""

import math
import time

import numpy as np

from herglotzlab.classes import (
    boundary_kernel,
    duality_sweep,
    extreme_h,
    generate_member,
    kT_test,
    random_pointset,
    sample_duality_pairs,
    schwarz_probe,
    splus_test,
)
from herglotzlab.fock import cuntz_state_herglotz, davidson_pitts_sweep
from herglotzlab.growth import growth_profile
from herglotzlab.optuple import OperatorTuple, rs_duality_residual
from herglotzlab.pairing import (
    AtomicMeasure,
    QuadratureSpec,
    R_GRID,
    h2d_inner_integral,
    h2d_inner_series,
    herglotz_of_measure,
    qr_pair,
)
from herglotzlab.series import TruncatedSeries

from test_classes import E11, E12
from test_series import random_series


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_norm_separation():
    t0 = time.time()
    table = davidson_pitts_sweep(range(4, 17), N_sym=16)
    elapsed = time.time() - t0
    shift = table["norm_sym_shift"]
    norms = [row["norm_sym_calculus"] for row in table["rows"]]
    full = norms[-1]
    target = math.sqrt(2.5)
    ok = (shift < 1.41421
          and 1.57 <= full <= 1.5812
          and all(b >= a - 1e-10 for a, b in zip(norms, norms[1:]))
          and abs(full - target) <= 5e-3
          and full - shift >= 0.1
          and elapsed <= 120.0)
    report("01 norm-separation", ok,
           f"shift={shift:.6f}, full={full:.6f}, target={target:.6f}, "
           f"gap={full - shift:.3f}, t={elapsed:.1f}s")


def test_02_pairing_dilation_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(100):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(0, 9))
        f = random_series(d, N, 3000 + k)
        g = random_series(d, N, 4000 + k)
        for r in R_GRID:
            sr = math.sqrt(r)
            ident = (h2d_inner_series(f.dilate(sr), g.dilate(sr))
                     + f.constant_term * np.conj(g.constant_term))
            worst = max(worst, abs(qr_pair(f, g, r) - ident))
    report("02 pairing-identity", worst <= 1e-12, f"max residual={worst:.2e}")


def test_03_inner_product_cross_validation():
    rng = np.random.default_rng(2024)
    worst_sigma = 0.0
    for k in range(50):
        d = 2 if k % 2 == 0 else 3
        N = int(rng.integers(1, 7))
        f = random_series(d, N, 100 + k)
        g = random_series(d, N, 200 + k)
        exact = h2d_inner_series(f, g)
        est = h2d_inner_integral(f, g, QuadratureSpec(64, 20000, 900 + k))
        worst_sigma = max(worst_sigma, abs(est.value - exact) / est.stderr)
    z1z2 = TruncatedSeries.monomial(2, 4, (1, 1))
    est = h2d_inner_integral(z1z2, z1z2, QuadratureSpec(64, 20000, 7))
    exact_err = abs(est.value - 0.5)
    ok = worst_sigma <= 3.0 and exact_err <= 3 * est.stderr
    report("03 inner-product-cross-validation", ok,
           f"worst |err|/se={worst_sigma:.2f}, |<z1z2,z1z2> - 1/2|="
           f"{exact_err:.2e} vs se={est.stderr:.2e}")


def test_04_reproducing_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for k in range(50):
        N = int(rng.integers(1, 9))
        f = random_series(2, N, 5000 + k)
        w0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w0 = w0 / np.linalg.norm(w0) * rng.uniform(0.0, 0.9)
        mu = AtomicMeasure(w0[None, :], np.array([1.0]), "interior")
        g = herglotz_of_measure(mu, N, mode="half")
        worst = max(worst, abs(qr_pair(f, g, 1.0) - f.evaluate(w0)))
    report("04 reproducing-identity", worst <= 1e-10, f"max residual={worst:.2e}")


def test_05_duality_identity_commuting():
    rng = np.random.default_rng(13)
    worst = 0.0
    for k in range(100):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 9))
        N = int(rng.integers(1, 9))
        member = generate_member("R+", np.random.default_rng(6000 + k), d=d, n=n)
        f = random_series(d, N, 7000 + k)
        for r in R_GRID:
            worst = max(worst, rs_duality_residual(f, member, r))
    report("05 duality-identity", worst <= 1e-10, f"max residual={worst:.2e}")


def test_06_positivity_suites():
    rng = np.random.default_rng(99)
    # (a) transform values across random row contractions
    re_min = math.inf
    for k in range(200):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 7))
        member = generate_member("S+", np.random.default_rng(8000 + k), d=d, n=n)
        pts = random_pointset(d, 200, np.random.default_rng(300 + k))
        re_min = min(re_min, float(member.values_at(pts).real.min()))
    ok_a = re_min >= -1e-10
    # (b) kernel PSD for generated members
    fails_b = 0
    for k in range(500):
        member = generate_member("S+", np.random.default_rng(10000 + k), d=2, n=4)
        rep = splus_test(member, random_pointset(2, 25, np.random.default_rng(20000 + k)))
        fails_b += rep.verdict != "pass"
    # (c) the weak-not-row tuple keeps its kernel positive
    T = OperatorTuple(np.array([E11, E12]))
    fails_c = 0
    for k in range(100):
        rep = kT_test(T, random_pointset(2, 25, np.random.default_rng(40000 + k)),
                      np.random.default_rng(k))
        fails_c += rep.verdict != "pass"
    ok = ok_a and fails_b == 0 and fails_c == 0
    report("06 positivity-suites", ok,
           f"min Re={re_min:.2e}, kernel fails={fails_b}/500, "
           f"weak-tuple fails={fails_c}/100")


def test_07_boundary_state_consistency():
    rng = np.random.default_rng(14)
    worst_tail = -math.inf
    worst_triple = 0.0
    for k in range(60):
        d = int(rng.integers(2, 4))
        zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        zeta /= np.linalg.norm(zeta)
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        z = z / np.linalg.norm(z) * rng.uniform(0.0, 0.9)
        w = complex(np.sum(z * np.conj(zeta)))
        limit = (1 + w) / (1 - w)
        for K in (5, 10, 20, 40, 60):
            err = abs(cuntz_state_herglotz(zeta, z, K) - limit)
            bound = 2 * abs(w) ** (K + 1) / (1 - abs(w))
            worst_tail = max(worst_tail, err - bound)
        h1 = extreme_h(zeta, 8)
        mu = AtomicMeasure(zeta[None, :], np.array([1.0]), "boundary")
        h2 = herglotz_of_measure(mu, 8)
        worst_triple = max(worst_triple, float(np.max(np.abs(h1.coeffs - h2.coeffs))))
        worst_triple = max(worst_triple,
                           abs(boundary_kernel(zeta).values_at(z[None, :])[0] - limit))
        # partial sums at K = 60 sit within the geometric tail of the limit
        err60 = abs(cuntz_state_herglotz(zeta, z, 60) - limit)
        worst_tail = max(worst_tail, err60 - 2 * abs(w) ** 61 / (1 - abs(w)))
    ok = worst_tail <= 1e-12 and worst_triple <= 1e-10
    report("07 boundary-state", ok,
           f"max (err - bound)={worst_tail:.2e}, triple equality={worst_triple:.2e}")


def test_08_duality_sweeps():
    om = duality_sweep(sample_duality_pairs("O+", "M+", 200, np.random.default_rng(42), d=2))
    sr = duality_sweep(sample_duality_pairs("S+", "R+", 200, np.random.default_rng(43), d=2))
    ok = om["min_re"] >= -1e-9 and sr["min_re"] >= -1e-9
    report("08 duality-sweeps", ok,
           f"min Re (O+,M+)={om['min_re']:.3e}, min Re (S+,R+)={sr['min_re']:.3e}")


def test_09_rigidity_probe():
    from test_series import make_series
    bad = make_series(2, 4, {(1, 0): 1.0, (0, 2): 0.5})
    rep_bad = schwarz_probe(bad, budget=200, rng=np.random.default_rng(0))
    good = make_series(2, 4, {(1, 0): 1.0})
    rep_good = schwarz_probe(good, budget=200, rng=np.random.default_rng(0))
    ok = rep_bad.verdict == "fail" and rep_good.verdict == "pass"
    report("09 rigidity-probe", ok,
           f"perturbed={rep_bad.verdict} (min eig {rep_bad.min_eig:.2e}), "
           f"coordinate={rep_good.verdict}")


def test_10_growth():
    h = boundary_kernel(np.array([1.0, 0.0]))
    p1 = growth_profile(h, 1.0, np.random.default_rng(0), n=200000)
    ratio1 = p1.means[-1] / p1.means[1]
    err1 = 3 * (p1.stderr[-1] / p1.means[1]
                + p1.stderr[1] * p1.means[-1] / p1.means[1] ** 2)
    h3 = boundary_kernel(np.array([1.0, 0.0]))
    p3 = growth_profile(h3, 3.0, np.random.default_rng(0), n=200000)
    ratio3 = p3.means[-1] / p3.means[1]
    bounded = 0
    for k in range(100):
        m = generate_member("S+", np.random.default_rng(5000 + k), d=2, n=4)
        prof = growth_profile(m, 1.0, np.random.default_rng(k), n=20000)
        bounded += prof.verdict == "bounded"
    ok = (p1.verdict == "bounded" and ratio1 <= 2.0 + err1
          and p3.verdict == "divergent" and ratio3 >= 50.0
          and bounded >= 95)
    report("10 growth", ok,
           f"p=1 ratio={ratio1:.3f} ({p1.verdict}), p=3 ratio={ratio3:.1f} "
           f"({p3.verdict}), bounded={bounded}/100")
