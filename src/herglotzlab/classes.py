"""Positive-class generators, PSD kernel membership tests, duality sweeps,
extreme kernel functions, and the rigidity probe.

Membership semantics throughout: a PSD test on a finite point set is a
necessary condition.  A failed Gram is a certificate of non-membership; a
pass means "no violation found" for the sampled points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .optuple import HerglotzDatum, OperatorTuple, require_commuting
from .pairing import R_GRID, AtomicMeasure, herglotz_of_measure, sphere_sample
from .series import TruncatedSeries

DEFAULT_POINTS = 25
DEFAULT_RADIUS_CAP = 0.95
BOUNDARY_BIASED_RANGE = (0.9, 0.99)
GRAM_TOL_SCALE = 1e-8
MEMBER_KINDS = ("M+", "R+", "S+")
MAX_ATOMS = 8                 # an M+ sample has 1 to MAX_ATOMS atoms
KT_ETA_SAMPLES = 8            # compression vectors per kT_test


class PreconditionError(ValueError):
    """An input violated a documented precondition of a probe."""


# -- point sets -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointSet:
    points: np.ndarray        # (n, d) complex, |z| <= radius_cap
    radius_cap: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=complex))
        if np.any(np.linalg.norm(pts, axis=1) > self.radius_cap + 1e-12):
            raise ValueError("point outside the radius cap")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


def random_pointset(d: int, n: int, rng: np.random.Generator,
                    radius_cap: float = DEFAULT_RADIUS_CAP) -> PointSet:
    """n distinct points, uniform directions with ball-volume radii."""
    dirs = sphere_sample(d, n, rng)
    radii = radius_cap * rng.random(n) ** (1.0 / (2 * d))
    return PointSet(dirs * radii[:, None], radius_cap)


def boundary_biased_pointset(d: int, n: int, rng: np.random.Generator) -> PointSet:
    """Points with radii in the boundary band; violations concentrate there."""
    dirs = sphere_sample(d, n, rng)
    lo, hi = BOUNDARY_BIASED_RANGE
    radii = rng.uniform(lo, hi, n)
    return PointSet(dirs * radii[:, None], hi)


# -- kernel reports --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelReport:
    kernel: str
    points: int                        # Gram size
    min_eig: float
    tol: float
    verdict: str                       # "pass" | "fail"
    witness: Optional[np.ndarray]      # Gram eigenvector on fail
    sets_tried: Optional[int] = None   # point sets a search tested

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel,
            "points": self.points,
            "min_eig": self.min_eig,
            "tol": self.tol,
            "verdict": self.verdict,
            "witness": None if self.witness is None else
            [[float(v.real), float(v.imag)] for v in self.witness],
        }


def _gram_report(G: np.ndarray, name: str) -> KernelReport:
    n = G.shape[0]
    G = (G + G.conj().T) / 2.0
    tol = GRAM_TOL_SCALE * max(float(np.trace(G).real), 0.0) / n + 1e-14
    vals, vecs = np.linalg.eigh(G)
    min_eig = float(vals[0])
    ok = min_eig >= -tol
    return KernelReport(name, n, min_eig, float(tol),
                        "pass" if ok else "fail",
                        None if ok else vecs[:, 0])


# -- function evaluation dispatch ------------------------------------------


def values_at(f, points: np.ndarray) -> np.ndarray:
    """f.values_at(points) for a series, datum, measure transform or any
    other evaluator: the one call through which the commands evaluate."""
    return f.values_at(points)


def _pair_matrix(pts: PointSet) -> np.ndarray:
    z = pts.points
    return z @ np.conj(z.T)       # <z_i, z_j>


def splus_test(f, pts: PointSet) -> KernelReport:
    """PSD verdict for (f(z) + conj(f(w))) / (1 - <z, w>) on the point set."""
    v = values_at(f, pts.points)
    ip = _pair_matrix(pts)
    G = (v[:, None] + np.conj(v[None, :])) / (1.0 - ip)
    return _gram_report(G, "splus")


def schur_test(phi, pts: PointSet) -> KernelReport:
    """PSD verdict for (1 - phi(z) conj(phi(w))) / (1 - <z, w>)."""
    v = values_at(phi, pts.points)
    ip = _pair_matrix(pts)
    G = (1.0 - v[:, None] * np.conj(v[None, :])) / (1.0 - ip)
    return _gram_report(G, "schur")


def kT_test(T: OperatorTuple, pts: PointSet, rng: np.random.Generator) -> KernelReport:
    """Vector-sampled PSD test of (I - <z,T><w,T>*) / (1 - <z,w>).

    The operator kernel is compressed along KT_ETA_SAMPLES random unit
    vectors eta; the worst min-eigenvalue over the batch is reported.
    """
    z = pts.points
    A = T.zeta_dot_many(z)                     # (m, n, n)
    ip = _pair_matrix(pts)
    # B[i, j] = A_i A_j^*
    B = np.einsum("ink,jmk->ijnm", A, np.conj(A))
    worst = None
    for _ in range(KT_ETA_SAMPLES):
        eta = rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n)
        eta /= np.linalg.norm(eta)
        quad = np.einsum("ijnm,n,m->ij", B, np.conj(eta), eta)
        G = (1.0 - quad) / (1.0 - ip)
        rep = _gram_report(G, "kT")
        if worst is None or rep.min_eig < worst.min_eig:
            worst = rep
    return worst


# -- extreme kernel functions ----------------------------------------------


def boundary_kernel(zeta: Sequence[complex]) -> AtomicMeasure:
    """The unit point mass at zeta, an extreme ray of M+, for |zeta| = 1:
    its transform is the boundary kernel (1 + <z, zeta>) / (1 - <z, zeta>)."""
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(zeta) - 1.0) > 1e-12:
        raise ValueError("boundary kernel point must lie on the unit sphere")
    return AtomicMeasure(zeta[None, :], np.ones(1), "boundary")


def extreme_h(zeta: Sequence[complex], N: int) -> TruncatedSeries:
    """Truncation of (1 + <z, zeta>) / (1 - <z, zeta>) for |zeta| = 1:
    c_0 = 1 and c_alpha = 2 w(alpha) conj(zeta)^alpha, the transform of the
    unit point mass at zeta."""
    return herglotz_of_measure(boundary_kernel(zeta), N)


class ShiftedBoundaryKernel:
    """h_(e1) + z_2^2 / 4 in two variables: a positive-real-part function
    outside the kernel-generated classes' usual sample pool."""

    d = 2

    def __init__(self):
        self.base = boundary_kernel(np.array([1.0, 0.0]))

    def values_at(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        return self.base.values_at(pts) + 0.25 * pts[:, 1] ** 2


# -- class generators -------------------------------------------------------


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_boundary_measure(d: int, rng: np.random.Generator) -> AtomicMeasure:
    n = int(rng.integers(1, MAX_ATOMS + 1))
    pts = sphere_sample(d, n, rng)
    w = rng.uniform(0.2, 1.0, n)
    return AtomicMeasure(pts, w, "boundary")


def random_row_contraction(d: int, n: int, rng: np.random.Generator) -> OperatorTuple:
    """Gaussian tuple scaled so the row block [T_1 ... T_d] has norm drawn
    uniformly from [0.3, 1.0]."""
    mats = (rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n)))
    row = np.concatenate(list(mats), axis=1)
    s = np.linalg.norm(row, 2)
    target = rng.uniform(0.3, 1.0)
    return OperatorTuple(mats * (target / s))


def random_commuting_contraction(d: int, n: int, rng: np.random.Generator) -> OperatorTuple:
    """Either a unitary conjugation of a diagonal tuple whose rows lie in the
    closed ball, or a conjugated nilpotent pair; the latter gives members
    that are not the transform of a boundary measure."""
    if rng.random() < 0.5 or d < 2:
        diag_rows = sphere_sample(d, n, rng)
        radii = rng.random(n) ** (1.0 / (2 * d))
        diag_rows *= radii[:, None]
        mats = np.zeros((d, n, n), dtype=complex)
        for j in range(d):
            np.fill_diagonal(mats[j], diag_rows[:, j])
    else:
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a) / rng.uniform(0.3, 1.0)
        mats = np.zeros((d, n, n), dtype=complex)
        mats[0][0, 1] = a[0]
        mats[1][0, 1] = a[1]
    U = _random_unitary(rng, n)
    return OperatorTuple(np.array([U @ M @ U.conj().T for M in mats]))


def generate_member(kind: str, rng: np.random.Generator, d: int = 2,
                    n: int = 4) -> AtomicMeasure | HerglotzDatum:
    """Sample a member of M+ (its measure), or of R+ or S+ (its Herglotz
    datum: the tuple, then xi), from its generator family."""
    if kind == "M+":
        return random_boundary_measure(d, rng)
    if kind == "R+":
        T = random_commuting_contraction(d, n, rng)
    elif kind == "S+":
        T = random_row_contraction(d, n, rng)
    else:
        raise ValueError(f"unknown class kind {kind!r}")
    xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xi /= math.sqrt(n)
    return HerglotzDatum(T, xi, 0.0)


def opool_member(k: int, rng: np.random.Generator, d: int = 2):
    """The k-th positive-real-part sample: slot k % 5 rotates through the
    class generators, boundary kernels, and (for d = 2) the shifted boundary
    kernel that has neither a measure nor a datum."""
    slot = k % 5
    if slot == 0:
        return generate_member("S+", rng, d=d)
    if slot == 1:
        return generate_member("R+", rng, d=d)
    if slot == 2:
        return generate_member("M+", rng, d=d)
    if slot == 3:
        zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        zeta /= np.linalg.norm(zeta)
        return boundary_kernel(zeta)
    if d == 2:
        return ShiftedBoundaryKernel()
    return generate_member("S+", rng, d=d)


# -- duality sweeps ---------------------------------------------------------


def qr_exact_vs_atoms(f, mu: AtomicMeasure, r_grid: Sequence[float]) -> np.ndarray:
    """2 f(r p_j) for r in r_grid (rows) and atoms p_j of the measure mu
    (columns), f exact and evaluated once: Q_r of f against the mass at p_j."""
    rp = np.multiply.outer(r_grid, mu.points)               # (r, atom, d)
    return 2.0 * f.values_at(rp.reshape(-1, rp.shape[2])).reshape(rp.shape[:2])


def qr_exact_vs_commuting(f: HerglotzDatum, g: HerglotzDatum,
                          r_grid: Sequence[float]) -> list:
    """Q_r(f, g) at each r of the grid for a datum f and a datum g with a
    commuting tuple, through the joint resolvent.

    With f given by (T_f, xi_f) and g by (T_g, xi_g), the reflected dilate of
    f evaluated on T_g is the compression of the kernel at the Kronecker
    tuple sum_j T_gj (x) conj(T_fj); the pairing is twice the conjugate of
    the resulting quadratic form.  Exact whenever the joint spectral radius
    is below 1/r, which holds for weak-contractive f and ball-spectrum g.
    The tuple is built once and solved for the whole grid in one stack.  A
    non-commuting g raises NonCommutingError: the reduction does not hold
    for it.
    """
    Tf, Tg = f.tuple, g.tuple
    require_commuting(Tg)
    M = sum(np.kron(Tg.matrices[j], np.conj(Tf.matrices[j])) for j in range(Tg.d))
    v = np.kron(g.xi, np.conj(f.xi))
    ys = np.linalg.solve(np.eye(M.shape[0]) - np.multiply.outer(r_grid, M), v)
    return [complex(2.0 * np.conj(2.0 * np.vdot(v, y) - np.vdot(v, v))) for y in ys]


def duality_sweep(pairs: Iterable[tuple], r_grid: Sequence[float] = R_GRID) -> dict:
    """Minimum of Re Q_r over the given (f, g) pairs, the boundary atoms of
    a measure g, and the r grid.

    Each of f and g is an ``AtomicMeasure``, a ``HerglotzDatum`` or, for f,
    any other function with ``values_at``.

    The pairing is evaluated exactly, the whole r grid at once, so the sweep
    sees the true pairing rather than a truncation partial sum, which can
    dip negative near the boundary for finite degree: by the atom sum of
    2 f(r p_j) for a measure g; by its Hermitian mirror conj(Q_r(g, f)),
    the conjugate atom sum of 2 g(r p_j), for a measure f and any g; and by
    the joint resolvent for a datum f and a datum g with a commuting tuple.

    When g is a boundary-supported measure, each atom p_j is also
    tested on its own: 2 f(r p_j) is Q_r of f against the unit point mass at
    p_j, an extreme ray of M+.  These values come from the same evaluation
    as the atom sum, so a negative region of f is not averaged away by the
    other atoms.  Interior atoms and datum g are paired whole only.

    ``pairs`` is consumed once and no pair is kept, so a generator streams.
    A negative minimum, with its witness ``argmin`` (pair index, atom index
    or None for a whole pairing, r), certifies that f lies outside the dual
    of M+.  A non-negative minimum is evidence only.  The report's ``pairs``
    and ``r_grid`` give the pairing evaluations made; ``atoms`` counts the
    boundary atoms tested, each at every r of the grid.
    """
    min_re = math.inf
    argmin = None
    atoms, k = 0, -1
    for k, (f, g) in enumerate(pairs):
        boundary = isinstance(g, AtomicMeasure) and g.support == "boundary"
        if boundary:
            atoms += len(g.weights)
        if isinstance(g, AtomicMeasure):
            atom_rows = qr_exact_vs_atoms(f, g, r_grid)
            wholes = (g.weights * atom_rows).sum(axis=1)
        elif isinstance(f, AtomicMeasure):
            wholes = np.conj((f.weights * qr_exact_vs_atoms(g, f, r_grid)).sum(axis=1))
        elif isinstance(f, HerglotzDatum) and isinstance(g, HerglotzDatum):
            wholes = qr_exact_vs_commuting(f, g, r_grid)
        else:
            raise TypeError("sweep needs a measure f or g, or a datum for both")
        for i, (r, q) in enumerate(zip(r_grid, wholes)):
            if q.real < min_re:
                min_re = float(q.real)
                argmin = {"pair": k, "atom": None, "r": r, "value": min_re}
            if boundary and atom_rows[i].size:
                re = atom_rows[i].real
                j = int(re.argmin())
                if re[j] < min_re:
                    min_re = float(re[j])
                    argmin = {"pair": k, "atom": j, "r": r, "value": min_re}
    return {"min_re": min_re, "argmin": argmin, "pairs": k + 1,
            "atoms": atoms, "r_grid": list(r_grid)}


def sample_duality_pairs(kind_f: str, kind_g: str, trials: int,
                         rng: np.random.Generator, d: int = 2) -> Iterator[tuple]:
    """The (f, g) sample pairs of the class-duality sweeps, yielded one at a
    time and drawn in order from rng: f (the k-th O+ pool member for kind_f
    "O+"), then g, for k < trials.  Fewer trials give a prefix of the pairs."""
    for k in range(trials):
        if kind_f == "O+":
            f = opool_member(k, rng, d=d)
        else:
            f = generate_member(kind_f, rng, d=d)
        yield f, generate_member(kind_g, rng, d=d)


# -- rigidity probe ----------------------------------------------------------


def _disk_candidates(d: int) -> list:
    xs = [0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9, 0.95, -0.95]
    pts = []
    for x in xs:
        p = np.zeros(d, dtype=complex)
        p[0] = x
        pts.append(p)
    return pts


def schwarz_probe(g: TruncatedSeries, rng: np.random.Generator,
                  budget: int = 200) -> KernelReport:
    """Search for a Schur-kernel Gram violation of a normalized candidate.

    Preconditions: g(0) = 0 and the z_1 coefficient is 1 (to 1e-12).  Any
    candidate other than z_1 itself must fail the kernel test on some finite
    set; the search mixes structured sets (pairs on the z_1 disk plus an
    off-disk point, where the rank-one restriction forces violations) with
    random and boundary-biased sets, all drawn from rng, one set at a time.
    Returns the first failing report, or once ``budget`` sets have passed the
    last one, renamed as exhausted; either way with ``sets_tried`` set.
    """
    if g.d < 1:
        raise PreconditionError("need at least one variable")
    if budget < 1:
        raise PreconditionError("need a budget of at least one point set")
    e1 = (1,) + (0,) * (g.d - 1)
    if abs(g.constant_term) > 1e-12 or abs(g.coeff(e1) - 1.0) > 1e-12:
        raise PreconditionError(
            "probe requires g(0) = 0 and unit z_1 coefficient")

    def point_sets():
        disk = _disk_candidates(g.d)
        for x1 in disk:
            yield PointSet(np.array([x1]), 1.0)
        # two disk points plus an off-axis companion in the boundary band
        for x1, x2 in itertools.permutations(disk[:6] if g.d >= 2 else [], 2):
            for _ in range(2):
                off = sphere_sample(g.d, 1, rng)[0] * rng.uniform(*BOUNDARY_BIASED_RANGE)
                yield PointSet(np.array([x1, x2, off]), 1.0)
        for maker in itertools.cycle((random_pointset, boundary_biased_pointset)):
            yield maker(g.d, DEFAULT_POINTS, rng)

    for tried, ps in enumerate(itertools.islice(point_sets(), budget), 1):
        if (rep := schur_test(g, ps)).verdict == "fail":
            return replace(rep, sets_tried=tried)
    return replace(rep, kernel="schur-rigidity (budget exhausted)", sets_tried=tried)
