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


def random_pointset(d: int, n: int, rng: np.random.Generator,
                    radius_cap: float = DEFAULT_RADIUS_CAP) -> np.ndarray:
    """n distinct points, (n, d) complex: uniform directions with
    ball-volume radii, |z| <= radius_cap."""
    dirs = sphere_sample(d, n, rng)
    return dirs * (radius_cap * rng.random(n) ** (1.0 / (2 * d)))[:, None]


def boundary_biased_pointset(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Points with radii in the boundary band; violations concentrate there."""
    dirs = sphere_sample(d, n, rng)
    return dirs * rng.uniform(*BOUNDARY_BIASED_RANGE, n)[:, None]


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
    G = (G + G.conj().T) / 2.0
    tol = GRAM_TOL_SCALE * max(float(np.trace(G).real), 0.0) / len(G) + 1e-14
    vals, vecs = np.linalg.eigh(G)
    ok = vals[0] >= -tol
    return KernelReport(name, len(G), float(vals[0]), float(tol), "pass" if ok else "fail",
                        None if ok else vecs[:, 0])


# -- function evaluation dispatch ------------------------------------------


def values_at(f, points: np.ndarray) -> np.ndarray:
    """f.values_at(points) for a series, datum, measure transform or any
    other evaluator: the one call through which the commands evaluate."""
    return f.values_at(points)


def _szego_denominator(z: np.ndarray) -> np.ndarray:
    """1 - <z_i, z_j> for the rows of an (n, d) point array."""
    return 1.0 - z @ np.conj(z.T)


def splus_test(f, pts: np.ndarray) -> KernelReport:
    """PSD verdict for (f(z) + conj(f(w))) / (1 - <z, w>) on the (n, d)
    point array."""
    v = values_at(f, pts)
    G = (v[:, None] + np.conj(v[None, :])) / _szego_denominator(pts)
    return _gram_report(G, "splus")


def schur_test(phi, pts: np.ndarray) -> KernelReport:
    """PSD verdict for (1 - phi(z) conj(phi(w))) / (1 - <z, w>)."""
    v = values_at(phi, pts)
    G = (1.0 - v[:, None] * np.conj(v[None, :])) / _szego_denominator(pts)
    return _gram_report(G, "schur")


def kT_test(T: OperatorTuple, pts: np.ndarray, rng: np.random.Generator) -> KernelReport:
    """Vector-sampled PSD test of (I - <z,T><w,T>*) / (1 - <z,w>).

    The operator kernel is compressed along KT_ETA_SAMPLES random unit
    vectors eta: with W_i = A_i^* eta for A_i = <z_i, T>, the compressed
    numerator is 1 - <W_j, W_i>.  The worst min-eigenvalue over the batch is
    reported.
    """
    A_conj = np.conj(T.zeta_dot_many(pts))              # (m, n, n)
    denom = _szego_denominator(pts)

    def compressed():
        eta = rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n)
        W = (eta / np.linalg.norm(eta)) @ A_conj        # W[i] = A_i^* eta
        return _gram_report((1.0 - np.conj(W) @ W.T) / denom, "kT")

    return min((compressed() for _ in range(KT_ETA_SAMPLES)), key=lambda rep: rep.min_eig)


# -- extreme kernel functions ----------------------------------------------


def boundary_kernel(zeta: Sequence[complex]) -> AtomicMeasure:
    """The unit point mass at zeta, an extreme ray of M+, for |zeta| = 1:
    its transform is the boundary kernel (1 + <z, zeta>) / (1 - <z, zeta>)."""
    return AtomicMeasure(np.asarray(zeta, dtype=complex).reshape(1, -1), np.ones(1), "boundary")


def extreme_h(zeta: Sequence[complex], N: int) -> TruncatedSeries:
    """Truncation of (1 + <z, zeta>) / (1 - <z, zeta>) for |zeta| = 1:
    c_0 = 1 and c_alpha = 2 w(alpha) conj(zeta)^alpha, the transform of the
    unit point mass at zeta."""
    return herglotz_of_measure(boundary_kernel(zeta), N)


class ShiftedBoundaryKernel:
    """h_(e1) + z_2^2 / 4 in two variables: a positive-real-part function
    outside the kernel-generated classes' usual sample pool."""

    d = 2
    base = boundary_kernel(np.array([1.0, 0.0]))

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
    return AtomicMeasure(sphere_sample(d, n, rng), rng.uniform(0.2, 1.0, n), "boundary")


def random_row_contraction(d: int, n: int, rng: np.random.Generator) -> OperatorTuple:
    """Gaussian tuple scaled so the row block [T_1 ... T_d] has norm drawn
    uniformly from [0.3, 1.0]."""
    mats = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    return OperatorTuple(mats * (rng.uniform(0.3, 1.0) / np.linalg.norm(np.hstack(mats), 2)))


def random_commuting_contraction(d: int, n: int, rng: np.random.Generator) -> OperatorTuple:
    """Either a unitary conjugation of a diagonal tuple whose rows lie in the
    closed ball, or a conjugated nilpotent pair; the latter gives members
    that are not the transform of a boundary measure."""
    mats = np.zeros((d, n, n), dtype=complex)
    if rng.random() < 0.5 or d < 2:
        i = np.arange(n)
        mats[:, i, i] = random_pointset(d, n, rng, 1.0).T
    else:
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a) / rng.uniform(0.3, 1.0)
        mats[:2, 0, 1] = a
    U = _random_unitary(rng, n)
    return OperatorTuple(U @ mats @ U.conj().T)


TUPLE_SAMPLERS = {"R+": random_commuting_contraction, "S+": random_row_contraction}


def generate_member(kind: str, rng: np.random.Generator, d: int = 2,
                    n: int = 4) -> AtomicMeasure | HerglotzDatum:
    """Sample a member of M+ (its measure), or of R+ or S+ (its Herglotz
    datum: the tuple, then xi), from its generator family."""
    if kind == "M+":
        return random_boundary_measure(d, rng)
    if kind not in TUPLE_SAMPLERS:
        raise ValueError(f"unknown class kind {kind!r}")
    T = TUPLE_SAMPLERS[kind](d, n, rng)
    xi = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(n)
    return HerglotzDatum(T, xi, 0.0)


def opool_member(k: int, rng: np.random.Generator, d: int = 2):
    """The k-th positive-real-part sample: slot k % 5 rotates through the
    class generators, boundary kernels, and (for d = 2) the shifted boundary
    kernel that has neither a measure nor a datum."""
    slot = k % 5
    if slot < 3:
        return generate_member(("S+", "R+", "M+")[slot], rng, d=d)
    if slot == 3:
        zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        zeta /= np.linalg.norm(zeta)
        return boundary_kernel(zeta)
    return ShiftedBoundaryKernel() if d == 2 else generate_member("S+", rng, d=d)


# -- duality sweeps ---------------------------------------------------------


def qr_exact_vs_atoms(f, mu: AtomicMeasure, r_grid: Sequence[float]) -> np.ndarray:
    """2 f(r p_j) for r in r_grid (rows) and atoms p_j of the measure mu
    (columns), f exact and evaluated once: Q_r of f against the mass at p_j."""
    rp = np.multiply.outer(r_grid, mu.points)               # (r, atom, d)
    return 2.0 * f.values_at(rp.reshape(-1, rp.shape[2])).reshape(rp.shape[:2])


def qr_exact_vs_commuting(f: HerglotzDatum, g: HerglotzDatum,
                          r_grid: Sequence[float]) -> np.ndarray:
    """Q_r(f, g) at each r of the grid, as an array, for a datum f and a
    datum g with a commuting tuple, through the joint resolvent: the
    reflected dilate of f evaluated on T_g is the compression of the kernel
    at the Kronecker tuple sum_j T_gj (x) conj(T_fj), and the pairing is
    twice the conjugate of that quadratic form.  Exact while the joint
    spectral radius is below 1/r, as for weak-contractive f and ball-spectrum
    g.  The tuple is built once and solved for the whole grid in one stack.
    A non-commuting g raises NonCommutingError: the reduction fails for it.
    """
    Tf, Tg = f.tuple, g.tuple
    require_commuting(Tg)
    M = sum(np.kron(Tg.matrices[j], np.conj(Tf.matrices[j])) for j in range(Tg.d))
    v = np.kron(g.xi, np.conj(f.xi))
    ys = np.linalg.solve(np.eye(M.shape[0]) - np.multiply.outer(r_grid, M), v)
    return 2.0 * np.conj(2.0 * np.array([np.vdot(v, y) for y in ys]) - np.vdot(v, v))


def duality_sweep(pairs: Iterable[tuple], r_grid: Sequence[float] = R_GRID) -> dict:
    """Minimum of Re Q_r over the given (f, g) pairs, the boundary atoms of
    a measure g, and the r grid.

    f and g are each an ``AtomicMeasure`` or a ``HerglotzDatum``; f may also
    be any function with ``values_at``.  Q_r is exact on the whole r grid at
    once, where a finite-degree partial sum can dip negative near the
    boundary: the atom sum of 2 f(r p_j) for a measure g; its Hermitian
    mirror, the conjugate atom sum of 2 g(r p_j), for a measure f and any g;
    the joint resolvent for a datum f and a datum g with a commuting tuple.
    For a boundary g each atom p_j is also tested alone, from the same
    evaluation: 2 f(r p_j) pairs f with the unit point mass at p_j, an
    extreme ray of M+, so the other atoms cannot average a negative region
    of f away.  Interior atoms and a datum g are paired whole only.

    ``pairs`` is consumed once and no pair is kept, so a generator streams.
    A negative minimum, with its witness ``argmin`` (pair index, atom index
    or None for a whole pairing, r), certifies that f lies outside the dual
    of M+; a non-negative one is evidence only.  A tie goes to the first
    value in the order pair, r, whole pairing, atoms.  ``pairs`` and
    ``r_grid`` give the pairing evaluations made; ``atoms`` counts the
    boundary atoms tested, each at every r.
    """
    min_re, argmin, atoms, k = math.inf, None, 0, -1
    for k, (f, g) in enumerate(pairs):
        # one table per pair: a row per radius, the whole pairing in column
        # 0 and, for a boundary g, atom j in column j + 1
        if isinstance(g, AtomicMeasure):
            atom_rows = qr_exact_vs_atoms(f, g, r_grid)
            table = (g.weights * atom_rows).sum(axis=1, keepdims=True)
            if g.support == "boundary":
                atoms += len(g.weights)
                table = np.hstack([table, atom_rows])
        elif isinstance(f, AtomicMeasure):
            table = np.conj((f.weights * qr_exact_vs_atoms(g, f, r_grid))
                            .sum(axis=1, keepdims=True))
        elif isinstance(f, HerglotzDatum) and isinstance(g, HerglotzDatum):
            table = qr_exact_vs_commuting(f, g, r_grid)[:, None]
        else:
            raise TypeError("sweep needs a measure f or g, or a datum for both")
        # the first minimum in row-major order: r, then the whole before atoms
        i, c = np.unravel_index(np.argmin(table.real), table.shape)
        if table[i, c].real < min_re:
            min_re = float(table[i, c].real)
            argmin = {"pair": k, "atom": None if c == 0 else int(c) - 1,
                      "r": r_grid[i], "value": min_re}
    return {"min_re": min_re, "argmin": argmin, "pairs": k + 1,
            "atoms": atoms, "r_grid": list(r_grid)}


def sample_duality_pairs(kind_f: str, kind_g: str, trials: int,
                         rng: np.random.Generator, d: int = 2) -> Iterator[tuple]:
    """The (f, g) sample pairs of the class-duality sweeps, yielded one at a
    time and drawn in order from rng: f (the k-th O+ pool member for kind_f
    "O+"), then g, for k < trials.  Fewer trials give a prefix of the pairs."""
    for k in range(trials):
        f = opool_member(k, rng, d=d) if kind_f == "O+" else generate_member(kind_f, rng, d=d)
        yield f, generate_member(kind_g, rng, d=d)


# -- rigidity probe ----------------------------------------------------------


def _disk_candidates(d: int) -> np.ndarray:
    """The (9, d) points x e_1 on the z_1 disk, x from 0 out to +-0.95."""
    pts = np.zeros((9, d), dtype=complex)
    pts[:, 0] = [0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9, 0.95, -0.95]
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
    if budget < 1:
        raise PreconditionError("need a budget of at least one point set")
    e1 = (1,) + (0,) * (g.d - 1)
    if abs(g.constant_term) > 1e-12 or abs(g.coeff(e1) - 1.0) > 1e-12:
        raise PreconditionError("probe requires g(0) = 0 and unit z_1 coefficient")

    def point_sets():
        disk = _disk_candidates(g.d)
        yield from disk[:, None, :]
        # two disk points plus an off-axis companion in the boundary band
        for x1, x2 in itertools.permutations(disk[:6] if g.d >= 2 else [], 2):
            for _ in range(2):
                off = sphere_sample(g.d, 1, rng)[0] * rng.uniform(*BOUNDARY_BIASED_RANGE)
                yield np.array([x1, x2, off])
        for maker in itertools.cycle((random_pointset, boundary_biased_pointset)):
            yield maker(g.d, DEFAULT_POINTS, rng)

    for tried, ps in enumerate(itertools.islice(point_sets(), budget), 1):
        if (rep := schur_test(g, ps)).verdict == "fail":
            return replace(rep, sets_tried=tried)
    return replace(rep, kernel="schur-rigidity (budget exhausted)", sets_tried=tried)
