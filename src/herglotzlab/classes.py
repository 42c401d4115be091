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
from .series import TruncatedSeries, _check_same_d

DEFAULT_POINTS = 25
DEFAULT_RADIUS_CAP = 0.95
BOUNDARY_BIASED_RANGE = (0.9, 0.99)
GRAM_TOL_SCALE = 1e-8
MEMBER_KINDS = ("M+", "R+", "S+")
MAX_ATOMS = 8                 # an M+ sample has 1 to MAX_ATOMS atoms
MEMBER_N = 4                  # an R+ or S+ sample is n x n with n = MEMBER_N
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
#
# A tuple member is drawn in two steps: its raw numbers from rng, one member
# at a time and in order; then its linear algebra (the row-block SVD of an
# S+ tuple, the unitary QR and conjugation of an R+ tuple), stacked over the
# members of a chunk with one kind and shape.  ``generate_member`` finishes
# a chunk of one, and a member's bits do not depend on its chunk.


def random_boundary_measure(d: int, rng: np.random.Generator) -> AtomicMeasure:
    n = int(rng.integers(1, MAX_ATOMS + 1))
    return AtomicMeasure(sphere_sample(d, n, rng), rng.uniform(0.2, 1.0, n), "boundary")


def _row_draws(d: int, n: int, rng: np.random.Generator) -> tuple:
    """A Gaussian tuple, then the norm its row block is scaled to."""
    mats = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    return mats, rng.uniform(0.3, 1.0)


def _row_finish(mats: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The (k, d, n, n) tuples scaled so each row block [T_1 ... T_d] has its
    norm: one stacked SVD."""
    k, d, n, _ = mats.shape
    blocks = mats.transpose(0, 2, 1, 3).reshape(k, n, d * n)
    top = np.linalg.svd(blocks, compute_uv=False).max(axis=-1)
    return mats * (norms / top)[:, None, None, None]


def _commuting_draws(d: int, n: int, rng: np.random.Generator) -> tuple:
    """A diagonal tuple whose rows lie in the closed ball, or (for d, n >= 2)
    a nilpotent pair, which gives members that are not the transform of a
    boundary measure; then the Gaussian matrix of the unitary that
    conjugates it."""
    mats = np.zeros((d, n, n), dtype=complex)
    if rng.random() < 0.5 or d < 2 or n < 2:
        i = np.arange(n)
        mats[:, i, i] = random_pointset(d, n, rng, 1.0).T
    else:
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a) / rng.uniform(0.3, 1.0)
        mats[:2, 0, 1] = a
    return mats, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _commuting_finish(mats: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """U T U* for each (d, n, n) tuple T of the stack, U the unitary factor
    of its Gaussian matrix with the phases of R's diagonal taken into it:
    one stacked QR and one stacked conjugation."""
    q, r = np.linalg.qr(gauss)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    U = (q * (diag / np.abs(diag))[:, None, :])[:, None]
    return U @ mats @ np.conj(U).swapaxes(-1, -2)


TUPLE_SAMPLERS = {"R+": (_commuting_draws, _commuting_finish),
                  "S+": (_row_draws, _row_finish)}


@dataclass(frozen=True)
class _DrawnDatum:
    """An R+ or S+ member whose tuple awaits its stacked finish."""

    kind: str
    draws: tuple
    xi: np.ndarray


def _draw_member(kind: str, rng: np.random.Generator, d: int, n: int = MEMBER_N):
    """The draws of one member: an M+ measure is complete as drawn; an R+ or
    S+ datum draws its tuple, then xi."""
    if kind == "M+":
        return random_boundary_measure(d, rng)
    if kind not in TUPLE_SAMPLERS:
        raise ValueError(f"unknown class kind {kind!r}")
    draws = TUPLE_SAMPLERS[kind][0](d, n, rng)
    xi = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(n)
    return _DrawnDatum(kind, draws, xi)


def _draw_pool_member(k: int, rng: np.random.Generator, d: int):
    """The draws of the k-th positive-real-part sample of the O+ pool: slot
    k % 5 rotates through the class generators, boundary kernels, and (for
    d = 2) the shifted boundary kernel that has neither a measure nor a
    datum."""
    slot = k % 5
    if slot < 3:
        return _draw_member(("S+", "R+", "M+")[slot], rng, d)
    if slot == 3:
        zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        zeta /= np.linalg.norm(zeta)
        return boundary_kernel(zeta)
    return ShiftedBoundaryKernel() if d == 2 else _draw_member("S+", rng, d)


def _finish_members(drawn: list) -> list:
    """The members, in order, of a list of draws: the data of each kind and
    tuple shape are finished by one stacked call; other members pass."""
    groups = {}
    for i, item in enumerate(drawn):
        if isinstance(item, _DrawnDatum):
            groups.setdefault((item.kind, item.draws[0].shape), []).append(i)
    members = list(drawn)
    for (kind, _), idx in groups.items():
        parts = zip(*(drawn[i].draws for i in idx))
        tuples = TUPLE_SAMPLERS[kind][1](*map(np.stack, parts))
        for i, mats in zip(idx, tuples):
            members[i] = HerglotzDatum(OperatorTuple(mats), drawn[i].xi, 0.0)
    return members


def generate_member(kind: str, rng: np.random.Generator, d: int = 2,
                    n: int = MEMBER_N) -> AtomicMeasure | HerglotzDatum:
    """Sample a member of M+ (its measure), or of R+ or S+ (its Herglotz
    datum: the tuple, then xi), from its generator family."""
    return _finish_members([_draw_member(kind, rng, d, n)])[0]


# -- duality sweeps ---------------------------------------------------------

# The byte budget of one run of consecutive datum pairs: the sweep stacks
# their resolvents, (n_f n_g)^2 complex entries per pair and radius, up to
# this many bytes and at least one pair.
CHUNK_BYTES = 2 ** 20


def _resolvent_bytes(n_f: int, n_g: int, radii: int) -> int:
    return 16 * radii * (n_f * n_g) ** 2


# pairs per sampler chunk: a sweep run of sampled datum pairs on the
# default grid (12 pairs)
SAMPLE_CHUNK = max(1, CHUNK_BYTES // _resolvent_bytes(MEMBER_N, MEMBER_N, len(R_GRID)))


def qr_exact_vs_atoms(f, mu: AtomicMeasure, r_grid: Sequence[float]) -> np.ndarray:
    """2 f(r p_j) for r in r_grid (rows) and atoms p_j of the measure mu
    (columns), f exact and evaluated once: Q_r of f against the mass at p_j."""
    rp = np.multiply.outer(r_grid, mu.points)               # (r, atom, d)
    return 2.0 * f.values_at(rp.reshape(-1, rp.shape[2])).reshape(rp.shape[:2])


def qr_exact_vs_commuting_many(pairs: Sequence[tuple], r_grid: Sequence[float]) -> np.ndarray:
    """Q_r(f, g) at each r of the grid, a (pair, radius) array, for datum
    pairs (f, g) with commuting g, through the joint resolvent: the
    reflected dilate of f evaluated on T_g is the compression of the kernel
    at the Kronecker tuple sum_j T_gj (x) conj(T_fj), and the pairing is
    twice the conjugate of that quadratic form.  Exact while the joint
    spectral radius is below 1/r, as for weak-contractive f and ball-spectrum
    g.  The pairs are grouped by (d, n_f, n_g); each group gets one
    broadcast Kronecker build and one solve over (pair, radius), and each
    row equals, bit for bit, the row of a call with that pair alone.  Different d of f and g
    raise DimensionMismatchError and a non-commuting g NonCommutingError,
    both before any solve: the reduction fails for them.
    """
    groups = {}
    for p, (f, g) in enumerate(pairs):
        _check_same_d(f, g)
        groups.setdefault((f.d, f.tuple.n, g.tuple.n), []).append(p)
    radii = np.asarray(r_grid, dtype=float)
    out = np.empty((len(pairs), len(radii)), dtype=complex)
    for (d, nf, ng), idx in groups.items():
        fs, gs = zip(*(pairs[p] for p in idx))
        Tg = np.stack([g.tuple.matrices for g in gs])
        require_commuting(Tg)
        Tf = np.conj(np.stack([f.tuple.matrices for f in fs]))
        m = nf * ng
        # M[p] = sum_j kron(Tg[p, j], conj(Tf[p, j])), v[p] = kron(xi_g, conj(xi_f))
        M = (Tg[..., :, None, :, None] * Tf[..., None, :, None, :]).reshape(-1, d, m, m).sum(axis=1)
        v = (np.stack([g.xi for g in gs])[:, :, None]
             * np.conj(np.stack([f.xi for f in fs]))[:, None, :]).reshape(-1, m)
        pencils = radii[:, None, None] * M[:, None]
        np.subtract(np.eye(m), pencils, out=pencils)
        ys = np.linalg.solve(pencils, v[:, None, :, None])
        quad = (np.conj(v)[:, None, None, :] @ ys)[..., 0, 0]
        norm2 = (np.conj(v)[:, None, :] @ v[:, :, None])[:, 0, 0]
        out[idx] = 2.0 * np.conj(2.0 * quad - norm2[:, None])
    return out


def _measure_table(f, g, r_grid: Sequence[float]) -> np.ndarray:
    """A measure pair's table: the atom sum of a measure g, with a column per
    atom for a boundary g, or the Hermitian mirror for a measure f."""
    if isinstance(g, AtomicMeasure):
        atom_rows = qr_exact_vs_atoms(f, g, r_grid)
        table = (g.weights * atom_rows).sum(axis=1, keepdims=True)
        if g.support == "boundary":
            table = np.hstack([table, atom_rows])
        return table
    if isinstance(f, AtomicMeasure):
        return np.conj((f.weights * qr_exact_vs_atoms(g, f, r_grid))
                       .sum(axis=1, keepdims=True))
    raise TypeError("sweep needs a measure f or g, or a datum for both")


def _pair_tables(pairs: Iterable[tuple], r_grid: Sequence[float]) -> Iterator[np.ndarray]:
    """Each pair's table, in pair order: a row per radius, the whole pairing
    in column 0 and, for a boundary g, atom j in column j + 1.

    A run of consecutive datum pairs is solved stacked when the next pair
    would take its resolvents past CHUNK_BYTES, or is a measure pair, whose
    table goes out at once.
    """
    run, size = [], 0
    for f, g in pairs:
        _check_same_d(f, g)
        if isinstance(f, HerglotzDatum) and isinstance(g, HerglotzDatum):
            nbytes = _resolvent_bytes(f.tuple.n, g.tuple.n, len(r_grid))
            if run and size + nbytes > CHUNK_BYTES:
                yield from qr_exact_vs_commuting_many(run, r_grid)[:, :, None]
                run, size = [], 0
            run.append((f, g))
            size += nbytes
        else:
            table = _measure_table(f, g, r_grid)
            yield from qr_exact_vs_commuting_many(run, r_grid)[:, :, None]
            run, size = [], 0
            yield table
    yield from qr_exact_vs_commuting_many(run, r_grid)[:, :, None]


def duality_sweep(pairs: Iterable[tuple], r_grid: Sequence[float] = R_GRID) -> dict:
    """Minimum of Re Q_r over the given (f, g) pairs, the boundary atoms of
    a measure g, and the r grid.

    f and g are each an ``AtomicMeasure`` or a ``HerglotzDatum``; f may also
    be any function with ``values_at`` and ``d``.  f and g of different d
    raise DimensionMismatchError.  Q_r is exact on the whole r grid at
    once, where a finite-degree partial sum can dip negative near the
    boundary: the atom sum of 2 f(r p_j) for a measure g; its Hermitian
    mirror, the conjugate atom sum of 2 g(r p_j), for a measure f and any g;
    the joint resolvent for a datum f and a datum g with a commuting tuple.
    For a boundary g each atom p_j is also tested alone, from the same
    evaluation: 2 f(r p_j) pairs f with the unit point mass at p_j, an
    extreme ray of M+, so the other atoms cannot average a negative region
    of f away.  Interior atoms and a datum g are paired whole only.

    ``pairs`` is consumed once, and a datum pair is held only until its run
    of at most CHUNK_BYTES is solved, so a generator streams in bounded
    memory.
    A negative minimum, with its witness ``argmin`` (pair index, atom index
    or None for a whole pairing, r), certifies that f lies outside the dual
    of M+; a non-negative one is evidence only.  A tie goes to the first
    value in the order pair, r, whole pairing, atoms.  ``pairs`` and
    ``r_grid`` give the pairing evaluations made; ``atoms`` counts the
    boundary atoms tested, each at every r.
    """
    min_re, argmin, atoms, k = math.inf, None, 0, -1
    for k, table in enumerate(_pair_tables(pairs, r_grid)):
        atoms += table.shape[1] - 1
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
    "O+"), then g, for k < trials.  The draws of SAMPLE_CHUNK pairs are
    finished together, so fewer trials give a prefix of the pairs."""
    for start in range(0, trials, SAMPLE_CHUNK):
        drawn = []
        for k in range(start, min(start + SAMPLE_CHUNK, trials)):
            drawn.append(_draw_pool_member(k, rng, d) if kind_f == "O+"
                         else _draw_member(kind_f, rng, d))
            drawn.append(_draw_member(kind_g, rng, d))
        members = _finish_members(drawn)
        yield from zip(members[::2], members[1::2])


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
