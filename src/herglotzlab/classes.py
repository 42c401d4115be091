"""Positive-class generators, PSD kernel membership tests, duality sweeps,
extreme kernel functions, and the rigidity probe.

Membership semantics throughout: a PSD test on a finite point set is a
necessary condition.  A failed Gram is a certificate of non-membership; a
pass means "no violation found" for the sampled points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .optuple import HerglotzDatum, OperatorTuple, require_commuting
from .pairing import (
    R_GRID,
    AtomicMeasure,
    HerglotzMeasureFunction,
    herglotz_of_measure,
    sphere_sample,
)
from .series import TruncatedSeries, _monomial_sums, weight_array

DEFAULT_POINTS = 25
DEFAULT_RADIUS_CAP = 0.95
BOUNDARY_BIASED_RANGE = (0.9, 0.99)
GRAM_TOL_SCALE = 1e-8


class PreconditionError(ValueError):
    """An input violated a documented precondition of a probe."""


class NonHermitianKernelError(ValueError):
    """The sampled kernel is not Hermitian within tolerance."""


# -- point sets -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointSet:
    points: np.ndarray        # (n, d) complex, |z| <= radius_cap
    seed: int
    radius_cap: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=complex))
        if np.any(np.linalg.norm(pts, axis=1) > self.radius_cap + 1e-12):
            raise ValueError("point outside the radius cap")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def random_pointset(d: int, n: int = DEFAULT_POINTS,
                    radius_cap: float = DEFAULT_RADIUS_CAP,
                    seed: int = 0) -> PointSet:
    """n distinct points, uniform directions with ball-volume radii."""
    rng = np.random.default_rng(seed)
    dirs = sphere_sample(d, n, rng)
    radii = radius_cap * rng.random(n) ** (1.0 / (2 * d))
    return PointSet(dirs * radii[:, None], seed, radius_cap)


def boundary_biased_pointset(d: int, n: int = DEFAULT_POINTS,
                             seed: int = 0) -> PointSet:
    """Points with radii in the boundary band; violations concentrate there."""
    rng = np.random.default_rng(seed)
    dirs = sphere_sample(d, n, rng)
    lo, hi = BOUNDARY_BIASED_RANGE
    radii = rng.uniform(lo, hi, n)
    return PointSet(dirs * radii[:, None], seed, hi)


# -- kernel reports --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelReport:
    kernel: str
    points: int
    min_eig: float
    tol: float
    verdict: str                       # "pass" | "fail"
    witness: Optional[np.ndarray]      # Gram eigenvector on fail

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


def _gram_report(G: np.ndarray, name: str, tol: Optional[float]) -> KernelReport:
    n = G.shape[0]
    G = (G + G.conj().T) / 2.0
    if tol is None:
        tol = GRAM_TOL_SCALE * max(float(np.trace(G).real), 0.0) / n + 1e-14
    vals, vecs = np.linalg.eigh(G)
    min_eig = float(vals[0])
    ok = min_eig >= -tol
    return KernelReport(name, n, min_eig, float(tol),
                        "pass" if ok else "fail",
                        None if ok else vecs[:, 0])


def gram_min_eig(kernel: Callable, pts: PointSet, name: str = "custom",
                 tol: Optional[float] = None) -> KernelReport:
    """Assemble the Gram of a Hermitian two-point kernel and eigen-solve it.

    Hermiticity k(z, w) = conj(k(w, z)) is spot-checked on a few pairs and
    enforced structurally (the Gram is built from one triangle).
    """
    z = pts.points
    n = len(pts)
    for (i, j) in [(0, min(1, n - 1)), (0, n - 1), (n // 2, n - 1)]:
        a, b = kernel(z[i], z[j]), kernel(z[j], z[i])
        scale = 1.0 + abs(a)
        if abs(a - np.conj(b)) > 1e-10 * scale:
            raise NonHermitianKernelError(
                f"kernel not Hermitian at sample pair ({i}, {j}): "
                f"{a} vs conj({b})")
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        G[i, i] = kernel(z[i], z[i])
        for j in range(i + 1, n):
            G[i, j] = kernel(z[i], z[j])
            G[j, i] = np.conj(G[i, j])
    return _gram_report(G, name, tol)


# -- function evaluation dispatch ------------------------------------------


def values_at(f, points: np.ndarray) -> np.ndarray:
    """Evaluate series, datum, measure function, or plain callable on points."""
    if hasattr(f, "values_at"):
        return f.values_at(points)
    if callable(f):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        return np.array([f(p) for p in pts], dtype=complex)
    raise TypeError(f"cannot evaluate object of type {type(f)!r}")


def _pair_matrix(pts: PointSet) -> np.ndarray:
    z = pts.points
    return z @ np.conj(z.T)       # <z_i, z_j>


def splus_test(f, pts: PointSet, tol: Optional[float] = None) -> KernelReport:
    """PSD verdict for (f(z) + conj(f(w))) / (1 - <z, w>) on the point set."""
    v = values_at(f, pts.points)
    ip = _pair_matrix(pts)
    G = (v[:, None] + np.conj(v[None, :])) / (1.0 - ip)
    return _gram_report(G, "splus", tol)


def schur_test(phi, pts: PointSet, tol: Optional[float] = None) -> KernelReport:
    """PSD verdict for (1 - phi(z) conj(phi(w))) / (1 - <z, w>)."""
    v = values_at(phi, pts.points)
    ip = _pair_matrix(pts)
    G = (1.0 - v[:, None] * np.conj(v[None, :])) / (1.0 - ip)
    return _gram_report(G, "schur", tol)


def kT_test(T: OperatorTuple, pts: PointSet, tol: Optional[float] = None,
            n_eta: int = 8, seed: int = 0) -> KernelReport:
    """Vector-sampled PSD test of (I - <z,T><w,T>*) / (1 - <z,w>).

    The operator kernel is compressed along random unit vectors eta; the
    worst min-eigenvalue over the batch is reported.
    """
    z = pts.points
    A = T.zeta_dot_many(z)                     # (m, n, n)
    ip = _pair_matrix(pts)
    # B[i, j] = A_i A_j^*
    B = np.einsum("ink,jmk->ijnm", A, np.conj(A))
    rng = np.random.default_rng(seed)
    worst = None
    for _ in range(n_eta):
        eta = rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n)
        eta /= np.linalg.norm(eta)
        quad = np.einsum("ijnm,n,m->ij", B, np.conj(eta), eta)
        G = (1.0 - quad) / (1.0 - ip)
        rep = _gram_report(G, "kT", tol)
        if worst is None or rep.min_eig < worst.min_eig:
            worst = rep
    return worst


# -- extreme kernel functions ----------------------------------------------


def _unit_mass(zeta: Sequence[complex], what: str) -> AtomicMeasure:
    """The unit point mass at zeta, an extreme ray of M+; |zeta| = 1."""
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(zeta) - 1.0) > 1e-12:
        raise ValueError(f"{what} point must lie on the unit sphere")
    return AtomicMeasure(zeta[None, :], np.ones(1), "boundary")


def extreme_h(zeta: Sequence[complex], N: int) -> TruncatedSeries:
    """Truncation of (1 + <z, zeta>) / (1 - <z, zeta>) for |zeta| = 1:
    c_0 = 1 and c_alpha = 2 w(alpha) conj(zeta)^alpha, the transform of the
    unit point mass at zeta."""
    return herglotz_of_measure(_unit_mass(zeta, "extreme kernel"), 0.0, N)


class BoundaryKernel(HerglotzMeasureFunction):
    """Exact evaluator of the boundary kernel function
    (1 + <z, zeta>) / (1 - <z, zeta>) for |zeta| = 1: the measure transform
    of the unit point mass at zeta, with its pole clamping."""

    def __init__(self, zeta: Sequence[complex]):
        super().__init__(_unit_mass(zeta, "boundary kernel"))


class ShiftedBoundaryKernel:
    """h_(e1) + z_2^2 / 4 in two variables: a positive-real-part function
    outside the kernel-generated classes' usual sample pool."""

    d = 2

    def __init__(self):
        self.base = BoundaryKernel(np.array([1.0, 0.0]))

    def values_at(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        return self.base.values_at(pts) + 0.25 * pts[:, 1] ** 2


# -- class generators -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClassMember:
    """A generated member of one of the positive classes, read off its
    backing: a measure, a Herglotz datum, or, for a sample with neither, its
    evaluator."""

    kind: str               # "M+" | "R+" | "S+" | "O+"
    backing: object         # AtomicMeasure | HerglotzDatum | has d and values_at

    @property
    def d(self) -> int:
        return self.backing.d

    @property
    def measure(self) -> Optional[AtomicMeasure]:
        return self.backing if isinstance(self.backing, AtomicMeasure) else None

    @property
    def datum(self) -> Optional[HerglotzDatum]:
        return self.backing if isinstance(self.backing, HerglotzDatum) else None

    @cached_property
    def evaluator(self):
        """The transform of a measure backing, the function the duality
        reductions pair against, built once so that its clamp count
        accumulates; otherwise the backing itself."""
        if self.measure is not None:
            return HerglotzMeasureFunction(self.measure)
        return self.backing

    def values_at(self, points: np.ndarray) -> np.ndarray:
        return values_at(self.evaluator, points)

    def series(self, N: int) -> TruncatedSeries:
        from .optuple import herglotz_taylor
        if self.datum is not None:
            return herglotz_taylor(self.datum, N)
        if self.measure is not None:
            return herglotz_of_measure(self.measure, 0.0, N)
        raise TypeError(f"no series form for this {self.kind} member")


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_boundary_measure(d: int, seed: int, max_atoms: int = 8) -> AtomicMeasure:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_atoms + 1))
    pts = sphere_sample(d, n, rng)
    w = rng.uniform(0.2, 1.0, n)
    return AtomicMeasure(pts, w, "boundary")


def random_row_contraction(d: int, n: int, seed: int) -> OperatorTuple:
    """Gaussian tuple scaled so the row block [T_1 ... T_d] has norm drawn
    uniformly from [0.3, 1.0]."""
    rng = np.random.default_rng(seed)
    mats = (rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n)))
    row = np.concatenate(list(mats), axis=1)
    s = np.linalg.norm(row, 2)
    target = rng.uniform(0.3, 1.0)
    return OperatorTuple(mats * (target / s))


def random_commuting_contraction(d: int, n: int, seed: int) -> OperatorTuple:
    """Either a unitary conjugation of a diagonal tuple whose rows lie in the
    closed ball, or a conjugated nilpotent pair; the latter produces members
    with no boundary-atomic backing."""
    rng = np.random.default_rng(seed)
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


def generate_member(kind: str, seed: int, d: int = 2, n: int = 4,
                    max_atoms: int = 8) -> ClassMember:
    """Sample a member of M+, R+, or S+ from its generator family."""
    rng = np.random.default_rng(seed)
    if kind == "M+":
        mu = random_boundary_measure(d, seed, max_atoms)
        return ClassMember("M+", mu)
    if kind == "R+":
        T = random_commuting_contraction(d, n, seed)
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi /= math.sqrt(n)
        datum = HerglotzDatum(T, xi, 0.0)
        return ClassMember("R+", datum)
    if kind == "S+":
        T = random_row_contraction(d, n, seed)
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi /= math.sqrt(n)
        datum = HerglotzDatum(T, xi, 0.0)
        return ClassMember("S+", datum)
    raise ValueError(f"unknown class kind {kind!r}")


def opool_member(seed: int, d: int = 2) -> ClassMember:
    """A positive-real-part sample: rotates through the class generators,
    boundary kernels, and (for d = 2) the shifted boundary kernel that has
    no kernel-transform backing."""
    slot = seed % 5
    if slot == 0:
        return generate_member("S+", seed, d=d)
    if slot == 1:
        return generate_member("R+", seed, d=d)
    if slot == 2:
        return generate_member("M+", seed, d=d)
    if slot == 3:
        rng = np.random.default_rng(seed)
        zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        zeta /= np.linalg.norm(zeta)
        return ClassMember("O+", _unit_mass(zeta, "boundary kernel"))
    if d == 2:
        return ClassMember("O+", ShiftedBoundaryKernel())
    return generate_member("S+", seed + 1, d=d)


# -- duality sweeps ---------------------------------------------------------


def qr_exact_vs_atoms(f: ClassMember, g: ClassMember,
                      r_grid: Sequence[float]) -> np.ndarray:
    """2 f(r p_j) for r in r_grid (rows) and atoms p_j of measure-backed g
    (columns), f exact and evaluated once: Q_r of f against the mass at p_j."""
    rp = np.multiply.outer(r_grid, g.measure.points)        # (r, atom, d)
    return 2.0 * f.values_at(rp.reshape(-1, rp.shape[2])).reshape(rp.shape[:2])


def qr_exact_vs_commuting(f: ClassMember, g: ClassMember,
                          r_grid: Sequence[float]) -> list:
    """Q_r(f, g) at each r of the grid for commuting datum-backed g, through
    the joint resolvent.

    With f given by (T_f, xi_f) and g by (T_g, xi_g), the reflected dilate of
    f evaluated on T_g is the compression of the kernel at the Kronecker
    tuple sum_j T_gj (x) conj(T_fj); the pairing is twice the conjugate of
    the resulting quadratic form.  A measure-backed f contributes one such
    form per atom.  Exact whenever the joint spectral radius is below 1/r,
    which holds for weak-contractive f and ball-spectrum g.  The tuples are
    built once, and each term is solved for the whole grid in one stack.
    A non-commuting g raises NonCommutingError: the reduction does not hold
    for it.
    """
    Tg = g.datum.tuple
    require_commuting(Tg)
    if f.datum is not None:
        Tf = f.datum.tuple
        M = sum(np.kron(Tg.matrices[j], np.conj(Tf.matrices[j]))
                for j in range(Tg.d))
        terms = [(1.0, M, np.kron(g.datum.xi, np.conj(f.datum.xi)))]
        eye = np.eye(M.shape[0], dtype=complex)
    elif f.measure is not None:
        terms = [(wgt, sum(point[j] * Tg.matrices[j] for j in range(Tg.d)),
                  g.datum.xi)
                 for point, wgt in zip(f.measure.points, f.measure.weights)]
        eye = np.eye(Tg.n, dtype=complex)
    else:
        raise TypeError("commuting reduction needs datum- or measure-backed f")
    solved = [(wgt, np.linalg.solve(eye - np.multiply.outer(r_grid, M), v), v)
              for wgt, M, v in terms]
    out = []
    for i in range(len(r_grid)):
        total = 0.0 + 0.0j
        for wgt, ys, v in solved:
            total += wgt * (2.0 * np.vdot(v, ys[i]) - np.vdot(v, v))
        out.append(complex(2.0 * np.conj(total)))
    return out


def duality_sweep(pairs: Sequence[tuple], r_grid: Sequence[float] = R_GRID) -> dict:
    """Minimum of Re Q_r over the given (f, g) pairs, the boundary atoms of
    measure-backed g, and the r grid.

    The pairing is evaluated through the exact reductions (atom sums for
    measure-backed g, the joint resolvent for commuting datum-backed g), so
    the sweep sees the true pairing rather than a truncation partial sum,
    which can dip negative near the boundary for finite degree.  Each
    reduction takes the whole r grid at once.

    When g is backed by a boundary-supported measure, each atom p_j is also
    tested on its own: 2 f(r p_j) is Q_r of f against the unit point mass at
    p_j, an extreme ray of M+.  These values come from the same evaluation
    as the atom sum, so a negative region of f is not averaged away by the
    other atoms.  Interior atoms and datum-backed g are paired whole only.

    A negative minimum, with its witness ``argmin`` (pair index, atom index
    or None for a whole pairing, r), certifies that f lies outside the dual
    of M+.  A non-negative minimum is evidence only.  ``pairs`` and
    ``r_grid`` give the pairing evaluations made; ``atoms`` counts the
    boundary atoms tested, each at every r of the grid.
    """
    min_re = math.inf
    argmin = None
    atoms = 0
    for k, (f, g) in enumerate(pairs):
        boundary = g.measure is not None and g.measure.support == "boundary"
        if boundary:
            atoms += len(g.measure.weights)
        if g.measure is not None:
            atom_rows = qr_exact_vs_atoms(f, g, r_grid)
            wholes = [complex(np.sum(g.measure.weights * row)) for row in atom_rows]
        elif g.datum is not None:
            wholes = qr_exact_vs_commuting(f, g, r_grid)
        else:
            raise TypeError("sweep g-side needs a measure or datum backing")
        for i, (r, q) in enumerate(zip(r_grid, wholes)):
            if q.real < min_re:
                min_re = q.real
                argmin = {"pair": k, "atom": None, "r": r, "value": q.real}
            if boundary and atom_rows[i].size:
                re = atom_rows[i].real
                j = int(re.argmin())
                if re[j] < min_re:
                    min_re = float(re[j])
                    argmin = {"pair": k, "atom": j, "r": r, "value": min_re}
    return {"min_re": min_re, "argmin": argmin, "pairs": len(pairs),
            "atoms": atoms, "r_grid": list(r_grid)}


def sample_duality_pairs(kind_f: str, kind_g: str, trials: int, seed: int,
                         d: int = 2) -> list:
    """(f, g) sample pairs for the class-duality sweeps."""
    pairs = []
    for k in range(trials):
        if kind_f == "O+":
            f = opool_member(seed + 2 * k, d=d)
        else:
            f = generate_member(kind_f, seed + 2 * k, d=d)
        g = generate_member(kind_g, seed + 2 * k + 1, d=d)
        pairs.append((f, g))
    return pairs


# -- rigidity probe ----------------------------------------------------------


def _disk_candidates(d: int) -> list:
    xs = [0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9, 0.95, -0.95]
    pts = []
    for x in xs:
        p = np.zeros(d, dtype=complex)
        p[0] = x
        pts.append(p)
    return pts


def schwarz_probe(g: TruncatedSeries, budget: int = 200, seed: int = 0,
                  tol: Optional[float] = None) -> KernelReport:
    """Search for a Schur-kernel Gram violation of a normalized candidate.

    Preconditions: g(0) = 0 and the z_1 coefficient is 1 (to 1e-12).  Any
    candidate other than z_1 itself must fail the kernel test on some finite
    set; the search mixes structured sets (pairs on the z_1 disk plus an
    off-disk point, where the rank-one restriction forces violations) with
    random and boundary-biased sets.  Returns the first failing report, or a
    passing report once the budget is exhausted.
    """
    if g.d < 1:
        raise PreconditionError("need at least one variable")
    e1 = (1,) + (0,) * (g.d - 1)
    if abs(g.constant_term) > 1e-12 or abs(g.coeff(e1) - 1.0) > 1e-12:
        raise PreconditionError(
            "probe requires g(0) = 0 and unit z_1 coefficient")

    rng = np.random.default_rng(seed)
    disk = _disk_candidates(g.d)
    tried = 0
    last = None

    def try_set(points: np.ndarray) -> Optional[KernelReport]:
        nonlocal tried, last
        if tried >= budget:
            return None
        tried += 1
        ps = PointSet(np.array(points), seed, 1.0)
        rep = schur_test(g, ps, tol)
        last = rep
        return rep if rep.verdict == "fail" else None

    # structured sets: two disk points plus an off-axis companion
    for x1 in disk:
        rep = try_set([x1])
        if rep:
            return rep
    if g.d >= 2:
        for x1 in disk[:6]:
            for x2 in disk[:6]:
                if np.allclose(x1, x2):
                    continue
                for _ in range(2):
                    off = rng.standard_normal(g.d) + 1j * rng.standard_normal(g.d)
                    off /= np.linalg.norm(off)
                    off *= rng.uniform(*BOUNDARY_BIASED_RANGE)
                    rep = try_set([x1, x2, off])
                    if rep:
                        return rep
    # random and boundary-biased sets
    while tried < budget:
        maker = random_pointset if tried % 2 == 0 else boundary_biased_pointset
        ps = maker(g.d, DEFAULT_POINTS, seed=seed + tried)
        rep = schur_test(g, ps, tol)
        tried += 1
        last = rep
        if rep.verdict == "fail":
            return rep
    min_eig = last.min_eig if last is not None else 0.0
    return KernelReport("schur-rigidity (budget exhausted)", tried, min_eig,
                        last.tol if last else 0.0, "pass", None)


# -- bounded-atom representability -------------------------------------------


def mplus_atom_fit_residual(f: TruncatedSeries, n_atoms: int = 8,
                            restarts: int = 20, seed: int = 0) -> float:
    """Best l2 coefficient residual of a boundary measure with at most
    n_atoms atoms against the target truncation.

    Multi-start local least squares over atom positions (on the sphere) and
    positive weights.  A residual bounded away from zero certifies that no
    such atomic representation matches the truncated coefficients; it says
    nothing about non-atomic measures.
    """
    d, N = f.d, f.N
    target = f.coeffs
    weights_arr = weight_array(d, N)

    def model_coeffs(points: np.ndarray, masses: np.ndarray) -> np.ndarray:
        c = 2.0 * weights_arr * _monomial_sums(np.conj(points), masses, N)
        c[0] = masses.sum()
        return c

    def unpack(x: np.ndarray):
        raw = x[: 2 * n_atoms * d].reshape(n_atoms, 2 * d)
        pts = raw[:, :d] + 1j * raw[:, d:]
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        norms = np.where(norms < 1e-9, 1.0, norms)
        pts = pts / norms
        masses = np.exp(np.clip(x[2 * n_atoms * d:], -30.0, 6.0))
        return pts, masses

    def objective(x: np.ndarray) -> float:
        pts, masses = unpack(x)
        diff = model_coeffs(pts, masses) - target
        return float(np.sum(np.abs(diff) ** 2))

    import scipy.optimize
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(restarts):
        x0 = np.concatenate([
            rng.standard_normal(2 * n_atoms * d),
            rng.normal(-1.0, 0.5, n_atoms),
        ])
        res = scipy.optimize.minimize(objective, x0, method="L-BFGS-B",
                                      options={"maxiter": 400})
        best = min(best, float(res.fun))
    return best
