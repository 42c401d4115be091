"""Truncated multivariate Taylor series on the complex unit ball.

A multi-index is a tuple of nonnegative ints at the API and a position in
one graded order inside.  A ``TruncatedSeries`` stores every coefficient
c_alpha with ``|alpha| <= N`` densely in that order (total degree first,
descending lexicographic within each grade), the one basis layout of the
package.  Indices of degree ``<= m`` form a prefix, and in a grade those with
the same first nonzero coordinate form a block.  Every index table is built
from those blocks (``_grade_steps``) and the index of alpha + e_j (``_shifts``).
Values at points stream one grade of monomials at a time (``_grade_chunks``),
each from the one below, so an evaluation holds two grades of one point chunk,
at most ``_EVAL_BYTES``, besides its (N+1) x points grade values.

Values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

MAX_DIMENSION = 4
MAX_DEGREE = 16
DEFAULT_DEGREE = 10
WEIGHT_DEGREE_CAP = 20

_EVAL_BYTES = 4 << 20          # two adjacent monomial grades per point chunk


class DimensionMismatchError(ValueError):
    """Operands live in a different number of variables."""


class SizeCapError(ValueError):
    """A resource cap of the series layer or of the Fock models was exceeded."""


class SeriesDomainError(ArithmeticError):
    """A series transform hit a pole or a divergence guard."""


def simplex_size(d: int, N: int) -> int:
    """Number of multi-indices alpha in d variables with |alpha| <= N."""
    return math.comb(N + d, d)


@lru_cache(maxsize=None)
def enumerate_multiindices(d: int, N: int) -> tuple:
    """All multi-indices with |alpha| <= N in the canonical graded order.

    The order is stable across runs: grades ascend, and inside a grade the
    tuples descend lexicographically, e.g. (2,0), (1,1), (0,2) for d=2, k=2.
    """
    if d < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {d}")
    if N < 0:
        raise ValueError(f"degree must be >= 0, got {N}")
    return tuple(map(tuple, _exponents(d, N).tolist()))


def index_of(d: int, N: int, alpha: Sequence[int]) -> int:
    """Position of alpha in enumerate_multiindices(d, N), reached from index
    0 by alpha_j steps of _shifts[j] per j; KeyError if alpha is not in
    that simplex."""
    alpha = tuple(alpha)
    if len(alpha) != d or min(alpha, default=0) < 0 or sum(alpha) > N:
        raise KeyError(alpha)
    shifts, i = _shifts(d, N), 0
    for j, a in enumerate(alpha):
        for _ in range(a):
            i = shifts[j, i]
    return int(i)


@lru_cache(maxsize=None)
def grade_slices(d: int, N: int) -> tuple:
    """(start, end) index ranges of each grade 0..N in the enumeration."""
    return tuple((simplex_size(d, k - 1), simplex_size(d, k)) for k in range(N + 1))


@lru_cache(maxsize=None)
def grade_array(d: int, N: int) -> np.ndarray:
    g = _exponents(d, N).sum(axis=1)
    g.setflags(write=False)
    return g


@lru_cache(maxsize=None)
def _factorials(k: int) -> np.ndarray:
    """0!, ..., k! as int64, exact up to the exact-weight cap (20! < 2^63;
    a product of part factorials never exceeds the factorial of the sum)."""
    if k > WEIGHT_DEGREE_CAP:
        raise SizeCapError(
            f"|alpha| = {k} exceeds the exact-weight cap {WEIGHT_DEGREE_CAP}")
    fact = np.array([math.factorial(i) for i in range(k + 1)], dtype=np.int64)
    fact.setflags(write=False)
    return fact


@lru_cache(maxsize=None)
def _exponents(d: int, N: int) -> np.ndarray:
    """(m, d) array of the multi-indices in enumeration order, each block of
    _grade_steps its parents plus e_j."""
    e = np.zeros((simplex_size(d, N), d), dtype=np.int64)
    for j, a, b, pa, pb in _grade_steps(d, N):
        e[a:b] = e[pa:pb]
        e[a:b, j] += 1
    e.setflags(write=False)
    return e


@lru_cache(maxsize=None)
def _grade_steps(d: int, N: int) -> tuple:
    """(j, a, b, pa, pb) per grade k = 1..N and variable j, in order: a:b
    are the indices of grade k whose first nonzero coordinate is j, pa:pb
    their parents alpha - e_j: the suffix of grade k - 1 zero before j."""
    steps, slices = [], grade_slices(d, N)
    for k in range(1, N + 1):
        a, pb = slices[k][0], slices[k - 1][1]
        for j in range(d):
            size = math.comb(k + d - j - 2, d - j - 1)
            steps.append((j, a, a + size, pb - size, pb))
            a += size
    return tuple(steps)


@lru_cache(maxsize=None)
def _shifts(d: int, N: int) -> np.ndarray:
    """(d, simplex_size(d, N - 1)) array: the index of alpha + e_j.

    Where alpha is zero before j, alpha + e_j is the entry of grade block j
    matching the parent slot of alpha.  Otherwise alpha = alpha' + e_j0, j0
    < j its first nonzero coordinate, and alpha + e_j is the j-shift of
    alpha' moved by the offset of grade block j0 one grade up."""
    _check_dimension(d)
    out = np.empty((d, simplex_size(d, N - 1)), dtype=np.int64)
    steps = _grade_steps(d, N)
    for j, a, b, pa, pb in steps:
        out[j, pa:pb] = np.arange(a, b)
    for (j0, a, b, pa, pb), (_, na, _, npa, _) in zip(steps, steps[d:]):
        out[j0 + 1:, a:b] = out[j0 + 1:, pa:pb] + (na - npa)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def weight_array(d: int, N: int) -> np.ndarray:
    """Multinomial weight |alpha|!/alpha! per index, the number of distinct
    words with letter multiplicities alpha: exact, as float64."""
    fact = _factorials(N)
    exps = _exponents(d, N)
    arr = (fact[exps.sum(axis=1)] // fact[exps].prod(axis=1)).astype(float)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def weight_ratio_array(d: int, N: int) -> np.ndarray:
    """alpha!/|alpha|! = 1/weight_array per index, as float64."""
    arr = 1.0 / weight_array(d, N)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _product_table(d: int, N: int) -> tuple:
    """Per index i, the output indices of alpha_i + beta for every beta with
    |beta| <= N - |alpha_i| (betas are the prefix of the enumeration): the
    row of alpha - e_j, cut to that width, shifted by _shifts[j]."""
    shifts, slices, steps = _shifts(d, N), grade_slices(d, N), _grade_steps(d, N)
    blocks = [np.arange(simplex_size(d, N))[None]]
    for k in range(1, N + 1):
        (lo, _), (a0, b0) = slices[k - 1], slices[k]
        width = simplex_size(d, N - k)
        block = np.empty((b0 - a0, width), dtype=np.int64)
        for j, a, b, pa, pb in steps[(k - 1) * d:k * d]:
            block[a - a0:b - a0] = shifts[j][blocks[-1][pa - lo:pb - lo, :width]]
        blocks.append(block)
    for block in blocks:
        block.setflags(write=False)
    return tuple(row for block in blocks for row in block)


def _grade_chunks(Z: np.ndarray, N: int):
    """Monomial values of the rows of Z, |alpha| <= N, one grade at a time.

    Yields (lo, k, P_k) for each point chunk lo and grade k = 0..N, with
    P_k[i, p] = Z[lo + p] ** alpha for the i-th index alpha of grade k,
    monomial-major.  Each block of _grade_steps fills its rows of P_k by one
    slice product from its parents in P_{k-1}.  Two buffers, one for the
    even and one for the odd grades, hold the stream: a chunk spans
    _EVAL_BYTES over the widest even and odd grades, the two widest adjacent
    ones, and P_k is valid only until grade k + 2 is yielded.
    """
    npts, d = Z.shape
    slices = grade_slices(d, N)
    ZT = np.asarray(Z, dtype=complex).T
    rows = [max((b - a for a, b in slices[parity::2]), default=0) for parity in (0, 1)]
    step = max(1, min(npts, _EVAL_BYTES // (16 * sum(rows))))
    bufs = [np.empty(step * r, dtype=complex) for r in rows]
    steps = _grade_steps(d, N)
    for lo in range(0, npts, step):
        chunk = np.ascontiguousarray(ZT[:, lo:lo + step])
        width = chunk.shape[1]
        P = bufs[0][:width].reshape(1, width)
        P.fill(1.0)
        yield lo, 0, P
        for k in range(1, N + 1):
            (plo, _), (a0, b0) = slices[k - 1], slices[k]
            P, prev = bufs[k % 2][:(b0 - a0) * width].reshape(b0 - a0, width), P
            for j, a, b, pa, pb in steps[(k - 1) * d:k * d]:
                np.multiply(prev[pa - plo:pb - plo], chunk[j], out=P[a - a0:b - a0])
            yield lo, k, P


def _monomial_sums(Z: np.ndarray, w: np.ndarray, N: int) -> np.ndarray:
    """sum_p w_p Z[p] ** alpha for each alpha with |alpha| <= N."""
    out = np.zeros(simplex_size(Z.shape[1], N), dtype=complex)
    slices = grade_slices(Z.shape[1], N)
    for lo, k, P in _grade_chunks(Z, N):
        out[slice(*slices[k])] += P @ w[lo:lo + P.shape[1]]
    return out


def _grade_values(fs: Sequence["TruncatedSeries"], pts: np.ndarray) -> list:
    """grade_values of each series in fs (all in pts.shape[1] variables),
    contracted from one monomial stream built to their largest degree;
    beyond the (N+1, npoints) results it holds two grades of one chunk."""
    out = [np.empty((f.N + 1, pts.shape[0]), dtype=complex) for f in fs]
    slices = grade_slices(pts.shape[1], max(f.N for f in fs))
    for lo, k, P in _grade_chunks(pts, len(slices) - 1):
        for f, grades in zip(fs, out):
            if k <= f.N:
                grades[k, lo:lo + P.shape[1]] = f.coeffs[slice(*slices[k])] @ P
    return out


def _add_products(out: np.ndarray, c: np.ndarray, u: np.ndarray,
                  lo: int, hi: int, table: tuple) -> None:
    """out[alpha_i + beta] += c_i u_beta for the nonzero c_i, lo <= i < hi,
    one index i at a time in ascending order."""
    for i in np.nonzero(c[lo:hi])[0] + lo:
        row = table[i]
        out[row] += c[i] * u[: len(row)]


def _check_dimension(d: int, what: str = "dimension") -> None:
    if d < 1:
        raise ValueError(f"{what} must be >= 1, got {d}")
    if d > MAX_DIMENSION:
        raise SizeCapError(f"{what} = {d} exceeds the cap {MAX_DIMENSION}")


def _check_same_d(f, g) -> None:
    """DimensionMismatchError unless f and g have one number of variables."""
    if f.d != g.d:
        raise DimensionMismatchError(f"f has d = {f.d} and g has d = {g.d}: f and g need "
                                     f"one number of variables")


def _check_caps(d: int, N: int) -> None:
    """Dimension and degree caps of a truncation; callers that build
    tables for a (d, N) from user input check these first."""
    _check_dimension(d)
    if N < 0:
        raise ValueError(f"degree must be >= 0, got {N}")
    if N > MAX_DEGREE:
        raise SizeCapError(f"degree {N} exceeds the cap {MAX_DEGREE}")


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Dense complex coefficients on the simplex |alpha| <= N.

    ``from_boundary_measure`` marks truncations that stand for functions
    generated by a boundary-supported measure; the pairing layer refuses the
    r = 1 pairing for those (the underlying function need not extend past
    the sphere).
    """

    d: int
    N: int
    coeffs: np.ndarray
    from_boundary_measure: bool = False

    def __post_init__(self):
        _check_caps(self.d, self.N)
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (simplex_size(self.d, self.N),):
            raise DimensionMismatchError(
                f"expected {simplex_size(self.d, self.N)} coefficients for "
                f"d={self.d}, N={self.N}, got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, d: int, N: int, value: complex) -> "TruncatedSeries":
        c = np.zeros(simplex_size(d, N), dtype=complex)
        c[0] = value
        return cls(d, N, c)

    @classmethod
    def monomial(cls, d: int, N: int, alpha: Sequence[int],
                 value: complex = 1.0) -> "TruncatedSeries":
        alpha = tuple(int(a) for a in alpha)
        c = np.zeros(simplex_size(d, N), dtype=complex)
        c[index_of(d, N, alpha)] = value
        return cls(d, N, c)

    # -- basic accessors ----------------------------------------------

    def coeff(self, alpha: Sequence[int]) -> complex:
        return complex(self.coeffs[index_of(self.d, self.N, alpha)])

    @property
    def constant_term(self) -> complex:
        return complex(self.coeffs[0])

    def truncate(self, M: int) -> "TruncatedSeries":
        if M >= self.N:
            return self
        return TruncatedSeries(self.d, M, self.coeffs[:simplex_size(self.d, M)],
                               from_boundary_measure=self.from_boundary_measure)

    # -- arithmetic ----------------------------------------------------

    def _match(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        _check_same_d(self, other)

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._match(other)
        N = min(self.N, other.N)
        m = simplex_size(self.d, N)
        return TruncatedSeries(self.d, N, self.coeffs[:m] + other.coeffs[:m])

    def scale(self, c: complex) -> "TruncatedSeries":
        return TruncatedSeries(self.d, self.N, self.coeffs * c)

    def multiply(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated to min(N_f, N_g)."""
        self._match(other)
        N = min(self.N, other.N)
        m = simplex_size(self.d, N)
        cf = self.coeffs[:m]
        cg = other.coeffs[:m]
        out = np.zeros(m, dtype=complex)
        _add_products(out, cf, cg, 0, m, _product_table(self.d, N))
        return TruncatedSeries(self.d, N, out)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def dilate(self, r: float) -> "TruncatedSeries":
        """f(z) -> f(r z): c_alpha -> r^|alpha| c_alpha, 0 <= r <= 1."""
        if not 0.0 <= r <= 1.0:
            raise SeriesDomainError(f"dilation radius must be in [0, 1], got {r}")
        scal = np.power(r, grade_array(self.d, self.N).astype(float))
        return TruncatedSeries(self.d, self.N, self.coeffs * scal,
                               from_boundary_measure=self.from_boundary_measure)

    def reflect(self) -> "TruncatedSeries":
        """c_alpha -> conj(c_alpha); the coefficient form of conj(f(conj z))."""
        return TruncatedSeries(self.d, self.N, np.conj(self.coeffs),
                               from_boundary_measure=self.from_boundary_measure)

    # -- evaluation ----------------------------------------------------

    def grade_values(self, points: np.ndarray) -> np.ndarray:
        """Values of each homogeneous part, shape (N+1, npoints): callers can
        reweight grades (dilations, radial operators) without re-evaluating."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        if pts.shape[1] != self.d:
            raise DimensionMismatchError(
                f"points have {pts.shape[1]} coordinates, series has d={self.d}")
        return _grade_values([self], pts)[0]

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (npoints, d) array, accumulating grade by grade."""
        grades = self.grade_values(points)
        out = grades[0].copy()
        for k in range(1, self.N + 1):
            out += grades[k]
        return out

    def evaluate(self, z: Sequence[complex]) -> complex:
        return complex(self.values_at(np.asarray(z, dtype=complex).reshape(1, -1))[0])

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        alphas = enumerate_multiindices(self.d, self.N)
        for i in np.nonzero(self.coeffs)[0]:
            c = self.coeffs[i]
            entries.append({"alpha": list(alphas[i]), "re": float(c.real),
                            "im": float(c.imag)})
        return {"d": self.d, "N": self.N, "coeffs": entries}

    @classmethod
    def from_json(cls, obj: dict) -> "TruncatedSeries":
        """The inverse of ``to_json``.  d, N and the exponents are integral
        numbers, re and im finite ones, each alpha has d entries and comes
        once, the object has no key but d, N and coeffs and a coefficient
        none but alpha, re and im; anything else is a ValueError."""
        _json_keys(obj, ("d", "N", "coeffs"), "series", ("d", "N"))
        d, N = _json_int(obj["d"], "d"), _json_int(obj["N"], "N")
        _check_caps(d, N)
        c = np.zeros(simplex_size(d, N), dtype=complex)
        seen = set()
        for entry in _json_list(obj.get("coeffs", []), "coeffs"):
            _json_keys(entry, ("alpha", "re", "im"), "coefficient", ("alpha",))
            alpha = tuple(_json_int(a, "an exponent") for a in _json_list(entry["alpha"], "alpha"))
            if len(alpha) != d:
                raise ValueError(f"coefficient {alpha} needs {d} exponents")
            if sum(alpha) > N:
                raise ValueError(f"coefficient {alpha} beyond declared degree {N}")
            if alpha in seen:
                raise ValueError(f"coefficient {alpha} given twice")
            seen.add(alpha)
            c[index_of(d, N, alpha)] = _json_complex((entry.get("re", 0.0), entry.get("im", 0.0)),
                                                     f"re/im of coefficient {alpha}")
        return cls(d, N, c)


def _json_int(value, what: str) -> int:
    """An integral JSON number (2 or 2.0) as an int; ValueError otherwise."""
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _json_float(value, what: str) -> float:
    """A finite JSON number as a float; ValueError otherwise (a boolean,
    a string, or an integer past the float range included)."""
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and abs(value) <= float(np.finfo(float).max)):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _json_complex(value, what: str, depth: int = 0):
    """A JSON [re, im] pair of finite numbers as a complex, the mirror of
    ``cli._c2``, or at depth k such pairs in lists nested k deep whose
    entries at each level have one shape (a ragged array is a ValueError)."""
    if depth:
        out = [_json_complex(v, what, depth - 1) for v in _json_list(value, what)]
        if depth > 1 and len(shapes := {np.shape(v) for v in out}) > 1:
            raise ValueError(f"{what} is ragged: its entries have shapes {sorted(shapes)}")
        return out
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{what} must be an [re, im] pair, got {value!r}")
    return complex(_json_float(value[0], what), _json_float(value[1], what))


def _json_list(value, what: str) -> list:
    """A JSON list (or a tuple, as in the defaults) as is; ValueError else."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _json_keys(obj: dict, allowed: Sequence[str], what: str,
               required: Sequence[str] = ()) -> None:
    """ValueError if obj is not a JSON object, has a key outside ``allowed``
    or lacks one of ``required``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    extra = set(obj) - set(allowed)
    if extra:
        raise ValueError(f"unknown {what} keys {sorted(extra)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{what}: missing key '{key}'")


def _divide(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Grade-recursive back-substitution for num/den, exact at truncation
    order.  Requires den(0) != 0."""
    num._match(den)
    N = min(num.N, den.N)
    m = simplex_size(num.d, N)
    v = num.coeffs[:m]
    u = den.coeffs[:m]
    u0 = u[0]
    if abs(u0) < 1e-12:
        raise SeriesDomainError("division pole: denominator constant term ~ 0")
    table = _product_table(num.d, N)
    slices = grade_slices(num.d, N)
    res = np.zeros(m, dtype=complex)
    conv = np.zeros(m, dtype=complex)      # (res so far) * u
    res[0] = v[0] / u0
    for k in range(1, N + 1):
        # grade k - 1 of res is final: add its products, after those of
        # the lower grades, so each entry sums in ascending index order
        _add_products(conv, res, u, *slices[k - 1], table)
        a, b = slices[k]
        res[a:b] = (v[a:b] - conv[a:b]) / u0
    return TruncatedSeries(num.d, N, res)


def cayley(f: TruncatedSeries, direction: str) -> TruncatedSeries:
    """Moebius transform between the Schur-class normalization and the
    positive-real-part normalization.

    schur_to_herglotz: phi -> (1 + phi) / (1 - phi),  needs phi(0) != 1
    herglotz_to_schur: f   -> (f - 1) / (f + 1),      needs f(0) != -1
    """
    one = TruncatedSeries.constant(f.d, f.N, 1.0)
    if direction == "schur_to_herglotz":
        return _divide(one.add(f), one.add(f.scale(-1.0)))
    if direction == "herglotz_to_schur":
        return _divide(f.add(one.scale(-1.0)), f.add(one))
    raise ValueError(f"unknown Cayley direction {direction!r}")

