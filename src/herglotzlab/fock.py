"""Truncated Fock-space models, operator norms, and the separation experiment.

The full Fock side carries left creation operators on words over {1..d}; the
symmetric side carries the coordinate shifts on the normalized monomial
basis.  Words are never stored: in graded lexicographic order the word
(j+1) w, with w of grade k and rank r and j = 0..d-1, sits at
fock_count(d, k) + j d^k + r, so each creation operator, and each word of
a polynomial in them, acts by one contiguous slice copy per grade.
Matrix-free norms run Lanczos on A*A with full reorthogonalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import SizeCapError, _exponents, _shifts, simplex_size

BASIS_SIZE_CAP = 10 ** 6
SHIFT_BYTES_CAP = 1 << 27      # the dense shifts of one dshift_operators call

LANCZOS_TOL = 1e-10
LANCZOS_MAX_STEPS = 300
LANCZOS_BREAKDOWN = 1e-12      # relative size of the new Krylov direction

DP_POLY_NAME = "z1 + z1*z2"
# Word algebra for p = z1 + z1 z2 on isometries with orthogonal ranges:
# (p^sym)*(p^sym) = (3/2) I + (1/2)(V2 + V2*), so the limiting norm is
# sqrt(5/2).  The truncated value is sqrt(3/2 + cos(pi/(L+2))).
DP_LIMIT_NORM = math.sqrt(2.5)


def fock_count(d: int, L: int) -> int:
    return (d ** (L + 1) - 1) // (d - 1) if d >= 2 else L + 1


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Word basis in graded lexicographic order, addressed by arithmetic.

    Grade k occupies indices offsets[k] .. offsets[k+1].  Prepending the
    word p = (i1..im) (letters 0-based) to grade k lands in the block of d^k
    indices starting at offsets[k+m] + rank(p) d^k, in the same order, where
    rank(p) reads p as base-d digits.
    """

    d: int
    L: int
    offsets: tuple          # offsets[k] = fock_count(d, k - 1), k = 0..L+1

    @classmethod
    def create(cls, d: int, L: int) -> "FockBasis":
        if d < 2:
            raise ValueError("full Fock model needs an alphabet of size >= 2")
        if L < 1:
            raise ValueError("word length cap must be >= 1")
        if fock_count(d, L) > BASIS_SIZE_CAP:
            raise SizeCapError(
                f"basis for d={d}, L={L} has {fock_count(d, L)} words, "
                f"cap is {BASIS_SIZE_CAP}")
        return cls(d, L, (0,) + tuple(fock_count(d, k) for k in range(L + 1)))

    @property
    def size(self) -> int:
        return self.offsets[-1]

    def _blocks(self, word: tuple, K: int):
        """(slice of grade k, slice of word + grade k) for k <= K that stay
        within the basis."""
        o, d, m = self.offsets, self.d, len(word)
        rank = 0
        for letter in word:
            rank = rank * d + letter
        for k in range(min(K, self.L - m) + 1):
            t = o[k + m] + rank * d ** k
            yield slice(o[k], o[k + 1]), slice(t, t + d ** k)

    def creation_rows(self, j: int) -> np.ndarray:
        """rows[c] = index of letter j prepended to word c, for |word c| < L."""
        return np.concatenate([np.arange(dst.start, dst.stop)
                               for _, dst in self._blocks((j,), self.L)])

    def apply_words(self, terms: dict, v: np.ndarray) -> np.ndarray:
        """sum_p c_p L_p v for the word polynomial ``terms`` {p: c_p}, where
        p = (i1..im) acts as L_i1 ... L_im.  v may cover grades 0..K only
        (len(v) = offsets[K+1]); the result covers the whole basis."""
        if len(v) not in self.offsets:
            raise ValueError(f"a vector of length {len(v)} does not end at a "
                             f"grade boundary of {self.offsets}")
        K = self.offsets.index(len(v)) - 1
        out = np.zeros(self.size, np.result_type(v, *terms.values()))
        for word, c in terms.items():
            for src, dst in self._blocks(word, K):
                out[dst] += c * v[src]
        return out

    def apply_words_adjoint(self, terms: dict, v: np.ndarray,
                            K: int = None) -> np.ndarray:
        """The adjoint of ``apply_words``, compressed to grades 0..K (all
        grades by default)."""
        K = self.L if K is None else K
        out = np.zeros(self.offsets[K + 1], np.result_type(v, *terms.values()))
        for word, c in terms.items():
            for src, dst in self._blocks(word, K):
                out[src] += np.conj(c) * v[dst]
        return out

    def apply_creation(self, j: int, v: np.ndarray) -> np.ndarray:
        """L_j v: word w -> j w for |w| < L, top grade to zero."""
        return self.apply_words({(j,): 1.0}, v)

    def apply_creation_adjoint(self, j: int, v: np.ndarray) -> np.ndarray:
        return self.apply_words_adjoint({(j,): 1.0}, v)


def creation_operators(d: int, L: int) -> list:
    """The d truncated left creation operators as sparse matrices.

    Exactly one unit entry per column below the top grade; the top grade is
    compressed to zero.
    """
    import scipy.sparse as sp
    basis = FockBasis.create(d, L)
    n = basis.size
    cols = np.arange(basis.offsets[L])
    data = np.ones(len(cols))
    return [sp.csr_matrix((data, (basis.creation_rows(j), cols)), shape=(n, n))
            for j in range(d)]


def dshift_operators(d: int, N: int) -> list:
    """Coordinate multiplication operators on the normalized monomial basis.

    S_j e_alpha = sqrt((alpha_j + 1)/(|alpha| + 1)) e_(alpha + e_j); the top
    grade maps to zero.  Returned dense; d shifts over SHIFT_BYTES_CAP raise
    SizeCapError before any allocation.
    """
    if d < 1 or N < 1:
        raise ValueError("need d >= 1, N >= 1")
    m = simplex_size(d, N)
    nbytes = d * m * m * np.dtype(complex).itemsize
    if nbytes > SHIFT_BYTES_CAP:
        raise SizeCapError(f"d={d}, N={N} needs {nbytes} bytes of dense shifts, "
                           f"cap is {SHIFT_BYTES_CAP}")
    shifts = _shifts(d, N)
    src = np.arange(shifts.shape[1])
    exps = _exponents(d, N)[src]
    ops = [np.zeros((m, m), dtype=complex) for _ in range(d)]
    for j, S in enumerate(ops):
        S[shifts[j], src] = np.sqrt((exps[:, j] + 1) / (exps.sum(axis=1) + 1))
    return ops


@dataclass(frozen=True)
class NormResult:
    value: float
    iters: int
    residual: float
    converged: bool


def operator_norm(A, method: str = "auto", iters: int = LANCZOS_MAX_STEPS,
                  tol: float = LANCZOS_TOL, x0: np.ndarray = None) -> NormResult:
    """Largest singular value.

    Dense arrays go through LAPACK unless method forces Lanczos; anything
    exposing matvec/rmatvec (or a sparse matrix with ``tocsr``) is handled
    matrix-free by Lanczos on A*A with full reorthogonalization (two
    classical Gram-Schmidt passes per step), started from x0 (a fixed
    random vector if None).  It stops at breakdown (the new direction is
    below LANCZOS_BREAKDOWN times ||A*A q||), when the Ritz residual bound
    beta_k |s_k| falls to tol * theta, or after ``iters`` steps; the Krylov
    basis grows one vector per step.  ``iters`` reports the steps taken,
    ``residual`` the true ||A*A x - theta x|| / theta of the Ritz vector x,
    and ``converged`` whether that residual is within tol.  Non-convergence
    is reported, not raised.
    """
    if method not in ("auto", "dense-svd", "lanczos"):
        raise ValueError(f"unknown norm method {method!r}")
    if isinstance(A, np.ndarray) and method in ("auto", "dense-svd"):
        s = np.linalg.svd(A, compute_uv=False)
        top = float(s[0]) if len(s) else 0.0
        return NormResult(top, 0, 0.0, True)

    if isinstance(A, np.ndarray):
        mv = lambda v: A @ v
        rmv = lambda v: A.conj().T @ v
    elif hasattr(A, "tocsr"):
        AH = A.conj().T.tocsr()
        mv = lambda v: A @ v
        rmv = lambda v: AH @ v
    else:
        mv, rmv = A.matvec, A.rmatvec
    n = A.shape[1]

    if x0 is None:
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q = np.asarray(x0) / np.linalg.norm(x0)
    basis, alpha, beta = [], [], []
    theta, s = 0.0, np.ones(1)
    for _ in range(min(iters, n)):
        basis.append(q)
        w = np.array(rmv(mv(q)))
        w_norm = float(np.linalg.norm(w))
        alpha.append(float(np.vdot(q, w).real))
        # full reorthogonalization, twice: one Gram-Schmidt pass leaves a
        # component along the basis of the size of the rounding in what it
        # removed, large next to w when most of w is removed; the basis
        # then loses orthogonality and Ritz values can pass the spectrum
        Q = np.array(basis)
        for _ in range(2):
            w -= Q.T @ (Q.conj() @ w)
        b = float(np.linalg.norm(w))
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        vals, vecs = np.linalg.eigh(T)
        theta, s = max(float(vals[-1]), 0.0), vecs[:, -1]
        # breakdown: what is left of A*A q is rounding noise, so the Krylov
        # space is invariant to working precision
        if b <= LANCZOS_BREAKDOWN * w_norm or b * abs(s[-1]) <= tol * theta:
            break
        beta.append(b)
        q = w / b

    x = sum(c * u for c, u in zip(s, basis))
    x /= np.linalg.norm(x)
    resid = float(np.linalg.norm(rmv(mv(x)) - theta * x) / max(theta, 1e-300))
    return NormResult(math.sqrt(theta), len(basis), resid, resid <= tol)


# -- the separation experiment -------------------------------------------


def _sym_shift_norm(N_sym: int) -> float:
    """||(S1 + S1 S2) restricted to monomials of degree <= N_sym||.

    The shifts are built two grades higher so images never hit the
    compression edge; the restriction norm is then exact and nondecreasing
    in N_sym.  Shifts over SHIFT_BYTES_CAP raise SizeCapError before any
    work, in dshift_operators.
    """
    S = dshift_operators(2, N_sym + 2)
    A = S[0] + S[0] @ S[1]
    m = simplex_size(2, N_sym)
    block = A[:, :m]
    return float(np.linalg.svd(block, compute_uv=False)[0])


# The symmetrized z1 + z1 z2 as a word polynomial, letters 0-based:
# T1 + (T1 T2 + T2 T1) / 2.
DP_WORDS = {(0,): 1.0, (0, 1): 0.5, (1, 0): 0.5}


class _DPFullRestriction:
    """The symmetrized p restricted to words of length <= L_domain, as a map
    into a word basis built two grades higher, so images never feel the
    truncation."""

    def __init__(self, L_domain: int):
        self.basis = FockBasis.create(2, L_domain + 2)
        self.L_domain = L_domain
        self.shape = (self.basis.size, self.basis.offsets[L_domain + 1])

    def matvec(self, v):
        return self.basis.apply_words(DP_WORDS, v)

    def rmatvec(self, v):
        return self.basis.apply_words_adjoint(DP_WORDS, v, self.L_domain)

    def vacuum(self) -> np.ndarray:
        x = np.zeros(self.shape[1])
        x[0] = 1.0
        return x


def davidson_pitts(L_full: int = 16, N_sym: int = 16,
                   tol: float = LANCZOS_TOL,
                   max_iters: int = LANCZOS_MAX_STEPS) -> dict:
    """Both norms of p = z1 + z1 z2: the commuting shift calculus on the
    monomial basis and the symmetrized calculus on the word basis.

    Reported values are exact norms of the operators restricted to the
    stated degree/length, which increase with the truncation parameter; the
    word-side limit is sqrt(5/2) (the squared norm is 5/2, from the word
    algebra identity in the module header).  This is the one-row case of
    ``davidson_pitts_sweep``.
    """
    table = davidson_pitts_sweep([L_full], N_sym, tol, max_iters)
    row = table["rows"][0]
    return {"L_full": row["L"], "N_sym": N_sym,
            "norm_sym_shift": table["norm_sym_shift"],
            **{key: row[key] for key in
               ("norm_sym_calculus", "iters", "residual", "converged")}}


def davidson_pitts_sweep(L_values: Sequence[int], N_sym: int = 16,
                         tol: float = LANCZOS_TOL,
                         max_iters: int = LANCZOS_MAX_STEPS) -> dict:
    """Norm table across word lengths with a single shift-side computation.

    The word lengths and the basis size cap are checked before any work:
    an empty sweep or a length below 1 raises ValueError, a largest basis
    (two grades above the largest length) over the cap, or shift-side
    matrices over SHIFT_BYTES_CAP, raises SizeCapError.
    Each row runs Lanczos from the vacuum, whose Krylov space is exhausted
    after L + 1 steps.
    """
    L_values = [int(L) for L in L_values]
    if not L_values or min(L_values) < 1:
        raise ValueError(f"word lengths must be a non-empty list of integers "
                         f">= 1, got {L_values}")
    words = fock_count(2, max(L_values) + 2)
    if words > BASIS_SIZE_CAP:
        raise SizeCapError(f"L={max(L_values)} needs a basis of {words} words, "
                           f"cap is {BASIS_SIZE_CAP}")
    norm_shift = _sym_shift_norm(N_sym)
    rows = []
    for L in L_values:
        op = _DPFullRestriction(L)
        res = operator_norm(op, method="lanczos", iters=max_iters, tol=tol,
                            x0=op.vacuum())
        rows.append({"L": L, "norm_sym_calculus": res.value, "iters": res.iters,
                     "residual": res.residual, "converged": res.converged})
    return {"N_sym": N_sym, "norm_sym_shift": norm_shift, "rows": rows,
            "limit_norm": DP_LIMIT_NORM}


# -- multiplicative boundary states ---------------------------------------


def _check_boundary(zeta: np.ndarray) -> np.ndarray:
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(zeta) - 1.0) > 1e-12:
        raise ValueError("state point must lie on the unit sphere to 1e-12")
    return zeta


def cuntz_state_word(zeta: Sequence[complex], i_word: Sequence[int],
                     j_word: Sequence[int]) -> complex:
    """Value of the multiplicative boundary state on V_{i1}..V_{im} V*_{j1}..V*_{jn}:
    the product of the zeta letters over i_word times the conjugated product
    over j_word.  Letters are 1-based."""
    zeta = _check_boundary(zeta)
    val = 1.0 + 0.0j
    for i in i_word:
        val *= zeta[i - 1]
    for j in j_word:
        val *= np.conj(zeta[j - 1])
    return complex(val)


def cuntz_state_herglotz(zeta: Sequence[complex], z: Sequence[complex],
                         K: int) -> complex:
    """Degree-K partial sum of the kernel transform in the boundary state.

    Grade k of the word expansion collapses to <z, zeta>^k (the state is
    evaluated at the conjugate point so the transform reproduces the
    boundary kernel function); the result is 2 sum_{k<=K} <z, zeta>^k - 1.
    Requires |<z, zeta>| < 1.
    """
    zeta = _check_boundary(zeta)
    z = np.asarray(z, dtype=complex).reshape(-1)
    s = complex(np.sum(z * np.conj(zeta)))
    if abs(s) >= 1.0:
        raise ValueError(f"divergence guard: |<z, zeta>| = {abs(s):.3f} >= 1")
    partial = sum(s ** k for k in range(K + 1))
    return complex(2.0 * partial - 1.0)
