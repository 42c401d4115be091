"""Truncated Fock-space models, operator norms, and the separation experiment.

The full Fock side carries left creation operators on words over {1..d}; the
symmetric side carries the coordinate shifts on the normalized monomial
basis.  Words are never stored: in graded lexicographic order the word
(j+1) w, with w of grade k and rank r and j = 0..d-1, sits at
fock_count(d, k) + j d^k + r, so each creation operator, and each word of
a polynomial in them, acts by one contiguous slice copy per grade.
Matrix-free norms run Lanczos on A*A with full reorthogonalization.

No shift matrix is built: S1 + S1 S2 maps each z1-degree block of
monomials into the next, so its norm is the largest of one small bidiagonal
block per z1-degree (``_sym_shift_norm``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import SizeCapError, _json_int

BASIS_SIZE_CAP = 10 ** 6
N_SYM_CAP = 60                 # the largest shift-side degree

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


@dataclass(frozen=True)
class NormResult:
    value: float
    iters: int
    residual: float
    converged: bool


def operator_norm(A, iters: int = LANCZOS_MAX_STEPS, tol: float = LANCZOS_TOL,
                  x0: np.ndarray = None) -> NormResult:
    """Largest singular value of an operator given by ``shape``, ``matvec``
    and ``rmatvec``.

    Lanczos on A*A with full reorthogonalization (two classical
    Gram-Schmidt passes per step), started from x0 (a fixed random vector
    if None).  It stops at breakdown (the new direction is
    below LANCZOS_BREAKDOWN times ||A*A q||), when the Ritz residual bound
    beta_k |s_k| falls to tol * theta, or after ``iters`` steps; the Krylov
    basis grows one vector per step.  ``iters`` reports the steps taken,
    ``residual`` the true ||A*A x - theta x|| / theta of the Ritz vector x,
    and ``converged`` whether that residual is within tol.  Non-convergence
    is reported, not raised.
    """
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
    """||(S1 + S1 S2) restricted to monomials of degree <= N_sym||, exact.

    On the normalized monomials A = S1 + S1 S2 acts by
    A e_(a,b) = sqrt((a+1)/(a+b+1)) e_(a+1,b)
                + sqrt((a+1)(b+1)/((a+b+1)(a+b+2))) e_(a+1,b+1),
    so it maps z1-degree block a into block a+1 and images of different
    blocks are orthogonal.  ||A|| is the largest norm over the blocks
    B_a, a = 0..N_sym, each lower bidiagonal of shape
    (N_sym-a+2) x (N_sym-a+1); they are zero-padded into one stack for one
    batched SVD.  Images never reach a compression edge, so the value is
    nondecreasing in N_sym.
    """
    N = N_sym
    a, b = np.ogrid[:N + 1, :N + 1]         # block a, column b <= N - a
    n = a + b + 1.0
    live = b <= N - a
    i = np.arange(N + 1)
    B = np.zeros((N + 1, N + 2, N + 1))
    B[:, i, i] = np.where(live, np.sqrt((a + 1) / n), 0.0)
    B[:, i + 1, i] = np.where(live, np.sqrt((a + 1) * (b + 1) / (n * (n + 1))), 0.0)
    return float(np.linalg.svd(B, compute_uv=False).max())


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


def davidson_pitts_sweep(L_values: Sequence[int], N_sym: int = 16) -> dict:
    """Both norms of p = z1 + z1 z2, across word lengths: the commuting
    shift calculus on monomials of degree <= N_sym, and the symmetrized
    calculus on words of each length L.

    Reported values are exact norms of the restricted operators, which
    increase with the truncation parameter; the word-side limit is
    sqrt(5/2) (the squared norm is 5/2, from the word algebra identity in
    the module header).  Everything is checked before any work: the word
    lengths must be a non-empty list of integers >= 1 and N_sym an integer
    >= 0 (ValueError otherwise); a largest basis (two grades above the
    largest length) over BASIS_SIZE_CAP, or N_sym over N_SYM_CAP, raises
    SizeCapError.  Each row runs Lanczos from the vacuum, whose Krylov
    space is exhausted after L + 1 steps.
    """
    if not isinstance(L_values, (list, tuple, range)):
        raise ValueError(f"word lengths must be a list, got {L_values!r}")
    L_values = [_json_int(L, "a word length") for L in L_values]
    N_sym = _json_int(N_sym, "N_sym")
    if not L_values or min(L_values) < 1 or N_sym < 0:
        raise ValueError(f"need a non-empty list of word lengths >= 1 and "
                         f"N_sym >= 0, got {L_values} and N_sym={N_sym}")
    words = fock_count(2, max(L_values) + 2)
    if words > BASIS_SIZE_CAP:
        raise SizeCapError(f"L={max(L_values)} needs a basis of {words} words, "
                           f"cap is {BASIS_SIZE_CAP}")
    if N_sym > N_SYM_CAP:
        raise SizeCapError(f"N_sym={N_sym} is above the cap {N_SYM_CAP}")
    norm_shift = _sym_shift_norm(N_sym)
    rows = []
    for L in L_values:
        op = _DPFullRestriction(L)
        res = operator_norm(op, x0=op.vacuum())
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
