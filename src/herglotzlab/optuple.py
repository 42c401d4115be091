"""Finite-dimensional operator tuples and their Herglotz transforms.

A tuple T = (T_1, ..., T_d) of n x n matrices plays the role of a row
contraction; <z, T> denotes z_1 T_1 + ... + z_d T_d.  The kernel
H(z, T) = 2 (I - <z, T>)^{-1} - I generates functions of positive real part,
and the Taylor coefficients of <H(z,T) xi, xi> are word sums over T, computed
by a vector recursion over multi-indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pairing import qr_pair, sphere_sample
from .series import (
    DimensionMismatchError,
    TruncatedSeries,
    _check_caps,
    _grade_steps,
    _json_float,
    _json_int,
    _json_keys,
    _shifts,
    grade_slices,
    simplex_size,
)


class SingularPencilError(ArithmeticError):
    """I - <z, T> was numerically singular at a requested point."""


class NonCommutingError(ValueError):
    """An operation that needs a commuting tuple got a non-commuting one."""


@dataclass(frozen=True, eq=False)
class OperatorTuple:
    """d complex matrices of a common size n, immutable after construction."""

    matrices: np.ndarray        # (d, n, n)

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise DimensionMismatchError(
                f"expected a (d, n, n) stack of square matrices, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)

    @property
    def d(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    def zeta_dot(self, z: Sequence[complex]) -> np.ndarray:
        """<z, T> = sum_j z_j T_j for a single point z."""
        z = np.asarray(z, dtype=complex)
        return np.tensordot(z, self.matrices, axes=(0, 0))

    def zeta_dot_many(self, pts: np.ndarray) -> np.ndarray:
        """<z, T> for a batch of points: (m, n, n)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=complex))
        return np.tensordot(pts, self.matrices, axes=(1, 0))

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "matrices": [
                [[[float(v.real), float(v.imag)] for v in row] for row in mat]
                for mat in self.matrices
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OperatorTuple":
        """The inverse of ``to_json``; "d" and "n", when given, are integers
        that match the matrices."""
        mats = np.array(
            [[[complex(re, im) for re, im in row] for row in mat]
             for mat in obj["matrices"]],
            dtype=complex,
        )
        T = cls(mats)
        for key, size in (("d", T.d), ("n", T.n)):
            if key in obj and _json_int(obj[key], key) != size:
                raise DimensionMismatchError(
                    f"{key} = {obj[key]}, but the matrices give {size}")
        return T


@dataclass(frozen=True, eq=False)
class HerglotzDatum:
    """Generator data (T, xi, t) for f(z) = <H(z,T) xi, xi> + i t."""

    tuple: OperatorTuple
    xi: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=complex).reshape(-1)
        if xi.shape[0] != self.tuple.n:
            raise DimensionMismatchError(
                f"xi has length {xi.shape[0]}, matrices are {self.tuple.n} x {self.tuple.n}")
        xi = xi.copy()
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)

    @property
    def d(self) -> int:
        return self.tuple.d

    def values_at(self, points: np.ndarray) -> np.ndarray:
        return herglotz_transform_many(self, points)

    def to_json(self) -> dict:
        out = self.tuple.to_json()
        out["xi"] = [[float(v.real), float(v.imag)] for v in self.xi]
        out["t"] = float(self.t)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "HerglotzDatum":
        """The inverse of ``to_json``: no keys but d, n, matrices, xi and t,
        and t a finite number."""
        _json_keys(obj, ("d", "n", "matrices", "xi", "t"), "datum")
        return cls(OperatorTuple.from_json(obj),
                   np.array([complex(re, im) for re, im in obj["xi"]]),
                   _json_float(obj.get("t", 0.0), "t"))


# -- predicates ---------------------------------------------------------


def is_row_contraction(T: OperatorTuple, tol: float = 1e-10):
    """I - sum T_j T_j* >= -tol, reported with the smallest eigenvalue."""
    gram = np.eye(T.n, dtype=complex)
    for M in T.matrices:
        gram -= M @ M.conj().T
    min_eig = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)[0])
    return min_eig >= -tol, min_eig


@dataclass(frozen=True)
class WeakContractionReport:
    is_weak: bool
    sup_estimate: float
    worst_zeta: np.ndarray


def is_weak_row_contraction(T: OperatorTuple, tol: float = 1e-9,
                            samples: int = 2000, refine_steps: int = 50,
                            refine_top: int = 10, seed: int = 0) -> WeakContractionReport:
    """Estimate sup over unit zeta of ||<zeta, T>|| by sphere sampling with
    local ascent refinement.

    One-sided certificate: a violation found is conclusive, a pass only
    accumulates evidence.  The ascent step replaces zeta by the normalized
    conjugate of (u* T_j v) for the current top singular pair (u, v), which
    can only increase the objective.
    """
    if samples < 1 or refine_steps < 0:
        raise ValueError("budget must be >= 1 sample")
    zetas = sphere_sample(T.d, samples, seed)
    mats = T.zeta_dot_many(zetas)
    svals = np.linalg.svd(mats, compute_uv=False)[:, 0]
    order = np.argsort(svals)[::-1][:refine_top]

    best_val = float(svals[order[0]])
    best_zeta = zetas[order[0]]
    for idx in order:
        zeta = zetas[idx]
        val = float(svals[idx])
        for _ in range(refine_steps):
            U, s, Vh = np.linalg.svd(T.zeta_dot(zeta))
            u, v = U[:, 0], Vh[0].conj()
            grad = np.array([np.vdot(u, M @ v) for M in T.matrices])
            norm = np.linalg.norm(grad)
            if norm < 1e-15:
                break
            new_zeta = np.conj(grad) / norm
            new_val = float(np.linalg.svd(T.zeta_dot(new_zeta), compute_uv=False)[0])
            if new_val <= val + 1e-15:
                break
            zeta, val = new_zeta, new_val
        if val > best_val:
            best_val, best_zeta = val, zeta
    return WeakContractionReport(best_val <= 1.0 + tol, best_val, best_zeta)


def is_commuting(T: OperatorTuple, tol: float = 1e-10):
    """Max over i < j of ||T_i T_j - T_j T_i|| in operator norm."""
    worst = 0.0
    for i in range(T.d):
        for j in range(i + 1, T.d):
            comm = T.matrices[i] @ T.matrices[j] - T.matrices[j] @ T.matrices[i]
            worst = max(worst, float(np.linalg.norm(comm, 2)))
    return worst <= tol, worst


# -- the kernel and its transforms ---------------------------------------


def _resolvent_apply(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    pencil = np.eye(A.shape[0], dtype=complex) - A
    sv_min = np.linalg.svd(pencil, compute_uv=False)[-1]
    if sv_min < 1e-14:
        raise SingularPencilError("I - <z, T> is numerically singular")
    return np.linalg.solve(pencil, rhs)


def herglotz_kernel(z: Sequence[complex], T: OperatorTuple) -> np.ndarray:
    """H(z, T) = 2 (I - <z, T>)^{-1} - I, by linear solve (no inverse)."""
    A = T.zeta_dot(z)
    return 2.0 * _resolvent_apply(A, np.eye(T.n, dtype=complex)) - np.eye(T.n)


def re_herglotz_kernel(z: Sequence[complex], T: OperatorTuple) -> np.ndarray:
    """(H + H*) / 2 at the point z."""
    H = herglotz_kernel(z, T)
    return (H + H.conj().T) / 2.0


def herglotz_transform(D: HerglotzDatum, z: Sequence[complex]) -> complex:
    """<H(z, T) xi, xi> + i t at a single point."""
    A = D.tuple.zeta_dot(z)
    y = _resolvent_apply(A, D.xi)
    norm2 = float(np.vdot(D.xi, D.xi).real)
    return complex(2.0 * np.vdot(D.xi, y) - norm2 + 1j * D.t)


def herglotz_transform_many(D: HerglotzDatum, points: np.ndarray) -> np.ndarray:
    """Batched transform values; solves one stacked pencil per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    A = D.tuple.zeta_dot_many(pts)
    pencils = np.eye(D.tuple.n, dtype=complex)[None, :, :] - A
    try:
        ys = np.linalg.solve(pencils, np.broadcast_to(
            D.xi, (pts.shape[0], D.tuple.n))[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularPencilError(str(exc)) from exc
    norm2 = float(np.vdot(D.xi, D.xi).real)
    return 2.0 * (ys @ np.conj(D.xi)) - norm2 + 1j * D.t


def herglotz_taylor(D: HerglotzDatum, N: int) -> TruncatedSeries:
    """Taylor truncation of the transform via the word-sum vector recursion.

    U_0 = xi and U_alpha = sum_j T_j U_(alpha - e_j) accumulates every word
    with content alpha exactly once, so c_alpha = 2 <U_alpha, xi> for
    alpha != 0 and c_0 = ||xi||^2 + i t.  Cost is polynomial in the simplex
    size, where enumerating the words themselves is factorial in |alpha|.
    """
    d, n = D.tuple.d, D.tuple.n
    _check_caps(d, N)
    U = np.zeros((simplex_size(d, N), n), dtype=complex)
    U[0] = D.xi
    # grade by grade and j ascending, so each U_alpha sums its terms in one fixed order
    shifts = _shifts(d, N)
    for a, b in grade_slices(d, N)[:-1]:
        for j in range(d):
            U[shifts[j, a:b]] += np.matmul(D.tuple.matrices[j], U[a:b, :, None])[:, :, 0]
    coeffs = 2.0 * np.matmul(np.conj(D.xi)[None, None, :], U[:, :, None])[:, 0, 0]
    coeffs[0] = np.vdot(D.xi, D.xi).real + 1j * D.t
    return TruncatedSeries(d, N, coeffs)


# -- commuting functional calculus ---------------------------------------


def require_commuting(T: OperatorTuple, tol: float = 1e-10) -> None:
    """NonCommutingError unless ``is_commuting(T, tol)``."""
    ok, worst = is_commuting(T, tol)
    if not ok:
        raise NonCommutingError(
            f"tuple is not commuting: max commutator norm {worst:.3e}")


def _commuting_powers(T: OperatorTuple, d: int, N: int, tol: float = 1e-10) -> np.ndarray:
    """T^alpha, |alpha| <= N, of a commuting d-tuple; rejects non-commuting T."""
    require_commuting(T, tol)
    if d != T.d:
        raise DimensionMismatchError(f"dimension mismatch: {d} vs {T.d}")
    powers = np.empty((simplex_size(d, N), T.n, T.n), dtype=complex)
    powers[0] = np.eye(T.n)
    for j, a, b, pa, pb in _grade_steps(d, N):
        np.matmul(T.matrices[j], powers[pa:pb], out=powers[a:b])
    return powers


def commuting_calculus(p: TruncatedSeries, T: OperatorTuple,
                       tol: float = 1e-10) -> np.ndarray:
    """Evaluate a polynomial on a commuting tuple with cached monomial
    products; rejects non-commuting input."""
    return np.tensordot(p.coeffs, _commuting_powers(T, p.d, p.N, tol), axes=(0, 0))


def rs_duality_residual(f: TruncatedSeries, D: HerglotzDatum,
                        r_grid: float | Sequence[float]) -> float:
    """Max over r in r_grid (one float is a one-radius grid) of |Q_r(f, g) -
    (2 conj(<f_check_r(T) xi, xi>) - 2 i t f(0))| for a commuting datum, with
    g the Taylor truncation of the transform at f's degree; g and the
    monomial table of T are built once for the whole grid.

    Direct expansion of the pairing gives the conjugate of the calculus side
    (real parts agree, which is what the duality uses); the residual asserts
    the conjugated identity, plus the imaginary-constant correction that the
    unconjugated statement silently drops.
    """
    g = herglotz_taylor(D, f.N)
    powers = _commuting_powers(D.tuple, f.d, f.N)
    residuals = []
    for r in [r_grid] if np.ndim(r_grid) == 0 else r_grid:
        lhs = qr_pair(f, g, r)
        M = np.tensordot(f.reflect().dilate(r).coeffs, powers, axes=(0, 0))
        rhs = 2.0 * np.conj(np.vdot(D.xi, M @ D.xi)) - 2j * D.t * f.constant_term
        residuals.append(float(abs(lhs - rhs)))
    return max(residuals)
