"""Finite-dimensional operator tuples and their Herglotz transforms.

A tuple T = (T_1, ..., T_d) of n x n matrices plays the role of a row
contraction; <z, T> denotes z_1 T_1 + ... + z_d T_d.  The kernel
H(z, T) = 2 (I - <z, T>)^{-1} - I generates functions of positive real part,
and the Taylor coefficients of <H(z,T) xi, xi> are word sums over T, computed
by a vector recursion over multi-indices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pairing import qr_pair, sphere_sample
from .series import (
    DimensionMismatchError,
    TruncatedSeries,
    _check_caps,
    _check_same_d,
    _grade_steps,
    _json_complex,
    _json_float,
    _json_int,
    _json_keys,
    _shifts,
    grade_array,
    grade_slices,
    simplex_size,
)

WEAK_TOL = 1e-9               # sup ||<zeta, T>|| <= 1 + WEAK_TOL is weak
WEAK_REFINE_TOP = 10          # ascents, from the best sampled directions
WEAK_REFINE_STEPS = 50        # ascent steps at most, each one full SVD


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

    @classmethod
    def from_json(cls, obj: dict) -> "HerglotzDatum":
        """No keys but d, n, matrices (d lists of n rows of n [re, im]
        pairs), xi (n pairs) and t; d and n, when given, integers that match
        the matrices; t and every re and im a finite number."""
        _json_keys(obj, ("d", "n", "matrices", "xi", "t"), "datum", ("matrices", "xi"))
        T = OperatorTuple(_json_complex(obj["matrices"], "matrices", 3))
        for key, size in (("d", T.d), ("n", T.n)):
            if key in obj and _json_int(obj[key], key) != size:
                raise DimensionMismatchError(f"{key} = {obj[key]}, but the matrices give {size}")
        return cls(T, _json_complex(obj["xi"], "xi", 1), _json_float(obj.get("t", 0.0), "t"))


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


def is_weak_row_contraction(T: OperatorTuple, rng: np.random.Generator,
                            samples: int = 2000) -> WeakContractionReport:
    """Estimate sup over unit zeta of ||<zeta, T>|| by sphere sampling from
    rng with local ascent refinement: up to WEAK_REFINE_STEPS steps from
    each of the WEAK_REFINE_TOP best samples; weak within WEAK_TOL.

    One-sided certificate: a violation found is conclusive, a pass only
    accumulates evidence.  The ascent step replaces zeta by the normalized
    conjugate of (u* T_j v) for the current top singular pair (u, v), which
    can only increase the objective.
    """
    if samples < 1:
        raise ValueError("budget must be >= 1 sample")
    zetas = sphere_sample(T.d, samples, rng)
    mats = T.zeta_dot_many(zetas)
    svals = np.linalg.svd(mats, compute_uv=False)[:, 0]
    order = np.argsort(svals)[::-1][:WEAK_REFINE_TOP]

    best_val = float(svals[order[0]])
    best_zeta = zetas[order[0]]
    for idx in order:
        zeta = zetas[idx]
        val = float(svals[idx])
        for _ in range(WEAK_REFINE_STEPS):
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
    return WeakContractionReport(best_val <= 1.0 + WEAK_TOL, best_val, best_zeta)


@functools.cache
def _index_pairs(d: int) -> np.ndarray:
    idx = np.array(np.triu_indices(d, 1))
    idx.setflags(write=False)
    return idx


def _commutator_norms(mats: np.ndarray) -> np.ndarray:
    """||T_i T_j - T_j T_i|| in operator norm, for i < j in the last axis,
    of each tuple of a (..., d, n, n) stack: one stacked SVD."""
    i, j = _index_pairs(mats.shape[-3])
    Ti, Tj = mats[..., i, :, :], mats[..., j, :, :]
    return np.linalg.norm(Ti @ Tj - Tj @ Ti, 2, axis=(-2, -1))


def is_commuting(T: OperatorTuple, tol: float = 1e-10):
    """Max over i < j of ||T_i T_j - T_j T_i|| in operator norm."""
    worst = float(_commutator_norms(T.matrices).max(initial=0.0))
    return worst <= tol, worst


# -- the kernel and its transforms ---------------------------------------


def herglotz_kernel(z: Sequence[complex], T: OperatorTuple) -> np.ndarray:
    """H(z, T) = 2 (I - <z, T>)^{-1} - I, by linear solve (no inverse);
    SingularPencilError where I - <z, T> has a singular value below 1e-14."""
    pencil = np.eye(T.n, dtype=complex) - T.zeta_dot(z)
    if np.linalg.svd(pencil, compute_uv=False)[-1] < 1e-14:
        raise SingularPencilError("I - <z, T> is numerically singular")
    return 2.0 * np.linalg.solve(pencil, np.eye(T.n, dtype=complex)) - np.eye(T.n)


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


def require_commuting(T: OperatorTuple | np.ndarray, tol: float = 1e-10) -> None:
    """NonCommutingError unless ``is_commuting(T, tol)`` for the tuple T, or
    for every tuple of a (k, d, n, n) stack, checked in one pass; the error
    names the first offending commutator in stack order."""
    norms = _commutator_norms(T.matrices if isinstance(T, OperatorTuple) else T)
    if (over := norms[norms > tol]).size:
        raise NonCommutingError(f"tuple is not commuting: a commutator has norm {over[0]:.3e}")


def _commuting_powers(T: OperatorTuple, N: int, tol: float = 1e-10) -> np.ndarray:
    """T^alpha, |alpha| <= N, of a commuting tuple; rejects non-commuting T."""
    require_commuting(T, tol)
    powers = np.empty((simplex_size(T.d, N), T.n, T.n), dtype=complex)
    powers[0] = np.eye(T.n)
    for j, a, b, pa, pb in _grade_steps(T.d, N):
        np.matmul(T.matrices[j], powers[pa:pb], out=powers[a:b])
    return powers


def rs_duality_residual(f: TruncatedSeries, D: HerglotzDatum,
                        r_grid: float | Sequence[float]) -> float:
    """Max over r in r_grid (one float is a one-radius grid) of |Q_r(f, g) -
    (2 conj(<f_check_r(T) xi, xi>) - 2 i t f(0))| for a commuting datum, with
    g the Taylor truncation of the transform at f's degree; g, the monomial
    table of T, the pairings and the reflected dilations are built once for
    the whole grid, one row per radius.

    Direct expansion of the pairing gives the conjugate of the calculus side
    (real parts agree, which is what the duality uses); the residual asserts
    the conjugated identity, plus the imaginary-constant correction that the
    unconjugated statement silently drops.
    """
    _check_same_d(f, D)
    radii = np.atleast_1d(np.asarray(r_grid, dtype=float))
    g = herglotz_taylor(D, f.N)
    powers = _commuting_powers(D.tuple, f.N)
    lhs = qr_pair(f, g, radii)
    # row i holds the coefficients of f_check_r for r = radii[i]
    reflected = np.conj(f.coeffs) * np.power(radii[:, None], grade_array(f.d, f.N).astype(float))
    residuals = []
    for q, coeffs in zip(lhs, reflected):
        M = np.tensordot(coeffs, powers, axes=(0, 0))
        rhs = 2.0 * np.conj(np.vdot(D.xi, M @ D.xi)) - 2j * D.t * f.constant_term
        residuals.append(float(abs(q - rhs)))
    return max(residuals)
