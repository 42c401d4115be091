import itertools
import math

import numpy as np
import pytest
from scipy.sparse.linalg import aslinearoperator

from herglotzlab.fock import (
    N_SYM_CAP,
    FockBasis,
    SizeCapError,
    _sym_shift_norm,
    creation_operators,
    cuntz_state_herglotz,
    cuntz_state_word,
    davidson_pitts_sweep,
    fock_count,
    operator_norm,
)
from herglotzlab.series import enumerate_multiindices, index_of, simplex_size


# -- independent oracles: explicit word enumeration ------------------------


def fock_words(d, L):
    """All words over {1..d} of length <= L, graded then lexicographic."""
    out = []
    for k in range(L + 1):
        out.extend(itertools.product(range(1, d + 1), repeat=k))
    return tuple(out)


def cuntz_state_herglotz_bruteforce(zeta, z, K):
    """Word-by-word evaluation of the degree-K partial sum of the kernel
    transform in the boundary state, through cuntz_state_word; exponential
    in K, an oracle for small K."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    d = len(z)
    total = 0.0 + 0.0j
    for k in range(K + 1):
        for word in itertools.product(range(1, d + 1), repeat=k):
            zw = 1.0 + 0.0j
            for letter in word:
                zw *= z[letter - 1]
            total += zw * cuntz_state_word(np.conj(zeta), word, ())
    return complex(2.0 * total - 1.0)


def dense_shifts(d, N):
    """The coordinate shifts on the normalized monomial basis as dense
    matrices, entry by entry: S_j e_alpha = sqrt((alpha_j + 1)/(|alpha| + 1))
    e_(alpha + e_j), the top grade to zero.  An oracle for small (d, N)."""
    alphas = enumerate_multiindices(d, N)
    ops = [np.zeros((len(alphas), len(alphas))) for _ in range(d)]
    for col, alpha in enumerate(alphas):
        if sum(alpha) == N:
            continue
        for j in range(d):
            beta = tuple(a + (i == j) for i, a in enumerate(alpha))
            ops[j][index_of(d, N, beta), col] = math.sqrt(
                (alpha[j] + 1) / (sum(alpha) + 1))
    return ops


def dense_sym_shift_norm(N_sym):
    """||(S1 + S1 S2) restricted to degree <= N_sym|| by a dense SVD, with
    the shifts built two grades higher so images never reach the edge."""
    S1, S2 = dense_shifts(2, N_sym + 2)
    A = (S1 + S1 @ S2)[:, :simplex_size(2, N_sym)]
    return float(np.linalg.svd(A, compute_uv=False)[0])


# ||(S1 + S1 S2) restricted to degree <= N_sym||: the largest top eigenvalue
# of the tridiagonal B_a* B_a over every block a, by Sturm-count bisection
# in mpmath at 60 digits, square-rooted; the top lies in block a = 0 at
# each N_sym here.  The values at 30 and 60 agree with the one at 16 to 35
# digits, because the top eigenvector decays fast in the z2-degree.
SHIFT_NORM_40_DIGITS = {
    16: "1.338025795191485333296820683615697866958",
    30: "1.338025795191485333296820683615697866973",
    60: "1.338025795191485333296820683615697866973",
}


class TestWordBasis:
    def test_count_formula(self):
        for d in (2, 3):
            for L in (1, 3, 5):
                assert len(fock_words(d, L)) == (d ** (L + 1) - 1) // (d - 1)

    def test_empty_word_first(self):
        assert fock_words(2, 3)[0] == ()

    def test_graded_lex(self):
        words = fock_words(2, 2)
        assert words == ((), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            FockBasis.create(2, 21)

    def test_creation_rows_match_word_enumeration(self):
        # the index arithmetic against an explicit word -> index dictionary
        for d, L in ((2, 5), (3, 4)):
            words = fock_words(d, L)
            index = {w: i for i, w in enumerate(words)}
            basis = FockBasis.create(d, L)
            assert basis.size == len(words)
            below_top = words[: fock_count(d, L - 1)]
            for j in range(d):
                expect = [index[(j + 1,) + w] for w in below_top]
                assert basis.creation_rows(j).tolist() == expect


class TestCreationOperators:
    def test_prepend_on_vacuum(self):
        L1, L2 = creation_operators(2, 3)
        v = np.zeros(15)
        v[0] = 1.0
        assert np.allclose(L1 @ v, np.eye(15)[1])
        assert np.allclose(L2 @ v, np.eye(15)[2])

    def test_one_nonzero_per_column_below_top(self):
        L1, _ = creation_operators(2, 4)
        cols = np.asarray((L1 != 0).sum(axis=0)).ravel()
        n_prev = fock_count(2, 3)
        assert np.all(cols[:n_prev] == 1)
        assert np.all(cols[n_prev:] == 0)

    def test_isometry_relations_below_top(self):
        ops = creation_operators(2, 4)
        n_prev = fock_count(2, 3)
        P = np.zeros((fock_count(2, 4),) * 2)
        P[np.arange(n_prev), np.arange(n_prev)] = 1.0
        for i, Li in enumerate(ops):
            for j, Lj in enumerate(ops):
                prod = (Li.conj().T @ Lj).toarray()
                assert np.allclose(prod, P if i == j else 0.0)

    def test_range_projections_sum(self):
        ops = creation_operators(2, 4)
        S = sum((L @ L.conj().T).toarray() for L in ops)
        expect = np.eye(fock_count(2, 4))
        expect[0, 0] = 0.0
        assert np.allclose(S, expect)

    def test_matvec_matches_sparse(self):
        basis = FockBasis.create(2, 5)
        ops = creation_operators(2, 5)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        for j in range(2):
            assert np.allclose(basis.apply_words({(j,): 1.0}, v), ops[j] @ v)
            assert np.allclose(basis.apply_words_adjoint({(j,): 1.0}, v),
                               ops[j].conj().T @ v)

    def test_word_polynomial_matches_sparse_products(self):
        # a domain of grades <= 3 inside a basis of grade 5; complex weights
        basis = FockBasis.create(2, 5)
        L1, L2 = creation_operators(2, 5)
        terms = {(0,): 1.0, (0, 1): 0.5, (1, 0): 0.5j, (1, 1, 0): -2.0}
        A = L1 + 0.5 * (L1 @ L2) + 0.5j * (L2 @ L1) - 2.0 * (L2 @ L2 @ L1)
        m, n = fock_count(2, 3), basis.size
        rng = np.random.default_rng(1)
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        padded = np.concatenate([v, np.zeros(n - m)])
        assert np.allclose(basis.apply_words(terms, v), A @ padded)
        assert np.allclose(basis.apply_words_adjoint(terms, u, 3),
                           (A.conj().T @ u)[:m])
        with pytest.raises(ValueError):
            basis.apply_words(terms, v[:-1])


class TestDshift:
    """The dense shift oracle, and the block route against it."""

    def test_univariate_unilateral_shift(self):
        S = dense_shifts(1, 5)[0]
        vals = S[np.nonzero(S)]
        assert np.allclose(vals, 1.0)

    def test_monomial_norm_ratio(self):
        S = dense_shifts(2, 4)
        assert abs(S[0][index_of(2, 4, (1, 1)), index_of(2, 4, (0, 1))] - 2 ** -0.5) < 1e-15

    def test_contractive(self):
        for Sj in dense_shifts(2, 6):
            assert np.linalg.norm(Sj, 2) <= 1.0 + 1e-12

    def test_commute(self):
        S = dense_shifts(3, 5)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.allclose(S[i] @ S[j], S[j] @ S[i], atol=1e-15)

    def test_blocks_match_dense_oracle(self):
        for N_sym in range(31):
            assert abs(_sym_shift_norm(N_sym) - dense_sym_shift_norm(N_sym)) <= 1e-14, N_sym

    @pytest.mark.parametrize("N_sym", sorted(SHIFT_NORM_40_DIGITS))
    def test_blocks_match_40_digit_reference(self, N_sym):
        ref = float(SHIFT_NORM_40_DIGITS[N_sym])
        assert abs(_sym_shift_norm(N_sym) - ref) <= 1e-15


class TestOperatorNorm:
    def test_identity(self):
        assert abs(operator_norm(aslinearoperator(np.eye(7))).value - 1.0) < 1e-13

    def test_rank_one(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        A = np.outer(u, np.conj(v))
        assert abs(operator_norm(aslinearoperator(A)).value
                   - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-10

    def test_power_iteration_matches_dense(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        dense = np.linalg.svd(A, compute_uv=False)[0]
        power = operator_norm(aslinearoperator(A), tol=1e-14)
        assert abs(dense - power.value) < 1e-8
        assert power.converged

    def test_lanczos_breakdown_on_small_invariant_space(self):
        # A*A = diag(4, 1, 1, 1): the start vector e0 + e1 spans a
        # two-dimensional Krylov space, so Lanczos breaks down after 2 steps
        A = np.diag([2.0, 1.0, 1.0, 1.0])
        x0 = np.array([1.0, 1.0, 0.0, 0.0])
        res = operator_norm(aslinearoperator(A), x0=x0)
        assert res.iters == 2
        assert abs(res.value - 2.0) < 1e-15
        assert res.converged and res.residual <= 1e-15
        # breakdown, not the tolerance, ends the run
        assert operator_norm(aslinearoperator(A), x0=x0, tol=0.0).iters == 2

    def test_step_cap_reports_nonconvergence(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 40))
        res = operator_norm(aslinearoperator(A), iters=2)
        assert res.iters == 2
        assert not res.converged
        assert res.residual > 1e-10

    def test_sparse_input(self):
        L1, _ = creation_operators(2, 6)
        res = operator_norm(aslinearoperator(L1))
        assert abs(res.value - 1.0) < 1e-8

    @pytest.mark.parametrize("L", [4, 6, 8, 10])
    def test_random_start_on_word_matrices(self, L):
        # with one Gram-Schmidt pass per step the basis lost orthogonality:
        # at L = 10 Lanczos stopped at 1.6419, above the top singular value
        # 1.5703, and at L = 8 at 1.565627 against 1.565585
        L1, L2 = creation_operators(2, L + 2)
        m = fock_count(2, L)
        A = (L1 + 0.5 * (L1 @ L2 + L2 @ L1)).tocsc()[:, :m]
        top = math.sqrt(np.linalg.eigvalsh((A.T @ A).toarray())[-1])
        rng = np.random.default_rng(L)
        x0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for res in (operator_norm(aslinearoperator(A), x0=x0),
                    operator_norm(aslinearoperator(A))):
            assert abs(res.value - top) <= 1e-12
            assert res.converged


class TestSeparationExperiment:
    def test_shift_norm_below_sqrt2(self):
        out = davidson_pitts_sweep([6], N_sym=12)
        assert out["norm_sym_shift"] < math.sqrt(2.0)

    def test_word_norm_matches_path_oracle(self):
        # restriction convention: the squared norm is exactly
        # 3/2 + cos(pi/(L+2)) (top chain of the word graph is a path)
        for L in (4, 8, 12):
            row = davidson_pitts_sweep([L], N_sym=4)["rows"][0]
            oracle = math.sqrt(1.5 + math.cos(math.pi / (L + 2)))
            assert abs(row["norm_sym_calculus"] - oracle) < 1e-7

    def test_sweep_pinned_to_closed_form(self):
        # from the vacuum the Krylov space is exhausted after L + 1 steps
        table = davidson_pitts_sweep(range(4, 17), N_sym=16)
        assert [row["L"] for row in table["rows"]] == list(range(4, 17))
        for row in table["rows"]:
            L = row["L"]
            closed = math.sqrt(1.5 + math.cos(math.pi / (L + 2)))
            assert abs(row["norm_sym_calculus"] - closed) <= 1e-12, L
            assert row["iters"] == L + 1
            assert row["converged"] is True
            assert row["residual"] <= 1e-12

    @pytest.mark.parametrize("L", range(4, 9))
    def test_vacuum_start_gives_the_whole_norm(self, L):
        # each word of the symmetrized p holds exactly one letter 0, so A*A
        # keeps the number of 0s in a word and the vacuum start sees only
        # the words without one; that block holds the top of the whole
        # restriction
        L1, L2 = creation_operators(2, L + 2)
        A = (L1 + 0.5 * (L1 @ L2 + L2 @ L1)).tocsc()[:, :fock_count(2, L)]
        top = np.linalg.svd(A.toarray(), compute_uv=False)[0]
        row = davidson_pitts_sweep([L], N_sym=0)["rows"][0]
        assert abs(row["norm_sym_calculus"] - top) <= 1e-12

    @pytest.mark.parametrize("L_values", [[], [0, 4], [4, -1], [4.5, 6], [4, "6"],
                                          [[4]], 5, "46"])
    def test_sweep_rejects_bad_lengths(self, L_values):
        with pytest.raises(ValueError):
            davidson_pitts_sweep(L_values)

    @pytest.mark.parametrize("N_sym", [-1, -2, 2.5, "16", True])
    def test_sweep_rejects_bad_degree(self, N_sym):
        with pytest.raises(ValueError):
            davidson_pitts_sweep([4], N_sym)

    @pytest.mark.parametrize("L_values,N_sym", [([4, 5, 18], 16), ([4], N_SYM_CAP + 1)])
    def test_sweep_cap_checked_before_any_work(self, monkeypatch, L_values, N_sym):
        import herglotzlab.fock as fock

        def fail(*args, **kwargs):
            raise AssertionError("work started before the cap check")
        monkeypatch.setattr(fock, "_sym_shift_norm", fail)
        monkeypatch.setattr(fock, "_DPFullRestriction", fail)
        with pytest.raises(SizeCapError):
            fock.davidson_pitts_sweep(L_values, N_sym)

    def test_sweep_nondecreasing(self):
        table = davidson_pitts_sweep(range(4, 11), N_sym=8)
        norms = [row["norm_sym_calculus"] for row in table["rows"]]
        assert all(b >= a - 1e-10 for a, b in zip(norms, norms[1:]))

    def test_gap_at_moderate_size(self):
        out = davidson_pitts_sweep([8], N_sym=8)
        word = out["rows"][0]["norm_sym_calculus"]
        assert word - out["norm_sym_shift"] > 0.1
        assert word > math.sqrt(2.0) > out["norm_sym_shift"]


class TestBoundaryState:
    def setup_method(self):
        zeta = np.array([0.6, 0.8j])
        self.zeta = zeta / np.linalg.norm(zeta)

    def test_single_letter(self):
        assert abs(cuntz_state_word(self.zeta, (1,), ()) - self.zeta[0]) < 1e-15

    def test_empty_words(self):
        assert cuntz_state_word(self.zeta, (), ()) == 1.0

    def test_mixed_word(self):
        expect = self.zeta[0] * np.conj(self.zeta[1])
        assert abs(cuntz_state_word(self.zeta, (1,), (2,)) - expect) < 1e-15

    def test_long_word(self):
        expect = (self.zeta[0] ** 2 * self.zeta[1]
                  * np.conj(self.zeta[0]) * np.conj(self.zeta[1]) ** 2)
        assert abs(cuntz_state_word(self.zeta, (1, 1, 2), (1, 2, 2)) - expect) < 1e-15

    def test_rejects_interior_point(self):
        with pytest.raises(ValueError):
            cuntz_state_word([0.5, 0.0], (1,), ())

    def test_transform_at_origin(self):
        assert cuntz_state_herglotz(self.zeta, [0.0, 0.0], 5) == 1.0

    def test_real_slice_partial_sums(self):
        e1 = np.array([1.0, 0.0])
        for r in (0.2, 0.5, 0.8):
            val = cuntz_state_herglotz(e1, [r, 0.0], 400)
            assert abs(val - (1 + r) / (1 - r)) < 1e-10

    def test_geometric_tail_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            zeta /= np.linalg.norm(zeta)
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            z = z / np.linalg.norm(z) * rng.uniform(0.0, 0.9)
            w = complex(np.sum(z * np.conj(zeta)))
            exact = (1 + w) / (1 - w)
            for K in (3, 8, 20, 60):
                err = abs(cuntz_state_herglotz(zeta, z, K) - exact)
                bound = 2 * abs(w) ** (K + 1) / (1 - abs(w))
                assert err <= bound + 1e-12

    def test_brute_force_word_sum_agrees(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = z / np.linalg.norm(z) * 0.5
        for K in (0, 1, 3, 6):
            assert abs(cuntz_state_herglotz(self.zeta, z, K)
                       - cuntz_state_herglotz_bruteforce(self.zeta, z, K)) < 1e-12

    def test_divergence_guard(self):
        with pytest.raises(ValueError):
            cuntz_state_herglotz([1.0, 0.0], [1.0, 0.0], 5)
