import tracemalloc
import warnings

import numpy as np
import pytest

from l0l1 import game
from l0l1.bregman import simplex_to_dual, uniform_simplex_weights
from l0l1.game import (
    GameConfig,
    _dantzig_bound,
    _linf_bound,
    dantzig_game_solve,
    game_solve,
    holder_optimal_dual,
    loss,
    loss_bound,
    max_update,
    sparse_best_response,
)
from l0l1.numerics import lp_norm
from l0l1.projections import clip_into_l1_ball
from l0l1.pursuit import PursuitConfig, clash_solve, lasso_pg_solve


class TestLoss:
    def test_zero_dual_point(self):
        rng = np.random.default_rng(0)
        phi = rng.normal(size=(4, 6))
        assert loss(np.zeros(4), rng.normal(size=6), phi, rng.normal(size=4)) == 0.0

    def test_direct_inner_product(self):
        phi = np.eye(2)
        val = loss(np.array([1.0, 0.0]), np.array([2.0, 5.0]), phi, np.zeros(2))
        assert val == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loss(np.zeros(3), np.zeros(2), np.eye(2), np.zeros(2))

    def test_bilinear(self):
        rng = np.random.default_rng(1)
        phi = rng.normal(size=(5, 7))
        f = rng.normal(size=5)
        p, a1, a2 = rng.normal(size=5), rng.normal(size=7), rng.normal(size=7)
        s = 0.7
        lhs = loss(p, a1 + s * a2, phi, f)
        rhs = loss(p, a1, phi, f) + s * loss(p, a2, phi, f) + s * float(p @ f)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestHolderOptimalDual:
    def test_q2_normalizes_residual(self):
        phi = np.eye(2)
        alpha = np.array([3.0, 4.0])
        p = holder_optimal_dual(alpha, phi, np.zeros(2), 2)
        np.testing.assert_allclose(p, [0.6, 0.8], atol=1e-15)
        np.testing.assert_allclose(loss(p, alpha, phi, np.zeros(2)), 5.0, atol=1e-12)

    def test_qinf_signed_indicator(self):
        phi = np.eye(3)
        alpha = np.array([1.0, -7.0, 2.0])
        p = holder_optimal_dual(alpha, phi, np.zeros(3), np.inf)
        assert np.array_equal(p, [0.0, -1.0, 0.0])
        np.testing.assert_allclose(loss(p, alpha, phi, np.zeros(3)), 7.0, atol=1e-15)

    def test_zero_residual(self):
        phi = np.eye(2)
        f = np.array([1.0, 2.0])
        p = holder_optimal_dual(f, phi, f, 2)
        assert np.array_equal(p, np.zeros(2))

    def test_rejects_other_exponents(self):
        with pytest.raises(ValueError, match="q must be 2 or inf"):
            holder_optimal_dual(np.ones(2), np.eye(2), np.zeros(2), 3)

    def test_tightness_random(self):
        rng = np.random.default_rng(2)
        for q in (2, np.inf):
            for _ in range(50):
                phi = rng.normal(size=(6, 10))
                alpha = rng.normal(size=10)
                f = rng.normal(size=6)
                p = holder_optimal_dual(alpha, phi, f, q)
                assert lp_norm(p, 2 if q == 2 else 1) <= 1 + 1e-12
                np.testing.assert_allclose(
                    loss(p, alpha, phi, f),
                    lp_norm(phi @ alpha - f, q),
                    atol=1e-9,
                )


class TestSparseBestResponse:
    def test_lemma_formula(self):
        play = sparse_best_response(np.array([1.0, 0.0]), np.eye(2), np.zeros(2), 3.0)
        assert np.array_equal(play, [-3.0, 0.0])

    def test_sign_flip(self):
        play = sparse_best_response(np.array([0.0, -2.0]), np.eye(2), np.zeros(2), 1.0)
        assert np.array_equal(play, [0.0, 1.0])

    def test_zero_correlation_returns_zero(self):
        play = sparse_best_response(np.zeros(2), np.eye(2), np.ones(2), 1.0)
        assert np.array_equal(play, np.zeros(2))

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan])
    def test_rejects_nonpositive_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be positive"):
            sparse_best_response(np.array([1.0, 0.0]), np.eye(2), np.zeros(2), tau)

    def test_achieves_minimum_loss(self):
        # L(P, play) = -tau * ||Phi^T P||_inf + <P, -f>
        rng = np.random.default_rng(3)
        for _ in range(30):
            phi = rng.normal(size=(5, 8))
            f = rng.normal(size=5)
            p = rng.normal(size=5)
            tau = float(rng.uniform(0.2, 3.0))
            play = sparse_best_response(p, phi, f, tau)
            expected = -tau * lp_norm(phi.T @ p, np.inf) + float(p @ -f)
            np.testing.assert_allclose(loss(p, play, phi, f), expected, atol=1e-10)
            # no signed scaled basis vector does better
            best = min(
                loss(p, s * tau * np.eye(8)[j], phi, f)
                for j in range(8)
                for s in (-1.0, 1.0)
            )
            assert loss(p, play, phi, f) <= best + 1e-12


class TestMaxUpdate:
    def test_zero_step_identity(self):
        p = np.array([0.1, -0.2])
        out = max_update(p, np.array([1.0, 1.0]), 0.0, 2)
        np.testing.assert_allclose(out, p, atol=1e-15)

    def test_euclidean_half_factor(self):
        out = max_update(np.zeros(2), np.array([0.3, 0.0]), 1.0, 2)
        np.testing.assert_allclose(out, [0.15, 0.0], atol=1e-15)

    def test_euclidean_projection_after_step(self):
        out = max_update(np.zeros(2), np.array([3.0, 4.0]), 4.0, 2)
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)

    def test_lifted_update_stays_on_simplex(self):
        m = 3
        w = uniform_simplex_weights(m)
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = max_update(w, rng.normal(size=m), 0.5, np.inf)
            assert np.all(w >= 0)
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)
            assert np.abs(simplex_to_dual(w)).sum() <= 1 + 1e-12

    def test_lifted_zero_step_identity(self):
        w = np.array([0.3, 0.2, 0.1, 0.15, 0.25])
        out = max_update(w, np.array([1.0, -2.0]), 0.0, np.inf)
        np.testing.assert_allclose(out, w, atol=1e-15)

    @pytest.mark.parametrize("defect", ["short residual", "zero weight", "exponent"])
    def test_rejects_mismatched_inputs(self, defect):
        w, r, q = uniform_simplex_weights(2), np.array([1.0, -2.0]), np.inf
        if defect == "short residual":
            r, message = r[:1], "does not fit"
        elif defect == "zero weight":
            w, message = np.array([0.5, 0.0, 0.0, 0.25, 0.25]), "positive"
        else:
            q, message = 3, "q must"
        with pytest.raises(ValueError, match=message):
            max_update(w, r, 0.5, q)


class TestLossBound:
    def test_identity_zero_observation(self):
        assert loss_bound(np.eye(2), np.zeros(2), 1.0, 2) == 1.0

    def test_identity_with_observation(self):
        assert loss_bound(np.eye(2), np.array([1.0, 0.0]), 1.0, 2) == 2.0

    def test_zero_tau(self):
        f = np.array([3.0, -4.0])
        assert loss_bound(np.eye(2), f, 0.0, 2) == 5.0

    def test_rejects_other_exponents(self):
        # q = 3 took the q = 2 formula
        with pytest.raises(ValueError, match="q must be 2 or inf"):
            loss_bound(np.eye(2), np.ones(2), 1.0, 3)

    @pytest.mark.parametrize("tau", [-1.0, np.nan])
    def test_rejects_a_negative_or_nan_tau(self, tau):
        # -1 gave 1.0, below the tau = 0 bound sqrt(2), and NaN gave NaN
        for q in (2, np.inf):
            with pytest.raises(ValueError, match="tau must be >= 0"):
                loss_bound(np.eye(2), np.ones(2), tau, q)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for q in (2, np.inf):
            phi = rng.normal(size=(4, 6))
            f = rng.normal(size=4)
            tau = 1.7
            cands = [
                lp_norm(s * tau * phi[:, j] - f, q)
                for j in range(6)
                for s in (1.0, -1.0)
            ]
            np.testing.assert_allclose(loss_bound(phi, f, tau, q), max(cands), atol=1e-12)

    @pytest.mark.parametrize("case", ["random", "tau zero", "f zero"])
    def test_linf_closed_form_equals_exhaustive_maximum(self, case):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 15))
            phi = rng.normal(size=(m, n)) * rng.choice([1e-3, 1.0, 1e3])
            f = np.zeros(m) if case == "f zero" else rng.normal(size=m)
            tau = 0.0 if case == "tau zero" else float(rng.uniform(0.1, 5.0))
            cands = [
                np.max(np.abs(s * tau * phi[:, j] - f))
                for j in range(n)
                for s in (1.0, -1.0)
            ]
            assert loss_bound(phi, f, tau, np.inf) == max(cands)

    SCREEN_CASES = [
        "random", "equal norms", "duplicate and negated", "zero column",
        "zero matrix", "f zero", "tau 1e-12", "tau 1e12",
    ]

    @pytest.mark.parametrize("case", SCREEN_CASES)
    def test_dantzig_screen_equals_exhaustive_bound(self, case):
        # the screened bound against every row of Phi^T Phi; the full
        # product goes through syrk, which may round an entry one ulp away
        # from the gemm products the screen reads
        rng = np.random.default_rng(13)
        for _ in range(30):
            m, n = int(rng.integers(1, 40)), int(rng.integers(1, 300))
            phi = rng.normal(size=(m, n)) * rng.uniform(0.2, 2.0, size=n)
            f = rng.normal(size=m) * rng.choice([1e-3, 1.0, 1e3])
            tau = float(rng.uniform(0.1, 5.0))
            if case == "equal norms":
                # every row passes the screen
                phi /= np.linalg.norm(phi, axis=0)
                f = np.zeros(m)
            elif case == "duplicate and negated":
                # Cauchy-Schwarz is tight on the longest column and its
                # copies, and only the rounding margin keeps their rows
                j = int(np.argmax(np.linalg.norm(phi, axis=0)))
                phi = np.column_stack([phi, phi[:, j], -phi[:, j]])
                if rng.uniform() < 0.5:
                    f = np.zeros(m)
            elif case == "zero column":
                phi[:, rng.integers(n)] = 0.0
            elif case == "zero matrix":
                phi = np.zeros((m, n))
            elif case == "f zero":
                f = np.zeros(m)
            elif case.startswith("tau"):
                tau = float(case.split()[1])
            fg = phi.T @ f
            exhaustive = _linf_bound(np.max(np.abs(phi.T @ phi), axis=1), fg, tau)
            screened = _dantzig_bound(phi, fg, tau)
            assert screened == pytest.approx(exhaustive, rel=4 * np.finfo(float).eps, abs=0)


def reference_game(phi, f, cfg):
    """The game loop written out from the public pieces: a dense best
    response, its loss, the residual Phi play - f, and the average of the
    plays as tau times their signed counts over T."""
    m, n = phi.shape
    if np.isinf(cfg.q):
        diameter = np.sqrt(2.0 * np.log(2 * m + 1))
        dual, decode = uniform_simplex_weights(m), simplex_to_dual
    else:
        diameter, dual, decode = 1.0, np.zeros(m), lambda p: p
    g_bound = loss_bound(phi, f, cfg.tau, cfg.q)
    eta = 2.0 * diameter / (g_bound * np.sqrt(cfg.rounds))
    counts, history = np.zeros(n, dtype=np.int64), []
    for _ in range(cfg.rounds):
        p = decode(dual)
        play = sparse_best_response(p, phi, f, cfg.tau)
        history.append(loss(p, play, phi, f))
        counts += np.sign(play).astype(np.int64)
        dual = max_update(dual, phi @ play - f, eta, cfg.q)
    alpha = clip_into_l1_ball(cfg.tau * counts / cfg.rounds, cfg.tau)
    return alpha, history, g_bound, lp_norm(phi @ alpha - f, cfg.q)


class TestRoundLoop:
    @pytest.mark.parametrize("q", [2, np.inf])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_loop_bit_for_bit(self, seed, q):
        rng = np.random.default_rng(100 + seed)
        m, n = int(rng.integers(5, 31)), int(rng.integers(10, 81))
        phi = rng.normal(size=(m, n)) / np.sqrt(m)
        f = rng.normal(size=m)
        cfg = GameConfig(rounds=int(rng.integers(5, 40)), q=q, tau=float(rng.uniform(0.5, 3.0)))
        res, cert = game_solve(phi, f, cfg)
        alpha, history, g_bound, achieved = reference_game(phi, f, cfg)
        assert np.array_equal(res.alpha, alpha)
        assert res.history == history
        assert cert.loss_bound == g_bound
        assert cert.achieved_residual == achieved == res.residual_q

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dantzig_form_matches_explicit_gram(self, seed):
        rng = np.random.default_rng(200 + seed)
        m, n = int(rng.integers(5, 31)), int(rng.integers(10, 81))
        phi = rng.normal(size=(m, n)) / np.sqrt(m)
        f = rng.normal(size=m)
        cfg = GameConfig(rounds=30, q=np.inf, tau=float(rng.uniform(0.5, 3.0)))
        res, cert = dantzig_game_solve(phi, f, cfg)
        ref, ref_cert = game_solve(phi.T @ phi, phi.T @ f, cfg)
        assert np.array_equal(res.alpha, ref.alpha)
        np.testing.assert_allclose(res.history, ref.history, rtol=1e-12, atol=1e-12 * cert.loss_bound)
        for name in ("loss_bound", "diameter", "regret_bound", "achieved_residual"):
            np.testing.assert_allclose(getattr(cert, name), getattr(ref_cert, name), rtol=1e-12)
        np.testing.assert_allclose(res.residual_l2, ref.residual_l2, rtol=1e-12)

    def test_dantzig_form_stores_no_gram_matrix(self):
        rng = np.random.default_rng(300)
        m, n = 20, 2000
        phi = rng.normal(size=(m, n)) / np.sqrt(m)
        f = rng.normal(size=m)
        tracemalloc.start()
        try:
            dantzig_game_solve(phi, f, GameConfig(rounds=10, tau=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


class TestInputChecks:
    SOLVERS = {
        "game-l2": lambda phi, f: game_solve(phi, f, GameConfig(rounds=5, q=2)),
        "game-linf": lambda phi, f: dantzig_game_solve(phi, f, GameConfig(rounds=5)),
    }

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("defect", ["nan in f", "nan in phi", "short f"])
    def test_bad_input_raises_value_error(self, solver, defect):
        rng = np.random.default_rng(12)
        phi, f = rng.normal(size=(12, 30)), rng.normal(size=12)
        if defect == "nan in f":
            f[3] = np.nan
        elif defect == "nan in phi":
            phi[2, 7] = np.nan
        else:
            f = f[:-1]
        with pytest.raises(ValueError):
            self.SOLVERS[solver](phi, f)

    @pytest.mark.parametrize("solve, scale, tau", [
        (game_solve, 1e200, 2e200),
        (dantzig_game_solve, 1.0, 1.5e308),
    ])
    def test_overflowing_loss_bound_rejected(self, solve, scale, tau):
        # with G = inf the step 2D/(G sqrt T) was 0: the run reported
        # "completed 20 rounds" with alpha = 0 and an infinite residual
        rng = np.random.default_rng(12)
        phi, f = rng.normal(size=(20, 40)) / np.sqrt(20), rng.normal(size=20)
        # numpy warns as the bound's products overflow
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="loss bound"):
            solve(phi, scale * f, GameConfig(rounds=20, tau=tau))

    @pytest.mark.xfail(
        strict=True,
        raises=ValueError,
        reason="GAME does not solve at a power-of-two scale of f and tau as the pursuits "
        "do, so its loss bound G overflows at scales where CLASH solves",
    )
    def test_a_power_of_two_scale_of_f_and_tau_scales_the_answer(self):
        # scaling by f's exponent alone would overflow G for a tiny f with
        # tau near 1, so the mend is open; at 2^498 the game solves
        rng = np.random.default_rng(12)
        phi, f = rng.normal(size=(20, 40)) / np.sqrt(20), rng.normal(size=20)
        c = 2.0**532  # about 1.4e160
        clash, _ = clash_solve(phi, c * f, PursuitConfig(3, c))
        assert np.isfinite(clash.residual_l2)
        ref, _ = game_solve(phi, f, GameConfig(20, 2, 1.0))
        with np.errstate(over="ignore"):
            res, _ = game_solve(phi, c * f, GameConfig(20, 2, c))
        assert np.array_equal(res.alpha, c * ref.alpha)

    def test_residual_l2_beyond_the_normal_range_is_finite(self):
        # the squares of a residual near 1e200 overflowed: residual_l2 read
        # inf, after a RuntimeWarning, while residual_q was finite
        rng = np.random.default_rng(0)
        phi, f = rng.normal(size=(20, 40)) / np.sqrt(20), rng.normal(size=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, _ = dantzig_game_solve(phi, 1e200 * f, GameConfig(20, 2, 2e200))
        assert np.isfinite(res.residual_l2)
        assert res.residual_l2 >= res.residual_q


class TestGameSolve:
    def _instance(self, seed=0, m=20, n=50, k=4):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(m, n)) / np.sqrt(m)
        alpha = np.zeros(n)
        support = rng.choice(n, size=k, replace=False)
        alpha[support] = rng.normal(size=k)
        alpha /= np.linalg.norm(alpha)
        return phi, alpha, phi @ alpha

    def test_output_feasibility_exact(self):
        phi, alpha_star, f = self._instance(1)
        tau = np.abs(alpha_star).sum()
        for t_rounds in (7, 40):
            res, cert = game_solve(phi, f, GameConfig(rounds=t_rounds, q=2, tau=tau))
            assert np.count_nonzero(res.alpha) <= t_rounds
            assert np.abs(res.alpha).sum() <= tau

    def test_regret_inequality_q2(self):
        phi, alpha_star, f = self._instance(2)
        tau = np.abs(alpha_star).sum()
        lasso = lasso_pg_solve(phi, f, tau, tol=1e-10, max_iter=20000)
        for t_rounds in (10, 100):
            res, cert = game_solve(phi, f, GameConfig(rounds=t_rounds, q=2, tau=tau))
            assert res.residual_q <= lasso.residual_q + cert.regret_bound + 1e-6

    def test_noiseless_residual_shrinks_with_rounds(self):
        phi, alpha_star, f = self._instance(3)
        tau = np.abs(alpha_star).sum()
        res_small, _ = game_solve(phi, f, GameConfig(rounds=8, q=2, tau=tau))
        res_large, _ = game_solve(phi, f, GameConfig(rounds=256, q=2, tau=tau))
        assert res_large.residual_q <= res_small.residual_q

    def test_per_round_plays_one_sparse_with_full_budget(self):
        phi, alpha_star, f = self._instance(4)
        tau = np.abs(alpha_star).sum()
        g_bound = loss_bound(phi, f, tau, 2)
        eta = 2.0 / (g_bound * np.sqrt(50))
        p = np.zeros(phi.shape[0])
        alpha_sum = np.zeros(phi.shape[1])
        running_best = []
        best = np.inf
        for t in range(1, 51):
            play = sparse_best_response(p, phi, f, tau)
            if np.any(phi.T @ p != 0.0):
                assert np.count_nonzero(play) == 1
                np.testing.assert_allclose(np.abs(play).sum(), tau, atol=0)
            else:
                # defined degenerate round: zero correlation, zero play
                assert np.array_equal(play, np.zeros(phi.shape[1]))
            alpha_sum += play
            best = min(best, lp_norm(phi @ (alpha_sum / t) - f, 2))
            running_best.append(best)
            p = max_update(p, phi @ play - f, eta, 2)
        assert all(b1 >= b2 for b1, b2 in zip(running_best, running_best[1:]))

    def test_zero_problem_returns_zero(self):
        res, cert = game_solve(
            np.zeros((3, 5)), np.zeros(3), GameConfig(rounds=10, q=2, tau=1.0)
        )
        assert np.array_equal(res.alpha, np.zeros(5))
        assert cert.loss_bound == 0.0

    def test_deterministic(self):
        phi, alpha_star, f = self._instance(5)
        tau = np.abs(alpha_star).sum()
        r1, _ = game_solve(phi, f, GameConfig(rounds=30, q=2, tau=tau))
        r2, _ = game_solve(phi, f, GameConfig(rounds=30, q=2, tau=tau))
        assert np.array_equal(r1.alpha, r2.alpha)

    def test_duality_gap_certificate_on_output(self):
        # max_P L(P, alpha_hat) over the dual ball, reached at the
        # Holder-tight point, equals the achieved residual
        phi, alpha_star, f = self._instance(9)
        tau = np.abs(alpha_star).sum()
        for q in (2, np.inf):
            res, _ = game_solve(phi, f, GameConfig(rounds=40, q=q, tau=tau))
            dual = holder_optimal_dual(res.alpha, phi, f, q)
            np.testing.assert_allclose(
                loss(dual, res.alpha, phi, f), res.residual_q, atol=1e-9
            )

    def test_qinf_lifted_game_runs_and_is_feasible(self):
        phi, alpha_star, f = self._instance(6)
        tau = np.abs(alpha_star).sum()
        res, cert = game_solve(phi, f, GameConfig(rounds=60, q=np.inf, tau=tau))
        assert np.count_nonzero(res.alpha) <= 60
        assert np.abs(res.alpha).sum() <= tau
        m = phi.shape[0]
        np.testing.assert_allclose(
            cert.diameter, np.sqrt(2 * np.log(2 * m + 1)), atol=1e-12
        )

    def test_dantzig_form_contract(self):
        phi, alpha_star, f = self._instance(7)
        tau = np.abs(alpha_star).sum()
        res, cert = dantzig_game_solve(phi, f, GameConfig(rounds=50, tau=tau))
        gram = phi.T @ phi
        fg = phi.T @ f
        np.testing.assert_allclose(
            res.residual_q, lp_norm(gram @ res.alpha - fg, np.inf), atol=1e-12
        )
        # regret inequality in the transformed system
        lasso = lasso_pg_solve(gram, fg, tau, tol=1e-10, max_iter=20000)
        opt_inf = lp_norm(gram @ lasso.alpha - fg, np.inf)
        assert res.residual_q <= opt_inf + cert.regret_bound + 1e-6

    def test_eta_auto_matches_formula(self):
        phi, alpha_star, f = self._instance(8)
        tau = np.abs(alpha_star).sum()
        res, cert = game_solve(phi, f, GameConfig(rounds=25, q=2, tau=tau))
        np.testing.assert_allclose(
            cert.regret_bound, cert.diameter * cert.loss_bound / (2 * np.sqrt(25)),
            atol=1e-15,
        )

    def test_long_linf_game_leaves_the_normal_range(self, monkeypatch):
        # 2 D sqrt(T) = 838 > 709: the weight on the sign of f_1 that the
        # plays cannot correct falls below the normal double range
        rng = np.random.default_rng(31)
        phi = rng.normal(size=(4, 12)) / 2.0
        f = np.array([5.0, 0.3, -0.2, 0.1])
        tau, t_rounds = 0.05, 40_000
        smallest = [1.0]
        step = game._dual_step

        def checked_step(dual, residual, rate, lifted):
            w = step(dual, residual, rate, lifted)
            assert np.all(np.isfinite(w)) and np.all(w >= 0)
            assert abs(np.sum(w) - 1.0) <= 1e-12
            smallest[0] = min(smallest[0], float(np.min(w)))
            return w

        monkeypatch.setattr(game, "_dual_step", checked_step)
        res, cert = game_solve(phi, f, GameConfig(rounds=t_rounds, q=np.inf, tau=tau))
        assert 2 * cert.diameter * np.sqrt(t_rounds) > 709
        assert smallest[0] < np.finfo(float).tiny
        assert np.count_nonzero(res.alpha) <= t_rounds
        assert np.abs(res.alpha).sum() <= tau
        lasso = lasso_pg_solve(phi, f, tau, tol=1e-10, max_iter=20000)
        opt_inf = lp_norm(phi @ lasso.alpha - f, np.inf)
        assert res.residual_q <= opt_inf + cert.regret_bound + 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GameConfig(rounds=0)
        with pytest.raises(ValueError, match="rounds must be an integer"):
            GameConfig(rounds=2.5)
        with pytest.raises(ValueError):
            GameConfig(rounds=5, q=3)
        # -inf was accepted, and the solve failed only after its last round
        with pytest.raises(ValueError, match="q must be 2 or inf"):
            GameConfig(rounds=5, q=-np.inf)
        with pytest.raises(ValueError):
            GameConfig(rounds=5, tau=0.0)
        with pytest.raises(ValueError):
            GameConfig(rounds=5, tau=np.inf)
