from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l0l1 import pursuit
from l0l1.numerics import lp_norm, restricted_lsq
from l0l1.projections import hard_threshold, l1_project, top_k_support
from l0l1.pursuit import (
    PursuitConfig,
    _clash_loop,
    _l1_restricted_lsq,
    clash_solve,
    contraction_check,
    iht_solve,
    lasso_pg_solve,
    sp_solve,
)
from l0l1.synth import ProblemSpec, derive_seed, generate


def desk_instance(seed, n=250, m=80, k=12, sigma=0.0):
    return generate(ProblemSpec(n=n, m=m, k=k, sigma=sigma, seed=seed))


def differing_fields(a, b):
    """Names of the dataclass fields in which a and b differ, arrays
    compared bit for bit and everything else with ==."""

    def key(value):
        if isinstance(value, np.ndarray):
            return value.tobytes()
        if isinstance(value, list):
            return [key(v) for v in value]
        return value

    return [f.name for f in fields(a) if key(getattr(a, f.name)) != key(getattr(b, f.name))]


def loop_scale(f):
    """2^e, e the binary exponent of max |f|: `clash_solve` and `sp_solve`
    run their loops on f / 2^e with the budget tau / 2^e."""
    return np.ldexp(1.0, np.frexp(np.max(np.abs(f)))[1])


def bits(trace):
    """The bytes of each iterate of a trace, to compare traces bit for bit."""
    return [it.tobytes() for it in trace]


def scaled_trace(trace, c):
    """`trace` with its iterates multiplied by c."""
    return [c * it for it in trace]


class TestSubspacePursuit:
    def test_identity_matrix_exact_recovery(self):
        f = np.zeros(8)
        f[[1, 4, 6]] = [2.0, -1.0, 0.5]
        res, trace = sp_solve(np.eye(8), f, PursuitConfig(sparsity=3))
        np.testing.assert_allclose(res.alpha, f, atol=1e-12)
        assert res.iterations <= 2

    def test_zero_observation(self):
        res, _ = sp_solve(np.eye(5), np.zeros(5), PursuitConfig(sparsity=2))
        assert np.array_equal(res.alpha, np.zeros(5))

    def test_gaussian_recovery_easy_regime(self):
        hits = 0
        for i in range(5):
            p = desk_instance(derive_seed(100, i), n=500, m=160, k=20)
            res, _ = sp_solve(p.phi, p.f, PursuitConfig(sparsity=20))
            hits += np.linalg.norm(res.alpha - p.alpha_star) <= 1e-6
        assert hits >= 4

    def test_twice_sparsity_above_rows(self):
        # with 2k > M the union of supports is capped at M columns, the most
        # restricted least squares takes
        p = desk_instance(17, n=60, m=20, k=15, sigma=0.01)
        res, trace = sp_solve(p.phi, p.f, PursuitConfig(sparsity=15))
        assert np.count_nonzero(res.alpha) <= 15
        assert res.residual_l2 <= lp_norm(p.f, 2)
        assert all(np.count_nonzero(it) <= 15 for it in trace)

    def test_sparsity_exceeding_rows_rejected(self):
        with pytest.raises(ValueError):
            sp_solve(np.ones((3, 6)), np.ones(3), PursuitConfig(sparsity=4))

    def test_duplicated_column(self, monkeypatch):
        # both copies of the column most correlated with f enter the first
        # fit, whose Gram matrix is then singular and is solved by lstsq
        phi, f, _ = gaussian_case(8, m=30, n=60)
        phi[:, 59] = phi[:, np.argmax(np.abs(phi[:, :59].T @ f))]
        fallbacks = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **kw: fallbacks.append(1) or lstsq(*a, **kw)
        )
        res, trace = sp_solve(phi, f, PursuitConfig(sparsity=15))
        assert fallbacks
        assert np.all(np.isfinite(res.alpha))
        assert np.count_nonzero(res.alpha) <= 15
        assert all(np.count_nonzero(it) <= 15 for it in trace)

    def test_iterates_k_sparse(self):
        p = desk_instance(7)
        res, trace = sp_solve(p.phi, p.f, PursuitConfig(sparsity=12))
        for it in trace:
            assert np.count_nonzero(it) <= 12

    def test_extended_support_at_most_2k(self):
        p = desk_instance(8)
        k = 12
        support = top_k_support(p.phi.T @ p.f, k)
        alpha = restricted_lsq(p.phi, p.f, support)
        for _ in range(6):
            residual = p.f - p.phi @ alpha
            extended = np.union1d(support, top_k_support(p.phi.T @ residual, k))
            assert extended.size <= 2 * k
            v = restricted_lsq(p.phi, p.f, extended)
            gamma = hard_threshold(v, k)
            support = np.nonzero(gamma)[0]
            alpha = restricted_lsq(p.phi, p.f, support)


class TestClash:
    def test_tau_infinite_matches_sp_bitwise(self):
        for i in range(3):
            p = desk_instance(derive_seed(200, i), sigma=0.005 if i else 0.0)
            (rs, ts), (rc, tc) = [
                solve(p.phi, p.f, PursuitConfig(sparsity=12, tau=np.inf))
                for solve in (sp_solve, clash_solve)
            ]
            # SP is CLASH's single cold start at tau = inf: the two agree in
            # every result and trace field, its first iterate, the fit on
            # the top-k correlations, included
            assert differing_fields(rs, rc) == []
            assert bits(ts) == bits(tc)
            assert len(ts) == len(rs.history) == rs.iterations
            first = restricted_lsq(p.phi, p.f, top_k_support(p.phi.T @ p.f, 12))
            assert ts[0].tobytes() == first.tobytes()

    def test_noiseless_recovery_easy_regime(self):
        p = desk_instance(derive_seed(300, 1), n=500, m=160, k=20)
        res, _ = clash_solve(
            p.phi, p.f, PursuitConfig(sparsity=20, tau=p.tau_star)
        )
        assert np.linalg.norm(res.alpha - p.alpha_star) <= 1e-6

    def test_zero_observation(self):
        res, _ = clash_solve(np.eye(5), np.zeros(5), PursuitConfig(sparsity=2, tau=1.0))
        assert np.array_equal(res.alpha, np.zeros(5))

    def test_iterates_feasible_both_budgets(self):
        p = desk_instance(9, sigma=0.02)
        tau = 0.8 * p.tau_star
        res, trace = clash_solve(p.phi, p.f, PursuitConfig(sparsity=12, tau=tau))
        for it in trace:
            assert np.count_nonzero(it) <= 12
            assert np.abs(it).sum() <= tau
        assert np.count_nonzero(res.alpha) <= 12
        assert np.abs(res.alpha).sum() <= tau

    def test_full_length_l1_within_tau_at_half_budget(self):
        # nudged onto the ball over the support alone, the full-length sum
        # of some of these outputs used to round one ulp above tau
        for i in range(10):
            p = generate(ProblemSpec(n=200, m=64, k=20, sigma=0.05,
                                     seed=derive_seed(1, i), noise_mode="fixed-norm"))
            tau = 0.5 * p.tau_star
            res, _ = clash_solve(p.phi, p.f, PursuitConfig(sparsity=20, tau=tau))
            assert np.sum(np.abs(res.alpha)) <= tau

    def test_debias_never_increases_residual(self):
        p = desk_instance(10, sigma=0.01)
        k, tau = 12, 0.9 * p.tau_star
        alpha = np.zeros(p.phi.shape[1])
        support = np.empty(0, dtype=np.int64)
        for _ in range(5):
            grad = p.phi.T @ (p.phi @ alpha - p.f)
            go = grad.copy()
            go[support] = 0.0
            extended = np.union1d(support, top_k_support(go, k))
            v = _l1_restricted_lsq(p.phi, p.f, extended, tau, alpha)[0]
            gamma = hard_threshold(v, k)
            debiased = _l1_restricted_lsq(p.phi, p.f, np.nonzero(gamma)[0], tau, gamma)[0]
            res_gamma = lp_norm(p.f - p.phi @ gamma, 2)
            res_debiased = lp_norm(p.f - p.phi @ debiased, 2)
            assert res_debiased <= res_gamma + 1e-10
            alpha, support = debiased, np.nonzero(debiased)[0]

    def test_portfolio_disabled_matches_plain_member(self):
        p = desk_instance(11)
        tau = p.tau_star
        res, trace = clash_solve(p.phi, p.f, PursuitConfig(sparsity=12, tau=tau))
        plain, plain_trace, _ = _clash_loop(p.phi, p.f, 12, tau, np.zeros(p.phi.shape[1]))
        # easy regime: the first (plain) member, one loop from zero, already
        # recovers exactly, so the portfolio short-circuits to its run
        assert differing_fields(res, plain) == []
        assert bits(trace) == bits(plain_trace)
        assert res.residual_l2 == res.history[-1]

    def test_trace_is_the_winning_members_run(self, monkeypatch):
        # C6 instance 44: member 1, the momentum run, wins and members 2-4
        # run after it, so the reported trace is neither member 0's nor the
        # last run's
        runs = []
        clash_loop = pursuit._clash_loop

        def recording(phi, f, k, tau, *args):
            runs.append((tau, clash_loop(phi, f, k, tau, *args)))
            return runs[-1][1]

        monkeypatch.setattr(pursuit, "_clash_loop", recording)
        spec = ProblemSpec(n=500, m=160, k=62, sigma=0.0, seed=derive_seed(777000, 44))
        p = generate(spec)
        res, trace = clash_solve(p.phi, p.f, PursuitConfig(sparsity=62, tau=p.tau_star))
        c = loop_scale(p.f)
        members = [run for tau, run in runs if tau == p.tau_star / c]
        winner = min(range(len(members)), key=lambda i: members[i][0].residual_l2)
        assert winner == 1 and len(members) == 5
        assert bits(scaled_trace(members[winner][1], c)) == bits(trace)
        assert len(trace) == len(res.history) == res.iterations
        assert trace[-1].tobytes() == res.alpha.tobytes()
        assert res.history[-1] == res.residual_l2

    def test_portfolio_schedules_ascend_inside_the_budget(self):
        # so each stage's answer lies in the next stage's ball, and the
        # projections before each loop in `_pursue` return their input
        for schedule, _ in pursuit.CONTINUATION_PORTFOLIO:
            assert all(a < b for a, b in zip((0.0,) + schedule, schedule + (1.0,)))

    def test_portfolio_runs_its_one_loop_members_first(self):
        # the momentum member, one loop, reaches member 0's point at a
        # binding budget sooner than a staged member, and stops the
        # portfolio there
        staged = [bool(schedule) for schedule, _ in pursuit.CONTINUATION_PORTFOLIO]
        assert staged == sorted(staged)
        assert pursuit.CONTINUATION_PORTFOLIO[:2] == (((), False), ((), True))

    def test_last_member_can_win(self, monkeypatch):
        # tau-sweep trial 25 of seed 321 at tau = ||alpha*||_1: all five
        # members run and the last, stages (0.6, 0.85), ends lowest
        runs = []
        clash_loop = pursuit._clash_loop

        def recording(phi, f, k, tau, alpha0, *args):
            assert np.sum(np.abs(alpha0)) <= tau
            runs.append((tau, clash_loop(phi, f, k, tau, alpha0, *args)))
            return runs[-1][1]

        monkeypatch.setattr(pursuit, "_clash_loop", recording)
        p = generate(ProblemSpec(n=500, m=160, k=57, sigma=0.05, seed=derive_seed(321, 25),
                                 noise_mode="fixed-norm"))
        res, trace = clash_solve(p.phi, p.f, PursuitConfig(sparsity=57, tau=p.tau_star))
        c = loop_scale(p.f)
        members = [run for tau, run in runs if tau == p.tau_star / c]
        assert len(members) == len(pursuit.CONTINUATION_PORTFOLIO) == 5
        assert [tau * c / p.tau_star for tau, _ in runs[-3:-1]] == pytest.approx([0.6, 0.85])
        assert min(m[0].residual_l2 for m in members[:-1]) * c > res.residual_l2
        assert bits(scaled_trace(members[-1][1], c)) == bits(trace)
        assert res.residual_l2 == pytest.approx(0.0379564408, rel=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PursuitConfig(sparsity=0)
        with pytest.raises(ValueError):
            PursuitConfig(sparsity=2, tau=-1.0)
        with pytest.raises(ValueError, match="sparsity must be an integer"):
            PursuitConfig(sparsity=2.5)

    @pytest.mark.parametrize("tau", [10.0, np.inf])
    def test_extension_when_the_top_k_holds_support_indices(self, monkeypatch, tau):
        # one correlation off the support {0, 1} is nonzero and k = 3, so the
        # top 3 take zeros from the support; the extended support is still
        # the sorted union, each index once
        phi, f, alpha0 = np.eye(8), np.zeros(8), np.zeros(8)
        f[[0, 1, 5]] = [2.0, 1.0, 0.5]
        alpha0[[0, 1]] = [2.0, 1.0]
        tops, supports = [], []
        top_k, l1_lsq, lsq = top_k_support, _l1_restricted_lsq, pursuit._restricted_lsq
        monkeypatch.setattr(pursuit, "top_k_support",
                            lambda w, k: tops.append(top_k(w, k)) or tops[-1])
        monkeypatch.setattr(pursuit, "_l1_restricted_lsq",
                            lambda phi, f, s, *a: supports.append(s) or l1_lsq(phi, f, s, *a))
        monkeypatch.setattr(pursuit, "_restricted_lsq",
                            lambda phi, f, s: supports.append(s) or lsq(phi, f, s))
        _clash_loop(phi, f, 3, tau, alpha0)
        assert np.array_equal(tops[0], [0, 1, 5])
        union = np.union1d(np.nonzero(alpha0)[0], tops[0])
        assert supports[0].dtype == union.dtype
        assert np.array_equal(supports[0], union)


class TestCertificateStop:
    """The portfolio stops once the duality gap over the l1 ball certifies
    the best run optimal."""

    @staticmethod
    def objective(phi, f, a):
        r = f - phi @ a
        return 0.5 * float(r @ r)

    @staticmethod
    def ball_minimizer(p, tau):
        # lasso_pg_solve finds the support, and the exact solve on it
        # removes the gap of 1e-10 to 1e-8 at which FISTA stalls here
        lasso = lasso_pg_solve(p.phi, p.f, tau, tol=1e-12).alpha
        return _l1_restricted_lsq(p.phi, p.f, np.nonzero(lasso)[0], tau, lasso)[0]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("frac", [0.1, 0.2])
    def test_gap_within_rounding_at_a_sparse_minimizer(self, seed, frac):
        p, _ = half_budget_instance(derive_seed(1, seed))
        tau = frac * p.tau_star
        best = self.ball_minimizer(p, tau)
        assert 0 < np.count_nonzero(best) <= 20
        gap, rounding = pursuit._duality_gap(p.phi, p.f, best, tau)
        assert 0 < rounding < 1e-13
        assert gap <= rounding

    @pytest.mark.parametrize("seed", range(4))
    def test_gap_bounds_the_excess_objective(self, seed):
        p, _ = half_budget_instance(derive_seed(1, seed))
        tau = 0.2 * p.tau_star
        best = self.ball_minimizer(p, tau)
        lowest = self.objective(p.phi, p.f, best)
        rng = np.random.default_rng(seed)
        points = [
            np.zeros(200),
            l1_project(rng.normal(size=200), tau),
            0.5 * l1_project(p.alpha_star, tau),
            l1_project(p.alpha_star, tau),
            lasso_pg_solve(p.phi, p.f, tau, max_iter=3).alpha,
            l1_project(best + 1e-6 * rng.normal(size=200), tau),
        ]
        for a in points:
            gap, rounding = pursuit._duality_gap(p.phi, p.f, a, tau)
            excess = self.objective(p.phi, p.f, a) - lowest
            assert excess > 0
            assert gap >= excess - rounding - 1e-14 * lowest
            assert gap > rounding

    def test_binding_budget_solve_runs_one_loop(self, monkeypatch):
        loops = []
        clash_loop = pursuit._clash_loop
        monkeypatch.setattr(pursuit, "_clash_loop",
                            lambda *a: loops.append(a[3]) or clash_loop(*a))
        p = generate(ProblemSpec(n=500, m=160, k=57, sigma=0.05, seed=derive_seed(1, 0),
                                 noise_mode="fixed-norm"))
        tau = 0.2 * p.tau_star
        res, _ = clash_solve(p.phi, p.f, PursuitConfig(sparsity=57, tau=tau))
        assert loops == [tau / loop_scale(p.f)]
        gap, rounding = pursuit._duality_gap(p.phi, p.f, res.alpha, tau)
        assert gap <= rounding

    def test_no_second_gap_after_a_certified_loop(self, monkeypatch):
        # the binding case's one loop ends "certified", and `_pursue` reads
        # that instead of taking the gap again; the loop passes its g, so
        # a gap of its own would be a call with four arguments
        calls = []
        duality_gap = pursuit._duality_gap
        monkeypatch.setattr(pursuit, "_duality_gap",
                            lambda *a: calls.append(len(a)) or duality_gap(*a))
        p, tau = self.binding_case()
        res, _ = clash_solve(p.phi, p.f, PursuitConfig(sparsity=57, tau=tau))
        assert res.termination == "certified"
        assert calls and 4 not in calls

    @staticmethod
    def portfolio_without_the_repeat_stop(phi, f, k, tau):
        """The portfolio loop without the stop on a repeated point, run on
        f itself: members run until an exact fit, three stalls or the
        certificate.  Returns the result, the trace and the full-budget
        runs."""
        exact_fit = 1e-6 * float(np.sqrt(f @ f))
        best, stalls, runs, memo = None, 0, [], {}
        for schedule, momentum in pursuit.CONTINUATION_PORTFOLIO:
            alpha, factor = np.zeros(phi.shape[1]), None
            for budget in [fraction * tau for fraction in schedule] + [tau]:
                result, trace, factor = _clash_loop(
                    phi, f, k, budget, l1_project(alpha, budget), momentum, memo,
                    factor,
                )
                alpha = result.alpha
            runs.append(result)
            if best is None or result.residual_l2 < best[0].residual_l2 * (1.0 - 5e-3):
                stalls = 0
            else:
                stalls += 1
            if best is None or result.residual_l2 < best[0].residual_l2:
                best = result, trace
                certified = result.termination == "certified"
                if not certified:
                    gap, rounding = pursuit._duality_gap(phi, f, alpha, tau)
                    certified = gap <= rounding
            if best[0].residual_l2 <= exact_fit or stalls >= 3 or certified:
                break
        return best[0], best[1], runs

    @staticmethod
    def uncertified_case():
        # clash-tau trial 146 of seed 1
        p = generate(ProblemSpec(n=500, m=160, k=57, sigma=0.05, seed=derive_seed(1, 146),
                                 noise_mode="fixed-norm"))
        return p, 0.5 * p.tau_star

    def test_uncertified_best_run_lets_the_portfolio_go_on(self, monkeypatch):
        # member 0 wins with a gap 4.4e9 times its rounding, the smallest of
        # the clash-tau pass's 52 uncertified solves, at a binding budget.
        # Members 1-3 end on its alpha, and without the stop on a repeat the
        # portfolio ends after member 3 on three stalls; with it, after
        # member 1, with the same result and trace
        p, tau = self.uncertified_case()
        ref, ref_trace, runs = self.portfolio_without_the_repeat_stop(p.phi, p.f, 57, tau)
        assert len(runs) == 4
        assert all(np.array_equal(run.alpha, ref.alpha) for run in runs)
        assert np.sum(np.abs(ref.alpha)) == pytest.approx(tau, rel=1e-15)
        loops = []
        clash_loop = pursuit._clash_loop
        monkeypatch.setattr(pursuit, "_clash_loop",
                            lambda *a: loops.append(a[3]) or clash_loop(*a))
        res, trace = clash_solve(p.phi, p.f, PursuitConfig(sparsity=57, tau=tau))
        assert loops.count(tau / loop_scale(p.f)) == 2
        assert differing_fields(res, ref) == []
        assert bits(trace) == bits(ref_trace)

    def test_momentum_member_ends_on_the_best_runs_point(self, monkeypatch):
        # the instance above: member 1, the momentum run, is handed member
        # 0's alpha and ends "repeat" on its third iterate, which equals it;
        # with no target it runs a fourth iteration that returns it again
        p, tau = self.uncertified_case()
        ref, ref_trace, runs = self.portfolio_without_the_repeat_stop(p.phi, p.f, 57, tau)
        loops = []
        clash_loop = pursuit._clash_loop
        monkeypatch.setattr(pursuit, "_clash_loop",
                            lambda *a: loops.append(clash_loop(*a)) or loops[-1])
        res, trace = clash_solve(p.phi, p.f, PursuitConfig(sparsity=57, tau=tau))
        c = loop_scale(p.f)
        momentum = loops[1][0]
        assert (momentum.termination, momentum.iterations) == ("repeat", 3)
        assert (runs[1].termination, runs[1].iterations) == ("converged", 4)
        assert [c * h for h in momentum.history] == runs[1].history[:3]
        assert np.array_equal(c * momentum.alpha, ref.alpha)
        assert differing_fields(res, ref) == []
        assert bits(trace) == bits(ref_trace)

    def test_repeat_of_another_point_lets_the_portfolio_go_on(self, monkeypatch):
        # the budget binds at member 0's alpha; member 1, the momentum run,
        # ends elsewhere, 5.3 % lower, with the budget binding there too;
        # members 2-4 each end on one third point, and the portfolio runs
        # until their three stalls
        phi, f, truth = gaussian_case(derive_seed(2400, 3), 30, 60, 0.01)
        tau = 0.6 * np.sum(np.abs(truth))
        ref, ref_trace, runs = self.portfolio_without_the_repeat_stop(phi, f, 8, tau)
        for run in runs[:2]:
            assert np.sum(np.abs(run.alpha)) == pytest.approx(tau, rel=1e-15)
        assert not np.array_equal(runs[1].alpha, runs[0].alpha)
        assert ref is runs[1]
        assert ref.residual_l2 < 0.95 * runs[0].residual_l2
        assert not np.array_equal(runs[2].alpha, ref.alpha)
        assert all(np.array_equal(run.alpha, runs[2].alpha) for run in runs[3:])
        loops = []
        clash_loop = pursuit._clash_loop
        monkeypatch.setattr(pursuit, "_clash_loop",
                            lambda *a: loops.append(a[3]) or clash_loop(*a))
        res, trace = clash_solve(phi, f, PursuitConfig(sparsity=8, tau=tau))
        assert loops.count(tau / loop_scale(f)) == len(runs) == 5
        assert differing_fields(res, ref) == []
        assert bits(trace) == bits(ref_trace)

    def test_no_gap_at_infinite_tau(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("duality gap taken at tau = inf")

        monkeypatch.setattr(pursuit, "_duality_gap", refuse)
        p = desk_instance(derive_seed(200, 1), sigma=0.005)
        for solve in (sp_solve, clash_solve):
            solve(p.phi, p.f, PursuitConfig(sparsity=12, tau=np.inf))

    @staticmethod
    def binding_case():
        # the instance of test_binding_budget_solve_runs_one_loop
        p = generate(ProblemSpec(n=500, m=160, k=57, sigma=0.05, seed=derive_seed(1, 0),
                                 noise_mode="fixed-norm"))
        return p, 0.2 * p.tau_star

    def test_loop_stops_on_a_certified_iterate(self):
        # without the stop, the loop runs one more iteration that returns
        # the certified iterate again, to rounding
        p, tau = self.binding_case()
        stopped = _clash_loop(p.phi, p.f, 57, tau, np.zeros(500))[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pursuit, "_duality_gap", lambda *args: (np.inf, 0.0))
            full = _clash_loop(p.phi, p.f, 57, tau, np.zeros(500))[0]
        assert (stopped.termination, full.termination) == ("certified", "converged")
        assert stopped.iterations == len(stopped.history) == full.iterations - 1
        assert stopped.history == full.history[:-1]
        assert np.array_equal(np.nonzero(stopped.alpha)[0], np.nonzero(full.alpha)[0])
        np.testing.assert_allclose(stopped.alpha, full.alpha, rtol=0,
                                   atol=1e-12 * np.max(np.abs(full.alpha)))
        gap, rounding = pursuit._duality_gap(p.phi, p.f, stopped.alpha, tau)
        assert gap <= rounding

    def test_loop_from_a_certified_point_runs_one_iteration(self):
        # the test comes before every iteration after the first, so the
        # first runs; it returns the start to rounding, and the loop ends
        # on the iterate change before the next test
        p, tau = self.binding_case()
        certified = _clash_loop(p.phi, p.f, 57, tau, np.zeros(500))[0].alpha
        again, trace, _ = _clash_loop(p.phi, p.f, 57, tau, certified)
        assert again.termination == "converged"
        assert again.iterations == len(again.history) == len(trace) == 1
        np.testing.assert_allclose(again.alpha, certified, rtol=0,
                                   atol=1e-12 * np.max(np.abs(certified)))

    def test_no_loop_stop_with_momentum(self, monkeypatch):
        # the expansion then ranks the gradient at another point, so alpha
        # need not be the loop's fixed point
        gaps = []
        duality_gap = pursuit._duality_gap
        monkeypatch.setattr(pursuit, "_duality_gap",
                            lambda *a: gaps.append(a) or duality_gap(*a))
        p, tau = self.binding_case()
        res = _clash_loop(p.phi, p.f, 57, tau, np.zeros(500), True)[0]
        assert gaps == [] and res.termination == "converged"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 40),
        n=st.integers(2, 40),
        k=st.integers(1, 40),
        frac=st.floats(0.05, 1.0),
        sigma=st.sampled_from([0.0, 0.01, 0.1]),
    )
    # the four cases of a 3,000-instance sweep where a member after the
    # certified run ends 1 to 6 ulps lower
    @example(seed=2564042778, m=15, n=37, k=15, frac=0.5253386092000274, sigma=0.1)
    @example(seed=919167995, m=29, n=38, k=21, frac=0.4718375487280722, sigma=0.01)
    @example(seed=3970700473, m=26, n=27, k=10, frac=0.8724547798626054, sigma=0.0)
    @example(seed=2838047900, m=14, n=23, k=4, frac=0.5665393153349662, sigma=0.0)
    def test_property_stop_keeps_the_portfolio_result(self, seed, m, n, k, frac, sigma):
        phi, f, truth = gaussian_case(seed, m, n, sigma)
        cfg = PursuitConfig(sparsity=min(k, m, n), tau=frac * np.sum(np.abs(truth)))
        stopped, stopped_trace = clash_solve(phi, f, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pursuit, "_duality_gap", lambda *args: (np.inf, 0.0))
            full, full_trace = clash_solve(phi, f, cfg)
        if differing_fields(stopped, full):
            # the full portfolio's winner differs from the certified run by
            # rounding only
            assert stopped.residual_l2 <= full.residual_l2 * (1 + 1e-12)
            np.testing.assert_allclose(stopped.alpha, full.alpha, rtol=0,
                                       atol=1e-12 * np.max(np.abs(full.alpha)))
        else:
            assert bits(stopped_trace) == bits(full_trace)


def lsq_objective(phi_s, f, x):
    r = f - phi_s @ x
    return float(r @ r)


def assert_kkt(phi_s, f, x, tau, abs_tol):
    """Optimality of x for min ||f - Phi_S x||^2 over ||x||_1 <= tau: with
    g = Phi_S^T (f - Phi_S x), g = lam sign(x) on supp(x) for one lam >= 0,
    |g_j| <= lam off it, and lam > 0 only on the sphere.  `abs_tol` covers
    rounding where lam is zero."""
    g = phi_s.T @ (f - phi_s @ x)
    act = x != 0
    lam = float(np.mean(g[act] * np.sign(x[act]))) if act.any() else 0.0
    assert lam >= -abs_tol
    np.testing.assert_allclose(g[act] * np.sign(x[act]), lam, rtol=1e-9, atol=abs_tol)
    assert np.all(np.abs(g[~act]) <= lam * (1 + 1e-9) + abs_tol)
    assert lam <= abs_tol or np.sum(np.abs(x)) >= tau * (1 - 1e-12)


def rounding_level(phi_s, x):
    """Relative accuracy of g reachable: 1e-9, or the rounding amplified by
    the condition number of the Gram matrix of Phi_S or of its final
    support, whichever is larger."""
    act = x != 0
    kappa = np.linalg.cond(phi_s) ** 2
    if act.any():
        kappa = max(kappa, np.linalg.cond(phi_s[:, act]) ** 2)
    return max(1e-9, 100 * np.finfo(float).eps * kappa)


def gaussian_case(seed, m, n, sigma=0.1):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(m, n)) / np.sqrt(m)
    truth = np.zeros(n)
    truth[: max(1, n // 4)] = rng.normal(size=max(1, n // 4))
    return phi, phi @ truth + sigma * rng.normal(size=m), truth


class TestL1RestrictedLsq:
    """The exact l1-constrained least-squares inner solve of CLASH."""

    @pytest.mark.parametrize("seed", range(6))
    def test_objective_and_kkt_against_projected_gradient(self, seed):
        phi, f, _ = gaussian_case(derive_seed(600, seed), m=60, n=120)
        rng = np.random.default_rng(seed)
        support = np.sort(rng.choice(120, size=40, replace=False))
        phi_s = phi[:, support]
        x_ls = np.linalg.lstsq(phi_s, f, rcond=None)[0]
        tau = 0.4 * np.sum(np.abs(x_ls))
        warm = np.zeros(120)
        warm[support[:10]] = rng.normal(size=10)
        out = _l1_restricted_lsq(phi, f, support, tau, warm)[0]
        assert np.all(np.delete(out, support) == 0.0)
        assert np.sum(np.abs(out)) <= tau
        ours = lsq_objective(phi_s, f, out[support])
        ref = lasso_pg_solve(phi_s, f, tau, tol=1e-12).alpha
        assert ours <= lsq_objective(phi_s, f, ref) * (1 + 1e-10)
        assert_kkt(phi_s, f, out[support], tau, abs_tol=0.0)

    def test_empty_support(self):
        phi, f, _ = gaussian_case(1, m=10, n=20)
        out = _l1_restricted_lsq(phi, f, np.empty(0, dtype=np.int64), 1.0, None)[0]
        assert np.array_equal(out, np.zeros(20))

    def test_warm_none_zero_and_given_agree(self):
        phi, f, _ = gaussian_case(2, m=50, n=80)
        support = np.arange(0, 80, 2)
        tau = 0.3 * np.sum(np.abs(np.linalg.lstsq(phi[:, support], f, rcond=None)[0]))
        warm = np.zeros(80)
        warm[support[::3]] = 1.0
        outs = [
            _l1_restricted_lsq(phi, f, support, tau, w)[0]
            for w in (None, np.zeros(80), warm, -warm)
        ]
        for out in outs[1:]:
            np.testing.assert_allclose(out, outs[0], atol=1e-10)

    def test_budget_above_least_squares_norm_returns_the_fit(self):
        phi, f, _ = gaussian_case(3, m=40, n=60)
        support = np.arange(25)
        x_ls = np.linalg.lstsq(phi[:, support], f, rcond=None)[0]
        for tau in (np.sum(np.abs(x_ls)) * 1.001, 1e6):
            out = _l1_restricted_lsq(phi, f, support, tau, None)[0]
            np.testing.assert_allclose(out[support], x_ls, rtol=1e-9, atol=1e-12)

    def test_noiseless_budget_within_ulps_of_the_fit(self):
        # tau = ||alpha*||_1 exactly: the least-squares fit on a support
        # containing the truth lies on the sphere up to rounding, in
        # either direction, and must be returned as the answer
        for seed in range(5):
            phi, _, truth = gaussian_case(derive_seed(700, seed), m=80, n=60)
            f = phi @ truth
            support = np.arange(50)
            l1 = np.sum(np.abs(truth))
            for tau in (l1, np.nextafter(l1, 0.0), l1 * (1 - 4e-16), l1 * (1 + 4e-16)):
                out = _l1_restricted_lsq(phi, f, support, tau, truth)[0]
                assert np.sum(np.abs(out)) <= tau
                np.testing.assert_allclose(out, truth, atol=1e-9)

    @pytest.mark.parametrize("frac", [0.2, 5.0])
    def test_more_columns_than_rows(self, frac):
        phi, f, _ = gaussian_case(4, m=20, n=60)
        support = np.arange(0, 60, 2)
        phi_s = phi[:, support]
        # minimum-l1 interpolant norm is below this for frac = 5
        tau = frac * np.sum(np.abs(np.linalg.lstsq(phi_s, f, rcond=None)[0]))
        out = _l1_restricted_lsq(phi, f, support, tau, phi.T @ f)[0]
        assert np.sum(np.abs(out)) <= tau
        scale = np.max(np.abs(phi_s.T @ f))
        assert_kkt(phi_s, f, out[support], tau,
                   abs_tol=rounding_level(phi_s, out[support]) * scale)
        ref = lasso_pg_solve(phi_s, f, tau, tol=1e-12).alpha
        ours = lsq_objective(phi_s, f, out[support])
        assert ours <= lsq_objective(phi_s, f, ref) * (1 + 1e-10) + 1e-12 * (f @ f)

    def test_singular_warm_start(self):
        # columns 3 and 7 are equal: G_AA of the warm start is singular,
        # so the solve starts from zero, and once one copy is active the
        # other is in the span of the active columns
        phi, f, _ = gaussian_case(2, m=30, n=12)
        phi[:, 7] = phi[:, 3]
        warm = np.zeros(12)
        warm[[3, 7]] = [1.0, -0.5]
        out = _l1_restricted_lsq(phi, f, np.arange(12), 1.5, warm)[0]
        assert np.sum(np.abs(out)) <= 1.5
        assert_kkt(phi, f, out, 1.5, abs_tol=1e-9 * np.max(np.abs(phi.T @ f)))
        ref = lasso_pg_solve(phi, f, 1.5, tol=1e-12).alpha
        assert lsq_objective(phi, f, out) <= lsq_objective(phi, f, ref) * (1 + 1e-10)

    @pytest.mark.parametrize(
        "seed, m, n",
        [(2063, 6, 14), (1063, 18, 39), (125, 19, 35), (618, 19, 35), (4, 18, 39),
         (159, 6, 14), (259, 12, 20)],
    )
    def test_noiseless_wide_at_the_true_budget(self, seed, m, n):
        # the minimizer interpolates f, so g is rounding noise and an index
        # can enter on it; the backup bars an index whose entry the next
        # step undoes.  (2063, 6, 14) and (159, 6, 14) reach that bar with
        # the rounding of OpenBLAS 0.3 on x86-64; other rounding may not.
        # The four from (125, 19, 35) on cycled until the pivot cap in
        # earlier versions: the first three by holding and releasing the
        # sphere at lam = +6e-17, the fourth by re-entering an index that
        # the first step after the check from scratch drops.  The last
        # cycled through a trade at |A| = M: a column traded out
        # re-entered on a violation of 4e-12.
        phi, f, truth = gaussian_case(seed, m, n, sigma=0.0)
        tau = np.sum(np.abs(truth))
        out = _l1_restricted_lsq(phi, f, np.arange(n), tau, None)[0]
        assert np.sum(np.abs(out)) <= tau
        scale = np.max(np.abs(phi.T @ f))
        assert_kkt(phi, f, out, tau, abs_tol=rounding_level(phi, out) * scale)
        ref = lasso_pg_solve(phi, f, tau, tol=1e-12).alpha
        ours = lsq_objective(phi, f, out)
        assert ours <= lsq_objective(phi, f, ref) * (1 + 1e-10) + 1e-12 * (f @ f)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        frac=st.floats(0.01, 2.0),
        warm_kind=st.sampled_from(["none", "truth", "random"]),
        sigma=st.sampled_from([0.0, 0.1]),
    )
    def test_property_feasible_and_optimal(self, seed, m, n, frac, warm_kind, sigma):
        phi, f, truth = gaussian_case(seed, m, n, sigma)
        rng = np.random.default_rng(seed + 1)
        warm = {"none": None, "truth": truth, "random": rng.normal(size=n)}[warm_kind]
        scale = np.max(np.abs(phi.T @ f))
        tau = frac * np.sum(np.abs(truth)) + 1e-3
        support = np.arange(n)
        out = _l1_restricted_lsq(phi, f, support, tau, warm)[0]
        assert np.all(np.isfinite(out))
        assert np.sum(np.abs(out)) <= tau
        assert_kkt(phi, f, out, tau, abs_tol=rounding_level(phi, out) * scale)


def half_budget_instance(seed):
    p = generate(ProblemSpec(n=200, m=64, k=20, sigma=0.05, seed=seed,
                             noise_mode="fixed-norm"))
    return p, 0.5 * p.tau_star


class TestInnerSolveReuse:
    """CLASH solves each distinct inner problem at most once per solve."""

    def record_inner_calls(self, monkeypatch):
        calls = []

        def counting(phi, f, support, tau, warm, *args):
            out, factor = _l1_restricted_lsq(phi, f, support, tau, warm, *args)
            calls.append((tau, support.copy(), np.nonzero(out)[0]))
            return out, factor

        monkeypatch.setattr(pursuit, "_l1_restricted_lsq", counting)
        return calls

    @pytest.mark.parametrize("seed", range(3))
    def test_no_budget_and_support_solved_twice(self, monkeypatch, seed):
        calls = self.record_inner_calls(monkeypatch)
        p, tau = half_budget_instance(derive_seed(1, seed))
        clash_solve(p.phi, p.f, PursuitConfig(sparsity=20, tau=tau))
        keys = [(t, s.tobytes()) for t, s, _ in calls]
        assert len(calls) > 0
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("seed", range(3))
    def test_no_refit_of_the_previous_output_support(self, monkeypatch, seed):
        # a de-bias on the support the step-2 solve already returned would
        # give back that solve's answer
        calls = self.record_inner_calls(monkeypatch)
        p, tau = half_budget_instance(derive_seed(1, seed))
        clash_solve(p.phi, p.f, PursuitConfig(sparsity=20, tau=tau))
        last = {}
        for t, support, nonzero in calls:
            if t in last:
                assert not np.array_equal(support, last[t])
            last[t] = nonzero

    def test_every_border_adds_a_column(self, monkeypatch):
        # a leave-only pivot step keeps the inverse `_remove` gave it; only
        # an empty active set is "formed" with no column
        sizes = []
        border = pursuit._border

        def recording(gram, idx, hinv):
            sizes.append((idx.size, hinv.shape[0]))
            return border(gram, idx, hinv)

        monkeypatch.setattr(pursuit, "_border", recording)
        p = generate(ProblemSpec(n=500, m=160, k=57, sigma=0.05, seed=derive_seed(1, 146),
                                 noise_mode="fixed-norm"))
        clash_solve(p.phi, p.f, PursuitConfig(sparsity=57, tau=0.5 * p.tau_star))
        assert sizes
        assert all(size > known or size == 0 for size, known in sizes)

    def test_memoized_answers_are_read_only(self):
        p, tau = half_budget_instance(derive_seed(1, 0))
        memo = {}
        _clash_loop(p.phi, p.f, 20, tau, np.zeros(200), memo=memo)
        assert memo
        for values, _ in memo.values():
            with pytest.raises(ValueError):
                values[0] = 1.0

    def test_memo_hits_return_the_stored_answer(self):
        p, tau = half_budget_instance(derive_seed(1, 1))
        memo = {}
        first = _clash_loop(p.phi, p.f, 20, tau, np.zeros(200), memo=memo)
        stored = dict(memo)
        again = _clash_loop(p.phi, p.f, 20, tau, np.zeros(200), memo=memo)
        assert memo.keys() == stored.keys()
        assert differing_fields(first[0], again[0]) == []
        assert bits(first[1]) == bits(again[1])


class TestFactorHandOff:
    """Step 2 starts from the (columns, G_AA^{-1}) that the solve of its
    iterate ended on, checked as an updated inverse is."""

    @staticmethod
    def step_two_case(seed):
        # a de-bias answer, its factorization, and the next step-2 support
        p, tau = half_budget_instance(derive_seed(1, seed))
        debias = top_k_support(p.phi.T @ p.f, 20)
        alpha, factor = _l1_restricted_lsq(p.phi, p.f, debias, tau, None)
        corr = p.phi.T @ (p.f - p.phi @ alpha)
        corr[debias] = 0.0
        extended = np.union1d(np.nonzero(alpha)[0], top_k_support(corr, 20))
        return p, tau, alpha, factor, extended

    def record_formations(self, monkeypatch):
        formations = []
        border = pursuit._border

        def recording(gram, idx, hinv):
            if hinv.size == 0:
                formations.append(idx)
            return border(gram, idx, hinv)

        monkeypatch.setattr(pursuit, "_border", recording)
        return formations

    @pytest.mark.parametrize("seed", range(3))
    def test_factor_is_the_inverse_on_the_answers_nonzeros(self, seed):
        p, _, alpha, (cols, hinv), _ = self.step_two_case(seed)
        assert np.array_equal(np.sort(cols), np.nonzero(alpha)[0])
        gram = p.phi[:, cols].T @ p.phi[:, cols]
        np.testing.assert_allclose(hinv @ gram, np.eye(cols.size), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_start_from_the_factor_agrees_with_a_start_from_scratch(self, monkeypatch, seed):
        p, tau, alpha, factor, extended = self.step_two_case(seed)
        cold, _ = _l1_restricted_lsq(p.phi, p.f, extended, tau, alpha)
        formations = self.record_formations(monkeypatch)
        warm, _ = _l1_restricted_lsq(p.phi, p.f, extended, tau, alpha, factor)
        assert formations == []
        assert np.array_equal(np.nonzero(warm)[0], np.nonzero(cold)[0])
        np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-12 * np.max(np.abs(cold)))

    def test_drifted_factor_fails_the_face_check(self, monkeypatch):
        # an inverse off by 1e-6 gives an answer off by as much, which the
        # face equations refuse: the inverse is formed from scratch and the
        # answer is the minimizer to rounding
        p, tau, alpha, (cols, hinv), extended = self.step_two_case(0)
        cold, _ = _l1_restricted_lsq(p.phi, p.f, extended, tau, alpha)
        formations = self.record_formations(monkeypatch)
        warm, _ = _l1_restricted_lsq(p.phi, p.f, extended, tau, alpha,
                                     (cols, (1 + 1e-6) * hinv))
        assert formations
        np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-12 * np.max(np.abs(cold)))

    def test_clash_starts_step_two_from_the_iterates_factor(self, monkeypatch):
        # every handed factor holds exactly the warm start's nonzeros, and
        # the hand-off saves formations from scratch
        calls = []
        l1_lsq = pursuit._l1_restricted_lsq

        def recording(phi, f, support, tau, warm, factor=None):
            calls.append((warm, factor))
            return l1_lsq(phi, f, support, tau, warm, factor)

        monkeypatch.setattr(pursuit, "_l1_restricted_lsq", recording)
        formations = self.record_formations(monkeypatch)
        p, tau = half_budget_instance(derive_seed(1, 0))
        clash_solve(p.phi, p.f, PursuitConfig(sparsity=20, tau=tau))
        handed = [(warm, factor) for warm, factor in calls if factor is not None]
        assert handed
        for warm, (cols, _) in handed:
            assert np.array_equal(np.sort(cols), np.nonzero(warm)[0])
        assert len(formations) < len(calls)

    def test_stage_loops_pass_their_factor_on(self, monkeypatch):
        # tau-sweep trial 25 of seed 321 runs all five members; each stage
        # loop after a member's first starts from the factor the loop
        # before it returned
        runs = []
        clash_loop = pursuit._clash_loop
        monkeypatch.setattr(pursuit, "_clash_loop",
                            lambda *a: runs.append((a, clash_loop(*a))) or runs[-1][1])
        p = generate(ProblemSpec(n=500, m=160, k=57, sigma=0.05, seed=derive_seed(321, 25),
                                 noise_mode="fixed-norm"))
        clash_solve(p.phi, p.f, PursuitConfig(sparsity=57, tau=p.tau_star))
        firsts = 0
        for i, (args, _) in enumerate(runs):
            if not np.any(args[4]):
                firsts += 1
                assert args[7] is None
            else:
                assert args[7] is runs[i - 1][1][2]
        assert firsts == len(pursuit.CONTINUATION_PORTFOLIO)
        assert len(runs) > firsts

    def test_indefinite_factor_is_formed_again_from_scratch(self, monkeypatch):
        # a handed inverse that is negative definite gives s^T G_AA^{-1} s < 0
        # on the first step; the solve forms G_AA^{-1} from scratch and then
        # runs as the cold start does, bit for bit
        phi, f, _ = gaussian_case(5, m=30, n=12)
        gram, b = phi.T @ phi, phi.T @ f
        start = np.zeros(12)
        start[[1, 4, 6]] = [0.3, -0.2, 0.1]
        act = np.nonzero(start)[0]
        tau = 0.5 * np.sum(np.abs(np.linalg.solve(gram, b)))
        cold = pursuit._l1_active_set(gram, b, tau, start, 30)
        refreshed = []
        from_scratch = pursuit._from_scratch
        monkeypatch.setattr(pursuit, "_from_scratch",
                            lambda g, a: refreshed.append(a) or from_scratch(g, a))
        factor = (act, -np.linalg.inv(gram[np.ix_(act, act)]))
        warm = pursuit._l1_active_set(gram, b, tau, start, 30, factor)
        assert np.array_equal(refreshed[0], act)
        for a, c in zip(warm, cold):
            assert a.tobytes() == c.tobytes()

    def test_factor_off_the_iterates_nonzeros_is_dropped(self, monkeypatch):
        # a factor whose columns are not alpha0's nonzeros never reaches
        # step 2, and the loop runs as it does with no factor
        p, tau, alpha, (cols, hinv), _ = self.step_two_case(0)
        handed = []
        l1_lsq = pursuit._l1_restricted_lsq
        monkeypatch.setattr(pursuit, "_l1_restricted_lsq",
                            lambda *a: handed.append(a[5]) or l1_lsq(*a))
        ref, ref_trace, ref_factor = _clash_loop(p.phi, p.f, 20, tau, alpha)
        handed.clear()
        res, trace, factor = _clash_loop(p.phi, p.f, 20, tau, alpha,
                                         factor=(cols[1:], hinv[1:, 1:]))
        assert handed[0] is None
        assert differing_fields(res, ref) == []
        assert bits(trace) == bits(ref_trace)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(factor, ref_factor))


class TestFaceCheck:
    """`_l1_active_set` accepts an answer on the face equations computed
    from G, so an inverse that its updates drifted needs no re-check from
    scratch; a failed check forms G_AA^{-1} from scratch and steps again."""

    def test_singular_set_raises(self):
        phi, f, _ = gaussian_case(6, m=30, n=12)
        phi[:, 7] = phi[:, 3]
        gram = phi.T @ phi
        assert pursuit._border(gram, np.array([7, 1, 3]), np.empty((0, 0))) is None
        with pytest.raises(RuntimeError, match="singular"):
            pursuit._from_scratch(gram, np.array([7, 1, 3]))

    @pytest.mark.parametrize("backup", [pursuit._BACKUP, -1])
    @pytest.mark.parametrize("tau", [0.95, 1.0, 1.5550600858048211])
    def test_ill_conditioned_square_case(self, monkeypatch, backup, tau):
        # noiseless 3 x 3 with ||truth||_1 = 0.89 inside every ball, an
        # ill-conditioned fit: pivoting that re-checked each answer on an
        # inverse formed from scratch cycled here until the pivot cap, with
        # block exchanges and with the backup alone
        monkeypatch.setattr(pursuit, "_BACKUP", backup)
        phi, f, _ = gaussian_case(1796611836, m=3, n=3, sigma=0.0)
        out = _l1_restricted_lsq(phi, f, np.arange(3), tau, None)[0]
        assert np.sum(np.abs(out)) <= tau
        assert_kkt(phi, f, out, tau,
                   abs_tol=rounding_level(phi, out) * np.max(np.abs(phi.T @ f)))

    @pytest.mark.parametrize(
        "n, m, k, seed, mult",
        [(7, 3, 2, 202, 1.5), (5, 4, 3, 689, 1.0), (15, 11, 7, 287, 1.5),
         (7, 7, 4, 900, 1.0)],
    )
    def test_small_noiseless_clash_solves(self, n, m, k, seed, mult):
        # inner solves that re-checked each answer on an inverse formed from
        # scratch raised on these: three at the pivot cap, and
        # (15, 11, 7, 287) on a singular active set of 11 columns
        p = generate(ProblemSpec(n=n, m=m, k=k, sigma=0.0, seed=seed))
        tau = mult * p.tau_star
        res, _ = clash_solve(p.phi, p.f, PursuitConfig(sparsity=k, tau=tau))
        assert np.all(np.isfinite(res.alpha))
        assert np.count_nonzero(res.alpha) <= k
        assert np.sum(np.abs(res.alpha)) <= tau

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        steps=st.lists(st.tuples(st.integers(0, 2), st.floats(0.05, 2.0)),
                       min_size=2, max_size=6),
        sigma=st.sampled_from([0.0, 0.1]),
    )
    def test_property_warm_started_sequence(self, seed, m, n, steps, sigma):
        # a sequence of solves on three supports at several budgets, each
        # warm-started from the answer before, as CLASH's loops run them,
        # against the same solves from zero.  Supports are compared where
        # the minimizer is unique, on at most m columns, and without the
        # entries of rounding size that a noiseless fit has off the truth
        def support_of(x):
            return np.nonzero(np.abs(x) > 1e-12 * np.max(np.abs(x), initial=0.0))[0]

        phi, f, truth = gaussian_case(seed, m, n, sigma)
        rng = np.random.default_rng(seed + 2)
        supports = [np.arange(n)] + [
            np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
            for _ in range(2)
        ]
        warm = None
        for pick, frac in steps:
            support = supports[pick]
            tau = frac * np.sum(np.abs(truth)) + 1e-3
            warmed = _l1_restricted_lsq(phi, f, support, tau, warm)[0]
            cold = _l1_restricted_lsq(phi, f, support, tau, None)[0]
            if support.size <= m:
                assert np.array_equal(support_of(warmed), support_of(cold))
            assert np.sum(np.abs(warmed)) <= tau
            phi_s = phi[:, support]
            scale = np.max(np.abs(phi_s.T @ f))
            assert_kkt(phi_s, f, warmed[support], tau,
                       abs_tol=rounding_level(phi_s, warmed[support]) * scale)
            warm = warmed


class TestBlockPivots:
    """The block exchanges of `_l1_active_set`, its backup that exchanges
    one index at a time, and the trade of a column in the span of the
    active ones."""

    def from_zero_case(self, seed):
        # a from-zero expansion solve of clash-tau: the top-57 correlations
        # of a tau-sweep instance at half the true budget
        p = generate(ProblemSpec(n=500, m=160, k=57, sigma=0.05, seed=seed,
                                 noise_mode="fixed-norm"))
        return p, top_k_support(p.phi.T @ p.f, 57), 0.5 * p.tau_star

    def record_steps(self, monkeypatch):
        # every step of the backup runs the ratio test; block steps do not
        steps = []
        first_zero = pursuit._first_zero

        def recording(*args):
            steps.append(args)
            return first_zero(*args)

        monkeypatch.setattr(pursuit, "_first_zero", recording)
        return steps

    def assert_optimal(self, phi_s, f, x, tau):
        assert np.sum(np.abs(x)) <= tau
        scale = np.max(np.abs(phi_s.T @ f))
        assert_kkt(phi_s, f, x, tau, abs_tol=rounding_level(phi_s, x) * scale)
        ref = lasso_pg_solve(phi_s, f, tau, tol=1e-12).alpha
        ours = lsq_objective(phi_s, f, x)
        assert ours <= lsq_objective(phi_s, f, ref) * (1 + 1e-10) + 1e-12 * (f @ f)

    @pytest.mark.parametrize("seed", range(3))
    def test_from_zero_solve_enters_few_single_indices(self, monkeypatch, seed):
        # the block exchanges answer, so no index enters on its own;
        # pivoting one index at a time from zero, every nonzero would
        steps = self.record_steps(monkeypatch)
        p, support, tau = self.from_zero_case(derive_seed(808, seed))
        out = _l1_restricted_lsq(p.phi, p.f, support, tau, None)[0]
        assert steps == []
        assert_kkt(p.phi[:, support], p.f, out[support], tau,
                   abs_tol=1e-9 * np.max(np.abs(p.phi[:, support].T @ p.f)))

    @pytest.mark.parametrize("seed", range(3))
    def test_from_zero_solve_forms_only_its_warm_start(self, monkeypatch, seed):
        # the block exchanges end on an updated inverse, and the face
        # equations accept their answer: the warm start's `_border` call is
        # the only formation from scratch.  The answers' optimality is
        # checked on the same cases above
        formations = []
        from_scratch = pursuit._from_scratch
        monkeypatch.setattr(pursuit, "_from_scratch",
                            lambda gram, act: formations.append(act) or from_scratch(gram, act))
        p, support, tau = self.from_zero_case(derive_seed(808, seed))
        _l1_restricted_lsq(p.phi, p.f, support, tau, None)
        assert formations == []

    @pytest.mark.parametrize("seed", range(4))
    def test_single_pivot_fallback_finds_the_same_minimizer(self, monkeypatch, seed):
        # the answers from zero and from a warm start agree, with block
        # exchanges and with the backup forced from the first step
        p, support, tau = self.from_zero_case(derive_seed(809, seed))
        rng = np.random.default_rng(seed)
        warm = np.zeros(500)
        warm[support[::4]] = rng.normal(size=support[::4].size)
        blocked = [_l1_restricted_lsq(p.phi, p.f, support, tau, w)[0] for w in (None, warm)]
        steps = self.record_steps(monkeypatch)
        monkeypatch.setattr(pursuit, "_BACKUP", -1)
        single = [_l1_restricted_lsq(p.phi, p.f, support, tau, w)[0] for w in (None, warm)]
        assert steps
        for out in blocked[1:] + single:
            np.testing.assert_allclose(out, blocked[0], rtol=0,
                                       atol=1e-10 * np.max(np.abs(blocked[0])))

    def test_single_pivots_return_zero_without_correlation(self, monkeypatch):
        # f is orthogonal to every column: b = Phi_S^T f is rounding noise,
        # about 6e-15 here, within the slack of 4e-14 at tau = 10, and
        # x = 0 is the answer, with block exchanges or the backup
        phi, _, _ = gaussian_case(3, m=30, n=12)
        r = np.random.default_rng(3).normal(size=30)
        f = r - phi @ np.linalg.lstsq(phi, r, rcond=None)[0]
        for backup in (pursuit._BACKUP, -1):
            monkeypatch.setattr(pursuit, "_BACKUP", backup)
            out = _l1_restricted_lsq(phi, f, np.arange(12), 10.0, None)[0]
            assert np.array_equal(out, np.zeros(12))

    def test_backup_after_block_steps_stall(self, monkeypatch):
        # warm-started from these signs, the block exchanges cycle: they
        # stop lowering the count of violators on 8 columns of 29 rows and
        # on 14 of 20, and the backup finishes both; the cycles persist
        # when tau moves by 1e-6, so they are not rounding
        steps = self.record_steps(monkeypatch)
        cases = [
            (774, 29, 8, 0.5, {0: 1, 1: 1, 5: -1}),
            (5928, 20, 14, 0.9, {0: 1, 1: -1, 2: -1, 3: -1, 7: 1, 8: -1, 10: 1}),
        ]
        for seed, m, n, share, signs in cases:
            phi, f, _ = gaussian_case(derive_seed(900, seed), m=m, n=n, sigma=0.0)
            tau = share * np.sum(np.abs(np.linalg.lstsq(phi, f, rcond=None)[0]))
            warm = np.zeros(n)
            warm[list(signs)] = list(signs.values())
            before = len(steps)
            out = _l1_restricted_lsq(phi, f, np.arange(n), tau, warm)[0]
            assert len(steps) > before
            self.assert_optimal(phi, f, out, tau)

    def test_trade_with_more_columns_than_rows(self, monkeypatch):
        # 20 columns on 12 rows at tau = ||truth||_1: the active set fills
        # all 12 rows, and a violating column in their span enters by a
        # trade
        phi, f, truth = gaussian_case(31, m=12, n=20)
        trades = []
        trade = pursuit._trade
        monkeypatch.setattr(pursuit, "_trade", lambda *a: trades.append(a) or trade(*a))
        tau = np.sum(np.abs(truth))
        out = _l1_restricted_lsq(phi, f, np.arange(20), tau, None)[0]
        assert trades
        self.assert_optimal(phi, f, out, tau)


class TestInputChecks:
    SOLVERS = {
        "clash": lambda phi, f: clash_solve(phi, f, PursuitConfig(sparsity=2, tau=1.0)),
        "sp": lambda phi, f: sp_solve(phi, f, PursuitConfig(sparsity=2)),
        "lasso-pg": lambda phi, f: lasso_pg_solve(phi, f, 1.0),
        "iht": lambda phi, f: iht_solve(phi, f, 2),
    }

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("defect", ["nan in f", "nan in phi", "short f"])
    def test_bad_input_raises_value_error(self, solver, defect):
        phi, f, _ = gaussian_case(5, m=12, n=30)
        if defect == "nan in f":
            f[3] = np.nan
        elif defect == "nan in phi":
            phi[2, 7] = np.nan
        else:
            f = f[:-1]
        with pytest.raises(ValueError):
            self.SOLVERS[solver](phi, f)

    SPARSE_SOLVERS = {
        "clash": lambda phi, f, k: clash_solve(phi, f, PursuitConfig(sparsity=k, tau=1.0)),
        "sp": lambda phi, f, k: sp_solve(phi, f, PursuitConfig(sparsity=k)),
        "iht": lambda phi, f, k: iht_solve(phi, f, k),
    }

    @pytest.mark.parametrize("solver", ["clash", "sp", "iht"])
    @pytest.mark.parametrize("shape, k", [((10, 5), 7), ((3, 8), 5)])
    def test_sparsity_above_rows_or_columns_rejected(self, solver, shape, k):
        phi, f, _ = gaussian_case(6, *shape)
        with pytest.raises(ValueError, match="exceeds min"):
            self.SPARSE_SOLVERS[solver](phi, f, k)

    @pytest.mark.parametrize("solver", ["clash", "sp", "iht"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_sparsity_below_one_rejected(self, solver, k):
        phi, f, _ = gaussian_case(6, 10, 5)
        with pytest.raises(ValueError, match="sparsity must be >= 1"):
            self.SPARSE_SOLVERS[solver](phi, f, k)

    @pytest.mark.parametrize("solver", ["clash", "sp", "iht"])
    def test_fractional_sparsity_rejected(self, solver):
        phi, f, _ = gaussian_case(6, 10, 5)
        with pytest.raises(ValueError, match="sparsity must be an integer"):
            self.SPARSE_SOLVERS[solver](phi, f, 2.5)

    @staticmethod
    def two_spike_case():
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((20, 40))
        alpha = np.zeros(40)
        alpha[[3, 7]] = [1.0, -2.0]
        return phi, phi @ alpha, alpha

    @pytest.mark.parametrize("solver", ["clash", "sp", "iht"])
    @pytest.mark.parametrize("scale", [1e-50, 1.0, 1e50])
    def test_recovery_does_not_depend_on_the_scale(self, solver, scale):
        # the stop tests are relative: an absolute floor on ||alpha||, about
        # 1e-50 at scale 1e50, once stopped SP after one iteration
        phi, f, alpha = self.two_spike_case()
        solve = {
            "clash": lambda: clash_solve(scale * phi, f, PursuitConfig(sparsity=2, tau=3.0 / scale))[0],
            "sp": lambda: sp_solve(scale * phi, f, PursuitConfig(sparsity=2))[0],
            "iht": lambda: iht_solve(scale * phi, f, 2),
        }[solver]
        res = solve()
        assert np.array_equal(np.nonzero(res.alpha)[0], [3, 7])
        np.testing.assert_allclose(scale * res.alpha, alpha, rtol=1e-6)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e160])
    def test_iht_at_the_ends_of_the_float_range(self, scale):
        # IHT solves at a power-of-two scale of f: at 1e-300 its step
        # underflowed and it returned 0 as "converged", at 1e160 it raised
        phi, f, _ = self.two_spike_case()
        ref = iht_solve(phi, f, 2)
        res = iht_solve(phi, scale * f, 2)
        assert np.array_equal(np.nonzero(res.alpha)[0], [3, 7])
        np.testing.assert_allclose(res.alpha / scale, ref.alpha, rtol=1e-12)
        assert res.residual_l2 > 0.0
        # scale * f rounds unless scale is a power of two; at the nearest
        # one the answer scales bit for bit
        two = 2.0 ** np.round(np.log2(scale))
        exact = iht_solve(phi, two * f, 2)
        assert np.array_equal(exact.alpha / two, ref.alpha)
        assert exact.history == [two * h for h in ref.history]
        assert exact.iterations == ref.iterations

    @pytest.mark.parametrize("solver", ["clash", "sp", "lasso-pg"])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e160])
    def test_pursuits_at_the_ends_of_the_float_range(self, solver, scale):
        # SP, CLASH and Lasso solve at a power-of-two scale of f: SP and
        # CLASH returned the support [7, 30] as "converged", with the
        # residual norm inf at 1e160 and 0 at 1e-300, and Lasso, its tol
        # scaled with f, stopped after one step with 37 nonzeros, as
        # "converged" at 1e-300 and as "stalled" with the residual norm inf
        # at 1e160
        phi, f, _ = self.two_spike_case()

        def solve(c):
            if solver == "sp":
                return sp_solve(phi, c * f, PursuitConfig(sparsity=2))
            if solver == "lasso-pg":
                # its tol is absolute, so it scales with f
                return lasso_pg_solve(phi, c * f, 3.0 * c, tol=1e-8 * c), None
            return clash_solve(phi, c * f, PursuitConfig(sparsity=2, tau=3.0 * c))

        ref, ref_trace = solve(1.0)
        res, _ = solve(scale)
        # Lasso ends 5e-11 off the minimizer's zeros, which its subnormals
        # at 1e-300 do not hold to 1e-12 relative
        small = 1e-12 * np.max(np.abs(ref.alpha)) if solver == "lasso-pg" else 0.0
        assert np.array_equal(np.nonzero(np.abs(res.alpha) > 1e3 * small * scale)[0], [3, 7])
        np.testing.assert_allclose(res.alpha / scale, ref.alpha, rtol=1e-12, atol=small)
        assert 0.0 < res.residual_l2 < np.inf
        assert res.history[-1] == res.residual_l2
        # at the nearest power of two the answer scales bit for bit, and so
        # does the history of residual norms
        e = int(np.round(np.log2(scale)))
        exact, exact_trace = solve(np.ldexp(1.0, e))
        assert np.array_equal(exact.alpha, np.ldexp(ref.alpha, e))
        assert exact.history == np.ldexp(ref.history, e).tolist()
        assert (exact.iterations, exact.termination) == (ref.iterations, ref.termination)
        if ref_trace is not None:
            assert bits(exact_trace) == bits(scaled_trace(ref_trace, np.ldexp(1.0, e)))

    def test_budget_that_overflows_at_the_scale_of_f(self):
        # 1e300 at the scale of 1e-300 * f is above the float64 range: the
        # budget cannot bind, and the run is SP's
        phi, f, _ = self.two_spike_case()
        clash = clash_solve(phi, 1e-300 * f, PursuitConfig(sparsity=2, tau=1e300))[0]
        sp = sp_solve(phi, 1e-300 * f, PursuitConfig(sparsity=2))[0]
        assert differing_fields(clash, sp) == []

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_overflowing_column_norms_rejected(self, solver):
        # at 1e155 the squared column norms exceed float64: CLASH returned 0
        # as "converged", Lasso raised from inside l1_project, IHT hung
        phi, f, _ = self.two_spike_case()
        with pytest.raises(ValueError, match="column norms overflow"):
            self.SOLVERS[solver](1e155 * phi, f)

    def test_overflowing_products_rejected(self):
        # at 1e100 the column norms fit, but Lasso's power iteration and
        # IHT's step curvature overflow; both returned alpha = 0 before
        phi, f, _ = self.two_spike_case()
        with pytest.raises(ValueError, match="power iteration"):
            lasso_pg_solve(1e100 * phi, f, 3e-100)
        with pytest.raises(ValueError, match="IHT step"):
            iht_solve(1e100 * phi, f, 2)


class TestLassoPG:
    def test_identity_feasible_optimum(self):
        f = np.array([0.5, -0.25, 0.0])
        res = lasso_pg_solve(np.eye(3), f, tau=2.0)
        np.testing.assert_allclose(res.alpha, f, atol=1e-10)

    def test_zero_radius(self):
        res = lasso_pg_solve(np.eye(3), np.ones(3), tau=0.0)
        assert np.array_equal(res.alpha, np.zeros(3))
        assert res.history == [res.residual_l2] == [float(np.sqrt(3.0))]

    def test_identity_reduces_to_l1_projection(self):
        f = np.array([3.0, 1.0])
        res = lasso_pg_solve(np.eye(2), f, tau=2.0)
        np.testing.assert_allclose(res.alpha, [2.0, 0.0], atol=1e-8)

    def test_objective_monotone_nonincreasing(self):
        p = desk_instance(12, sigma=0.05)
        res = lasso_pg_solve(p.phi, p.f, 0.7 * p.tau_star, tol=1e-10, max_iter=800)
        hist = np.array(res.history)
        assert np.all(hist[1:] <= hist[:-1] + 1e-12)

    def test_output_feasible(self):
        p = desk_instance(13)
        tau = 0.5 * p.tau_star
        res = lasso_pg_solve(p.phi, p.f, tau)
        assert np.abs(res.alpha).sum() <= tau + 1e-8

    def test_uniform_start_in_null_space(self):
        # the uniform power-iteration start lies in the null space of
        # [1, -1]; the estimate must still be the eigenvalue 2
        phi = np.array([[1.0, -1.0]])
        assert pursuit._power_iter_cols(phi) == pytest.approx(2.0)
        res = lasso_pg_solve(phi, np.array([1.0]), 1.0)
        assert res.termination != "degenerate"
        np.testing.assert_allclose(res.alpha, [0.5, -0.5], atol=1e-10)
        assert res.residual_l2 <= 1e-10

    def test_power_iteration_unchanged_when_uniform_start_works(self):
        phi, _, _ = gaussian_case(11, m=30, n=70)
        v = np.full(70, 1.0 / np.sqrt(70))
        assert pursuit._power_iter_cols(phi) == pursuit._power_iter(phi, v)

    @pytest.mark.parametrize(
        "settings",
        [{"tol": np.nan}, {"tol": -1e-8}, {"max_iter": 0}, {"max_iter": -3}, {"max_iter": 2.5}],
    )
    def test_bad_settings_rejected(self, settings):
        phi, f, _ = gaussian_case(7, m=12, n=30)
        with pytest.raises(ValueError):
            lasso_pg_solve(phi, f, 1.0, **settings)

    @pytest.mark.parametrize("tau", [-1.0, np.nan])
    def test_bad_tau_rejected_before_any_product(self, tau, monkeypatch):
        # l1_project rejects such a tau too, but only after the power iteration
        monkeypatch.setattr(pursuit, "_power_iter_cols", lambda phi: pytest.fail("solve started"))
        phi, f, _ = gaussian_case(7, m=12, n=30)
        with pytest.raises(ValueError, match="tau must be >= 0"):
            lasso_pg_solve(phi, f, tau)

    def test_default_settings_stop_before_the_cap_at_bench_size(self):
        p = desk_instance(derive_seed(900, 0), n=1000, m=305, k=115, sigma=1e-3)
        res = lasso_pg_solve(p.phi, p.f, p.tau_star)
        assert res.termination in ("converged", "stalled")
        assert res.iterations < 2000

    @pytest.mark.parametrize("case", range(10))
    def test_objective_matches_exact_minimizer(self, case):
        # M > N and M < N, tau below and above the l1 norm of the
        # least-squares fit (the minimum-norm fit when M < N).  With M < N
        # and fractions from 0.8 up, tau admits an exact fit; the minimum
        # is then 0, met up to the absolute rounding term.
        m, n = [(40, 25), (20, 50)][case % 2]
        frac = [0.3, 0.8, 1.5, 3.0, 0.05][case // 2]
        phi, f, _ = gaussian_case(derive_seed(800, case), m, n)
        tau = frac * np.sum(np.abs(np.linalg.lstsq(phi, f, rcond=None)[0]))
        exact = _l1_restricted_lsq(phi, f, np.arange(n), tau, None)[0]
        res = lasso_pg_solve(phi, f, tau)
        assert res.termination != "max-iterations"
        assert np.sum(np.abs(res.alpha)) <= tau
        best = lsq_objective(phi, f, exact)
        assert lsq_objective(phi, f, res.alpha) <= best * (1 + 1e-9) + 1e-14 * (f @ f)

    @pytest.mark.parametrize("trial", range(3))
    def test_unique_minimizer_at_bench_size(self, trial):
        # at sigma = 0.1 the minimizer is unique: the default stop lands on
        # it, as a tight one and the exact solve warm-started there do
        p = desk_instance(derive_seed(900, trial), n=1000, m=305, k=115, sigma=0.1)
        res = lasso_pg_solve(p.phi, p.f, p.tau_star)
        tight = lasso_pg_solve(p.phi, p.f, p.tau_star, tol=1e-12).alpha
        exact = _l1_restricted_lsq(p.phi, p.f, np.arange(1000), p.tau_star, res.alpha)[0]
        for ref in (tight, exact):
            assert np.linalg.norm(res.alpha - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_converged_at_the_power_iteration_bound(self, monkeypatch):
        # the trial curvature c settles near Phi's own, far below an L
        # inflated 1000 times; a stop on ||z - y|| c <= tol would leave the
        # gradient mapping at the true L near tol, the stop on ||z - y|| L
        # about 1000 times below it
        phi, f, _ = gaussian_case(3, m=60, n=120)
        lam = pursuit._power_iter_cols(phi)
        monkeypatch.setattr(pursuit, "_power_iter_cols", lambda a: 1000.0 * lam)
        tau = 0.5 * np.sum(np.abs(np.linalg.lstsq(phi, f, rcond=None)[0]))
        tol = 1e-3
        res = lasso_pg_solve(phi, f, tau, tol=tol, max_iter=100_000)
        assert res.termination == "converged"
        x = res.alpha
        mapping = lam * np.linalg.norm(x - l1_project(x - phi.T @ (phi @ x - f) / lam, tau))
        assert mapping <= 5.0 * tol / 1000.0

    def test_rerun_is_bit_identical(self):
        p = desk_instance(14, sigma=0.01)
        a = lasso_pg_solve(p.phi, p.f, 0.8 * p.tau_star)
        b = lasso_pg_solve(p.phi, p.f, 0.8 * p.tau_star)
        assert differing_fields(a, b) == []


class TestIht:
    def test_identity_one_step(self):
        f = np.array([3.0, -1.0, 0.2, 0.0])
        # on the identity the line-search step along g_S is 1
        res = iht_solve(np.eye(4), f, k=2)
        np.testing.assert_allclose(res.alpha, hard_threshold(f, 2), atol=1e-12)

    def test_zero_observation(self):
        res = iht_solve(np.eye(4), np.zeros(4), k=2)
        assert np.array_equal(res.alpha, np.zeros(4))

    def test_residual_nonincreasing_with_auto_step(self):
        p = desk_instance(14, sigma=0.02)
        res = iht_solve(p.phi, p.f, k=12)
        hist = np.array(res.history)
        assert np.all(hist[1:] <= hist[:-1] + 1e-10)

    def test_iterates_k_sparse(self):
        p = desk_instance(15)
        res = iht_solve(p.phi, p.f, k=9)
        assert np.count_nonzero(res.alpha) <= 9

    def test_stops_before_the_cap_at_bench_size(self):
        # a fixed 1/L step runs this instance to the cap
        p = desk_instance(derive_seed(900, 1), n=1000, m=305, k=115, sigma=1e-3)
        res = iht_solve(p.phi, p.f, k=115)
        assert res.termination == "converged"
        assert res.iterations < 500

    def test_rerun_is_bit_identical(self):
        p = desk_instance(16, sigma=0.01)
        assert differing_fields(iht_solve(p.phi, p.f, k=12), iht_solve(p.phi, p.f, k=12)) == []

    @staticmethod
    def full_product_loop(phi, f, k):
        """Normalized IHT forming Phi g_S and every trial move Phi d as
        products with all of Phi: the loop `iht_solve` must match up to
        rounding.  Returns alpha, the iteration count and the termination."""
        x, r, g = np.zeros(phi.shape[1]), f, phi.T @ f
        support = top_k_support(g, k)
        iterations, termination = 0, "max-iterations"
        for _ in range(500):
            g_s = np.zeros_like(g)
            g_s[support] = g[support]
            phi_g = phi @ g_s
            curvature = float(phi_g @ phi_g)
            if curvature == 0.0:
                termination = "converged"
                break
            mu = float(g_s @ g_s) / curvature
            while True:
                w = x + mu * g
                new = top_k_support(w, k)
                x_new = np.zeros_like(x)
                x_new[new] = w[new]
                d = x_new - x
                if np.array_equal(new, support):
                    phi_d = mu * phi_g
                    break
                phi_d = phi @ d
                if mu * float(phi_d @ phi_d) <= 0.99 * float(d @ d):
                    break
                mu /= 2.0 * 0.99
            x, support, r = x_new, new, r - phi_d
            iterations += 1
            if float(np.sqrt(d @ d)) <= 1e-6 * float(np.sqrt(x @ x)):
                termination = "converged"
                break
            g = phi.T @ r
        return x, iterations, termination

    @pytest.mark.parametrize("trial", range(2))
    @pytest.mark.parametrize("sigma", [1e-5, 1e-3, 1e-1])
    def test_matches_the_full_product_loop(self, trial, sigma):
        p = desk_instance(derive_seed(900, trial), n=1000, m=305, k=115, sigma=sigma)
        res = iht_solve(p.phi, p.f, k=115)
        alpha, iterations, termination = self.full_product_loop(p.phi, p.f, 115)
        assert np.array_equal(np.nonzero(res.alpha)[0], np.nonzero(alpha)[0])
        assert (res.iterations, res.termination) == (iterations, termination)
        assert np.linalg.norm(res.alpha - alpha) <= 1e-12 * np.linalg.norm(alpha)

    @pytest.mark.parametrize("seed", range(17, 25))
    def test_residual_is_recomputed_from_the_output(self, seed):
        # the loop carries the residual, which drifts by rounding; the
        # reported norm is exact
        p = desk_instance(seed, sigma=0.05)
        res = iht_solve(p.phi, p.f, k=12)
        r = p.f - p.phi @ res.alpha
        assert res.residual_l2 == float(np.sqrt(r @ r))
        assert res.history[-1] == res.residual_l2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        k_frac=st.floats(0.0, 1.0),
    )
    def test_property_sparse_finite_and_monotone(self, seed, m, n, k_frac):
        phi, f, _ = gaussian_case(seed, m, n)
        k = 1 + int(k_frac * (min(m, n) - 1))
        res = iht_solve(phi, f, k)
        assert np.all(np.isfinite(res.alpha))
        assert np.count_nonzero(res.alpha) <= k
        hist = np.array(res.history)
        assert np.all(hist[1:] <= hist[:-1] + 1e-12 * np.sqrt(f @ f))


class TestContractionCheck:
    def test_noiseless_exact_run_contracts(self):
        p = desk_instance(derive_seed(400, 0), n=500, m=160, k=20)
        res, trace = sp_solve(p.phi, p.f, PursuitConfig(sparsity=20))
        # noise_norm at the inner-solver tolerance: past exact recovery the
        # truth distance sits at the numerical floor, not exactly zero
        report = contraction_check(
            trace, p.alpha_star, rho_bound=0.9, c1=1.0, noise_norm=1e-9
        )
        assert report.passed
        assert np.linalg.norm(trace[-1] - p.alpha_star) <= 1e-6

    def test_vacuous_bound_always_passes(self):
        p = desk_instance(16, sigma=0.05)
        _, trace = sp_solve(p.phi, p.f, PursuitConfig(sparsity=12))
        report = contraction_check(
            trace, p.alpha_star, rho_bound=1.0, c1=1e6, noise_norm=1.0
        )
        assert report.passed

    def test_noisy_envelope_empirically(self):
        passed = 0
        for i in range(5):
            p = generate(
                ProblemSpec(n=500, m=160, k=20, sigma=0.01, seed=derive_seed(500, i))
            )
            _, trace = sp_solve(p.phi, p.f, PursuitConfig(sparsity=20))
            noise_norm = lp_norm(p.noise, 2)
            report = contraction_check(trace, p.alpha_star, 0.9, 10.0, noise_norm)
            passed += report.passed
        assert passed == 5

    def test_violation_names_the_step_and_both_sides(self):
        a = np.array([3.0, 4.0])
        report = contraction_check([2 * a, 3 * a], np.zeros(2), 0.9, 0.0, 0.0)
        assert not report.passed
        # e = [10, 15]: 15 > 0.9 * 10 at step 0
        assert report.violations == [(0, 15.0, 9.0)]

    def test_single_iterate_trace_rejected(self):
        # one iterate gives no step e_i -> e_{i+1} to check
        with pytest.raises(ValueError, match="fewer than two iterates"):
            contraction_check([np.array([1.0, 0.0])], np.zeros(2), 0.9, 10.0, 0.0)
