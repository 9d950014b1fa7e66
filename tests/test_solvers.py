"""Solver loop tests against closed forms and independent reimplementations."""
import math

import numpy as np
import pytest

import iprox.penalties as penalties_mod
import iprox.prox as prox_mod
import iprox.solvers as solvers_mod
from iprox.bench import build_problem
from iprox.linalg import as_vector
from iprox.losses import MaskedLogisticLoss, RegressionDataset, SquareLoss
from iprox.penalties import L1Penalty, OscarPenalty, RankConstraint, TraceLassoPenalty
from iprox.prox import prox_l1, prox_oscar_exact, prox_rank
from iprox.solvers import (
    SOLVER_KINDS,
    ErrorSchedule,
    SolverAbort,
    SolverConfig,
    extrapolate,
    momentum_next,
    run_solver,
    schedule_eps,
)


def scalar_quadratic():
    """g(x) = (x - 1)^2 / 2 as a one-sample regression; L = 1."""
    data = RegressionDataset(np.array([[1.0]]), np.array([1.0]))
    return SquareLoss(data)


def oscar_instance(n=40, d=12, seed=3):
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n, d)) / math.sqrt(n)
    x_true = np.zeros(d)
    x_true[:4] = rng.uniform(0.5, 2.0, size=4)
    targets = design @ x_true + 0.05 * rng.standard_normal(n)
    loss = SquareLoss(RegressionDataset(design, targets))
    return loss, OscarPenalty(0.05, 0.02), np.zeros(d)


def tracelasso_instance():
    prob = build_problem("robust_tracelasso", seed=0, params={"n": 30, "d": 6, "sparsity": 2})
    return prob.loss, prob.regularizer, prob.x0


class TestMomentum:
    def test_base_cases(self):
        assert momentum_next(0.0) == 1.0
        assert momentum_next(1.0) == pytest.approx((math.sqrt(5.0) + 1.0) / 2.0)

    def test_defining_identity(self):
        # t_{k+1}^2 - t_{k+1} = t_k^2 along the whole sequence
        t = 0.0
        for _ in range(200):
            t_next = momentum_next(t)
            assert t_next * t_next - t_next == pytest.approx(t * t, abs=1e-9)
            t = t_next

    def test_growth_lower_bound(self):
        t = 1.0  # t_1
        for k in range(1, 500):
            assert t >= (k + 1) / 2.0 - 1e-9
            t = momentum_next(t)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            momentum_next(-0.5)


class TestExtrapolation:
    def test_first_iteration_recovers_start(self):
        x0 = np.array([2.0, -1.0])
        y = extrapolate(x0, x0, x0, 0.0, 1.0)
        np.testing.assert_array_equal(y, x0)

    def test_manual_combination(self):
        x_cur = np.array([1.0, 0.0])
        x_prev = np.array([0.0, 0.0])
        z_cur = np.array([2.0, 2.0])
        t_prev, t_cur = 1.0, 1.618
        expected = x_cur + (t_prev / t_cur) * (z_cur - x_cur) + ((t_prev - 1.0) / t_cur) * (x_cur - x_prev)
        np.testing.assert_allclose(extrapolate(x_cur, x_prev, z_cur, t_prev, t_cur), expected)


def _with_signed_zeros(shape, seed):
    """Random normals with +0.0, -0.0, subnormal and huge entries mixed in."""
    a = np.random.default_rng(seed).standard_normal(shape)
    flat = a.reshape(-1)
    flat[::7], flat[3::7], flat[5::13], flat[6::17] = 0.0, -0.0, -5e-324, 1e300
    return a


class TestInPlaceArithmetic:
    """The loop's n x n helpers round exactly as the plain expressions do,
    and write only into arrays they make (and _sq_norm's own argument)."""

    SHAPES = [(200, 200), (37,), (5, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sq_norm_is_the_reduced_square(self, shape):
        d = _with_signed_zeros(shape, 1) - _with_signed_zeros(shape, 2)
        want = float(np.add.reduce(d * d, axis=None))
        assert _bits(solvers_mod._sq_norm(d)) == _bits(want)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("gamma", [0.37, 1.0, 1e-310])
    def test_anchor_is_the_gradient_step(self, shape, gamma):
        x, g = _with_signed_zeros(shape, 3), _with_signed_zeros(shape, 4)
        g.reshape(-1)[1::9] = -0.0
        x_bytes, g_bytes = x.tobytes(), g.tobytes()
        a = solvers_mod._anchor(x, g, gamma)
        assert a.tobytes() == (x - gamma * g).tobytes()
        assert x.tobytes() == x_bytes and g.tobytes() == g_bytes
        assert not np.shares_memory(a, x) and not np.shares_memory(a, g)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize(
        "t_prev,aliases",  # k = 1 and 2 alias their inputs as the loop does
        [(0.0, "all-x"), (1.0, "z-is-x"), (0.0, "none"), (1.0, "none"), (7.3, "none")],
    )
    def test_extrapolate_is_the_three_term_sum(self, shape, t_prev, aliases):
        x_cur, x_prev, z = (_with_signed_zeros(shape, s) for s in (5, 6, 7))
        if aliases != "none":
            z = x_cur
        if aliases == "all-x":
            x_prev = x_cur
        t_cur = momentum_next(t_prev)
        inputs = [(v, v.tobytes()) for v in (x_cur, x_prev, z)]
        y = extrapolate(x_cur, x_prev, z, t_prev, t_cur)
        want = x_cur + (t_prev / t_cur) * (z - x_cur) + ((t_prev - 1.0) / t_cur) * (x_cur - x_prev)
        assert y.tobytes() == want.tobytes()
        for v, before in inputs:
            assert v.tobytes() == before
            assert not np.shares_memory(y, v)


class TestSchedules:
    def test_polynomial_values(self):
        s = ErrorSchedule.polynomial(1.0, 2.0)
        assert schedule_eps(s, 1) == 1.0
        assert schedule_eps(s, 3) == pytest.approx(1.0 / 9.0)

    def test_constant_zero_allowed(self):
        s = ErrorSchedule.constant(0.0)
        assert schedule_eps(s, 7) == 0.0

    def test_adaptive_tracks_displacement(self):
        s = ErrorSchedule.adaptive(0.5, floor=1e-12)
        assert schedule_eps(s, 2, prev_step_sq=0.01) == pytest.approx(0.005)
        assert schedule_eps(s, 2, prev_step_sq=0.0) == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorSchedule("geometric")
        with pytest.raises(ValueError):
            ErrorSchedule.constant(-1.0)
        with pytest.raises(ValueError):
            ErrorSchedule.adaptive(-0.5)
        with pytest.raises(ValueError):
            ErrorSchedule.adaptive(0.5, floor=0.0)
        with pytest.raises(ValueError):
            schedule_eps(ErrorSchedule.constant(1.0), 0)
        # alpha = 0 is a legal degenerate schedule: always the floor
        assert schedule_eps(ErrorSchedule.adaptive(0.0), 3, 5.0) == 1e-12

    @pytest.mark.parametrize("name", ["c", "p", "alpha", "floor"])
    @pytest.mark.parametrize("kind", ["constant", "polynomial", "adaptive"])
    def test_every_constant_is_checked_under_every_kind(self, kind, name):
        # a kind that ignores a constant still refuses a negative one
        with pytest.raises(ValueError, match=f"{name} must be non-negative and finite, got -1.0"):
            ErrorSchedule(kind, **{name: -1.0})

    def test_polynomial_past_float_range_underflows_to_zero(self):
        # 10**400 overflows a float; c / k**p is then below the smallest subnormal
        s = ErrorSchedule.polynomial(1e-2, 400.0)
        assert schedule_eps(s, 10) == 0.0
        assert schedule_eps(s, 5) == 1e-2 / 5.0**400.0  # 5**400 fits: the same bits as before

    def test_polynomial_past_float_range_divides_in_logs(self):
        # 100**155 = 1e310 overflows, but c / k**p = 1e300 / 1e310 does not
        assert schedule_eps(ErrorSchedule.polynomial(1e300, 155.0), 100) == pytest.approx(1e-10, rel=1e-12)

    @pytest.mark.parametrize("schedule", ["poly:1e-2,2", None], ids=["cli-spec", "none"])
    def test_config_refuses_what_is_not_a_schedule(self, schedule):
        # such a config once ran to k = 1 and died there on schedule.kind,
        # an AttributeError that escaped run_solver without a SolverAbort
        with pytest.raises(TypeError) as exc:
            SolverConfig(max_iters=3, solver_kind="ipg", error_schedule=schedule)
        assert str(exc.value) == f"error_schedule must be an ErrorSchedule, got {schedule!r}"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: ErrorSchedule.constant(v),
            lambda v: ErrorSchedule.polynomial(v, 2.0),
            lambda v: ErrorSchedule.polynomial(1e-2, v),
            lambda v: ErrorSchedule.adaptive(v),
            lambda v: ErrorSchedule.adaptive(1.0, floor=v),
        ],
        ids=["const-c", "poly-c", "poly-p", "adaptive-alpha", "adaptive-floor"],
    )
    def test_non_finite_constants_rejected(self, make, bad):
        with pytest.raises(ValueError, match="finite"):
            make(bad)


class TestBasicLoop:
    def test_scalar_quadratic_closed_form(self):
        # x_{k+1} = x_k - gamma (x_k - 1) with gamma = 1/2 gives x_k = 1 - 2^{-k}
        cfg = SolverConfig(max_iters=20, solver_kind="pg", gamma=0.5)
        trace = run_solver(scalar_quadratic(), L1Penalty(0.0), np.array([0.0]), cfg)
        for k, rec in enumerate(trace.records):
            x_k = 1.0 - 0.5**k
            assert rec.objective == pytest.approx(0.5 * (x_k - 1.0) ** 2, abs=1e-15)
        assert trace.final_point[0] == pytest.approx(1.0 - 0.5**20, abs=1e-15)

    def test_scalar_lasso_fixed_point(self):
        # minimizer of (x-1)^2/2 + 0.25 |x| is x* = 0.75
        cfg = SolverConfig(max_iters=200, solver_kind="pg", gamma=0.5)
        trace = run_solver(scalar_quadratic(), L1Penalty(0.25), np.array([0.0]), cfg)
        assert abs(trace.final_point[0] - 0.75) <= 1e-10

    def test_trace_shape_and_branches(self):
        cfg = SolverConfig(max_iters=15, solver_kind="pg", gamma=0.5)
        trace = run_solver(scalar_quadratic(), L1Penalty(0.25), np.array([0.0]), cfg)
        assert [r.k for r in trace.records] == list(range(16))
        assert trace.records[0].branch == "init"
        assert all(r.branch == "prox" for r in trace.records[1:])
        assert all(r.eps_k == 0.0 and r.certified_eps == 0.0 for r in trace.records)

    def test_exact_matches_inexact_at_zero_eps(self):
        loss, penalty, x0 = oscar_instance()
        gamma = 0.4 / loss.lipschitz()
        exact_cfg = SolverConfig(max_iters=40, solver_kind="pg", gamma=gamma)
        zero_cfg = SolverConfig(
            max_iters=40, solver_kind="ipg", gamma=gamma,
            error_schedule=ErrorSchedule.constant(0.0),
        )
        t_exact = run_solver(loss, penalty, x0, exact_cfg)
        t_zero = run_solver(loss, penalty, x0, zero_cfg)
        np.testing.assert_array_equal(t_exact.final_point, t_zero.final_point)
        assert [r.objective for r in t_exact.records] == [r.objective for r in t_zero.records]

    def test_inexact_descent_inequality(self):
        # f(x_{k+1}) <= f(x_k) - (1/(2 gamma) - L/2) ||x_{k+1} - x_k||^2 + eps
        loss, penalty, x0 = oscar_instance(seed=11)
        gamma = 0.45 / loss.lipschitz()
        cfg = SolverConfig(
            max_iters=60, solver_kind="ipg", gamma=gamma,
            error_schedule=ErrorSchedule.polynomial(1e-4, 2.0),
        )
        trace = run_solver(loss, penalty, x0, cfg)
        coeff = 1.0 / (2.0 * gamma) - loss.lipschitz() / 2.0
        for prev, cur in zip(trace.records, trace.records[1:]):
            bound = prev.objective - coeff * cur.step_norm_sq + cur.certified_eps
            assert cur.objective <= bound + 1e-10

    def test_inexact_descent_inequality_with_certified_error(self):
        # OSCAR takes its exact prox; trace lasso exercises the + eps term
        loss, penalty, x0 = tracelasso_instance()
        gamma = 0.45 / loss.lipschitz()
        cfg = SolverConfig(
            max_iters=60, solver_kind="ipg", gamma=gamma,
            error_schedule=ErrorSchedule.polynomial(1e-4, 2.0),
        )
        trace = run_solver(loss, penalty, x0, cfg)
        assert any(r.certified_eps > 0.0 for r in trace.records)
        coeff = 1.0 / (2.0 * gamma) - loss.lipschitz() / 2.0
        for prev, cur in zip(trace.records, trace.records[1:]):
            bound = prev.objective - coeff * cur.step_norm_sq + cur.certified_eps
            assert cur.objective <= bound + 1e-10


def reference_accelerated(loss, penalty, x0, gamma, iters):
    """Straight-line transcription of the accelerated loop with exact prox."""
    if isinstance(penalty, OscarPenalty):
        prox = lambda y: prox_oscar_exact(y, gamma, penalty.lambda1, penalty.lambda2)
    else:
        prox = lambda y: prox_l1(y, gamma * penalty.lam)
    f = lambda x: loss.eval(x)[0] + penalty.value(x)
    x_prev = x0.copy()
    x = x0.copy()
    z = x0.copy()
    t_prev, t_cur = 0.0, 1.0
    points = [x.copy()]
    for _ in range(iters):
        y = x + (t_prev / t_cur) * (z - x) + ((t_prev - 1.0) / t_cur) * (x - x_prev)
        z_next = prox(y - gamma * loss.eval(y)[1])
        v_next = prox(x - gamma * loss.eval(x)[1])
        x_next = z_next if f(z_next) <= f(v_next) else v_next
        t_next = 0.5 * (math.sqrt(4.0 * t_cur * t_cur + 1.0) + 1.0)
        x_prev, x, z = x, x_next, z_next
        t_prev, t_cur = t_cur, t_next
        points.append(x.copy())
    return points


class TestAcceleratedLoop:
    def test_matches_reference_transcription(self):
        loss, penalty, x0 = oscar_instance(seed=5)
        gamma = 0.4 / loss.lipschitz()
        cfg = SolverConfig(max_iters=30, solver_kind="apg", gamma=gamma)
        trace = run_solver(loss, penalty, x0, cfg, keep_iterates=True)
        expected = reference_accelerated(loss, penalty, x0, gamma, 30)
        assert len(trace.iterates) == 31
        for got, want in zip(trace.iterates, expected):
            np.testing.assert_allclose(got["x"], want, rtol=0.0, atol=1e-12)

    def test_selection_never_worse_than_monitor(self):
        loss, penalty, x0 = oscar_instance(seed=9)
        cfg = SolverConfig(max_iters=50, solver_kind="apg", gamma=0.4 / loss.lipschitz())
        trace = run_solver(loss, penalty, x0, cfg)
        for rec in trace.records[1:]:
            assert rec.branch in ("z-accepted", "v-accepted")
            assert rec.objective <= rec.monitor_objective + 1e-15
            if rec.branch == "z-accepted":
                assert rec.z_objective <= rec.monitor_objective
            else:
                assert rec.z_objective > rec.monitor_objective

    def test_monitor_descent_inequality(self):
        loss, penalty, x0 = oscar_instance(seed=21)
        lip = loss.lipschitz()
        gamma = 0.45 / lip
        cfg = SolverConfig(
            max_iters=60, solver_kind="aipg", gamma=gamma,
            error_schedule=ErrorSchedule.polynomial(1e-5, 2.0),
        )
        trace = run_solver(loss, penalty, x0, cfg)
        coeff = 1.0 / (2.0 * gamma) - lip / 2.0
        for prev, cur in zip(trace.records, trace.records[1:]):
            bound = prev.objective - coeff * cur.monitor_step_sq + cur.monitor_eps
            assert cur.objective <= bound + 1e-10

    def test_monitor_descent_inequality_with_certified_error(self):
        loss, penalty, x0 = tracelasso_instance()
        lip = loss.lipschitz()
        gamma = 0.45 / lip
        cfg = SolverConfig(
            max_iters=60, solver_kind="aipg", gamma=gamma,
            error_schedule=ErrorSchedule.polynomial(1e-5, 2.0),
        )
        trace = run_solver(loss, penalty, x0, cfg)
        assert any(r.monitor_eps > 0.0 for r in trace.records[1:])
        coeff = 1.0 / (2.0 * gamma) - lip / 2.0
        for prev, cur in zip(trace.records, trace.records[1:]):
            bound = prev.objective - coeff * cur.monitor_step_sq + cur.monitor_eps
            assert cur.objective <= bound + 1e-10

    def test_nonmonotone_huge_delta_matches_accelerated(self):
        # an unsatisfiable shortcut condition reduces nmapg to apg exactly
        loss, penalty, x0 = oscar_instance(seed=13)
        gamma = 0.4 / loss.lipschitz()
        t_apg = run_solver(loss, penalty, x0, SolverConfig(max_iters=40, solver_kind="apg", gamma=gamma))
        t_nm = run_solver(
            loss, penalty, x0,
            SolverConfig(max_iters=40, solver_kind="nmapg", gamma=gamma, delta=1e12),
        )
        np.testing.assert_array_equal(t_apg.final_point, t_nm.final_point)
        assert t_apg.objectives().tolist() == t_nm.objectives().tolist()

    def test_shortcut_condition_recheck(self):
        loss, penalty, x0 = oscar_instance(seed=2)
        cfg = SolverConfig(max_iters=80, solver_kind="nmapg", gamma=0.4 / loss.lipschitz(), delta=0.6)
        trace = run_solver(loss, penalty, x0, cfg, keep_iterates=True)
        branches = [r.branch for r in trace.records[1:]]
        assert "shortcut" in branches
        for rec, it in zip(trace.records[1:], trace.iterates[1:]):
            f_z = rec.z_objective
            threshold = it["f_x_prev"] - 0.5 * cfg.delta * rec.z_step_sq
            if rec.branch == "shortcut":
                assert f_z <= threshold + 1e-15
                assert rec.monitor_objective is None
                assert rec.monitor_inner_iters == 0
            else:
                assert f_z > threshold - 1e-15
                assert rec.monitor_objective is not None

    def test_shortcut_skips_monitor_prox_work(self):
        loss, penalty, x0 = oscar_instance(seed=2)
        gamma = 0.4 / loss.lipschitz()
        sched = ErrorSchedule.polynomial(1e-5, 2.0)
        t_nm = run_solver(
            loss, penalty, x0,
            SolverConfig(max_iters=80, solver_kind="nmaipg", gamma=gamma, error_schedule=sched),
        )
        t_acc = run_solver(
            loss, penalty, x0,
            SolverConfig(max_iters=80, solver_kind="aipg", gamma=gamma, error_schedule=sched),
        )
        nm_calls = sum(1 for r in t_nm.records[1:] if r.branch != "shortcut")
        acc_calls = len(t_acc.records) - 1
        assert any(r.branch == "shortcut" for r in t_nm.records)
        assert nm_calls < acc_calls
        assert all(r.monitor_inner_iters == 0 for r in t_nm.records if r.branch == "shortcut")

    def test_monitor_warm_starts_from_the_same_iterations_z_dual(self, monkeypatch):
        prob = build_problem("robust_tracelasso", seed=0, params={"n": 30, "d": 6, "sparsity": 2})
        calls = []
        real = solvers_mod.prox_tracelasso_inexact

        def recording(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append((kwargs["w0"], res))
            return res

        monkeypatch.setattr(solvers_mod, "prox_tracelasso_inexact", recording)
        trace = run_solver(
            prob.loss, prob.regularizer, prob.x0, SolverConfig(max_iters=40, solver_kind="nmaipg"),
        )
        branches = [r.branch for r in trace.records[1:]]
        # the monitor site must make its own call twice, and the z site run on past shortcuts
        monitored = [k for k, b in enumerate(branches, 1) if b != "shortcut" and k > 2]
        assert len(monitored) >= 2 and "shortcut" in branches
        calls = iter(calls)
        last_z = None
        for k, branch in enumerate(branches, 1):
            w0, res_z = next(calls)  # the z site chains its own results
            assert w0 is (None if last_z is None else last_z.dual)
            last_z = res_z
            if branch != "shortcut" and k > 2:  # k = 1 and 2 share the z call
                w0, _ = next(calls)
                assert w0 is res_z.dual
        assert next(calls, None) is None

    def test_ipg_monitor_warm_starts_from_its_previous_dual(self, monkeypatch):
        prob = build_problem("robust_tracelasso", seed=0, params={"n": 30, "d": 6, "sparsity": 2})
        calls = []
        real = solvers_mod.prox_tracelasso_inexact

        def recording(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append((kwargs["w0"], res))
            return res

        monkeypatch.setattr(solvers_mod, "prox_tracelasso_inexact", recording)
        run_solver(prob.loss, prob.regularizer, prob.x0, SolverConfig(max_iters=10, solver_kind="ipg"))
        assert len(calls) == 10 and calls[0][0] is None
        for (_, prev), (w0, _) in zip(calls, calls[1:]):
            assert w0 is prev.dual


class TestTraceLassoInnerWork:
    """Sums of inner iterations over 30 iterations at default sizes. The
    accelerated monitor warm-starts from the same iteration's z dual, so on
    seed 7 it certifies every call from that start; warm-started from its
    own previous dual, aipg's monitor took 76 (seed 7) and 70 (seed 0)."""

    @pytest.mark.parametrize(
        "seed,aipg_monitor,totals",
        [(7, 0, {"ipg": 45, "aipg": 104, "nmaipg": 104}), (0, 42, {"ipg": 75, "aipg": 117, "nmaipg": 75})],
    )
    def test_inner_iteration_sums(self, seed, aipg_monitor, totals):
        prob = build_problem("robust_tracelasso", seed=seed)
        for kind, total in totals.items():
            trace = run_solver(prob.loss, prob.regularizer, prob.x0, SolverConfig(max_iters=30, solver_kind=kind))
            records = trace.records[1:]
            assert sum(r.inner_iters for r in records) == total, kind
            assert all(r.certified_eps <= r.eps_k for r in records)
            if kind == "aipg":
                assert sum(r.monitor_inner_iters for r in records) == aipg_monitor


class TestInexactnessSavesWork:
    """The paper's claim as a count: on test_p11's shape (n = 100, d = 20),
    default aipg and nmaipg come within tau of f_ref, relative, after at
    most a tenth of the inner iterations their const:1e-10 twins take to get
    there. f_ref is the lowest final objective of the seed's four runs.
    Inner iterations are the dominant work: one SVD per gap and per
    projection. Measured: aipg 213-310 against 6988-8707, nmaipg 162-217
    against 3647-4505, so 2-5% at seeds 0-2."""

    TAU = 1e-3

    @staticmethod
    def _inner_until(trace, target):
        """Inner iterations summed up to the first record at or below target."""
        total = 0
        for r in trace.records:
            total += r.inner_iters
            if r.objective <= target:
                return total
        raise AssertionError(f"{trace.solver_kind} never reached {target}")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_reaches_tau_with_a_tenth_of_the_twins_inner_work(self, seed):
        prob = build_problem("robust_tracelasso", seed=seed, params={"n": 100, "d": 20})
        schedules = {"default": {}, "twin": {"error_schedule": ErrorSchedule.constant(1e-10)}}
        runs = {
            (kind, name): run_solver(
                prob.loss, prob.regularizer, prob.x0, SolverConfig(max_iters=50, solver_kind=kind, **schedule),
            )
            for kind in ("aipg", "nmaipg")
            for name, schedule in schedules.items()
        }
        f_ref = min(trace.records[-1].objective for trace in runs.values())
        target = f_ref + self.TAU * abs(f_ref)
        for kind in ("aipg", "nmaipg"):
            default = self._inner_until(runs[kind, "default"], target)
            twin = self._inner_until(runs[kind, "twin"], target)
            assert 10 * default <= twin, (kind, default, twin)


class TestSortedWeightRouting:
    """L1 and OSCAR take their exact prox under every kind, so an inexact kind
    differs from its exact twin only in the eps_k it requests."""

    @pytest.mark.parametrize("problem", ["oscar", "lasso"])
    @pytest.mark.parametrize("kind,twin", [("ipg", "pg"), ("aipg", "apg"), ("nmaipg", "nmapg")])
    def test_inexact_kind_runs_its_exact_twin(self, problem, kind, twin):
        if problem == "oscar":
            loss, penalty, x0 = oscar_instance(seed=2)
        else:
            prob = build_problem("lasso_baseline", seed=0, params={"n": 40, "d": 12, "sparsity": 4})
            loss, penalty, x0 = prob.loss, prob.regularizer, prob.x0
        schedule = ErrorSchedule.polynomial(1e-2, 2.0)
        inexact, exact = (
            run_solver(loss, penalty, x0, SolverConfig(max_iters=40, solver_kind=k, error_schedule=schedule))
            for k in (kind, twin)
        )
        for r in inexact.records + exact.records:
            assert r.certified_eps == 0.0 and r.inner_iters == 0
        assert any(r.eps_k > 0.0 for r in inexact.records)
        for field in ("objective", "step_norm_sq", "branch"):
            assert [getattr(r, field) for r in inexact.records] == [getattr(r, field) for r in exact.records]
        assert np.array_equal(inexact.final_point, exact.final_point)


def _bits(value):
    return np.float64(value).tobytes()


def _bind(penalty, gamma, n):
    """A site bound to gamma and length-n points, as a run binds it."""
    config = SolverConfig(max_iters=1, solver_kind="pg")
    return solvers_mod._make_prox(penalty, True, config, gamma, np.zeros(n))


class TestL1ProxSite:
    """The L1 site, and the OSCAR site at lambda2 = 0, return soft
    thresholding's point and the penalty's value there."""

    @pytest.mark.parametrize(
        "penalty", [L1Penalty, lambda lam: OscarPenalty(lam, 0.0)], ids=["l1", "oscar-lambda2-zero"],
    )
    @pytest.mark.parametrize("lam,gamma", [(0.3, 0.7), (0.0, 1.0), (1e-300, 1e-10)])
    def test_point_and_value_are_bitwise_soft_thresholding_and_l1_value(self, lam, gamma, penalty):
        t = gamma * lam  # (1e-300, 1e-10) makes the threshold itself subnormal
        near = [np.nextafter(t, 0.0), np.nextafter(t, np.inf)]
        anchors = np.array(
            [0.0, -0.0, t, -t, *near, *(-v for v in near), 5e-324, -5e-324, 1e-310, -2.5e-310,
             1e300, -1e300, *np.random.default_rng(0).standard_normal(20)]
        )
        penalty = penalty(lam)
        prox = _bind(penalty, gamma, anchors.shape[0])
        anchor_bytes = anchors.tobytes()
        res = prox(anchors, 0.0, None)
        assert anchors.tobytes() == anchor_bytes and not np.shares_memory(res.point, anchors)
        want = np.sign(anchors) * np.maximum(np.abs(anchors) - t, 0.0)
        assert res.point.tobytes() == want.tobytes() == prox_l1(anchors, t).tobytes()  # -0.0 in, +0.0 out
        assert _bits(res.value) == _bits(penalty.value(res.point))
        assert (res.certified_eps, res.inner_iters) == (0.0, 0)


class TestOscarProxSite:
    """The OSCAR site pools with one sort and a ramp built at bind, and
    takes its value from the pool's clamped magnitudes read in reverse."""

    PENALTY = OscarPenalty(0.1, 0.3)

    @staticmethod
    def _anchors(n, rng):
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.2] = 0.0
        x[rng.random(n) < 0.2] = -0.0
        x[: n // 3] = np.round(x[: n // 3], 1)  # ties in |anchor|
        return x

    def _check(self, site, anchor, gamma):
        res = site(anchor, 0.0, None)
        want = prox_oscar_exact(anchor, gamma, self.PENALTY.lambda1, self.PENALTY.lambda2)
        assert res.point.tobytes() == want.tobytes()
        assert _bits(res.value) == _bits(self.PENALTY.value(res.point))
        assert (res.certified_eps, res.inner_iters) == (0.0, 0)
        return res.point

    @pytest.mark.parametrize("n", [1, 2, 9, 12, 50])
    @pytest.mark.parametrize("gamma", [0.7, 0.2])
    def test_point_and_value_on_zeros_ties_and_pooled_blocks(self, gamma, n):
        site = _bind(self.PENALTY, gamma, n)  # one site per (gamma, length)
        if n == 9:
            # 3.0, 2.95 and 2.9 shrink to an ascent and pool; the zeros, -0.0
            # and the tied +-1.0 and +-0.5 sit beside them
            fixed = np.array([3.0, -2.9, 2.95, 0.0, -0.0, 1.0, -1.0, 0.5, -0.5])
            mag = np.abs(self._check(site, fixed, gamma)[:3])
            assert mag[0] == mag[1] == mag[2] > 0.0
        rng = np.random.default_rng(4)
        for _ in range(10):
            self._check(site, self._anchors(n, rng) * 3.0, gamma)


class TestProxSiteValues:
    """Every prox site's result carries the penalty's public value at its
    point, bit for bit, warm-started sites included."""

    DESIGN = np.random.default_rng(5).standard_normal((9, 6))
    CASES = {
        "l1": (L1Penalty(0.3), False, "residual"),
        "oscar": (OscarPenalty(0.1, 0.05), False, "residual"),
        "oscar-lambda2-zero": (OscarPenalty(0.1, 0.0), False, "residual"),
        "tracelasso": (TraceLassoPenalty(0.4, DESIGN), False, "residual"),
        "tracelasso-lam-zero": (TraceLassoPenalty(0.0, DESIGN), False, "residual"),
        "rank-exact": (RankConstraint(2), True, "residual"),
        "rank-power": (RankConstraint(2), False, "power"),
        "rank-residual": (RankConstraint(2), False, "residual"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_value_is_the_public_value_at_the_point(self, case):
        penalty, use_exact, rank_mode = self.CASES[case]
        config = SolverConfig(max_iters=1, solver_kind="ipg", rank_mode=rank_mode)
        rng = np.random.default_rng(6)
        shape = (8, 7) if isinstance(penalty, RankConstraint) else (6,)
        prox = solvers_mod._make_prox(penalty, use_exact, config, 0.7, np.zeros(shape))
        anchor = rng.standard_normal(shape)
        res = None
        for eps_k in (1e-2, 1e-5, 1e-8, 0.0):
            anchor = anchor + 0.1 * rng.standard_normal(shape)
            res = prox(anchor, eps_k, res)
            assert _bits(res.value) == _bits(penalty.value(res.point)), eps_k


class TestProxNamesStayVisible:
    """The trace-lasso and rank sites call their prox through its name in
    iprox.solvers, so a wrapper set on that name, as a traced benchmark pass
    sets one, sees each of the loop's prox calls once."""

    @pytest.mark.parametrize(
        "app,name,kind",
        [("robust_tracelasso", "prox_tracelasso_inexact", k) for k in ("ipg", "aipg", "nmaipg")]
        + [("link_prediction", "prox_rank", k) for k in SOLVER_KINDS],
    )
    def test_each_site_call_reaches_the_wrapped_name(self, app, name, kind, monkeypatch):
        prob = build_problem(app, seed=0, params=TestRecordObjectives.SIZES[app])
        wrapped, sited = [], []
        real_prox, real_make = getattr(solvers_mod, name), solvers_mod._make_prox

        def wrapper(*args, **kwargs):
            res = real_prox(*args, **kwargs)
            wrapped.append(res)
            return res

        def make_prox(*args):
            site = real_make(*args)

            def counted(*site_args):
                res = site(*site_args)
                sited.append(res)
                return res

            return counted

        monkeypatch.setattr(solvers_mod, name, wrapper)
        monkeypatch.setattr(solvers_mod, "_make_prox", make_prox)
        run_solver(prob.loss, prob.regularizer, prob.x0, SolverConfig(max_iters=15, solver_kind=kind))
        assert sited and len(wrapped) == len(sited)
        assert all(a is b for a, b in zip(wrapped, sited))


class TestRecordObjectives:
    """Each record's objective, and each evaluated candidate's, is
    loss.eval(x)[0] + penalty.value(x) at its point, bit for bit: the value
    a prox site supplies is the penalty's own."""

    SIZES = {
        "lasso_baseline": {"n": 40, "d": 12, "sparsity": 4},
        "robust_oscar": {"n": 40, "d": 12, "n_groups": 3},
        "link_prediction": {"n_users": 20},
        "robust_tracelasso": {"n": 30, "d": 6, "sparsity": 2},
    }

    @pytest.mark.parametrize("app", list(SIZES))
    def test_objectives_are_the_public_values_at_the_points(self, app):
        prob = build_problem(app, seed=0, params=self.SIZES[app])
        # trace lasso has no exact prox
        kinds = ("ipg", "aipg", "nmaipg") if app == "robust_tracelasso" else SOLVER_KINDS

        def f(x):
            return prob.loss.eval(x)[0] + prob.regularizer.value(x)

        for kind in kinds:
            config = SolverConfig(max_iters=25, solver_kind=kind)
            trace = run_solver(prob.loss, prob.regularizer, prob.x0, config, keep_iterates=True)
            assert len(trace.iterates) == len(trace.records) == 26
            for rec, state in zip(trace.records, trace.iterates):
                assert _bits(rec.objective) == _bits(f(state["x"])), (kind, rec.k)
                if rec.z_objective is not None:
                    assert _bits(rec.z_objective) == _bits(f(state["z"])), (kind, rec.k)
                if rec.monitor_objective is not None and "v" in state:
                    assert _bits(rec.monitor_objective) == _bits(f(state["v"])), (kind, rec.k)


class CountingLoss:
    """Forwards to a loss and counts its eval calls."""

    def __init__(self, loss):
        self.loss = loss
        self.evals = 0

    def lipschitz(self):
        return self.loss.lipschitz()

    def eval(self, x):
        self.evals += 1
        return self.loss.eval(x)


def reference_from_scratch(loss, penalty, x0, gamma, kind, iters, delta=0.6):
    """Straight-line pg/apg/nmapg with the exact prox that recomputes every
    gradient and objective at the point where it is needed."""
    if isinstance(penalty, RankConstraint):
        prox = lambda y: prox_rank(y, penalty.r, mode="exact").point
    else:
        prox = lambda y: prox_oscar_exact(y, gamma, penalty.lambda1, penalty.lambda2)
    f = lambda x: loss.eval(x)[0] + penalty.value(x)
    step = lambda x: prox(x - gamma * loss.eval(x)[1])
    x = x0.copy()
    points = [x]
    if kind == "pg":
        for _ in range(iters):
            x = step(x)
            points.append(x)
        return points, []
    x_prev, z = x, x
    t_prev, t_cur = 0.0, 1.0
    branches = []
    for _ in range(iters):
        y = extrapolate(x, x_prev, z, t_prev, t_cur)
        z_next = step(y)
        f_z = f(z_next)
        if kind == "nmapg" and f_z <= f(x) - 0.5 * delta * float(np.sum((z_next - y) ** 2)):
            x_next = z_next
            branches.append("shortcut")
        else:
            v_next = step(x)
            x_next = z_next if f_z <= f(v_next) else v_next
            branches.append("z-accepted" if x_next is z_next else "v-accepted")
        x_prev, x, z = x, x_next, z_next
        t_prev, t_cur = t_cur, momentum_next(t_cur)
        points.append(x)
    return points, branches


class TestOracleCalls:
    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_one_loss_eval_per_evaluated_point(self, kind):
        # pg: f and grad at each new point; apg: at y, z and v; nmapg skips v on shortcuts.
        # At k = 1 and 2 of the accelerated kinds y is x_k and v is z: z alone is evaluated
        loss, penalty, x0 = oscar_instance(seed=2)
        counting = CountingLoss(loss)
        cfg = SolverConfig(max_iters=40, solver_kind=kind, gamma=0.4 / loss.lipschitz())
        trace = run_solver(counting, penalty, x0, cfg)
        branches = [r.branch for r in trace.records[1:]]
        iters = len(branches)
        if kind in ("pg", "ipg"):
            expected = 1 + iters
        elif kind in ("apg", "aipg"):
            expected = 1 + 2 + 3 * (iters - 2)
        else:
            shortcuts = branches[2:].count("shortcut")
            assert 0 < shortcuts < iters - 2
            expected = 1 + 2 + 2 * shortcuts + 3 * (iters - 2 - shortcuts)
        assert counting.evals == expected

    @pytest.mark.parametrize(
        "problem,kind,seen",
        [
            ("oscar", "pg", set()),
            ("oscar", "apg", {"z-accepted", "v-accepted"}),
            ("oscar", "nmapg", {"shortcut", "v-accepted"}),
            ("link_prediction", "pg", set()),
            ("link_prediction", "apg", {"z-accepted"}),
            ("link_prediction", "nmapg", {"shortcut", "z-accepted"}),
        ],
        ids=lambda v: "-".join(sorted(v)) if isinstance(v, set) else v,
    )
    def test_reused_gradients_match_recomputed_ones_bitwise(self, problem, kind, seen):
        # seen pins the branches taken, so a drift that stops exercising one shows here
        if problem == "oscar":
            loss, penalty, x0 = oscar_instance(seed=5)
            gamma = 0.4 / loss.lipschitz()
        else:
            prob = build_problem("link_prediction", seed=0, params={"n_users": 30})
            loss, penalty, x0 = prob.loss, prob.regularizer, prob.x0
            gamma = 0.9 / loss.lipschitz()
        cfg = SolverConfig(max_iters=40, solver_kind=kind, gamma=gamma, delta=0.6, rank_mode="exact")
        trace = run_solver(loss, penalty, x0, cfg, keep_iterates=True)
        expected, branches = reference_from_scratch(loss, penalty, x0, gamma, kind, 40, delta=0.6)
        assert set(branches) == seen
        if kind != "pg":
            assert [r.branch for r in trace.records[1:]] == branches
        assert len(trace.iterates) == len(expected) == 41
        for got, want in zip(trace.iterates, expected):
            assert np.array_equal(got["x"], want)


class TupleLoss:
    """Forwards to a loss and returns its evaluations as plain tuples."""

    def __init__(self, loss):
        self.loss = loss

    def lipschitz(self):
        return self.loss.lipschitz()

    def eval(self, x):
        value, grad = self.loss.eval(x)
        return value, grad


class TestGradientsComputed:
    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_only_the_gradients_the_loop_steps_from(self, kind, monkeypatch):
        # the loop reads a gradient at y, at the monitor anchor x_k and at a
        # shared iteration; SquareLoss computes one at its evaluation's first read
        computed = []
        real = SquareLoss._gradient

        def counting(self, res):
            computed.append(res)
            return real(self, res)

        monkeypatch.setattr(SquareLoss, "_gradient", counting)
        loss, penalty, x0 = oscar_instance(seed=2)
        counting_loss = CountingLoss(loss)
        cfg = SolverConfig(max_iters=40, solver_kind=kind, gamma=0.4 / loss.lipschitz())
        trace = run_solver(counting_loss, penalty, x0, cfg)
        branches = [r.branch for r in trace.records[1:]]
        iters = len(branches)
        if kind in ("pg", "ipg"):
            expected = counting_loss.evals - 1  # every point's but the last
        elif kind in ("apg", "aipg"):
            expected = 2 + 2 * (iters - 2)  # x_0's and x_1's at k = 1 and 2, then y's and x_k's
        else:
            shortcuts = branches[2:].count("shortcut")
            assert 0 < shortcuts < iters - 2
            # a shortcut at k takes no monitor step, so x_k's gradient goes unread
            expected = 2 + 2 * (iters - 2) - shortcuts
        assert len(computed) == expected < counting_loss.evals

    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_plain_tuple_loss_takes_the_same_steps(self, kind):
        loss, penalty, x0 = oscar_instance(seed=2)
        cfg = SolverConfig(max_iters=40, solver_kind=kind, gamma=0.4 / loss.lipschitz())
        shipped = run_solver(loss, penalty, x0, cfg)
        plain = run_solver(TupleLoss(loss), penalty, x0, cfg)
        assert plain.key() == shipped.key()
        assert np.array_equal(plain.final_point, shipped.final_point)


class TestGuards:
    def test_step_size_must_beat_lipschitz(self):
        loss = scalar_quadratic()  # L = 1
        with pytest.raises(ValueError):
            run_solver(loss, L1Penalty(0.1), np.array([0.0]),
                       SolverConfig(max_iters=5, solver_kind="pg", gamma=1.0))

    def test_default_step_size(self):
        loss, penalty, x0 = oscar_instance()
        cfg = SolverConfig(max_iters=3, solver_kind="pg")
        trace = run_solver(loss, penalty, x0, cfg)
        assert trace.gamma == pytest.approx(0.9 / loss.lipschitz())

    def test_nonfinite_objective_aborts(self):
        class BrokenLoss:
            def __init__(self):
                self.calls = 0

            def lipschitz(self):
                return 1.0

            def eval(self, x):
                self.calls += 1
                if self.calls > 2:
                    return float("nan"), np.zeros_like(x)
                return 0.0, np.ones_like(x)

        with pytest.raises(RuntimeError):
            run_solver(BrokenLoss(), L1Penalty(0.1), np.array([0.0]),
                       SolverConfig(max_iters=10, solver_kind="pg", gamma=0.5))

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError):
            run_solver(scalar_quadratic(), L1Penalty(0.1), np.array([np.nan]),
                       SolverConfig(max_iters=5, solver_kind="pg", gamma=0.5))

    @pytest.mark.parametrize("kind", ["pg", "aipg"])  # one basic, one accelerated kind
    def test_loop_runs_no_input_checks(self, kind, monkeypatch):
        # the loop calls the unchecked prox and penalty cores; the only check
        # that iprox.prox and iprox.penalties run is the start point's
        # penalty.value (loss.eval's scan lives in iprox.losses)
        calls = []

        def counting(x, name="x"):
            calls.append(name)
            return as_vector(x, name)

        monkeypatch.setattr(prox_mod, "as_vector", counting)
        monkeypatch.setattr(penalties_mod, "as_vector", counting)
        loss, penalty, x0 = oscar_instance()
        trace = run_solver(loss, penalty, x0, SolverConfig(max_iters=20, solver_kind=kind))
        assert len(trace.records) == 21
        assert calls == ["x"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0, solver_kind="pg")
        with pytest.raises(ValueError):
            SolverConfig(max_iters=5, solver_kind="sgd")
        with pytest.raises(ValueError):
            SolverConfig(max_iters=5, solver_kind="pg", gamma=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=5, solver_kind="nmapg", delta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=5, solver_kind="ipg", rank_mode="lanczos")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delta", math.nan),
            ("delta", math.inf),
            ("max_iters", 2.5),
            ("inner_max_iters", 0),
            ("inner_max_iters", 2.5),
            ("gamma", math.nan),
            ("gamma", 0.0),
            ("seed", 2.5),
            ("seed", -1),
        ],
    )
    def test_config_rejects_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{"max_iters": 5, "solver_kind": "nmaipg", field: value})

    def test_config_boundary_values_accepted(self):
        cfg = SolverConfig(max_iters=5, solver_kind="nmaipg", delta=1e12, inner_max_iters=1)
        assert cfg.inner_max_iters == 1


class TestDeterminism:
    def test_repeat_runs_identical(self):
        loss, penalty, x0 = oscar_instance(seed=17)
        cfg = SolverConfig(
            max_iters=40, solver_kind="aipg", gamma=0.4 / loss.lipschitz(),
            error_schedule=ErrorSchedule.adaptive(0.05, floor=1e-10),
        )
        t1 = run_solver(loss, penalty, x0, cfg)
        t2 = run_solver(loss, penalty, x0, cfg)
        assert t1.key() == t2.key()
        np.testing.assert_array_equal(t1.final_point, t2.final_point)


class TestMatrixRuns:
    def build(self, seed=0):
        from iprox.losses import MaskedLogisticLoss, ObservedSignMatrix

        rng = np.random.default_rng(seed)
        n, r = 12, 2
        base = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        rows, cols = np.divmod(rng.choice(n * n, size=60, replace=False), n)
        signs = np.where(base[rows, cols] >= 0, 1.0, -1.0)
        obs = ObservedSignMatrix(n, rows, cols, signs)
        return MaskedLogisticLoss(obs), RankConstraint(r), np.zeros((n, n))

    def test_exact_rank_descent(self):
        loss, constraint, x0 = self.build()
        cfg = SolverConfig(max_iters=30, solver_kind="pg", rank_mode="exact")
        trace = run_solver(loss, constraint, x0, cfg)
        objs = trace.objectives()
        assert np.all(np.diff(objs) <= 1e-10)
        assert trace.final_point.shape == (12, 12)
        assert constraint.feasible(trace.final_point)

    def test_power_mode_runs_and_certifies(self):
        loss, constraint, x0 = self.build(seed=4)
        cfg = SolverConfig(max_iters=10, solver_kind="ipg", rank_mode="power")
        trace = run_solver(loss, constraint, x0, cfg)
        assert all(np.isfinite(r.objective) for r in trace.records)
        assert all(r.certified_eps >= 0.0 for r in trace.records)

    def test_vector_start_rejected(self):
        loss, constraint, _ = self.build()
        cfg = SolverConfig(max_iters=5, solver_kind="pg", rank_mode="exact")
        with pytest.raises(ValueError):
            run_solver(loss, constraint, np.zeros(10), cfg)
        with pytest.raises(ValueError):
            run_solver(loss, L1Penalty(0.1), np.zeros((3, 3)), cfg)
        # a bound above the start's smaller side fails at bind, before the start record
        for kind, mode in (("pg", "exact"), ("ipg", "power"), ("ipg", "residual")):
            with pytest.raises(ValueError, match=r"rank r=13 outside \[1, 12\]"):
                run_solver(
                    loss, RankConstraint(13), np.zeros((12, 12)),
                    SolverConfig(max_iters=5, solver_kind=kind, rank_mode=mode),
                )


class TestRankPowerRuns:
    def test_rank_monitor_warm_starts_from_the_same_iterations_z_basis(self, monkeypatch):
        prob = build_problem("link_prediction", seed=0, params={"n_users": 30})
        calls = []
        real = solvers_mod.prox_rank

        def recording(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append((kwargs["v0"], res))
            return res

        monkeypatch.setattr(solvers_mod, "prox_rank", recording)
        trace = run_solver(
            prob.loss, prob.regularizer, prob.x0, SolverConfig(max_iters=40, solver_kind="nmaipg"),
        )
        branches = [r.branch for r in trace.records[1:]]
        # the monitor site must make its own call twice, and the z site run on past shortcuts
        monitored = [k for k, b in enumerate(branches, 1) if b != "shortcut" and k > 2]
        assert len(monitored) >= 2 and "shortcut" in branches
        assert branches[:2] == ["z-accepted", "z-accepted"]
        calls = iter(calls)
        last_z = None
        for k, branch in enumerate(branches, 1):
            v0, res_z = next(calls)  # the z site chains its own results
            assert v0 is (None if last_z is None else last_z.dual)
            last_z = res_z
            # y_k is x_k at k = 1 and 2, where the v site makes no call and takes
            # the z site's result as its own
            if branch != "shortcut" and k > 2:
                v0, _ = next(calls)
                assert v0 is res_z.dual
        assert next(calls, None) is None

    @pytest.mark.parametrize("kind", ["apg", "aipg"])
    def test_one_prox_call_serves_both_sites_at_k_1_and_2(self, kind, monkeypatch):
        # y_1 = x_0, and y_2 = x_1 after the z-accept that a shared k = 1 forces
        prob = build_problem("link_prediction", seed=0, params={"n_users": 30})
        calls = []
        real = solvers_mod.prox_rank

        def recording(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append((kwargs["v0"], res))
            return res

        monkeypatch.setattr(solvers_mod, "prox_rank", recording)
        iters = 12
        trace = run_solver(
            prob.loss, prob.regularizer, prob.x0, SolverConfig(max_iters=iters, solver_kind=kind),
        )
        assert len(calls) == 2 * iters - 2
        made = [calls[:1], calls[1:2]] + [calls[i : i + 2] for i in range(2, len(calls), 2)]
        records = trace.records[1:]
        for rec, ran in zip(records, made):
            assert rec.inner_iters == sum(res.inner_iters for _, res in ran)
        for rec, [(_, res)] in zip(records[:2], made[:2]):
            # the monitor candidate is the z candidate: res_v is res_z
            assert rec.branch == "z-accepted"
            assert rec.monitor_eps == rec.certified_eps == res.certified_eps
            assert rec.monitor_objective == rec.z_objective
            assert rec.monitor_step_sq == rec.z_step_sq == rec.step_norm_sq
            assert rec.monitor_inner_iters == 0
        shared = calls[1][1]
        assert calls[1][0] is calls[0][1].dual
        # z at k = 3 warm-starts from the shared k = 2 result, and v from z's
        assert calls[2][0] is shared.dual and calls[3][0] is calls[2][1].dual
        if kind == "aipg":
            assert shared.dual is not None and records[0].inner_iters > 0

    def test_shortcut_at_k_1_then_monitored_k_2_shares_one_call(self, monkeypatch):
        # a shortcut at k = 1 leaves y_2 = x_1 = z_1, so at k = 2 the v site
        # has z's subproblem and takes z's result, whatever the sites held before;
        # v is then z, so the monitored step accepts z
        prob = build_problem("link_prediction", seed=0, params={"n_users": 30})
        calls = []
        real = solvers_mod.prox_rank

        def recording(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append((kwargs["v0"], res))
            return res

        class ScriptedValues:  # z's value forces the shortcut at k = 1 and blocks it at k = 2
            def __init__(self, loss):
                self.loss, self.calls = loss, 0

            def lipschitz(self):
                return self.loss.lipschitz()

            def eval(self, x):
                value, grad = self.loss.eval(x)
                self.calls += 1
                return {2: -1e9, 3: 1e9}.get(self.calls, value), grad  # x_0, then z at k = 1 and 2

        monkeypatch.setattr(solvers_mod, "prox_rank", recording)
        trace = run_solver(
            ScriptedValues(prob.loss), prob.regularizer, prob.x0,
            SolverConfig(max_iters=2, solver_kind="nmaipg"),
        )
        assert [r.branch for r in trace.records[1:]] == ["shortcut", "z-accepted"]
        assert len(calls) == 2
        assert calls[0][0] is None and calls[1][0] is calls[0][1].dual
        rec, res = trace.records[2], calls[1][1]
        assert rec.inner_iters == res.inner_iters and rec.monitor_inner_iters == 0
        assert rec.monitor_eps == rec.certified_eps == res.certified_eps
        np.testing.assert_array_equal(trace.final_point, res.point)

    @pytest.mark.parametrize("kind,twin", [("ipg", "pg"), ("aipg", "apg"), ("nmaipg", "nmapg")])
    def test_bench_size_run_tracks_exact_twin_and_meets_every_request(self, kind, twin, monkeypatch):
        prob = build_problem("link_prediction", seed=7, params={"n_users": 200})
        certs = []  # (eps_target, certified_eps) of every prox call, rejected ones too
        real = solvers_mod.prox_rank

        def recording(*args, **kwargs):
            res = real(*args, **kwargs)
            certs.append((kwargs["eps_target"], res.certified_eps))
            return res

        monkeypatch.setattr(solvers_mod, "prox_rank", recording)
        finals = {}
        for k in (twin, kind):
            certs.clear()
            trace = run_solver(
                prob.loss, prob.regularizer, prob.x0, SolverConfig(max_iters=30, solver_kind=k, seed=7),
            )
            finals[k] = trace.records[-1].objective
        assert abs(finals[kind] - finals[twin]) <= 1e-6 * abs(finals[twin])
        assert len(certs) >= 30
        assert all(cert <= eps for eps, cert in certs)
        assert all(r.inner_converged for r in trace.records[1:])

    @pytest.mark.parametrize("kind", ["ipg", "aipg", "nmaipg"])
    def test_flat_spectrum_first_call_meets_its_request(self, kind):
        # the gradient at 0 is a flat-spectrum sign pattern (sigma_r ~ sigma_r+1),
        # which the oversampled cold start of the first call has to get through
        prob = build_problem("link_prediction", seed=0, params={"n_users": 30})
        trace = run_solver(
            prob.loss, prob.regularizer, prob.x0, SolverConfig(max_iters=20, solver_kind=kind),
        )
        for r in trace.records[1:]:
            assert r.inner_converged, r.k
            assert r.certified_eps <= r.eps_k
            assert r.monitor_eps is None or r.monitor_eps <= r.eps_k


class TestRankModes:
    @pytest.fixture(scope="class")
    def prob(self):
        return build_problem("link_prediction", seed=7, params={"n_users": 60})

    def test_residual_is_the_default(self):
        assert SolverConfig(max_iters=1, solver_kind="ipg").rank_mode == "residual"

    @pytest.mark.parametrize("kind", ["pg", "apg", "nmapg"])
    def test_exact_kinds_are_bit_identical_under_either_mode(self, prob, kind):
        traces = [
            run_solver(
                prob.loss, prob.regularizer, prob.x0,
                SolverConfig(max_iters=30, solver_kind=kind, seed=7, rank_mode=mode),
            )
            for mode in ("power", "residual")
        ]
        assert traces[0].key() == traces[1].key()
        assert np.array_equal(traces[0].final_point, traces[1].final_point)

    @pytest.mark.parametrize("kind,twin", [("ipg", "pg"), ("aipg", "apg"), ("nmaipg", "nmapg")])
    def test_default_mode_tracks_exact_twin_and_meets_every_request(self, prob, kind, twin):
        finals = {}
        for k in (twin, kind):
            trace = run_solver(
                prob.loss, prob.regularizer, prob.x0, SolverConfig(max_iters=60, solver_kind=k, seed=7),
            )
            finals[k] = trace.records[-1].objective
        assert abs(finals[kind] - finals[twin]) <= 1e-5 * abs(finals[twin])
        for r in trace.records[1:]:
            assert r.certified_eps <= r.eps_k, r.k
            assert r.monitor_eps is None or r.monitor_eps <= r.eps_k, r.k


class TestRankFeasibility:
    def test_every_prox_output_has_rank_at_most_r(self):
        # the solvers take the rank indicator of a prox output as 0 without
        # checking it, so every iterate they accept or compare must be feasible
        prob = build_problem("link_prediction", seed=7, params={"n_users": 200})
        constraint = prob.regularizer
        for kind in SOLVER_KINDS:
            trace = run_solver(
                prob.loss, constraint, prob.x0, SolverConfig(max_iters=10, solver_kind=kind, seed=7),
                keep_iterates=True,
            )
            for k, state in enumerate(trace.iterates[1:], start=1):
                for site in ("x", "z", "v"):
                    if state.get(site) is not None:
                        assert constraint.feasible(state[site]), (kind, k, site)

    @pytest.mark.parametrize("kind", ["pg", "aipg"])  # one basic, one accelerated kind
    def test_infeasible_start_aborts_at_k0(self, kind):
        prob = build_problem("link_prediction", seed=7, params={"n_users": 12})
        x0 = np.eye(12)  # rank 12 > r = 3
        with pytest.raises(SolverAbort, match="iteration 0") as info:
            run_solver(prob.loss, prob.regularizer, x0, SolverConfig(max_iters=5, solver_kind=kind))
        assert info.value.records == []


class LogaddexpLogisticLoss(MaskedLogisticLoss):
    """The masked logistic loss with its value from np.logaddexp(0, -t)."""

    def eval(self, x):
        _, grad = super().eval(x)
        t = x.take(self._flat) * self.observed.signs
        return 0.5 * float(np.logaddexp(0.0, -t).sum()), grad


class TestLogisticValue:
    @pytest.mark.parametrize("kind", SOLVER_KINDS)
    def test_runs_match_the_logaddexp_value_up_to_objective_rounding(self, kind):
        # the loss value enters only objectives and the comparisons between
        # them; a few ulps there must not change a step, branch or certificate
        prob = build_problem("link_prediction", seed=7)
        config = SolverConfig(max_iters=100, solver_kind=kind, seed=7)
        shipped = run_solver(prob.loss, prob.regularizer, prob.x0, config)
        reference = run_solver(LogaddexpLogisticLoss(prob.loss.observed), prob.regularizer, prob.x0, config)
        assert len(shipped.records) == len(reference.records)
        for got, want in zip(shipped.records, reference.records):
            assert (got.branch, got.step_norm_sq, got.certified_eps, got.inner_iters) == (
                want.branch, want.step_norm_sq, want.certified_eps, want.inner_iters,
            ), got.k
            assert abs(got.objective - want.objective) <= 4 * np.spacing(want.objective), got.k
        assert not np.array_equal(shipped.objectives(), reference.objectives())  # the values do differ
        assert np.array_equal(shipped.final_point, reference.final_point)
