import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import iprox.prox as prox_mod
import iprox.solvers as solvers_mod
from iprox.bench import build_problem
from iprox.penalties import L1Penalty, OscarPenalty, RankConstraint, TraceLassoPenalty
from iprox.prox import (
    ProxResult,
    _pav_nonincreasing,
    ProxSubproblem,
    oscar_dual_gap,
    prox_l1,
    prox_oscar_exact,
    prox_oscar_inexact,
    prox_rank,
    prox_tracelasso_inexact,
)
from iprox.solvers import SOLVER_KINDS, SolverConfig, run_solver, schedule_eps


def oscar_q(x, y, gamma, l1, l2):
    return float(np.sum((x - y) ** 2)) / (2 * gamma) + OscarPenalty(l1, l2).value(x)


def oscar_prox_grid_oracle(y, gamma, l1, l2):
    """Brute-force 2-d minimizer on nested lattice grids, final step 1e-4.

    Grids live on h * Z so the |x1| = |x2| crease and the zero axes are hit
    exactly; a stage whose best lands on its window edge raises, which would
    flag a window that was too small.
    """
    assert y.shape == (2,)
    signs = np.where(y >= 0, 1.0, -1.0)
    a = np.abs(y)

    def q_of_magnitudes(m1, m2):
        return (
            ((m1 - a[0]) ** 2 + (m2 - a[1]) ** 2) / (2 * gamma)
            + l1 * (m1 + m2)
            + l2 * np.maximum(m1, m2)
        )

    def lattice(lo, hi, h):
        return h * np.arange(np.ceil(max(lo, 0.0) / h - 1e-9), np.floor(hi / h + 1e-9) + 1)

    hi = float(np.max(a)) + 0.01
    center = (hi / 2, hi / 2)
    for h, window, edge_check in ((5e-3, None, False), (1e-3, 0.15, False), (1e-4, 0.02, True)):
        if window is None:
            g1 = lattice(0.0, hi, h)
            g2 = g1
        else:
            g1 = lattice(center[0] - window, center[0] + window, h)
            g2 = lattice(center[1] - window, center[1] + window, h)
        vals = q_of_magnitudes(g1[:, None], g2[None, :])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        center = (g1[i], g2[j])
        if window is not None:
            interior = (0 < i < len(g1) - 1 or center[0] == 0.0) and (
                0 < j < len(g2) - 1 or center[1] == 0.0
            )
            if not interior:
                raise AssertionError("grid window too small")
    return signs * np.array(center)


class TestProxL1:
    def test_examples(self):
        np.testing.assert_allclose(
            prox_l1(np.array([2.0, -0.3, 0.0]), 0.5), [1.5, 0.0, 0.0], atol=1e-15
        )
        y = np.array([1.0, -2.0])
        np.testing.assert_array_equal(prox_l1(y, 0.0), y)

    def test_perturbation_oracle(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(6)
        gamma, lam = 0.7, 0.4
        x = prox_l1(y, gamma * lam)
        qx = oscar_q(x, y, gamma, lam, 0.0)
        deltas = 0.3 * rng.standard_normal((10_000, 6))
        pts = x[None, :] + deltas
        qs = np.sum((pts - y) ** 2, axis=1) / (2 * gamma) + lam * np.sum(np.abs(pts), axis=1)
        assert np.all(qx <= qs + 1e-12)

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            prox_l1(np.ones(2), -0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda y: prox_l1(y, math.nan),
        lambda y: prox_oscar_exact(y, 1.0, math.nan, 0.1),
        lambda y: prox_oscar_exact(y, 1.0, 0.1, math.nan),
        lambda y: prox_oscar_exact(y, math.nan, 0.1, 0.1),
        lambda y: prox_oscar_inexact(y, math.nan, 0.1, 0.1, 1e-6),
        lambda y: prox_oscar_inexact(y, 1.0, 0.1, 0.1, math.nan),
        lambda y: prox_tracelasso_inexact(y, math.nan, TraceLassoPenalty(0.1, np.eye(3))),
        lambda y: prox_rank(np.outer(y, y), 1, mode="power", gamma=math.nan),
        lambda y: prox_rank(np.outer(y, y), 1, mode="residual", gamma=math.nan),
        lambda y: prox_rank(np.outer(y, y), 1, mode="power", power_iters=2.5),
        lambda y: prox_tracelasso_inexact(y, 0.5, TraceLassoPenalty(0.1, np.eye(3)), inner_budget=2.5),
        lambda y: prox_oscar_exact(y, 1.0, math.inf, 0.0),
        lambda y: prox_oscar_exact(y, 1.0, 0.1, math.inf),
    ],
    ids=[
        "l1-threshold", "oscar-lambda1", "oscar-lambda2", "oscar-gamma", "oscar-inexact-gamma",
        "oscar-inexact-eps", "tracelasso-gamma", "rank-gamma",
        "rank-residual-gamma", "rank-power-iters", "tracelasso-inner-budget",
        "oscar-lambda1-inf", "oscar-lambda2-inf",
    ],
)
def test_nan_parameters_rejected(call):
    # a nan weight or step fails no `x < 0` test and would return an all-nan point,
    # and an inf weight can return a nan entry;
    # a non-integral count would reach range() as a TypeError
    with pytest.raises(ValueError):
        call(np.array([0.5, -1.0, 2.0]))


def pav_loop_reference(z):
    """Loop-form pooling, the bitwise reference: numpy scalars in, one slice per block out.

    Blocks merge on the means that are written out, so ties never rise.
    """
    sums = []
    counts = []
    for val in z:
        cur_sum, cur_cnt = float(val), 1
        while sums and sums[-1] / counts[-1] < cur_sum / cur_cnt:
            cur_sum += sums.pop()
            cur_cnt += counts.pop()
        sums.append(cur_sum)
        counts.append(cur_cnt)
    out = np.empty(len(z))
    pos = 0
    for s, c in zip(sums, counts):
        out[pos : pos + c] = s / c
        pos += c
    return out


PAV_SHAPES = (
    "raw", "rounded", "constant", "increasing", "nonincreasing", "oscar", "oscar_rounded", "bumps",
)


@st.composite
def pav_inputs(draw):
    base = draw(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=300),
            elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        )
    )
    shape = draw(st.sampled_from(PAV_SHAPES))
    if shape == "rounded":  # ties, within and across blocks
        return shape, np.round(base, draw(st.integers(min_value=-2, max_value=1)))
    if shape == "constant":
        return shape, np.full(base.shape, base[0])
    if shape == "increasing":
        return shape, np.cumsum(np.abs(base) + 1.0)
    if shape == "nonincreasing":
        return shape, np.sort(base)[::-1]
    if shape in ("oscar", "oscar_rounded"):  # sorted magnitudes minus OSCAR weights: few ascents
        c = draw(st.floats(min_value=1e-3, max_value=10.0))
        z = np.sort(np.abs(base))[::-1] - c * np.arange(base.shape[0])[::-1]
        return shape, np.round(z) if shape == "oscar_rounded" else z
    if shape == "bumps":
        z = np.sort(base)[::-1]
        at = draw(st.lists(st.integers(0, base.shape[0] - 1), max_size=4))
        z[at] += draw(st.floats(min_value=0.0, max_value=1e3))
        return shape, z
    return shape, base


class TestPoolAdjacentViolators:
    @settings(max_examples=300, deadline=None)
    @given(pav_inputs())
    def test_matches_loop_reference_bitwise(self, case):
        shape, z = case
        out = _pav_nonincreasing(z)
        assert np.array_equal(out, pav_loop_reference(z))
        assert np.all(np.diff(out) <= 0.0)
        if shape == "increasing":
            assert np.all(out == out[0])
        if shape in ("constant", "nonincreasing"):
            assert np.array_equal(out, z)

    @pytest.mark.parametrize(
        "z",
        [[], [2.5], [-0.0], [3.0, 2.0, 1.0, 5.0], [1.0, 2.0], [4.0, 4.0, 1.0, 1.0, 2.0]],
        ids=["empty", "one", "negative-zero", "last-pair-ascent", "two-ascending", "ties-then-ascent"],
    )
    def test_edge_cases_match_loop_reference_bitwise(self, z):
        z = np.array(z, dtype=np.float64)
        out = _pav_nonincreasing(z)
        assert out.shape == z.shape and out.dtype == np.float64
        assert out.tobytes() == pav_loop_reference(z).tobytes()

    def test_tied_block_means_do_not_rise(self):
        # blocks [0, 92) and [92, 138) have equal means; merging on the rounded
        # cross-products s1 * c2 < s2 * c1 kept them apart, yet the quotients
        # s / c written out rose by one ulp from out[91] to out[92]
        z = np.full(138, 988.0)
        z[[65, 91, 137]] = 1316.1569926455654
        out = _pav_nonincreasing(z)
        assert np.all(np.diff(out) <= 0.0)
        assert out.tobytes() == pav_loop_reference(z).tobytes()

    def test_last_pair_ascent_pools_back(self):
        out = _pav_nonincreasing(np.array([3.0, 2.0, 1.0, 5.0]))
        assert out.tobytes() == np.array([3.0, 8.0 / 3, 8.0 / 3, 8.0 / 3]).tobytes()

    @pytest.mark.parametrize("ratio", [1.0, 10.0])
    def test_solver_traces_match_loop_reference(self, ratio, monkeypatch):
        """robust_oscar under every kind, shipped pooling against the loop form.

        lambda2 = lambda1 gives few ascents per pooling input, and lambda2 =
        10 lambda1 many: there some inputs ascend in more than one pair in
        eight. Every input the runs pool matches the loop form bit for bit,
        and so do the traces and final points.
        """
        prob = build_problem("robust_oscar", seed=7)
        lam = prob.regularizer.lambda1
        penalty = OscarPenalty(lam, ratio * lam)
        pooled = []

        def recorded(z):
            out = _pav_nonincreasing(z)
            pooled.append((z.copy(), out.copy()))
            return out

        def run_all():
            return [
                run_solver(prob.loss, penalty, prob.x0, SolverConfig(max_iters=100, solver_kind=kind, seed=7))
                for kind in SOLVER_KINDS
            ]

        with monkeypatch.context() as m:
            m.setattr(prox_mod, "_pav_nonincreasing", recorded)
            shipped = run_all()
        with monkeypatch.context() as m:
            m.setattr(prox_mod, "_pav_nonincreasing", pav_loop_reference)
            reference = run_all()
        dense = [8 * np.count_nonzero(z[:-1] < z[1:]) > z.shape[0] for z, _ in pooled]
        assert any(dense) == (ratio == 10.0)
        for z, out in pooled:
            assert out.tobytes() == pav_loop_reference(z).tobytes()
        for got, want in zip(shipped, reference):
            assert got.key() == want.key()
            assert got.final_point.tobytes() == want.final_point.tobytes()


class TestProxOscarExact:
    def test_pooling_example(self):
        np.testing.assert_allclose(
            prox_oscar_exact(np.array([3.0, 1.0]), 1.0, 0.0, 1.0), [2.0, 1.0], atol=1e-12
        )

    def test_tie_forming_example(self):
        np.testing.assert_allclose(
            prox_oscar_exact(np.array([1.5, 1.4]), 1.0, 0.0, 1.0), [0.95, 0.95], atol=1e-12
        )

    def test_zero_input(self):
        np.testing.assert_array_equal(prox_oscar_exact(np.zeros(3), 1.0, 0.5, 0.5), np.zeros(3))

    def test_reduces_to_soft_threshold(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(7)
        np.testing.assert_allclose(
            prox_oscar_exact(y, 0.8, 0.6, 0.0), prox_l1(y, 0.8 * 0.6), atol=1e-12
        )

    def test_grid_oracle_small(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            y = rng.uniform(-2, 2, size=2)
            gamma = rng.uniform(0.5, 1.0)
            l1, l2 = rng.uniform(0.05, 0.3, size=2)
            ours = prox_oscar_exact(y, gamma, l1, l2)
            ref = oscar_prox_grid_oracle(y, gamma, l1, l2)
            assert np.linalg.norm(ours - ref) <= 2e-4

    def test_preserves_signs_and_order(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            y = rng.standard_normal(6)
            x = prox_oscar_exact(y, 1.0, 0.2, 0.1)
            assert np.all(x * y >= 0)
            order = np.argsort(-np.abs(y), kind="stable")
            assert np.all(np.diff(np.abs(x)[order]) <= 1e-12)

    def test_shrinks_magnitudes(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(5)
        x = prox_oscar_exact(y, 0.5, 0.3, 0.2)
        assert np.all(np.abs(x) <= np.abs(y) + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64, st.integers(1, 60),
            elements=st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -2.0]) | st.floats(-5, 5),
        ),
        st.sampled_from([0.0, 0.1, 1.0]),
        st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_magnitudes_read_in_reverse_are_the_sorted_abs_point(self, y, lambda1, lambda2):
        # zeros, -0.0, ties, and either weight at 0
        ramp = prox_mod._oscar_ramp(OscarPenalty(lambda1, lambda2), y.shape[0], 0.7)
        point, mags = prox_mod._prox_oscar_exact(y, ramp)
        assert point.tobytes() == prox_oscar_exact(y, 0.7, lambda1, lambda2).tobytes()
        assert mags[::-1].tobytes() == np.sort(np.abs(point)).tobytes()


class TestDualGap:
    def test_nonnegative_at_random_points(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(5)
        sub = ProxSubproblem(y, 0.7, OscarPenalty(0.3, 0.2))
        for _ in range(1000):
            assert oscar_dual_gap(3.0 * rng.standard_normal(5), sub) >= 0.0

    def test_zero_at_exact_optimum(self):
        rng = np.random.default_rng(6)
        for seed in range(20):
            y = rng.standard_normal(6)
            gamma = rng.uniform(0.3, 1.5)
            l1, l2 = rng.uniform(0.05, 0.8, size=2)
            x = prox_oscar_exact(y, gamma, l1, l2)
            sub = ProxSubproblem(y, gamma, OscarPenalty(l1, l2))
            assert oscar_dual_gap(x, sub) <= 1e-8

    def test_bounds_true_gap_off_the_optimum(self):
        # soundness: the gap is at least Q(x) - min Q wherever x is, because
        # its dual point is feasible; at x = 0 this one reads about 5.67
        y = np.array([3.0, -2.0, 1.0])
        sub = ProxSubproblem(y, 1.0, OscarPenalty(0.1, 0.1))
        true_gap = sub.objective(np.zeros(3)) - sub.objective(prox_oscar_exact(y, 1.0, 0.1, 0.1))
        assert true_gap > 5.0
        assert oscar_dual_gap(np.zeros(3), sub) >= true_gap - 1e-12
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            y = 2.0 * rng.standard_normal(n)
            gamma = float(rng.uniform(0.2, 1.5))
            l1, l2 = (float(v) for v in rng.uniform(0.0, 0.6, size=2))
            sub = ProxSubproblem(y, gamma, OscarPenalty(l1, l2))
            q_min = sub.objective(prox_oscar_exact(y, gamma, l1, l2))
            for x in (np.zeros(n), y, prox_oscar_exact(y, gamma, l1, l2) + 0.3 * rng.standard_normal(n)):
                assert oscar_dual_gap(x, sub) >= sub.objective(x) - q_min - 1e-12

    def test_rejects_zero_weights(self):
        sub = ProxSubproblem(np.ones(2), 1.0, OscarPenalty(0.0, 0.0))
        with pytest.raises(ValueError, match="both penalty weights are zero"):
            oscar_dual_gap(np.zeros(2), sub)
        with pytest.raises(ValueError, match="both penalty weights are zero"):
            prox_oscar_inexact(np.ones(2), 1.0, 0.0, 0.0, 1e-6)

    def test_non_finite_anchor_rejected(self):
        sub = ProxSubproblem(np.array([1.0, math.nan]), 1.0, OscarPenalty(0.1, 0.1))
        with pytest.raises(ValueError, match="non-finite"):
            oscar_dual_gap(np.zeros(2), sub)

    def test_l1_penalty_supported(self):
        y = np.array([1.0, -0.4])
        sub = ProxSubproblem(y, 1.0, L1Penalty(0.3))
        assert oscar_dual_gap(prox_l1(y, 0.3), sub) <= 1e-10


class TestProxOscarInexact:
    @pytest.mark.parametrize(
        "lambda1,lambda2,name",
        [(0.1, math.inf, "lambda2"), (math.nan, 0.1, "lambda1"), (-0.1, 0.1, "lambda1")],
        ids=["lambda2-inf", "lambda1-nan", "lambda1-negative"],
    )
    def test_bad_weight_rejected_by_name_before_any_arithmetic(self, lambda1, lambda2, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning from the weight ladder would escape first
            with pytest.raises(ValueError, match=f"{name} must be non-negative and finite"):
                prox_oscar_inexact(np.array([1.0, -2.0, 0.5]), 1.0, lambda1, lambda2, 1e-6)

    def test_already_optimal_at_zero(self):
        res = prox_oscar_inexact(np.zeros(4), 1.0, 0.5, 0.5, eps_target=1e-8)
        assert res.inner_iters == 0
        assert res.certified_eps == 0.0
        assert res.gap_history[0] == 0.0
        np.testing.assert_array_equal(res.point, np.zeros(4))

    def test_close_to_exact_on_tiny_instance(self):
        y = np.array([1.3, -0.8, 0.6])
        gamma = 1.0
        res = prox_oscar_inexact(y, gamma, 0.05, 0.02, eps_target=1e-6)
        assert res.converged
        exact = prox_oscar_exact(y, gamma, 0.05, 0.02)
        # strong convexity localizes the iterate: ||x - x*|| <= sqrt(2 gamma gap)
        radius = math.sqrt(2.0 * gamma * res.certified_eps) + 1e-12
        assert np.linalg.norm(res.point - exact) <= radius

    def test_membership_on_random_instances(self):
        # certificate validity: Q(point) never beats the exact minimum by more
        # than certified_eps, whatever accuracy the run actually reached
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            y = 2.0 * rng.standard_normal(n)
            gamma = rng.uniform(0.3, 1.2)
            l1, l2 = rng.uniform(0.05, 0.6, size=2)
            res = prox_oscar_inexact(y, gamma, l1, l2, eps_target=1e-9)
            q_in = oscar_q(res.point, y, gamma, l1, l2)
            q_ex = oscar_q(prox_oscar_exact(y, gamma, l1, l2), y, gamma, l1, l2)
            assert q_in <= q_ex + res.certified_eps + 1e-12
            assert res.certified_eps >= 0.0
            assert len(res.gap_history) >= 1

    def test_gap_reaches_kink_instances(self):
        # solutions with exact ties and zeros still certify to 1e-8
        y = np.array([1.5, 1.4, 0.05, -0.02])
        res = prox_oscar_inexact(y, 1.0, 0.1, 0.3, eps_target=1e-8)
        assert res.converged, f"gap stalled at {res.certified_eps}"

    def test_budget_exhaustion_falls_back_to_pooling(self):
        # tie-forming instance: the call returns the pooling solution itself,
        # bit for bit, with no inner iterations and its own gap
        y = np.array([1.5, 1.4, -1.45])
        exact = prox_oscar_exact(y, 1.0, 0.1, 0.5)
        res = prox_oscar_inexact(y, 1.0, 0.1, 0.5, eps_target=1e-12)
        assert res.converged
        assert res.inner_iters == 0
        assert res.certified_eps <= 1e-12
        assert res.point.tobytes() == exact.tobytes()

    def test_unreachable_target_returns_immediately(self):
        # a target below the pooling solution's own rounding-level gap is
        # unreachable in principle: no work is attempted and the miss is
        # reported honestly
        rng = np.random.default_rng(0)
        seen_unreachable = False
        for _ in range(6):
            y = rng.standard_normal(5) * 2
            gamma = rng.uniform(0.3, 1.2)
            res = prox_oscar_inexact(y, gamma, 0.15, 0.08, eps_target=0.0)
            assert res.certified_eps <= 1e-12
            if not res.converged:
                assert res.inner_iters == 0
                seen_unreachable = True
        assert seen_unreachable

    @pytest.mark.parametrize("eps_target", [0.0, 1e-12, 1e-3])
    def test_pool_certified_by_its_duality_gap(self, eps_target):
        # draws with ties, zeros and -0.0: the point is the exact prox's bytes,
        # and the certificate is oscar_dual_gap at that point, bit for bit
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            y = rng.choice([0.0, -0.0, 0.4, -0.4, 1.1, -1.1], size=n)
            y[rng.random(n) < 0.4] = rng.standard_normal()
            gamma = float(rng.uniform(0.2, 1.5))
            l1, l2 = (float(v) for v in rng.uniform(0.01, 0.6, size=2))
            res = prox_oscar_inexact(y, gamma, l1, l2, eps_target)
            pool = prox_oscar_exact(y, gamma, l1, l2)
            assert res.point.tobytes() == pool.tobytes()
            assert res.inner_iters == 0
            sub = ProxSubproblem(y, gamma, OscarPenalty(l1, l2))
            assert res.certified_eps == oscar_dual_gap(pool, sub)
            assert res.gap_history == [res.certified_eps]
            assert res.converged == (res.certified_eps <= eps_target)

    def test_deterministic(self):
        y = np.array([0.3, -2.0, 1.1])
        r1 = prox_oscar_inexact(y, 1.0, 0.3, 0.2, eps_target=1e-7)
        r2 = prox_oscar_inexact(y, 1.0, 0.3, 0.2, eps_target=1e-7)
        assert np.array_equal(r1.point, r2.point)
        assert r1.certified_eps == r2.certified_eps


class TestProxRank:
    def test_diagonal_truncation(self):
        res = prox_rank(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(res.point, np.diag([3.0, 2.0, 0.0]), atol=1e-12)
        assert res.certified_eps == 0.0

    def test_feasible_input_fixed(self):
        rng = np.random.default_rng(8)
        y = np.outer(rng.standard_normal(5), rng.standard_normal(4))
        res = prox_rank(y, 2)
        np.testing.assert_allclose(res.point, y, atol=1e-10)
        assert res.certified_eps == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((6, 6))
        once = prox_rank(y, 3).point
        twice = prox_rank(once, 3).point
        np.testing.assert_allclose(once, twice, atol=1e-10)

    def test_power_mode_certificate(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 30))
        y += 1e-7 * rng.standard_normal((30, 30))
        res = prox_rank(y, 4, mode="power", power_iters=80, seed=0)
        assert 0.0 <= res.certified_eps <= 1e-8
        assert res.gap_history
        assert res.inner_iters < 80  # well gapped: stops before the budget

    def test_power_mode_certified_at_scale(self):
        # past 500 rows or columns the Gram certificate still applies
        for shape in ((520, 8), (8, 520)):
            y = np.random.default_rng(11).standard_normal(shape)
            y /= np.linalg.norm(y)
            sub = ProxSubproblem(y, 0.5, RankConstraint(2))
            res = prox_rank(y, 2, mode="power", power_iters=100, seed=1)
            gap = sub.objective(res.point) - sub.objective(prox_rank(y, 2).point)
            assert gap <= res.certified_eps + 1e-12  # sound
            assert res.certified_eps <= gap + 1e-12  # tight
            assert res.inner_iters < 100  # stops at rounding level, before the budget
            assert RankConstraint(2).feasible(res.point)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            prox_rank(np.eye(3), 1, mode="lanczos")


class TestProxRankPower:
    @pytest.mark.parametrize("shape", [(40, 25), (25, 40)])
    @pytest.mark.parametrize("gamma", [0.1, 7.2])
    def test_certificate_is_the_subproblem_gap(self, shape, gamma):
        rng = np.random.default_rng(sum(shape))
        y = rng.standard_normal(shape)  # flat spectrum: few sweeps leave a visible gap
        y /= np.linalg.norm(y)
        sub = ProxSubproblem(y, gamma, RankConstraint(3))
        q_min = sub.objective(prox_rank(y, 3).point)
        for iters in (1, 3, 10, 100):
            res = prox_rank(y, 3, mode="power", power_iters=iters, seed=2, gamma=gamma)
            gap = sub.objective(res.point) - q_min
            assert gap <= res.certified_eps + 1e-12  # sound
            assert res.certified_eps <= gap + 1e-12  # tight
            assert res.certified_eps == res.gap_history[-1]
            assert len(res.gap_history) == res.inner_iters + 1

    def test_warm_start_from_previous_dual_cuts_sweeps(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((60, 4)) @ rng.standard_normal((4, 50))
        y += 0.3 * rng.standard_normal((60, 50))
        first = prox_rank(y, 4, mode="power", seed=0)
        nearby = y + 1e-3 * rng.standard_normal(y.shape)
        cold = prox_rank(nearby, 4, mode="power", seed=0)
        warm = prox_rank(nearby, 4, mode="power", seed=0, v0=first.dual)
        assert first.dual.shape == (50, 4)
        assert cold.inner_iters < 100 and warm.inner_iters < cold.inner_iters
        exact = prox_rank(nearby, 4).point
        assert np.linalg.norm(warm.point - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_converged_reports_whether_the_target_was_met(self):
        y = np.random.default_rng(7).standard_normal((20, 20))
        loose = prox_rank(y, 2, mode="power", power_iters=1, seed=0)
        assert loose.converged and loose.certified_eps > 1e-3
        for target, met in ((1e-3, False), (loose.certified_eps, True)):
            res = prox_rank(y, 2, mode="power", power_iters=1, seed=0, eps_target=target)
            assert res.converged is met


def rank_gap(y, r, gamma, point):
    """Subproblem gap of point against the exact projection (one eigh)."""
    sub = ProxSubproblem(y, gamma, RankConstraint(r))
    return sub.objective(point) - sub.objective(prox_rank(y, r).point)


def exact_rank_gap(y, point, gamma, v):
    """Subproblem gap of point in rational arithmetic, for rank bound 1 or 2.

    min Q is taken from Ky Fan's sum over the columns of v (the float64
    top eigenvectors of y^T y), tr((v^T v)^-1 (y v)^T (y v)), which lies
    below the true sum by a term second order in v's rounding.
    """
    rows = [[Fraction(x) for x in row] for row in y.tolist()]
    pts = [[Fraction(x) for x in row] for row in point.tolist()]
    cols = [[Fraction(x) for x in col] for col in v.T.tolist()]
    dist = sum(p * p - 2 * x * p for row, prow in zip(rows, pts) for x, p in zip(row, prow))
    yv = [[sum(x * c for x, c in zip(row, col)) for col in cols] for row in rows]
    m = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols] for ci in cols]
    n = [[sum(row[i] * row[j] for row in yv) for j in range(len(cols))] for i in range(len(cols))]
    if len(cols) == 1:
        top = n[0][0] / m[0][0]
    else:
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        top = (m[1][1] * n[0][0] - m[0][1] * n[1][0] - m[1][0] * n[0][1] + m[0][0] * n[1][1]) / det
    return (dist + top) / (2 * Fraction(gamma))


def two_over_tail(shape, tail):
    """Singular values 10 and 8 over a flat tail of tail * [1, 0.6]."""
    rng = np.random.default_rng(4)
    k = min(shape)
    u = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
    w = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
    return (u * np.r_[10.0, 8.0, tail * np.linspace(1.0, 0.6, k - 2)]) @ w.T


def no_gram(*args):
    raise AssertionError("fell back to the Gram eigvalsh")


class TestProxRankResidual:
    @pytest.mark.parametrize("shape", [(520, 8), (8, 520)])
    def test_sound_on_tall_and_wide_inputs(self, shape):
        y = np.random.default_rng(11).standard_normal(shape)
        y /= np.linalg.norm(y)
        res = prox_rank(y, 2, mode="residual", power_iters=100, seed=1)
        assert rank_gap(y, 2, 0.5, res.point) <= res.certified_eps + 1e-12
        assert res.certified_eps <= 1e-12  # rounding level
        assert res.inner_iters < 100
        assert len(res.gap_history) == res.inner_iters + 1
        assert RankConstraint(2).feasible(res.point)

    @pytest.mark.parametrize("shape", [(40, 25), (25, 40)])
    @pytest.mark.parametrize("gamma", [0.1, 7.2])
    def test_sound_on_flat_spectra(self, shape, gamma):
        rng = np.random.default_rng(sum(shape))
        y = rng.standard_normal(shape)  # flat spectrum: few sweeps leave a visible gap
        y /= np.linalg.norm(y)
        for iters in (1, 3, 10, 100):
            res = prox_rank(y, 3, mode="residual", power_iters=iters, seed=2, gamma=gamma)
            assert rank_gap(y, 3, gamma, res.point) <= res.certified_eps + 1e-12
            assert res.certified_eps == res.gap_history[-1]
            assert len(res.gap_history) == res.inner_iters + 1

    @pytest.mark.parametrize("shape", [(60, 50), (50, 60)])
    def test_separated_sweeps_certify_without_the_gram_matrix(self, shape, monkeypatch):
        # a low-rank input plus noise separates the top r Ritz values from the
        # rest after one sweep from the random start, and from then on every
        # sweep's certificate is the residual bound
        rng = np.random.default_rng(5)
        y = rng.standard_normal((shape[0], 4)) @ rng.standard_normal((4, shape[1]))
        y += 0.3 * rng.standard_normal(shape)

        monkeypatch.setattr(prox_mod, "_top_eigensum", no_gram)
        for iters in (1, 2, 3, 100):
            res = prox_rank(y, 4, mode="residual", power_iters=iters, seed=0, gamma=0.7)
            assert all(math.isfinite(h) for h in res.gap_history[1:])
            assert rank_gap(y, 4, 0.7, res.point) <= res.certified_eps + 1e-12
        assert res.inner_iters < 100
        assert res.certified_eps <= 1e-9

    @pytest.mark.parametrize("shape", [(12, 9), (9, 12)])
    @pytest.mark.parametrize("tail", [0.0, 1.0, 3.0, 5.0, 7.0])
    def test_sound_in_exact_arithmetic(self, shape, tail):
        # tails 0, 1 and 3 separate the top two by the trace bound, 5 only by
        # the Frobenius bound, and 7 falls back. Once converged the
        # certificate is down to its rounding terms, below what a float64
        # objective difference resolves, so it is compared to the gap
        # computed exactly, with no tolerance
        y = two_over_tail(shape, tail)
        v = np.linalg.eigh(y.T @ y)[1][:, -2:]
        for iters in (1, 2, 100):
            res = prox_rank(y, 2, mode="residual", power_iters=iters, seed=0, gamma=0.3)
            assert exact_rank_gap(y, res.point, 0.3, v) <= Fraction(res.certified_eps)

    @pytest.mark.parametrize("shape", [(12, 9), (9, 12)])
    def test_frobenius_bound_separates_where_the_trace_bound_cannot(self, shape, monkeypatch):
        # the tail's squared singular values sum to 115 > lambda_2 = 64, so
        # tr(B) never separates the top two, but the root of their squares'
        # sum is 46 < 64, so ||B||_F does after one sweep from the random start
        y = two_over_tail(shape, 5.0)
        tail_sq = np.linalg.eigvalsh(y.T @ y)[:-2]
        assert tail_sq.sum() > 64.0 > math.sqrt(float(np.sum(tail_sq**2)))

        monkeypatch.setattr(prox_mod, "_top_eigensum", no_gram)
        v = np.linalg.eigh(y.T @ y)[1][:, -2:]
        for iters in (1, 2, 100):
            res = prox_rank(y, 2, mode="residual", power_iters=iters, seed=0, gamma=0.3)
            assert all(math.isfinite(h) for h in res.gap_history[1:])
            assert exact_rank_gap(y, res.point, 0.3, v) <= Fraction(res.certified_eps)
        assert res.inner_iters < 100 and res.certified_eps <= 1e-11

    @pytest.mark.parametrize("kind", ["ipg", "aipg", "nmaipg"])
    def test_only_the_first_call_of_each_prox_site_falls_back(self, kind, monkeypatch):
        # the anchor of k = 1 has a flat spectrum; from k = 2 on, the
        # Frobenius bound on the complement block separates every call. Every
        # kind makes one call at k = 1: the accelerated kinds' v site shares
        # the z site's, since y_1 = x_0
        prob = build_problem("link_prediction", seed=7, params={"n_users": 200})
        config = SolverConfig(max_iters=30, solver_kind=kind, seed=7)
        targets, fell_back = [], []
        top_eigensum, rank_prox = prox_mod._top_eigensum, solvers_mod.prox_rank

        def recording_top(*args):
            fell_back.append(targets[-1])
            return top_eigensum(*args)

        def recording_prox(*args, **kwargs):
            targets.append(kwargs["eps_target"])
            return rank_prox(*args, **kwargs)

        monkeypatch.setattr(prox_mod, "_top_eigensum", recording_top)
        monkeypatch.setattr(solvers_mod, "prox_rank", recording_prox)
        trace = run_solver(prob.loss, prob.regularizer, prob.x0, config)
        assert len(trace.records) == 31
        first = schedule_eps(config.error_schedule, 1)
        assert targets.count(first) == 1
        assert fell_back == [first]

    def test_fallback_certifies_the_first_link_prediction_call(self):
        # the gradient at 0 is a flat-spectrum sign pattern: no sweep separates
        # the top r Ritz values, so the call stops once the Ritz sum stalls and
        # takes the Gram eigvalsh gap on its last basis, plus a rounding pad
        prob = build_problem("link_prediction", seed=0, params={"n_users": 30})
        gamma = 0.9 / prob.loss.lipschitz()  # the solvers' step, at ipg's first call
        anchor = prob.x0 - gamma * prob.loss.eval(prob.x0)[1]
        r = prob.regularizer.r
        res = prox_rank(anchor, r, mode="residual", seed=0, gamma=gamma)
        assert math.isinf(res.gap_history[0]) and math.isinf(res.gap_history[-2])
        assert res.inner_iters < 100  # the stall, not the budget, ends it
        assert len(res.gap_history) == res.inner_iters + 1
        gap = rank_gap(anchor, r, gamma, res.point)
        assert gap <= res.certified_eps + 1e-12  # sound
        assert res.certified_eps <= gap + 1e-11  # the pad is about 3e-12 here

    def test_warm_start_from_previous_dual_cuts_sweeps(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((60, 4)) @ rng.standard_normal((4, 50))
        y += 0.3 * rng.standard_normal((60, 50))
        first = prox_rank(y, 4, mode="residual", seed=0)
        nearby = y + 1e-3 * rng.standard_normal(y.shape)
        cold = prox_rank(nearby, 4, mode="residual", seed=0)
        warm = prox_rank(nearby, 4, mode="residual", seed=0, v0=first.dual)
        assert first.dual.shape == (50, 4)
        assert cold.inner_iters < 100 and warm.inner_iters < cold.inner_iters
        assert rank_gap(nearby, 4, 0.5, warm.point) <= warm.certified_eps + 1e-12
        exact = prox_rank(nearby, 4).point
        assert np.linalg.norm(warm.point - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_converged_reports_whether_the_target_was_met(self):
        y = np.random.default_rng(7).standard_normal((20, 20))
        loose = prox_rank(y, 2, mode="residual", power_iters=1, seed=0)
        assert loose.converged and loose.certified_eps > 1e-3
        for target, met in ((1e-3, False), (loose.certified_eps, True)):
            res = prox_rank(y, 2, mode="residual", power_iters=1, seed=0, eps_target=target)
            assert res.converged is met
            assert res.certified_eps == loose.certified_eps  # the target stops no sweep


class TestProxTraceLasso:
    def test_lam_zero_returns_anchor(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(4)
        p = TraceLassoPenalty(0.0, rng.standard_normal((6, 4)))
        res = prox_tracelasso_inexact(y, 1.0, p)
        np.testing.assert_array_equal(res.point, y)
        assert res.certified_eps == 0.0 and res.inner_iters == 0

    def test_identity_design_matches_soft_threshold(self):
        y = np.array([1.5, -0.2, 0.05, 0.8, -1.1, 0.0])
        lam = 0.3
        p = TraceLassoPenalty(lam, np.eye(6))
        res = prox_tracelasso_inexact(y, 1.0, p, inner_budget=30_000)
        ref = prox_l1(y, lam)
        assert np.linalg.norm(res.point - ref) <= 1e-4

    def test_membership_against_l1_reference(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal(5)
        lam, gamma = 0.4, 0.8
        p = TraceLassoPenalty(lam, np.eye(5))
        res = prox_tracelasso_inexact(y, gamma, p, inner_budget=5000)
        q = lambda x: float(np.sum((x - y) ** 2)) / (2 * gamma) + lam * np.abs(x).sum()
        assert q(res.point) <= q(prox_l1(y, gamma * lam)) + res.certified_eps + 1e-12

    def test_eps_target_stops_early(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal(4)
        p = TraceLassoPenalty(0.2, rng.standard_normal((5, 4)))
        res = prox_tracelasso_inexact(y, 1.0, p, inner_budget=50_000, eps_target=1e-3)
        assert res.converged
        assert res.inner_iters < 50_000
        assert res.certified_eps <= 1e-3

    def test_gap_history_and_certificate_consistency(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal(4)
        p = TraceLassoPenalty(0.5, rng.standard_normal((6, 4)))
        res = prox_tracelasso_inexact(y, 0.7, p, inner_budget=500)
        # the gap reaches 0 within the budget, and the loop stops there
        assert len(res.gap_history) == res.inner_iters + 1 < 500
        assert res.gap_history[-1] == 0.0 and 0.0 not in res.gap_history[:-1]
        assert res.certified_eps >= 0.0
        # gap history is the running certificate, hence non-increasing
        assert all(b <= a + 1e-15 for a, b in zip(res.gap_history, res.gap_history[1:]))

    def test_wrong_penalty_type(self):
        with pytest.raises(TypeError):
            prox_tracelasso_inexact(np.ones(2), 1.0, L1Penalty(0.1))


def tracelasso_q(x, y, gamma, lam, design):
    """Subproblem objective from the design itself, not its QR factor."""
    nuclear = float(np.sum(np.linalg.svd(design * x, compute_uv=False)))
    return float(np.sum((x - y) ** 2)) / (2 * gamma) + lam * nuclear


class TestProxTraceLassoDual:
    @pytest.mark.parametrize("shape", [(9, 5), (20, 8), (4, 7), (3, 10)])
    def test_certificate_sound_against_long_run_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(3):
            design = rng.standard_normal(shape)
            y = rng.standard_normal(shape[1])
            lam, gamma = rng.uniform(0.1, 1.0), rng.uniform(0.3, 1.5)
            p = TraceLassoPenalty(lam, design)
            ref = prox_tracelasso_inexact(y, gamma, p, inner_budget=20_000, eps_target=1e-13)
            q_ref = tracelasso_q(ref.point, y, gamma, lam, design)
            for eps in (1e-1, 1e-3, 1e-6):
                res = prox_tracelasso_inexact(y, gamma, p, eps_target=eps)
                assert res.converged and 0.0 <= res.certified_eps <= eps
                q = tracelasso_q(res.point, y, gamma, lam, design)
                assert q - q_ref <= res.certified_eps + 1e-12

    def test_warm_start_from_previous_dual_cuts_inner_iterations(self):
        rng = np.random.default_rng(21)
        design = rng.standard_normal((20, 10))
        p = TraceLassoPenalty(0.5, design)
        y = rng.standard_normal(10)
        first = prox_tracelasso_inexact(y, 0.7, p, eps_target=1e-8)
        nearby = y + 1e-2 * rng.standard_normal(10)
        cold = prox_tracelasso_inexact(nearby, 0.7, p, eps_target=1e-8)
        warm = prox_tracelasso_inexact(nearby, 0.7, p, eps_target=1e-8, w0=first.dual)
        assert cold.converged and warm.converged
        assert warm.inner_iters < cold.inner_iters
        assert np.linalg.norm(first.dual, 2) <= 1.0 + 1e-12

    def test_certificate_is_the_gap_from_the_penalty_value(self):
        # the gap's primal term is the penalty's own value, returned as value
        rng = np.random.default_rng(33)
        for shape in [(9, 5), (4, 7), (20, 8)] * 3:
            design = rng.standard_normal(shape)
            p = TraceLassoPenalty(rng.uniform(0.1, 1.0), design)
            lam_r = p.lam * p.factor
            y = rng.standard_normal(shape[1])
            gamma = rng.uniform(0.3, 1.5)
            eps = 10.0 ** -rng.integers(2, 9)
            cold = prox_tracelasso_inexact(y, gamma, p, eps_target=eps)
            nearby = y + 1e-2 * rng.standard_normal(shape[1])
            warm = prox_tracelasso_inexact(nearby, gamma, p, eps_target=eps, w0=cold.dual)
            short = prox_tracelasso_inexact(y, gamma, p, inner_budget=3, eps_target=0.0)
            for res in (cold, warm, short):
                value = p.value(res.point)
                gap = max(value - float((res.dual * (lam_r * res.point)).sum()), 0.0)
                assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
                assert np.float64(res.certified_eps).tobytes() == np.float64(gap).tobytes()
            assert short.inner_iters == 3 and not short.converged

    @pytest.mark.parametrize("kind", ["ipg", "aipg", "nmaipg"])
    def test_one_svd_per_gap_evaluation_and_per_projection(self, kind, monkeypatch):
        prob = build_problem("robust_tracelasso", seed=0, params={"n": 30, "d": 6, "sparsity": 2})
        svds, calls = [], []
        real_svd, real_prox = np.linalg.svd, solvers_mod.prox_tracelasso_inexact

        def counting_svd(*args, **kwargs):
            svds.append(1)
            return real_svd(*args, **kwargs)

        def recording(*args, **kwargs):
            res = real_prox(*args, **kwargs)
            calls.append(res)
            return res

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(solvers_mod, "prox_tracelasso_inexact", recording)
        config = SolverConfig(max_iters=15, solver_kind=kind)
        run_solver(prob.loss, prob.regularizer, prob.x0, config)
        # every call stops at a gap evaluation, inside its budget: inner + 1
        # evaluations and inner projections, and the site itself runs none
        assert calls and all(res.inner_iters < config.inner_max_iters for res in calls)
        # the 1 is the start point's public penalty value
        assert len(svds) == 1 + sum(2 * res.inner_iters + 1 for res in calls)

    @pytest.mark.parametrize("kind", ["ipg", "aipg", "nmaipg"])
    def test_bench_size_run_meets_every_request(self, kind):
        prob = build_problem("robust_tracelasso", seed=7)
        trace = run_solver(
            prob.loss, prob.regularizer, prob.x0,
            SolverConfig(max_iters=30, solver_kind=kind, seed=7),
        )
        for r in trace.records[1:]:
            # inner_converged covers every prox call of the iteration, rejected ones too
            assert r.inner_converged, r.k
            assert r.certified_eps <= r.eps_k
            assert r.monitor_eps is None or r.monitor_eps <= r.eps_k


def test_prox_result_defaults():
    r = ProxResult(np.zeros(2), 0.0, 0)
    assert r.converged and r.gap_history == []
