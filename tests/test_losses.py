import math

import numpy as np
import pytest

from iprox.losses import (
    CorrentropyLoss,
    MaskedLogisticLoss,
    ObservedSignMatrix,
    RegressionDataset,
    SquareLoss,
)

FD_STEP = 1e-6


def fd_gradient(fun, x, step=FD_STEP):
    """Central finite differences, the independent oracle for every gradient."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (fun(x + e) - fun(x - e)) / (2 * step)
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def make_dataset(seed, n=12, d=5):
    rng = np.random.default_rng(seed)
    return RegressionDataset(rng.standard_normal((n, d)), rng.standard_normal(n)), rng


def reference_logistic_eval(obs, x):
    """The logistic loss by its defining formulas: the logaddexp value and the
    two-branch sigmoid, gathered and scattered by 2-d fancy indexing."""
    t = x[obs.rows, obs.cols] * obs.signs
    z = -t
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    sig[~pos] = e / (1.0 + e)
    grad = np.zeros_like(x)
    grad[obs.rows, obs.cols] = -0.5 * obs.signs * sig
    return 0.5 * float(np.logaddexp(0.0, -t).sum()), grad


class TestCorrentropy:
    def test_zero_residual(self):
        ds, rng = make_dataset(0)
        x = rng.standard_normal(5)
        loss = CorrentropyLoss(RegressionDataset(ds.design, ds.design @ x), sigma=1.3)
        v, g = loss.eval(x)
        assert v == 0.0
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_large_bandwidth_is_half_square(self):
        ds = RegressionDataset(np.ones((1, 1)), np.array([2.0]))
        v, _ = CorrentropyLoss(ds, sigma=1000.0).eval(np.array([1.0]))
        assert abs(v - 0.5) < 1e-3

    def test_value_bounded(self):
        ds, rng = make_dataset(1)
        loss = CorrentropyLoss(ds, sigma=0.7)
        bound = ds.n_samples * 0.7**2 / 2
        for _ in range(20):
            v, _ = loss.eval(rng.standard_normal(5))
            assert v < bound
        # saturated residuals underflow exp() to zero, so only <= is observable
        v, _ = loss.eval(1e6 * np.ones(5))
        assert v <= bound

    def test_gradient_fd(self):
        ds, rng = make_dataset(2)
        loss = CorrentropyLoss(ds, sigma=0.9)
        for _ in range(20):
            x = rng.standard_normal(5)
            _, g = loss.eval(x)
            assert rel_err(g, fd_gradient(lambda z: loss.eval(z)[0], x)) <= 1e-6

    def test_lipschitz_bound_monte_carlo(self):
        ds, rng = make_dataset(3)
        loss = CorrentropyLoss(ds, sigma=1.1)
        lip = loss.lipschitz()
        for _ in range(100):
            a, b = rng.standard_normal((2, 5))
            ga = loss.eval(a)[1]
            gb = loss.eval(b)[1]
            assert np.linalg.norm(ga - gb) <= lip * np.linalg.norm(a - b) + 1e-9

    @pytest.mark.parametrize("sigma", [1.0, 0.7, 3.0])
    def test_bit_equal_to_the_defining_formulas(self, sigma):
        rng = np.random.default_rng(int(10 * sigma))
        n, d = 40, 6
        design = rng.standard_normal((n, d))
        design[:, 2] = 0.0  # an all-zero column: its gradient entry is -0.0
        for _ in range(5):
            x = rng.standard_normal(d)
            x[1], x[4] = 0.0, -0.0
            # residuals of either sign from 1e-8 to 1e3
            offsets = rng.choice([-1.0, 1.0], size=n) * np.logspace(-8, 3, n)
            targets = design @ x + rng.permutation(offsets)
            loss = CorrentropyLoss(RegressionDataset(design, targets), sigma=sigma)
            x_bytes = x.tobytes()
            value, grad = loss.eval(x)
            res = targets - design @ x
            e = np.exp(-((res / sigma) ** 2))
            assert value == 0.5 * sigma**2 * float(np.add.reduce(1.0 - e))
            assert grad.tobytes() == (-(design.T @ (e * res))).tobytes()
            assert grad[2] == 0.0 and np.signbit(grad[2])
            assert x.tobytes() == x_bytes
            again = loss.eval(x)[1]  # a fresh gradient per call, the same bits
            assert again.tobytes() == grad.tobytes() and not np.shares_memory(again, grad)

    def test_identity_design_lipschitz(self):
        ds = RegressionDataset(np.eye(4), np.zeros(4))
        assert abs(CorrentropyLoss(ds, sigma=2.0).lipschitz() - 1.0) < 1e-8

    def test_scaling_design(self):
        ds, _ = make_dataset(4)
        l1 = CorrentropyLoss(ds).lipschitz()
        l2 = CorrentropyLoss(RegressionDataset(3.0 * ds.design, ds.targets)).lipschitz()
        assert abs(l2 - 9.0 * l1) <= 1e-5 * l2

    def test_dimension_mismatch(self):
        ds, _ = make_dataset(5)
        with pytest.raises(ValueError):
            CorrentropyLoss(ds).eval(np.zeros(7))

    def test_bad_sigma(self):
        ds, _ = make_dataset(6)
        with pytest.raises(ValueError):
            CorrentropyLoss(ds, sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_rejected(self, sigma):
        # sigma = inf made every value inf * 0 = nan, so a run aborted at iteration 0
        ds, _ = make_dataset(6)
        with pytest.raises(ValueError, match="finite"):
            CorrentropyLoss(ds, sigma=sigma)


class TestSquareLoss:
    def test_value_and_gradient_fd(self):
        ds, rng = make_dataset(7)
        loss = SquareLoss(ds)
        for _ in range(20):
            x = rng.standard_normal(5)
            v, g = loss.eval(x)
            r = ds.design @ x - ds.targets
            assert abs(v - 0.5 * r @ r) < 1e-12
            assert rel_err(g, fd_gradient(lambda z: loss.eval(z)[0], x)) <= 1e-6

    def test_gradient_is_linear_map(self):
        ds, rng = make_dataset(8)
        loss = SquareLoss(ds)
        a, b = rng.standard_normal((2, 5))
        ga, gb = loss.eval(a)[1], loss.eval(b)[1]
        gmid = loss.eval(0.5 * (a + b))[1]
        np.testing.assert_allclose(gmid, 0.5 * (ga + gb), atol=1e-10)


def make_sign_matrix(seed, n=6, m=10):
    rng = np.random.default_rng(seed)
    flat = rng.choice(n * n, size=m, replace=False)
    return (
        ObservedSignMatrix(n, flat // n, flat % n, rng.choice([-1.0, 1.0], size=m)),
        rng,
    )


class TestMaskedLogistic:
    def test_value_at_zero(self):
        obs, _ = make_sign_matrix(0)
        v, _ = MaskedLogisticLoss(obs).eval(np.zeros((6, 6)))
        assert abs(v - 0.5 * obs.n_observed * np.log(2.0)) < 1e-12

    def test_saturation(self):
        obs = ObservedSignMatrix(3, [0], [1], [1.0])
        x = np.zeros((3, 3))
        x[0, 1] = 40.0
        v, g = MaskedLogisticLoss(obs).eval(x)
        assert v < 1e-15
        assert np.linalg.norm(g) < 1e-15

    def test_no_overflow_for_huge_entries(self):
        obs = ObservedSignMatrix(2, [0, 1], [1, 0], [1.0, -1.0])
        x = np.array([[0.0, -900.0], [900.0, 0.0]])
        v, g = MaskedLogisticLoss(obs).eval(x)
        assert np.isfinite(v) and np.all(np.isfinite(g))

    def test_gradient_fd_and_support(self):
        obs, rng = make_sign_matrix(1)
        loss = MaskedLogisticLoss(obs)
        mask = np.zeros((6, 6), dtype=bool)
        mask[obs.rows, obs.cols] = True
        for _ in range(20):
            x = rng.standard_normal((6, 6))
            _, g = loss.eval(x)
            assert np.all(g[~mask] == 0.0)
            fd = fd_gradient(
                lambda z: loss.eval(z.reshape(6, 6))[0], x.ravel().copy()
            ).reshape(6, 6)
            assert rel_err(g, fd) <= 1e-6

    def test_lipschitz_constant(self):
        obs, _ = make_sign_matrix(2)
        assert MaskedLogisticLoss(obs).lipschitz() == 0.125

    def test_lipschitz_monte_carlo(self):
        obs, rng = make_sign_matrix(3)
        loss = MaskedLogisticLoss(obs)
        for _ in range(100):
            a, b = rng.standard_normal((2, 6, 6))
            ga, gb = loss.eval(a)[1], loss.eval(b)[1]
            assert np.linalg.norm(ga - gb) <= 0.125 * np.linalg.norm(a - b) + 1e-9

    def test_bit_equal_to_the_defining_formulas_at_extremes(self):
        # each t = X_ij * M_ij is hit twice, once per sign of the observation
        ts = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 700.0, -700.0]
        signs = np.repeat([[1.0, -1.0]], len(ts), axis=0).ravel()
        flat = np.arange(2 * len(ts))
        obs = ObservedSignMatrix(4, flat // 4, flat % 4, signs)
        x = np.zeros((4, 4))
        x[obs.rows, obs.cols] = np.repeat(ts, 2) * signs
        value, grad = MaskedLogisticLoss(obs).eval(x)
        ref_value, ref_grad = reference_logistic_eval(obs, x)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)
        assert grad[0, 0] == -0.25  # sigmoid(0) = 1/2

    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_bit_equal_to_the_defining_formulas_on_random_data(self, scale):
        rng = np.random.default_rng(int(scale))
        n = 30
        flat = rng.choice(n * n, size=300, replace=False)
        obs = ObservedSignMatrix(n, flat // n, flat % n, rng.choice([-1.0, 1.0], size=300))
        loss = MaskedLogisticLoss(obs)
        eps = np.finfo(np.float64).eps
        for _ in range(5):
            x = scale * rng.standard_normal((n, n))
            ref_value, ref_grad = reference_logistic_eval(obs, x)
            for layout in (x, np.asfortranarray(x)):  # a column-major iterate gathers the same entries
                value, grad = loss.eval(layout)
                # the value is not the logaddexp sum (see test_value_within_a_few_ulps_of_logaddexp)
                assert abs(value - ref_value) <= 4 * eps * ref_value
                assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_value_within_a_few_ulps_of_logaddexp(self, scale):
        # the value is max(-t, 0) + log1p(exp(-|t|)) per entry, which differs
        # from np.logaddexp(0, -t) in the last bits of a few percent of entries
        rng = np.random.default_rng(10 + int(scale))
        n = 60
        flat = rng.choice(n * n, size=1200, replace=False)
        obs = ObservedSignMatrix(n, flat // n, flat % n, rng.choice([-1.0, 1.0], size=1200))
        loss = MaskedLogisticLoss(obs)
        eps = np.finfo(np.float64).eps
        for _ in range(5):
            x = scale * rng.standard_normal((n, n))
            t = x[obs.rows, obs.cols] * obs.signs
            terms = np.logaddexp(0.0, -t)
            split = np.maximum(-t, 0.0) + np.log1p(np.exp(-np.abs(t)))
            assert np.any(split != terms)  # the inputs reach entries whose bits differ
            value, _ = loss.eval(x)
            ref_value = 0.5 * float(terms.sum())
            assert abs(value - ref_value) <= 4 * eps * ref_value

    def test_duplicate_observation_rejected(self):
        with pytest.raises(ValueError):
            ObservedSignMatrix(4, [1, 1], [2, 2], [1.0, -1.0])

    @pytest.mark.parametrize(
        "rows, cols, name",
        [([0.5, 2.9], [1, 2], "rows"), ([0, 2], [1.0, 2.0], "cols"), ([True, False], [1, 2], "rows"),
         (["0", "2"], [1, 2], "rows")],
        ids=["fractional-rows", "float-cols", "bool-rows", "str-rows"],
    )
    def test_non_integer_indices_rejected(self, rows, cols, name):
        # a cast once took rows [0.5, 2.9] as [0, 2] and [True, False] as [1, 0]
        with pytest.raises(ValueError, match=f"{name} must hold integer indices"):
            ObservedSignMatrix(3, rows, cols, [1.0, -1.0])

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int64, None])
    def test_integer_or_empty_indices_accepted(self, dtype):
        # np.asarray([]) is float64: an empty index list has no entry to truncate
        n = 0 if dtype is None else 2
        rows, cols = np.array([0, 2][:n], dtype=dtype), np.array([1, 2][:n], dtype=dtype)
        obs = ObservedSignMatrix(3, rows, cols, [1.0, -1.0][:n])
        assert obs.rows.dtype == obs.cols.dtype == np.int64
        assert obs.rows.tolist() == [0, 2][:n] and obs.cols.tolist() == [1, 2][:n]

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            ObservedSignMatrix(4, [1], [2], [0.5])

    @pytest.mark.parametrize("n_users", [3.0, 2.5])
    def test_non_integer_user_count_rejected(self, n_users):
        # a float count once passed here and broke the first eval's index arithmetic
        with pytest.raises(ValueError, match=f"n_users must be a positive integer, got {n_users}"):
            ObservedSignMatrix(n_users, [0, 1], [1, 2], [1.0, -1.0])

    def test_duplicate_check_sorts_without_np_unique(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.unique reached")

        monkeypatch.setattr(np, "unique", refuse)
        assert ObservedSignMatrix(4, [1, 2, 1], [2, 1, 3], [1.0, -1.0, 1.0]).n_observed == 3
        with pytest.raises(ValueError, match="duplicate"):
            ObservedSignMatrix(4, [3, 1, 0, 1], [0, 2, 0, 2], [1.0, -1.0, 1.0, 1.0])

    def test_shape_mismatch(self):
        obs, _ = make_sign_matrix(4)
        with pytest.raises(ValueError):
            MaskedLogisticLoss(obs).eval(np.zeros((5, 5)))


def test_dataset_shape_mismatch():
    with pytest.raises(ValueError):
        RegressionDataset(np.ones((3, 2)), np.ones(4))


def eager_correntropy_eval(loss, x):
    """CorrentropyLoss.eval with both items computed in the call, step for step."""
    design = loss.dataset.design
    res = np.dot(design, x)
    np.subtract(loss.dataset.targets, res, out=res)
    e = np.divide(res, loss.sigma)
    np.square(e, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    value = 0.5 * loss.sigma**2 * float(np.add.reduce(1.0 - e))
    e *= res
    grad = np.dot(design.T, e)
    return value, np.negative(grad, out=grad)


def eager_square_eval(loss, x):
    """SquareLoss.eval with both items computed in the call."""
    res = loss.dataset.design @ x - loss.dataset.targets
    return 0.5 * float(res @ res), loss.dataset.design.T @ res


def eager_logistic_eval(loss, x):
    """MaskedLogisticLoss.eval with both items computed in the call."""
    n = loss.observed.n_users
    t = x.take(loss._flat) * loss.observed.signs
    u = np.exp(-np.abs(t))
    value = 0.5 * float((np.maximum(-t, 0.0) + np.log1p(u)).sum())
    grad = np.zeros(n * n)
    grad[loss._flat] = loss._half_neg_signs * (np.where(t > 0, u, 1.0) / (1.0 + u))
    return value, grad.reshape(n, n)


def shipped_loss_cases():
    """(loss, eager reference, point sampler) for each shipped loss."""
    rng = np.random.default_rng(31)
    design = rng.standard_normal((40, 6))
    design[:, 2] = 0.0  # an all-zero column: the correntropy gradient entry is -0.0
    ds = RegressionDataset(design, rng.standard_normal(40))
    n = 20
    flat = rng.choice(n * n, size=150, replace=False)
    obs = ObservedSignMatrix(n, flat // n, flat % n, rng.choice([-1.0, 1.0], size=150))
    return {
        "correntropy": (CorrentropyLoss(ds, sigma=0.7), eager_correntropy_eval, lambda: rng.standard_normal(6)),
        "square": (SquareLoss(ds), eager_square_eval, lambda: rng.standard_normal(6)),
        "logistic": (MaskedLogisticLoss(obs), eager_logistic_eval, lambda: 3 * rng.standard_normal((n, n))),
    }


@pytest.mark.parametrize("name", ["correntropy", "square", "logistic"])
class TestEvaluationContract:
    """eval(x) returns an evaluation that reads as the pair (value, gradient);
    the gradient is computed at its first read."""

    def test_items_are_bit_equal_to_the_eager_formulas(self, name):
        loss, eager, sample = shipped_loss_cases()[name]
        a, b = sample(), sample()
        ev_a, ev_b = loss.eval(a), loss.eval(b)
        for x, ev in ((b, ev_b), (a, ev_a)):  # read in the other order: each keeps its own state
            value, grad = eager(loss, x)
            assert type(ev[0]) is float and ev[0] == value
            assert type(ev[1]) is np.ndarray and ev[1].shape == grad.shape
            assert ev[1].tobytes() == grad.tobytes()
        value, grad = loss.eval(a)  # unpacking an unread evaluation
        ref_value, ref_grad = eager(loss, a)
        assert value == ref_value and grad.tobytes() == ref_grad.tobytes()

    def test_gradient_is_computed_once(self, name):
        loss, _, sample = shipped_loss_cases()[name]
        ev = loss.eval(sample())
        grad = ev[1]
        assert ev[1] is grad
        _, again = ev
        assert again is grad

    def test_two_items_and_no_others(self, name):
        loss, _, sample = shipped_loss_cases()[name]
        ev = loss.eval(sample())
        assert len(ev) == 2
        for bad in (2, -1, 10):
            with pytest.raises(IndexError):
                ev[bad]
