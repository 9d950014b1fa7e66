import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from iprox.penalties import L1Penalty, OscarPenalty, RankConstraint, TraceLassoPenalty
from subgradients import epsilon_subgradient_witness, magnitude_order, subgradient

finite_vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=8),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


def oscar_pairwise(x, l1, l2):
    """Literal double-loop form, the oracle for the sorted-weight evaluation."""
    total = l1 * np.sum(np.abs(x))
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            total += l2 * max(abs(x[i]), abs(x[j]))
    return total


class TestMagnitudeOrder:
    def test_basic(self):
        np.testing.assert_array_equal(magnitude_order(np.array([0.5, -2.0, 1.0])), [1, 3, 2])

    def test_ties_by_index(self):
        np.testing.assert_array_equal(magnitude_order(np.array([1.0, -1.0, 1.0])), [1, 2, 3])

    @settings(max_examples=50, deadline=None)
    @given(finite_vectors)
    def test_is_permutation(self, x):
        order = magnitude_order(x)
        assert sorted(order) == list(range(1, len(x) + 1))


class TestOscarValue:
    def test_example(self):
        assert abs(OscarPenalty(1.0, 1.0).value(np.array([1.0, 2.0])) - 5.0) < 1e-12

    def test_zero(self):
        assert OscarPenalty(0.3, 0.7).value(np.zeros(4)) == 0.0

    def test_l2_zero_reduces_to_l1(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        assert abs(OscarPenalty(0.4, 0.0).value(x) - 0.4 * np.abs(x).sum()) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(finite_vectors)
    def test_matches_pairwise_form(self, x):
        p = OscarPenalty(0.7, 0.3)
        assert abs(p.value(x) - oscar_pairwise(x, 0.7, 0.3)) <= 1e-9 * (1 + abs(p.value(x)))

    def test_100_random_vectors_pairwise(self):
        rng = np.random.default_rng(42)
        p = OscarPenalty(1.1, 0.25)
        for _ in range(100):
            x = rng.standard_normal(rng.integers(1, 9))
            assert abs(p.value(x) - oscar_pairwise(x, 1.1, 0.25)) < 1e-10


def _rank_weighted_oscar(x, l1, l2):
    """The coordinate-order form: each |x_j| times the weight of its rank."""
    return float((l1 + l2 * (magnitude_order(x) - 1)) @ np.abs(x))


def _oscar_inputs(rng, n):
    """Random, rounded (tied), zero-containing and -0.0-containing vectors."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    rounded = np.round(x, 1)
    zeros = np.where(rng.random(n) < 0.3, 0.0, x)
    neg_zeros = np.where(rng.random(n) < 0.3, -0.0, rounded)
    return {"random": x, "rounded": rounded, "zeros": zeros, "neg-zeros": neg_zeros}


class TestOscarSortedValue:
    """value is the ascending weights dotted with np.sort(|x|): one sort,
    no ranks, the same bits for every ordering and sign of x."""

    def test_bit_invariant_under_permutations_and_sign_flips(self):
        rng = np.random.default_rng(11)
        p = OscarPenalty(0.7, 0.3)
        for n in (3, 17, 200):
            for name, x in _oscar_inputs(rng, n).items():
                want = np.float64(p.value(x)).tobytes()
                for _ in range(20):
                    moved = rng.permutation(x) * rng.choice([-1.0, 1.0], n)
                    assert np.float64(p.value(moved)).tobytes() == want, (n, name)

    def test_agrees_with_the_rank_weighted_form(self):
        rng = np.random.default_rng(12)
        p = OscarPenalty(1.1, 0.25)
        for n in (1, 2, 9, 64, 200):
            for _ in range(25):
                for name, x in _oscar_inputs(rng, n).items():
                    ref = _rank_weighted_oscar(x, 1.1, 0.25)
                    assert abs(p.value(x) - ref) <= 1e-15 * abs(ref), (n, name)

    @pytest.mark.parametrize("x", [np.zeros(5), -np.zeros(5), np.zeros(0)], ids=["zeros", "neg-zeros", "empty"])
    def test_zero_point_is_exactly_zero(self, x):
        assert np.float64(OscarPenalty(0.3, 0.7).value(x)).tobytes() == np.float64(0.0).tobytes()


class TestOscarSubgradient:
    def test_example(self):
        g = subgradient(OscarPenalty(1.0, 0.1), np.array([0.5, -2.0, 1.0]))
        np.testing.assert_allclose(g, [1.0, -1.2, 1.1], atol=1e-12)

    def test_zero_vector(self):
        np.testing.assert_array_equal(subgradient(OscarPenalty(1.0, 0.5), np.zeros(3)), np.zeros(3))

    def test_is_subgradient_at_distinct_points(self):
        rng = np.random.default_rng(3)
        p = OscarPenalty(0.8, 0.2)
        for seed in range(5):
            distinct = rng.permutation([0.5, -1.0, 2.0, -3.5]) * (1 + 0.1 * seed)
            # tied magnitudes and zeros: the selection ranks ties by index
            tied = np.random.default_rng(seed).permutation([0.0, -1.0, 1.0, 2.0, -2.0, 0.0])
            for x in (distinct, tied):
                w = epsilon_subgradient_witness(p, x, subgradient(p, x), eps=0.0, n_samples=1000, seed=seed)
                assert w is None


class TestL1:
    def test_value_and_subgradient(self):
        p = L1Penalty(0.5)
        x = np.array([1.0, -2.0, 0.0])
        assert p.value(x) == 1.5
        np.testing.assert_array_equal(subgradient(p, x), [0.5, -0.5, 0.0])

    def test_subgradient_check_passes(self):
        p = L1Penalty(1.0)
        x = np.array([0.7, -0.2])
        assert epsilon_subgradient_witness(p, x, subgradient(p, x), eps=0.0) is None


class TestTraceLasso:
    def test_zero_vector(self):
        rng = np.random.default_rng(1)
        p = TraceLassoPenalty(0.5, rng.standard_normal((6, 4)))
        assert p.value(np.zeros(4)) == 0.0

    def test_single_nonzero_coordinate(self):
        rng = np.random.default_rng(2)
        design = rng.standard_normal((6, 4))
        p = TraceLassoPenalty(0.9, design)
        x = np.zeros(4)
        x[2] = -1.7
        expected = 0.9 * 1.7 * np.linalg.norm(design[:, 2])
        assert abs(p.value(x) - expected) < 1e-10

    def test_identity_design_is_l1(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5)
        p = TraceLassoPenalty(0.3, np.eye(5))
        assert abs(p.value(x) - 0.3 * np.abs(x).sum()) < 1e-10

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(4)
        p = TraceLassoPenalty(0.6, rng.standard_normal((7, 5)))
        x = rng.standard_normal(5)
        for t in (0.1, 2.0, 17.5):
            assert abs(p.value(t * x) - t * p.value(x)) < 1e-8 * (1 + t * p.value(x))

    def test_subgradient_identity_design(self):
        p = TraceLassoPenalty(0.5, np.eye(2))
        np.testing.assert_allclose(subgradient(p, np.array([2.0, -1.0])), [0.5, -0.5], atol=1e-10)

    def test_subgradient_scale_invariant_direction(self):
        rng = np.random.default_rng(5)
        p = TraceLassoPenalty(1.0, rng.standard_normal((6, 3)))
        x = rng.standard_normal(3)
        g1 = subgradient(p, x)
        g2 = subgradient(p, 3.7 * x)
        np.testing.assert_allclose(g1, g2, atol=1e-9)

    def test_subgradient_sampling_check(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            design = rng.standard_normal((5, 4))
            p = TraceLassoPenalty(0.8, design)
            dense = rng.standard_normal(4)
            sparse = dense.copy()
            sparse[seed % 4] = 0.0  # a zero coordinate: its design column leaves the SVD
            for x in (dense, sparse):
                w = epsilon_subgradient_witness(p, x, subgradient(p, x), eps=0.0, n_samples=600, seed=seed)
                assert w is None

    def test_dimension_mismatch(self):
        p = TraceLassoPenalty(1.0, np.eye(3))
        with pytest.raises(ValueError):
            p.value(np.zeros(4))


class TestRankConstraint:
    def test_zero_matrix_feasible(self):
        assert RankConstraint(1).feasible(np.zeros((4, 4)))

    def test_identity_infeasible(self):
        c = RankConstraint(2)
        assert not c.feasible(np.eye(3))
        assert c.value(np.eye(3)) == np.inf

    def test_sum_of_two_outer_products(self):
        rng = np.random.default_rng(7)
        x = np.outer(rng.standard_normal(5), rng.standard_normal(5))
        x += np.outer(rng.standard_normal(5), rng.standard_normal(5))
        c = RankConstraint(2)
        assert c.feasible(x)
        assert c.value(x) == 0.0

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(8)
        x = np.outer(rng.standard_normal(6), rng.standard_normal(6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        c = RankConstraint(1)
        assert c.feasible(x) and c.feasible(q @ x @ q.T)

    @pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-12, 0.5, 1.0])
    def test_points_within_tol_skip_the_svd(self, scale, monkeypatch):
        # ||x||_F <= tol bounds every singular value by tol, inside the cutoff
        c = RankConstraint(1)
        x = np.random.default_rng(10).standard_normal((200, 200))
        x *= scale * c.tol / np.linalg.norm(x)
        assert np.linalg.norm(x) <= c.tol

        def no_svd(*args, **kwargs):
            raise AssertionError("feasible ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert c.feasible(x)
        assert c.value(x) == 0.0

    @pytest.mark.parametrize("scale", [1.0 + 1e-12, 1.5, 3.0, 10.0])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_points_just_above_tol_keep_the_svd_answer(self, scale, rank):
        c = RankConstraint(2)
        rng = np.random.default_rng(rank)
        q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        x = q1[:, :rank] @ q2[:, :rank].T  # equal singular values, the hardest case for the cutoff
        x *= scale * c.tol / np.linalg.norm(x)
        s = np.linalg.svd(x, compute_uv=False)
        assert c.feasible(x) == bool(s[c.r] <= c.tol * max(s[0], 1.0))
        # equal singular values scaled to a norm of scale * tol: rank 3 is
        # inside the cutoff exactly when none exceeds tol
        assert c.feasible(x) == (rank <= 2 or scale <= np.sqrt(3.0))

    def test_large_r_always_feasible(self):
        rng = np.random.default_rng(9)
        assert RankConstraint(5).feasible(rng.standard_normal((4, 5)))


class TestEpsilonSubgradientCheck:
    def test_abs_valid_slope(self):
        assert epsilon_subgradient_witness(L1Penalty(1.0), np.zeros(1), np.array([0.9]), eps=0.0) is None

    def test_abs_invalid_slope(self):
        w = epsilon_subgradient_witness(L1Penalty(1.0), np.zeros(1), np.array([1.1]), eps=0.0)
        assert w is not None and w[0] > 0.0

    def test_abs_eps_witness_beyond_two(self):
        w = epsilon_subgradient_witness(
            L1Penalty(1.0), np.zeros(1), np.array([1.1]), eps=0.2, n_samples=3000
        )
        assert w is not None
        # any witness of |y| >= 1.1*y - 0.2 failing must sit past y = 2
        assert w[0] > 2.0
        assert abs(w[0]) < 1.1 * w[0] - 0.2

    def test_deterministic(self):
        a = epsilon_subgradient_witness(L1Penalty(1.0), np.zeros(2), np.array([1.3, 0.0]), eps=0.1, seed=5)
        b = epsilon_subgradient_witness(L1Penalty(1.0), np.zeros(2), np.array([1.3, 0.0]), eps=0.1, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_rank_constraint_unsupported(self):
        with pytest.raises(TypeError):
            epsilon_subgradient_witness(RankConstraint(1), np.zeros(2), np.zeros(2), eps=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            epsilon_subgradient_witness(L1Penalty(1.0), np.zeros(2), np.zeros(3), eps=0.0)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        OscarPenalty(-0.1, 0.2)
    with pytest.raises(ValueError):
        L1Penalty(-1.0)
    with pytest.raises(ValueError):
        RankConstraint(0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: L1Penalty(np.nan),
        lambda: OscarPenalty(np.nan, 0.0),
        lambda: OscarPenalty(0.1, np.nan),
        lambda: TraceLassoPenalty(np.nan, np.eye(3)),
        lambda: L1Penalty(np.inf),
        lambda: OscarPenalty(np.inf, 0.0),
        lambda: OscarPenalty(0.1, np.inf),
        lambda: TraceLassoPenalty(np.inf, np.eye(3)),
    ],
    ids=[
        "l1", "oscar-lambda1", "oscar-lambda2", "tracelasso",
        "l1-inf", "oscar-lambda1-inf", "oscar-lambda2-inf", "tracelasso-inf",
    ],
)
def test_nan_weights_rejected(make):
    with pytest.raises(ValueError, match="non-negative"):
        make()


@pytest.mark.parametrize("r", [2.5, 2.0, np.float64(3.0), "2"])
def test_non_integral_rank_bound_rejected(r):
    # the rule of linalg.check_rank: r must be an int (or numpy integer) >= 1
    with pytest.raises(ValueError, match="positive integer"):
        RankConstraint(r)


def test_numpy_integer_rank_bound_accepted():
    assert RankConstraint(np.int64(2)).feasible(np.diag([3.0, 2.0, 0.0]))
