import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iprox import dataio
from iprox.dataio import (
    TRACE_HEADER,
    TraceRow,
    _load_regression_csv_by_line,
    _load_sign_triplets_by_line,
    load_regression_csv,
    load_sign_triplets,
    load_trace_csv,
    trace_rows,
    write_regression_csv,
    write_sign_triplets,
    write_trace_csv,
)
from iprox.datagen import gen_grouped_regression, gen_signed_lowrank
from iprox.losses import ObservedSignMatrix, RegressionDataset, SquareLoss
from iprox.penalties import L1Penalty
from iprox.solvers import SolverConfig, run_solver


class TestRegressionCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        dataset, _ = gen_grouped_regression(25, 7, 3, noise_sd=0.05, seed=1)
        path = write_regression_csv(tmp_path / "data.csv", dataset)
        loaded = load_regression_csv(path)
        np.testing.assert_array_equal(loaded.design, dataset.design)
        np.testing.assert_array_equal(loaded.targets, dataset.targets)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_regression_csv(path)

    def test_header_first_column_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,f0\n1.0,2.0\n")
        with pytest.raises(ValueError, match="target"):
            load_regression_csv(path)

    def test_missing_features_rejected(self, tmp_path):
        path = tmp_path / "thin.csv"
        path.write_text("target\n1.0\n")
        with pytest.raises(ValueError, match="feature"):
            load_regression_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("target,f0,f1\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_regression_csv(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("target,f0\n1.0,2.0\nabc,2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_regression_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "headeronly.csv"
        path.write_text("target,f0\n")
        with pytest.raises(ValueError, match="no data"):
            load_regression_csv(path)

    def test_blank_body_line_names_line(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("target,f0\n1.0,2.0\n\n3.0,4.0\n")
        with pytest.raises(ValueError, match="line 3: expected 2 fields, got 0"):
            load_regression_csv(path)

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"target,f0,f1\r\n1.5,-2,3e-3\r\n-0.0,4,5\r\n")
        loaded = load_regression_csv(path)
        np.testing.assert_array_equal(loaded.design, [[-2.0, 3e-3], [4.0, 5.0]])
        assert loaded.targets.tobytes() == np.array([1.5, -0.0]).tobytes()

    @pytest.mark.parametrize(
        "field, value",
        [('"1.5"', 1.5), ("1_5", 15.0), ("\u0661\u0665", 15.0)],
        ids=["quoted", "underscore", "arabic-indic"],
    )
    def test_fields_only_the_line_loop_parses_still_load(self, tmp_path, field, value):
        path = tmp_path / "python-only.csv"
        path.write_text(f"target,f0\n{field},2.5\n", encoding="utf-8")
        with path.open(newline="") as fh:
            fh.readline()
            with pytest.raises(ValueError):
                np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        loaded = load_regression_csv(path)
        np.testing.assert_array_equal(loaded.targets, [value])
        np.testing.assert_array_equal(loaded.design, [[2.5]])

    def test_numpy_path_matches_the_line_loop(self, tmp_path):
        dataset, _ = gen_grouped_regression(40, 9, 3, noise_sd=0.05, seed=5)
        path = write_regression_csv(tmp_path / "data.csv", dataset)
        fast, slow = load_regression_csv(path), _load_regression_csv_by_line(path)
        for name in ("design", "targets"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous

    def test_well_formed_file_skips_the_line_loop(self, tmp_path, monkeypatch):
        dataset, _ = gen_grouped_regression(12, 4, 2, noise_sd=0.05, seed=6)
        path = write_regression_csv(tmp_path / "data.csv", dataset)

        def refuse(path):
            raise AssertionError("line loop reached")

        monkeypatch.setattr(dataio, "_load_regression_csv_by_line", refuse)
        np.testing.assert_array_equal(load_regression_csv(path).design, dataset.design)

    def test_golden_bytes(self, tmp_path):
        big = 1.7976931348623157e308
        dataset = RegressionDataset(np.array([[-0.0, 5e-324, big], [-big, 1 / 3, -2.5e-310]]), [1 / 3, -0.1])
        path = write_regression_csv(tmp_path / "golden.csv", dataset)
        assert path.read_bytes() == (
            b"target,f0,f1,f2\r\n"
            b"0.33333333333333331,-0,4.9406564584124654e-324,1.7976931348623157e+308\r\n"
            b"-0.10000000000000001,-1.7976931348623157e+308,0.33333333333333331,-2.5000000000000171e-310\r\n"
        )

    def test_large_file_writes_each_value_at_17_digits(self, tmp_path):
        dataset, _ = gen_grouped_regression(400, 60, 3, seed=3)  # more values than one chunk of the writer
        path = write_regression_csv(tmp_path / "data.csv", dataset)
        body = [",".join(f"{v:.17g}" for v in [t, *row]) for t, row in zip(dataset.targets, dataset.design)]
        assert path.read_text().splitlines()[1:] == body


class TestSignTriplets:
    def test_round_trip(self, tmp_path):
        obs, _ = gen_signed_lowrank(12, 2, 0.4, seed=2)
        path = write_sign_triplets(tmp_path / "signs.txt", obs)
        loaded = load_sign_triplets(path)
        assert loaded.n_users == 12
        np.testing.assert_array_equal(loaded.rows, obs.rows)
        np.testing.assert_array_equal(loaded.cols, obs.cols)
        np.testing.assert_array_equal(loaded.signs, obs.signs)

    def test_written_signs_are_explicit(self, tmp_path):
        obs, _ = gen_signed_lowrank(6, 1, 0.5, seed=3)
        path = write_sign_triplets(tmp_path / "signs.txt", obs)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "6"
        for line in lines[1:]:
            assert line.split()[2] in ("+1", "-1")

    def test_bad_user_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-number\n0 1 +1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_sign_triplets(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4\n0 1 +1\n2 3\n")
        with pytest.raises(ValueError, match="line 3"):
            load_sign_triplets(path)

    def test_bad_sign_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4\n0 1 2\n")
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            load_sign_triplets(path)

    def test_duplicate_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("4\n0 1 +1\n2 2 -1\n0 1 -1\n")
        with pytest.raises(ValueError, match="line 4.*line 2"):
            load_sign_triplets(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("3\n0 1 +1\n\n1 2 -1\n")
        loaded = load_sign_triplets(path)
        assert len(loaded.rows) == 2

    def test_no_observations_rejected(self, tmp_path):
        path = tmp_path / "none.txt"
        path.write_text("3\n")
        with pytest.raises(ValueError, match="no observations"):
            load_sign_triplets(path)

    @pytest.mark.parametrize("bad", ["2 5 -1", "-1 0 +1", "0 3 +1"])
    def test_out_of_range_index_names_line(self, tmp_path, bad):
        path = tmp_path / "range.txt"
        path.write_text(f"3\n0 1 +1\n{bad}\n1 2 -1\n")
        with pytest.raises(ValueError, match=r"range.txt: line 3: index outside \[0, 3\)"):
            load_sign_triplets(path)

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_user_count_below_one_names_line_1(self, tmp_path, count):
        path = tmp_path / "users.txt"
        path.write_text(f"{count}\n0 0 +1\n")
        with pytest.raises(ValueError, match="users.txt: line 1: the user count must be positive"):
            load_sign_triplets(path)

    @pytest.mark.parametrize(
        "line, row", [("1_0 1 +1", 10), ("\u0661 2 -1", 1)], ids=["underscore", "arabic-indic"]
    )
    def test_integers_only_the_line_loop_parses_still_load(self, tmp_path, line, row):
        path = tmp_path / "python-only.txt"
        path.write_text(f"20\n{line}\n3 4 +1\n", encoding="utf-8")
        loaded = load_sign_triplets(path)
        np.testing.assert_array_equal(loaded.rows, [row, 3])
        assert loaded.rows.dtype == np.int64

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"4\r\n0 1 +1\r\n3 2 -1\r\n")
        loaded = load_sign_triplets(path)
        np.testing.assert_array_equal(loaded.cols, [1, 2])
        np.testing.assert_array_equal(loaded.signs, [1.0, -1.0])

    def test_numpy_path_matches_the_line_loop(self, tmp_path):
        obs, _ = gen_signed_lowrank(30, 2, 0.3, seed=7)
        path = write_sign_triplets(tmp_path / "signs.txt", obs)
        fast, slow = load_sign_triplets(path), _load_sign_triplets_by_line(path)
        assert fast.n_users == slow.n_users == 30
        for name in ("rows", "cols", "signs"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_well_formed_file_skips_the_line_loop(self, tmp_path, monkeypatch):
        obs, _ = gen_signed_lowrank(10, 2, 0.4, seed=8)
        path = write_sign_triplets(tmp_path / "signs.txt", obs)

        def refuse(path):
            raise AssertionError("line loop reached")

        monkeypatch.setattr(dataio, "_load_sign_triplets_by_line", refuse)
        np.testing.assert_array_equal(load_sign_triplets(path).rows, obs.rows)

    def test_golden_bytes(self, tmp_path):
        obs = ObservedSignMatrix(12, [0, 11, 3], [11, 0, 3], [1.0, -1.0, -1.0])
        path = write_sign_triplets(tmp_path / "golden.txt", obs)
        assert path.read_bytes() == b"12\n0 11 +1\n11 0 -1\n3 3 -1\n"

    def test_large_file_writes_one_line_per_observation(self, tmp_path):
        obs, _ = gen_signed_lowrank(200, 2, 0.3, seed=4)  # more lines than one chunk of the writer
        path = write_sign_triplets(tmp_path / "signs.txt", obs)
        lines = [f"{i} {j} {int(s):+d}" for i, j, s in zip(obs.rows, obs.cols, obs.signs)]
        assert path.read_text().splitlines() == ["200", *lines]


@pytest.mark.parametrize(
    "text, loader, message",
    [
        ("target,f0\n", load_regression_csv, "no data rows"),
        ("target,f0\n\n\n", load_regression_csv, "line 2: expected 2 fields, got 0"),
        ("3\n", load_sign_triplets, "no observations"),
        ("3\n\n  \n", load_sign_triplets, "no observations"),
    ],
    ids=["csv-header-only", "csv-blank-body", "signs-count-only", "signs-blank-body"],
)
def test_empty_body_raises_without_a_warning(tmp_path, text, loader, message):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=message):
            loader(path)
    assert caught == []


_SPECIAL_FLOATS = [
    5e-324, -5e-324, 2.225073858507201e-308, -0.0, 0.0, 1e308, -1e308,
    1.7976931348623157e308, 0.1 + 0.2, 1 / 3, -2.0 / 7.0, 123456789.01234567,
]
_floats = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False),
)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_regression_csv_round_trip_is_bit_exact(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 5), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        design = np.array(data.draw(st.lists(_floats, min_size=n * d, max_size=n * d))).reshape(n, d)
        targets = np.array(data.draw(st.lists(_floats, min_size=n, max_size=n)))
        dataset = RegressionDataset(design, targets)
        path = write_regression_csv(tmp_path_factory.mktemp("csv") / "data.csv", dataset)
        loaded = load_regression_csv(path)
        assert loaded.design.shape == (n, d)
        assert loaded.design.tobytes() == dataset.design.tobytes()
        assert loaded.targets.tobytes() == dataset.targets.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sign_triplets_round_trip(self, tmp_path_factory, data):
        n_users = data.draw(st.integers(1, 12), label="n_users")
        flat = data.draw(
            st.lists(st.integers(0, n_users * n_users - 1), min_size=1, max_size=20, unique=True)
        )
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(flat), max_size=len(flat)))
        obs = ObservedSignMatrix(n_users, np.array(flat) // n_users, np.array(flat) % n_users, signs)
        path = write_sign_triplets(tmp_path_factory.mktemp("signs") / "signs.txt", obs)
        loaded = load_sign_triplets(path)
        assert loaded.n_users == n_users
        for name in ("rows", "cols", "signs"):
            a, b = getattr(loaded, name), getattr(obs, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def small_lasso_trace():
    dataset, _ = gen_grouped_regression(30, 6, 3, noise_sd=0.05, seed=4)
    loss = SquareLoss(dataset)
    config = SolverConfig(max_iters=15, solver_kind="apg")
    return run_solver(loss, L1Penalty(0.05), np.zeros(6), config)


class TestTraceCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        trace = small_lasso_trace()
        rows = trace_rows("demo-run", "apg", trace)
        path = write_trace_csv(tmp_path / "trace.csv", rows)
        loaded = load_trace_csv(path)
        assert loaded == rows

    def test_header_written_exactly(self, tmp_path):
        path = write_trace_csv(tmp_path / "trace.csv", [])
        first = path.read_text().splitlines()[0]
        assert first == ",".join(TRACE_HEADER)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("run_id,solver,k\nx,apg,0\n")
        with pytest.raises(ValueError, match="header"):
            load_trace_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        trace = small_lasso_trace()
        rows = trace_rows("demo-run", "apg", trace)
        path = write_trace_csv(tmp_path / "trace.csv", rows)
        text = path.read_text().splitlines()
        text[2] = text[2].replace("apg", "apg,extra", 1)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            load_trace_csv(path)

    def test_k_zero_row_present(self, tmp_path):
        trace = small_lasso_trace()
        rows = trace_rows("demo-run", "apg", trace)
        assert rows[0].k == 0
        assert rows[0].branch == "init"
        assert rows[0].step_norm_sq == 0.0

    def test_golden_bytes(self, tmp_path):
        rows = [
            TraceRow("lasso,s7", "pg", 0, 0.0, 0.1, 0.0, 0.0, 0.0, 0, "init"),
            TraceRow("lasso,s7", "pg", 1, 1e-300, 1.0 / 3.0, 2.5, np.float64(1e-2), 5e-324, 12, "prox"),
            TraceRow('say "hi"', "aipg", 2, -0.0, float("nan"), float("inf"), 1e300, 123456789.0, 0, "failed"),
        ]
        path = write_trace_csv(tmp_path / "golden.csv", rows)
        assert path.read_bytes() == (
            b"run_id,solver,k,time_s,objective,step_norm_sq,eps_k,certified_eps,inner_iters,branch\r\n"
            b'"lasso,s7",pg,0,0,0.10000000000000001,0,0,0,0,init\r\n'
            b'"lasso,s7",pg,1,1e-300,0.33333333333333331,2.5,0.01,4.9406564584124654e-324,12,prox\r\n'
            b'"say ""hi""",aipg,2,-0,nan,inf,1.0000000000000001e+300,123456789,0,failed\r\n'
        )

    def test_seventeen_digit_floats_survive(self, tmp_path):
        value = 0.1 + 0.2  # not representable as a short decimal
        row = TraceRow("r", "pg", 1, value, value, value, value, value, 3, "prox")
        path = write_trace_csv(tmp_path / "precision.csv", [row])
        loaded = load_trace_csv(path)[0]
        assert loaded.objective == value
        assert loaded.time_s == value
