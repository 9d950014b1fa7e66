import numpy as np
import pytest

from iprox.dataio import (
    TRACE_HEADER,
    TraceRow,
    load_regression_csv,
    load_sign_triplets,
    load_trace_csv,
    trace_rows,
    write_regression_csv,
    write_sign_triplets,
    write_trace_csv,
)
from iprox.datagen import gen_grouped_regression, gen_signed_lowrank
from iprox.losses import SquareLoss
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
