import dataclasses
import math

import numpy as np
import pytest

import iprox.bench as bench_mod
from iprox.bench import APPLICATIONS, build_problem, generate, run_experiment
from iprox.cli import _build_configs, _build_parser, main, parse_eps_spec
from iprox.dataio import load_trace_csv, write_regression_csv, write_sign_triplets
from iprox.datagen import gen_correlated_design, gen_grouped_regression, gen_signed_lowrank
from iprox.losses import CorrentropyLoss, ObservedSignMatrix, SquareLoss
from iprox.penalties import L1Penalty, OscarPenalty, TraceLassoPenalty
from iprox.solvers import ErrorSchedule, SolverAbort, SolverConfig, run_solver

SMALL = {"n": 60, "d": 12, "n_groups": 3, "outlier_frac": 0.1, "noise_sd": 0.05}


def small_run(tmp_path, kinds, application="robust_oscar", seed=7, max_iters=25, out="trace.csv", **overrides):
    """run_experiment on a small instance: (runs, csv_path)."""
    params = dict(SMALL)
    params.update(overrides)
    if application != "robust_oscar":
        params.pop("n_groups")
        params.setdefault("correlation", 0.5)
        params.setdefault("sparsity", 3)
    configs = [SolverConfig(max_iters=max_iters, solver_kind=k) for k in kinds]
    return run_experiment(application, configs, str(tmp_path / out), seed=seed, params=params)


def failed_kinds(runs):
    return [kind for kind, _, error in runs if error is not None]


class TestBuildProblem:
    def test_unknown_application_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            build_problem("nonsense")

    def test_misspelled_parameter_rejected(self):
        params = {"n": 60, "d": 12, "n_group": 3}
        with pytest.raises(ValueError, match=r"\['n_group'\] not used by robust_oscar"):
            build_problem("robust_oscar", params=params)
        with pytest.raises(ValueError, match="not used by robust_oscar"):
            generate("robust_oscar", params=params)

    @pytest.mark.parametrize(
        "application, params, direct",
        [
            ("robust_oscar", {"n": 60, "d": 12}, lambda: gen_grouped_regression(60, 12, 5, 0.1, 0.05, seed=4)),
            ("link_prediction", {"n_users": 20}, lambda: gen_signed_lowrank(20, 3, 0.3, 0.5, seed=4)),
            (
                "robust_tracelasso", {"d": 10},
                lambda: gen_correlated_design(150, 10, 0.9, 5, 0.05, 0.1, seed=4),
            ),
            (
                "lasso_baseline", {"sparsity": 3},
                lambda: gen_correlated_design(200, 50, 0.0, 3, 0.05, 0.0, seed=4),
            ),
        ],
        ids=["robust_oscar", "link_prediction", "robust_tracelasso", "lasso_baseline"],
    )
    def test_generate_merges_defaults(self, application, params, direct):
        # the direct call spells out the application's defaults positionally
        (dataset, truth), (expected, expected_truth) = generate(application, seed=4, params=params), direct()
        assert type(dataset) is type(expected)
        for name, value in vars(expected).items():
            np.testing.assert_array_equal(getattr(dataset, name), value, err_msg=name)
        np.testing.assert_array_equal(truth, expected_truth)

    def test_lasso_uses_square_loss(self):
        prob = build_problem("lasso_baseline", params={"n": 30, "d": 8})
        assert isinstance(prob.loss, SquareLoss)
        assert isinstance(prob.regularizer, L1Penalty)
        np.testing.assert_array_equal(prob.x0, np.zeros(8))

    def test_robust_apps_use_correntropy(self):
        prob = build_problem("robust_oscar", params=SMALL)
        assert isinstance(prob.loss, CorrentropyLoss)
        assert isinstance(prob.regularizer, OscarPenalty)
        prob2 = build_problem("robust_tracelasso", params={"n": 30, "d": 6, "sparsity": 2})
        assert isinstance(prob2.regularizer, TraceLassoPenalty)

    def test_robust_targets_standardized(self):
        prob = build_problem("robust_oscar", params=SMALL, seed=3)
        targets = prob.loss.dataset.targets
        assert abs(float(np.mean(targets))) < 1e-12
        assert abs(float(np.std(targets)) - 1.0) < 1e-12

    def test_file_ingestion_matches_generation(self, tmp_path):
        dataset, _ = gen_grouped_regression(**SMALL, seed=4)
        path = write_regression_csv(tmp_path / "data.csv", dataset)
        from_file = build_problem("robust_oscar", seed=4, data_path=path)
        generated = build_problem("robust_oscar", seed=4, params=SMALL)
        np.testing.assert_array_equal(
            from_file.loss.dataset.targets, generated.loss.dataset.targets
        )
        assert from_file.x_ref is None  # no ground truth travels with a file

    def test_generator_params_rejected_with_data_path(self, tmp_path):
        dataset, _ = gen_grouped_regression(**SMALL, seed=4)
        path = write_regression_csv(tmp_path / "data.csv", dataset)
        with pytest.raises(ValueError, match=r"\['d', 'n'\] have no effect"):
            build_problem("robust_oscar", params={"n": 500, "d": 80}, data_path=path)
        signs, _ = generate("link_prediction", seed=4, params={"n_users": 14, "true_rank": 2})
        path = write_sign_triplets(tmp_path / "signs.txt", signs)
        with pytest.raises(ValueError, match=r"\['n_users'\] have no effect"):
            build_problem("link_prediction", params={"n_users": 99, "true_rank": 2}, data_path=path)
        # the rank bound is not a generator-only parameter: it sets the constraint
        prob = build_problem("link_prediction", params={"true_rank": 2}, data_path=path)
        assert prob.regularizer.r == 2 and prob.x0.shape == (14, 14)

    @pytest.mark.parametrize(
        "params,match",
        [
            ({"true_rank": 2.5}, "rank bound must be a positive integer"),
            ({}, r"rank r=3 outside \[1, 2\]"),  # the default bound, above the file's 2 users
        ],
        ids=["non-integral", "above-the-user-count"],
    )
    def test_non_integral_rank_bound_rejected_before_any_run(self, tmp_path, params, match):
        path = write_sign_triplets(tmp_path / "signs.txt", ObservedSignMatrix(2, [0, 1], [1, 0], [1.0, -1.0]))
        with pytest.raises(ValueError, match=match):
            build_problem("link_prediction", params=params, data_path=path)
        out = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=match):
            run_experiment(
                "link_prediction", [SolverConfig(max_iters=3, solver_kind="ipg")], str(out),
                data_path=str(path), params=params,
            )
        assert not out.exists()

    def test_unknown_param_rejected(self, tmp_path):
        out = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="margin"):
            run_experiment(
                "robust_oscar",
                [SolverConfig(max_iters=5, solver_kind="ipg")],
                str(out),
                params={"margin": 0.5},
            )
        assert not out.exists()


class TestRunExperiment:
    def test_empty_config_list_rejected(self, tmp_path):
        out = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="at least one solver config"):
            run_experiment("robust_oscar", [], str(out), params=SMALL)
        assert not out.exists()

    def test_solvers_share_initialization(self, tmp_path):
        runs, csv_path = small_run(tmp_path, ["pg", "ipg"])
        assert failed_kinds(runs) == []
        rows = load_trace_csv(csv_path)
        start_rows = [r for r in rows if r.k == 0]
        assert {r.solver for r in start_rows} == {"pg", "ipg"}
        assert len({r.objective for r in start_rows}) == 1

    def test_rows_serialized_in_spec_order(self, tmp_path):
        runs, csv_path = small_run(tmp_path, ["aipg", "pg"])
        assert [kind for kind, _, _ in runs] == ["aipg", "pg"]
        rows = load_trace_csv(csv_path)
        boundary = max(i for i, r in enumerate(rows) if r.solver == "aipg")
        assert all(r.solver == "pg" for r in rows[boundary + 1:])

    def test_repeat_runs_identical_modulo_time(self, tmp_path):
        rows_a = load_trace_csv(small_run(tmp_path, ["ipg", "nmaipg"])[1])
        rows_b = load_trace_csv(small_run(tmp_path, ["ipg", "nmaipg"], out="again.csv")[1])
        strip = lambda r: dataclasses.replace(r, time_s=0.0)
        assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]

    def test_exact_prox_refusal_recorded_as_failure(self, tmp_path):
        runs, csv_path = small_run(tmp_path, ["pg", "ipg"], application="robust_tracelasso")
        assert failed_kinds(runs) == ["pg"]
        rows = load_trace_csv(csv_path)
        failed = [r for r in rows if r.branch == "failed"]
        assert len(failed) == 1 and failed[0].solver == "pg"
        assert any(r.solver == "ipg" and r.k > 0 for r in rows)

    def test_abort_preserves_partial_trace(self, tmp_path, monkeypatch):
        real = bench_mod.run_solver

        def blows_up_after_five(loss, penalty, x0, config, keep_iterates=False):
            trace = real(loss, penalty, x0, dataclasses.replace(config, max_iters=5))
            raise SolverAbort("synthetic blow-up", trace.records)

        monkeypatch.setattr(bench_mod, "run_solver", blows_up_after_five)
        runs, csv_path = small_run(tmp_path, ["ipg"], max_iters=50)
        assert failed_kinds(runs) == ["ipg"]
        rows = load_trace_csv(csv_path)
        assert [r.k for r in rows] == [0, 1, 2, 3, 4, 5, 6]
        assert rows[-1].branch == "failed"
        assert all(r.branch != "failed" for r in rows[:-1])

    # one basic, one accelerated kind; aipg evaluates only z at k = 1 and 2, so its
    # third evaluation is z at k = 2, and the NaN gradient reaches a point at k = 3
    @pytest.mark.parametrize("kind, failed_at", [("pg", 3), ("aipg", 3)])
    def test_nonfinite_iterate_keeps_completed_rows(self, kind, failed_at):
        class NanGradientLoss:
            """A square loss whose gradients turn NaN from the third evaluation on."""

            def __init__(self):
                self.loss = SquareLoss(gen_grouped_regression(20, 4, 2, seed=1)[0])
                self.calls = 0

            def lipschitz(self):
                return self.loss.lipschitz()

            def eval(self, x):
                self.calls += 1
                value, grad = self.loss.eval(x)
                return value, grad * np.nan if self.calls >= 3 else grad

        [(run_kind, rows, error)] = bench_mod.run_configs(
            "nan", NanGradientLoss(), L1Penalty(0.1), np.zeros(4),
            [SolverConfig(max_iters=10, solver_kind=kind)],
        )
        assert run_kind == kind and error is not None
        assert f"aborted at iteration {failed_at}" in error and "non-finite" in error
        assert [r.k for r in rows] == list(range(failed_at + 1))
        assert [r.branch for r in rows][-1] == "failed"
        assert all(np.isfinite(r.objective) for r in rows[:-1])

    def test_inexact_tracks_exact_final_objective(self, tmp_path):
        runs, _ = small_run(tmp_path, ["pg", "ipg"], max_iters=200)
        assert failed_kinds(runs) == []
        (_, pg_rows, _), (_, ipg_rows, _) = runs
        f_pg = pg_rows[-1].objective
        f_ipg = ipg_rows[-1].objective
        assert abs(f_ipg - f_pg) <= 1e-3 * abs(f_pg)


class TestRecoveryQuality:
    def test_robust_fit_beats_least_squares_under_outliers(self):
        params = {"n": 200, "d": 50, "n_groups": 5, "outlier_frac": 0.1, "noise_sd": 0.05}
        dataset, x_true = gen_grouped_regression(**params, seed=7)
        x_ls, *_ = np.linalg.lstsq(dataset.design, dataset.targets, rcond=None)
        ls_err = np.linalg.norm(x_ls - x_true) / np.linalg.norm(x_true)
        prob = build_problem("robust_oscar", seed=7, params=params)
        trace = run_solver(
            prob.loss, prob.regularizer, prob.x0,
            SolverConfig(max_iters=300, solver_kind="aipg"),
        )
        robust_err = np.linalg.norm(trace.final_point - prob.x_ref) / np.linalg.norm(prob.x_ref)
        assert robust_err < ls_err

    def test_link_prediction_holdout_sign_accuracy(self):
        # threshold calibrated on the first run of this instance, then frozen
        prob = build_problem("link_prediction", seed=0)
        obs = prob.extras["observed"]
        truth = prob.extras["truth"]
        trace = run_solver(
            prob.loss, prob.regularizer, prob.x0,
            SolverConfig(max_iters=150, solver_kind="nmaipg"),
        )
        mask = np.zeros((obs.n_users, obs.n_users), dtype=bool)
        mask[obs.rows.astype(int), obs.cols.astype(int)] = True
        held_out = ~mask
        accuracy = np.mean(np.sign(trace.final_point[held_out]) == np.sign(truth[held_out]))
        assert accuracy > 0.85


class TestEpsSpecParsing:
    def test_const(self):
        assert parse_eps_spec("const:0.5") == ErrorSchedule.constant(0.5)

    def test_poly(self):
        assert parse_eps_spec("poly:1e-2,2") == ErrorSchedule.polynomial(1e-2, 2.0)

    def test_adaptive_default_floor(self):
        assert parse_eps_spec("adaptive:0.25") == ErrorSchedule.adaptive(0.25)

    def test_adaptive_explicit_floor(self):
        assert parse_eps_spec("adaptive:0.25,1e-10") == ErrorSchedule.adaptive(0.25, floor=1e-10)

    def test_malformed_specs_rejected(self):
        import argparse

        for bad in ("weird:1", "poly:1", "poly:1,2,3", "adaptive:", "const:x", "adaptive:1,2,3"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_eps_spec(bad)

    @pytest.mark.parametrize(
        "spec",
        ["const:nan", "const:inf", "poly:nan,2", "poly:1e-2,nan", "adaptive:nan", "adaptive:1,nan"],
    )
    def test_non_finite_specs_rejected(self, spec):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_eps_spec(spec)

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("poly:1e-2,-1", "p must be non-negative and finite, got -1.0"),
            ("adaptive:0.5,0", "floor must be positive and finite, got 0.0"),
        ],
    )
    def test_schedule_refusal_keeps_the_schedule_message(self, spec, message, tmp_path, capsys):
        # the numbers parse, so the schedule's own rule names what is wrong
        with pytest.raises(SystemExit) as info:
            main(["bench", "lasso_baseline", "--out", str(tmp_path / "t.csv"), "--eps", spec])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(f"argument --eps: {message}")
        assert "cannot parse" not in err
        assert not (tmp_path / "t.csv").exists()


class TestCommandLine:
    def test_bench_writes_parseable_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main([
            "bench", "robust_oscar", "--out", str(out),
            "--solver", "ipg", "--solver", "aipg", "--max-iters", "15",
            "--n", "50", "--d", "10", "--groups", "2", "--seed", "3",
        ])
        assert code == 0
        rows = load_trace_csv(out)
        assert {r.solver for r in rows} == {"ipg", "aipg"}
        assert "wrote" in capsys.readouterr().out

    def test_polynomial_schedule_past_float_range_runs(self, tmp_path, capsys):
        # eps_k = 1e-2 / k**400 overflows k**400 at k = 6
        out = tmp_path / "t.csv"
        code = main(["bench", "lasso_baseline", "--eps", "poly:1e-2,400", "--max-iters", "10", "--out", str(out)])
        assert code == 0
        assert max(r.k for r in load_trace_csv(out)) == 10

    def test_gen_then_solve_round_trip(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert main(["gen", "lasso_baseline", "--out", str(data), "--n", "40", "--d", "8"]) == 0
        trace = tmp_path / "trace.csv"
        code = main([
            "solve", "--data", str(data), "--loss", "square", "--reg", "l1",
            "--lam", "0.05", "--solver", "apg", "--max-iters", "30", "--out", str(trace),
        ])
        assert code == 0
        rows = load_trace_csv(trace)
        assert rows[0].k == 0 and rows[-1].solver == "apg"

    def test_gen_then_solve_sign_matrix(self, tmp_path):
        data = tmp_path / "signs.txt"
        assert main([
            "gen", "link_prediction", "--out", str(data), "--users", "14", "--rank", "2",
        ]) == 0
        code = main([
            "solve", "--data", str(data), "--loss", "logistic", "--reg", "rank",
            "--rank-r", "2", "--solver", "nmaipg", "--max-iters", "10",
        ])
        assert code == 0

    def test_bench_summary_is_the_summary_of_its_trace_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main([
            "bench", "robust_tracelasso", "--out", str(out), "--solver", "pg", "--solver", "ipg",
            "--max-iters", "8", "--n", "30", "--d", "6", "--sparsity", "2", "--seed", "3",
        ])
        assert code == 1
        printed = capsys.readouterr()
        rows = load_trace_csv(out)
        expected = []
        for solver in dict.fromkeys(r.solver for r in rows):
            last = [r for r in rows if r.solver == solver][-1]
            if last.branch != "failed":
                inner = sum(r.inner_iters for r in rows if r.solver == solver)
                misses = sum(r.k >= 1 and r.certified_eps > r.eps_k for r in rows if r.solver == solver)
                expected.append(f"{solver}: iters={last.k} objective={last.objective:.10g} inner={inner} "
                                f"seconds={last.time_s:.3f} misses={misses}")
        assert printed.out.splitlines() == expected + [f"wrote {out}"]
        assert [line.split(" objective=")[0] for line in expected] == ["ipg: iters=8"]
        assert printed.err.splitlines() == [
            "solver pg failed: trace-lasso penalty has no exact prox; use an inexact solver kind"
        ]

    def test_summary_counts_misses(self, tmp_path, capsys):
        # a 5-iteration inner budget cannot meet eps_k from k = 13 on
        out = tmp_path / "trace.csv"
        code = main([
            "bench", "robust_tracelasso", "--out", str(out), "--seed", "0", "--max-iters", "30",
            "--inner-max-iters", "5", "--solver", "ipg",
        ])
        assert code == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert summary.startswith("ipg: iters=30 objective=") and summary.endswith(" misses=10")
        assert sum(r.certified_eps > r.eps_k for r in load_trace_csv(out)) == 10

    def test_bench_compares_all_six_kinds(self, tmp_path, capsys):
        out, kinds = tmp_path / "trace.csv", ["pg", "apg", "nmapg", "ipg", "aipg", "nmaipg"]
        args = ["bench", "link_prediction", "--seed", "7", "--max-iters", "5", "--out", str(out)]
        assert main([*args, *(flag for kind in kinds for flag in ("--solver", kind))]) == 0
        lines = capsys.readouterr().out.splitlines()
        fields = [dict(field.split("=") for field in line.split()[1:]) for line in lines[:6]]
        assert [line.split(":")[0] for line in lines[:6]] == kinds
        assert [list(f) for f in fields] == [["iters", "objective", "inner", "seconds", "misses"]] * 6
        assert [f["misses"] for f in fields] == ["0"] * 6  # early requests sit far above the rounding floor
        assert lines[6:] == [f"wrote {out}"] and out.exists()

    def test_solver_failure_exits_nonzero(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main([
            "bench", "robust_tracelasso", "--out", str(out),
            "--solver", "pg", "--max-iters", "10", "--n", "30", "--d", "6",
        ])
        assert code == 1
        assert load_trace_csv(out)[-1].branch == "failed"

    def test_bench_and_solve_write_the_same_rows(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert main(["gen", "lasso_baseline", "--out", str(data), "--n", "40", "--d", "8", "--seed", "2"]) == 0
        capsys.readouterr()
        flags = ["--solver", "pg", "--solver", "aipg", "--max-iters", "12", "--seed", "2"]
        bench_out, solve_out = tmp_path / "bench.csv", tmp_path / "solve.csv"
        assert main(["bench", "lasso_baseline", "--data", str(data), "--out", str(bench_out), *flags]) == 0
        bench_lines = capsys.readouterr().out.splitlines()
        lam = repr(0.1 / math.sqrt(40))  # the lasso weight that bench sets
        assert main([
            "solve", "--data", str(data), "--loss", "square", "--reg", "l1", "--lam", lam,
            "--out", str(solve_out), *flags,
        ]) == 0
        solve_lines = capsys.readouterr().out.splitlines()
        def strip(lines):  # one summary line apart from the wall time
            return [" ".join(f for f in line.split() if not f.startswith("seconds=")) for line in lines[:2]]
        assert strip(bench_lines) == strip(solve_lines)
        assert [line.split(" objective=")[0] for line in strip(bench_lines)] == ["pg: iters=12", "aipg: iters=12"]

        def numbers(path):
            return [dataclasses.replace(r, run_id="", time_s=0.0) for r in load_trace_csv(path)]

        assert numbers(bench_out) == numbers(solve_out)

    def test_solve_failure_keeps_the_other_runs(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert main(["gen", "lasso_baseline", "--out", str(data), "--n", "30", "--d", "6", "--sparsity", "3"]) == 0
        capsys.readouterr()
        out = tmp_path / "trace.csv"
        code = main([
            "solve", "--data", str(data), "--loss", "square", "--reg", "tracelasso",
            "--solver", "pg", "--solver", "ipg", "--max-iters", "5", "--out", str(out),
        ])
        assert code == 1
        printed = capsys.readouterr()
        assert "solver pg failed: trace-lasso penalty has no exact prox" in printed.err
        assert printed.out.startswith("ipg: iters=5 objective=")
        rows = load_trace_csv(out)
        assert [(r.solver, r.branch) for r in rows if r.solver == "pg"] == [("pg", "failed")]
        assert [r.k for r in rows if r.solver == "ipg"] == list(range(6))

    def test_wrong_size_flag_exits_with_error(self, tmp_path, capsys):
        code = main(["bench", "link_prediction", "--out", str(tmp_path / "t.csv"), "--n", "50"])
        assert code == 2
        assert "not used by link_prediction" in capsys.readouterr().err

    def test_negative_seed_exits_naming_the_seed(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["bench", "link_prediction", "--seed", "-1", "--max-iters", "2", "--out", str(out)])
        assert code == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_size_flag_with_data_exits_with_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["gen", "robust_oscar", "--out", str(data), "--n", "30", "--d", "6"])
        out = tmp_path / "t.csv"
        code = main(["bench", "robust_oscar", "--data", str(data), "--n", "500", "--out", str(out)])
        assert code == 2
        assert "['n'] have no effect" in capsys.readouterr().err
        assert not out.exists()
        assert main(["bench", "robust_oscar", "--data", str(data), "--max-iters", "3", "--out", str(out)]) == 0

    def test_gen_negative_seed_exits_naming_the_seed(self, tmp_path, capsys):
        out = tmp_path / "signs.txt"
        assert main(["gen", "link_prediction", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "reg, flags, name",
        [("l1", ["--lam", "inf"], "lam"), ("oscar", ["--lambda2", "inf"], "lambda2")],
        ids=["lam", "lambda2"],
    )
    def test_infinite_weight_exits_naming_it(self, tmp_path, capsys, reg, flags, name):
        # inf * 0 at the zero start point would abort every run with a nan objective
        data = tmp_path / "data.csv"
        main(["gen", "lasso_baseline", "--out", str(data), "--n", "20", "--d", "5", "--sparsity", "2"])
        out = tmp_path / "t.csv"
        code = main(["solve", "--data", str(data), "--loss", "square", "--reg", reg, *flags, "--out", str(out)])
        assert code == 2
        assert f"{name} must be non-negative and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_sigma_exits_with_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["gen", "robust_oscar", "--out", str(data), "--n", "20", "--d", "5", "--groups", "2"])
        code = main(["solve", "--data", str(data), "--loss", "correntropy", "--reg", "l1", "--sigma", "inf"])
        assert code == 2
        assert "sigma must be positive and finite" in capsys.readouterr().err

    def test_loss_reg_mismatch_exits_with_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["gen", "lasso_baseline", "--out", str(data), "--n", "20", "--d", "5"])
        code = main(["solve", "--data", str(data), "--loss", "square", "--reg", "rank"])
        assert code == 2
        assert "matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [([], "--rank-r"), (["--rank-r", "3"], "rank r=3 outside [1, 2]")],
        ids=["missing", "above-the-user-count"],
    )
    def test_missing_rank_bound_exits_with_error(self, tmp_path, capsys, flags, message):
        # iprox bench refuses the same bound on the same file (TestBuildProblem)
        data = write_sign_triplets(tmp_path / "signs.txt", ObservedSignMatrix(2, [0, 1], [1, 0], [1.0, -1.0]))
        out = tmp_path / "o.csv"
        code = main(["solve", "--data", str(data), "--loss", "logistic", "--reg", "rank", *flags, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_application_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "mystery_app", "--out", str(tmp_path / "t.csv")])

    def test_applications_tuple_is_the_cli_contract(self):
        assert set(APPLICATIONS) == {
            "robust_oscar", "link_prediction", "robust_tracelasso", "lasso_baseline",
        }

    def test_applications_keep_their_order(self):
        # the CLI's choices and scripts/trace_keys.py's lines follow this order
        assert APPLICATIONS == ("robust_oscar", "link_prediction", "robust_tracelasso", "lasso_baseline")


class TestBuildConfigs:
    def configs(self, *flags):
        args = _build_parser().parse_args(["bench", "robust_oscar", "--out", "t.csv", *flags])
        return _build_configs(args)

    def test_unset_solver_flags_take_the_config_defaults(self):
        configs = self.configs("--solver", "pg", "--solver", "nmaipg", "--max-iters", "9", "--seed", "3")
        assert configs == [
            SolverConfig(max_iters=9, solver_kind="pg", seed=3),
            SolverConfig(max_iters=9, solver_kind="nmaipg", seed=3),
        ]
        assert self.configs() == [SolverConfig(max_iters=500, solver_kind="ipg", seed=0)]

    def test_given_solver_flags_are_honoured(self):
        [config] = self.configs(
            "--gamma", "0.25", "--eps", "const:1e-3", "--delta", "0.2", "--inner-max-iters", "7",
        )
        assert config == SolverConfig(
            max_iters=500, solver_kind="ipg", gamma=0.25, error_schedule=ErrorSchedule.constant(1e-3),
            delta=0.2, inner_max_iters=7,
        )
