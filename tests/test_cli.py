from __future__ import annotations

import copy
import csv
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
import tarfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levystop import cli, first_passage_times, model_from_config, reproduce
from levystop.cli import build_parser, main

# a floating-point warning reaching stderr breaks the one-line error contract
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FIG2_CFG = {
    "family": "geometric",
    "drift": 0.025,
    "volatility": 0.1,
    "lambda": 0.02,
    "jump_dist": {"kind": "beta", "params": {"c": 1.25, "d": 5.0}},
    "r": 0.05,
    "payoff": {"kind": "power_call", "params": {"a": 1.0, "b": 1.0, "K": 1.0}},
}

TABLE1_CFG = {
    "family": "arithmetic",
    "drift": 0.04,
    "volatility": 0.05,
    "lambda": 0.1,
    "jump_dist": {"kind": "gamma", "params": {"shape": 1.0, "rate": 1.0}},
    "r": 0.05,
}
CAPPED_CFG = dict(TABLE1_CFG, payoff={"kind": "capped_call", "params": {"K": 2.0, "I": 1.0}})


@pytest.fixture
def cfg_file(tmp_path):
    def write(cfg, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)
    return write


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoot:
    def test_json_payload(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "root", "--config", cfg_file(FIG2_CFG))
        assert code == 0
        data = json.loads(out)
        assert data["k1"] == pytest.approx(1.7201413317334953, abs=1e-10)
        assert data["bracket_low"] < data["k1"] < data["bracket_high"]
        assert abs(data["residual"]) < 1e-12
        assert data["iterations"] > 0
        assert data["model"]["jump_scale"] == 1.0
        assert data["model"]["lambda"] == 0.02

    def test_out_file(self, capsys, cfg_file, tmp_path):
        dest = tmp_path / "root.json"
        code, out, _ = run_cli(capsys, "root", "--config", cfg_file(FIG2_CFG),
                               "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["k1"] == pytest.approx(1.72014, abs=1e-4)


class TestSolve:
    def test_json_payload(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "solve", "--config", cfg_file(FIG2_CFG),
                               "--x", "1.0")
        assert code == 0
        data = json.loads(out)
        assert data["x_star"] == pytest.approx(2.3886163117354204, abs=1e-9)
        assert data["x_star_low"] == pytest.approx(1.9567344090461676, abs=1e-9)
        assert data["x_star_high"] == pytest.approx(2.7547349162513908, abs=1e-9)
        assert data["theta_star"] == pytest.approx(0.05607782296729329, abs=1e-10)
        assert data["smooth_fit"] == "smooth"
        assert data["ratio_unimodal"] is True
        assert data["value"] == pytest.approx(0.310539622809711, abs=1e-10)
        assert data["certainty_time"] > 0.0
        assert data["unchecked_hypotheses"]  # stated, not silently assumed
        assert data["multiplier"] == pytest.approx(data["x_star"])

    def test_csv_grid(self, capsys, cfg_file, tmp_path):
        code, out, _ = run_cli(capsys, "solve", "--config", cfg_file(FIG2_CFG),
                               "--csv", "-", "--out", str(tmp_path / "s.json"))
        assert code == 0
        assert out.startswith("x,v_low,v,v_high\r\n")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 200
        for row in rows:
            lo, mid, hi = float(row["v_low"]), float(row["v"]), float(row["v_high"])
            assert lo <= mid + 1e-10
            assert mid <= hi + 1e-10

    def test_custom_grid_range(self, capsys, cfg_file, tmp_path):
        code, out, _ = run_cli(capsys, "solve", "--config", cfg_file(FIG2_CFG),
                               "--grid", "0.5:3.0:11", "--csv", "-",
                               "--out", str(tmp_path / "s.json"))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        assert float(rows[0]["x"]) == 0.5
        assert float(rows[-1]["x"]) == 3.0

    def test_capped_call_corner(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "solve", "--config", cfg_file(CAPPED_CFG))
        assert code == 0
        data = json.loads(out)
        assert data["x_star"] == 2.0
        assert data["smooth_fit"] == "broken"
        # corner gap is k1 (K - I) exactly
        assert data["smooth_fit_gap"] == pytest.approx(data["k1"], abs=1e-15)

    def test_payoff_required(self, capsys, cfg_file):
        code, _, err = run_cli(capsys, "solve", "--config", cfg_file(TABLE1_CFG))
        assert code == 2
        assert "payoff" in err

    @pytest.mark.parametrize("argv", [
        ["solve"], ["sweep", "--param", "sigma", "--range", "0.05:0.3:3"]])
    def test_payoff_flags_are_usage_errors(self, capsys, cfg_file, argv):
        # the payoff is stated once, in the config
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", cfg_file(CAPPED_CFG), *argv[1:],
                  "--payoff", "capped", "--K", "2", "--I", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --payoff capped --K 2 --I 1" in err


class TestReproduce:
    def test_table1_two_decimals(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--target", "table1")
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "lambda,0.05,0.10,0.15,0.20,0.25"
        table = {row[0]: row[1:] for row in csv.reader(io.StringIO(out))}
        assert table["0.1"][0] == "3.94"
        assert table["0.0"][0] == "0.15"
        computed = reproduce.table("table1")
        assert table["0.2"][-1] == f"{computed[2, -1]:.2f}"

    def test_full_precision_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--target", "table2",
                               "--precision", "full")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        values = reproduce.table("table2")
        got = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_array_equal(got, values)

    def test_byte_stability(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "reproduce", "--target", "table3")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_figure2_columns(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--target", "figure2")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == ["x", "g", "v", "v_r", "v_r_lambda"]
        assert len(rows) == 301
        for row in rows[::50]:
            assert float(row["v_r_lambda"]) <= float(row["v"]) + 1e-10
            assert float(row["v"]) <= float(row["v_r"]) + 1e-10

    def test_figure1_multiplier_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--target", "figure1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 46  # sigma = 0.05 .. 0.50 step 0.01
        for row in rows:
            assert float(row["p_hat_r_lambda"]) < float(row["p"]) < float(row["p_hat_r"])

    def test_figure_out_file(self, capsys, tmp_path):
        dest = tmp_path / "fig3.csv"
        code, out, _ = run_cli(capsys, "reproduce", "--target", "figure3",
                               "--out", str(dest))
        assert code == 0
        assert out == ""
        text = dest.read_bytes().decode()
        assert text.startswith("sigma,x_star,x_star_r_lambda,x_star_r\r\n")


class TestSweep:
    def test_sigma_sweep_monotonicity(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg_file(FIG2_CFG),
                               "--param", "sigma", "--range", "0.05:0.3:6")
        assert code == 0
        body, trailers = [], []
        for line in out.split("\r\n"):
            (trailers if line.startswith("#") else body).append(line)
        assert body[0] == "sigma,k1,x_star,theta_star,mu_hat"
        assert "# k1 strictly_decreasing" in trailers
        assert "# x_star strictly_increasing" in trailers
        rows = list(csv.DictReader(io.StringIO("\n".join(b for b in body if b))))
        assert len(rows) == 6
        k1s = [float(r["k1"]) for r in rows]
        assert all(a > b for a, b in zip(k1s, k1s[1:]))

    def test_lambda_sweep(self, capsys, cfg_file):
        # cap wide enough that every lambda stays on the interior branch;
        # a binding cap would pin x_star and break strict monotonicity
        cfg = dict(TABLE1_CFG, payoff={"kind": "capped_call", "params": {"K": 10.0, "I": 1.0}})
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg_file(cfg),
                               "--param", "lambda", "--range", "0.0:0.3:4")
        assert code == 0
        assert "# k1 strictly_decreasing" in out
        assert "# x_star strictly_increasing" in out

    def test_tabulated_payoff_cells_are_plain_floats(self, capsys, cfg_file):
        # a tabulated payoff's x_star is a numpy scalar; it must still be
        # written as a plain float
        cfg = dict(FIG2_CFG, payoff={"kind": "tabulated", "params": {
            "breakpoints": [0.5, 1.0, 2.0, 4.0], "values": [-1.0, 0.0, 1.5, 2.5]}})
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg_file(cfg),
                               "--param", "sigma", "--range", "0.05:0.15:3")
        assert code == 0
        body = [line for line in out.split("\r\n") if line and not line.startswith("#")]
        rows = list(csv.reader(body[1:]))
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 5
            for cell in row:
                float(cell)

    def test_threshold_pinned_at_cap_is_constant(self, capsys, cfg_file):
        # every sigma leaves x_star at the cap K = 2: a flat column is not a
        # counterexample to monotonicity
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg_file(CAPPED_CFG),
                               "--param", "sigma", "--range", "0.05:0.3:4")
        assert code == 0
        lines = out.split("\r\n")
        assert [row.split(",")[2] for row in lines[1:5]] == ["2.0"] * 4
        assert lines[5:] == ["# k1 strictly_decreasing", "# x_star constant", ""]

    @pytest.mark.parametrize("column, label", [
        ((0.5, 0.6, 0.7), "strictly_increasing"),
        ((0.7, 0.6, 0.5), "strictly_decreasing"),
        ((2.0, 2.0, 2.0), "constant"),
        ((1.892, 2.643, 3.089, 3.089, 3.089), "nondecreasing"),
        ((3.089, 3.089, 2.643), "nonincreasing"),
        ((0.5, 0.7, 0.6), "not_monotone"),
        ((0.5, math.nan, 0.7), "not_monotone"),
    ])
    def test_direction_labels(self, column, label):
        assert cli._direction(column) == label

    def test_bad_range(self, capsys, cfg_file):
        code, _, err = run_cli(capsys, "sweep", "--config", cfg_file(FIG2_CFG),
                               "--param", "sigma", "--range", "0.3:0.1:5")
        assert code == 2
        assert "range" in err


class TestSimulate:
    def test_json_contract(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg_file(TABLE1_CFG),
                               "--x", "0.0", "--y", "1.0", "--n", "4000",
                               "--seed", "3", "--assert")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"mean", "stderr", "n_paths", "horizon",
                             "truncation_bound", "seed", "target_analytic", "z_score"}
        assert data["n_paths"] == 4000
        assert data["seed"] == 3
        assert abs(data["z_score"]) < 4.0

    def test_policy_target_uses_payoff(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg_file(FIG2_CFG),
                               "--x", "1.0", "--y", "2.4", "--n", "3000", "--seed", "5")
        assert code == 0
        data = json.loads(out)
        # target is g(y) psi(x)/psi(y), not the bare Laplace transform
        assert data["target_analytic"] == pytest.approx(
            1.4 * (1.0 / 2.4) ** 1.7201413317334953, rel=1e-9)

    def test_zero_discount_with_horizon(self, capsys, cfg_file):
        # r = 0: a reached path is worth g(y) undiscounted, so the mean is
        # g(y) times the reached fraction, exactly, and no field is NaN
        cfg = dict(TABLE1_CFG, volatility=0.3, r=0.0,
                   payoff={"kind": "capped_call", "params": {"K": 3.0, "I": 1.0}})
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg_file(cfg), "--x", "1.0",
                               "--y", "2.0", "--n", "2000", "--seed", "1", "--horizon", "20")
        assert code == 0
        data = json.loads(out)
        model, payoff = model_from_config(cfg)
        tau = first_passage_times(model, 1.0, [2.0], 2000, seed=1, horizon=20.0)
        reached = float(np.isfinite(tau).mean())
        assert 0.0 < reached < 1.0
        assert data["mean"] == payoff.eval(2.0) * reached
        assert data["horizon"] == 20.0
        assert not any(isinstance(v, float) and math.isnan(v) for v in data.values())

    def test_deterministic_output(self, capsys, cfg_file):
        args = ("simulate", "--config", cfg_file(FIG2_CFG), "--x", "1.0",
                "--y", "2.0", "--n", "3000", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_start_above_barrier_targets_immediate_payoff(self, capsys, cfg_file):
        # x >= y stops at once: the policy is worth g(x) = min(3, 4) - 1, not g(y)
        cfg = dict(TABLE1_CFG, payoff={"kind": "capped_call", "params": {"K": 4.0, "I": 1.0}})
        code, out, err = run_cli(capsys, "simulate", "--config", cfg_file(cfg),
                                 "--x", "3", "--y", "2", "--assert")
        assert code == 0, err
        data = json.loads(out)
        assert data["mean"] == data["target_analytic"] == 2.0
        assert data["z_score"] == 0.0

    @pytest.mark.parametrize("cfg", [
        FIG2_CFG,
        dict(TABLE1_CFG, payoff={"kind": "capped_call", "params": {"K": 3.0, "I": 1.0}}),
    ], ids=["readme", "table1-capped"])
    def test_target_at_threshold_is_solve_value(self, capsys, cfg_file, cfg):
        # the target is the stop-at-y value g(max(x, y)) psi(x)/psi(y), which at
        # y = x* is V(x): the same digits as solve's value, above x* too
        path = cfg_file(cfg)
        _, out, _ = run_cli(capsys, "solve", "--config", path)
        y = repr(json.loads(out)["x_star"])
        geometric = cfg["family"] == "geometric"
        lo, hi = (0.0, 1.2 * float(y)) if geometric else (float(y) - 5.0, float(y) + 1.0)
        differ = []
        for x in map(repr, np.random.default_rng(7).uniform(lo, hi, 400).tolist()):
            _, out, _ = run_cli(capsys, "solve", "--config", path, f"--x={x}")
            value = json.loads(out)["value"]
            _, out, _ = run_cli(capsys, "simulate", "--config", path, "--x", x, "--y", y,
                                "--n", "2")
            if json.loads(out)["target_analytic"] != value:
                differ.append(x)
        assert differ == []

    def test_needs_target(self, capsys, cfg_file):
        code, _, err = run_cli(capsys, "simulate", "--config", cfg_file(TABLE1_CFG),
                               "--x", "0.0")
        assert code == 2
        assert "--y or --grid" in err

    def test_target_and_grid_are_exclusive(self, capsys, cfg_file):
        # both flags once ran the grid and dropped --y without a word
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg_file(FIG2_CFG), "--x", "1", "--y", "2.5",
                  "--grid", "2:3:3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --grid: not allowed with argument --y" in captured.err

    def test_grid_search_report(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg_file(FIG2_CFG),
                               "--x", "1.0", "--grid", "2.0:2.8:5", "--n", "4000",
                               "--seed", "7")
        assert code == 0
        data = json.loads(out)
        assert data["x_star_analytic"] == pytest.approx(2.3886163117354204, abs=1e-9)
        assert data["grid_spacing"] == pytest.approx(0.2)
        assert len(data["points"]) == 5
        levels = [p["y"] for p in data["points"]]
        assert data["best_y"] in levels
        if data["y_fit"] is not None:  # best_y is the level nearest the fitted vertex
            assert data["best_y"] == min(levels, key=lambda y: abs(y - data["y_fit"]))

    def test_grid_assert_detects_misplaced_grid(self, capsys, cfg_file):
        # grid far below the true threshold: best_y cannot be within one step
        code, out, err = run_cli(capsys, "simulate", "--config", cfg_file(FIG2_CFG),
                                 "--x", "1.0", "--grid", "1.05:1.25:3", "--n", "2000",
                                 "--seed", "7", "--assert")
        assert code == 4
        assert "contract" in err
        json.loads(out)  # the report is still emitted

    def test_grid_from_above_the_threshold_passes_assert(self, capsys, cfg_file):
        # every level at or below x = 2.5 is worth g(2.5) = 1.5, which beats
        # waiting for the levels above: best_y is the largest level below x
        code, out, err = run_cli(capsys, "simulate", "--config", cfg_file(FIG2_CFG),
                                 "--x", "2.5", "--grid", "2.0:2.8:5", "--n", "20000",
                                 "--seed", "3", "--assert")
        assert code == 0, err
        data = json.loads(out)
        assert data["best_y"] == 2.4
        assert data["y_fit"] is None  # the best level is passed at time 0: nothing to fit
        assert [p["mean"] for p in data["points"][:3]] == [1.5, 1.5, 1.5]

    def test_grid_from_above_the_threshold_stops_now(self, capsys, cfg_file):
        # x = 3 > x* = 2.3886 and every level lies below x, so each is worth
        # g(3) = 2 with zero stderr and the tie goes to 2.9, five steps from x*:
        # the claim checked is "stop now", not "best_y within one step of x*"
        code, out, err = run_cli(capsys, "simulate", "--config", cfg_file(FIG2_CFG),
                                 "--x", "3.0", "--grid", "1.5:2.9:15", "--n", "2000",
                                 "--seed", "1", "--assert")
        assert code == 0, err
        data = json.loads(out)
        assert data["best_y"] == 2.9
        assert {(p["mean"], p["stderr"]) for p in data["points"]} == {(2.0, 0.0)}

    def test_grid_assert_from_above_detects_a_better_level(self, capsys, cfg_file,
                                                            monkeypatch):
        # a level whose estimate beats g(x) beyond its 3-sigma bound breaks "stop now"
        from levystop import mc
        search = mc.threshold_grid_search

        def inflated(*args, **kwargs):
            result = search(*args, **kwargs)
            first, *rest = result.estimates
            return replace(result, estimates=(replace(first, mean=first.mean + 1.0), *rest))
        monkeypatch.setattr(mc, "threshold_grid_search", inflated)
        code, out, err = run_cli(capsys, "simulate", "--config", cfg_file(FIG2_CFG),
                                 "--x", "3.0", "--grid", "1.5:2.9:15", "--n", "2000",
                                 "--seed", "1", "--assert")
        assert code == 4
        assert err == ("statistical contract violated: "
                       "a level beats stopping now beyond 3 stderr + truncation\n")
        json.loads(out)

    def test_grid_needs_payoff(self, capsys, cfg_file):
        code, _, err = run_cli(capsys, "simulate", "--config", cfg_file(TABLE1_CFG),
                               "--x", "0.0", "--grid", "1.0:2.0:3")
        assert code == 2
        assert "payoff" in err


class TestExitCodes:
    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, "root", "--config", "/nonexistent.json")
        assert code == 2
        assert "cannot read config" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "root", "--config", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_invalid_family(self, capsys, cfg_file):
        cfg = dict(TABLE1_CFG, family="brownian")
        code, _, err = run_cli(capsys, "root", "--config", cfg_file(cfg))
        assert code == 2

    def test_nonpositive_volatility(self, capsys, cfg_file):
        cfg = dict(TABLE1_CFG, volatility=0.0)
        code, _, _ = run_cli(capsys, "root", "--config", cfg_file(cfg))
        assert code == 2

    def test_power_payoff_arithmetic_rejected(self, capsys, cfg_file):
        cfg = dict(TABLE1_CFG)
        cfg["payoff"] = {"kind": "power_call", "params": {"a": 1.0, "b": 1.0, "K": 1.0}}
        code, _, _ = run_cli(capsys, "root", "--config", cfg_file(cfg))
        assert code == 2

    def test_undominated_payoff_is_numerical_failure(self, capsys, cfg_file):
        cfg = {
            "family": "geometric", "drift": 0.04, "volatility": 0.25,
            "lambda": 0.01,
            "jump_dist": {"kind": "beta", "params": {"c": 1.25, "d": 2.0}},
            "r": 0.02,
            "payoff": {"kind": "power_call", "params": {"a": 1.0, "b": 1.0, "K": 1.0}},
        }
        code, _, err = run_cli(capsys, "solve", "--config", cfg_file(cfg))
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize("flags", [
        ("--y", "2.0", "--n", "1"),
        ("--y", "2.0", "--n", "0"),
        ("--grid", "2.0:2.8:5", "--n", "1"),
        ("--y", "2.0", "--horizon", "-1"),
        ("--y", "2.0", "--horizon", "0"),
        ("--y", "2.0", "--horizon", "nan"),
        ("--grid", "2.0:2.8:5", "--horizon", "inf"),
        ("--y", "2.0", "--x", "nan"),
        ("--y", "0.5", "--n", "0"),  # start above the barrier: n is still checked
        ("--y", "0.5", "--n", "1"),
        ("--y", "2.0", "--x", "-1"),  # geometric states must be positive
        ("--y", "-1", "--x", "3"),  # and barriers, even below the start
        ("--y", "2.0", "--n", "100", "--seed", "-1"),  # numpy seeds are nonnegative
    ])
    def test_bad_simulation_input(self, capsys, cfg_file, flags):
        code, out, err = run_cli(capsys, "simulate", "--config", cfg_file(FIG2_CFG),
                                 "--x", "1.0", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, flag", [
        ("solve", "--grid"), ("sweep", "--range"), ("simulate", "--grid")])
    @pytest.mark.parametrize("text", [
        "nan:3:5", "0:nan:5", "0:inf:3", "-inf:3:3", "-1e308:1e308:3"])
    def test_non_finite_range_is_invalid_input(self, capsys, cfg_file, command, flag, text):
        extra = {"solve": ["--csv", "-"], "sweep": ["--param", "sigma"],
                 "simulate": ["--x", "1.0", "--n", "100"]}[command]
        code, out, err = run_cli(capsys, command, "--config", cfg_file(FIG2_CFG),
                                 *extra, f"{flag}={text}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("command, flag", [
        ("solve", "--grid"), ("sweep", "--range"), ("simulate", "--grid")])
    @pytest.mark.parametrize("n", [10 ** 12, 10 ** 19], ids=["7TiB", "above-intp"])
    def test_oversized_range_is_invalid_input(self, capsys, cfg_file, command, flag, n):
        # 10**12 points need 7.3 TiB, so the allocation fails at once; 10**19
        # is more elements than any numpy array holds
        extra = {"solve": ["--csv", "-"], "sweep": ["--param", "sigma"],
                 "simulate": ["--x", "1.0", "--n", "100"]}[command]
        code, out, err = run_cli(capsys, command, "--config", cfg_file(FIG2_CFG),
                                 *extra, f"{flag}=1:2:{n}")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: range of {n} points is too large: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, empty", [
        (["root", "--out"], False), (["solve", "--csv"], False),
        (["reproduce", "--target", "table1", "--out"], False),
        (["root", "--out"], True), (["solve", "--csv"], True), (["solve", "--out"], True),
        (["reproduce", "--target", "table1", "--out"], True)],
        ids=["root-out", "solve-csv", "reproduce-out",
             "root-out-empty", "solve-csv-empty", "solve-out-empty", "reproduce-out-empty"])
    def test_unwritable_output_is_invalid_input(self, capsys, cfg_file, tmp_path, argv, empty):
        # a path in a missing directory names no writable file, and "" names none at all
        config = [] if argv[0] == "reproduce" else ["--config", cfg_file(FIG2_CFG)]
        target = "" if empty else str(tmp_path / "missing" / "out")
        code, out, err = run_cli(capsys, argv[0], *config, *argv[1:], target)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert repr(target) in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_state_is_invalid_input(self, capsys, cfg_file, x):
        code, out, err = run_cli(capsys, "solve", "--config", cfg_file(FIG2_CFG), f"--x={x}")
        assert code == 2
        assert out == ""
        assert err == f"error: --x must be a finite number, got {float(x)}\n"

    def test_request_too_large_to_allocate(self, capsys, cfg_file, monkeypatch):
        # stands in for a --grid too long for memory, without allocating one
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        monkeypatch.setattr("levystop.mc._simulate_chunk", no_memory)
        code, out, err = run_cli(capsys, "simulate", "--config", cfg_file(FIG2_CFG),
                                 "--x", "1", "--grid", "2:3:5", "--n", "100")
        assert code == 2
        assert out == ""
        assert err.startswith("error: request too large to allocate: ")
        assert err.count("\n") == 1

    def test_paths_beyond_memory_exit_2_at_once(self, cfg_file):
        # a fresh process: the whole multi-chunk result is allocated before
        # the first path, so this n fails at once instead of growing until killed
        proc = subprocess.run([sys.executable, "-m", "levystop.cli", "simulate",
                               "--config", cfg_file(FIG2_CFG), "--x", "1.0", "--y", "2.0",
                               "--n", "100000000000000"],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: request too large to allocate: ")
        assert proc.stderr.count("\n") == 1

    def test_tiny_discount_without_horizon_exits_2_at_once(self, cfg_file):
        # a fresh process: an infinite default horizon would never retire the
        # paths that cannot reach y, and simulate would run until killed
        cfg = {"family": "arithmetic", "drift": -0.3, "volatility": 0.4, "lambda": 1.0,
               "jump_dist": {"kind": "exponential", "params": {"rate": 10.0}}, "r": 1e-310}
        proc = subprocess.run([sys.executable, "-m", "levystop.cli", "simulate",
                               "--config", cfg_file(cfg),
                               "--x", "0", "--y", "0.3", "--n", "100", "--seed", "1"],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: r = 1e-310 gives no finite default horizon; "
                               "pass --horizon\n")

    @pytest.mark.parametrize("r, horizon", [("1e-300", []), ("1e-310", ["--horizon", "1e12"])],
                             ids=["default", "explicit"])
    def test_huge_horizon_exits_2_at_once(self, cfg_file, r, horizon):
        # a fresh process: paths that cannot reach y walk through about
        # lambda T jump gaps, one engine pass each, and a finite but huge T
        # (9.2e300 by default at r = 1e-300) ran until killed
        cfg = {"family": "arithmetic", "drift": -0.3, "volatility": 0.4, "lambda": 1.0,
               "jump_dist": {"kind": "exponential", "params": {"rate": 10.0}}, "r": float(r)}
        proc = subprocess.run([sys.executable, "-m", "levystop.cli", "simulate",
                               "--config", cfg_file(cfg), *horizon,
                               "--x", "0", "--y", "0.3", "--n", "100", "--seed", "1"],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: lambda * horizon = ")
        assert proc.stderr.endswith("; pass a shorter --horizon\n")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_subnormal_k1_tabulated_threshold_exits_3(self, capsys, cfg_file, command):
        # k1 = 5e-324 makes the first-order cubic's companion matrix overflow
        cfg = {"family": "arithmetic", "drift": 1.0, "volatility": 1.0, "lambda": 0,
               "r": 5e-324, "payoff": {"kind": "tabulated", "params": {
                   "breakpoints": [0.0, 1.0, 2.0], "values": [-1.0, 0.5, 2.0]}}}
        extra = ["--param", "lambda", "--range", "0:1:3"] if command == "sweep" else []
        code, out, err = run_cli(capsys, command, "--config", cfg_file(cfg), *extra)
        assert code == 3
        assert out == ""
        assert err == ("numerical failure: first-order cubic of the piece at 0.0 "
                       "is not finite at k1 = 5e-324\n")

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_bad_exponential_rate_names_its_law(self, capsys, cfg_file, rate):
        # exponential marks reuse the gamma law's maths, not its message
        cfg = dict(TABLE1_CFG, jump_dist={"kind": "exponential", "params": {"rate": rate}})
        code, out, err = run_cli(capsys, "root", "--config", cfg_file(cfg))
        assert code == 2
        assert out == ""
        assert err == "error: exponential jump law needs rate > 0\n"

    @pytest.mark.parametrize("key,value", [
        ("drift", float("nan")),
        ("drift", float("inf")),
        ("drift", "abc"),
        ("volatility", None),
        ("lambda", True),
        ("r", 10 ** 400),
        ("jump_dist", "beta"),
        ("jump_dist", {"kind": "beta", "params": {"c": 1.25, "d": float("-inf")}}),
        ("jump_dist", {"kind": ["beta"], "params": {}}),
        ("jump_dist", {"kind": "beta", "params": [1.25, 5.0]}),
        ("payoff", {"kind": "power_call", "params": {"a": 1.0, "b": 1.0, "K": float("inf")}}),
        ("payoff", {"kind": "power_call", "params": {"a": 1.0, "b": [1.0], "K": 1.0}}),
    ])
    def test_bad_config_value(self, capsys, cfg_file, key, value):
        cfg = dict(FIG2_CFG, **{key: value})
        for command in ("root", "solve"):
            code, out, err = run_cli(capsys, command, "--config", cfg_file(cfg))
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert key in err

    @pytest.mark.parametrize("command,base,key,value,expected", [
        # the characteristic equation turns NaN inside brentq
        ("root", TABLE1_CFG, "drift", -1e257, 3),
        ("root", FIG2_CFG, "r", 1e308, 3),
        # c + d overflows: rejected with the config
        ("root", FIG2_CFG, "jump_dist", {"kind": "beta", "params": {"c": 1e308, "d": 1e308}}, 2),
        # sigma**2 overflows
        ("root", FIG2_CFG, "volatility", 1e308, 3),
        # k1 and its residual come out NaN
        ("root", TABLE1_CFG, "lambda", 1e308, 3),
        # PCHIP slopes are not finite
        ("solve", TABLE1_CFG, "payoff", {"kind": "tabulated", "params": {
            "breakpoints": [-0.5, 0.2, 0.9, 1e308], "values": [-0.4, -0.1, 0.5, 1.2]}}, 2),
        # the break-even point K/a overflows, or x*/grid spacing does
        ("solve", FIG2_CFG, "payoff", {"kind": "power_call",
                                       "params": {"a": 5e-324, "b": 1.0, "K": 1.0}}, 3),
        ("solve", FIG2_CFG, "payoff", {"kind": "power_call",
                                       "params": {"a": 1.0, "b": 1.0, "K": 5e-324}}, 3),
        ("sweep", FIG2_CFG, "payoff", {"kind": "power_call",
                                       "params": {"a": 5e-324, "b": 1.0, "K": 1.0}}, 3),
    ])
    def test_extreme_values_fail_cleanly(self, capsys, cfg_file, command, base, key, value,
                                         expected):
        extra = ["--param", "sigma", "--range", "0.05:0.3:3"] if command == "sweep" else []
        code, out, err = run_cli(capsys, command, "--config", cfg_file(dict(base, **{key: value})),
                                 *extra)
        assert code == expected
        assert out == ""
        assert err.startswith(("error: ", "numerical failure: ")) and err.count("\n") == 1

    def test_state_outside_domain_is_invalid_input(self, capsys, cfg_file):
        for x in ("0", "-1"):  # one message for the floor and below it
            code, out, err = run_cli(capsys, "solve", "--config", cfg_file(FIG2_CFG), f"--x={x}")
            assert (code, out, err) == (2, "", "error: geometric states must be above 0.0\n")

    def test_overlong_integer_is_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(FIG2_CFG).replace("0.025", "1" * 5000))
        code, _, err = run_cli(capsys, "root", "--config", str(path))
        assert code == 2
        assert "not valid JSON" in err


class TestWriter:
    """An output file holds exactly the bytes stdout gets without it."""

    @pytest.mark.parametrize("argv", [
        ["root"],
        ["sweep", "--param", "sigma", "--range", "0.05:0.3:4"],
        ["reproduce", "--target", "table1", "--precision", "2"],
        ["reproduce", "--target", "table2", "--precision", "full"],
        ["reproduce", "--target", "figure1"],
        ["simulate", "--x", "1.0", "--y", "2.0", "--n", "500", "--seed", "3"],
        ["simulate", "--x", "1.0", "--grid", "2.0:2.8:3", "--n", "500", "--seed", "3"],
    ], ids=["root", "sweep", "table-2dp", "table-full", "figure", "simulate-y", "simulate-grid"])
    def test_out_file_matches_stdout(self, capsys, cfg_file, tmp_path, argv):
        config = [] if argv[0] == "reproduce" else ["--config", cfg_file(FIG2_CFG)]
        code, printed, err = run_cli(capsys, argv[0], *config, *argv[1:])
        assert (code, err) == (0, "") and printed
        target = tmp_path / "out"
        code, out, err = run_cli(capsys, argv[0], *config, *argv[1:], "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_bytes() == printed.encode()

    def test_solve_csv_file_matches_stdout(self, capsys, cfg_file, tmp_path):
        argv = ["solve", "--config", cfg_file(FIG2_CFG), "--x", "1.0"]
        code, printed, err = run_cli(capsys, *argv, "--csv", "-")
        assert (code, err) == (0, "")
        grid, payload = tmp_path / "grid.csv", tmp_path / "out.json"
        code, out, err = run_cli(capsys, *argv, "--csv", str(grid))
        assert (code, err) == (0, "")
        assert printed.encode() == out.encode() + grid.read_bytes()
        assert grid.read_bytes().startswith(b"x,v_low,v,v_high\r\n")
        code, out, err = run_cli(capsys, *argv, "--csv", str(grid), "--out", str(payload))
        assert (code, out, err) == (0, "", "")
        assert printed.encode() == payload.read_bytes() + grid.read_bytes()


def _csv_reference(header, rows, trailer=()) -> str:
    """What csv.writer writes for the same cells: the bytes `_csv_text` keeps."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    buf.writelines(f"# {line}\r\n" for line in trailer)
    return buf.getvalue()


class TestCsvText:
    """`_csv_text` writes the bytes csv.writer writes for every cell the CLI passes."""

    EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 123456789012345678.0,
                   math.inf, -math.inf, math.nan]

    def test_edge_floats(self):
        rows = [[v, -v, "k1"] for v in self.EDGE_FLOATS]
        header = ["x", "lambda", "0.05"]
        text = cli._csv_text(header, rows, ["k1 constant"])
        assert text == _csv_reference(header, rows, ["k1 constant"])
        assert text.splitlines()[1:4] == ["-0.0,0.0,k1", "5e-324,-5e-324,k1", "1e-05,-1e-05,k1"]

    def test_empty_rows(self):
        assert cli._csv_text(["x", "v"], []) == _csv_reference(["x", "v"], []) == "x,v\r\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "--x", "1.0", "--csv", "-"],
        ["reproduce", "--target", "table1", "--precision", "2"],
        ["reproduce", "--target", "table3", "--precision", "full"],
        ["reproduce", "--target", "figure2"],
        ["sweep", "--param", "lambda", "--range", "0.0:0.3:4"],
    ], ids=["solve-grid", "table-2dp", "table-full", "figure", "sweep"])
    def test_cli_tables_match_csv_writer(self, capsys, cfg_file, monkeypatch, argv):
        calls, real = [], cli._csv_text

        def spy(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(cli, "_csv_text", spy)
        config = [] if argv[0] == "reproduce" else ["--config", cfg_file(FIG2_CFG)]
        code, out, err = run_cli(capsys, argv[0], *config, *argv[1:])
        assert (code, err) == (0, "")
        [(args, text)] = calls
        assert text == _csv_reference(*args)
        assert out.endswith(text) and args[1]  # the rows
        assert (len(args) == 3) == (argv[0] == "sweep")  # only a sweep has trailers


class TestRepeatedCalls:
    """main() builds its parser once; no call may see another call's options."""

    def test_sequence_matches_fresh_processes(self, capsys, cfg_file):
        table1 = cfg_file(TABLE1_CFG, "table1.json")
        fig2 = cfg_file(FIG2_CFG, "fig2.json")
        bad = cfg_file(dict(FIG2_CFG, drift="abc"), "bad.json")
        requests = [
            (["solve", "--config", fig2, "--x", "1.0", "--csv", "-"], 0),
            (["solve", "--config", fig2], 0),  # neither --x nor --csv may carry over
            (["solve", "--config", table1], 2),
            (["sweep", "--config", fig2, "--param", "sigma", "--range", "0.05:0.3:6"], 0),
            (["reproduce", "--target", "table1"], 0),
            (["root", "--config", fig2], 0),
            (["reproduce", "--target", "table9"], None),  # argparse rejects it
            (["root", "--config", bad], 2),
        ]
        with ThreadPoolExecutor(max_workers=2) as pool:
            fresh = list(pool.map(
                lambda argv: subprocess.run([sys.executable, "-m", "levystop.cli", *argv],
                                            capture_output=True, timeout=120),
                [argv for argv, _ in requests]))
        assert build_parser() is build_parser()
        for (argv, expected), proc in zip(requests, fresh):
            if expected is None:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                code, expected = exc.value.code, 2
            else:
                code = main(argv)
            captured = capsys.readouterr()
            assert code == proc.returncode == expected, argv
            assert captured.out.encode() == proc.stdout, argv
            assert captured.err.encode() == proc.stderr, argv


def _paths(node, prefix=()):
    """Every key path in a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


TABULATED_CFG = dict(TABLE1_CFG, jump_dist={
    "kind": "tabulated", "params": {"nodes": [0.2, 0.8], "weights": [0.4, 0.6]}},
    payoff={"kind": "tabulated", "params": {
        "breakpoints": [-0.5, 0.2, 0.9, 1.6], "values": [-0.4, -0.1, 0.5, 1.2]}})
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-10 ** 400, 10 ** 400),
    st.floats(), st.lists(st.floats(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.floats(), max_size=2))


class TestConfigMutations:
    """Any config, however broken, ends in exit 0, 2 or 3 with a one-line message."""

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(base=st.sampled_from([FIG2_CFG, CAPPED_CFG, TABULATED_CFG]),
           command=st.sampled_from(["root", "solve"]), data=st.data())
    def test_exit_code_contract(self, capsys, tmp_path, base, command, data):
        cfg = copy.deepcopy(base)
        for _ in range(data.draw(st.integers(1, 3))):
            paths = list(_paths(cfg))
            kind = data.draw(st.sampled_from(["set", "drop", "extra", "nest"]))
            if kind == "extra":
                parent = _at(cfg, data.draw(st.sampled_from(
                    [p for p in paths if isinstance(_at(cfg, p), dict)])))
                key = data.draw(st.one_of(st.sampled_from(["K", "c", "lambda", "params"]),
                                          st.text(max_size=3)))
                parent[key] = data.draw(JSON_VALUES)
                continue
            inner = [p for p in paths[1:] if kind != "drop" or isinstance(_at(cfg, p[:-1]), dict)]
            if not inner:
                continue
            path = data.draw(st.sampled_from(inner))
            parent, key = _at(cfg, path[:-1]), path[-1]
            if kind == "set":
                parent[key] = data.draw(JSON_VALUES)
            elif kind == "drop":
                del parent[key]
            else:
                parent[key] = data.draw(st.sampled_from([
                    [parent[key]], {"kind": "beta", "params": parent[key]}, {"value": parent[key]}]))
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code in (0, 2, 3), (cfg, err)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
            json.loads(out, parse_constant=pytest.fail)  # no NaN or Infinity
        else:
            assert out == ""
            assert err.startswith(("error: ", "numerical failure: ")) and err.count("\n") == 1, err


def _load(path: Path):
    """Import a script outside the package by path (dataclasses need it in sys.modules)."""
    name = f"_corpus_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCorpus:
    """tools/cli_corpus.py, the byte-diff harness, runs end to end in-process."""

    def test_every_request_exits_as_expected(self):
        root = Path(__file__).resolve().parent.parent
        corpus = _load(root / "tools" / "cli_corpus.py")
        problems = _load(root / "perfbench" / "problems.py")
        records = list(corpus.results(problems, main))
        assert len(records) == 517
        errors = {r["request"]: r for r in records if r["request"].startswith("error ")}
        assert {name: r["exit"] for name, r in errors.items()} == {
            "error bad drift": 2, "error undominated power": 3}
        for r in errors.values():
            assert r["stdout"] == "" and r["stderr"].count("\n") == 1, r["request"]
        violated = {r["request"]: r for r in records if r["exit"] == 4}
        assert list(violated) == ["not one threshold simulate grid assert"]
        assert [r["stderr"] for r in violated.values()] == [
            "statistical contract violated: a level beats stopping now beyond 3 stderr "
            "+ truncation\n"]
        failed = [r["request"] for r in records if r["request"] not in errors
                  and r["request"] not in violated and (r["exit"] != 0 or r["stderr"])]
        assert failed == []


class TestCorpusDiff:
    """tools/corpus_diff.py on two small synthetic corpora."""

    K1 = 0.6295591279614878  # TABLE1_CFG's k1 from the package, 2.6 ulp above the exact root

    def corpora(self):
        def record(name, stdout, argv=("root",), code=0, stderr=""):
            return {"request": name, "argv": list(argv), "exit": code,
                    "stdout": stdout, "stderr": stderr}
        root_argv = ("root", "--config", json.dumps(TABLE1_CFG))
        sweep = "sigma,k1\r\n0.05,1.5\r\n0.1,2.5\r\n# k1 strictly_increasing\r\n"
        old = [record("same", '{"k1": 1.0}\n'),
               record("json", json.dumps({"k1": self.K1, "note": "a"}) + "\n", root_argv),
               record("csv", sweep),
               record("failing", "", code=3, stderr="numerical failure: x\n"),
               record("gone", "")]
        new = [old[0],
               record("json", json.dumps({"k1": self.K1 + 2 * math.ulp(self.K1), "note": "a"})
                      + "\n", root_argv),
               record("csv", sweep.replace("2.5", "2.0").replace("strictly", "not")),
               record("failing", '{"k1": 1.0}\n'),
               record("new", "")]
        return {r["request"]: r for r in old}, {r["request"]: r for r in new}

    def test_lists_every_moved_field(self):
        diff = _load(Path(__file__).resolve().parent.parent / "tools" / "corpus_diff.py")
        old, new = self.corpora()
        buf = io.StringIO()
        assert diff.report(old, new, verdict=False, out=buf) == 1
        assert buf.getvalue().splitlines() == [
            "1 identical, 3 moved, 1 added, 1 removed",
            "moved: json",
            f"  k1: {self.K1!r} -> {self.K1 + 2 * math.ulp(self.K1)!r}  (rel 3.53e-16)",
            "moved: csv",
            "  csv[1].k1: '2.5' -> '2.0'  (rel 0.2)",
            "  csv#0: 'k1 strictly_increasing' -> 'k1 not_increasing'",
            "moved: failing",
            "  exit: 3 -> 0",
            "  stderr: 'numerical failure: x\\n' -> ''",
            "  k1: '(missing)' -> 1.0",
            "added: new",
            "removed: gone",
        ]
        same = io.StringIO()
        assert diff.report(old, old, verdict=False, out=same) == 0
        assert same.getvalue() == "5 identical, 0 moved, 0 added, 0 removed\n"

    def test_verdict_counts_ulps_from_the_exact_root(self):
        diff = _load(Path(__file__).resolve().parent.parent / "tools" / "corpus_diff.py")
        old, new = self.corpora()
        del old["csv"], new["csv"]  # a synthetic sweep has no root to re-solve
        buf = io.StringIO()
        diff.report(old, new, verdict=True, out=buf)
        lines = buf.getvalue().splitlines()
        verdicts = [line for line in lines if line.startswith("  verdict ")]
        assert len(verdicts) == 1 and verdicts[0].startswith("  verdict k1: old ")
        was, now = (float(v) for v in re.findall(r"([-+][0-9.]+) ulp", verdicts[0]))
        assert was == pytest.approx(2.6, abs=0.05)
        assert now - was == pytest.approx(2.0, abs=1e-6)
        assert lines[-1].startswith("verdict: 1 moved k1, worst |error| old ")
        # two more roots, so that each side's median differs from its worst
        ulp = math.ulp(self.K1)
        for name, a, b in (("json2", -6, -1), ("json3", 10, -3)):
            for corpus, shift in ((old, a), (new, b)):
                corpus[name] = dict(corpus["json"], request=name,
                                    stdout=json.dumps({"k1": self.K1 + shift * ulp}) + "\n")
        buf = io.StringIO()
        diff.report(old, new, verdict=True, out=buf)
        summary = buf.getvalue().splitlines()[-1]
        assert summary.startswith("verdict: 3 moved k1, worst |error| old ")
        worst_old, worst_new, median_old, median_new = (
            float(v) for v in re.findall(r"([0-9.]+) ulp", summary))
        assert (worst_old, worst_new) == pytest.approx((was + 10, now), abs=0.11)
        assert (median_old, median_new) == pytest.approx((6 - was, now - 3), abs=0.11)

    def test_verdict_judges_closed_form_thresholds(self):
        # g = (x - 1)^+ on the geometric family: x* = k/(k - 1) at each printed root,
        # 3 at k1 = 1.5, 2 at bracket_high = 2 and 5 at bracket_low = 1.25
        diff = _load(Path(__file__).resolve().parent.parent / "tools" / "corpus_diff.py")
        payload = {"model": dict(FIG2_CFG), "k1": 1.5, "bracket_low": 1.25, "bracket_high": 2.0,
                   "x_star": 3.0, "x_star_low": 2.0, "x_star_high": 5.0}
        old = {"request": "solve", "argv": ["solve", "--config", json.dumps(FIG2_CFG)],
               "exit": 0, "stdout": json.dumps(payload) + "\n", "stderr": ""}
        moved = dict(payload, x_star=math.nextafter(3.0, 4.0), x_star_low=2.0 - 2 * math.ulp(2.0))
        new = dict(old, stdout=json.dumps(moved) + "\n")
        buf = io.StringIO()
        assert diff.report({"solve": old}, {"solve": new}, verdict=True, out=buf) == 1
        lines = buf.getvalue().splitlines()
        assert [line for line in lines if line.startswith("  verdict ")] == [
            "  verdict x_star from k1: old +0.0 ulp, new +1.0 ulp",
            "  verdict x_star_low from bracket_high: old +0.0 ulp, new -2.0 ulp"]
        assert lines[-2] == ("verdict: 2 moved closed-form thresholds (0 more not judged), "
                             "worst |error| old 0.0 ulp, new 2.0 ulp; "
                             "median |error| old 0.0 ulp, new 1.5 ulp")
        # a tabulated threshold has no closed form to judge it by
        tabulated = {"kind": "tabulated",
                     "params": {"breakpoints": [0.5, 1.0, 2.0], "values": [-0.5, 0.0, 1.0]}}
        for record in (old, new):
            obj = json.loads(record["stdout"])
            obj["model"]["payoff"] = tabulated
            record["stdout"] = json.dumps(obj) + "\n"
        buf = io.StringIO()
        diff.report({"solve": old}, {"solve": new}, verdict=True, out=buf)
        lines = buf.getvalue().splitlines()
        assert "  verdict x_star from k1: not judged (tabulated payoff)" in lines
        assert lines[-2].startswith("verdict: 0 moved closed-form thresholds (2 more not judged)")

    def test_verdict_judges_sweep_thresholds_by_their_config_payoff(self):
        # a sweep's x_star cell is judged at its row's k1 for the payoff of its config,
        # here the capped call K 2, I 1: on the arithmetic family x* = I + 1/k while
        # k (K - I) >= 1 (1.5 at k = 2), on the geometric x* = k I/(k - 1) while
        # k (K - I) >= K (1.5 at k = 3), and the cap K = 2 otherwise (at k = 0.5, 1.5)
        diff = _load(Path(__file__).resolve().parent.parent / "tools" / "corpus_diff.py")

        def record(name, cfg, rows):
            lines = ["sigma,k1,x_star,theta_star,mu_hat",
                     *(f"{s!r},{k!r},{x!r},0.5,0.5" for s, k, x in rows)]
            return {"request": name, "argv": ["sweep", "--config", json.dumps(cfg), "--param",
                                              "sigma", "--range", "0.1:0.2:2"],
                    "exit": 0, "stdout": "\r\n".join(lines) + "\r\n", "stderr": ""}
        geometric = dict(FIG2_CFG, payoff=CAPPED_CFG["payoff"])
        old = {"geometric": record("geometric", geometric, [(0.1, 3.0, 1.5), (0.2, 1.5, 2.0)]),
               "arithmetic": record("arithmetic", CAPPED_CFG, [(0.1, 2.0, 1.5), (0.2, 0.5, 2.0)])}
        new = {"geometric": record("geometric", geometric,
                                   [(0.1, 3.0, math.nextafter(1.5, 2.0)), (0.2, 1.5, 2.0)]),
               "arithmetic": record("arithmetic", CAPPED_CFG,
                                    [(0.1, 2.0, math.nextafter(1.5, 1.0)),
                                     (0.2, 0.5, math.nextafter(2.0, 3.0))])}
        buf = io.StringIO()
        assert diff.report(old, new, verdict=True, out=buf) == 1
        lines = buf.getvalue().splitlines()
        assert [line for line in lines if line.startswith("  verdict ")] == [
            "  verdict csv[0].x_star from csv[0].k1: old +0.0 ulp, new +1.0 ulp",
            "  verdict csv[0].x_star from csv[0].k1: old +0.0 ulp, new -1.0 ulp",
            "  verdict csv[1].x_star from csv[1].k1: old +0.0 ulp, new +1.0 ulp"]
        assert lines[-2] == ("verdict: 3 moved closed-form thresholds (0 more not judged), "
                             "worst |error| old 0.0 ulp, new 1.0 ulp; "
                             "median |error| old 0.0 ulp, new 1.0 ulp")

    def test_verdict_sums_up_moved_simulate_records(self):
        diff = _load(Path(__file__).resolve().parent.parent / "tools" / "corpus_diff.py")

        def record(name, flag, payload):
            return {"request": name, "argv": ["simulate", "--x", "1.0", flag, "2.0"], "exit": 0,
                    "stdout": json.dumps(payload, indent=2) + "\n", "stderr": ""}
        one = {"mean": 0.5, "stderr": 0.01, "z_score": 0.25}
        grid = {"best_y": 2.0, "points": [{"y": 1.0, "mean": 0.0, "stderr": 0.0},
                                          {"y": 2.0, "mean": 0.4, "stderr": 0.02},
                                          {"y": 3.0, "mean": 0.3, "stderr": 0.01}]}
        moved_grid = json.loads(json.dumps(grid))
        moved_grid["points"][1].update(mean=0.43, stderr=0.021)  # 1.5 old stderr
        moved_grid["points"][2]["mean"] = 0.31  # 1.0 old stderr
        old = {"y": record("y", "--y", one), "grid": record("grid", "--grid", grid),
               "other": record("other", "--y", one)}
        new = {"y": record("y", "--y", dict(one, mean=0.5 + 2 * math.ulp(0.5), stderr=0.0125)),
               "grid": record("grid", "--grid", moved_grid), "other": old["other"]}
        buf = io.StringIO()
        assert diff.report(old, new, verdict=True, out=buf) == 1
        assert buf.getvalue().splitlines()[-3] == (
            "verdict: 1 moved simulate --y, worst relative move of mean 4.44e-16, of stderr "
            "0.25; 1 moved simulate --grid, worst |new - old| point mean 1.5 old stderr")
        # a point that was exact (stderr 0) and moved is infinitely far
        moved_grid["points"][0]["mean"] = 0.1
        new["grid"] = record("grid", "--grid", moved_grid)
        buf = io.StringIO()
        diff.report(old, new, verdict=True, out=buf)
        assert buf.getvalue().splitlines()[-3].endswith("point mean inf old stderr")

    def test_parent_corpus_comes_from_the_parents_own_script(self, monkeypatch, tmp_path):
        # --parent REV: REV's tools/cli_corpus.py runs on REV's src/, so a request
        # only one side's list has shows as added or removed, not as moved
        root = Path(__file__).resolve().parent.parent
        diff = _load(root / "tools" / "corpus_diff.py")
        empty = io.BytesIO()
        tarfile.open(fileobj=empty, mode="w").close()
        calls = []

        def run(cmd, **kwargs):
            calls.append(cmd)
            return subprocess.CompletedProcess(cmd, 0, stdout=empty.getvalue())

        monkeypatch.setattr(diff.subprocess, "run", run)
        diff.write_corpora("REV", tmp_path / "old", tmp_path / "new")
        archive, old, new = calls
        assert archive[archive.index("REV"):] == ["REV", "src", "tools", "perfbench"]
        parent = Path(old[1]).parent.parent
        assert parent != root
        assert old[1:] == [str(parent / "tools" / "cli_corpus.py"), str(parent / "src"),
                           str(tmp_path / "old")]
        assert new[1:] == [str(root / "tools" / "cli_corpus.py"), str(root / "src"),
                           str(tmp_path / "new")]


class TestStderrOutsidePytest:
    """pytest captures warnings; a fresh interpreter shows what a user sees."""

    @pytest.mark.parametrize("cfg,expected", [
        (dict(FIG2_CFG, jump_dist={"kind": "beta", "params": {"c": 1e308, "d": 1e308}}), 2),
        (dict(TABLE1_CFG, payoff={"kind": "tabulated", "params": {
            "breakpoints": [-1e308, 0.2, 0.9, 1.6], "values": [-0.4, -0.1, 0.5, 1.2]}}), 2),
        (dict(TABLE1_CFG, payoff={"kind": "tabulated", "params": {
            "breakpoints": [-1e308, 1e308, 1.7e308], "values": [-1.0, 0.0, 1.0]}}), 2),
    ], ids=["beta-overflowing-sum", "tabulated-huge-span", "tabulated-overflowing-span"])
    def test_one_stderr_line(self, tmp_path, cfg, expected):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run([sys.executable, "-m", "levystop.cli", "solve",
                               "--config", str(path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == expected
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith(("error: ", "numerical failure: "))


class TestInstalledScript:
    def test_console_entry_point(self, tmp_path):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps(TABLE1_CFG))
        proc = subprocess.run([sys.executable, "-m", "levystop.cli", "root",
                               "--config", str(cfg)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["k1"] == pytest.approx(0.6295591279614878, abs=1e-9)

    @pytest.mark.parametrize("module", ["scipy.optimize", "scipy.interpolate", "scipy.stats",
                                        "scipy.special"])
    def test_cold_start_leaves_module_unloaded(self, tmp_path, module):
        # each costs a cold start 0.1-0.5 s; neither importing the CLI, nor a
        # root run on the README config, nor a tabulated-payoff solve needs it
        cfg, tab = tmp_path / "m.json", tmp_path / "tab.json"
        cfg.write_text(json.dumps(FIG2_CFG))
        tab.write_text(json.dumps(dict(TABLE1_CFG, payoff={"kind": "tabulated", "params": {
            "breakpoints": [0.0, 1.0, 2.0, 3.0], "values": [-1.0, 0.0, 0.8, 1.0]}})))
        code = ("import sys, levystop.cli\n"
                f"print({module!r} in sys.modules)\n"
                "for cfg, command in zip(sys.argv[1:3], ('root', 'solve')):\n"
                "    code = levystop.cli.main([command, '--config', cfg, '--out', sys.argv[3]])\n"
                f"    print(code, {module!r} in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(cfg), str(tab),
                               str(tmp_path / "out.json")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "0", "False", "0", "False"]

    @pytest.mark.parametrize("family", ["arithmetic", "geometric"])
    def test_beta_law_runs_without_scipy(self, tmp_path, family):
        # scipy is a test-only dependency: with its import blocked, root, solve
        # and simulate run on a Beta-marks config and print what they print with it
        cfg = tmp_path / "beta.json"
        cfg.write_text(json.dumps(dict(FIG2_CFG, family=family, payoff={
            "kind": "capped_call", "params": {"K": 4.0, "I": 1.0}})))
        commands = [["root"], ["solve", "--x", "1.0"],
                    ["simulate", "--x", "1.0", "--y", "2.0", "--n", "500", "--seed", "1"]]
        code = ("import contextlib, io, json, sys\n"
                "blocked = sys.argv[1] == 'blocked'\n"
                "if blocked:\n"
                "    sys.modules['scipy'] = None\n"
                "import levystop.cli\n"
                "outs = []\n"
                "for command in json.loads(sys.argv[3]):\n"
                "    buf = io.StringIO()\n"
                "    with contextlib.redirect_stdout(buf):\n"
                "        code = levystop.cli.main([command[0], '--config', sys.argv[2], *command[1:]])\n"
                "    outs.append([code, buf.getvalue()])\n"
                "print(json.dumps([outs, [m for m in sys.modules if m.startswith('scipy')]]))\n")
        runs = {}
        for mode in ("blocked", "open"):
            proc = subprocess.run([sys.executable, "-c", code, mode, str(cfg), json.dumps(commands)],
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            runs[mode] = json.loads(proc.stdout)
        outs, loaded = runs["blocked"]
        assert [code for code, _ in outs] == [0, 0, 0]
        assert loaded == ["scipy"]  # the blocking entry itself, nothing below it
        assert outs == runs["open"][0]
        assert runs["open"][1] == []  # nor is scipy imported when it is there

    def test_root_runs_without_numpy(self, tmp_path):
        # numpy loads on first array use: with its import blocked, root on the
        # README config and on every problem without tabulated marks or payoff
        # prints what it prints with numpy, and with numpy there it stays unloaded
        problems = _load(Path(__file__).resolve().parent.parent / "perfbench" / "problems.py")
        rng = np.random.default_rng(0)
        configs = [problems.README_CONFIG] + [
            problems.problem(rng, fam, law, pay) for fam, law, pay in problems.COMBOS
            if "tabulated" not in (law, pay)]
        assert len(configs) == 9
        paths = []
        for i, cfg in enumerate(configs):
            paths.append(tmp_path / f"c{i}.json")
            paths[-1].write_text(json.dumps(cfg))
        code = ("import contextlib, io, json, sys\n"
                "if sys.argv[1] == 'blocked':\n"
                "    sys.modules['numpy'] = None\n"
                "import levystop, levystop.cli\n"
                "outs = []\n"
                "for cfg in sys.argv[2:]:\n"
                "    buf = io.StringIO()\n"
                "    with contextlib.redirect_stdout(buf):\n"
                "        code = levystop.cli.main(['root', '--config', cfg])\n"
                "    outs.append([code, buf.getvalue()])\n"
                "print(json.dumps([outs, sorted(m for m in sys.modules if m.startswith('numpy'))]))\n")
        runs = {}
        for mode in ("blocked", "open"):
            proc = subprocess.run([sys.executable, "-c", code, mode, *map(str, paths)],
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            runs[mode] = json.loads(proc.stdout)
        outs, loaded = runs["blocked"]
        assert [code for code, _ in outs] == [0] * len(configs)
        assert outs == runs["open"][0]
        assert loaded == runs["open"][1] == ["numpy"]  # the entry itself, no numpy.* module

    def test_threads_wait_for_the_first_numpy_load(self):
        # threads that first read numpy together must each see it whole, not
        # half-built while another thread's read is still loading it
        code = ("import threading, levystop\n"
                "start, out = threading.Barrier(8), []\n"
                "def work():\n"
                "    start.wait()\n"
                "    try:\n"
                "        g = levystop.TabulatedPayoff((0.0, 1.0, 2.0), (-1.0, 0.5, 1.0))\n"
                "        out.append(repr(g.eval([0.5, 1.5]).tolist()))\n"
                "    except Exception as exc:\n"
                "        out.append(repr(exc))\n"
                "threads = [threading.Thread(target=work) for _ in range(8)]\n"
                "for t in threads:\n"
                "    t.start()\n"
                "for t in threads:\n"
                "    t.join(60)\n"
                "print(len(set(out)), len(out), out[0])\n")
        for _ in range(3):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == "1 8 [-0.09375, 0.84375]\n", proc.stdout

    def test_beta_tiny_c_solves_as_no_jumps(self, tmp_path):
        # Beta(5e-324, 5) marks are 0 in double precision, so E[(1-Z)^k] = 1 and
        # the root is the jump-free one
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps(dict(FIG2_CFG, jump_dist={
            "kind": "beta", "params": {"c": 5e-324, "d": 5.0}})))
        no_jumps = tmp_path / "none.json"
        no_jumps.write_text(json.dumps(dict(FIG2_CFG, jump_dist=None, **{"lambda": 0.0})))
        k1 = []
        for path in (cfg, no_jumps):
            proc = subprocess.run([sys.executable, "-m", "levystop.cli", "root",
                                   "--config", str(path)],
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0
            assert proc.stderr == ""
            k1.append(json.loads(proc.stdout)["k1"])
        assert k1[0] == pytest.approx(k1[1], rel=1e-14)
