from __future__ import annotations

import copy
import csv
import importlib.util
import io
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levystop import reproduce
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

    def test_payoff_override(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "solve", "--config", cfg_file(TABLE1_CFG),
                               "--payoff", "capped", "--K", "2", "--I", "1")
        assert code == 0
        data = json.loads(out)
        assert data["x_star"] == 2.0
        assert data["smooth_fit"] == "broken"
        # corner gap is k1 (K - I) exactly
        assert data["smooth_fit_gap"] == pytest.approx(data["k1"], abs=1e-15)

    def test_override_requires_parameters(self, capsys, cfg_file):
        # solve and sweep share one override parser, checked like a config payoff
        for cfg, argv, named in [
            (TABLE1_CFG, ["solve", "--payoff", "capped", "--K", "2"], "'I'"),
            (TABLE1_CFG, ["solve", "--payoff", "tabulated"], "'breakpoints'"),
            (TABLE1_CFG, ["solve", "--payoff", "digital", "--K", "1"], "'digital'"),
            (TABLE1_CFG, ["solve", "--payoff", "capped", "--K", "2", "--I", "1", "--a", "1"],
             "'a'"),
            (FIG2_CFG, ["sweep", "--payoff", "power", "--a", "1", "--b", "1",
                        "--param", "sigma", "--range", "0.05:0.3:3"], "'K'"),
        ]:
            code, out, err = run_cli(capsys, argv[0], "--config", cfg_file(cfg), *argv[1:])
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert named in err, err
        code, out, err = run_cli(capsys, "sweep", "--config", cfg_file(FIG2_CFG),
                                 "--payoff", "power", "--a", "1", "--b", "1", "--K", "1",
                                 "--param", "sigma", "--range", "0.05:0.3:3")
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "sigma,k1,x_star,theta_star,mu_hat"

    def test_payoff_required(self, capsys, cfg_file):
        code, _, err = run_cli(capsys, "solve", "--config", cfg_file(TABLE1_CFG))
        assert code == 2
        assert "payoff" in err


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
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg_file(TABLE1_CFG),
                               "--param", "lambda", "--range", "0.0:0.3:4",
                               "--payoff", "capped", "--K", "10", "--I", "1")
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

    def test_needs_target(self, capsys, cfg_file):
        code, _, err = run_cli(capsys, "simulate", "--config", cfg_file(TABLE1_CFG),
                               "--x", "0.0")
        assert code == 2
        assert "--y or --grid" in err

    def test_grid_search_report(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg_file(FIG2_CFG),
                               "--x", "1.0", "--grid", "2.0:2.8:5", "--n", "4000",
                               "--seed", "7")
        assert code == 0
        data = json.loads(out)
        assert data["x_star_analytic"] == pytest.approx(2.3886163117354204, abs=1e-9)
        assert data["grid_spacing"] == pytest.approx(0.2)
        assert len(data["points"]) == 5
        assert data["best_y"] in [p["y"] for p in data["points"]]

    def test_grid_assert_detects_misplaced_grid(self, capsys, cfg_file):
        # grid far below the true threshold: best_y cannot be within one step
        code, out, err = run_cli(capsys, "simulate", "--config", cfg_file(FIG2_CFG),
                                 "--x", "1.0", "--grid", "1.05:1.25:3", "--n", "2000",
                                 "--seed", "7", "--assert")
        assert code == 4
        assert "contract" in err
        json.loads(out)  # the report is still emitted

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
    ])
    def test_bad_simulation_input(self, capsys, cfg_file, flags):
        code, out, err = run_cli(capsys, "simulate", "--config", cfg_file(FIG2_CFG),
                                 "--x", "1.0", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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
        ("root", FIG2_CFG, "jump_dist", {"kind": "beta", "params": {"c": 5e-324, "d": 5.0}}, 3),
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
        code, out, err = run_cli(capsys, "solve", "--config", cfg_file(FIG2_CFG), "--x=-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: geometric state") and err.count("\n") == 1

    def test_overlong_integer_is_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(FIG2_CFG).replace("0.025", "1" * 5000))
        code, _, err = run_cli(capsys, "root", "--config", str(path))
        assert code == 2
        assert "not valid JSON" in err


class TestRepeatedCalls:
    """main() builds its parser once; no call may see another call's options."""

    def test_sequence_matches_fresh_processes(self, capsys, cfg_file):
        table1 = cfg_file(TABLE1_CFG, "table1.json")
        fig2 = cfg_file(FIG2_CFG, "fig2.json")
        bad = cfg_file(dict(FIG2_CFG, drift="abc"), "bad.json")
        requests = [
            (["solve", "--config", table1, "--payoff", "capped", "--K", "2", "--I", "1"], 0),
            (["solve", "--config", table1], 2),  # the override must not carry over
            (["solve", "--config", fig2, "--x", "1.0", "--csv", "-"], 0),
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
CAPPED_CFG = dict(TABLE1_CFG, payoff={"kind": "capped_call", "params": {"K": 2.0, "I": 1.0}})
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
        assert len(records) == 476
        errors = {r["request"]: r for r in records if r["request"].startswith("error ")}
        assert {name: r["exit"] for name, r in errors.items()} == {
            "error bad drift": 2, "error undominated power": 3}
        for r in errors.values():
            assert r["stdout"] == "" and r["stderr"].count("\n") == 1, r["request"]
        failed = [r["request"] for r in records
                  if r["request"] not in errors and (r["exit"] != 0 or r["stderr"])]
        assert failed == []


class TestStderrOutsidePytest:
    """pytest captures warnings; a fresh interpreter shows what a user sees."""

    @pytest.mark.parametrize("cfg,expected", [
        (dict(FIG2_CFG, jump_dist={"kind": "beta", "params": {"c": 5e-324, "d": 5.0}}), 3),
        (dict(TABLE1_CFG, payoff={"kind": "tabulated", "params": {
            "breakpoints": [-1e308, 0.2, 0.9, 1.6], "values": [-0.4, -0.1, 0.5, 1.2]}}), 2),
    ], ids=["beta-tiny-c", "tabulated-huge-span"])
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

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about half of a cold start; the CLI must not need it
        code = "import sys, levystop.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
