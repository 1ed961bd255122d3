"""End-to-end checks of the command line front end.

Each test drives ``cli.main`` in process with an argv list and inspects
exit status, the artifact (stdout or --out file), and the summary line.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biasedwalk
from biasedwalk import cli, exact, ldp
from biasedwalk.kernel import ModelParams


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# documented invocations
# ---------------------------------------------------------------------------


def test_rate_fn_point_documented_value(capsys):
    code, out, err = run_cli(
        ["rate-fn", "--dim", "1", "--lambda", "0.25", "--x", "0"], capsys
    )
    assert code == 0
    body = json.loads(out)
    assert body["value"] == pytest.approx(0.223144, abs=1e-6)
    assert body["class"] == "coordinate_boundary"
    assert body["config"]["command"] == "rate-fn"
    assert "rate-fn" in err


def test_matrix_check_documented_invocation(capsys):
    code, out, _ = run_cli(["matrix-check", "--dim", "3", "--lambda", "0.5"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["max_abs_deviation"] <= 1e-12


def test_rate_fn_rejects_deterministic_one_dim(capsys):
    # dim 1 with lambda 0 leaves no randomness to build a rate function on.
    code, out, err = run_cli(
        ["rate-fn", "--dim", "1", "--lambda", "0", "--x", "0.5"], capsys
    )
    assert code == 1
    assert out == ""
    assert "--lambda" in err


@pytest.mark.parametrize("lam", ["0", "5e-324", "1e-17"])
def test_clt_rejects_a_zero_limiting_covariance(capsys, lam):
    # at d = 1 the limiting covariance 1 - v^2 is 0 at lambda 0 and rounds
    # to 0 for a tiny lambda, so a relative error would be 0/0: before,
    # the run exited 0 with frobenius_rel_error "nan"
    code, out, err = run_cli(
        ["clt", "--dim", "1", "--lambda", lam, "--steps", "5", "--paths", "3"], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("error: clt: --lambda ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(
        ["speed", "--dim", "1", "--lambda", "0.5", "--bogus", "3"], capsys
    )
    assert code == 1
    assert "bogus" in err


def test_missing_required_flag_exits_one(capsys):
    code, _, err = run_cli(["mgf", "--dim", "1", "--lambda", "0.25"], capsys)
    assert code == 1
    assert "--s" in err


def test_no_subcommand_exits_one(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "subcommand" in err


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 0
    return capsys.readouterr().out


def _lists(text: str, word: str) -> bool:
    """Whether some line of a help text starts with word."""
    return re.search(rf"^\s+{re.escape(word)}(\s|$)", text, re.M) is not None


def test_help_lists_every_command(capsys):
    text = _help(["--help"], capsys)
    assert all(_lists(text, name) for name in cli._COMMANDS)


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_command_help_lists_every_flag(name, capsys):
    text = _help([name, "--help"], capsys)
    opts = cli.SHARED_OPTS + cli._COMMANDS[name].opts + cli.PLUMBING_OPTS
    assert all(_lists(text, opt.flag) for opt in opts)


def test_second_call_builds_no_parser(monkeypatch, capsys):
    argv = ["matrix-check", "--dim", "2", "--lambda", "0.5"]
    assert run_cli(argv, capsys)[0] == 0
    added = []
    add_argument = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                        lambda *a, **k: added.append(a) or add_argument(*a, **k))
    assert run_cli(argv, capsys)[0] == 0
    assert added == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["speed", "--dim", "0", "--lambda", "0.5"], "--dim"),
        (["speed", "--dim", "2", "--lambda", "1.5"], "--lambda"),
        (["speed", "--dim", "2", "--lambda", "0.5", "--seed", "-1"], "--seed"),
        (["speed", "--dim", "2", "--lambda", "0.5", "--format", "xml"], "--format"),
        (["mgf", "--dim", "1", "--lambda", "0.25", "--s", "0.5,0.5",
          "--n-list", "10"], "--s"),
        (["dominate", "--dim", "1", "--lambda", "0.25", "--mode", "upper",
          "--n-max", "2", "--start", "1"], "--start"),
        (["rate-fn", "--dim", "2", "--lambda", "0.5", "--x", "nan,0.1"], "--x"),
        (["mgf", "--dim", "2", "--lambda", "0.5", "--s", "nan,0.1",
          "--n-list", "10"], "--s"),
        (["speed", "--dim", "2", "--lambda", "0.5", "--steps", "0"], "--steps"),
        (["speed", "--dim", "2", "--lambda", "0.5", "--paths", "0"], "--paths"),
        (["simulate", "--dim", "2", "--lambda", "0.5", "--steps", "0"], "--steps"),
        (["simulate", "--dim", "2", "--lambda", "0.5", "--seed",
          "99999999999999999999999"], "--seed"),
        (["ballot", "--dim", "1", "--lambda", "0.5", "--n", "0", "--alpha", "0",
          "--beta", "0"], "--n"),
        (["ballot", "--dim", "1", "--lambda", "0", "--n", "14285", "--alpha", "0",
          "--beta", "119"], "--n"),
        (["ballot", "--dim", "1", "--lambda", "0", "--n", "10000000", "--alpha", "0",
          "--beta", "0"], "--n"),
        (["ldp-consistency", "--dim", "1", "--lambda", "0.5", "--a", "nan",
          "--n-list", "10"], "--a"),
        (["dominate", "--dim", "2", "--lambda", "0.5", "--mode", "lower",
          "--n-max", "2", "--start", "0,1"], "--start"),
        # starts whose walk would leave the int64 range
        (["simulate", "--dim", "1", "--lambda", "0.5", "--start", "9223372036854775807",
          "--steps", "5", "--paths", "1"], "--start"),
        (["dominate", "--dim", "1", "--lambda", "0.5", "--mode", "lower", "--n-max", "3",
          "--start", "9223372036854775806"], "--start"),
    ],
)
def test_domain_errors_name_the_flag(argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag + " " in err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["mgf", "--dim", "2", "--lambda", "0.5", "--n-list", "4"], "--s", "-0.5,0.1"),
        (["rate-fn", "--dim", "2", "--lambda", "0.5"], "--x", "-.25,0.5"),
        (["simulate", "--dim", "2", "--lambda", "0.5", "--steps", "5", "--paths", "2"],
         "--start", "-1,0"),
    ],
)
def test_negative_list_value_may_follow_its_flag(argv, flag, value, capsys):
    # "--s -0.5,0.1" must mean what "--s=-0.5,0.1" means
    spaced = run_cli(argv + [flag, value], capsys)
    joined = run_cli(argv + [f"{flag}={value}"], capsys)
    assert spaced == joined
    code, out, err = spaced
    assert err.count("\n") == 1 and "expected one argument" not in err
    if code != 0:
        assert code == 1 and out == "" and flag + " " in err


def test_mgf_beyond_double_range_exits_two(capsys):
    code, out, err = run_cli(
        ["mgf", "--dim", "2", "--lambda", "0.5", "--s", "1e308,0.1", "--n-list", "4"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "double range" in err


def test_resource_budget_exits_two(capsys):
    # the two dimensional grid at this horizon exceeds the cell budget
    code, _, err = run_cli(
        ["mgf", "--dim", "2", "--lambda", "0.5", "--s", "0.1,0.1",
         "--n-list", "2000"],
        capsys,
    )
    assert code == 2
    assert "budget" in err
    # a rate-fn grid of 10^15 points is refused before it is laid out, which
    # would raise MemoryError
    code, out, err = run_cli(
        ["rate-fn", "--dim", "3", "--lambda", "0.5", "--grid", "100000"], capsys
    )
    assert (code, out) == (2, "")
    assert err == ("error: --grid 100000 gives 1000000000000000 points in dimension 3, "
                   "budget is 100000\n")


def test_rate_fn_grid_budget_in_a_huge_dimension_returns_at_once(capsys):
    # 3 ** (10**30) is never formed: past 16 axes a grid of at least two
    # steps per axis is over budget
    argv = ["rate-fn", "--dim", "9" * 30, "--lambda", "0.5", "--grid", "3"]
    started = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: --grid 3 gives more than 100000 points in dimension {'9' * 30}, "
                   "budget is 100000\n")


def test_dominate_from_a_far_start(capsys):
    # past 2**31 the lower bound reads the rows of a start off the faces;
    # a start beyond int64 is refused, naming the flag
    argv = ["dominate", "--dim", "1", "--lambda", "0.5", "--mode", "lower", "--n-max", "3"]
    rows = []
    for start in ("4", str(2**31), str(2**40)):
        code, out, _ = run_cli(argv + ["--start", start], capsys)
        assert code == 0
        rows.append(json.loads(out)["rows"])
    assert rows[0] == rows[1] == rows[2]
    assert rows[0][0]["min_slack"] == 0.0
    code, out, err = run_cli(argv + ["--start", str(10**30)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: --start ") and err.count("\n") == 1


def test_dominate_counts_the_largest_box_before_any_step(monkeypatch, capsys):
    # one sweep per walk to --n-max: its box is over budget, so the run
    # fails at once instead of after the horizons whose boxes fit
    monkeypatch.setattr(exact, "_evolve", lambda *args: pytest.fail("swept over budget"))
    code, out, err = run_cli(
        ["dominate", "--dim", "2", "--lambda", "0.5", "--mode", "upper", "--n-max", "800"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget" in err and "(shape (1601, 1601))" in err


def test_convergence_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(ldp, "MAX_ITERATIONS", 1)
    code, _, err = run_cli(
        ["rate-fn", "--dim", "2", "--lambda", "0.5", "--x", "0.3,0.2"], capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_convergence_failure_in_a_grid_exits_two(monkeypatch, capsys):
    # a grid is one batched solve: a row over budget fails the whole run
    # with the message of a single point
    monkeypatch.setattr(ldp, "MAX_ITERATIONS", 1)
    base = ["rate-fn", "--dim", "2", "--lambda", "0.5"]
    point = run_cli(base + ["--x", "0.3,0.2"], capsys)
    grid = run_cli(base + ["--grid", "5"], capsys)
    assert grid == point
    assert grid == (2, "", "error: Newton on the dual root did not settle within 1 steps\n")


def test_path_rate_middle_segment_outside_is_infinite(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text(json.dumps([{"t": 0, "phi": [0.0, 0.0]}, {"t": 0.25, "phi": [0.05, 0.1]},
                                {"t": 0.5, "phi": [0.3, 0.3]}, {"t": 1, "phi": [0.4, 0.4]}]))
    code, out, _ = run_cli(["path-rate", "--dim", "2", "--lambda", "0.5",
                            "--path", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["action"] == "inf"
    assert [seg["rate"] == "inf" for seg in payload["segments"]] == [False, True, False]


@pytest.mark.parametrize("lam", ["1e-300", "5e-324"])
def test_tiny_lambda_rate_matches_closed_form(lam, capsys):
    # the scalar root does not involve lambda, so a lambda far below the
    # rounding resolution of 1 + lambda still gives the closed-form rate
    code, out, err = run_cli(
        ["rate-fn", "--dim", "2", "--lambda", lam, "--x", "0.2,0.3"], capsys
    )
    assert code == 0
    value = json.loads(out)["value"]
    expect = ldp.rate_closed_form(ModelParams(2, float(lam)), [0.2, 0.3])
    assert value == pytest.approx(expect, rel=1e-12)


def test_rate_fn_needs_exactly_one_of_x_and_grid(capsys):
    base = ["rate-fn", "--dim", "1", "--lambda", "0.25"]
    assert run_cli(base, capsys)[0] == 1
    assert run_cli(base + ["--x", "0.5", "--grid", "3"], capsys)[0] == 1


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=2\nlambda=0.5\n# a comment\nsteps=30\npaths=5\n")
    code, out, _ = run_cli(
        ["boundary", "--config", str(cfg), "--paths", "4"], capsys
    )
    assert code == 0
    echo = json.loads(out)["config"]
    assert echo["dim"] == 2
    assert echo["steps"] == 30
    assert echo["paths"] == 4  # flag wins over the file


def test_unknown_config_keys_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=1\nlambda=0.25\nfrobnicate=7\n")
    code, out, _ = run_cli(["matrix-check", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["dim"] == 1


def test_malformed_config_line_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim 1\n")
    code, _, err = run_cli(["matrix-check", "--config", str(cfg)], capsys)
    assert code == 1
    assert "key=value" in err


def test_missing_config_file_exits_one(tmp_path, capsys):
    code, _, err = run_cli(
        ["matrix-check", "--config", str(tmp_path / "absent.cfg")], capsys
    )
    assert code == 1
    assert "--config" in err


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------


def test_out_file_gets_artifact_stdout_gets_summary(tmp_path, capsys):
    dest = tmp_path / "res.json"
    code, out, err = run_cli(
        ["matrix-check", "--dim", "2", "--lambda", "0.5", "--out", str(dest)],
        capsys,
    )
    assert code == 0
    assert err == ""
    assert out.startswith("matrix-check:") and out.count("\n") == 1
    body = json.loads(dest.read_text())
    assert body["max_abs_deviation"] <= 1e-12


def test_artifacts_byte_identical_for_same_config(tmp_path, capsys):
    argv = ["simulate", "--dim", "2", "--lambda", "0.5", "--steps", "40",
            "--paths", "8", "--seed", "3"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_cli(argv + ["--out", str(first)], capsys)[0] == 0
    assert run_cli(argv + ["--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_seed_changes_simulation_artifact(capsys):
    argv = ["simulate", "--dim", "1", "--lambda", "0.5", "--steps", "50",
            "--paths", "20"]
    _, out0, _ = run_cli(argv + ["--seed", "0"], capsys)
    _, out1, _ = run_cli(argv + ["--seed", "1"], capsys)
    assert json.loads(out0)["mean_endpoint"] != json.loads(out1)["mean_endpoint"]


def test_csv_artifact_echoes_config_in_comments(capsys):
    code, out, _ = run_cli(
        ["speed", "--dim", "2", "--lambda", "0.5", "--steps", "50",
         "--paths", "10", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    assert "# command=speed" in comments
    assert "# lambda=0.5" in comments
    keys = [c[2:].split("=", 1)[0] for c in comments]
    assert keys == sorted(keys)
    header_index = len(comments)
    assert lines[header_index] == "coord,observed,limit,abs_error"
    assert len(lines) == header_index + 1 + 2


def test_json_serializes_non_finite_as_strings(capsys):
    _, out, _ = run_cli(
        ["rate-fn", "--dim", "1", "--lambda", "0.25", "--x", "1.2"], capsys
    )
    body = json.loads(out)
    assert body["value"] == "inf"
    assert body["kkt_residual"] == "nan"
    assert body["class"] == "outside"


_PLAIN = (int, float, str, bool, type(None))


def _assert_plain(value, where):
    """Every leaf has exact type int, float, str, bool or None, every
    container is a list or a dict, and every dict key is a string."""
    if type(value) is dict:
        for key, v in value.items():
            assert type(key) is str, (where, key)
            _assert_plain(v, f"{where}.{key}")
    elif type(value) is list:
        for i, v in enumerate(value):
            _assert_plain(v, f"{where}[{i}]")
    else:
        assert type(value) in _PLAIN, (where, type(value))


# one run per runner branch, at small sizes; path-rate reads "path.json"
_MODEL = ["--dim", "2", "--lambda", "0.5"]
_BATCH = _MODEL + ["--steps", "20", "--paths", "4"]
_CONTRACT_RUNS = {
    "simulate": ["simulate", *_BATCH],
    "simulate-dump": ["simulate", *_BATCH, "--dump-trajectories"],
    "speed": ["speed", *_BATCH],
    "clt": ["clt", *_BATCH],
    "martingale": ["martingale", *_BATCH],
    "boundary": ["boundary", *_BATCH],
    "mgf": ["mgf", *_MODEL, "--s", "0.1,-0.3", "--n-list", "5,10"],
    "return-prob": ["return-prob", "--dim", "2", "--lambda", "0", "--n-max", "4"],
    "ballot": ["ballot", "--dim", "1", "--lambda", "0", "--n", "7", "--alpha", "2",
               "--beta", "3"],
    "dominate-upper": ["dominate", *_MODEL, "--mode", "upper", "--n-max", "3"],
    "dominate-lower": ["dominate", *_MODEL, "--mode", "lower", "--n-max", "3"],
    "rate-fn-x": ["rate-fn", *_MODEL, "--x", "0.2,0.3"],
    "rate-fn-grid": ["rate-fn", *_MODEL, "--grid", "3"],
    "matrix-check": ["matrix-check", *_MODEL],
    "path-rate": ["path-rate", "--dim", "1", "--lambda", "0.25", "--path", "path.json"],
    "ldp-consistency": ["ldp-consistency", "--dim", "1", "--lambda", "0.25", "--a", "0.9",
                        "--n-list", "20"],
}


def test_contract_runs_cover_every_subcommand():
    assert {argv[0] for argv in _CONTRACT_RUNS.values()} == set(cli._COMMANDS)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("run", list(_CONTRACT_RUNS))
def test_runners_hand_over_plain_python(run, fmt, tmp_path, monkeypatch, capsys):
    # the artifact layer gets plain Python only: numpy is converted once,
    # by the runner, never by the renderer
    (tmp_path / "path.json").write_text(
        '[{"t": 0, "phi": [0]}, {"t": 0.5, "phi": [0.2]}, {"t": 1, "phi": [0.8]}]')
    monkeypatch.chdir(tmp_path)
    seen = []
    render = cli._render_artifact

    def checked(command, cfg, payload, header, rows):
        rows = list(rows)
        seen.append((payload, header, rows))
        return render(command, cfg, payload, header, rows)

    monkeypatch.setattr(cli, "_render_artifact", checked)
    code, _, err = run_cli([*_CONTRACT_RUNS[run], "--format", fmt], capsys)
    assert code == 0, err
    [(payload, header, rows)] = seen
    _assert_plain(payload, "payload")
    assert type(header) is list and all(type(h) is str for h in header)
    assert rows and all(type(row) is list and len(row) == len(header) for row in rows)
    _assert_plain(rows, "rows")


# ---------------------------------------------------------------------------
# per-command payloads
# ---------------------------------------------------------------------------


def test_simulate_summary_payload_keys(capsys):
    code, out, _ = run_cli(
        ["simulate", "--dim", "2", "--lambda", "0.5", "--steps", "30",
         "--paths", "6"],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert len(body["mean_endpoint"]) == 2
    assert len(body["cov_scaled"]) == 2
    assert len(body["martingale_mean"]) == 2
    assert sum(body["boundary_visits"].values()) == 6


def test_trajectories_csv_dump(capsys):
    code, out, _ = run_cli(
        ["simulate", "--dim", "1", "--lambda", "0", "--steps", "2", "--paths", "2",
         "--seed", "3", "--dump-trajectories", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "path,step,x1"
    assert lines[1] == "0,0,0"
    assert lines[4] == "1,0,0"
    assert len(lines) == 7


def test_simulate_trajectory_dump(capsys):
    code, out, _ = run_cli(
        ["simulate", "--dim", "2", "--lambda", "0.5", "--steps", "10",
         "--paths", "3", "--dump-trajectories", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "path,step,x1,x2"
    assert len(lines) == 1 + 3 * 11


def test_mgf_rows_match_library_and_gap_shrinks(capsys):
    _, out, _ = run_cli(
        ["mgf", "--dim", "1", "--lambda", "0.25", "--s", "0.5",
         "--n-list", "50,100"],
        capsys,
    )
    body = json.loads(out)
    p = ModelParams(1, 0.25)
    limit = ldp.log_psi(p, [0.5])
    rows = body["rows"]
    assert rows[0]["limit"] == pytest.approx(limit, abs=1e-15)
    assert rows[0]["log_mgf"] == pytest.approx(
        exact.log_mgf(p, (0,), 50, [0.5]), abs=1e-12
    )
    assert abs(rows[1]["gap"]) < abs(rows[0]["gap"])


def test_return_prob_rows_match_library(capsys):
    _, out, _ = run_cli(
        ["return-prob", "--dim", "1", "--lambda", "0.25", "--n-max", "6"], capsys
    )
    rows = json.loads(out)["rows"]
    profile = exact.return_probability_profile(ModelParams(1, 0.25), 6)
    assert [(r["n"], r["probability"]) for r in rows] == [
        (n, pytest.approx(q, abs=1e-15)) for n, q in profile
    ]
    assert rows[1]["log_prob"] == pytest.approx(math.log(rows[1]["probability"]))


def test_ballot_payload(capsys):
    _, out, _ = run_cli(
        ["ballot", "--dim", "1", "--lambda", "0", "--n", "7", "--alpha", "2",
         "--beta", "3"],
        capsys,
    )
    body = json.loads(out)
    assert body["total"] == 35
    assert body["floored"] == 14
    assert body["bound_lhs"] == 7 * 14
    assert body["bound_rhs"] == 1 * 35
    assert body["satisfied"] is True


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ballot_renders_every_count_up_to_its_bound(fmt, capsys):
    # at the largest n the counts render under the default limit on int
    # digits, gap 118 giving the longest; one step more, gap 119 gives a
    # count past it, so --n stops there
    assert sys.get_int_max_str_digits() == 4300
    code, out, _ = run_cli(
        ["ballot", "--dim", "1", "--lambda", "0", "--n", "14284", "--alpha", "0",
         "--beta", "118", "--format", fmt],
        capsys,
    )
    assert code == 0
    count = exact.ballot_counts(14284, 0, 118)
    assert len(str(14284 * count.floored)) == 4300
    assert str(14284 * count.floored) in out and str(count.total) in out
    over = exact.ballot_counts(14285, 0, 119)
    assert 14285 * over.floored >= 10**4300


def test_dominate_upper_rows(capsys):
    _, out, _ = run_cli(
        ["dominate", "--dim", "1", "--lambda", "0.25", "--mode", "upper",
         "--n-max", "4"],
        capsys,
    )
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert all(r["max_violation"] <= 1e-12 for r in rows)


def test_dominate_lower_rows(capsys):
    _, out, _ = run_cli(
        ["dominate", "--dim", "2", "--lambda", "0.5", "--mode", "lower",
         "--n-max", "3"],
        capsys,
    )
    rows = json.loads(out)["rows"]
    assert all(r["min_slack"] >= -1e-12 for r in rows)


def test_path_rate_straight_line_at_speed_has_zero_action(tmp_path, capsys):
    p = ModelParams(2, 0.5)
    v = p.speed
    path = [{"t": 0.0, "phi": [0.0, 0.0]}, {"t": 1.0, "phi": list(v)}]
    src = tmp_path / "path.json"
    src.write_text(json.dumps(path))
    _, out, _ = run_cli(
        ["path-rate", "--dim", "2", "--lambda", "0.5", "--path", str(src)], capsys
    )
    body = json.loads(out)
    assert body["action"] == pytest.approx(0.0, abs=1e-12)
    assert len(body["segments"]) == 1


def test_path_rate_full_speed_edge(tmp_path, capsys):
    src = tmp_path / "path.json"
    src.write_text('[{"t": 0, "phi": [0]}, {"t": 1, "phi": [1]}]')
    _, out, _ = run_cli(
        ["path-rate", "--dim", "1", "--lambda", "0.25", "--path", str(src)], capsys
    )
    assert json.loads(out)["action"] == pytest.approx(math.log(1.25), abs=1e-12)


def test_path_rate_dim_mismatch_exits_one(tmp_path, capsys):
    src = tmp_path / "path.json"
    src.write_text('[{"t": 0, "phi": [0]}, {"t": 1, "phi": [0.5]}]')
    code, _, err = run_cli(
        ["path-rate", "--dim", "2", "--lambda", "0.5", "--path", str(src)], capsys
    )
    assert code == 1
    assert "--path" in err or "--dim" in err


@pytest.mark.parametrize("row", ['{"t": true, "phi": [0.2, 0.1]}',
                                 '{"t": 1, "phi": ["0.2", "0.1"]}',
                                 '{"t": 1, "phi": "11"}',
                                 pytest.param('{"t": 1, "phi": [' + "9" * 401 + ', 0.1]}',
                                              id="phi-401-digits")])
def test_path_rate_non_numbers_exit_one(tmp_path, capsys, row):
    src = tmp_path / "path.json"
    src.write_text('[{"t": 0, "phi": [0, 0]}, ' + row + ']')
    code, out, err = run_cli(
        ["path-rate", "--dim", "2", "--lambda", "0.5", "--path", str(src)], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("error: --path: ")
    assert "'t'" in err or "'phi'" in err


@pytest.mark.parametrize("text", ['[{"t": 0, "phi": [' + "9" * 5000 + ']}]',
                                  "[" * 100_000 + "]" * 100_000],
                         ids=["past-the-digit-limit", "nested-too-deep"])
def test_path_file_that_does_not_decode_names_the_flag(tmp_path, capsys, text):
    src = tmp_path / "path.json"
    src.write_text(text)
    code, out, err = run_cli(
        ["path-rate", "--dim", "1", "--lambda", "0.5", "--path", str(src)], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("error: --path: cannot read ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ['{"t": 0, "phi": [0]}', "0.5", "true", "null"])
def test_path_file_that_holds_no_array_names_the_flag(tmp_path, capsys, text):
    # the golden err-path-* cases pin the same message for JSON strings
    src = tmp_path / "path.json"
    src.write_text(text)
    code, out, err = run_cli(
        ["path-rate", "--dim", "1", "--lambda", "0.25", "--path", str(src)], capsys
    )
    assert code == 1 and out == ""
    assert err == f"error: --path: {str(src)!r} must hold a JSON array of breakpoints\n"


def test_ldp_consistency_rows_match_library(capsys):
    _, out, _ = run_cli(
        ["ldp-consistency", "--dim", "1", "--lambda", "0.25", "--a", "0.9",
         "--n-list", "50,100"],
        capsys,
    )
    rows = json.loads(out)["rows"]
    direct = ldp.ldp_consistency(ModelParams(1, 0.25), 0.9, [50, 100])
    assert [r["n"] for r in rows] == [50, 100]
    assert rows[1]["gap"] == pytest.approx(direct[1].gap, abs=1e-15)


def test_rate_fn_grid_csv_shape(capsys):
    _, out, _ = run_cli(
        ["rate-fn", "--dim", "1", "--lambda", "0.25", "--grid", "5",
         "--format", "csv"],
        capsys,
    )
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "x1,rate,class,kkt_residual"
    assert len(lines) == 6


def _rate_csv_lines(argv, capsys):
    code, out, _ = run_cli(["rate-fn", *argv, "--format", "csv"], capsys)
    assert code == 0
    return [l for l in out.splitlines() if not l.startswith("#")]


def test_rate_grid_csv_layout(capsys):
    lines = {
        x: _rate_csv_lines(["--dim", "1", "--lambda", "0.25", "--x", x], capsys)
        for x in ("0", "0.6", "1.0", "1.2")
    }
    assert all(rows[0] == "x1,rate,class,kkt_residual" for rows in lines.values())
    assert lines["0"][1] == "0.0,0.2231435513142097,coordinate_boundary,0.0"
    assert lines["1.0"][1] == "1.0,0.2231435513142097,simplex_boundary,nan"
    assert lines["1.2"][1] == "1.2,inf,outside,nan"
    cells = lines["0.6"][1].split(",")
    assert cells[0] == "0.6" and cells[2] == "interior"
    assert float(cells[1]) == 0.0 and float(cells[3]) <= 1e-10


def test_rate_grid_csv_d2_shape(capsys):
    inside = _rate_csv_lines(["--dim", "2", "--lambda", "0.5", "--x", "0.1,0.2"], capsys)
    outside = _rate_csv_lines(["--dim", "2", "--lambda", "0.5", "--x", "0.9,0.9"], capsys)
    assert inside[0] == outside[0] == "x1,x2,rate,class,kkt_residual"
    assert len(inside) == len(outside) == 2
    assert outside[1].split(",")[3] == "outside"


# ---------------------------------------------------------------------------
# failure shape under mangled arguments
# ---------------------------------------------------------------------------

_MODEL = [("--dim", "2"), ("--lambda", "0.5")]
_SMALL_BATCH = _MODEL + [("--steps", "5"), ("--paths", "3")]
_PATH1 = str(Path(__file__).parent / "golden" / "inputs" / "path1.json")

# A valid invocation of every subcommand at small sizes, as (flag, value)
# pairs.
_VALID = {
    "simulate": _SMALL_BATCH + [("--start", "1,0")],
    "speed": _SMALL_BATCH,
    "clt": _SMALL_BATCH,
    "martingale": _SMALL_BATCH,
    "boundary": _SMALL_BATCH,
    "mgf": _MODEL + [("--s", "0.1,-0.2"), ("--n-list", "2,3")],
    "return-prob": _MODEL + [("--n-max", "4")],
    "ballot": _MODEL + [("--n", "5"), ("--alpha", "1"), ("--beta", "2")],
    "dominate": _MODEL + [("--mode", "lower"), ("--n-max", "2"), ("--start", "1,2")],
    "rate-fn": _MODEL + [("--x", "0.2,0.3")],
    "matrix-check": _MODEL,
    "path-rate": [("--dim", "1"), ("--lambda", "0.25"), ("--path", _PATH1)],
    "ldp-consistency": [("--dim", "1"), ("--lambda", "0.25"), ("--a", "0.5"),
                        ("--n-list", "4,6")],
}

# Flags whose value sets the amount of work; they only get small values,
# so that every example runs in well under a second.
_SIZES = {"--steps", "--paths", "--n", "--n-max", "--n-list", "--grid"}


@st.composite
def _mangled_argv(draw):
    """A valid invocation with one or two of its values replaced by NaN,
    +-inf, an empty or '-' token, a huge integer, a small integer or a list
    of the wrong length, or with one of its flags dropped."""
    command = draw(st.sampled_from(sorted(_VALID)))
    pairs = list(_VALID[command])
    if command == "rate-fn" and draw(st.booleans()):
        pairs[-1] = ("--grid", "3")
    for _ in range(draw(st.integers(1, 2))):
        if not pairs:
            break
        k = draw(st.integers(0, len(pairs) - 1))
        flag, value = pairs[k]
        first = value.split(",")[0]
        values = ["nan", "inf", "-inf", "", "-", "1e308", *map(str, range(-1, 5)),
                  first, f"{value},{first}"]
        if flag not in _SIZES:
            values.append("9" * 30)
        choice = draw(st.sampled_from(values + [None]))
        if choice is None:
            del pairs[k]
        else:
            pairs[k] = (flag, choice)
    return [command] + [token for pair in pairs for token in pair]


@settings(max_examples=300, deadline=None)
@given(argv=_mangled_argv())
def test_mangled_arguments_fail_with_one_error_line(argv):
    # any such argv either succeeds, or fails with status 1 or 2, one
    # error line on stderr, nothing on stdout and no traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# dependencies
# ---------------------------------------------------------------------------


_WITHOUT_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None      # any import of scipy now raises ImportError
from biasedwalk import cli
for argv in (
    ["rate-fn", "--dim", "2", "--lambda", "0.5", "--x", "0.2,0.3"],
    ["mgf", "--dim", "2", "--lambda", "0.5", "--s", "0.1,-0.3", "--n-list", "5,10"],
    ["ldp-consistency", "--dim", "1", "--lambda", "0.25", "--a", "0.9", "--n-list", "20"],
    ["matrix-check", "--dim", "3", "--lambda", "0.5"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(argv[0], code)
"""


def test_runtime_needs_no_scipy():
    # numpy is the one runtime dependency: a fresh interpreter imports the
    # CLI without loading any part of scipy, and with scipy made
    # unimportable the rate, mgf, consistency and matrix subcommands run
    env = dict(os.environ, PYTHONPATH=str(Path(biasedwalk.__file__).parents[1]))

    def fresh(code):
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True).stdout

    probe = ("import sys, biasedwalk.cli; print('scipy.optimize' in sys.modules); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    optimize, loaded = fresh(probe).splitlines()
    assert optimize == "False"
    assert loaded == "[]"
    assert fresh(_WITHOUT_SCIPY).split() == [
        "rate-fn", "0", "mgf", "0", "ldp-consistency", "0", "matrix-check", "0"]


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


_MAX_RSS = """
import contextlib, io, resource, sys
from biasedwalk import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.parametrize("argv", [
    ["dominate", "--dim", "13", "--lambda", "0.5", "--mode", "upper", "--n-max", "1"],
    ["return-prob", "--dim", "20", "--lambda", "0.5", "--n-max", "1"],
])
def test_one_step_sweeps_in_high_dimension_stay_small(argv):
    # the cell budget admits these boxes, 3^13 and 2^20 cells, though the
    # walk reaches only 27 and 41 cells of them: a fresh process runs each
    # in under 200 MiB of resident memory (ru_maxrss is in KiB on Linux)
    env = dict(os.environ, PYTHONPATH=str(Path(biasedwalk.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _MAX_RSS, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, max_rss = map(int, out.split())
    assert code == 0
    assert max_rss < 200 * 1024, max_rss
