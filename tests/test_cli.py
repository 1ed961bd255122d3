"""End-to-end checks of the command line front end.

Each test drives ``cli.main`` in process with an argv list and inspects
exit status, the artifact (stdout or --out file), and the summary line.
"""

import json
import math

import pytest

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
        (["ldp-consistency", "--dim", "1", "--lambda", "0.5", "--a", "nan",
          "--n-list", "10"], "--a"),
        (["ldp-consistency", "--dim", "3", "--lambda", "0.5", "--a", "0.5",
          "--n-list", "10"], "--dim"),
        (["dominate", "--dim", "2", "--lambda", "0.5", "--mode", "lower",
          "--n-max", "2", "--start", "0,1"], "--start"),
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


def test_convergence_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(ldp, "MAX_ITERATIONS", 1)
    code, _, err = run_cli(
        ["rate-fn", "--dim", "2", "--lambda", "0.5", "--x", "0.3,0.2"], capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_tiny_lambda_rate_fails_as_numerical_error(capsys):
    # lam = 1e-300 is below the resolution of the Newton Hessian: that is a
    # numerical failure (exit 2), not an argument error (exit 1).
    code, out, err = run_cli(
        ["rate-fn", "--dim", "2", "--lambda", "1e-300", "--x", "0.2,0.3"], capsys
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


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
    assert lines["0"][1] == "0.0,0.22314355131420976,coordinate_boundary,0.0"
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
