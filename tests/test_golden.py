"""Byte-for-byte golden outputs of the command line.

Every case below runs ``cli.main`` in process from a scratch directory that
holds copies of the files in ``tests/golden/inputs`` (so relative paths, and
the config echo that embeds them, do not depend on the checkout), and
compares with the recorded outcome in ``tests/golden/expected.json``:

- the exit status;
- on success, the artifact bytes (stdout, or the ``--out`` file) against
  ``tests/golden/<case>.out``, and the one summary line (stderr, or stdout
  with ``--out``);
- on failure, the single ``error:`` line on stderr and an empty stdout.

Cases listed in ``UNPINNED_MESSAGES`` pin the exit status and the shape of
the error (one ``error:`` line, no traceback) but not its wording.

Regenerate the recorded outcomes (only when an artifact change is intended)
with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from biasedwalk import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"


def _both(name: str, argv: list[str]) -> dict[str, list[str]]:
    return {f"{name}-json": argv + ["--format", "json"],
            f"{name}-csv": argv + ["--format", "csv"]}


def _model(command: str, dim: int, lam: str) -> list[str]:
    return [command, "--dim", str(dim), "--lambda", lam]


CASES: dict[str, list[str]] = {
    **_both("simulate", _model("simulate", 2, "0.5")
            + ["--steps", "40", "--paths", "8", "--seed", "3"]),
    **_both("simulate-start", _model("simulate", 3, "0.3")
            + ["--start", "2,0,13", "--steps", "30", "--paths", "5"]),
    **_both("simulate-dump", _model("simulate", 2, "0.5")
            + ["--steps", "10", "--paths", "3", "--dump-trajectories"]),
    **_both("speed", _model("speed", 2, "0.5") + ["--steps", "50", "--paths", "10"]),
    **_both("clt", _model("clt", 2, "0.5") + ["--steps", "50", "--paths", "20"]),
    **_both("martingale", _model("martingale", 2, "0.5")
            + ["--steps", "50", "--paths", "20", "--seed", "11"]),
    **_both("boundary", _model("boundary", 3, "0.9") + ["--steps", "30", "--paths", "20"]),
    **_both("mgf", _model("mgf", 2, "0.5") + ["--s", "0.1,-0.3", "--n-list", "5,10"]),
    **_both("return-prob", _model("return-prob", 2, "0.25") + ["--n-max", "10"]),
    **_both("ballot", _model("ballot", 1, "0") + ["--n", "7", "--alpha", "2", "--beta", "3"]),
    **_both("ballot-unreachable", _model("ballot", 1, "0")
            + ["--n", "4", "--alpha", "0", "--beta", "3"]),
    **_both("dominate-upper", _model("dominate", 2, "0.5")
            + ["--mode", "upper", "--n-max", "3"]),
    **_both("dominate-lower", _model("dominate", 2, "0.5")
            + ["--mode", "lower", "--n-max", "3"]),
    **_both("dominate-lower-start", _model("dominate", 2, "0.5")
            + ["--mode", "lower", "--n-max", "2", "--start", "2,1"]),
    **_both("rate-x0", _model("rate-fn", 1, "0.25") + ["--x", "0"]),
    **_both("rate-x0.6", _model("rate-fn", 1, "0.25") + ["--x", "0.6"]),
    **_both("rate-x1.0", _model("rate-fn", 1, "0.25") + ["--x", "1.0"]),
    **_both("rate-x1.2", _model("rate-fn", 1, "0.25") + ["--x", "1.2"]),
    **_both("rate-x-d2", _model("rate-fn", 2, "0.5") + ["--x", "0.2,0.3"]),
    **_both("rate-x-lam0", _model("rate-fn", 2, "0") + ["--x", "0.25,0.75"]),
    # a lambda far below the rounding resolution of 1 + lambda
    "rate-x-tiny-lambda": _model("rate-fn", 2, "1e-300") + ["--x", "0.2,0.3"],
    **_both("rate-grid-d2", _model("rate-fn", 2, "0.5") + ["--grid", "4"]),
    **_both("rate-grid-d3", _model("rate-fn", 3, "0.4") + ["--grid", "3"]),
    **_both("matrix-check", _model("matrix-check", 3, "0.5")),
    **_both("path-rate-d2", _model("path-rate", 2, "0.5") + ["--path", "path2.json"]),
    **_both("path-rate-d1", _model("path-rate", 1, "0.25") + ["--path", "path1.json"]),
    **_both("path-rate-outside", _model("path-rate", 1, "0.25")
            + ["--path", "path1_outside.json"]),
    **_both("ldp-consistency-d1", _model("ldp-consistency", 1, "0.25")
            + ["--a", "0.9", "--n-list", "40,20"]),
    **_both("ldp-consistency-d2", _model("ldp-consistency", 2, "0.5")
            + ["--a", "0.4", "--n-list", "10,20"]),
    **_both("ldp-consistency-d3", _model("ldp-consistency", 3, "0.5")
            + ["--a", "0.5", "--n-list", "10,20"]),
    # larger exact sweeps: d=3, and d=2 horizons far past the support's start
    **_both("mgf-d3", _model("mgf", 3, "0.4") + ["--s", "0.3,-0.2,0.1", "--n-list", "20,40"]),
    **_both("mgf-d2-long", _model("mgf", 2, "0.3") + ["--s=-0.4,0.6", "--n-list", "60,120"]),
    **_both("return-prob-d3", _model("return-prob", 3, "0.5") + ["--n-max", "30"]),
    # lambda 0 never returns at n >= 2: log_prob renders as -inf
    **_both("return-prob-lam0", _model("return-prob", 2, "0") + ["--n-max", "4"]),
    **_both("dominate-upper-d3", _model("dominate", 3, "0.5")
            + ["--mode", "upper", "--n-max", "6"]),
    **_both("dominate-lower-d3", _model("dominate", 3, "0.5")
            + ["--mode", "lower", "--n-max", "6"]),
    # the config layer: file values, a flag that overrides one, unknown keys
    "config-boundary": ["boundary", "--config", "run.cfg", "--paths", "4"],
    "config-dump": ["simulate", "--config", "dump.cfg"],
    # the same artifact to stdout and to a file
    "out-stdout": _model("matrix-check", 2, "0.5"),
    "out-file": _model("matrix-check", 2, "0.5") + ["--out", "artifact.json"],
    # exit 1: argument and domain problems
    "err-no-command": [],
    "err-unknown-flag": _model("speed", 1, "0.5") + ["--bogus", "3"],
    "err-missing-required": _model("mgf", 1, "0.25"),
    "err-dim-zero": _model("speed", 0, "0.5"),
    "err-lambda-range": _model("speed", 2, "1.5"),
    "err-lambda-nan": _model("speed", 2, "nan"),
    "err-format": _model("speed", 2, "0.5") + ["--format", "xml"],
    "err-mode": _model("dominate", 2, "0.5") + ["--mode", "sideways", "--n-max", "2"],
    "err-int": _model("speed", 2, "0.5") + ["--steps", "abc"],
    "err-float": _model("ldp-consistency", 1, "0.25") + ["--a", "x", "--n-list", "5"],
    "err-floats": _model("mgf", 1, "0.25") + ["--s", "a", "--n-list", "5"],
    "err-ints": _model("mgf", 1, "0.25") + ["--s", "0.1", "--n-list", "1,x"],
    "err-s-length": _model("mgf", 1, "0.25") + ["--s", "0.5,0.5", "--n-list", "10"],
    "err-x-length": _model("rate-fn", 2, "0.5") + ["--x", "0.5"],
    "err-start-length": _model("simulate", 2, "0.5") + ["--start", "1"],
    "err-upper-start": _model("dominate", 1, "0.25")
    + ["--mode", "upper", "--n-max", "2", "--start", "1"],
    "err-rate-both": _model("rate-fn", 1, "0.25") + ["--x", "0.5", "--grid", "3"],
    "err-rate-neither": _model("rate-fn", 1, "0.25"),
    "err-rate-deterministic": _model("rate-fn", 1, "0") + ["--x", "0.5"],
    "err-config-malformed": ["matrix-check", "--config", "bad.cfg"],
    "err-config-missing": ["matrix-check", "--config", "absent.cfg"],
    "err-path-missing": _model("path-rate", 1, "0.25") + ["--path", "absent.json"],
    "err-path-dim": _model("path-rate", 2, "0.5") + ["--path", "path1.json"],
    "err-path-not-json": _model("path-rate", 1, "0.25") + ["--path", "not_json.json"],
    "err-path-not-utf8": _model("path-rate", 1, "0.25") + ["--path", "not_utf8.json"],
    # a JSON string, of a valid path or of anything else, is not decoded again
    "err-path-encoded-twice": _model("path-rate", 1, "0.25")
    + ["--path", "path_encoded_twice.json"],
    "err-path-string": _model("path-rate", 1, "0.25") + ["--path", "path_string.json"],
    # a breakpoint list that decodes but is not a path names the flag and file
    "err-path-no-phi": _model("path-rate", 1, "0.25") + ["--path", "path_no_phi.json"],
    "err-path-empty": _model("path-rate", 1, "0.25") + ["--path", "path_empty.json"],
    "err-config-not-utf8": ["matrix-check", "--config", "not_utf8.cfg"],
    "err-out-unwritable": _model("matrix-check", 2, "0.5") + ["--out", "absent/x.json"],
    # exit 1: range errors, whose wording is not pinned (UNPINNED_MESSAGES)
    "err-seed-negative": _model("speed", 2, "0.5") + ["--seed", "-1"],
    "err-seed-huge": _model("simulate", 2, "0.5") + ["--seed", "99999999999999999999999"],
    "err-steps-zero": _model("speed", 2, "0.5") + ["--steps", "0"],
    "err-paths-zero": _model("speed", 2, "0.5") + ["--paths", "0"],
    "err-start-negative": _model("simulate", 2, "0.5") + ["--start", "-1,0"],
    "err-ballot-n": _model("ballot", 1, "0.5") + ["--n", "0", "--alpha", "0", "--beta", "0"],
    "err-a-nan": _model("ldp-consistency", 1, "0.5") + ["--a", "nan", "--n-list", "10"],
    "err-consistency-n": _model("ldp-consistency", 1, "0.5") + ["--a", "0.5", "--n-list", "0"],
    "err-lower-start": _model("dominate", 2, "0.5")
    + ["--mode", "lower", "--n-max", "2", "--start", "0,1"],
    "err-dominate-n": _model("dominate", 2, "0.5") + ["--mode", "upper", "--n-max", "0"],
    "err-return-n": _model("return-prob", 1, "0.5") + ["--n-max", "-1"],
    "err-grid": _model("rate-fn", 1, "0.25") + ["--grid", "1"],
    "err-mgf-n": _model("mgf", 1, "0.25") + ["--s", "0.1", "--n-list", "0"],
    "err-x-nan": _model("rate-fn", 2, "0.5") + ["--x", "nan,0.1"],
    # exit 2: numerical and budget failures
    "err-budget": _model("mgf", 2, "0.5") + ["--s", "0.1,0.1", "--n-list", "2000"],
}

UNPINNED_MESSAGES = {
    "err-seed-negative", "err-seed-huge", "err-steps-zero", "err-paths-zero",
    "err-start-negative", "err-ballot-n", "err-a-nan", "err-consistency-n",
    "err-lower-start", "err-dominate-n", "err-return-n", "err-grid", "err-mgf-n",
    "err-x-nan",
}


def run_case(argv: list[str]) -> tuple[int, bytes, str, str]:
    """Run one invocation in a fresh directory holding the inputs; returns
    (exit status, artifact bytes, stdout text, stderr text)."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for src in INPUTS.iterdir():
            shutil.copy(src, work)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            dest = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
            artifact = (dest.read_bytes() if dest is not None and dest.exists()
                        else out.getvalue().encode() if dest is None else b"")
        finally:
            os.chdir(home)
    return code, artifact, out.getvalue(), err.getvalue()


def outcome(name: str) -> tuple[dict, bytes]:
    """The recordable outcome of one case and its artifact bytes."""
    argv = CASES[name]
    code, artifact, out, err = run_case(argv)
    if code != 0:
        return {"exit": code, "error": None if name in UNPINNED_MESSAGES else err}, b""
    summary = out if "--out" in argv else err
    return {"exit": code, "summary": summary}, artifact


def _expected() -> dict:
    return json.loads((GOLDEN / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name):
    expected = _expected()[name]
    code, artifact, out, err = run_case(CASES[name])
    assert code == expected["exit"]
    if code == 0:
        assert artifact == (GOLDEN / f"{name}.out").read_bytes()
        summary, other = (out, err) if "--out" in CASES[name] else (err, "")
        assert summary == expected["summary"]
        assert summary.count("\n") == 1
        assert other == ""
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if expected["error"] is not None:
            assert err == expected["error"]


def test_golden_out_file_matches_stdout():
    assert (GOLDEN / "out-file.out").read_bytes() == (GOLDEN / "out-stdout.out").read_bytes()


def test_golden_covers_every_subcommand_in_both_formats():
    runs = [argv for name, argv in CASES.items() if not name.startswith("err-")]
    commands = {argv[0] for argv in runs}
    assert commands == set(cli._COMMANDS)
    for command in commands:
        formats = {argv[argv.index("--format") + 1] for argv in runs
                   if argv[0] == command and "--format" in argv}
        assert formats == {"json", "csv"}, command


def _regenerate() -> None:
    for old in GOLDEN.glob("*.out"):
        old.unlink()
    recorded = {}
    for name in sorted(CASES):
        recorded[name], artifact = outcome(name)
        if recorded[name]["exit"] == 0:
            (GOLDEN / f"{name}.out").write_bytes(artifact)
    (GOLDEN / "expected.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
