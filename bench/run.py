"""Benchmark of the biasedwalk package: one workload per run.

Run from the root of a checkout; the package is imported from ./src:

    python3 bench/run.py --workload mc_transient --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --self-check

A run sets up (import of ``biasedwalk.cli``, input generation, warm-up),
then runs rounds of the workload until ``--seconds`` have passed.  Each
round is a fixed list of operations on fresh inputs drawn from the seed
and the round number; every operation is timed on its own and its output
is checked outside the timed region.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` rounds alternate between untraced and
traced, and the metrics are the per-layer metrics.  The line before it
carries run metadata and sample counts.  Spans of a traced run are
written to ``.bench_out/``.

Set-up time is the median of several fresh processes that each import the
package, generate inputs and warm up, since an import happens once per
process.  Exit status is non-zero, with no result line, when the package
sources are missing or the arguments are wrong.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5


def import_library():
    """Import the benchmark modules, and with them the package in ./src."""
    if not (SRC / "biasedwalk" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources at {SRC / 'biasedwalk'}")
    sys.path.insert(0, str(SRC))
    import biasedwalk
    import workloads

    if Path(biasedwalk.__file__).resolve().parent != (SRC / "biasedwalk").resolve():
        raise SystemExit(f"error: biasedwalk was imported from {biasedwalk.__file__}")
    return workloads


@contextmanager
def scratch_dir():
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def rng(seed: int, round_index: int):
    import numpy as np

    return np.random.default_rng([seed % 2**64, round_index + 1])


def round_context(wl, tmp: Path, label: str, tiny: bool):
    """Context of one round; artifacts go to a directory of their own, as
    overwriting a file costs far more than writing a new one on some file
    systems."""
    path = tmp / label
    path.mkdir()
    return wl.Context(path, tiny)


def prepare(wl, workload, seed: int, tmp: Path) -> None:
    """Set-up work of one run: generate the first inputs, warm up every
    operation of the workload at small sizes."""
    workload.build(rng(seed, 0), 0, round_context(wl, tmp, "inputs", False))
    for op in workload.build(rng(seed, -1), -1, round_context(wl, tmp, "warm-up", True)):
        op.check(op.call())


def setup_probe(name: str, seed: int) -> None:
    start = perf_counter()
    wl = import_library()
    with scratch_dir() as tmp:
        prepare(wl, wl.WORKLOADS[name], seed, tmp)
    print(json.dumps({"setup_s": perf_counter() - start}))


def probe_setup(name: str, seed: int, probes: int) -> list[float]:
    """Set-up times of fresh processes, each waited for."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def git_commit() -> str:
    """Commit of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(wl, name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object and its metadata."""
    import numpy as np
    import scipy
    import tracing

    workload = wl.WORKLOADS[name]
    setup = probe_setup(name, seed, probes)
    tracer = tracing.Tracer() if trace else None
    attempted = failed = 0
    latencies: list[float] = []
    rounds: dict[bool, list[float]] = {False: [], True: []}
    work = 0.0

    def record(label: str, problems: list[str]) -> None:
        nonlocal failed
        if problems:
            failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)

    with scratch_dir() as tmp:
        prepare(wl, workload, seed, tmp)
        if workload.run_checks is not None:
            attempted += 1
            record("run checks", workload.run_checks())
        deadline = perf_counter() + seconds
        r = 0
        while r == 0 or (trace and r == 1) or perf_counter() < deadline:
            traced = trace and r % 2 == 1
            if traced:
                tracer.begin_round(r)
            round_s = 0.0
            ctx = round_context(wl, tmp, f"round-{r}", tiny)
            for op in workload.build(rng(seed, r), r, ctx):
                attempted += 1
                if traced:
                    tracer.begin_request(op.points)
                    tracer.install()
                start = perf_counter()
                try:
                    result, error = op.call(), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    result, error = None, exc
                elapsed = perf_counter() - start
                if traced:
                    tracer.uninstall()
                    tracer.end_request(op.artifact)
                else:
                    latencies.append(elapsed)
                    work += op.work
                round_s += elapsed
                if error is not None:
                    record(op.label, [f"raised {error!r}"])
                    continue
                try:
                    record(op.label, op.check(result))
                except Exception as exc:  # a malformed result can break its check
                    record(op.label, [f"check raised {exc!r}"])
                del result
            shutil.rmtree(ctx.tmp)
            rounds[traced].append(round_s)
            r += 1

    if trace:
        metrics = tracer.layer_metrics(tracing.overhead(rounds[False], rounds[True]))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}-seed{seed}.json")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(rounds[False]),
            "op_ms.p50": statistics.median(latencies) * 1e3,
            "work_per_s": work / sum(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    meta = {
        "workload": name, "layer": workload.layer, "work_unit": workload.work_unit,
        "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "commit": git_commit(), "blas_threads": os.environ["OMP_NUM_THREADS"],
        "samples": {"setup_s": len(setup), "wall_s": len(rounds[False]),
                    "op_ms.p50": len(latencies), "traced_rounds": len(rounds[True])},
        "failed_frac": failed / attempted,
    }
    return {"meta": meta, "attempted": attempted, "failed": failed, "metrics": metrics}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(run: dict, trace: bool) -> dict:
    """The result object, with every metric BENCHMARK.json names for the mode."""
    listed = spec()["per_layer" if trace else "end_to_end"]
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def pin_threads() -> None:
    """One thread for BLAS and OpenMP pools, in this process and its
    children; numpy is imported only after this."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny runs that check the metrics and the output checks")
    args = parser.parse_args(argv)
    if args.self_check:
        wl = import_library()
        import selfcheck

        return selfcheck.main(wl, sys.modules[__name__])
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    wl = import_library()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    run = run_workload(wl, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": run["meta"]}))
    print(json.dumps(result_line(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
