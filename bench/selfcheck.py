"""Self-check of the benchmark itself, at tiny sizes.

- Every workload, untraced and traced, emits exactly the metrics that
  BENCHMARK.json names for the mode, each a finite number with the listed
  unit, and fails no operation.
- A deliberately corrupted library result is caught: the output checks
  must count it as a failed operation.
- predictions.json names only workloads and metrics that exist.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path

from biasedwalk import cli, exact, simulate


@contextmanager
def patched(module, name: str, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _shift_endpoint(run):
    def corrupted(*args, **kwargs):
        raw = run(*args, **kwargs)
        raw.endpoints[0, 0] += 1
        return raw

    return corrupted


def _leak_mass(propagate):
    def corrupted(*args, **kwargs):
        law = propagate(*args, **kwargs)
        site = next(iter(law))
        law[site] *= 1.0 + 1e-9
        return law

    return corrupted


def _drop_csv_row(csv_table):
    return lambda header, rows: csv_table(header, rows[:-1])


CORRUPTIONS = {
    "mc_transient": (simulate, "_run", _shift_endpoint),
    "mc_boundary": (simulate, "_run", _shift_endpoint),
    "exact_horizons": (exact, "propagate", _leak_mass),
    "cli_report": (cli, "_csv_table", _drop_csv_row),
}


def main(wl, run) -> int:
    spec = run.spec()
    problems: list[str] = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(wl.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(wl.WORKLOADS)}")

    for name in wl.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(wl, name, seed=3, seconds=0, trace=trace,
                                      tiny=True, probes=1)
            line = run.result_line(result, trace)
            listed = spec["per_layer" if trace else "end_to_end"]
            if set(result["metrics"]) != {m["name"] for m in listed}:
                problems.append(f"{name} trace={int(trace)}: computed metrics "
                                f"{sorted(result['metrics'])} differ from BENCHMARK.json")
            for metric, entry in line["metrics"].items():
                value = entry["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{name}: {metric} = {value!r} is not a finite number")
                if not entry["unit"]:
                    problems.append(f"{name}: {metric} has no unit")
            if line["failed"] or not line["correct"]:
                problems.append(f"{name} trace={int(trace)}: {line['failed']} operations failed")
            print(f"{name} trace={int(trace)}: {len(line['metrics'])} metrics, "
                  f"{line['attempted']} operations")

    for name, (module, attr, make) in CORRUPTIONS.items():
        with patched(module, attr, make):
            result = run.run_workload(wl, name, seed=3, seconds=0, trace=False,
                                      tiny=True, probes=1)
        frac = result["meta"]["failed_frac"]
        print(f"{name} with {module.__name__}.{attr} corrupted: failed_frac {frac:.3f}")
        if not frac > 0:
            problems.append(f"{name}: corrupting {module.__name__}.{attr} went unnoticed")

    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    predictions = json.loads((Path(__file__).parent / "predictions.json").read_text())
    for p in predictions["predictions"]:
        unknown = set(p["per_layer"] + p["end_to_end"]) - metrics
        if unknown or p["workload"] not in wl.WORKLOADS:
            problems.append(f"predictions.json names unknown {sorted(unknown) or p['workload']}")

    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    if not problems:
        print("self-check passed")
    return 1 if problems else 0
