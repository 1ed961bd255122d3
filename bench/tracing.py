"""Span tracing of the library layers from outside the package.

``Tracer.install`` replaces every public function of ``simulate``, ``exact``
and ``ldp``, and ``cli.main``, with a wrapper that records a span (layer,
function, start, end, parent, request) in memory; ``uninstall`` puts the
originals back.  Calls between library functions go through module
attributes, so nested calls (``path_rate_functional`` -> ``rate_function``,
``ldp_consistency`` -> ``exact.propagate``) are seen and nest under their
caller.  A layer's self time is the time in its spans minus the time their
child spans cover, so nothing is counted twice.

Serialisation helpers (``dump_*``, ``*_csv_text``, ``path_from_json``) are
rendering and parsing work done for the command line; they are left
unwrapped, so their time stays in the calling ``cli.main`` span.

Work counters are taken at the same boundaries:

- ``simulate``: path-steps (steps x paths of each entry into the layer),
  boundary-visit fractions read from returned summaries, history bytes of
  returned trajectory arrays;
- ``exact``: box-model cell-steps of each dense sweep, prod(box shape) x n,
  computed from the arguments (a fixed work measure, not a count of cells
  the code touches), and the mass error of returned laws;
- ``ldp``: rate queries, solver iterations and KKT residuals read from the
  returned ``RateResult``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from biasedwalk import cli, exact, ldp, simulate

LAYERS = {"simulate": simulate, "exact": exact, "ldp": ldp}

# Sweep functions of the exact layer and the box each one propagates over:
# "reflected" is the box [0, start + n] of the reflected chain, "signed" the
# box [start - n, start + n] of the signed and drifted walks.
_SWEEPS = {
    "propagate": ("reflected", "n"),
    "log_mgf": ("reflected", "n"),
    "return_probability": ("reflected", "horizon"),
    "return_probability_profile": ("reflected", "max_horizon"),
    "propagate_full": ("signed", "n"),
    "propagate_drifted": ("signed", "n"),
}


def sweep_size(name: str, dim: int, start, n: int) -> tuple[int, int]:
    """(cells, steps) of the dense box the named exact sweep propagates over."""
    box, _ = _SWEEPS[name]
    start = (0,) * dim if start is None else start
    if box == "reflected":
        return math.prod(c + n + 1 for c in start), n
    return (2 * n + 1) ** dim, n


def _is_renderer(name: str) -> bool:
    return name.startswith("dump_") or name.endswith("_csv_text") or name == "path_from_json"


def public_functions(module) -> list[str]:
    """Names of the wrapped functions of one library module."""
    return sorted(
        name
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__
        and not name.startswith("_")
        and not _is_renderer(name)
    )


class Tracer:
    """In-memory spans plus per-layer counters for one benchmark run."""

    def __init__(self) -> None:
        # span: [layer, name, start, end, parent index, request id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._round = -1
        self.request_points: dict[int, int] = {}
        self.traced_rounds = 0
        self.path_steps = 0
        self.cell_steps = 0
        self.history_mb = 0.0
        self.grid_mb = 0.0
        self.visits_by_round: dict[int, list[int]] = {}
        self.rate_queries = 0
        self.rate_query_s = 0.0
        self.newton_iters = 0
        self.max_kkt = 0.0
        self.max_mass_error = 0.0
        self.artifact_bytes = 0
        self._laws: list[dict] = []
        self._patches = self._targets()

    # -- installation ------------------------------------------------------

    def _targets(self) -> list[tuple[object, str, object, object]]:
        """(module, name, original, wrapper) for every traced function."""
        targets = [(mod, layer, name) for layer, mod in LAYERS.items()
                   for name in public_functions(mod)]
        targets.append((cli, "cli", "main"))
        out = []
        for mod, layer, name in targets:
            fn = getattr(mod, name)
            out.append((mod, name, fn, self._wrap(layer, name, fn)))
        return out

    def install(self) -> None:
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    def begin_round(self, index: int) -> None:
        self._round = index
        self.traced_rounds += 1

    def begin_request(self, points: int) -> None:
        """Tag the spans of the next operation; points counts the rate
        queries the operation is asked for (0 when it asks for none)."""
        self._request += 1
        self.request_points[self._request] = points

    def _wrap(self, layer: str, name: str, fn):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [layer, name, 0.0, 0.0, parent, self._request]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            outer = parent is None or spans[parent][0] != layer
            self._count(layer, name, signature, args, kwargs, result, span, outer)
            return result

        return traced

    def _count(self, layer, name, signature, args, kwargs, result, span, outer) -> None:
        if layer == "simulate" and outer:
            plan = signature.bind(*args, **kwargs).arguments["plan"]
            self.path_steps += plan.steps * plan.paths
            indices = plan.paths * (plan.steps + 1)
            if isinstance(result, simulate.BatchSummary):
                self._visits(int(result.boundary_visit_counts.sum()), indices)
            elif name == "boundary_visits":
                self._visits(sum(k * v for k, v in result.items()), indices)
            elif isinstance(result, np.ndarray):
                self.history_mb = max(self.history_mb, result.nbytes / 1e6)
        elif layer == "exact" and name in _SWEEPS:
            bound = signature.bind(*args, **kwargs).arguments
            p = bound["p"]
            cells, steps = sweep_size(name, p.dim, bound.get("start"),
                                      bound[_SWEEPS[name][1]])
            self.cell_steps += cells * steps
            self.grid_mb = max(self.grid_mb, cells * 8 / 1e6)
            if isinstance(result, dict):
                self._laws.append(result)
        elif layer == "ldp" and name == "rate_function":
            self.rate_queries += 1
            self.rate_query_s += span[3] - span[2]
            self.newton_iters += result.iterations
            if math.isfinite(result.kkt_residual):
                self.max_kkt = max(self.max_kkt, result.kkt_residual)

    def _visits(self, visits: int, indices: int) -> None:
        acc = self.visits_by_round.setdefault(self._round, [0, 0])
        acc[0] += visits
        acc[1] += indices

    def end_request(self, artifact: Path | None) -> None:
        """Settle the counters that are too costly to take inside a span."""
        for law in self._laws:
            self.max_mass_error = max(self.max_mass_error, abs(math.fsum(law.values()) - 1.0))
        self._laws.clear()
        if artifact is not None and artifact.exists():
            self.artifact_bytes += artifact.stat().st_size

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics, with work and time given per traced round."""
        child_s = [0.0] * len(self.spans)
        for layer, name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        self_s = dict.fromkeys(("simulate", "exact", "ldp", "cli"), 0.0)
        entries = dict.fromkeys(self_s, 0)
        cli_total = 0.0
        sweeps = 0
        calls_in_point_requests = 0
        for i, (layer, name, t0, t1, parent, request) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child_s[i]
            if parent is None or self.spans[parent][0] != layer:
                entries[layer] += 1
            if layer == "cli":
                cli_total += t1 - t0
            if layer == "exact" and name in _SWEEPS:
                sweeps += 1
            if name == "rate_function" and self.request_points.get(request, 0):
                calls_in_point_requests += 1
        points = sum(self.request_points.values())
        rounds = max(self.traced_rounds, 1)
        first_visits = (self.visits_by_round[min(self.visits_by_round)]
                        if self.visits_by_round else [0, 1])

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "simulate.calls": entries["simulate"] / rounds,
            "simulate.self_s": self_s["simulate"] / rounds,
            "simulate.path_steps": self.path_steps / rounds,
            "simulate.ns_per_path_step": ratio(self_s["simulate"] * 1e9, self.path_steps),
            "simulate.boundary_visit_frac": ratio(*first_visits),
            "simulate.history_mb": self.history_mb,
            "exact.calls": sweeps / rounds,
            "exact.self_s": self_s["exact"] / rounds,
            "exact.cell_steps": self.cell_steps / rounds,
            "exact.ns_per_cell_step": ratio(self_s["exact"] * 1e9, self.cell_steps),
            "exact.grid_mb": self.grid_mb,
            "exact.max_mass_error": self.max_mass_error,
            "ldp.calls": entries["ldp"] / rounds,
            "ldp.self_s": self_s["ldp"] / rounds,
            "ldp.us_per_query": ratio(self.rate_query_s * 1e6, self.rate_queries),
            "ldp.newton_iters_mean": ratio(self.newton_iters, self.rate_queries),
            "ldp.calls_per_point": ratio(calls_in_point_requests, points),
            "ldp.max_kkt_residual": self.max_kkt,
            "cli.invocations": entries["cli"] / rounds,
            "cli.self_s": self_s["cli"] / rounds,
            "cli.self_frac": ratio(self_s["cli"], cli_total),
            "cli.artifact_mb": self.artifact_bytes / 1e6 / rounds,
            "cli.render_mb_per_s": ratio(self.artifact_bytes / 1e6, self_s["cli"]),
            "trace.overhead_frac": overhead_frac,
        }

    def write(self, path: Path) -> None:
        """Write every span as JSON, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            {"layer": layer, "name": name, "start": t0 - origin, "end": t1 - origin,
             "parent": parent, "request": request}
            for layer, name, t0, t1, parent, request in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


def overhead(untraced: list[float], traced: list[float]) -> float:
    """(median traced round - median untraced round) / median untraced round."""
    if not untraced or not traced:
        return 0.0
    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base
