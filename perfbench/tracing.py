"""Spans around bundleflow's public functions, recorded from outside the program.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper in
every bundleflow module namespace that holds it, which is where its callers
look it up: ``flow``, ``hodge`` and ``bundle`` import ``split_metric`` and
friends by name, ``la.*`` is an attribute lookup on ``bundleflow.linalg``,
and the CLI imports inside ``run_scenario``. Each call records a span (name,
start, end, parent span) in memory; ``per_layer`` turns the spans into the
per-layer metrics and ``write`` stores them once the run is over.
"""
from __future__ import annotations

import csv
import functools
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

TARGETS = {
    "flow": ("solve_harmonic", "solve_poisson", "exhaustion_solve"),
    "bundle": ("split_metric", "codifferential", "tension", "covariant_d"),
    "linalg": ("comparison_functions", "metric_exp_update", "selfadjoint_part",
               "rel_eigvals", "check_metric", "sqrt_pair", "exp_hsa"),
    "hodge": ("higgs_from_harmonic", "hitchin_residuals", "flat_from_higgs",
              "composite_transports", "lambda_contraction"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "config": ("load_config", "make_reference_metric"),
    "cli": ("run_scenario",),
    "mesh": ("build_domain", "sublevel_domain"),
}

# Layers reported as calls, ms per call and self time, function by function.
PER_FUNCTION = ("bundle", "linalg", "hodge")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _file_size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "bundleflow" or k.startswith("bundleflow."))]
        for layer, names in TARGETS.items():
            home = sys.modules[f"bundleflow.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        probe = getattr(self, "_probe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                probe(span, args, kwargs, result)
            return result

        return traced

    # Counters taken at the layer boundaries.
    def _probe_linalg_metric_exp_update(self, span, args, kwargs, result) -> None:
        if span[3] >= 0 and _layer(self.spans[span[3]][0]) == "flow":
            self.counts["flow.trial_steps"] += 1
            self.counts["flow.site_trials"] += len(args[0])

    def _probe_flow_solve_harmonic(self, span, args, kwargs, result) -> None:
        self.counts["flow.accepted_steps"] += len(result.history) - 1

    _probe_flow_solve_poisson = _probe_flow_solve_harmonic

    def _probe_checkpoint_save_checkpoint(self, span, args, kwargs, result) -> None:
        self.counts["checkpoint.bytes_written"] += _file_size(args[0])

    def _probe_checkpoint_load_checkpoint(self, span, args, kwargs, result) -> None:
        self.counts["checkpoint.bytes_read"] += _file_size(args[0])

    def _probe_cli_run_scenario(self, span, args, kwargs, result) -> None:
        out = kwargs.get("out_dir", args[1] if len(args) > 1 else None)
        self.counts["cli.csv_bytes"] += _file_size(out and Path(out) / "run.csv")

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round (counts and seconds divided by ``rounds``)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        flow_wall = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
            if _layer(name) == "flow" and (parent < 0 or _layer(self.spans[parent][0]) != "flow"):
                flow_wall += end - start

        def ms_per_call(name: str) -> float:
            return 1e3 * total[name] / calls[name] if calls[name] else 0.0

        def layer_self(layer: str) -> float:
            return sum(v for k, v in own.items() if _layer(k) == layer) / rounds

        out: dict[str, float] = {}
        trials = self.counts["flow.trial_steps"]
        accepted = self.counts["flow.accepted_steps"]
        out["flow.accepted_steps"] = accepted / rounds
        out["flow.trial_steps"] = trials / rounds
        out["flow.accept_ratio"] = accepted / trials if trials else 0.0
        out["flow.site_trials"] = self.counts["flow.site_trials"] / rounds
        out["flow.ms_per_trial"] = 1e3 * flow_wall / trials if trials else 0.0
        out["flow.self_s"] = layer_self("flow")
        for layer in PER_FUNCTION:
            for fname in TARGETS[layer]:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = calls[name] / rounds
                out[f"{name}.ms_per_call"] = ms_per_call(name)
                out[f"{name}.self_s"] = own[name] / rounds
            out[f"{layer}.self_s"] = layer_self(layer)
        for fname in TARGETS["checkpoint"]:
            name = f"checkpoint.{fname}"
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.ms_per_call"] = ms_per_call(name)
        out["checkpoint.bytes_written"] = self.counts["checkpoint.bytes_written"] / rounds
        out["checkpoint.bytes_read"] = self.counts["checkpoint.bytes_read"] / rounds
        for name in ("config.load_config", "config.make_reference_metric",
                     "mesh.build_domain", "mesh.sublevel_domain"):
            out[f"{name}.ms_per_call"] = ms_per_call(name)
        out["cli.run_scenario.self_s"] = own["cli.run_scenario"] / rounds
        out["cli.csv_bytes"] = self.counts["cli.csv_bytes"] / rounds
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "name", "start_s", "end_s"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, parent, name, repr(start), repr(end)])
