"""Spans around rforge's public functions, and the per-layer figures.

The tracer replaces every public function of every loaded ``rforge`` module
at each place it is looked up: ``from .linalg import eigh`` binds a second
name, so ``rforge.bss.eigh`` and ``rforge.linalg.eigh`` are wrapped
separately, and both record spans named ``linalg.eigh`` (defining module
plus function).  Names are discovered when the tracer is installed, so
functions that a later version of the library deletes simply stop
appearing.  Spans (name, start, end, parent) stay in memory; ``write``
saves them once the run is over.

A span's self time is its duration minus the durations of its direct
children; the library is single-threaded Python, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

import numpy as np

# (name, unit) of every per-layer metric, in report order.
METRICS = [
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.self_s", "s"),
    ("linalg.resolvent_apply.calls", "count"),
    ("linalg.resolvent_apply.self_s", "s"),
    ("linalg.isotropic_reduce.self_s", "s"),
    ("bss.barrier_gaps.self_s", "s"),
    ("bss.candidate_scores.self_s", "s"),
    ("bss.select_and_step.self_s", "s"),
    ("bss.certify_s", "s"),
    ("bss.step_ms.p50", "ms"),
    ("bss.step_ms.tail", "ms"),
    ("bss.step_ms.tail_pct", "%"),
    ("bss.step_ms.samples", "count"),
    ("bss.steps", "count"),
    ("bss.candidates_scored", "count"),
    ("bss.distinct_ratio", "ratio"),
    ("graphs.sparsify_graph_s", "s"),
    ("graphs.verify_quality_s", "s"),
    ("graphs.spectral_gap_ratio_s", "s"),
    ("restricted.ri_select_s", "s"),
    ("restricted.steps", "count"),
    ("embed.cut_decompose_s", "s"),
    ("embed.embed_l1_s", "s"),
    ("embed.approximate_john_s", "s"),
    ("embed.embed_lp_even_s", "s"),
    ("embed.frame_rows", "count"),
    ("nonlinear.p_energy.calls", "count"),
    ("nonlinear.p_energy_s", "s"),
    ("formats.read_s", "s"),
    ("formats.write_s", "s"),
    ("cli.sparsify_graph_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.sparsify_frame_s", "s"),
    ("cli.ri_select_s", "s"),
    ("cli.embed_lp_s", "s"),
    ("cli.john_approx_s", "s"),
    ("cli.cycle_demo_s", "s"),
    ("cli.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.spans", "count"),
]

# The library call each CLI command exists to make.  The rest of the time
# inside ``cli.run`` (recomputed certificates, diagnostics, report building)
# is CLI overhead; formats spans are reported on their own.
_BUILDERS = {
    "sparsify-graph": ("graphs.sparsify_graph",),
    "sparsify-frame": ("bss.sparsify_frame",),
    "ri-select": ("restricted.ri_select",),
    "embed-l1": ("embed.embed_l1",),
    "embed-lp": ("embed.embed_lp_even",),
    "john-approx": ("embed.approximate_john",),
    "verify": ("graphs.verify_quality",),
    "cycle-demo": ("nonlinear.",),
}

# What to remember about a call, by span name: f(args, result).
_NOTES = {
    "bss.candidate_scores": lambda args, result: args[1].size,
    "bss.select_and_step": lambda args, result: result[1],
    "bss.sparsify_frame": lambda args, result: args[0].size,
    "restricted.ri_select": lambda args, result: len(result[0]),
    "cli.run": lambda args, result: args[0].command,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        for column in (self.names, self.starts, self.ends, self.parents, self.notes):
            column.clear()

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items()) if key == "rforge" or key.startswith("rforge.")]
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("rforge."):
                    continue
                name = fn.__module__.split(".", 1)[1] + "." + fn.__name__
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name):
        names, starts, ends, parents, notes, stack = (
            self.names, self.starts, self.ends, self.parents, self.notes, self._stack,
        )
        note = _NOTES.get(name)
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            notes.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                try:
                    notes[idx] = note(args, result)
                except Exception:  # noqa: BLE001 - a changed signature loses the note, never the call
                    pass
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write(json.dumps(row) + "\n")

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last clear()."""
        names = np.array(self.names, dtype=object)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=int)
        child = parents >= 0
        self_s = dur - np.bincount(parents[child], weights=dur[child], minlength=len(dur))

        def where(span):
            return names == span

        def total(values, span):
            return float(values[where(span)].sum())

        def noted(spans):
            return sum(self.notes[i] or 0 for i in spans)

        out = {
            "linalg.eigh.calls": int(where("linalg.eigh").sum()),
            "linalg.eigh.self_s": total(self_s, "linalg.eigh"),
            "linalg.resolvent_apply.calls": int(where("linalg.resolvent_apply").sum()),
            "linalg.resolvent_apply.self_s": total(self_s, "linalg.resolvent_apply"),
            "linalg.isotropic_reduce.self_s": total(self_s, "linalg.isotropic_reduce"),
            "bss.barrier_gaps.self_s": total(self_s, "bss.barrier_gaps"),
            "bss.candidate_scores.self_s": total(self_s, "bss.candidate_scores"),
            "bss.select_and_step.self_s": total(self_s, "bss.select_and_step"),
            "graphs.sparsify_graph_s": total(dur, "graphs.sparsify_graph"),
            "graphs.verify_quality_s": total(dur, "graphs.verify_quality"),
            "graphs.spectral_gap_ratio_s": total(dur, "graphs.spectral_gap_ratio"),
            "restricted.ri_select_s": total(dur, "restricted.ri_select"),
            "embed.cut_decompose_s": total(dur, "embed.cut_decompose"),
            "embed.embed_l1_s": total(dur, "embed.embed_l1"),
            "embed.approximate_john_s": total(dur, "embed.approximate_john"),
            "embed.embed_lp_even_s": total(dur, "embed.embed_lp_even"),
            "nonlinear.p_energy.calls": int(where("nonlinear.p_energy").sum()),
            "nonlinear.p_energy_s": total(dur, "nonlinear.p_energy"),
            "formats.read_s": sum(total(dur, n) for n in set(self.names) if n.startswith("formats.read")),
            "formats.write_s": sum(total(dur, n) for n in set(self.names) if n.startswith("formats.write")),
        }

        frames = np.flatnonzero(where("bss.sparsify_frame"))
        certify = self_s[frames].sum()
        eigh_child = where("linalg.eigh") & np.isin(parents, frames)
        out["bss.certify_s"] = float(certify + dur[eigh_child].sum())
        out["embed.frame_rows"] = noted(
            i for i in frames if parents[i] >= 0 and self.names[parents[i]].startswith("embed.")
        )
        out["restricted.steps"] = noted(np.flatnonzero(where("restricted.ri_select")))
        out["bss.candidates_scored"] = noted(np.flatnonzero(where("bss.candidate_scores")))
        out.update(self._step_metrics(parents))
        out.update(self._cli_metrics(dur, parents))

        accounted = float(dur[~child].sum())
        out["trace.wall_s"] = wall_s
        out["trace.unaccounted_s"] = wall_s - accounted
        out["trace.spans"] = len(self.names)
        return out

    def _step_metrics(self, parents) -> dict[str, float]:
        """Iterations of the barrier loop: barrier_gaps start to the end of
        the matching select_and_step, paired in order under one caller."""
        gaps: dict[int, list[float]] = {}
        steps: dict[int, list[int]] = {}
        for i, name in enumerate(self.names):
            if name == "bss.barrier_gaps":
                gaps.setdefault(parents[i], []).append(self.starts[i])
            elif name == "bss.select_and_step":
                steps.setdefault(parents[i], []).append(i)
        times, count, distinct = [], 0, 0
        for parent, idx in steps.items():
            count += len(idx)
            distinct += len({self.notes[i] for i in idx})
            times += [1e3 * (self.ends[i] - s) for i, s in zip(idx, gaps.get(parent, []))]
        p50, tail, pct = step_percentiles(times)
        return {
            "bss.steps": count,
            "bss.distinct_ratio": distinct / count if count else 0.0,
            "bss.step_ms.p50": p50,
            "bss.step_ms.tail": tail,
            "bss.step_ms.tail_pct": pct,
            "bss.step_ms.samples": len(times),
        }

    def _cli_metrics(self, dur, parents) -> dict[str, float]:
        out = {name: 0.0 for name, _ in METRICS if name.startswith("cli.") and name != "cli.overhead_s"}
        overhead = 0.0
        runs = [i for i, name in enumerate(self.names) if name == "cli.run"]
        for i in runs:
            command = self.notes[i]
            key = f"cli.{str(command).replace('-', '_')}_s"
            if key in out:
                out[key] += float(dur[i])
            library = _BUILDERS.get(command, ()) + ("formats.",)
            children = np.flatnonzero(parents == i)
            overhead += float(dur[i]) - sum(
                float(dur[c]) for c in children if self.names[c].startswith(library)
            )
        out["cli.overhead_s"] = overhead
        return out


def step_percentiles(times: list[float]) -> tuple[float, float, float]:
    """Median, and the highest of a few percentiles with >= 10 samples beyond it."""
    if not times:
        return 0.0, 0.0, 0.0
    values = np.asarray(times)
    pct = next((p for p in (99.9, 99.0, 95.0, 90.0, 75.0) if len(values) * (1 - p / 100) >= 10), 50.0)
    return float(np.median(values)), float(np.percentile(values, pct)), pct
