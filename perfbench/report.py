"""Print every benchmark metric for every workload in one table.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--workloads graph-dense ...]

For each workload this makes three runs of run.py: the gated run with the
inherited BLAS thread count, an ungated single-threaded baseline
(``--blas-threads 1``), and a traced run.  It prints the environment, the
end-to-end metrics of the first two side by side (with ``fail_rate``,
failed calls over attempted calls), and the per-layer metrics of the traced
run, whose ``trace.overhead_s`` and ``trace.unaccounted_s`` give the cost of
tracing and the time no span covers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("graph-dense", "embed-steps", "cli-batch")


def run(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: run.py printed nothing (exit {done.returncode})\n{done.stderr}")
    env = next((json.loads(line)["env"] for line in lines if line.startswith('{"env"')), {})
    result = json.loads(lines[-1])
    result["metrics"]["fail_rate"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
    return env, result


def table(title: str, columns: list[str], rows: dict[str, tuple[str, list]]) -> None:
    print(f"\n## {title}\n")
    print("| metric | unit | " + " | ".join(columns) + " |")
    print("| --- | --- |" + " --- |" * len(columns))
    for name, (unit, values) in rows.items():
        cells = [f"{v:.6g}" if isinstance(v, (int, float)) else str(v) for v in values]
        print(f"| {name} | {unit} | " + " | ".join(cells) + " |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="every benchmark metric, every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]

    end_to_end: dict[str, tuple[str, list]] = {}
    per_layer: dict[str, tuple[str, list]] = {}
    columns, env = [], {}
    for workload in args.workloads:
        env, default = run(workload, args.seed, seconds, 0)
        _, single = run(workload, args.seed, seconds, 0, "--blas-threads", "1")
        _, traced = run(workload, args.seed, seconds, 1)
        columns += [f"{workload} (default)", f"{workload} (1 thread)"]
        for name, metric in default["metrics"].items():
            row = end_to_end.setdefault(name, (metric["unit"], []))
            row[1].extend([metric["value"], single["metrics"][name]["value"]])
        for name, metric in traced["metrics"].items():
            per_layer.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        if not (default["correct"] and single["correct"] and traced["correct"]):
            print(f"{workload}: some outputs failed their checks; see the fail_rate row", file=sys.stderr)

    print(f"# rforge benchmark, seed {args.seed}, {seconds:g} s per run\n")
    print("environment: " + json.dumps(env))
    table("End to end", columns, end_to_end)
    table("Per layer (traced run)", list(args.workloads), per_layer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
