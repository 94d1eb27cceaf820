"""Smoke check of the benchmark itself, at tiny input sizes (about a minute).

    python3 perfbench/smoke.py

1. Every workload runs, plain and traced, and reports correct outputs.
2. The metric names and units it prints are exactly those of BENCHMARK.json.
3. A deliberately corrupted result, an H with an edge that G lacks, is
   counted as a failed call.
4. Without the rforge sources next to it, run.py fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_small(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_workloads(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            done = run_small(workload, trace)
            assert done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, f"{workload} trace {trace}: {sorted(set(printed) ^ set(expected))}"
            print(f"ok  {workload} trace {trace}: {len(printed)} metrics, {result['attempted']} calls")


def check_fault_counted() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import measure

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=scratch))
    try:
        workload = measure.CliBatch(np.random.default_rng(7), True, workdir)
        calls = workload.calls()
        _, results = measure.run_pass(calls)
        clean = measure.Tally()
        measure.check_pass(calls, results, clean)
        assert clean.failed == 0, clean.failures
        g = workload.g48
        present = g.edge_pairs()
        missing = next((i, j) for i in range(g.n) for j in range(i + 1, g.n) if (i, j) not in present)
        with open(workdir / "h48.edges", "a", encoding="utf-8") as handle:
            handle.write(f"{missing[0]}\t{missing[1]}\t1.0\n")
        corrupted = measure.Tally()
        measure.check_pass(calls, results, corrupted)
        assert corrupted.failed >= 1, "an H with an edge outside G passed the checks"
        assert any("does not have" in f for f in corrupted.failures), corrupted.failures
        print(f"ok  corrupted H: fail_rate {corrupted.failed}/{corrupted.attempted}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = run_small("graph-dense", 0, cwd=Path(bare), script=Path(bare) / HERE.name / "run.py")
        assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
        print(f"ok  without sources: exit {done.returncode}, no result")


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_workloads(spec)
    check_fault_counted()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
