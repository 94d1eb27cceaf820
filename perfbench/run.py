"""rforge benchmark: one run of one workload.

    python3 perfbench/run.py --workload graph-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; rforge is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The lines before it record the environment and the size and
a digest of each call's selection.  The exit status is 0 only when every output passed
its check.

Set-up time is the median over several fresh processes (six probes plus
the measuring process), each timed from just before it is started until
rforge is imported and the workload's inputs are built and validated.
``--blas-threads N`` sets the BLAS thread count in the measuring processes'
environment before numpy loads; unset, they inherit this environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("graph-dense", "embed-steps", "cli-batch")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "quality_headroom": "ratio"}
SETUP_PROBES = 6
DEADLINE_S = 170.0


def _child(args, env, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), *(["--small"] if args.small else []), *extra,
    ]
    cmd += ["--spawned-at", repr(time.monotonic())]
    done = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if done.returncode != 0:
        raise RuntimeError(f"measuring process exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "rforge").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rforge benchmark: one run of one workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, help="BLAS threads for the measuring processes (default: inherit)")
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rforge" / "__init__.py").is_file():
        print(f"run.py: no rforge sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if args.blas_threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(args.blas_threads)

    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [_child(args, env, deadline, "--setup-only")["setup_s"] for _ in range(probes)]
        out = _child(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    record = dict(out["env"], git_sha=_git_sha(), src_lines=_src_lines(), blas_threads_requested=args.blas_threads)
    print(json.dumps({"env": record, "pass_walls": out["pass_walls"]}))
    print(json.dumps({"selections": out["selections"]}))
    for failure in out["failures"]:
        print(f"run.py: FAILED {failure}", file=sys.stderr)

    if args.trace:
        metrics = out["per_layer"]
    else:
        values = dict(out, setup_s=statistics.median(setups + [out["setup_s"]]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = out["failed"] == 0 and out["attempted"] > 0
    result = {"correct": correct, "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
