#!/usr/bin/env python3
"""treecalc benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload hook-levels --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it uses the package under ``src/`` and
nothing else.  The workload's inputs are generated from ``--seed``.  Each
repetition of the workload runs in a fresh interpreter, one at a time,
until ``--seconds`` have passed, so every ``lru_cache`` starts cold, as it
does for a user running one ``treecalc`` command.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` traced and untraced repetitions alternate
and the result holds the per-layer metrics.  The last line of stdout is
the result; the line before it is a detailed record of the run (samples,
percentiles, failures, input digest and environment).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import inputs as bench_inputs  # noqa: E402

MIN_REPETITIONS = 3
# Set-up-only interpreters started before each repetition: set-up time is
# short and varies more than the workloads, so it takes more samples.
SETUP_SAMPLES = 5
# A run must end within 180 s; no repetition starts that could pass this.
DEADLINE_S = 165.0


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TREECALC_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _prime() -> bool:
    """Import the package once, untimed, so that byte-compiling it is not
    charged to the first repetition; fails when the checkout has no
    package, even if another copy is installed."""
    src = str(ROOT / "src")
    check = f"import sys, treecalc.cli; sys.exit(not treecalc.__file__.startswith({src!r}))"
    done = subprocess.run(
        [sys.executable, "-c", check],
        env=_child_env(),
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        timeout=60,
    )
    return done.returncode == 0


def _bare_start() -> float | None:
    """Seconds from starting an interpreter that imports nothing to its
    exit, or None if it fails; set-up time is put on this scale.  There is
    no timeout: waiting with one polls, and rounds the time to the poll."""
    begun = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", "pass"], env=_child_env(), cwd=ROOT, stdin=subprocess.DEVNULL
    )
    return time.monotonic() - begun if done.returncode == 0 else None


def _repetition(
    workload: str | None, payload: bytes | None, traced: bool, fault: str | None, timeout: float
) -> dict:
    """Run the workload once in a fresh interpreter, or with no workload
    only start it, and return its record; a crash or a timeout is recorded
    as one failed operation.  ``fault`` names an ``identities`` function
    that the child makes return one wrong value (the self-tests use it)."""
    spawn_time = time.monotonic()
    argv = [sys.executable, str(BENCH / "child.py"), repr(spawn_time)]
    if workload:
        argv.append(workload)
    if traced:
        argv.append("--trace")
    if fault:
        argv += ["--fault", fault]
    proc = subprocess.Popen(
        argv, env=_child_env(), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE
    )
    try:
        out, _ = proc.communicate(payload, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"traced": traced, "crashed": f"timed out after {timeout:.0f} s"}
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        return {"traced": traced, "crashed": f"exit code {proc.returncode}"}
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return {"traced": traced, "crashed": "no result line"}
    record["traced"] = traced
    return record


def _summary(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples above it."""
    ordered = sorted(values)
    out = {"n": len(ordered), "median": statistics.median(ordered), "samples": ordered}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    rank = len(ordered) - 10  # 1-based rank with ten samples above it
    if rank >= 1:
        out["tail"] = {"percentile": 100.0 * rank / len(ordered), "value": ordered[rank - 1]}
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git, or
    'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    started = time.monotonic()
    if not _prime():
        print("cannot import treecalc from src/; run from a treecalc checkout", file=sys.stderr)
        return 1
    inputs = bench_inputs.make_inputs(args.workload, args.seed)
    payload = json.dumps(inputs).encode()
    load_before = os.getloadavg()

    records: list[dict] = []
    setups: list[dict] = []
    bare: list[float | None] = []
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        begun = time.monotonic()
        for _ in range(SETUP_SAMPLES):
            setups.append(_repetition(None, None, False, None, DEADLINE_S - (begun - started)))
            bare.append(_bare_start())
        remaining = DEADLINE_S - (time.monotonic() - started)
        records.append(_repetition(args.workload, payload, traced, None, remaining))
        longest = max(longest, time.monotonic() - begun)
        elapsed = time.monotonic() - started
        enough = len(records) >= (2 if args.trace else MIN_REPETITIONS)
        if (
            "crashed" in records[-1]
            or (elapsed >= args.seconds and enough)
            or elapsed + 1.5 * longest > DEADLINE_S
        ):
            break

    load_after = os.getloadavg()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    finished = [r for r in records if "crashed" not in r]
    plain = [r for r in finished if not r["traced"]]
    traced_runs = [r for r in finished if r["traced"]]
    started_only = [r for r in setups if "crashed" not in r]
    crashed = [r["crashed"] for r in records + setups if "crashed" in r]
    attempted = sum(r["attempted"] for r in finished) + len(crashed)
    failed = sum(r["failed"] for r in finished) + len(crashed)
    # Traced and untraced repetitions must agree on every operation's outcome.
    agree = len({r["outcomes"] for r in finished}) <= 1
    correct = failed == 0 and agree and bool(plain)

    wall = _summary([r["wall_s"] for r in plain]) if plain else None
    set_up = [r["setup_s"] for r in finished + started_only]
    bare_starts = [t for t in bare if t is not None]
    setup = None
    if set_up and bare_starts:
        # Set-up time in units of a bare interpreter start, taken in the
        # same run, so that drift in process start-up cancels out.
        scale = calibration.BARE_START_S / statistics.median(bare_starts)
        setup = _summary([t * scale for t in set_up])
    measured = {
        "wall_s": _summary([r["measured_wall_s"] for r in plain]) if plain else None,
        "setup_s": _summary(set_up) if set_up else None,
        "bare_start_s": _summary(bare_starts) if bare_starts else None,
    }
    if args.trace:
        metrics = {}
        for metric in spec["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            if name == "trace.overhead_ratio":
                value = (
                    statistics.median(r["wall_s"] for r in traced_runs) / wall["median"]
                    if traced_runs and wall
                    else 0.0
                )
            else:
                value = statistics.median(r["layers"][name] for r in traced_runs) if traced_runs else 0.0
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "wall_s": wall["median"] if wall else 0.0,
            "setup_s": setup["median"] if setup else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": bench_inputs.digest(inputs),
        "trace": args.trace,
        "repetitions": len(plain),
        "traced_repetitions": len(traced_runs),
        "wall_s": wall,
        "setup_s": setup,
        "measured": measured,
        # Median host-speed probe of each workload repetition, in order: the
        # scale factors behind the scaled times.
        "probe_s": [r["probe_s"] for r in finished],
        "peak_rss_mb": peak_rss_mb,
        "layer_self_s": {
            layer: statistics.median(r["layer_self_s"].get(layer, 0.0) for r in traced_runs)
            for layer in sorted({k for r in traced_runs for k in r["layer_self_s"]})
        },
        "fail_ratio": failed / attempted if attempted else 0.0,
        "outcomes_agree": agree,
        "failures": [f for r in finished for f in r["failures"]][:10] + crashed,
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "git_commit": _git_commit(),
            "loadavg_before": load_before,
            "loadavg_after": load_after,
        },
    }
    print(json.dumps(detail))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
