"""One fresh interpreter running one workload once.

Usage (from bench/run.py, which feeds the workload's inputs as JSON on
stdin): python3 bench/child.py SPAWN_TIME [WORKLOAD] [--trace] [--fault NAME]

Without a workload the child only measures its own set-up.

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start and the package
import; it is reported as measured, and the parent scales it.  The
host-speed probe runs between operations, and the operation times are
reported on its reference scale (see calibration.py) and as measured.
The last line of stdout is the JSON result.
"""

import time

import treecalc.cli  # noqa: F401  (what every CLI call imports)

SETUP_END = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Operation time between two host-speed probes.
PROBE_EVERY_S = 0.1


def inject_fault(name: str) -> None:
    """Make the named identities function return a wrong value on its
    first call, to show that the benchmark catches it."""
    original = getattr(workloads.identities, name)
    calls = []

    def faulty(*args, **kwargs):
        calls.append(1)
        value = original(*args, **kwargs)
        return value + 1 if len(calls) == 1 else value

    tracing.rebind(original, faulty)


def run(ops, tracer) -> dict:
    attempted = failed = 0
    failures = []
    outcomes = hashlib.sha256()
    side_ids = {}
    probes = [calibration.probe()]
    segments = []  # operation time between consecutive probes
    since_probe = 0.0
    for op in ops:
        attempted += 1
        error = None
        if tracer is not None:
            side = side_ids.setdefault(op.side, tracer.name_id("bench." + op.side))
            span = tracer.open(side)
        start = time.perf_counter()
        try:
            value = op.call()
        except Exception as exc:  # a raising operation is a failed one
            error = repr(exc)
        since_probe += time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        if since_probe >= PROBE_EVERY_S:
            segments.append(since_probe)
            probes.append(calibration.probe())
            since_probe = 0.0
        if error is None:
            try:
                if not op.check(value):
                    error = "wrong result"
            except Exception as exc:  # an unreadable result is a wrong one
                error = f"check raised {exc!r}"
        if error is not None:
            failed += 1
            if len(failures) < 10:
                failures.append([op.name, error])
        outcomes.update(f"{op.name}\t{error is None}\n".encode())
    segments.append(since_probe)
    probes.append(calibration.probe())
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "outcomes": outcomes.hexdigest(),
        "probes": probes,
        "measured_wall_s": sum(segments),
        "wall_s": calibration.scaled(segments, probes),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("spawn_time", type=float)
    parser.add_argument("workload", nargs="?", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--fault", default=None)
    args = parser.parse_args()
    setup_s = SETUP_END - args.spawn_time
    if args.workload is None:
        print(json.dumps({"setup_s": setup_s}))
        return
    inputs = json.load(sys.stdin)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.fault:
        inject_fault(args.fault)
    result = run(workloads.WORKLOADS[args.workload](inputs), tracer)
    probes = result.pop("probes")
    result["probe_s"] = statistics.median(probes)
    result["setup_s"] = setup_s
    if tracer is not None:
        # per-layer times on the reference scale of this repetition
        scale = calibration.REFERENCE_S / statistics.median(probes)
        result["layers"] = tracing.layer_metrics(tracer, result["attempted"], scale)
        result["layer_self_s"] = tracing.layer_self_s(tracer, scale)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
