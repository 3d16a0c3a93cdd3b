"""One pass of one workload, in a fresh process: set up, run the ops, verify.

Started by run.py; prints one JSON object on stdout.  The op loop is a closed
loop with one client: each op starts when the previous one has returned.
Output rendering, digests and cross-checks run after the loop, untimed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_EVERY_S = 0.2  # op time between two reference samples


def _import_package():
    """Import ribbonpoly from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "ribbonpoly" / "__init__.py").is_file():
        sys.exit(f"no ribbonpoly package under {src}")
    sys.path.insert(0, str(src))
    import ribbonpoly

    if Path(ribbonpoly.__file__).resolve().parent != (src / "ribbonpoly").resolve():
        sys.exit(f"imported ribbonpoly from {ribbonpoly.__file__}, not from {src}")
    return ribbonpoly


def reference_sample() -> float:
    """Time of a fixed pure-Python loop that builds and drops small tuples,
    dicts and lists, as the package does (about 3.5 ms), with the collector off.

    run.py scales each pass's timings by the median of its samples, so that a
    pass run while a shared machine was slow reads as at a fixed speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    kept = []
    for step in range(8_000):
        kept.append({(step, step + 1, step % 7): [step, -step]})
        if len(kept) > 64:
            kept.clear()
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "verify", "trace", "profile", "sanity"), default="run")
    parser.add_argument("--expected", default="")
    parser.add_argument("--pass-index", type=int, default=0)
    args = parser.parse_args()

    _import_package()
    import workloads

    if args.mode == "sanity":
        print(json.dumps({"ready": time.monotonic(), "rows": workloads.sanity_rows()}))
        return 0
    ops = workloads.SETUPS[args.workload](args.seed, args.pass_index)
    ready = time.monotonic()
    reference = [reference_sample()]
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "reference_s": reference[0]}))
        return 0

    tracer = profiler = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    elif args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    records = []  # (op, output, seconds, error)
    clock = time.perf_counter
    loop_start = last_sample = clock()
    sampling = 0.0  # time spent in reference samples, taken out of the wall time
    for op in ops():
        start = clock()
        try:
            out, error = op.call(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        records.append((op, out, end - start, error))
        if profiler is None and end - last_sample >= REFERENCE_EVERY_S:
            reference.append(reference_sample())
            last_sample = clock()
            sampling += last_sample - end
    wall = clock() - loop_start - sampling
    if profiler is None:
        reference.append(reference_sample())
    peak_rss = _peak_rss_mb()

    result = {
        "ready": ready,
        "reference_s": statistics.median(reference),
        "wall_s": wall,
        "peak_rss_mb": peak_rss,
        "ops": [[op.label, seconds] for op, _out, seconds, _err in records],
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report(wall)
    if profiler is not None:
        import io
        import pstats

        profiler.disable()
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).strip_dirs().sort_stats("tottime").print_stats(15)
        result["profile"] = text.getvalue()

    failures = {op.label: err for op, _out, _s, err in records if err is not None}
    digests = {}
    for op, out, _s, err in records:
        if err is None:
            digests[op.label] = hashlib.sha256(workloads.render(out).encode("utf-8")).hexdigest()[:16]
    result["digests"] = digests
    result["expected_counts"] = getattr(ops, "expected_counts", None)

    if args.mode == "verify":
        verify_start = time.monotonic()
        verifier = workloads.Verifier(args.seed, [op for op, *_ in records])
        for op, out, _s, err in records:
            if err is not None:
                continue
            try:
                problem = verifier.check(op, out)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failures[op.label] = problem
        expected = workloads.load_expected(Path(args.expected)) if args.expected else {}
        if expected:
            for label in set(expected) | set(digests):
                if digests.get(label) != expected.get(label):
                    failures.setdefault(label, "output digest differs from the expected file")
        result["checked_digests"] = len(expected)
        result["verify_s"] = time.monotonic() - verify_start
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
