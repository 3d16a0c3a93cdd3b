"""ribbonpoly benchmark: end-to-end and per-layer metrics for four workloads.

Measure one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload state_sums --seed 1 --seconds 24 --trace 0

``--trace 0`` runs fresh untraced passes over the same op list until
``--seconds`` have gone by (two at least) and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes for as long and
reports the per-layer metrics.  Every run verifies every op output: the first
pass runs the cross-checks (and, for the default seed, compares output
digests with ``expected/``), and each later pass must reproduce its outputs.

Other modes (they print reports, not a JSON result line):

    --compare A.json B.json   ratio B/A of every metric in two result files
    --sanity                  the rows of the ROADMAP baseline table
    --profile                 cProfile top-15 of one pass per workload
    --selftest                exact span counts on fixed inputs, twice
    --write-expected          output digests of the default seed

Each pass is a fresh single-threaded process with PYTHONHASHSEED=0 and
without RIBBONPOLY_WORKERS, because set order feeds the package's outputs
and the process-pool path must never be taken silently.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"
BASELINE = BENCH / "baseline"
WORKLOADS = ("state_sums", "contraction_deletion", "census", "gramian")
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 170
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 15
# About the median time of child.reference_sample() on a 2-vCPU shared VM with
# Python 3.11.  Timings are scaled to a machine on which it takes this long.
REFERENCE_S = 0.0035

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

COUNTS = [
    "maps.construct",
    "maps.signature",
    "maps.contract",
    "maps.delete_edge",
    "maps.flip_subset",
    "maps.euler_data",
    "invariants.subgraph_euler",
    "invariants.s_poly",
    "invariants.flow_poly",
    "invariants.virtual_chromatic",
    "invariants.s_poly_at",
    "algebra.arith",
    "algebra.from_dict",
    "algebra.evaluate",
    "algebra.substitute",
    "brauer.matching_then",
    "brauer.glue_map",
    "penrose.w_so",
    "spatial.expand_crossings",
    "spatial.yamada",
    "generate.canonical_form",
]
SELF_TIMES = [
    "maps.construct",
    "maps.signature",
    "maps.euler_data",
    "invariants.subgraph_euler",
    "invariants.s_poly",
    "invariants.flow_poly",
    "invariants.virtual_chromatic",
    "invariants.s_poly_at",
    "invariants.krushkal_poly",
    "algebra.arith",
    "algebra.evaluate",
    "algebra.substitute",
    "algebra.cyclotomic",
    "brauer.phi_evaluate",
    "brauer.gram_matrix",
    "brauer.gram_det",
    "brauer.sym_pairing_at",
    "penrose.w_so",
    "penrose.w_sl_extended",
    "penrose.cellular_embedding_poly",
    "penrose.planarity_by_flips",
    "spatial.expand_crossings",
    "spatial.yamada",
    "spatial.obstruction",
    "spatial.golden",
    "generate.cubic_maps",
    "generate.canonical_form",
    "vgf.parse",
    "vgf.serialize",
]
MODULES = ("maps", "invariants", "algebra", "brauer", "penrose", "spatial", "generate", "vgf")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.calls": "count" for name in COUNTS}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units.update({f"{module}.self_s": "s" for module in MODULES})
    units.update(
        {
            "maps.minor.self_s": "s",
            "spatial.resolutions": "count",
            "invariants.memo_entries": "count",
            "invariants.memo_hit_ratio": "ratio",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("RIBBONPOLY_WORKERS", None)
    return env


def run_child(workload: str, seed: int, mode: str, pass_index: int = 0) -> dict:
    """Start one pass and wait for it.

    Adds ``setup_s`` (spawn to inputs ready) and ``scale``, the factor that
    turns this pass's seconds into seconds at the reference speed.
    """
    command = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    command += ["--pass-index", str(pass_index)]
    if mode == "verify" and seed == DEFAULT_SEED:
        command += ["--expected", str(EXPECTED / f"{workload}.json")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} pass of {workload} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{mode} pass of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    if "reference_s" in result:  # every mode but sanity
        result["scale"] = REFERENCE_S / result["reference_s"]
    return result


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten ops beyond it (100 = max below 20 ops)."""
    if count < 20:
        return 100
    return (100 * (count - 10)) // count


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))  # nearest rank
    return ordered[rank - 1]


def failed_labels(passes: list[dict]) -> dict[str, str]:
    """Failures of the verified first pass, plus any later pass whose outputs differ from it."""
    first = passes[0]
    failures = dict(first["failures"])
    for later in passes[1:]:
        failures.update({k: v for k, v in later["failures"].items() if k not in failures})
        for label, digest in later["digests"].items():
            if first["digests"].get(label) != digest:
                failures.setdefault(label, "output differs between passes")
    return failures


def op_samples(passes: list[dict]) -> dict[str, list[float]]:
    """Each op's scaled latencies over the passes, by label, in first-pass order."""
    samples: dict[str, list[float]] = {label: [] for label, _seconds in passes[0]["ops"]}
    for p in passes:
        if sorted(label for label, _s in p["ops"]) != sorted(samples):
            raise ChildFailed("passes ran different op lists")
        for label, seconds in p["ops"]:
            samples[label].append(seconds * p["scale"])
    return samples


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Fresh passes over the same op list until ``seconds`` have gone by (two at least).

    The speed of a shared machine drifts by up to 2x over seconds to minutes,
    which no run length averages out.  So every timing is scaled by the pass's
    own reference samples (see ``REFERENCE_S``), and is then a median over the
    passes: ``setup_s`` of the set-ups, ``wall_s`` of the pass wall times, and
    the op quantiles of each op's median latency.  The record keeps the
    unscaled figures too.
    """
    run_child(workload, seed, "setup")  # compiles bytecode once; not measured
    start = time.monotonic()
    passes = [run_child(workload, seed, "verify")]
    start += passes[0]["verify_s"]  # the cross-checks do not use up the measuring time
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(run_child(workload, seed, "run", len(passes)))
    setups = [(p["setup_s"], p["scale"]) for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        extra = run_child(workload, seed, "setup")
        setups.append((extra["setup_s"], extra["scale"]))

    samples = op_samples(passes)
    latencies = [statistics.median(per_op) for per_op in samples.values()]
    tail = tail_percentile(len(latencies))
    values = {
        "setup_s": statistics.median(s * scale for s, scale in setups),
        "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in passes),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * percentile(latencies, tail),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    failures = failed_labels(passes)
    attempted = sum(len(p["ops"]) for p in passes)
    detail = {
        "ops_per_pass": len(latencies),
        "passes": len(passes),
        "op_tail_percentile": tail,
        "unscaled": {
            "setup_s": statistics.median(s for s, _scale in setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
        },
        "setup_samples": [s for s, _scale in setups],
        "setup_scales": [scale for _s, scale in setups],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_scales": [p["scale"] for p in passes],
        "op_scaled_s": samples,
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "checked_digests": passes[0].get("checked_digests", 0),
    }
    return {"values": values, "attempted": attempted, "failed": len(failures)}, detail


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes until ``seconds`` have gone by (one pair at least)."""
    run_child(workload, seed, "setup")
    start = time.monotonic()
    plain = [run_child(workload, seed, "verify")]
    start += plain[0]["verify_s"]
    traced_passes = [run_child(workload, seed, "trace", 1)]
    while time.monotonic() - start < seconds:
        plain.append(run_child(workload, seed, "run", len(plain) + len(traced_passes)))
        traced_passes.append(run_child(workload, seed, "trace", len(plain) + len(traced_passes)))
    # Self times come from the traced pass with the median scaled wall time,
    # and are scaled like the end-to-end timings.
    traced = sorted(traced_passes, key=lambda p: p["wall_s"] * p["scale"])[(len(traced_passes) - 1) // 2]
    trace, scale = traced["trace"], traced["scale"]
    calls = trace["calls"]
    self_s = {name: seconds * scale for name, seconds in trace["self_s"].items()}
    values = {f"{name}.calls": calls.get(name, 0) for name in COUNTS}
    values.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMES})
    values.update({f"{module}.self_s": trace["module_self_s"][module] * scale for module in MODULES})
    values["maps.minor.self_s"] = self_s.get("maps.contract", 0.0) + self_s.get("maps.delete_edge", 0.0)
    values["spatial.resolutions"] = trace["resolutions"]
    if trace["memo_entries"] is not None:  # absent once the memo dicts are renamed
        values["invariants.memo_entries"] = trace["memo_entries"]
        signatures = calls.get("maps.signature", 0)
        values["invariants.memo_hit_ratio"] = 1 - trace["memo_entries"] / signatures if signatures else 0.0
    values["trace.overhead_ratio"] = statistics.median(
        p["wall_s"] * p["scale"] for p in traced_passes
    ) / statistics.median(p["wall_s"] * p["scale"] for p in plain)
    passes = plain + traced_passes
    failures = failed_labels(passes)
    attempted = sum(len(p["ops"]) for p in passes)
    repeated = all(p["trace"]["calls"] == traced["trace"]["calls"] for p in traced_passes)
    detail = {
        "ops_per_pass": len(plain[0]["ops"]),
        "untraced_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [p["wall_s"] for p in traced_passes],
        "untraced_scales": [p["scale"] for p in plain],
        "traced_scales": [p["scale"] for p in traced_passes],
        "counts_repeat": repeated,
        "untraced_s": trace["untraced_s"],
        "shares": trace["shares"],
        "missing_spans": trace["missing_spans"],
        "wait_time": "none: one thread, no queues, so no layer waits on another",
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "checked_digests": plain[0].get("checked_digests", 0),
    }
    return {"values": values, "attempted": attempted, "failed": len(failures)}, detail


# ---------------------------------------------------------------------------
# Run record.
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """The checked-out commit, read from .git without starting git (unknown outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
        "pythonhashseed": "0",
        "load": "closed loop, one client, one single-threaded process per pass",
    }


def emit(workload: str, seed: int, trace: int, outcome: dict, detail: dict) -> None:
    units = per_layer_units() if trace else END_TO_END
    metrics = {name: {"value": value, "unit": units[name]} for name, value in outcome["values"].items()}
    record = {
        "workload": workload,
        "trace": trace,
        "environment": environment(seed),
        "metrics": metrics,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        **detail,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, metric in metrics.items():
        print(f"{workload:22s} {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    if detail["failures"]:
        for label, problem in sorted(detail["failures"].items()):
            print(f"FAILED {label}: {problem}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# Report-only modes.
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> None:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    print(f"A: {path_a} ({a['environment']['commit'][:12]})  B: {path_b} ({b['environment']['commit'][:12]})")
    for name, metric in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            print(f"{name:34s} {metric['value']:>12.6g}  (absent in B)")
            continue
        ratio = other["value"] / metric["value"] if metric["value"] else float("nan")
        print(f"{name:34s} {metric['value']:>12.6g} {other['value']:>12.6g}  B/A {ratio:8.4f} {metric['unit']}")


def sanity() -> None:
    """Time the ROADMAP baseline rows in fresh processes, next to the ROADMAP numbers."""
    rows = run_child("state_sums", DEFAULT_SEED, "sanity")["rows"]
    roadmap = {
        "s_poly state-sum, Petersen": "744 ms",
        "s_poly contraction-deletion, Petersen": "70 ms",
        "gram_det(5)": "10.2 s",
        "cubic_maps(8)": "(table has v=10: 3.6 s)",
        "cellular_embedding_poly over cubic_maps(8)": "(table has v=10: 36.8 s)",
    }
    print(f"{'row':44s} {'here':>10s}  ROADMAP")
    for name, seconds in rows.items():
        print(f"{name:44s} {seconds:10.3f}s  {roadmap.get(name, '')}")
    BASELINE.mkdir(exist_ok=True)
    record = {"environment": environment(DEFAULT_SEED), "rows_s": rows, "roadmap": roadmap}
    (BASELINE / "sanity.json").write_text(json.dumps(record, indent=1) + "\n")


def profile() -> None:
    BASELINE.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        text = run_child(workload, DEFAULT_SEED, "profile")["profile"]
        header = f"cProfile top-15 by self time, one pass of {workload}, seed {DEFAULT_SEED}\n"
        (BASELINE / f"profile-{workload}.txt").write_text(header + text)
        print(header + text)


def write_expected() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        digests = run_child(workload, DEFAULT_SEED, "run")["digests"]
        (EXPECTED / f"{workload}.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(digests)} digests")


def selftest() -> int:
    """Span counts on fixed inputs must repeat exactly and match closed forms."""
    runs = [run_child("selftest", DEFAULT_SEED, "trace") for _ in range(2)]
    calls = [r["trace"]["calls"] for r in runs]
    expected = runs[0]["expected_counts"]
    problems = []
    if calls[0] != calls[1] or runs[0]["trace"]["resolutions"] != runs[1]["trace"]["resolutions"]:
        problems.append("span counts differ between two identical runs")
    if calls[0].get("invariants.subgraph_euler") != expected["subgraph_euler"]:
        problems.append(f"subgraph_euler calls {calls[0].get('invariants.subgraph_euler')} != sum 2^E {expected['subgraph_euler']}")
    if runs[0]["trace"]["resolutions"] != expected["resolutions"]:
        problems.append(f"resolutions {runs[0]['trace']['resolutions']} != sum 3^c {expected['resolutions']}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"] for m in declared["per_layer"]} != set(per_layer_units()):
        problems.append("BENCHMARK.json per_layer names differ from the metrics run.py reports")
    if {m["name"] for m in declared["end_to_end"]} != set(END_TO_END):
        problems.append("BENCHMARK.json end_to_end names differ from the metrics run.py reports")
    for problem in problems:
        print("SELFTEST FAILED:", problem)
    if not problems:
        print(f"selftest passed: {expected['subgraph_euler']} subsets, {expected['resolutions']} resolutions, counts repeat")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--sanity", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    if not (ROOT / "src" / "ribbonpoly" / "__init__.py").is_file():
        print(f"error: no ribbonpoly package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.sanity:
            sanity()
        elif args.profile:
            profile()
        elif args.selftest:
            return selftest()
        elif args.write_expected:
            write_expected()
        elif args.workload is None:
            parser.error("--workload is required")
        elif args.trace:
            emit(args.workload, args.seed, 1, *measure_traced(args.workload, args.seed, args.seconds))
        else:
            emit(args.workload, args.seed, 0, *measure(args.workload, args.seed, args.seconds))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
