#!/usr/bin/env python3
"""Diff a fresh bench_tensor_ops JSON against the committed baseline.

Usage:
    check_bench_regression.py BASELINE.json NEW.json [--threshold 0.30]
    check_bench_regression.py --json-schema BENCH.json   # validate shape only

Compares cpu_time for the tracked kernel benchmarks and fails (exit 1) when
any of them regresses by more than the threshold (default 30%). Because the
committed baseline and the CI runner are different machines, raw nanoseconds
are first normalized by the median new/baseline ratio across ALL shared
benchmarks: a uniformly slower (or faster) machine shifts every benchmark by
the same factor and cancels out, while a kernel that regressed relative to
the rest of the suite sticks out.

A TRACKED benchmark present in the baseline but absent from the new run is a
FAILURE: a silently dropped gate (renamed bench, crashed fixture, stale
filter) would otherwise look exactly like a pass forever. A tracked
benchmark present only in the new run is skipped with a warning — it has no
baseline yet; regenerate BENCH_tensor_ops.json to start gating it. Untracked
benchmarks never gate in either direction, so adding or retiring baselines
(Legacy*/*Loop/*ScalarAct exist to measure ratios, not to be fast) does not
break CI.
"""

import argparse
import json
import statistics
import sys

# Name prefixes of the kernels whose performance this repo guarantees.
TRACKED_PREFIXES = (
    "BM_MatMulFwdBwd_Fast",
    "BM_AttentionFwdBwd_Batched",
    "BM_BatchGemmKernel",
    # PlanGemm, the plan replay's fused GEMM, at the serving engine's two hot
    # shapes: the AVX-512 LSTM gate dual product and the portable tanh step.
    "BM_PlanGemmKernel",
    # The single-product GEMM micro-kernel at model shapes, on the dispatched
    # (AVX-512 where available) path and on the forced-portable path. Both
    # are tracked: the dispatched entry guards the micro-kernel itself, the
    # portable entry guards the fallback every non-AVX-512 host serves from.
    "BM_GemmKernel/",
    "BM_GemmKernelPortable/",
    "BM_LstmStepFused/",  # trailing slash: excludes the ScalarAct baseline
    "BM_SoftmaxFwdBwd",
    "BM_AdamUpdate_Fast",
    # Forward-only inference at the table-8 batch shape and the serving
    # engine's scenes/sec path. BM_PredictGradMode is the in-binary baseline
    # for the ratio and is deliberately NOT tracked. The BM_InferenceEngine
    # prefix tracks both the Drain-paced path (BM_InferenceEngine/{1,8,32})
    # and the multi-producer async path (BM_InferenceEngineAsync/{1,4});
    # both gate on whole-process CPU (execution lives on the dispatcher and
    # worker threads, not the benchmark main thread). BM_PredictPlanned is
    # the warm execution-plan replay path (tensor/plan.h) — pure steady-state
    # serving cost; BM_PredictEager is its plans-off baseline and, like
    # GradMode, deliberately NOT tracked. The BM_InferenceEngine prefix also
    # picks up BM_InferenceEnginePlanned (warm-cache serving at batch 8).
    "BM_PredictNoGrad",
    "BM_PredictPlanned",
    "BM_InferenceEngine",
    # Scene-parallel training epochs. cpu_time here is whole-process CPU
    # (MeasureProcessCPUTime), i.e. total work per epoch — the right gate:
    # it is stable across worker counts and core counts, while real_time
    # (the wall-clock speedup headline) depends on how many physical cores
    # the runner has.
    "BM_TrainEpoch_",
    # Open-loop Poisson overload through the SLO-guarded engine (admission
    # control shedding at ~2x capacity). Gates the overload path's total
    # CPU per offered request: queue management, shedding, histograms.
    "BM_EngineOverload",
    # Repeat-heavy serving through the cross-request encoder cache
    # (serve/encode_cache.h): the same seeded schedule with the cache off and
    # on at repeat in {0, 50, 90}%. Gates both sides — the off rows pin the
    # uncached serving path, the repeat:0/cache:1 row bounds the all-miss
    # overhead (key hashing + lookups that never hit), and repeat:90/cache:1
    # carries the >=2x cache win this PR's headline claims.
    "BM_EngineRepeatTraffic",
)


class BenchFormatError(Exception):
    """BENCH JSON that is not a well-formed google-benchmark report. Raised
    with a message naming the file and every problem found, so a truncated
    upload or a hand-edited baseline fails with 'what is wrong where' instead
    of the raw KeyError this script used to die with."""


def validate_doc(doc, path):
    """Returns the list of schema problems in a parsed BENCH document (empty
    when it matches the subset of google-benchmark's --benchmark_format=json
    output this checker consumes)."""
    problems = []
    if not isinstance(doc, dict):
        return ["%s: top level must be a JSON object, got %s"
                % (path, type(doc).__name__)]
    benches = doc.get("benchmarks")
    if benches is None:
        return ["%s: missing the \"benchmarks\" array — is this really a "
                "google-benchmark JSON report?" % path]
    if not isinstance(benches, list):
        return ["%s: \"benchmarks\" must be an array, got %s"
                % (path, type(benches).__name__)]
    for i, bench in enumerate(benches):
        where = "%s: benchmarks[%d]" % (path, i)
        if not isinstance(bench, dict):
            problems.append("%s: must be an object, got %s"
                            % (where, type(bench).__name__))
            continue
        run_type = bench.get("run_type", "iteration")
        is_median = (run_type == "aggregate"
                     and bench.get("aggregate_name") == "median")
        if run_type == "iteration" and "name" not in bench:
            problems.append("%s: iteration row without a \"name\"" % where)
        if is_median and "run_name" not in bench:
            problems.append("%s: median aggregate without a \"run_name\""
                            % where)
        if run_type == "iteration" or is_median:
            cpu = bench.get("cpu_time")
            label = bench.get("name", bench.get("run_name", "<unnamed>"))
            if cpu is None:
                problems.append("%s (%s): missing \"cpu_time\""
                                % (where, label))
            elif not isinstance(cpu, (int, float)) or isinstance(cpu, bool):
                problems.append("%s (%s): \"cpu_time\" must be a number, got "
                                "%r" % (where, label, cpu))
    return problems


def load_doc(path):
    """Parses and schema-checks one BENCH JSON file; raises BenchFormatError
    with every problem rather than surfacing raw json/KeyError tracebacks."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise BenchFormatError("%s: cannot read: %s" % (path, e)) from e
    except json.JSONDecodeError as e:
        raise BenchFormatError(
            "%s: not valid JSON (%s) — truncated bench run or a non-JSON "
            "format flag?" % (path, e)) from e
    problems = validate_doc(doc, path)
    if problems:
        raise BenchFormatError("\n".join(problems))
    return doc


def load_times(path):
    """Maps benchmark name -> cpu_time ns. When a run used
    --benchmark_repetitions, the median aggregate overrides the per-repetition
    samples (that's the noise-robust value CI should gate on)."""
    doc = load_doc(path)
    times = {}
    for bench in doc["benchmarks"]:
        if bench.get("run_type", "iteration") == "iteration":
            times.setdefault(bench["name"], float(bench["cpu_time"]))
    for bench in doc["benchmarks"]:
        if (bench.get("run_type") == "aggregate"
                and bench.get("aggregate_name") == "median"):
            times[bench["run_name"]] = float(bench["cpu_time"])
    return times


def is_tracked(name):
    return any(name.startswith(p) for p in TRACKED_PREFIXES)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional cpu_time regression (default 0.30)")
    parser.add_argument("--json-schema", metavar="BENCH_JSON",
                        help="validate one BENCH JSON file's shape and exit "
                             "(no baseline comparison)")
    args = parser.parse_args()

    if args.json_schema:
        try:
            doc = load_doc(args.json_schema)
        except BenchFormatError as e:
            print(e, file=sys.stderr)
            return 1
        print("%s: valid BENCH JSON (%d benchmark rows)"
              % (args.json_schema, len(doc["benchmarks"])))
        return 0
    if not args.baseline or not args.new:
        parser.error("baseline and new JSON files are required "
                     "(or use --json-schema FILE)")

    try:
        base = load_times(args.baseline)
        new = load_times(args.new)
    except BenchFormatError as e:
        print(e, file=sys.stderr)
        return 1

    shared = [n for n in base if n in new and base[n] > 0]
    if not shared:
        print("No shared benchmarks between baseline and new run.", file=sys.stderr)
        return 1
    # Machine-speed normalization: the median ratio over the whole suite is
    # the best single estimate of "how much faster/slower is this machine".
    scale = statistics.median(new[n] / base[n] for n in shared)
    print(f"machine-speed scale (median new/baseline over {len(shared)} "
          f"benchmarks): {scale:.2f}x\n")

    failures = []
    missing = []
    for name in sorted(base):
        if not is_tracked(name):
            continue
        if name not in new:
            missing.append(name)
            print(f"MISSING  {name}: tracked in the baseline but absent from "
                  f"the new run (FAILING)")
            continue
        raw = new[name] / base[name] if base[name] > 0 else float("inf")
        ratio = raw / scale
        status = "OK"
        if ratio > 1.0 + args.threshold:
            status = "REGRESSED"
            failures.append((name, ratio))
        print(f"{status:10s}{name}: {base[name]:.0f} -> {new[name]:.0f} ns "
              f"({ratio:.2f}x baseline after scaling)")
    for name in sorted(set(new) - set(base)):
        if is_tracked(name):
            print(f"WARNING  {name}: tracked but has no baseline entry — "
                  f"skipped; regenerate BENCH_tensor_ops.json to gate it")

    failed = False
    if missing:
        print(f"\n{len(missing)} tracked benchmark(s) missing from the new run "
              f"— a gate silently stopped running:", file=sys.stderr)
        for name in missing:
            print(f"  {name}: present in the baseline, absent from the new "
                  f"JSON (renamed? filtered out? fixture crashed?)",
                  file=sys.stderr)
        failed = True
    if failures:
        print(f"\n{len(failures)} tracked benchmark(s) regressed by more than "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x baseline cpu_time", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("\nAll tracked benchmarks present and within threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
