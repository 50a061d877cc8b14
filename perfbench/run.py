#!/usr/bin/env python3
"""Entry point of the AdapTraj end-to-end benchmark.

    python3 perfbench/run.py --workload serve_fresh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Configures and builds perfbench/ (which
builds the library from the checkout's sources) into .bench_build/, runs the
benchmark binary, and passes its output through. The last line of stdout is the
JSON result; the line before it is the provenance record. Traced runs write
their Chrome trace-event JSON to .bench_build/traces/. Exits non-zero,
without a result, when the checkout holds no library sources or the build or
the run fails.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources (CMakeLists.txt, src/) next to perfbench/")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout is not
    necessarily a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build()
    cmd = [BINARY]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-path", os.path.join(traces, args.workload + ".json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark binary exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark binary printed no JSON result")

    provenance = {}
    for line in lines[:-1]:
        if line.startswith("provenance: "):
            provenance = json.loads(line[len("provenance: "):])
        else:
            print(line)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    with open(cache) as fh:
        cached = dict(re.findall(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)$",
                                 fh.read(), re.M))
    provenance.update({
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cmake_build_type": cached.get("CMAKE_BUILD_TYPE"),
        "cxx_compiler": cached.get("CMAKE_CXX_COMPILER"),
        "adaptraj_env": {k: v for k, v in sorted(os.environ.items())
                         if k.startswith("ADAPTRAJ_")},
    })
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
