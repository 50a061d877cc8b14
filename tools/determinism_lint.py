#!/usr/bin/env python3
"""AST-light determinism lint: nondeterminism hazards the generic tools miss.

The repo's reproduction contract is bit-identical outputs across worker
counts and cache on/off (see tensor/parallel.h). Clang's
thread-safety analysis and TSan guard the LOCK discipline behind that
contract; this lint guards the SOURCE discipline — the handful of C++ and
Python constructs that silently smuggle nondeterminism into an
output-producing path without any race at all:

  unordered-iteration   Range-for over a std::unordered_{map,set,multimap,
                        multiset}: bucket order is a function of hash
                        seeding, insertion history, and libstdc++ version,
                        so any value produced by such a loop can differ run
                        to run. Lookups/finds are fine; ITERATION in
                        anything that feeds an output is not. (Ordered
                        re-collection first, or a std::map, is the fix.)
  raw-rand              rand()/srand()/std::random_device/drand48: unseeded
                        or globally-seeded randomness outside the blessed
                        seeded generator (tensor/rng.h, the one file allowed
                        to name these). Every random draw must come from an
                        Rng seeded by the experiment config.
  wall-clock            steady/system_clock::now, time(), gettimeofday,
                        clock_gettime: a timestamp feeding anything but SLO
                        telemetry makes outputs time-dependent. Allowed in
                        the telemetry paths — src/serve/ (latency histograms,
                        deadlines, watchdog), src/eval/ (throughput
                        measurement), tests/ and bench/ (harness timing) —
                        and nowhere else.
  float-accumulate      std::accumulate over floats: accumulation order is
                        an implementation detail the caller cannot pin, and
                        refactors (parallelization, pairwise rewrites)
                        change the rounding. Deterministic reductions live
                        in tensor/kernels.cpp (the one file allowed).
  py-raw-rand           Python: os.urandom, uuid.uuid4, random.* draws,
                        numpy.random.* — tools that transform committed
                        artifacts (baselines, schemas) must be pure
                        functions of their inputs.
  py-wall-clock         Python: time.time()/datetime.now() feeding tool
                        output.

Escape hatch — when a flagged construct is genuinely safe, suppress it ON
THE SAME LINE or the LINE ABOVE with an auditable reason:

    // det-lint: allow(wall-clock, cache-warmup timing is log-only)
    #  det-lint: allow(py-raw-rand, jitter seed printed into the report)

The rule name must match and the reason must be non-empty; the directive is
a grep-able audit surface, not a blanket off-switch.

Usage:
    determinism_lint.py                  # scan the repo (src tests bench
                                         # examples tools), exit 1 on findings
    determinism_lint.py PATH...          # scan specific files/dirs (explicit
                                         # paths may point into the fixtures)
    determinism_lint.py --list-rules

Scanning is line-based over comment- and string-stripped source (an
"AST-light" scanner: no compiler needed, multi-line statements may escape
it — CI pairs it with the compiled analyses precisely because each catches
what the other cannot). tools/lint_fixtures/ holds deliberately violating
self-test inputs and is skipped unless explicitly listed.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ROOTS = ("src", "tests", "bench", "examples", "tools")
FIXTURE_DIR = "lint_fixtures"
SKIP_DIRS = {".git", "build", "__pycache__", "third_party", "_deps"}

CPP_EXTS = (".h", ".hpp", ".cc", ".cpp")
PY_EXTS = (".py",)

# rule name -> (description, tuple of path prefixes where the construct is
# ALLOWED without a directive; matched against the repo-relative path).
RULES = {
    "unordered-iteration": (
        "range-for over an unordered container (bucket order is not stable)",
        (),
    ),
    "raw-rand": (
        "rand()/random_device outside the blessed seeded RNG",
        ("src/tensor/rng.h",),
    ),
    "wall-clock": (
        "wall-clock read outside the SLO-telemetry/measurement paths",
        ("src/serve/", "src/eval/", "tests/", "bench/"),
    ),
    "float-accumulate": (
        "std::accumulate outside the deterministic-reduction kernels",
        ("src/tensor/kernels.cpp",),
    ),
    "py-raw-rand": (
        "Python nondeterministic randomness in a tool",
        (),
    ),
    "py-wall-clock": (
        "Python wall-clock read in a tool",
        (),
    ),
}

ALLOW_RE = re.compile(r"det-lint:\s*allow\(\s*([A-Za-z0-9_-]+)\s*,\s*([^)]+?)\s*\)")

RAW_RAND_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|\brandom_device\b|\bdrand48\b|\blrand48\b")
WALL_CLOCK_RE = re.compile(
    r"\b\w*[Cc]lock\w*\s*::\s*now\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bstd\s*::\s*clock\s*\(")
FLOAT_ACCUMULATE_RE = re.compile(r"\b(?:std\s*::\s*)?accumulate\s*\(")
UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<")
PY_RAW_RAND_RE = re.compile(
    r"\bos\.urandom\s*\(|\buuid\.uuid4\s*\(|\bsecrets\."
    r"|\brandom\.(?:random|randint|randrange|choice|choices|shuffle|sample"
    r"|uniform|getrandbits)\s*\("
    r"|\bnp\.random\.|\bnumpy\.random\.")
PY_WALL_CLOCK_RE = re.compile(
    r"\btime\.time(?:_ns)?\s*\(|\bdatetime\.now\s*\(|datetime\.datetime\.now\s*\(")


def strip_cpp(lines):
    """Blanks comments and string/char literals, preserving line structure so
    findings keep their line numbers. det-lint directives are read from the
    RAW lines before this runs."""
    out = []
    in_block = False
    for line in lines:
        res = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            c = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if c == "/" and nxt == "/":
                break
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                    elif line[i] == quote:
                        i += 1
                        break
                    else:
                        i += 1
                res.append(quote + quote)
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


def strip_py(lines):
    """Blanks # comments, ordinary strings, and triple-quoted blocks."""
    out = []
    triple = None  # the active triple-quote delimiter, if any
    for line in lines:
        res = []
        i, n = 0, len(line)
        while i < n:
            if triple:
                end = line.find(triple, i)
                if end < 0:
                    i = n
                else:
                    triple = None
                    i = end + 3
                continue
            c = line[i]
            if c == "#":
                break
            if line.startswith(('"""', "'''"), i):
                triple = line[i] * 3
                i += 3
                continue
            if c in "\"'":
                quote = c
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                    elif line[i] == quote:
                        i += 1
                        break
                    else:
                        i += 1
                res.append(quote + quote)
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


def unordered_names(stripped_text):
    """Names declared with an unordered container type, found by balanced
    angle-bracket scanning (template args nest: unordered_map<K,
    list<V>::iterator>)."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(stripped_text):
        depth = 1
        i = m.end()
        while i < len(stripped_text) and depth > 0:
            if stripped_text[i] == "<":
                depth += 1
            elif stripped_text[i] == ">":
                depth -= 1
            i += 1
        if depth != 0:
            continue
        tail = re.match(r"[&*\s]*([A-Za-z_]\w*)", stripped_text[i:])
        if tail and tail.group(1) not in ("const",):
            names.add(tail.group(1))
    return names


def iter_findings_cpp(rel, raw_lines, stripped):
    names = unordered_names("\n".join(stripped))
    range_for = None
    if names:
        alt = "|".join(re.escape(n) for n in sorted(names))
        # `for (decl : expr)` where expr's trailing identifier is a known
        # unordered container (possibly behind obj./ptr-> qualification).
        range_for = re.compile(
            r"for\s*\([^()]*:\s*[\w.()\->]*\b(?:%s)\s*\)" % alt)
    for idx, line in enumerate(stripped):
        lineno = idx + 1
        if range_for and range_for.search(line):
            yield ("unordered-iteration", lineno)
        if RAW_RAND_RE.search(line):
            yield ("raw-rand", lineno)
        if WALL_CLOCK_RE.search(line):
            yield ("wall-clock", lineno)
        if FLOAT_ACCUMULATE_RE.search(line):
            yield ("float-accumulate", lineno)


def iter_findings_py(rel, raw_lines, stripped):
    for idx, line in enumerate(stripped):
        lineno = idx + 1
        if PY_RAW_RAND_RE.search(line):
            yield ("py-raw-rand", lineno)
        if PY_WALL_CLOCK_RE.search(line):
            yield ("py-wall-clock", lineno)


def allows(raw_lines):
    """Line -> {rule: reason} map of directives, each covering its own line
    and the line below (so the directive can sit in a comment above)."""
    table = {}
    for idx, line in enumerate(raw_lines):
        for m in ALLOW_RE.finditer(line):
            rule, reason = m.group(1), m.group(2)
            for covered in (idx + 1, idx + 2):
                table.setdefault(covered, {})[rule] = reason
    return table


def scan_file(path):
    """Returns (findings, errors) for one file; findings are
    (rel_path, lineno, rule, snippet)."""
    rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        return [], ["%s: unreadable: %s" % (rel, e)]
    if path.endswith(CPP_EXTS):
        stripped = strip_cpp(raw_lines)
        found = iter_findings_cpp(rel, raw_lines, stripped)
    elif path.endswith(PY_EXTS):
        stripped = strip_py(raw_lines)
        found = iter_findings_py(rel, raw_lines, stripped)
    else:
        return [], []
    allowed = allows(raw_lines)
    findings = []
    for rule, lineno in found:
        prefixes = RULES[rule][1]
        if any(rel.startswith(p) for p in prefixes):
            continue
        if rule in allowed.get(lineno, {}):
            continue
        snippet = raw_lines[lineno - 1].strip()
        findings.append((rel, lineno, rule, snippet))
    return findings, []


def collect_files(paths, include_fixtures):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in SKIP_DIRS and not d.startswith("build")
                and (include_fixtures or d != FIXTURE_DIR))
            for name in sorted(filenames):
                if name.endswith(CPP_EXTS + PY_EXTS):
                    files.append(os.path.join(dirpath, name))
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Determinism lint; see the module docstring.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: the repo roots)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, (desc, allowed) in RULES.items():
            where = ", ".join(allowed) if allowed else "nowhere"
            print("%-22s %s (allowed without directive: %s)" % (rule, desc, where))
        return 0

    if args.paths:
        paths = args.paths
        include_fixtures = True  # explicit paths mean the caller knows
    else:
        paths = [os.path.join(REPO_ROOT, r) for r in DEFAULT_ROOTS
                 if os.path.isdir(os.path.join(REPO_ROOT, r))]
        include_fixtures = False

    findings = []
    errors = []
    for path in collect_files(paths, include_fixtures):
        f, e = scan_file(path)
        findings.extend(f)
        errors.extend(e)

    for rel, lineno, rule, snippet in sorted(findings):
        print("%s:%d: [%s] %s\n    %s" % (rel, lineno, rule, RULES[rule][0],
                                          snippet))
    for err in errors:
        print(err, file=sys.stderr)
    if findings or errors:
        print("\ndeterminism lint: %d finding(s). Fix, or suppress a "
              "genuinely safe site with\n  // det-lint: allow(<rule>, <reason>)"
              % len(findings), file=sys.stderr)
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
