#!/usr/bin/env python3
"""Line coverage of the library sources under the ctest suite.

Usage:
    tools/coverage.py [--build-dir build-cov] [--json coverage.json]

Configures a Debug build instrumented with --coverage (benches and
examples off) in --build-dir, builds it, runs ctest, and then reads
every .gcda file the run left behind through
`gcov --json-format --stdout`.  Each executable line of a file under
src/rl counts once however many translation units compiled it (a
header is included by many), and it is covered when any of them ran
it.  Prints one row per src/rl file -- covered lines, total lines,
percent -- and the total, sorted by path.  --json also writes each
file's executable line numbers as {"files": {path: {"covered": [...],
"missed": [...]}}, "covered": n, "total": n}, so two runs can be
compared line by line, not only by per-file totals (where a lost line
and a gained line cancel out).

The report gates nothing: failing tests are reported, and the table
is printed either way (exit 1 only if the build or gcov fails).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Atomic counters: the engine races on pool threads, and racy counter
# updates leave gcov negative (unusable) line counts.
FLAGS = "--coverage -fprofile-update=atomic -O0"


def run(cmd, **kwargs):
    """Run `cmd`; its output goes to stderr unless captured."""
    print("+", " ".join(str(c) for c in cmd), file=sys.stderr, flush=True)
    kwargs.setdefault("stdout", sys.stderr)
    return subprocess.run(cmd, **kwargs)


def build_and_test(build):
    configure = ["cmake", "-B", build, "-S", ROOT, "-G", "Ninja",
                 "-DCMAKE_BUILD_TYPE=Debug",
                 "-DRACELOGIC_BUILD_BENCHES=OFF",
                 "-DRACELOGIC_BUILD_EXAMPLES=OFF",
                 f"-DCMAKE_CXX_FLAGS={FLAGS}",
                 "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]
    if run(configure).returncode != 0:
        sys.exit("coverage: configure failed")
    jobs = str(os.cpu_count() or 1)
    if run(["cmake", "--build", build, "-j", jobs]).returncode != 0:
        sys.exit("coverage: build failed")
    # Stale counters from an earlier run would inflate the report.
    for gcda in Path(build).rglob("*.gcda"):
        gcda.unlink()
    ctest = ["ctest", "--test-dir", build, "-j", jobs, "--output-on-failure"]
    if run(ctest).returncode != 0:
        print("coverage: some tests failed; reporting what ran",
              file=sys.stderr)


def gcov_lines(build):
    """{src/rl path: {line: covered}} merged over every .gcda file."""
    lines = {}
    src = (ROOT / "src" / "rl").resolve()
    for gcda in sorted(Path(build).rglob("*.gcda")):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", gcda.name],
            cwd=gcda.parent, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"coverage: gcov failed on {gcda}: {out.stderr}")
        for doc in out.stdout.splitlines():
            if not doc.strip():
                continue
            report = json.loads(doc)
            cwd = Path(report.get("current_working_directory",
                                  gcda.parent))
            for entry in report["files"]:
                path = (cwd / entry["file"]).resolve()
                if not path.is_relative_to(src):
                    continue
                key = str(path.relative_to(ROOT))
                seen = lines.setdefault(key, {})
                for line in entry["lines"]:
                    number = line["line_number"]
                    seen[number] = seen.get(number, False) or \
                        line["count"] > 0
    return lines


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default=str(ROOT / "build-cov"))
    parser.add_argument("--json", help="also write the line numbers here")
    args = parser.parse_args()

    build = str(Path(args.build_dir).resolve())
    build_and_test(build)

    lines = gcov_lines(build)
    rows = {path: (sum(seen.values()), len(seen))
            for path, seen in sorted(lines.items()) if seen}
    covered = sum(c for c, _ in rows.values())
    total = sum(t for _, t in rows.values())

    width = max([len(p) for p in rows] + [5])
    print(f"{'file':<{width}}  {'covered':>7}  {'total':>6}  {'pct':>6}")
    for path, (c, t) in rows.items():
        pct = 100.0 * c / t if t else 100.0
        print(f"{path:<{width}}  {c:>7}  {t:>6}  {pct:>5.1f}%")
    pct = 100.0 * covered / total if total else 100.0
    print(f"{'TOTAL':<{width}}  {covered:>7}  {total:>6}  {pct:>5.1f}%")

    if args.json:
        files = {path: {"covered": sorted(n for n, c in seen.items() if c),
                        "missed": sorted(n for n, c in seen.items() if not c)}
                 for path, seen in sorted(lines.items()) if seen}
        with open(args.json, "w") as handle:
            json.dump({"files": files, "covered": covered, "total": total},
                      handle, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
