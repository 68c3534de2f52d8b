#!/usr/bin/env python3
"""Diff fresh google-benchmark JSON runs against the committed baseline.

Usage:
    tools/bench_compare.py fresh.json [more.json ...]
                           [--baseline BENCH_baseline.json]
                           [--tolerance 0.25] [--metric cpu_time]
                           [--benches name1,name2,...]
    tools/bench_compare.py fresh.json --pair "SUBJECT,REFERENCE"
                           [--tolerance 0.05] [--metric cpu_time]

With --pair, no baseline file is involved: both named benchmarks come
from the SAME fresh run and SUBJECT must stay within the tolerance of
REFERENCE (subject <= reference * (1 + tolerance)).  This gates
same-machine A/B claims -- e.g. that the serve daemon with telemetry
stays within 5% of the no-telemetry build -- without the cross-machine
noise a committed baseline absorbs.

Multiple fresh files are merged (later files win on name clashes), so
CI can feed bench_microbench.json and bench_graph_align.json into one
comparison.

Fails (exit 1) when any named headline benchmark regresses by more
than the tolerance relative to the baseline, i.e. when

    fresh_metric > baseline_metric * (1 + tolerance)

Each headline row is compared with the baseline of the sweep the
runner took.  The race kernels pick their sweep from the CPU, and the
benches print it as `sweep_lanes` in their run context: 32 where the
CPU has AVX-512BW (the skewed band of 16-bit lanes), 1 for the row
sweeps.  When the fresh run's context says N and the baseline
stores a `NAME@sweep_lanes=N` row, the row is compared with it;
otherwise with the plain `NAME` row, which holds row-sweep values.  A
runner that took a band then cannot lose the band's speed-up unseen,
and no runner's gate loosens.

Headline benches are the single-threaded kernel benchmarks whose
cpu_time is comparatively stable across machines; thread-scaling rows
(BM_SolveBatchThreads) are deliberately excluded because they measure
the host's core count as much as the code.  Every headline bench must
exist in BOTH the baseline and the fresh run: a headline row missing
from the baseline fails the comparison just like a regression, so a
PR that adds a bench to the headline set must commit a refreshed
baseline in the same change.  CI passes a larger tolerance than the
default 25% to absorb runner-vs-baseline machine differences.
"""

import argparse
import json
import sys
from pathlib import Path

# The perf trajectory: one representative entry per kernel family.
HEADLINE_BENCHES = [
    "BM_EventDrivenRace/256",       # behavioral race-grid hot path
    # The race a serve worker runs per pairwise and screen request:
    # score-only, so the edit-grid band is all of its time
    # (BM_EventDrivenRace/256 mostly times its arrival grid).
    "BM_RaceEditGridServed/128",
    # The same race on BLOSUM62 costs: twenty letters take the band's
    # gather where the DNA rows above take its pair table, so the
    # gather stays gated on AVX-512BW runners too.
    "BM_RaceEditGridServedProtein/128",
    "BM_RaceDag/256",               # general DAG race (raceDag)
    "BM_ScreeningRaceWithHorizon/256",  # Section 6 early termination
    "BM_CompiledSimGrid/64",        # compiled gate-level kernel
    "BM_CompiledSim64Lane/64",      # bit-parallel gate-level batch
    "BM_ApiEngineSolveCached/256",  # facade overhead on the hot path
    "BM_GraphAlignRace/64",         # graph-align hot path (fused)
    "BM_GraphAlignFused/64",        # steady-state fused sweep, scratch reuse
    # The race a serve worker runs per GraphAlign request: the
    # unbounded policy's inhibited race, score-only, so the graph band
    # is most of its time (the two rows above race plainly and fill the
    # arrival vector, which costs about as much as the race).
    "BM_GraphAlignServed/64",
    # Engine read-mapping batch, one worker (single-threaded like the
    # rest of the headline set; real_time because pool workers race).
    "BM_GraphMapReadsBatch/1/real_time",
    # End-to-end serve daemon under a saturating pipelined client:
    # wire decode + admission + queue + solve + reply.
    # real_time because the work crosses daemon threads.
    "BM_ServeSaturation/64/real_time",
    # The same daemon at 2x overload with a mixed-priority client:
    # weighted drain + shed-lowest-first admission must not slow the
    # serving path (per-class p99 and shed counts ride as counters).
    "BM_ServeMixedPriority/64/real_time",
]


def load_run(path):
    """The rows of one google-benchmark JSON file, and its context."""
    with open(path) as handle:
        data = json.load(handle)
    rows = {bench["name"]: bench for bench in data.get("benchmarks", [])}
    return rows, data.get("context", {})


def load_benchmarks(path):
    return load_run(path)[0]


def baseline_name(name, lanes, baseline):
    """The stored row a headline bench is gated against: the one for
    the sweep the runner took where the baseline has it."""
    swept = f"{name}@sweep_lanes={lanes}"
    return swept if lanes is not None and swept in baseline else name


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("fresh", nargs="+",
                        help="fresh --benchmark_format=json run(s); "
                             "merged in order")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent.parent /
                    "BENCH_baseline.json"),
        help="committed baseline JSON (default: repo root)")
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional regression (default 0.25 = +25%%)")
    parser.add_argument(
        "--metric", default="cpu_time",
        help="benchmark field to compare (default cpu_time)")
    parser.add_argument(
        "--benches", default=None,
        help="comma-separated bench names overriding the headline set")
    parser.add_argument(
        "--pair", default=None, metavar="SUBJECT,REFERENCE",
        help="compare two benchmarks within the fresh run instead of "
             "against the baseline: SUBJECT must stay within the "
             "tolerance of REFERENCE")
    args = parser.parse_args()

    fresh = {}
    lanes = None
    for path in args.fresh:
        rows, context = load_run(path)
        fresh.update(rows)
        lanes = context.get("sweep_lanes", lanes)

    if args.pair:
        try:
            subject_name, reference_name = args.pair.split(",")
        except ValueError:
            print("--pair wants exactly 'SUBJECT,REFERENCE'",
                  file=sys.stderr)
            return 2
        subject = fresh.get(subject_name)
        reference = fresh.get(reference_name)
        for name, row in ((subject_name, subject),
                          (reference_name, reference)):
            if row is None:
                print(f"--pair bench missing from fresh run: {name}",
                      file=sys.stderr)
                return 1
        ratio = subject[args.metric] / reference[args.metric]
        ok = ratio <= 1.0 + args.tolerance
        print(f"{subject_name}: {subject[args.metric]:.0f}  vs  "
              f"{reference_name}: {reference[args.metric]:.0f}  "
              f"ratio {ratio:.3f}  "
              f"({'ok' if ok else 'REGRESSED'}, "
              f"tolerance +{args.tolerance:.0%})")
        if not ok:
            print(f"\n{subject_name} exceeds {reference_name} by more "
                  f"than +{args.tolerance:.0%}", file=sys.stderr)
            return 1
        return 0

    names = (args.benches.split(",") if args.benches
             else HEADLINE_BENCHES)
    baseline = load_benchmarks(args.baseline)

    width = max(len(baseline_name(name, lanes, baseline)) for name in names)
    regressions = []
    missing = []
    unbaselined = []
    print(f"sweep_lanes in the fresh run: {lanes or 'not printed'}")
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'fresh':>12}  "
          f"{'ratio':>7}  verdict")
    for name in names:
        stored = baseline_name(name, lanes, baseline)
        base = baseline.get(stored)
        got = fresh.get(name)
        if base is None:
            print(f"{stored:<{width}}  {'-':>12}  "
                  f"{got[args.metric] if got else '-':>12}  {'-':>7}  "
                  "MISSING from baseline")
            unbaselined.append(stored)
            continue
        if got is None:
            print(f"{stored:<{width}}  {base[args.metric]:>12.0f}  "
                  f"{'-':>12}  {'-':>7}  MISSING from fresh run")
            missing.append(name)
            continue
        ratio = got[args.metric] / base[args.metric]
        regressed = ratio > 1.0 + args.tolerance
        verdict = "REGRESSED" if regressed else "ok"
        print(f"{stored:<{width}}  {base[args.metric]:>12.0f}  "
              f"{got[args.metric]:>12.0f}  {ratio:>7.2f}  {verdict}")
        if regressed:
            regressions.append((stored, ratio))

    if unbaselined:
        print(f"\n{len(unbaselined)} headline bench(es) missing from "
              "the baseline -- regenerate BENCH_baseline.json in the "
              "PR that adds a headline bench", file=sys.stderr)
        return 1
    if missing:
        print(f"\n{len(missing)} headline bench(es) missing from the "
              "fresh run", file=sys.stderr)
        return 1
    if regressions:
        print(f"\n{len(regressions)} headline regression(s) beyond "
              f"+{args.tolerance:.0%}:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x baseline", file=sys.stderr)
        return 1
    print(f"\nAll headline benches within +{args.tolerance:.0%} of "
          "baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
