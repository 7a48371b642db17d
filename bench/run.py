"""Benchmark of skewcodes: one workload per run, outputs checked against references.

    python3 bench/run.py --workload {catalogue,classify,structure} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; skewcodes is imported from its ``src``.
With ``--trace 0`` the run repeats rounds of all the workload's operations
for about S seconds (``wall_s`` is the median round), times the set-up in
fresh processes before, between and after the rounds (``setup_s`` is the
median) and reports ``peak_rss_mib``.  Times are rescaled to the reference
speed of ``calibrate``, whose loop reads the host's speed between
operations and next to every set-up.  With ``--trace 1`` it times one
untraced round, then sets up and runs one round under the tracer and reports
the per-layer metrics.  Every round's outputs are checked; the last line of
standard output is the JSON result, and the run exits 1 if any check fails.
Results and span logs go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# Set-up is timed cold, once per fresh process, a few processes before the
# first round, between rounds and after the last: on a shared host the CPU
# speed can shift within seconds, and a set-up takes well under a second.
SETUP_SAMPLES_PER_GAP = 3

# The calibration loop reads the host's speed after every segment of
# operations that has run for SEGMENT_S seconds, for CALIBRATE_SHARE of the
# segment's time and at least CALIBRATE_MIN_S: the host stalls now and then
# for tens of milliseconds, which a shorter reading would take for its speed.
SEGMENT_S = 0.5
CALIBRATE_SHARE = 0.1
CALIBRATE_MIN_S = 0.05

# metric, unit, kind, spans or counters it comes from.  Counts and calls are
# exact; times are thread CPU seconds (``.self_s`` self, ``.s`` inclusive).  A
# metric is absent when none of its spans or counters exists any more.
PER_LAYER = [
    ("coeffring.ring_ops", "count", "counts", ["coeffring.ring_ops"]),
    ("coeffring.aut_built", "count", "counts", ["coeffring.aut_built"]),
    ("skewpoly.right_divide.calls", "count", "calls", ["skewpoly.right_divide"]),
    ("skewpoly.right_divide.self_s", "s", "self", ["skewpoly.right_divide"]),
    ("skewpoly.skew_mul.calls", "count", "calls", ["skewpoly.skew_mul"]),
    ("skewpoly.skew_mul.self_s", "s", "self", ["skewpoly.skew_mul"]),
    ("skewpoly.divisor_candidates", "count", "counts", ["skewpoly.enumerate_divisors"]),
    ("petit.mul.calls", "count", "calls", ["petit.mul"]),
    ("petit.mul.self_s", "s", "self", ["petit.mul"]),
    ("petit.probe.s", "s", "incl", ["petit.probe"]),
    ("petit.algebra_init.s", "s", "incl", ["petit.algebra_init"]),
    ("codes.codewords", "count", "counts", ["codes.codewords"]),
    ("codes.min_distance.s", "s", "incl", ["codes.min_distance"]),
    ("classify.equiv_candidates", "count", "calls", ["classify.check_equivalence"]),
    ("classify.witness_verifications", "count", "calls", ["classify.witness_verify"]),
    ("classify.witness_pairs", "count", "counts", ["classify.witness_verify"]),
    ("classify.witness_verify.s", "s", "incl", ["classify.witness_verify"]),
    ("classify.class_orbit.s", "s", "incl", ["classify.class_orbit"]),
    ("catalogue.partition.s", "s", "incl", ["catalogue.partition"]),
    ("catalogue.self_s", "s", "self", ["catalogue.run", "catalogue.partition", "catalogue.codes_for"]),
    ("cli.self_s", "s", "self", ["cli.main"]),
]

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["catalogue", "classify", "structure"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def time_setups(workload, inputs_path):
    """Set-up times (raw, scaled), each in its own fresh process (``setup_child.py``)."""
    cmd = [sys.executable, str(BENCH / "setup_child.py"), workload, str(inputs_path)]
    return [json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout)
            for _ in range(SETUP_SAMPLES_PER_GAP)]


def timed_round(program, workload, ops, calibrate):
    """Run every operation once: (raw round time, round time at reference
    speed, per-operation times at reference speed, outputs, failures).

    The calibration loop reads the host's speed before the first operation
    and after each segment of operations that has run for ``SEGMENT_S``, for
    a share of the segment's time; each operation's time is scaled by the
    readings on either side of its segment.  An output is None when its
    operation failed.
    """
    gc.collect()
    outputs, failures, raw, scaled = [], [], [], []
    rate = calibrate.rate(CALIBRATE_MIN_S)
    segment, seg_start = [], time.perf_counter()
    for i, op in enumerate(ops):
        t = time.perf_counter()
        try:
            outputs.append(op())
        except Exception as exc:  # a failing operation is counted, not fatal
            outputs.append(None)
            failures.append(f"{type(exc).__name__}: {exc}")
        segment.append(time.perf_counter() - t)
        seg_s = time.perf_counter() - seg_start
        if seg_s >= SEGMENT_S or i == len(ops) - 1:
            after = calibrate.rate(max(CALIBRATE_MIN_S, CALIBRATE_SHARE * seg_s))
            raw += segment
            scaled += [calibrate.scaled(dt, rate, after) for dt in segment]
            rate, segment, seg_start = after, [], time.perf_counter()
    return sum(raw), sum(scaled), scaled, [None if o is None else program.to_json(workload, o) for o in outputs], failures


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "skewcodes" / "__init__.py").is_file():
        print(f"error: no skewcodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calibrate
    import checks
    import program
    from inputs import make_inputs
    from tracer import Tracer

    inputs = make_inputs(args.workload, args.seed)
    check = {"catalogue": checks.check_catalogue, "classify": checks.check_classification,
             "structure": checks.check_structure}[args.workload]
    sk = program.load()
    if not Path(sk.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: skewcodes imported from {sk.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs_path = stem.with_suffix(".inputs.json")
    inputs_path.write_text(json.dumps(inputs))
    ops = program.build(sk, args.workload, inputs)

    setup_times, raw_rounds, rounds, op_times, all_outputs, failures = [], [], [], [], [], []
    start = time.perf_counter()
    while True:
        if not args.trace:
            setup_times += time_setups(args.workload, inputs_path)
        raw, dt, times, outs, fails = timed_round(program, args.workload, ops, calibrate)
        raw_rounds.append(raw)
        if len(raw_rounds) == 1:
            # later rounds hold the first round's outputs for comparison
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds.append(dt)
        op_times.append(times)
        all_outputs.append(outs)
        failures.extend(fails)
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + statistics.median(raw_rounds) > args.seconds:
            break
    if not args.trace:
        setup_times += time_setups(args.workload, inputs_path)
    attempted = len(ops) * len(rounds)

    if args.trace:
        tracer = Tracer(sk)
        tracer.install()
        try:
            ops = program.build(sk, args.workload, inputs)
            _, dt, _, outs, fails = timed_round(program, args.workload, ops, calibrate)
        finally:
            tracer.uninstall()
        all_outputs.append(outs)
        failures.extend(fails)
        attempted += len(ops)
        tracer.write(stem.with_suffix(".spans.jsonl"))
        metrics = per_layer_metrics(tracer)
        metrics["trace.overhead"] = {"value": dt / rounds[0], "unit": "ratio"}
        metrics["trace.traced_wall_s"] = {"value": dt, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    errors = []
    first = all_outputs[0]
    for outs in all_outputs[1:]:
        if outs != first:
            errors.append("outputs differ between rounds")
    for item, out in zip(inputs, first):
        if out is not None:
            errors.extend(check(item, out))
    for err in errors:
        print(f"CHECK FAILED: {err}")
    for msg in sorted(set(failures)):
        print(f"failed operation ({failures.count(msg)}x): {msg}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, raw_rounds=raw_rounds,
                  rounds=rounds, op_times=op_times, setup_times=setup_times, checks_failed=errors[:50])
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} unscaled: wall {statistics.median(raw_rounds):.6g} s (median of {len(raw_rounds)} "
              f"rounds), setup {statistics.median(r for r, _ in setup_times):.6g} s (median of {len(setup_times)})")
    print(json.dumps(result))
    return 0 if not errors else 1


def per_layer_metrics(tracer):
    calls, incl, self_s, counts = tracer.totals()
    kinds = {"calls": calls, "incl": incl, "self": self_s}
    absent = []
    metrics = {}
    for name, unit, kind, sources in PER_LAYER:
        if not any(s in tracer.installed for s in sources):
            absent.append(name)
            value = 0
        elif kind == "counts":
            value = counts[name]
        else:
            value = sum(kinds[kind][s] for s in sources)
        metrics[name] = {"value": value, "unit": unit}
    if absent:
        print(f"absent per-layer metrics (reported as 0): {', '.join(absent)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
