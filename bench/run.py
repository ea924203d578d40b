"""Run one stringchar benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 36 \
        --trace 0

It needs ``src/`` and ``fixtures/`` next to ``bench/`` and installs
nothing.  Every line but the last is for people.  The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  A full record, with the conditions of the
run, goes to ``.bench_results/`` at the root of the checkout.

The workloads, the metrics and what each layer metric should move are
described in ``bench/README.md``.
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

import reference
import tracing
import workloads
from workloads import ROOT

RESULTS = ROOT / ".bench_results"

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import stringchar.cli; "
    "from stringchar.quiver import BoundIceQuiver; "
    "[BoundIceQuiver.from_file(p) for p in sys.argv[2:]]")


def quantile(values, percent):
    """The percent-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def ratio(num, den):
    return num / den if den else 0.0


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Checks:
    """Running totals of attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages = []

    def add(self, attempted, failed, messages):
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages)


def timed_passes(workload, seconds, checks, tracer=None, on_pass=None,
                 corrected=False):
    """Run whole passes for about `seconds` (at least one pass): another
    pass starts only if half a typical pass still fits.  The first pass
    warms up: it is checked but not timed, unless it is the only one.
    Returns the raw and the reference-speed time of each timed pass, their
    latency samples and the results of the first pass."""
    raws, refs, samples, lengths, first = [], [], [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        results = workloads.run_pass(workload, tracer, corrected)
        lengths.append(time.perf_counter() - start)
        raw, ref = workloads.pass_times(results)
        raws.append(raw)
        refs.append(ref)
        samples.append(workloads.latency_items(workload, results))
        checks.add(*workloads.check_outputs(results))
        if on_pass is not None:
            on_pass()
        if first is None:
            first = results
        if time.perf_counter() + statistics.median(lengths) / 2 >= deadline:
            timed = slice(1 if len(raws) > 1 else 0, None)
            return (raws[timed], refs[timed],
                    [x for pass_samples in samples[timed]
                     for x in pass_samples], first)


def measure_setup(workload, checks):
    """Median time, raw and at reference speed, of fresh interpreters that
    import stringchar.cli and parse the workload's quivers.  One untimed
    launch first compiles the bytecode; a reference slot runs between
    launches."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src")] + \
        [str(ROOT / q) for q in workload.quivers]
    raws, refs = [], []
    before = None
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        checks.add(1, int(done.returncode != 0),
                   [f"setup process exited {done.returncode}"]
                   if done.returncode else [])
        after = reference.slot()
        if before is not None:
            raws.append(elapsed)
            refs.append(elapsed * reference.scale(before + after))
        before = after
    return statistics.median(raws), statistics.median(refs)


def end_to_end(args, workload, checks, record):
    setup_raw, setup_s = measure_setup(workload, checks)
    walls, ref_walls, samples, first = timed_passes(
        workload, args.seconds, checks, corrected=True)
    # this process ran only the workload and the harness; the set-up
    # processes are children and do not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks.add(*workloads.check_identities(workload, first))
    record["passes"] = {"raw": walls, "reference_speed": ref_walls}
    record["setup_raw_s"] = setup_raw
    record["summary"] = (
        f"wall_ref_s quartiles {quantile(ref_walls, 25):.4f} / "
        f"{quantile(ref_walls, 50):.4f} / {quantile(ref_walls, 75):.4f} s "
        f"over {len(walls)} timed passes; {len(samples)} latency samples\n"
        f"raw wall time {quantile(walls, 25):.4f} / "
        f"{quantile(walls, 50):.4f} / {quantile(walls, 75):.4f} s; "
        f"raw set-up time {setup_raw:.4f} s")
    return {
        "wall_ref_s": (statistics.median(ref_walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "string_p50_ref_ms": (quantile(samples, 50) * 1e3, "ms"),
        "string_p90_ref_ms": (quantile(samples, 90) * 1e3, "ms"),
    }


def per_layer(args, workload, checks, record):
    untraced, _refs, _samples, first = timed_passes(
        workload, args.seconds / 2, checks)
    checks.add(*workloads.check_identities(workload, first))
    tracer = tracing.Tracer()
    per_pass = []
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.tsv.gz"

    def collect():
        if not per_pass:
            tracer.write_spans(spans_path)
        per_pass.append(layer_metrics(tracer))
        tracer.reset()

    with tracer:
        traced, _refs, _samples, _first = timed_passes(
            workload, args.seconds / 2, checks, tracer, collect)
    record["binding_sites"] = tracer.sites
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["passes"] = {"untraced": untraced, "traced": traced}
    record["summary"] = (f"{len(untraced)} untraced and {len(traced)} "
                         "traced passes; counts are per pass")
    # identical passes must give identical counts
    counts = [{k: v for k, (v, unit) in m.items() if unit != "s"}
              for m in per_pass]
    repeat = all(c == counts[0] for c in counts)
    checks.add(1, int(not repeat),
               [] if repeat else ["exact counts differ between passes"])
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_pass)
        metrics[name] = (value, unit)
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s")
    return metrics


def layer_metrics(tracer):
    """Per-layer metrics of the spans and counts recorded in one pass."""
    calls, self_s, total_s = tracer.aggregate()
    counts = tracer.counts

    def summed(counter, name, tag=None):
        return sum(v for (n, t), v in counter.items()
                   if n == name and (tag is None or t == tag))

    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (summed(calls, name), "count")
        metrics[f"{name}.self_s"] = (summed(self_s, name), "s")
        metrics[f"{name}.total_s"] = (summed(total_s, name), "s")
    for name in ("exactmat.rref.cells", "laurent.mul.term_pairs",
                 "character.masks_scanned"):
        metrics[name] = (summed(counts, name), "count")
    metrics["character.closed_ratio"] = (ratio(
        summed(counts, "character.closed_subsets"),
        summed(counts, "character.masks_scanned")), "ratio")
    metrics["quiver.enumerate_strings.kept_ratio"] = (ratio(
        summed(counts, "quiver.enumerate_strings.kept"),
        summed(counts, "quiver.enumerate_strings.candidates")), "ratio")
    metrics["mutation.new_seed_ratio"] = (ratio(
        summed(counts, "mutation.distinct_keys"),
        summed(calls, "mutation.mutate")), "ratio")
    # the scaling series of long-strings, one point per string length
    for length in workloads.KRONECKER_LENGTHS:
        tag = f"len{length}"
        for name in ("character.cluster_character",
                     "character.total_gr_euler",
                     "homalg.normalisation_vector", "formula.walk_laurent"):
            metrics[f"{name}.total_s.{tag}"] = (summed(total_s, name, tag),
                                                "s")
        metrics[f"character.masks_scanned.{tag}"] = (
            summed(counts, "character.masks_scanned", tag), "count")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stringchar" / "cli.py").is_file() or \
            not (ROOT / "fixtures").is_dir():
        print(f"error: no stringchar source tree (src/stringchar, fixtures/) "
              f"under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    conditions = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
    }
    record = {"conditions": conditions}
    checks = Checks()
    workload = workloads.build(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args, workload, checks, record)
    conditions["loadavg_end"] = os.getloadavg()

    for message in checks.messages:
        print(f"check failed: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>16.6f} {unit}")
    print(record["summary"])
    print(f"{'fail_ratio':<52} {ratio(checks.failed, checks.attempted):>16.6f}"
          f" ({checks.failed}/{checks.attempted})")
    print("conditions " + json.dumps(conditions))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(result, check_messages=checks.messages)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
