"""The benchmark's workloads: the CLI calls of one pass, the digests their
standard output must match, and the paper's identities checked on that
output outside the timed region.

One pass runs every call of a workload once, in order, through
``stringchar.cli.main`` in this process (one closed-loop client: a call
starts only when the previous one has returned).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())

KRONECKER_LENGTHS = (12, 14, 16, 18)
# the one string of a11 that covers the whole line, from vertex 1 to 11
A11_STRING = ("alpha beta gamma^-1 delta epsilon^-1 zeta^-1 eta^-1 theta "
              "iota kappa^-1")
A4_CLUSTER_VARIABLES = 14


@dataclass
class Call:
    """One CLI call: arguments after the program name (fixture paths are
    relative to the repository root), the key of its expected digest, the
    latency item it belongs to and the tag its trace spans carry."""
    argv: list
    key: str
    item: str = None
    tag: str = None


@dataclass
class Workload:
    name: str
    calls: list
    quivers: list
    # "lines": every PASS/FAIL line of verify is a latency item;
    # "calls": the calls sharing an `item` form one latency item
    items: str = "calls"


def fixture(name):
    return f"fixtures/{name}.quiver"


def kronecker_string(rng, length):
    """A string of the given length on kronecker3 from vertex 1.  Steps
    alternate forward and inverse and each arrow differs from the one
    before it, so the walk never backtracks; the quiver has no relations.
    All such strings of one length have the same dimension vector and the
    same diagram shape, so every seed gives work of the same size and the
    same output."""
    arrows = ("al1", "al2", "al3")
    steps, previous = [], None
    for i in range(length):
        arrow = rng.choice([a for a in arrows if a != previous])
        steps.append(arrow if i % 2 == 0 else f"{arrow}^-1")
        previous = arrow
    return " ".join(steps)


def _string_calls(quiver, string, label, tag):
    key = f"long-strings/{label}"
    return [
        Call(["character", fixture(quiver), "--string", string, "--json"],
             f"{key}/character", label, tag),
        Call(["chi", fixture(quiver), "--string", string],
             f"{key}/chi", label, tag),
        Call(["normalise", fixture(quiver), "--string", string],
             f"{key}/normalise", label, tag),
        Call(["lpoly", fixture(quiver), "--walk", string, "--json"],
             f"{key}/lpoly", label, tag),
    ]


def build(name, seed):
    """The workload `name` with its inputs made from `seed`."""
    if name == "verify-sweep":
        return Workload(name, [
            Call(["verify", fixture("diamond5"), "--max-length", "8"],
                 "verify-sweep/diamond5"),
            Call(["verify", fixture("dcyclic5"), "--max-length", "6"],
                 "verify-sweep/dcyclic5"),
        ], [fixture("diamond5"), fixture("dcyclic5")], items="lines")
    if name == "long-strings":
        rng = random.Random(seed)
        calls = _string_calls("a11", A11_STRING, "a11-len10", "a11")
        for length in KRONECKER_LENGTHS:
            calls += _string_calls("kronecker3", kronecker_string(rng, length),
                                   f"kronecker3-len{length}", f"len{length}")
        return Workload(name, calls, [fixture("a11"), fixture("kronecker3")])
    if name == "mutation-enumerate":
        return Workload(name, [
            Call(["enumerate", fixture("a4dec"), "--depth", "10"],
                 "mutation-enumerate/a4dec", "a4dec"),
            Call(["enumerate", fixture("kronecker2"), "--depth", "12"],
                 "mutation-enumerate/kronecker2", "kronecker2"),
        ], [fixture("a4dec"), fixture("kronecker2")])
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("verify-sweep", "long-strings", "mutation-enumerate")


class LineSink:
    """A stdout stand-in that keeps the text and timestamps the end of
    every line as it is written."""

    def __init__(self, clock):
        self.clock = clock
        self.parts = []
        self.line_ends = []

    def write(self, text):
        self.parts.append(text)
        if "\n" in text:
            now = self.clock()
            self.line_ends.extend([now] * text.count("\n"))
        return len(text)

    def flush(self):
        pass

    def text(self):
        return "".join(self.parts)


@dataclass
class Result:
    call: Call
    code: int
    out: str
    start: float
    end: float
    line_ends: list
    # turns this call's timings into timings at reference speed
    scale: float = 1.0


def run_call(call, tracer=None, clock=time.perf_counter):
    """Run one CLI call in this process and capture what it prints; its
    timestamps come from `clock`."""
    import stringchar.cli as cli

    argv = [str(ROOT / a) if a.startswith("fixtures/") else a
            for a in call.argv]
    sink, err = LineSink(clock), io.StringIO()
    if tracer is not None:
        tracer.begin_call(call.tag)
    start = clock()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        # a crash is a failed call, not the end of the benchmark
        traceback.print_exc()
        code = -1
    end = clock()
    if err.getvalue():
        print(f"stderr of {' '.join(call.argv)}: {err.getvalue().strip()}",
              file=sys.stderr)
    return Result(call, code, sink.text(), start, end, sink.line_ends)


def run_pass(workload, tracer=None, corrected=False):
    """Run every call of the workload once.  With `corrected`, reference
    chunks run in a slot before the first call and after each call, and
    from a timer while each call runs; each result's scale comes from the
    chunks of its call and of the slots around it, and its times leave
    the chunks out."""
    if not corrected:
        return [run_call(call, tracer) for call in workload.calls]
    results = []
    with reference.Sampler() as sampler:
        sampler.slot()
        for call in workload.calls:
            first = len(sampler.chunks) - reference.CHUNKS_PER_SLOT
            result = run_call(call, tracer, sampler.clock)
            sampler.slot()
            result.scale = reference.scale(sampler.chunks[first:])
            results.append(result)
    return results


def pass_times(results):
    """The raw and the reference-speed time of one pass: the sums over its
    calls, which leave out the reference slots between them."""
    raw = sum(r.end - r.start for r in results)
    return raw, sum((r.end - r.start) * r.scale for r in results)


def latency_items(workload, results):
    """Latency samples of one pass in seconds at reference speed: the gap
    before each PASS/FAIL line of verify, or the summed time of each
    item's calls."""
    if workload.items == "lines":
        samples = []
        for r in results:
            previous = r.start
            for line, end in zip(r.out.splitlines(), r.line_ends):
                if line.startswith(("PASS", "FAIL")):
                    samples.append((end - previous) * r.scale)
                    previous = end
        return samples
    per_item = {}
    for r in results:
        per_item[r.call.item] = per_item.get(r.call.item, 0.0) + \
            (r.end - r.start) * r.scale
    return list(per_item.values())


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_outputs(results):
    """(attempted, failed, messages) for the exit code and the stdout
    digest of every call."""
    attempted = failed = 0
    messages = []
    for r in results:
        attempted += 2
        if r.code != 0:
            failed += 1
            messages.append(f"{r.call.key}: exit code {r.code}")
        if digest(r.out) != EXPECTED.get(r.call.key):
            failed += 1
            messages.append(f"{r.call.key}: stdout digest differs from the "
                            "recorded one")
    return attempted, failed, messages


def check_identities(workload, results):
    """(attempted, failed, messages) for the paper's identities on the
    output of one pass; runs extra CLI calls, so keep it out of timing."""
    from stringchar.laurent import LaurentPoly

    checks = []
    if workload.name == "verify-sweep":
        for r in results:
            fails = [line for line in r.out.splitlines()
                     if line.startswith("FAIL")]
            checks.append((f"{r.call.key}: no FAIL line", not fails))
    elif workload.name == "long-strings":
        by_item = {}
        for r in results:
            by_item.setdefault(r.call.item, {})[r.call.argv[0]] = r
        for label, outs in by_item.items():
            chi = outs["chi"]
            lcount = run_call(Call(["lcount", chi.call.argv[1], "--walk",
                                    chi.call.argv[3]], f"{label}/lcount"))
            checks.append((f"{label}: lcount exits 0", lcount.code == 0))
            checks.append((f"{label}: chi == lcount",
                           chi.out.strip() == lcount.out.strip()))
            try:
                x, n, lpoly = (json.loads(outs[command].out) for command in
                               ("character", "normalise", "lpoly"))
                holds = LaurentPoly.from_json_obj(x) * LaurentPoly.monomial(
                    1, n) == LaurentPoly.from_json_obj(lpoly)
            except (ValueError, KeyError, TypeError):
                holds = False
            checks.append((f"{label}: character * x^n == lpoly", holds))
    elif workload.name == "mutation-enumerate":
        a4 = next(r for r in results if r.call.item == "a4dec")
        count = len(a4.out.splitlines())
        checks.append((f"a4dec: {count} cluster variables, expected "
                       f"{A4_CLUSTER_VARIABLES}",
                       count == A4_CLUSTER_VARIABLES))
    failed = [name for name, ok in checks if not ok]
    return len(checks), len(failed), failed
