"""Checks of the benchmark itself: every wrapped layer is seen, the exact
counts repeat, and the printed metrics match BENCHMARK.json.

Not part of the package's test suite (the file name keeps pytest from
collecting it there); run it on its own, in about a minute:

    python3 -m pytest -q bench/tracing_checks.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the workload on which each wrapped layer does most of its work; a layer
# that records no call there has been renamed or moved out from under the
# tracer
DOMINANT = {
    "verify-sweep": (
        "cli.main", "quiver.enumerate_strings", "quiver.string_module",
        "quiver.blow_up", "formula.walk_laurent", "homalg.euler_forms",
        "homalg.normalisation_vector", "homalg.projective_cover_data",
        "homalg.hom_dim", "homalg.ext1_dim", "exactmat.rref",
        "character.cluster_character",
        "character.StringDiagram.submodule_counts"),
    "long-strings": ("character.total_gr_euler",),
    "mutation-enumerate": (
        "laurent.mul", "laurent.exact_div", "mutation.mutate",
        "mutation.Seed.key"),
}
COUNTS_ON = {
    "verify-sweep": ("exactmat.rref.cells",
                     "quiver.enumerate_strings.kept_ratio"),
    "long-strings": ("character.masks_scanned", "character.closed_ratio",
                     "character.masks_scanned.len18",
                     "character.cluster_character.total_s.len18"),
    "mutation-enumerate": ("laurent.mul.term_pairs",
                           "mutation.new_seed_ratio"),
}
# counts that must repeat exactly between runs with the same seed
EXACT = ("laurent.mul.term_pairs", "exactmat.rref.cells",
         "character.masks_scanned", "character.closed_ratio",
         "quiver.enumerate_strings.kept_ratio", "mutation.new_seed_ratio",
         "homalg.projective_cover_data.calls")


def run(workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    return {w: (run(w, 1), run(w, 1)) for w in DOMINANT}


def test_every_layer_is_assigned_a_dominant_workload():
    assigned = [name for names in DOMINANT.values() for name in names]
    assert sorted(assigned) == sorted(tracing.SPAN_NAMES)


def test_every_binding_site_is_patched():
    with tracing.Tracer() as tracer:
        sites = tracer.sites
    expected = {
        "homalg.euler_forms": {"stringchar.homalg.euler_forms",
                               "stringchar.character.euler_forms"},
        "quiver.enumerate_strings": {"stringchar.quiver.enumerate_strings",
                                     "stringchar.cli.enumerate_strings"},
        "laurent.mul": {"LaurentPoly.__mul__", "LaurentPoly.__rmul__"},
        "character.StringDiagram.submodule_counts": {
            "StringDiagram.submodule_counts"},
        "mutation.Seed.key": {"Seed.key"},
    }
    for name, wanted in expected.items():
        assert wanted <= set(sites[name]), (name, sites[name])


def test_wrapped_layers_record_calls_on_their_dominant_workload(traced):
    for workload, names in DOMINANT.items():
        metrics = traced[workload][0]
        for name in names:
            assert metrics[f"{name}.calls"] >= 1, (workload, name)
        for name in COUNTS_ON[workload]:
            assert metrics[name] > 0, (workload, name)


def test_exact_counts_repeat_between_runs(traced):
    for workload, (first, second) in traced.items():
        counts = [name for name in first
                  if not name.endswith("_s") and ".total_s." not in name]
        assert set(EXACT) <= set(counts)
        for name in counts:
            assert first[name] == second[name], (workload, name)


def test_printed_metrics_match_the_benchmark_definition(traced):
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for first, _second in traced.values():
        assert list(first) == per_layer
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    assert list(run("mutation-enumerate", 0)) == end_to_end
