"""The benchmark's tracer wraps stringchar's functions by name, so a name
that no longer resolves stops it before any workload runs."""

import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import tracing

    entries = tracing.LAYERS + tracing.COUNTED
    assert entries
    for module_name, path, name in entries:
        assert callable(tracing._resolve(module_name, path)), name
