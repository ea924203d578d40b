import faulthandler
import os
import pathlib
import subprocess
import sys

import pytest

from stringchar import BoundIceQuiver

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(autouse=True)
def hang_guard():
    """A test that does not end within 10 s, such as a division that never
    terminates, stops the run with exit status 1 instead of hanging it;
    the tracebacks of all threads go to stderr (shown under `pytest -s`)."""
    faulthandler.dump_traceback_later(10, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def run_in_fresh_interpreter(test):
    """Run test, a function of a test module, in a new Python interpreter
    with this one's import path, and fail with its traceback if it raises.
    For a test that fills process-wide state, such as the Laurent intern
    table, whose size would otherwise slow every later test."""
    code = f"import {test.__module__}; {test.__module__}.{test.__name__}()"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def load(name):
    """Load a fixture quiver by basename."""
    return BoundIceQuiver.from_file(FIXTURES / f"{name}.quiver")


def kronecker_string(length):
    """A kronecker3 string from vertex 1 that cycles through the three
    arrows, forward and inverse in turn, so it never backtracks."""
    arrows = ("al1", "al2", "al3")
    return " ".join(arrows[i % 3] + ("" if i % 2 == 0 else "^-1")
                    for i in range(length))


def caret_quiver():
    """Vertices u, p^q and p, with arrows r: u -> p^q and q^r: u -> p.
    Blow-up pendants named {target}^{arrow};{k} collided here."""
    return BoundIceQuiver(["u", "p^q", "p"],
                          [("r", "u", "p^q"), ("q^r", "u", "p")])


def hand_built_quivers():
    """Bound quivers whose relations overlap, which no fixture has."""
    cycle = [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")]
    return [
        # an arrow repeated inside a relation
        BoundIceQuiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")],
                       relations=[("a", "b", "a"), ("b", "a", "b")]),
        # a relation implied by a shorter one
        BoundIceQuiver(["1", "2", "3", "4"],
                       [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
                       relations=[("a", "b"), ("a", "b", "c")]),
        # a long relation beside a short one it contains
        BoundIceQuiver(["1", "2", "3"], cycle,
                       relations=[("a", "b", "c", "a", "b", "c", "a"),
                                  ("b", "c", "a", "b")]),
    ]
