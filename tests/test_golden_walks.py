"""Golden output of the walk commands, pinned by sha256: for every fixture,
what `lpoly` (text and `--json`) and `lcount` print for every string of
length at most 3, and what `euler` prints for every ordered pair of
strings of length at most 1, each with its exit code.  Each string goes
through `Walk.parse` from its printed form, as on the command line.

The lines are computed in-process on one parsed quiver, as `cli._run`
computes them; a CLI call per string would parse the file again every
time.  How a walk is built or the path basis grown must not move a byte
of it.  The polynomial is computed once for both of its renderings, and
each string module once for all of its pairs."""

import hashlib
import itertools
import json

import pytest

from stringchar import InputParseError, LaurentPoly, StringCharError, \
    Walk, enumerate_strings, euler_forms, string_module, walk_count, \
    walk_laurent

from conftest import load

GOLDEN = {
    "a11": "2b9a28838bf252dec060b3f440a998d5c2f210631b97836faabffbf4cb5073a3",
    "a2": "ff15c54f9fe71861ce802e6675e87b8e7b7545388d1959242a7c1aa9a1b30b61",
    "a2dec": "e86f3a4cdb99a9047c097f8bf125bce23ea2aee6a9c2fbece4f45e93c7d7478b",
    "a2ice": "b804be20acbbb9ece8cee5dbf6f45b4d7dc9a33ee6957aef52d5f5b23e672eaf",
    "a3": "82c9235a0921acc6d8a8869e31d7ee57da894e3f38b80d97c4d758c9bace4a75",
    "a3dec": "91f8f966614f83c86c0e21ced7932975399010ff7354f7d8328631887779167e",
    "a4dec": "227d195e5fe1334767a6d2b8bca5edf5f00236e9cd692b8be43589ef016f6902",
    "dcyclic3":
        "5c6ae17fa21c38b03a9f58225602ad0170235eddf195ce7228cd41dc91ca3012",
    "dcyclic4":
        "1d1b7e187e7ac1f97d2eb0176712edfbf9ba7eed1bb6ebe3490aed912db12d54",
    "dcyclic5":
        "2ac2d75d76bbe735aef921755ac30f63fdc19026227ec15d4b14f1dfc9df10ce",
    "diamond5":
        "a0e6c621025d77776fe16960edb145151973c7761318104db8b1e07d9614573a",
    "doublearrow4":
        "6f0ed821a6c6cc1d8fb380a5646e0b7fce3a6532387d3bce6b7af372628f9646",
    "kronecker2":
        "b41c5f6a8ae88a87794de7c0a3656929fc4a5d227833a211c90e5dd31cbdecbc",
    "kronecker3":
        "78bb6f160fe3f1b9f9f23f139f01f4e53cb3ac91cc0c3f4a9a645da9de9138e8",
}


def _attempt(compute):
    """What `compute` returns, or the error it raises."""
    try:
        return compute()
    except StringCharError as exc:
        return exc


def _cli(outcome, render=str):
    """Exit code, stdout and stderr as `cli.main` reports `outcome`."""
    if isinstance(outcome, InputParseError):
        return f"2\nparse error: {outcome}\n"
    if isinstance(outcome, StringCharError):
        return f"1\n{type(outcome).__name__}: {outcome}\n"
    return f"0\n{render(outcome)}\n"


def _euler(q, lhs, rhs):
    for module in (lhs, rhs):
        if isinstance(module, StringCharError):
            raise module
    truncated, anti = euler_forms(q, lhs, rhs)
    return json.dumps({"truncated": truncated, "antisymmetrised": anti})


def transcript(name):
    digest = hashlib.sha256()
    q = load(name)
    for c in enumerate_strings(q, 3):
        text = str(c)
        poly = _attempt(lambda: walk_laurent(q, Walk.parse(q, text)))
        count = _attempt(lambda: walk_count(Walk.parse(q, text)))
        digest.update(f"{text}\n{_cli(poly, LaurentPoly.text)}"
                      f"{_cli(poly, LaurentPoly.to_json)}{_cli(count)}"
                      .encode())
    modules = {str(c): None for c in enumerate_strings(q, 1)}
    for text in modules:
        modules[text] = _attempt(
            lambda: string_module(q, Walk.parse(q, text)))
    for lhs, rhs in itertools.product(modules, repeat=2):
        line = _cli(_attempt(lambda: _euler(q, modules[lhs], modules[rhs])))
        digest.update(f"{lhs} | {rhs}\n{line}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_walk_outputs_are_unchanged(name):
    assert transcript(name) == GOLDEN[name]
