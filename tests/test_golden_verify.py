"""Golden output of `verify`, pinned by sha256 of (exit code, stdout,
stderr): every fixture at `--max-length 8`, and six quivers that `verify`
must refuse at lengths 0, 1, 3 and 6.  How the sweep walks the string
tree must not move a byte of it, nor the point at which an error stops
the PASS lines."""

import hashlib
import json

import pytest

from stringchar.cli import main

from conftest import FIXTURES

GOLDEN = {
    "a11": "ac026c96df3223d942d753ac19afb5828dafbe67f72321777b80f664562993be",
    "a2": "f062714d3c3967cb11691e4e6adb636521ef0c349645df8d013c790d4a5841ec",
    "a2dec": "fd69a893f68d5fd5e8d67db1dd4a957bafaad2ba8ab19f4b374b484e01acc285",
    "a2ice": "f062714d3c3967cb11691e4e6adb636521ef0c349645df8d013c790d4a5841ec",
    "a3": "0a0f40a4d0fefe8af663cfdd771925caa5960a9db8d8b545df938f35fe36e8e3",
    "a3dec": "39afde00782291cdc33dc178fcac3ed7f040fa3fd17365456b6a7015c0763149",
    "a4dec": "dcc621635066398e0064cea00d064abe50ce612a4db5a40dadc4febb7484625a",
    "dcyclic3":
        "a92f7265fd0128f9c02647e10ffac8ad05e449f2cb0afbd0aa37ba93bcf7f681",
    "dcyclic4":
        "c29caf511248ef87852a60a32dffa95389a355b3de5f0ea959c9de283e7697a3",
    "dcyclic5":
        "a150b3431cd74d9b27e520322ae524aceb45033d4e42a0431ccb9663e4a7857a",
    "diamond5":
        "4453b75d5ac45cc723e025723bcacc4ef31b916a16354181414359822659f340",
    "doublearrow4":
        "59cdffe9ea8dd5d969c8c8def6ae80f974819c87907fa0a8b42b0a952186ae81",
    "kronecker2":
        "cc6d82f9a9c8ae554d35a9d02992ee2c5027bd2474be8e5c46b96979f54d4f62",
    "kronecker3":
        "ec179d1da80b12289e87f000856e632bac1b23417647236bb2a5d7fc9b916bc8",
}

# quivers that verify refuses, and when: a loop, and a 2-cycle
# (QuiverError, before any line); a b = 0 on 1 -> 2 -> 3, and a 4-cycle
# with relations of two lengths (K0IllDefined, after the trivial
# strings); the relation-free 3-cycle (PathLimitExceeded, before any
# line); and a quiver with no unfrozen vertex, which has no string
REFUSED = {
    "loop": "vertex 1\nvertex 2\narrow a 1 -> 1\narrow b 1 -> 2\n"
            "relation a a\n",
    "two-cycle": "vertex 1\nvertex 2\narrow a 1 -> 2\narrow b 2 -> 1\n"
                 "relation a b\nrelation b a\n",
    "a3rel": "vertex 1\nvertex 2\nvertex 3\narrow a 1 -> 2\n"
             "arrow b 2 -> 3\nrelation a b\n",
    "cycle4mixed": "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
                   "arrow a 1 -> 2\narrow b 2 -> 3\narrow c 3 -> 4\n"
                   "arrow d 4 -> 1\nrelation a b c\nrelation c d\n"
                   "relation d a\n",
    "cycle3": "vertex 1\nvertex 2\nvertex 3\narrow a 1 -> 2\n"
              "arrow b 2 -> 3\narrow c 3 -> 1\n",
    "allfrozen": "vertex 1 frozen\nvertex 2 frozen\n",
}
REFUSED_LENGTHS = (0, 1, 3, 6)
REFUSED_GOLDEN = {
    "loop": "129a31c102e76bdc8ef459ab7152e7c9d18cbe1fe4ed88159b8eada6d2268730",
    "two-cycle":
        "c1e2e9fafe1400e17682adf9beec6e9939c6f6cd6fe85970e3fd5d05b4fd98be",
    "a3rel": "fdcc1c8f8ee96a69aff7aa2afd947a72564a85a5cb6d0c1d1ee05628b33407fb",
    "cycle4mixed":
        "0c23fe1fb18b43ad39afa3a7e32eb7a7619fee44460614e079aa63cd2c464ee4",
    "cycle3":
        "875a886fc0463e3c320efc8c6910b3327337a4b79110ac399a9402b70ea13349",
    "allfrozen":
        "e1474c7a36be5b2b4a9ad990c884aaaa45ca2caf31b2d77c7aad9bc8b61e1730",
}


def digest(capsys, path, lengths):
    """sha256 of the exit code, stdout and stderr of `verify` at each of
    the max lengths in turn."""
    runs = []
    for n in lengths:
        code = main(["verify", str(path), "--max-length", str(n)])
        captured = capsys.readouterr()
        runs.append([code, captured.out, captured.err])
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_output_is_unchanged(capsys, name):
    assert digest(capsys, FIXTURES / f"{name}.quiver", (8,)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_verify_refuses_at_the_same_line(capsys, tmp_path, name):
    path = tmp_path / f"{name}.quiver"
    path.write_text(REFUSED[name])
    assert digest(capsys, path, REFUSED_LENGTHS) == REFUSED_GOLDEN[name]
