"""Golden output, pinned by sha256: for every fixture, the text and the
`--json` output of `enumerate --depth 3`, and the `character --json` line
(or the error line the CLI prints) of every string of length at most 3.
A change to how the Laurent kernel stores monomials must not move a byte
of it."""

import hashlib

import pytest

from stringchar import StringCharError, cluster_character, enumerate_strings
from stringchar.cli import main

from conftest import FIXTURES, load

GOLDEN = {
    "a11": "25369e1794b24540b2b3d0aeb7660ab020697c08938f307120dce07f0653860e",
    "a2": "fe3884d2f8189962cf7c8288702a611c8a0ea44c124a422666b893cae00d46f1",
    "a2dec": "07e5bd20ce56a9b7d137bb86bf50c6fb5e8d28fdb4a8bc4ddf85de4c12af99b8",
    "a2ice": "ae345a7cfef3ae79db3314c4e88e61a951e6de0d15801a23ed7109cc77252908",
    "a3": "507e32e9e84bfcdc74a7b15e9abbce8271dbd4dbc207397bd104d9e2f866373f",
    "a3dec": "fe1c90cde4457ee8665c3efbf2ebb73d42658d418e550cec5000b57542baca71",
    "a4dec": "dbede6bae6a94f34b3e7e180dffa052dade228fe785bcf142ffc9cc991cbe423",
    "dcyclic3": "0bafbb884f7b06602f800e5ddd1d6daddd0b0ee5bbc9a79be435dca7d5136576",
    "dcyclic4": "624b44e2f8a75370d1d845189beee9be829ba6ca8fb43b5117be6296e4aae152",
    "dcyclic5": "fffacf77968bb381be9245076ed666a979adf29a9211da5a230610a4a12499d7",
    "diamond5": "c141be6d5523aa0113e7b9768ba0cec2767665be53402c4e1795f5d7017ab120",
    "doublearrow4": "eed777231db08c18398306a5993baa8995b55adad159229fe93008e7da2af2c1",
    "kronecker2": "bdfd5360c55de9fc25b14f45e4c118e4c0563c5e9e9f627edd7797fdbf62932d",
    "kronecker3": "f376e4dbd5624640b54b3dcd98f33a5d52769ca691ffd710f5d721f2c704344f",
}


def transcript(capsys, name):
    """sha256 of the exit codes and outputs of the two `enumerate` calls,
    then of one `character --json` line per string.  The characters are
    computed in-process on one parsed quiver, as the CLI computes them; a
    CLI call per string would parse the file and build the path basis
    again every time."""
    digest = hashlib.sha256()
    path = str(FIXTURES / f"{name}.quiver")
    for argv in (["enumerate", path, "--depth", "3"],
                 ["enumerate", path, "--depth", "3", "--json"]):
        code = main(argv)
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}{captured.err}".encode())
    q = load(name)
    for c in enumerate_strings(q, 3):
        try:
            line = cluster_character(q, c).to_json()
        except StringCharError as exc:
            line = f"{type(exc).__name__}: {exc}"
        digest.update(f"{c}\n{line}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_unchanged(capsys, name):
    assert transcript(capsys, name) == GOLDEN[name]
