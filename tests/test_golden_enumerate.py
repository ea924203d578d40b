"""Golden output of the cluster-variable search, pinned by sha256: what
`enumerate` prints as text and as `--json` where the search runs out of
seeds (a3dec, a4dec, dcyclic4 and dcyclic5 at depth 10), and where the
depth cuts it off with seeds still unsearched (dcyclic5 at depth 4,
diamond5 at depth 5), and what `match` prints for every string of length
at most 2 on a4dec and dcyclic4 at depths 0 to 3.

A mutation the search wrongly skips loses nothing at full depth when the
seed it leads to is reached another way, but at a cut-off depth it can
lose a cluster variable, and with it a line or a `found`."""

import hashlib

import pytest

from stringchar import StringCharError, cluster_character, \
    enumerate_strings, match_character, seed_from_ice_quiver
from stringchar.cli import main

from conftest import FIXTURES, load


def enumerate_calls(name, depth):
    path = str(FIXTURES / f"{name}.quiver")
    return [["enumerate", path, "--depth", str(depth)],
            ["enumerate", path, "--depth", str(depth), "--json"]]


CASES = {
    "a3dec-enumerate10": (enumerate_calls("a3dec", 10),
                          "0321ee94d3e4fc2692d24f84ea303fc5"
                          "917d7ae69436a81e5e859f9123481219"),
    "a4dec-enumerate10": (enumerate_calls("a4dec", 10),
                          "7e9c409fd0ccf352f518eebe223fed37"
                          "3f238142f9824b2e5ebbd6c9599e9c9b"),
    "dcyclic4-enumerate10": (enumerate_calls("dcyclic4", 10),
                             "93fc9a4967852f8679342a214e35c255"
                             "b404fda889d7e46575b714ca132864a3"),
    "dcyclic5-enumerate10": (enumerate_calls("dcyclic5", 10),
                             "1e6bfc6491d0770c33aff897e8f2b65d"
                             "0567a9b534d0273772cb9c93330bf28a"),
    # all 25 cluster variables are reached at depth 4, with seeds left
    # unsearched, so the output is that of depth 10
    "dcyclic5-enumerate4": (enumerate_calls("dcyclic5", 4),
                            "1e6bfc6491d0770c33aff897e8f2b65d"
                            "0567a9b534d0273772cb9c93330bf28a"),
    "diamond5-enumerate5": (enumerate_calls("diamond5", 5),
                            "a4592fd5cd28ab0ad8b7677a5ef3525c"
                            "0ffd07f1b7d101b1427172bf5f950848"),
}


def transcript(capsys, calls):
    """sha256 of the exit code, stdout and stderr of each call in turn."""
    digest = hashlib.sha256()
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}{captured.err}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_search_output_is_unchanged(capsys, case):
    calls, golden = CASES[case]
    assert transcript(capsys, calls) == golden


MATCHES = {
    "a4dec": "5e0e6cdf5b6c9f4e1adfef444f1b7b2e"
             "d1c18630e729b83c38323824db7a8f9b",
    "dcyclic4": "561e55eaf17a744a3444607934071f4f"
                "dbf4def89051f5598ab88080761a9b24",
}


def match_transcript(name):
    """sha256 of what `match --depth d` prints for each string of length at
    most 2 and d = 0..3: `found`, `not-found` or the error line.  As in
    test_golden, the characters are computed in-process on one parsed
    quiver, as the CLI computes them, and not by a CLI call per string
    and depth."""
    digest = hashlib.sha256()
    q = load(name)
    seed = seed_from_ice_quiver(q)
    for c in enumerate_strings(q, 2):
        try:
            f = cluster_character(q, c)
        except StringCharError as exc:
            lines = [f"{type(exc).__name__}: {exc}"] * 4
        else:
            lines = ["found" if match_character(seed, f, depth)
                     else "not-found" for depth in range(4)]
        text = "\n".join(lines)
        digest.update(f"{c}\n{text}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(MATCHES))
def test_match_output_is_unchanged(name):
    assert match_transcript(name) == MATCHES[name]
