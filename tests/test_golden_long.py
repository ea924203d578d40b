"""Golden output of long polynomials, pinned by sha256: what `lpoly` (text
and `--json`) and `character --json` print for a11's string from vertex 1
to 11 and for two kronecker3 strings of length 20 and 40, and what
`enumerate` prints as text and as `--json` for kronecker2 at depth 12,
kronecker3 at depth 5 and doublearrow4 at depth 4.

The other golden tests reach strings of length at most 3 and `enumerate
--depth 3`, where a polynomial has few terms in few variables.  Here the
polynomials have up to hundreds of terms in up to 11 variables, so the
order of the terms and of the variables in each term is pinned where it
is hard; the cluster variables of kronecker2 have 2 variables, those of
kronecker3 and doublearrow4 have 3 and 4."""

import hashlib

import pytest

from stringchar.cli import main

from conftest import FIXTURES, kronecker_string

A11_STRING = ("alpha beta gamma^-1 delta epsilon^-1 zeta^-1 eta^-1 theta "
              "iota kappa^-1")


def string_calls(name, string):
    path = str(FIXTURES / f"{name}.quiver")
    return [["lpoly", path, "--walk", string],
            ["lpoly", path, "--walk", string, "--json"],
            ["character", path, "--string", string, "--json"]]


def enumerate_calls(name, depth):
    path = str(FIXTURES / f"{name}.quiver")
    return [["enumerate", path, "--depth", str(depth)],
            ["enumerate", path, "--depth", str(depth), "--json"]]


CASES = {
    "a11-full": (string_calls("a11", A11_STRING),
                 "4efaec703967a9bf4087a3fb381ca59f"
                 "4e467f70b4e1e483a285a896f97bd562"),
    "kronecker3-len20": (string_calls("kronecker3", kronecker_string(20)),
                         "bd399509f7726ee77d06675c801c2444"
                         "764b08cdbb04b8636b4ae8647fd66c81"),
    "kronecker3-len40": (string_calls("kronecker3", kronecker_string(40)),
                         "76907a0bdda42786a397b85bd8754bd9"
                         "ae5232fa2fd16135a5593f7eb1baeff9"),
    "kronecker2-enumerate12": (enumerate_calls("kronecker2", 12),
                               "026c62ba4aead0c6a5d5737a27d60a50"
                               "af0e71ac621b6fa1b1886653711c13c9"),
    "kronecker3-enumerate5": (enumerate_calls("kronecker3", 5),
                              "f9dac049a28c23d1a9d7239a4a72bd45"
                              "bfcdaad3bc2ab974b9c4970060a50775"),
    "doublearrow4-enumerate4": (enumerate_calls("doublearrow4", 4),
                                "490b493e5a080d43874a43ca9bf4ac3b"
                                "6771d6538611d782d01656e538b1ae9c"),
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
def test_long_output_is_unchanged(capsys, case):
    calls, golden = CASES[case]
    assert transcript(capsys, calls) == golden
