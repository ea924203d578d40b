"""Golden output of the integer side of a string, pinned by sha256: for
every fixture and every string of length at most 3, the `normalise` line,
the `chi` counts (the total, and the count at the empty, the full and
each one-vertex dimension vector) and the pairings with the simples, or
the error line the CLI prints.  Reorganising how these are counted must
not move a byte of it."""

import hashlib
import json

import pytest

from stringchar import StringCharError, enumerate_strings, gr_euler, \
    normalisation_vector, simple_pairings, total_gr_euler

from conftest import load

GOLDEN = {
    "a11": "85e643620aa16af94646dc2c65beebd14d72829d10c805604fa73b5c39fe0bb3",
    "a2": "391f8e37a88dc70ffaa1bac74341770ec27e336ebca6ea39ed15aef890604c91",
    "a2dec": "8c653c89324190edacc7d7a91bed93ca0a739a6d3d150892630707ca776958a0",
    "a2ice": "6b4c7e5fa02d78093d3ff3404620bb9de6ba87ef000454ba8939d5a0e162c5fb",
    "a3": "bdf55504d3b3aa001db997d2ad2ce70f4d852daac13963582950fedc213bf23d",
    "a3dec": "35cd99b7512e9152b639d53bdb3131eacb44ce407ee1b7f4c247f48363a7c861",
    "a4dec": "e0487f7be978efed99d383f45f4d65b7ba5e96f2b240ea023e411c30c9f8899a",
    "dcyclic3": "5ae74aa4d4771d468ba32c4c87cdd99eac00c478099edddc34e2bd66235c5208",
    "dcyclic4": "92fab18765b3f318be148dca624e36968c70b42523350031ad7e2c4e26d04daa",
    "dcyclic5": "71485e84e68cc8a579eb06d6dfb6cb00497acb1116bd5125f8c883f53ffd4934",
    "diamond5": "a5c8c660318ef4aa349da2583482d457b385289192e1c623668a36a9a57c0606",
    "doublearrow4": "37c459d15908cea8cdf8f1d177edaf216646335576f514023d3255ffd93086cb",
    "kronecker2": "827264285b95158b62b764201fefd0bf59e9f377177aa55f4c2143887b2f0089",
    "kronecker3": "4b9346a33d09ed5bd611e2e66068d2254344ce80faf53e5c1e6ccde1f7564c3a",
}


def _line(compute):
    try:
        return compute()
    except StringCharError as exc:
        return f"{type(exc).__name__}: {exc}"


def _chi(c):
    counts = [total_gr_euler(c), gr_euler(c, {})]
    full = {}
    for v in c.vertices:
        full[v] = full.get(v, 0) + 1
    counts.append(gr_euler(c, full))
    counts.extend(gr_euler(c, {v: 1}) for v in sorted(set(c.vertices)))
    return " ".join(map(str, counts))


def _pairings(q, c):
    forward, backward = simple_pairings(q, c)
    return json.dumps([dict(sorted(forward.items())),
                       dict(sorted(backward.items()))])


def transcript(name):
    digest = hashlib.sha256()
    q = load(name)
    for c in enumerate_strings(q, 3):
        normalise = _line(lambda: json.dumps(
            dict(sorted(normalisation_vector(q, c).items()))))
        chi = _line(lambda: _chi(c))
        pairings = _line(lambda: _pairings(q, c))
        digest.update(f"{c}\n{normalise}\n{chi}\n{pairings}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_string_counts_are_unchanged(name):
    assert transcript(name) == GOLDEN[name]
