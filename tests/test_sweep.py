"""The sweep over the string tree against the single-string functions it
replaces in `verify`: each string's state is built from its parent's, so
every string of a fixture is compared with the functions that read it
from scratch."""

from stringchar import cluster_character, enumerate_strings, \
    normalisation_vector, simple_pairings, walk_laurent
from stringchar.sweep import sweep

from conftest import FIXTURES, load

LENGTHS = {name: 6 for name in
           (path.stem for path in FIXTURES.glob("*.quiver"))}
LENGTHS["kronecker3"] = 8


def test_sweep_matches_the_single_string_functions():
    assert len(LENGTHS) == 14
    relation_free = 0
    for name, max_length in sorted(LENGTHS.items()):
        q = load(name)
        swept = list(sweep(q, max_length))
        if not q.relations:
            # over a relation-free loop-free quiver X_M = L_c
            relation_free += 1
            assert all(not any(s.normaliser.values()) for s in swept), name
        assert [s.string for s in swept] == \
            enumerate_strings(q, max_length, unfrozen_only=True), name
        for s in swept:
            c = s.string
            assert s.character == cluster_character(q, c), (name, c)
            assert s.normaliser == normalisation_vector(q, c), (name, c)
            assert s.walk_polynomial == walk_laurent(q, c), (name, c)
            assert s.pairings == simple_pairings(q, c), (name, c)
            assert s.holds, (name, c)
    assert relation_free == 10
