"""The sweep over the string tree against the single-string functions it
replaces in `verify`: each string's state is built from its parent's, so
every string of a fixture is compared with the functions that read it
from scratch."""

from stringchar import LaurentPoly, cluster_character, enumerate_strings, \
    normalisation_vector, simple_pairings, walk_laurent
from stringchar.character import _weights, transfer_step
from stringchar.formula import _vertex_monomials, walk_step
from stringchar.homalg import _string_pass
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
            assert all(not any(s.counts.normaliser(q, s.string).values())
                       for s in swept), name
        assert [s.string for s in swept] == \
            enumerate_strings(q, max_length, unfrozen_only=True), name
        for s in swept:
            c = s.string
            assert s.character == cluster_character(q, c), (name, c)
            assert s.counts.normaliser(q, c) == \
                normalisation_vector(q, c), (name, c)
            assert s.walk_polynomial == walk_laurent(q, c), (name, c)
            assert s.counts.pairings(q) == simple_pairings(q, c), (name, c)
            assert s.holds, (name, c)
    assert relation_free == 10


def test_the_walk_product_is_the_transfer_product_termwise():
    """With (l, r) the walk's row vector before its last vertex matrix,
    (top, bottom) that matrix's diagonal, (out, inn) the transfer pair at
    the character's weights and x^S = x^(A dim M), every string of length
    at most 6 on the fixtures has l top == x^S inn and r bottom == x^S out;
    the identity is their sum.
    Both recurrences are folded here from scratch, apart from `sweep`."""
    checked = 0
    for name in sorted(LENGTHS):
        q = load(name)
        weight = _weights(q)
        for c in enumerate_strings(q, 6, unfrozen_only=True):
            n = len(c.steps)
            vector = 1, 1
            w = weight[c.source]
            transfer = 1, w, 1 + w
            for i, step in enumerate(c.steps, 1):
                vector = walk_step(q, vector, c, i)
                transfer = transfer_step(transfer, step.forward,
                                         weight[c.vertices[i]])
            top, bottom = _vertex_monomials(q, c.target, c.step_arrow(n),
                                            None)[:2]
            shift = LaurentPoly.monomial(1, _string_pass(q, c).arrow_sums(q))
            left, right = vector
            out, inn, _total = transfer
            assert left * top == shift * inn, (name, c)
            assert right * bottom == shift * out, (name, c)
            checked += 1
    assert checked == 800
