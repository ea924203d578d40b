"""The sweep over the string tree against the single-string functions it
replaces in `verify`: each string's state is built from its parent's, so
every string of a fixture is compared with the functions that read it
from scratch."""

import pytest

import stringchar.sweep
from stringchar import ExponentOverflow, LaurentPoly, cluster_character, \
    enumerate_strings, normalisation_vector, simple_pairings, walk_laurent
from stringchar.character import _weights, transfer_step
from stringchar.formula import walk_start, walk_step
from stringchar.homalg import _string_pass
from stringchar.laurent import EXPONENT_LIMIT, _pack
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
            assert s.shift == LaurentPoly.monomial(
                1, s.counts.arrow_sums(q)), (name, c)
            assert s.holds, (name, c)
    assert relation_free == 10


def test_the_walk_product_is_the_transfer_product_termwise():
    """With (l, r, l + r) the walk's state after its last vertex,
    (out, inn) the transfer pair at the character's weights and
    x^S = x^(A dim M), every string of length at most 6 on the fixtures
    has l == x^S inn and r == x^S out; the identity is their sum, which
    the walk's state carries as its third entry.  Both recurrences are
    folded here from scratch, apart from `sweep`."""
    checked = 0
    for name in sorted(LENGTHS):
        q = load(name)
        weight = _weights(q)
        steps = {}
        for c in enumerate_strings(q, 6, unfrozen_only=True):
            state = walk_start(q, c.source)
            w = weight[c.source]
            transfer = 1, w, 1 + w
            for i, step in enumerate(c.steps, 1):
                state = walk_step(q, steps, state, c, i)
                transfer = transfer_step(transfer, step.forward,
                                         weight[c.vertices[i]])
            shift = LaurentPoly.monomial(1, _string_pass(q, c).arrow_sums(q))
            left, right, total = (x.poly() for x in state)
            out, inn, _total = transfer
            assert left == shift * inn, (name, c)
            assert right == shift * out, (name, c)
            assert total == left + right, (name, c)
            checked += 1
    assert checked == 800


def test_the_term_by_term_check_is_the_product():
    """On every string of length at most 6 of every fixture, `holds` is
    transfer * shift == numerator as a product of Laurent polynomials;
    and so is the term-by-term check of one string's numerator against
    the transfer and shift of the string swept before it."""
    pairs = 0
    for name in sorted(LENGTHS):
        previous = None
        for s in sweep(load(name), 6):
            assert s.holds == (s.transfer * s.shift == s.numerator), \
                (name, s.string)
            if previous is not None:
                assert s._numerator.equals_shifted(
                    previous._transfer, previous.shift_key,
                    previous.shift_bound) == \
                    (previous.transfer * previous.shift == s.numerator), \
                    (name, s.string)
                pairs += 1
            previous = s
    assert pairs == 800 - len(LENGTHS)


def test_the_shift_refuses_an_exponent_past_the_limit(monkeypatch):
    # the column x^(A e_3) of a3 raised to x_2^EXPONENT_LIMIT: the strings
    # before the first through 3 are swept, and that one is refused as
    # the product transfer * shift would be
    columns = stringchar.sweep._arrow_columns

    def broken(q):
        column = columns(q)
        column["3"] = _pack({"2": EXPONENT_LIMIT})
        return column

    monkeypatch.setattr(stringchar.sweep, "_arrow_columns", broken)
    q = load("a3")
    strings = enumerate_strings(q, 3)
    first = next(k for k, c in enumerate(strings) if "3" in c.vertices)
    swept = []
    with pytest.raises(ExponentOverflow, match="the product"):
        for s in sweep(q, 3):
            swept.append(s.string)
    assert swept == strings[:first]
