"""Matrix-product Laurent polynomials, friezes, counts and the
exchange-style identity checks."""

import pytest

from stringchar import BoundIceQuiver, LaurentPoly, Mat2, QuiverError, \
    Walk, check_identity, coefficient_monomial, enumerate_strings, \
    frieze_entry, pp_character, principal_extension, step_matrix, \
    string_module, vertex_matrix, w_monomial, walk_count, walk_denominator, \
    walk_laurent, walk_matrix, walk_numerator
from stringchar.character import _weights
from stringchar.formula import _step_monomials
from stringchar.quiver import Step

from conftest import FIXTURES, caret_quiver, hand_built_quivers, load
from oracles import numerator_normalisation


def var(v, power=1):
    return LaurentPoly.var(v, power)


# -- step and vertex matrices --------------------------------------------------

def test_step_matrix():
    q = load("a2")
    forward = step_matrix(q, Step("alpha", True))
    assert forward == Mat2(var("2"), 0, 1, var("1"))
    backward = step_matrix(q, Step("alpha", False))
    assert backward == Mat2(var("2"), 1, 0, var("1"))


def test_vertex_matrix_excludes_adjacent_steps():
    q = load("diamond5")
    c = Walk.parse(q, "delta^-1 beta gamma")
    # at the first walk vertex (3), delta is excluded; gamma in, epsilon out
    assert vertex_matrix(q, c, 1) == Mat2.diagonal(var("5"), var("4"))
    # at the last walk vertex (3), gamma is excluded; delta in, epsilon out
    assert vertex_matrix(q, c, 4) == Mat2.diagonal(var("5"), var("2"))
    # at the second walk vertex (2), delta and beta are excluded; alpha in
    assert vertex_matrix(q, c, 2) == Mat2.diagonal(LaurentPoly.one(),
                                                   var("1"))
    with pytest.raises(QuiverError):
        vertex_matrix(q, c, 0)
    with pytest.raises(QuiverError):
        vertex_matrix(q, c, 5)


def test_vertex_matrix_isolated_vertex():
    q = load("a2")
    c = Walk.parse(q, "e(2)")
    # only alpha is incident to 2, so the bottom entry is x_1
    assert vertex_matrix(q, c, 1) == Mat2.diagonal(LaurentPoly.one(),
                                                   var("1"))
    isolated = load("a3").full_subquiver({"1"})
    e = Walk.parse(isolated, "e(1)")
    assert vertex_matrix(isolated, e, 1) == Mat2.identity()


# -- walk polynomials ------------------------------------------------------------

def test_walk_laurent_trivial_walks():
    q = load("a2ice")
    assert walk_laurent(q, Walk.parse(q, "e(1)")) == \
        (var("2") + var("3")) * var("1", -1)
    assert walk_laurent(q, Walk.parse(q, "e(2)")) == \
        (var("1") + var("3")) * var("2", -1)


def test_walk_denominator_counts_revisits():
    q = load("doublearrow4")
    c = Walk.parse(q, "gamma^-1 epsilon")
    assert walk_denominator(q, c) == {"3": 2, "2": 1}


def test_walk_laurent_is_inversion_invariant():
    q = load("diamond5")
    for c in enumerate_strings(q, 4):
        assert walk_laurent(q, c) == walk_laurent(q, c.inverse())


def test_walk_laurent_positive():
    for name in ("diamond5", "a2ice", "dcyclic3"):
        q = load(name)
        for c in enumerate_strings(q, 4):
            f = walk_laurent(q, c)
            assert f.is_nonnegative()
            assert not f.is_zero()


def _oracle_walks():
    """(quiver, walk) pairs for the row-vector oracle: every fixture string
    of length <= 5, walks `lpoly` takes that are not strings, walks through
    a loop, the caret quiver's walks, and walks past an arrow named as
    the vertex it leaves."""
    for path in sorted(FIXTURES.glob("*.quiver")):
        q = BoundIceQuiver.from_file(path)
        for c in enumerate_strings(q, 5):
            yield q, c
    for name, text in (("kronecker3", "al1 al1^-1"),
                       ("kronecker3", "al1^-1 al2 al3^-1 al1"),
                       ("a11", "alpha alpha^-1")):
        q = load(name)
        yield q, Walk.parse(q, text)
    loop = BoundIceQuiver(["1", "2"], [("a", "1", "1"), ("b", "1", "2")],
                          relations=[("a", "a")])
    caret = caret_quiver()
    shared = BoundIceQuiver(["a", "b", "c"], [("a", "a", "b"),
                                              ("b", "b", "c"),
                                              ("c", "a", "c")])
    for q, texts in ((loop, ("e(1)", "a", "a^-1", "a b", "b^-1 a",
                             "a^-1 b", "a a", "b^-1 a b")),
                     (caret, ("e(u)", "e(p^q)", "r", "r^-1 q^r",
                              "q^r^-1 r")),
                     (shared, ("e(a)", "c", "b^-1 a^-1 c", "c^-1 a"))):
        for text in texts:
            yield q, Walk.parse(q, text)


def _vertex_matrix_by_definition(q, c, i):
    """V_c(i) as products of variables, written apart from the exclusion
    helper that the row vector and `vertex_matrix` share."""
    used = {c.step_arrow(i - 1), c.step_arrow(i)}
    v = c.vertices[i - 1]
    top = bottom = LaurentPoly.one()
    for arrow in q.arrows_from(v):
        if arrow.name not in used:
            top = top * var(arrow.target)
    for arrow in q.arrows_to(v):
        if arrow.name not in used:
            bottom = bottom * var(arrow.source)
    return Mat2.diagonal(top, bottom)


def test_row_vector_matches_the_matrix_product():
    count = 0
    for q, c in _oracle_walks():
        for i in range(1, c.length + 2):
            assert vertex_matrix(q, c, i) == \
                _vertex_matrix_by_definition(q, c, i), (c, i)
        bracket = walk_matrix(q, c).bracket()
        assert walk_numerator(q, c) == bracket, c
        ones = dict.fromkeys(q.vertices, LaurentPoly.one())
        assert LaurentPoly.const(walk_count(c)) == \
            bracket.substitute(ones), c
        denominator = {v: -e for v, e in walk_denominator(q, c).items()}
        assert walk_laurent(q, c) == \
            bracket * LaurentPoly.monomial(1, denominator), c
        count += 1
    assert count > 1000


def test_a_step_on_a_plain_arrow_is_a_transfer_step_times_a_monomial():
    """On an arrow that is neither a loop nor repeated, a walk step's
    monomials are (T, T, B) forward and (T, B, B) inverse, T and B the
    products over every arrow out of and into the end vertex, so its sum
    is one product.  As T = B w with w the character's weight there, such
    a step is B times `transfer_step` on (inn, out); a loop's step is not
    of this form."""
    quivers = [BoundIceQuiver.from_file(path)
               for path in sorted(FIXTURES.glob("*.quiver"))]
    checked = 0
    for q in quivers + hand_built_quivers() + [caret_quiver()]:
        weight = _weights(q)
        for arrow in q.arrows.values():
            if arrow.source == arrow.target:
                continue
            for forward in (True, False):
                end = arrow.target if forward else arrow.source
                top, bottom = _full_monomials(q, end)
                assert top == bottom * weight[end]
                assert _step_monomials(q, Step(arrow.name, forward), False) \
                    == ((top, top, bottom, True) if forward
                        else (top, bottom, bottom, True)), (arrow, forward)
                checked += 1
    assert checked == 200
    loop = BoundIceQuiver(["1", "2"], [("a", "1", "1"), ("b", "1", "2")])
    top, bottom = _full_monomials(loop, "1")
    assert _step_monomials(loop, Step("a", True), False)[:3] != \
        (top, top, bottom)
    assert _step_monomials(loop, Step("a", False), False)[:3] != \
        (top, bottom, bottom)
    # a loop's sums are two products each: its monomials differ
    for forward in (True, False):
        for repeats in (True, False):
            assert not _step_monomials(loop, Step("a", forward), repeats)[3]


def _full_monomials(q, v):
    full = _vertex_matrix_by_definition(q, Walk.trivial(q, v), 1)
    return full.a, full.d


def test_walk_matrix_determinant_is_a_monomial():
    # every factor of the product has monomial determinant
    q = load("diamond5")
    for c in enumerate_strings(q, 4):
        det = walk_matrix(q, c).det()
        assert len(det.terms) == 1


def test_numerator_normalisation():
    q = load("a2ice")
    eta = numerator_normalisation(q, Walk.parse(q, "alpha"))
    assert eta == {"3": 1}
    assert numerator_normalisation(q, Walk.parse(q, "e(1)")) == {}


def test_specialising_at_one_gives_the_count():
    q = load("diamond5")
    for c in enumerate_strings(q, 4):
        ones = {v: LaurentPoly.one() for v in q.vertices}
        assert walk_numerator(q, c).substitute(ones) == \
            LaurentPoly.const(walk_count(c))


# -- counts -----------------------------------------------------------------------

def test_walk_count_values():
    a2 = load("a2")
    assert walk_count(Walk.parse(a2, "e(1)")) == 2
    assert walk_count(Walk.parse(a2, "alpha")) == 3
    k2 = load("kronecker2")
    assert walk_count(Walk.parse(k2, "al1^-1 al2")) == 5


# -- friezes ------------------------------------------------------------------------

def test_frieze_entry_requires_three_entries():
    with pytest.raises(QuiverError):
        frieze_entry([("a", "left"), ("b", "left")])
    with pytest.raises(QuiverError):
        frieze_entry([("a", "left"), ("b", "left"), ("c", "up"),
                      ("d", "left")])


def test_frieze_entry_short_word():
    # for a three-entry word the matrix product is empty
    t = frieze_entry([("a", "left"), ("b", "left"), ("c", "left")])
    assert t == (var("a") * var("c") + 1) * var("b", -1)


def test_frieze_entry_matches_walk_laurent_worked_word():
    q = load("a11")
    word = [("2", "below"), ("3", "below"), ("4", "left"),
            ("5", "below"), ("6", "left"), ("7", "below")]
    c = Walk.parse(q, "gamma^-1 delta epsilon^-1")
    assert frieze_entry(word) == walk_laurent(q, c)


def _frieze_word_for(q, c):
    """Frieze word of a string whose boundary arrows point into its ends.

    The word runs over the neighbour before the source, the walk vertices
    and the neighbour after the target; each position records where the
    preceding variable sits relative to the current one."""
    def other_end(arrow, v):
        return arrow.target if arrow.source == v else arrow.source
    first = [a for a in q.arrows_to(c.source)
             if a.name != c.step_arrow(1)]
    last = [a for a in q.arrows_to(c.target)
            if a.name != c.step_arrow(c.length)]
    if len(first) != 1 or len(last) != 1:
        return None
    if any(a.name != c.step_arrow(1) for a in q.arrows_from(c.source)) or \
            any(a.name != c.step_arrow(c.length)
                for a in q.arrows_from(c.target)):
        return None
    entries = [(other_end(first[0], c.source), "left"), (c.source, "left")]
    for i, step in enumerate(c.steps, start=1):
        entries.append((c.vertices[i],
                        "below" if step.forward else "left"))
    entries.append((other_end(last[0], c.target),
                    "left" if c.steps[-1].forward else "below"))
    return entries


def test_frieze_entries_match_walk_laurent_on_a_line():
    q = load("a11")
    checked = 0
    for c in enumerate_strings(q, 6):
        if c.length == 0:
            continue
        word = _frieze_word_for(q, c)
        if word is None:
            continue
        assert frieze_entry(word) == walk_laurent(q, c), str(c)
        checked += 1
    assert checked >= 10


# -- coefficient monomials ------------------------------------------------------------

def test_coefficient_monomials():
    q = load("a2ice")
    assert coefficient_monomial(q, "1", "y") == var("3")
    assert coefficient_monomial(q, "1", "z") == LaurentPoly.one()
    assert coefficient_monomial(q, "2", "y") == LaurentPoly.one()
    assert coefficient_monomial(q, "2", "z") == var("3")
    assert w_monomial(q, "1") == var("3")
    assert w_monomial(q, "2") == var("3", -1)
    with pytest.raises(ValueError):
        coefficient_monomial(q, "1", "w")


# -- identity checks --------------------------------------------------------------------

def test_identity_projective_with_coefficients():
    q = load("a2dec")
    chars = {"1": walk_laurent(q, Walk.parse(q, "a1")),
             "2": walk_laurent(q, Walk.parse(q, "e(2)"))}
    assert check_identity("L4.2a", q, i="1", chars=chars,
                          dims={"1": 1, "2": 1})
    assert check_identity("L4.2a", q, i="2", chars=chars, dims={"2": 1})


def test_identity_almost_split_with_coefficients():
    q = load("a2dec")
    s1 = walk_laurent(q, Walk.parse(q, "e(1)"))
    s2 = walk_laurent(q, Walk.parse(q, "e(2)"))
    p1 = walk_laurent(q, Walk.parse(q, "a1"))
    assert check_identity("L4.2b", q, tau_m=s2, mid=p1, m=s1,
                          dim_tau_m={"2": 1}, dim_m={"1": 1})


def test_identity_projective_principal():
    q = load("a2")
    ext = principal_extension(q)
    chars = {"1": pp_character(q, Walk.parse(q, "alpha")),
             "2": pp_character(q, Walk.parse(q, "e(2)"))}
    assert check_identity("L4.3", ext, i="1", chars=chars)
    assert check_identity("L4.3", ext, i="2", chars=chars)


def test_identity_almost_split_principal():
    q = load("a2")
    ext = principal_extension(q)
    xs1 = pp_character(q, Walk.parse(q, "e(1)"))
    xs2 = pp_character(q, Walk.parse(q, "e(2)"))
    xp1 = pp_character(q, Walk.parse(q, "alpha"))
    assert check_identity("L4.4", ext, tau_m=xs2, mid=xp1, m=xs1,
                          dim_tau_m={"2": 1})


def test_identity_check_rejects_bad_input():
    q = load("a2dec")
    with pytest.raises(ValueError):
        check_identity("nonsense", q)
    with pytest.raises(QuiverError):
        check_identity("L4.2a", q, i="y1", chars={}, dims={})


def test_identity_check_detects_failure():
    q = load("a2dec")
    wrong = {"1": LaurentPoly.one(), "2": LaurentPoly.one()}
    assert not check_identity("L4.2a", q, i="1", chars=wrong,
                              dims={"1": 1, "2": 1})
