"""Quiver parsing, walks, string validation, string modules, principal
extensions, blow-ups, windings and string enumeration."""

import pytest

from stringchar import BoundIceQuiver, InputParseError, InvalidStringError, \
    QuiverError, Representation, Step, Walk, Winding, blow_up, \
    closure_and_border, enumerate_strings, ensure_string, is_valid_string, \
    principal_extension, pushforward, simple, string_module, validate_string
from stringchar.character import pp_character
from stringchar.quiver import StringViolation

from conftest import FIXTURES, caret_quiver, hand_built_quivers, load


# -- parsing ----------------------------------------------------------------

def test_parse_basic_quiver():
    q = load("a2ice")
    assert q.vertices == ("1", "2", "3")
    assert q.frozen == frozenset({"3"})
    assert q.arrow("alpha").source == "1"
    assert q.arrow("alpha").target == "2"
    assert set(q.arrows) == {"alpha", "beta", "gamma"}
    assert q.relations == (("alpha", "beta"), ("beta", "gamma"),
                           ("gamma", "alpha"))


def test_parse_comments_and_blank_lines():
    q = BoundIceQuiver.from_text("""
    # a comment
    vertex 1
    vertex 2 frozen  # trailing comment
    arrow a 1 -> 2
    """)
    assert q.vertices == ("1", "2")
    assert q.frozen == frozenset({"2"})


@pytest.mark.parametrize("text,fragment", [
    ("vertex", "vertex"),
    ("vertex 1 iced", "vertex"),
    ("arrow a 1 2", "arrow"),
    ("relation a", "relation"),
    ("frobnicate 1", "frobnicate"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(InputParseError) as info:
        BoundIceQuiver.from_text("vertex 0\n" + text)
    assert info.value.line == 2
    assert fragment in str(info.value)


def test_duplicate_vertex_id_is_named():
    with pytest.raises(QuiverError, match="duplicate vertex id '2'"):
        BoundIceQuiver(["1", "2", "3", "2"], [])
    with pytest.raises(InputParseError, match="duplicate vertex id '1'"):
        BoundIceQuiver.from_text("vertex 1\nvertex 1 frozen\n")
    # outputs name vertices by text, so 1 and "1" would print alike;
    # ids are strings, and the int is rejected before the two can meet
    with pytest.raises(QuiverError, match="vertex id 1 is not a string"):
        BoundIceQuiver([1, "1"], [("a", 1, "1")])


def test_ids_and_arrow_names_are_strings():
    with pytest.raises(QuiverError, match=r"vertex id \('1',\) is not a "):
        BoundIceQuiver(["0", ("1",)], [])
    with pytest.raises(QuiverError, match="arrow name 7 is not a string"):
        BoundIceQuiver(["1", "2"], [(7, "1", "2")])


def test_structural_invariants():
    with pytest.raises(QuiverError):
        BoundIceQuiver(["1", "1"], [])
    with pytest.raises(QuiverError):
        BoundIceQuiver(["1"], [("a", "1", "2")])
    with pytest.raises(QuiverError):
        BoundIceQuiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])
    with pytest.raises(QuiverError):
        BoundIceQuiver(["1", "2"], [("a", "1", "2")], frozen=["1", "2"])
    with pytest.raises(QuiverError):
        BoundIceQuiver(["1", "2"], [("a", "1", "2")], relations=[("a",)])
    with pytest.raises(QuiverError):
        # not composable: target of a is 2, source of a is 1
        BoundIceQuiver(["1", "2"], [("a", "1", "2")], relations=[("a", "a")])


def test_quiver_predicates():
    q = load("a2ice")
    assert not q.is_acyclic()
    assert not q.has_loops_or_two_cycles()
    assert q.unfrozen_vertices == ("1", "2")
    assert q.b_entry("1", "2") == 1
    assert q.b_entry("2", "1") == -1
    assert q.b_entry("3", "1") == 1
    assert q.b_entry("3", "2") == -1
    assert load("a3").is_acyclic()
    loop = BoundIceQuiver(["1"], [("a", "1", "1")])
    assert loop.has_loops_or_two_cycles()
    two_cycle = BoundIceQuiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    assert two_cycle.has_loops_or_two_cycles()


def test_full_subquiver_and_unfrozen_part():
    q = load("a2ice")
    sub = q.full_subquiver({"1", "2"})
    assert sub.vertices == ("1", "2")
    assert set(sub.arrows) == {"alpha"}
    assert sub.relations == ()
    assert q.unfrozen_part().vertices == ("1", "2")


@pytest.mark.parametrize("name", [
    "a^-1",  # with the arrow a, the step a backwards
    "e(1)",  # the trivial walk at vertex 1
    "e(x)",  # a trivial walk at no vertex
    "a b",   # two steps
    "",
])
def test_arrow_names_that_walk_syntax_reads_otherwise(name):
    with pytest.raises(QuiverError) as info:
        BoundIceQuiver(["1", "2", "3"], [("a", "1", "2"), (name, "3", "2")])
    assert str(info.value) == \
        f"arrow name {name!r} would be read as another walk"


@pytest.mark.parametrize("vertex", ["a b", " a", "a\t", "a\nb"])
def test_vertex_ids_that_walk_syntax_reads_otherwise(vertex):
    with pytest.raises(QuiverError) as info:
        BoundIceQuiver([vertex, "x)"], [("f", vertex, "x)")])
    assert str(info.value) == \
        f"vertex id {vertex!r} would be read as another walk"


# -- walks ------------------------------------------------------------------

def test_walk_parsing_and_structure():
    q = load("diamond5")
    c = Walk.parse(q, "delta^-1 beta gamma")
    assert c.vertices == ("3", "2", "4", "3")
    assert c.source == "3"
    assert c.target == "3"
    assert c.length == 3
    assert str(c) == "delta^-1 beta gamma"
    assert c.step_arrow(1) == "delta"
    assert c.step_arrow(0) is None
    assert c.step_arrow(4) is None
    assert c.inverse().vertices == ("3", "4", "2", "3")
    assert c.inverse().inverse() == c


def test_walks_read_back_from_their_text():
    for path in sorted(FIXTURES.glob("*.quiver")):
        q = load(path.stem)
        for c in enumerate_strings(q, 3):
            assert Walk.parse(q, str(c)) == c, (path.stem, c)


def test_trivial_walks_read_back_from_their_text():
    quivers = [load(path.stem) for path in sorted(FIXTURES.glob("*.quiver"))]
    quivers += hand_built_quivers() + [caret_quiver()]
    quivers.append(BoundIceQuiver(["x)", "e(1", "", "a^-1"],
                                  [("f", "x)", "e(1")]))
    for q in quivers:
        for v in q.vertices:
            e = Walk.trivial(q, v)
            assert Walk.parse(q, str(e)) == e, (q.vertices, v)


def test_trivial_walks():
    q = load("a2")
    e = Walk.parse(q, "e(1)")
    assert e.length == 0
    assert e.vertices == ("1",)
    assert str(e) == "e(1)"
    assert e.inverse() is e
    with pytest.raises(InputParseError):
        Walk.parse(q, "e(9)")


def test_walk_parse_errors():
    q = load("a2")
    with pytest.raises(InputParseError):
        Walk.parse(q, "")
    with pytest.raises(InputParseError):
        Walk.parse(q, "nosuch")
    with pytest.raises(InputParseError):
        # alpha then alpha is not composable (2 != 1)
        Walk.parse(q, "alpha alpha")
    with pytest.raises(QuiverError):
        Walk(q, (), at=None)
    with pytest.raises(QuiverError):
        Walk(q, (Step("alpha", True),), at="1")


@pytest.mark.parametrize("name, text, column", [
    ("a2", "nosuch", 1),
    # a later token found inside an earlier one is still placed after it
    ("a2", "alpha alph", 7),
    ("kronecker2", "al1 al1^-1 al1 l", 16),
    ("a2", "  alpha  alphx", 10),
    # the column of an unknown vertex counts the leading blanks
    ("a2", "e(9)", 3),
    ("a2", "   e(9)", 6),
    # a step that does not compose is placed at its own token, but an
    # unknown arrow anywhere is reported first
    ("a2", "alpha alpha", 7),
    ("kronecker2", "al1^-1  al2 al1", 13),
    ("a2", "alpha alpha nosuch", 13),
])
def test_walk_parse_errors_name_the_column(name, text, column):
    with pytest.raises(InputParseError) as info:
        Walk.parse(load(name), text)
    assert info.value.column == column


# -- string validation --------------------------------------------------------

def test_backtracking_is_not_a_string():
    q = load("diamond5")
    c = Walk(q, (Step("beta", True), Step("beta", False)))
    violation = validate_string(q, c)
    assert violation is not None
    assert violation.kind == "backtrack"
    assert violation.index == 1
    assert not is_valid_string(q, c)
    with pytest.raises(InvalidStringError):
        ensure_string(q, c)


def test_ensure_string_returns_the_walk_on_the_quiver():
    q = load("diamond5")
    c = Walk.parse(q, "delta^-1 beta gamma")
    assert ensure_string(q, c) is c
    for other in (load("diamond5"), q.full_subquiver(q.vertices)):
        for walk in (c, Walk.trivial(q, "3")):
            on = ensure_string(other, walk)
            assert on.quiver is other
            assert on == walk


def test_relation_windows_forward_and_inverted():
    q = load("a2ice")
    forward = Walk(q, (Step("alpha", True), Step("beta", True)))
    violation = validate_string(q, forward)
    assert violation.kind == "relation"
    assert violation.relation == ("alpha", "beta")
    inverted = Walk(q, (Step("beta", False), Step("alpha", False)))
    assert validate_string(q, inverted).kind == "relation"
    ok = Walk(q, (Step("gamma", True), Step("alpha", True)))
    # gamma then alpha spells the relation (gamma, alpha)
    assert validate_string(q, ok) is not None
    assert is_valid_string(q, Walk.parse(q, "alpha"))


# -- string modules -----------------------------------------------------------

def test_string_module_single_arrow():
    q = load("a2")
    m = string_module(q, Walk.parse(q, "alpha"))
    assert m.dims == {"1": 1, "2": 1}
    assert m.mats["alpha"] == [[1]]


def test_string_module_doublearrow():
    # walk through a vertex twice: dims count walk positions per vertex
    q = load("doublearrow4")
    c = Walk.parse(q, "gamma^-1 epsilon")
    m = string_module(q, c)
    assert m.dims == {"1": 0, "2": 1, "3": 2, "4": 0}
    assert m.mats["gamma"] != m.mats["epsilon"]
    assert m.satisfies_relations()


def test_string_module_respects_orientation():
    q = load("a3")
    c = Walk.parse(q, "alpha beta")
    m = string_module(q, c)
    assert m.dims == {"1": 1, "2": 1, "3": 1}
    assert m.mats["alpha"] == [[1]]
    assert m.mats["beta"] == [[1]]
    assert string_module(q, c.inverse()).dims == m.dims


def test_representation_checks():
    q = load("a2")
    with pytest.raises(QuiverError):
        Representation(q, {"1": -1})
    with pytest.raises(QuiverError, match="unknown vertex 'nosuch'"):
        Representation(q, {"nosuch": 2, "1": 1})
    with pytest.raises(QuiverError, match="unknown arrow 'bogus'"):
        Representation(q, {"1": 1}, {"bogus": [[1]]})
    with pytest.raises(QuiverError, match="vertex '1' is not an int"):
        Representation(q, {"1": 1.5})
    with pytest.raises(QuiverError):
        Representation(q, {"1": 1, "2": 1}, {"alpha": [[1, 2]]})
    m = simple(q, "1")
    assert m.dims == {"1": 1, "2": 0}
    assert m.support() == {"1"}
    assert m.total_dim() == 1
    ice = load("a2ice")
    with pytest.raises(QuiverError):
        # alpha then beta must compose to zero
        Representation(ice, {"1": 1, "2": 1, "3": 1},
                       {"alpha": [[1]], "beta": [[1]]})


def test_path_matrix_with_zero_dimensions():
    ice = load("a2ice")
    s = simple(ice, "1")
    product = s.path_matrix(("alpha", "beta"))
    assert product == []
    assert s.satisfies_relations()


# -- principal extension ------------------------------------------------------

def test_principal_extension():
    q = load("a3")
    ext = principal_extension(q)
    assert set(ext.vertices) == {"1", "2", "3", "1'", "2'", "3'"}
    assert ext.frozen == frozenset({"1'", "2'", "3'"})
    for v in ("1", "2", "3"):
        arrow = ext.arrow(f"{v}'")
        assert (arrow.source, arrow.target) == (f"{v}'", v)
    with pytest.raises(QuiverError):
        principal_extension(ext)


def test_principal_extension_names_a_clash():
    added = "the frozen vertex and arrow \"1'\" added for vertex '1' clash"
    vertex = BoundIceQuiver(["1", "1'"], [("a", "1", "1'")])
    with pytest.raises(QuiverError) as info:
        principal_extension(vertex)
    assert str(info.value) == \
        f"principal extension: {added} with the vertex \"1'\""
    arrow = BoundIceQuiver(["1", "2"], [("1'", "1", "2")])
    with pytest.raises(QuiverError) as info:
        pp_character(arrow, Walk.parse(arrow, "1'"))
    assert str(info.value) == \
        f"principal extension: {added} with the arrow \"1'\""


# -- closure and border -------------------------------------------------------

def test_closure_and_border():
    q = load("diamond5")
    m = string_module(q, Walk.parse(q, "e(1)"))
    closure, border = closure_and_border(q, m)
    assert set(closure.vertices) == {"1", "2"}
    assert border == frozenset({"2"})
    m2 = string_module(q, Walk.parse(q, "beta"))
    closure2, border2 = closure_and_border(q, m2)
    assert set(closure2.vertices) == {"1", "2", "3", "4"}
    assert border2 == frozenset({"1", "3"})


# -- windings and pushforward -------------------------------------------------

def test_winding_validation():
    q = load("a2")
    phi = Winding.identity(q)
    assert phi.vertex_preimages("1") == ["1"]
    assert phi.arrow_preimages("alpha") == ["alpha"]
    with pytest.raises(QuiverError):
        Winding(q, q, {"1": "9", "2": "2"}, {"alpha": "alpha"})
    with pytest.raises(QuiverError):
        Winding(q, q, {"1": "1", "2": "2"}, {"alpha": "nosuch"})
    # two arrows sharing a source and an image are rejected
    k = load("kronecker2")
    with pytest.raises(QuiverError):
        Winding(k, k, {"1": "1", "2": "2"},
                {"al1": "al1", "al2": "al1"})


def test_pushforward_of_identity_is_identity():
    q = load("a3")
    m = string_module(q, Walk.parse(q, "alpha beta"))
    pushed = pushforward(Winding.identity(q), m)
    assert pushed.dims == m.dims
    assert pushed.mats == m.mats


# -- blow-up -------------------------------------------------------------------

def test_blow_up_structure_doublearrow():
    q = load("doublearrow4")
    c = Walk.parse(q, "gamma^-1 epsilon")
    qtilde, phi, mtilde = blow_up(q, c)
    assert len(qtilde.vertices) == 8
    assert qtilde.is_blown_up()
    spine = qtilde.unfrozen_part()
    assert len(spine.vertices) == 3
    assert spine.is_acyclic()
    # the spine is a line: every vertex meets at most two spine arrows
    for v in spine.vertices:
        assert len(spine.arrows_from(v)) + len(spine.arrows_to(v)) <= 2
    assert mtilde.dims == {v: (0 if v in qtilde.frozen else 1)
                           for v in qtilde.vertices}


def test_blow_up_three_vertex_cycle():
    q = load("a2ice")
    qtilde, phi, mtilde = blow_up(q, Walk.parse(q, "alpha"))
    assert sorted(qtilde.vertices) == ["beta@v2", "gamma@v1", "v1", "v2"]
    assert qtilde.frozen == frozenset({"beta@v2", "gamma@v1"})
    assert phi.vertex_map == {"v1": "1", "v2": "2",
                              "gamma@v1": "3", "beta@v2": "3"}
    assert phi.vertex_preimages("3") == ["beta@v2", "gamma@v1"]


def test_blow_up_of_a_loop_has_distinct_pendants():
    # a loop at 1 with a zero square, and an arrow out of 1
    q = BoundIceQuiver(["1", "2"], [("a", "1", "1"), ("b", "1", "2")],
                       relations=[("a", "a")])
    qtilde, phi, _mtilde = blow_up(q, Walk.parse(q, "b"))
    assert qtilde.frozen == {"a@v1", "a@v1'"}
    assert {phi.vertex_map[v] for v in qtilde.frozen} == {"1"}


def test_blow_up_pendant_names_do_not_collide():
    q = caret_quiver()
    qtilde, phi, _mtilde = blow_up(q, Walk.parse(q, "e(u)"))
    assert qtilde.frozen == {"r@v1", "q^r@v1"}
    assert phi.vertex_map == {"v1": "u", "r@v1": "p^q", "q^r@v1": "p"}


def test_blow_up_pushforward_round_trip():
    q = load("diamond5")
    for c in enumerate_strings(q, 4):
        qtilde, phi, mtilde = blow_up(q, c)
        pushed = pushforward(phi, mtilde)
        m = string_module(q, c)
        assert all(pushed.dims[v] == m.dims[v] for v in pushed.dims)
        assert all(m.dims[v] == 0
                   for v in q.vertices if v not in pushed.dims)
        assert pushed.satisfies_relations()
        # matrix ranks agree arrow by arrow on the closure
        for name in pushed.quiver.arrows:
            from stringchar.exactmat import rank
            cols = len(pushed.mats[name][0]) if pushed.mats[name] else 0
            assert rank([list(col) for col in zip(*pushed.mats[name])],
                        len(pushed.mats[name])) == \
                rank([list(col) for col in zip(*m.mats[name])],
                     len(m.mats[name]))


def test_blow_up_rejects_non_strings():
    q = load("a2ice")
    bad = Walk(q, (Step("alpha", True), Step("beta", True)))
    with pytest.raises(InvalidStringError):
        blow_up(q, bad)


# -- enumeration ----------------------------------------------------------------

def test_enumerate_strings_counts():
    q = load("a2")
    strings = enumerate_strings(q, 2)
    # e(1), e(2), alpha, alpha^-1
    assert len(strings) == 4
    assert all(is_valid_string(q, c) for c in strings)
    ice = load("a2ice")
    assert len(enumerate_strings(ice, 3)) == 9
    assert len(enumerate_strings(ice, 3, unfrozen_only=True)) == 4


def _all_walks(q, max_length):
    """Every walk of length at most max_length, strings or not, in the
    order in which `enumerate_strings` builds its strings."""
    walks = [Walk.trivial(q, v) for v in q.vertices]
    frontier = walks
    for _ in range(max_length):
        frontier = [c.extend(Step(name, forward)) for c in frontier
                    for name, arrow in q.arrows.items()
                    for forward in (True, False)
                    if (arrow.source if forward else arrow.target) ==
                    c.target]
        walks = walks + frontier
    return walks


def _every_window_violations(q, c):
    """Every violation of the walk c, found by scanning every window of the
    whole walk: its backtracks by step, then, relation by relation, each
    window that spells the relation forward or inverted."""
    steps = c.steps
    found = [StringViolation("backtrack", i, (),
                             f"step {i} is immediately undone by step "
                             f"{i + 1}")
             for i in range(1, len(steps))
             if steps[i - 1].arrow == steps[i].arrow and
             steps[i - 1].forward != steps[i].forward]
    for rel in q.relations:
        k = len(rel)
        for i in range(len(steps) - k + 1):
            window = steps[i:i + k]
            names = tuple(s.arrow for s in window)
            span = f"steps {i + 1}..{i + k} spell"
            if all(s.forward for s in window) and names == rel:
                found.append(StringViolation(
                    "relation", i + 1, rel,
                    f"{span} the relation {' '.join(rel)}"))
            elif not any(s.forward for s in window) and names[::-1] == rel:
                found.append(StringViolation(
                    "relation", i + 1, rel,
                    f"{span} the inverse of the relation {' '.join(rel)}"))
    return found


def _last_step(violation):
    """The 1-based step at which the window of a violation ends."""
    return violation.index + max(len(violation.relation) - 1, 1)


TWO_CYCLE = BoundIceQuiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")],
                           relations=[("a", "b")])


@pytest.mark.parametrize("q", [load("a3dec"), load("a4dec"), load("dcyclic3"),
                               load("dcyclic4"), load("dcyclic5"), TWO_CYCLE],
                         ids=["a3dec", "a4dec", "dcyclic3", "dcyclic4",
                              "dcyclic5", "two-cycle"])
def test_extension_check_reads_only_the_last_windows(q):
    """validate_string, the fold of the extension check, against the scan
    of every window: the same verdict on every walk, and the violation
    reported is the scan's violation that ends first (a backtrack before a
    relation, relations in declaration order, when two end together)."""
    walks = _all_walks(q, 5)
    kinds = set()
    for c in walks:
        found = _every_window_violations(q, c)
        violation = validate_string(q, c)
        assert violation == (min(found, key=_last_step) if found else None), c
        kinds.add(violation and violation.kind)
    assert kinds == ({None, "backtrack", "relation"} if q.relations
                     else {None, "backtrack"})
    strings = [c for c in walks if is_valid_string(q, c)]
    assert enumerate_strings(q, 5) == strings
    assert len(strings) < len(walks)


def test_the_first_violation_along_the_walk_is_reported():
    q = load("a2ice")
    c = Walk.parse(q, "alpha beta beta^-1")
    # the whole-walk scan reports the backtrack, which ends later
    assert [str(v) for v in _every_window_violations(q, c)] == [
        "step 2 is immediately undone by step 3",
        "steps 1..2 spell the relation alpha beta"]
    with pytest.raises(InvalidStringError) as info:
        ensure_string(q, c)
    assert info.value.violation == StringViolation(
        "relation", 1, ("alpha", "beta"),
        "steps 1..2 spell the relation alpha beta")


def test_extend_checks_the_junction():
    q = load("diamond5")
    c = Walk.parse(q, "alpha")
    assert c.extend(Step("delta", True)) == Walk.parse(q, "alpha delta")
    backtrack = c.extend(Step("alpha", False))
    assert backtrack == Walk(q, (Step("alpha", True), Step("alpha", False)))
    assert backtrack.vertices == ("1", "2", "1")
    with pytest.raises(QuiverError) as extended:
        c.extend(Step("gamma", True))
    with pytest.raises(QuiverError) as built:
        Walk(q, (Step("alpha", True), Step("gamma", True)))
    assert str(extended.value) == str(built.value)


def test_enumerate_strings_is_deterministic():
    q = load("diamond5")
    first = [str(c) for c in enumerate_strings(q, 3)]
    second = [str(c) for c in enumerate_strings(q, 3)]
    assert first == second
    assert len(first) == len(set(first))
