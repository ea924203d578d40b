"""String diagrams, Grassmannian submodule counts, cluster characters,
principal-coefficient characters and separation."""

import collections
import random

import pytest

from stringchar import BoundIceQuiver, K0IllDefined, LaurentPoly, \
    NotSubtractionFree, PathLimitExceeded, QuiverError, StringCharError, \
    StringDiagram, UnfrozenViolation, Walk, cluster_character, \
    ensure_string, enumerate_strings, gr_euler, normalisation_vector, \
    pp_character, pp_variable_map, principal_extension, separate, \
    simple_pairings, total_gr_euler, w_monomial, walk_laurent

from conftest import FIXTURES, load
from oracles import hereditary_euler


def var(v, power=1):
    return LaurentPoly.var(v, power)


# -- string diagrams and submodule counts --------------------------------------

def test_string_diagram_edges_follow_orientation():
    q = load("diamond5")
    c = Walk.parse(q, "delta^-1 beta gamma")
    diagram = StringDiagram(c)
    assert diagram.labels == ("3", "2", "4", "3")
    assert diagram.edges == [(2, 1), (2, 3), (3, 4)]


def _closed_subsets(diagram):
    """Oracle: every successor-closed position subset, by scanning all
    2^(n+1) position masks."""
    n = len(diagram.labels)
    for mask in range(1 << n):
        if all(not (mask >> (p - 1)) & 1 or (mask >> (q - 1)) & 1
               for p, q in diagram.edges):
            yield [i + 1 for i in range(n) if (mask >> i) & 1]


def _mask_counts(diagram):
    counts = {}
    for subset in _closed_subsets(diagram):
        dims = {}
        for p in subset:
            v = diagram.labels[p - 1]
            dims[v] = dims.get(v, 0) + 1
        key = tuple(sorted(dims.items()))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _weighted_counts(counts, weight):
    """Oracle: the sum over the dimension vectors e of counts[e] times the
    product over v of weight[v]^e_v, each weight a (coeff, exponents)
    monomial."""
    total = LaurentPoly.zero()
    for key, count in counts.items():
        exps = collections.Counter()
        for v, d in key:
            coeff, v_exps = weight[v]
            count *= coeff ** d
            for u, k in v_exps.items():
                exps[u] += d * k
        total = total + LaurentPoly.monomial(count, exps)
    return total


def test_closed_subsets_of_a_single_arrow():
    q = load("a2")
    diagram = StringDiagram(Walk.parse(q, "alpha"))
    subsets = list(_closed_subsets(diagram))
    assert sorted(map(tuple, subsets)) == [(), (1, 2), (2,)]
    assert diagram.submodule_counts() == \
        {(): 1, (("2", 1),): 1, (("1", 1), ("2", 1)): 1}


def test_submodule_counts_match_the_mask_oracle():
    # the label variables, and seeded random monomials as weights; chi is
    # the transfer product at weight 1, and a coefficient of it in the label
    # variables, checked at every dimension vector (and at one that does not
    # occur) on the strings of length at most 4
    rng = random.Random(8)
    for path in sorted(FIXTURES.glob("*.quiver")):
        q = load(path.stem)
        weight = {v: (rng.randint(1, 3),
                      {u: rng.randint(-2, 2) for u in q.vertices})
                  for v in q.vertices}
        monomials = {v: LaurentPoly.monomial(*w) for v, w in weight.items()}
        for c in enumerate_strings(q, 7):
            diagram = StringDiagram(c)
            counts = _mask_counts(diagram)
            assert diagram.submodule_counts() == counts, f"{path.stem}: {c}"
            assert diagram.transfer(monomials) == \
                _weighted_counts(counts, weight), f"{path.stem}: {c}"
            total = total_gr_euler(c)
            assert type(total) is int
            assert total == sum(counts.values()), f"{path.stem}: {c}"
            if c.length > 4:
                continue
            for key, count in counts.items():
                assert gr_euler(c, dict(key)) == count, f"{path.stem}: {c}"
            absent = {c.source: len(c.vertices) + 1}
            assert gr_euler(c, absent) == 0, f"{path.stem}: {c}"


def test_gr_euler_values():
    q = load("a2")
    c = Walk.parse(q, "alpha")
    assert gr_euler(c, {}) == 1
    assert gr_euler(c, {"2": 1}) == 1
    assert gr_euler(c, {"1": 1}) == 0
    assert gr_euler(c, {"1": 1, "2": 1}) == 1
    assert total_gr_euler(c) == 3


def test_gr_euler_doublearrow():
    q = load("doublearrow4")
    c = Walk.parse(q, "gamma^-1 epsilon")
    assert gr_euler(c, {"3": 1}) == 2
    assert gr_euler(c, {"3": 2}) == 1
    assert gr_euler(c, {"2": 1, "3": 1}) == 0
    assert total_gr_euler(c) == 5


# -- cluster characters -----------------------------------------------------------

def test_cluster_character_three_vertex_cycle():
    q = load("a2ice")
    x1, x2, x3 = var("1"), var("2"), var("3")
    assert cluster_character(q, Walk.parse(q, "e(1)")) == \
        (x2 + x3) * x1 ** -1
    assert cluster_character(q, Walk.parse(q, "e(2)")) == \
        (x1 + x3) * x2 ** -1
    assert cluster_character(q, Walk.parse(q, "alpha")) == \
        (x1 + x2 + x3) * (x1 * x2) ** -1


def test_cluster_character_rejects_frozen_support():
    q = load("a2ice")
    with pytest.raises(UnfrozenViolation):
        cluster_character(q, Walk.parse(q, "beta"))
    with pytest.raises(UnfrozenViolation):
        cluster_character(q, Walk.parse(q, "e(3)"))


def test_cluster_character_rejects_two_cycles():
    q = BoundIceQuiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")],
                       relations=[("a", "b"), ("b", "a")])
    with pytest.raises(QuiverError):
        cluster_character(q, Walk.parse(q, "e(1)"))


def test_cluster_character_names_the_loop_or_two_cycle():
    faults = {
        "arrow 'c' is a loop at '2'":
            [("a", "1", "2"), ("c", "2", "2"), ("b", "2", "1")],
        "arrows 'a' and 'b' form a 2-cycle between '1' and '2'":
            [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "2")]}
    for fault, arrows in faults.items():
        q = BoundIceQuiver(["1", "2"], arrows)
        with pytest.raises(QuiverError) as info:
            cluster_character(q, Walk.parse(q, "e(1)"))
        assert str(info.value) == "cluster characters need a loop- and " \
            f"2-cycle-free quiver: {fault}"


def test_main_identity_on_small_strings():
    for name in ("a2ice", "dcyclic3"):
        q = load(name)
        for c in enumerate_strings(q, 4, unfrozen_only=True):
            x_char = cluster_character(q, c)
            vector = normalisation_vector(q, c)
            assert x_char * LaurentPoly.monomial(1, vector) == \
                walk_laurent(q, c), str(c)


def test_cluster_character_positive():
    q = load("dcyclic4")
    for c in enumerate_strings(q, 4, unfrozen_only=True):
        f = cluster_character(q, c)
        assert f.is_nonnegative()
        assert not f.is_zero()


# -- principal coefficients ----------------------------------------------------------

def test_pp_character_values():
    q = load("a2")
    x1, x2, y1, y2 = var("1"), var("2"), var("1'"), var("2'")
    assert pp_character(q, Walk.parse(q, "e(1)")) == \
        (x2 + y1) * x1 ** -1
    assert pp_character(q, Walk.parse(q, "alpha")) == \
        (x2 + y1 + y1 * y2 * x1) * (x1 * x2) ** -1


def test_pp_character_requires_plain_acyclic_quiver():
    with pytest.raises(QuiverError):
        pp_character(load("a2ice"), Walk.parse(load("a2ice"), "e(1)"))
    dec = load("a2dec")
    with pytest.raises(QuiverError):
        pp_character(dec, Walk.parse(dec, "e(1)"))


def test_pp_character_equals_extension_character():
    for name in ("a2", "a3", "kronecker2"):
        q = load(name)
        ext = principal_extension(q)
        for c in enumerate_strings(q, 6):
            assert pp_character(q, c) == \
                cluster_character(ext, c.on(ext)), str(c)


# -- the per-term oracle of both characters --------------------------------------

def _per_term(c, exponents):
    """Oracle: the sum of count * x^exponents(e) over the submodule
    dimension vectors e of the string module of c, from the mask scan."""
    result = LaurentPoly.zero()
    for key, count in _mask_counts(StringDiagram(c)).items():
        result = result + LaurentPoly.monomial(count, exponents(dict(key)))
    return result


def _per_term_character(q, c):
    """Oracle: the cluster character with the exponents of each submodule
    computed on their own, the pairings between simples read off a b_entry
    table.  It raises the errors of `cluster_character`, in its order."""
    if q.has_loops_or_two_cycles():
        raise QuiverError("a loop or a 2-cycle")
    ensure_string(q, c)
    c = c.on(q)
    dims = collections.Counter(c.vertices)
    if dims.keys() & q.frozen:
        raise UnfrozenViolation("frozen support")
    anti = {(i, j): -q.b_entry(i, j) for i in q.vertices for j in q.vertices}
    pair_m, back = simple_pairings(q, c)
    for i in q.vertices:
        if pair_m[i] - back[i] != sum(d * anti[i, j]
                                      for j, d in dims.items()):
            raise K0IllDefined(f"simple at {i!r}")
    return _per_term(c, lambda e: {
        i: sum(d * anti[i, j] for j, d in e.items()) - pair_m[i]
        for i in q.vertices})


def _per_term_pp(q, euler, c):
    """Oracle: the principal-coefficient character with the exponents of
    each submodule e taken from the hereditary Euler form, bilinear with
    the values `euler` on simples: -<e, S_i> - <S_i, dim M - e> at x_i,
    and the rest at x_i'."""
    dims = collections.Counter(c.vertices)

    def exponents(e):
        rest = {v: dims[v] - e.get(v, 0) for v in q.vertices}
        exps = {}
        for i in q.vertices:
            exps[i] = -sum(e.get(j, 0) * euler[j, i] + euler[i, j] * rest[j]
                           for j in q.vertices)
            if rest[i]:
                exps[f"{i}'"] = rest[i]
        return exps

    return _per_term(c, exponents)


def _outcome(character, q, c):
    """The character, or the error type with the vertex a K0IllDefined
    names."""
    try:
        return character(q, c)
    except K0IllDefined as exc:
        return K0IllDefined, str(exc).split("simple at ")[1].split()[0]
    except StringCharError as exc:
        return type(exc)


def test_cluster_character_matches_the_per_term_oracle():
    a3 = [("a", "1", "2"), ("b", "2", "3")]
    quivers = [load(path.stem) for path in sorted(FIXTURES.glob("*.quiver"))]
    quivers += [
        # K0IllDefined at 3
        BoundIceQuiver(["1", "2", "3"], a3, relations=[("a", "b")]),
        # an infinite-dimensional path algebra
        BoundIceQuiver(["1", "2", "3"], a3 + [("c", "3", "1")]),
        # a 2-cycle
        BoundIceQuiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")],
                       relations=[("a", "b"), ("b", "a")]),
        # frozen neighbours on both sides
        BoundIceQuiver(["0", "1", "2", "3"],
                       a3 + [("f", "0", "1"), ("g", "3", "0"),
                             ("h", "0", "2")],
                       frozen=["0"], relations=[("f", "a"), ("b", "g")]),
    ]
    for q in quivers:
        for c in enumerate_strings(q, 5):
            assert _outcome(cluster_character, q, c) == \
                _outcome(_per_term_character, q, c), str(c)


def test_pp_character_matches_the_per_term_oracle():
    for path in sorted(FIXTURES.glob("*.quiver")):
        q = load(path.stem)
        if q.relations or q.frozen or not q.is_acyclic():
            continue
        euler = {(i, j): hereditary_euler(q, {i: 1}, {j: 1})
                 for i in q.vertices for j in q.vertices}
        for c in enumerate_strings(q, 6):
            assert pp_character(q, c) == _per_term_pp(q, euler, c), \
                f"{path.stem}: {c}"


# -- separation -------------------------------------------------------------------------

def test_separate_basic():
    x, y, t = var("x"), var("y"), var("t")
    f = x + y
    assert separate(f, {"y": t ** -1}) == x * t + 1
    assert separate(f, {"y": {"t": -1}}) == x * t + 1
    assert separate(x, {}) == x


def test_separate_rejects_bad_input():
    x, y = var("x"), var("y")
    with pytest.raises(NotSubtractionFree):
        separate(x - y, {"y": var("t")})
    with pytest.raises(NotSubtractionFree):
        separate(x + y, {"y": 2 * var("t")})
    with pytest.raises(NotSubtractionFree):
        separate(x + y, {"y": var("t") + 1})


def test_pp_variable_map():
    ice = load("a2ice")
    plain = ice.unfrozen_part()
    w = pp_variable_map(ice, plain)
    assert w["1'"] == var("3")
    assert w["2'"] == var("3", -1)
    assert w["1'"] == w_monomial(ice, "1")


def test_separation_recovers_the_coefficient_character():
    ice = load("a2ice")
    plain = ice.unfrozen_part()
    w = pp_variable_map(ice, plain)
    for text in ("e(1)", "e(2)", "alpha"):
        f = pp_character(plain, Walk.parse(plain, text))
        target = cluster_character(ice, Walk.parse(ice, text))
        assert separate(f, w) == target


# -- guards -----------------------------------------------------------------------------

def test_infinite_dimensional_algebras_are_rejected():
    q = BoundIceQuiver(["1", "2", "3"],
                       [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    with pytest.raises(PathLimitExceeded):
        cluster_character(q, Walk.parse(q, "e(1)"))


def test_long_relation_on_a_cycle_is_finite():
    relation = [("a", "b", "c")[k % 3] for k in range(40)]
    q = BoundIceQuiver(["1", "2", "3"],
                       [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")],
                       relations=[relation])
    c = Walk.parse(q, "a")
    vector = normalisation_vector(q, c)
    assert cluster_character(q, c) * LaurentPoly.monomial(1, vector) == \
        walk_laurent(q, c)


def test_k0_ill_defined_names_the_vertex():
    # a b = 0 makes the module of the string a projective, and its pairing
    # with S_3 does not descend to the dimension vector S_1 + S_2
    q = BoundIceQuiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")],
                       relations=[("a", "b")])
    with pytest.raises(K0IllDefined, match="simple at '3'"):
        cluster_character(q, Walk.parse(q, "a"))
