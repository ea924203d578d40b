"""Hom and Ext computations, Euler forms, rigidity and normalising
vectors over monomial bound quiver algebras."""

import gc
import random
import re
import weakref
from fractions import Fraction

import pytest

from stringchar import BoundIceQuiver, K0IllDefined, PathBasis, \
    PathLimitExceeded, QuiverError, Representation, Walk, blow_up, \
    enumerate_strings, euler_forms, exactmat, ext1_dim, hom_dim, is_rigid, \
    normalisation_vector, simple, simple_pairings, string_module
from stringchar.character import _check_descent
from stringchar.homalg import _require_finite, _string_pass, euler_form, \
    projective_cover_data

from conftest import FIXTURES, caret_quiver, hand_built_quivers, load
from oracles import direct_sum, hereditary_euler, numerator_normalisation, \
    projective, vertex_preimages


def fixture_quivers():
    return [BoundIceQuiver.from_file(path)
            for path in sorted(FIXTURES.glob("*.quiver"))]


# -- exact matrices ----------------------------------------------------------

def test_rref_divides_exactly_on_int_input():
    assert exactmat.rref([[3, 1]]) == ([[1, Fraction(1, 3)]], [0])
    # 49 * (1/49) is not 1 in floats, so a float elimination leaves a
    # second pivot of about 1e-16 here
    rows, pivots = exactmat.rref([[49, 1], [49, 1]])
    assert (rows, pivots) == ([[1, Fraction(1, 49)], [0, 0]], [0])
    assert exactmat.rank([[49, 1], [49, 1]]) == 1
    for m in ([[3, 1]], [[49, 1], [49, 1]], [[2, 1, 0], [1, 3, 7]]):
        assert not any(isinstance(x, float)
                       for row in exactmat.rref(m)[0] for x in row), m


def test_products_keep_int_entries():
    a = [[1, 2], [3, 4]]
    product, image = exactmat.mat_mul(a, a), exactmat.mat_vec(a, [1, -1])
    assert product == [[7, 10], [15, 22]] and image == [-1, -1]
    # a 2x0 times a 0x3 matrix is the 2x3 zero matrix
    empty = exactmat.mat_mul([[], []], [], 3)
    assert empty == [[0, 0, 0], [0, 0, 0]]
    q = load("a2ice")
    m = string_module(q, Walk.parse(q, "alpha"))
    cover, proj = projective_cover_data(q, m)
    matrices = [product, [image], empty, exactmat.zeros(2, 3),
                *m.mats.values(), *cover.mats.values(), *proj.values()]
    for matrix in matrices:
        assert all(type(x) is int for row in matrix for x in row), matrix


# -- the projective-presentation oracle for Ext^1 ----------------------------

def _nullspace(m, cols):
    """Basis of {v : m v = 0} as a list of column vectors (length cols)."""
    rows, pivots = exactmat.rref(m, cols)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(v)
    return basis


def _coordinates(basis, vectors, dim):
    """The matrix X with basis * X = vectors, for vectors in the span of the
    independent length-dim columns of basis."""
    k = len(basis)
    aug = [[col[i] for col in basis] + [vec[i] for vec in vectors]
           for i in range(dim)]
    rows, pivots = exactmat.rref(aug, k + len(vectors))
    assert all(p < k for p in pivots), "vector outside the span"
    out = exactmat.zeros(k, len(vectors))
    for i, p in enumerate(pivots):
        for j in range(len(vectors)):
            out[p][j] = rows[i][k + j]
    return out


def _syzygy(q, m):
    """(projective cover P of m, the kernel Omega(m) of P -> m)."""
    cover, proj = projective_cover_data(q, m)
    kernels = {v: _nullspace(proj[v], cover.dims[v]) for v in q.vertices}
    mats = {}
    for name, arrow in q.arrows.items():
        images = [exactmat.mat_vec(cover.mats[name], vec)
                  for vec in kernels[arrow.source]]
        mats[name] = _coordinates(kernels[arrow.target], images,
                                  cover.dims[arrow.target])
    dims = {v: len(kernels[v]) for v in q.vertices}
    return cover, Representation(q, dims, mats)


def _in_a_random_basis(q, m, rng):
    """An isomorphic copy of m, each m(v) written in a random basis."""
    change, inverse = {}, {}
    for v in q.vertices:
        d = m.dims[v]
        basis = None
        while basis is None or exactmat.rank(basis, d) < d:
            basis = [[Fraction(rng.randint(-2, 2)) for _ in range(d)]
                     for _ in range(d)]
        change[v] = [list(row) for row in zip(*basis)]
        inverse[v] = _coordinates(basis, exactmat.from_rows(
            [[int(i == j) for i in range(d)] for j in range(d)]), d)
    mats = {name: exactmat.mat_mul(exactmat.mat_mul(
                inverse[arrow.target], m.mats[name]), change[arrow.source])
            for name, arrow in q.arrows.items()}
    return Representation(q, m.dims, mats)


def _assert_ext1_matches_the_oracle(q, modules):
    """ext1_dim on every ordered pair of modules against the Hom sequence
    of one presentation 0 -> Omega -> P -> m -> 0 per module, and
    euler_form against Hom minus Ext^1."""
    for m in modules:
        cover, omega = _syzygy(q, m)
        for n in modules:
            hom = hom_dim(q, m, n)
            ext1 = ext1_dim(q, m, n)
            oracle = hom_dim(q, omega, n) - hom_dim(q, cover, n) + hom
            assert ext1 == oracle, (q.relations, m, n)
            # euler_form takes the Hom terms as cancelled
            assert euler_form(q, m, n) == hom - ext1, (q.relations, m, n)


# -- path bases and projectives ---------------------------------------------

def test_path_basis_respects_relations():
    q = load("a2ice")
    basis = PathBasis(q)
    # from 1: e, alpha, alpha beta is killed by the relation
    assert basis.paths["1"] == [(), ("alpha",)]
    assert basis.paths["3"] == [(), ("gamma",)]


def _two_cycle():
    """The relation-free 2-cycle, whose path algebra is infinite."""
    return BoundIceQuiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])


def _long_relation_cycle():
    """The 3-cycle a b c with one relation of length 40."""
    relation = [("a", "b", "c")[k % 3] for k in range(40)]
    return BoundIceQuiver(["1", "2", "3"],
                          [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")],
                          relations=[relation])


def _every_window_paths(q):
    """PathBasis.paths by the same breadth-first growth and bound, but
    testing every window of every extended path for a relation."""
    bound = len(q.vertices) + sum(len(r) for r in q.relations)
    paths = {v: [()] for v in q.vertices}
    frontier = {v: [()] for v in q.vertices}
    for _length in range(bound):
        grown = {v: [] for v in q.vertices}
        for v, ends in frontier.items():
            for path in ends:
                end = q.arrow(path[-1]).target if path else v
                for arrow in q.arrows_from(end):
                    longer = path + (arrow.name,)
                    if not any(longer[i:i + len(rel)] == rel
                               for rel in q.relations
                               for i in range(len(longer) - len(rel) + 1)):
                        grown[v].append(longer)
                        paths[v].append(longer)
        frontier = grown
    if any(frontier.values()):
        start = next(v for v, ends in frontier.items() if ends)
        raise PathLimitExceeded(
            f"a path of length {bound} from vertex {start!r} avoids every "
            "relation, so the algebra is infinite dimensional")
    return paths


def test_path_basis_detects_infinite_algebras():
    with pytest.raises(PathLimitExceeded,
                       match="from vertex '1' .* is infinite dimensional"):
        PathBasis(_two_cycle())


def test_path_basis_matches_the_every_window_oracle():
    for q in fixture_quivers() + hand_built_quivers() + \
            [_long_relation_cycle()]:
        assert PathBasis(q).paths == _every_window_paths(q), q.relations
    with pytest.raises(PathLimitExceeded):
        _every_window_paths(_two_cycle())


def _small_quivers_with_loops(rng, count):
    """Random quivers on two or three vertices with a loop l at 0 and one
    or two more arrows; the relations are a power of l and up to two
    paths of length 2 or 3 found by random walks."""
    for _ in range(count):
        vertices = [str(k) for k in range(rng.randint(2, 3))]
        arrows = [("l", "0", "0")] + [
            (f"a{k}", rng.choice(vertices), rng.choice(vertices))
            for k in range(rng.randint(1, 2))]
        q = BoundIceQuiver(vertices, arrows)
        relations = [["l"] * rng.randint(2, 3)]
        for _ in range(rng.randint(0, 2)):
            path = [rng.choice(list(q.arrows))]
            for _ in range(rng.randint(1, 2)):
                onward = q.arrows_from(q.arrow(path[-1]).target)
                if onward:
                    path.append(rng.choice(onward).name)
            if len(path) > 1:
                relations.append(path)
        yield BoundIceQuiver(vertices, arrows, relations=relations)


def test_finiteness_check_matches_the_bounded_search():
    # _require_finite grows the states of the relation automaton where the
    # search grows the paths, for the same number of rounds
    rng = random.Random(14)
    quivers = fixture_quivers() + hand_built_quivers() + \
        [_long_relation_cycle(), _two_cycle()] + \
        list(_small_quivers_with_loops(rng, 150))
    infinite = 0
    for q in quivers:
        try:
            _every_window_paths(q)
            expected = None
        except PathLimitExceeded as exc:
            expected = str(exc)
            infinite += 1
        try:
            _require_finite(q)
            found = None
        except PathLimitExceeded as exc:
            found = str(exc)
        assert found == expected, (q.arrows, q.relations)
    assert 20 < infinite < len(quivers) - 20


def test_finiteness_verdict_lets_its_quiver_go():
    q = load("a2ice")
    _require_finite(q)
    gone = weakref.ref(q)
    del q
    gc.collect()
    assert gone() is None


def test_path_basis_of_a_long_relation_on_a_cycle():
    # finite, with paths longer than any fixed multiple of the arrow count:
    # the longest surviving path has length 41, below the exact bound 43
    basis = PathBasis(_long_relation_cycle())
    assert max(len(p) for paths in basis.paths.values() for p in paths) == 41
    assert sum(len(paths) for paths in basis.paths.values()) == 123


def test_projective_cover_leaves_no_reference_to_its_quiver():
    # nothing the engine keeps, such as a path basis, holds on to q once
    # the cover is dropped
    q = load("a2ice")
    projective(q, "1")
    gone = weakref.ref(q)
    del q
    gc.collect()
    assert gone() is None


def test_projectives():
    q = load("a2ice")
    p1 = projective(q, "1")
    assert p1.dims == {"1": 1, "2": 1, "3": 0}
    p3 = projective(q, "3")
    assert p3.dims == {"1": 1, "2": 0, "3": 1}
    assert p1.satisfies_relations()
    hereditary = load("a3")
    assert projective(hereditary, "1").dims == {"1": 1, "2": 1, "3": 1}


def test_hom_from_a_projective_is_the_dimension_at_its_vertex():
    # Yoneda: the Hom(P, n) term of the presentation oracle for Ext^1
    for q in fixture_quivers():
        projectives = {v: projective(q, v) for v in q.vertices}
        for c in enumerate_strings(q, 3):
            m = string_module(q, c)
            for v in q.vertices:
                assert hom_dim(q, projectives[v], m) == m.dims[v], (c, v)


# -- hom and ext ---------------------------------------------------------------

def test_hom_dims():
    q = load("a2ice")
    p1, p2 = projective(q, "1"), projective(q, "2")
    assert hom_dim(q, p2, p1) == 1
    assert hom_dim(q, p1, p2) == 0
    for v in ("1", "2", "3"):
        assert hom_dim(q, simple(q, v), simple(q, v)) == 1
    assert hom_dim(q, simple(q, "1"), simple(q, "2")) == 0
    assert hom_dim(q, p1, p1) == 1


def test_hom_respects_direct_sums():
    q = load("a3")
    m = string_module(q, Walk.parse(q, "alpha"))
    n = string_module(q, Walk.parse(q, "beta"))
    both = direct_sum(q, m, n)
    s = simple(q, "2")
    assert hom_dim(q, both, s) == hom_dim(q, m, s) + hom_dim(q, n, s)
    assert hom_dim(q, s, both) == hom_dim(q, s, m) + hom_dim(q, s, n)


def test_ext_dims():
    for name in ("a2", "a2ice"):
        q = load(name)
        assert ext1_dim(q, simple(q, "1"), simple(q, "2")) == 1
        assert ext1_dim(q, simple(q, "2"), simple(q, "1")) == 0
    q = load("a2ice")
    for v in q.vertices:
        p = projective(q, v)
        for w in q.vertices:
            assert ext1_dim(q, p, simple(q, w)) == 0
    # the extension of S_3 by S_1 glued along gamma exists, the one of S_3
    # by the projective P_1 does not
    assert ext1_dim(q, simple(q, "3"), simple(q, "1")) == 1
    assert ext1_dim(q, simple(q, "3"), projective(q, "1")) == 0


def test_syzygy():
    q = load("a2ice")
    _cover, omega = _syzygy(q, simple(q, "1"))
    assert omega.dims == {"1": 0, "2": 1, "3": 0}
    assert omega.satisfies_relations()
    assert _syzygy(q, projective(q, "1"))[1].total_dim() == 0


def test_ext1_matches_the_syzygy_oracle():
    rng = random.Random(2718)
    for q in fixture_quivers():
        _assert_ext1_matches_the_oracle(
            q, [simple(q, v) for v in q.vertices]
            + [projective(q, v) for v in q.vertices])
        strings = enumerate_strings(q, 3)
        _assert_ext1_matches_the_oracle(
            q, [string_module(q, c)
                for c in rng.sample(strings, min(6, len(strings)))])
    for k, q in enumerate(hand_built_quivers()):
        strings = [string_module(q, c) for c in enumerate_strings(q, 2)]
        modules = [simple(q, v) for v in q.vertices] + \
            [projective(q, v) for v in q.vertices] + strings
        if k == 0:
            # in a general basis the two terms of the repeated arrow meet
            # in one entry of d1
            modules += [_in_a_random_basis(
                q, direct_sum(q, *rng.sample(strings, 2)), rng)
                for _ in range(4)]
        _assert_ext1_matches_the_oracle(q, modules)


def test_euler_forms_on_simples_are_read_off_the_arrows():
    # the closed form cluster_character takes for <S_i,S_j>_a
    for q in fixture_quivers():
        simples = {v: simple(q, v) for v in q.vertices}
        for i in q.vertices:
            for j in q.vertices:
                arrows = sum(1 for a in q.arrows_from(i) if a.target == j)
                assert euler_forms(q, simples[i], simples[j]) == \
                    (int(i == j) - arrows, -q.b_entry(i, j)), (i, j)


def test_euler_form_matches_hereditary_on_acyclic_quivers():
    q = load("a4dec").unfrozen_part()
    rng = random.Random(314)
    modules = [string_module(q, c) for c in enumerate_strings(q, 3)]
    for _ in range(25):
        m = rng.choice(modules)
        n = rng.choice(modules)
        truncated, anti = euler_forms(q, m, n)
        expected = hereditary_euler(q, m.dims, n.dims)
        assert truncated == expected
        back = hereditary_euler(q, n.dims, m.dims)
        assert anti == expected - back


def test_hereditary_euler_rejects_bad_quivers():
    with pytest.raises(QuiverError):
        hereditary_euler(load("a2ice"), {}, {})
    cyclic = BoundIceQuiver(["1", "2"],
                            [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(QuiverError):
        hereditary_euler(cyclic, {}, {})


def test_antisymmetrised_form_descends_but_truncated_does_not():
    # every string of a2ice; on the larger quivers with relations, the
    # strings with unfrozen support, whose characters take this descent
    for name, unfrozen_only in (("a2ice", False), ("dcyclic3", True),
                                ("dcyclic4", True), ("dcyclic5", True)):
        q = load(name)
        simples = {v: simple(q, v) for v in q.vertices}
        t = {(i, j): euler_forms(q, simples[i], simples[j])[0]
             for i in q.vertices for j in q.vertices}
        for c in enumerate_strings(q, 6, unfrozen_only=unfrozen_only):
            m = string_module(q, c)
            for i in q.vertices:
                _, anti = euler_forms(q, simples[i], m)
                assert anti == sum(m.dims[j] * (t[i, j] - t[j, i])
                                   for j in q.vertices), (name, str(c), i)
    # the truncated form itself is not additive in dimension vectors: on
    # a2ice, against S_3 it gives 0 on P_1 but -1 on S_1 + S_2
    q = load("a2ice")
    s3, p1 = simple(q, "3"), projective(q, "1")
    direct, _ = euler_forms(q, s3, p1)
    additive = sum(p1.dims[j] * euler_forms(q, s3, simple(q, j))[0]
                   for j in q.vertices)
    assert direct == 0
    assert additive == -1


# -- rigidity and normalisation --------------------------------------------------

def test_is_rigid():
    q = load("a2ice")
    assert is_rigid(q, projective(q, "1"))
    assert is_rigid(q, simple(q, "1"))
    k2 = load("kronecker2")
    assert is_rigid(k2, string_module(k2, Walk.parse(k2, "al1^-1 al2")))
    regular = string_module(k2, Walk.parse(k2, "al1^-1 al2 al1^-1"))
    assert not is_rigid(k2, regular)


def test_normalisation_vector_three_vertex_cycle():
    q = load("a2ice")
    assert normalisation_vector(q, Walk.parse(q, "alpha")) == \
        {"1": 0, "2": 0, "3": 1}
    assert normalisation_vector(q, Walk.parse(q, "e(1)")) == \
        {"1": 0, "2": 0, "3": 0}


def test_normalisation_vector_is_supported_on_the_closure():
    q = load("diamond5")
    vector = normalisation_vector(q, Walk.parse(q, "e(1)"))
    assert set(vector) == {"1", "2"}


def test_normalisation_matches_numerator_content_on_rigid_strings():
    for n in (3, 4, 5):
        q = load(f"dcyclic{n}")
        for c in enumerate_strings(q, 4, unfrozen_only=True):
            m = string_module(q, c)
            if not is_rigid(q, m):
                continue
            vector = normalisation_vector(q, c)
            eta = numerator_normalisation(q, c)
            assert {v: e for v, e in vector.items() if e} == \
                {v: e for v, e in eta.items() if e}, str(c)


# -- pairings and the normalising vector counted on the string -------------

def _blow_up_normalisation(q, c, forward):
    """The normalising vector through the blow-up, given <S_i, M> for every
    vertex i: the pairing minus the hereditary pairing of the simple fibres
    over i with the spine module."""
    qtilde, phi, mtilde = blow_up(q, c)
    return {i: forward[i] - sum(hereditary_euler(qtilde, {j: 1}, mtilde.dims)
                                for j in vertex_preimages(phi, i))
            for i in phi.target.vertices}


def _assert_pairings_match_the_oracle(q, strings):
    """Check the pairings, the normalising vector and the K0 check of each
    string against the generic engine; return how many strings fail the
    K0 check."""
    simples = {v: simple(q, v) for v in q.vertices}
    anti = {(i, j): euler_form(q, simples[i], simples[j]) -
            euler_form(q, simples[j], simples[i])
            for i in q.vertices for j in q.vertices}
    ill_defined = 0
    for c in strings:
        m = string_module(q, c)
        forward = {i: euler_form(q, simples[i], m) for i in q.vertices}
        backward = {i: euler_form(q, m, simples[i]) for i in q.vertices}
        assert simple_pairings(q, c) == (forward, backward), str(c)
        assert normalisation_vector(q, c) == \
            _blow_up_normalisation(q, c, forward), str(c)
        bad = [i for i in q.vertices if forward[i] - backward[i] !=
               sum(m.dims[j] * anti[i, j] for j in q.vertices)]
        if bad:
            ill_defined += 1
            with pytest.raises(K0IllDefined,
                               match=re.escape(f"simple at {bad[0]!r} ")):
                _check_descent(q, c, _string_pass(q, c))
        else:
            _check_descent(q, c, _string_pass(q, c))
    return ill_defined


def _pairing_quivers():
    return hand_built_quivers() + [
        # relations of length 3 that start and end at the same vertex
        BoundIceQuiver(["1", "2", "3"],
                       [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")],
                       relations=[("a", "b", "c"), ("b", "c", "a"),
                                  ("c", "a", "b")]),
        # a loop with a a = 0, and a relation through it
        BoundIceQuiver(["1", "2", "3"],
                       [("a", "1", "1"), ("b", "1", "2"), ("c", "3", "1")],
                       relations=[("a", "a"), ("c", "a", "b")]),
        # a loop with a a a = 0, so strings run a a and a^-1 a^-1 on it
        BoundIceQuiver(["1", "2", "3"],
                       [("a", "1", "1"), ("b", "1", "2"), ("c", "3", "1")],
                       relations=[("a", "a", "a"), ("a", "b"), ("c", "b")]),
        # frozen vertices on two 3-cycles beside the string 1 -> 2 -> 3
        BoundIceQuiver(["0", "1", "2", "3", "4"],
                       [("f", "0", "1"), ("a", "1", "2"), ("b", "2", "3"),
                        ("g", "3", "4"), ("h", "2", "0"), ("k", "4", "2")],
                       frozen=["0", "4"],
                       relations=[("f", "a"), ("a", "h"), ("h", "f"),
                                  ("b", "g"), ("g", "k"), ("k", "b")]),
        caret_quiver(),
    ]


def test_pairings_and_normaliser_match_the_generic_engine():
    ill_defined = 0
    for q in fixture_quivers():
        ill_defined += _assert_pairings_match_the_oracle(
            q, enumerate_strings(q, 5))
    for q in _pairing_quivers():
        ill_defined += _assert_pairings_match_the_oracle(
            q, enumerate_strings(q, 4))
    # 56 of the 1,463 strings fail the K0 check, so it is tested both ways
    assert ill_defined == 56
