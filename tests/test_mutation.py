"""Seed mutation, cluster-variable enumeration and character matching."""

import random

import pytest

from stringchar import LaurentPoly, QuiverError, Seed, StringCharError, \
    Walk, cluster_character, enumerate_cluster_variables, enumerate_strings, \
    match_character, mutate, seed_from_ice_quiver

from conftest import FIXTURES, load


def var(v, power=1):
    return LaurentPoly.var(v, power)


def test_initial_seed():
    seed = seed_from_ice_quiver(load("a2ice"))
    assert seed.unfrozen == ("1", "2")
    assert seed.b["1", "2"] == 1
    assert seed.b["3", "1"] == 1
    assert seed.b["3", "2"] == -1
    assert seed.cluster["1"] == var("1")


def test_seed_rejects_two_cycles():
    from stringchar import BoundIceQuiver
    q = BoundIceQuiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(QuiverError):
        seed_from_ice_quiver(q)
    with pytest.raises(QuiverError):
        Seed(["1", "2"], ["1", "2"], {("1", "2"): 1, ("2", "1"): 1,
                                      ("1", "1"): 0, ("2", "2"): 0},
             {"1": var("1"), "2": var("2")})


def _a2ice_seed_input():
    """The vertices, unfrozen vertices, exchange matrix and cluster of
    a2ice's initial seed, as Seed takes them."""
    seed = seed_from_ice_quiver(load("a2ice"))
    return (list(seed.vertices), list(seed.unfrozen), dict(seed.b),
            dict(seed.cluster))


def test_seed_refuses_a_missing_exchange_matrix_entry():
    vertices, unfrozen, b, cluster = _a2ice_seed_input()
    del b["3", "2"]
    with pytest.raises(QuiverError, match=r"no entry \('3', '2'\)"):
        Seed(vertices, unfrozen, b, cluster)


def test_seed_refuses_an_unfrozen_vertex_that_is_not_a_vertex():
    vertices, unfrozen, b, cluster = _a2ice_seed_input()
    with pytest.raises(QuiverError, match="unfrozen vertex '9'"):
        Seed(vertices, unfrozen + ["9"], b, cluster)


def test_seed_refuses_a_cluster_without_an_unfrozen_vertex():
    vertices, unfrozen, b, cluster = _a2ice_seed_input()
    del cluster["2"]
    with pytest.raises(QuiverError, match="unfrozen vertex '2'"):
        Seed(vertices, unfrozen, b, cluster)


def test_seed_refuses_a_cluster_variable_for_a_frozen_vertex():
    vertices, unfrozen, b, cluster = _a2ice_seed_input()
    cluster["3"] = var("3")
    with pytest.raises(QuiverError, match="variable for '3'"):
        Seed(vertices, unfrozen, b, cluster)


def test_seed_refuses_two_equal_cluster_variables():
    vertices, unfrozen, b, cluster = _a2ice_seed_input()
    cluster["2"] = var("1")
    with pytest.raises(QuiverError, match="'1' and '2' carry the same"):
        Seed(vertices, unfrozen, b, cluster)


def test_single_exchange():
    seed = seed_from_ice_quiver(load("a2"))
    mutated = mutate(seed, "1")
    assert mutated.cluster["1"] == (var("2") + 1) * var("1", -1)
    assert mutated.b["1", "2"] == -1
    with pytest.raises(QuiverError):
        mutate(seed, "9")


def test_exchange_with_frozen_coefficients():
    seed = seed_from_ice_quiver(load("a2ice"))
    mutated = mutate(seed, "1")
    assert mutated.cluster["1"] == (var("2") + var("3")) * var("1", -1)
    q = load("a2ice")
    assert mutated.cluster["1"] == cluster_character(q, Walk.parse(q, "e(1)"))


def test_exchange_at_a_vertex_without_arrows_is_two_over_x():
    # both products of the exchange are empty, so each is 1
    from stringchar import BoundIceQuiver
    seed = seed_from_ice_quiver(BoundIceQuiver(["1", "2"], []))
    assert mutate(seed, "1").cluster["1"] == 2 * var("1", -1)
    # one empty side: 1 + x_2^2 over x_1
    q = BoundIceQuiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    mutated = mutate(seed_from_ice_quiver(q), "1")
    assert mutated.cluster["1"] == (var("2", 2) + 1) * var("1", -1)


def test_mutation_is_an_involution():
    for name in ("a2", "a3", "a2ice", "kronecker2"):
        seed = seed_from_ice_quiver(load(name))
        for k in seed.unfrozen:
            twice = mutate(mutate(seed, k), k)
            assert twice.b == seed.b
            assert twice.cluster == seed.cluster


def test_enumeration_counts():
    a2 = seed_from_ice_quiver(load("a2"))
    assert len(enumerate_cluster_variables(a2, 10)) == 5
    a3 = seed_from_ice_quiver(load("a3"))
    assert len(enumerate_cluster_variables(a3, 12)) == 9


def test_enumeration_is_positive_and_sorted():
    variables = enumerate_cluster_variables(
        seed_from_ice_quiver(load("a3")), 12)
    assert all(f.is_nonnegative() for f in variables)
    texts = [f.text() for f in variables]
    assert texts == sorted(texts)


def test_match_is_membership_in_the_enumeration():
    checked = 0
    for name in ("a4dec", "dcyclic4"):
        q = load(name)
        seed = seed_from_ice_quiver(q)
        enumerated = [enumerate_cluster_variables(seed, depth)
                      for depth in range(4)]
        for c in enumerate_strings(q, 2):
            try:
                f = cluster_character(q, c)
            except StringCharError:
                continue
            for depth in range(4):
                assert match_character(seed, f, depth) == \
                    (f in enumerated[depth]), (name, str(c), depth)
                checked += 1
    assert checked >= 100


def test_match_stops_at_the_first_seed_that_holds_the_character(
        monkeypatch):
    seed = seed_from_ice_quiver(load("a4dec"))
    f = mutate(seed, seed.unfrozen[0]).cluster[seed.unfrozen[0]]
    calls = _counting_mutate(monkeypatch)
    assert match_character(seed, f, 10)
    # the search's first mutation reaches f; the full search makes 84
    assert len(calls) == 1
    enumerate_cluster_variables(seed, 10)
    assert len(calls) == 1 + 84


def test_match_character():
    q = load("a2ice")
    seed = seed_from_ice_quiver(q)
    for text in ("e(1)", "e(2)", "alpha"):
        f = cluster_character(q, Walk.parse(q, text))
        assert match_character(seed, f, 6)
    assert not match_character(seed, var("1") + var("2"), 6)
    seed = seed_from_ice_quiver(load("a3dec"))
    variables = enumerate_cluster_variables(seed, 6)
    for f in variables:
        assert match_character(seed, f, 6)
    for f in variables[:3]:
        assert not match_character(seed, f + 1, 6)
        assert not match_character(seed, -f, 6)


def test_depth_zero_enumeration():
    seed = seed_from_ice_quiver(load("a2"))
    assert len(enumerate_cluster_variables(seed, 0)) == 2


def test_matrix_mutation_matches_the_textbook_formula():
    # b'_ij = -b_ij if k is i or j, else b_ij + (|b_ik| b_kj + b_ik |b_kj|)/2
    rng = random.Random(1776)
    for _ in range(200):
        unfrozen = [f"u{n}" for n in range(rng.randint(1, 5))]
        vertices = unfrozen + [f"f{n}" for n in range(rng.randint(0, 3))]
        b = {}
        for n, i in enumerate(unfrozen):
            b[i, i] = 0
            for j in unfrozen[n + 1:]:
                b[i, j] = rng.randint(-3, 3)
                b[j, i] = -b[i, j]
        for i in vertices[len(unfrozen):]:
            for j in unfrozen:
                b[i, j] = rng.randint(-3, 3)
        seed = Seed(vertices, unfrozen, b, {j: var(j) for j in unfrozen})
        k = rng.choice(unfrozen)
        expected = {
            (i, j): -b[i, j] if k in (i, j) else
            b[i, j] + (abs(b[i, k]) * b[k, j] + b[i, k] * abs(b[k, j])) // 2
            for (i, j) in b}
        assert mutate(seed, k).b == expected


def _labelled_key(seed):
    """The seed with its labels: a relabelled copy counts as another
    seed."""
    return frozenset(seed.cluster.items()), frozenset(seed.b.items())


def _enumerate_by_mutation(seed, max_depth, exchanges=None):
    """enumerate_cluster_variables as a plain breadth-first search over
    labelled seeds: every frontier seed is mutated at every unfrozen
    vertex, and without `exchanges` every mutation computes its exchange
    polynomial afresh.  Returns (variables, mutations made, non-root seeds
    mutated)."""
    seen = {_labelled_key(seed)}
    variables = set(seed.cluster.values())
    frontier = [seed]
    mutations = mutated_non_root = 0
    for depth in range(max_depth):
        if depth:
            mutated_non_root += len(frontier)
        next_frontier = []
        for current in frontier:
            for k in current.unfrozen:
                mutations += 1
                mutated = mutate(current, k, exchanges)
                key = _labelled_key(mutated)
                if key not in seen:
                    seen.add(key)
                    variables.update(mutated.cluster.values())
                    next_frontier.append(mutated)
        frontier = next_frontier
    return (sorted(variables, key=lambda f: f.text()), mutations,
            mutated_non_root)


def test_exchange_memo_matches_plain_mutation():
    checked = 0
    for path in sorted(FIXTURES.glob("*.quiver")):
        try:
            seed = seed_from_ice_quiver(load(path.stem))
        except QuiverError:
            continue
        assert enumerate_cluster_variables(seed, 3) == \
            _enumerate_by_mutation(seed, 3)[0], path.stem
        checked += 1
    assert checked >= 10


def test_enumeration_computes_each_exchange_once(monkeypatch):
    calls = []
    exact_div = LaurentPoly.exact_div

    def counting_exact_div(self, other):
        calls.append(1)
        return exact_div(self, other)

    monkeypatch.setattr(LaurentPoly, "exact_div", counting_exact_div)
    variables = enumerate_cluster_variables(
        seed_from_ice_quiver(load("a4dec")), 10)
    assert len(variables) == 14
    # 84 mutations, but only 40 distinct exchanges
    assert len(calls) == 40


def _counting_mutate(monkeypatch):
    """Count the search's calls of mutate: the list of the vertices it
    mutates at, in order."""
    calls = []

    def counting_mutate(*args):
        calls.append(args[1])
        return mutate(*args)

    monkeypatch.setattr("stringchar.mutation.mutate", counting_mutate)
    return calls


def test_enumeration_skips_the_vertex_each_seed_came_from(monkeypatch):
    seed = seed_from_ice_quiver(load("a4dec"))
    variables, plain_calls, mutated_non_root = _enumerate_by_mutation(
        seed, 10, {})
    calls = _counting_mutate(monkeypatch)
    assert enumerate_cluster_variables(seed, 10) == variables
    # mutation is an involution: mutating a seed at the vertex it came from
    # gives back its parent, so each mutated non-root seed saves one call
    assert mutated_non_root > 0
    assert plain_calls - len(calls) >= mutated_non_root
    # each of the 84 edges between the 42 seeds of type A4 is crossed once
    # up to relabelling, where the labelled search makes 3,260 mutations
    assert len(calls) == 84


def _exchange_graph_edge_counts(seed, max_depth):
    """For d = 0..max_depth, the number of edges {key(s), key(mutate(s, k))}
    of the exchange graph up to relabelling over the seeds s within d - 1
    mutations of seed: a plain breadth-first search over keys that mutates
    every seed it reaches at every unfrozen vertex."""
    seen = {seed.key()}
    edges = set()
    counts = [0]
    frontier = [seed]
    exchanges = {}
    for _ in range(max_depth):
        next_frontier = []
        for current in frontier:
            for k in current.unfrozen:
                mutated = mutate(current, k, exchanges)
                key = mutated.key()
                edges.add(frozenset((current.key(), key)))
                if key not in seen:
                    seen.add(key)
                    next_frontier.append(mutated)
        frontier = next_frontier
        counts.append(len(edges))
    return counts


def test_enumeration_crosses_each_edge_of_the_exchange_graph_once(
        monkeypatch):
    cases = []
    for path in sorted(FIXTURES.glob("*.quiver")):
        try:
            seed = seed_from_ice_quiver(load(path.stem))
        except QuiverError:
            continue
        counts = _exchange_graph_edge_counts(seed, 3)
        cases += [(path.stem, seed, depth, edges)
                  for depth, edges in enumerate(counts)]
    assert len(cases) >= 40
    calls = _counting_mutate(monkeypatch)
    for name, seed, depth, edges in cases:
        calls.clear()
        enumerate_cluster_variables(seed, depth)
        assert len(calls) == edges, (name, depth)


@pytest.mark.parametrize("name, variables, seeds", [
    ("a3dec", 9, 14), ("a4dec", 14, 42), ("dcyclic4", 16, 50),
    ("dcyclic5", 25, 182)])
def test_a_finite_exchange_graph_is_searched_with_one_mutation_per_edge(
        monkeypatch, name, variables, seeds):
    # the exchange graph of a finite type of rank n is n-regular, so it has
    # n * seeds / 2 edges; the search runs out of seeds before depth 10
    seed = seed_from_ice_quiver(load(name))
    calls = _counting_mutate(monkeypatch)
    assert len(enumerate_cluster_variables(seed, 10)) == variables
    assert len(calls) == len(seed.unfrozen) * seeds // 2


def test_enumeration_up_to_relabelling_matches_the_labelled_search():
    cases = []
    for path in sorted(FIXTURES.glob("*.quiver")):
        try:
            seed = seed_from_ice_quiver(load(path.stem))
        except QuiverError:
            continue
        # depth 3 is test_exchange_memo_matches_plain_mutation's
        cases += [(path.stem, seed, depth) for depth in (0, 1, 2, 4)]
    assert len(cases) >= 40
    cases += [(name, seed_from_ice_quiver(load(name)), depth)
              for name, depth in (("a4dec", 10), ("dcyclic4", 8),
                                  ("kronecker2", 12))]
    for name, seed, depth in cases:
        assert enumerate_cluster_variables(seed, depth) == \
            _enumerate_by_mutation(seed, depth, {})[0], (name, depth)


def _relabelled(seed, sigma):
    """The seed with each unfrozen label j renamed sigma[j]."""
    name = {i: sigma.get(i, i) for i in seed.vertices}
    b = {(name[i], name[j]): bij for (i, j), bij in seed.b.items()}
    cluster = {name[j]: f for j, f in seed.cluster.items()}
    return Seed(seed.vertices, seed.unfrozen, b, cluster)


def test_seed_key_forgets_the_unfrozen_labels_only():
    seed = seed_from_ice_quiver(load("a4dec"))
    for k in ("2", "3", "1"):
        seed = mutate(seed, k)
    rotate = {"1": "2", "2": "3", "3": "4", "4": "1"}
    swap = {"1": "4", "4": "1"}
    for sigma in (rotate, swap):
        relabelled = _relabelled(seed, sigma)
        assert relabelled != seed
        assert relabelled.key() == seed.key()
        assert _labelled_key(relabelled) != _labelled_key(seed)

    def changed(entries):
        b = dict(seed.b)
        b.update(entries)
        return Seed(seed.vertices, seed.unfrozen, b, seed.cluster)

    assert changed({}).key() == seed.key()
    # one frozen entry, and one skew-symmetric pair of unfrozen entries
    assert changed({("y1", "2"): seed.b["y1", "2"] + 1}).key() != seed.key()
    assert changed({("1", "3"): seed.b["1", "3"] + 1,
                    ("3", "1"): seed.b["3", "1"] - 1}).key() != seed.key()
    # a frozen row moved onto another frozen vertex, and two different
    # frozen rows swapped
    assert any(seed.b["y1", j] for j in seed.unfrozen)
    moved = {("z4", j): seed.b["y1", j] for j in seed.unfrozen}
    moved.update({("y1", j): 0 for j in seed.unfrozen})
    assert changed(moved).key() != seed.key()
    swapped = {("y1", j): seed.b["y2", j] for j in seed.unfrozen}
    swapped.update({("y2", j): seed.b["y1", j] for j in seed.unfrozen})
    assert swapped != {("y1", j): seed.b["y1", j] for j in seed.unfrozen}
    assert changed(swapped).key() != seed.key()
