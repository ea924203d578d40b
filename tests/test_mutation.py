"""Seed mutation, cluster-variable enumeration and character matching."""

import random
from collections import Counter

import pytest

from stringchar import LaurentPoly, QuiverError, Seed, StringCharError, \
    Walk, cluster_character, enumerate_cluster_variables, enumerate_strings, \
    match_character, mutate, seed_from_ice_quiver
from stringchar import mutation
from stringchar.mutation import _reachable_variables

from conftest import FIXTURES, load
from oracles import laurent_key, laurent_keyed_search


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


def test_seed_refuses_a_repeated_vertex_id():
    seed = seed_from_ice_quiver(load("a2"))
    b, cluster = dict(seed.b), dict(seed.cluster)
    # taken, vertex 1 would get the g-vector (1, 1, 0) and A2 six variables
    with pytest.raises(QuiverError) as info:
        Seed(["1", "2"], ["1", "1", "2"], b, cluster)
    assert str(info.value) == "duplicate vertex id '1'"
    # taken, the exchange at 1 would count row 2 twice
    with pytest.raises(QuiverError) as info:
        Seed(["1", "2", "2"], ["1", "2"], b, cluster)
    assert str(info.value) == "duplicate vertex id '2'"


@pytest.mark.parametrize("entry", [1.0, 0.5, "1"])
def test_seed_refuses_an_exchange_matrix_entry_that_is_not_an_int(entry):
    vertices, unfrozen, b, cluster = _a2ice_seed_input()
    b["3", "2"] = entry
    with pytest.raises(QuiverError) as info:
        Seed(vertices, unfrozen, b, cluster)
    assert str(info.value) == \
        f"exchange matrix entry ('3', '2') is not an int: {entry!r}"


def test_seed_refuses_a_cluster_value_that_is_not_a_laurent_polynomial():
    vertices, unfrozen, b, cluster = _a2ice_seed_input()
    cluster["2"] = 5
    with pytest.raises(QuiverError, match="variable for '2' is not a "
                       "Laurent polynomial: 5"):
        Seed(vertices, unfrozen, b, cluster)


def test_seed_from_ice_quiver_names_the_loop_or_two_cycle():
    from stringchar import BoundIceQuiver
    faults = {
        "arrow 'c' is a loop at '2'":
            [("a", "1", "2"), ("c", "2", "2"), ("b", "2", "1")],
        "arrows 'a' and 'b' form a 2-cycle between '1' and '2'":
            [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "2")]}
    for fault, arrows in faults.items():
        with pytest.raises(QuiverError) as info:
            seed_from_ice_quiver(BoundIceQuiver(["1", "2"], arrows))
        assert str(info.value) == \
            f"seeds need a loop- and 2-cycle-free quiver: {fault}"


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
    # the search's first mutation reaches f; the full search makes 41
    assert len(calls) == 1
    enumerate_cluster_variables(seed, 10)
    assert len(calls) == 1 + 41


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


def _memoised_on_inputs(exchange):
    """`exchange` memoised on its Laurent inputs, x_k and the multiset of
    (value, exponent) pairs: sound whatever the g-vectors say."""
    memo = {}

    def memoised(x_k, inputs):
        key = x_k, frozenset(Counter(inputs).items())
        if key not in memo:
            memo[key] = exchange(x_k, inputs)
        return memo[key]
    return memoised


def _enumerate_by_mutation(seed, max_depth, memoised=False):
    """enumerate_cluster_variables as a plain breadth-first search over
    labelled seeds: every frontier seed is mutated at every unfrozen
    vertex, with no dict from g-vector to cluster variable.  Each mutation
    computes its exchange polynomial afresh, or if `memoised`, once per
    distinct Laurent input (`_memoised_on_inputs`).  Returns (variables,
    mutations made, non-root seeds mutated)."""
    seen = {_labelled_key(seed)}
    variables = set(seed.cluster.values())
    frontier = [seed]
    mutations = mutated_non_root = 0
    with pytest.MonkeyPatch.context() as patch:
        if memoised:
            patch.setattr(mutation, "_exchange",
                          _memoised_on_inputs(mutation._exchange))
        for depth in range(max_depth):
            if depth:
                mutated_non_root += len(frontier)
            next_frontier = []
            for current in frontier:
                for k in current.unfrozen:
                    mutations += 1
                    mutated = mutate(current, k)
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
    # 84 mutations, but only 10 cluster variables besides the initial 4
    assert len(calls) == 10


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
        seed, 10, memoised=True)
    calls = _counting_mutate(monkeypatch)
    assert enumerate_cluster_variables(seed, 10) == variables
    # mutation is an involution: mutating a seed at the vertex it came from
    # gives back its parent, so each mutated non-root seed saves one call
    assert mutated_non_root > 0
    assert plain_calls - len(calls) >= mutated_non_root
    # each of the 42 seeds of type A4 but the first is built once up to
    # relabelling, where the labelled search makes 3,260 mutations
    assert len(calls) == 41


def test_enumeration_builds_each_seed_of_the_exchange_graph_once(
        monkeypatch):
    cases = []
    for path in sorted(FIXTURES.glob("*.quiver")):
        try:
            seed = seed_from_ice_quiver(load(path.stem))
        except QuiverError:
            continue
        # the oracle yields the initial cluster, then one variable per
        # new seed
        cases += [(path.stem, seed, depth,
                   len(laurent_keyed_search(seed, depth))
                   - len(seed.unfrozen) + 1)
                  for depth in range(4)]
    assert len(cases) >= 40
    calls = _counting_mutate(monkeypatch)
    for name, seed, depth, seeds in cases:
        calls.clear()
        enumerate_cluster_variables(seed, depth)
        assert len(calls) == seeds - 1, (name, depth)


@pytest.mark.parametrize("name, variables, seeds", [
    ("a3dec", 9, 14), ("a4dec", 14, 42), ("dcyclic4", 16, 50),
    ("dcyclic5", 25, 182)])
def test_a_finite_exchange_graph_is_searched_with_one_mutate_per_new_seed(
        monkeypatch, name, variables, seeds):
    # the search builds each seed of the finite exchange graph but the
    # first once, and runs out of seeds before depth 10
    seed = seed_from_ice_quiver(load(name))
    calls = _counting_mutate(monkeypatch)
    assert len(enumerate_cluster_variables(seed, 10)) == variables
    assert len(calls) == seeds - 1


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
        expected = _enumerate_by_mutation(seed, depth, memoised=True)[0]
        assert enumerate_cluster_variables(seed, depth) == expected, \
            (name, depth)


def _relabelled(seed, sigma):
    """The seed with each unfrozen label j renamed sigma[j], in its
    exchange matrix, cluster, C-matrix columns and g-vectors."""
    name = {i: sigma.get(i, i) for i in seed.vertices}
    b = {(name[i], name[j]): bij for (i, j), bij in seed.b.items()}
    cluster = {name[j]: f for j, f in seed.cluster.items()}
    relabelled = Seed(seed.vertices, seed.unfrozen, b, cluster)
    relabelled.c = {(i, name[j]): cij for (i, j), cij in seed.c.items()}
    relabelled.g = {name[j]: g for j, g in seed.g.items()}
    return relabelled


def _labelled_seeds(seed, max_depth):
    """Every seed within max_depth mutations of seed, one per labelled
    seed (`_labelled_key`)."""
    seen = {_labelled_key(seed): seed}
    frontier = [seed]
    for _ in range(max_depth):
        next_frontier = []
        for current in frontier:
            for k in current.unfrozen:
                mutated = mutate(current, k)
                key = _labelled_key(mutated)
                if key not in seen:
                    seen[key] = mutated
                    next_frontier.append(mutated)
        frontier = next_frontier
    return list(seen.values())


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
        # mutation commutes with the relabelling
        for k in seed.unfrozen:
            assert mutate(relabelled, sigma.get(k, k)) == \
                _relabelled(mutate(seed, k), sigma)
    # the g-vectors name the same seeds as the Laurent clusters: over the
    # labelled seeds near each start, equal keys and equal Laurent keys
    # go together
    merged = 0
    for name, depth in (("a4dec", 4), ("dcyclic4", 4), ("kronecker2", 6),
                        ("doublearrow4", 3)):
        seeds = _labelled_seeds(seed_from_ice_quiver(load(name)), depth)
        pairs = {(s.key(), laurent_key(s)) for s in seeds}
        assert len({key for key, _ in pairs}) == len(pairs), name
        assert len({key for _, key in pairs}) == len(pairs), name
        merged += len(seeds) - len(pairs)
    # some of the labelled seeds are relabelled copies of others
    assert merged > 0


def _principal(seed):
    """The seed's unfrozen part with principal coefficients: a frozen
    vertex j' per unfrozen vertex j, with b_j'i = 1 if i == j, else 0."""
    primed = {j: f"{j}'" for j in seed.unfrozen}
    b = {(i, j): seed.b[i, j] for i in seed.unfrozen for j in seed.unfrozen}
    b.update({(primed[i], j): int(i == j)
              for i in seed.unfrozen for j in seed.unfrozen})
    return Seed(list(seed.unfrozen) + list(primed.values()), seed.unfrozen,
                b, {j: var(j) for j in seed.unfrozen})


def test_g_vectors_are_the_degrees_of_principal_coefficient_variables():
    # with principal coefficients a cluster variable is homogeneous for
    # deg x_i = e_i, deg y_j = -b0_j, of degree its g-vector (FZ IV,
    # Proposition 6.1); its C-matrix is the exponent matrix of the frozen
    # rows, and its columns are nonzero and sign-coherent (DWZ 2010);
    # G^T C = I, G B = B0 C (Nakanishi-Zelevinsky 2012); and _mutated_g
    # gives what FZ IV (6.13) gives
    checked = 0
    for name, depth in (("a4dec", 4), ("dcyclic5", 3), ("kronecker3", 5),
                        ("doublearrow4", 3), ("diamond5", 3)):
        start = _principal(seed_from_ice_quiver(load(name)))
        initial = start.unfrozen
        b0 = {(i, j): start.b[i, j] for i in initial for j in initial}
        for seed in _labelled_seeds(start, depth):
            unfrozen = seed.unfrozen
            for j in unfrozen:
                for i in initial:
                    assert seed.c[i, j] == seed.b[f"{i}'", j]
                for exponents, _coeff in seed.cluster[j].monomials():
                    degree = [exponents.get(i, 0) for i in initial]
                    for r, i in enumerate(initial):
                        for s in initial:
                            degree[r] -= exponents.get(f"{s}'", 0) * \
                                b0[i, s]
                    assert tuple(degree) == seed.g[j], (name, j)
            for k in unfrozen:
                column = [seed.c[i, k] for i in initial]
                assert any(column), (name, k)
                assert min(column) >= 0 or max(column) <= 0, (name, k)
                expected = [
                    -seed.g[k][r]
                    + sum(max(seed.b[i, k], 0) * seed.g[i][r]
                          for i in unfrozen)
                    - sum(max(seed.c[j, k], 0) * b0[u, j] for j in initial)
                    for r, u in enumerate(initial)]
                assert mutation._mutated_g(seed, k) == tuple(expected), \
                    (name, k)
                for j in unfrozen:
                    assert sum(seed.g[j][r] * seed.c[i, k]
                               for r, i in enumerate(initial)) == \
                        int(j == k), (name, j, k)
                for r, u in enumerate(initial):
                    assert sum(seed.g[j][r] * seed.b[j, k]
                               for j in unfrozen) == \
                        sum(b0[u, i] * seed.c[i, k] for i in initial), \
                        (name, u, k)
                checked += 1
    assert checked > 1000


def _search_cases():
    """(name, start seed, depth) for depths 0 to 4 from the initial seed of
    every loop- and 2-cycle-free fixture, and from a mutated a4dec seed,
    as it is and rebuilt as an initial seed whose cluster is not the
    initial variables."""
    starts = []
    for path in sorted(FIXTURES.glob("*.quiver")):
        try:
            starts.append((path.stem, seed_from_ice_quiver(load(path.stem))))
        except QuiverError:
            continue
    mutated = seed_from_ice_quiver(load("a4dec"))
    for k in ("2", "3", "1"):
        mutated = mutate(mutated, k)
    starts.append(("a4dec mutated", mutated))
    starts.append(("a4dec rebuilt", Seed(mutated.vertices, mutated.unfrozen,
                                         mutated.b, mutated.cluster)))
    return [(name, seed, depth) for name, seed in starts
            for depth in range(5)]


def test_g_vector_search_matches_the_laurent_keyed_search(monkeypatch):
    cases = _search_cases()
    assert len(cases) >= 60
    expected = [laurent_keyed_search(seed, depth)
                for _name, seed, depth in cases]
    calls = _counting_mutate(monkeypatch)
    for (name, seed, depth), found in zip(cases, expected):
        calls.clear()
        assert list(_reachable_variables(seed, depth)) == found, \
            (name, depth)
        # one mutation per new seed, which yields one variable
        assert len(calls) == len(found) - len(seed.unfrozen), (name, depth)
