"""Seed mutation with geometric coefficients and breadth-first enumeration
of cluster variables."""

from __future__ import annotations

import collections
import functools
import operator

from .errors import QuiverError
from .laurent import LaurentPoly


class Seed:
    """An extended exchange matrix (rows: all vertices, columns: unfrozen
    vertices) together with a cluster of Laurent polynomials in the initial
    variables.  The frozen vertices keep their initial variables, which a
    seed shares with the seeds mutated from it."""

    def __init__(self, vertices, unfrozen, b, cluster):
        self.vertices = tuple(vertices)
        self.unfrozen = tuple(unfrozen)
        for j in self.unfrozen:
            if j not in self.vertices:
                raise QuiverError(f"unfrozen vertex {j!r} is not a vertex")
        try:
            self.b = {(i, j): b[i, j] for i in self.vertices
                      for j in self.unfrozen}
        except KeyError as exc:
            raise QuiverError(
                f"the exchange matrix has no entry {exc.args[0]!r}") from None
        self.cluster = dict(cluster)
        for j in self.cluster:
            if j not in self.unfrozen:
                raise QuiverError(
                    f"cluster variable for {j!r}, which is not an unfrozen "
                    "vertex")
        # Seed.key and the search's record of crossed edges name each
        # unfrozen vertex by its cluster variable
        carrier = {}
        for j in self.unfrozen:
            if j not in self.cluster:
                raise QuiverError(
                    f"the cluster has no variable for unfrozen vertex {j!r}")
            other = carrier.setdefault(self.cluster[j], j)
            if other != j:
                raise QuiverError(
                    f"unfrozen vertices {other!r} and {j!r} carry the same "
                    "cluster variable")
        for j in self.unfrozen:
            for i in self.unfrozen:
                if self.b[i, j] != -self.b[j, i]:
                    raise QuiverError(
                        "the unfrozen part of the exchange matrix must be "
                        "skew-symmetric")
        self.frozen_variables = {i: LaurentPoly.var(i)
                                 for i in self.vertices
                                 if i not in self.cluster}

    def _mutated(self, b, cluster):
        """A seed with the same vertices and frozen variables; mutation
        keeps the unfrozen part skew-symmetric, so it is not checked.

        `mutate` builds seeds here rather than through `__init__`, whose
        copy of b and checks would be repeated for each of the 84 mutations
        (12 x 4 entries each) of enumerating a4dec to depth 10."""
        seed = object.__new__(type(self))
        seed.vertices, seed.unfrozen, seed.frozen_variables = \
            self.vertices, self.unfrozen, self.frozen_variables
        seed.b, seed.cluster = b, cluster
        return seed

    def key(self):
        """The seed up to a permutation of its unfrozen labels.

        Each unfrozen row and column is named by its cluster variable and
        each frozen row by its vertex id, and the key is the set of cluster
        variables with the set of (row name, column name, b_ij) over the
        nonzero entries.  The cluster variables of a seed are distinct, so
        the names are, and two seeds of the same vertices have equal keys
        exactly when a permutation of the unfrozen labels carries one to
        the other: the exchange graph's notion of the same seed
        (Fomin-Zelevinsky, Cluster algebras I and IV)."""
        values = self.cluster
        return frozenset(values.values()), frozenset(
            (values.get(i, i), values[j], bij)
            for (i, j), bij in self.b.items() if bij)

    def __eq__(self, other):
        if not isinstance(other, Seed):
            return NotImplemented
        return (self.vertices, self.unfrozen, self.b, self.cluster) == \
            (other.vertices, other.unfrozen, other.b, other.cluster)

    def __repr__(self):
        variables = [self.cluster[j].text() for j in self.unfrozen]
        return f"Seed(cluster={variables})"


def seed_from_ice_quiver(q):
    """The initial seed of an ice quiver: arrow-count exchange matrix and
    the initial cluster x_i."""
    if q.has_loops_or_two_cycles():
        raise QuiverError("seeds need a loop- and 2-cycle-free quiver")
    unfrozen = q.unfrozen_vertices
    b = {(i, j): q.b_entry(i, j) for i in q.vertices for j in unfrozen}
    cluster = {j: LaurentPoly.var(j) for j in unfrozen}
    return Seed(q.vertices, unfrozen, b, cluster)


def mutate(seed, k, exchanges=None):
    """Fomin-Zelevinsky mutation at the unfrozen vertex k.

    `exchanges`, if given, is a dict shared by the mutations of one
    enumeration.  It maps the inputs of an exchange -- x_k and the multiset
    of (neighbour value, b_ik) with b_ik != 0 -- to the new cluster
    variable, which is a function of exactly those inputs.
    """
    if k not in seed.unfrozen:
        raise QuiverError(f"cannot mutate at {k!r}: not an unfrozen vertex")
    column = [(i, seed.b[i, k]) for i in seed.vertices if seed.b[i, k]]
    row = [(j, seed.b[k, j]) for j in seed.unfrozen if seed.b[k, j]]
    # only row k, column k and the entries with b_ik * b_kj > 0 change
    b = dict(seed.b)
    for i, bik in column:
        b[i, k] = -bik
        for j, bkj in row:
            if (bik > 0) == (bkj > 0):
                b[i, j] += abs(bik) * bkj
    for j, bkj in row:
        b[k, j] = -bkj
    values = seed.cluster
    inputs = [(values[i] if i in values else seed.frozen_variables[i], bik)
              for i, bik in column]
    if exchanges is None:
        new = _exchange(values[k], inputs)
    else:
        key = values[k], frozenset(collections.Counter(inputs).items())
        new = exchanges.get(key)
        if new is None:
            new = exchanges[key] = _exchange(values[k], inputs)
    cluster = dict(values)
    cluster[k] = new
    return seed._mutated(b, cluster)


def _exchange(x_k, inputs):
    """(prod of v^e over e > 0 + prod of v^-e over e < 0) / x_k for the
    (v, e) pairs of inputs; an empty product is 1."""
    sides = ([], [])
    for value, e in inputs:
        sides[e < 0].append(value ** abs(e))
    plus, minus = (functools.reduce(operator.mul, side) if side
                   else LaurentPoly.one() for side in sides)
    # the Laurent phenomenon guarantees exact divisibility here; a
    # NotDivisible escaping this call is a correctness bug, not bad input
    return (plus + minus).exact_div(x_k)


def enumerate_cluster_variables(seed, max_depth):
    """All cluster variables reachable from the seed by at most max_depth
    mutations, sorted by canonical text: the set `_reachable_variables`
    yields."""
    return sorted(set(_reachable_variables(seed, max_depth)),
                  key=lambda f: f.text())


def _reachable_variables(seed, max_depth):
    """Yield the cluster variables within max_depth mutations of seed as a
    breadth-first search over seeds reaches them: the initial cluster, then
    the new variable of each seed not seen before.  A variable is yielded
    again for each seed it is new in.

    The search visits each seed once up to relabelling (`Seed.key`).  That
    prunes nothing it must reach: mutation commutes with a permutation of
    the unfrozen labels, so the seeds a relabelled copy reaches within d
    more mutations are relabelled copies of those the first visit reaches,
    with the same cluster variables.

    It also crosses each edge of the exchange graph once.  `crossed` maps
    the key of each seen seed t to the cluster values at which mutating t
    is known to lead to a seen seed.  If mutate(s, k) is t relabelled by
    sigma, then mutating t at sigma(k), the vertex that carries
    mutate(s, k).cluster[k], gives s relabelled by sigma, because mutation
    is an involution and commutes with relabelling; so that value joins t's
    record, and t is never mutated there.  The record holds values, not
    labels, because sigma is not known; a seed's cluster variables are
    distinct, so a value names one vertex.  A new seed's record starts with
    the value of the edge it came by.  Each distinct exchange is computed
    once per call."""
    yield from seed.cluster.values()
    record = set()
    crossed = {seed.key(): record}
    exchanges = {}
    frontier = [(seed, record)]
    for _ in range(max_depth):
        next_frontier = []
        for current, skip in frontier:
            for k in current.unfrozen:
                if current.cluster[k] in skip:
                    continue
                mutated = mutate(current, k, exchanges)
                new = mutated.cluster[k]
                key = mutated.key()
                record = crossed.get(key)
                if record is None:
                    record = crossed[key] = set()
                    next_frontier.append((mutated, record))
                    yield new
                record.add(new)
        frontier = next_frontier
        if not frontier:
            break


def match_character(seed, f, max_depth):
    """True iff the Laurent polynomial f occurs among the cluster variables
    enumerated up to max_depth; the search stops at the first seed whose
    cluster holds f."""
    return f in _reachable_variables(seed, max_depth)
