"""Seed mutation with geometric coefficients and breadth-first enumeration
of cluster variables."""

from __future__ import annotations

from .errors import QuiverError
from .laurent import LaurentPoly


class Seed:
    """An extended exchange matrix (rows: all vertices, columns: unfrozen
    vertices) together with a cluster of Laurent polynomials in the initial
    variables."""

    def __init__(self, vertices, unfrozen, b, cluster):
        self.vertices = tuple(vertices)
        self.unfrozen = tuple(unfrozen)
        self.b = dict(b)
        self.cluster = dict(cluster)
        for j in self.unfrozen:
            for i in self.unfrozen:
                if self.b[i, j] != -self.b[j, i]:
                    raise QuiverError(
                        "the unfrozen part of the exchange matrix must be "
                        "skew-symmetric")

    def key(self):
        # the cluster variables of a seed are distinct
        matrix = tuple(self.b[i, j] for i in self.vertices
                       for j in self.unfrozen)
        return frozenset(self.cluster.values()), matrix

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


def mutate(seed, k):
    """Fomin-Zelevinsky mutation at the unfrozen vertex k."""
    if k not in seed.unfrozen:
        raise QuiverError(f"cannot mutate at {k!r}: not an unfrozen vertex")
    b = {}
    for (i, j), value in seed.b.items():
        if i == k or j == k:
            b[i, j] = -value
        else:
            bik = seed.b[i, k]
            bkj = seed.b.get((k, j), 0)
            sign = (bik > 0) - (bik < 0)
            b[i, j] = value + sign * max(bik * bkj, 0)
    plus = LaurentPoly.one()
    minus = LaurentPoly.one()
    for i in seed.vertices:
        e = seed.b[i, k]
        value = seed.cluster[i] if i in seed.cluster else LaurentPoly.var(i)
        if e > 0:
            plus = plus * value ** e
        elif e < 0:
            minus = minus * value ** (-e)
    cluster = dict(seed.cluster)
    # the Laurent phenomenon guarantees exact divisibility here; a
    # NotDivisible escaping this call is a correctness bug, not bad input
    cluster[k] = (plus + minus).exact_div(seed.cluster[k])
    return Seed(seed.vertices, seed.unfrozen, b, cluster)


def enumerate_cluster_variables(seed, max_depth):
    """All cluster variables reachable from the seed by at most max_depth
    mutations, sorted by canonical text."""
    seen_seeds = {seed.key()}
    variables = {seed.cluster[j] for j in seed.unfrozen}
    frontier = [seed]
    for _ in range(max_depth):
        next_frontier = []
        for current in frontier:
            for k in current.unfrozen:
                mutated = mutate(current, k)
                key = mutated.key()
                if key in seen_seeds:
                    continue
                seen_seeds.add(key)
                variables.update(mutated.cluster[j] for j in mutated.unfrozen)
                next_frontier.append(mutated)
        frontier = next_frontier
        if not frontier:
            break
    return sorted(variables, key=lambda f: f.text())


def match_character(seed, f, max_depth):
    """True iff f occurs among the cluster variables enumerated up to
    max_depth."""
    return any(f == g for g in enumerate_cluster_variables(seed, max_depth))
