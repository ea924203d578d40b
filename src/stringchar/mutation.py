"""Seed mutation with geometric coefficients and breadth-first enumeration
of cluster variables.

The search runs on integers.  Each seed carries, besides its extended
exchange matrix and its cluster, the tropical data of its cluster against
an initial seed t0 -- the seed the family was built from, whose cluster
must be a cluster: its C-matrix, the n principal coefficient rows that
mutate by the same rule as the frozen rows, and one g-vector per unfrozen
vertex.  The g-vectors mutate at k by Fomin-Zelevinsky, Cluster algebras
IV (2007), (6.13):

    g'_k = -g_k + sum_i [b_ik]_+ g_i - sum_j [c_jk]_+ b0_j,
    g'_l = g_l for l != k,

with i over the unfrozen vertices, j over those of t0, b0_j the column j
of t0's exchange matrix and [x]_+ = max(x, 0).  The column c_k of the
C-matrix is nonzero and sign-coherent: its nonzero entries share one
sign eps_k (Derksen-Weyman-Zelevinsky, Quivers with potentials and their
representations II, 2010).  So the step needs only eps_k:

    if c_k >= 0, G B = B0 C (FZ IV, (6.14)) gives sum_j c_jk b0_j =
    sum_i b_ik g_i, and g'_k = -g_k + sum_i [-b_ik]_+ g_i;
    if c_k <= 0, the last sum is 0, and g'_k = -g_k + sum_i [b_ik]_+ g_i;

in one line, g'_k = -g_k + sum_i [-eps_k b_ik]_+ g_i (`_mutated_g`).

On a quiver a g-vector determines its cluster variable, and distinct
cluster variables have distinct g-vectors (DWZ 2010).  The g-vectors of a
seed also fix its C-matrix, by the G/C duality G^T C = I of
Nakanishi-Zelevinsky (2012), and then its unfrozen exchange matrix, by
(6.14).  So the set of g-vectors names a seed with principal coefficients
up to a permutation of its unfrozen labels (`Seed.key`), and as the
exchange graph does not depend on the coefficients (FZ IV, Conjecture
4.3, proved for skew-symmetrizable matrices by Cao-Li, 2020), it names
the same seed as the Laurent cluster does, whatever the frozen rows.  As
g'_k reads only the seed before the mutation, the search knows each
neighbour's key before it builds the neighbour, and builds only the seeds
it has not seen.  A Laurent exchange runs once per cluster variable: a
g-vector seen before gives back its polynomial."""

from __future__ import annotations

import functools
import operator

from .errors import QuiverError
from .laurent import LaurentPoly


class Seed:
    """An extended exchange matrix of ints (rows: all vertices, columns:
    unfrozen vertices) together with a cluster of Laurent polynomials in
    the initial variables.  The frozen vertices keep their initial
    variables x_i, which no seed stores: an exchange builds those it
    needs.

    A seed built here is its own initial seed t0, and its cluster must be
    a cluster: its C-matrix `c` (rows: the unfrozen vertices of t0,
    which are the seed's own unfrozen labels, as mutation keeps them;
    columns: the unfrozen vertices) is the identity and its g-vector `g[j]`
    is the unit vector of j.  Mutation carries both; nothing else of t0
    is kept, as the g-vector step reads only the sign of a column of `c`
    (see the module docstring)."""

    def __init__(self, vertices, unfrozen, b, cluster):
        self.vertices = tuple(vertices)
        self.unfrozen = tuple(unfrozen)
        for ids in (self.vertices, self.unfrozen):
            repeated = [v for n, v in enumerate(ids) if v in ids[:n]]
            if repeated:
                raise QuiverError(f"duplicate vertex id {repeated[0]!r}")
        for j in self.unfrozen:
            if j not in self.vertices:
                raise QuiverError(f"unfrozen vertex {j!r} is not a vertex")
        self.b = {}
        for entry in ((i, j) for i in self.vertices for j in self.unfrozen):
            try:
                self.b[entry] = operator.index(b[entry])
            except KeyError:
                raise QuiverError(
                    f"the exchange matrix has no entry {entry!r}") from None
            except TypeError:
                raise QuiverError(f"exchange matrix entry {entry!r} is not "
                                  f"an int: {b[entry]!r}") from None
        self.cluster = dict(cluster)
        for j, value in self.cluster.items():
            if j not in self.unfrozen:
                raise QuiverError(
                    f"cluster variable for {j!r}, which is not an unfrozen "
                    "vertex")
            if not isinstance(value, LaurentPoly):
                raise QuiverError(f"cluster variable for {j!r} is not a "
                                  f"Laurent polynomial: {value!r}")
        # a cluster's variables are distinct
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
        self.c = {(i, j): int(i == j) for i in self.unfrozen
                  for j in self.unfrozen}
        self.g = {j: tuple(int(i == j) for i in self.unfrozen)
                  for j in self.unfrozen}

    def _mutated(self, b, c, g, cluster):
        """A seed with the same vertices and initial seed; mutation keeps
        the unfrozen part skew-symmetric, so it is not checked.

        `mutate` builds seeds here rather than through `__init__`, whose
        copy of b and checks would be repeated for each of the 41 mutations
        (12 x 4 entries each) of enumerating a4dec to depth 10."""
        seed = object.__new__(type(self))
        vars(seed).update(vars(self), b=b, c=c, g=g, cluster=cluster)
        return seed

    def key(self):
        """The seed up to a permutation of its unfrozen labels: the set of
        its g-vectors.

        A g-vector names one cluster variable (DWZ 2010), and the g-vectors
        of a seed fix its C-matrix and exchange matrix (see the module
        docstring), so two seeds with the same initial seed have equal keys
        exactly when a permutation of the unfrozen labels carries one to
        the other: the exchange graph's notion of the same seed
        (Fomin-Zelevinsky, Cluster algebras I and IV).

        Keys compare only seeds with the same initial seed: every seed
        built by `Seed(...)` has the unit g-vectors, so any two of them on
        the same unfrozen vertices have equal keys, whatever their
        exchange matrices and clusters."""
        return frozenset(self.g.values())

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
    fault = q.loop_or_two_cycle()
    if fault:
        raise QuiverError(
            f"seeds need a loop- and 2-cycle-free quiver: {fault}")
    unfrozen = q.unfrozen_vertices
    b = {(i, j): q.b_entry(i, j) for i in q.vertices for j in unfrozen}
    cluster = {j: LaurentPoly.var(j) for j in unfrozen}
    return Seed(q.vertices, unfrozen, b, cluster)


def mutate(seed, k, variables=None):
    """Fomin-Zelevinsky mutation at the unfrozen vertex k, of the exchange
    matrix, the C-matrix, the g-vectors (`_mutated_g`) and the cluster.
    The exchange takes x_i for each frozen row i of column k.

    `variables`, if given, maps the g-vectors that the mutations of one
    search have met to their cluster variables.  The exchange runs only
    for a g-vector it lacks, and adds it.
    """
    if k not in seed.unfrozen:
        raise QuiverError(f"cannot mutate at {k!r}: not an unfrozen vertex")
    row = [(j, seed.b[k, j]) for j in seed.unfrozen if seed.b[k, j]]
    b, column = _mutated_rows(seed.b, seed.vertices, k, row)
    for j, bkj in row:
        b[k, j] = -bkj
    c, _column = _mutated_rows(seed.c, seed.unfrozen, k, row)
    new_g = _mutated_g(seed, k)
    variables = {} if variables is None else variables
    new = variables.get(new_g)
    if new is None:
        new = variables[new_g] = _exchange(seed.cluster[k], [
            (seed.cluster[i] if i in seed.cluster else LaurentPoly.var(i),
             bik) for i, bik in column])
    return seed._mutated(b, c, {**seed.g, k: new_g},
                         {**seed.cluster, k: new})


def _mutated_g(seed, k):
    """The g-vector g'_k that mutating seed at k gives vertex k, from
    seed's own g-vectors, column k of its exchange matrix and the sign
    eps_k of the first nonzero entry of column k of its C-matrix:
    -g_k + sum_i [-eps_k b_ik]_+ g_i (FZ IV (6.13) in the form the module
    docstring derives)."""
    for i in seed.unfrozen:
        if seed.c[i, k]:
            minus_eps = -1 if seed.c[i, k] > 0 else 1
            break
    new_g = [-e for e in seed.g[k]]
    for i in seed.unfrozen:
        bik = minus_eps * seed.b[i, k]
        if bik > 0:
            new_g = [e + bik * f for e, f in zip(new_g, seed.g[i])]
    return tuple(new_g)


def _mutated_rows(m, rows, k, row):
    """The rows `rows` of m, the exchange matrix or the C-matrix, mutated
    at k, and the nonzero (i, m_ik) of the old column k; `row` is the
    nonzero (j, b_kj) of the exchange matrix's row k.  Column k changes
    sign and m_ij gains |m_ik| b_kj where m_ik and b_kj have the same
    sign; row k of the exchange matrix is the caller's to negate."""
    column = [(i, m[i, k]) for i in rows if m[i, k]]
    m = dict(m)
    for i, mik in column:
        m[i, k] = -mik
        for j, bkj in row:
            if (mik > 0) == (bkj > 0):
                m[i, j] += abs(mik) * bkj
    return m, column


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
    again for each seed it is new in.  The g-vectors are taken against
    seed's initial seed, whose cluster must be a cluster.

    The search visits each seed once up to relabelling: seeds are keyed by
    their sets of g-vectors (`Seed.key`), which name the same seeds as
    their Laurent clusters do.  That prunes nothing it must reach: mutation
    commutes with a permutation of the unfrozen labels, so the seeds a
    relabelled copy reaches within d more mutations are relabelled copies
    of those the first visit reaches, with the same cluster variables.
    The key of a neighbour is the current key with g_k replaced by g'_k
    (`_mutated_g`), so `mutate` runs once per new seed.

    `variables` maps each g-vector met to its cluster variable, so the
    Laurent exchange runs once per new g-vector, not once per mutation."""
    yield from seed.cluster.values()
    variables = {seed.g[j]: seed.cluster[j] for j in seed.unfrozen}
    seen = {seed.key()}
    frontier = [seed]
    for _ in range(max_depth):
        next_frontier = []
        for current in frontier:
            key = current.key()
            for k in current.unfrozen:
                new_key = key - {current.g[k]} | {_mutated_g(current, k)}
                if new_key not in seen:
                    seen.add(new_key)
                    mutated = mutate(current, k, variables)
                    next_frontier.append(mutated)
                    yield mutated.cluster[k]
        frontier = next_frontier
        if not frontier:
            break


def match_character(seed, f, max_depth):
    """True iff the Laurent polynomial f occurs among the cluster variables
    enumerated up to max_depth; the search stops at the first seed whose
    cluster holds f."""
    return f in _reachable_variables(seed, max_depth)
