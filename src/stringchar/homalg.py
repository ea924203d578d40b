"""Homological algebra over monomial bound quiver algebras: projective
covers via path bases, Hom by exact elimination, Euler forms from the
relation complex, Ext^1 as Hom minus the Euler form, and rigidity; and, in
one pass over a string with no linear algebra, the pairings of its module
with the simples and its normalising vector."""

from __future__ import annotations

import weakref

from . import exactmat
from .errors import PathLimitExceeded
from .quiver import Representation, _walks, ensure_string, support_closure

_finite = weakref.WeakSet()


def _require_finite(q):
    """Raise PathLimitExceeded unless the path algebra of q is finite
    dimensional; the verdict is kept per quiver.

    A relation-avoiding path is in one of fewer than `bound` states of the
    relation-matching automaton (its end vertex and the longest proper
    relation prefix it ends in), so one of length `bound` can be pumped
    forever.  Its extensions depend on its state alone, so the states and
    start vertices, not the paths, are grown for `bound` rounds."""
    if q in _finite:
        return
    bound = len(q.vertices) + sum(len(r) for r in q.relations)
    prefixes = {rel[:k] for rel in q.relations for k in range(1, len(rel))}
    frontier = {(v, v, ()) for v in q.vertices}
    for _length in range(bound):
        grown = set()
        for start, end, tail in frontier:
            for arrow in q.arrows_from(end):
                longer = tail + (arrow.name,)
                if any(longer[-len(rel):] == rel for rel in q.relations):
                    continue
                # its longest suffix that is a proper relation prefix
                grown.add((start, arrow.target,
                           next((longer[k:] for k in range(len(longer))
                                 if longer[k:] in prefixes), ())))
        frontier = grown
    if frontier:
        starts = {start for start, _end, _tail in frontier}
        start = next(v for v in q.vertices if v in starts)
        raise PathLimitExceeded(
            f"a path of length {bound} from vertex {start!r} avoids every "
            "relation, so the algebra is infinite dimensional")
    _finite.add(q)


class PathBasis:
    """For each vertex, the paths starting there that avoid every relation
    subpath; these index a basis of the indecomposable projective.  They
    stop growing because the algebra is finite (`_require_finite`)."""

    def __init__(self, q):
        _require_finite(q)
        self.targets = {name: arrow.target for name, arrow in q.arrows.items()}
        self.paths = {v: [()] for v in q.vertices}
        relations = set(q.relations)
        frontier = {v: [()] for v in q.vertices}
        while any(frontier.values()):
            new_frontier = {v: [] for v in q.vertices}
            for v, paths in frontier.items():
                for path in paths:
                    end = q.arrow(path[-1]).target if path else v
                    for arrow in q.arrows_from(end):
                        longer = path + (arrow.name,)
                        # path avoids every relation, so only a window
                        # ending at the new arrow can spell one
                        if any(longer[-len(rel):] == rel
                               for rel in relations):
                            continue
                        new_frontier[v].append(longer)
                        self.paths[v].append(longer)
            frontier = new_frontier

    def path_end(self, v, path):
        return self.targets[path[-1]] if path else v


def hom_dim(q, m, n):
    """dim Hom(m, n): solution space of the commuting squares, exactly."""
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    rows = []
    for name, arrow in q.arrows.items():
        s, t = arrow.source, arrow.target
        ma, na = m.mats[name], n.mats[name]
        # equations: f_t m(a) - n(a) f_s = 0, one per (i < dim n(t), j < dim m(s))
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [0] * total
                for k in range(m.dims[t]):
                    row[offsets[t] + i * m.dims[t] + k] += ma[k][j]
                for k in range(n.dims[s]):
                    row[offsets[s] + k * m.dims[s] + j] -= na[i][k]
                rows.append(row)
    return total - exactmat.rank(rows, total)


def _top_generators(q, m):
    """One generating vector of m per top basis element, grouped by vertex."""
    generators = []
    for v in q.vertices:
        d = m.dims[v]
        if d == 0:
            continue
        radical_vectors = []
        for arrow in q.arrows_to(v):
            mat = m.mats[arrow.name]
            for j in range(m.dims[arrow.source]):
                radical_vectors.append([mat[i][j] for i in range(d)])
        # the standard basis vectors off the pivots of rad(m)(v) extend a
        # basis of it to one of m(v)
        _rows, pivots = exactmat.rref(radical_vectors, d)
        for k in range(d):
            if k not in pivots:
                generators.append((v, [int(i == k) for i in range(d)]))
    return generators


def projective_cover_data(q, m):
    """A projective surjection p: P -> m built from top(m).

    Returns (P as a representation, per-vertex matrices of p).
    """
    basis = PathBasis(q)
    generators = _top_generators(q, m)
    labels = {v: [] for v in q.vertices}
    for g, (v, _vec) in enumerate(generators):
        for path in basis.paths[v]:
            labels[basis.path_end(v, path)].append((g, path))
    index = {v: {lab: i for i, lab in enumerate(labs)}
             for v, labs in labels.items()}
    dims = {v: len(labs) for v, labs in labels.items()}
    mats = {}
    for name, arrow in q.arrows.items():
        mat = exactmat.zeros(dims[arrow.target], dims[arrow.source])
        tgt_index = index[arrow.target]
        for (g, path), j in index[arrow.source].items():
            longer = (g, path + (name,))
            if longer in tgt_index:
                mat[tgt_index[longer]][j] = 1
        mats[name] = mat
    cover = Representation(q, dims, mats)
    proj = {}
    for v in q.vertices:
        mat = exactmat.zeros(m.dims[v], dims[v])
        for (g, path), j in index[v].items():
            start, vec = generators[g]
            if path:
                vec = exactmat.mat_vec(m.path_matrix(path), vec)
            for i, x in enumerate(vec):
                mat[i][j] = x
        proj[v] = mat
    return cover, proj


def ext1_dim(q, m, n):
    """dim Ext^1(m, n) = dim Hom(m, n) - <m, n>."""
    return hom_dim(q, m, n) - euler_form(q, m, n)


def euler_form(q, m, n):
    """The truncated Euler form <m,n> = dim Hom(m,n) - dim Ext^1(m,n), from
    the relation complex.

    An extension of m by n is a choice of f_a: m(s(a)) -> n(t(a)) per arrow
    a, allowed when every relation still composes to zero on the direct sum
    of n and m.  On the relation a_1 ... a_k that composite is the linear map
    d1(f) = sum_l n(a_{l+1} ... a_k) f_{a_l} m(a_1 ... a_{l-1}).  The split
    extensions are the f_a = g_t m(a) - n(a) g_s for vertex maps g, a space
    of dimension sum_v dim m(v) dim n(v) - dim Hom(m, n).  So the Hom terms
    cancel, leaving sum_v dim m(v) dim n(v) minus the dimension of the arrow
    maps plus the rank of d1.
    """
    # only finite-dimensional algebras are in scope
    _require_finite(q)
    offsets = {}
    total = 0
    for name, arrow in q.arrows.items():
        offsets[name] = total
        total += n.dims[arrow.target] * m.dims[arrow.source]
    rows = []
    for rel in q.relations:
        source, target = q.arrows[rel[0]].source, q.arrows[rel[-1]].target
        if not m.dims[source] or not n.dims[target]:
            # d1 maps into Hom(m(source), n(target)), which is zero
            continue
        block = [[[0] * total for _j in range(m.dims[source])]
                 for _i in range(n.dims[target])]
        # prefixes[l] = m(a_1 ... a_l) by columns, one per j < dim m(source)
        prefixes = [[[int(i == j) for i in range(m.dims[source])]
                     for j in range(m.dims[source])]]
        for name in rel[:-1]:
            prefixes.append([exactmat.mat_vec(m.mats[name], col)
                             for col in prefixes[-1]])
        # suffix = n(a_{l+2} ... a_k) while rel[l] = a_{l+1} is paired, by
        # rows, one per i < dim n(target)
        suffix = [[int(i == j) for j in range(n.dims[target])]
                  for i in range(n.dims[target])]
        for l in reversed(range(len(rel))):
            name = rel[l]
            arrow = q.arrows[name]
            width = m.dims[arrow.source]
            for i, left in enumerate(suffix):
                for j, right in enumerate(prefixes[l]):
                    row = block[i][j]
                    for p, x in enumerate(left):
                        if x:
                            base = offsets[name] + p * width
                            for k, y in enumerate(right):
                                row[base + k] += x * y
            suffix = exactmat.mat_mul(suffix, n.mats[name],
                                      n.dims[arrow.source])
        rows.extend(row for line in block for row in line)
    return sum(m.dims[v] * n.dims[v] for v in q.vertices) - total + \
        exactmat.rank(rows, total)


def euler_forms(q, m, n):
    """(truncated form <m,n>, anti-symmetrised form <m,n>_a)."""
    forward = euler_form(q, m, n)
    return forward, forward - euler_form(q, n, m)


def is_rigid(q, m):
    return ext1_dim(q, m, m) == 0


def simple_pairings(q, c):
    """The truncated Euler forms of the string module M of c with every
    simple, counted on the string: ({i: <S_i,M>}, {i: <M,S_i>}).

    Over a monomial algebra the simple S_i has the projective presentation
    P_i <- (+)_{a: i -> j} P_j <- (+)_{relations a p} P_t(p), so
    <S_i,M> = dim M_i - sum_a dim M_t(a) + rank d, where d sends an element
    m of M at the end of a to p m, one block per relation a p.  On a string
    module an arrow takes a position to at most one position, and no two
    positions to the same one, so every row of d has at most one nonzero
    entry, and its rank is the number of pairs (a, k) such that the rest p
    of some relation a p walks on from the position k.  Hence

        <S_i,M> = dim M_i - sum_{a: i -> j} dim M_j + ahead[i],
        ahead[i] = #{(a, k) : a: i -> label(k), and the rest p of some
                   relation a p walks forward from k},

    and, over the opposite algebra,

        <M,S_i> = dim M_i - sum_{a: j -> i} dim M_j + behind[i],
        behind[i] = #{(a, k) : a: label(k) -> i, and some relation p a has
                    p walking backward from k}.

    Only the two relation counts depend on the shape of the string.
    """
    return _string_pass(q, ensure_string(q, c)).pairings(q)


def normalisation_vector(q, c):
    """The per-vertex normalisation of a string module M, supported on the
    closure of its support (the support and its one-arrow neighbours).

    Its entry at i is the truncated pairing <S_i,M> minus the hereditary
    pairing of the simple fibres over i with the spine module of the
    blow-up of q along c (`quiver.blow_up`).  The spine module is 1 on the
    spine and 0 on the frozen pendants, so that pairing has a closed form:
    the spine vertex over a position k adds 1 - (spine steps leaving k),
    and each in-pendant (an arrow into label(k) that neither step at k
    uses) adds -1.  Summed over the positions labelled i, the spine steps
    leaving them are the steps whose arrow starts at i.  Of the
    sum_{a: i -> j} dim M_j pairs (a, k) with a: i -> label(k), the steps
    use one per step whose arrow starts at i, at the position the arrow
    enters, and one more per step on a loop at i, at the position it
    leaves, unless the step before entered there on the same loop.  So
    with l_i the runs a a ... a and a^-1 a^-1 ... a^-1 of c on single
    loops a at i, that pairing is dim M_i - sum_{a: i -> j} dim M_j + l_i,
    and with `simple_pairings`

        n_i = ahead[i] - l_i,

    so n is 0 over a relation-free loop-free quiver, where X_M = L_c.  No
    blow-up is built.
    """
    return _string_pass(q, ensure_string(q, c)).normaliser(q, c)


def _string_pass(q, c):
    """The `_StringCounts` of the string c on q: one pass over its
    positions, once the algebra is known to be finite dimensional
    (`_require_finite`), the only algebras in scope."""
    _require_finite(q)
    return _PositionCount(q).count(c)


class _StringCounts:
    """Sums over the positions of a string, per vertex i of the quiver:
    `dims` dim M_i, and the relation counts `ahead` and `behind` of
    `simple_pairings`.  Both pairings, the normalising vector and the K0
    check are read off these three; the counts are 0 off the closure of
    the support (`quiver.support_closure`), where n lives."""

    __slots__ = ("dims", "ahead", "behind")

    def __init__(self, q):
        self.dims = dict.fromkeys(q.vertices, 0)
        self.ahead = dict(self.dims)
        self.behind = dict(self.dims)

    def arrow_sums(self, q, into=False):
        """{i: sum_{a: i -> j} dim M_j}, the vector A dim M with A_ij the
        arrows i -> j; with into, over the arrows j -> i instead."""
        sums = dict.fromkeys(self.dims, 0)
        for arrow in q.arrows.values():
            i, j = ((arrow.target, arrow.source) if into
                    else (arrow.source, arrow.target))
            sums[i] += self.dims[j]
        return sums

    def pairings(self, q):
        """simple_pairings: ({i: <S_i,M>}, {i: <M,S_i>})."""
        out, into = self.arrow_sums(q), self.arrow_sums(q, into=True)
        return ({i: d - out[i] + self.ahead[i] for i, d in self.dims.items()},
                {i: d - into[i] + self.behind[i]
                 for i, d in self.dims.items()})

    def normaliser(self, q, c):
        """normalisation_vector: ahead - l on the closure of the support,
        l_i the runs of the string c on single loops at i."""
        closure = support_closure(q, {i for i, d in self.dims.items() if d})
        vector = {i: self.ahead[i] for i in q.vertices if i in closure}
        previous = None
        for step in c.steps:
            arrow = q.arrow(step.arrow)
            if arrow.source == arrow.target and arrow.name != previous:
                vector[arrow.source] -= 1
            previous = arrow.name
        return vector


class _PositionCount:
    """The `_StringCounts` of strings on q, each from one pass over its
    positions; built once per quiver, so a sweep over many strings reads
    the relations once.  Whether the rest of a relation walks on from a
    position is `quiver._walks`, the test by which `extension_violation`
    reads a relation along a string."""

    def __init__(self, q):
        # the rest of each relation after its first arrow, and before its
        # last arrow read backwards; only the arrows that begin or end a
        # relation add to a relation count
        after, before = {}, {}
        for rel in q.relations:
            after.setdefault(rel[0], []).append(rel[1:])
            before.setdefault(rel[-1], []).append(rel[-2::-1])
        self.into = {v: [(a.source, after[a.name]) for a in q.arrows_to(v)
                         if a.name in after] for v in q.vertices}
        self.out_of = {v: [(a.target, before[a.name])
                           for a in q.arrows_from(v) if a.name in before]
                       for v in q.vertices}
        self.quiver = q

    def count(self, c):
        """A fresh `_StringCounts` of the string c."""
        steps = c.steps
        counts = _StringCounts(self.quiver)
        dims, ahead, behind = counts.dims, counts.ahead, counts.behind
        for k, v in enumerate(c.vertices):
            dims[v] += 1
            for source, rests in self.into[v]:
                if any(_walks(steps, k, p, True) for p in rests):
                    ahead[source] += 1
            for target, rests in self.out_of[v]:
                if any(_walks(steps, k, p, False) for p in rests):
                    behind[target] += 1
        return counts
