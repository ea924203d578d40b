"""Constructions that only the tests run: the slow routes that check what
the package computes another way.

- The blow-up route: `closure_and_border` of a representation, the
  preimages of a `Winding`, and `pushforward` along one, which sums the
  fibres of the spine module back to the string module.
- The projective route: `projective`, block `direct_sum` and `set_block`.
- The hereditary Euler form, against which the relation-complex form and
  the principal-coefficient character are checked.
- `numerator_normalisation`, the exponents of the largest monomial that
  divides the walk numerator, from `monomial_content`.
- The Laurent-keyed search: the cluster-variable search with seeds keyed
  by their Laurent clusters (`laurent_key`) instead of their g-vectors.
"""

from stringchar import exactmat
from stringchar.errors import QuiverError
from stringchar.formula import walk_numerator
from stringchar.homalg import projective_cover_data
from stringchar.laurent import LaurentPoly
from stringchar.mutation import mutate
from stringchar.quiver import Representation, Winding, simple, \
    support_closure


# -- the blow-up route ----------------------------------------------------------

def closure_and_border(q, rep):
    """Full subquiver on the closure of the support of rep, and the border
    (closure minus support)."""
    support = rep.support()
    closure = support_closure(q, support)
    return q.full_subquiver(closure), frozenset(closure - support)


def is_blown_up(q):
    """True iff every frozen vertex of q meets at most one arrow."""
    return all(len(q.arrows_from(v)) + len(q.arrows_to(v)) <= 1
               for v in q.frozen)


def identity_winding(q):
    return Winding(q, q, {v: v for v in q.vertices},
                   {a: a for a in q.arrows})


def vertex_preimages(phi, v):
    return sorted(w for w, img in phi.vertex_map.items() if img == v)


def arrow_preimages(phi, name):
    return sorted(b for b, img in phi.arrow_map.items() if img == name)


def pushforward(phi, rep):
    """Direct sum of fibres: block matrices in the sorted preimage order."""
    if rep.quiver is not phi.source:
        rep = Representation(phi.source, rep.dims, rep.mats)
    offsets = {}
    dims = {}
    for v in phi.target.vertices:
        offset = 0
        for w in vertex_preimages(phi, v):
            offsets[w] = offset
            offset += rep.dims[w]
        dims[v] = offset
    mats = {}
    for name, arrow in phi.target.arrows.items():
        block = exactmat.zeros(dims[arrow.target], dims[arrow.source])
        for b in arrow_preimages(phi, name):
            src = phi.source.arrow(b)
            set_block(block, rep.mats[b], offsets[src.target],
                      offsets[src.source])
        mats[name] = block
    return Representation(phi.target, dims, mats)


# -- the projective route -------------------------------------------------------

def set_block(m, sub, row, col):
    """Copy the matrix sub into m with its top-left entry at (row, col)."""
    for i, line in enumerate(sub, start=row):
        m[i][col:col + len(line)] = line


def projective(q, v):
    """The indecomposable projective at v: the projective cover of the
    simple at v."""
    cover, _proj = projective_cover_data(q, simple(q, v))
    return cover


def direct_sum(q, *reps):
    """Block-diagonal direct sum of representations of the same quiver."""
    dims = {v: sum(r.dims[v] for r in reps) for v in q.vertices}
    mats = {}
    for name, arrow in q.arrows.items():
        block = exactmat.zeros(dims[arrow.target], dims[arrow.source])
        r0 = c0 = 0
        for rep in reps:
            set_block(block, rep.mats[name], r0, c0)
            r0 += rep.dims[arrow.target]
            c0 += rep.dims[arrow.source]
        mats[name] = block
    return Representation(q, dims, mats)


# -- the hereditary form and the numerator content -----------------------------

def hereditary_euler(q, d, e):
    """Euler form of an acyclic relation-free quiver on dimension vectors."""
    if q.relations:
        raise QuiverError("hereditary Euler form needs a relation-free quiver")
    if not q.is_acyclic():
        raise QuiverError("hereditary Euler form needs an acyclic quiver")
    value = sum(d.get(v, 0) * e.get(v, 0) for v in q.vertices)
    for arrow in q.arrows.values():
        value -= d.get(arrow.source, 0) * e.get(arrow.target, 0)
    return value


def monomial_content(f):
    """Write f = x^eta * P with P not divisible by any variable.

    Requires a nonzero honest polynomial (no negative exponents).  Returns
    (eta as a dict sorted by variable, with no zero exponent, and P).
    """
    if f.is_zero():
        raise ValueError("monomial content of the zero polynomial")
    terms = [exps for exps, _coeff in f.monomials()]
    lows = {v: min(exps.get(v, 0) for exps in terms)
            for v in sorted({v for exps in terms for v in exps})}
    if any(e < 0 for e in lows.values()):
        raise ValueError("monomial content requires nonnegative exponents")
    eta = {v: e for v, e in lows.items() if e}
    return eta, f.exact_div(LaurentPoly.monomial(1, eta))


def numerator_normalisation(q, c):
    """The exponent vector eta_c of the maximal monomial dividing N_c."""
    eta, _rest = monomial_content(walk_numerator(q, c))
    return eta


# -- the Laurent-keyed search --------------------------------------------------

def laurent_key(seed):
    """The seed up to a permutation of its unfrozen labels, named by its
    Laurent cluster: the set of cluster variables with the set of (row
    name, column name, b_ij) over the nonzero entries, each unfrozen row
    and column named by its cluster variable and each frozen row by its
    vertex id."""
    values = seed.cluster
    return frozenset(values.values()), frozenset(
        (values.get(i, i), values[j], bij)
        for (i, j), bij in seed.b.items() if bij)


def laurent_keyed_search(seed, max_depth):
    """`mutation._reachable_variables` as a plain breadth-first search
    with seeds keyed by `laurent_key`: every seed it reaches is mutated at
    every unfrozen vertex, each mutation computing its exchange afresh.
    Returns the variables in the order it yields them."""
    found = list(seed.cluster.values())
    seen = {laurent_key(seed)}
    frontier = [seed]
    for _ in range(max_depth):
        next_frontier = []
        for current in frontier:
            for k in current.unfrozen:
                mutated = mutate(current, k)
                key = laurent_key(mutated)
                if key not in seen:
                    seen.add(key)
                    next_frontier.append(mutated)
                    found.append(mutated.cluster[k])
        frontier = next_frontier
    return found
