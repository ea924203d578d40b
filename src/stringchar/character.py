"""Cluster characters and submodule counts of string modules, all from one
weighted transfer product over the string diagram
(`StringDiagram.transfer`), and the separation map.  The exponents of a submodule are pairings with the
simples, affine in its dimension vector (Palu 2008), so the character is
the transfer product with each label j weighted by a fixed monomial w_j,
times one monomial.  The principal-coefficient character is the character
over the principal extension (Fomin-Zelevinsky, Cluster algebras IV)."""

from __future__ import annotations

from .errors import K0IllDefined, NotSubtractionFree, QuiverError, \
    UnfrozenViolation
from .homalg import _string_pass
from .laurent import LaurentPoly
from .quiver import _vertex_ends, ensure_string, principal_extension


class StringDiagram:
    """The order diagram of a string: positions 1..n+1 labelled by walk
    vertices, one oriented edge per step (forward points i -> i+1, inverse
    points i+1 -> i).  Submodules correspond to the successor-closed
    position subsets, which `transfer` sums along the positions."""

    def __init__(self, c):
        self.labels = c.vertices
        self.edges = []
        for i, step in enumerate(c.steps, start=1):
            self.edges.append((i, i + 1) if step.forward else (i + 1, i))

    def transfer(self, weight):
        """The sum, over the successor-closed position subsets S, of the
        product of weight[label(k)] over the positions k in S; the weights
        may be ints or Laurent polynomials.

        A two-state product (`transfer_step`); at the first position the
        closed subsets are the empty one and the one containing it."""
        w = [weight[v] for v in self.labels]
        state = 1, w[0], 1 + w[0]
        for (p, q), w_next in zip(self.edges, w[1:]):
            state = transfer_step(state, p < q, w_next)
        return state[2]

    def submodule_counts(self):
        """Submodule count by dimension vector, the dimension vector keyed
        as its (vertex, dim) pairs sorted by vertex: the monomials of the
        transfer product in the label variables."""
        x = {v: LaurentPoly.var(v) for v in self.labels}
        return {tuple(exps.items()): count
                for exps, count in self.transfer(x).monomials()}


def transfer_step(state, forward, weight):
    """The transfer state of a string extended by one step to a position
    of the given weight.  The state (out, inn, total) sums the closed
    subsets of the positions 1..k: those that leave out position k, those
    that contain it, and all of them; at k = 1 it is (1, w, 1 + w).  The
    step is forward if it points from k to k+1."""
    out, inn, total = state
    if forward:
        # a subset containing k must contain k+1
        inn = total * weight
        return out, inn, out + inn
    # a subset containing k+1 must contain k
    inn = inn * weight
    return total, inn, total + inn


def gr_euler(c, e):
    """Number of submodules of the string module of c with dim vector e:
    a coefficient of the transfer product in the label variables."""
    c = ensure_string(c.quiver, c)
    x = {v: LaurentPoly.var(v) for v in c.vertices}
    return StringDiagram(c).transfer(x).coefficient(e)


def total_gr_euler(c):
    """Total submodule count of the string module of c: the transfer
    product with every weight 1."""
    c = ensure_string(c.quiver, c)
    return StringDiagram(c).transfer(dict.fromkeys(c.vertices, 1))


def cluster_character(q, c):
    """The cluster character of the string module of c over the ice quiver
    q, as a Laurent polynomial in the variables of all vertices of q: the
    transfer product at the `_weights` times x^-<S_.,M>, the pairings from
    one pass over the string (`homalg._string_pass`)."""
    _require_loop_free(q)
    c = ensure_string(q, c)
    frozen = set(c.vertices) & q.frozen
    if frozen:
        raise UnfrozenViolation(
            f"the string {c} touches the frozen vertices {sorted(frozen)}")
    counts = _string_pass(q, c)
    _check_descent(q, c, counts)
    return _character(q, counts, StringDiagram(c).transfer(_weights(q)))


def _require_loop_free(q):
    fault = q.loop_or_two_cycle()
    if fault:
        raise QuiverError("cluster characters need a loop- and 2-cycle-free "
                          f"quiver: {fault}")


def _weights(q):
    """The transfer weight of each vertex j, w_j = prod_{a: j -> t} x_t /
    prod_{a: s -> j} x_s, the column of -b at j.

    Ext^1(S_i,S_j) counts the arrows i -> j over an admissible monomial
    ideal, so the anti-symmetrised form on simples is <S_i,S_j>_a = -b_ij,
    the exponent of x_i in w_j.  The exponent of x_i at a submodule of
    dimension vector e, sum_j e_j <S_i,S_j>_a - <S_i,M>, is thus its
    exponent in prod_j w_j^e_j * x^-<S_.,M>."""
    weight = {}
    for j in q.vertices:
        out, into = _vertex_ends(q, j)
        out.subtract(into)
        weight[j] = LaurentPoly.monomial(1, out)
    return weight


def _check_descent(q, c, counts):
    """Raise K0IllDefined unless <S_i,M> - <M,S_i>, from the
    `_StringCounts` of the string c, is the anti-symmetrised pairing of
    S_i with dim M for every vertex i.  The dimension terms of the two
    pairings (`simple_pairings`) give that pairing exactly, so it holds
    where the relation counts `ahead` and `behind` agree: one comparison
    of the two dicts, with a loop over the vertices only to name the
    first at fault."""
    # only the anti-symmetrised pairing is ever applied to a bare
    # dimension class, so that is the descent we must insist on
    if counts.ahead == counts.behind:
        return
    i = next(i for i in q.vertices if counts.ahead[i] != counts.behind[i])
    raise K0IllDefined(
        f"the anti-symmetrised pairing with the simple at {i!r} does not "
        f"descend to the dimension vector of {c}")


def _character(q, counts, transfer):
    """The character from the transfer product at the `_weights` and the
    `_StringCounts` of the string: transfer * x^-<S_.,M>."""
    forward, _backward = counts.pairings(q)
    return transfer * LaurentPoly.monomial(
        1, {i: -e for i, e in forward.items()})


def pp_character(q, c):
    """The principal-coefficient character over an acyclic relation-free
    quiver, in the initial variables and the frozen variables i': the
    cluster character of the string over the principal extension of q."""
    if q.relations or not q.is_acyclic():
        raise QuiverError("principal-coefficient characters need an acyclic "
                          "relation-free quiver")
    if q.frozen:
        raise QuiverError("the input quiver must have no frozen vertices; "
                          "the principal extension is added internally")
    ext = principal_extension(q)
    return cluster_character(ext, c)


def separate(f, w):
    """Separation of a subtraction-free Laurent polynomial: substitute each
    coefficient variable by its w-monomial and divide by the tropical
    evaluation of the result."""
    if not f.is_nonnegative():
        raise NotSubtractionFree(f"{f} has a negative coefficient")
    assignment = {}
    w_exps = {}
    for var, mono in w.items():
        if not isinstance(mono, LaurentPoly):
            mono = LaurentPoly.monomial(1, mono)
        unit = mono.as_unit()
        if unit is None or unit[0] != 1:
            raise NotSubtractionFree(
                f"the separation monomial for {var!r} must be a monomial "
                f"with coefficient 1, got {mono}")
        assignment[var] = mono
        w_exps[var] = unit[1]
    mins = None
    for f_exps, _coeff in f.monomials():
        exps = {}
        for var, e in f_exps.items():
            if var in w_exps:
                for target, k in w_exps[var].items():
                    exps[target] = exps.get(target, 0) + e * k
        if mins is None:
            mins = exps
        else:
            mins = {v: min(mins.get(v, 0), exps.get(v, 0))
                    for v in set(mins) | set(exps)}
    numerator = f.substitute(assignment)
    return numerator * LaurentPoly.monomial(
        1, {v: -e for v, e in (mins or {}).items()})


def pp_variable_map(q_decorated, q_plain):
    """Separation data for a plain quiver against its decorated original:
    maps each principal-extension variable i' to the monomial w_i of the
    decorated ice quiver."""
    from .formula import w_monomial
    return {f"{i}'": w_monomial(q_decorated, i)
            for i in q_plain.vertices}
