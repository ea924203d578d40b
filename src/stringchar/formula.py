"""Matrix-product formulas attached to walks: the Laurent polynomial L_c,
the integer count l_c, frieze entries and the exchange-style identity
checks.

The numerator N_c of L_c is the bracket [1,1] M [1;1] of a product M of
2x2 step and vertex matrices.  `walk_numerator` evaluates it as a state
(l, r, l + r) carried along the walk: a row vector, whole after every
vertex, and its sum, so N_c is the last sum.  Each step multiplies the
row vector by one cached monomial matrix (`walk_step`), with two products
where two of its monomials are equal, one of them of the parent's sum,
and three elsewhere; one sum closes the new state.  The state's entries
are `laurent._Shifted`, each a polynomial times a pending monomial, so
each of those monomial products, at most three per step, adds two pairs
of ints and leaves the terms as they are; only the sums touch them.
`walk_numerator` builds the one `LaurentPoly` at the end, and
`walk_laurent` folds x^-dim M into the pending monomial first.
`walk_matrix` forms the full product and is kept as its oracle.  At
weight 1 that state is the transfer state (inn, out, total) of the
string diagram, so `walk_count` is the transfer product at weight 1."""

from __future__ import annotations

import weakref

from .character import StringDiagram
from .errors import QuiverError
from .laurent import LaurentPoly, Mat2, _Shifted
from .quiver import _vertex_ends


def step_matrix(q, step):
    """The 2x2 step matrix A of a (possibly inverted) arrow."""
    arrow = q.arrow(step.arrow)
    xs = LaurentPoly.var(arrow.source)
    xt = LaurentPoly.var(arrow.target)
    if step.forward:
        return Mat2(xt, 0, 1, xs)
    return Mat2(xt, 1, 0, xs)


def vertex_matrix(q, c, i):
    """Diagonal contribution of the i-th walk vertex (1-based i in
    1..length+1).  Arrows used by the walk at positions i-1 and i are
    excluded; everything else incident to v_i contributes."""
    if not 1 <= i <= c.length + 1:
        raise QuiverError(f"vertex index {i} out of range 1..{c.length + 1}")
    top, bottom = _vertex_ends(q, c.vertices[i - 1],
                               (c.step_arrow(i - 1), c.step_arrow(i)))
    return Mat2.diagonal(LaurentPoly.monomial(1, top),
                         LaurentPoly.monomial(1, bottom))


def walk_matrix(q, c):
    """The full 2x2 product V_c(1) A(c_1) V_c(2) ... A(c_n) V_c(n+1).  Its
    bracket is N_c; `walk_numerator` computes that without the matrix, and
    the tests use this product as its oracle."""
    product = vertex_matrix(q, c, 1)
    for i, step in enumerate(c.steps, start=1):
        product = product * step_matrix(q, step) * vertex_matrix(q, c, i + 1)
    return product


def walk_start(q, v):
    """The walk's state (l, r, l + r) at v: the row vector
    (l, r) = [1,1] V'(1), where V'(1) is the full vertex matrix at v, the
    monomials of every arrow out of v and into v, and its sum.  The first
    step leaves its own arrow out (`walk_step`)."""
    top, bottom = _vertex_ends(q, v)
    one = _Shifted.one()
    left = one * LaurentPoly.monomial(1, top)
    right = one * LaurentPoly.monomial(1, bottom)
    return left, right, left + right


# each quiver's dict from (step, repeat flag) to its `_step_monomials`
_step_cache = weakref.WeakKeyDictionary()


def _step_monomials(q, step, repeats):
    """The entries (a, b, d) of the monomial matrix E A V' by which a walk
    step multiplies the row vector: [[a, 0], [b, d]] for a forward step,
    [[a, b], [0, d]] for an inverse one, and whether the two entries that
    meet in one sum are equal: a == b forward, b == d inverse.  A is the
    step matrix, V' the vertex matrix where the step ends without the
    step's arrow alone, and E leaves that arrow out where the step starts,
    unless the step repeats the arrow of the step before (a backtrack, or
    a loop taken twice), whose V' has already left it out.  `walk_step`
    keeps each entry in the quiver's dict in `_step_cache`.

    On an arrow that is neither a loop nor repeated, its variables cancel:
    (a, b, d) is (T, T, B) forward and (T, B, B) inverse, with T and B
    the monomials of every arrow out of and into the end vertex, so the
    two entries are equal."""
    arrow = q.arrow(step.arrow)
    s, t = arrow.source, arrow.target
    start, end = (s, t) if step.forward else (t, s)
    top, bottom = _vertex_ends(q, end, (arrow.name,))
    # E divides the top by x_t if the arrow leaves the start, and the
    # bottom by x_s if it enters it (both for a loop)
    cut_top = not repeats and s == start
    cut_bottom = not repeats and t == start
    a = _shifted(top, t, 1 - cut_top)
    d = _shifted(bottom, s, 1 - cut_bottom)
    if step.forward:
        b = _shifted(top, s, -cut_bottom)
        return a, b, d, a == b
    b = _shifted(bottom, t, -cut_top)
    return a, b, d, b == d


def _shifted(exps, v, e):
    """The monomial x^exps x_v^e."""
    return LaurentPoly.monomial(1, {**exps, v: exps.get(v, 0) + e})


def walk_step(q, steps, state, c, i):
    """The walk's state (l, r, l + r) after its 1-based step i, from the
    state before it.  The row vector (l, r) = [1,1] V(1) A(c_1) ...
    A(c_(i-1)) V'(i) of the walk c is multiplied by E A(c_i) V'(i+1)
    (`_step_monomials`): a forward step maps it to (l a + r b, r d), an
    inverse one to (l a, l b + r d).  Where the two monomials of the
    first sum are equal, that sum is one product of the parent's l + r,
    (l + r) a or (l + r) d.  The new sum closes the state.  V'(k) is the
    vertex matrix at v_k without the arrow of step k-1 alone, and
    V'(i) E = V(i).  At the last vertex no step follows, so
    V'(n+1) = V(n+1) and N_c is the last sum.

    `steps` is q's dict in `_step_cache`; a matrix it lacks is built and
    added."""
    step = c.steps[i - 1]
    key = step, c.step_arrow(i - 1) == step.arrow
    if key not in steps:
        steps[key] = _step_monomials(q, *key)
    a, b, d, equal = steps[key]
    left, right, total = state
    if step.forward:
        left = total * a if equal else left * a + right * b
        right = right * d
    else:
        right = total * d if equal else left * b + right * d
        left = left * a
    return left, right, left + right


def walk_numerator(q, c):
    """N_c = [1,1] V_c(1) A(c_1) V_c(2) ... A(c_n) V_c(n+1) [1;1].

    The bracket is evaluated as a row vector (l, r) carried along the walk
    with its sum, from `walk_start`: each step multiplies it by one
    monomial matrix (`walk_step`), and N_c is the last sum l + r.
    """
    return _walk_sum(q, c).poly()


def _walk_sum(q, c):
    """N_c as the `laurent._Shifted` that the walk's last sum is."""
    state = walk_start(q, c.source)
    steps = _step_cache.setdefault(q, {})
    for i in range(1, c.length + 1):
        state = walk_step(q, steps, state, c, i)
    return state[2]


def walk_denominator(q, c):
    """The monomial prod of x_v over all walk vertices v_1..v_{n+1}."""
    exps = {}
    for v in c.vertices:
        exps[v] = exps.get(v, 0) + 1
    return exps


def walk_laurent(q, c):
    """L_c = N_c divided by the product of the walk-vertex variables, the
    division folded into N_c's pending key before its one `LaurentPoly` is
    built."""
    numerator = _walk_sum(q, c)
    exps = walk_denominator(q, c)
    return (numerator * LaurentPoly.monomial(
        1, {v: -e for v, e in exps.items()})).poly()


def walk_count(c):
    """l_c: the integer matrix-product count (2 for trivial walks), N_c
    with every variable set to 1.  There `walk_step` maps (l, r) to
    (l + r, r) on a forward step and to (l, l + r) on an inverse one, the
    transfer step of the string diagram on (inn, out), and both start
    from (1, 1); so l_c is the transfer product at weight 1
    (`character.StringDiagram.transfer`)."""
    return StringDiagram(c).transfer(dict.fromkeys(c.vertices, 1))


def frieze_entry(word):
    """Frieze-pattern entry of a word of frieze variables.

    word is a list of (variable, position) pairs of length >= 3; for the
    middle entries the position says whether the preceding variable sits to
    the "left" of or "below" this one in the grid, which picks the 2x2
    factor.  The positions of the first two and of the last entry are never
    consulted.
    """
    if len(word) < 3:
        raise QuiverError("a frieze word needs at least three entries")
    names = [v for v, _ in word]
    ell = len(word) - 2
    product = Mat2.identity()
    for j in range(1, ell):
        xj = LaurentPoly.var(names[j])
        xj1 = LaurentPoly.var(names[j + 1])
        position = word[j + 1][1]
        if position == "left":
            factor = Mat2(xj, 1, 0, xj1)
        elif position == "below":
            factor = Mat2(xj1, 0, 1, xj)
        else:
            raise QuiverError(
                f"position of entry {j + 2} must be 'left' or 'below', "
                f"got {position!r}")
        product = product * factor
    left, right = product.row_vec(LaurentPoly.one(),
                                  LaurentPoly.var(names[0]))
    bracket = left + right * LaurentPoly.var(names[-1])
    exps = {}
    for v in names[1:-1]:
        exps[v] = exps.get(v, 0) - 1
    return LaurentPoly.monomial(1, exps) * bracket


def coefficient_monomial(q, i, kind):
    """y_i (kind='y': frozen arrows into i) or z_i (kind='z': frozen arrows
    out of i) as a monomial in the frozen variables."""
    if kind not in ("y", "z"):
        raise ValueError(f"kind must be 'y' or 'z', got {kind!r}")
    out, into = _vertex_ends(q, i)
    ends = into if kind == "y" else out
    return LaurentPoly.monomial(1, {v: e for v, e in ends.items()
                                    if v in q.frozen})


def w_monomial(q, i):
    """w_i = y_i / z_i, the separation monomial of an unfrozen vertex."""
    y = coefficient_monomial(q, i, "y")
    z = coefficient_monomial(q, i, "z")
    return y * z ** -1


def _vector_power(q, dims, kind):
    """prod over unfrozen vertices of (y_i or z_i)^{dims[i]}."""
    result = LaurentPoly.one()
    for v in q.unfrozen_vertices:
        d = dims.get(v, 0)
        if d:
            result = result * coefficient_monomial(q, v, kind) ** d
    return result


def check_identity(kind, q, **inputs):
    """Exact check of one of the four exchange-style identities.

    kind 'L4.2a' / 'L4.3' (projective form): inputs i (unfrozen vertex),
    chars (map unfrozen vertex -> Laurent polynomial of its projective) and,
    for 'L4.2a' only, dims (dimension vector of the projective at i).

    kind 'L4.2b' / 'L4.4' (almost-split form): inputs tau_m, mid, m (the
    three Laurent polynomials), dim_tau_m and, for 'L4.2b' only, dim_m.
    """
    if kind in ("L4.2a", "L4.3"):
        i = inputs["i"]
        chars = inputs["chars"]
        unfrozen = set(q.unfrozen_vertices)
        if i not in unfrozen:
            raise QuiverError(f"vertex {i!r} is not unfrozen")
        lhs = LaurentPoly.var(i) * chars[i]
        product = coefficient_monomial(q, i, "y")
        for arrow in q.arrows_from(i):
            if arrow.target in unfrozen:
                product = product * chars[arrow.target]
        for arrow in q.arrows_to(i):
            if arrow.source in unfrozen:
                product = product * LaurentPoly.var(arrow.source)
        lhs = lhs - product
        if kind == "L4.2a":
            rhs = _vector_power(q, inputs["dims"], "z")
        else:
            rhs = LaurentPoly.one()
        return lhs == rhs
    if kind in ("L4.2b", "L4.4"):
        lhs = inputs["tau_m"] * inputs["m"] - inputs["mid"]
        rhs = _vector_power(q, inputs["dim_tau_m"], "y")
        if kind == "L4.2b":
            rhs = rhs * _vector_power(q, inputs["dim_m"], "z")
        return lhs == rhs
    raise ValueError(f"unknown identity kind {kind!r}")
