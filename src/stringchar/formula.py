"""Matrix-product formulas attached to walks: the Laurent polynomial L_c,
its numerator content, the integer count l_c, frieze entries and the
exchange-style identity checks.

The numerator N_c of L_c is the bracket [1,1] M [1;1] of a product M of
2x2 step and vertex matrices.  `walk_numerator` evaluates it as a row
vector carried along the walk, with three products by a cached monomial
per step (`walk_step`); `walk_matrix` forms the full product and is kept
as its oracle.  At weight 1 that row vector is the transfer state of the
string diagram, so `walk_count` is the transfer product at weight 1."""

from __future__ import annotations

import weakref

from .character import StringDiagram
from .errors import QuiverError
from .laurent import LaurentPoly, Mat2


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
    top, bottom = _vertex_monomials(q, c.vertices[i - 1], c.step_arrow(i - 1),
                                    c.step_arrow(i))[:2]
    return Mat2.diagonal(top, bottom)


def walk_matrix(q, c):
    """The full 2x2 product V_c(1) A(c_1) V_c(2) ... A(c_n) V_c(n+1).  Its
    bracket is N_c; `walk_numerator` computes that without the matrix, and
    the tests use this product as its oracle."""
    product = vertex_matrix(q, c, 1)
    for i, step in enumerate(c.steps, start=1):
        product = product * step_matrix(q, step) * vertex_matrix(q, c, i + 1)
    return product


_vertex_cache = weakref.WeakKeyDictionary()


def _vertex_monomials(q, v, before, after):
    """The diagonal (top, bottom) of the vertex matrix at v, which leaves
    out the arrows before and after of the steps on either side (None past
    an end of the walk), as monomials; when a step follows, also top x_t
    and bottom x_s for its arrow s -> t.  Built once per quiver, vertex and
    pair of excluded arrows."""
    cache = _vertex_cache.get(q)
    if cache is None:
        cache = _vertex_cache[q] = {}
    key = v, before, after
    entry = cache.get(key)
    if entry is None:
        excluded = before, after
        top, bottom = {}, {}
        for arrow in q.arrows_from(v):
            if arrow.name not in excluded:
                top[arrow.target] = top.get(arrow.target, 0) + 1
        for arrow in q.arrows_to(v):
            if arrow.name not in excluded:
                bottom[arrow.source] = bottom.get(arrow.source, 0) + 1
        entry = LaurentPoly.monomial(1, top), LaurentPoly.monomial(1, bottom)
        if after is not None:
            arrow = q.arrow(after)
            s, t = arrow.source, arrow.target
            entry += (LaurentPoly.monomial(1, {**top, t: top.get(t, 0) + 1}),
                      LaurentPoly.monomial(1, {**bottom,
                                               s: bottom.get(s, 0) + 1}))
        cache[key] = entry
    return entry


def walk_step(q, vector, c, i):
    """The row vector (l, r) times V_c(i) A(c_i) for the 1-based step i of
    the walk c.  With V_c(i) = diag(top, bottom) and the step on an arrow
    s -> t, a forward step maps it to (l top x_t + r bottom, r bottom x_s),
    an inverse one to (l top x_t, l top + r bottom x_s).  V_c(i) leaves out
    the arrows of the steps i-1 and i, so it is known only once the step
    after v_i is."""
    step = c.steps[i - 1]
    top, bottom, top_xt, bottom_xs = _vertex_monomials(
        q, c.vertices[i - 1], c.step_arrow(i - 1), step.arrow)
    left, right = vector
    if step.forward:
        return left * top_xt + right * bottom, right * bottom_xs
    return left * top_xt, left * top + right * bottom_xs


def walk_end(q, vector, c):
    """The bracket N = l top + r bottom of the row vector (l, r) of the
    walk c with its last vertex matrix and [1;1]."""
    top, bottom = _vertex_monomials(q, c.target, c.step_arrow(len(c.steps)),
                                    None)
    left, right = vector
    return left * top + right * bottom


def walk_numerator(q, c):
    """N_c = [1,1] V_c(1) A(c_1) V_c(2) ... A(c_n) V_c(n+1) [1;1].

    The bracket is evaluated as a row vector (l, r) carried along the walk
    from [1,1]: each step multiplies it by the vertex matrix where the step
    starts and by the step matrix (`walk_step`), and N_c is the bracket with
    the last vertex matrix (`walk_end`).
    """
    vector = 1, 1
    for i in range(1, c.length + 1):
        vector = walk_step(q, vector, c, i)
    return walk_end(q, vector, c)


def walk_denominator(q, c):
    """The monomial prod of x_v over all walk vertices v_1..v_{n+1}."""
    exps = {}
    for v in c.vertices:
        exps[v] = exps.get(v, 0) + 1
    return exps


def walk_laurent(q, c):
    """L_c = N_c divided by the product of the walk-vertex variables."""
    numerator = walk_numerator(q, c)
    exps = walk_denominator(q, c)
    return numerator * LaurentPoly.monomial(1, {v: -e for v, e in exps.items()})


def numerator_normalisation(q, c):
    """The exponent vector eta_c of the maximal monomial dividing N_c."""
    eta, _rest = walk_numerator(q, c).monomial_content()
    return eta


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
    if kind == "y":
        ends = [arrow.source for arrow in q.arrows_to(i)]
    elif kind == "z":
        ends = [arrow.target for arrow in q.arrows_from(i)]
    else:
        raise ValueError(f"kind must be 'y' or 'z', got {kind!r}")
    exps = {}
    for v in ends:
        if v in q.frozen:
            exps[v] = exps.get(v, 0) + 1
    return LaurentPoly.monomial(1, exps)


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
