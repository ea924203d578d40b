"""Acceptance sweep: ten end-to-end checks, each one test so the verbose
run prints one pass/fail line per criterion.  All equalities are exact."""

from stringchar import LaurentPoly, Mat2, Walk, check_identity, \
    cluster_character, enumerate_cluster_variables, enumerate_strings, \
    gr_euler, is_rigid, match_character, mutate, normalisation_vector, \
    pp_character, pp_variable_map, principal_extension, \
    seed_from_ice_quiver, separate, string_module, total_gr_euler, \
    walk_count, walk_laurent, walk_numerator
from stringchar.quiver import BoundIceQuiver, blow_up

from conftest import load
from oracles import numerator_normalisation, pushforward


def var(v, power=1):
    return LaurentPoly.var(v, power)


def mono(exps):
    return LaurentPoly.monomial(1, exps)


def test_01_diamond_walk_laurent_matches_known_expansion():
    q = load("diamond5")
    c = Walk.parse(q, "delta^-1 beta gamma")
    numerator = (
        mono({"1": 1, "2": 3, "4": 2})
        + 2 * mono({"1": 1, "2": 2, "4": 1, "5": 1})
        + mono({"1": 1, "2": 1, "3": 1, "4": 1, "5": 1})
        + mono({"3": 2, "4": 1, "5": 2})
        + mono({"1": 1, "2": 1, "5": 2})
        + mono({"1": 1, "3": 1, "5": 2}))
    assert walk_laurent(q, c) == numerator * mono({"2": -1, "3": -2, "4": -1})


def test_02_three_vertex_ice_quiver_sweep():
    q = load("a2ice")
    x1, x2, x3 = var("1"), var("2"), var("3")
    s1, s2, p1 = (Walk.parse(q, t) for t in ("e(1)", "e(2)", "alpha"))
    assert walk_laurent(q, s1) == (x2 + x3) * x1 ** -1
    assert walk_laurent(q, s2) == (x1 + x3) * x2 ** -1
    assert walk_laurent(q, p1) == x3 * (x1 + x2 + x3) * (x1 * x2) ** -1
    assert normalisation_vector(q, p1) == {"1": 0, "2": 0, "3": 1}
    x_p1 = cluster_character(q, p1)
    assert x_p1 == (x1 + x2 + x3) * (x1 * x2) ** -1
    assert match_character(seed_from_ice_quiver(q), x_p1, 6)


def test_03_character_times_normalisation_equals_walk_laurent():
    names = ["a2ice", "dcyclic3", "dcyclic4", "dcyclic5"]
    total = 0
    for name in names:
        q = load(name)
        for c in enumerate_strings(q, 4, unfrozen_only=True):
            lhs = cluster_character(q, c) * \
                mono(normalisation_vector(q, c))
            assert lhs == walk_laurent(q, c), f"{name}: {c}"
            total += 1
    assert total >= 60


def test_04_submodule_count_equals_matrix_count():
    for name in ("a2ice", "diamond5", "dcyclic3", "kronecker2"):
        q = load(name)
        ones = dict.fromkeys(q.vertices, LaurentPoly.one())
        for c in enumerate_strings(q, 8):
            # the matrix product at every variable 1, apart from the
            # transfer product that total_gr_euler and walk_count share
            assert walk_numerator(q, c).substitute(ones) == \
                LaurentPoly.const(total_gr_euler(c)), f"{name}: {c}"
    a2 = load("a2")
    assert walk_count(Walk.parse(a2, "e(1)")) == 2
    assert walk_count(Walk.parse(a2, "alpha")) == 3
    k2 = load("kronecker2")
    assert walk_count(Walk.parse(k2, "al1^-1 al2")) == 5
    # 2^41 position masks, summed by the transfer product in linear time
    long = Walk.parse(k2, " ".join(["al1 al2^-1"] * 20))
    assert total_gr_euler(long) == walk_count(long) == 433494437


def _loewy_rhs(n, m):
    """Sum over the Loewy length of the product formula for the cyclic
    algebra on n vertices and the module of length m based at vertex 2."""
    def x(i):
        return var(str(i) if i <= n else "1")
    total = LaurentPoly.zero()
    for level in range(1, m + 1):
        term = LaurentPoly.one()
        for i in range(1, m + 2):
            term = term * x(i)
        term = term * x(level) ** -1 * x(level + 1) ** -1
        for i in range(2, level + 1):
            term = term * var(f"y{i}")
        for i in range(level + 1, m + 1):
            term = term * var(f"z{i}")
        for j in range(2, m + 1):
            term = term * x(j) ** -1
        total = total + term
    return total


def test_05_cyclic_loewy_closed_form():
    for n in (3, 4, 5):
        q = load(f"dcyclic{n}")
        for m in range(2, n + 1):
            text = "e(2)" if m == 2 else \
                " ".join(f"a{i}" for i in range(2, m))
            c = Walk.parse(q, text)
            rhs = _loewy_rhs(n, m)
            assert walk_laurent(q, c) == rhs, f"n={n} m={m}"
            if m == n:
                assert cluster_character(q, c) == rhs * var("1", -1)


def test_06_kronecker_matrix_power_closed_form():
    for n in (2, 3):
        q = load(f"kronecker{n}")
        x1, x2, y1, y2 = var("1"), var("2"), var("1'"), var("2'")
        core = Mat2(y1 + x2 ** n, y1 * y2 * x1 ** (n - 1),
                    y1 * x1, y1 * y2 * x1 ** n)
        power = Mat2.identity()
        for p in range(1, 5):
            power = power * core
            m = Mat2.diagonal(LaurentPoly.one(),
                              y2 * x1 ** (n - 1)) * power
            closed = (m.a + m.c + (m.b + m.d) * x1) * \
                x1 ** -p * x2 ** -(p + 1)
            c = Walk.parse(q, " ".join("al1^-1 al2" for _ in range(p)))
            assert pp_character(q, c) == closed, f"n={n} p={p}"


def test_07_line_quiver_closed_form():
    for n in (3, 4, 5, 6):
        lines = [f"vertex {v}" for v in range(0, n + 2)]
        lines.append("arrow b 1 -> 0")
        lines.extend(f"arrow a{i} {i} -> {i + 1}" for i in range(1, n))
        lines.append(f"arrow c {n + 1} -> {n}")
        q = BoundIceQuiver.from_text("\n".join(lines))
        c = Walk.parse(q, " ".join(f"a{i}" for i in range(1, n)))
        x = {i: var(str(i)) for i in range(0, n + 2)}
        middle = LaurentPoly.one()
        for i in range(1, n + 1):
            middle = middle * x[i]
        lower_left = LaurentPoly.zero()
        for j in range(1, n):
            lower_left = lower_left + middle * x[j] ** -1 * x[j + 1] ** -1
        upper = LaurentPoly.one()
        lower = LaurentPoly.one()
        for i in range(1, n):
            upper = upper * x[i + 1]
            lower = lower * x[i]
        product = Mat2.diagonal(x[0], LaurentPoly.one()) * \
            Mat2(upper, LaurentPoly.zero(), lower_left, lower) * \
            Mat2.diagonal(LaurentPoly.one(), x[n + 1])
        assert walk_laurent(q, c) == product.bracket() * middle ** -1, n


def test_08_exchange_identities_with_almost_split_triples():
    # coefficient versions on the decorated two- and three-vertex lines
    a2 = load("a2dec")
    walk = lambda q, t: walk_laurent(q, Walk.parse(q, t))
    chars2 = {"1": walk(a2, "a1"), "2": walk(a2, "e(2)")}
    assert check_identity("L4.2a", a2, i="1", chars=chars2,
                          dims={"1": 1, "2": 1})
    assert check_identity("L4.2a", a2, i="2", chars=chars2, dims={"2": 1})
    assert check_identity("L4.2b", a2, tau_m=chars2["2"], mid=chars2["1"],
                          m=walk(a2, "e(1)"), dim_tau_m={"2": 1},
                          dim_m={"1": 1})
    a3 = load("a3dec")
    p1, p3, s2 = walk(a3, "a1"), walk(a3, "a2"), walk(a3, "e(2)")
    sincere = walk(a3, "a1 a2^-1")
    s1, s3 = walk(a3, "e(1)"), walk(a3, "e(3)")
    chars3 = {"1": p1, "2": s2, "3": p3}
    assert check_identity("L4.2a", a3, i="1", chars=chars3,
                          dims={"1": 1, "2": 1})
    assert check_identity("L4.2a", a3, i="2", chars=chars3, dims={"2": 1})
    assert check_identity("L4.2a", a3, i="3", chars=chars3,
                          dims={"2": 1, "3": 1})
    triples3 = [
        (s2, p1 * p3, sincere, {"2": 1}, {"1": 1, "2": 1, "3": 1}),
        (p1, sincere, s3, {"1": 1, "2": 1}, {"3": 1}),
        (p3, sincere, s1, {"2": 1, "3": 1}, {"1": 1}),
    ]
    for tau_m, mid, m, dim_tau_m, dim_m in triples3:
        assert check_identity("L4.2b", a3, tau_m=tau_m, mid=mid, m=m,
                              dim_tau_m=dim_tau_m, dim_m=dim_m)
    # coefficient version on the decorated four-vertex line
    a4 = load("a4dec")
    wp1, wp3 = walk(a4, "a1"), walk(a4, "a2^-1 a3")
    w14, w23 = walk(a4, "a1 a2^-1 a3"), walk(a4, "a2")
    w34, w13 = walk(a4, "a3"), walk(a4, "a1 a2^-1")
    ws = {v: walk(a4, f"e({v})") for v in ("1", "2", "3", "4")}
    triples4 = [
        (ws["2"], wp1 * wp3, w14, {"2": 1},
         {"1": 1, "2": 1, "3": 1, "4": 1}),
        (ws["4"], wp3, w23, {"4": 1}, {"2": 1, "3": 1}),
        (wp1, w14, w34, {"1": 1, "2": 1}, {"3": 1, "4": 1}),
        (wp3, w14 * w23, w13, {"2": 1, "3": 1, "4": 1},
         {"1": 1, "2": 1, "3": 1}),
        (w23, w13, ws["1"], {"2": 1, "3": 1}, {"1": 1}),
        (w14, w34 * w13, ws["3"], {"1": 1, "2": 1, "3": 1, "4": 1},
         {"3": 1}),
    ]
    for tau_m, mid, m, dim_tau_m, dim_m in triples4:
        assert check_identity("L4.2b", a4, tau_m=tau_m, mid=mid, m=m,
                              dim_tau_m=dim_tau_m, dim_m=dim_m)
    # principal-coefficient versions on the plain two- and three-vertex lines
    plain2 = a2.unfrozen_part()
    ext2 = principal_extension(plain2)
    pp = lambda q, t: pp_character(q, Walk.parse(q, t))
    xchars2 = {"1": pp(plain2, "a1"), "2": pp(plain2, "e(2)")}
    assert check_identity("L4.3", ext2, i="1", chars=xchars2)
    assert check_identity("L4.3", ext2, i="2", chars=xchars2)
    assert check_identity("L4.4", ext2, tau_m=xchars2["2"],
                          mid=xchars2["1"], m=pp(plain2, "e(1)"),
                          dim_tau_m={"2": 1})
    plain3 = a3.unfrozen_part()
    ext3 = principal_extension(plain3)
    xp1, xp3, xs2 = pp(plain3, "a1"), pp(plain3, "a2"), pp(plain3, "e(2)")
    xsin = pp(plain3, "a1 a2^-1")
    xs1, xs3 = pp(plain3, "e(1)"), pp(plain3, "e(3)")
    xchars3 = {"1": xp1, "2": xs2, "3": xp3}
    for i in ("1", "2", "3"):
        assert check_identity("L4.3", ext3, i=i, chars=xchars3)
    assert check_identity("L4.4", ext3, tau_m=xs2, mid=xp1 * xp3, m=xsin,
                          dim_tau_m={"2": 1})
    assert check_identity("L4.4", ext3, tau_m=xp1, mid=xsin, m=xs3,
                          dim_tau_m={"1": 1, "2": 1})
    assert check_identity("L4.4", ext3, tau_m=xp3, mid=xsin, m=xs1,
                          dim_tau_m={"2": 1, "3": 1})


def test_09_separation_of_principal_coefficients():
    ice = load("a2ice")
    plain = ice.unfrozen_part()
    w = pp_variable_map(ice, plain)
    decorated = principal_extension(plain)
    for text in ("e(1)", "e(2)", "alpha"):
        target = cluster_character(ice, Walk.parse(ice, text))
        x_pp = pp_character(plain, Walk.parse(plain, text))
        assert separate(x_pp, w) == target
        l_pp = walk_laurent(decorated, Walk.parse(decorated, text))
        assert separate(l_pp, w) == target
        # on the blow-up the separated walk polynomial is the walk
        # polynomial of the blown-up ice quiver itself
        qtilde, _phi, _mtilde = blow_up(ice, Walk.parse(ice, text))
        spine = qtilde.unfrozen_part()
        spine_walk = Walk.parse(
            spine, " ".join(a for a in sorted(spine.arrows))
            or f"e({spine.vertices[0]})")
        l_tilde_pp = pp_character(spine, spine_walk)
        w_tilde = pp_variable_map(qtilde, spine)
        assert separate(l_tilde_pp, w_tilde) == \
            walk_laurent(qtilde, spine_walk.on(qtilde))


def test_10_property_suites():
    # positivity of every computed walk polynomial and character
    for name in ("a2ice", "diamond5", "dcyclic3"):
        q = load(name)
        for c in enumerate_strings(q, 4):
            assert walk_laurent(q, c).is_nonnegative()
        for c in enumerate_strings(q, 4, unfrozen_only=True):
            assert cluster_character(q, c).is_nonnegative()
    # mutation is an involution
    for name in ("a2", "a3", "a2ice"):
        seed = seed_from_ice_quiver(load(name))
        for k in seed.unfrozen:
            twice = mutate(mutate(seed, k), k)
            assert twice.b == seed.b and twice.cluster == seed.cluster
    # blow-up and pushforward round trip
    q = load("diamond5")
    for c in enumerate_strings(q, 4):
        qtilde, phi, mtilde = blow_up(q, c)
        pushed = pushforward(phi, mtilde)
        m = string_module(q, c)
        assert all(pushed.dims[v] == m.dims[v] for v in pushed.dims)
        assert all(m.dims[v] == 0
                   for v in q.vertices if v not in pushed.dims)
    # normalisation equals numerator content on rigid cyclic strings
    for n in (3, 4, 5):
        q = load(f"dcyclic{n}")
        for c in enumerate_strings(q, 4, unfrozen_only=True):
            if not is_rigid(q, string_module(q, c)):
                continue
            vector = normalisation_vector(q, c)
            eta = numerator_normalisation(q, c)
            assert {v: e for v, e in vector.items() if e} == \
                {v: e for v, e in eta.items() if e}
    # enumeration counts on the two smallest line quivers
    assert len(enumerate_cluster_variables(
        seed_from_ice_quiver(load("a2")), 10)) == 5
    assert len(enumerate_cluster_variables(
        seed_from_ice_quiver(load("a3")), 12)) == 9
