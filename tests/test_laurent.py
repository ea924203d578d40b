"""Ring axioms, exact division, substitution and output formats of the
Laurent polynomial layer."""

import json
import random
from fractions import Fraction

import pytest

from stringchar import ExponentOverflow, LaurentPoly, Mat2, NotDivisible, \
    NotInvertible, StringCharError, Walk
from stringchar.character import cluster_character
from stringchar.laurent import _FIELD_BITS, _HALF, _NAMES, EXPONENT_LIMIT, \
    _columns, _from_fields, _pack, _Shifted

from conftest import kronecker_string, load, run_in_fresh_interpreter
from oracles import monomial_content


def random_poly(rng, nvars=3, nterms=4, span=3):
    f = LaurentPoly.zero()
    for _ in range(rng.randrange(nterms + 1)):
        exps = {f"x{i}": rng.randrange(-span, span + 1)
                for i in range(nvars) if rng.random() < 0.7}
        f = f + LaurentPoly.monomial(rng.randrange(-5, 6), exps)
    return f


def test_constructors():
    assert LaurentPoly.zero().is_zero()
    assert LaurentPoly.const(0).is_zero()
    assert LaurentPoly.one() == LaurentPoly.const(1)
    assert LaurentPoly.var("a", 0) == LaurentPoly.one()
    assert LaurentPoly.monomial(0, {"a": 2}).is_zero()
    assert LaurentPoly.var("a").coefficient({"a": 1}) == 1
    assert LaurentPoly.var("a").coefficient({"a": 2}) == 0


def test_coefficients_are_exact_integers():
    x = LaurentPoly.var("x")
    for bad in (0.5, 2.7, 1.0, Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError):
            LaurentPoly.const(bad)
        with pytest.raises(TypeError):
            LaurentPoly.monomial(bad, {"x": 1})
        with pytest.raises(TypeError):
            LaurentPoly.from_json_obj([{"coeff": bad,
                                        "exponents": {"x": 1}}])
        with pytest.raises(TypeError):
            Mat2(bad, 0, 0, 1)
    assert LaurentPoly.const(0) == LaurentPoly.zero()
    assert LaurentPoly.const(0).text() == "0"
    assert LaurentPoly.monomial(0, {"x": 1}) == LaurentPoly.zero()
    assert LaurentPoly.const(-3).text() == "-3"
    assert LaurentPoly.from_json_obj([{"coeff": -2, "exponents": {"x": 1}}]) \
        == -2 * x


def test_coefficient_refuses_float_exponents():
    x = LaurentPoly.var("x")
    for bad in (1.0, 1.5):
        with pytest.raises(TypeError):
            x.coefficient({"x": bad})
    # an unknown name or an exponent past the limit is still no term
    assert x.coefficient({"x": 1, "never_interned": 0}) == 1
    assert x.coefficient({"never_interned": 1}) == 0
    assert x.coefficient({"x": EXPONENT_LIMIT + 1}) == 0
    # the 41 names it interns would stay in this process's table
    run_in_fresh_interpreter(_float_exponent_of_a_late_name)


def test_coefficient_refuses_a_name_that_is_not_a_string():
    x = LaurentPoly.var("x")
    interned = len(_NAMES)
    for exponent in (1, 0):
        with pytest.raises(TypeError, match="Laurent variable 1 is not a "
                                            "string"):
            x.coefficient({1: exponent})
    assert len(_NAMES) == interned


def _float_exponent_of_a_late_name():
    # a name interned after 40 others has a key too wide for a float
    for i in range(40):
        LaurentPoly.var(f"early_{i}")
    late = LaurentPoly.var("late")
    assert late.coefficient({"late": 1}) == 1
    with pytest.raises(TypeError):
        late.coefficient({"late": 1.0})


class _Unread(dict):
    """Terms that fail the test when read."""

    def items(self):
        raise AssertionError("terms read before the bound check")


def _convolution(f, g):
    terms = {}
    for k1, c1 in f.terms.items():
        for k2, c2 in g.terms.items():
            terms[k1 + k2] = terms.get(k1 + k2, 0) + c1 * c2
    return {k: c for k, c in terms.items() if c}


def test_single_term_product_is_the_convolution():
    rng = random.Random(20261018)
    singles = [LaurentPoly.const(-4), LaurentPoly.const(1),
               LaurentPoly.monomial(-3, {"x0": 2, "x2": -1}),
               LaurentPoly.monomial(7, {"x1": -3})]
    others = [LaurentPoly.zero(), LaurentPoly.const(-2),
              LaurentPoly.var("x1") - 5 * LaurentPoly.var("x0", -2)]
    others += [random_poly(rng) for _ in range(30)]
    for one in singles:
        for f in others:
            for product, (a, b) in ((one * f, (one, f)),
                                    (f * one, (f, one))):
                assert product.terms == _convolution(a, b)
                assert product.bound == a.bound + b.bound
    # the bound is checked before the fast path reads a single term
    top = LaurentPoly.var("x", EXPONENT_LIMIT)
    unread = LaurentPoly(_Unread(top.terms), top.bound)
    x = LaurentPoly.var("x")
    for f, g in ((unread, x), (x, unread), (unread, x + 1), (x + 1, unread)):
        with pytest.raises(ExponentOverflow):
            f * g


def _shifted(f, pending):
    """f as a `_Shifted` whose pending monomial is `pending`, so that its
    terms are f's keys moved by the inverse of that monomial."""
    return _Shifted.one() * (f * pending ** -1) * pending


def test_equals_shifted_is_equality_with_the_product():
    """f.equals_shifted(g, key, bound) == (f == g * x^key) on products,
    on products with one term dropped, one coefficient changed or one
    exponent moved, and on unrelated pairs, each side with its own
    pending monomial; refused past the limit as the product is."""
    rng = random.Random(20261022)
    checked = {True: 0, False: 0}
    for _ in range(300):
        g = random_poly(rng)
        key, bound = _pack({f"x{i}": rng.randrange(-3, 4) for i in range(3)})
        shift = LaurentPoly._of_key(key, bound)
        product = g * shift
        near = [product, random_poly(rng)]
        for exps, coeff in list(product.monomials())[:1]:
            term = LaurentPoly.monomial(coeff, exps)
            moved = LaurentPoly.monomial(coeff, {**exps, "x0":
                                                 exps.get("x0", 0) + 1})
            near += [product - term, product + term, product - term + moved]
        pending_f, pending_g = (
            LaurentPoly.monomial(1, {f"x{i}": rng.randrange(-2, 3)
                                     for i in range(3)}) for _ in range(2))
        g_shifted = _shifted(g, pending_g)
        for f in near:
            expected = f == product
            assert _shifted(f, pending_f).equals_shifted(
                g_shifted, key, bound) == expected, (f, g, shift)
            checked[expected] += 1
    assert min(checked.values()) > 250
    top = _Shifted.one() * LaurentPoly.var("x", EXPONENT_LIMIT)
    key, bound = _pack({"x": 1})
    with pytest.raises(ExponentOverflow):
        top.equals_shifted(top, key, bound)
    below = _Shifted.one() * LaurentPoly.var("x", EXPONENT_LIMIT - 1)
    assert top.equals_shifted(below, key, bound)


def _run_both(rng, names, steps, span):
    """A random sequence of products, mostly by monomials, and sums, run on
    pairs of a `LaurentPoly` and the `_Shifted` that starts from it; each
    step's two results are compared term for term and in bound, and an
    `ExponentOverflow` must come at the same step from both, with the same
    message.  Each operand is the last result or, as often, any earlier
    one.  Returns the step that raised, or None."""
    pool = [(f, _Shifted.one() * f) for f in
            (random_poly(rng, nvars=2) for _ in range(3))]

    def pick():
        return pool[-1] if rng.random() < 0.5 else rng.choice(pool)

    for step in range(steps):
        if rng.random() < 0.6:
            exps = {v: rng.randrange(-span, span + 1) for v in names
                    if rng.random() < 0.7}
            m = LaurentPoly.monomial(rng.choice((1, 1, 1, -1, 2, -3)), exps)
            # now and then a factor of any number of terms, or an int
            m = rng.choice((m,) * 8 + (random_poly(rng, nvars=2),
                                       rng.randrange(-2, 3)))
            plain, shifted = pick()
            ops = (lambda: plain * m, lambda: shifted * m)
        else:
            (p1, s1), (p2, s2) = pick(), pick()
            ops = (lambda: p1 + p2, lambda: s1 + s2)
        results = []
        for op in ops:
            try:
                results.append(op())
            except ExponentOverflow as exc:
                results.append(str(exc))
        plain, shifted = results
        if isinstance(plain, str):
            assert shifted == plain, (step, shifted)
            return step
        assert isinstance(shifted, _Shifted), (step, shifted)
        built = shifted.poly()
        assert built.terms == plain.terms, step
        assert (built.bound, shifted.bound) == (plain.bound, plain.bound)
        pool.append((plain, shifted))
    return None


def test_shifted_products_and_sums_follow_laurent_poly():
    """The pending-monomial type gives, step for step, what `LaurentPoly`
    gives: the same terms, the same bound, and an `ExponentOverflow` with
    the same message at the same step.  Up to 3 names, the last interned
    only once the sequences are under way, so some keys span a field above
    those of the starting polynomials."""
    rng = random.Random(20261101)
    late = "shifted_late"
    for trial in range(120):
        names = ["x0", "x1"] + ([late] if trial >= 20 else [])
        assert _run_both(rng, names, 14, 3) is None
    # products by monomials of exponents up to half the limit run
    # past it within a few steps, at the step LaurentPoly refuses
    overflows = [_run_both(rng, ["x0", late], 20, EXPONENT_LIMIT // 2)
                 for _ in range(40)]
    assert sum(step is not None for step in overflows) >= 30


def test_ring_axioms_randomised():
    rng = random.Random(20260823)
    for _ in range(60):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + LaurentPoly.zero() == f
        assert f * LaurentPoly.one() == f
        assert f - f == LaurentPoly.zero()
        assert f * 0 == LaurentPoly.zero()


def test_integer_coercion():
    f = LaurentPoly.var("a")
    assert f + 1 == 1 + f
    assert f - 1 == -(1 - f)
    assert 2 * f == f + f


def test_powers():
    f = LaurentPoly.var("a") + 1
    assert f ** 0 == LaurentPoly.one()
    assert f ** 3 == f * f * f
    x = LaurentPoly.var("a")
    assert x ** -2 * x ** 2 == LaurentPoly.one()
    with pytest.raises(NotInvertible):
        f ** -1
    x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
    rng = random.Random(20261020)
    cases = [LaurentPoly.zero(), LaurentPoly.const(-2), x ** -3,
             x - x ** -1, 2 * x * y - 3 + y ** -1]
    for f in cases + [random_poly(rng) for _ in range(15)]:
        product = LaurentPoly.one()
        for n in range(6):
            assert f ** n == product, (f, n)
            product = product * f


def test_power_squares_only_while_bits_remain(monkeypatch):
    calls = []
    mul = LaurentPoly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    # a square is one product too
    square = LaurentPoly._square

    def counting_square(self):
        calls.append(1)
        return square(self)

    monkeypatch.setattr(LaurentPoly, "_square", counting_square)
    f = LaurentPoly.var("a") + 1
    powers = [LaurentPoly.one()]
    for _ in range(4):
        powers.append(powers[-1] * f)
    # the power starts at the lowest set bit, not from a product by one()
    for n, expected in [(1, 0), (2, 1), (3, 2), (4, 2)]:
        calls.clear()
        assert f ** n == powers[n]
        assert len(calls) == expected, n


def test_square_is_the_convolution():
    x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
    rng = random.Random(20261019)
    cases = [LaurentPoly.zero(), LaurentPoly.const(-3), LaurentPoly.one(),
             LaurentPoly.monomial(-2, {"x": 3, "y": -1}), x - x ** -1,
             # 2^2 + 2 * 1 * (-2) = 0 at x^2: a term that cancels
             1 + 2 * x - 2 * x ** 2, x * y - y * x ** -1 + 3 - 2 * y ** 2]
    cases += [random_poly(rng, nterms=6) for _ in range(40)]
    for f in cases:
        square = f._square()
        assert square.terms == _convolution(f, f), f
        assert square.bound == 2 * f.bound
    assert (1 + 2 * x - 2 * x ** 2)._square().coefficient({"x": 2}) == 0
    assert (x - x ** -1) ** 2 == x ** 2 - 2 + x ** -2

    # the bound is checked before the square reads a single term
    top = LaurentPoly.var("x", EXPONENT_LIMIT // 2 + 1)
    unread = LaurentPoly(_Unread(top.terms), top.bound)
    for power in (lambda f: f._square(), lambda f: f ** 2,
                  lambda f: f ** 4):
        with pytest.raises(ExponentOverflow):
            power(unread)


def test_variables_are_strings():
    with pytest.raises(TypeError, match="Laurent variable 1 is not a string"):
        LaurentPoly.var(1)
    with pytest.raises(TypeError, match="Laurent variable 1 is not a string"):
        LaurentPoly.monomial(1, {1: 1})


def test_a_zero_exponent_interns_no_name():
    # the intern table is process-wide, so the name must be new to it
    run_in_fresh_interpreter(_zero_exponent_of_a_new_name)


def _zero_exponent_of_a_new_name():
    names = list(_NAMES)
    assert LaurentPoly.monomial(1, {"unused": 0}) == LaurentPoly.one()
    assert _NAMES == names
    # the name is still checked before the exponent, and both with 0
    for exponent in (0, 0.5):
        with pytest.raises(TypeError, match="Laurent variable 1 is not a "
                                            "string"):
            LaurentPoly.monomial(1, {1: exponent})
    with pytest.raises(TypeError, match="float"):
        LaurentPoly.monomial(1, {"unused": 0.0})
    assert _NAMES == names


def test_as_unit():
    assert LaurentPoly.var("a", -3).as_unit() == (1, {"a": -3})
    assert (-LaurentPoly.var("a")).as_unit() == (-1, {"a": 1})
    assert (2 * LaurentPoly.var("a")).as_unit() is None
    assert (LaurentPoly.var("a") + 1).as_unit() is None


def test_exact_div_round_trip_randomised():
    rng = random.Random(42)
    checked = 0
    while checked < 40:
        f, g = random_poly(rng), random_poly(rng)
        if g.is_zero():
            continue
        product = f * g
        assert product.exact_div(g) == f
        checked += 1


def test_exact_div_failures():
    x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
    with pytest.raises(NotDivisible):
        (x + 1).exact_div(y + 1)
    with pytest.raises(NotDivisible):
        (x + 1).exact_div(LaurentPoly.const(2))
    with pytest.raises(ZeroDivisionError):
        x.exact_div(LaurentPoly.zero())
    assert LaurentPoly.zero().exact_div(x) == LaurentPoly.zero()


def test_exact_div_refuses_a_divisor_that_is_not_a_polynomial():
    x = LaurentPoly.var("x")
    for divisor in (2.0, "x", None, Fraction(1, 2)):
        with pytest.raises(TypeError):
            x.exact_div(divisor)
    with pytest.raises(TypeError):
        x * 2.0
    with pytest.raises(ZeroDivisionError):
        x.exact_div(0)
    assert (2 * x).exact_div(2) == x


def _largest_exponent(f):
    return max((abs(e) for exps, _coeff in f.monomials()
                for e in exps.values()), default=0)


def test_exact_div_by_one_term():
    x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
    with pytest.raises(NotDivisible):
        (2 * x + 1).exact_div(2)
    with pytest.raises(NotDivisible):
        (2 * x + 3 * y).exact_div(-2 * y)
    assert (2 * x + 4 * y).exact_div(2 * y) == x * y ** -1 + 2
    assert (6 * x ** 3 - 4).exact_div(-2 * x ** -1) == -3 * x ** 4 + 2 * x
    # the quotient's bound is its largest exponent, not the operands' sum
    for dividend, divisor in ((x ** 5 * y ** -2 + y ** 3, x ** 4 * y),
                              (x ** 3 - y ** 3, x ** 3 * y ** -3),
                              (7 * x, 7 * x), (x ** -2 + 1, y ** 9)):
        quotient = dividend.exact_div(divisor)
        assert quotient * divisor == dividend
        assert quotient.bound == _largest_exponent(quotient), quotient


def test_exact_div_by_one_term_refuses_an_exponent_past_the_limit():
    x = LaurentPoly.var("x")
    top = LaurentPoly.var("x", EXPONENT_LIMIT)
    bottom = LaurentPoly.var("x", -EXPONENT_LIMIT)
    with pytest.raises(ExponentOverflow):
        top.exact_div(x ** -1)
    with pytest.raises(ExponentOverflow):
        bottom.exact_div(x)
    # the exponents are refused before the coefficients are divided
    with pytest.raises(ExponentOverflow):
        (top + 1).exact_div(2 * x ** -1)
    # up to the limit the quotient is built, and its bound is exact
    below = LaurentPoly.var("x", EXPONENT_LIMIT - 1)
    assert below.exact_div(x ** -1) == top
    assert (top + x).exact_div(x) == below + 1
    assert (top + x).exact_div(x).bound == EXPONENT_LIMIT - 1
    assert bottom.exact_div(x ** -1).bound == EXPONENT_LIMIT - 1


def test_exact_div_by_a_monomial_randomised():
    # over 12 variables, so the keys span 12 fields
    rng = random.Random(2026)
    for _ in range(60):
        f = random_poly(rng, nvars=12, nterms=6, span=4)
        m = LaurentPoly.monomial(
            rng.choice([-3, -1, 1, 2, 5]),
            {f"x{i}": rng.randrange(-4, 5) for i in range(12)
             if rng.random() < 0.5})
        quotient = (f * m).exact_div(m)
        assert quotient == f
        assert quotient.bound == _largest_exponent(f)
        if f and m.as_unit() is None:
            with pytest.raises(NotDivisible):
                (f * m + 1).exact_div(m)


def test_exact_div_laurent_shift():
    x = LaurentPoly.var("x")
    f = (x + x ** -1) * (x ** -2 + 3)
    assert f.exact_div(x + x ** -1) == x ** -2 + 3


def test_exact_div_ends_when_no_quotient_exists():
    # With only the trail(a)/trail(b) check, leading-term division of
    # x^2 + 1 by 1 + y^-1 + x^-1, with x the more significant variable,
    # emits x^2 y^-k for ever, and so does that of x^2 y + 1, whose
    # exponent box is not empty.  Each pair is also tried with x and y
    # swapped, so whichever of the two the intern table ranks first, one
    # run takes the unending branch, which the hang guard of conftest.py
    # stops after 10 s.
    for name_x, name_y in (("x", "y"), ("y", "x")):
        x, y = LaurentPoly.var(name_x), LaurentPoly.var(name_y)
        divisor = 1 + y ** -1 + x ** -1
        for dividend in (x ** 2 + 1, x ** 2 * y + 1):
            with pytest.raises(NotDivisible):
                dividend.exact_div(divisor)
            assert (dividend * divisor).exact_div(divisor) == dividend


def test_division_does_not_depend_on_other_interned_names():
    # the 500 names it interns would stay in this process's table
    run_in_fresh_interpreter(_divide_after_interning_many_names)


def _divide_after_interning_many_names():
    # A variable interned after many others owns a high field, so its keys
    # are wide ints; dividing in it must give the same results.
    def divide(prefix):
        x, y = LaurentPoly.var(prefix + "x"), LaurentPoly.var(prefix + "y")
        divisor = x + y ** -1 + 2
        quotient = x ** 2 * y - 3 * y ** -2 + x ** -1
        with pytest.raises(NotDivisible):
            (quotient * divisor + 1).exact_div(divisor)
        eta, rest = monomial_content(quotient * x * y ** 2)
        return ((quotient * divisor).exact_div(divisor).text(), str(eta),
                rest.text())

    early = divide("early_")
    for i in range(500):
        LaurentPoly.var(f"unrelated_{i}")
    late = divide("late_")
    assert [t.replace("late_", "") for t in late] == \
        [t.replace("early_", "") for t in early] == \
        [t.replace("early_", "") for t in divide("early_")]
    assert late[0] == "x[late_x]^2 x[late_y] - 3 * x[late_y]^-2 + x[late_x]^-1"


def test_exact_div_skips_terms_that_cancelled_below_the_lead():
    # x^6 times the divisor cancels the lead x^11 and the five terms under
    # it at once, so five stale heap entries come up in a row before x^5.
    x = LaurentPoly.var("x")
    divisor = sum((x ** i for i in range(6)), LaurentPoly.zero())
    dividend = sum((x ** i for i in range(12)), LaurentPoly.zero())
    assert dividend.exact_div(divisor) == x ** 6 + 1
    with pytest.raises(NotDivisible):
        (dividend + 3).exact_div(divisor)
    y = LaurentPoly.var("y")
    quotient = 2 * x ** 6 * y - 3 * y ** -1
    assert (quotient * divisor).exact_div(divisor) == quotient


def test_exponent_limit_refuses_instead_of_wrapping():
    assert issubclass(ExponentOverflow, StringCharError)
    x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
    top = LaurentPoly.var("x", EXPONENT_LIMIT - 1) * x
    bottom = LaurentPoly.var("x", 1 - EXPONENT_LIMIT) * x ** -1
    for f, text in ((top, f"x[x]^{EXPONENT_LIMIT}"),
                    (bottom, f"x[x]^-{EXPONENT_LIMIT}")):
        assert f.text() == text
        assert LaurentPoly.from_json_obj(json.loads(f.to_json())) == f
    with pytest.raises(ExponentOverflow):
        top * x
    with pytest.raises(ExponentOverflow):
        LaurentPoly({}, EXPONENT_LIMIT + 1)
    # refused on the factors' bounds, although the product is 1
    with pytest.raises(ExponentOverflow):
        top * bottom
    with pytest.raises(ExponentOverflow):
        (bottom + y) * (x ** -1 + y)
    with pytest.raises(ExponentOverflow):
        LaurentPoly.var("x", EXPONENT_LIMIT + 1)
    with pytest.raises(ExponentOverflow):
        top.exact_div(x ** -1)
    assert top.exact_div(x) == LaurentPoly.var("x", EXPONENT_LIMIT - 1)


def test_substitute_is_a_homomorphism():
    rng = random.Random(7)
    a = {"x0": LaurentPoly.var("u", 2), "x1": LaurentPoly.var("v", -1)}
    for _ in range(30):
        f, g = random_poly(rng), random_poly(rng)
        assert (f * g).substitute(a) == f.substitute(a) * g.substitute(a)
        assert (f + g).substitute(a) == f.substitute(a) + g.substitute(a)
    x = LaurentPoly.var("x")
    u = LaurentPoly.var("u")
    assert (x ** 2 + x).substitute({"x": u + 1}) == \
        (u + 1) * (u + 1) + u + 1


def test_substitute_on_a_long_character():
    # the 862-term character of a length-80 kronecker3 string: the empty
    # assignment gives it back, and vertex 1 sent to -x[2]^2, so that the
    # images of many terms merge, gives the sum with + of the image of
    # each term
    q = load("kronecker3")
    f = cluster_character(q, Walk.parse(q, kronecker_string(80)))
    assert len(f.terms) == 862
    assert f.substitute({}) == f
    value = LaurentPoly.monomial(-1, {"2": 2})
    expected = LaurentPoly.zero()
    for exps, coeff in f.monomials():
        term = LaurentPoly.const(coeff)
        for v, e in exps.items():
            term = term * (value ** e if v == "1" else LaurentPoly.var(v, e))
        expected = expected + term
    assert len(expected.terms) == 81
    assert f.substitute({"1": value}) == expected
    # x[1] + x[2]^2 goes to 0, so every image of its product with f cancels
    # and no zero term is left behind
    g = f * (LaurentPoly.var("1") + LaurentPoly.var("2", 2))
    assert g.substitute({"1": value}).terms == {}


def test_substitute_requires_units_for_negative_exponents():
    f = LaurentPoly.var("x", -1)
    with pytest.raises(NotInvertible):
        f.substitute({"x": LaurentPoly.var("u") + 1})
    assert f.substitute({"x": LaurentPoly.var("u", 2)}) == \
        LaurentPoly.var("u", -2)


def test_monomial_content():
    x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
    f = x ** 2 * y * (x + y)
    eta, rest = monomial_content(f)
    assert eta == {"x": 2, "y": 1}
    assert rest == x + y
    assert LaurentPoly.monomial(1, eta) * rest == f
    with pytest.raises(ValueError):
        monomial_content(LaurentPoly.zero())
    with pytest.raises(ValueError):
        monomial_content(x ** -1)


def test_is_nonnegative():
    x = LaurentPoly.var("x")
    assert (x + 2).is_nonnegative()
    assert LaurentPoly.zero().is_nonnegative()
    assert not (x - 2).is_nonnegative()


def test_text_canonical():
    x1, x2 = LaurentPoly.var("1"), LaurentPoly.var("2")
    f = 2 * x1 ** 2 * x2 ** -1 + 1
    assert f.text() == "2 * x[1]^2 x[2]^-1 + 1"
    assert LaurentPoly.zero().text() == "0"
    assert (-x1 - 1).text() == "-x[1] - 1"


def test_output_order_of_string_variables():
    x = {v: LaurentPoly.var(v) for v in ("10", "2", "1'", "y1", "y10")}
    f = (3 * x["10"] ** 2 * x["y1"] ** -1 - x["2"] * x["1'"]
         + x["y10"] * x["2"] ** -2 + 5 * x["1'"] ** 3 * x["y1"] - 1)
    assert f.text() == ("5 * x[1']^3 x[y1] - x[1'] x[2] "
                        "+ 3 * x[10]^2 x[y1]^-1 - 1 + x[2]^-2 x[y10]")
    assert f.to_json() == (
        '[{"coeff": 5, "exponents": {"1\'": 3, "y1": 1}}, '
        '{"coeff": -1, "exponents": {"1\'": 1, "2": 1}}, '
        '{"coeff": 3, "exponents": {"10": 2, "y1": -1}}, '
        '{"coeff": -1, "exponents": {}}, '
        '{"coeff": 1, "exponents": {"2": -2, "y10": 1}}]')


def test_from_json_obj_sums_terms_and_refuses_what_monomial_refuses():
    x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
    f = LaurentPoly.from_json_obj([
        {"coeff": 2, "exponents": {"x": 1}},
        {"coeff": 3, "exponents": {"y": -1}},
        {"coeff": -2, "exponents": {"x": 1, "y": 0}},
        {"coeff": 0, "exponents": {"y": EXPONENT_LIMIT}},
        {"coeff": 4, "exponents": {}},
        {"coeff": 1, "exponents": {"y": -1}},
        {"coeff": 2, "exponents": {"x": 1}}])
    assert f.terms == (2 * x + 4 * y ** -1 + 4).terms
    # a term of coefficient 0 adds nothing to the exponent bound
    assert f * LaurentPoly.var("x", EXPONENT_LIMIT - 1) == \
        2 * LaurentPoly.var("x", EXPONENT_LIMIT) \
        + 4 * LaurentPoly.var("x", EXPONENT_LIMIT - 1) * (y ** -1 + 1)
    assert LaurentPoly.from_json_obj([]) == 0
    assert LaurentPoly.from_json_obj(
        [{"coeff": 5, "exponents": {"x": 2}},
         {"coeff": -5, "exponents": {"x": 2}}]).is_zero()
    for coeff in (1, 0):
        with pytest.raises(TypeError, match="Laurent variable 1 is not"):
            LaurentPoly.from_json_obj([{"coeff": coeff, "exponents": {1: 1}}])
        with pytest.raises(TypeError):
            LaurentPoly.from_json_obj([{"coeff": coeff,
                                        "exponents": {"x": 1.0}}])
        with pytest.raises(ExponentOverflow):
            LaurentPoly.from_json_obj(
                [{"coeff": coeff, "exponents": {"x": EXPONENT_LIMIT + 1}}])


def test_json_round_trip_randomised():
    rng = random.Random(99)
    for _ in range(25):
        f = random_poly(rng)
        assert LaurentPoly.from_json_obj(f.to_json_obj()) == f


# -- key decoding against the per-key oracle ---------------------------------

def _fields(key, n):
    """The exponents at field indices 0..n-1 of a key, read one field at a
    time: the oracle of `_columns`."""
    out = []
    for _ in range(n):
        e = ((key + _HALF) & ((1 << _FIELD_BITS) - 1)) - _HALF
        out.append(e)
        key = (key - e) >> _FIELD_BITS
    return out


def _oracle_terms(monomials):
    """(exponents, coeff) pairs in output order: descending lex order of
    the exponent tuples over the variables that occur, sorted by name."""
    names = sorted({v for exps, _coeff in monomials for v in exps})
    return sorted(monomials, key=lambda t: [t[0].get(v, 0) for v in names],
                  reverse=True)


def _oracle_text(terms):
    pieces = []
    for i, (exps, coeff) in enumerate(terms):
        factors = " ".join(f"x[{v}]" + ("" if e == 1 else f"^{e}")
                           for v, e in exps.items())
        size = "" if abs(coeff) == 1 and factors else str(abs(coeff))
        body = " * ".join(p for p in (size, factors) if p)
        if i == 0:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces) or "0"


def _decoder_cases():
    """Seeded random polynomials in early and late interned variables.

    The late variables are interned after more than 64 other names and in
    the reverse of their name order, so an output that followed the
    intern order would differ from one in name order.  Three names need
    escaping in JSON: a quote, a backslash and a letter beyond ASCII."""
    for i in range(65):
        LaurentPoly.var(f"decode_pad{i}")
    late = [f"decode_v{j}" for j in range(6)]
    for v in reversed(late):
        LaurentPoly.var(v)
    names = ["x0", "x1", "x2", 'a"b', "b\\c", "\u00e9"] + late
    rng = random.Random(20261019)
    cases = [LaurentPoly.zero(), LaurentPoly.const(-7), LaurentPoly.one(),
             LaurentPoly.monomial(3, {"decode_v5": EXPONENT_LIMIT,
                                      "x0": -EXPONENT_LIMIT}),
             LaurentPoly.var("decode_v0", -EXPONENT_LIMIT)
             + LaurentPoly.var("decode_v4", EXPONENT_LIMIT) - 1]
    for _ in range(30):
        f = LaurentPoly.zero()
        for _ in range(rng.randrange(1, 9)):
            exps = {}
            for v in rng.sample(names, rng.randrange(len(names) + 1)):
                exps[v] = rng.choice([rng.randrange(-3, 4),
                                      EXPONENT_LIMIT, -EXPONENT_LIMIT])
            f = f + LaurentPoly.monomial(rng.randrange(-4, 5), exps)
        cases.append(f)
    return cases


def test_columns_match_the_per_key_oracle():
    rng = random.Random(7)
    top = _HALF - 1
    for n in (1, 2, 3, 70):
        rows = [[rng.choice([0, 1, -1, top, -top, rng.randrange(-top, top)])
                 for _ in range(n)] for _ in range(20)]
        rows += [[0] * n, [top] * n, [-top] * n]
        keys = [_from_fields(row) for row in rows]
        assert [_fields(key, n) for key in keys] == rows
        assert _columns(keys, n) == [[row[i] for row in rows]
                                     for i in range(n)]


def _oracle_monomials(f, rows):
    """(exponents, coeff) for every term of f in the order of its terms,
    from the exponent rows of its keys indexed by field."""
    return [(dict(sorted((_NAMES[i], e) for i, e in enumerate(row) if e)),
             coeff) for row, coeff in zip(rows, f.terms.values())]


def test_output_matches_the_per_key_oracle():
    cases = _decoder_cases()
    assert {'a"b', "b\\c", "\u00e9"} <= {v for f in cases for exps, _c in
                                        f.monomials() for v in exps}
    for f in cases:
        n = len(_NAMES)
        rows = [_fields(key, n) for key in f.terms]
        assert _columns(list(f.terms), n) == [[row[i] for row in rows]
                                              for i in range(n)]
        monomials = _oracle_monomials(f, rows)
        assert [(list(exps.items()), coeff)
                for exps, coeff in f.monomials()] == \
            [(list(exps.items()), coeff) for exps, coeff in monomials]
        terms = _oracle_terms(monomials)
        assert f.text() == _oracle_text(terms)
        obj = [{"coeff": coeff, "exponents": exps} for exps, coeff in terms]
        assert f.to_json() == json.dumps(obj)
        # equal dicts may differ in order, so compare the items in order
        assert [(t["coeff"], list(t["exponents"].items()))
                for t in f.to_json_obj()] == \
            [(t["coeff"], list(t["exponents"].items())) for t in obj]
        assert LaurentPoly.from_json_obj(json.loads(f.to_json())) == f


def test_long_character_round_trips_through_json_and_text():
    # 862 terms in 2 variables: each (variable, exponent) is shared by
    # many terms, and the order of the terms is long to pin
    q = load("kronecker3")
    f = cluster_character(q, Walk.parse(q, kronecker_string(80)))
    assert len(f.terms) == 862
    assert LaurentPoly.from_json_obj(json.loads(f.to_json())) == f
    rows = [_fields(key, len(_NAMES)) for key in f.terms]
    assert f.text() == _oracle_text(_oracle_terms(_oracle_monomials(f, rows)))


def test_hash_consistency():
    f = LaurentPoly.var("x") + 1
    g = 1 + LaurentPoly.var("x")
    assert hash(f) == hash(g)
    assert len({f, g}) == 1


@pytest.mark.parametrize("c", [0, 1, -3, 2**70])
def test_constant_hashes_as_its_int(c):
    f = LaurentPoly.const(c)
    assert f == c and hash(f) == hash(c)
    assert c in {f} and f in {c}
    assert {f: "poly"}[c] == "poly" and {c: "int"}[f] == "int"


def test_mat2_operations():
    x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
    m = Mat2(x, 1, 0, y)
    n = Mat2(y, 0, 1, x)
    assert m * Mat2.identity() == m
    assert (m * n).det() == m.det() * n.det()
    assert m.bracket() == x + y + 1
    left, right = m.row_vec(LaurentPoly.one(), x)
    assert left == x
    assert right == 1 + x * y
    assert Mat2.diagonal(x, y) == Mat2(x, 0, 0, y)
