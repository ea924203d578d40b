"""Exact multivariate Laurent polynomials with integer coefficients.

Variables are strings (vertex ids in practice).  A polynomial is a sparse
map from monomials to nonzero big integers, and a monomial is packed into
one int.  A process-wide intern table gives each variable name a field
index i the first time the name is used; the monomial with exponent e_i at
index i is the int ``sum(e_i * 2**(32 * i))``, a signed 32-bit field per
variable.  So a product of monomials is the sum of their keys, the inverse
of a monomial is the negated key, and comparing keys compares monomials in
lex order, the variable with the highest index first.  That order is a
group order on Z^n, so `exact_div` divides Laurent polynomials directly by
leading terms, and a heap of keys gives it the leading term of each
remainder (Johnson 1974; Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).

Names appear only at the edges.  `_columns` decodes all the keys of a
polynomial in one pass, into one column of exponents per field.
`monomials`, `text`, JSON, `as_unit` and `substitute` read those columns
with the variables sorted by name, so no output depends on the intern
order; `coefficient` packs the monomial it is asked for instead.

Every exponent lies within +-EXPONENT_LIMIT (2**29 - 1).  Each polynomial
carries a bound on the absolute value of its exponents, and an operation
whose result could leave the limit raises `ExponentOverflow` before it
computes anything, instead of letting a field wrap into its neighbour.  A
product is refused when the bounds of its factors add up past the limit,
even if cancellation would have brought its exponents back under it.
"""

from __future__ import annotations

import heapq
import json
import operator
import sys

from .errors import ExponentOverflow, NotDivisible, NotInvertible

_FIELD_BITS = 32
_HALF = 1 << (_FIELD_BITS - 1)
# exact_div compares a quotient exponent (up to twice the limit) with a box
# corner (up to the limit); the difference must still fit a signed field
EXPONENT_LIMIT = (1 << (_FIELD_BITS - 3)) - 1

_NAMES = []    # field index -> variable name
_UNITS = {}    # variable name -> key of the variable itself


def _unit(v):
    """The key of the variable v, interning its name on first use."""
    unit = _UNITS.get(v)
    if unit is None:
        if not isinstance(v, str):
            raise TypeError(f"Laurent variable {v!r} is not a string")
        unit = 1 << (_FIELD_BITS * len(_NAMES))
        _NAMES.append(v)
        _UNITS[v] = unit
    return unit


def _check_limit(bound, what):
    if bound > EXPONENT_LIMIT:
        raise ExponentOverflow(
            f"{what} could have an exponent of absolute value {bound}, "
            f"beyond the limit {EXPONENT_LIMIT}")


def _pack(exponents):
    """Key and largest absolute exponent of a {var: exp} mapping."""
    key = bound = 0
    for v, e in exponents.items():
        unit = _unit(v)
        e = operator.index(e)
        if e:
            key += e * unit
            bound = max(bound, abs(e))
    _check_limit(bound, "the monomial")
    return key, bound


def _width(keys):
    """A number of fields that reaches the highest nonzero field of every
    key; it depends on the keys, not on how many names are interned."""
    top = max(max(keys), -min(keys)) if keys else 0
    return top.bit_length() // _FIELD_BITS + 1


def _halves(n):
    """_HALF in each of the fields 0..n-1.  Adding it to a key whose
    fields lie in (-_HALF, _HALF) sets a field's top bit exactly when the
    field is >= 0, and carries into no other field."""
    return ((1 << (_FIELD_BITS * n)) - 1) // ((1 << _FIELD_BITS) - 1) * _HALF


def _columns(keys, n):
    """The exponents at field indices 0..n-1 of every key: n lists, list i
    holding field i of each key in the order of keys.  n must reach the
    highest nonzero field of every key (`_width`).

    Every field lies in (-2**31, 2**31), well inside it by EXPONENT_LIMIT.
    So adding _HALF to every field of a key leaves each field in
    (0, 2**32) with no carry, and flipping each field's top bit then makes
    it the two's complement of its exponent.  The bytes of all keys, read
    as signed 32-bit ints, are the exponents, key by key and field by field.
    """
    bias = _halves(n)
    size = _FIELD_BITS // 8 * n
    data = b"".join(((k + bias) ^ bias).to_bytes(size, sys.byteorder)
                    for k in keys)
    fields = memoryview(data).cast("i")
    return [fields[i::n].tolist() for i in range(n)]


def _rows(keys):
    """The names of the variables that occur in keys, sorted, and for each
    key the tuple of its exponents of them in that order."""
    columns = _columns(keys, _width(keys))
    used = sorted((_NAMES[i], column)
                  for i, column in enumerate(columns) if any(column))
    if not used:
        return (), [()] * len(keys)
    names, columns = zip(*used)
    return names, list(zip(*columns))


def _unpack(key):
    """The {var: exp} mapping of a key, sorted by variable name."""
    names, (row,) = _rows((key,))
    return dict(zip(names, row))


def _extent(keys, n):
    """Per-field minimum and maximum exponents over keys."""
    columns = _columns(keys, n)
    return [min(c) for c in columns], [max(c) for c in columns]


def _from_fields(exponents):
    """Key of a list of exponents indexed by field."""
    return sum(e << (_FIELD_BITS * i) for i, e in enumerate(exponents))


class LaurentPoly:
    """An exact Laurent polynomial over the integers.

    `terms` maps packed monomial keys to nonzero coefficients and `bound`
    is at least the largest absolute exponent, at most EXPONENT_LIMIT.  The
    constructor takes both as they are, so code outside this module builds
    polynomials with `const`, `var`, `monomial` and the ring operations.
    Both are treated as immutable once the polynomial is built, so the hash
    and the canonical text are kept.
    """

    __slots__ = ("terms", "bound", "_hash", "_text")

    def __init__(self, terms, bound):
        _check_limit(bound, "the polynomial")
        self.terms = terms
        self.bound = bound
        self._hash = None
        self._text = None

    @classmethod
    def zero(cls):
        return cls({}, 0)

    @classmethod
    def const(cls, c):
        """The constant c, an int: a float or Fraction raises TypeError."""
        c = operator.index(c)
        return cls({0: c}, 0) if c else cls.zero()

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def var(cls, v, power=1):
        return cls.monomial(1, {v: power})

    @classmethod
    def monomial(cls, coeff, exponents):
        """coeff * x^exponents; coeff and the exponents are ints."""
        coeff = operator.index(coeff)
        key, bound = _pack(exponents)
        if coeff == 0:
            return cls.zero()
        return cls({key: coeff}, bound)

    # -- basic structure ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def monomials(self):
        """Yield (exponents, coeff) for every term, exponents being a
        {var: exp} dict sorted by variable name."""
        names, rows = _rows(self.terms)
        for row, coeff in zip(rows, self.terms.values()):
            yield {v: e for v, e in zip(names, row) if e}, coeff

    def as_unit(self):
        """Return (coeff, {var: exp}) if self is a single term with
        coefficient 1 or -1, else None."""
        if len(self.terms) != 1:
            return None
        (key, coeff), = self.terms.items()
        if coeff not in (1, -1):
            return None
        return coeff, _unpack(key)

    def coefficient(self, exponents):
        key = 0
        for v, e in exponents.items():
            if e:
                unit = _UNITS.get(v)
                if unit is None or abs(e) > EXPONENT_LIMIT:
                    return 0
                key += e * unit
        return self.terms.get(key, 0)

    def is_nonnegative(self):
        """True iff every coefficient is positive (or the polynomial is 0)."""
        return all(c > 0 for c in self.terms.values())

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            c = terms.get(key, 0) + coeff
            if c:
                terms[key] = c
            else:
                del terms[key]
        return LaurentPoly(terms, max(self.bound, other.bound))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.terms.items()},
                           self.bound)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        bound = self.bound + other.bound
        _check_limit(bound, "the product")
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # the keys stay distinct and a product of nonzero ints is
            # nonzero, so no two terms merge and none cancels
            (k2, c2), = b.items()
            return LaurentPoly({k1 + k2: c1 * c2 for k1, c1 in a.items()},
                               bound)
        terms = {}
        get = terms.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                key = k1 + k2
                terms[key] = get(key, 0) + c1 * c2
        return LaurentPoly({k: c for k, c in terms.items() if c}, bound)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.as_unit() is None:
                raise NotInvertible(
                    f"cannot raise non-unit {self} to power {n}")
            (key, coeff), = self.terms.items()
            return LaurentPoly({-key: coeff}, self.bound) ** (-n)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base._square()
        return result

    def _square(self):
        """self * self from each unordered pair of terms once: c_i^2 at
        2 k_i and 2 c_i c_j at k_i + k_j for i < j."""
        bound = 2 * self.bound
        _check_limit(bound, "the product")
        items = list(self.terms.items())
        terms = {}
        get = terms.get
        for i, (k1, c1) in enumerate(items):
            key = k1 + k1
            terms[key] = get(key, 0) + c1 * c1
            c1 += c1
            for k2, c2 in items[i + 1:]:
                key = k1 + k2
                terms[key] = get(key, 0) + c1 * c2
        return LaurentPoly({k: c for k, c in terms.items() if c}, bound)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        """A constant hashes as its int, which it equals."""
        if self._hash is None:
            c = self.terms.get(0, 0)
            self._hash = hash(c if len(self.terms) == (c != 0)
                              else frozenset(self.terms.items()))
        return self._hash

    # -- division ----------------------------------------------------------

    def exact_div(self, other):
        """Return q with q * other == self, or raise NotDivisible.

        Divides by leading terms in the lex order of the keys.  If the
        quotient q exists, its minimum and maximum exponent in each variable
        are those of self minus those of other, and its least term is the
        least term of self over that of other.  A candidate quotient term
        outside that box, or below that term, proves that no quotient
        exists.  Refusing them keeps every remainder term within the
        exponent ranges of self, and it ends the division: every step emits
        a new quotient term, and the box holds finitely many.

        The remainder is a dict, and a max-heap holds an entry for each of
        its keys; an entry whose term has cancelled is dropped when it
        reaches the top, so no step rescans the remainder for its lead.
        """
        other = self._coerce(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("division of a Laurent polynomial by zero")
        if self.is_zero():
            return LaurentPoly.zero()
        a, b = self.terms, other.terms
        n = _width((*a, *b))
        a_low, a_high = _extent(a, n)
        b_low, b_high = _extent(b, n)
        low = [x - y for x, y in zip(a_low, b_low)]
        high = [x - y for x, y in zip(a_high, b_high)]
        if any(x > y for x, y in zip(low, high)):
            raise NotDivisible(f"{self} is not divisible by {other}")
        bound = max(map(abs, low + high), default=0)
        _check_limit(bound, "the quotient")
        low, high = _from_fields(low), _from_fields(high)
        # the mask spans the operands' n fields and one more, where low and
        # high are 0, so a candidate with a nonzero field above theirs fails
        signs = _halves(n + 1)
        least = min(a) - min(b)
        lead_b = max(b)
        lead_b_coeff = b[lead_b]
        quotient = {}
        remainder = dict(a)
        heap = [-key for key in a]    # heapq is a min-heap
        heapq.heapify(heap)
        while remainder:
            lead_r = -heapq.heappop(heap)
            if lead_r not in remainder:
                continue
            q_key = lead_r - lead_b
            if (q_key < least or (q_key - low + signs) & signs != signs
                    or (high - q_key + signs) & signs != signs):
                raise NotDivisible(f"{self} is not divisible by {other}")
            q_coeff, rem = divmod(remainder[lead_r], lead_b_coeff)
            if rem != 0:
                raise NotDivisible(f"{self} is not divisible by {other}")
            # the remainder's lead falls strictly: each quotient term is new
            quotient[q_key] = q_coeff
            for b_key, b_coeff in b.items():
                key = q_key + b_key
                if key not in remainder:
                    heapq.heappush(heap, -key)
                c = remainder.get(key, 0) - q_coeff * b_coeff
                if c:
                    remainder[key] = c
                else:
                    del remainder[key]
        return LaurentPoly(quotient, bound)

    # -- substitution and content -------------------------------------------

    def substitute(self, assignment):
        """Apply the ring homomorphism sending each assigned variable to its
        value; unassigned variables map to themselves.

        Raises NotInvertible if a variable with a negative exponent is sent
        to something that is not a unit.
        """
        result = LaurentPoly.zero()
        for exps, coeff in self.monomials():
            term = LaurentPoly.const(coeff)
            for v, e in exps.items():
                if v in assignment:
                    value = assignment[v]
                    if not isinstance(value, LaurentPoly):
                        value = LaurentPoly.const(value)
                    if e < 0 and value.as_unit() is None:
                        raise NotInvertible(
                            f"value {value} for variable {v!r} is not a unit "
                            f"but occurs with exponent {e}")
                    term = term * value ** e
                else:
                    term = term * LaurentPoly.var(v, e)
            result = result + term
        return result

    def monomial_content(self):
        """Write self = x^eta * P with P not divisible by any variable.

        Requires a nonzero honest polynomial (no negative exponents).
        Returns (eta as a dict, P).
        """
        if self.is_zero():
            raise ValueError("monomial content of the zero polynomial")
        lows, _highs = _extent(self.terms, _width(self.terms))
        if any(e < 0 for e in lows):
            raise ValueError("monomial content requires nonnegative exponents")
        eta = _from_fields(lows)
        rest = LaurentPoly({k - eta: c for k, c in self.terms.items()},
                           self.bound)
        return _unpack(eta), rest

    # -- canonical output ----------------------------------------------------

    def _sorted_terms(self):
        """(exponents, coeff) pairs in output order: descending lex order
        of the exponent tuples, with the variables sorted by name."""
        names, rows = _rows(self.terms)
        terms = sorted(zip(rows, self.terms.values()), reverse=True)
        return [({v: e for v, e in zip(names, row) if e}, coeff)
                for row, coeff in terms]

    def text(self):
        """Canonical text form, e.g. ``2 * x[1]^2 x[2]^-1 + 1``."""
        if self._text is not None:
            return self._text
        if self.is_zero():
            return "0"
        pieces = []
        for i, (exps, coeff) in enumerate(self._sorted_terms()):
            factors = " ".join(f"x[{v}]" if e == 1 else f"x[{v}]^{e}"
                               for v, e in exps.items())
            if factors:
                body = f"{abs(coeff)} * {factors}" if abs(coeff) != 1 else factors
            else:
                body = str(abs(coeff))
            if i == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        self._text = " ".join(pieces)
        return self._text

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"LaurentPoly({self.text()!r})"

    def to_json_obj(self):
        return [{"coeff": coeff, "exponents": exps}
                for exps, coeff in self._sorted_terms()]

    def to_json(self):
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj):
        result = cls.zero()
        for term in obj:
            result = result + cls.monomial(term["coeff"], term["exponents"])
        return result


class Mat2:
    """A 2x2 matrix over the Laurent polynomial ring."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        coerce = (lambda x: x if isinstance(x, LaurentPoly)
                  else LaurentPoly.const(x))
        self.a, self.b, self.c, self.d = coerce(a), coerce(b), coerce(c), coerce(d)

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def diagonal(cls, top, bottom):
        return cls(top, 0, 0, bottom)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b,
                                                    other.c, other.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def bracket(self):
        """[1,1] * self * [1;1], the sum of all four entries."""
        return self.a + self.b + self.c + self.d

    def row_vec(self, left, right):
        """[left, right] * self, returned as a (left', right') pair."""
        return (left * self.a + right * self.c, left * self.b + right * self.d)

    def __repr__(self):
        return f"Mat2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"
