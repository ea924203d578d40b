"""Exact multivariate Laurent polynomials with integer coefficients.

Variables are strings (vertex ids in practice).  A polynomial is a sparse
map from monomials to nonzero big integers; a monomial is stored as a tuple
of (variable, nonzero exponent) pairs sorted by variable, so equal monomials
always have equal keys, and output names a variable by the string itself.
"""

from __future__ import annotations

import json

from .errors import NotDivisible, NotInvertible, NotSubtractionFree


def _mono_key(exponents):
    """Canonical monomial key from a {var: exp} mapping."""
    return tuple(sorted((v, e) for v, e in exponents.items() if e != 0))


def _mono_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return _mono_key(exps)


class LaurentPoly:
    """An exact Laurent polynomial over the integers."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(): int(c)}) if c else cls()

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def var(cls, v, power=1):
        return cls.monomial(1, {v: power})

    @classmethod
    def monomial(cls, coeff, exponents):
        for v in exponents:
            if not isinstance(v, str):
                raise TypeError(f"Laurent variable {v!r} is not a string")
        if coeff == 0:
            return cls()
        return cls({_mono_key(exponents): int(coeff)})

    # -- basic structure ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def variables(self):
        vs = set()
        for mono in self.terms:
            for v, _ in mono:
                vs.add(v)
        return vs

    def as_unit(self):
        """Return (coeff, {var: exp}) if self is a single term with
        coefficient 1 or -1, else None."""
        if len(self.terms) != 1:
            return None
        (mono, coeff), = self.terms.items()
        if coeff not in (1, -1):
            return None
        return coeff, dict(mono)

    def coefficient(self, exponents):
        return self.terms.get(_mono_key(exponents), 0)

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
        for mono, coeff in other.terms.items():
            c = terms.get(mono, 0) + coeff
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        return LaurentPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()})

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
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                c = terms.get(mono, 0) + c1 * c2
                if c:
                    terms[mono] = c
                else:
                    terms.pop(mono, None)
        return LaurentPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            unit = self.as_unit()
            if unit is None:
                raise NotInvertible(
                    f"cannot raise non-unit {self} to power {n}")
            coeff, exps = unit
            inv = LaurentPoly.monomial(coeff, {v: -e for v, e in exps.items()})
            return inv ** (-n)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- division ----------------------------------------------------------

    def exact_div(self, other):
        """Return q with q * other == self, or raise NotDivisible."""
        other = self._coerce(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("division of a Laurent polynomial by zero")
        if self.is_zero():
            return LaurentPoly.zero()
        # Shift both operands to honest polynomials; the per-variable minimum
        # of exponents is multiplicative, so the shifted quotient is again a
        # polynomial whenever the Laurent quotient exists.
        shift_a = self._min_exponents()
        shift_b = other._min_exponents()
        a = self * LaurentPoly.monomial(1, {v: -e for v, e in shift_a.items()})
        b = other * LaurentPoly.monomial(1, {v: -e for v, e in shift_b.items()})
        varlist = sorted(a.variables() | b.variables())

        def key(mono):
            exps = dict(mono)
            return tuple(exps.get(v, 0) for v in varlist)

        lead_b = max(b.terms, key=key)
        inv_lead_b = tuple((v, -e) for v, e in lead_b)
        lead_b_coeff = b.terms[lead_b]
        quotient = {}
        remainder = dict(a.terms)
        while remainder:
            lead_r = max(remainder, key=key)
            coeff_r = remainder[lead_r]
            q_coeff, rem = divmod(coeff_r, lead_b_coeff)
            if rem != 0:
                raise NotDivisible(f"{self} is not divisible by {other}")
            q_mono = _mono_mul(lead_r, inv_lead_b)
            if any(e < 0 for _, e in q_mono):
                raise NotDivisible(f"{self} is not divisible by {other}")
            # the remainder's lead falls strictly: each quotient term is new
            quotient[q_mono] = q_coeff
            for b_mono, b_coeff in b.terms.items():
                mono = _mono_mul(q_mono, b_mono)
                c = remainder.get(mono, 0) - q_coeff * b_coeff
                if c:
                    remainder[mono] = c
                else:
                    del remainder[mono]
        shift = {v: shift_a.get(v, 0) - shift_b.get(v, 0)
                 for v in set(shift_a) | set(shift_b)}
        return LaurentPoly(quotient) * LaurentPoly.monomial(1, shift)

    def _min_exponents(self):
        """Componentwise minimum of the exponent vectors over all terms."""
        mins = {}
        first = True
        for mono in self.terms:
            exps = dict(mono)
            if first:
                mins = dict(exps)
                first = False
            else:
                for v in list(mins):
                    mins[v] = min(mins[v], exps.get(v, 0))
                for v, e in exps.items():
                    if v not in mins:
                        mins[v] = min(0, e)
        return {v: e for v, e in mins.items() if e != 0}

    # -- substitution and content -------------------------------------------

    def substitute(self, assignment):
        """Apply the ring homomorphism sending each assigned variable to its
        value; unassigned variables map to themselves.

        Raises NotInvertible if a variable with a negative exponent is sent
        to something that is not a unit.
        """
        result = LaurentPoly.zero()
        for mono, coeff in self.terms.items():
            term = LaurentPoly.const(coeff)
            for v, e in mono:
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
        for mono in self.terms:
            for _, e in mono:
                if e < 0:
                    raise ValueError(
                        "monomial content requires nonnegative exponents")
        eta = self._min_exponents()
        rest = self * LaurentPoly.monomial(1, {v: -e for v, e in eta.items()})
        return eta, rest

    def tropical_min_eval(self, frozen):
        """Evaluate in the tropical semifield over the frozen variables.

        Unfrozen variables are set to 1 and addition becomes componentwise
        min of frozen exponent vectors.  Returns the resulting monomial as a
        {var: exp} dict.
        """
        if self.is_zero():
            raise ValueError("tropical evaluation of the zero polynomial")
        if not self.is_nonnegative():
            raise NotSubtractionFree(
                f"{self} has a negative coefficient")
        mins = None
        for mono in self.terms:
            exps = {v: e for v, e in mono if v in frozen}
            if mins is None:
                mins = exps
            else:
                merged = {}
                for v in set(mins) | set(exps):
                    merged[v] = min(mins.get(v, 0), exps.get(v, 0))
                mins = merged
        return {v: e for v, e in mins.items() if e != 0}

    # -- canonical output ----------------------------------------------------

    def _sorted_terms(self):
        varlist = sorted(self.variables())

        def key(item):
            exps = dict(item[0])
            return tuple(exps.get(v, 0) for v in varlist)

        return sorted(self.terms.items(), key=key, reverse=True)

    def text(self):
        """Canonical text form, e.g. ``2 * x[1]^2 x[2]^-1 + 1``."""
        if self.is_zero():
            return "0"
        pieces = []
        for i, (mono, coeff) in enumerate(self._sorted_terms()):
            factors = " ".join(
                f"x[{v}]" if e == 1 else f"x[{v}]^{e}" for v, e in mono)
            if factors:
                body = f"{abs(coeff)} * {factors}" if abs(coeff) != 1 else factors
            else:
                body = str(abs(coeff))
            if i == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(pieces)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"LaurentPoly({self.text()!r})"

    def to_json_obj(self):
        return [{"coeff": coeff, "exponents": dict(mono)}
                for mono, coeff in self._sorted_terms()]

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

    def __add__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a + other.a, self.b + other.b,
                    self.c + other.c, self.d + other.d)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b,
                                                    other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

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
