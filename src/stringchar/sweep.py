"""The identity X_M * x^n == L_c on every string up to a length, in one
pass over the string tree (`quiver.string_tree`).

Both sides are left-to-right two-state recurrences along the string, so
a string one step longer than its parent costs a fixed number of Laurent
operations on the parent's state, whatever its length (the transfer-matrix
method, Stanley, Enumerative Combinatorics I, 4.7).  A string carries:

- the walk's row vector (l, r), whole after every vertex, so that
  N_c = l + r; each step multiplies it by one cached monomial matrix
  (`formula.walk_step`);
- the transfer pair (out, inn) at the character's weights, and its sum
  (`character.transfer_step`).

The two sides stay separate recurrences, compared only at the end.  The
dimension vector and the relation counts of a string
(`homalg._PositionCount`) take one pass over its positions, which costs
no Laurent operation.
`walk_laurent`, `cluster_character`, `normalisation_vector` and
`simple_pairings` compute the same values one string at a time.
"""

from __future__ import annotations

from .character import _character, _check_descent, _require_loop_free, \
    _weights, transfer_step
from .formula import walk_start, walk_step
from .homalg import _PositionCount, _require_finite
from .laurent import LaurentPoly
from .quiver import string_tree


class Swept:
    """One string of the sweep: whether X_M * x^n == L_c holds on it
    (`holds`), and the terms from which each side is formed: the transfer
    product T, with X_M = T x^-<S_.,M>, the numerator N_c, with
    L_c = N_c x^-dim M, and the string's `homalg._StringCounts`."""

    __slots__ = ("quiver", "string", "counts", "transfer", "numerator",
                 "holds")

    def __init__(self, quiver, string, counts, transfer, numerator, holds):
        self.quiver = quiver
        self.string = string
        self.counts = counts
        self.transfer = transfer
        self.numerator = numerator
        self.holds = holds

    @property
    def character(self):
        return _character(self.quiver, self.counts, self.transfer)

    @property
    def walk_polynomial(self):
        return self.numerator * LaurentPoly.monomial(
            1, {v: -d for v, d in self.counts.dims.items()})


def sweep(q, max_length):
    """Yield a `Swept` for every string of length at most max_length with
    unfrozen support, in `enumerate_strings` order, each as soon as it is
    made.  Before the first string the quiver must be loop- and
    2-cycle-free (QuiverError) with a finite-dimensional path algebra
    (PathLimitExceeded); a string whose pairings do not descend to its
    dimension vector raises K0IllDefined when its turn comes.

    A string holds when T x^(n - <S_.,M> + dim M) == N_c.  The exponent is
    A dim M - l (`homalg.normalisation_vector`), where A_ij counts the
    arrows i -> j and l = 0 on a loop-free quiver.  So it is x^(A dim M)
    (`arrow_sums` of the string's counts), and neither the pairings nor
    the normalising vector are built."""
    if q.unfrozen_vertices:
        _require_loop_free(q)
        _require_finite(q)
    weight = _weights(q)
    positions = _PositionCount(q)

    # a string's state: the walk's (l, r) and the transfer state (out, inn,
    # total)
    def root(c):
        w = weight[c.source]
        return walk_start(q, c.source), (1, w, 1 + w)

    def extend(state, c):
        vector, transfer = state
        return (walk_step(q, vector, c, len(c.steps)),
                transfer_step(transfer, c.steps[-1].forward,
                              weight[c.target]))

    for c, ((left, right), transfer) in string_tree(q, max_length, True,
                                                    root, extend):
        counts = positions.count(c)
        _check_descent(q, c, counts)
        numerator = left + right
        holds = transfer[2] * LaurentPoly.monomial(
            1, counts.arrow_sums(q)) == numerator
        yield Swept(q, c, counts, transfer[2], numerator, holds)
