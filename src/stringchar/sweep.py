"""The identity X_M * x^n == L_c on every string up to a length, in one
pass over the string tree (`quiver.string_tree`).

Every per-string quantity of the identity is a one-step recurrence along
the string, so a string one step longer than its parent costs a fixed
number of Laurent operations on the parent's state, whatever its length
and whatever the size of the quiver (the transfer-matrix method, Stanley,
Enumerative Combinatorics I, 4.7).  A string carries:

- the walk's state (l, r, l + r), a row vector whole after every vertex
  and its sum, so that N_c is the sum; each step multiplies the row
  vector by one cached monomial matrix (`formula.walk_step`);
- the transfer state (out, inn, total) at the character's weights
  (`character.transfer_step`);
- the shift x^(A dim M), A_ij the arrows i -> j: the product, over the
  positions of the string, of the column x^(A e_v) of A at each
  position's label v.  It is carried as its packed key and a bound on
  its exponents (`laurent`), so a step adds two pairs of ints; the bound
  is checked against the exponent limit where a product of monomials
  would check it.

The entries of the walk and transfer states are `laurent._Shifted`, each
a polynomial times a pending monomial.  So every product by a monomial in
a step adds two pairs of ints too, the keys and the bounds, and only the
sums touch the terms.

The walk is one side of the identity; the transfer state and the shift,
which is derived from the string alone, are the other.  They stay
separate recurrences, compared only at the end, term by term and
without forming T x^S (`laurent._Shifted.equals_shifted`); a
`LaurentPoly` is built only where a `Swept` is read.  The relation
counts of a string (`homalg._PositionCount`), from which the K0 check
reads, take one pass over its positions, which costs no Laurent
operation.
`walk_laurent`, `cluster_character`, `normalisation_vector` and
`simple_pairings` compute the same values one string at a time.
"""

from __future__ import annotations

from .character import _character, _check_descent, _require_loop_free, \
    _weights, transfer_start, transfer_step
from .formula import _step_cache, walk_start, walk_step
from .homalg import _PositionCount, _require_finite
from .laurent import LaurentPoly, _check_limit, _pack
from .quiver import _vertex_ends, string_tree


class Swept:
    """One string of the sweep: whether X_M * x^n == L_c holds on it
    (`holds`), and the terms from which each side is formed: the transfer
    product T, with X_M = T x^-<S_.,M>, the numerator N_c, with
    L_c = N_c x^-dim M, the shift x^(A dim M), with T x^S == N_c where
    the identity holds, and the string's `homalg._StringCounts`.  T and
    N_c are kept as the `laurent._Shifted` the recurrences leave, and the
    shift as its key and bound; each is built when it is read."""

    __slots__ = ("quiver", "string", "counts", "_transfer", "_numerator",
                 "shift_key", "shift_bound", "holds")

    def __init__(self, quiver, string, counts, transfer, numerator,
                 shift_key, shift_bound, holds):
        self.quiver = quiver
        self.string = string
        self.counts = counts
        self._transfer = transfer
        self._numerator = numerator
        self.shift_key = shift_key
        self.shift_bound = shift_bound
        self.holds = holds

    @property
    def transfer(self):
        return self._transfer.poly()

    @property
    def numerator(self):
        return self._numerator.poly()

    @property
    def shift(self):
        return LaurentPoly._of_key(self.shift_key, self.shift_bound)

    @property
    def character(self):
        return _character(self.quiver, self.counts, self._transfer)

    @property
    def walk_polynomial(self):
        return (self._numerator * LaurentPoly.monomial(
            1, {v: -d for v, d in self.counts.dims.items()})).poly()


def _arrow_columns(q):
    """The monomial x^(A e_j) of each vertex j, A_ij the arrows i -> j,
    as its key and bound (`laurent._pack`): the product of x_i over the
    arrows i -> j."""
    return {j: _pack(_vertex_ends(q, j)[1]) for j in q.vertices}


def sweep(q, max_length):
    """Yield a `Swept` for every string of length at most max_length with
    unfrozen support, in `enumerate_strings` order, each as soon as it is
    made.  Before the first string the quiver must be loop- and
    2-cycle-free (QuiverError) with a finite-dimensional path algebra
    (PathLimitExceeded); a string whose pairings do not descend to its
    dimension vector raises K0IllDefined when its turn comes.

    A string holds when T x^(n - <S_.,M> + dim M) == N_c.  The exponent is
    A dim M - l (`homalg.normalisation_vector`), where A_ij counts the
    arrows i -> j and l = 0 on a loop-free quiver.  So it is the carried
    shift x^(A dim M), and neither the pairings nor the normalising
    vector are built."""
    if q.unfrozen_vertices:
        _require_loop_free(q)
        _require_finite(q)
    weight = _weights(q)
    column = _arrow_columns(q)
    positions = _PositionCount(q)
    steps = _step_cache.setdefault(q, {})

    # a string's state: the walk's (l, r, l + r), the transfer state
    # (out, inn, total) and the shift's key and bound
    def root(c):
        v = c.source
        return (walk_start(q, v), transfer_start(weight[v])) + column[v]

    def extend(state, c):
        walk, transfer, key, bound = state
        v = c.target
        walk = walk_step(q, steps, walk, c, len(c.steps))
        transfer = transfer_step(transfer, c.steps[-1].forward, weight[v])
        step_key, step_bound = column[v]
        bound += step_bound
        _check_limit(bound, "the product")
        return walk, transfer, key + step_key, bound

    for c, (walk, transfer, key, bound) in string_tree(q, max_length, True,
                                                        root, extend):
        counts = positions.count(c)
        _check_descent(q, c, counts)
        numerator = walk[2]
        transfer = transfer[2]
        holds = numerator.equals_shifted(transfer, key, bound)
        yield Swept(q, c, counts, transfer, numerator, key, bound, holds)
