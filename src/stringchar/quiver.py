"""Quivers with frozen vertices and monomial relations, walks, strings,
string modules, principal extensions, blow-ups and windings."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from . import exactmat
from .errors import InputParseError, InvalidStringError, QuiverError


@dataclass(frozen=True)
class Arrow:
    name: str
    source: object
    target: object


class BoundIceQuiver:
    """A finite quiver with a frozen vertex set and monomial path relations.

    Vertices and arrows keep their declaration order, which fixes the
    deterministic orderings used everywhere else.  Relations are tuples of
    arrow names composed left to right (the relation (a, b) means "first a,
    then b").
    """

    def __init__(self, vertices, arrows, frozen=(), relations=()):
        self.vertices = tuple(vertices)
        # every output (x[...], JSON keys) names a vertex by its text
        for v in self.vertices:
            if not isinstance(v, str):
                raise QuiverError(f"vertex id {v!r} is not a string")
            # Walk.parse splits a walk at blanks, so e(...) of a vertex id
            # with a blank would read as steps
            if any(ch.isspace() for ch in v):
                raise QuiverError(
                    f"vertex id {v!r} would be read as another walk")
        self.vertex_set = frozenset(self.vertices)
        if len(self.vertex_set) != len(self.vertices):
            duplicate = next(v for k, v in enumerate(self.vertices)
                             if v in self.vertices[:k])
            raise QuiverError(f"duplicate vertex id {duplicate!r}")
        self.arrows = {}
        for entry in arrows:
            arrow = entry if isinstance(entry, Arrow) else Arrow(*entry)
            if not isinstance(arrow.name, str):
                raise QuiverError(f"arrow name {arrow.name!r} is not a string")
            # Walk.parse splits a walk at blanks, reads a trailing ^-1 as an
            # inverse step and e(...) as a trivial walk
            if arrow.name.split() != [arrow.name] or \
                    arrow.name.endswith("^-1") or \
                    arrow.name.startswith("e(") and arrow.name.endswith(")"):
                raise QuiverError(
                    f"arrow name {arrow.name!r} would be read as another walk")
            if arrow.name in self.arrows:
                raise QuiverError(f"duplicate arrow id {arrow.name!r}")
            if arrow.source not in self.vertex_set:
                raise QuiverError(
                    f"arrow {arrow.name!r} has undeclared source {arrow.source!r}")
            if arrow.target not in self.vertex_set:
                raise QuiverError(
                    f"arrow {arrow.name!r} has undeclared target {arrow.target!r}")
            self.arrows[arrow.name] = arrow
        self.frozen = frozenset(frozen)
        if not self.frozen <= self.vertex_set:
            raise QuiverError("frozen set contains undeclared vertices")
        for arrow in self.arrows.values():
            if arrow.source in self.frozen and arrow.target in self.frozen:
                raise QuiverError(
                    f"arrow {arrow.name!r} joins two frozen vertices")
        rels = []
        for rel in relations:
            rel = tuple(rel)
            if len(rel) < 2:
                raise QuiverError(f"relation {rel} has length < 2")
            for name in rel:
                if name not in self.arrows:
                    raise QuiverError(
                        f"relation uses unknown arrow {name!r}")
            for first, second in zip(rel, rel[1:]):
                if self.arrows[first].target != self.arrows[second].source:
                    raise QuiverError(
                        f"relation {rel} is not composable at {first!r}->{second!r}")
            rels.append(rel)
        self.relations = tuple(rels)
        self._from = {v: [] for v in self.vertices}
        self._to = {v: [] for v in self.vertices}
        for arrow in self.arrows.values():
            self._from[arrow.source].append(arrow)
            self._to[arrow.target].append(arrow)

    # -- accessors ----------------------------------------------------------

    def arrows_from(self, v):
        return list(self._from[v])

    def arrows_to(self, v):
        return list(self._to[v])

    def arrow(self, name):
        try:
            return self.arrows[name]
        except KeyError:
            raise QuiverError(f"unknown arrow {name!r}") from None

    @property
    def unfrozen_vertices(self):
        return tuple(v for v in self.vertices if v not in self.frozen)

    def is_blown_up(self):
        """True iff every frozen vertex meets at most one arrow."""
        return all(len(self._from[v]) + len(self._to[v]) <= 1
                   for v in self.frozen)

    def has_loops_or_two_cycles(self):
        pairs = set()
        for arrow in self.arrows.values():
            if arrow.source == arrow.target:
                return True
            if (arrow.target, arrow.source) in pairs:
                return True
            pairs.add((arrow.source, arrow.target))
        return False

    def is_acyclic(self):
        indeg = {v: 0 for v in self.vertices}
        for arrow in self.arrows.values():
            indeg[arrow.target] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for arrow in self._from[v]:
                indeg[arrow.target] -= 1
                if indeg[arrow.target] == 0:
                    queue.append(arrow.target)
        return seen == len(self.vertices)

    def full_subquiver(self, vertex_subset):
        """The full subquiver on the given vertices, keeping the frozen
        status and every relation whose arrows all survive."""
        keep = set(vertex_subset)
        vertices = [v for v in self.vertices if v in keep]
        arrows = [a for a in self.arrows.values()
                  if a.source in keep and a.target in keep]
        names = {a.name for a in arrows}
        relations = [r for r in self.relations if all(n in names for n in r)]
        return BoundIceQuiver(vertices, arrows, self.frozen & keep, relations)

    def unfrozen_part(self):
        return self.full_subquiver(self.unfrozen_vertices)

    def b_entry(self, i, j):
        """Entry of the skew-symmetric adjacency matrix: arrows i->j minus
        arrows j->i."""
        forward = sum(1 for a in self._from[i] if a.target == j)
        backward = sum(1 for a in self._from[j] if a.target == i)
        return forward - backward

    # -- parsing -------------------------------------------------------------

    @classmethod
    def from_text(cls, text):
        vertices = []
        frozen = []
        arrows = []
        relations = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            kind = tokens[0]
            if kind == "vertex":
                if len(tokens) == 2:
                    vertices.append(tokens[1])
                elif len(tokens) == 3 and tokens[2] == "frozen":
                    vertices.append(tokens[1])
                    frozen.append(tokens[1])
                else:
                    raise InputParseError(
                        "expected 'vertex <id> [frozen]'", line=lineno)
            elif kind == "arrow":
                if len(tokens) != 5 or tokens[3] != "->":
                    raise InputParseError(
                        "expected 'arrow <id> <src> -> <tgt>'", line=lineno)
                arrows.append((tokens[1], tokens[2], tokens[4]))
            elif kind == "relation":
                if len(tokens) < 3:
                    raise InputParseError(
                        "a relation needs at least two arrows", line=lineno)
                relations.append(tuple(tokens[1:]))
            else:
                raise InputParseError(
                    f"unknown directive {kind!r}", line=lineno,
                    column=raw.index(kind) + 1)
        try:
            return cls(vertices, arrows, frozen, relations)
        except QuiverError as exc:
            raise InputParseError(str(exc)) from exc

    @classmethod
    def from_file(cls, path):
        """Parse the quiver file at path; a file that cannot be read as
        UTF-8 text raises InputParseError naming the path and the reason."""
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputParseError(
                f"cannot read quiver file {str(path)!r}: "
                f"{exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise InputParseError(
                f"quiver file {str(path)!r} is not UTF-8 text: byte "
                f"{exc.start} ({exc.reason})") from None
        return cls.from_text(text)


@dataclass(frozen=True)
class Step:
    arrow: str
    forward: bool

    def inverse(self):
        return Step(self.arrow, not self.forward)


class Walk:
    """A walk in a quiver: either trivial at a vertex or a composable
    sequence of arrow steps, each taken forward or as a formal inverse."""

    def __init__(self, quiver, steps=(), at=None):
        self.quiver = quiver
        self.steps = tuple(steps)
        if self.steps:
            if at is not None:
                raise QuiverError("a nonempty walk has no separate base vertex")
            vertices = list(_step_ends(quiver, self.steps[0]))
            for index, step in enumerate(self.steps[1:], start=2):
                vertices.append(_step_ends(quiver, step, vertices[-1],
                                           index)[1])
            self.vertices = tuple(vertices)
        else:
            if at is None:
                raise QuiverError("a trivial walk needs a base vertex")
            if at not in quiver.vertex_set:
                raise QuiverError(f"unknown vertex {at!r}")
            self.vertices = (at,)

    @classmethod
    def trivial(cls, quiver, vertex):
        return cls(quiver, (), at=vertex)

    @property
    def length(self):
        return len(self.steps)

    @property
    def source(self):
        return self.vertices[0]

    @property
    def target(self):
        return self.vertices[-1]

    def inverse(self):
        if not self.steps:
            return self
        return Walk(self.quiver, tuple(s.inverse() for s in reversed(self.steps)))

    def on(self, quiver):
        """The same walk viewed in another quiver containing its arrows."""
        if not self.steps:
            return Walk.trivial(quiver, self.vertices[0])
        return Walk(quiver, self.steps)

    def extend(self, step):
        """This walk followed by one more step; only the new junction is
        checked."""
        _source, target = _step_ends(self.quiver, step, self.target,
                                     len(self.steps) + 1)
        walk = object.__new__(Walk)
        walk.quiver = self.quiver
        walk.steps = self.steps + (step,)
        walk.vertices = self.vertices + (target,)
        return walk

    def step_arrow(self, i):
        """Underlying arrow name of the 1-based step i, or None out of range."""
        if 1 <= i <= len(self.steps):
            return self.steps[i - 1].arrow
        return None

    def __eq__(self, other):
        if not isinstance(other, Walk):
            return NotImplemented
        return self.steps == other.steps and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.steps, self.vertices))

    def __str__(self):
        if not self.steps:
            return f"e({self.vertices[0]})"
        return " ".join(s.arrow if s.forward else f"{s.arrow}^-1"
                        for s in self.steps)

    def __repr__(self):
        return f"Walk({str(self)!r})"

    @classmethod
    def parse(cls, quiver, text):
        stripped = text.strip()
        if not stripped:
            raise InputParseError("empty walk expression", line=1, column=1)
        if stripped.startswith("e(") and stripped.endswith(")") and \
                " " not in stripped:
            vertex = stripped[2:-1]
            if vertex not in quiver.vertex_set:
                # the vertex follows "e(" after the leading blanks
                raise InputParseError(
                    f"unknown vertex {vertex!r} in trivial walk", line=1,
                    column=len(text) - len(text.lstrip()) + 3)
            return cls.trivial(quiver, vertex)
        steps, columns = [], []
        end = 0
        for token in text.split():
            start = text.index(token, end)
            end = start + len(token)
            if token.endswith("^-1"):
                name, forward = token[:-3], False
            else:
                name, forward = token, True
            if name not in quiver.arrows:
                raise InputParseError(
                    f"unknown arrow {name!r} in walk", line=1,
                    column=start + 1)
            steps.append(Step(name, forward))
            columns.append(start + 1)
        walk = cls(quiver, steps[:1])
        for step, column in zip(steps[1:], columns[1:]):
            try:
                walk = walk.extend(step)
            except QuiverError as exc:
                raise InputParseError(str(exc), line=1,
                                      column=column) from exc
        return walk


def _step_ends(quiver, step, end=None, index=1):
    """The (source, target) of a step; raises QuiverError unless the
    step, the 1-based index-th of its walk, starts at the end of the walk
    before it (any vertex for the first step)."""
    arrow = quiver.arrow(step.arrow)
    source, target = (arrow.source, arrow.target) if step.forward \
        else (arrow.target, arrow.source)
    if end is not None and source != end:
        raise QuiverError(f"walk is not composable at step {index}: "
                          f"{end!r} != {source!r}")
    return source, target


@dataclass(frozen=True)
class StringViolation:
    kind: str            # "backtrack" or "relation"
    index: int           # 1-based step index where the problem starts
    relation: tuple      # the offending relation path, if any
    message: str

    def __str__(self):
        return self.message


def validate_string(q, c):
    """Return None if the walk c is a string in q, else the first violation
    along it.

    A string has no immediate backtracking and no contiguous subwalk equal,
    read forward or inverted, to a relation path.  The check folds
    `extension_violation` over the walk, step i + 1 against steps 1..i, so
    the violation reported is the first along the walk: one whose window
    ends first, a backtrack before a relation.
    """
    if c.quiver is not q and c.steps:
        c = c.on(q)
    steps = c.steps
    for i, step in enumerate(steps):
        violation = extension_violation(q, steps[:i], step)
        if violation is not None:
            return violation
    return None


def extension_violation(q, steps, step):
    """The violation of the walk steps + (step,) on the windows that end at
    its last step: a backtrack, or a relation read forward or inverted.
    validate_string folds it over the steps of a walk, so a string is
    extended by checking these windows alone."""
    n = len(steps) + 1
    if steps and steps[-1].arrow == step.arrow and \
            steps[-1].forward != step.forward:
        return StringViolation(
            "backtrack", n - 1, (),
            f"step {n - 1} is immediately undone by step {n}")
    for rel in q.relations:
        k = len(rel)
        # a window ending at step spells rel forward only if step is its
        # last arrow, and inverted only if step is its first
        if k > n or rel[-1 if step.forward else 0] != step.arrow:
            continue
        window = steps[n - k:] + (step,)
        names = tuple(s.arrow for s in window)
        if all(s.forward for s in window) and names == rel:
            spelled = "the relation"
        elif not any(s.forward for s in window) and names[::-1] == rel:
            spelled = "the inverse of the relation"
        else:
            continue
        return StringViolation(
            "relation", n - k + 1, rel,
            f"steps {n - k + 1}..{n} spell {spelled} {' '.join(rel)}")
    return None


def is_valid_string(q, c):
    return validate_string(q, c) is None


def ensure_string(q, c):
    """The walk c on q; raises InvalidStringError unless it is a string."""
    if c.quiver is not q:
        c = c.on(q)
    violation = validate_string(q, c)
    if violation is not None:
        raise InvalidStringError(violation)
    return c


class Representation:
    """A representation of a bound quiver over the rationals.

    dims maps vertices to int dimensions (missing vertices get 0); mats
    maps arrow names to dim(target) x dim(source) matrices acting on column
    vectors (missing arrows get zero matrices).  A key that names no
    vertex or arrow of the quiver raises QuiverError.
    """

    def __init__(self, quiver, dims, mats=None, check_relations=True):
        self.quiver = quiver
        mats = mats or {}
        for v in dims:
            if v not in quiver.vertex_set:
                raise QuiverError(f"dimension for unknown vertex {v!r}")
        for name in mats:
            if name not in quiver.arrows:
                raise QuiverError(f"matrix for unknown arrow {name!r}")
        self.dims = {}
        for v in quiver.vertices:
            try:
                d = operator.index(dims.get(v, 0))
            except TypeError:
                raise QuiverError(f"dimension at vertex {v!r} is not an "
                                  f"int: {dims[v]!r}") from None
            if d < 0:
                raise QuiverError(f"negative dimension at vertex {v!r}")
            self.dims[v] = d
        self.mats = {}
        for name, arrow in quiver.arrows.items():
            rows = self.dims[arrow.target]
            cols = self.dims[arrow.source]
            if name in mats:
                m = exactmat.from_rows(mats[name])
                if len(m) != rows or any(len(r) != cols for r in m):
                    raise QuiverError(
                        f"matrix for arrow {name!r} must be {rows}x{cols}")
            else:
                m = exactmat.zeros(rows, cols)
            self.mats[name] = m
        if check_relations and not self.satisfies_relations():
            raise QuiverError("representation violates a relation")

    def satisfies_relations(self):
        for rel in self.quiver.relations:
            product = self.path_matrix(rel)
            if any(x != 0 for row in product for x in row):
                return False
        return True

    def path_matrix(self, path):
        """Composite matrix of a left-to-right composable arrow path."""
        first = self.quiver.arrow(path[0])
        product = self.mats[first.name]
        for name in path[1:]:
            # an unknown arrow raises QuiverError, not KeyError
            arrow = self.quiver.arrow(name)
            product = exactmat.mat_mul(self.mats[arrow.name], product,
                                       self.dims[first.source])
        return product

    def support(self):
        return {v for v, d in self.dims.items() if d > 0}

    def total_dim(self):
        return sum(self.dims.values())

    def __repr__(self):
        dims = {v: d for v, d in self.dims.items() if d}
        return f"Representation(dims={dims})"


def simple(q, v):
    """The simple representation at vertex v."""
    return Representation(q, {v: 1})


def string_module(q, c):
    """The Butler-Ringel string module of a valid string.

    Basis vector z_i sits at the i-th walk vertex; a forward step at
    position i sends z_i to z_{i+1}, an inverse step sends z_{i+1} to z_i.
    """
    c = ensure_string(q, c)
    # local[k]: the slot of position k among the positions at its vertex
    dims, local = {}, []
    for v in c.vertices:
        local.append(dims.get(v, 0))
        dims[v] = local[-1] + 1
    mats = {}
    for i, step in enumerate(c.steps):
        arrow = q.arrow(step.arrow)
        m = mats.setdefault(
            step.arrow,
            exactmat.zeros(dims.get(arrow.target, 0), dims.get(arrow.source, 0)))
        if step.forward:
            m[local[i + 1]][local[i]] = Fraction(1)
        else:
            m[local[i]][local[i + 1]] = Fraction(1)
    return Representation(q, dims, mats)


def principal_extension(q):
    """Add one frozen vertex v' and one arrow v' -> v per vertex v."""
    if q.frozen:
        raise QuiverError("principal extension expects no frozen vertices")
    frozen = [f"{v}'" for v in q.vertices]
    for v, primed in zip(q.vertices, frozen):
        for kind, names in (("vertex", q.vertex_set), ("arrow", q.arrows)):
            if primed in names:
                raise QuiverError(
                    f"principal extension: the frozen vertex and arrow "
                    f"{primed!r} added for vertex {v!r} clash with the "
                    f"{kind} {primed!r}")
    arrows = list(q.arrows.values()) + \
        [(primed, primed, v) for v, primed in zip(q.vertices, frozen)]
    return BoundIceQuiver(list(q.vertices) + frozen, arrows, frozen,
                          q.relations)


def support_closure(q, support):
    """The closure of a set of vertices: the set and its one-arrow
    neighbours."""
    closure = set(support)
    for arrow in q.arrows.values():
        if arrow.source in support:
            closure.add(arrow.target)
        if arrow.target in support:
            closure.add(arrow.source)
    return closure


def closure_and_border(q, rep):
    """Full subquiver on the closure of the support of rep, and the border
    (closure minus support)."""
    support = rep.support()
    closure = support_closure(q, support)
    return q.full_subquiver(closure), frozenset(closure - support)


class Winding:
    """A quiver morphism injective on co-starting and on co-ending arrows."""

    def __init__(self, source, target, vertex_map, arrow_map):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.arrow_map = dict(arrow_map)
        for v in source.vertices:
            if self.vertex_map.get(v) not in target.vertex_set:
                raise QuiverError(f"vertex {v!r} has no valid image")
        for name, arrow in source.arrows.items():
            image = self.arrow_map.get(name)
            if image not in target.arrows:
                raise QuiverError(f"arrow {name!r} has no valid image")
            img = target.arrow(image)
            if img.source != self.vertex_map[arrow.source] or \
                    img.target != self.vertex_map[arrow.target]:
                raise QuiverError(
                    f"arrow map is not a quiver morphism at {name!r}")
        by_source = {}
        by_target = {}
        for name, arrow in source.arrows.items():
            key = (arrow.source, self.arrow_map[name])
            if key in by_source:
                raise QuiverError(
                    f"arrows {by_source[key]!r} and {name!r} share a source "
                    "and an image")
            by_source[key] = name
            key = (arrow.target, self.arrow_map[name])
            if key in by_target:
                raise QuiverError(
                    f"arrows {by_target[key]!r} and {name!r} share a target "
                    "and an image")
            by_target[key] = name

    @classmethod
    def identity(cls, q):
        return cls(q, q, {v: v for v in q.vertices},
                   {a: a for a in q.arrows})

    def vertex_preimages(self, v):
        return sorted(w for w, img in self.vertex_map.items() if img == v)

    def arrow_preimages(self, name):
        return sorted(b for b, img in self.arrow_map.items() if img == name)


def pushforward(phi, rep):
    """Direct sum of fibres: block matrices in the sorted preimage order."""
    if rep.quiver is not phi.source:
        rep = Representation(phi.source, rep.dims, rep.mats,
                             check_relations=False)
    offsets = {}
    dims = {}
    for v in phi.target.vertices:
        offset = 0
        for w in phi.vertex_preimages(v):
            offsets[w] = offset
            offset += rep.dims[w]
        dims[v] = offset
    mats = {}
    for name, arrow in phi.target.arrows.items():
        block = exactmat.zeros(dims[arrow.target], dims[arrow.source])
        for b in phi.arrow_preimages(name):
            src = phi.source.arrow(b)
            exactmat.set_block(block, rep.mats[b], offsets[src.target],
                               offsets[src.source])
        mats[name] = block
    return Representation(phi.target, dims, mats, check_relations=False)


def blow_up(q, c):
    """Unfold q along a string into a type-A spine with frozen pendants.

    The spine vertices are v1..v{n+1}.  Each pendant vertex takes the name
    of its pendant arrow, {arrow}@v{k}, and a loop's in-pendant adds a '.
    Returns (blown-up ice quiver, winding onto the closure of the support,
    spine representation).
    """
    c = ensure_string(q, c)
    module = string_module(q, c)
    closure, _border = closure_and_border(q, module)
    n = c.length
    spine = [f"v{i}" for i in range(1, n + 2)]
    vertices = list(spine)
    arrows = []
    vertex_map = {f"v{i}": c.vertices[i - 1] for i in range(1, n + 2)}
    arrow_map = {}
    mats = {}
    for i, step in enumerate(c.steps, start=1):
        name = f"b{i}"
        if step.forward:
            arrows.append((name, f"v{i}", f"v{i + 1}"))
        else:
            arrows.append((name, f"v{i + 1}", f"v{i}"))
        arrow_map[name] = step.arrow
        mats[name] = [[Fraction(1)]]
    pendants = []
    for i in range(1, n + 2):
        u = c.vertices[i - 1]
        excluded = {c.step_arrow(i - 1), c.step_arrow(i)}
        for arrow in q.arrows_from(u):
            if arrow.name in excluded:
                continue
            pv = pa = f"{arrow.name}@v{i}"
            vertices.append(pv)
            arrows.append((pa, f"v{i}", pv))
            pendants.append(pv)
            vertex_map[pv] = arrow.target
            arrow_map[pa] = arrow.name
        for arrow in q.arrows_to(u):
            if arrow.name in excluded:
                continue
            pv = pa = f"{arrow.name}@v{i}"
            if arrow.source == arrow.target:
                # a loop also has an out-pendant of the same name
                pv = pa = pa + "'"
            vertices.append(pv)
            arrows.append((pa, pv, f"v{i}"))
            pendants.append(pv)
            vertex_map[pv] = arrow.source
            arrow_map[pa] = arrow.name
    qtilde = BoundIceQuiver(vertices, arrows, frozen=pendants)
    phi = Winding(qtilde, closure, vertex_map, arrow_map)
    mtilde = Representation(qtilde, {v: 1 for v in spine}, mats)
    return qtilde, phi, mtilde


def string_tree(q, max_length, unfrozen_only=False, root=None,
                extend=None):
    """Grow every string of length at most max_length as a tree and yield
    a pair (c, state) per string c as soon as it is made: by length, then
    in the order of construction.  The strings of length 0 are the trivial
    ones, in vertex order; each string of length n + 1 extends one of
    length n, the parents taken in order, by one step, the arrows taken in
    declaration order and the forward step of an arrow before its inverse.
    Only the windows that end at the new step are checked
    (`extension_violation`).

    state is root(c) for a trivial string and extend(state of the parent,
    c) for a longer one (None without them), so a caller carries anything
    that grows one step at a time; only the states of the newest two
    lengths are held."""
    allowed = set(q.unfrozen_vertices) if unfrozen_only else q.vertex_set
    moves = {v: [] for v in allowed}
    for arrow in q.arrows.values():
        if arrow.source in allowed and arrow.target in allowed:
            moves[arrow.source].append(Step(arrow.name, True))
            moves[arrow.target].append(Step(arrow.name, False))
    frontier = []
    for v in q.vertices:
        if v in allowed:
            c = Walk.trivial(q, v)
            node = c, root(c) if root else None
            yield node
            frontier.append(node)
    for _ in range(max_length):
        children = []
        for parent, state in frontier:
            for step in moves[parent.target]:
                if extension_violation(q, parent.steps, step) is None:
                    c = parent.extend(step)
                    node = c, extend(state, c) if extend else None
                    yield node
                    children.append(node)
        if not children:
            break
        frontier = children


def enumerate_strings(q, max_length, unfrozen_only=False):
    """All strings of length at most max_length, in `string_tree` order:
    by length, then in the order of construction.  Both orientations of
    each nontrivial string are produced."""
    return [c for c, _state in string_tree(q, max_length, unfrozen_only)]
