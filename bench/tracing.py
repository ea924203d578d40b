"""Span tracing of stringchar's layers from outside the package.

The tracer replaces each layer function at every place it is bound -- its
home module, every module that imported it by name, the package namespace
and, for methods, every class attribute that holds it (``__rmul__`` is the
same function as ``__mul__``).  Patching only the home module would miss
calls made through ``from .homalg import euler_forms`` and the like.

Each call becomes a span record ``[name, start, end, parent, outer]``.
Records are kept in memory in entry order, so a parent always precedes its
children; ``outer`` is False when a span of the same name is already open,
so that ``total_s`` never counts nested time twice.  Exact operation counts
are taken at the same boundaries.
"""

from __future__ import annotations

import collections
import gzip
import importlib
import sys
import time

# (module, attribute path, span name); the attribute path may name a class
# attribute as "Class.method".
LAYERS = (
    ("stringchar.cli", "main", "cli.main"),
    ("stringchar.quiver", "enumerate_strings", "quiver.enumerate_strings"),
    ("stringchar.quiver", "string_module", "quiver.string_module"),
    ("stringchar.quiver", "blow_up", "quiver.blow_up"),
    ("stringchar.formula", "walk_laurent", "formula.walk_laurent"),
    ("stringchar.homalg", "euler_forms", "homalg.euler_forms"),
    ("stringchar.homalg", "normalisation_vector",
     "homalg.normalisation_vector"),
    ("stringchar.homalg", "projective_cover_data",
     "homalg.projective_cover_data"),
    ("stringchar.homalg", "hom_dim", "homalg.hom_dim"),
    ("stringchar.homalg", "ext1_dim", "homalg.ext1_dim"),
    ("stringchar.exactmat", "rref", "exactmat.rref"),
    ("stringchar.character", "cluster_character",
     "character.cluster_character"),
    ("stringchar.character", "total_gr_euler", "character.total_gr_euler"),
    ("stringchar.character", "StringDiagram.submodule_counts",
     "character.StringDiagram.submodule_counts"),
    ("stringchar.laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("stringchar.laurent", "LaurentPoly.exact_div", "laurent.exact_div"),
    ("stringchar.mutation", "mutate", "mutation.mutate"),
    ("stringchar.mutation", "Seed.key", "mutation.Seed.key"),
)
SPAN_NAMES = tuple(name for _module, _attr, name in LAYERS)

# functions wrapped for counting only: a span per call would cost more than
# the call itself
COUNTED = (
    ("stringchar.quiver", "is_valid_string", "quiver.is_valid_string"),
)


def _resolve(module_name, path):
    value = importlib.import_module(module_name)
    for attr in path.split("."):
        value = getattr(value, attr)
    return value


def _binding_sites(target):
    """Every (namespace owner, attribute) in the stringchar package whose
    value is the function object `target`."""
    sites = []
    for name, module in list(sys.modules.items()):
        if name != "stringchar" and not name.startswith("stringchar."):
            continue
        for owner in [module] + [v for v in vars(module).values()
                                 if isinstance(v, type)
                                 and v.__module__ == name]:
            for attr, value in list(vars(owner).items()):
                if value is target:
                    sites.append((owner, attr))
    return sites


class Tracer:
    """Collects spans and exact counts while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.root_tags = {}
        self.tag = None
        self.seen_keys = set()
        self.sites = {}
        self._saved = []

    # -- installation --------------------------------------------------------

    def install(self):
        counters = {
            "exactmat.rref": self._count_rref,
            "character.StringDiagram.submodule_counts": self._count_masks,
            "laurent.mul": self._count_term_pairs,
            "mutation.Seed.key": self._count_seed_key,
        }
        for module_name, path, name in LAYERS:
            target = _resolve(module_name, path)
            self._patch(target, self._span(name, target, counters.get(name)),
                        name)
        for module_name, path, name in COUNTED:
            target = _resolve(module_name, path)
            self._patch(target, self._candidate_counter(target), name)
        return self

    def _patch(self, target, wrapper, name):
        sites = _binding_sites(target)
        self.sites[name] = [f"{getattr(o, '__name__', o)}.{a}"
                            for o, a in sites]
        for owner, attr in sites:
            self._saved.append((owner, attr, target))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, target in reversed(self._saved):
            setattr(owner, attr, target)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording -----------------------------------------------------------

    def begin_call(self, tag):
        """Mark the start of one CLI call; `tag` labels all of its spans."""
        self.tag = tag
        self.root_tags[len(self.spans)] = tag
        self.seen_keys.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.root_tags.clear()
        self.seen_keys.clear()

    def _span(self, name, fn, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        open_depth = [0]

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      open_depth[0] == 0]
            stack.append(len(spans))
            spans.append(record)
            open_depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_depth[0] -= 1
                stack.pop()
            if counter is not None:
                counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _candidate_counter(self, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack and spans[stack[-1]][0] == "quiver.enumerate_strings":
                self.counts["quiver.enumerate_strings.candidates",
                            self.tag] += 1
                self.counts["quiver.enumerate_strings.kept",
                            self.tag] += bool(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_rref(self, args, kwargs, _result):
        m = args[0]
        cols = args[1] if len(args) > 1 else kwargs.get("cols")
        if cols is None:
            cols = len(m[0]) if m else 0
        self.counts["exactmat.rref.cells", self.tag] += len(m) * cols

    def _count_masks(self, args, _kwargs, result):
        self.counts["character.masks_scanned", self.tag] += \
            1 << len(args[0].labels)
        self.counts["character.closed_subsets", self.tag] += \
            sum(result.values())

    def _count_term_pairs(self, args, _kwargs, result):
        if result is NotImplemented:
            return
        a, b = args
        # an int operand is coerced to a constant of one term, or none for 0
        right = len(b.terms) if isinstance(b, type(a)) else int(b != 0)
        self.counts["laurent.mul.term_pairs", self.tag] += len(a.terms) * right

    def _count_seed_key(self, _args, _kwargs, result):
        if result not in self.seen_keys:
            self.seen_keys.add(result)
            self.counts["mutation.distinct_keys", self.tag] += 1

    # -- aggregation ---------------------------------------------------------

    def _roots(self):
        """Index of the root span (the CLI call) of every span."""
        root = [0] * len(self.spans)
        for i, (_name, _start, _end, parent, _outer) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
        return root

    def aggregate(self):
        """Per (span name, tag): calls, self time and outermost total time.

        A span's self time is its duration minus the durations of its
        direct children; on one thread the children are disjoint and lie
        inside the parent, so that is exactly the time no child covers.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        root = self._roots()
        calls = collections.Counter()
        self_s = collections.Counter()
        total_s = collections.Counter()
        for i in range(len(spans) - 1, -1, -1):
            name, start, end, parent, outer = spans[i]
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
            key = (name, self.root_tags.get(root[i]))
            calls[key] += 1
            self_s[key] += duration - child_time[i]
            if outer:
                total_s[key] += duration
        return calls, self_s, total_s

    def write_spans(self, path):
        """Write the recorded spans as gzipped tab-separated lines:
        index, name, start, end, parent index, tag of the root call."""
        root = self._roots()
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\ttag\n")
            for i, (name, start, end, parent, _outer) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                          f"{self.root_tags.get(root[i]) or ''}\n")
