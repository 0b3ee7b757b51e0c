"""Span tracing for the traced benchmark run.

``installed(tracer)`` replaces each function in ``TARGETS`` with a
wrapper wherever a ``treedissim`` module binds it, so calls the library
makes through its own module globals become child spans.  On leaving the
block every binding is restored; the timed runs never see a wrapper.

A span is ``(name, parent, start, end)``.  Spans of one item stay in
memory until the item ends and are then folded into per-name totals:
calls, total time and self time (duration minus the child spans), in
seconds of the nominal host like every other time the benchmark reports.
``Tracer.metrics`` reports every total and counter per traced item, so
the figures measure what one item costs in each layer, not how many
items fitted into the run.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from itertools import combinations
from math import comb
from time import perf_counter

PACKAGE = "treedissim"

# (module, attribute) of every traced callable, by layer.
TARGETS = [
    ("trees", "parse_newick"),
    ("trees", "serialize_newick"),
    ("trees", "distance_matrix"),
    ("trees", "reconstruct_tree"),
    ("trees", "build_equidistant"),
    ("trees", "DistanceMatrix.from_json_obj"),
    ("dissim", "dissimilarity_map"),
    ("dissim", "subset_dissimilarity"),
    ("dissim", "triple_dissimilarity"),
    ("dissim", "invert_triple_dissimilarity"),
    ("dissim", "triple_membership"),
    ("dissim", "reroot_ultrametric"),
    ("dissim", "verify_m4_characterization"),
    ("dissim", "DissimTensor.from_json_obj"),
    ("dissim", "DissimTensor.to_json_obj"),
    ("tropical", "four_point_check"),
    ("tropical", "is_ultrametric"),
    ("tropical", "three_term_plucker_check"),
    ("puiseux", "build_certificate"),
    ("puiseux", "verify_certificate"),
    ("puiseux", "det3"),
    ("puiseux", "ValuationCertificate.to_json_obj"),
    ("puiseux", "ValuationCertificate.from_json_obj"),
    ("rationals", "parse_rational"),
    ("rationals", "format_rational"),
    ("cli", "main"),
    ("cli", "_pmap"),
]
ITEM = "bench.item"
SUBCOMMANDS = ("dissim", "check", "membership3", "reconstruct", "certify3")
EXIT_CODES = (0, 1)
STAGES = {"ok": "accepted", "inverse": "rejected_inverse", "four_point": "rejected_four_point"}


def span_names() -> list[str]:
    return [ITEM] + [f"{mod}.{attr}" for mod, attr in TARGETS]



def counter_names() -> list[str]:
    return (
        ["dissim.dissimilarity_map.entries"]
        + [f"dissim.triple_membership.{v}" for v in STAGES.values()]
        + ["tropical.three_term_plucker_check.relations"]
        + ["puiseux.verify_certificate.minors"]
        + [f"cli.main.exit_{code}" for code in EXIT_CODES]
    )


def fold(spans: list[tuple]) -> dict[str, list[float]]:
    """Per-name ``[calls, total_s, self_s]`` of one item's spans.

    ``spans[k]`` is ``(name, parent_index, start, end)``.  Self time is
    the span's duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for k, (name, parent, start, end) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child[k]
    return out


def _lex_rank(items, target) -> int:
    """1-based position of ``target`` in the iterable, or its length."""
    count = 0
    for count, value in enumerate(items, 1):
        if value == target:
            break
    return count


def _relations(n: int, m: int, witness) -> int:
    """Relations ``three_term_plucker_check`` evaluated up to its verdict."""
    if n < m + 2:
        return 0
    if witness is None:
        return comb(n, m - 2) * comb(n - m + 2, 4)

    def order():
        labels = range(1, n + 1)
        for R in combinations(labels, m - 2):
            rest = [x for x in labels if x not in R]
            for quad in combinations(rest, 4):
                yield (R, quad)

    return _lex_rank(order(), witness)


class Tracer:
    """Collects spans item by item and keeps the per-name totals."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.totals: dict[str, list[float]] = {}
        self.counts: dict[str, float] = dict.fromkeys(counter_names(), 0)
        self.deferred: list[tuple] = []
        self.item: dict[str, list[float]] = {}
        self.item_seconds: dict[str, float] = {}
        self.items = 0
        self.wall = 0.0

    def begin_item(self) -> None:
        self.spans = [(ITEM, None, perf_counter(), None)]
        self.stack = [0]
        self.item_seconds = {}
        self.active = True

    def end_item(self) -> None:
        """Close the item's root span and fold its spans into ``self.item``."""
        self.active = False
        name, parent, start, _ = self.spans[0]
        self.spans[0] = (name, parent, start, perf_counter())
        self.item = fold(self.spans)
        self.spans, self.stack = [], []

    def commit(self, slowdown: float = 1.0) -> None:
        """Add the last item's totals, divided by the host slowdown."""
        self.items += 1
        self.wall += self.item[ITEM][1] / slowdown
        for key, seconds in self.item_seconds.items():
            self.counts[key] = self.counts.get(key, 0.0) + seconds / slowdown
        for key, (calls, total, own) in self.item.items():
            acc = self.totals.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total / slowdown
            acc[2] += own / slowdown

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, parent, start, end)
        hook = _HOOKS.get(name)
        if hook is not None:
            hook(self, args, kwargs, result, end - start)
        return result

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric per traced item, zero where the layer was not called."""
        for kind, *rest in self.deferred:
            if kind == "relations":
                self.counts["tropical.three_term_plucker_check.relations"] += _relations(*rest)
            elif kind == "minors":
                n, witness = rest
                triples = combinations(range(1, n + 1), 3)
                self.counts["puiseux.verify_certificate.minors"] += (
                    comb(n, 3) if witness is None else _lex_rank(triples, witness)
                )
        self.deferred = []
        per = 1 / max(self.items, 1)
        out = {}
        for name in span_names():
            calls, total, own = self.totals.get(name, (0, 0.0, 0.0))
            if name != ITEM:
                out[f"{name}.calls"] = (calls * per, "count/item")
            out[f"{name}.total_ms"] = (total * 1e3 * per, "ms/item")
            out[f"{name}.self_ms"] = (own * 1e3 * per, "ms/item")
        for sub in SUBCOMMANDS:
            seconds = self.counts.get(f"cli.main.{sub}", 0.0)
            out[f"cli.main.{sub}.total_ms"] = (seconds * 1e3 * per, "ms/item")
        for name in counter_names():
            out[name] = (self.counts[name] * per, "count/item")
        return out


# Counter hooks run after the span closes.  They only copy small values;
# anything that needs a loop is deferred to ``Tracer.metrics``.


def _on_map(tracer, args, kwargs, result, dur):
    tracer.counts["dissim.dissimilarity_map.entries"] += len(result.entries)


def _on_membership(tracer, args, kwargs, result, dur):
    tracer.counts[f"dissim.triple_membership.{STAGES[result.stage]}"] += 1


def _on_plucker(tracer, args, kwargs, result, dur):
    W = args[0] if args else kwargs["W"]
    tracer.deferred.append(("relations", W.n, W.m, result.witness))


def _on_verify(tracer, args, kwargs, result, dur):
    cert = args[0] if args else kwargs["cert"]
    tracer.deferred.append(("minors", cert.n, result.witness))


def _on_main(tracer, args, kwargs, result, dur):
    key = f"cli.main.{(args[0] if args else kwargs['argv'])[0]}"
    tracer.item_seconds[key] = tracer.item_seconds.get(key, 0.0) + dur
    tracer.counts[f"cli.main.exit_{result}"] = tracer.counts.get(f"cli.main.exit_{result}", 0) + 1


_HOOKS = {
    "dissim.dissimilarity_map": _on_map,
    "dissim.triple_membership": _on_membership,
    "tropical.three_term_plucker_check": _on_plucker,
    "puiseux.verify_certificate": _on_verify,
    "cli.main": _on_main,
}


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
    undo: list[tuple] = []
    try:
        for mod_name, attr in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, name, raw.__func__))
                else:
                    new = _wrap(tracer, name, raw)
                undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(mod, attr)
            new = _wrap(tracer, name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        undo.append((m, key, fn))
                        setattr(m, key, new)
        yield tracer
    finally:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)
