"""In-memory span recorder that wraps heckekit's public functions from outside.

Nothing under ``src/`` is changed: ``install`` replaces functions, methods
and cached properties of the already imported ``heckekit`` modules with
wrappers that time each call.  Spans nest through a stack, so a span's self
time is its duration minus the time covered by the spans it called.  The
self times of all spans therefore add up to the duration of the root spans
(one ``cli.main`` per job).

Hot operations (Laurent-polynomial arithmetic and other calls made millions
of times) are only aggregated; every other span is also kept as a record
``[id, parent id, name, start, end]`` so the span tree can be written out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """Per-name span aggregates, counters and the non-hot span records."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counts = defaultdict(int)
        self.spans: list[list] = []
        self._stack: list[list] = []  # [child seconds, span id] per open span

    def span(self, fn, name: str, hot: bool = False, before=None, after=None):
        """Wrap fn so that each call records one span called name.

        before(args) and after(args, result) may add to the counters; they
        run inside the span, so their cost is charged to it.
        """
        stack, stats, spans = self._stack, self.stats, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if not hot:
                frame[1] = len(spans)
                spans.append([frame[1], stack[-1][1] if stack else None, name, 0.0, 0.0])
            stack.append(frame)
            start = clock()
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                entry = stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if frame[1] is not None:
                    spans[frame[1]][3:] = [start, end]

        return wrapper

    def counter(self, fn, name: str):
        """Wrap fn so that each call only increments the counter name."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def report(self) -> dict:
        """Flat metrics: <span>.calls, <span>.total_s, <span>.self_s and counters."""
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".total_s"] = total
            out[name + ".self_s"] = self_s
        out.update(self.counts)
        return out


def _replace_everywhere(old, new) -> None:
    """Rebind every heckekit module attribute that refers to old."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "heckekit" or modname.startswith("heckekit.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _wrap_function(module, attr: str, make) -> None:
    old = getattr(module, attr)
    _replace_everywhere(old, make(old))


def _wrap_method(cls, attrs: tuple[str, ...], make) -> None:
    """Wrap one function stored under one or more names of a class."""
    new = make(cls.__dict__[attrs[0]])
    for attr in attrs:
        setattr(cls, attr, new)


def _wrap_cached_property(cls, attr: str, make) -> None:
    prop = functools.cached_property(make(cls.__dict__[attr].func))
    prop.__set_name__(cls, attr)
    setattr(cls, attr, prop)


def install(tracer: Tracer) -> Tracer:
    """Wrap the layers of the imported heckekit package into tracer."""
    from heckekit import basicsets, cli, coxeter, fock, klcells, laurent, schur

    counts = tracer.counts
    span, counter = tracer.span, tracer.counter

    # laurent: the ring operations every other layer is built on
    def mul_pairs(args):
        a, b = args
        counts["laurent.mul.term_pairs"] += len(a) * (len(b) if isinstance(b, laurent.LaurentPoly)
                                                     else int(b != 0))

    poly = laurent.LaurentPoly
    _wrap_method(poly, ("__mul__", "__rmul__"),
                 lambda f: span(f, "laurent.mul", hot=True, before=mul_pairs))
    _wrap_method(poly, ("__add__", "__radd__"), lambda f: span(f, "laurent.add", hot=True))
    _wrap_method(poly, ("exact_div",), lambda f: span(f, "laurent.exact_div", hot=True))

    # coxeter: group construction behind the per-type cache
    _wrap_function(coxeter, "build", lambda f: span(f, "coxeter.build"))
    _wrap_method(coxeter.WeylGroup, ("__init__",),
                 lambda f: counter(f, "coxeter.enumerations"))

    # klcells: the KL pipeline stages
    def cbasis_size(args, rows):
        counts["klcells.cbasis.nonzeros"] += sum(len(row) for row in rows)

    def hconst_size(args, table):
        counts["klcells.hconst.entries"] += sum(len(row) for row in table.values())

    _wrap_function(klcells, "kl_cbasis",
                   lambda f: span(f, "klcells.kl_cbasis", after=cbasis_size))
    _wrap_method(klcells.HeckeAlgebra, ("bar_row",), lambda f: counter(f, "klcells.bar_row.calls"))
    kld = klcells.KLData
    _wrap_cached_property(kld, "hconst",
                          lambda f: span(f, "klcells.hconst", after=hconst_size))
    _wrap_method(kld, ("cexpand",), lambda f: span(f, "klcells.cexpand", hot=True))
    _wrap_cached_property(kld, "afn", lambda f: span(f, "klcells.afn"))
    _wrap_cached_property(kld, "gamma", lambda f: span(f, "klcells.gamma"))
    _wrap_method(kld, ("check_property",), lambda f: span(f, "klcells.checks"))
    _wrap_method(kld, ("_check_P15prime",), lambda f: span(f, "klcells.check.P15prime"))
    _wrap_cached_property(kld, "jring", lambda f: span(f, "klcells.jring"))
    _wrap_method(kld, ("phi",), lambda f: span(f, "klcells.phi"))
    _wrap_cached_property(kld, "phi_matrix", lambda f: span(f, "klcells.phi"))
    _wrap_method(kld, ("phi_matrix_det",), lambda f: span(f, "klcells.phi"))

    # schur: invariant tables and the type-B product formula
    _wrap_function(schur, "all_invariants", lambda f: span(f, "schur.all_invariants"))
    _wrap_function(schur, "schur_element_B",
                   lambda f: span(f, "schur.schur_element_B", hot=True))

    # fock: crystal closure and the cogood-node operator
    def crystal_size(args, graph):
        counts["fock.crystal.vertices"] += sum(len(level) for level in graph.levels)
        counts["fock.crystal.edges"] += len(graph.edges)

    _wrap_function(fock, "crystal", lambda f: span(f, "fock.crystal", after=crystal_size))
    _wrap_function(fock, "ftilde", lambda f: span(f, "fock.ftilde", hot=True))

    # basicsets: dispatch for types A, B, D and matrix verification
    def labels_a_d(args, labels):
        counts["basicsets.basic_set.labels"] += len(labels)

    def labels_b(args, result):
        counts["basicsets.basic_set.labels"] += len(result[0])

    for attr, after in (("basic_set_sym", labels_a_d), ("basic_set_B", labels_b),
                        ("basic_set_D", labels_a_d)):
        _wrap_function(basicsets, attr,
                       lambda f, after=after: span(f, "basicsets.basic_set", after=after))
    _wrap_function(basicsets, "verify_decomp", lambda f: span(f, "basicsets.verify_decomp"))

    # cli: the root span of every job
    _wrap_function(cli, "main", lambda f: span(f, "cli.main"))
    return tracer
