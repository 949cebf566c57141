"""Spans around calls into cypair's layers, for the traced benchmark run.

``Tracer.install`` replaces module attributes and class methods of the five
modules (``symcalc``, ``chow``, ``sncpair``, ``hodge``, ``cli``) with wrappers
that record a span per call: name, start, end and parent, in memory.
Because the attributes themselves are replaced, calls that the program
makes internally through a module global or a method lookup are caught too
(``symmetrize_to_chern -> expand_to_roots``, ``chi_d -> validate``).  Every
attribute of a class that holds the wrapped function is patched, so an
alias such as ``__rmul__ = __mul__`` is traced with it.

A span's self time is its duration minus the part of it that its child
spans cover.  A layer's time is the sum of the self times of its spans.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from array import array
from collections import defaultdict
from fractions import Fraction

from cypair import chow, cli, hodge, sncpair, symcalc

#: The traced modules; each span name starts with one of them.
LAYERS = ("symcalc", "chow", "sncpair", "hodge", "cli")

# -- counters recorded next to spans ------------------------------------------


def _term_pairs(key):
    def note(tracer, args, result):
        a, b = args[0], args[1]
        other = len(b.terms) if hasattr(b, "terms") else 1
        tracer.counts[key] += len(a.terms) * other
    return note


def _symmetrize_note(tracer, args, result):
    tracer.counts["symcalc.symmetrize.terms_in"] += len(args[0].terms)
    tracer.counts["symcalc.symmetrize.terms_out"] += len(result.terms)


def _reduce_note(tracer, args, result):
    tracer.counts["chow.reduce.terms_in"] += len(args[1])
    tracer.counts["chow.reduce.terms_out"] += len(result)


def _hrr_note(tracer, args, result):
    model = args[0]
    if id(model) not in tracer.models:
        tracer.models[id(model)] = model
        tracer.counts["chow.basis_size"] += math.prod(c + 1 for c in model.caps)


def _chi_d_note(tracer, args, result):
    tracer.counts["sncpair.strata"] += len(args[0].strata)


def _pair_note(tracer, args, result):
    tracer.counts["sncpair.pairs"] += 1


def _json_in_note(tracer, args, result):
    tracer.counts["sncpair.pairs"] += 1
    tracer.counts["sncpair.json_in.bytes"] += len(args[0].encode())


def _emit_note(tracer, args, result):
    tracer.counts["cli.checks"] += len(args[0].checks)


#: (owner, attribute names, span name, counter).  The span name's first
#: component is the layer.
TARGETS = [
    (symcalc.RootSeries, ["__mul__"], "symcalc.root_mul",
     _term_pairs("symcalc.root_mul.term_pairs")),
    (symcalc.ChernSeries, ["__mul__"], "symcalc.chern_mul",
     _term_pairs("symcalc.chern_mul.term_pairs")),
    (symcalc, ["symmetrize_to_chern"], "symcalc.symmetrize", _symmetrize_note),
    (symcalc, ["expand_to_roots"], "symcalc.expand_to_roots", None),
    (symcalc, ["todd", "todd_prime", "ch_exterior", "todd_roots",
               "todd_prime_roots", "ch_exterior_roots", "_exterior_levels"],
     "symcalc.genus", None),
    (symcalc, ["verify_total_class_identities",
               "verify_shifted_class_identities"], "symcalc.verify", None),
    (chow.CohClass, ["__mul__"], "chow.mul", _term_pairs("chow.mul.term_pairs")),
    (chow.RingModel, ["reduce_terms"], "chow.reduce", _reduce_note),
    (chow, ["evaluate_chern_series"], "chow.evaluate_chern_series", None),
    (chow, ["hrr_chi"], "chow.hrr_chi", _hrr_note),
    (chow, ["projective_space", "product", "projective_bundle"],
     "chow.model", None),
    (chow, ["euler_characteristic", "adiabatic_coefficient"],
     "chow.integrate", None),
    (chow, ["todd_class", "ch_line", "ch_cotangent_exterior"], "chow.ch", None),
    (sncpair, ["validate"], "sncpair.validate", None),
    (sncpair, ["chi_d"], "sncpair.chi_d", _chi_d_note),
    (sncpair, ["weight"], "sncpair.weight", None),
    (sncpair, ["blowup_transform", "center_pair", "exceptional_pair"],
     "sncpair.transform", None),
    (sncpair, ["check_blowup_invariance", "induced_center_pairs",
               "exceptional_multiplicity"], "sncpair.check", None),
    (sncpair, ["pair_from_json"], "sncpair.json_in", _json_in_note),
    (sncpair, ["random_blowup_instance"], "sncpair.random_instance", _pair_note),
    (sncpair, ["cp_pair"], "sncpair.model", _pair_note),
    (sncpair, ["chi_d_via_fprime"], "sncpair.model", None),
    (hodge, ["lambda_exponent_check"], "hodge.ledger", None),
    (hodge, ["random_symmetric_diamond"], "hodge.diamond", None),
    (hodge.HodgeDiamond, ["__init__"], "hodge.diamond", None),
    (cli, ["main"], "cli.main", None),
    (cli, [name for name in dir(cli) if name.startswith("cmd_")],
     "cli.command", None),
    (cli, ["_emit"], "cli.emit", _emit_note),
]

#: The lru_caches of the universal genera, read through their originals.
GENUS_CACHES = ("todd", "todd_prime", "ch_exterior", "_exterior_levels")


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` holds ``(id, parent, start, end)`` tuples, parent -1 for a
    root.  Child intervals are clipped to the parent and merged, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    bounds = {}
    for sid, parent, start, end in spans:
        bounds[sid] = (start, end)
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = end - start - covered
    return out


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.records = array("q")  # id, parent, name code, start, end per span
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        # models seen by hrr_chi, kept alive so that their ids stay unique
        self.models: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._caches: dict[str, object] = {}
        self._cache_start: dict[str, object] = {}

    def _wrap(self, name: str, fn, note):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        stack, extend, next_id = self.stack, self.records.extend, self._ids.__next__
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                extend((sid, parent, code, start, end))
            if note is not None:
                note(self, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self._caches = {name: getattr(symcalc, name) for name in GENUS_CACHES}
        self._cache_start = {name: cache.cache_info()
                             for name, cache in self._caches.items()}
        for owner, attrs, name, note in TARGETS:
            for attr in attrs:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, note)
                aliases = [a for a, v in vars(owner).items() if v is original]
                for alias in aliases:
                    self._patch(owner, alias, wrapper)
        new = Fraction.__dict__["__new__"].__func__
        counts = self.counts

        def counting_new(cls, *args, **kwargs):
            counts["fractions.created"] += 1
            return new(cls, *args, **kwargs)

        self._patch(Fraction, "__new__", staticmethod(counting_new))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def cache_hit_ratio(self) -> float:
        """Hits over lookups of the genus caches since install."""
        hits = lookups = 0
        for name, cache in self._caches.items():
            info, start = cache.cache_info(), self._cache_start[name]
            hits += info.hits - start.hits
            lookups += info.hits + info.misses - start.hits - start.misses
        return hits / lookups if lookups else 0.0

    def spans(self):
        """(id, parent, name, start_ns, end_ns) of every recorded span."""
        r = self.records
        for i in range(0, len(r), 5):
            yield r[i], r[i + 1], self.names[r[i + 2]], r[i + 3], r[i + 4]

    def summary(self, wall_s: float) -> tuple[dict[str, float], dict[str, float]]:
        """Exact counts and ratios, and times in seconds, of one repetition."""
        spans = list(self.spans())
        own = self_times((s[0], s[1], s[3], s[4]) for s in spans)
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        for sid, _, name, _, _ in spans:
            calls[name] += 1
            self_ns[name] += own[sid]
        counts = dict(self.counts)
        times: dict[str, float] = {"trace.wall_s": wall_s}
        for name in self.names:
            counts[f"{name}.calls"] = calls[name]
            times[f"{name}.self_s"] = self_ns[name] / 1e9
        for layer in LAYERS:
            times[f"{layer}.self_s"] = sum(
                v for k, v in self_ns.items() if k.split(".")[0] == layer) / 1e9
        pairs = counts.get("sncpair.pairs", 0)
        counts["sncpair.validate.per_pair"] = (
            counts["sncpair.validate.calls"] / pairs if pairs else 0.0)
        counts["symcalc.genus.cache_hit_ratio"] = self.cache_hit_ratio()
        return counts, times
