"""The names the benchmark's tracer patches must exist in cypair.

`perfbench/tracing.py` wraps module attributes and class methods by name
and reads `cache_info()` of the cached genera.  Loading it here makes a
rename or removal fail in this suite instead of inside a benchmark run.
"""

import importlib.util
from pathlib import Path

from cypair import symcalc

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve():
    tracing = load_tracing()
    for owner, attrs, span, _ in tracing.TARGETS:
        for attr in attrs:
            # The tracer replaces the entry in the owner's own namespace.
            assert callable(vars(owner).get(attr)), f"{span}: {owner.__name__}.{attr}"


def test_tracing_genus_caches_resolve():
    tracing = load_tracing()
    for name in tracing.GENUS_CACHES:
        assert callable(getattr(getattr(symcalc, name), "cache_info", None)), name


def test_tracer_counts_root_and_chern_products_apart():
    # Both classes share one product; each must keep its own span.
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        symcalc.RootSeries.variable(2, 2, 0) * symcalc.RootSeries.variable(2, 2, 1)
        symcalc.ChernSeries.chern_class(2, 2, 1) * symcalc.ChernSeries.chern_class(2, 2, 1)
    finally:
        tracer.uninstall()
    counts, _ = tracer.summary(0.0)
    assert counts["symcalc.root_mul.calls"] == 1
    assert counts["symcalc.chern_mul.calls"] == 1
