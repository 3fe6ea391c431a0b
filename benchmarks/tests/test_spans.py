"""Tests of the benchmark's tracer.

    python3 -m pytest benchmarks/tests -q
"""
import importlib
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import MISSING, Tracer  # noqa: E402


def _module():
    mod = types.ModuleType("fake_layer")

    def leaf():
        time.sleep(0.002)

    def outer():
        mod.leaf()
        mod.leaf()

    mod.leaf, mod.outer = leaf, outer
    return mod


def test_absent_name_is_missing_not_zero():
    tracer = Tracer()
    assert not tracer.patch(_module(), "no_such_function", "fake.no_such_function")
    stats = tracer.stats()
    for stat in ("calls", "total", "p50", "p90", "self_p50"):
        assert tracer.value(stats, "fake.no_such_function", stat) == MISSING


def test_name_that_never_fires_is_missing():
    tracer = Tracer()
    mod = _module()
    assert tracer.patch(mod, "leaf", "fake.leaf")
    assert tracer.value(tracer.stats(), "fake.leaf", "calls") == MISSING
    tracer.uninstall()


def test_self_time_excludes_children_and_uninstall_restores():
    tracer = Tracer()
    mod = _module()
    original = mod.leaf
    tracer.patch(mod, "leaf", "fake.leaf")
    tracer.patch(mod, "outer", "fake.outer")
    with tracer.span("item"):
        mod.outer()
    tracer.uninstall()
    assert mod.leaf is original
    stats = tracer.stats(["item"])
    assert tracer.value(stats, "fake.leaf", "calls") == 2
    assert tracer.value(stats, "fake.outer", "calls") == 1
    outer, leaf = stats["fake.outer"], stats["fake.leaf"]
    assert outer["self"].sum() == outer["dur"].sum() - leaf["dur"].sum()
    assert tracer.stats(["other"])["fake.leaf"]["dur"].size == 0


def test_install_wraps_names_callers_look_up():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    nets = importlib.import_module("gravkit.policy.nets")
    train = importlib.import_module("gravkit.policy.train")  # `gravkit.policy.train` is also a function
    original = train.encoder_forward
    tracer = Tracer()
    tracer.install()
    try:
        assert train.encoder_forward is not original
        assert train.encoder_forward.__wrapped__ is original
        assert nets.encoder_forward.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert train.encoder_forward is original
