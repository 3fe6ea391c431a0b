"""In-memory span tracer that wraps gravkit's public functions from outside.

`Tracer.install()` replaces every public module-level function of the layer
modules, and the few methods named in METHODS, with a wrapper that records
one span per call: label, start, end and the index of the enclosing span. A
function is patched under every module-level name that refers to it, so a
caller that did `from .nets import encoder_forward` is traced too. Nothing
in the program changes; `uninstall()` puts every original back.

A label that the benchmark expects but that cannot be found, or that never
fires, is reported as `missing`, never as a zero.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

# the repo's modules; each is one layer
LAYERS = ("sim", "keypose", "gravmap", "diffusion", "losses",
          "policy.nets", "policy.train", "policy.rollout", "policy.model")

# methods worth a span of their own; other methods (schedule lookups and
# the like) are too small and too frequent to trace without distorting
METHODS = (("policy.train", "Adam", "step"),)

MISSING = "missing"


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.label = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.root = array("q")     # outermost enclosing span: one id per work item
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        self.bench_labels: set[str] = set()

    # -- recording ---------------------------------------------------------

    def _label_id(self, label: str) -> int:
        lid = self._ids.get(label)
        if lid is None:
            lid = self._ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def _open(self, lid: int) -> int:
        i = len(self.start)
        self.label.append(lid)
        self.parent.append(self._stack[-1])
        self.root.append(self._stack[1] if len(self._stack) > 1 else i)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, label: str):
        """A span opened by the benchmark itself, e.g. one work item."""
        self.bench_labels.add(label)
        i = self._open(self._label_id(label))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, label: str):
        lid = self._label_id(label)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, label: str) -> bool:
        """Wrap `owner.attr`; an absent name is remembered as missing."""
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.absent.add(label)
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, label))
        return True

    def install(self, package: str = "gravkit", layers=LAYERS, methods=METHODS):
        targets: dict[object, str] = {}
        for layer in layers:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{layer}.{name}"
        for layer, cls, meth in methods:
            owner = getattr(importlib.import_module(f"{package}.{layer}"), cls, None)
            self.patch(owner, meth, f"{layer}.{cls}.{meth}")
        root = importlib.import_module(package)
        modules = [root] + [importlib.import_module(info.name) for info in
                            pkgutil.walk_packages(root.__path__, f"{package}.")]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self.patch(mod, name, targets[obj])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Per-span arrays: label id, parent and root index, duration and
        self time (duration minus the time covered by its direct children),
        in ns."""
        label = np.array(self.label, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {"label": label, "parent": parent, "root": np.array(self.root, dtype=np.int64),
                "dur": dur, "self": dur - child}

    def stats(self, roots=None) -> dict[str, dict]:
        """Per-label inclusive and self times (ns arrays, one entry per call).

        With `roots`, only calls made under an outermost span whose label is
        in `roots` count, e.g. the work items but not the set-up.
        """
        s = self.spans()
        keep = np.ones(len(s["dur"]), dtype=bool)
        if roots is not None:
            ids = [self._ids[r] for r in roots if r in self._ids]
            keep = np.isin(s["label"][s["root"]], ids)
        order = np.argsort(s["label"][keep], kind="stable")
        label, dur, own = s["label"][keep][order], s["dur"][keep][order], s["self"][keep][order]
        bounds = np.searchsorted(label, np.arange(len(self.labels) + 1))
        return {name: {"dur": dur[bounds[lid]:bounds[lid + 1]], "self": own[bounds[lid]:bounds[lid + 1]]}
                for lid, name in enumerate(self.labels)}

    def value(self, stats: dict, label: str, stat: str):
        """One figure for `label`, or MISSING when the name is absent or
        never fired. `stat` is calls, total, p50, p90 or self_p50 (times in
        ns)."""
        entry = stats.get(label)
        if label in self.absent or entry is None or len(entry["dur"]) == 0:
            return MISSING
        dur = entry["dur"]
        if stat == "calls":
            return len(dur)
        if stat == "total":
            return float(dur.sum())
        if stat in ("p50", "p90"):
            return float(np.percentile(dur, int(stat[1:])))
        if stat == "self_p50":
            return float(np.percentile(entry["self"], 50))
        raise ValueError(f"unknown stat {stat!r}")
