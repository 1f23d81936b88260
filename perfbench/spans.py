"""Spans around calls into nask modules, recorded from outside the package.

``Tracer.installed()`` swaps each traced function for a wrapper in every
loaded ``nask`` module that binds it, and each traced method on its class,
then restores the originals. A span is (name, start, end, parent) plus two
integer work counts that the wrapper reads off the call's arguments or
result. Spans live in flat arrays until the run writes them out.

Calls made inside forked pool workers run the wrappers too, but their spans
stay in the worker and are lost; a one-worker pass gives those spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import nask
from nask import stars


def pack_bytes(pack) -> int:
    """Computed bytes of a pack's cached ball and edge indicators."""
    return sum(x.nbytes for x in pack._balls) + sum(x.nbytes for x in pack._eincs)


class Tracer:
    """In-memory span store and the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("q")
        self.work2 = array("i")
        self._stack = [-1]
        self._node_packs: set[int] = set()
        self._packs: list = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(0)
        self.work2.append(0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def root(self, name: str):
        """A span that is not a call into nask: a phase of the benchmark."""
        idx = self._open(name)
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = started
                self._stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    # work counts, read after each call returns

    def _similarity(self, idx, args, result):
        a, b = args[0], args[1]
        self.work[idx] = a.count * b.count
        self.work2[idx] = id(a) in self._node_packs

    def _register(self, idx, args, pack):
        if id(pack.nodes) not in self._node_packs:
            self._node_packs.add(id(pack.nodes))
            self._packs.append(pack)

    def _compute_gram(self, idx, args, result):
        # packs registered during this call belong to its context, which is
        # garbage once the call returns
        self.work[idx] = sum(pack_bytes(p) for p in self._packs)
        self._packs.clear()
        self._node_packs.clear()

    def _train_ovr(self, idx, args, model):
        self.work[idx] = sum(m.iterations for m in model.machines)
        self.work2[idx] = sum(not m.converged for m in model.machines)

    def _export(self, idx, args, path):
        self.work[idx] = Path(path).stat().st_size

    def targets(self):
        """(span name, owner, attribute, work-count hook) for each traced call."""
        return [
            ("datasets.load_tu_dataset", nask.datasets, "load_tu_dataset", None),
            ("datasets.compute_ranges", nask.datasets, "compute_ranges", None),
            ("similarity.similarity_matrix", nask.similarity, "similarity_matrix",
             self._similarity),
            ("stars.register", stars.KernelContext, "register", self._register),
            ("stars.pair_value", stars.KernelContext, "pair_value", None),
            ("expansion.family", stars._GraphPack, "family", None),
            ("expansion.nask_kernel", nask.expansion, "nask_kernel", None),
            ("gram.compute_gram", nask.gram, "compute_gram", self._compute_gram),
            ("gram.normalize_gram", nask.gram, "normalize_gram", None),
            ("gram.check_psd", nask.gram, "check_psd", None),
            ("gram.export_gram", nask.gram, "export_gram", self._export),
            ("gram.import_gram", nask.gram, "import_gram", None),
            ("svm.train_ovr", nask.svm, "train_ovr", self._train_ovr),
            ("svm.predict", nask.svm, "predict", None),
            ("evaluate.cross_validate", nask.evaluate, "cross_validate", None),
            ("evaluate.stratified_folds", nask.evaluate, "stratified_folds", None),
        ]

    @contextmanager
    def installed(self):
        """Trace every target for the duration of the block."""
        saved = []
        modules = [m for k, m in sys.modules.items() if k == "nask" or k.startswith("nask.")]
        try:
            for name, owner, attr, after in self.targets():
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, after)
                if isinstance(owner, type):
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    if getattr(module, attr, None) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        """The spans as numpy columns, with each span's self time and root."""
        name = np.asarray(self.name, dtype=np.uint16)
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int32)
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        root = np.where(has_parent, parent, np.arange(parent.size))
        while True:  # walk every span up to its phase root
            up = parent[root]
            step = up >= 0
            if not step.any():
                break
            root = np.where(step, up, root)
        return {
            "names": np.asarray(self.names),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "work": np.asarray(self.work, dtype=np.int64),
            "work2": np.asarray(self.work2, dtype=np.int32),
            "duration": duration,
            "self": duration - child,
            "root": root,
        }



def write(path: Path, cols: dict, about: dict) -> None:
    """Save the recorded span columns (not the derived ones) as a compressed
    npz, with ``about`` (the run's environment and workload) as JSON."""
    keep = ("names", "name", "start", "end", "parent", "work", "work2")
    np.savez_compressed(path, about=np.asarray(json.dumps(about, sort_keys=True)),
                        **{k: cols[k] for k in keep})


class SpanView:
    """Sums over the spans of one name, under a chosen set of phase roots."""

    def __init__(self, cols: dict):
        self.cols = cols
        self._ids = {str(n): i for i, n in enumerate(cols["names"])}
        self._root_name = cols["name"][cols["root"]]

    def mask(self, name: str, roots=None) -> np.ndarray:
        selected = self.cols["name"] == self._ids.get(name, -1)
        if roots is not None:
            wanted = [self._ids.get(r, -1) for r in roots]
            selected &= np.isin(self._root_name, wanted)
        return selected

    def summary(self) -> list:
        """(name, calls, seconds, self seconds) for every span name."""
        return [(name, self.count(name), self.seconds(name), self.self_seconds(name))
                for name in self._ids]

    def count(self, name, roots=None) -> int:
        return int(self.mask(name, roots).sum())

    def seconds(self, name, roots=None) -> float:
        return float(self.cols["duration"][self.mask(name, roots)].sum())

    def self_seconds(self, name, roots=None) -> float:
        return float(self.cols["self"][self.mask(name, roots)].sum())

    def work(self, name, roots=None, column="work") -> int:
        return int(self.cols[column][self.mask(name, roots)].sum())

    def max_work(self, name, roots=None) -> int:
        values = self.cols["work"][self.mask(name, roots)]
        return int(values.max()) if values.size else 0
