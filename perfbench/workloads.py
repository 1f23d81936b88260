"""The benchmark's three workloads: inputs, set-up, one request, output checks.

Every workload is a closed loop with one client. Inputs are TU files that
the seeded generators in ``tests/synth.py`` write; the program under test
sees only what ``load_tu_dataset`` reads back. The ``--seed`` argument
picks what varies between runs (the CV split, the sampled oracle entries,
the pair queries); the dataset generator seeds are fixed, so a change to
``tests/synth.py`` shows up as a new dataset digest.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import nask
import oracles
import spans
import synth

REL_TOL = 1e-12
ACCURACY_FLOOR = 0.85  # acceptance criterion 7 of the test suite
POOL = max(1, min(2, os.cpu_count() or 1))


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def dataset_shape(ds) -> dict:
    """Graph/node/edge counts, dimensions by kind, and the canonical digest."""

    def kinds(dims):
        return {
            "categorical": sum(d.kind == "categorical" for d in dims),
            "numerical": sum(d.kind == "numerical" for d in dims),
        }

    sizes = [g.num_nodes for g in ds.graphs]
    return {
        "name": ds.name,
        "graphs": ds.num_graphs,
        "nodes": sum(sizes),
        "max_nodes": max(sizes),
        "edges": sum(g.num_edges for g in ds.graphs),
        "node_dims": kinds(ds.schema.node_dims),
        "edge_dims": kinds(ds.schema.edge_dims),
        "digest": nask.canonical_digest(ds),
    }


@dataclass
class Outcome:
    """What a run's checks found: operations attempted and failed."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.add(1, 0 if ok else 1, note)

    def add(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(note)


class Workload:
    """Defaults for the hooks that only some workloads need."""

    min_requests = 1  # requests the closed loop makes however short --seconds is
    ops_per_request = 1  # operations lost when a request raises
    inner_root = "request"  # the traced phase whose spans show the kernel layers

    def summarize(self, result, index: int):
        """What the checks need of one request's result, taken after timing."""
        return result

    def after_trace(self, tracer, state, traced: list, out: Outcome) -> None:
        """Extra traced work after the traced requests, with its checks."""

    def indicator_bytes(self, state: dict) -> int:
        """Indicator footprint of a context the benchmark itself holds."""
        return 0

    def accuracy(self, results: list) -> float | None:
        """Mean classification accuracy, for workloads that classify."""
        return None


class CvBench2(Workload):
    """``cross_validate`` on the MUTAG-scale stand-in, 10 folds x 1 repeat."""

    name = "cv_bench2"
    ops_per_request = 10  # outer folds
    # A slice of the default 168-point grid: with all of it one request
    # takes 20-33 s, so a run holds a single request and its time swings
    # with the machine's speed; this slice keeps both halves (Gram bank and
    # SVM fits) at about a sixth of that and lets a run hold several.
    gammas = (1.0,)
    depths = (2, 4)

    def make_inputs(self, workdir, seed: int) -> dict:
        directory = workdir / "bench2"
        nask.save_tu_dataset(synth.benchmark_dataset(seed=7), directory)
        return {"dir": directory, "seed": seed}

    def setup(self, inputs: dict) -> dict:
        ds = nask.compute_ranges(nask.load_tu_dataset(inputs["dir"]))
        cfg = nask.CvConfig(folds=10, repeats=1, seed=inputs["seed"], threads=1,
                            gammas=self.gammas, depths=self.depths)
        return {"ds": ds, "cfg": cfg}

    def request(self, state: dict, index: int):
        report = nask.cross_validate(state["ds"], state["cfg"])
        cfg, n = state["cfg"], state["ds"].num_graphs
        entries = len(cfg.gammas) * len(cfg.depths) * n * (n + 1) // 2
        return report, entries, None

    def check(self, state: dict, results: list, seed: int) -> Outcome:
        out = Outcome()
        cfg = state["cfg"]
        grid = set(cfg.grid())
        expected = cfg.folds * cfg.repeats
        for report in results:
            picks = [tuple(e["selected"][k] for k in ("gamma", "H", "normalize", "C"))
                     for e in report.folds[:expected]]
            bad = expected - len(picks) + sum(pick not in grid for pick in picks)
            if report.mean_accuracy < ACCURACY_FLOOR:
                bad = expected
            out.add(expected, bad, f"{len(report.folds)} folds, picks {picks}, "
                                   f"mean accuracy {report.mean_accuracy}")
        return out

    def same_output(self, a, b) -> bool:
        return a.results_digest() == b.results_digest()

    def accuracy(self, results: list) -> float:
        return float(np.mean([r.mean_accuracy for r in results]))


class GramWide6(Workload):
    """``nask gram`` + ``nask psd`` on the ENZYMES-scale stand-in."""

    name = "gram_wide6"
    inner_root = "threads1"  # pool workers are forked; their spans are lost
    ops_per_request = 4  # symmetry, PSD verdict, round trip, repeatability
    count = 400  # not the generator's 600: that Gram takes ~9 s, too few per run
    gamma = 1.0
    depth = 4
    oracle_samples = 12

    def make_inputs(self, workdir, seed: int) -> dict:
        directory = workdir / "wide6"
        nask.save_tu_dataset(synth.wide_attribute_dataset(seed=11, count=self.count), directory)
        return {"dir": directory, "seed": seed, "gram_path": workdir / "wide6.gram"}

    def setup(self, inputs: dict) -> dict:
        ds = nask.compute_ranges(nask.load_tu_dataset(inputs["dir"]))
        return {"ds": ds, "gram_path": inputs["gram_path"]}

    def compute(self, state: dict, threads: int):
        return nask.compute_gram(
            state["ds"],
            nask.SimilarityParams(gamma=self.gamma),
            nask.ExpansionPlan(max_depth=self.depth),
            threads=threads,
        )

    def request(self, state: dict, index: int):
        gram = self.compute(state, POOL)
        verdict = nask.check_psd(gram)
        nask.export_gram(gram, state["gram_path"])
        back = nask.import_gram(state["gram_path"])
        n = gram.n
        return (gram, verdict, back), n * (n + 1) // 2, None

    def oracle_pairs(self, ds, seed: int, count: int) -> list:
        """Seeded upper-triangle entries between graphs the oracle can handle."""
        small = [i for i, g in enumerate(ds.graphs) if g.num_nodes <= oracles.ORACLE_MAX_NODES]
        rng = np.random.default_rng([seed, 11])
        picks = rng.choice(len(small), size=(count, 2))
        return [tuple(sorted((small[a], small[b]))) for a, b in picks]

    def check_entries(self, ds, values: np.ndarray, pairs: list, out: Outcome) -> None:
        params = oracles.OracleParams(schema=ds.schema, gamma=self.gamma)
        for i, j in pairs:
            want = oracles.oracle_NASK(ds.graphs[i], ds.graphs[j], self.depth, params)
            got = float(values[i, j])
            out.check(rel_err(got, want) <= REL_TOL,
                      f"entry ({i},{j}) = {got!r}, oracle {want!r}")

    def summarize(self, result, index: int) -> dict:
        # keeping every request's two 600x600 matrices would grow the peak
        # resident set with the number of requests
        gram, verdict, back = result
        values = gram.values
        return {
            "digest": hashlib.sha256(values.tobytes()).hexdigest(),
            "symmetric": np.array_equal(values, values.T),
            "psd": verdict.psd,
            "min_eig": verdict.min_eig,
            "round_trip": values.tobytes() == back.values.tobytes() and back.meta == gram.meta,
            "values": values if index == 0 else None,
        }

    def check(self, state: dict, results: list, seed: int) -> Outcome:
        out = Outcome()
        for summary in results:
            out.check(summary["symmetric"], "Gram not exactly symmetric")
            out.check(summary["psd"], f"PSD verdict false (min eig {summary['min_eig']})")
            out.check(summary["round_trip"], "export/import round trip not bit-exact")
            out.check(summary["digest"] == results[0]["digest"], "Gram differs between requests")
        ds = state["ds"]
        pairs = self.oracle_pairs(ds, seed, self.oracle_samples)
        self.check_entries(ds, results[0]["values"], pairs, out)
        return out

    def same_output(self, a, b) -> bool:
        return a["digest"] == b["digest"]

    def after_trace(self, tracer, state, traced: list, out: Outcome) -> None:
        with tracer.root("threads1"):
            one = self.compute(state, 1)
        out.check(hashlib.sha256(one.values.tobytes()).hexdigest() == traced[0]["digest"],
                  f"1-worker Gram differs from the {POOL}-worker Gram")


class PairsLarge(Workload):
    """Single-pair ``nask_kernel`` queries at H=3 against one shared context."""

    name = "pairs_large"
    batch = 100  # queries between two looks at the clock
    ops_per_request = batch
    min_requests = 10  # 1000 queries, so at least 10 lie beyond p99
    pool_seed = 5
    pool_size = 40
    depth = 3
    samples = 10

    def make_inputs(self, workdir, seed: int) -> dict:
        schema = synth.mixed_schema(n_cat=1, n_num=2, edge_cat=1, cat_card=5)
        graphs = synth.random_graph_set(
            self.pool_seed, self.pool_size, schema, min_nodes=100, max_nodes=300
        )
        directory = workdir / "pairs40"
        nask.save_tu_dataset(synth.dataset_from_graphs(graphs, "pairs40", schema), directory)
        return {"dir": directory, "seed": seed}

    def setup(self, inputs: dict) -> dict:
        ds = nask.compute_ranges(nask.load_tu_dataset(inputs["dir"]))
        ctx = nask.KernelContext(ds.schema, nask.SimilarityParams(gamma=1.0))
        for g in ds.graphs:
            ctx.register(g)
        return {"ds": ds, "ctx": ctx, "seed": inputs["seed"]}

    def queries(self, seed: int, index: int) -> np.ndarray:
        """The index-th batch of (a, b) graph indices of the seeded stream."""
        rng = np.random.default_rng([seed, index])
        return rng.integers(0, self.pool_size, size=(self.batch, 2))

    def request(self, state: dict, index: int):
        graphs, ctx = state["ds"].graphs, state["ctx"]
        plan = nask.ExpansionPlan(max_depth=self.depth)
        pairs = self.queries(state["seed"], index)
        values, latencies = [], []
        for a, b in pairs:
            started = time.perf_counter()
            values.append(nask.nask_kernel(graphs[a], graphs[b], plan, ctx))
            latencies.append(time.perf_counter() - started)
        return (pairs, values), len(pairs), latencies

    def sample(self, count: int, seed: int) -> list:
        """Seeded query positions, as (batch index, position in batch)."""
        rng = np.random.default_rng([seed, 3])
        flat = rng.choice(count * self.batch, size=min(self.samples, count * self.batch),
                          replace=False)
        return [divmod(int(k), self.batch) for k in sorted(flat)]

    def check(self, state: dict, results: list, seed: int) -> Outcome:
        out = Outcome()
        ds, ctx = state["ds"], state["ctx"]
        seen = {}
        for pairs, values in results:
            for (a, b), value in zip(pairs, values):
                key = (int(a), int(b))
                ok = math.isfinite(value) and value > 0 and seen.setdefault(key, value) == value
                out.check(ok, f"query {key} = {value!r}")
        rng = np.random.default_rng([seed, 5])
        plan = nask.ExpansionPlan(max_depth=self.depth)
        for batch, pos in self.sample(len(results), seed):
            pairs, values = results[batch]
            a, b = (int(v) for v in pairs[pos])
            ga, gb = ds.graphs[a], ds.graphs[b]
            value = values[pos]
            one = nask.nask_kernel(ga, gb, nask.ExpansionPlan(max_depth=1), ctx)
            out.check(one == nask.graph_kernel_KS(ga, gb, ctx),
                      f"H=1 of ({a},{b}) differs from graph_kernel_KS")
            swapped = nask.nask_kernel(gb, ga, plan, ctx)
            out.check(rel_err(value, swapped) <= REL_TOL,
                      f"k({a},{b}) = {value!r} but k({b},{a}) = {swapped!r}")
            pa = nask.permute_graph(ga, [int(v) for v in rng.permutation(ga.num_nodes)])
            pb = pa if a == b else nask.permute_graph(
                gb, [int(v) for v in rng.permutation(gb.num_nodes)])
            fresh = nask.KernelContext(ds.schema, nask.SimilarityParams(gamma=1.0))
            permuted = nask.nask_kernel(pa, pb, plan, fresh)
            out.check(rel_err(value, permuted) <= REL_TOL,
                      f"k({a},{b}) = {value!r} but {permuted!r} after relabelling")
        return out

    def same_output(self, a, b) -> bool:
        return list(a[1]) == list(b[1])

    def indicator_bytes(self, state: dict) -> int:
        return sum(spans.pack_bytes(pack) for pack in state["ctx"]._packs.values())


WORKLOADS = {w.name: w for w in (CvBench2(), GramWide6(), PairsLarge())}
