"""Tests of the benchmark itself: inputs, checks, tracing and its output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nask
import spans
import synth
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request):
    path = HERE / "out" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workdir, name):
    wl = workloads.WORKLOADS[name]
    digests = []
    for copy in ("a", "b"):
        (workdir / copy).mkdir()
        state = wl.setup(wl.make_inputs(workdir / copy, seed=3))
        digests.append(workloads.dataset_shape(state["ds"])["digest"])
    assert digests[0] == digests[1]
    if isinstance(wl, workloads.PairsLarge):
        assert np.array_equal(wl.queries(3, 0), wl.queries(3, 0))
        assert not np.array_equal(wl.queries(3, 0), wl.queries(4, 0))


def small_gram_state(workdir):
    nask.save_tu_dataset(synth.wide_attribute_dataset(count=24), workdir / "wide6")
    ds = nask.compute_ranges(nask.load_tu_dataset(workdir / "wide6"))
    return {"ds": ds, "gram_path": workdir / "small.gram"}


def test_corrupted_gram_entry_is_a_failure(workdir):
    wl = workloads.WORKLOADS["gram_wide6"]
    state = small_gram_state(workdir)
    (gram, verdict, back), _, _ = wl.request(state, 0)
    assert wl.check(state, [wl.summarize((gram, verdict, back), 0)], seed=0).failed == 0

    i, j = wl.oracle_pairs(state["ds"], 0, wl.oracle_samples)[0]
    values = gram.values.copy()
    values[i, j] = values[j, i] = values[i, j] * (1 + 1e-9)
    bad = nask.GramMatrix(values=values, meta=gram.meta)
    out = wl.check(state, [wl.summarize((bad, verdict, bad), 0)], seed=0)
    assert out.attempted > 0 and out.failed / out.attempted > 0


def test_corrupted_pair_value_is_a_failure(workdir):
    wl = workloads.WORKLOADS["pairs_large"]
    state = wl.setup(wl.make_inputs(workdir, seed=0))
    (pairs, values), _, _ = wl.request(state, 0)
    assert wl.check(state, [(pairs, values)], seed=0).failed == 0

    _, pos = wl.sample(1, seed=0)[0]
    corrupted = list(values)
    corrupted[pos] *= 1 + 1e-9
    out = wl.check(state, [(pairs, corrupted)], seed=0)
    assert out.attempted > 0 and out.failed / out.attempted > 0


def test_tracer_counts_calls_and_restores_originals(workdir):
    ds = small_gram_state(workdir)["ds"]
    original = nask.compute_gram
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.root("request"):
            nask.compute_gram(ds, plan=nask.ExpansionPlan(max_depth=2), threads=1)
    assert nask.compute_gram is original
    assert nask.stars.KernelContext.pair_value.__name__ == "pair_value"
    view = spans.SpanView(tracer.arrays())
    n = ds.num_graphs
    assert view.count("stars.pair_value", ["request"]) == n * (n + 1) // 2
    # no edge attributes: one node-similarity matrix per pair
    assert view.work("similarity.similarity_matrix", ["request"], column="work2") == n * (n + 1) // 2
    assert view.self_seconds("stars.pair_value") <= view.seconds("stars.pair_value")
    assert view.seconds("gram.compute_gram") <= view.seconds("request", ["request"])


def run_bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    proc = run_bench("--workload", "pairs_large", "--seed", "0", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


def test_refuses_to_run_without_the_source_tree(workdir):
    (workdir / "perfbench").mkdir()
    shutil.copy(HERE.parent / "BENCHMARK.json", workdir)
    for path in HERE.glob("*.py"):
        shutil.copy(path, workdir / "perfbench")
    proc = run_bench("--workload", "pairs_large", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
