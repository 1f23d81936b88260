"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gram_wide6 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ``src/``
and the input generators and oracles from ``tests/``. The run writes its
inputs under ``perfbench/out/`` and removes them when it ends.

Untraced (``--trace 0``): time a batch of set-ups, then for ``--seconds``
make requests in a closed loop with timed batches of set-ups between them,
check the outputs, and print the end-to-end metrics. Traced (``--trace 1``): the same
untraced loop, then a traced set-up and a fixed number of traced requests;
print the per-layer metrics from the spans and write the spans to
``perfbench/out/trace-<workload>.npz``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread: the Gram pool already uses every core, and BLAS threads
# on top of it oversubscribe them. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-ups are timed in batches of at least SETUP_BATCH_SECONDS, once before
# the loop and then between its requests, until they have taken SETUP_SHARE
# of the loop's time so far. One sample is a batch's mean set-up time: the
# machine flips between a fast and a slow speed within a second, so single
# set-ups of 50 ms fall into two clusters and their median jumps from one
# to the other. The batches spread over the whole loop, like the requests.
SETUP_BATCH_SECONDS = 0.5
SETUP_SHARE = 0.15
NEEDED = ("BENCHMARK.json", "src/nask/__init__.py", "tests/synth.py", "tests/oracles.py")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(np, pool: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "pool": pool,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def timed_setups(wl, inputs, times: list):
    """Set up for at least SETUP_BATCH_SECONDS; append the mean set-up time.

    Returns the last set-up's state and the batch's total set-up time.
    """
    state, spent, count = None, 0.0, 0
    while spent < SETUP_BATCH_SECONDS:
        state = None
        gc.collect()
        started = time.perf_counter()
        state = wl.setup(inputs)
        spent += time.perf_counter() - started
        count += 1
    times.append(spent / count)
    return state, spent


def closed_loop(wl, state, inputs, seconds: float, out, nask_error, setup_times: list):
    """One client: the next request goes out when the last one returns.

    After each request, times batches of set-ups (whose states are dropped)
    until they make up SETUP_SHARE of the time since the loop began. Stops
    when another request of the last one's length would overrun ``seconds``,
    but not before ``wl.min_requests`` requests.
    """
    results, durations, latencies, rates = [], [], [], []
    started = time.perf_counter()
    setup_spent = 0.0
    index = 0
    while True:
        gc.collect()
        t0 = time.perf_counter()
        try:
            result, count, lat = wl.request(state, index)
        except nask_error as exc:
            out.add(wl.ops_per_request, wl.ops_per_request, f"request {index}: {exc!r}")
            result = None
        took = time.perf_counter() - t0
        index += 1
        if result is not None:
            results.append(wl.summarize(result, len(results)))
            durations.append(took)
            latencies.extend(lat if lat is not None else [took])
            rates.append(count / took)
        result = None
        while setup_spent < SETUP_SHARE * (time.perf_counter() - started):
            setup_spent += timed_setups(wl, inputs, setup_times)[1]
        if index >= wl.min_requests and time.perf_counter() - started + took > seconds:
            return results, durations, latencies, rates


def end_to_end(np, setup_times, durations, latencies, rates, rss) -> dict:
    lat_ms = np.asarray(latencies) * 1000.0
    # p99 only where at least 10 samples lie beyond it; otherwise the maximum
    tail = np.percentile(lat_ms, 99) if lat_ms.size >= 1000 else lat_ms.max()
    return {
        "wall_s": (statistics.median(durations), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
        "entries_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (float(np.median(lat_ms)), "ms"),
        "latency_p99_ms": (float(tail), "ms"),
    }


def per_layer(view, wl, pool: int, indicator: int, accuracy: float | None,
              overhead: float) -> dict:
    inner, setup, req = [wl.inner_root], ["setup"], ["request"]
    sim, pair, fam = "similarity.similarity_matrix", "stars.pair_value", "expansion.family"
    gram, train = "gram.compute_gram", "svm.train_ovr"
    pair_calls = view.count(pair, inner)
    node_sims = view.work(sim, inner, column="work2")
    train_s = view.seconds(train, req)
    iterations = view.work(train, req)
    t1 = view.seconds(gram, ["threads1"])
    t_pool = view.seconds(gram, req)
    return {
        "datasets.load_s": (view.seconds("datasets.load_tu_dataset", setup), "s"),
        "datasets.ranges_s": (view.seconds("datasets.compute_ranges", setup), "s"),
        "similarity.calls": (view.count(sim, inner), "count"),
        "similarity.s": (view.seconds(sim, inner), "s"),
        "similarity.elem_pairs": (view.work(sim, inner), "count"),
        "stars.register_s": (view.seconds("stars.register", setup + inner), "s"),
        "stars.pair_calls": (pair_calls, "count"),
        "stars.pair_s": (view.seconds(pair, inner), "s"),
        "stars.contract_self_s": (view.self_seconds(pair, inner), "s"),
        "stars.pair_cache_hit_ratio": (1.0 - node_sims / pair_calls if pair_calls else 0.0,
                                       "ratio"),
        "expansion.family_calls": (view.count(fam, inner), "count"),
        "expansion.family_s": (view.seconds(fam, inner), "s"),
        "expansion.indicator_bytes": (max(view.max_work(gram), indicator), "bytes"),
        "gram.compute_calls": (view.count(gram, req), "count"),
        "gram.compute_s": (t_pool, "s"),
        "gram.threads1_s": (t1, "s"),
        "gram.parallel_eff": (t1 / (pool * t_pool) if t1 and t_pool else 0.0, "ratio"),
        "gram.normalize_s": (view.seconds("gram.normalize_gram", req), "s"),
        "gram.psd_s": (view.seconds("gram.check_psd", req), "s"),
        "gram.export_s": (view.seconds("gram.export_gram", req), "s"),
        "gram.import_s": (view.seconds("gram.import_gram", req), "s"),
        "gram.file_bytes": (view.max_work("gram.export_gram", req), "bytes"),
        "svm.fits": (view.count(train, req), "count"),
        "svm.train_s": (train_s, "s"),
        "svm.iterations": (iterations, "count"),
        "svm.us_per_iter": (train_s / iterations * 1e6 if iterations else 0.0, "us"),
        "svm.nonconverged": (view.work(train, req, column="work2"), "count"),
        "svm.predict_s": (view.seconds("svm.predict", req), "s"),
        "evaluate.folds_s": (view.seconds("evaluate.stratified_folds", req), "s"),
        "evaluate.self_s": (view.self_seconds("evaluate.cross_validate", req), "s"),
        "evaluate.accuracy": (accuracy or 0.0, "fraction"),
        "trace.overhead_s": (overhead, "s"),
    }


def select(metrics: dict, declared: list) -> dict:
    """The metrics BENCHMARK.json declares, each with its declared unit."""
    chosen = {}
    for spec in declared:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']} measured in {unit}, declared in {spec['unit']}")
        chosen[spec["name"]] = {"value": value, "unit": unit}
    return chosen


def traced_run(wl, inputs, out, spans):
    """Traced set-up and requests; returns the tracer, results and state."""
    tracer = spans.Tracer()
    traced, durations = [], []
    with tracer.installed():
        with tracer.root("setup"):
            state = wl.setup(inputs)
        for index in range(wl.min_requests):
            gc.collect()
            started = time.perf_counter()
            with tracer.root("request"):
                result, _, _ = wl.request(state, index)
            durations.append(time.perf_counter() - started)
            traced.append(wl.summarize(result, index))
        wl.after_trace(tracer, state, traced, out)
    return tracer, traced, durations, state


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a nask source tree, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    import numpy as np

    import nask
    import spans
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.make_inputs(workdir, args.seed)
        setup_times = []
        state, _ = timed_setups(wl, inputs, setup_times)
        env = environment(np, workloads.POOL)
        why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
        identity = {"workload": wl.name, "why": why, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "dataset": workloads.dataset_shape(state["ds"])}
        print("environment " + json.dumps(env, sort_keys=True))
        print("workload " + json.dumps(identity, sort_keys=True))

        out = workloads.Outcome()
        results, durations, latencies, rates = closed_loop(
            wl, state, inputs, args.seconds, out, nask.NaskError, setup_times)
        rss = peak_rss_mb()
        if results:
            out_checks = wl.check(state, results, args.seed)
            out.add(out_checks.attempted, out_checks.failed, "; ".join(out_checks.notes))
        accuracy = wl.accuracy(results) if results else None
        metrics = end_to_end(np, setup_times, durations, latencies, rates, rss)
        declared = spec["end_to_end"]

        if args.trace:
            state = None
            gc.collect()
            tracer, traced, traced_durations, traced_state = traced_run(wl, inputs, out, spans)
            indicator = wl.indicator_bytes(traced_state)
            out.check(all(wl.same_output(a, b) for a, b in zip(results, traced)),
                      "traced requests gave other outputs than untraced ones")
            cols = tracer.arrays()
            OUT.mkdir(exist_ok=True)
            spans.write(OUT / f"trace-{wl.name}.npz", cols,
                        {"environment": env, "workload": identity})
            view = spans.SpanView(cols)
            overhead = statistics.median(traced_durations) - metrics["wall_s"][0]
            metrics = per_layer(view, wl, workloads.POOL, indicator, accuracy, overhead)
            declared = spec["per_layer"]
            print(f"spans {len(tracer.name)} written to {OUT / f'trace-{wl.name}.npz'}")
            for name, calls, seconds, self_seconds in view.summary():
                print(f"span {name}: calls {calls}, total {seconds:.6f} s, self {self_seconds:.6f} s")
        else:
            metrics["fail_frac"] = (out.failed / max(out.attempted, 1), "fraction")
            if accuracy is not None:
                metrics["accuracy"] = (accuracy, "fraction")
            print(f"requests {len(durations)}, latency samples {len(latencies)}, "
                  f"set-up batches {len(setup_times)}, operations {out.attempted}")

        for note in out.notes:
            print(f"FAILED {note}")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value!r} {unit}")
        result = {
            "correct": out.failed == 0,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": select(metrics, declared),
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
