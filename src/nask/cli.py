"""Command-line interface: info, gram, psd, cv, and classify subcommands.

Every artifact-writing command drops a `<artifact>.manifest.json` next to
its output recording the command, resolved flags, dataset digest, tool
version, wall time, and output paths, so any artifact can be reproduced
from its manifest alone. Exit codes: 0 success, 1 domain verdict failure
(for example a PSD violation), 2 usage or format errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .datasets import compute_ranges, load_tu_dataset, validate_dataset
from .errors import ConfigError, NaskError
from .evaluate import RANGE_MODES, CvConfig, cross_validate
from .expansion import ExpansionPlan
from .gram import check_psd, compute_gram, export_gram, import_gram
from .similarity import SimilarityParams
from .stars import EDGE_MODES
from .svm import predict, train_ovr
from .version import __version__

_CV_GRID_KEYS = ("gammas", "depths", "normalize", "costs")
_RUN_FILE_KEYS = {
    "data", "name", "gammas", "depths", "normalize_grid", "costs", "grid_spec",
    "folds", "repeats", "seed", "inner_folds", "range_mode", "tau",
    "edge_elements", "threads", "out",
}


def _default_threads() -> int:
    env = os.environ.get("NASK_THREADS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"NASK_THREADS must be an integer, got {env!r}") from exc
        if value < 1:
            raise ConfigError(f"NASK_THREADS must be >= 1, got {value}")
        return value
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _integer(value) -> int:
    number = int(value)
    if not isinstance(value, str) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _onoff(value) -> bool:
    if isinstance(value, bool):
        return value
    token = str(value).strip().lower()
    if token not in ("on", "off"):
        raise ValueError(f"entries must be on/off, got {token!r}")
    return token == "on"


def _parse_list(value, convert, what: str) -> tuple:
    """A grid axis from a JSON list or a comma-separated string."""
    pieces = value
    if not isinstance(value, (list, tuple)):
        pieces = [piece for piece in str(value).split(",") if piece.strip()]
    try:
        return tuple(convert(piece) for piece in pieces)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {what} list from {value!r}: {exc}") from exc


def _write_manifest(command: str, args, outputs: list[Path], dataset_digest=None,
                    wall_time: float = 0.0) -> Path:
    flags = {}
    for key, value in sorted(vars(args).items()):
        if key in ("command", "func"):
            continue
        flags[key] = str(value) if isinstance(value, Path) else value
    manifest = {
        "command": command,
        "flags": flags,
        "dataset_digest": dataset_digest,
        "tool_version": __version__,
        "wall_time_s": round(wall_time, 6),
        "outputs": [str(p) for p in outputs],
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    path = outputs[0].with_name(outputs[0].name + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def cmd_info(args) -> int:
    started = time.perf_counter()
    ds = compute_ranges(load_tu_dataset(args.data, args.name))
    report = validate_dataset(ds)
    print(f"dataset: {report['name']}")
    print(f"{report['graphs']} graphs, {report['classes']} classes")
    histogram = ", ".join(f"{k}: {v}" for k, v in sorted(report["class_histogram"].items()))
    print(f"class histogram: {histogram}")
    print(f"nodes: {report['nodes']}, edges: {report['edges']}")
    print(
        f"degree: min {report['degree_min']}, mean {report['degree_mean']:.2f}, "
        f"max {report['degree_max']}"
    )
    for side in ("node_dims", "edge_dims"):
        for dim in report[side]:
            if dim["kind"] == "categorical":
                detail = f"categorical, {dim['cardinality']} values"
            elif dim["range_min"] is None:
                detail = "numerical, range unset (no observations)"
            else:
                detail = f"numerical, range [{dim['range_min']:g}, {dim['range_max']:g}]"
            print(f"{side[:4]} dim {dim['name']}: {detail}")
    print(f"digest: {report['digest']}")
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(report, indent=2) + "\n")
        _write_manifest("info", args, [out], ds.digest, time.perf_counter() - started)
    return 0


def cmd_gram(args) -> int:
    started = time.perf_counter()
    ds = compute_ranges(load_tu_dataset(args.data, args.name))
    gram = compute_gram(
        ds,
        SimilarityParams(gamma=args.gamma),
        ExpansionPlan(max_depth=args.depth),
        tau=args.tau,
        edge_elements=args.edge_elements,
        normalize=args.normalize,
        threads=args.threads,
    )
    out = export_gram(gram, args.out)
    _write_manifest("gram", args, [out], ds.digest, time.perf_counter() - started)
    print(f"wrote {out} (n={gram.n}, gamma={args.gamma:g}, H={args.depth})")
    return 0


def cmd_psd(args) -> int:
    started = time.perf_counter()
    gram = import_gram(args.gram)
    verdict = check_psd(gram, tol=args.tol)
    print(f"n: {gram.n}")
    print(f"min eigenvalue: {verdict.min_eig:.12e}")
    print(f"max eigenvalue: {verdict.max_eig:.12e}")
    print(f"threshold: -{verdict.threshold:.12e}")
    print(f"verdict: {'psd' if verdict.psd else f'violated (min_eig {verdict.min_eig:.6e})'}")
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps({**asdict(verdict), "gram": str(args.gram)}, indent=2) + "\n")
        _write_manifest(
            "psd", args, [out], gram.meta.dataset_digest, time.perf_counter() - started
        )
    return 0 if verdict.psd else 1


def cmd_cv(args) -> int:
    started = time.perf_counter()
    gammas, depths = args.gammas, args.depths
    normalize_grid, costs = args.normalize_grid, args.costs
    if args.grid_spec:
        spec = {}
        for part in str(args.grid_spec).split(";"):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in _CV_GRID_KEYS:
                raise ConfigError(
                    f"grid-spec entries must be one of {_CV_GRID_KEYS}, got {part!r}"
                )
            spec[key] = value.strip()
        gammas = spec.get("gammas", gammas)
        depths = spec.get("depths", depths)
        normalize_grid = spec.get("normalize", normalize_grid)
        costs = spec.get("costs", costs)
    cfg = CvConfig(
        folds=args.folds,
        repeats=args.repeats,
        seed=args.seed,
        gammas=_parse_list(gammas, float, "gamma"),
        depths=_parse_list(depths, _integer, "depth"),
        normalize_options=_parse_list(normalize_grid, _onoff, "normalize"),
        costs=_parse_list(costs, float, "cost"),
        inner_folds=args.inner_folds,
        range_mode=args.range_mode,
        tau=args.tau,
        edge_elements=args.edge_elements,
        threads=args.threads,
    )
    ds = load_tu_dataset(args.data, args.name)
    report = cross_validate(ds, cfg)
    out = Path(args.out)
    out.write_text(report.to_json())
    text_out = out.with_suffix(".txt") if out.suffix != ".txt" else out.with_suffix(".text.txt")
    text_out.write_text(report.to_text())
    _write_manifest("cv", args, [out, text_out], ds.digest, time.perf_counter() - started)
    print(
        f"mean accuracy {report.mean_accuracy:.4f} +/- {report.std_accuracy:.4f} "
        f"over {len(report.outer_accuracies)} folds"
    )
    print(f"wrote {out} and {text_out}")
    return 0


def _read_indices(path, n: int, what: str) -> np.ndarray:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} index file {path}: {exc}") from exc
    indices = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = int(line)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: not an index") from exc
        if not 0 <= value < n:
            raise ConfigError(f"{path}:{lineno}: index {value} out of range 0..{n - 1}")
        indices.append(value)
    if not indices:
        raise ConfigError(f"{what} index file {path} is empty")
    if len(set(indices)) != len(indices):
        raise ConfigError(f"{what} index file {path} contains duplicates")
    return np.asarray(indices, dtype=np.int64)


def cmd_classify(args) -> int:
    started = time.perf_counter()
    gram = import_gram(args.gram)
    ds = load_tu_dataset(args.labels_from, args.name)
    if gram.meta.dataset_digest != ds.digest:
        raise ConfigError(
            f"gram digest {gram.meta.dataset_digest[:12]}... does not match dataset "
            f"digest {ds.digest[:12]}...; refusing to mix artifacts"
        )
    if gram.n != ds.num_graphs:
        raise ConfigError(f"gram is {gram.n}x{gram.n} but dataset has {ds.num_graphs} graphs")
    train_idx = _read_indices(args.train_idx, gram.n, "train")
    test_idx = _read_indices(args.test_idx, gram.n, "test")
    overlap = np.intersect1d(train_idx, test_idx)
    if overlap.size:
        raise ConfigError(
            f"train and test indices overlap (first shared index: {int(overlap[0])})"
        )
    labels = np.asarray(ds.labels)
    model = train_ovr(
        gram.values[np.ix_(train_idx, train_idx)],
        labels[train_idx],
        C=args.C,
        gram_digest=gram.meta.dataset_digest,
    )
    rows = gram.values[np.ix_(test_idx, train_idx)]
    predicted = predict(model, rows)
    correct = predicted == labels[test_idx]
    lines = []
    for graph_idx, pred, is_right in zip(test_idx, predicted, correct):
        original = ds.class_values[int(pred)]
        truth = ds.class_values[int(labels[graph_idx])]
        lines.append(f"{int(graph_idx)}\t{original}\t{truth}")
        print(f"graph {int(graph_idx)}: predicted {original} (true {truth})")
    accuracy = float(np.mean(correct))
    print(f"accuracy: {accuracy:.4f} on {test_idx.size} test graphs")
    if args.out:
        out = Path(args.out)
        out.write_text("graph\tpredicted\ttrue\n" + "\n".join(lines) + "\n")
        _write_manifest("classify", args, [out], ds.digest, time.perf_counter() - started)
    return 0


def _add_dataset_args(parser) -> None:
    parser.add_argument("--data", required=True, help="TU-format dataset directory")
    parser.add_argument("--name", default=None, help="dataset name (default: directory name)")


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    parser = argparse.ArgumentParser(
        prog="nask",
        description="Star-kernel Gram matrices, PSD checks, and SVM evaluation "
        "for attributed graphs",
    )
    parser.add_argument("--version", action="version", version=f"nask {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="load, validate, and summarize a dataset")
    _add_dataset_args(p_info)
    p_info.add_argument("--out", default=None, help="optional JSON report path")
    p_info.set_defaults(func=cmd_info)

    p_gram = sub.add_parser("gram", help="compute and write a Gram matrix")
    _add_dataset_args(p_gram)
    p_gram.add_argument("--gamma", type=float, default=1.0)
    p_gram.add_argument("--depth", type=int, default=4, help="expansion depth H")
    p_gram.add_argument("--tau", type=float, default=0.0, help="center-similarity pruning threshold")
    p_gram.add_argument("--edge-elements", choices=EDGE_MODES, default="auto")
    p_gram.add_argument("--normalize", action="store_true")
    p_gram.add_argument("--threads", type=int, default=None)
    p_gram.add_argument("--out", required=True)
    p_gram.set_defaults(func=cmd_gram)

    p_psd = sub.add_parser("psd", help="check a Gram file for positive semidefiniteness")
    p_psd.add_argument("--gram", required=True)
    p_psd.add_argument("--tol", type=float, default=1e-8)
    p_psd.add_argument("--out", default=None, help="optional JSON verdict path")
    p_psd.set_defaults(func=cmd_psd)

    p_cv = sub.add_parser("cv", help="stratified repeated k-fold cross-validation")
    _add_dataset_args(p_cv)
    p_cv.add_argument("--gammas", default="0.1,1,10")
    p_cv.add_argument("--depths", default="1,2,3,4")
    p_cv.add_argument("--normalize-grid", default="on,off")
    p_cv.add_argument("--costs", default="0.001,0.01,0.1,1,10,100,1000")
    p_cv.add_argument(
        "--grid-spec",
        default=None,
        help="aggregate grid override, e.g. 'gammas=0.1,1;depths=1,2;normalize=on;costs=1,10'",
    )
    p_cv.add_argument("--folds", type=int, default=10)
    p_cv.add_argument("--repeats", type=int, default=10)
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--inner-folds", type=int, default=3)
    p_cv.add_argument("--range-mode", choices=RANGE_MODES, default="full")
    p_cv.add_argument("--tau", type=float, default=0.0)
    p_cv.add_argument("--edge-elements", choices=EDGE_MODES, default="auto")
    p_cv.add_argument("--threads", type=int, default=None)
    p_cv.add_argument("--run-file", default=None, help="JSON file mirroring cv flags")
    p_cv.add_argument("--out", required=True, help="report JSON path")
    p_cv.set_defaults(func=cmd_cv)

    p_cls = sub.add_parser("classify", help="train on a Gram split and predict")
    p_cls.add_argument("--gram", required=True)
    p_cls.add_argument("--labels-from", required=True, dest="labels_from",
                       help="TU-format dataset directory supplying labels")
    p_cls.add_argument("--name", default=None)
    p_cls.add_argument("--train-idx", required=True)
    p_cls.add_argument("--test-idx", required=True)
    p_cls.add_argument("--C", type=float, default=1.0)
    p_cls.add_argument("--out", default=None, help="optional predictions TSV path")
    p_cls.set_defaults(func=cmd_classify)

    return parser, p_cv


def _apply_run_file(p_cv, argv) -> None:
    """Make the keys of the --run-file JSON object the cv parser's defaults."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--run-file", default=None)
    found, _ = probe.parse_known_args(argv)
    if not found.run_file:
        return
    try:
        obj = json.loads(Path(found.run_file).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read run file {found.run_file}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"run file {found.run_file} must hold a JSON object")
    unknown = set(obj) - _RUN_FILE_KEYS
    if unknown:
        raise ConfigError(f"run file has unknown keys: {', '.join(sorted(unknown))}")
    p_cv.set_defaults(**obj)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, p_cv = build_parser()
    try:
        if argv and argv[0] == "cv":
            _apply_run_file(p_cv, argv)
        args = parser.parse_args(argv)
        if getattr(args, "threads", None) is None and hasattr(args, "threads"):
            args.threads = _default_threads()
        return args.func(args)
    except NaskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
