"""End-to-end command-line runs against a temporary TU-format dataset."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import nask.cli
from nask.cli import main
from nask.datasets import compute_ranges, load_tu_dataset, save_tu_dataset
from nask.expansion import ExpansionPlan
from nask.gram import GramMatrix, GramMeta, compute_gram, export_gram, import_gram
from nask.similarity import SimilarityParams
from nask.version import __version__

import synth

MANIFEST_KEYS = {
    "command", "flags", "dataset_digest", "tool_version", "wall_time_s",
    "outputs", "created_utc",
}

GRID_ONE = "gammas=1;depths=1;normalize=on;costs=1"


@pytest.fixture(scope="module")
def tu_dir(tmp_path_factory):
    ds = synth.benchmark_dataset(seed=3, count=24, name="cli24")
    root = tmp_path_factory.mktemp("data") / "cli24"
    save_tu_dataset(ds, root)
    return root


@pytest.fixture(scope="module")
def dataset(tu_dir):
    return compute_ranges(load_tu_dataset(tu_dir))


@pytest.fixture(scope="module")
def gram_file(tu_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("gram") / "cli24.gram"
    code = main([
        "gram", "--data", str(tu_dir), "--gamma", "1", "--depth", "2",
        "--threads", "1", "--out", str(out),
    ])
    assert code == 0
    return out


def read_manifest(artifact: Path) -> dict:
    path = artifact.with_name(artifact.name + ".manifest.json")
    assert path.is_file(), f"missing manifest next to {artifact}"
    obj = json.loads(path.read_text())
    assert set(obj) == MANIFEST_KEYS
    return obj


def write_indices(path: Path, indices) -> Path:
    path.write_text("\n".join(str(i) for i in indices) + "\n")
    return path


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"nask {__version__}" in capsys.readouterr().out

    def test_missing_dataset_is_a_usage_error(self, tmp_path, capsys):
        code = main(["info", "--data", str(tmp_path / "nowhere")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestInfo:
    def test_summary_output(self, tu_dir, dataset, capsys):
        assert main(["info", "--data", str(tu_dir)]) == 0
        out = capsys.readouterr().out
        assert "24 graphs, 2 classes" in out
        assert "class histogram: 0: 12, 1: 12" in out
        assert f"digest: {dataset.digest}" in out

    def test_report_file_and_manifest(self, tu_dir, dataset, tmp_path):
        out = tmp_path / "report.json"
        assert main(["info", "--data", str(tu_dir), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["graphs"] == 24
        manifest = read_manifest(out)
        assert manifest["command"] == "info"
        assert manifest["dataset_digest"] == dataset.digest
        assert manifest["outputs"] == [str(out)]
        assert manifest["flags"]["data"] == str(tu_dir)


class TestGram:
    def test_file_matches_in_process_computation(self, gram_file, dataset):
        loaded = import_gram(gram_file)
        direct = compute_gram(
            dataset, SimilarityParams(gamma=1.0), ExpansionPlan(max_depth=2)
        )
        assert loaded.values.tobytes() == direct.values.tobytes()
        assert loaded.meta.dataset_digest == dataset.digest
        assert loaded.meta.gamma == 1.0 and loaded.meta.depth == 2

    def test_manifest_records_resolved_flags(self, gram_file, dataset):
        manifest = read_manifest(gram_file)
        assert manifest["command"] == "gram"
        assert manifest["dataset_digest"] == dataset.digest
        flags = manifest["flags"]
        assert flags["gamma"] == 1.0
        assert flags["depth"] == 2
        assert flags["threads"] == 1
        assert flags["normalize"] is False

    def test_reruns_are_byte_identical(self, tu_dir, gram_file, tmp_path):
        again = tmp_path / "again.gram"
        threaded = tmp_path / "threaded.gram"
        base = ["gram", "--data", str(tu_dir), "--gamma", "1", "--depth", "2"]
        assert main(base + ["--threads", "1", "--out", str(again)]) == 0
        assert main(base + ["--threads", "3", "--out", str(threaded)]) == 0
        assert again.read_bytes() == gram_file.read_bytes()
        assert threaded.read_bytes() == gram_file.read_bytes()


class TestPsd:
    def test_valid_gram_passes(self, gram_file, tmp_path, capsys):
        verdict_path = tmp_path / "verdict.json"
        code = main(["psd", "--gram", str(gram_file), "--out", str(verdict_path)])
        assert code == 0
        assert "verdict: psd" in capsys.readouterr().out
        verdict = json.loads(verdict_path.read_text())
        assert verdict["psd"] is True
        assert verdict["max_eig"] >= verdict["min_eig"]
        assert read_manifest(verdict_path)["command"] == "psd"

    def test_indefinite_matrix_fails_with_exit_1(self, tmp_path, capsys):
        meta = GramMeta(
            dataset_digest="0" * 64, gamma=1.0, depth=1, tau=0.0,
            normalize=False, edge_elements="auto",
        )
        bad = GramMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]), meta)
        path = export_gram(bad, tmp_path / "bad.gram")
        assert main(["psd", "--gram", str(path)]) == 1
        assert "violated" in capsys.readouterr().out

    def test_unreadable_gram_is_a_usage_error(self, tmp_path, capsys):
        code = main(["psd", "--gram", str(tmp_path / "absent.gram")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_is_a_usage_error(self, gram_file, tol, capsys):
        assert main(["psd", "--gram", str(gram_file), f"--tol={tol}"]) == 2
        assert "tol must be finite" in capsys.readouterr().err


class TestCv:
    def test_grid_spec_run_writes_report_pair(self, tu_dir, tmp_path, capsys):
        out = tmp_path / "cv.json"
        code = main([
            "cv", "--data", str(tu_dir), "--grid-spec", GRID_ONE,
            "--folds", "3", "--repeats", "1", "--out", str(out),
        ])
        assert code == 0
        assert "mean accuracy" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["format"] == "nask-cv-report v1"
        assert report["config"]["gammas"] == [1.0]
        assert report["config"]["depths"] == [1]
        text_path = out.with_suffix(".txt")
        assert "mean accuracy" in text_path.read_text()
        manifest = read_manifest(out)
        assert manifest["command"] == "cv"
        assert manifest["outputs"] == [str(out), str(text_path)]

    def test_run_file_supplies_defaults(self, tu_dir, tmp_path):
        run_file = tmp_path / "run.json"
        run_file.write_text(json.dumps({
            "grid_spec": GRID_ONE, "folds": 3, "repeats": 1, "seed": 4,
        }))
        out = tmp_path / "from_file.json"
        code = main([
            "cv", "--data", str(tu_dir), "--run-file", str(run_file),
            "--out", str(out),
        ])
        assert code == 0
        flags = read_manifest(out)["flags"]
        assert flags["seed"] == 4
        assert flags["folds"] == 3
        assert flags["grid_spec"] == GRID_ONE

    def test_explicit_flags_beat_the_run_file(self, tu_dir, tmp_path):
        run_file = tmp_path / "run.json"
        run_file.write_text(json.dumps({
            "grid_spec": GRID_ONE, "folds": 3, "repeats": 1, "seed": 4,
        }))
        out = tmp_path / "override.json"
        code = main([
            "cv", "--data", str(tu_dir), "--run-file", str(run_file),
            "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        assert read_manifest(out)["flags"]["seed"] == 9

    def test_unknown_run_file_key_rejected(self, tu_dir, tmp_path, capsys):
        run_file = tmp_path / "run.json"
        run_file.write_text(json.dumps({"folds": 3, "bogus": 1}))
        code = main([
            "cv", "--data", str(tu_dir), "--run-file", str(run_file),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "unknown keys: bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [{"gammas": ["x"]}, {"depths": [1.5]}, {"depths": [2, 2]}])
    def test_bad_run_file_grid_entry_rejected(self, tu_dir, tmp_path, capsys, grid):
        run_file = tmp_path / "run.json"
        run_file.write_text(json.dumps({**grid, "folds": 3, "repeats": 1}))
        code = main([
            "cv", "--data", str(tu_dir), "--run-file", str(run_file),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_bad_grid_spec_key_rejected(self, tu_dir, tmp_path, capsys):
        code = main([
            "cv", "--data", str(tu_dir), "--grid-spec", "width=3",
            "--folds", "3", "--repeats", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "grid-spec" in capsys.readouterr().err

    def test_non_finite_cost_rejected(self, tu_dir, tmp_path, capsys):
        code = main([
            "cv", "--data", str(tu_dir), "--costs", "1,nan",
            "--folds", "3", "--repeats", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "costs must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_bad_normalize_token_rejected(self, tu_dir, tmp_path, capsys):
        code = main([
            "cv", "--data", str(tu_dir), "--normalize-grid", "yes",
            "--folds", "3", "--repeats", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "on/off" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tu_dir, tmp_path, capsys):
        code = main([
            "cv", "--data", str(tu_dir), "--seed", "-1",
            "--folds", "3", "--repeats", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "error: seed must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_non_numeric_run_file_tau_rejected(self, tu_dir, tmp_path, capsys):
        run_file = tmp_path / "run.json"
        run_file.write_text(json.dumps({"tau": [0.5], "folds": 3, "repeats": 1}))
        code = main([
            "cv", "--data", str(tu_dir), "--run-file", str(run_file),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "error: tau must lie in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


class TestClassify:
    def test_split_run_reports_accuracy(self, tu_dir, gram_file, tmp_path, capsys):
        train = write_indices(tmp_path / "train.idx", range(18))
        test = write_indices(tmp_path / "test.idx", range(18, 24))
        out = tmp_path / "predictions.tsv"
        code = main([
            "classify", "--gram", str(gram_file), "--labels-from", str(tu_dir),
            "--train-idx", str(train), "--test-idx", str(test),
            "--C", "1", "--out", str(out),
        ])
        assert code == 0
        console = capsys.readouterr().out
        assert "accuracy:" in console and "on 6 test graphs" in console
        lines = out.read_text().splitlines()
        assert lines[0] == "graph\tpredicted\ttrue"
        assert len(lines) == 7
        assert read_manifest(out)["command"] == "classify"

    def test_digest_mismatch_refused(self, gram_file, tmp_path, capsys):
        other = synth.benchmark_dataset(seed=9, count=10, name="other10")
        other_dir = tmp_path / "other10"
        save_tu_dataset(other, other_dir)
        train = write_indices(tmp_path / "train.idx", range(6))
        test = write_indices(tmp_path / "test.idx", range(6, 10))
        code = main([
            "classify", "--gram", str(gram_file), "--labels-from", str(other_dir),
            "--train-idx", str(train), "--test-idx", str(test),
        ])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "train,test,message",
        [
            (range(18), range(17, 24), "overlap"),
            (range(18), [18, 99], "out of range"),
            ([0, 0, 1], range(18, 24), "duplicates"),
            ([], range(18, 24), "empty"),
        ],
    )
    def test_bad_index_files_rejected(self, tu_dir, gram_file, tmp_path, capsys,
                                      train, test, message):
        train_path = write_indices(tmp_path / "train.idx", train)
        test_path = write_indices(tmp_path / "test.idx", test)
        code = main([
            "classify", "--gram", str(gram_file), "--labels-from", str(tu_dir),
            "--train-idx", str(train_path), "--test-idx", str(test_path),
        ])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_non_finite_cost_rejected(self, tu_dir, gram_file, tmp_path, capsys):
        train = write_indices(tmp_path / "train.idx", range(18))
        test = write_indices(tmp_path / "test.idx", range(18, 24))
        code = main([
            "classify", "--gram", str(gram_file), "--labels-from", str(tu_dir),
            "--train-idx", str(train), "--test-idx", str(test), "--C", "nan",
        ])
        assert code == 2
        assert "C must be finite" in capsys.readouterr().err

    def test_non_integer_index_rejected(self, tu_dir, gram_file, tmp_path, capsys):
        train_path = tmp_path / "train.idx"
        train_path.write_text("0\n1\ntwo\n")
        test_path = write_indices(tmp_path / "test.idx", range(18, 24))
        code = main([
            "classify", "--gram", str(gram_file), "--labels-from", str(tu_dir),
            "--train-idx", str(train_path), "--test-idx", str(test_path),
        ])
        assert code == 2
        assert "not an index" in capsys.readouterr().err


class TestThreadsEnvironment:
    def test_invalid_thread_env_rejected(self, tu_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NASK_THREADS", "abc")
        code = main([
            "gram", "--data", str(tu_dir), "--depth", "1",
            "--out", str(tmp_path / "x.gram"),
        ])
        assert code == 2
        assert "NASK_THREADS" in capsys.readouterr().err

    def test_thread_env_supplies_default(self, tu_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("NASK_THREADS", "2")
        out = tmp_path / "env.gram"
        code = main(["gram", "--data", str(tu_dir), "--depth", "1", "--out", str(out)])
        assert code == 0
        assert read_manifest(out)["flags"]["threads"] == 2

    def test_default_threads_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("NASK_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert nask.cli._default_threads() == 2
        # a platform without affinity masks counts every CPU
        monkeypatch.delattr(os, "sched_getaffinity")
        assert nask.cli._default_threads() == 64
