"""Tests of the benchmark itself: its checks catch bad output, and it prints
every metric BENCHMARK.json names, with the unit named there.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_blas_threads()
dualce, bench = run.import_checkout()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def measure_n85(tmp_path, reference):
    """Warm-up plus one timed analysis, both of seed 0."""
    workload = bench.WORKLOADS["pipeline-n85"]
    return bench.measure(dualce, workload, 0, 1e-3, tmp_path, reference, log=lambda _: None)


def test_recorded_reference_passes(tmp_path):
    result = measure_n85(tmp_path, bench.load_reference("pipeline-n85"))
    assert result.attempted == 2
    assert result.failed == 0


def test_wrong_reference_k_star_raises_error_rate(tmp_path):
    reference = bench.load_reference("pipeline-n85")
    reference[0] = dict(reference[0], k_star=reference[0]["k_star"] + 1)
    result = measure_n85(tmp_path, reference)
    assert result.failed / result.attempted > 0
    assert all("k_star" in " ".join(a.failures) for a in result.analyses)


def test_corrupted_artifact_raises_error_rate(tmp_path, monkeypatch):
    original = dualce.pipeline.run_pipeline
    calls = []

    def corrupting(cfg, out_dir, *args, **kwargs):
        manifest = original(cfg, out_dir, *args, **kwargs)
        calls.append(cfg.seed)
        if len(calls) == 2:
            with open(Path(out_dir) / "sweep.csv", "a") as fh:
                fh.write("\n")
        return manifest

    monkeypatch.setattr(dualce.pipeline, "run_pipeline", corrupting)
    result = measure_n85(tmp_path, bench.load_reference("pipeline-n85"))
    assert result.failed / result.attempted > 0
    assert "artifact bytes differ" in " ".join(result.analyses[1].failures)


def test_tracer_restores_every_wrapped_name():
    import numpy as np
    import spans

    points = spans.trace_points(dualce)
    before = [getattr(module, attr) for module, attr, _, _ in points]
    tracer = spans.Tracer()
    tracer.install(points)
    assert np.linalg.svd is not before[[a for _, a, _, _ in points].index("svd")]
    tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _, _ in points] == before


def run_cli(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True,
                          text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    done = run_cli("--workload", "ensemble-n85", "--seed", "0", "--seconds", "1",
                   "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert any(ln.startswith("summary ") and "error_rate=0 " in ln for ln in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli("--workload", "pipeline-n85", "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
