"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import compare
import run
from inputs import HELD_OUT_SEED, SPECTRAL_DIMS, scenario_document, write_spectral_inputs
from tracer import EXACT_COUNTS, LAYERS, PER_LAYER_METRICS, Recorder
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = write_spectral_inputs(3, tmp_path / "a")
    b = write_spectral_inputs(3, tmp_path / "b")
    for d in SPECTRAL_DIMS:
        assert Path(a[d]).read_bytes() == Path(b[d]).read_bytes()
    assert scenario_document(3, 16) != scenario_document(4, 16)
    assert scenario_document(HELD_OUT_SEED, 16) != scenario_document(0, 16)


def test_generated_scenarios_parse_and_validate(tmp_path):
    from qworklab.scenario import load_scenario

    for d, path in write_spectral_inputs(0, tmp_path).items():
        s = load_scenario(path)
        assert s.dim == d and not s.is_driven


def _snapshot() -> dict[tuple[int, str], object]:
    owners: list[object] = [importlib.import_module("qworklab")]
    for layer in LAYERS:
        mod = importlib.import_module(f"qworklab.{layer}")
        owners.append(mod)
        owners += [obj for obj in vars(mod).values()
                   if isinstance(obj, type) and obj.__module__ == mod.__name__]
    return {(id(owner), attr): (owner, value)
            for owner in owners for attr, value in vars(owner).items()}


def test_tracer_install_and_uninstall_restore_every_attribute():
    from qworklab import audit, linalg, schemes

    before = _snapshot()
    recorder = Recorder()
    recorder.install()
    try:
        assert linalg.eig_hermitian is not before[(id(linalg), "eig_hermitian")][1]
        # cross-module imports are rebound to the same wrapper
        assert audit.tpm is schemes.tpm
        assert isinstance(schemes.WorkDistribution.__dict__["from_atoms"], classmethod)
    finally:
        recorder.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key[1] for key, (_, value) in before.items() if after[key][1] is not value]
    assert changed == []


def _cli_outputs(tmp_path: Path, tag: str, scenario: str) -> dict[str, bytes]:
    from qworklab import cli

    commands = {
        "table1": ["table1", "--dim", "2", "--samples", "6", "--seed", "5"],
        "witness": ["witness", "--budget", "200", "--seed", "5"],
        "nogo": ["nogo", "--dim", "2", "--seed", "5"],
        "collective": ["collective", "--dim", "3", "--samples", "2", "--seed", "5"],
        "audit": ["audit", "--scheme", "consistent-histories", "--dim", "3",
                  "--samples", "3", "--seed", "5"],
        "thermo": ["thermo", "--samples", "4", "--seed", "5"],
        "fcs": ["dist", "--scheme", "fcs", "--scenario", scenario, "--format", "json"],
        "tpm": ["dist", "--scheme", "tpm", "--scenario", scenario, "--format", "csv"],
    }
    out = {}
    for name, argv in commands.items():
        path = tmp_path / f"{tag}-{name}.out"
        assert cli.main(argv + ["--out", str(path)]) == 0
        out[name] = path.read_bytes()
    return out


def test_traced_and_untraced_cli_outputs_are_byte_identical(tmp_path):
    scenario = write_spectral_inputs(1, tmp_path)[16]
    plain = _cli_outputs(tmp_path, "plain", scenario)
    recorder = Recorder()
    recorder.install()
    try:
        traced = _cli_outputs(tmp_path, "traced", scenario)
    finally:
        recorder.uninstall()
    assert recorder.name, "the traced run recorded no spans"
    assert traced == plain


def test_layer_self_times_and_benchmark_time_account_for_traced_wall(tmp_path):
    from qworklab import cli

    scenario = write_spectral_inputs(2, tmp_path)[16]
    recorder = Recorder()
    recorder.install()
    try:
        t0 = time.perf_counter()
        for argv in (["nogo", "--dim", "2", "--seed", "1"],
                     ["dist", "--scheme", "fcs", "--scenario", scenario, "--format", "json"],
                     ["thermo", "--samples", "3", "--seed", "1"]):
            assert cli.main(argv + ["--out", str(tmp_path / "out.json")]) == 0
        wall = time.perf_counter() - t0
    finally:
        recorder.uninstall()
    result = recorder.metrics(wall)
    self_times = [result["metrics"][f"{layer}.self_s"] for layer in LAYERS]
    assert min(self_times) >= 0.0
    assert result["bench_side_s"] >= 0.0
    assert sum(self_times) + result["bench_side_s"] == pytest.approx(wall, rel=1e-9)
    # the wrapped calls cover the job: the loop around them is a sliver of it
    assert result["bench_side_s"] < 0.05 * wall


def test_worker_pass_counts_repeat_exactly(tmp_path):
    ops = [
        {"id": "nogo", "kind": "cli", "out": str(tmp_path / "nogo.json"), "check": "nogo",
         "argv": ["nogo", "--dim", "2", "--seed", "2", "--out", str(tmp_path / "nogo.json")]},
        {"id": "collective", "kind": "cli", "out": str(tmp_path / "c.json"),
         "check": "collective", "samples": 2,
         "argv": ["collective", "--dim", "3", "--samples", "2", "--seed", "2",
                  "--out", str(tmp_path / "c.json")]},
    ]
    deadline = time.monotonic() + 120
    first = run.run_pass(ops, True, tmp_path, 0, deadline)
    second = run.run_pass(ops, True, tmp_path, 1, deadline, tmp_path / "spans.npz")
    assert all(r["status"] == "ok" for r in first["ops"] + second["ops"])
    m1, m2 = first["layers"]["metrics"], second["layers"]["metrics"]
    assert {n: m1[n] for n in EXACT_COUNTS if n in m1} == {n: m2[n] for n in EXACT_COUNTS if n in m2}
    assert m1["linalg.eig_calls"] > 0 and m1["schemes.eval_calls"] > 0
    spans = np.load(tmp_path / "spans.npz")
    assert spans["name"].size == second["layers"]["spans"]
    assert set(spans["layers"]) == set(LAYERS)
    env = first["env"]
    assert env["pinned_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    # the speed probe sampled the pass and its time is not charged to the program
    assert first["probe_hmean_s"] > 0 and 0 < first["probe_s"] < 0.05 * first["wall_s"]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER_METRICS)
    assert spec["command"] == ["python3", "bench/run.py"]


def test_compare_verdicts():
    base = [(s, 10.0 + 0.1 * (s % 3)) for s in range(10)]
    slower = [(s, v * 1.5) for s, v in base]
    faster = [(s, v * 0.8) for s, v in base]
    noisy = [(s, 10.0 * (1 + (s % 2))) for s in range(10)]
    assert compare.verdict(base, base, 0.2, True) == "same"
    assert compare.verdict(base, slower, 0.2, True) == "worse"
    assert compare.verdict(base, faster, 0.2, True) == "better"
    assert compare.verdict(base, noisy, 0.2, True) == "unresolved"
    assert compare.verdict(base, slower, 0.2, False) == "better"


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "survey", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "{" not in done.stdout
