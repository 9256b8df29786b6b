"""Cold-process benchmark for qworklab.

    python3 bench/run.py --workload survey --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload spectral --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --compare RESULTS_A RESULTS_B

Load model: a closed loop with one client.  Each pass runs the workload's
operations in a freshly spawned worker process (at most two processes exist
at once), so import, the eigen cache and lazy state start cold as they do
for a command-line user.  Passes repeat until ``--seconds`` have elapsed and
timings are reported as medians over passes, rescaled by the worker's speed
probe to a reference core speed (raw times are reported as well).  With ``--trace 1`` untraced
and traced passes alternate and the per-layer metrics of the traced passes
are reported.  The last line of stdout is one JSON object; a fuller record,
with the environment block and every sample, goes to ``--results``.
"""

from __future__ import annotations

import os

from envinfo import PINNED_THREADS, THREAD_VARS, host_env, pinned_env

for _var in THREAD_VARS:  # before numpy loads in this process
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import EXACT_COUNTS, PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, SpectralOracle, check, plan  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SPAWNS = 12         # extra set-up-only workers per untraced run
RUN_LIMIT_S = 170.0       # a run never outlives this, whatever --seconds says
# Bounded metrics (BENCHMARK.json).  *_ref_s are the pass's wall and CPU times
# rescaled to a core on which the worker's speed probe takes REF_PROBE_S, so
# that the shared host's speed swings cancel; the raw times are reported too.
END_TO_END = (("setup_s", "s"), ("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MB"))
RAW = (("wall_s", "s"), ("cpu_s", "s"))
REF_PROBE_S = 100e-6
LOAD_MODEL = "closed loop, 1 client, one fresh worker process per pass"


class WorkerError(RuntimeError):
    pass


def _tail(path: Path, lines: int = 20) -> str:
    try:
        return "".join(path.read_text(errors="replace").splitlines(True)[-lines:])
    except OSError:
        return ""


def run_pass(ops: list[dict], traced: bool, work: Path, pass_id: int,
             deadline: float, spans_out: Path | None = None) -> dict:
    """Spawn one worker, time its set-up, run the job and return its result."""
    for op in ops:
        Path(op["out"]).unlink(missing_ok=True)
    job = {"ops": [{k: v for k, v in op.items() if k != "check"} for op in ops],
           "trace": traced, "pass_id": pass_id,
           "spans_out": str(spans_out) if spans_out else None}
    err_path = work / f"worker-{pass_id}.err"
    env = pinned_env([str(ROOT / "src"), str(BENCH)])
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], cwd=ROOT, env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - t0
            if line.strip() != "ready":
                proc.kill()
                proc.wait()
                raise WorkerError(f"worker did not get ready:\n{_tail(err_path)}")
            out, _ = proc.communicate(json.dumps(job) + "\n",
                                      timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker exited with {proc.returncode}:\n{_tail(err_path)}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["out_bytes"] = sum(Path(op["out"]).stat().st_size for op in ops
                              if op["kind"] == "cli" and Path(op["out"]).exists())
    return result


def _median(values):
    return statistics.median(values)


def _speed(result: dict) -> float:
    """Factor that rescales a pass's times to the reference core speed."""
    return REF_PROBE_S / result["probe_hmean_s"] if result["probe_hmean_s"] else 1.0


def measure(workload: str, seed: int, seconds: float, trace: bool, results: Path) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, results, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, trace, results, work) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    ops = plan(workload, seed, work)  # input generation is the benchmark's own cost
    oracle = SpectralOracle()
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    spans_out = results / f"spans-{workload}-seed{seed}-{stamp}-{os.getpid()}.npz" if trace else None

    setups: list[float] = []
    if not trace:
        for i in range(SETUP_SPAWNS):
            setups.append(run_pass([], False, work, -1 - i, deadline)["setup_s"])

    # Operations marked ``known_defect`` run in every pass and a wrong output of
    # theirs still makes the run incorrect, but their runs and raises are
    # tallied apart: ``attempted``/``failed`` count only the operations that
    # are expected to succeed.
    plain, traced = [], []
    attempted = failed = defect_runs = defect_failed = 0
    failures: dict[str, str] = {}
    defects: dict[str, str] = {}
    wrong: dict[str, str] = {}
    start = time.monotonic()
    while True:
        is_traced = trace and len(plain) > len(traced)
        t_pass = time.monotonic()
        res = run_pass(ops, is_traced, work, len(plain) + len(traced), deadline,
                       spans_out if is_traced else None)
        (traced if is_traced else plain).append(res)
        setups.append(res["setup_s"])
        for op, r in zip(ops, res["ops"]):
            known = bool(op.get("known_defect"))
            if known:
                defect_runs += 1
            else:
                attempted += 1
            if r["status"] != "ok":
                if known:
                    defect_failed += 1
                    defects[op["id"]] = r["error"]
                else:
                    failed += 1
                    failures[op["id"]] = r["error"]
                continue
            problem = check(op, oracle)
            if problem:
                failed += not known
                wrong[op["id"]] = problem
        now = time.monotonic()
        done = now - start >= seconds and (not trace or traced)
        if done or now + (now - t_pass) > deadline:
            break

    n_passes = len(plain) + len(traced)
    metrics: dict[str, dict] = {}
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "load_model": LOAD_MODEL, "passes": len(plain), "traced_passes": len(traced),
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "failed_ratio": {"value": failed / attempted, "unit": "1",
                         "base": f"{failed} failed of {attempted} operations attempted "
                                 f"({attempted // n_passes} per pass x {n_passes} passes)"},
        "failures": failures, "wrong_outputs": wrong,
        "known_defect_ratio": {"value": defect_failed / defect_runs if defect_runs else 0.0,
                               "unit": "1",
                               "base": f"{defect_failed} failed of {defect_runs} runs of "
                                       f"operations with a known defect"},
        "known_defects": {"defects": sorted({op["known_defect"] for op in ops
                                             if op.get("known_defect")}),
                          "failures": defects},
        "op_wall_s": {op["id"]: _median([r["ops"][i]["wall_s"] for r in plain])
                      for i, op in enumerate(ops)},
        "samples": {"setup_s": setups, "wall_s": [r["wall_s"] for r in plain],
                    "cpu_s": [r["cpu_s"] for r in plain],
                    "wall_ref_s": [r["wall_s"] * _speed(r) for r in plain],
                    "cpu_ref_s": [r["cpu_s"] * _speed(r) for r in plain],
                    "probe_hmean_us": [r["probe_hmean_s"] * 1e6 for r in plain
                                       if r["probe_hmean_s"]],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in plain]},
    }
    if trace:
        layers = [r["layers"] for r in traced]
        for r, lay in zip(traced, layers):
            lay["metrics"]["cli.out_bytes"] = r["out_bytes"]
        first = layers[0]["metrics"]
        record["count_mismatches"] = [n for n in EXACT_COUNTS
                                      if any(lay["metrics"][n] != first[n] for lay in layers)]
        overhead = (_median([r["wall_s"] * _speed(r) for r in traced])
                    / _median(record["samples"]["wall_ref_s"]) - 1.0)
        for name, unit in PER_LAYER_METRICS:
            if name == "trace.overhead_ratio":
                value = overhead
            elif name in EXACT_COUNTS:
                value = first[name]
            else:
                value = _median([lay["metrics"][name] for lay in layers])
            metrics[name] = {"value": value, "unit": unit}
        record["undefined"] = layers[0]["undefined"]
        record["spans"] = {"file": spans_out.name if spans_out and spans_out.exists() else None,
                           "count": layers[-1]["spans"],
                           "bench_side_s": layers[-1]["bench_side_s"],
                           "traced_wall_s": traced[-1]["wall_s"]}
        record["samples"]["traced_wall_s"] = [r["wall_s"] for r in traced]
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": _median(record["samples"][name]), "unit": unit}
        record["raw_metrics"] = {name: {"value": _median(record["samples"][name]), "unit": unit}
                                 for name, unit in RAW}
    record["metrics"] = metrics
    record["env"] = {**host_env(ROOT, seed), **plain[-1]["env"]}
    path = results / f"{workload}-t{int(trace)}-seed{seed}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record["path"] = str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(path)
    return record


def _report(record: dict) -> None:
    n = record["passes"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{LOAD_MODEL}; {n} passes, {record['traced_passes']} traced")
    env = record["env"]
    print(f"env: {env['cpu_count']} cores ({env['cpu_model']}), BLAS threads pinned "
          f"{env['pinned_threads']['OPENBLAS_NUM_THREADS']} effective "
          f"{env['effective_blas_threads']}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['openblas']}, commit {env['git_commit']}, source {env['source_sha256'][:12]}")
    for name, m in record["metrics"].items():
        count = len(record["samples"].get(name, [])) or n
        print(f"{name} = {m['value']:.6g} {m['unit']}  (median of {count})"
              if not record["trace"] else f"{name} = {m['value']:.6g} {m['unit']}")
    for name, m in record.get("raw_metrics", {}).items():
        print(f"{name} = {m['value']:.6g} {m['unit']}  (median of {n}, raw: not rescaled)")
    if not record["trace"]:
        print(f"probe_hmean_us = {_median(record['samples']['probe_hmean_us']):.6g} us  "
              f"(reference loop: {REF_PROBE_S * 1e6:g} us)")
    fr = record["failed_ratio"]
    print(f"failed_ratio = {fr['value']:.6g} {fr['unit']}  ({fr['base']})")
    for op_id, error in record["failures"].items():
        print(f"  failed {op_id}: {error}")
    if record["known_defects"]["defects"]:
        kd = record["known_defect_ratio"]
        print(f"known_defect_ratio = {kd['value']:.6g} {kd['unit']}  ({kd['base']}; "
              f"not counted in failed)")
        for defect in record["known_defects"]["defects"]:
            print(f"  known defect: {defect}")
        for op_id, error in record["known_defects"]["failures"].items():
            print(f"  failed (known defect) {op_id}: {error}")
    for op_id, problem in record["wrong_outputs"].items():
        print(f"  WRONG OUTPUT {op_id}: {problem}")
    if record.get("count_mismatches"):
        print(f"  counts that differ between traced passes: {record['count_mismatches']}")
    print(f"result file: {record['path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(ROOT / ".bench_results"),
                        help="directory for result records and span files")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result sets (directories or files)")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(args.compare[0], args.compare[1], ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "qworklab" / "__init__.py").is_file():
        sys.stderr.write(f"no qworklab sources under {ROOT / 'src'}; nothing to measure\n")
        return 2
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), results)
    except WorkerError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    _report(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
