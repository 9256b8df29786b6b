"""One benchmark pass in a freshly spawned process.

Protocol: the worker imports ``qworklab`` and ``qworklab.cli``, prints
``ready``, reads one JSON job line from stdin, runs its operations in order
and prints one JSON result line.  Import, the eigen cache and any lazy state
therefore start cold in every pass, as they do for a command-line user.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PROBE_PERIOD_S = 0.05


class SpeedProbe:
    """Times a fixed reference loop every ``PROBE_PERIOD_S`` while a pass runs.

    On a shared host the core's speed swings by up to 2x within seconds (a
    busy neighbour on the sibling hardware thread), so raw pass times of the
    same code spread widely.  The probe's mean speed during the pass (taken
    at even time steps, so the harmonic mean of its times) is the speed the
    pass actually got; dividing by it removes that swing.  The
    loop mixes small numpy calls with interpreter work, like the program, and
    runs cold: a warmed-up loop tracked the swings worse, as much of the
    slowdown comes through the shared caches.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._a = np.arange(16.0).reshape(4, 4)

    def reference_loop(self) -> float:
        acc = 0.0
        for _ in range(40):
            acc += float((self._a @ self._a)[1, 2])
            for k in range(10):
                acc += k * 0.5
        return acc

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.reference_loop()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def run_op(op: dict) -> dict:
    """Run one operation through the public API; failures are reported, not raised."""
    from qworklab import cli, linalg, scenario, thermo

    try:
        if op["kind"] == "cli":
            code = cli.main(op["argv"])
            if code != 0:
                return {"status": "failed", "error": f"exit code {code}"}
        elif op["kind"] == "eig":
            s = scenario.load_scenario(op["scenario"])
            _write_json(op["out"], {
                "H": linalg.eig_hermitian(s.h_initial).eigenvalues.tolist(),
                "H_final": linalg.eig_hermitian(s.h_final).eigenvalues.tolist(),
            })
        elif op["kind"] == "work_loss":
            s = scenario.load_scenario(op["scenario"])
            ctx = thermo.ThermalContext(op["beta"], s.h_initial)
            value = thermo.measurement_work_loss(s.rho, ctx)
            if not math.isfinite(value):  # no result, as if it had raised
                return {"status": "failed", "error": f"returned {value!r}"}
            _write_json(op["out"], {"value": value})
        else:
            raise ValueError(f"unknown operation kind {op['kind']!r}")
    except Exception as exc:  # an operation that raises counts as failed
        return {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}
    return {"status": "ok"}


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    import qworklab
    import qworklab.cli  # noqa: F401  (part of set-up: the CLI is ready to run)

    if not Path(qworklab.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"qworklab imported from {qworklab.__file__}, not from this checkout\n")
        return 2
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    job = json.loads(sys.stdin.readline())

    recorder = None
    if job.get("trace"):
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
    probe = SpeedProbe()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with probe:
            results = []
            for op in job["ops"]:
                t_op = time.perf_counter()
                results.append(run_op(op))
                results[-1]["wall_s"] = time.perf_counter() - t_op
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if recorder is not None:
            recorder.uninstall()

    from envinfo import worker_env

    probe_s = sum(probe.samples)  # the probe's own time is not the program's
    out = {
        "wall_s": wall - probe_s,
        "cpu_s": _cpu(after) - _cpu(before) - probe_s,
        "probe_s": probe_s,
        "probe_hmean_s": (len(probe.samples) / sum(1.0 / t for t in probe.samples)
                          if probe.samples else None),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "ops": results,
        "env": worker_env(),
    }
    if recorder is not None:
        out["layers"] = recorder.metrics(wall)
        if job.get("spans_out"):
            recorder.save(job["spans_out"], job.get("pass_id", 0))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
