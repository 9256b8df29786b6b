"""Compare two result sets metric by metric under the benchmark's bounds.

A result set is a directory of result records written by ``run.py`` (or a
single record file).  For every workload and metric the table shows each
side's median and quartiles over its runs, the ratio B/A of the medians and
a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B wins at least nine tenths of the seed-matched pairs and
                 its median is better by more than A's quartile spread;
* ``same``       neither of the above;
* ``unresolved`` either side's quartile spread exceeds the bound, unless
                 every B run is better than every A run.

Per-layer metrics, the raw times and the failure ratio have no bound: their
rows show ``same`` or ``changed`` for counts and bytes of seed-matched runs
(which must repeat exactly) and ``-`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load_set(path: str, units: dict[str, str]) -> dict[tuple[str, int, str], list]:
    """{(workload, trace, metric): [(seed, value), ...]} of every record in ``path``.

    Besides the reported metrics this takes the raw times and the failure
    ratios (counted and known-defect) of untraced runs; ``units`` collects
    each metric's unit.
    """
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out: dict[tuple[str, int, str], list[tuple[int, float]]] = defaultdict(list)
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        if "metrics" not in record or "workload" not in record:
            continue
        metrics = {**record["metrics"], **record.get("raw_metrics", {}),
                   "failed_ratio": record["failed_ratio"]}
        if "known_defect_ratio" in record:
            metrics["known_defect_ratio"] = record["known_defect_ratio"]
        for name, m in metrics.items():
            units[name] = m["unit"]
            out[(record["workload"], record["trace"], name)].append((record["seed"], m["value"]))
    return out


def _pairs(a, b) -> list[tuple[float, float]]:
    """(A, B) values of the seeds both sides ran, first run of each seed."""
    first_a, first_b = dict(reversed(a)), dict(reversed(b))
    return [(first_a[s], first_b[s]) for s in first_a if s in first_b]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound: float, lower_better: bool) -> str:
    """Verdict on B against A; ``a`` and ``b`` are [(seed, value), ...] lists."""
    va, vb = [v for _, v in a], [v for _, v in b]
    qa, qb = quartiles(va), quartiles(vb)
    spread_a = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else float("inf")
    spread_b = (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else float("inf")
    sign = 1.0 if lower_better else -1.0
    b_dominates = all(sign * (y - x) < 0 for y in vb for x in va)
    if max(spread_a, spread_b) > bound:
        return "better" if b_dominates else "unresolved"
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    if worse_by > bound:
        return "worse"
    pairs = _pairs(a, b)
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by * abs(qa[1]) > qa[2] - qa[0]:
        return "better"
    return "same"


def compare(path_a: str, path_b: str, benchmark_json: Path) -> int:
    spec = json.loads(benchmark_json.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units: dict[str, str] = {}
    a, b = load_set(path_a, units), load_set(path_b, units)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<9} {'metric':<28} {'unit':<6} {'A median [q1, q3] (n)':<36} "
          f"{'B median [q1, q3] (n)':<36} {'B/A':>7}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, _, name = key
        qa = quartiles([v for _, v in a[key]])
        qb = quartiles([v for _, v in b[key]])
        ratio = f"{qb[1] / qa[1]:.4f}" if qa[1] else "-"
        unit = units[name]
        if name in bounds:
            m = bounds[name]
            v = verdict(a[key], b[key], m["bound"], m["better"] == "lower")
        else:
            pairs = _pairs(a[key], b[key])
            if unit in ("count", "bytes") and pairs:
                v = "same" if all(x == y for x, y in pairs) else "changed"
            else:
                v = "-"
        cell_a = f"{qa[1]:.5g} [{qa[0]:.4g}, {qa[2]:.4g}] ({len(a[key])})"
        cell_b = f"{qb[1]:.5g} [{qb[0]:.4g}, {qb[2]:.4g}] ({len(b[key])})"
        print(f"{workload:<9} {name:<28} {unit:<6} {cell_a:<36} {cell_b:<36} {ratio:>7}  {v}")
    only = sorted(set(a) ^ set(b))
    if only:
        print(f"metrics present on one side only: {only}")
    return 0
