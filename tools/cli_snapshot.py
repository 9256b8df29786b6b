"""Write a fixed, seeded set of qworklab CLI outputs into a directory.

Two checkouts that should behave the same are compared by snapshotting each
and comparing the directories:

    python3 tools/cli_snapshot.py /tmp/snap-a --src /path/to/checkout-a/src
    python3 tools/cli_snapshot.py /tmp/snap-b --src /path/to/checkout-b/src --against /tmp/snap-a

``--against DIR`` compares the new snapshot with the one in ``DIR`` file by
file and reports each file as identical, numeric (the same text outside the
numbers, with the largest absolute difference of a number) or structural
(any other difference, a missing file included).  The exit code is 1 if any
file is structurally different and 0 otherwise; ``diff -r`` gives the same
answer for byte identity alone.

``--src`` defaults to the ``src`` directory next to this script.  The script
uses the standard library only: the scenario files are generated with
``random`` from fixed seeds, and every command runs in its own
``python -m qworklab.cli`` process with the output directory as working
directory, so no output holds an absolute path.  Each command's stdout goes
to ``<name>.out``; ``exit_codes.txt`` lists every command with its exit code
and its stderr.  A full snapshot takes about 70 s on one core.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

DENSITY_EIG_TOL = 1e-10  # qworklab.linalg.DENSITY_EIG_TOL: least eigenvalue a state may have

SCHEMES = ("tpm", "operator-of-work", "fcs", "margenau-hill", "consistent-histories",
           "state-dependent", "sub-ensemble", "collective-two-copy")
# the schemes whose kernels run on a whole ScenarioBatch at once, but for the history
# kernel, which has its own entries below
BATCHED_SCHEMES = ("tpm", "operator-of-work", "fcs", "margenau-hill", "state-dependent",
                   "sub-ensemble", "collective-two-copy")


def _ginibre(dim: int, rng: random.Random) -> list[list[complex]]:
    return [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
            for _ in range(dim)]


def _hermitian(dim: int, rng: random.Random) -> list[list[complex]]:
    g = _ginibre(dim, rng)
    return [[(g[i][j] + g[j][i].conjugate()) / 2.0 for j in range(dim)] for i in range(dim)]


def _unitary(dim: int, rng: random.Random) -> list[list[complex]]:
    """Modified Gram-Schmidt on the columns of a complex Gaussian matrix."""
    g = _ginibre(dim, rng)
    cols: list[list[complex]] = []
    for k in range(dim):
        v = [g[i][k] for i in range(dim)]
        for q in cols:
            dot = sum(q[i].conjugate() * v[i] for i in range(dim))
            v = [v[i] - dot * q[i] for i in range(dim)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in v))
        cols.append([x / norm for x in v])
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def _density(dim: int, rng: random.Random) -> list[list[complex]]:
    g = _ginibre(dim, rng)
    w = [[sum(g[i][k] * g[j][k].conjugate() for k in range(dim)) for j in range(dim)]
         for i in range(dim)]
    tr = sum(w[i][i].real for i in range(dim))
    return [[z / tr for z in row] for row in w]


def _pairs(m: list[list[complex]]) -> list:
    return [[[z.real, z.imag] for z in row] for row in m]


def scenario_docs(dim: int, seed: int, steps_per_segment: int = 16) -> tuple[dict, dict]:
    """A unitary and a driven scenario document on the same H, H_final and rho."""
    rng = random.Random(seed)
    h, hf = _hermitian(dim, rng), _hermitian(dim, rng)
    u, rho = _unitary(dim, rng), _density(dim, rng)
    base = {"dim": dim, "H": _pairs(h), "H_final": _pairs(hf), "rho": _pairs(rho)}
    unitary = dict(base, label=f"snapshot-d{dim}",
                   evolution={"type": "unitary", "U": _pairs(u)})
    driven = dict(base, label=f"snapshot-d{dim}-driven",
                  evolution={"type": "protocol", "steps_per_segment": steps_per_segment,
                             "breakpoints": [{"t": 0.0, "H": _pairs(h)},
                                             {"t": 1.0, "H": _pairs(hf)}]})
    return unitary, driven


def degenerate_doc(dim: int, seed: int, level: str = "H_final") -> dict:
    """A unitary scenario whose ``level`` Hamiltonian ("H" or "H_final") has a
    two-fold degenerate lowest level."""
    rng = random.Random(seed)
    other, v = _hermitian(dim, rng), _unitary(dim, rng)
    levels = [0.0, 0.0] + [float(k) for k in range(1, dim - 1)]
    degenerate = [[sum(v[i][k] * levels[k] * v[j][k].conjugate() for k in range(dim))
                   for j in range(dim)] for i in range(dim)]
    u, rho = _unitary(dim, rng), _density(dim, rng)
    hams = {"H": _pairs(other), "H_final": _pairs(other), level: _pairs(degenerate)}
    suffix = "-h" if level == "H" else ""
    return {"dim": dim, "label": f"snapshot-d{dim}-degenerate{suffix}", **hams,
            "evolution": {"type": "unitary", "U": _pairs(u)}, "rho": _pairs(rho)}


def three_breakpoint_doc(dim: int, seed: int) -> dict:
    """A driven scenario with breakpoints at t = 0, 0.5 and 2: unequal segments, and
    the interior breakpoint falls on the t_1 point of a 4-step history grid."""
    rng = random.Random(seed)
    hams = [_hermitian(dim, rng) for _ in range(3)]
    rho = _density(dim, rng)
    return {"dim": dim, "label": f"snapshot-d{dim}-three-breakpoints", "H": _pairs(hams[0]),
            "H_final": _pairs(hams[-1]), "rho": _pairs(rho),
            "evolution": {"type": "protocol", "steps_per_segment": 16,
                          "breakpoints": [{"t": t, "H": _pairs(h)}
                                          for t, h in zip((0.0, 0.5, 2.0), hams)]}}


def boundary_doc(dim: int, seed: int, lam_min: float, side: str) -> dict:
    """A unitary scenario whose rho = V diag(lam) V^dag, V from ``_unitary``, has the
    least eigenvalue ``lam_min`` and unit trace."""
    rng = random.Random(seed)
    h, hf, u, v = (_hermitian(dim, rng), _hermitian(dim, rng), _unitary(dim, rng),
                   _unitary(dim, rng))
    rest = [rng.random() + 0.5 for _ in range(dim - 1)]
    lam = [lam_min] + [x * (1.0 - lam_min) / sum(rest) for x in rest]
    rho = [[sum(v[i][k] * lam[k] * v[j][k].conjugate() for k in range(dim)) for j in range(dim)]
           for i in range(dim)]
    return {"dim": dim, "label": f"snapshot-d{dim}-boundary-{side}", "H": _pairs(h),
            "H_final": _pairs(hf), "evolution": {"type": "unitary", "U": _pairs(u)},
            "rho": _pairs(rho)}


def malformed_docs(doc: dict) -> dict:
    """Copies of a d = 3 scenario document, each with one malformed matrix: a JSON
    ``true`` entry in H, and a rho whose second row lacks its last entry."""
    h = [list(row) for row in doc["H"]]
    h[1][0] = [True, 0.0]
    rho = [list(row) for row in doc["rho"]]
    rho[1].pop()
    return {"d3-bool-entry": dict(doc, H=h), "d3-ragged-rho": dict(doc, rho=rho)}


def invalid_docs(unitary: dict, driven: dict, small: dict) -> dict:
    """Copies of the d = 3 scenario documents, each a well-formed file that fails one
    check of the experiment: a non-unitary U, a U of the d = 2 file, a protocol whose
    last breakpoint is not H_final, a rho of the d = 2 file, and a non-Hermitian
    H_final (one entry off its conjugate by 1e-3)."""
    scaled = [[[1.01 * x for x in z] for z in row] for row in unitary["evolution"]["U"]]
    breakpoints = [dict(bp) for bp in driven["evolution"]["breakpoints"]]
    breakpoints[-1]["H"] = unitary["H"]
    skew = [[list(z) for z in row] for row in unitary["H_final"]]
    skew[0][1][1] += 1e-3
    return {"d3-nonunitary-u": dict(unitary, evolution={"type": "unitary", "U": scaled}),
            "d3-u-of-d2": dict(unitary, evolution=small["evolution"]),
            "d3-protocol-end-off": dict(driven, evolution=dict(driven["evolution"],
                                                               breakpoints=breakpoints)),
            "d3-rho-of-d2": dict(unitary, rho=small["rho"]),
            "d3-nonhermitian-h-final": dict(unitary, H_final=skew)}


def commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) for every snapshot entry, in a fixed order."""
    runs: list[tuple[str, list[str]]] = []
    for dim in (2, 3, 4):
        for scheme in SCHEMES:
            kind = "driven" if scheme == "consistent-histories" else "unitary"
            for fmt in ("csv", "json"):
                runs.append((f"dist-{scheme}-d{dim}-{fmt}",
                             ["dist", "--scheme", scheme, "--scenario",
                              f"scenarios/d{dim}-{kind}.json", "--format", fmt]))
    # the two-copy scheme where H_final is degenerate (its Jacobi branch), where H is
    # (its basis is the solver's choice: a warning on stderr) and at d = 16
    for name in ("d3-degenerate", "d3-degenerate-h", "d16-unitary"):
        runs.append((f"dist-collective-two-copy-{name}-json",
                     ["dist", "--scheme", "collective-two-copy", "--scenario",
                      f"scenarios/{name}.json", "--format", "json"]))
    # the joint-table kernels on a degenerate H_final (two final eigenspaces at d = 3)
    for scheme in ("tpm", "margenau-hill"):
        runs.append((f"dist-{scheme}-d3-degenerate-json",
                     ["dist", "--scheme", scheme, "--scenario", "scenarios/d3-degenerate.json",
                      "--format", "json"]))
    # the JSON emitter on 2,176 FCS atoms (d^3 = 4,096 before merging), and at d = 32
    for dim in (16, 32):
        runs.append((f"dist-fcs-d{dim}-unitary-json",
                     ["dist", "--scheme", "fcs", "--scenario", f"scenarios/d{dim}-unitary.json",
                      "--format", "json"]))
    # the W and rho solves at d = 64, where the eigensolver finishes with refinement steps;
    # the state-dependent file's last digits follow the rho solve: its Wishart state has
    # eigenvalue gaps down to 1.7e-5 (mean spacing 9e-4), so the eigenvectors its work
    # values are read from move with the solver's rounding
    for scheme in ("operator-of-work", "state-dependent"):
        runs.append((f"dist-{scheme}-d64-unitary-json",
                     ["dist", "--scheme", scheme, "--scenario", "scenarios/d64-unitary.json",
                      "--format", "json"]))
    # a three-breakpoint protocol: a history grid point on the interior breakpoint, and TPM
    three = "scenarios/d3-three-breakpoints.json"
    runs.append(("dist-consistent-histories-d3-three-breakpoints-k4-json",
                 ["dist", "--scheme", "consistent-histories", "--scenario", three,
                  "--k-steps", "4", "--format", "json"]))
    # history grids off (K = 6) and on (K = 16) the 16-step substep mesh of a driven file
    for k in (6, 16):
        runs.append((f"dist-consistent-histories-d2-k{k}-json",
                     ["dist", "--scheme", "consistent-histories", "--scenario",
                      "scenarios/d2-driven.json", "--k-steps", str(k), "--format", "json"]))
    # a 2-step mesh whose substep factors have ||H dt||_1 about 2.5 (> 0.5): each is scaled
    # by 2^-3 and squared three times, and K = 6 puts history grid points between mesh times
    runs.append(("dist-consistent-histories-d6-coarse-k6-json",
                 ["dist", "--scheme", "consistent-histories", "--scenario",
                  "scenarios/d6-driven-coarse.json", "--k-steps", "6", "--format", "json"]))
    runs.append(("dist-tpm-d3-three-breakpoints-json",
                 ["dist", "--scheme", "tpm", "--scenario", three, "--format", "json"]))
    runs.append(("dist-sub-ensemble-d3-members5",
                 ["dist", "--scheme", "sub-ensemble", "--scenario", "scenarios/d3-unitary.json",
                  "--members", "5", "--seed", "3"]))
    runs.append(("table1-d2-s100", ["table1", "--dim", "2", "--samples", "100"]))
    # enough scenarios between a state's validation and its state-dependent evaluation that
    # a bounded eigen cache would have dropped rho's spectrum: the Scenario must keep it
    runs.append(("table1-d2-s300", ["table1", "--dim", "2", "--samples", "300"]))
    # the paper-scale survey at the benchmark's held-out seed
    runs.append(("table1-d2-s500-seed7919",
                 ["table1", "--dim", "2", "--samples", "500", "--seed", "7919"]))
    # the consistent-histories row past d = 4, where its C1 and C2 history grids shrink to
    # fit TRAJ_CAP
    for dim in (5, 8):
        runs.append((f"table1-d{dim}-s10", ["table1", "--dim", str(dim), "--samples", "10"]))
    # driven compiles at d = 32, where the propagators' last bits reach the
    # consistent-histories C3 numbers
    runs.append(("table1-d32-s3-seed1",
                 ["table1", "--dim", "32", "--samples", "3", "--seed", "1"]))
    for dim in (2, 3, 4, 16):
        runs.append((f"nogo-d{dim}", ["nogo", "--dim", str(dim)]))
    # the tomography's closed-form inverse on d^2 = 1,024 states, against the analytic POVM
    runs.append(("nogo-d32-seed1", ["nogo", "--dim", "32", "--seed", "1"]))
    for seed in (0, 1, 2):
        runs.append((f"witness-b500-seed{seed}",
                     ["witness", "--budget", "500", "--seed", str(seed)]))
    # the benchmark's witness search and the README example
    for budget, seed in ((2500, 1), (10_000, 0)):
        runs.append((f"witness-b{budget}-seed{seed}",
                     ["witness", "--budget", str(budget), "--seed", str(seed)]))
    # the refinement at the held-out seed over many blocks of trials, and a budget whose
    # refinement is shorter than one block
    for budget, seed in ((10_000, 7919), (6, 1)):
        runs.append((f"witness-b{budget}-seed{seed}",
                     ["witness", "--budget", str(budget), "--seed", str(seed)]))
    for scheme in SCHEMES:
        for dim in (2, 3):
            runs.append((f"audit-{scheme}-d{dim}",
                         ["audit", "--scheme", scheme, "--dim", str(dim), "--samples", "40"]))
    # the batched schemes on stacks of k = d = 4 eigenspaces
    for scheme in BATCHED_SCHEMES:
        runs.append((f"audit-{scheme}-d4-s40",
                     ["audit", "--scheme", scheme, "--dim", "4", "--samples", "40"]))
    # the benchmark's consistent-histories audit at d = 4
    runs.append(("audit-consistent-histories-d4-s10-seed1",
                 ["audit", "--scheme", "consistent-histories", "--dim", "4", "--samples", "10",
                  "--seed", "1"]))
    # the history kernel at d = 8, where the probes' X(t_j) have eigenspaces of rank > 1
    runs.append(("audit-consistent-histories-d8-s30-seed1",
                 ["audit", "--scheme", "consistent-histories", "--dim", "8", "--samples", "30",
                  "--seed", "1"]))
    # 30 states validated at d = 64
    runs.append(("audit-tpm-d64-s5-seed1",
                 ["audit", "--scheme", "tpm", "--dim", "64", "--samples", "5", "--seed", "1"]))
    # the state-dependent kernel at d = 64, where its weights sum over the final eigenspaces;
    # its last digits follow the rho solves: Wishart states at d = 64 have eigenvalue gaps
    # far below their mean spacing (down to 3.6e-5 in the seed-1 benchmark state), so any
    # change to the eigensolver's rounding moves them
    runs.append(("audit-state-dependent-d64-s5-seed1",
                 ["audit", "--scheme", "state-dependent", "--dim", "64", "--samples", "5",
                  "--seed", "1"]))
    # the consistent-histories C3 limit criterion above the trajectory budget: closed form
    runs.append(("audit-consistent-histories-c3-d17",
                 ["audit", "--scheme", "consistent-histories", "--condition", "c3", "--dim", "17",
                  "--samples", "10"]))
    for dim in (2, 3, 4):
        runs.append((f"collective-d{dim}", ["collective", "--dim", str(dim), "--samples", "40"]))
    runs.append(("thermo-s50", ["thermo", "--samples", "50"]))
    # the stacked identity suite and the batched two-copy check at the held-out seed
    runs.append(("thermo-s200-seed7919", ["thermo", "--samples", "200", "--seed", "7919"]))
    runs.append(("collective-d4-s40-seed7919",
                 ["collective", "--dim", "4", "--samples", "40", "--seed", "7919"]))
    # the two-copy check's factor stacks above d = 4
    runs.append(("collective-d16-s20-seed1",
                 ["collective", "--dim", "16", "--samples", "20", "--seed", "1"]))
    for fmt in ("csv", "json"):
        runs.append((f"pointer-sweep-d2-{fmt}",
                     ["pointer-sweep", "--scenario", "scenarios/d2-unitary.json",
                      "--format", fmt]))
        # the meter's density at d = 2 and d = 3
        for dim in (2, 3):
            runs.append((f"pointer-density-d{dim}-{fmt}",
                         ["pointer-sweep", "--scenario", f"scenarios/d{dim}-unitary.json",
                          "--density", "--format", fmt]))
    # flags outside their domain: each exits 3 with one line on stderr
    runs += [
        ("error-witness-budget0", ["witness", "--budget", "0"]),
        ("error-thermo-samples0", ["thermo", "--samples", "0"]),
        ("error-audit-samples0", ["audit", "--scheme", "tpm", "--samples", "0"]),
        ("error-dist-sub-ensemble-members1",
         ["dist", "--scheme", "sub-ensemble", "--scenario", "scenarios/d3-unitary.json",
          "--members", "1"]),
        ("error-pointer-sweep-ratio-min0",
         ["pointer-sweep", "--scenario", "scenarios/d2-unitary.json", "--ratio-min", "0"]),
        ("error-table1-seed-negative", ["table1", "--seed", "-1"]),
    ]
    # the parser's help and usage errors: help exits 0, a usage error 2 with the usage on stderr
    runs += [
        ("help", ["--help"]),
        ("help-audit", ["audit", "--help"]),
        ("error-usage-unknown-verb", ["frobnicate"]),
        ("error-usage-audit-scheme", ["audit", "--scheme", "nope"]),
    ]
    # malformed matrices in a scenario file: each exits 2 with its path on stderr
    for name in ("bool-entry", "ragged-rho"):
        runs.append((f"error-dist-{name}",
                     ["dist", "--scheme", "tpm", "--scenario", f"scenarios/d3-{name}.json"]))
    # well-formed files that fail the experiment check: each exits 2 with its kind and path
    for name in ("nonunitary-u", "u-of-d2", "protocol-end-off", "rho-of-d2",
                 "nonhermitian-h-final"):
        runs.append((f"error-dist-{name}",
                     ["dist", "--scheme", "tpm", "--scenario", f"scenarios/d3-{name}.json"]))
    # states whose least eigenvalue lies just inside and just outside the positivity
    # tolerance: the first is accepted, the second exits with the eigenvalue on stderr
    for name in ("inside", "outside"):
        runs.append((f"dist-tpm-d3-boundary-{name}",
                     ["dist", "--scheme", "tpm", "--scenario",
                      f"scenarios/d3-boundary-{name}.json"]))
    return runs


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def compare_file(new: str, old: str) -> tuple[str, float]:
    """("identical" | "numeric" | "structural", largest absolute numeric difference)."""
    if new == old:
        return "identical", 0.0
    if _NUMBER.split(new) != _NUMBER.split(old):
        return "structural", math.inf
    return "numeric", max(abs(float(a) - float(b))
                          for a, b in zip(_NUMBER.findall(new), _NUMBER.findall(old)))


def compare_dirs(new: Path, old: Path) -> bool:
    """Print one verdict per file of either snapshot; True if none is structural."""
    names = sorted({str(p.relative_to(d)) for d in (new, old) for p in d.rglob("*")
                    if p.is_file()})
    counts = {"identical": 0, "numeric": 0, "structural": 0}
    largest = 0.0
    for name in names:
        a, b = new / name, old / name
        if a.is_file() and b.is_file():
            kind, diff = compare_file(a.read_text(), b.read_text())
        else:
            kind, diff = "structural", math.inf
        counts[kind] += 1
        if kind == "numeric":
            largest = max(largest, diff)
            print(f"numeric     {name}  max |diff| = {diff:.3g}")
        else:
            print(f"{kind:<11} {name}")
    print(f"{counts['identical']} identical, {counts['numeric']} numeric "
          f"(largest |diff| {largest:.3g}), {counts['structural']} structural")
    return counts["structural"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="directory to write the snapshot into")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the qworklab package to run")
    parser.add_argument("--against", metavar="DIR",
                        help="an earlier snapshot to compare the new one with")
    args = parser.parse_args(argv)

    out = Path(args.out)
    (out / "scenarios").mkdir(parents=True, exist_ok=True)
    docs = {"d3-degenerate": degenerate_doc(3, seed=2003),
            "d3-degenerate-h": degenerate_doc(3, seed=2013, level="H"),
            "d16-unitary": scenario_docs(16, seed=1016)[0],
            "d32-unitary": scenario_docs(32, seed=1032)[0],
            "d64-unitary": scenario_docs(64, seed=1064)[0],
            "d3-three-breakpoints": three_breakpoint_doc(3, seed=3003),
            "d6-driven-coarse": scenario_docs(6, seed=1006, steps_per_segment=2)[1],
            "d3-boundary-inside": boundary_doc(3, 3013, -0.5 * DENSITY_EIG_TOL, "inside"),
            "d3-boundary-outside": boundary_doc(3, 3023, -2 * DENSITY_EIG_TOL, "outside")}
    for dim in (2, 3, 4):
        docs[f"d{dim}-unitary"], docs[f"d{dim}-driven"] = scenario_docs(dim, seed=1000 + dim)
    docs.update(malformed_docs(docs["d3-unitary"]))
    docs.update(invalid_docs(docs["d3-unitary"], docs["d3-driven"], docs["d2-unitary"]))
    for name, doc in docs.items():
        (out / "scenarios" / f"{name}.json").write_text(json.dumps(doc, indent=1))

    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               COLUMNS="80")  # the width argparse wraps help and usage to
    status = []
    for name, cli_args in commands():
        proc = subprocess.run([sys.executable, "-m", "qworklab.cli", *cli_args], cwd=out,
                              env=env, capture_output=True, text=True)
        (out / f"{name}.out").write_text(proc.stdout)
        status.append(f"{name} exit={proc.returncode} {proc.stderr.strip()}".rstrip())
        print(status[-1], flush=True)
    (out / "exit_codes.txt").write_text("\n".join(status) + "\n")
    if args.against is not None:
        return 0 if compare_dirs(out, Path(args.against)) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
