"""The three workloads: the operations of one pass and the check of each output.

Every check is written from the paper's results or a numpy oracle, never
from the program's own expectations, so a change to the program cannot
relax what the benchmark accepts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from inputs import SPECTRAL_DIMS, scenario_arrays, write_spectral_inputs

WORKLOADS = ("survey", "ensemble", "spectral")

# Sample counts of survey and ensemble are the paper-scale counts times this
# factor, so that several fresh-process passes fit in one run; dimensions and
# verbs are unchanged.
SAMPLE_SCALE = 0.25


def _n(full: int) -> str:
    return str(max(1, round(full * SAMPLE_SCALE)))

# Survey-table verdict pattern (C1, C2, C3) of the paper's schemes.
EXPECTED_TABLE1_PATTERN = {
    "tpm": ("satisfied", "satisfied", "violated"),
    "operator_of_work": ("satisfied", "violated", "satisfied"),
    "gaussian_pointer": ("satisfied", "limit-dependent", "limit-dependent"),
    "fcs": ("violated", "satisfied", "satisfied"),
    "post_selection": ("limit-dependent", "satisfied", "limit-dependent"),
    "margenau_hill": ("violated", "satisfied", "satisfied"),
    "consistent_histories": ("violated", "violated", "satisfied"),
    "state_dependent": ("violated", "satisfied", "satisfied"),
}
WITNESS_CEILING = -0.05
NOGO_TPM_VERDICTS = {"c1": "satisfied", "c2": "satisfied", "c3": "violated"}
CH_VERDICTS = ("violated", "violated", "satisfied")
COLLECTIVE_POSITIVITY_FLOOR = -1e-8
COLLECTIVE_COMPLETENESS_TOL = 1e-8

SPECTRAL_SCHEMES = ("tpm", "operator-of-work", "fcs", "margenau-hill",
                    "state-dependent", "sub-ensemble")
# Two-copy elements are d^2 x d^2 and there are d^2 of them: ~16 GB at d = 32.
COLLECTIVE_DIMS = (16,)
# Oracle for each scheme's mean: the five C3 schemes meet the first law; TPM
# gives the mean of the dephased state.
MEAN_ORACLE = {"tpm": "tpm_mean",
               **{s: "mean_energy_change" for s in ("operator-of-work", "fcs", "margenau-hill",
                                                    "state-dependent", "sub-ensemble")}}
PROBABILITY_SCHEMES = ("tpm", "operator-of-work", "state-dependent", "sub-ensemble",
                       "collective-two-copy")
FIRST_LAW_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-9
NEGATIVE_WEIGHT_TOL = 1e-12
EIGENVALUE_TOL = 1e-9
WORK_LOSS_TOL = 1e-8
WORK_LOSS_BETA = 1.0
# measurement_work_loss raises (or returns NaN) at d = 16, 32 and 64 on almost
# every seed: its relative-entropy path needs the Gibbs state's smallest
# eigenvalues, which Jacobi resolves only to about 1e-13 absolute.  The
# operation stays in every spectral pass and a value it returns is checked,
# but a raise is tallied apart from ``failed``, since the benchmark counts
# failures only of operations that are expected to succeed.
WORK_LOSS_DEFECT = ("measurement_work_loss: relative-entropy path inaccurate at d >= 16 "
                    "(Jacobi resolves small Gibbs eigenvalues to ~1e-13 absolute)")


def _cli(op_id: str, argv: list[str], out: Path, check: str, **extra) -> dict:
    return {"id": op_id, "kind": "cli", "argv": argv + ["--out", str(out)],
            "out": str(out), "check": check, **extra}


def plan(workload: str, seed: int, work: Path) -> list[dict]:
    """Operations of one pass, in order; inputs are written into ``work``."""
    s = str(seed)
    if workload == "survey":
        return [
            _cli("table1", ["table1", "--dim", "2", "--samples", _n(500), "--seed", s],
                 work / "table1.json", "table1"),
            _cli("witness", ["witness", "--budget", _n(10_000), "--seed", s],
                 work / "witness.json", "witness"),
            _cli("nogo", ["nogo", "--dim", "2", "--seed", s], work / "nogo.json", "nogo"),
        ]
    if workload == "ensemble":
        ops = [_cli(f"collective.d{d}",
                    ["collective", "--dim", str(d), "--samples", _n(30), "--seed", s],
                    work / f"collective-d{d}.json", "collective", samples=int(_n(30)))
               for d in (3, 4)]
        ops += [_cli(f"audit-ch.d{d}",
                     ["audit", "--scheme", "consistent-histories", "--dim", str(d),
                      "--samples", _n(40), "--seed", s],
                     work / f"audit-ch-d{d}.json", "audit_ch")
                for d in (3, 4)]
        ops.append(_cli("thermo", ["thermo", "--samples", _n(200), "--seed", s],
                        work / "thermo.json", "thermo"))
        return ops
    if workload == "spectral":
        paths = write_spectral_inputs(seed, work)
        ops = []
        for d in SPECTRAL_DIMS:
            path = paths[d]
            ops.append({"id": f"d{d}.eig", "kind": "eig", "scenario": path,
                        "out": str(work / f"d{d}-eig.json"), "check": "eig",
                        "seed": seed, "dim": d})
            schemes = SPECTRAL_SCHEMES + (("collective-two-copy",) if d in COLLECTIVE_DIMS else ())
            for scheme in schemes:
                ops.append(_cli(f"d{d}.{scheme}",
                                ["dist", "--scheme", scheme, "--scenario", path,
                                 "--format", "json", "--seed", s],
                                work / f"d{d}-{scheme}.json", "dist",
                                scheme=scheme, seed=seed, dim=d))
            ops.append({"id": f"d{d}.work-loss", "kind": "work_loss", "scenario": path,
                        "beta": WORK_LOSS_BETA, "out": str(work / f"d{d}-work-loss.json"),
                        "check": "work_loss", "seed": seed, "dim": d,
                        "known_defect": WORK_LOSS_DEFECT})
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# --- output checks: each returns None when the output is correct ------------
# Comparisons are written so that a NaN fails them.

def _load(op: dict):
    with open(op["out"], encoding="utf-8") as fh:
        return json.load(fh)


def _check_table1(op, doc, oracle):
    pattern = {row["scheme"]: (row["c1"]["status"], row["c2"]["status"], row["c3"]["status"])
               for row in doc["rows"]}
    wrong = {k: pattern.get(k) for k, v in EXPECTED_TABLE1_PATTERN.items() if pattern.get(k) != v}
    return f"verdict pattern differs: {wrong}" if wrong else None


def _check_witness(op, doc, oracle):
    if not doc.get("found"):
        return "no witness found"
    value = doc["witness"]["value"]
    return None if value < WITNESS_CEILING else f"witness value {value} >= {WITNESS_CEILING}"


def _check_nogo(op, doc, oracle):
    if not abs(doc["coherent_c3_gap"] - 1.0) <= 1e-10:
        return f"coherent_c3_gap {doc['coherent_c3_gap']!r} != 1"
    if doc["tpm_verdicts"] != NOGO_TPM_VERDICTS:
        return f"TPM verdicts {doc['tpm_verdicts']}"
    return None


def _check_collective(op, doc, oracle):
    problems = []
    if doc["n_contract_violations"] != 0:
        problems.append(f"{doc['n_contract_violations']} contract violations")
    if doc["n_strict_improvements"] != op["samples"]:
        problems.append(f"{doc['n_strict_improvements']} strict improvements of {op['samples']}")
    if not doc["worst_positivity"] >= COLLECTIVE_POSITIVITY_FLOOR:
        problems.append(f"positivity {doc['worst_positivity']}")
    if not doc["worst_completeness"] <= COLLECTIVE_COMPLETENESS_TOL:
        problems.append(f"completeness {doc['worst_completeness']}")
    return "; ".join(problems) or None


def _check_audit_ch(op, doc, oracle):
    statuses = tuple(v["status"] for v in doc["verdicts"])
    return None if statuses == CH_VERDICTS else f"verdicts {statuses}"


def _check_thermo(op, doc, oracle):
    return None if doc["report"]["pass"] is True else "identity suite did not pass"


def _check_eig(op, doc, oracle):
    o = oracle(op)
    gap = max(float(np.max(np.abs(np.asarray(doc[k]) - o["eigvals"][k]))) for k in ("H", "H_final"))
    return None if gap <= EIGENVALUE_TOL else f"eigenvalues differ from eigvalsh by {gap:.3e}"


def _check_dist(op, doc, oracle):
    o = oracle(op)
    scheme = op["scheme"]
    atoms = np.asarray(doc["atoms"], dtype=float)
    works, weights = atoms[:, 0], atoms[:, 1]
    problems = []
    if not np.all(np.isfinite(atoms)):
        problems.append("non-finite atoms")
    if not abs(weights.sum() - 1.0) <= WEIGHT_SUM_TOL:
        problems.append(f"weights sum to {weights.sum()!r}")
    if scheme in PROBABILITY_SCHEMES and weights.min() < -NEGATIVE_WEIGHT_TOL:
        problems.append(f"negative weight {weights.min():.3e}")
    mean = float(works @ weights)
    if scheme in MEAN_ORACLE and not abs(mean - o[MEAN_ORACLE[scheme]]) <= FIRST_LAW_TOL:
        problems.append(f"mean {mean!r} vs oracle {o[MEAN_ORACLE[scheme]]!r}")
    return "; ".join(problems) or None


def _check_work_loss(op, doc, oracle):
    o = oracle(op)
    gap = abs(doc["value"] - o["work_loss"])
    return None if gap <= WORK_LOSS_TOL else f"work loss off the oracle by {gap:.3e}"


CHECKS = {
    "table1": _check_table1, "witness": _check_witness, "nogo": _check_nogo,
    "collective": _check_collective, "audit_ch": _check_audit_ch, "thermo": _check_thermo,
    "eig": _check_eig, "dist": _check_dist, "work_loss": _check_work_loss,
}


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


class SpectralOracle:
    """numpy reference values for one seed's spectral scenarios, built once."""

    def __init__(self):
        self._cache: dict[tuple[int, int], dict] = {}

    def __call__(self, op: dict) -> dict:
        key = (op["seed"], op["dim"])
        if key not in self._cache:
            self._cache[key] = self._compute(*scenario_arrays(*key))
        return self._cache[key]

    @staticmethod
    def _compute(h, hf, u, rho) -> dict:
        e, v = np.linalg.eigh(h)
        pops = np.einsum("ij,ik,kj->j", v.conj(), rho, v).real
        dephased = (v * pops) @ v.conj().T
        after = u @ rho @ u.conj().T
        return {
            "eigvals": {"H": e, "H_final": np.linalg.eigvalsh(hf)},
            "mean_energy_change": float(np.trace(after @ hf).real - np.trace(rho @ h).real),
            "tpm_mean": float(np.trace(u @ dephased @ u.conj().T @ hf).real
                              - np.trace(rho @ h).real),
            # A(rho)/beta = [S(D(rho)) - S(rho)] / beta for a non-degenerate H
            "work_loss": (_entropy(pops) - _entropy(np.linalg.eigvalsh(rho))) / WORK_LOSS_BETA,
        }


def check(op: dict, oracle: SpectralOracle) -> str | None:
    """None if the operation's output is correct, else what is wrong."""
    try:
        doc = _load(op)
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    try:
        return CHECKS[op["check"]](op, doc, oracle)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
