"""Command-line front end: run schemes, audits, and identity checks.

Exit codes: 0 success, 2 scenario validation/parse problems, 3 scheme or
domain errors.  With a fixed seed every command writes byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .audit import (
    Table1Config,
    build_table1,
    check_c1_linearity,
    check_c2,
    check_c3,
    check_collective_adapted,
    contextuality_witness,
    demonstrate_nogo,
)
from .errors import DomainError, ParseError, QworklabError, ValidationError
from .linalg import HERMITICITY_TOL, UNITARITY_TOL
from .pointer import PointerConfig, gaussian_meter, interpolation_sweep
from .scenario import load_scenario
from .schemes import (
    SchemeId,
    W_MERGE_TOL,
    WorkDistribution,
    distribution,
    random_pure_decomposition,
    sub_ensemble,
)
from .thermo import identity_suite

TOLERANCES = {
    "hermiticity": HERMITICITY_TOL,
    "unitarity": UNITARITY_TOL,
    "work_merge": W_MERGE_TOL,
}

_CONVENTION_FLAGS = {
    SchemeId.STATE_DEPENDENT: (
        "initial energy of a rho eigenstate taken as its energy expectation value"
    ),
    SchemeId.CONSISTENT_HISTORIES: (
        "driving compiled with midpoint-rule factors on the protocol's substep mesh; "
        "an off-mesh history time takes one partial midpoint factor"
    ),
    SchemeId.COLLECTIVE_TWO_COPY: "auto lambda maximizes POVM validity (lambda_max)",
}


def _report(doc: dict, seed, **after) -> str:
    """JSON text of ``doc``, then ``metadata``, then each ``after`` key that is not None.
    An ``atoms`` entry of ``doc`` is an (n, 2) float array of (work, weight) rows."""
    doc["metadata"] = {"tool": "qworklab", "version": __version__, "seed": seed,
                       "tolerances": TOLERANCES}
    doc.update((key, value) for key, value in after.items() if value is not None)
    atoms = doc.get("atoms")
    if atoms is None:
        return json.dumps(doc, indent=2) + "\n"
    # json encodes in pure Python under indent, so the atom rows are laid out here as json would
    head, _, tail = json.dumps(dict(doc, atoms="\0"), indent=2).partition(json.dumps("\0"))
    rows = ",".join(["\n    [\n      %r,\n      %r\n    ]"] * len(atoms)) % tuple(
        atoms.ravel().tolist())
    if not np.isfinite(atoms).all():
        # float repr writes nan, inf and -inf where json writes NaN, Infinity and -Infinity
        rows = rows.replace("nan", "NaN").replace("inf", "Infinity")
    return "".join([head, "[", rows, "\n  ]" if len(atoms) else "]", tail, "\n"])


def _csv(header: str, rows) -> str:
    lines = (",".join(format(float(x), ".17g") for x in row) for row in rows)
    return "\n".join([header, *lines]) + "\n"


def emit_distribution(dist: WorkDistribution, fmt: str, seed=None) -> str:
    """Render a distribution as CSV (work,weight) or JSON with metadata."""
    if fmt == "csv":
        return _csv("work,weight", dist.atoms)
    note = _CONVENTION_FLAGS.get(dist.scheme)
    return _report({"scheme": dist.scheme.value, "is_quasi": dist.is_quasi,
                    "atoms": np.column_stack((dist.works, dist.weights))}, seed,
                   conventions=[note] if note else None)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, args, **after) -> None:
    """Write the JSON report of a verb to ``--out`` or stdout."""
    _write(_report(doc, args.seed, **after), args.out)


def _cmd_dist(args) -> int:
    s = load_scenario(args.scenario)
    scheme = SchemeId(args.scheme.replace("-", "_"))
    opts = {}
    if scheme is SchemeId.CONSISTENT_HISTORIES:
        opts["k_steps"] = args.k_steps
    if scheme is SchemeId.COLLECTIVE_TWO_COPY and args.lam != "auto":
        try:
            opts["lam"] = float(args.lam)
        except ValueError:
            raise ParseError(f"--lam must be a number or 'auto', got {args.lam!r}") from None
    if scheme is SchemeId.SUB_ENSEMBLE and args.members:
        dist = sub_ensemble(s, random_pure_decomposition(s.rho, args.members, args.seed))
    else:
        dist = distribution(scheme, s, **opts)
    _write(emit_distribution(dist, args.format, seed=args.seed), args.out)
    return 0


def _cmd_audit(args) -> int:
    scheme = SchemeId(args.scheme.replace("-", "_"))
    checks = {"c1": check_c1_linearity, "c2": check_c2, "c3": check_c3}
    names = list(checks) if args.condition == "all" else [args.condition]
    verdicts = [asdict(checks[c](scheme, args.dim, args.samples, args.seed)) for c in names]
    note = _CONVENTION_FLAGS.get(scheme)
    _emit({"scheme": scheme.value, "dim": args.dim, "samples": args.samples,
           "verdicts": verdicts}, args, conventions=[note] if note else None)
    return 0


def _cmd_table1(args) -> int:
    report = build_table1(Table1Config(dim=args.dim, samples=args.samples, seed=args.seed))
    _emit(report.to_dict(), args, conventions=sorted(set(_CONVENTION_FLAGS.values())))
    return 0


def _cmd_nogo(args) -> int:
    _emit(asdict(demonstrate_nogo(args.dim, args.seed)), args)
    return 0


def _cmd_witness(args) -> int:
    witness = contextuality_witness(args.budget, args.seed)
    _emit({"found": witness is not None}, args, witness=witness.to_dict() if witness else None)
    return 0


def _cmd_thermo(args) -> int:
    report = identity_suite(args.samples, args.seed)
    _emit({"check": args.check, "report": report}, args)
    return 0 if report["pass"] else 3


def _cmd_collective(args) -> int:
    _emit(asdict(check_collective_adapted(args.dim, args.samples, args.seed)), args)
    return 0


def _cmd_pointer_sweep(args) -> int:
    s = load_scenario(args.scenario)
    if args.density:
        cfg = PointerConfig.for_scenario(s, args.coupling, args.spread)
        readout = gaussian_meter(s, cfg)
        if args.format == "csv":
            _write(_csv("x,density,work,work_density",
                        zip(readout.xs, readout.density, readout.work_axis(),
                            readout.work_density())), args.out)
        else:
            _emit({"coupling": args.coupling, "spread": args.spread,
                   "xs": readout.xs.tolist(), "density": readout.density.tolist()}, args)
        return 0
    if not (args.ratio_min > 0 and args.ratio_max > 0):
        raise DomainError("spread/coupling ratio bounds must be positive")
    if args.points < 1:
        raise DomainError("points must be at least 1")
    ratios = np.logspace(np.log10(args.ratio_min), np.log10(args.ratio_max), args.points)
    sweep = interpolation_sweep(s, args.coupling, ratios)
    if args.format == "csv":
        _write(_csv("spread_over_coupling,l1_to_tpm,l1_to_margenau_hill", sweep), args.out)
    else:
        _emit({"sweep": [{"ratio": r, "l1_to_tpm": dt, "l1_to_margenau_hill": dm}
                         for r, dt, dm in sweep]}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qworklab",
        description="Quantum work-distribution laboratory: schemes, audits, identities.",
    )
    parser.add_argument("--version", action="version", version=f"qworklab {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    scheme_names = [s.value.replace("_", "-") for s in SchemeId]

    p = sub.add_parser("dist", help="evaluate one scheme on a scenario file")
    p.add_argument("--scheme", required=True, choices=scheme_names)
    p.add_argument("--scenario", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-steps", type=int, default=8, help="history grid steps")
    p.add_argument("--lam", default="auto", help="collective mixing parameter or 'auto'")
    p.add_argument("--members", type=int, default=0,
                   help="random sub-ensemble size (0 = spectral decomposition)")
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("audit", help="run condition checks for one scheme")
    p.add_argument("--scheme", required=True, choices=scheme_names)
    p.add_argument("--condition", choices=["c1", "c2", "c3", "all"], default="all")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("table1", help="audit every scheme and print the survey table")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("nogo", help="numerically reproduce the no-go argument")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_nogo)

    p = sub.add_parser("witness", help="search for a negative joint quasi-probability")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("thermo", help="run the free-energy/coherence identity suite")
    p.add_argument("--check", choices=["all"], default="all")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=_cmd_thermo)

    p = sub.add_parser("collective", help="adapted two-copy condition report")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_collective)

    p = sub.add_parser("pointer-sweep",
                       help="pointer-scheme interpolation sweep or meter density")
    p.add_argument("--scenario", required=True)
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--ratio-min", type=float, default=0.1)
    p.add_argument("--ratio-max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--density", action="store_true",
                   help="emit the meter readout density instead of the sweep")
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_pointer_sweep)
    for p in sub.choices.values():  # every verb writes to --out, or to stdout
        p.add_argument("--out")
    return parser


def _warning_line(message, category, *_) -> None:
    sys.stderr.write(f"warning: {category.__name__}: {message}\n")


_PARSER = build_parser()  # built once per process: a parse leaves it as it was


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.seed < 0:  # numpy seeds must be non-negative; every verb takes --seed
            raise DomainError(f"--seed must be >= 0, got {args.seed}")
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line  # one line, without a source path
            return args.fn(args)
    except (ParseError, ValidationError, FileNotFoundError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except QworklabError as exc:
        sys.stderr.write(f"scheme error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
