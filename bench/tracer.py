"""Opt-in span recorder that wraps qworklab's public API from outside.

``Recorder.install`` wraps every public function, and every public method and
``__init__`` of the classes defined in the seven layer modules, plus the two
private boundaries the metrics need (``linalg._jacobi`` for solves and
``cli._write`` for output).  Modules import each other's functions by name,
so every module-level name (in the layer modules and in the ``qworklab``
package) that refers to a wrapped function is rebound to its wrapper.
``uninstall`` puts every original object back.

Each call records one span: name, parent span, depth, start and end.  Spans
are kept in compact arrays in memory and written out at the end of a pass.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
import types
from array import array
from enum import Enum

import numpy as np

LAYERS = ("linalg", "scenario", "schemes", "pointer", "thermo", "audit", "cli")
_EXTRA_PRIVATE = {"linalg": ("_jacobi",), "cli": ("_write",)}

SCHEME_EVALS = ("tpm", "work_operator", "fcs_quasiprob", "margenau_hill",
                "consistent_histories", "state_dependent", "sub_ensemble",
                "collective_two_copy")

# Group name -> qualified span names.  A group's time is the summed duration
# of its outermost spans (spans with no ancestor in the same group), and its
# call count is the number of those spans.
GROUPS = {
    "eig": ("linalg.eig_hermitian",),
    "jacobi": ("linalg._jacobi",),
    "validate": ("linalg.require_square", "linalg.require_hermitian",
                 "linalg.require_unitary", "linalg.require_density"),
    "sample": ("linalg.random_unitary", "linalg.random_density",
               "linalg.random_pure", "linalg.random_hermitian"),
    "entropy": ("linalg.von_neumann_entropy", "linalg.relative_entropy"),
    "construct": ("scenario.Scenario.__init__",),
    "compile": ("scenario.compile_unitary",),
    "parse": ("scenario.parse_scenario", "scenario.load_scenario",
              "scenario.scenario_from_dict"),
    "eval": tuple(f"schemes.{n}" for n in SCHEME_EVALS),
    "merge": ("schemes.merge_atoms",),
    "fcs": ("schemes.fcs_quasiprob",),
    "ch": ("schemes.consistent_histories",),
    "collective": ("schemes.collective_two_copy",),
    "lambda_max": ("schemes.lambda_max",),
    "povm_check": ("schemes.Povm.min_eigenvalue", "schemes.Povm.completeness_defect",
                   "schemes.Povm.check"),
    "meter": ("pointer.gaussian_meter",),
    "audit_sample": ("audit.sample_scenario",),
    "table1": ("audit.build_table1",),
    "witness": ("audit.contextuality_witness",),
    "nogo": ("audit.demonstrate_nogo",),
    "audit_collective": ("audit.check_collective_adapted",),
    "emit": ("cli.emit_distribution", "cli._write"),
}

EIG_DIMS = (2, 3, 4, 16, 32, 64)

# Per-layer metrics reported by a traced run, with their units.  Times are
# seconds unless the unit says otherwise; a p50/p99 with no sample reads 0
# and is listed under "undefined" in the result file.
PER_LAYER_METRICS = (
    [("linalg.self_s", "s"), ("linalg.eig_calls", "count"), ("linalg.eig_distinct", "count"),
     ("linalg.eig_solves", "count"), ("linalg.eig_repeat_ratio", "1"),
     ("linalg.eig_waste_ratio", "1"), ("linalg.eig_s", "s")]
    + [(f"linalg.eig_us_p50.d{d}", "us") for d in EIG_DIMS]
    + [("linalg.validate_calls", "count"), ("linalg.validate_s", "s"),
       ("linalg.sample_s", "s"), ("linalg.entropy_s", "s"),
       ("scenario.self_s", "s"), ("scenario.construct_calls", "count"),
       ("scenario.construct_s", "s"), ("scenario.compile_calls", "count"),
       ("scenario.compile_s", "s"), ("scenario.parse_s", "s"),
       ("schemes.self_s", "s"), ("schemes.eval_calls", "count"),
       ("schemes.eval_us_p50", "us"), ("schemes.eval_us_p99", "us"),
       ("schemes.merge_calls", "count"), ("schemes.merge_atoms_in", "count"),
       ("schemes.merge_s", "s"), ("schemes.fcs_s", "s"), ("schemes.ch_s", "s"),
       ("schemes.collective_s", "s"), ("schemes.lambda_max_calls", "count"),
       ("schemes.lambda_max_s", "s"), ("schemes.povm_check_s", "s"),
       ("pointer.self_s", "s"), ("pointer.meter_calls", "count"),
       ("pointer.grid_points", "count"),
       ("thermo.self_s", "s"), ("thermo.calls", "count"), ("thermo.failed", "count"),
       ("audit.self_s", "s"), ("audit.sample_calls", "count"), ("audit.sample_s", "s"),
       ("audit.table1_s", "s"), ("audit.witness_s", "s"), ("audit.nogo_s", "s"),
       ("audit.collective_s", "s"),
       ("cli.self_s", "s"), ("cli.emit_s", "s"), ("cli.out_bytes", "bytes"),
       ("trace.overhead_ratio", "1")]
)

# Count metrics that must repeat exactly across passes with the same inputs.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER_METRICS if unit in ("count", "bytes"))


def _copy(values: array, dtype) -> np.ndarray:
    """Copy of a recording array (a live view would block further appends)."""
    return np.frombuffer(values, dtype=dtype).copy() if len(values) else np.zeros(0, dtype)


def _first_arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


class Recorder:
    """Wraps the layer modules and records one span per wrapped call."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.depth = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = array("i")
        self._stack = [-1]
        self.eig_span = array("i")  # spans of first calls per distinct operator
        self.eig_dim = array("i")
        self.eig_keys: set[int] = set()
        self.merge_atoms_in = 0
        self.grid_points = 0
        self._saved: list[tuple[object, str, object]] = []
        self._hooks = {
            "linalg.eig_hermitian": self._eig_hook,
            "schemes.merge_atoms": self._merge_hook,
            "pointer.gaussian_meter": self._meter_hook,
        }

    # --- counting hooks, called inside the span before its clock starts ---

    def _eig_hook(self, index, args, kwargs):
        arr = np.ascontiguousarray(_first_arg(args, kwargs, 0, "op"), dtype=np.complex128)
        # hash the buffer in place: a copy of a large operator would move later
        # allocations and change the measured code's memory layout
        key = hashlib.blake2b(arr, digest_size=8)
        key.update(repr(arr.shape).encode())
        digest = key.digest()
        if digest not in self.eig_keys:  # first sight of this operator: a cold solve
            self.eig_keys.add(digest)
            self.eig_span.append(index)
            self.eig_dim.append(arr.shape[0] if arr.ndim else 0)

    def _merge_hook(self, index, args, kwargs):
        self.merge_atoms_in += int(np.size(_first_arg(args, kwargs, 0, "works")))

    def _meter_hook(self, index, args, kwargs):
        self.grid_points += int(_first_arg(args, kwargs, 1, "cfg").n_points)

    # --- wrapping ---

    def _wrap(self, fn, qualname: str):
        nid = self._name_ids.setdefault(qualname, len(self.span_names))
        if nid == len(self.span_names):
            self.span_names.append(qualname)
        hook = self._hooks.get(qualname)
        names, parents, depths = self.name, self.parent, self.depth
        starts, ends, errors, stack = self.start, self.end, self.errors, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            depths.append(len(stack) - 1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            if hook is not None:
                hook(i, args, kwargs)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors.append(i)
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"qworklab.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                private = attr.startswith("_")
                if private and attr not in _EXTRA_PRIVATE.get(layer, ()):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif isinstance(obj, type) and not private and not issubclass(obj, Enum):
                    self._wrap_class(obj, layer)
        # rebind every module-level reference, including cross-module imports
        for mod in [importlib.import_module("qworklab"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and isinstance(obj, types.FunctionType):
                    self._replace(mod, attr, wrapper)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, types.FunctionType):
                self._replace(cls, attr, self._wrap(raw, qualname))
            elif isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(raw.__func__, qualname)))
            elif isinstance(raw, staticmethod):
                self._replace(cls, attr, staticmethod(self._wrap(raw.__func__, qualname)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- results ---

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": _copy(self.name, np.int32), "parent": _copy(self.parent, np.int32),
                "depth": _copy(self.depth, np.int32), "start": _copy(self.start, np.float64),
                "end": _copy(self.end, np.float64)}

    def _layers(self, names: np.ndarray) -> np.ndarray:
        """Layer index of each span, given the spans' name ids."""
        layer_of = np.array([LAYERS.index(q.split(".")[0]) for q in self.span_names],
                            dtype=np.int64)
        return layer_of[names] if names.size else np.zeros(0, np.int64)

    def save(self, path: str, pass_id: int) -> None:
        """Write every span (name, layer, start, end, parent, pass id)."""
        spans = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.span_names), layers=np.array(LAYERS),
            name=spans["name"], layer=self._layers(spans["name"]).astype(np.int8),
            parent=spans["parent"], start=spans["start"], end=spans["end"],
            failed=_copy(self.errors, np.int32),
            pass_id=np.full(spans["name"].size, pass_id, dtype=np.int32))

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one pass, plus the time outside every span."""
        s = self.arrays()
        n = s["name"].size
        dur = s["end"] - s["start"]
        parent = s["parent"]
        rooted = parent >= 0
        child = np.bincount(parent[rooted], weights=dur[rooted], minlength=n)
        self_time = dur - child
        layer_self = np.bincount(self._layers(s["name"]), weights=self_time,
                                 minlength=len(LAYERS))

        groups = dict(GROUPS)
        groups["thermo_entry"] = tuple(q for q in self.span_names if q.startswith("thermo."))
        outer = self._outermost(s, groups)

        def group_s(g):
            return float(dur[outer[g]].sum())

        def group_calls(g):
            return int(outer[g].sum())

        eig_idx = _copy(self.eig_span, np.int32)
        eig_dim = _copy(self.eig_dim, np.int32)
        eval_durs = dur[outer["eval"]]
        failed = np.zeros(n, dtype=bool)
        failed[_copy(self.errors, np.int32)] = True

        undefined = []

        def p_us(values, q, name, minimum=1):
            if values.size < minimum:
                undefined.append(name)
                return 0.0
            return float(np.percentile(values, q) * 1e6)

        calls = group_calls("eig")
        distinct = len(self.eig_keys)
        solves = group_calls("jacobi")
        out = {f"{layer_name}.self_s": float(layer_self[i])
               for i, layer_name in enumerate(LAYERS)}
        out.update({
            "linalg.eig_calls": calls,
            "linalg.eig_distinct": distinct,
            "linalg.eig_repeat_ratio": 1.0 - distinct / calls if calls else 0.0,
            "linalg.eig_s": group_s("eig"),
            "linalg.validate_calls": group_calls("validate"),
            "linalg.validate_s": group_s("validate"),
            "linalg.sample_s": group_s("sample"),
            "linalg.entropy_s": group_s("entropy"),
            "scenario.construct_calls": group_calls("construct"),
            "scenario.construct_s": group_s("construct"),
            "scenario.compile_calls": group_calls("compile"),
            "scenario.compile_s": group_s("compile"),
            "scenario.parse_s": group_s("parse"),
            "schemes.eval_calls": int(eval_durs.size),
            "schemes.eval_us_p50": p_us(eval_durs, 50, "schemes.eval_us_p50"),
            "schemes.eval_us_p99": p_us(eval_durs, 99, "schemes.eval_us_p99", 1000),
            "schemes.merge_calls": group_calls("merge"),
            "schemes.merge_atoms_in": self.merge_atoms_in,
            "schemes.merge_s": group_s("merge"),
            "schemes.fcs_s": group_s("fcs"),
            "schemes.ch_s": group_s("ch"),
            "schemes.collective_s": group_s("collective"),
            "schemes.lambda_max_calls": group_calls("lambda_max"),
            "schemes.lambda_max_s": group_s("lambda_max"),
            "schemes.povm_check_s": group_s("povm_check"),
            "pointer.meter_calls": group_calls("meter"),
            "pointer.grid_points": self.grid_points,
            "thermo.calls": group_calls("thermo_entry"),
            "thermo.failed": int((outer["thermo_entry"] & failed).sum()),
            "audit.sample_calls": group_calls("audit_sample"),
            "audit.sample_s": group_s("audit_sample"),
            "audit.table1_s": group_s("table1"),
            "audit.witness_s": group_s("witness"),
            "audit.nogo_s": group_s("nogo"),
            "audit.collective_s": group_s("audit_collective"),
            "cli.emit_s": group_s("emit"),
        })
        out["linalg.eig_solves"] = solves
        out["linalg.eig_waste_ratio"] = (solves - distinct) / solves if solves else 0.0
        if "linalg._jacobi" not in self._name_ids:  # the solver boundary is gone
            undefined += ["linalg.eig_solves", "linalg.eig_waste_ratio"]
        for d in EIG_DIMS:
            name = f"linalg.eig_us_p50.d{d}"
            out[name] = p_us(dur[eig_idx[eig_dim == d]], 50, name)
        top = float(dur[~rooted].sum())
        return {"metrics": out, "undefined": undefined, "spans": int(n),
                "bench_side_s": wall_s - top, "top_level_s": top}

    def _outermost(self, s, groups) -> dict[str, np.ndarray]:
        """Per group, a mask of spans in the group with no ancestor in it."""
        n = s["name"].size
        ids = self._name_ids
        member = np.zeros(len(self.span_names), dtype=np.int64)
        for bit, members in enumerate(groups.values()):
            for q in members:
                if q in ids:
                    member[ids[q]] |= 1 << bit
        own = member[s["name"]] if n else np.zeros(0, np.int64)
        above = np.zeros(n, dtype=np.int64)
        depth, parent = s["depth"], s["parent"]
        for level in range(1, int(depth.max()) + 1 if n else 0):
            idx = np.nonzero(depth == level)[0]
            p = parent[idx]
            above[idx] = above[p] | own[p]
        return {g: ((own >> bit) & 1).astype(bool) & ~((above >> bit) & 1).astype(bool)
                for bit, g in enumerate(groups)}
