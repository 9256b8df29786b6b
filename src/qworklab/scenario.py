"""The work-experiment tuple: initial/final Hamiltonians, evolution, state.

A scenario is (H, H_final, evolution, rho) where the evolution is either an
explicit unitary or a piecewise-linear driving protocol compiled to a
time-ordered product of midpoint-rule exponential factors (``linalg._expi``:
scaling and squaring around a Taylor polynomial evaluated by Paterson &
Stockmeyer, matrix products only), once, on the protocol's own substep mesh;
U(tau) and the propagators of every history grid are read from that compile.
Scenarios are serialized to a JSON document with complex entries written as
[re, im] pairs.
A ``ScenarioBatch`` holds many experiments and states as stacks, so that a
scheme evaluates all of them in one set of array operations; protocols on one
substep mesh compile as one stack.  The batch is the one holder of derived
state: a Scenario reads everything through its own batch of one, whose
experiment state its ``with_rho`` copies share; each keeps its own rho's spectrum.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError, ValidationError
from .linalg import (
    HERMITICITY_TOL,
    SpectralDecomposition,
    _eig,
    _eigenspaces,
    _expi,
    _matmul,
    _reject,
    _require,
    dag,
    require_hermitian,
)

DEFAULT_STEPS_PER_SEGMENT = 64
_TIME_MATCH_TOL = 1e-12
# A kernel call or a batch compile takes at most this many entries: d^3 a member (FCS atoms,
# the other kernels' products), the budget's d^(K+1) for histories, or a protocol's
# midpoints (n steps d^2); a d <= 4 ensemble, one member at d = 64 or at the budget.  Larger
# batches run in parts, which read their members' rows of all that their batch derives from
# its experiments (``ScenarioBatch.derived``), formed once.
_PART_ENTRIES = 2 ** 18


def _part_bounds(n: int, entries: int) -> list[tuple[int, int]]:
    """The member ranges [start, stop) of the parts n members of ``entries`` each run in,
    ``_PART_ENTRIES`` / entries members each (at least one)."""
    step = max(1, _PART_ENTRIES // entries)
    return [(i, min(i + step, n)) for i in range(0, n, step)]


@dataclass(frozen=True, eq=False)
class DrivingProtocol:
    """Piecewise-linear time-dependent Hamiltonian on [0, tau].

    ``times``, shape (n,), are the strictly increasing breakpoint times from 0
    and ``hamiltonians``, shape (n, d, d), the Hamiltonians at them; between
    breakpoints the Hamiltonian is the linear interpolation of its neighbours.
    """

    times: np.ndarray
    hamiltonians: np.ndarray
    steps_per_segment: int = DEFAULT_STEPS_PER_SEGMENT

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.size < 2 or len(self.hamiltonians) != times.size:
            raise ValidationError("DimMismatch", "evolution.breakpoints",
                                  "need one Hamiltonian at each of at least two times")
        if self.steps_per_segment < 1:
            raise ValidationError("DimMismatch", "evolution.steps_per_segment",
                                  "steps_per_segment must be positive")
        hams = []
        for i, h in enumerate(self.hamiltonians):
            hams.append(require_hermitian(h, f"evolution.breakpoints[{i}].H"))
            if hams[i].shape != hams[0].shape:
                raise ValidationError("DimMismatch", f"evolution.breakpoints[{i}].H",
                                      f"dimension {hams[i].shape[0]} != {hams[0].shape[0]}")
        # NaN passes both tests below, and an infinite last time passes the second
        bad = np.flatnonzero(~np.isfinite(times))
        if bad.size:
            raise ParseError("breakpoint times must be finite",
                             f"evolution.breakpoints[{bad[0]}].t")
        if abs(times[0]) > _TIME_MATCH_TOL:
            raise ParseError("first breakpoint time must be 0", "evolution.breakpoints[0].t")
        times[0] = 0.0
        bad = np.flatnonzero(np.diff(times) <= 0)
        if bad.size:
            raise ParseError("breakpoint times must be strictly increasing",
                             f"evolution.breakpoints[{bad[0] + 1}].t")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "hamiltonians", np.array(hams))

    @property
    def dim(self) -> int:
        return self.hamiltonians.shape[-1]

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def hamiltonian_at(self, t) -> np.ndarray:
        """Linear interpolation of the breakpoint Hamiltonians at a time or an array
        of times, shape ``np.shape(t) + (d, d)``; times outside [0, tau] take the
        nearer endpoint."""
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.times, t), 1, self.times.size - 1)
        t0, t1 = self.times[i - 1], self.times[i]
        lam = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)[..., None, None]
        hams = self.hamiltonians
        return (1.0 - lam) * hams[..., i - 1, :, :] + lam * hams[..., i, :, :]

    def derivative_at(self, t) -> np.ndarray:
        """Time derivative of the interpolation at a time or an array of times.

        At a breakpoint the one-sided slopes differ; the symmetric average is
        used so that the derivative commutes with time reversal of the
        protocol.  At the endpoints only one slope exists.  A segment counts
        at ``t`` when ``t`` lies in it or within the time tolerance of its ends.
        """
        t = np.asarray(t, dtype=float)
        t0, t1 = self.times[:-1], self.times[1:]
        slopes = np.diff(self.hamiltonians, axis=-3) / (t1 - t0)[:, None, None]
        tol = _TIME_MATCH_TOL * max(1.0, self.duration)
        tc = t[..., None]
        hits = ((t0 - tol <= tc) & (tc <= t1 + tol)
                & ((np.abs(tc - t0) <= tol) | (np.abs(tc - t1) <= tol) | ((t0 < tc) & (tc < t1))))
        missing = ~hits.any(axis=-1)
        if missing.any():
            raise DomainError(f"time {t[missing][0]} outside protocol range")
        first = hits.argmax(axis=-1)
        last = hits.shape[-1] - 1 - hits[..., ::-1].argmax(axis=-1)
        return (slopes[..., first, :, :] + slopes[..., last, :, :]) / 2

    def reversed(self) -> "DrivingProtocol":
        """Motion-reversed protocol: mirrored in time and complex-conjugated.

        Complex conjugation (the anti-unitary time-reversal in the
        computational basis) makes the reversed propagator equal the
        conjugated inverse of the forward one.
        """
        return DrivingProtocol(self.duration - self.times[::-1], np.conj(self.hamiltonians[::-1]),
                               self.steps_per_segment)

    @classmethod
    def _trusted(cls, times: np.ndarray, hamiltonians: np.ndarray,
                 steps_per_segment: int) -> "DrivingProtocol":
        """A protocol over validated arrays, taken as they are: float ``times`` from 0,
        strictly increasing, and Hermitian complex128 ``hamiltonians`` (n, d, d) at them,
        as the public constructor leaves them."""
        out = object.__new__(cls)
        out.__dict__.update(times=times, hamiltonians=hamiltonians,
                            steps_per_segment=steps_per_segment)
        return out

    @classmethod
    def _stack(cls, protocols) -> "DrivingProtocol":
        """Validated protocols on one substep mesh as one, its ``hamiltonians`` stacked
        (m, n, d, d): its interpolation, derivative and compile run on all m at once."""
        out = copy.copy(protocols[0])
        object.__setattr__(out, "hamiltonians", np.stack([p.hamiltonians for p in protocols]))
        return out


def compile_unitary(protocol: DrivingProtocol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time-ordered product of midpoint-rule factors exp(-i H(mid) dt).

    Each segment takes ``steps_per_segment`` equal factors, so a short segment
    does not refine the others; later times multiply from the left.  Returns
    ``(u, times, unitaries)``: U(tau), the substep mesh, shape (k,), and the
    propagators U(t) on it, shape (k, d, d), from U(0) = I; all factors from one
    ``_expi`` call.  A ``DrivingProtocol._stack`` gives u (m, d, d) and unitaries
    (m, k, d, d), each protocol bitwise as it compiles alone.
    """
    bps, steps = protocol.times, protocol.steps_per_segment
    times = np.append((bps[:-1, None] + np.diff(bps)[:, None] * np.arange(steps) / steps)
                      .ravel(), bps[-1])
    dt = np.diff(times)
    factors = _expi(protocol.hamiltonian_at(times[:-1] + 0.5 * dt), dt)
    unitaries = np.empty(factors.shape[:-3] + (times.size,) + factors.shape[-2:], complex)
    unitaries[..., 0, :, :] = np.eye(protocol.dim)
    for j in range(dt.size):
        unitaries[..., j + 1, :, :] = _matmul(factors[..., j, :, :], unitaries[..., j, :, :])
    return unitaries[..., -1, :, :], times, unitaries


def _propagators(protocol: DrivingProtocol, mesh: np.ndarray, unitaries: np.ndarray,
                 ts: np.ndarray) -> np.ndarray:
    """U(t) at the times ``ts`` in [0, tau], (..., n, d, d), from the compile
    ``(mesh, unitaries)`` of ``protocol`` (or of a stack of protocols on that
    mesh).  A time within the time tolerance of a mesh time takes that
    propagator as it is; any other takes one midpoint factor
    exp(-i H((t_m + t)/2)(t - t_m)) from the mesh time t_m before it, all such
    factors from one ``_expi`` call."""
    tol = _TIME_MATCH_TOL * max(1.0, protocol.duration)
    m = np.searchsorted(mesh, ts + tol, side="right") - 1
    out = unitaries[..., m, :, :]  # a copy: the compile stays as it is
    off = np.flatnonzero(ts - mesh[m] > tol)
    if off.size:
        t_m, t = mesh[m[off]], ts[off]
        out[..., off, :, :] = _matmul(_expi(protocol.hamiltonian_at((t_m + t) / 2), t - t_m),
                                      out[..., off, :, :])
    return out


@dataclass(frozen=True, eq=False)
class Scenario:
    """One work experiment: dim, H, H_final, evolution, rho, label.

    Construction runs the experiment check that ``ScenarioBatch.build`` runs on
    stacks (``_checked_experiments``), on these matrices.  Its batch of one
    (``ScenarioBatch.of([s])``), built with it, holds all that is derived from it;
    its ``with_rho`` copies share that batch's experiment state.
    """

    dim: int
    h_initial: np.ndarray
    h_final: np.ndarray
    evolution: np.ndarray | DrivingProtocol
    rho: np.ndarray
    label: str = ""
    _batch: "ScenarioBatch" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fields = _checked_experiments(2, self.dim, self.h_initial, self.h_final,
                                      self.evolution, self.rho)
        for attr, value in zip(("h_initial", "h_final", "evolution", "rho"), fields):
            object.__setattr__(self, attr, value)
        object.__setattr__(self, "_batch", ScenarioBatch(  # its fields as stacks of one
            self.dim, self.h_initial[None], self.h_final[None],
            (self.evolution,) if self.is_driven else self.evolution[None], self.rho[None],
            np.zeros(1, dtype=np.intp)))

    def with_rho(self, rho, label: str = "") -> "Scenario":
        """The same experiment on another initial state.

        Only ``rho`` is validated; its spectrum is the copy's own, derived on first
        read.  H, H_final, the evolution and everything derived from them are
        shared with this scenario, through ``ScenarioBatch.with_rho``.
        """
        rho = _require(rho, "rho", "density", 2)
        _require_size(rho, "rho", self.dim)
        out = copy.copy(self)
        out.__dict__.update(rho=rho, label=label,
                            _batch=self._batch._on(rho[None], self._batch.experiment))
        return out

    @property
    def is_driven(self) -> bool:
        return isinstance(self.evolution, DrivingProtocol)

    def unitary(self) -> np.ndarray:
        """Final evolution operator U(tau): row 0 of its batch's."""
        return self._batch.unitary()[0]

    def spectrum(self, name: str) -> SpectralDecomposition:
        """Decomposition of ``"rho"`` (this instance's own, solved on first read),
        ``"H"`` or ``"H_final"``: row 0 of its batch's."""
        return SpectralDecomposition(*(x[0] for x in self._batch.spectrum(name)))

    def eigenspaces(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``spectrum(name).eigenspaces()``: eigenspace labels and column cluster ids, row 0
        of its batch's."""
        return tuple(x[0] for x in self._batch.eigenspaces(name))


def _checked_experiments(ndim: int, dim: int | None, h_initial, h_final, evolution, rho):
    """The experiment check of a ``Scenario`` (``ndim`` 2: matrices (d, d), one unitary
    or DrivingProtocol) and of ``ScenarioBatch.build`` (``ndim`` 3: stacks (m, d, d) of
    H, H_final and unitaries or a tuple of m protocols, and states (n, d, d)), in order:
    H and H_final, each unless it equals the protocols' validated endpoints; U; rho;
    their sizes against ``dim`` (None: H's); each protocol's size and its endpoints
    within ``HERMITICITY_TOL`` of H and H_final.  Returns H, H_final, the evolution and
    rho, validated by ``linalg._require``: a matrix fails at its path, member i of a
    stack at ``path[i]``."""
    driven = isinstance(evolution, DrivingProtocol if ndim == 2 else tuple)
    protocols = (evolution,) if ndim == 2 else evolution
    sizes = [p.dim for p in protocols] if driven else []
    ends = (None, None)
    if len(set(sizes)) == 1:  # protocols of one size; else the size check below fails
        ends = np.array([p.hamiltonians[[0, -1]] for p in protocols]).swapaxes(0, 1)
        ends = ends[:, 0] if ndim == 2 else ends
    h_initial, h_final = (end if end is not None and np.array_equal(value, end)
                          else _require(value, name, "hermitian", ndim)
                          for value, end, name in zip((h_initial, h_final), ends,
                                                      ("H", "H_final")))
    if not driven:
        evolution = _require(evolution, "evolution.U", "unitary", ndim)
    rho = _require(rho, "rho", "density", ndim)
    d = h_initial.shape[-1] if dim is None else dim
    for name, arr in (("H", h_initial), ("H_final", h_final), ("rho", rho)):
        _require_size(arr, name, d)
    if not driven:
        if evolution.shape[-1] != d:
            raise ValidationError("DimMismatch", "evolution.U", f"dimension != dim={d}")
        return h_initial, h_final, evolution, rho
    _reject((np.array(sizes) != d).reshape(h_initial.shape[:-2]), "DimMismatch", "evolution",
            lambda at: f"protocol dimension != dim={d}")
    for end, h, index, which, name in ((ends[0], h_initial, 0, "start", "H"),
                                       (ends[1], h_final, -1, "end", "H_final")):
        if h is not end:  # an endpoint taken as H or H_final is that endpoint
            _reject(np.abs(end - h).max(axis=(-2, -1)) > HERMITICITY_TOL, "EndpointMismatch",
                    f"evolution.breakpoints[{index}].H",
                    lambda at: f"protocol {which} Hamiltonian differs from {name}")
    return h_initial, h_final, evolution, rho


def _indexes(experiment: np.ndarray, n: int, m: int) -> bool:
    """Whether ``experiment`` holds one experiment index in [0, m) for each of n states."""
    return experiment.shape == (n,) and bool(((0 <= experiment) & (experiment < m)).all())


def _require_size(arr: np.ndarray, name: str, dim: int) -> None:
    if arr.shape[-1] != dim:
        raise ValidationError("DimMismatch", name, f"dimension {arr.shape[-1]} != dim={dim}")


def _energy_change(u, rho, h_initial, h_final) -> np.ndarray:
    """Tr(U rho U^dag H_final) - Tr(rho H) of matrices, or of each member of stacks."""
    after = np.trace(_matmul(_matmul(_matmul(u, rho), dag(u)), h_final), axis1=-2, axis2=-1).real
    return after - np.trace(_matmul(rho, h_initial), axis1=-2, axis2=-1).real


def mean_energy_change(s: Scenario) -> float:
    """Tr(U rho U^dag H_final) - Tr(rho H): the unmeasured average energy change."""
    return float(_energy_change(s.unitary(), s.rho, s.h_initial, s.h_final))


@dataclass(frozen=True, eq=False)
class ScenarioBatch:
    """n members over m experiments: member i is experiment ``experiment[i]`` on the
    state ``rho[i]``.

    ``h_initial`` and ``h_final`` are stacked (m, d, d) and ``evolution`` is a
    stack of unitaries (m, d, d) or a tuple of m evolutions; ``rho`` is (n, d, d).
    An experiment may carry several states, as a C1 mixture and its two
    components do.  The batch holds all that is derived from its experiments,
    each fact once and as a stack over them, whatever their number, shared by the
    batches ``with_rho`` and ``members`` make; every scheme evaluates all members in
    one set of array operations (see ``schemes.distributions``).  A Scenario reads
    row 0 of its batch of one.

    Build a batch with ``build`` (validated stacks, with the spectra H and H_final
    were drawn from), ``of`` (validated Scenarios) or ``with_rho``; the
    constructor itself trusts its arguments.
    """

    dim: int
    h_initial: np.ndarray
    h_final: np.ndarray
    evolution: np.ndarray | tuple
    rho: np.ndarray
    experiment: np.ndarray
    _derived: dict = field(default_factory=dict, repr=False)
    _rho_spectrum: tuple | None = field(default=None, init=False, repr=False)

    @classmethod
    def build(cls, h_initial, h_final, evolution, rho, experiment, spectra: dict):
        """A batch validated as a Scenario is (``_checked_experiments``): stacks of m
        H, H_final and unitaries, or a tuple of m DrivingProtocols, and of n states,
        member i on experiment ``experiment[i]``.  ``spectra`` maps "H" and "H_final"
        to the stacked eigenvalues (m, d) and eigenvectors (m, d, d) the Hamiltonians
        were built from, which the batch then holds instead of solving them."""
        experiment = np.asarray(experiment, dtype=np.intp)
        m = len(h_initial)
        if len(h_final) != m or len(evolution) != m or not _indexes(experiment, len(rho), m):
            raise ValidationError("DimMismatch", "batch",
                                  "stacks of H, H_final, evolution, rho and experiment disagree")
        h_initial, h_final, evolution, rho = _checked_experiments(3, None, h_initial, h_final,
                                                                  evolution, rho)
        return cls(h_initial.shape[-1], h_initial, h_final, evolution, rho, experiment,
                   dict(spectra))

    @classmethod
    def of(cls, scenarios) -> "ScenarioBatch":
        """The batch of validated Scenarios, one experiment and member each: that of one
        Scenario is its own batch, and several make a new batch, which derives its own."""
        scenarios = tuple(scenarios)
        if len(scenarios) == 1:
            return scenarios[0]._batch
        return cls(scenarios[0].dim, np.stack([s.h_initial for s in scenarios]),
                   np.stack([s.h_final for s in scenarios]), tuple(s.evolution for s in scenarios),
                   np.stack([s.rho for s in scenarios]), np.arange(len(scenarios)))

    def with_rho(self, rho, experiment=None) -> "ScenarioBatch":
        """The same experiments on other states (n', d, d), member i on experiment
        ``experiment[i]`` (all on experiment 0 by default).  Only the states are
        validated, once as a stack; the experiments and what is derived from
        them are shared."""
        rho = _require(rho, "rho", "density", 3)
        _require_size(rho, "rho", self.dim)
        experiment = (np.zeros(len(rho), dtype=np.intp) if experiment is None
                      else np.asarray(experiment, dtype=np.intp))
        if not _indexes(experiment, len(rho), len(self.h_initial)):
            raise ValidationError("DimMismatch", "experiment",
                                  f"expected one index in [0, {len(self.h_initial)}) per state")
        return self._on(rho, experiment)

    def _on(self, rho: np.ndarray, experiment: np.ndarray) -> "ScenarioBatch":
        """These experiments, and what is derived from them, on validated states."""
        return ScenarioBatch(self.dim, self.h_initial, self.h_final, self.evolution, rho,
                             experiment, self._derived)

    def __len__(self) -> int:
        return len(self.rho)

    def members(self, start: int, stop: int) -> "ScenarioBatch":
        """Members start to stop - 1, on the same experiments and what is derived
        from them."""
        return self._on(self.rho[start:stop], self.experiment[start:stop])

    def derived(self, key, make):
        """``make()``, computed once for these experiments and shared with every batch
        ``with_rho`` and ``members`` make of them: ``make`` must not read rho."""
        if key not in self._derived:
            self._derived[key] = make()
        return self._derived[key]

    def per_member(self, arr: np.ndarray) -> np.ndarray:
        """A stack over experiments (m, ...) read per member (n, ...); no copy when
        member i is experiment i."""
        x = self.experiment
        if len(x) == len(arr) and (x == np.arange(len(x))).all():
            return arr
        return arr[x]

    def scenario(self, i: int) -> Scenario:
        """Member i as a Scenario, whose batch holds experiment ``experiment[i]`` alone,
        seeded with this batch's rows of it: its spectra and, once compiled, its compile."""
        j = int(self.experiment[i])
        held = {name: tuple(x[j:j + 1] for x in self._derived[name])
                for name in ("H", "H_final") if name in self._derived}
        for js, _, mesh, unitaries in self._derived.get("compiles", ()):
            if j in js:
                held["compiles"] = [(np.zeros(1, dtype=np.intp),
                                     DrivingProtocol._stack([self.evolution[j]]), mesh,
                                     unitaries[js == j])]
        s = object.__new__(Scenario)  # over fields this batch has validated
        s.__dict__.update(dim=self.dim, h_initial=self.h_initial[j], h_final=self.h_final[j],
                          evolution=self.evolution[j], rho=self.rho[i], label="",
                          _batch=ScenarioBatch(self.dim, self.h_initial[j:j + 1],
                                               self.h_final[j:j + 1], self.evolution[j:j + 1],
                                               self.rho[i:i + 1], np.zeros(1, dtype=np.intp), held))
        return s

    def unitary(self) -> np.ndarray:
        """U(tau) of each experiment, (m, d, d): a protocol's is the last propagator of
        its compile."""
        if isinstance(self.evolution, np.ndarray):
            return self.evolution

        def make():
            ends = {j: unitaries[i, -1] for js, _, _, unitaries in self._compiles()
                    for i, j in enumerate(js)}
            return np.stack([ends.get(j, e) for j, e in enumerate(self.evolution)])
        return self.derived("U", make)

    def _compiles(self) -> list:
        """``(experiments, stacked protocol, mesh, unitaries (g, k, d, d))`` per substep
        mesh of the driven experiments, compiled together in parts of ``_PART_ENTRIES``
        midpoint entries (``_part_bounds``)."""
        def make():
            groups: dict = {}
            for j, p in enumerate(self.evolution):
                if isinstance(p, DrivingProtocol):
                    groups.setdefault((p.times.tobytes(), p.steps_per_segment), []).append(j)
            out = []
            for js in groups.values():
                ps = [self.evolution[j] for j in js]
                bounds = _part_bounds(len(ps), ps[0].hamiltonians.size * ps[0].steps_per_segment)
                parts = [compile_unitary(DrivingProtocol._stack(ps[start:stop]))
                         for start, stop in bounds]
                out.append((np.array(js), DrivingProtocol._stack(ps), parts[0][1],
                            np.concatenate([unitaries for _, _, unitaries in parts])))
            return out
        return self.derived("compiles", make)

    def spectrum(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of ``"H"`` or ``"H_final"`` per experiment,
        (m, d) and (m, d, d), or of ``"rho"`` per member, (n, d) and (n, d, d); solved
        on first read (``_solve``).  Each batch solves its own states."""
        if name != "rho":
            return self.derived(name, lambda: _solve({"H": self.h_initial,
                                                      "H_final": self.h_final}[name]))
        if self._rho_spectrum is None:
            object.__setattr__(self, "_rho_spectrum", _solve(self.rho))
        return self._rho_spectrum

    def eigenspaces(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``_eigenspaces`` of ``"H"`` or ``"H_final"`` per experiment: labels (m, k), NaN
        past an experiment's own count, and column cluster ids (m, d)."""
        return self.derived((name, "eigenspaces"), lambda: _eigenspaces(self.spectrum(name)[0]))

    def mean_energy_change(self) -> np.ndarray:
        """``mean_energy_change`` of every member, (n,)."""
        return _energy_change(self.per_member(self.unitary()), self.rho,
                              self.per_member(self.h_initial), self.per_member(self.h_final))


def _solve(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (n, d) and eigenvectors (n, d, d) of a validated stack (n, d, d),
    solved by ``_eig``: a stack of one as its matrix, which the eigen cache shares
    between owners, and any other in one ``_jacobi`` call."""
    dec = _eig(stack[0] if len(stack) == 1 else stack)
    return dec.eigenvalues.reshape(stack.shape[:-1]), dec.eigenvectors.reshape(stack.shape)


def time_reversed(s: Scenario) -> Scenario:
    """Motion-reversed scenario for a driven experiment.

    The reversed protocol drives the conjugated Hamiltonians backwards and the
    initial state is the time reversal (complex conjugate) of the evolved
    forward state.
    """
    if not s.is_driven:
        raise ValueError("time reversal is defined here for driven scenarios only")
    u = s.unitary()
    rho_rev = np.conj(u @ s.rho @ dag(u))
    return Scenario(
        dim=s.dim,
        h_initial=np.conj(s.h_final),
        h_final=np.conj(s.h_initial),
        evolution=s.evolution.reversed(),
        rho=rho_rev,
        label=(s.label + "-reversed") if s.label else "reversed",
    )


# --- serialization ----------------------------------------------------------

def _entry_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_to_json(m: np.ndarray) -> list:
    return [[_entry_to_pair(complex(z)) for z in row] for row in np.asarray(m, dtype=complex)]


def _is_pair_matrix(node) -> bool:
    """Whether ``node`` is a non-empty list of equal-length non-empty rows of
    [re, im] pairs of exact ints and floats, checked over its rows, cells and
    numbers as a whole."""
    if type(node) is not list or not node or set(map(type, node)) != {list}:
        return False
    cells = list(itertools.chain.from_iterable(node))
    return (bool(cells) and len(set(map(len, node))) == 1 and set(map(type, cells)) == {list}
            and set(map(len, cells)) == {2}
            and set(map(type, itertools.chain.from_iterable(cells))) <= {int, float})


def _matrix_from_json(node, path: str) -> np.ndarray:
    """The complex matrix of a nested array of [re, im] pairs, converted in one
    array call, bitwise as ``complex(float(re), float(im))`` per entry.

    A node that ``_is_pair_matrix`` does not accept (a bool, string or null number
    among its entries) is walked entry by entry first, which raises a
    ``ParseError`` at the path of the first fault; numbers of other real types
    (numpy floats) pass the walk.
    """
    if not _is_pair_matrix(node):
        if not isinstance(node, list) or not node:
            raise ParseError("matrix must be a non-empty nested array", path)
        for i, row in enumerate(node):
            if not isinstance(row, list) or not row:
                raise ParseError("matrix row must be a non-empty array", f"{path}[{i}]")
            if len(row) != len(node[0]):
                raise ParseError("ragged matrix rows", f"{path}[{i}]")
            for j, cell in enumerate(row):
                if (not isinstance(cell, list) or len(cell) != 2
                        or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                   for x in cell)):
                    raise ParseError("complex entry must be a [re, im] pair", f"{path}[{i}][{j}]")
    return np.array(node, dtype=np.float64).view(np.complex128)[..., 0]


def scenario_to_dict(s: Scenario) -> dict:
    doc = {
        "dim": s.dim,
        "label": s.label,
        "H": _matrix_to_json(s.h_initial),
        "H_final": _matrix_to_json(s.h_final),
    }
    if s.is_driven:
        doc["evolution"] = {
            "type": "protocol",
            "breakpoints": [{"t": float(t), "H": _matrix_to_json(h)}
                            for t, h in zip(s.evolution.times, s.evolution.hamiltonians)],
            "steps_per_segment": s.evolution.steps_per_segment,
        }
    else:
        doc["evolution"] = {"type": "unitary", "U": _matrix_to_json(s.evolution)}
    doc["rho"] = _matrix_to_json(s.rho)
    return doc


def serialize_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    for key in ("dim", "H", "H_final", "evolution", "rho"):
        if key not in doc:
            raise ParseError(f"missing required field '{key}'", key)
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dim must be a positive integer", "dim")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ParseError("label must be a string", "label")

    h = _matrix_from_json(doc["H"], "H")
    h_final = _matrix_from_json(doc["H_final"], "H_final")
    rho = _matrix_from_json(doc["rho"], "rho")

    evo = doc["evolution"]
    if not isinstance(evo, dict) or "type" not in evo:
        raise ParseError("evolution must be an object with a 'type' field", "evolution")
    if evo["type"] == "unitary":
        if "U" not in evo:
            raise ParseError("unitary evolution requires field 'U'", "evolution.U")
        evolution: np.ndarray | DrivingProtocol = _matrix_from_json(evo["U"], "evolution.U")
    elif evo["type"] == "protocol":
        if "breakpoints" not in evo or not isinstance(evo["breakpoints"], list):
            raise ParseError("protocol evolution requires a 'breakpoints' array",
                             "evolution.breakpoints")
        times, hams = [], []
        for i, bp in enumerate(evo["breakpoints"]):
            if not isinstance(bp, dict) or "t" not in bp or "H" not in bp:
                raise ParseError("breakpoint must have fields 't' and 'H'",
                                 f"evolution.breakpoints[{i}]")
            t = bp["t"]
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                raise ParseError("breakpoint time must be a number",
                                 f"evolution.breakpoints[{i}].t")
            times.append(float(t))
            hams.append(_matrix_from_json(bp["H"], f"evolution.breakpoints[{i}].H"))
        steps = evo.get("steps_per_segment", DEFAULT_STEPS_PER_SEGMENT)
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
            raise ParseError("steps_per_segment must be a positive integer",
                             "evolution.steps_per_segment")
        evolution = DrivingProtocol(times, hams, steps)
    else:
        raise ParseError(f"unknown evolution type {evo['type']!r}", "evolution.type")

    return Scenario(dim=dim, h_initial=h, h_final=h_final, evolution=evolution,
                    rho=rho, label=label)


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario JSON document; raises ParseError / ValidationError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def load_scenario(path) -> Scenario:
    """Parse a scenario file; a file that is not UTF-8 text raises ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"scenario file is not UTF-8 text: {exc}") from exc
    return parse_scenario(text)
