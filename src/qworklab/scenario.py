"""The work-experiment tuple: initial/final Hamiltonians, evolution, state.

A scenario is (H, H_final, evolution, rho) where the evolution is either an
explicit unitary or a piecewise-linear driving protocol compiled to a
time-ordered product of midpoint-rule exponential factors (``_expi``, matrix
products only).  A driven scenario compiles its protocol once, on the protocol's
own substep mesh; U(tau) and the propagators of every history grid are read
from that compile.  Scenarios are
serialized to a JSON document with complex entries written as [re, im] pairs.
What a scenario derives from H, H_final and the evolution is computed once, in
one dict that its ``with_rho`` copies share; each keeps its own rho's spectrum.
A ``ScenarioBatch`` holds many experiments and states as stacks, so that a
scheme evaluates all of them in one set of array operations; protocols on one
substep mesh compile as one stack.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError, ValidationError
from .linalg import (
    HERMITICITY_TOL,
    SpectralDecomposition,
    _eig,
    _eigenspaces,
    _jacobi,
    _require_stack,
    dag,
    max_abs,
    require_density,
    require_hermitian,
    require_unitary,
)

DEFAULT_STEPS_PER_SEGMENT = 64
_TIME_MATCH_TOL = 1e-12
_COMPILE_ENTRIES = 2 ** 18  # midpoint entries (m n steps d^2) one batch compile holds


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
    def _stack(cls, protocols) -> "DrivingProtocol":
        """Validated protocols on one substep mesh as one, its ``hamiltonians`` stacked
        (m, n, d, d): its interpolation, derivative and compile run on all m at once."""
        out = copy.copy(protocols[0])
        object.__setattr__(out, "hamiltonians", np.stack([p.hamiltonians for p in protocols]))
        return out


_TAYLOR_TOL = 1e-18  # the Taylor sum of a scaled factor stops at the first term below this


def _expi(hs: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """exp(-i H_j dt_j) for Hamiltonians (..., d, d) and steps (...,) from matrix products
    alone, by scaling and squaring (Moler & Van Loan 2003; Higham 2005): A = -i H dt is
    scaled by 2^-s to a 1-norm <= 0.5, its Taylor terms summed until one's largest entry
    is below ``_TAYLOR_TOL`` (each member's own, so it is bitwise as alone), and the sum
    squared s times.  Each factor's largest entry error against ``scipy.linalg.expm``
    and its unitarity defect are <= 4 d eps max(1, ||H dt||_1)."""
    a = hs * (-1j * steps)[..., None, None]
    s = np.maximum(np.frexp(2.0 * np.abs(a).sum(axis=-2).max(axis=-1))[1], 0)
    a = a * np.ldexp(1.0, -s)[..., None, None]
    out, term, k = np.eye(a.shape[-1]) + a, a, 1
    while True:
        k += 1
        term = term @ a / k
        live = (np.abs(term).max(axis=(-2, -1)) >= _TAYLOR_TOL)[..., None, None]
        if not live.any():
            break
        term = term * live  # a member whose sum has stopped adds nothing more
        out = out + term
    for i in range(int(s.max(initial=0))):
        sq = s > i
        out[sq] = out[sq] @ out[sq]
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
        unitaries[..., j + 1, :, :] = factors[..., j, :, :] @ unitaries[..., j, :, :]
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
        out[..., off, :, :] = (_expi(protocol.hamiltonian_at((t_m + t) / 2), t - t_m)
                               @ out[..., off, :, :])
    return out


@dataclass(frozen=True, eq=False)
class Scenario:
    """One work experiment: dim, H, H_final, evolution, rho, label."""

    dim: int
    h_initial: np.ndarray
    h_final: np.ndarray
    evolution: np.ndarray | DrivingProtocol
    rho: np.ndarray
    label: str = ""
    _derived: dict = field(default_factory=dict, repr=False, compare=False)
    _rho_spectrum: SpectralDecomposition | None = field(default=None, init=False, repr=False,
                                                        compare=False)

    def __post_init__(self):
        driven = isinstance(self.evolution, DrivingProtocol)
        # an H or H_final equal to the protocol's endpoint is that validated endpoint
        ends = self.evolution.hamiltonians[[0, -1]] if driven else (None, None)
        for attr, name, end in (("h_initial", "H", ends[0]), ("h_final", "H_final", ends[1])):
            value = getattr(self, attr)
            if end is None or not np.array_equal(value, end):
                end = require_hermitian(value, name)
            object.__setattr__(self, attr, end)
        object.__setattr__(self, "rho", require_density(self.rho, "rho"))
        d = self.dim
        for name, arr in (("H", self.h_initial), ("H_final", self.h_final), ("rho", self.rho)):
            if arr.shape[0] != d:
                raise ValidationError("DimMismatch", name, f"dimension {arr.shape[0]} != dim={d}")
        if driven:
            if self.evolution.dim != d:
                raise ValidationError("DimMismatch", "evolution", f"protocol dimension != dim={d}")
            if max_abs(ends[0] - self.h_initial) > HERMITICITY_TOL:
                raise ValidationError("EndpointMismatch", "evolution.breakpoints[0].H",
                                      "protocol start Hamiltonian differs from H")
            if max_abs(ends[1] - self.h_final) > HERMITICITY_TOL:
                raise ValidationError("EndpointMismatch", "evolution.breakpoints[-1].H",
                                      "protocol end Hamiltonian differs from H_final")
        else:
            u = require_unitary(self.evolution, "evolution.U")
            if u.shape[0] != d:
                raise ValidationError("DimMismatch", "evolution.U", f"dimension != dim={d}")
            object.__setattr__(self, "evolution", u)

    @classmethod
    def _trusted(cls, h_initial, h_final, evolution, rho, derived: dict) -> "Scenario":
        """A scenario over fields its caller has validated, sharing ``derived``."""
        out = object.__new__(cls)
        for name, value in (("dim", rho.shape[-1]), ("h_initial", h_initial),
                            ("h_final", h_final), ("evolution", evolution), ("rho", rho),
                            ("label", ""), ("_derived", derived), ("_rho_spectrum", None)):
            object.__setattr__(out, name, value)
        return out

    def with_rho(self, rho, label: str = "") -> "Scenario":
        """The same experiment on another initial state.

        Only ``rho`` is validated; its spectrum is the copy's own, derived on first
        read.  H, H_final, the evolution and everything derived from them are
        shared with this scenario.
        """
        rho = require_density(rho, "rho")
        if rho.shape[0] != self.dim:
            raise ValidationError("DimMismatch", "rho",
                                  f"dimension {rho.shape[0]} != dim={self.dim}")
        out = copy.copy(self)
        object.__setattr__(out, "rho", rho)
        object.__setattr__(out, "_rho_spectrum", None)
        object.__setattr__(out, "label", label)
        return out

    @property
    def is_driven(self) -> bool:
        return isinstance(self.evolution, DrivingProtocol)

    def derived(self, key, make):
        """``make()``, computed once for this experiment and its ``with_rho`` copies,
        which share the result: ``make`` must not read rho."""
        if key not in self._derived:
            self._derived[key] = make()
        return self._derived[key]

    def unitary(self) -> np.ndarray:
        """Final evolution operator U(tau)."""
        if not self.is_driven:
            return self.evolution
        return self.derived("compile", lambda: compile_unitary(self.evolution))[0]

    def spectrum(self, name: str) -> SpectralDecomposition:
        """Decomposition of ``"rho"`` (this instance's own, solved on first read),
        ``"H"`` or ``"H_final"``."""
        if name == "rho":
            if self._rho_spectrum is None:
                object.__setattr__(self, "_rho_spectrum", _eig(self.rho, validated=True))
            return self._rho_spectrum
        h = {"H": self.h_initial, "H_final": self.h_final}[name]
        return self.derived(name, lambda: _eig(h, validated=True))

    def eigenspaces(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``spectrum(name).eigenspaces()``: eigenspace labels and column cluster ids."""
        return self.derived(name + " eigenspaces", lambda: self.spectrum(name).eigenspaces())


def _energy_change(u, rho, h_initial, h_final) -> np.ndarray:
    """Tr(U rho U^dag H_final) - Tr(rho H) of matrices, or of each member of stacks."""
    after = np.trace(u @ rho @ dag(u) @ h_final, axis1=-2, axis2=-1).real
    return after - np.trace(rho @ h_initial, axis1=-2, axis2=-1).real


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
    components do, and its spectra and everything derived from it are held once.
    Every scheme evaluates all members in one set of array operations (see
    ``schemes.distributions``).

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
    # per experiment: the derived dict its Scenarios share (None until one is made)
    _shared: list = field(default_factory=list, repr=False)
    _members: tuple | None = field(default=None, repr=False)
    _rho_spectrum: tuple | None = field(default=None, init=False, repr=False)

    @classmethod
    def build(cls, h_initial, h_final, evolution, rho, experiment, spectra: dict):
        """A validated batch.  ``spectra`` maps "H" and "H_final" to the stacked
        eigenvalues (m, d) and eigenvectors (m, d, d) the Hamiltonians were built
        from, which the batch then holds instead of solving them; each experiment's
        Scenarios share them.  A stack of unitaries is validated here, and a tuple
        of DrivingProtocols validated itself; an H or H_final stack equal to the
        protocols' endpoints is those validated endpoints."""
        unitaries = isinstance(evolution, np.ndarray)
        ends = ((None, None) if unitaries else
                np.array([p.hamiltonians[[0, -1]] for p in evolution]).swapaxes(0, 1))
        h_initial, h_final = (end if end is not None and np.array_equal(end, m)
                              else _require_stack(m, name, "hermitian")
                              for m, end, name in zip((h_initial, h_final), ends, ("H", "H_final")))
        if unitaries:
            evolution = _require_stack(evolution, "evolution.U", "unitary")
        rho = _require_stack(rho, "rho", "density")
        m, d = h_initial.shape[:2]
        experiment = np.asarray(experiment, dtype=np.intp)
        if (h_final.shape != h_initial.shape or rho.shape[1:] != (d, d) or len(evolution) != m
                or experiment.shape != rho.shape[:1] or not (0 <= experiment).all()
                or not (experiment < m).all()):
            raise ValidationError("DimMismatch", "batch",
                                  "stacks of H, H_final, evolution, rho and experiment disagree")
        batch = cls(d, h_initial, h_final, evolution, rho, experiment, _shared=[None] * m)
        for name, pair in spectra.items():
            batch._derived[("spectrum", name)] = pair
        return batch

    @classmethod
    def of(cls, scenarios) -> "ScenarioBatch":
        """The batch of validated Scenarios, one member each.  Scenarios that share an
        experiment (``with_rho`` copies) are one experiment here; the batch reads
        each experiment's spectra and evolution through its Scenario, and a batch of
        one experiment keeps what it derives in that experiment's shared state."""
        scenarios = tuple(scenarios)
        index: dict[int, int] = {}
        heads = []
        for s in scenarios:
            if index.setdefault(id(s._derived), len(heads)) == len(heads):
                heads.append(s)

        derived = heads[0]._derived.setdefault("batch", {}) if len(heads) == 1 else {}
        return cls(scenarios[0].dim, np.stack([s.h_initial for s in heads]),
                   np.stack([s.h_final for s in heads]), tuple(s.evolution for s in heads),
                   np.stack([s.rho for s in scenarios]),
                   np.array([index[id(s._derived)] for s in scenarios], dtype=np.intp),
                   derived, [s._derived for s in heads], scenarios)

    def with_rho(self, rho, experiment=None) -> "ScenarioBatch":
        """The same experiments on other states (n', d, d), member i on experiment
        ``experiment[i]`` (all on experiment 0 by default).  Only the states are
        validated, once as a stack; the experiments and what is derived from
        them are shared."""
        rho = _require_stack(rho, "rho", "density")
        experiment = (np.zeros(len(rho), dtype=np.intp) if experiment is None
                      else np.asarray(experiment, dtype=np.intp))
        if rho.shape[1:] != (self.dim, self.dim) or experiment.shape != rho.shape[:1]:
            raise ValidationError("DimMismatch", "rho", f"expected states of dim={self.dim}")
        return ScenarioBatch(self.dim, self.h_initial, self.h_final, self.evolution, rho,
                             experiment, self._derived, self._shared)

    def __len__(self) -> int:
        return len(self.rho)

    def members(self, start: int, stop: int) -> "ScenarioBatch":
        """Members start to stop - 1, on the same experiments and what is derived
        from them."""
        return ScenarioBatch(self.dim, self.h_initial, self.h_final, self.evolution,
                             self.rho[start:stop], self.experiment[start:stop], self._derived,
                             self._shared, None if self._members is None
                             else self._members[start:stop])

    def derived(self, key, make):
        """``make()``, computed once for these experiments: like ``Scenario.derived``,
        ``make`` must not read rho."""
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
        """Member i as a Scenario; the members of one experiment share its derived
        state, so a per-member loop compiles or solves each experiment once."""
        if self._members is not None:
            return self._members[i]
        return self._experiment(int(self.experiment[i]), self.rho[i])

    def _experiment(self, j: int, rho: np.ndarray) -> Scenario:
        """Experiment j on the state ``rho``, sharing the experiment's derived state."""
        if self._shared[j] is None:
            self._shared[j] = {name: SpectralDecomposition(vals[j], vecs[j])
                               for name in ("H", "H_final")
                               for vals, vecs in [self._derived[("spectrum", name)]]}
        return Scenario._trusted(self.h_initial[j], self.h_final[j], self.evolution[j], rho,
                                 self._shared[j])

    def _heads(self) -> list:
        """One Scenario per experiment, whether or not this batch holds a state of it,
        on the maximally mixed state: what the batch reads from it does not read rho."""
        mixed = np.eye(self.dim, dtype=complex) / self.dim
        return [self._experiment(j, mixed) for j in range(len(self.h_initial))]

    def unitary(self) -> np.ndarray:
        """U(tau) of each experiment, (m, d, d); a protocol compiles once, in the
        state its Scenarios share."""
        if isinstance(self.evolution, np.ndarray):
            return self.evolution

        def make():  # every protocol compiled with those on its mesh, then read per experiment
            self._compiles()
            return np.stack([s.unitary() for s in self._heads()])
        return self.derived("U", make)

    def _compiles(self) -> list:
        """``(experiments, stacked protocol, mesh, unitaries (g, k, d, d))`` per substep
        mesh of the driven experiments.  Those not yet compiled compile together,
        ``_COMPILE_ENTRIES`` midpoint entries at a time, into the state their Scenarios read."""
        def make():
            shared = [s._derived for s in self._heads()]
            groups: dict = {}
            for j, p in enumerate(self.evolution):
                if isinstance(p, DrivingProtocol):
                    groups.setdefault((p.times.tobytes(), p.steps_per_segment), []).append(j)
            out = []
            for js in groups.values():
                protocol = DrivingProtocol._stack([self.evolution[j] for j in js])
                new = [j for j in js if "compile" not in shared[j]]
                step = max(1, _COMPILE_ENTRIES // (protocol.hamiltonians[0].size
                                                   * protocol.steps_per_segment))
                for part in (new[i:i + step] for i in range(0, len(new), step)):
                    u, mesh, unitaries = compile_unitary(
                        DrivingProtocol._stack([self.evolution[j] for j in part]))
                    for i, j in enumerate(part):
                        shared[j]["compile"] = (u[i], mesh, unitaries[i])
                out.append((np.array(js), protocol, shared[js[0]]["compile"][1],
                            np.stack([shared[j]["compile"][2] for j in js])))
            return out
        return self.derived("compiles", make)

    def spectrum(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of ``"H"`` or ``"H_final"`` per experiment,
        (m, d) and (m, d, d), or of ``"rho"`` per member, (n, d) and (n, d, d).

        A batch of Scenarios reads their own spectra; otherwise the rho spectra of
        all members are one stacked Jacobi solve, made on first read."""
        if name != "rho":
            return self.derived(("spectrum", name), lambda: tuple(np.stack(x) for x in zip(*(
                (dec.eigenvalues, dec.eigenvectors) for dec in
                (s.spectrum(name) for s in self._heads())))))
        if self._rho_spectrum is None:
            pairs = (_jacobi(self.rho) if self._members is None else
                     [np.stack(x) for x in zip(*((dec.eigenvalues, dec.eigenvectors) for dec in
                                                 (s.spectrum("rho") for s in self._members)))])
            object.__setattr__(self, "_rho_spectrum", tuple(pairs))
        return self._rho_spectrum

    def eigenspaces(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``_eigenspaces`` of ``"H"`` or ``"H_final"`` per experiment: labels (m, k), NaN
        past an experiment's own count, and column cluster ids (m, d)."""
        return self.derived((name, "eigenspaces"), lambda: _eigenspaces(self.spectrum(name)[0]))

    def mean_energy_change(self) -> np.ndarray:
        """``mean_energy_change`` of every member, (n,)."""
        return _energy_change(self.per_member(self.unitary()), self.rho,
                              self.per_member(self.h_initial), self.per_member(self.h_final))


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


def _matrix_from_json(node, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ParseError("matrix must be a non-empty nested array", path)
    rows = []
    width = None
    for i, row in enumerate(node):
        if not isinstance(row, list) or not row:
            raise ParseError("matrix row must be a non-empty array", f"{path}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError("ragged matrix rows", f"{path}[{i}]")
        entries = []
        for j, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)):
                raise ParseError("complex entry must be a [re, im] pair", f"{path}[{i}][{j}]")
            entries.append(complex(float(cell[0]), float(cell[1])))
        rows.append(entries)
    return np.array(rows, dtype=np.complex128)


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
