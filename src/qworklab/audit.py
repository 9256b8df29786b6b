"""Condition audits, POVM tomography, witness searches, and the survey table.

The three audited requirements for a work-measurement protocol are:

* C1: the scheme is a genuine probability assignment, linear under mixtures
  of the input state, equivalently described by a state-independent POVM;
* C2: agreement with the two-projective-measurement statistics on states
  commuting with the initial Hamiltonian;
* C3: the mean of the distribution equals the unmeasured average energy
  change for every state.

Verdicts are graded with a satisfaction threshold and a violation floor; the
gap between them is reported as inconclusive.  Each check mixes random
sampling with fixed, seed-independent probe instances so that the qualitative
verdict pattern does not depend on the seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cache, partial

import numpy as np

from .errors import DegenerateRhoWarning, DomainError, NotLinear
from .linalg import (
    SpectralDecomposition,
    _complex_normal,
    _matmul,
    _orthonormal_columns,
    _require_stack,
    _wishart_states,
    dag,
    max_abs,
    projector,
    random_density,
    random_unitary,
)
from .pointer import PointerConfig, PointerReadout, _kappa, meter_densities
from .scenario import (
    DrivingProtocol,
    Scenario,
    ScenarioBatch,
    mean_energy_change,
    scenario_to_dict,
)
from .schemes import (
    Povm,
    SchemeId,
    TRAJ_CAP,
    W_MERGE_TOL,
    WorkBatch,
    _collective_factors,
    _joint_distributions,
    _joint_weights,
    _member_entries,
    _part_bounds,
    collective_factors,
    consistent_histories_means,
    distributions,
    margenau_hill,
    merge_atoms,
    tpm,
    tpm_povm,
)

SATISFIED_TOL = 1e-7
VIOLATION_FLOOR = 1e-3
RECONSTRUCTION_TOL = 1e-6
DEFAULT_CH_STEPS = 6
SAMPLE_PROTOCOL_STEPS = 16  # steps per segment of a sampled driving protocol
N_VALIDATION = 100          # fresh states checked by each POVM reconstruction
N_NOGO_SAMPLES = 100        # diagonal states checked against the forced POVM
WITNESS_TIE_TOL = 1e-12  # a witness candidate must improve on the best by more than this
_WITNESS_BLOCK = 32      # refinement trials scored per stack
WORST_TIE_RTOL = 1e-12   # a later case must exceed the worst so far by this fraction
# (coupling, spread) of the survey table's strong and weak Gaussian work meters
POINTER_STRONG = (40.0, 1.0)
POINTER_WEAK = (1.0, 150.0)


class Condition(str, Enum):
    C1_LINEAR_POVM = "c1-linear-povm"
    C2_TPM_AGREEMENT = "c2-tpm-agreement"
    C3_FIRST_LAW = "c3-first-law"


class Status(str, Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    LIMIT_DEPENDENT = "limit-dependent"
    INCONCLUSIVE = "inconclusive"
    OUT_OF_SCOPE = "out-of-scope"


@dataclass(frozen=True)
class ConditionVerdict:
    condition: Condition
    status: Status
    max_violation: float | None
    witness: dict | None = None
    notes: str = ""


def _graded(condition: Condition, violation: float, witness: dict | None,
            notes: str = "") -> ConditionVerdict:
    if violation <= SATISFIED_TOL:
        return ConditionVerdict(condition, Status.SATISFIED, violation, None, notes)
    if violation >= VIOLATION_FLOOR:
        return ConditionVerdict(condition, Status.VIOLATED, violation, witness, notes)
    return ConditionVerdict(condition, Status.INCONCLUSIVE, violation, witness,
                            notes + " (dead zone: raise n_samples)")


def _require_count(n: int, name: str = "n_samples") -> None:
    if n < 1:
        raise DomainError(f"{name} must be >= 1, got {n}")


# --- scenario sampling -------------------------------------------------------

def _random_spectrum(dim: int, rng) -> SpectralDecomposition:
    """A Haar-random eigenbasis and a unit ladder plus jitter: every gap is >= 0.6."""
    u = random_unitary(dim, rng)
    return SpectralDecomposition(np.arange(dim, dtype=float) + 0.4 * rng.random(dim), u)


def random_nondegenerate_hermitian(dim: int, rng) -> np.ndarray:
    return _random_spectrum(dim, rng).reconstruct()


def sample_scenario(dim: int, rng, coherent: bool = True, driven: bool = False) -> Scenario:
    """One sampled scenario: ``_sample_batch`` of one."""
    return _sample_batch(dim, 1, rng, coherent, driven).scenario(0)


def _sample_batch(dim: int, n: int, rng, coherent: bool, driven: bool,
                  mixtures: bool = False):
    """n sampled scenarios as one batch.

    Each has H and H_final of a Haar-random eigenbasis and a unit ladder plus
    jitter (``_random_spectrum``), which the batch holds as their spectra, and a
    Haar-random U or a linear ramp from H to H_final; its state is a Wishart
    state if ``coherent``, else diagonal in H's eigenbasis with spaced
    populations, which keep rho's eigenbasis numerically unambiguous.  The
    random numbers are drawn sample by sample, so n draws of one take the same
    stream as one draw of n; the arithmetic on them is done once, on stacks.
    With ``mixtures``, each sample also draws two states and a weight lam, as a
    C1 mixture does: the result is then the batch of mixed states, those of the
    first and of the second components, on the same experiments, and the lam
    (n,).
    """
    if dim < 2:
        raise DomainError("dim must be >= 2")

    def normals():  # the parts of one complex-normal matrix
        return rng.standard_normal((2, dim, dim))

    draws = []
    for _ in range(n):
        row = [normals(), rng.random(dim), normals(), rng.random(dim)]
        if not driven:
            row.append(normals())
        row.append(normals() if coherent else rng.random(dim))
        if mixtures:
            row += [normals(), normals(), rng.uniform(0.2, 0.8)]
        draws.append(row)
    columns = iter([np.array(column) for column in zip(*draws)])

    def ginibre():
        return _complex_normal(next(columns))

    spectra = {}
    for name in ("H", "H_final"):  # as _random_spectrum, on the stack
        vecs = _orthonormal_columns(ginibre())
        spectra[name] = (np.arange(dim, dtype=float) + 0.4 * next(columns), vecs)
    h, hf = (_matmul(vecs * vals[:, None, :], dag(vecs)) for vals, vecs in spectra.values())
    if driven:  # every breakpoint checked in one stack, then each protocol trusts it
        ramps = _require_stack(np.stack([h, hf], axis=1).reshape(-1, dim, dim),
                               "evolution.breakpoints.H", "hermitian").reshape(n, 2, dim, dim)
        times = np.array([0.0, 1.0])
        evolution = tuple(DrivingProtocol._trusted(times, pair, SAMPLE_PROTOCOL_STEPS)
                          for pair in ramps)
    else:
        evolution = _orthonormal_columns(ginibre())
    if coherent:
        rho = _wishart_states(ginibre())
    else:
        raw = np.arange(1.0, dim + 1.0) + 0.5 * next(columns)
        vecs = spectra["H"][1]
        rho = _matmul(vecs * (raw / raw.sum(axis=1, keepdims=True))[:, None, :], dag(vecs))
    if not mixtures:
        return ScenarioBatch.build(h, hf, evolution, rho, np.arange(n), spectra)
    rho1, rho2 = _wishart_states(ginibre()), _wishart_states(ginibre())
    lam = next(columns)
    mix = lam[:, None, None] * rho1 + (1.0 - lam)[:, None, None] * rho2
    batch = ScenarioBatch.build(h, hf, evolution, mix, np.arange(n), spectra)
    return batch, batch.with_rho(rho1, np.arange(n)), batch.with_rho(rho2, np.arange(n)), lam


# --- canonical probe instances (seed-independent regression witnesses) -------

_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_H01 = np.diag([0.0, 1.0]).astype(complex)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def hadamard_scenario() -> Scenario:
    """Coherent qubit instance with TPM first-law gap exactly 1."""
    return Scenario(dim=2, h_initial=_SZ, h_final=_SZ, evolution=_HADAMARD,
                    rho=_PLUS, label="hadamard-plus")


def _embed(dim: int, h, hf, evolution, rho, label: str) -> Scenario:
    """Pad a qubit probe into a larger space with an inert high-energy ladder."""
    if dim > 2:
        def pad(m, fill):  # a matrix, or each matrix of a stack
            base = np.diag(np.concatenate([np.zeros(2), fill]))
            out = np.broadcast_to(base, np.shape(m)[:-2] + base.shape).astype(complex)
            out[..., :2, :2] = m
            return out

        ladder = 10.0 + np.arange(dim - 2)
        h, hf, rho = pad(h, ladder), pad(hf, ladder), pad(rho, np.zeros(dim - 2))
        if isinstance(evolution, DrivingProtocol):
            evolution = DrivingProtocol(evolution.times, pad(evolution.hamiltonians, ladder),
                                        evolution.steps_per_segment)
        else:
            evolution = pad(evolution, np.ones(dim - 2))
    return Scenario(dim=dim, h_initial=h, h_final=hf, evolution=evolution, rho=rho, label=label)


def _probe_fcs_negativity(dim: int) -> Scenario:
    # Hadamard on |+> against H = diag(0, 1): grouped FCS atom -1/2 at w = +1/2
    return _embed(dim, _H01, _H01, _HADAMARD, _PLUS, "fcs-negativity")


def _probe_mh_negativity(dim: int) -> Scenario:
    # real rotation geometry reaching the extremal joint value -1/8; the final
    # spectrum is incommensurate with the initial one so no grouping of work
    # values can cancel the negative entry
    a, b = math.pi / 3.0, 2.0 * math.pi / 3.0
    psi = np.array([math.cos(b), math.sin(b)], dtype=complex)
    u = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]],
                 dtype=complex)
    h_final = np.diag([0.0, 1.25]).astype(complex)
    return _embed(dim, _H01, h_final, u, projector(psi), "mh-negativity")


def _probe_work_operator_c2(dim: int) -> Scenario:
    # TPM support {0, -2} vs work-operator support {+-sqrt(2)}: TV distance 1
    return _embed(dim, _SZ, _SZ, _HADAMARD, np.diag([1.0, 0.0]).astype(complex),
                  "work-operator-support")


def _probe_ch_negativity(dim: int) -> Scenario:
    # ramp -2 sigma_x -> 2 sigma_z over tau = 2: min history weight ~ -0.32 at K = 6
    h0 = -2.0 * _SX
    h1 = 2.0 * _SZ
    theta, phi = 2.2, 0.5
    psi = np.array([math.cos(theta / 2.0),
                    np.exp(1j * phi) * math.sin(theta / 2.0)])
    proto = DrivingProtocol([0.0, 2.0], [h0, h1], 32)
    return _embed(dim, h0, h1, proto, projector(psi), "ch-negativity")


def _probe_ch_c2(dim: int) -> tuple[Scenario, int]:
    proto = DrivingProtocol([0.0, 1.0], [_SZ, _SZ + 0.7 * _SX], 32)
    rho = np.diag([0.8, 0.2]).astype(complex)
    return _embed(dim, _SZ, _SZ + 0.7 * _SX, proto, rho, "ch-ramp-diagonal"), _ch_steps(dim, 8)


def _probe_state_dependent_mixture(dim: int):
    # components share no eigenbasis with their mixture: non-convex statistics
    s1 = _embed(dim, _H01, _H01, np.eye(2, dtype=complex), np.diag([1.0, 0.0]), "sd-pure-z")
    s2 = _embed(dim, _H01, _H01, np.eye(2, dtype=complex), _PLUS, "sd-pure-x")
    return s1.with_rho(0.5 * s1.rho + 0.5 * s2.rho, "sd-mixture"), s1, s2, 0.5


def _probe_collective_mixture(dim: int):
    # quadratic rho (x) rho dependence: mixing defect 0.075 on this pair
    s1 = _embed(dim, _SZ, _SZ, _HADAMARD, _PLUS, "collective-coherent")
    s2 = s1.with_rho(np.pad(np.diag([0.8, 0.2]), (0, dim - 2)), "collective-diagonal")
    return s1.with_rho(0.5 * s1.rho + 0.5 * s2.rho, "collective-mixture"), s1, s2, 0.5


def _batch_dist(scheme: SchemeId, batch: ScenarioBatch, k_steps: int) -> WorkBatch:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateRhoWarning)
        return distributions(scheme, batch, k_steps=k_steps)


def _witness_payload(s: Scenario, value: float, detail: str) -> dict:
    return {"scenario": scenario_to_dict(s), "value": float(value), "detail": detail}


def _worst(cases) -> tuple[float, dict | None, str]:
    """Worst of ``(violation, scenario, detail)`` cases: (value, witness, detail).

    A later case replaces the worst only if it exceeds it by more than the
    fraction ``WORST_TIE_RTOL``, so cases tied up to last-bit noise keep the
    first as witness.  The payload is built once, for that case; its scenario
    may be given as a function of no arguments that makes it, called then.
    With no case above 0 the result is (0.0, None, "").
    """
    worst, arg = 0.0, None
    for violation, s, detail in cases:
        if violation > worst * (1.0 + WORST_TIE_RTOL):
            worst, arg = violation, (s, detail)
    if arg is None:
        return 0.0, None, ""
    s = arg[0]() if callable(arg[0]) else arg[0]
    return worst, _witness_payload(s, worst, arg[1]), arg[1]


def _parts(batch: ScenarioBatch, scheme: SchemeId, k_steps: int):
    """The batch in the parts the scheme's kernel runs in (``schemes._part_bounds``), so
    that a grader holds the distributions of one part at a time."""
    bounds = _part_bounds(len(batch), _member_entries(scheme, batch.dim, k_steps))
    return (batch.members(start, stop) for start, stop in bounds)


def _member_cases(values, batch: ScenarioBatch, detail: str, probe: Scenario | None = None):
    """``_worst`` cases of per-member values, each member's scenario made only if it wins;
    the one member of a ``probe``'s batch is that probe."""
    return ((v, probe or partial(batch.scenario, i), detail) for i, v in enumerate(values.tolist()))


# --- the three condition checks ----------------------------------------------

def _ensemble(condition: Condition, dim: int, n: int, seed: int, driven: bool):
    """What a check of ``condition`` grades, from a stream that depends on the
    condition, not the scheme: for C1 the batches of mixtures of two random states
    on sampled experiments and of their components, with the weights lam (see
    ``_sample_batch``), for C2 a batch of diagonal-state and for C3 one of
    coherent scenarios."""
    _require_count(n)
    stream = list(Condition).index(condition) + 1
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    return _sample_batch(dim, n, rng, coherent=condition is not Condition.C2_TPM_AGREEMENT,
                         driven=driven, mixtures=condition is Condition.C1_LINEAR_POVM)


def _ch_steps(dim: int, k_max: int) -> int | None:
    """The largest history grid K <= ``k_max`` whose d^(K+1) trajectories fit
    ``TRAJ_CAP``, or None when not even K = 2 fits."""
    k = k_max
    while k >= 2 and dim ** (k + 1) > TRAJ_CAP:
        k -= 1
    return k if k >= 2 else None


def _over_budget(condition: Condition, dim: int) -> ConditionVerdict:
    return ConditionVerdict(condition, Status.INCONCLUSIVE, None, notes=(
        f"no history grid fits the trajectory budget d^(K+1) <= {TRAJ_CAP} at dim {dim}"))


def _grade_c2(scheme: SchemeId, dim: int, samples: ScenarioBatch) -> ConditionVerdict:
    k_steps, grid = _ch_steps(dim, DEFAULT_CH_STEPS), ""
    probes: list[tuple[Scenario, int]] = []
    if scheme is SchemeId.OPERATOR_OF_WORK:
        probes.append((_probe_work_operator_c2(dim), DEFAULT_CH_STEPS))
    if scheme is SchemeId.CONSISTENT_HISTORIES:
        if k_steps is None:
            return _over_budget(Condition.C2_TPM_AGREEMENT, dim)
        probes.append(_probe_ch_c2(dim))
        grid = f"; history grid K = {k_steps} (K = {probes[-1][1]} on the probe)"
    groups = [(ScenarioBatch.of([s]), k, s) for s, k in probes] + [(samples, k_steps, None)]

    def cases():
        for batch, k, probe in groups:
            for part in _parts(batch, scheme, k):
                tv = _batch_dist(scheme, part, k).tv_distance(_batch_dist(SchemeId.TPM, part, k))
                yield from _member_cases(tv, part, "tv distance to TPM", probe)

    worst, witness, _ = _worst(cases())
    return _graded(Condition.C2_TPM_AGREEMENT, worst, witness,
                   notes=f"{len(probes) + len(samples)} diagonal-state scenarios, dim {dim}{grid}")


def check_c2(scheme: SchemeId | str, dim: int = 2, n_samples: int = 200,
             seed: int = 0) -> ConditionVerdict:
    """Total-variation distance to the TPM distribution on commuting states."""
    scheme = SchemeId(scheme)
    samples = _ensemble(Condition.C2_TPM_AGREEMENT, dim, n_samples, seed,
                        driven=scheme is SchemeId.CONSISTENT_HISTORIES)
    return _grade_c2(scheme, dim, samples)


def _grade_c3(scheme: SchemeId, dim: int, samples: ScenarioBatch) -> ConditionVerdict:
    """The first-law gap of each case; for consistent histories, a convergence
    criterion instead: the first-moment error must shrink by <= 0.6 per K doubling
    on K = 4, 8, 16 at every dimension, read in closed form (no budget applies).

    The ratio is taken on errors aggregated over the sample set (individual
    instances can cross zero between two grid sizes, which makes single-sample
    ratios meaningless there).
    """
    if scheme is not SchemeId.CONSISTENT_HISTORIES:
        probes = [hadamard_scenario()] if scheme is SchemeId.TPM and dim == 2 else []
        groups = [(ScenarioBatch.of([s]), s) for s in probes] + [(samples, None)]

        def cases():
            for batch, probe in groups:
                for part in _parts(batch, scheme, None):
                    gap = _batch_dist(scheme, part, DEFAULT_CH_STEPS).means()
                    yield from _member_cases(np.abs(gap - part.mean_energy_change()), part,
                                             "first-law gap", probe)

        worst, witness, _ = _worst(cases())
        return _graded(Condition.C3_FIRST_LAW, worst, witness,
                       notes=f"{len(probes) + len(samples)} coherent scenarios, dim {dim}")
    # consistent histories: one closed-form mean per K over each batch
    ks = [4, 8, 16]
    probe, _ = _probe_ch_c2(dim)
    agg = np.zeros(len(ks))
    for b in (ScenarioBatch.of([probe]), samples):
        target = b.mean_energy_change()
        agg += [np.abs(consistent_histories_means(b, k) - target).sum() for k in ks]
    ratios = [agg[j + 1] / agg[j] if agg[j] > 1e-12 else 0.0
              for j in range(len(ks) - 1)]
    worst = max((max(0.0, r - 0.6) for r in ratios), default=0.0)
    witness = (_witness_payload(probe, 0.0, f"aggregate error ratio across K={ks}")
               if worst > 0 else None)
    note = (f"limit criterion: K ladder {ks}, aggregate per-doubling error "
            f"ratios {[float(round(r, 3)) for r in ratios]} (must stay <= 0.6) "
            f"on {len(samples) + 1} driven scenarios")
    return _graded(Condition.C3_FIRST_LAW, worst, witness, notes=note)


def check_c3(scheme: SchemeId | str, dim: int = 2, n_samples: int = 200,
             seed: int = 0) -> ConditionVerdict:
    """First-law gap |mean(p) - (Tr(U rho U^dag H') - Tr(rho H))| on coherent states."""
    scheme = SchemeId(scheme)
    samples = _ensemble(Condition.C3_FIRST_LAW, dim, n_samples, seed,
                        driven=scheme is SchemeId.CONSISTENT_HISTORIES)
    return _grade_c3(scheme, dim, samples)


def _grade_c1(scheme: SchemeId, dim: int, mixtures) -> ConditionVerdict:
    """``mixtures`` holds the batches of n mixed states, of their first and of
    their second components, and the weights lam (n,), as ``_ensemble`` gives."""
    k_steps, notes = _ch_steps(dim, DEFAULT_CH_STEPS), f"linearity + positivity over dim {dim}"
    # negativity probes
    neg_probes = []
    if scheme is SchemeId.FCS:
        neg_probes.append(_probe_fcs_negativity(dim))
    if scheme is SchemeId.MARGENAU_HILL:
        neg_probes.append(_probe_mh_negativity(dim))
    if scheme is SchemeId.CONSISTENT_HISTORIES:
        if k_steps is None:
            return _over_budget(Condition.C1_LINEAR_POVM, dim)
        neg_probes.append(_probe_ch_negativity(dim))
        notes += f"; history grid K = {k_steps}"

    # convexity probes, then the sampled mixtures
    mix_probes = []
    if scheme in (SchemeId.STATE_DEPENDENT, SchemeId.SUB_ENSEMBLE):
        mix_probes.append(_probe_state_dependent_mixture(dim))
    if scheme is SchemeId.COLLECTIVE_TWO_COPY:
        mix_probes.append(_probe_collective_mixture(dim))

    def cases():
        for s in neg_probes:
            batch = ScenarioBatch.of([s])
            yield from _member_cases(
                np.maximum(0.0, -_batch_dist(scheme, batch, k_steps).min_weights()), batch,
                "negativity", s)
        probes = [(*(ScenarioBatch.of([s]) for s in p[:3]), np.array([p[3]]), p[:3])
                  for p in mix_probes]
        for *batches, lam, members in probes + [(*mixtures, (None,) * 3)]:
            for start, stop in _part_bounds(len(lam), _member_entries(scheme, dim, k_steps)):
                parts = [batch.members(start, stop) for batch in batches]
                d_mix, d1, d2 = (_batch_dist(scheme, part, k_steps) for part in parts)
                tv = d_mix.tv_distance(d1.blend(d2, lam[start:stop])).tolist()
                negativity = [np.maximum(0.0, -d.min_weights()).tolist() for d in (d_mix, d1, d2)]
                for i in range(stop - start):
                    who = [s or partial(part.scenario, i) for s, part in zip(members, parts)]
                    yield tv[i], who[0], "nonconvexity"
                    for s, values in zip(who, negativity):
                        yield values[i], s, "negativity"

    worst, witness, mode = _worst(cases())
    if mode:
        notes += f"; dominant failure mode: {mode}"
    return _graded(Condition.C1_LINEAR_POVM, worst, witness, notes=notes)


def check_c1_linearity(scheme: SchemeId | str, dim: int = 2, n_samples: int = 200,
                       seed: int = 0) -> ConditionVerdict:
    """Convexity under mixtures plus nonnegativity of the weights."""
    scheme = SchemeId(scheme)
    samples = _ensemble(Condition.C1_LINEAR_POVM, dim, n_samples, seed,
                        driven=scheme is SchemeId.CONSISTENT_HISTORIES)
    return _grade_c1(scheme, dim, samples)


# --- POVM tomography ----------------------------------------------------------

def informationally_complete_states(dim: int) -> np.ndarray:
    """d^2 pure-state projectors spanning the Hermitian operators on C^d, shape (d^2, d, d).

    The basis states come first, then for each pair k < l the superpositions
    (|k> + |l>) / sqrt 2 and (|k> + i|l>) / sqrt 2.
    """
    eye = np.eye(dim, dtype=complex)
    k, l = np.triu_indices(dim, 1)
    pairs = np.stack([eye[:, k] + eye[:, l], eye[:, k] + 1j * eye[:, l]], axis=-1) / math.sqrt(2.0)
    vecs = np.concatenate([eye.T, pairs.reshape(dim, -1).T])  # rows are the states
    return vecs[:, :, None] * vecs.conj()[:, None, :]


def _tomography_inverse(probs: np.ndarray) -> np.ndarray:
    """The Hermitian operators X (..., d, d) whose probabilities Tr(rho_r X) on the
    states of ``informationally_complete_states(d)`` are ``probs`` (..., d^2), in
    closed form: the basis state |k> reads X_kk = p_k, and the superpositions of a
    pair k < l read (p_k + p_l) / 2 + Re X_kl and (p_k + p_l) / 2 - Im X_kl."""
    dim = math.isqrt(probs.shape[-1])
    k, l = np.triu_indices(dim, 1)
    diag, plus, imag = probs[..., :dim], probs[..., dim::2], probs[..., dim + 1::2]
    mid = (diag[..., k] + diag[..., l]) / 2.0
    upper = (plus - mid) + 1j * (mid - imag)
    out = np.zeros(probs.shape[:-1] + (dim, dim), dtype=np.complex128)
    out[..., k, l], out[..., l, k] = upper, upper.conj()
    out[..., np.arange(dim), np.arange(dim)] = diag
    return out


def reconstruct_povm(scheme: SchemeId | str, h, h_final, u, seed: int = 0) -> Povm:
    """Solve for state-independent operators reproducing the scheme.

    Evaluates the scheme on an informationally complete set of d^2 states,
    inverts the linear system for one operator per merged work value in closed
    form (``_tomography_inverse``), and validates the reconstruction on fresh random
    states.  Raises :class:`NotLinear` when the validation residual exceeds 1e-6.
    """
    dim = np.shape(h)[0]
    base = Scenario(dim=dim, h_initial=h, h_final=h_final, evolution=u,
                    rho=np.eye(dim, dtype=complex) / dim)
    return _tomography(SchemeId(scheme), ScenarioBatch.of([base]), seed)


def _tomography(scheme: SchemeId, base: ScenarioBatch, seed: int) -> Povm:
    """``reconstruct_povm`` on the one experiment of ``base``: the d^2 states and the
    ``N_VALIDATION`` fresh ones are one batch on it."""
    dim = base.dim
    states = informationally_complete_states(dim)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    # N_VALIDATION random_density draws, as one stack
    fresh = _wishart_states(_complex_normal(rng.standard_normal((N_VALIDATION, 2, dim, dim))))
    both = np.concatenate([states, fresh])  # states the code built: not validated again
    dists = _batch_dist(scheme, base._on(both, np.zeros(len(both), dtype=np.intp)),
                        DEFAULT_CH_STEPS)
    solve, check = dists.members(0, len(states)), dists.members(len(states), len(dists))
    support, _ = merge_atoms(solve.works, solve.weights)
    y, _ = solve.masses(support, W_MERGE_TOL)
    povm = Povm(support, _tomography_inverse(y.T))

    actual, stray = check.masses(support, W_MERGE_TOL + 1e-12)
    residual = max(0.0, float(stray.max()),
                   float(np.abs(povm.probabilities(fresh) - actual).max(initial=0.0)))
    if residual > RECONSTRUCTION_TOL:
        raise NotLinear(residual)
    return povm


# --- the no-go demonstration ---------------------------------------------------

@dataclass(frozen=True)
class NogoReport:
    dim: int
    seed: int
    forced_vs_analytic_gap: float
    tomography_vs_analytic_gap: float
    diagonal_c2_residual: float
    coherent_c3_gap: float
    tpm_verdicts: dict
    notes: str


def _povm_gap(a: Povm, b: Povm) -> float:
    """Max operator distance between two POVMs matched on their work labels."""
    return max_abs(merge_atoms(np.concatenate([a.labels, b.labels]),
                               np.concatenate([a.ops, -b.ops]))[1])


def demonstrate_nogo(dim: int = 2, seed: int = 0) -> NogoReport:
    """Numerical demonstration that C1, C2 and C3 cannot all hold.

    (i) Restricting a C1+C2-satisfying protocol to its diagonal-state
    behaviour forces the TPM POVM: the operators rebuilt from basis-state
    statistics match the analytic TPM POVM, as does full tomography.
    (ii) That POVM violates the first law on a coherent state: the fixed
    Hadamard instance has gap exactly 1.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    spec, spec_final = _random_spectrum(dim, rng), _random_spectrum(dim, rng)
    spectra = {"H": spec, "H_final": spec_final}  # the one experiment holds them as drawn
    experiment = ScenarioBatch.build(
        spec.reconstruct()[None], spec_final.reconstruct()[None], random_unitary(dim, rng)[None],
        np.eye(dim, dtype=complex)[None] / dim, [0],
        {name: (x.eigenvalues[None], x.eigenvectors[None]) for name, x in spectra.items()})
    basis = spec.eigenvectors
    analytic = tpm_povm(experiment.scenario(0))
    support = analytic.labels

    def tpm_masses(rhos: np.ndarray) -> np.ndarray:
        return _batch_dist(SchemeId.TPM, experiment.with_rho(rhos), DEFAULT_CH_STEPS).masses(
            support, W_MERGE_TOL)[0]

    # diagonal-state behaviour fixes the diagonal of each element; C1+C2 force
    # the off-diagonal part to vanish, leaving exactly these operators
    coeff = tpm_masses(basis.T[:, :, None] * basis.T.conj()[:, None, :])
    forced = Povm(support, (basis * coeff.T[:, None, :]) @ dag(basis))
    forced_gap = _povm_gap(forced, analytic)

    tomo_gap = _povm_gap(_tomography(SchemeId.TPM, experiment, seed), analytic)

    # N_NOGO_SAMPLES states diagonal in H's eigenbasis, populations spaced as sampled
    raw = np.arange(1.0, dim + 1.0) + 0.5 * rng.random((N_NOGO_SAMPLES, dim))
    rho_d = (basis * (raw / raw.sum(axis=1, keepdims=True))[:, None, :]) @ dag(basis)
    c2_residual = float(np.abs(forced.probabilities(rho_d) - tpm_masses(rho_d)).max())

    s_had = hadamard_scenario()
    povm_had = tpm_povm(s_had)
    c3_gap = abs(float(povm_had.labels @ povm_had.probabilities(s_had.rho))
                 - mean_energy_change(s_had))

    return NogoReport(
        dim=dim,
        seed=seed,
        forced_vs_analytic_gap=forced_gap,
        tomography_vs_analytic_gap=tomo_gap,
        diagonal_c2_residual=c2_residual,
        coherent_c3_gap=c3_gap,
        tpm_verdicts={k: check(SchemeId.TPM, dim=dim, n_samples=60, seed=seed).status.value
                      for k, check in (("c1", check_c1_linearity), ("c2", check_c2),
                                       ("c3", check_c3))},
        notes="C1+C2 force the TPM POVM; the Hadamard instance then breaks C3 with gap 1",
    )


# --- adapted two-copy conditions -----------------------------------------------

@dataclass(frozen=True)
class CollectiveAdaptedReport:
    dim: int
    seed: int
    n_samples: int
    n_strict_improvements: int
    n_ties: int
    n_contract_violations: int
    worst_positivity: float
    worst_completeness: float
    adapted_c2_max_tv: float
    hadamard_gap_pair: tuple[float, float]


def check_collective_adapted(dim: int = 2, n_samples: int = 200,
                             seed: int = 0) -> CollectiveAdaptedReport:
    """Adapted two-copy conditions: POVM validity, exact diagonal agreement,
    and the first-law gap contraction |gap| -> (1 - lambda_max) |gap|."""
    _require_count(n_samples)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 6]))
    strict = ties = violations = 0
    worst_pos = 0.0
    worst_defect = 0.0

    def gaps(members: ScenarioBatch | Scenario):
        """The TPM and two-copy first-law gaps and the lambda of each member."""
        nonlocal worst_pos, worst_defect
        probe = isinstance(members, Scenario)
        batch = ScenarioBatch.of([members]) if probe else members
        factors = _collective_factors(batch, "auto")
        # samples read positivity and completeness off the factor stacks; the two fixed
        # probes build and check every element, an independent check of both formulas
        checked = collective_factors(members).povm() if probe else factors
        worst_pos = min(worst_pos, float(np.min(checked.min_eigenvalue())))
        worst_defect = max(worst_defect, float(np.max(checked.completeness_defect())))
        target = batch.mean_energy_change()
        return zip(np.abs(distributions(SchemeId.TPM, batch).means() - target).tolist(),
                   np.abs(distributions(SchemeId.COLLECTIVE_TWO_COPY, batch).means()
                          - target).tolist(), batch.per_member(factors.lam).tolist())

    # canonical tie: U and H_final diagonal in the H basis, so every T_j is
    # diagonal there and the collective scheme reduces to TPM exactly
    phase = np.diag(np.exp(1j * np.array([0.3, -1.1]))).astype(complex)
    s_tie = Scenario(dim=2, h_initial=_SZ, h_final=np.diag([0.3, 1.7]).astype(complex),
                     evolution=phase, rho=random_density(2, rng))
    [(g_t, g_c, _)] = gaps(s_tie)
    if abs(g_t - g_c) <= 1e-12:
        ties += 1
    else:
        violations += 1

    # the coherent samples, then the diagonal ones
    coherent = _sample_batch(dim, n_samples, rng, coherent=True, driven=False)
    diagonal = _sample_batch(dim, n_samples, rng, coherent=False, driven=False)
    for g_tpm, g_col, lam in gaps(coherent):
        if g_col > g_tpm + 1e-12:
            violations += 1
        elif abs(g_tpm - g_col) <= 1e-12:
            ties += 1
            if lam > 1e-9 and g_tpm > 1e-9:
                violations += 1  # contract demands strict contraction here
        else:
            strict += 1

    c2_tv = distributions(SchemeId.COLLECTIVE_TWO_COPY, diagonal).tv_distance(
        distributions(SchemeId.TPM, diagonal))
    [(g_t, g_c, _)] = gaps(hadamard_scenario())
    return CollectiveAdaptedReport(
        dim=dim,
        seed=seed,
        n_samples=n_samples,
        n_strict_improvements=strict,
        n_ties=ties,
        n_contract_violations=violations,
        worst_positivity=worst_pos,
        worst_completeness=worst_defect,
        adapted_c2_max_tv=max(0.0, float(c2_tv.max())),
        hadamard_gap_pair=(g_t, g_c),
    )


# --- contextuality witness search ----------------------------------------------

@dataclass(frozen=True)
class ContextualityWitness:
    scenario: Scenario
    indices: tuple[int, int]
    value: float

    def to_dict(self) -> dict:
        return {
            "scenario": scenario_to_dict(self.scenario),
            "indices": list(self.indices),
            "value": self.value,
            "interpretation": (
                "contextuality witness conditional on a sufficiently broad "
                "pointer in the post-selected weak-measurement protocol"
            ),
        }


def _witness_candidates(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States psi = (cos theta/2, e^(i phi) sin theta/2), (n, 2), and unitaries
    U = Rz(a) Ry(b) Rz(c), (n, 2, 2), of candidate rows (theta, phi, a, b, c), (n, 5)."""
    theta, phi, a, b, c = params.T
    psi = np.stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=-1)
    za, zc = np.exp(-0.5j * a), np.exp(-0.5j * c)
    cb, sb = np.cos(b / 2.0), np.sin(b / 2.0)
    # each entry multiplied in the order of the matrix product, so bit for bit equal to it
    u = np.stack([za * cb * zc, -(za * sb) * zc.conj(),
                  za.conj() * sb * zc, za.conj() * cb * zc.conj()], axis=-1)
    return psi, u.reshape(-1, 2, 2)


def _witness_weights(params: np.ndarray) -> np.ndarray:
    """Margenau-Hill weights w[n, k, m] = Re[(U psi)_m conj(psi_k) conj(U_mk)] of each
    candidate, (n, 2, 2), for H = H' = diag(0, 1), whose eigenprojectors are |0>, |1>."""
    psi, u = _witness_candidates(params)
    u_psi = np.einsum("nmj,nj->nm", u, psi)
    return (u_psi[:, None, :] * psi.conj()[:, :, None] * u.conj().swapaxes(1, 2)).real


def contextuality_witness(search_budget: int = 10_000,
                          seed: int = 0) -> ContextualityWitness | None:
    """Search pure qubit states and unitaries for negative joint weights.

    80% of the budget is uniform random sampling, scored as one stack, and 20%
    coordinate-wise local refinement of the best candidate with a fixed per-seed
    schedule, drawn ahead and scored ``_WITNESS_BLOCK`` trials from the best at a
    time: the first winner of a block is accepted and the next block starts after
    it.  A row's weights do not depend on the other rows, so the result is bitwise
    that of scoring the trials one by one.  A candidate replaces the best only if it
    is lower by more than ``WITNESS_TIE_TOL``, so last-bit noise cannot change the
    reported scenario.  Only the best becomes a Scenario; returns its witness if
    below -1e-3, else None.
    """
    _require_count(search_budget, "search_budget")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    n_random = max(1, int(0.8 * search_budget))
    spans = np.array([math.pi, 2 * math.pi, 2 * math.pi, math.pi, 2 * math.pi])

    # one (n_random, 5) draw is the same stream as n_random draws of 5
    params = rng.random((n_random, 5)) * spans
    best = np.inf
    for i, value in enumerate(_witness_weights(params).min(axis=(1, 2)).tolist()):
        if value < best - WITNESS_TIE_TOL:
            best, best_params = value, params[i]

    # trial i moves coordinate i % 5 of the best so far by a normal draw times a step that
    # starts at 0.4 and shrinks by 0.93 after each round of five; all draws and offsets
    # are made ahead, as the trial-by-trial loop would make them
    n_refine = search_budget - n_random
    rounds, coords = np.divmod(np.arange(n_refine), 5)
    steps = np.multiply.accumulate(np.r_[0.4, np.full(n_refine // 5, 0.93)])[rounds]
    offsets = rng.normal(size=n_refine) * steps * spans[coords] / math.pi
    i = 0
    while i < n_refine:  # score a block of trials from the best; restart after a winner
        rows = np.arange(i, min(i + _WITNESS_BLOCK, n_refine))
        trials = np.repeat(best_params[None], len(rows), axis=0)
        trials[np.arange(len(rows)), coords[rows]] += offsets[rows]
        values = _witness_weights(trials).min(axis=(1, 2))
        wins = np.flatnonzero(values < best - WITNESS_TIE_TOL)
        if wins.size:
            best, best_params = float(values[wins[0]]), trials[wins[0]]
            rows = rows[:wins[0] + 1]
        i = rows[-1] + 1

    psi, u = _witness_candidates(best_params[None])
    s = Scenario(dim=2, h_initial=_H01, h_final=_H01, evolution=u[0],
                 rho=projector(psi[0]), label="witness-candidate")
    weights = margenau_hill(s)[0].weights
    k, m = np.unravel_index(int(np.argmin(weights)), weights.shape)
    value = float(weights[k, m])
    return ContextualityWitness(s, (int(k), int(m)), value) if value < -VIOLATION_FLOOR else None


# --- the survey table -----------------------------------------------------------

@dataclass(frozen=True)
class Table1Config:
    dim: int = 2
    samples: int = 500
    seed: int = 0


@dataclass(frozen=True)
class Table1Row:
    scheme: str
    c1: ConditionVerdict
    c2: ConditionVerdict
    c3: ConditionVerdict
    notes: str = ""

    def pattern(self) -> tuple[str, str, str]:
        return (self.c1.status.value, self.c2.status.value, self.c3.status.value)


@dataclass(frozen=True)
class Table1Report:
    config: Table1Config
    rows: tuple[Table1Row, ...]

    def pattern(self) -> dict:
        return {row.scheme: row.pattern() for row in self.rows}

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["config"]["ch_steps"] = _ch_steps(self.config.dim, DEFAULT_CH_STEPS)
        return doc


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


def _meter_atom_error(readout: PointerReadout, s: Scenario, cfg: PointerConfig) -> float:
    """Worst mismatch between windowed meter mass and the TPM atom weights of ``s``."""
    dist = tpm(s)[0]
    half = 3.0 * math.sqrt(2.0) * cfg.spread / cfg.coupling
    return max(abs(readout.window_mass(w, half) - p) for w, p in dist.atoms)


def _gaussian_row(cfg: Table1Config) -> Table1Row:
    s_coh = hadamard_scenario()
    s_diag = s_coh.with_rho(np.diag([0.7, 0.3]).astype(complex), "hadamard-diagonal")
    strong = PointerConfig.for_scenario(s_coh, *POINTER_STRONG)
    weak = PointerConfig.for_scenario(s_coh, *POINTER_WEAK, points_per_sigma=8.0)
    hadamard = ScenarioBatch.of([s_coh])

    def densities(states, meter: PointerConfig):  # of the Hadamard experiment on each state
        return meter_densities(hadamard.with_rho(np.array(states)), meter)

    # C1: density is linear in rho and manifestly nonnegative; its 10 mixtures with
    # their components, and C2's two strong-coupling states, are one batch
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 8]))
    draws = [(random_density(2, rng), random_density(2, rng), float(rng.uniform(0.2, 0.8)))
             for _ in range(10)]
    mixes = [rho for rho1, rho2, lam in draws
             for rho in (lam * rho1 + (1 - lam) * rho2, rho1, rho2)]
    dens = densities(mixes + [s_diag.rho, s_coh.rho], strong)
    lin = max(float(np.max(np.abs(d_mix - (lam * d1 + (1 - lam) * d2))))
              for (_, _, lam), (d_mix, d1, d2) in zip(draws, dens[:30].reshape(10, 3, -1)))
    c1 = _graded(Condition.C1_LINEAR_POVM, lin, None,
                 notes="density linear in rho; nonnegative by construction")

    # C2: strong regime recovers TPM atom masses; weak regime does not
    diag_strong, coh_strong = (PointerReadout(strong.grid(), d, strong.coupling)
                               for d in dens[30:])
    (d_weak,) = densities([s_coh.rho], weak)
    coh_weak = PointerReadout(weak.grid(), d_weak, weak.coupling)
    c2_strong = max(_meter_atom_error(diag_strong, s_diag, strong),
                    _meter_atom_error(coh_strong, s_coh, strong))
    c2_weak = _meter_atom_error(coh_weak, s_coh, weak)
    c2 = ConditionVerdict(
        Condition.C2_TPM_AGREEMENT, Status.LIMIT_DEPENDENT, c2_weak,
        notes=f"strong-coupling atom error {c2_strong:.2e}; weak-coupling {c2_weak:.2e}")

    # C3: weak regime tracks the true mean; strong regime inherits the TPM gap
    target = mean_energy_change(s_coh)
    c3_weak = abs(coh_weak.mean_work() - target)
    c3_strong = abs(coh_strong.mean_work() - target)
    c3 = ConditionVerdict(
        Condition.C3_FIRST_LAW, Status.LIMIT_DEPENDENT, c3_strong,
        notes=f"weak-coupling gap {c3_weak:.2e}; strong-coupling gap {c3_strong:.2e}")
    return Table1Row("gaussian_pointer", c1, c2, c3,
                     notes="work meter interpolates between TPM (strong) and "
                           "first-law-respecting (weak) readings")


def _postselection_row(cfg: Table1Config) -> Table1Row:
    # the joint weights read the pointer through kappa(coupling, spread) alone: a strong
    # (10, 1) and a weak (1, 20) pointer, and (1, 1) for the C2 samples
    strong, weak = _kappa(10.0, 1.0), _kappa(1.0, 20.0)
    weak_values = partial(_joint_distributions, scheme=SchemeId.MARGENAU_HILL, is_quasi=True)

    s_wit = ScenarioBatch.of([_probe_mh_negativity(2)])
    neg_strong, neg_weak = (-float(_joint_weights(s_wit, k)[0].min()) for k in (strong, weak))
    c1 = ConditionVerdict(
        Condition.C1_LINEAR_POVM, Status.LIMIT_DEPENDENT, max(neg_weak, 0.0),
        notes=f"strong-coupling negativity {neg_strong:.2e}; weak-coupling "
              f"negativity {neg_weak:.3f} (joint weights turn anomalous)")

    # 60 commuting-state samples, as one batch
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 9]))
    samples = _sample_batch(2, 60, rng, coherent=False, driven=False)
    tv = weak_values(samples, _kappa(1.0, 1.0)).tv_distance(
        distributions(SchemeId.TPM, samples))
    c2 = _graded(Condition.C2_TPM_AGREEMENT, max(0.0, float(tv.max())), None,
                 notes="agreement holds at every coupling for commuting states")

    s_coh = hadamard_scenario()
    target = mean_energy_change(s_coh)
    gap_strong, gap_weak = (abs(float(weak_values(ScenarioBatch.of([s_coh]), k).means()[0])
                                - target) for k in (strong, weak))
    c3 = ConditionVerdict(
        Condition.C3_FIRST_LAW, Status.LIMIT_DEPENDENT, gap_strong,
        notes=f"strong-coupling gap {gap_strong:.3f}; weak-coupling gap {gap_weak:.2e}")
    return Table1Row("post_selection", c1, c2, c3,
                     notes="pointer rows interpolate from TPM joint statistics "
                           "(strong) to the Margenau-Hill quasi-probability (weak)")


def _audited_row(scheme: SchemeId, notes: str, cfg: Table1Config, ensemble) -> Table1Row:
    """An audited row, graded on ``ensemble(condition, n, driven)``."""
    driven = scheme is SchemeId.CONSISTENT_HISTORIES
    # at most 60 driven samples for C1 and C2, which enumerate histories; C3 reads
    # each sample's one compile in closed form, so it grades them all
    n = min(cfg.samples, 60) if driven else cfg.samples
    verdicts = []
    for condition, grade, n_c in zip(Condition, (_grade_c1, _grade_c2, _grade_c3),
                                     (min(n, 150), n, cfg.samples)):
        verdicts.append(grade(scheme, cfg.dim, ensemble(condition, n=n_c, driven=driven)))
    return Table1Row(scheme.value, *verdicts, notes=notes)


def _out_of_scope_row(name: str, cfg: Table1Config) -> Table1Row:
    notes = "not implemented (out of scope)"
    c1, c2, c3 = (ConditionVerdict(c, Status.OUT_OF_SCOPE, None, notes=notes)
                  for c in Condition)
    return Table1Row(name, c1, c2, c3, notes=notes)


# the survey table's rows, in order: an audited scheme with its notes, or a row builder
_TABLE1_ROWS = (
    (SchemeId.TPM, ""),
    (SchemeId.OPERATOR_OF_WORK, "work values are not energy differences"),
    _gaussian_row,
    (SchemeId.FCS, "linear quasi-probability"),
    _postselection_row,
    (SchemeId.MARGENAU_HILL, "weak-value quasi-probability; negativity witnesses contextuality"),
    (SchemeId.CONSISTENT_HISTORIES,
     "power-operator histories; moments converge to the work operator"),
    (SchemeId.STATE_DEPENDENT,
     "initial energy labelled by the expectation value in the rho eigenbasis "
     "(a convention; the statistics have no canonical energy reading)"),
    partial(_out_of_scope_row, "hamilton_jacobi"),
    partial(_out_of_scope_row, "beyond_work_distributions"),
)


def build_table1(cfg: Table1Config | None = None) -> Table1Report:
    """Audit every implemented scheme and collect the verdict table."""
    cfg = cfg or Table1Config()
    # each condition's instances, sampled once for every audited row that grades them
    ensemble = cache(partial(_ensemble, dim=cfg.dim, seed=cfg.seed))
    return Table1Report(config=cfg, rows=tuple(
        _audited_row(*row, cfg, ensemble) if isinstance(row, tuple) else row(cfg)
        for row in _TABLE1_ROWS))
