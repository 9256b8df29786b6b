"""Non-equilibrium free energy, extractable work, and coherence identities.

Units: hbar = k = 1, so beta = 1/T and entropies are in nats.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateHamiltonianWarning, DomainError
from .linalg import (
    DEGENERACY_GAP,
    _eig,
    _entropy,
    dag,
    dephase,
    max_abs,
    partial_trace,
    random_density,
    random_unitary,
    relative_entropy,
    require_density,
    require_hermitian,
    require_unitary,
    tensor,
    von_neumann_entropy,
)

BETA_MIN = 1e-6
BETA_MAX = 1e6
WORK_LOSS_CONSISTENCY_TOL = 1e-10  # allowed gap between the two work-loss paths
COHERENT_COMMUTATOR = 1e-3  # max |[rho, H]| entry above which a sample counts as coherent
# The entries of the identity-suite report, in order, with the bound that grades
# each: a maximum passes at or below its bound, the minimum coherent loss above
# it (or when no sample is coherent), and an entry bounded by None is not graded.
IDENTITY_BOUNDS = {
    "max_wmax_negativity": 1e-10,
    "wmax_zero_at_gibbs": 1e-9,
    "max_decomposition_residual": 1e-10,
    "max_loss_path_disagreement": 1e-10,
    "min_loss_when_coherent": 1e-6,
    "max_dephasing_wmax_excess": 1e-10,
    "max_bipartite_residual": 1e-9,
    "max_bipartite_intermediate_residual": None,
    "max_bound_violation": 1e-9,
    "max_local_decomposition_residual": 1e-10,
}


@dataclass(frozen=True, eq=False)
class ThermalContext:
    """Inverse temperature and the Hamiltonian defining the Gibbs reference; H is solved once."""

    beta: float
    hamiltonian: np.ndarray

    def __post_init__(self):
        _require_beta(self.beta)
        object.__setattr__(self, "hamiltonian", require_hermitian(self.hamiltonian, "H"))

    @functools.cached_property
    def decomposition(self):  # construction, or the caller of _context, validated H
        return _eig(self.hamiltonian, validated=True)

    def log_partition(self) -> float:
        """ln Z, computed with an energy shift for numerical range."""
        e = self.decomposition.eigenvalues
        shift = float(e.min())
        return float(-self.beta * shift + np.log(np.sum(np.exp(-self.beta * (e - shift)))))

    def gibbs_state(self) -> np.ndarray:
        dec = self.decomposition
        e = dec.eigenvalues
        shift = float(e.min())
        boltz = np.exp(-self.beta * (e - shift))
        return dec.apply(lambda lam: np.exp(-self.beta * (lam - shift))) / boltz.sum()


def _require_beta(beta: float) -> None:
    if not (BETA_MIN < beta < BETA_MAX) or not math.isfinite(beta):
        raise ValueError(f"beta must lie in ({BETA_MIN}, {BETA_MAX})")


def _context(beta: float, hamiltonian: np.ndarray) -> ThermalContext:
    """A context over a Hamiltonian its caller has validated: only beta is checked."""
    _require_beta(beta)
    ctx = object.__new__(ThermalContext)
    object.__setattr__(ctx, "beta", beta)
    object.__setattr__(ctx, "hamiltonian", hamiltonian)
    return ctx


def free_energy(rho: np.ndarray, ctx: ThermalContext) -> float:
    """F(rho, H) = Tr(H rho) - S(rho) / beta."""
    return _free_energy(require_density(rho), ctx)


def _free_energy(rho: np.ndarray, ctx: ThermalContext) -> float:
    """``free_energy`` of a state its caller has validated."""
    energy = float(np.trace(ctx.hamiltonian @ rho).real)
    return energy - _entropy(_eig(rho, validated=True)) / ctx.beta


def max_extractable_work(rho: np.ndarray, ctx: ThermalContext) -> float:
    """Best average work from rho with unitaries and a bath: F(rho) - F(gibbs).

    This equals S(rho || gibbs) / beta; since ln gibbs = -beta H - ln Z,
    F(gibbs) = -ln Z / beta, and the Gibbs state itself is never formed.
    """
    return _max_extractable_work(require_density(rho), ctx)


def _max_extractable_work(rho: np.ndarray, ctx: ThermalContext) -> float:
    """``max_extractable_work`` of a state its caller has validated."""
    return _free_energy(rho, ctx) + ctx.log_partition() / ctx.beta


def dephased(rho: np.ndarray, ctx: ThermalContext) -> np.ndarray:
    return dephase(rho, ctx.decomposition)


def asymmetry(rho: np.ndarray, ctx: ThermalContext) -> float:
    """Relative entropy of coherence in the energy basis: S(D(rho)) - S(rho)."""
    return von_neumann_entropy(dephased(rho, ctx)) - von_neumann_entropy(rho)


def free_energy_decomposition(rho: np.ndarray, ctx: ThermalContext) -> tuple[float, float]:
    """Split Delta F(rho) into (Delta F(D(rho)), A(rho) / beta).

    The two parts sum to Delta F(rho) = F(rho) - F(gibbs).
    """
    diag_part = max_extractable_work(dephased(rho, ctx), ctx)
    coherent_part = asymmetry(rho, ctx) / ctx.beta
    return diag_part, coherent_part


def measurement_work_loss(rho: np.ndarray, ctx: ThermalContext) -> float:
    """Average work lost by measuring energy first: W_max(rho) - W_max(D(rho)).

    Computed independently as the difference of the two extractable works and
    as the coherence term A(rho)/beta; the two paths must agree.
    """
    e = ctx.decomposition.eigenvalues
    if np.any(np.diff(e) < DEGENERACY_GAP):
        warnings.warn(
            "Hamiltonian spectrum is (near-)degenerate; dephasing uses eigenspace "
            "projectors and the measurement protocol loses its non-degenerate reading",
            DegenerateHamiltonianWarning,
            stacklevel=2,
        )
    direct = max_extractable_work(rho, ctx) - max_extractable_work(dephased(rho, ctx), ctx)
    via_coherence = asymmetry(rho, ctx) / ctx.beta
    if abs(direct - via_coherence) > WORK_LOSS_CONSISTENCY_TOL:
        raise ArithmeticError(
            f"work-loss paths disagree: {direct!r} vs {via_coherence!r}"
        )
    return direct


@dataclass(frozen=True, eq=False)
class BipartiteScenario:
    """System + auxiliary thermal ancilla undergoing a joint unitary."""

    dim_system: int
    dim_bath: int
    h_system: np.ndarray
    h_bath: np.ndarray
    rho_system: np.ndarray
    beta: float
    u_joint: np.ndarray
    _system: ThermalContext = field(init=False, repr=False)
    _bath: ThermalContext = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "h_system", require_hermitian(self.h_system, "H_S"))
        object.__setattr__(self, "h_bath", require_hermitian(self.h_bath, "H_B"))
        object.__setattr__(self, "rho_system", require_density(self.rho_system, "rho_S"))
        object.__setattr__(self, "u_joint", require_unitary(self.u_joint, "U_SB"))
        if self.h_system.shape[0] != self.dim_system:
            raise ValueError("H_S dimension mismatch")
        if self.h_bath.shape[0] != self.dim_bath:
            raise ValueError("H_B dimension mismatch")
        if self.u_joint.shape[0] != self.dim_system * self.dim_bath:
            raise ValueError("U_SB must act on the product space")
        # the contexts share the Hamiltonians validated above and enforce the beta range
        object.__setattr__(self, "_system", _context(self.beta, self.h_system))
        object.__setattr__(self, "_bath", _context(self.beta, self.h_bath))

    def system_context(self) -> ThermalContext:
        return self._system

    def bath_context(self) -> ThermalContext:
        return self._bath


@dataclass(frozen=True)
class BipartiteWorkReport:
    """Both sides of the bipartite extracted-work identity and its pieces."""

    work: float
    bound_delta_f: float              # F(rho_S) - F(tau_S)
    athermality_system: float         # S(rho'_S || tau_S) / beta
    correlations: float               # I(rho'_SB) / beta
    athermality_bath: float           # S(rho'_B || tau_B) / beta
    residual: float                   # work identity defect
    residual_intermediate: float      # two-term intermediate identity defect

    @property
    def within_max_bound(self) -> bool:
        return self.work <= self.bound_delta_f + 1e-9


def mutual_information(rho_joint: np.ndarray, dims: tuple[int, int]) -> float:
    rho_s = partial_trace(rho_joint, dims, "A")
    rho_b = partial_trace(rho_joint, dims, "B")
    return (von_neumann_entropy(rho_s) + von_neumann_entropy(rho_b)
            - von_neumann_entropy(rho_joint))


def bipartite_work_identity(bs: BipartiteScenario) -> BipartiteWorkReport:
    """Check W = DeltaF(rho_S) - [athermality_S + correlations + athermality_B].

    W is the mean energy drop of the joint system under the joint unitary with
    non-interacting H = H_S + H_B and a thermal ancilla.
    """
    dims = (bs.dim_system, bs.dim_bath)
    ctx_s = bs.system_context()
    ctx_b = bs.bath_context()
    tau_s = ctx_s.gibbs_state()
    tau_b = ctx_b.gibbs_state()
    h_total = tensor(bs.h_system, np.eye(bs.dim_bath)) + tensor(np.eye(bs.dim_system), bs.h_bath)

    rho0 = tensor(bs.rho_system, tau_b)
    rho1 = bs.u_joint @ rho0 @ dag(bs.u_joint)
    work = float(np.trace(h_total @ rho0).real - np.trace(h_total @ rho1).real)

    rho1_s = partial_trace(rho1, dims, "A")
    rho1_b = partial_trace(rho1, dims, "B")
    beta = bs.beta
    ath_s = relative_entropy(rho1_s, tau_s) / beta
    ath_b = relative_entropy(rho1_b, tau_b) / beta
    corr = mutual_information(rho1, dims) / beta
    f_rho = _free_energy(bs.rho_system, ctx_s)  # the scenario validated rho_S
    bound = f_rho - free_energy(tau_s, ctx_s)

    residual = abs(work - (bound - (ath_s + corr + ath_b)))
    intermediate = abs(work - (f_rho - free_energy(rho1_s, ctx_s) - (ath_b + corr)))
    return BipartiteWorkReport(
        work=work,
        bound_delta_f=bound,
        athermality_system=ath_s,
        correlations=corr,
        athermality_bath=ath_b,
        residual=residual,
        residual_intermediate=intermediate,
    )


def identity_suite(n_samples: int = 200, seed: int = 1) -> dict:
    """Property run over every implemented identity; returns the worst residuals.

    Each entry of ``IDENTITY_BOUNDS`` is folded over the samples and graded
    against its bound into ``pass``.  Used by the command-line ``thermo`` check
    and by the acceptance tests.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 30]))
    sz = np.diag([1.0, -1.0]).astype(complex)
    worst = dict.fromkeys(IDENTITY_BOUNDS, 0.0)
    coherent_losses = []
    for _ in range(n_samples):
        dim = int(rng.integers(2, 4))
        h = random_unitary(dim, rng)
        vals = np.arange(dim) + rng.random(dim)
        h = (h * vals) @ dag(h)
        ctx = ThermalContext(float(rng.uniform(0.2, 3.0)), h)
        rho = require_density(random_density(dim, rng))  # each state is validated once
        bs = BipartiteScenario(2, 2, sz, 0.6 * sz, random_density(2, rng),
                               float(rng.uniform(0.3, 2.0)), random_unitary(4, rng))
        x_sb = random_density(4, rng)
        beta_local = float(rng.uniform(0.3, 2.0))
        # the Hamiltonians bs validated, at the local check's own beta
        local = _local_decomposition(x_sb, (2, 2), _context(beta_local, bs.h_system),
                                     _context(beta_local, bs.h_bath))
        gibbs = require_density(ctx.gibbs_state())
        wmax = _max_extractable_work(rho, ctx)
        diag_part, coh_part = free_energy_decomposition(rho, ctx)
        direct = wmax - diag_part  # the work lost by dephasing first
        total = _free_energy(rho, ctx) - _free_energy(gibbs, ctx)
        rep = bipartite_work_identity(bs)
        sample = {
            "max_wmax_negativity": -wmax,
            "wmax_zero_at_gibbs": abs(_max_extractable_work(gibbs, ctx)),
            "max_decomposition_residual": abs(diag_part + coh_part - total),
            "max_loss_path_disagreement": abs(direct - coh_part),
            "max_dephasing_wmax_excess": -direct,
            "max_bipartite_residual": rep.residual,
            "max_bipartite_intermediate_residual": rep.residual_intermediate,
            "max_bound_violation": rep.work - rep.bound_delta_f,
            "max_local_decomposition_residual": local["residual"],
        }
        for key, value in sample.items():
            worst[key] = max(worst[key], value)
        if max_abs(rho @ h - h @ rho) > COHERENT_COMMUTATOR:
            coherent_losses.append(direct)
    worst["min_loss_when_coherent"] = min(coherent_losses, default=None)

    def graded(key: str, bound: float) -> bool:
        if key == "min_loss_when_coherent":
            return worst[key] is None or worst[key] > bound
        return worst[key] <= bound

    return {"n_samples": n_samples, **worst,
            "pass": all(graded(k, b) for k, b in IDENTITY_BOUNDS.items() if b is not None)}


def local_free_energy_decomposition(rho_joint: np.ndarray, dims: tuple[int, int],
                                    h_system: np.ndarray, h_bath: np.ndarray,
                                    beta: float) -> dict:
    """Check F(X_SB, H) = F(X_S, H_S) + F(X_B, H_B) + I(X_SB) / beta."""
    return _local_decomposition(rho_joint, dims, ThermalContext(beta, h_system),
                                ThermalContext(beta, h_bath))


def _local_decomposition(rho_joint: np.ndarray, dims: tuple[int, int],
                         ctx_s: ThermalContext, ctx_b: ThermalContext) -> dict:
    rho_joint = require_density(rho_joint, "X_SB")
    beta = ctx_s.beta
    h_total = tensor(ctx_s.hamiltonian, np.eye(dims[1])) + tensor(np.eye(dims[0]), ctx_b.hamiltonian)
    entropy = _entropy(_eig(rho_joint, validated=True))
    joint = float(np.trace(h_total @ rho_joint).real) - entropy / beta
    f_s = free_energy(partial_trace(rho_joint, dims, "A"), ctx_s)
    f_b = free_energy(partial_trace(rho_joint, dims, "B"), ctx_b)
    info = mutual_information(rho_joint, dims) / beta
    return {
        "joint_free_energy": joint,
        "local_system": f_s,
        "local_bath": f_b,
        "mutual_information_term": info,
        "residual": abs(joint - (f_s + f_b + info)),
    }
