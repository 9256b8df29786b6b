"""Non-equilibrium free energy, extractable work, and coherence identities.

Units: hbar = k = 1, so beta = 1/T and entropies are in nats.

Each quantity has one formula, written alike for one state (d, d) and for a
stack of states (n, d, d), which takes the spectra of the states it reads.  A
state or a stack of them is validated once, by ``linalg._require``, and solved
by ``linalg._eig``: a public function's one state through the shared eigen
cache, and each stack of states of ``identity_suite`` in one stacked Jacobi
call, which the cache never holds.  The dephased state D(rho) is neither
validated nor solved: it is formed from a validated rho, and its spectrum is
read from the blocks of rho in H's eigenspaces.  A ``ThermalContext`` that
``_context`` makes may hold a stack of betas (n,) and Hamiltonians (n, d, d),
or one Hamiltonian (1, d, d) that all n members share, and its methods then
give one value per member.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateHamiltonianWarning, DomainError
from .linalg import (
    DEGENERACY_GAP,
    SpectralDecomposition,
    _complex_normal,
    _dephase,
    _dephased_eigenvalues,
    _eig,
    _entropies,
    _marginals,
    _orthonormal_columns,
    _relative_entropies,
    _require,
    _wishart_states,
    dag,
    dephase,
    eig_hermitian,
    require_density,
    require_hermitian,
    require_square,
    require_unitary,
    tensor,
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

    def _boltzmann(self) -> tuple[np.ndarray, np.ndarray]:
        """The least energy and the factors exp(-beta (E - E_min)) of the spectrum."""
        e = self.decomposition.eigenvalues
        return e[..., 0], np.exp(-np.asarray(self.beta)[..., None] * (e - e[..., :1]))

    def log_partition(self) -> float:
        """ln Z, computed with an energy shift for numerical range."""
        shift, boltz = self._boltzmann()
        return -self.beta * shift + np.log(boltz.sum(axis=-1))

    def gibbs_state(self) -> np.ndarray:
        _, boltz = self._boltzmann()
        return self.decomposition.apply(lambda lam: boltz) / boltz.sum(axis=-1)[..., None, None]


def _require_beta(beta) -> None:
    beta = np.asarray(beta)
    if not np.all((BETA_MIN < beta) & (beta < BETA_MAX)):  # NaN fails too
        raise ValueError(f"beta must lie in ({BETA_MIN}, {BETA_MAX})")


def _context(beta, hamiltonian: np.ndarray) -> ThermalContext:
    """A context over a Hamiltonian its caller has validated, or over a stack of
    betas (n,) and Hamiltonians (n, d, d) or (1, d, d): only beta is checked."""
    _require_beta(beta)
    ctx = object.__new__(ThermalContext)
    object.__setattr__(ctx, "beta", beta)
    object.__setattr__(ctx, "hamiltonian", hamiltonian)
    return ctx


def _states(rho, name: str) -> tuple[np.ndarray, SpectralDecomposition]:
    """A density operator (d, d), or each of a stack (n, d, d), validated once, and
    its spectrum (``_eig``)."""
    rho = _require(rho, name, "density")
    return rho, _eig(rho, validated=True)


def _energies(h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr(H rho) of matrices, or of each member of stacks."""
    return np.trace(h @ rho, axis1=-2, axis2=-1).real


def _free_energies(rho: np.ndarray, vals: np.ndarray, ctx: ThermalContext) -> np.ndarray:
    """F(rho, H) = Tr(H rho) - S(rho) / beta of states with eigenvalues ``vals``."""
    return _energies(ctx.hamiltonian, rho) - _entropies(vals) / ctx.beta


def _extractable_works(rho: np.ndarray, vals: np.ndarray, ctx: ThermalContext) -> np.ndarray:
    """F(rho) - F(gibbs) = F(rho) + ln Z / beta of states with eigenvalues ``vals``."""
    return _free_energies(rho, vals, ctx) + ctx.log_partition() / ctx.beta


def _asymmetries(vals: np.ndarray, vals_dephased: np.ndarray) -> np.ndarray:
    """S(D(rho)) - S(rho) from the eigenvalues of rho and of D(rho)."""
    return _entropies(vals_dephased) - _entropies(vals)


def _mutual_informations(dec_a, dec_b, dec_ab) -> np.ndarray:
    """S(rho_A) + S(rho_B) - S(rho_AB) from the spectra of the three states."""
    return (_entropies(dec_a.eigenvalues) + _entropies(dec_b.eigenvalues)
            - _entropies(dec_ab.eigenvalues))


def free_energy(rho: np.ndarray, ctx: ThermalContext) -> float:
    """F(rho, H) = Tr(H rho) - S(rho) / beta."""
    rho, dec = _states(rho, "state")
    return float(_free_energies(rho, dec.eigenvalues, ctx))


def max_extractable_work(rho: np.ndarray, ctx: ThermalContext) -> float:
    """Best average work from rho with unitaries and a bath: F(rho) - F(gibbs).

    This equals S(rho || gibbs) / beta; since ln gibbs = -beta H - ln Z,
    F(gibbs) = -ln Z / beta, and the Gibbs state itself is never formed.
    """
    rho, dec = _states(rho, "state")
    return float(_extractable_works(rho, dec.eigenvalues, ctx))


def dephased(rho: np.ndarray, ctx: ThermalContext) -> np.ndarray:
    return dephase(rho, ctx.decomposition)


def asymmetry(rho: np.ndarray, ctx: ThermalContext) -> float:
    """Relative entropy of coherence in the energy basis: S(D(rho)) - S(rho).

    rho is validated once, as a Hermitian matrix at path "rho"; D(rho) is not formed,
    its eigenvalues are read from the blocks of H's eigenspaces (``_dephased_eigenvalues``).
    """
    rho = require_hermitian(rho, "rho")
    return float(_asymmetries(_eig(rho, validated=True).eigenvalues,
                              _dephased_eigenvalues(rho, ctx.decomposition)))


def free_energy_decomposition(rho: np.ndarray, ctx: ThermalContext) -> tuple[float, float]:
    """Split Delta F(rho) into (Delta F(D(rho)), A(rho) / beta).

    The two parts sum to Delta F(rho) = F(rho) - F(gibbs).
    """
    diag_part, coherent_part = _decomposition_terms(*_states(rho, "state"), ctx)
    return float(diag_part), float(coherent_part)


def _decomposition_terms(rho: np.ndarray, dec: SpectralDecomposition, ctx: ThermalContext):
    """``free_energy_decomposition`` of a validated state with spectrum ``dec``, or of
    each member of stacks of them.  D(rho) is formed from the validated state, so it
    is not validated again, and its eigenvalues are read from the blocks of H's
    eigenspaces (``_dephased_eigenvalues``), so it is not solved."""
    basis = ctx.decomposition
    vals_d = _dephased_eigenvalues(rho, basis)
    return (_extractable_works(_dephase(rho, basis), vals_d, ctx),
            _asymmetries(dec.eigenvalues, vals_d) / ctx.beta)


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
    rho, dec = _states(rho, "state")
    diag_part, via_coherence = map(float, _decomposition_terms(rho, dec, ctx))
    direct = float(_extractable_works(rho, dec.eigenvalues, ctx)) - diag_part
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
    rho_joint = require_square(rho_joint)
    return float(_mutual_informations(*map(eig_hermitian,
                                           (*_marginals(rho_joint, dims), rho_joint))))


def _joint_hamiltonian(ctx_s: ThermalContext, ctx_b: ThermalContext) -> np.ndarray:
    """H_S (x) I + I (x) H_B."""
    h_s, h_b = ctx_s.hamiltonian, ctx_b.hamiltonian
    return tensor(h_s, np.eye(h_b.shape[-1])) + tensor(np.eye(h_s.shape[-1]), h_b)


def bipartite_work_identity(bs: BipartiteScenario) -> BipartiteWorkReport:
    """Check W = DeltaF(rho_S) - [athermality_S + correlations + athermality_B].

    W is the mean energy drop of the joint system under the joint unitary with
    non-interacting H = H_S + H_B and a thermal ancilla.
    """
    terms = _bipartite_terms(bs.rho_system, _eig(bs.rho_system, validated=True), bs.u_joint,
                             bs.system_context(), bs.bath_context())
    return BipartiteWorkReport(**{key: float(value) for key, value in terms.items()})


def _bipartite_terms(rho_s: np.ndarray, dec_s: SpectralDecomposition, u: np.ndarray,
                     ctx_s: ThermalContext, ctx_b: ThermalContext) -> dict:
    """The fields of ``BipartiteWorkReport`` for a validated system state with spectrum
    ``dec_s``, a validated joint unitary and the system and bath contexts, which
    share one beta; or of each member of stacks of them."""
    dims = (ctx_s.hamiltonian.shape[-1], ctx_b.hamiltonian.shape[-1])
    beta = ctx_s.beta
    tau_s, dec_tau_s = _states(ctx_s.gibbs_state(), "tau_S")
    tau_b, dec_tau_b = _states(ctx_b.gibbs_state(), "tau_B")
    h_total = _joint_hamiltonian(ctx_s, ctx_b)
    rho0 = tensor(rho_s, tau_b)
    rho1 = u @ rho0 @ dag(u)
    work = _energies(h_total, rho0) - _energies(h_total, rho1)

    rho1_s, rho1_b = _marginals(rho1, dims)
    rho1_s, dec1_s = _states(rho1_s, "rho'_S")
    _, dec1_b = _states(rho1_b, "rho'_B")
    _, dec1 = _states(rho1, "rho'_SB")
    ath_s = _relative_entropies(dec1_s, dec_tau_s) / beta
    ath_b = _relative_entropies(dec1_b, dec_tau_b) / beta
    corr = _mutual_informations(dec1_s, dec1_b, dec1) / beta
    f_rho = _free_energies(rho_s, dec_s.eigenvalues, ctx_s)
    bound = f_rho - _free_energies(tau_s, dec_tau_s.eigenvalues, ctx_s)
    f_after = _free_energies(rho1_s, dec1_s.eigenvalues, ctx_s)
    return {
        "work": work,
        "bound_delta_f": bound,
        "athermality_system": ath_s,
        "correlations": corr,
        "athermality_bath": ath_b,
        "residual": np.abs(work - (bound - (ath_s + corr + ath_b))),
        "residual_intermediate": np.abs(work - (f_rho - f_after - (ath_b + corr))),
    }


def identity_suite(n_samples: int = 200, seed: int = 1) -> dict:
    """Property run over every implemented identity; returns the worst residuals.

    The samples are drawn one by one, in the order of the random stream, and
    evaluated as stacks: the single-system part as one stack per dimension (2 or
    3), the bipartite and local parts as one stack each.  Each stack of states is
    validated in one ``_require`` call and solved in one ``_jacobi`` call.
    Each entry of ``IDENTITY_BOUNDS`` is folded over the samples and graded
    against its bound into ``pass``.  Used by the command-line ``thermo`` check
    and by the acceptance tests.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 30]))
    draws = []
    for _ in range(n_samples):
        dim = int(rng.integers(2, 4))
        # H's eigenbasis, ladder and beta, and rho; then rho_S, beta and U_SB of the
        # bipartite identity, and X_SB and beta of the local decomposition
        draws.append((dim, rng.standard_normal((2, dim, dim)),
                      np.arange(dim) + rng.random(dim),
                      rng.uniform(0.2, 3.0), rng.standard_normal((2, dim, dim)),
                      rng.standard_normal((2, 2, 2)), rng.uniform(0.3, 2.0),
                      rng.standard_normal((2, 4, 4)), rng.standard_normal((2, 4, 4)),
                      rng.uniform(0.3, 2.0)))
    dims, *columns = zip(*draws)
    values = {key: [] for key in IDENTITY_BOUNDS}  # per key, one array per stack

    for d in (2, 3):
        members = [i for i, dim in enumerate(dims) if dim == d]
        if not members:
            continue
        basis, ladder, beta, g_rho = (np.array([col[i] for i in members]) for col in columns[:4])
        vecs = _orthonormal_columns(_complex_normal(basis))
        h = _require(SpectralDecomposition(ladder, vecs).reconstruct(), "H", "hermitian")
        ctx = _context(beta, h)
        rho, dec = _states(_wishart_states(_complex_normal(g_rho)), "rho")
        gibbs, dec_gibbs = _states(ctx.gibbs_state(), "gibbs")
        wmax = _extractable_works(rho, dec.eigenvalues, ctx)
        diag_part, coh_part = _decomposition_terms(rho, dec, ctx)
        direct = wmax - diag_part  # the work lost by dephasing first
        total = (_free_energies(rho, dec.eigenvalues, ctx)
                 - _free_energies(gibbs, dec_gibbs.eigenvalues, ctx))
        coherent = np.abs(rho @ h - h @ rho).max(axis=(1, 2)) > COHERENT_COMMUTATOR
        for key, value in (
                ("max_wmax_negativity", -wmax),
                ("wmax_zero_at_gibbs",
                 np.abs(_extractable_works(gibbs, dec_gibbs.eigenvalues, ctx))),
                ("max_decomposition_residual", np.abs(diag_part + coh_part - total)),
                ("max_loss_path_disagreement", np.abs(direct - coh_part)),
                ("min_loss_when_coherent", direct[coherent]),
                ("max_dephasing_wmax_excess", -direct)):
            values[key].append(value)

    g_s, beta_bs, g_u, g_x, beta_local = (np.array(col) for col in columns[4:])
    sz = np.diag([1.0, -1.0]).astype(complex)[None]  # one H_S and H_B for every sample
    rho_s, dec_s = _states(_wishart_states(_complex_normal(g_s)), "rho_S")
    u = _require(_orthonormal_columns(_complex_normal(g_u)), "U_SB", "unitary")
    rep = _bipartite_terms(rho_s, dec_s, u, _context(beta_bs, sz), _context(beta_bs, 0.6 * sz))
    x_sb, dec_x = _states(_wishart_states(_complex_normal(g_x)), "X_SB")
    local = _local_terms(x_sb, dec_x, (2, 2), _context(beta_local, sz),
                         _context(beta_local, 0.6 * sz))
    values["max_bipartite_residual"].append(rep["residual"])
    values["max_bipartite_intermediate_residual"].append(rep["residual_intermediate"])
    values["max_bound_violation"].append(rep["work"] - rep["bound_delta_f"])
    values["max_local_decomposition_residual"].append(local["residual"])

    def fold(key: str, stacks: list):
        value = np.concatenate(stacks)
        if key == "min_loss_when_coherent":
            return float(value.min()) if value.size else None
        return max(0.0, float(value.max()))

    worst = {key: fold(key, stacks) for key, stacks in values.items()}

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
    x_sb, dec = _states(rho_joint, "X_SB")
    terms = _local_terms(x_sb, dec, dims, ThermalContext(beta, h_system),
                         ThermalContext(beta, h_bath))
    return {key: float(value) for key, value in terms.items()}


def _local_terms(x_sb: np.ndarray, dec: SpectralDecomposition, dims: tuple[int, int],
                 ctx_s: ThermalContext, ctx_b: ThermalContext) -> dict:
    """``local_free_energy_decomposition`` of a validated joint state with spectrum
    ``dec`` on contexts that share one beta, or of each member of stacks of them."""
    beta = ctx_s.beta
    joint = _free_energies(x_sb, dec.eigenvalues,
                           _context(beta, _joint_hamiltonian(ctx_s, ctx_b)))
    x_s, x_b = _marginals(x_sb, dims)
    x_s, dec_s = _states(x_s, "X_S")
    x_b, dec_b = _states(x_b, "X_B")
    f_s = _free_energies(x_s, dec_s.eigenvalues, ctx_s)
    f_b = _free_energies(x_b, dec_b.eigenvalues, ctx_b)
    info = _mutual_informations(dec_s, dec_b, dec) / beta
    return {
        "joint_free_energy": joint,
        "local_system": f_s,
        "local_bath": f_b,
        "mutual_information_term": info,
        "residual": np.abs(joint - (f_s + f_b + info)),
    }
