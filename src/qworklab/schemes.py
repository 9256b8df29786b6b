"""Work-distribution schemes: each maps a Scenario to a WorkDistribution, and a
ScenarioBatch to a WorkBatch.

All schemes share the atom representation (work value, real weight); quasi
schemes may carry negative weights.  Work values closer than ``W_MERGE_TOL``
are merged by weight addition, which also absorbs spectral degeneracies.

Every scheme has one kernel, which evaluates every member of a ``ScenarioBatch``
in one set of array operations and merges all members' atoms in one segmented
merge into a ``WorkBatch``; ``distribution`` and the per-scenario functions run the
same kernel on the Scenario's own batch of one.  A batch derives what its kernels read
off the experiments alone once (eigenspaces, U^dag H' U, V'^dag U and T = V'^dag U V),
and each part of it reads its own members' rows.  Every kernel, and ``tpm_povm``, reads
an eigenspace as a block of eigenvector columns, never as a projector: TPM, Margenau-Hill
and the post-selected pointer are one joint table in kappa (``_joint_weights``),
consistent histories chains of overlaps (``_ch_distributions``), and the two-copy factors
and state-dependent weights sums over the columns of G = V^dag U^dag V' and V'^dag U V_rho.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import (
    DecompositionMismatch,
    DegenerateHamiltonianWarning,
    DegenerateRhoWarning,
    DomainError,
    ImaginaryResidue,
    NotPositive,
    TrajectoryBudgetExceeded,
)
from .linalg import (
    DEGENERACY_GAP,
    EIG_FLOOR,
    _blocks,
    _eigenspaces,
    _jacobi,
    _matmul,
    dag,
    eig_hermitian,
    max_abs,
    random_unitary,
)
from .scenario import DrivingProtocol, Scenario, ScenarioBatch, _part_bounds, _propagators

W_MERGE_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-9
IMAG_RESIDUE_TOL = 1e-10
TRAJ_CAP = 2 ** 20
POVM_EIG_TOL = 1e-10
DECOMPOSITION_TOL = 1e-9
# per atom merged, the largest weight taken as 0: above the rounding noise of a d <= 64
# kernel entry (d eps) and the eigensolver residue one carries (<= 200 eps at d = 4-16)
_ATOM_PRUNE = 256 * np.finfo(float).eps


class SchemeId(str, Enum):
    TPM = "tpm"
    OPERATOR_OF_WORK = "operator_of_work"
    FCS = "fcs"
    MARGENAU_HILL = "margenau_hill"
    CONSISTENT_HISTORIES = "consistent_histories"
    STATE_DEPENDENT = "state_dependent"
    SUB_ENSEMBLE = "sub_ensemble"
    COLLECTIVE_TWO_COPY = "collective_two_copy"


def merge_atoms(works, weights, members=None):
    """Sort atoms by work value and merge values closer than ``W_MERGE_TOL``.

    Merging is chained on adjacent gaps; the merged work value is the plain
    mean of the member values (weights may be negative, so a weighted mean
    would be ill-conditioned).  ``weights`` may be real, complex, or a stack
    of operators with the atoms along axis 0; each group's weights are summed.

    The segmented form takes ``members``, an integer label per atom: the sort
    is stable within each member, members ascending, a chain breaks where the
    member changes, and the merged atoms' labels are returned third.  Each
    member's atoms come out as merging them alone gives them.
    """
    works, weights, seg, _ = _merge(works, weights, members)
    return (works, weights) if members is None else (works, weights, seg)


def _merge(works, weights, members):
    """``merge_atoms`` as (works, weights, labels or None, atoms merged into each)."""
    works = np.asarray(works, dtype=float)
    weights = np.asarray(weights)
    weights = weights.astype(np.promote_types(weights.dtype, float), copy=False)
    seg = None if members is None else np.asarray(members)
    if works.size == 0:
        return works, weights, seg, np.zeros(0, dtype=np.intp)
    order = np.argsort(works, kind="stable") if seg is None else np.lexsort((works, seg))
    works = works[order]
    breaks = np.diff(works) > W_MERGE_TOL
    if seg is not None:
        seg = seg[order]
        breaks |= np.diff(seg) != 0
    starts = np.flatnonzero(np.concatenate(([True], breaks)))
    sizes = np.diff(np.append(starts, works.size))
    return (np.add.reduceat(works, starts) / sizes, np.add.reduceat(weights[order], starts, axis=0),
            None if seg is None else seg[starts], sizes)


@dataclass(frozen=True, eq=False)
class WorkDistribution:
    """Finite list of (work value, weight) atoms; quasi weights may be negative."""

    works: np.ndarray
    weights: np.ndarray
    scheme: SchemeId
    is_quasi: bool

    @classmethod
    def from_atoms(cls, works, weights, scheme: SchemeId, is_quasi: bool) -> "WorkDistribution":
        """Merge, prune and check the atoms of one distribution (``WorkBatch.from_atoms``
        with one member)."""
        return WorkBatch.from_atoms(works, weights, None, 1, scheme, is_quasi)[0]

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.works.tolist(), self.weights.tolist()))

    def __len__(self) -> int:
        return int(self.works.size)

    def moment(self, k: int = 1) -> float:
        return float(np.sum((self.works ** k) * self.weights))

    def mean(self) -> float:
        return self.moment(1)

    def min_weight(self) -> float:
        return float(self.weights.min()) if len(self) else 0.0

    def weight_at(self, w: float, tol: float = W_MERGE_TOL) -> float:
        hit = np.abs(self.works - w) <= tol
        return float(self.weights[hit].sum())

    def tv_distance(self, other: "WorkDistribution") -> float:
        """Total-variation distance after merging the two supports."""
        works = np.concatenate([self.works, other.works])
        signed = np.concatenate([self.weights, -other.weights])
        _, net = merge_atoms(works, signed)
        return 0.5 * float(np.sum(np.abs(net)))


@dataclass(frozen=True, eq=False)
class WorkBatch:
    """The work distributions of the n members of a batch, stored back to back:
    member i owns atoms ``offsets[i]:offsets[i + 1]`` of ``works`` and ``weights``."""

    works: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    scheme: SchemeId
    is_quasi: bool

    @classmethod
    def from_atoms(cls, works, weights, members, n: int, scheme: SchemeId,
                   is_quasi: bool) -> "WorkBatch":
        """Merge each member's atoms (``members`` labels them, None for n = 1), drop
        each merged weight of magnitude at most ``_ATOM_PRUNE`` times the number of
        atoms merged into it, and check each member as one distribution: finite
        atoms, weights summing to 1 and, unless ``is_quasi``, none negative.  The
        first failing member raises, with that check's message."""
        return cls._from_merged(*_merge(works, weights, members), n, scheme, is_quasi)

    @classmethod
    def _from_merged(cls, w, p, seg, sizes, n: int, scheme: SchemeId, is_quasi: bool):
        """``from_atoms`` on ``_merge``'s output; a non-finite atom stays so in the merge."""
        if not (np.isfinite(w).all() and np.isfinite(p).all()):
            raise ValueError(f"non-finite work value or weight in {scheme.value} atoms")
        keep = np.abs(p) > _ATOM_PRUNE * sizes
        w, p = w[keep], p[keep]
        ids = np.zeros(len(p), dtype=np.intp) if seg is None else seg[keep]
        offsets = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=n))))
        off_sum = np.abs(np.bincount(ids, weights=p, minlength=n) - 1.0) > WEIGHT_SUM_TOL
        negative = np.zeros(n, dtype=bool)
        if not is_quasi:
            negative[ids[p < -1e-12]] = True
        if (off_sum | negative).any():
            i = int(np.argmax(off_sum | negative))
            mine = p[offsets[i]:offsets[i + 1]]
            if off_sum[i]:
                raise ValueError(f"weights sum to {float(np.sum(mine))!r}, expected 1")
            raise ValueError(f"negative weight {mine.min():.3e} in a probability scheme")
        w.setflags(write=False)
        p.setflags(write=False)
        return cls(w, p, offsets, scheme, is_quasi)

    @classmethod
    def concat(cls, parts: list["WorkBatch"]) -> "WorkBatch":
        """Merged and checked batches, back to back."""
        w = np.concatenate([x.works for x in parts])
        p = np.concatenate([x.weights for x in parts])
        w.setflags(write=False)
        p.setflags(write=False)
        sizes = np.concatenate([np.diff(x.offsets) for x in parts])
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        return cls(w, p, offsets, parts[0].scheme, parts[0].is_quasi)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> WorkDistribution:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return WorkDistribution(self.works[lo:hi], self.weights[lo:hi], self.scheme,
                                self.is_quasi)

    def members(self, start: int, stop: int) -> "WorkBatch":
        """Members start to stop - 1, sharing this batch's atoms."""
        lo, hi = self.offsets[start], self.offsets[stop]
        return WorkBatch(self.works[lo:hi], self.weights[lo:hi],
                         self.offsets[start:stop + 1] - lo, self.scheme, self.is_quasi)

    def ids(self) -> np.ndarray:
        """The member of each atom."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def means(self) -> np.ndarray:
        """The first moment of each member, (n,)."""
        return np.bincount(self.ids(), weights=self.works * self.weights, minlength=len(self))

    def min_weights(self) -> np.ndarray:
        """The least weight of each member, (n,); every member has an atom."""
        return np.minimum.reduceat(self.weights, self.offsets[:-1])

    def _signed_sum(self, other: "WorkBatch", a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Member by member, these atoms with weights times ``a`` and the other's
        times ``b`` (per member), merged: works, weights and member labels."""
        ids, other_ids = self.ids(), other.ids()
        return merge_atoms(np.concatenate([self.works, other.works]),
                           np.concatenate([a[ids] * self.weights, b[other_ids] * other.weights]),
                           np.concatenate([ids, other_ids]))

    def tv_distance(self, other: "WorkBatch") -> np.ndarray:
        """``WorkDistribution.tv_distance`` of each member pair, (n,)."""
        one = np.ones(len(self))
        _, net, seg = self._signed_sum(other, one, -one)
        return 0.5 * np.bincount(seg, weights=np.abs(net), minlength=len(self))

    def blend(self, other: "WorkBatch", lam: np.ndarray) -> "WorkBatch":
        """lam * this + (1 - lam) * other, member by member, merged but unchecked."""
        w, p, seg = self._signed_sum(other, lam, 1.0 - lam)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(seg, minlength=len(self)))))
        return WorkBatch(w, p, offsets, self.scheme, True)

    def masses(self, support: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Each member's weight within ``tol`` of each value of the ascending
        ``support``, (n, k), and the absolute weight of its atoms near none of
        them, (n,).  An atom w is tested only against the support values its
        window [w - tol, w + tol] reaches, and one more on each side for rounding."""
        lo = np.searchsorted(support, self.works - tol) - 1
        reach = np.searchsorted(support, self.works + tol, side="right") - lo
        near = lo[:, None] + np.arange(int(reach.max(initial=0)) + 1)
        inside = (near >= 0) & (near < len(support))
        near = np.clip(near, 0, len(support) - 1)
        hit = inside & (np.abs(self.works[:, None] - support[near]) <= tol)
        ids = np.broadcast_to(self.ids()[:, None], hit.shape)
        weights = np.broadcast_to(self.weights[:, None], hit.shape)
        mass = np.zeros((len(self), len(support)))
        np.add.at(mass, (ids[hit], near[hit]), weights[hit])
        stray = np.bincount(ids[:, 0], weights=np.abs(self.weights) * ~hit.any(axis=1),
                            minlength=len(self))
        return mass, stray


@dataclass(frozen=True, eq=False)
class JointWorkTable:
    """Joint (initial index, final index) weights with matching work values."""

    initial_energies: np.ndarray
    final_energies: np.ndarray
    weights: np.ndarray      # shape (n_initial, n_final)
    work_values: np.ndarray  # shape (n_initial, n_final)

    def to_distribution(self, scheme: SchemeId, is_quasi: bool) -> WorkDistribution:
        return WorkDistribution.from_atoms(
            self.work_values.ravel(), self.weights.ravel(), scheme, is_quasi
        )

    def initial_marginal(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def final_marginal(self) -> np.ndarray:
        return self.weights.sum(axis=0)


@dataclass(frozen=True, eq=False)
class PureDecomposition:
    """Convex decomposition of a density operator, or of each of a stack, into pure states."""

    weights: np.ndarray  # shape (..., n_members)
    states: np.ndarray  # shape (..., n_members, dim), rows are unit vectors

    def reconstruct(self) -> np.ndarray:
        return (self.states.swapaxes(-1, -2) * self.weights[..., None, :]) @ np.conj(self.states)

    def check_against(self, rho: np.ndarray) -> None:
        if np.any(self.weights < -1e-12) or np.any(np.abs(self.weights.sum(-1) - 1.0) > 1e-12):
            raise DecompositionMismatch("decomposition weights are not a probability vector")
        gap = max_abs(self.reconstruct() - rho)
        if gap > DECOMPOSITION_TOL:
            raise DecompositionMismatch(
                f"decomposition reconstructs rho only to {gap:.3e} "
                f"(tolerance {DECOMPOSITION_TOL})"
            )


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operators ``ops``, shape (k, d, d), summing to the identity;
    ``labels``, shape (k,), holds the work value of each."""

    labels: np.ndarray
    ops: np.ndarray

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Re Tr(rho M_k) of every element, shape (k,), or (n, k) for states (n, d, d)."""
        return np.einsum("...ij,kji->...k", rho, self.ops).real

    def min_eigenvalue(self) -> float:
        """The least eigenvalue over all elements, from one stacked solve."""
        return float(eig_hermitian(self.ops).eigenvalues[:, 0].min())

    def completeness_defect(self) -> float:
        return max_abs(self.ops.sum(axis=0) - np.eye(self.ops.shape[1]))

    def check(self, eig_tol: float = 1e-8, sum_tol: float = 1e-8) -> None:
        lo = self.min_eigenvalue()
        if lo < -eig_tol:
            raise ValueError(f"POVM element min eigenvalue {lo:.3e} < -{eig_tol}")
        defect = self.completeness_defect()
        if defect > sum_tol:
            raise ValueError(f"POVM completeness defect {defect:.3e} > {sum_tol}")


def _final_frame(b: ScenarioBatch) -> np.ndarray:
    """V'^dag U of each experiment, (m, d, d), V' the eigenvectors of H_final."""
    return b.derived("final_frame", lambda: _matmul(dag(b.spectrum("H_final")[1]), b.unitary()))


def _evolved_final(b: ScenarioBatch) -> np.ndarray:
    """U^dag H_final U of each experiment, (m, d, d)."""
    def make():
        u = b.unitary()
        return dag(u) @ b.h_final @ u
    return b.derived("evolved_final", make)


def _frames(b: ScenarioBatch) -> tuple[np.ndarray, np.ndarray]:
    """T = V'^dag U V and R = V^dag rho V of each member, (n, d, d) each: the evolution
    and the state in the eigenbases V of H and V' of H_final."""
    v_i = b.spectrum("H")[1]
    t = b.per_member(b.derived("frame", lambda: _matmul(_final_frame(b), v_i)))
    v_i = b.per_member(v_i)
    return t, _matmul(_matmul(dag(v_i), b.rho), v_i)


def _cell_sums(weights, cells, k: int) -> np.ndarray:
    """Each member's weights (n, ...) summed over its cells ``cells`` (n, ...), numbered
    0 to k - 1 in every member: (n, k)."""
    n = len(weights)
    flat = (cells + k * np.arange(n).reshape((-1,) + (1,) * (cells.ndim - 1))).ravel()
    return np.bincount(flat, weights.ravel(), minlength=n * k).reshape(n, k)


def _joint_weights(b: ScenarioBatch, kappa: float):
    """Joint weights Re Tr(Q_b U X_a U^dag), X_a = P_a rho P_a + kappa/2 (P_a rho Q_a +
    Q_a rho P_a) and Q_a = I - P_a: TPM at kappa = 0, Margenau-Hill at 1 and the
    post-selected pointer between.  The weight of (a, b) sums Re[(T R_k) * conj(T)]
    over the rows of block b of H_final and the columns of block a of H (``_frames``),
    R_k being R with its entries between blocks of H times kappa: O(d^3) per member.
    Returns each atom's weight, work E'_b - E_a and member, a-major in a member."""
    (e_i, id_i), (e_f, id_f) = ((b.per_member(x) for x in b.eigenspaces(name))
                                for name in ("H", "H_final"))
    t, r = _frames(b)
    r = np.where(id_i[:, :, None] == id_i[:, None, :], r, kappa * r)
    k_i, k_f = e_i.shape[1], e_f.shape[1]
    cells = id_i[:, None, :] * k_f + id_f[:, :, None]
    weights = _cell_sums((_matmul(t, r) * t.conj()).real, cells, k_i * k_f).reshape(-1, k_i, k_f)
    works = e_f[:, None, :] - e_i[:, :, None]
    real = ~np.isnan(works)  # not a slot past a member's eigenspace count
    return weights[real], works[real], np.nonzero(real)[0]


def _joint_distributions(b: ScenarioBatch, kappa: float, scheme: SchemeId,
                         is_quasi: bool) -> WorkBatch:
    """The joint-table scheme of ``kappa``: atom (a, b) at E'_b - E_a."""
    weights, works, members = _joint_weights(b, kappa)
    return WorkBatch.from_atoms(works, weights, members, len(b), scheme, is_quasi)


def _joint_table(s: Scenario, kappa: float) -> JointWorkTable:
    """``_joint_weights`` of one scenario, as its batch of one."""
    weights, works, _ = _joint_weights(ScenarioBatch.of([s]), kappa)
    e_i, e_f = s.eigenspaces("H")[0], s.eigenspaces("H_final")[0]
    shape = (len(e_i), len(e_f))
    return JointWorkTable(initial_energies=e_i, final_energies=e_f,
                          weights=weights.reshape(shape), work_values=works.reshape(shape))


def tpm(s: Scenario) -> tuple[WorkDistribution, JointWorkTable]:
    """Two-projective-measurement scheme.

    Joint weights Tr(Q_j U P_i rho P_i U^dag) over eigenspace projectors of the
    initial and final Hamiltonians; work values are the energy differences.
    """
    table = _joint_table(s, 0.0)
    return table.to_distribution(SchemeId.TPM, is_quasi=False), table


def _work_operators(b: ScenarioBatch) -> tuple[np.ndarray, ...]:
    """W = U^dag H_final U - H of each experiment, made exactly Hermitian (m, d, d),
    with its eigenvectors, eigenspace labels and column cluster indices, from one
    stacked solve."""
    def solve():  # W recurs in no other experiment, so the eigen cache never sees it
        w_op = _evolved_final(b) - b.h_initial
        w_op = (w_op + dag(w_op)) / 2.0
        vals, vecs = _jacobi(w_op)
        return (w_op, vecs, *_eigenspaces(vals))
    return b.derived("work_operator", solve)


def _work_operator_distributions(b: ScenarioBatch) -> WorkBatch:
    """One atom per eigenspace of W, weighing diag(V_W^dag rho V_W) over its block."""
    vecs, labels, ids = (b.per_member(x) for x in _work_operators(b)[1:])
    pops = (vecs.conj() * _matmul(b.rho, vecs)).sum(axis=-2).real
    weights = _cell_sums(pops, ids, labels.shape[1])
    real = ~np.isnan(labels)
    return WorkBatch.from_atoms(labels[real], weights[real], np.nonzero(real)[0], len(b),
                                SchemeId.OPERATOR_OF_WORK, is_quasi=False)


def work_operator(s: Scenario) -> tuple[np.ndarray, WorkDistribution]:
    """Spectral statistics of W = U^dag H_final U - H."""
    b = ScenarioBatch.of([s])
    return _work_operators(b)[0][0], _work_operator_distributions(b)[0]


def _transition_kernels(b: ScenarioBatch):
    """Kernel q[m, n, n'] = t[m, n] conj(t[m, n']) r[n, n'] of each member, (n, d, d, d),
    and its initial and final energies (n, d).

    t and r are T and R of ``_frames``; the FCS quasi-probability and the Gaussian
    work meter both weight by q.
    """
    t, r = _frames(b)
    return (np.einsum("amn,amo,ano->amno", t, np.conj(t), r),
            b.per_member(b.spectrum("H")[0]), b.per_member(b.spectrum("H_final")[0]))


def _fcs_distributions(b: ScenarioBatch) -> WorkBatch:
    q, e_i, e_f = _transition_kernels(b)
    works = e_f[:, :, None, None] - (e_i[:, None, :, None] + e_i[:, None, None, :]) / 2.0
    # merge the complex weights so the imaginary residue is visible, and prune on this merge
    out_w, out_q, seg, sizes = _merge(works.ravel(), q.ravel(),
                                      np.repeat(np.arange(len(b)), q[0].size))
    residue = np.abs(out_q.imag)
    bad = residue > IMAG_RESIDUE_TOL
    if bad.any():
        mine = residue[seg == seg[bad][0]]
        raise ImaginaryResidue(f"grouped FCS weight has imaginary part {mine.max():.3e}")
    return WorkBatch._from_merged(out_w, out_q.real, seg, sizes, len(b), SchemeId.FCS,
                                  is_quasi=True)


def fcs_quasiprob(s: Scenario) -> WorkDistribution:
    """Full-counting-statistics quasi-probability.

    Atom at E'_m - (E_n + E_n')/2 with weight <E_n|rho|E_n'> times the
    transition kernel; conjugate (n, n') pairs share a work value, so the
    grouped weights must be real up to ``IMAG_RESIDUE_TOL``.
    """
    return _fcs_distributions(ScenarioBatch.of([s]))[0]


def fcs_characteristic(s: Scenario, u_var: float) -> complex:
    """Characteristic function Tr[U^dag e^{iuH'} U e^{-iuH/2} rho e^{-iuH/2}]."""
    dec_i, dec_f = s.spectrum("H"), s.spectrum("H_final")
    u = s.unitary()
    half = dec_i.apply(lambda lam: np.exp(-1j * u_var * lam / 2.0))
    final = dec_f.apply(lambda lam: np.exp(1j * u_var * lam))
    return complex(np.trace(dag(u) @ final @ u @ half @ s.rho @ half))


def margenau_hill(s: Scenario) -> tuple[JointWorkTable, WorkDistribution]:
    """Margenau-Hill joint quasi-probability Re Tr[rho P_k U^dag Q_m U]."""
    table = _joint_table(s, 1.0)
    return table, table.to_distribution(SchemeId.MARGENAU_HILL, is_quasi=True)


def _ch_power_operators(b: ScenarioBatch, k_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The step dt = tau/K of each experiment's K-step time grid, (m,), and the
    Heisenberg power operators X(t_j) = U^dag(t_j) dH/dt(t_j) U(t_j), made exactly
    Hermitian, at its K-1 interior points, (m, K-1, d, d); derived once per batch
    and K, each group of experiments on one substep mesh (``_compiles``) as one stack."""
    if not all(isinstance(p, DrivingProtocol) for p in b.evolution):
        raise DomainError("consistent_histories requires a driving-protocol scenario")
    if k_steps < 2:
        raise DomainError("need at least 2 grid steps")

    def make():  # the grids and X(t_j) do not read rho
        dt = np.empty(len(b.evolution))
        x = np.empty((len(b.evolution), k_steps - 1, b.dim, b.dim), dtype=np.complex128)
        for js, protocol, mesh, unitaries in b._compiles():
            tau = protocol.duration
            times = tau * np.arange(1, k_steps) / k_steps
            u = _propagators(protocol, mesh, unitaries, times)
            xs = _matmul(_matmul(dag(u), protocol.derivative_at(times)), u)
            dt[js], x[js] = tau / k_steps, (xs + dag(xs)) / 2.0
        return dt, x
    return b.derived(("ch_power_operators", k_steps), make)


def _ch_distributions(b: ScenarioBatch, k_steps: int) -> WorkBatch:
    """History (c_L, ..., c_1) of eigenspaces of X(t_1..t_L), L = K - 1, weighs Re Tr(P_L ...
    P_1 rho) = Re Tr(O_L ... O_2 R), O_j = B_j^dag B_{j-1}, R = B_1^dag rho B_L for eigenvector
    blocks B_j (``_blocks``): r x r overlaps, which a rotation inside a block leaves alone, one
    scalar per history when X is non-degenerate.  Histories are c_L-major."""
    if b.dim ** (k_steps + 1) > TRAJ_CAP:
        raise TrajectoryBudgetExceeded(f"d^(K+1) = {b.dim ** (k_steps + 1)} exceeds cap {TRAJ_CAP}")
    def solve():  # every X(t_j) of the batch in one stacked solve
        dt, x = _ch_power_operators(b, k_steps)
        vals, vecs = _jacobi(x.reshape(-1, b.dim, b.dim))
        labels, ids = _eigenspaces(vals.reshape(x.shape[:-1]))
        return dt, labels, _blocks(vecs.reshape(x.shape), ids)
    dt, labels, blocks = (b.per_member(a) for a in b.derived(("ch_blocks", k_steps), solve))
    n, k = labels.shape[0], labels.shape[-1]
    # chain[c_L, h], histories h so far: from rho B_L (B_0 = I), c_L carried until step L
    chain = (b.rho[:, None] @ blocks[:, -1])[:, :, None, None]
    works = np.zeros((n, 1))
    for j in range(k_steps - 1):
        o = dag(blocks[:, j])[:, :, None] @ (blocks[:, j - 1, None] if j else np.eye(b.dim))
        chain = chain.reshape((n, k, o.shape[2], -1) + chain.shape[-2:])
        chain = (o[:, :, :, None] @ chain if j == k_steps - 2
                 else o[:, None, :, :, None] @ chain[:, :, None])
        works = (works[:, None, :] + (labels[:, j] * dt[:, None])[:, :, None]).reshape(n, -1)
    weights = np.trace(chain, axis1=-2, axis2=-1).real.reshape(n, -1)
    real = ~np.isnan(works)  # not a history through a slot past a count
    return WorkBatch.from_atoms(works[real], weights[real], np.nonzero(real)[0], n,
                                SchemeId.CONSISTENT_HISTORIES, is_quasi=True)


def consistent_histories(s: Scenario, k_steps: int) -> WorkDistribution:
    """Consistent-histories work quasi-probability on a K-step time grid (``_ch_distributions``
    on the batch of ``s``): each history of eigenspaces of X(t_j) weighs Re Tr(C_w rho), C_w its
    projector product.  The endpoint projector sums telescope to the identity, so only interior
    histories are enumerated; the trajectory budget still bounds the full count d^(K+1)."""
    return _ch_distributions(ScenarioBatch.of([s]), k_steps)[0]


def consistent_histories_means(b: ScenarioBatch, k_steps: int) -> np.ndarray:
    """The first moment of ``consistent_histories`` of every member, (n,), in closed form.

    Summing the history weights over every projector index but step j's
    inserts sum_c P_c = I at each other step, so the mean telescopes to
    dt sum_j Re Tr[X(t_j) rho]: no eigensolve, no enumeration, no budget.
    """
    dt, x = _ch_power_operators(b, k_steps)
    return b.per_member(dt) * np.einsum("nkij,nji->n", b.per_member(x), b.rho).real


def _expectations(states: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Re <psi_a|O_k|psi_a> for state rows psi_a (..., a, d) and operators O_k
    (..., k, d, d), shape (..., a, k).

    Each term is (<psi_a| O_k) |psi_a>, one vector product per term as a loop over
    states would do, so the values match that loop to the last bit.
    """
    bra = np.conj(states)[..., :, None, None, :]
    return (bra @ ops[..., None, :, :, :] @ states[..., :, None, :, None])[..., 0, 0].real


def _warn_if_degenerate(eigenvalues: np.ndarray, name: str, category) -> None:
    """Warn the scheme's caller when a basis it reads off a spectrum (or any of a
    stack of them) is the solver's choice."""
    if np.any(np.diff(eigenvalues, axis=-1) < DEGENERACY_GAP):
        warnings.warn(f"{name} has (near-)degenerate eigenvalues; its eigenbasis is ambiguous",
                      category, stacklevel=3)


def _state_dependent_distributions(b: ScenarioBatch) -> WorkBatch:
    """Atom (a, c) at E'_c - <phi_a|H|phi_a> weighs lam_a sum_{j in c} |(V'^dag U V_rho)_ja|^2 for
    rho's eigenpairs (lam_a, phi_a) and the eigenspaces c of H_final, O(d^3) a member.  Eigenstates
    with lam_a <= ``EIG_FLOOR`` have no atoms, so a member may have fewer atoms than another."""
    lam, vecs = b.spectrum("rho")
    _warn_if_degenerate(lam, "rho", DegenerateRhoWarning)
    e_a = _expectations(vecs.swapaxes(1, 2), b.per_member(b.h_initial)[:, None])[..., 0]
    e_f, ids = (b.per_member(x) for x in b.eigenspaces("H_final"))
    amp = _matmul(b.per_member(_final_frame(b)), vecs)  # (n, j, a), cells a k + c
    k = e_f.shape[1]
    sums = _cell_sums((amp * amp.conj()).real, ids[:, :, None] + k * np.arange(b.dim), b.dim * k)
    weights = lam[..., None] * sums.reshape(-1, b.dim, k)
    works = e_f[:, None, :] - e_a[..., None]
    keep = (lam > EIG_FLOOR)[:, :, None] & ~np.isnan(works)  # NaN: a slot past a count
    return WorkBatch.from_atoms(works[keep], weights[keep], np.nonzero(keep)[0], len(b),
                                SchemeId.STATE_DEPENDENT, is_quasi=False)


def state_dependent(s: Scenario) -> WorkDistribution:
    """Projective measurement in the eigenbasis of rho itself.

    The initial energy label of a rho eigenstate is its energy expectation
    value (a convention: the statistics carry no canonical energy assignment
    when rho and H do not commute, so this choice is flagged in reports).
    """
    return _state_dependent_distributions(ScenarioBatch.of([s]))[0]


def random_pure_decomposition(rho: np.ndarray, size: int, seed) -> PureDecomposition:
    """Random pure-state decomposition of rho with ``size`` members.

    Members are built by mixing the spectral decomposition through the first
    columns of a Haar unitary, which reconstructs rho exactly.
    """
    dec = eig_hermitian(rho)
    keep = dec.eigenvalues > EIG_FLOOR
    lam = dec.eigenvalues[keep]
    vecs = dec.eigenvectors[:, keep]
    rank = int(lam.size)
    if size < rank:
        raise DomainError(f"need at least rank(rho)={rank} members, got {size}")
    if size == 1:
        mix = np.ones((1, 1), dtype=np.complex128)
    else:
        mix = random_unitary(size, seed)[:, :rank]  # orthonormal columns
    unnormalized = (vecs * np.sqrt(lam)) @ mix.T    # columns are members
    weights = np.sum(np.abs(unnormalized) ** 2, axis=0)
    states = (unnormalized / np.sqrt(weights)).T
    return PureDecomposition(weights=weights, states=states)


def _sub_ensemble_distributions(b: ScenarioBatch, decomp=None) -> WorkBatch:
    """An atom of weight > 0 per state psi of each member's stacked ``decomp`` (default: rho's
    eigenstates above ``EIG_FLOOR``, renormalised) at <psi|U^dag H' U|psi> - <psi|H|psi>."""
    if decomp is None:
        lam, vecs = b.spectrum("rho")
        lam = np.where(lam > EIG_FLOOR, lam, 0.0)
        decomp = PureDecomposition(lam / lam.sum(axis=1)[:, None], vecs.swapaxes(1, 2))
    decomp.check_against(b.rho)
    ops = np.stack([b.per_member(_evolved_final(b)), b.per_member(b.h_initial)], axis=1)
    e_out, e_in = np.moveaxis(_expectations(decomp.states, ops), -1, 0)
    keep = decomp.weights != 0.0
    return WorkBatch.from_atoms((e_out - e_in)[keep], decomp.weights[keep], np.nonzero(keep)[0],
                                len(b), SchemeId.SUB_ENSEMBLE, is_quasi=False)


def sub_ensemble(s: Scenario, decomp: PureDecomposition) -> WorkDistribution:
    """One work atom per decomposition member: its mean energy change."""
    stacked = PureDecomposition(decomp.weights[None], decomp.states[None])
    return _sub_ensemble_distributions(ScenarioBatch.of([s]), stacked)[0]


_SECULAR_STEPS = 100  # cap on Newton steps; a handful suffice up to d = 64


def _secular_min(w: np.ndarray) -> np.ndarray:
    """lambda_min(|t><t| - diag(w)) for each row ``w = |t|^2`` of a stack.

    It is the root mu in [-w_(1), -w_(2)] (the two largest weights) of the
    secular equation sum_i w_i / (w_i + mu) = 1 (Golub 1973; Bunch, Nielsen &
    Sorensen 1978).  Multiplied by w_(1) + mu, it reads
    F(mu) = (w_(1) + mu)(1 - phi(mu)) - w_(1) = 0 with phi the sum without
    the top term; F rises and is convex on that bracket.  The 2 x 2 block of
    the top two components bounds mu <= -sqrt(w_(1) w_(2)), so Newton steps
    from there descend monotonically onto the root, all rows at once, until
    none moves left.  With at most one nonzero weight the matrix is 0 and
    mu = 0; with equal top weights the bracket collapses to mu = -w_(1).
    Both are returned exactly.
    """
    top = np.sort(w, axis=1)
    w1 = top[:, -1]
    w2 = top[:, -2] if w.shape[1] > 1 else np.zeros_like(w1)
    mu = np.where(w2 > 0.0, -w1, 0.0)
    inner = (w2 > 0.0) & (w1 > w2)
    rest, w1 = w[inner], w1[inner]
    rest[np.arange(len(rest)), np.argmax(rest, axis=1)] = 0.0
    x = np.minimum(-np.sqrt(w1 * w2[inner]), np.nextafter(-w2[inner], -1.0))  # off the pole
    for _ in range(_SECULAR_STEPS):
        r = rest / (rest + x[:, None])
        phi = r.sum(axis=1)
        slope = (1.0 - phi) + (w1 + x) * (r / (rest + x[:, None])).sum(axis=1)
        step = x - ((w1 + x) * (1.0 - phi) - w1) / slope
        if not np.any(step < x):
            break
        x = np.minimum(step, x)
    mu[inner] = x
    return mu


@dataclass(frozen=True, eq=False)
class CollectiveFactors:
    """Second-copy factors F_ij = <i|T_j|i> I + lam T_j^off of T_j = U^dag Q_j U, of one
    experiment or, every field with a leading axis (m,), of m (zero past a count).

    The two-copy element of outcome (i, j) is |i><i| (x) F_ij, with |i> the
    columns of ``basis`` (the initial eigenvectors).  ``blocks[j]`` is G_j, the
    columns of G = V^dag U^dag V' in final eigenspace j, so T_j = V G_j G_j^dag V^dag;
    ``diag_parts[i, j]`` is <i|T_j|i> and ``off_min[j]`` the least eigenvalue of
    T_j^off.  Only ``off_parts`` and ``povm`` form the d x d parts T_j^off.
    """

    basis: np.ndarray
    initial_energies: np.ndarray
    final_energies: np.ndarray
    diag_parts: np.ndarray
    blocks: np.ndarray
    off_min: np.ndarray
    lam: float | np.ndarray

    @property
    def off_parts(self) -> np.ndarray:
        """T_j^off, (..., k, d, d), formed from the blocks on each read."""
        return _off_parts(self.basis[..., None, :, :], self.blocks)

    def min_eigenvalue(self):
        """Least eigenvalue over all two-copy elements, without building one.

        |i><i| (x) F_ij has spectrum {0} and spec(F_ij), whose least value is
        <i|T_j|i> + lam lambda_min(T_j^off); this equals
        ``self.povm().min_eigenvalue()``.
        """
        lo = self.diag_parts + np.asarray(self.lam)[..., None, None] * self.off_min[..., None, :]
        return np.minimum(0.0, lo.min(axis=(-2, -1)))

    def completeness_defect(self):
        """max_i ||sum_j F_ij - I||_max without building an element: the elements sum to
        sum_i |i><i| (x) sum_j F_ij, and sum_j F_ij - I = (c_i - 1) I + lam S with
        c_i = sum_j <i|T_j|i> and S = sum_j T_j^off, read off all blocks' columns at once."""
        g = np.moveaxis(self.blocks, -3, -2)
        lam_s = np.asarray(self.lam)[..., None, None] * _off_parts(
            self.basis, g.reshape(g.shape[:-2] + (-1,)))
        on = self.diag_parts.sum(-1)[..., :, None] + np.diagonal(lam_s, 0, -2, -1)[..., None, :]
        off = lam_s * (1.0 - np.eye(lam_s.shape[-1]))
        return np.maximum(np.abs(on - 1.0).max(axis=(-2, -1)), np.abs(off).max(axis=(-2, -1)))

    def povm(self) -> Povm:
        """The explicit d^2 x d^2 elements |i><i| (x) F_ij at work E'_j - E_i.

        Elements are i-major: element i k + j is outcome (i, j), k final eigenspaces.
        """
        d, k = self.diag_parts.shape
        v = self.basis.T
        proj = v[:, :, None] * v.conj()[:, None, :]
        factors = (self.diag_parts[:, :, None, None] * np.eye(d, dtype=np.complex128)
                   + self.lam * self.off_parts[None])
        ops = proj[:, None, :, None, :, None] * factors[:, :, None, :, None, :]
        works = self.final_energies[None, :] - self.initial_energies[:, None]
        return Povm(works.ravel(), ops.reshape(d * k, d * d, d * d))


def _off_parts(basis: np.ndarray, g: np.ndarray) -> np.ndarray:
    """V (G G^dag, its diagonal zeroed) V^dag of columns G (..., d, r) in the basis V."""
    t = g @ dag(g)
    t[..., np.arange(t.shape[-1]), np.arange(t.shape[-1])] = 0.0
    return basis @ t @ dag(basis)


def _collective_factors(b: ScenarioBatch, lam: float | str) -> CollectiveFactors:
    """``collective_factors`` of every experiment of ``b``, stacked, once per batch and ``lam``:
    T_j = G_j G_j^dag, G = V^dag U^dag V' and G_j its columns in final eigenspace j."""
    _warn_if_degenerate(b.spectrum("H")[0], "H", DegenerateHamiltonianWarning)

    def make():  # the factors read no rho
        if lam != "auto" and not 0.0 <= float(lam) <= 1.0:
            raise DomainError("lambda must lie in [0, 1]")
        (e_i, v_i), (_, v_f) = b.spectrum("H"), b.spectrum("H_final")
        e_f, ids = b.eigenspaces("H_final")
        g = _blocks(dag(v_i) @ dag(b.unitary()) @ v_f, ids)  # (m, k, d, r)
        diag_parts = (g * g.conj()).real.sum(axis=-1).swapaxes(1, 2)
        rank = (ids[:, None, :] == np.arange(e_f.shape[1])[:, None]).sum(axis=-1)
        # t from G, not from the diagonal of T (a sum of rounded products): an exact
        # zero of t stays exact, and lambda_max reads the sign of off_min
        off_min = np.zeros(e_f.shape)
        off_min[rank == 1] = _secular_min(np.abs(g[rank == 1][..., 0]) ** 2)
        if (rank > 1).any():  # every degenerate final eigenspace in one stacked solve
            at = np.nonzero(rank > 1)
            off_min[at] = _jacobi(_off_parts(v_i[at[0]], g[at]))[0][:, 0]
        neg = off_min < 0.0
        bound = np.where(neg, diag_parts.min(axis=1) / np.where(neg, -off_min, 1.0), np.inf)
        lam_val = (np.clip(bound.min(axis=1, initial=1.0), 0.0, 1.0) if lam == "auto"
                   else np.full(len(e_f), float(lam)))
        lo = (diag_parts + lam_val[:, None, None] * off_min[:, None, :]).min(axis=(1, 2))
        bad = np.flatnonzero(lo < -POVM_EIG_TOL)
        if bad.size:
            raise NotPositive(float(lam_val[bad[0]]), float(lo[bad[0]]))
        return CollectiveFactors(v_i, e_i, e_f, diag_parts, g, off_min, lam_val)
    return b.derived(("collective_factors", lam), make)


def collective_factors(s: Scenario, lam: float | str = "auto") -> CollectiveFactors:
    """The factors of the two-copy elements at a checked lambda: those of the one
    experiment of the batch of ``s``.

    ``lam="auto"`` selects lambda_max.  Raises :class:`NotPositive` when an
    element's least eigenvalue <i|T_j|i> + lambda lambda_min(T_j^off) is
    negative.  For a rank-one Q_j = |E'_j><E'_j|, T_j^off = |t><t| - diag(|t|^2)
    in the initial eigenbasis with t = V^dag U^dag |E'_j>, so lambda_min comes
    from the secular equation; only a degenerate final eigenspace (rank > 1)
    takes a Jacobi solve.  Warns with :class:`DegenerateHamiltonianWarning` when H
    is degenerate, since the basis |i> inside an eigenspace is then the solver's.
    """
    stack = _collective_factors(ScenarioBatch.of([s]), lam)
    return CollectiveFactors(*(getattr(stack, f.name)[0] for f in fields(CollectiveFactors)))


def lambda_max(s: Scenario) -> float:
    """Largest lambda in [0, 1] keeping every two-copy element positive.

    The least eigenvalue of an element is <i|T_j|i> + lambda lambda_min(T_j^off),
    linear in lambda, so the boundary is min_ij <i|T_j|i> / -lambda_min(T_j^off)
    over the j whose off-diagonal part is nonzero (lambda_min < 0), clipped to
    [0, 1].  lambda = 0 always qualifies (it reproduces TPM).
    """
    return float(collective_factors(s, "auto").lam)


def _collective_distributions(b: ScenarioBatch, lam: float | str) -> WorkBatch:
    """``collective_two_copy`` of every member, from its experiment's factors."""
    f = _collective_factors(b, lam)
    basis, e_i, e_f, diag, g, _, lam_m = (b.per_member(getattr(f, x.name)) for x in fields(f))
    rho_h = dag(basis) @ b.rho @ basis  # rho in the initial eigenbasis
    pops = np.diagonal(rho_h, axis1=-2, axis2=-1).real.copy()
    rho_h[:, np.arange(b.dim), np.arange(b.dim)] = 0.0  # Tr(T_j^off rho) = Tr(G_j^dag rho_h G_j)
    off_mean = (g.conj() * (rho_h[:, None] @ g)).real.sum(axis=(-2, -1))
    weights = pops[:, :, None] * (diag + lam_m[:, None, None] * off_mean[:, None, :])
    works = e_f[:, None, :] - e_i[:, :, None]
    real = ~np.isnan(works)  # not a slot past a member's final eigenspace count
    return WorkBatch.from_atoms(works[real], weights[real], np.nonzero(real)[0], len(b),
                                SchemeId.COLLECTIVE_TWO_COPY, is_quasi=False)


def collective_two_copy(s: Scenario, lam: float | str = "auto") -> WorkDistribution:
    """Two-copy collective measurement M_(ij) = |i><i| (x) F_ij at work E'_j - E_i.

    With F_ij = <i|T_j|i> I + lam T_j^off, the weight factorises:
    Tr[M_(ij) rho (x) rho] = <i|rho|i> (<i|T_j|i> + lam Tr(T_j^off rho)), so no
    two-copy operator is formed.  ``lam="auto"`` selects lambda_max.
    """
    return _collective_distributions(ScenarioBatch.of([s]), lam)[0]


def collective_povm(s: Scenario, lam: float | str = "auto") -> Povm:
    """The two-copy elements M_(ij) = |i><i| (x) F_ij on C^d (x) C^d at work E'_j - E_i."""
    return collective_factors(s, lam).povm()


def tpm_povm(s: Scenario) -> Povm:
    """Analytic TPM POVM: Pi_w sums P_i U^dag Q_j U P_i over the (i, j) at w, each X X^dag
    with X = B_i B_i^dag U^dag B'_j for the eigenvector blocks B of H and B' of H_final."""
    (e_i, b_i), (e_f, b_f) = ((labels, _blocks(s.spectrum(name).eigenvectors, ids))
                              for name in ("H", "H_final") for labels, ids in [s.eigenspaces(name)])
    x = b_i[:, None] @ (dag(b_i)[:, None] @ (dag(s.unitary()) @ b_f)[None])  # (k_i, k_f, d, r')
    strength = x @ dag(x)
    return Povm(*merge_atoms((e_f[None, :] - e_i[:, None]).ravel(),
                             ((strength + dag(strength)) / 2.0).reshape(-1, s.dim, s.dim)))


def _member_entries(scheme: SchemeId, dim: int, k_steps: int) -> int:
    """A member's entries: d^(K+1) for histories (a K < 2 the kernel rejects as 2), else d^3."""
    return dim ** (max(int(k_steps), 2) + 1 if scheme is SchemeId.CONSISTENT_HISTORIES else 3)


_BATCH_KERNELS = {
    SchemeId.TPM: lambda b, *_: _joint_distributions(b, 0.0, SchemeId.TPM, False),
    SchemeId.OPERATOR_OF_WORK: lambda b, *_: _work_operator_distributions(b),
    SchemeId.FCS: lambda b, *_: _fcs_distributions(b),
    SchemeId.MARGENAU_HILL: lambda b, *_: _joint_distributions(b, 1.0, SchemeId.MARGENAU_HILL,
                                                               True),
    SchemeId.CONSISTENT_HISTORIES: lambda b, k_steps, _: _ch_distributions(b, k_steps),
    SchemeId.STATE_DEPENDENT: lambda b, *_: _state_dependent_distributions(b),
    SchemeId.SUB_ENSEMBLE: lambda b, *_: _sub_ensemble_distributions(b),
    SchemeId.COLLECTIVE_TWO_COPY: lambda b, _, lam: _collective_distributions(b, lam),
}


def distributions(scheme: SchemeId | str, batch: ScenarioBatch, k_steps: int = 8,
                  lam: float | str = "auto") -> WorkBatch:
    """The scheme's distribution of every member of ``batch`` (histories on the grid of
    ``k_steps``, the two-copy scheme at ``lam``), its kernel run once for all members or
    once per part (``scenario._part_bounds``, ``_member_entries`` per member)."""
    scheme = SchemeId(scheme)
    kernel = _BATCH_KERNELS[scheme]
    bounds = _part_bounds(len(batch), _member_entries(scheme, batch.dim, k_steps))
    if len(bounds) == 1:
        return kernel(batch, int(k_steps), lam)
    return WorkBatch.concat([kernel(batch.members(start, stop), int(k_steps), lam)
                             for start, stop in bounds])


def distribution(scheme: SchemeId | str, s: Scenario, **opts) -> WorkDistribution:
    """Uniform dispatcher used by the CLI: ``distributions`` on the batch of ``s`` alone."""
    return distributions(scheme, ScenarioBatch.of([s]), **opts)[0]
