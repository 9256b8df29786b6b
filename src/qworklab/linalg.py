"""Dense complex linear algebra and quantum-state utilities.

Everything here works on plain ``numpy`` complex arrays in any memory layout.
The ``require_*`` functions validate operators and return a defensive complex128
copy; they run when an input type (``Scenario``, ``DrivingProtocol``,
``ThermalContext``) is constructed and, inside ``eig_hermitian``, on a cache
miss only.  Downstream code treats validated arrays, and operators it makes
exactly Hermitian, as immutable and solves them with ``_eig(arr, validated=True)``,
which skips validation on a miss.  ``require_density`` solves nothing for a
valid state: its positivity test is the Cholesky factorisation of
``_cholesky_positive``, d steps with no iteration on one matrix or a stack, and
only a state that fails it is solved, for its least eigenvalue; ``_require_stack``
runs each check once over a stack.  Each spectrum has one owner: a Scenario
derives that of its rho on first read and holds those of H, H_final and its
history operators, a ``ScenarioBatch`` those of its experiments' work
operators and, when it is not made of Scenarios, of its members' states, a
``ThermalContext`` that of its H.  Sampled Hamiltonians come with the spectra
they were drawn from, and the operators no other owner holds are solved by
``_jacobi`` directly, each batch's or grid's as one stack.  The bounded
``_EIG_CACHE`` sees the rest, and shares equal operators between owners.  The
eigensolver is a deterministic complex Jacobi iteration for dense Hermitian
matrices (dimension <= 64).  A single matrix below ``_ROUNDS_MIN_DIM`` takes
the cyclic per-pair loop; a larger one, or a stack (n, d, d), takes sweeps in
Brent & Luk's parallel order, whose rounds rotate all their disjoint pairs at
once, vectorised over the pairs and the stack.  Both share one threshold, one
rotation formula and the sweep budget ``MAX_SWEEPS``.
``SpectralDecomposition.eigenspaces()`` is the one form of its eigenspaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NonConvergence, ValidationError

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_TOL = 1e-10
EIG_FLOOR = 1e-14          # eigenvalues below this contribute 0 to entropies
DEGENERACY_GAP = 1e-9      # eigenvalues closer than this share an eigenspace
MAX_SWEEPS = 100
JACOBI_TOL = 1e-12         # off-diagonal convergence target (relative to scale)
_ROUNDS_MIN_DIM = 8        # one matrix this large takes the round-parallel kernel

_EIG_CACHE: dict[bytes, "SpectralDecomposition"] = {}
_EIG_CACHE_CAP = 512


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValidationError("DimMismatch", name, f"expected a matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValidationError("DimMismatch", name, "entries must be finite (no NaN/Inf)")
    return arr


def require_square(m, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError("DimMismatch", name, f"expected square matrix, got {arr.shape}")
    return arr


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def max_abs(m: np.ndarray) -> float:
    """Max-norm of a matrix (largest entry magnitude)."""
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def require_hermitian(m, name: str = "operator") -> np.ndarray:
    """Validate a Hermitian matrix; the defect is measured relative to its scale."""
    arr = require_square(m, name)
    defect = max_abs(arr - dag(arr))
    limit = HERMITICITY_TOL * max(1.0, max_abs(arr))
    if defect > limit:
        raise ValidationError("NotHermitian", name,
                              f"||M - M^dag||_max = {defect:.3e} > {limit:.3e}")
    return arr.copy()


def require_unitary(m, name: str = "operator") -> np.ndarray:
    arr = require_square(m, name)
    defect = max_abs(dag(arr) @ arr - np.eye(arr.shape[0]))
    if defect > UNITARITY_TOL:
        raise ValidationError("NotUnitary", name,
                              f"||U^dag U - I||_max = {defect:.3e} > {UNITARITY_TOL}")
    return arr.copy()


def require_density(m, name: str = "state") -> np.ndarray:
    """Validate a density operator (Hermitian, unit trace, positive semidefinite)
    and return it.

    Positivity means a least eigenvalue >= ``-DENSITY_EIG_TOL``.  A state that
    ``_cholesky_positive`` factors passes without a solve; one that it does not
    is solved once, and rejected only if that least eigenvalue is below the
    tolerance, so the verdicts of the two tests can differ only by rounding.
    """
    arr = require_hermitian(m, name)
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValidationError("NotDensity", name, f"trace = {tr:.12g}, expected 1")
    if not _cholesky_positive(arr):
        lo = float(_eig(arr, validated=True).eigenvalues[0])
        if lo < -DENSITY_EIG_TOL:
            raise ValidationError("NotDensity", name,
                                  f"min eigenvalue {lo:.3e} < -{DENSITY_EIG_TOL}")
    return arr


def _cholesky_positive(a: np.ndarray) -> np.ndarray | np.bool_:
    """Whether h + ``DENSITY_EIG_TOL`` I is positive definite, h = (a + a^dag) / 2,
    for a matrix (d, d) or each matrix of a stack (..., d, d); boolean, of
    shape (...).  h is ``a`` itself when ``a`` is exactly Hermitian, and a
    matrix Hermitian only within ``HERMITICITY_TOL`` is tested whole, not by
    its lower triangle alone.

    A column-by-column Cholesky factorisation of the shifted matrix m: step k
    takes the pivot p = m_kk, and a matrix fails there unless p > 0;
    otherwise the column l = m[k+1:, k] / sqrt(p) updates the trailing block
    by -l l^dag, of which only the lower triangle is read again.  A single
    matrix below ``_ROUNDS_MIN_DIM`` runs the steps on Python scalars, which
    costs less there than array operations, as in ``_jacobi``.  In exact
    arithmetic every pivot is > 0 exactly when the least eigenvalue of h is
    > -``DENSITY_EIG_TOL``; rounding moves that boundary by about d eps ||h||
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).
    """
    d = a.shape[-1]
    m = 0.5 * (a + dag(a)) + DENSITY_EIG_TOL * np.eye(d)
    if m.ndim == 2 and d < _ROUNDS_MIN_DIM:
        rows = m.tolist()
        for k in range(d):
            pivot = rows[k][k].real
            if not pivot > 0.0:
                return np.False_
            root = math.sqrt(pivot)
            col = [rows[i][k] / root for i in range(k + 1, d)]
            for i, li in enumerate(col, k + 1):
                for j, lj in enumerate(col[:i - k], k + 1):
                    rows[i][j] -= li * lj.conjugate()
        return np.True_
    ok = np.ones(m.shape[:-2], dtype=bool)
    # a failed pivot fills the rest of its matrix with NaN or inf, silently: it stays failed
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(d):
            pivot = m[..., k, k].real
            ok &= pivot > 0.0
            if k == d - 1 or not ok.any():
                break
            col = m[..., k + 1:, k] / np.sqrt(pivot)[..., None]
            m[..., k + 1:, k + 1:] -= col[..., :, None] * col[..., None, :].conj()
    return ok


def _require_stack(m, name: str, kind: str) -> np.ndarray:
    """``require_hermitian`` (kind "hermitian"), ``require_unitary`` ("unitary") or
    ``require_density`` ("density") on each matrix of a stack (n, d, d), each test
    run once over the whole stack; returns a complex128 copy.

    A failure reports the first failing matrix i at path ``name[i]``, with the
    message the single-matrix check gives.  The positivity of a density stack is
    one ``_cholesky_positive`` call; only a matrix that fails it is solved.
    """
    arr = np.array(m, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValidationError("DimMismatch", name,
                              f"expected a stack of square matrices, got shape {arr.shape}")

    def fail(bad, err_kind, message):
        i = int(np.flatnonzero(bad)[0])
        raise ValidationError(err_kind, f"{name}[{i}]", message(i))

    finite = np.isfinite(arr).all(axis=(1, 2))
    if not finite.all():
        fail(~finite, "DimMismatch", lambda i: "entries must be finite (no NaN/Inf)")
    if kind == "unitary":
        defect = np.abs(dag(arr) @ arr - np.eye(arr.shape[-1])).max(axis=(1, 2), initial=0.0)
        if (defect > UNITARITY_TOL).any():
            fail(defect > UNITARITY_TOL, "NotUnitary",
                 lambda i: f"||U^dag U - I||_max = {defect[i]:.3e} > {UNITARITY_TOL}")
        return arr
    defect = np.abs(arr - dag(arr)).max(axis=(1, 2), initial=0.0)
    limit = HERMITICITY_TOL * np.maximum(1.0, np.abs(arr).max(axis=(1, 2), initial=0.0))
    if (defect > limit).any():
        fail(defect > limit, "NotHermitian",
             lambda i: f"||M - M^dag||_max = {defect[i]:.3e} > {limit[i]:.3e}")
    if kind == "density":
        tr = np.trace(arr, axis1=1, axis2=2)
        off = np.abs(tr - 1.0) > DENSITY_TRACE_TOL
        if off.any():
            fail(off, "NotDensity", lambda i: f"trace = {complex(tr[i]):.12g}, expected 1")
        for i in np.flatnonzero(~_cholesky_positive(arr)):
            lo = float(_eig(arr[i], validated=True).eigenvalues[0])
            if lo < -DENSITY_EIG_TOL:
                raise ValidationError("NotDensity", f"{name}[{i}]",
                                      f"min eigenvalue {lo:.3e} < -{DENSITY_EIG_TOL}")
    return arr


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def reconstruct(self) -> np.ndarray:
        """Sum_k lambda_k v_k v_k^dag."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dag(v)

    def apply(self, fn) -> np.ndarray:
        """Matrix function f(M) = V f(lambda) V^dag for a scalar callable."""
        v = self.eigenvectors
        return (v * fn(self.eigenvalues)) @ dag(v)

    def eigenspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenspaces, clustering eigenvalues closer than ``DEGENERACY_GAP``.

        Returns the cluster mean eigenvalues, ascending, shape (k,), and their
        projectors stacked with shape (k, d, d).  Degenerate eigenvector
        orientations are solver-dependent, so any consumer facing possible
        degeneracies must work with these projectors rather than raw columns.
        """
        return _eigenspaces(self.eigenvalues, self.eigenvectors)


def _eigenspaces(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``SpectralDecomposition.eigenspaces`` of ascending eigenvalues (d,) and their
    eigenvectors (d, d), or of each decomposition of a stack (..., d) and (..., d, d):
    the labels (..., k) and the projectors (..., k, d, d).

    Every decomposition of a stack must have the same number k of eigenspaces;
    a stack is not padded, so one with differing counts raises DomainError.
    Where the counts agree but the clusters lie elsewhere, each decomposition is
    clustered on its own.
    """
    d = vals.shape[-1]
    rows = (np.diff(vals, axis=-1) > DEGENERACY_GAP).reshape(vals.size // d, d - 1)
    if (rows != rows[:1]).any():
        counts = rows.sum(axis=1) + 1
        if (counts != counts[0]).any():
            raise DomainError(f"a batch needs one eigenspace count, and its members have "
                              f"{counts.min()} to {counts.max()}; it is not padded, so "
                              f"evaluate them in separate batches")
        pairs = [_eigenspaces(v, w) for v, w in zip(vals.reshape(-1, d), vecs.reshape(-1, d, d))]
        return (np.stack([p[0] for p in pairs]).reshape(vals.shape[:-1] + (-1,)),
                np.stack([p[1] for p in pairs]).reshape(vecs.shape[:-2] + (-1, d, d)))
    starts = np.flatnonzero(np.concatenate(([True], rows[0])))
    labels = np.add.reduceat(vals, starts, axis=-1) / np.diff(np.append(starts, vals.shape[-1]))
    blocks = np.split(vecs, starts[1:], axis=-1)
    return labels, np.stack([block @ dag(block) for block in blocks], axis=-3)


def _chain_starts(sorted_vals: np.ndarray, gap: float, segments=None) -> np.ndarray:
    """Start index of each run of ascending values whose adjacent gaps are <= ``gap``.

    With ``segments``, a label per value, a run also breaks where the label
    changes, so values of different segments never share a run.  The indices
    suit ``np.add.reduceat``; ``sorted_vals`` must be non-empty.
    """
    breaks = np.diff(sorted_vals) > gap
    if segments is not None:
        breaks |= np.diff(segments) != 0
    return np.flatnonzero(np.concatenate(([True], breaks)))


def _jacobi_threshold(a: np.ndarray):
    """Convergence target and rotation-skip level of a matrix, or of each matrix
    in a stack: the off-diagonal max-norm must fall to
    ``JACOBI_TOL * max(1, ||A||_max)``, and an entry at or below half of that
    is not rotated."""
    tol = JACOBI_TOL * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    return tol, 0.5 * tol


def _rotation(apq, mag, app, aqq, m=math):
    """Jacobi rotation zeroing ``apq`` (``mag = |apq| > 0``) in the Hermitian block
    [[app, apq], [conj(apq), aqq]].

    Returns ``c`` and ``sp = s e^{i arg apq}`` for the column update
    [col_p, col_q] <- [col_p, col_q] @ [[c, -sp], [conj(sp), c]].  ``m`` is
    ``math`` for one pair or ``numpy`` for arrays of pairs.
    """
    # t takes the sign of app - aqq; adding 0.0 turns a tie's -0.0 into +0.0, so t = 1 there
    tau = (app - aqq + 0.0) / (2.0 * mag)
    t = m.copysign(1.0 / (abs(tau) + m.hypot(1.0, tau)), tau)
    c = 1.0 / m.sqrt(1.0 + t * t)
    return c, t * c * (apq / mag)


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Jacobi diagonalization of a Hermitian matrix (d, d) or stack (n, d, d).

    Returns the ascending eigenvalues and the matching eigenvector columns,
    shaped like the input without its last axis, and like the input.  A stack,
    or one matrix with d >= ``_ROUNDS_MIN_DIM``, takes the round-parallel
    kernel ``_jacobi_rounds``; a smaller single matrix takes the cyclic
    per-pair loop, which has less overhead there.
    """
    if a.ndim == 3 or a.shape[0] >= _ROUNDS_MIN_DIM:
        vals, vecs = _jacobi_rounds(a.reshape(-1, *a.shape[-2:]))
        return (vals, vecs) if a.ndim == 3 else (vals[0], vecs[0])
    d = a.shape[0]
    A = a.astype(np.complex128, copy=True)
    V = np.eye(d, dtype=np.complex128)
    if d == 1:
        return np.array([A[0, 0].real]), V
    tol, skip = _jacobi_threshold(A)

    for _ in range(MAX_SWEEPS):
        off = 0.0
        for p in range(d - 1):
            row = np.abs(A[p, p + 1:])
            if row.size:
                off = max(off, float(row.max()))
        if off <= tol:
            diag = np.real(np.diag(A)).copy()
            order = np.argsort(diag, kind="stable")
            vals = diag[order]
            vecs = V[:, order]
            vals.setflags(write=False)
            vecs.setflags(write=False)
            return vals, vecs
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                mag = abs(apq)
                if mag <= skip:
                    continue
                c, sp = _rotation(apq, mag, A[p, p].real, A[q, q].real)
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p + np.conj(sp) * col_q
                A[:, q] = -sp * col_p + c * col_q
                # rows: apply the conjugate transpose from the left
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p + sp * row_q
                A[q, :] = -np.conj(sp) * row_p + c * row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                A[p, p] = A[p, p].real
                A[q, q] = A[q, q].real
                vcol_p = V[:, p].copy()
                vcol_q = V[:, q].copy()
                V[:, p] = c * vcol_p + np.conj(sp) * vcol_q
                V[:, q] = -sp * vcol_p + c * vcol_q
    raise NonConvergence(
        f"Jacobi eigensolver did not reach off-diagonal {tol:.1e} in {MAX_SWEEPS} sweeps"
    )


@functools.lru_cache(maxsize=None)
def _rounds(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """One sweep over the pairs p < q of range(d) as rounds of disjoint pairs.

    The circle method of Brent & Luk's parallel ordering: in [0, *ring] index 0
    stays put while the ring turns one place per round, and each round pairs
    the i-th entry with the i-th from the end.  Even d gives d - 1 rounds of
    d/2 pairs; odd d runs as d + 1 with a dummy index, so each of its d rounds
    gives one index a bye.
    """
    n = d + d % 2
    half = n // 2
    out = []
    for r in range(n - 1):
        order = np.concatenate(([0], np.roll(np.arange(1, n), r)))
        ends = order[:half], order[::-1][:half]
        p, q = np.minimum(*ends), np.maximum(*ends)
        p, q = p[q < d], q[q < d]
        p.setflags(write=False)
        q.setflags(write=False)
        out.append((p, q))
    return tuple(out)


def _jacobi_rounds(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi diagonalization of a stack (n, d, d) in parallel-ordered rounds.

    Each sweep runs the rounds of ``_rounds(d)``; a round rotates all its
    disjoint pairs at once, in every matrix not yet converged.  Convergence is
    tested per matrix at the start of each sweep, against the same threshold
    as the per-pair loop, and a converged matrix is not rotated again.  Every
    operation is elementwise per matrix, so each matrix gets bitwise the
    result it gets in a stack of one.
    """
    d = a.shape[-1]
    A = a.astype(np.complex128, copy=True)
    V = np.broadcast_to(np.eye(d, dtype=np.complex128), A.shape).copy()
    tol, skip = _jacobi_threshold(A)
    upper = np.triu_indices(d, 1)
    idx = np.arange(d)
    for _ in range(MAX_SWEEPS):
        off = np.abs(A[:, upper[0], upper[1]]).max(axis=1, initial=0.0)
        todo = np.flatnonzero(off > tol)
        if not todo.size:
            diag = A[:, idx, idx].real
            order = np.argsort(diag, axis=1, kind="stable")
            vals = np.take_along_axis(diag, order, 1)
            vecs = np.take_along_axis(V, order[:, None, :], 2)
            vals.setflags(write=False)
            vecs.setflags(write=False)
            return vals, vecs
        As, Vs, sk = A[todo], V[todo], skip[todo, None]
        for p, q in _rounds(d):
            apq = As[:, p, q]
            mag = np.abs(apq)
            rot = mag > sk
            if not rot.any():
                continue
            c, sp = _rotation(np.where(rot, apq, 1.0), np.where(rot, mag, 1.0),
                              As[:, p, p].real, As[:, q, q].real, np)
            c = np.where(rot, c, 1.0)[:, None, :]
            sp = np.where(rot, sp, 0.0)[:, None, :]
            for M in (As, Vs):
                col_p, col_q = M[:, :, p], M[:, :, q]
                M[:, :, p] = c * col_p + sp.conj() * col_q
                M[:, :, q] = -sp * col_p + c * col_q
            c, sp = c.swapaxes(1, 2), sp.swapaxes(1, 2)
            row_p, row_q = As[:, p, :], As[:, q, :]
            As[:, p, :] = c * row_p + sp * row_q
            As[:, q, :] = -sp.conj() * row_p + c * row_q
            As[:, p, q] = np.where(rot, 0.0, As[:, p, q])
            As[:, q, p] = np.where(rot, 0.0, As[:, q, p])
            As[:, p, p] = As[:, p, p].real
            As[:, q, q] = As[:, q, q].real
        A[todo], V[todo] = As, Vs
    raise NonConvergence(
        f"Jacobi eigensolver did not reach off-diagonal {tol.max():.1e} in {MAX_SWEEPS} sweeps"
    )


def eig_hermitian(op) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian operator.

    Uses Jacobi rotations in a fixed sweep order (see ``_jacobi``), so the
    result is deterministic for a fixed input.  Raises :class:`NonConvergence` if the
    off-diagonal mass is not eliminated within ``MAX_SWEEPS`` sweeps.
    The input is validated only on a cache miss: the key holds the full shape
    and the bytes, so a hit is a matrix that was validated when it was solved.
    """
    return _eig(np.asarray(op, dtype=np.complex128), validated=False)


def _eig(arr: np.ndarray, validated: bool) -> SpectralDecomposition:
    """Cached solve of ``arr``; a miss validates it unless the caller already has."""
    key = repr(arr.shape).encode() + arr.tobytes()
    hit = _EIG_CACHE.get(key)
    if hit is not None:
        return hit
    dec = SpectralDecomposition(*_jacobi(arr if validated else require_hermitian(arr)))
    if len(_EIG_CACHE) >= _EIG_CACHE_CAP:
        del _EIG_CACHE[next(iter(_EIG_CACHE))]  # evict the oldest entry
    _EIG_CACHE[key] = dec
    return dec


def tensor(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def partial_trace(m, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator on dims (dA, dB).

    ``keep`` selects the surviving factor, "A" or "B".
    """
    da, db = int(dims[0]), int(dims[1])
    arr = require_square(m)
    if arr.shape[0] != da * db:
        raise DimensionMismatch(
            f"operator of size {arr.shape[0]} does not factor as {da}x{db}"
        )
    four = arr.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ibjb->ij", four)
    if keep == "B":
        return np.einsum("aiaj->ij", four)
    raise DimensionMismatch(f"keep must be 'A' or 'B', got {keep!r}")


def dephase(rho, basis: SpectralDecomposition) -> np.ndarray:
    """Remove coherences between the eigenspaces of ``basis``.

    Populations are preserved.  Degenerate clusters are handled via eigenspace
    projectors, so the result does not depend on the orientation of
    eigenvectors inside a cluster.
    """
    proj = basis.eigenspaces()[1]
    return (proj @ require_square(rho) @ proj).sum(axis=0)


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in nats; eigenvalues below EIG_FLOOR contribute zero."""
    return _entropy(eig_hermitian(rho))


def _entropy(dec: SpectralDecomposition) -> float:
    lam = dec.eigenvalues[dec.eigenvalues > EIG_FLOOR]
    return float(-np.sum(lam * np.log(lam))) if lam.size else 0.0


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy S(rho || sigma) in nats.

    Returns ``math.inf`` when the support of rho is not contained in the
    support of sigma.
    """
    dr = eig_hermitian(rho)
    ds = eig_hermitian(sigma)
    r_vals, r_vecs = dr.eigenvalues, dr.eigenvectors
    s_vals, s_vecs = ds.eigenvalues, ds.eigenvectors

    kernel = s_vals <= EIG_FLOOR
    if np.any(kernel):
        amps = dag(s_vecs[:, kernel]) @ r_vecs
        kernel_mass = float(np.sum((np.abs(amps) ** 2) * r_vals[None, :]))
        if kernel_mass > 1e-10:
            return math.inf

    r_mask = r_vals > EIG_FLOOR
    term_r = float(np.sum(r_vals[r_mask] * np.log(r_vals[r_mask])))

    s_mask = s_vals > EIG_FLOOR
    # overlap matrix |<u_i|v_j>|^2 between rho and sigma eigenvectors
    ov = np.abs(dag(r_vecs[:, r_mask]) @ s_vecs[:, s_mask]) ** 2
    term_s = float(r_vals[r_mask] @ ov @ np.log(s_vals[s_mask]))
    return term_r - term_s


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _complex_normal(rng.standard_normal((2, dim, dim)))


def _complex_normal(parts: np.ndarray) -> np.ndarray:
    """(re + i im) / sqrt 2 of standard normal parts (..., 2, d, d): complex-normal
    (Ginibre) matrices (..., d, d).  One draw of shape (2, d, d) is the same stream
    as a draw of the real parts and then one of the imaginary parts."""
    return (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / math.sqrt(2.0)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary: modified Gram-Schmidt orthonormalization of a
    complex-normal matrix (the QR factor with positive-real diagonal)."""
    if dim < 2:
        raise DomainError("dim must be >= 2")
    return _orthonormal_columns(_ginibre(dim, _rng(seed))[None])[0]


def _orthonormal_columns(g: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on the columns of each matrix of a stack (n, d, d).

    Each product and norm is one vector product per matrix, so a matrix gets
    bitwise the result it gets in a stack of one.
    """
    q = np.zeros_like(g)
    for k in range(g.shape[-1]):
        v = g[:, :, k].copy()
        for j in range(k):
            v -= (q[:, None, :, j].conj() @ v[:, :, None])[:, 0] * q[:, :, j]
        re, im = v.real[:, None, :], v.imag[:, None, :]
        v /= np.sqrt((re @ re.swapaxes(1, 2))[:, 0] + (im @ im.swapaxes(1, 2))[:, 0])
        q[:, :, k] = v
    return q


def _wishart_states(g: np.ndarray) -> np.ndarray:
    """The normalized Wishart state g g^dag / Tr(g g^dag) of each complex-normal
    matrix of a stack (n, d, d)."""
    w = g @ dag(g)
    return w / np.trace(w, axis1=1, axis2=2).real[:, None, None]


def random_density(dim: int, seed) -> np.ndarray:
    """Full-rank random density operator via normalized Wishart construction."""
    if dim < 2:
        raise DomainError("dim must be >= 2")
    return _wishart_states(_ginibre(dim, _rng(seed))[None])[0]


def random_pure(dim: int, seed) -> np.ndarray:
    """Haar-random pure state vector."""
    if dim < 2:
        raise DomainError("dim must be >= 2")
    rng = _rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| for a (normalized) vector."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj())
