"""Dense complex linear algebra and quantum-state utilities.

Everything here works on plain ``numpy`` complex arrays in any memory layout.
One validator, ``_require``, checks a matrix (d, d), failing at its path, or a
stack (n, d, d), whose first failing member i fails at ``path[i]`` with the same
kind and message; it runs each test once over the stack and returns a defensive
complex128 copy.  The ``require_*`` functions are its check of one matrix.  It
runs when an input type (``Scenario``, ``ScenarioBatch``, ``DrivingProtocol``,
``ThermalContext``) is constructed and, inside ``eig_hermitian``, on a cache
miss only.  Downstream code treats validated arrays, and operators it makes
exactly Hermitian, as immutable and solves them with ``_eig(arr,
validated=True)``.  The density check solves nothing for a valid state: its
positivity test is the Cholesky factorisation of ``_cholesky_positive``, d
steps with no iteration, and only a state that fails it is solved, for its
least eigenvalue.  Each spectrum has one owner: a
``ScenarioBatch`` holds those of its experiments' H, H_final, work and history
operators and of its states (a Scenario reads its own through its batch of
one), a ``ThermalContext`` that of its H.  Sampled Hamiltonians come with the spectra
they were drawn from, and the operators no other owner holds are solved by
``_jacobi`` directly, each batch's or grid's as one stack.  ``_eig`` is the one
entry to the solver for an operator of either shape: the bounded ``_EIG_CACHE``
shares equal matrices between owners, and a stack is solved directly, never
cached.  The
eigensolver is a deterministic complex Jacobi iteration for dense Hermitian
matrices (dimension <= 64), one kernel for one matrix (d, d) and for a stack
(..., d, d): sweeps in Brent & Luk's parallel order, whose rounds rotate all
their disjoint pairs at once, vectorised over the pairs and the stack, so a
matrix gets bitwise the result it gets in any stack.  From d = 12 on, a matrix
whose largest off-diagonal entry is at most ``JACOBI_STEP_RATIO`` times its
least diagonal gap (over the pairs still rotated) is in Jacobi's quadratic
regime and leaves its sweeps for refinement steps of matrix products, each
Q = exp(K) of the first-order generator K (``_expi``, the exponential that also
compiles driving protocols: scaling and squaring around a Taylor polynomial of
each member's own degree, evaluated by Paterson & Stockmeyer's blocks in A^4;
the degree falls as K shrinks, to 2 at a last step), as in Ogita & Aishima's
refinement of symmetric eigendecompositions (2018); a near-degenerate cluster
fails that test and keeps sweeping, and a step that does not halve the
off-diagonal hands its matrix back to sweeps.  ``eig_hermitian`` takes a stack
(n, d, d) as well, validated and solved as one.  An eigenspace is a block
of eigenvector columns (``SpectralDecomposition.eigenspaces()``), and it has that one
form: every consumer reads its columns, summed or as the zero-padded blocks of
``_blocks``, and none forms a stack of projectors.  A product of 2 x 2 matrices,
or of stacks of them, is ``_matmul``'s two rank-one terms in elementwise
arithmetic, where ``@`` makes one BLAS call per matrix; every other product is
``@``.  The exponential, the compile and the survey's batch kernels take their
products from it, each member bitwise as alone.
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
JACOBI_STEP_RATIO = 0.5    # off-diagonal / least gap at which a matrix leaves its sweeps
_STEP_MIN_DIM = 12         # below this a step costs a stack more than the sweeps it saves
_TAYLOR_TOL = 1e-18        # a scaled factor's Taylor degree: its first term bounded below this
_PS_WIDTH = 4              # the Paterson-Stockmeyer block width of that Taylor polynomial
# nu^k / k! < _TAYLOR_TOL when nu < theta_k = (_TAYLOR_TOL k!)^(1/k), k = 1 ... 16;
# theta_16 = 0.51 is above the largest scaled 1-norm, 0.5
_TAYLOR_THETA = np.array([(_TAYLOR_TOL * math.factorial(k)) ** (1.0 / k) for k in range(1, 17)])

_EIG_CACHE: dict[bytes, "SpectralDecomposition"] = {}
_EIG_CACHE_CAP = 512


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, but for two 2 x 2 matrices, or stacks of them, the sum of the two
    rank-one terms (column j of a) (row j of b): elementwise arithmetic, where
    ``matmul`` makes one BLAS call per 2 x 2 product, several times slower on a
    stack.  Each product is per member, so a member is bitwise as in a stack of one."""
    if a.shape[-2:] == b.shape[-2:] == (2, 2):
        return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]
    return a @ b


def max_abs(m: np.ndarray) -> float:
    """Max-norm of a matrix (largest entry magnitude)."""
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def require_square(m, name: str = "matrix") -> np.ndarray:
    """Validate a finite square matrix (``_require``)."""
    return _require(m, name, "square", ndim=2)


def require_hermitian(m, name: str = "operator") -> np.ndarray:
    """Validate a Hermitian matrix; the defect is measured relative to its scale (``_require``)."""
    return _require(m, name, "hermitian", ndim=2)


def require_unitary(m, name: str = "operator") -> np.ndarray:
    """Validate a unitary matrix (``_require``)."""
    return _require(m, name, "unitary", ndim=2)


def require_density(m, name: str = "state") -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, positive semidefinite (``_require``)."""
    return _require(m, name, "density", ndim=2)


def _require(m, name: str, kind: str, ndim: int | None = None) -> np.ndarray:
    """A complex128 copy of a matrix (d, d) or of a stack of them (n, d, d) (``ndim`` 2
    or 3 admits only that shape), validated as ``kind``: "square", "hermitian",
    "unitary" or "density".  Each test runs once over the whole stack: finite entries
    and a square shape; ||U^dag U - I||_max <= ``UNITARITY_TOL`` for a unitary, else
    ||M - M^dag||_max <= ``HERMITICITY_TOL`` max(1, ||M||_max); for a state, unit
    trace within ``DENSITY_TRACE_TOL`` and positivity.  A matrix fails at path
    ``name``, the first failing member i of a stack at ``name[i]``, with the same
    kind and message (``_reject``).

    Positivity means a least eigenvalue >= ``-DENSITY_EIG_TOL``.  A state that
    ``_cholesky_positive`` factors passes without a solve; one that it does not
    is solved once, and rejected only if that least eigenvalue is below the
    tolerance, so the verdicts of the two tests can differ only by rounding.
    """
    arr = np.array(m, dtype=np.complex128)
    if arr.ndim not in ((2, 3) if ndim is None else (ndim,)):
        shape = {2: "a matrix", 3: "a stack of matrices"}.get(ndim, "a matrix or a stack")
        raise ValidationError("DimMismatch", name, f"expected {shape}, got ndim={arr.ndim}")
    _reject(~np.isfinite(arr).all(axis=(-2, -1)), "DimMismatch", name,
            lambda at: "entries must be finite (no NaN/Inf)")
    if arr.shape[-1] != arr.shape[-2]:
        _reject(np.ones(arr.shape[:-2], dtype=bool), "DimMismatch", name,
                lambda at: f"expected square matrix, got {arr.shape[-2:]}")
    if kind == "unitary":
        defect = np.abs(dag(arr) @ arr - np.eye(arr.shape[-1])).max(axis=(-2, -1), initial=0.0)
        _reject(defect > UNITARITY_TOL, "NotUnitary", name,
                lambda at: f"||U^dag U - I||_max = {defect[at]:.3e} > {UNITARITY_TOL}")
    elif kind != "square":
        defect = np.abs(arr - dag(arr)).max(axis=(-2, -1), initial=0.0)
        limit = HERMITICITY_TOL * np.maximum(1.0, np.abs(arr).max(axis=(-2, -1), initial=0.0))
        _reject(defect > limit, "NotHermitian", name,
                lambda at: f"||M - M^dag||_max = {defect[at]:.3e} > {limit[at]:.3e}")
    if kind == "density":
        tr = np.trace(arr, axis1=-2, axis2=-1)
        _reject(np.abs(tr - 1.0) > DENSITY_TRACE_TOL, "NotDensity", name,
                lambda at: f"trace = {complex(tr[at]):.12g}, expected 1")
        ok = _cholesky_positive(arr)
        if not ok.all():  # the least eigenvalue of each state that fails the pivots
            lo = np.zeros(ok.shape)
            for at in map(tuple, np.argwhere(~ok)):
                lo[at] = _eig(arr[at], validated=True).eigenvalues[0]
            _reject(lo < -DENSITY_EIG_TOL, "NotDensity", name,
                    lambda at: f"min eigenvalue {lo[at]:.3e} < -{DENSITY_EIG_TOL}")
    return arr


def _reject(bad: np.ndarray, kind: str, name: str, message) -> None:
    """Raise ``ValidationError(kind)`` at the first matrix that ``bad`` marks, if any.
    ``bad`` is 0-d for a matrix, which fails at path ``name``, or holds one flag per
    member i of a stack, which fails at ``name[i]``; ``message(at)`` is the text, ``at``
    the failing matrix's index, () or (i,)."""
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValidationError(kind, name + "".join(f"[{i}]" for i in at), message(at))


def _cholesky_positive(a: np.ndarray) -> np.ndarray:
    """Whether h + ``DENSITY_EIG_TOL`` I is positive definite, h = (a + a^dag) / 2,
    for a matrix (d, d) or each matrix of a stack (..., d, d); boolean, of
    shape (...).  h is ``a`` itself when ``a`` is exactly Hermitian, and a
    matrix Hermitian only within ``HERMITICITY_TOL`` is tested whole, not by
    its lower triangle alone.

    A column-by-column Cholesky factorisation of the shifted matrix m: step k
    takes the pivot p = m_kk, and a matrix fails there unless p > 0;
    otherwise the column l = m[k+1:, k] / sqrt(p) updates the trailing block
    by -l l^dag, of which only the lower triangle is read again.  In exact
    arithmetic every pivot is > 0 exactly when the least eigenvalue of h is
    > -``DENSITY_EIG_TOL``; rounding moves that boundary by about d eps ||h||
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).
    """
    d = a.shape[-1]
    m = 0.5 * (a + dag(a)) + DENSITY_EIG_TOL * np.eye(d)
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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[-1])

    def reconstruct(self) -> np.ndarray:
        """Sum_k lambda_k v_k v_k^dag."""
        return self.apply(lambda lam: lam)

    def apply(self, fn) -> np.ndarray:
        """Matrix function f(M) = V f(lambda) V^dag for a scalar callable; of each
        decomposition of a stack (..., d) and (..., d, d) as well."""
        v = self.eigenvectors
        return (v * fn(self.eigenvalues)[..., None, :]) @ dag(v)

    def eigenspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """``_eigenspaces`` of the eigenvalues.  Degenerate eigenvector orientations are
        solver-dependent, so a consumer reads a block only through what a rotation
        inside it leaves alone: sums over its columns, or products B B^dag of its block B."""
        return _eigenspaces(self.eigenvalues)


def _eigenspaces(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenspaces of ascending eigenvalues (d,), or of each row of a stack (..., d) in
    one pass, clustering values closer than ``DEGENERACY_GAP``: the labels (cluster
    means) (..., k), k the largest count and NaN past a row's own, and the cluster
    index of each eigenvector column (..., d).  A cluster's columns are one block V_c.
    """
    d = vals.shape[-1]
    first = np.concatenate((np.ones(vals.shape[:-1] + (1,), dtype=bool),
                            np.diff(vals, axis=-1) > DEGENERACY_GAP), axis=-1)
    ids = np.cumsum(first, axis=-1) - 1
    starts = np.flatnonzero(first)
    labels = np.full((vals.size // d, int(ids.max()) + 1), np.nan)
    labels[starts // d, ids.ravel()[starts]] = (np.add.reduceat(vals.ravel(), starts)
                                                / np.diff(np.append(starts, vals.size)))
    return labels.reshape(vals.shape[:-1] + labels.shape[1:]), ids


def _blocks(vecs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The blocks V_c (..., k, d, r) of eigenvectors (..., d, d) with cluster indices ``ids``
    (..., d), r the largest rank: block c holds its columns in order, zero past its rank
    and past a decomposition's count."""
    d = ids.shape[-1]
    v, ids_2d = vecs.reshape(-1, d, d), ids.reshape(-1, d)
    pos = np.arange(d) - (ids_2d[:, :, None] > ids_2d[:, None, :]).sum(-1)  # column in block
    out = np.zeros((len(v), int(ids_2d.max()) + 1, d, int(pos.max()) + 1), dtype=np.complex128)
    out[np.arange(len(v))[:, None], ids_2d, :, pos] = v.swapaxes(-1, -2)
    return out.reshape(ids.shape[:-1] + out.shape[1:])


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


def _expi(hs: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """exp(-i H_j dt_j) for Hamiltonians (..., d, d) and steps (...,) from matrix
    products alone, by scaling and squaring (Moler & Van Loan 2003; Higham 2005):
    A = -i H dt is scaled by 2^-s to a 1-norm nu <= 0.5, its Taylor polynomial
    evaluated, and the result squared s times.  Each member takes its own degree m,
    the first with nu^m / m! < ``_TAYLOR_TOL`` (a bound on the m-th term's largest
    entry), read from the thresholds ``_TAYLOR_THETA``.  The polynomial is evaluated
    by Paterson & Stockmeyer (1973; Higham 2008, sec. 4.2): the powers A ... A^b,
    b = ``_PS_WIDTH``, once (none above the batch's highest degree), then Horner over
    blocks of b terms in A^b, so degree 14-16 costs 6 products instead of about 15.
    A member's coefficients past its own degree are exact zeros: they change its sums
    only in the signs of zeros, which no sum or product carries into a nonzero value,
    and the identity term, added last, clears those signs, so each member is bitwise
    as alone.  Each factor's largest entry error against ``scipy.linalg.expm`` and
    its unitarity defect are <= 4 d eps max(1, ||H dt||_1)."""
    a = hs * (-1j * steps)[..., None, None]
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.maximum(np.frexp(2.0 * norm)[1], 0)
    a = a * np.ldexp(1.0, -s)[..., None, None]
    deg = np.searchsorted(_TAYLOR_THETA, np.ldexp(norm, -s), side="right") + 1
    top, b = int(deg.max(initial=1)), _PS_WIDTH
    powers = [np.eye(a.shape[-1]), a]
    while len(powers) <= min(b, top):
        powers.append(_matmul(powers[-1], a))

    def block(j: int) -> np.ndarray:  # sum_i c_{jb+i} A^i, i = 1 ... b; c_k = 0 past deg
        acc = 0.0
        for k in range(j * b + 1, min(top, j * b + b) + 1):
            coef = np.where(deg >= k, 1.0 / math.factorial(k), 0.0)
            acc = acc + coef[..., None, None] * powers[k - j * b]
        return acc

    j = (top - 1) // b  # the highest block, whose last term is A^top / top!
    out = block(j)
    for j in range(j - 1, -1, -1):
        out = _matmul(out, powers[b]) + block(j)
    out = out + powers[0]  # the identity term, last
    for i in range(int(s.max(initial=0))):
        sq = s > i
        if sq.all():
            out = _matmul(out, out)
        else:
            out[sq] = _matmul(out[sq], out[sq])
    return out


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Jacobi diagonalization of a Hermitian matrix (d, d) or of each matrix
    of a stack (..., d, d), in parallel-ordered rounds finished by refinement steps.

    Returns the ascending eigenvalues and the matching eigenvector columns,
    shaped like the input without its last axis, and like the input.  Each
    sweep runs the rounds of ``_rounds(d)``; a round rotates all its disjoint
    pairs at once, in every matrix not yet converged.  A matrix has converged
    when its off-diagonal max-norm is at most ``JACOBI_TOL * max(1, ||A||_max)``,
    tested at the start of each sweep, and a converged matrix is not rotated
    again; an entry at or below half of that target is not rotated either.

    From d = ``_STEP_MIN_DIM`` on, a matrix whose off-diagonal max-norm is at
    most ``JACOBI_STEP_RATIO`` times its least diagonal gap |a_pp - a_qq| over
    the pairs above that skip level takes a refinement step (``_refine``)
    instead of a sweep: Jacobi is in its quadratic regime there, and one step
    of matrix products does the work of a sweep.  A pair inside a degenerate
    or near-degenerate cluster has a gap too small to pass, so such a matrix
    sweeps until those entries are below the skip level, and a step that does
    not at least halve the off-diagonal max-norm hands its matrix back to
    sweeps for good.  ``MAX_SWEEPS`` counts sweeps and steps together.  Every
    decision and operation is per matrix, so a matrix gets bitwise the result
    it gets alone or in any other stack.
    """
    d = a.shape[-1]
    A = np.asarray(a, dtype=np.complex128).reshape(-1, d, d)
    tol = JACOBI_TOL * np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
    skip = 0.5 * tol
    # A over V, (n, 2d, d): a column rotation turns both, a row rotation only A
    W = np.concatenate((A, np.broadcast_to(np.eye(d, dtype=np.complex128), A.shape)), axis=1)
    upper = np.triu_indices(d, 1)
    idx = np.arange(d)
    stepping = np.full(len(W), d >= _STEP_MIN_DIM)
    for _ in range(MAX_SWEEPS):
        off = np.abs(W[:, upper[0], upper[1]])
        top = off.max(axis=1, initial=0.0)
        live = top > tol
        if not live.any():
            diag = W[:, idx, idx].real
            order = np.argsort(diag, axis=1, kind="stable")
            vals = np.take_along_axis(diag, order, 1).reshape(a.shape[:-1])
            vecs = np.take_along_axis(W[:, d:], order[:, None, :], 2).reshape(a.shape)
            vals.setflags(write=False)
            vecs.setflags(write=False)
            return vals, vecs
        step = live & stepping
        if step.any():
            diag = W[:, idx, idx].real
            gaps = np.where(off > skip[:, None],
                            np.abs(diag[:, upper[0]] - diag[:, upper[1]]), np.inf)
            step &= top <= JACOBI_STEP_RATIO * gaps.min(axis=1)
        if step.any():
            todo = np.flatnonzero(step)
            stepping[todo] = _refine(W, todo, skip[todo], upper) <= 0.5 * top[todo]
            live &= ~step
        if live.any():
            _sweep(W, live, skip)
    raise NonConvergence(
        f"Jacobi eigensolver did not reach off-diagonal {tol.max():.1e} in {MAX_SWEEPS} sweeps"
    )


def _sweep(W: np.ndarray, live: np.ndarray, skip: np.ndarray) -> None:
    """One sweep of ``_jacobi``'s rounds over the matrices ``live`` of its A over V
    stack W (n, 2d, d), in place; entries at or below ``skip`` (n,) are not rotated."""
    d = W.shape[-1]
    # every matrix still to rotate is rotated in place, a strict subset in a copy
    whole = live.all()
    todo = np.flatnonzero(live)
    Ws, sk = (W, skip[:, None]) if whole else (W[todo], skip[todo, None])
    for p, q in _rounds(d):
        apq = Ws[:, p, q]
        mag = np.abs(apq)
        rot = mag > sk
        every = rot.all()  # else the pairs not rotated take c = 1, sp = 0
        if not every:
            if not rot.any():
                continue
            apq, mag = np.where(rot, apq, 1.0), np.where(rot, mag, 1.0)
        # the rotations zeroing apq, c and sp = s e^{i arg apq}, for the column update
        # [col_p, col_q] <- [col_p, col_q] @ [[c, -sp], [conj(sp), c]]; t takes the sign
        # of app - aqq, and adding 0.0 turns a tie's -0.0 into +0.0, so t = 1 there
        tau = (Ws[:, p, p].real - Ws[:, q, q].real + 0.0) / (2.0 * mag)
        t = np.copysign(1.0 / (abs(tau) + np.hypot(1.0, tau)), tau)
        c = 1.0 / np.sqrt(1.0 + t * t)
        sp = t * c * (apq / mag)
        if not every:
            c, sp = np.where(rot, c, 1.0), np.where(rot, sp, 0.0)
        c, sp = c[:, None, :], sp[:, None, :]
        col_p, col_q = Ws[:, :, p], Ws[:, :, q]
        Ws[:, :, p] = c * col_p + sp.conj() * col_q
        Ws[:, :, q] = -sp * col_p + c * col_q
        c, sp = c.swapaxes(1, 2), sp.swapaxes(1, 2)
        row_p, row_q = Ws[:, p, :], Ws[:, q, :]
        Ws[:, p, :] = c * row_p + sp * row_q
        Ws[:, q, :] = -sp.conj() * row_p + c * row_q
        for i, j in ((p, q), (q, p)):
            Ws[:, i, j] = 0.0 if every else np.where(rot, 0.0, Ws[:, i, j])
        for i in (p, q):
            Ws[:, i, i] = Ws[:, i, i].real
    if not whole:
        W[todo] = Ws


def _refine(W: np.ndarray, todo: np.ndarray, skip: np.ndarray,
            upper: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One refinement step of ``_jacobi`` on the matrices ``todo`` of its A over V
    stack W (n, 2d, d), in place; returns their new off-diagonal max-norms.

    The first-order generator K, K_pq = a_pq / (a_qq - a_pp) on the pairs p < q
    above ``skip`` (per matrix) and 0 elsewhere, anti-Hermitian, removes the
    off-diagonal of A = D + E to first order: exp(-K) A exp(K) = D + O(E^2 / gap).
    So Q = exp(K) from ``_expi``, A <- Q^dag A Q made exactly Hermitian (its
    diagonal real) and V <- V Q; matrix products only, each per matrix.
    """
    d = W.shape[-1]
    p, q = upper
    Ws = W[todo]
    A = Ws[:, :d]
    apq = A[:, p, q]
    diag = A[:, np.arange(d), np.arange(d)].real
    use = np.abs(apq) > skip[:, None]
    K = np.zeros_like(A)
    K[:, p, q] = np.where(use, apq / np.where(use, diag[:, q] - diag[:, p], 1.0), 0.0)
    K -= dag(K)
    Q = _expi(1j * K, np.ones(len(todo)))
    A = dag(Q) @ A @ Q
    A = 0.5 * (A + dag(A))
    W[todo, :d] = A
    W[todo, d:] = Ws[:, d:] @ Q
    return np.abs(A[:, p, q]).max(axis=1, initial=0.0)


def eig_hermitian(op) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian operator (d, d), or of each operator of a
    stack (n, d, d) in one solve, as a stacked decomposition (n, d) and (n, d, d).

    Uses Jacobi rotations in a fixed sweep order (see ``_jacobi``), so the
    result is deterministic for a fixed input.  Raises :class:`NonConvergence` if the
    off-diagonal mass is not eliminated within ``MAX_SWEEPS`` sweeps and steps.
    A matrix is validated only on a cache miss: the key holds its shape and bytes,
    so a hit is a matrix that was validated when it was solved.  A stack is
    validated and solved on every call (``_eig``).
    """
    return _eig(np.asarray(op, dtype=np.complex128), validated=False)


def _eig(arr: np.ndarray, validated: bool) -> SpectralDecomposition:
    """The solve of an operator (d, d) or of each of a stack (n, d, d), validated first
    (``_require``, at path "operator") unless the caller already has.  A matrix is
    shared through the bounded cache, and validated and solved only on a miss; a stack
    is solved directly in one ``_jacobi`` call, and never cached."""
    key = repr(arr.shape).encode() + arr.tobytes() if arr.ndim == 2 else None
    hit = _EIG_CACHE.get(key) if key is not None else None
    if hit is not None:
        return hit
    dec = SpectralDecomposition(*_jacobi(arr if validated
                                         else _require(arr, "operator", "hermitian")))
    if key is not None:
        if len(_EIG_CACHE) >= _EIG_CACHE_CAP:
            del _EIG_CACHE[next(iter(_EIG_CACHE))]  # evict the oldest entry
        _EIG_CACHE[key] = dec
    return dec


def tensor(a, b) -> np.ndarray:
    """Kronecker product; of each matching pair of two stacks of matrices (..., m, m)
    as well."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if a.ndim <= 2 and b.ndim <= 2:
        return np.kron(a, b)
    if min(a.ndim, b.ndim) < 2:
        raise DimensionMismatch(f"a stack pairs only with matrices, not {a.shape}, {b.shape}")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3],
                                         out.shape[-2] * out.shape[-1]))


def partial_trace(m, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator on dims (dA, dB).

    ``keep`` selects the surviving factor, "A" or "B".
    """
    if keep not in ("A", "B"):
        raise DimensionMismatch(f"keep must be 'A' or 'B', got {keep!r}")
    return _marginals(require_square(m), dims)["AB".index(keep)]


def _marginals(m: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The reduced operators on A and on B of a bipartite operator on dims (dA, dB),
    or of each operator of a stack (..., dA dB, dA dB)."""
    da, db = int(dims[0]), int(dims[1])
    if m.shape[-1] != da * db:
        raise DimensionMismatch(f"operator of size {m.shape[-1]} does not factor as {da}x{db}")
    four = m.reshape(m.shape[:-2] + (da, db, da, db))
    return np.einsum("...ibjb->...ij", four), np.einsum("...aiaj->...ij", four)


def dephase(rho, basis: SpectralDecomposition) -> np.ndarray:
    """Remove coherences between the eigenspaces of ``basis``; of a state (d, d), or
    of each state of a stack (n, d, d) in the matching decomposition of a stacked
    ``basis``.

    Populations are preserved.  The result is V (M * V^dag rho V) V^dag, M the
    mask of the entries within one eigenspace block, so it does not depend on
    the orientation of eigenvectors inside a cluster.
    """
    return _dephase(_require(rho, "rho", "hermitian"), basis)


def _require_basis_size(rho: np.ndarray, basis: SpectralDecomposition) -> None:
    if rho.shape[-1] != basis.dim:
        raise DimensionMismatch(f"rho of size {rho.shape[-1]} in a basis of size {basis.dim}")


def _dephase(rho: np.ndarray, basis: SpectralDecomposition) -> np.ndarray:
    """``dephase`` of a validated state, or stack of states; only its size is checked."""
    _require_basis_size(rho, basis)
    v, ids = basis.eigenvectors, basis.eigenspaces()[1]
    same = ids[..., :, None] == ids[..., None, :]
    return v @ (same * (dag(v) @ rho @ v)) @ dag(v)


def _dephased_eigenvalues(rho: np.ndarray, basis: SpectralDecomposition) -> np.ndarray:
    """The eigenvalues of ``dephase(rho, basis)`` of a validated state (d, d), or of
    each of a stack (n, d, d), read without forming or solving the dephased state:
    they are those of the blocks V_c^dag rho V_c of the eigenspaces of ``basis``
    (``_blocks``).  Where every block has rank 1 these are the populations; else
    the r x r blocks are solved in one stacked ``_jacobi`` call.  Shape (..., k r),
    the values past a block's rank and a decomposition's count 0, which entropies
    ignore.  Only the state's size is checked.
    """
    _require_basis_size(rho, basis)
    v = _blocks(basis.eigenvectors, basis.eigenspaces()[1])  # (..., k, d, r)
    blocks = dag(v) @ rho[..., None, :, :] @ v
    if v.shape[-1] == 1:
        return blocks[..., 0, 0].real
    return _jacobi(blocks)[0].reshape(blocks.shape[:-3] + (-1,))


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in nats; eigenvalues below EIG_FLOOR contribute zero."""
    return float(_entropies(eig_hermitian(rho).eigenvalues))


def _entropies(vals: np.ndarray) -> np.ndarray:
    """``von_neumann_entropy`` from the eigenvalues of a state (d,), or of each state
    of a stack (..., d): shape (...)."""
    lam = np.where(vals > EIG_FLOOR, vals, 1.0)  # 1 log 1 = 0
    return -np.sum(lam * np.log(lam), axis=-1)


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy S(rho || sigma) in nats.

    Returns ``math.inf`` when the support of rho is not contained in the
    support of sigma.
    """
    return float(_relative_entropies(eig_hermitian(rho), eig_hermitian(sigma)))


def _relative_entropies(r: SpectralDecomposition, s: SpectralDecomposition) -> np.ndarray:
    """``relative_entropy`` from the spectra of rho and sigma, or of each pair of two
    stacked spectra (..., d) and (..., d, d): shape (...)."""
    ov = np.abs(dag(s.eigenvectors) @ r.eigenvectors) ** 2  # ov[j, i] = |<sigma_j|rho_i>|^2
    kernel = s.eigenvalues <= EIG_FLOOR
    mass = np.sum(ov * r.eigenvalues[..., None, :] * kernel[..., :, None], axis=(-2, -1))
    weights = np.where(r.eigenvalues > EIG_FLOOR, r.eigenvalues, 0.0)
    log_s = np.log(np.where(kernel, 1.0, s.eigenvalues))
    term_s = np.einsum("...i,...ji,...j->...", weights, ov, log_s)
    return np.where(mass > 1e-10, math.inf, -_entropies(r.eigenvalues) - term_s)


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
