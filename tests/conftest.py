import numpy as np
import pytest
import scipy.linalg

from qworklab.linalg import DEGENERACY_GAP
from qworklab.scenario import _TIME_MATCH_TOL, Scenario

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
H01 = np.diag([0.0, 1.0]).astype(complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


@pytest.fixture
def hadamard_scenario():
    return Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=HADAMARD,
                    rho=PLUS, label="hadamard-plus")


def random_hermitian_np(dim, rng, spread=1.0):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * spread
    return (g + g.conj().T) / 2.0


def haar_unitary_np(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_np(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


def projector_pairs(dec, gap=DEGENERACY_GAP):
    """Plain-loop reference eigenspaces: (mean eigenvalue, projector) per run of
    ascending eigenvalues whose adjacent gaps are <= gap."""
    vals, vecs = dec.eigenvalues, dec.eigenvectors
    pairs, start = [], 0
    for k in range(1, vals.size + 1):
        if k == vals.size or vals[k] - vals[k - 1] > gap:
            block = vecs[:, start:k]
            pairs.append((float(np.mean(vals[start:k])), block @ block.conj().T))
            start = k
    return pairs


_DEGENERATE_LEVELS = np.array([1.0, 1.0, 2.0, 3.0])  # first dim of them: one two-fold level


def degenerate_hermitian(dim, rng):
    """diag(1, 1, 2, 3)[:dim] in a random basis: a two-fold degenerate eigenspace."""
    v = haar_unitary_np(dim, rng)
    return (v * _DEGENERATE_LEVELS[:dim]) @ v.conj().T


def degenerate_w_triple(dim, rng):
    """(H, H_final, U) sharing one random eigenbasis, with U^dag H_final U - H degenerate.

    H is a non-degenerate ladder and U^dag H_final U - H = diag(1, 1, 2, 3)[:dim]
    in that basis.
    """
    v = haar_unitary_np(dim, rng)

    def rotate(diag):
        return (v * diag) @ v.conj().T

    ladder = np.arange(dim, dtype=float)
    return (rotate(ladder), rotate(ladder + _DEGENERATE_LEVELS[:dim]),
            rotate(np.exp(1j * rng.random(dim))))


def collective_elements_loop(factors):
    """Plain-loop reference two-copy elements, i-major: kron(|v_i><v_i|, d_ij I + lam T_j^off)
    for each initial eigenvector v_i and final eigenspace j."""
    d, k = factors.diag_parts.shape
    eye = np.eye(d, dtype=complex)
    return np.array([np.kron(np.outer(factors.basis[:, i], factors.basis[:, i].conj()),
                             factors.diag_parts[i, j] * eye + factors.lam * factors.off_parts[j])
                     for i in range(d) for j in range(k)])


def hamiltonian_at_loop(protocol, t):
    """Plain-loop reference interpolation at one time: the segment whose end is the
    first breakpoint at or after t; times outside [0, tau] take the nearer endpoint."""
    times, hams = protocol.times, protocol.hamiltonians
    if t <= times[0]:
        return hams[0]
    if t >= times[-1]:
        return hams[-1]
    for i in range(1, len(times)):
        if t <= times[i]:
            lam = (t - times[i - 1]) / (times[i] - times[i - 1])
            return (1.0 - lam) * hams[i - 1] + lam * hams[i]
    return hams[-1]


def derivative_at_loop(protocol, t):
    """Plain-loop reference derivative at one time: the mean slope of the segments
    that contain t or end within the time tolerance of it."""
    times, hams = protocol.times, protocol.hamiltonians
    tol = _TIME_MATCH_TOL * max(1.0, protocol.duration)
    hits = []
    for i in range(1, len(times)):
        t0, t1 = times[i - 1], times[i]
        if t0 - tol <= t <= t1 + tol and (abs(t - t0) <= tol or abs(t - t1) <= tol
                                          or t0 < t < t1):
            hits.append((hams[i] - hams[i - 1]) / (t1 - t0))
    if not hits:
        raise ValueError(f"time {t} outside protocol range")
    return sum(hits[1:], start=hits[0]) / len(hits)


def exp_factor(h, dt):
    """Reference exp(-i h dt) from ``scipy.linalg.expm``, independent of the program."""
    return scipy.linalg.expm(-1j * dt * h)


def substep_mesh_loop(protocol):
    """Reference substep mesh and propagators U(t) on it, from U(0) = I: one
    ``exp_factor`` per midpoint, in time order."""
    u = np.eye(protocol.dim, dtype=complex)
    times, unitaries = [0.0], [u]
    for t0, t1 in zip(protocol.times, protocol.times[1:]):
        h = (t1 - t0) / protocol.steps_per_segment
        for k in range(protocol.steps_per_segment):
            u = exp_factor(protocol.hamiltonian_at(t0 + (k + 0.5) * h), h) @ u
            times.append(t0 + (k + 1) * h)
            unitaries.append(u)
    return np.array(times), np.array(unitaries)


def partial_factor_loop(protocol, t_m, u_m, t):
    """Reference U(t) from U(t_m) = u_m at a mesh time t_m before t: one midpoint
    factor exp(-i H((t_m + t)/2)(t - t_m))."""
    return exp_factor(protocol.hamiltonian_at((t_m + t) / 2), t - t_m) @ u_m


def propagator_loop(protocol, t):
    """Reference U(t): the loop propagator at the last mesh time within the time
    tolerance of t, or before it, and a partial factor when that is more than the
    tolerance before t."""
    times, unitaries = substep_mesh_loop(protocol)
    tol = _TIME_MATCH_TOL * max(1.0, protocol.duration)
    m = max(i for i, t_i in enumerate(times) if t_i <= t + tol)
    if t - times[m] <= tol:
        return unitaries[m]
    return partial_factor_loop(protocol, times[m], unitaries[m], t)
