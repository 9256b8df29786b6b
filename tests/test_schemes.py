import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from qworklab import audit
from qworklab import schemes as sch
from qworklab.errors import (
    DecompositionMismatch,
    DegenerateHamiltonianWarning,
    DegenerateRhoWarning,
    NotPositive,
    TrajectoryBudgetExceeded,
)
from qworklab.linalg import (
    _eigenspaces,
    eig_hermitian,
    max_abs,
    projector,
    random_density,
    random_unitary,
)
from qworklab.scenario import (
    DrivingProtocol,
    Scenario,
    ScenarioBatch,
    mean_energy_change,
    time_reversed,
)

from conftest import (
    H01,
    HADAMARD,
    PLUS,
    SX,
    SZ,
    collective_elements_loop,
    degenerate_hermitian,
    degenerate_w_triple,
    derivative_at_loop,
    haar_unitary_np,
    projector_pairs,
    propagator_loop,
    random_density_np,
    random_hermitian_np,
)

RNG = np.random.default_rng(20240817)


def random_scenario(dim, rng, diagonal_rho=False):
    # oracle-side construction: numpy eigh only
    def herm(spread=1.0):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return (g + g.conj().T) / 2.0 * spread

    h, hf = herm(), herm()
    u = haar_unitary_np(dim, rng)
    if diagonal_rho:
        vecs = np.linalg.eigh(h)[1]
        probs = np.arange(1.0, dim + 1.0) + rng.random(dim)
        probs /= probs.sum()
        rho = (vecs * probs) @ vecs.conj().T
    else:
        rho = random_density_np(dim, rng)
    return Scenario(dim=dim, h_initial=h, h_final=hf, evolution=u, rho=rho)


def tpm_brute_force(s):
    """Independent TPM oracle: numpy eigh, explicit (i, j) enumeration."""
    e_i, v_i = np.linalg.eigh(s.h_initial)
    e_f, v_f = np.linalg.eigh(s.h_final)
    u = s.unitary()
    atoms = {}
    for i in range(s.dim):
        p_i = float((v_i[:, i].conj() @ s.rho @ v_i[:, i]).real)
        for j in range(s.dim):
            amp = v_f[:, j].conj() @ u @ v_i[:, i]
            w = e_f[j] - e_i[i]
            key = round(w, 9)
            atoms[key] = atoms.get(key, 0.0) + p_i * float(np.abs(amp) ** 2)
    return atoms


def assert_matches_atoms(dist, oracle_atoms, atol=1e-10):
    for key, weight in oracle_atoms.items():
        assert abs(dist.weight_at(key, tol=1e-8) - weight) <= atol


# --- work distribution container -------------------------------------------------

def merge_atoms_loop(works, weights, tol=sch.W_MERGE_TOL):
    """Plain-loop reference merge: stable sort, chain adjacent gaps <= tol."""
    order = np.argsort(works, kind="stable")
    works, weights = np.asarray(works, dtype=float)[order], np.asarray(weights)[order]
    out_w, out_p = [], []
    start = 0
    for k in range(1, works.size + 1):
        if k == works.size or works[k] - works[k - 1] > tol:
            out_w.append(np.mean(works[start:k]))
            out_p.append(np.sum(weights[start:k], axis=0))
            start = k
    return np.array(out_w), np.array(out_p)


def test_merge_atoms_chains_and_sums():
    works = [0.0, 9e-10, 1.8e-9, 1.0]
    w, p = sch.merge_atoms(works, [0.2, 0.3, 0.1, 0.4])
    np.testing.assert_allclose(w, [9e-10, 1.0])
    np.testing.assert_allclose(p, [0.6, 0.4])
    _, p = sch.merge_atoms(works, [0.2 + 0.1j, 0.3, 0.1, 0.4 - 0.1j])
    np.testing.assert_allclose(p, [0.6 + 0.1j, 0.4 - 0.1j])
    _, ops = sch.merge_atoms(works, np.array([0.2, 0.3, 0.1, 0.4])[:, None, None] * (SZ + 1j * SX))
    assert ops.shape == (2, 2, 2)
    np.testing.assert_allclose(ops, np.array([0.6, 0.4])[:, None, None] * (SZ + 1j * SX))


_GAPS = st.one_of(st.floats(0.0, 0.99 * sch.W_MERGE_TOL), st.floats(1.01 * sch.W_MERGE_TOL, 2.0))


@given(gaps=st.lists(_GAPS, max_size=40), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["real", "complex", "operators"]))
@settings(max_examples=80, deadline=None)
def test_merge_atoms_matches_loop_oracle(gaps, seed, kind):
    rng = np.random.default_rng(seed)
    works = rng.permutation(rng.uniform(-3.0, 3.0) + np.cumsum([0.0] + gaps))
    shape = (works.size, 2, 2) if kind == "operators" else (works.size,)
    weights = rng.standard_normal(shape)
    if kind != "real":
        weights = weights + 1j * rng.standard_normal(shape)
    w, p = sch.merge_atoms(works, weights)
    w_ref, p_ref = merge_atoms_loop(works, weights)
    assert w.shape == w_ref.shape and p.shape == p_ref.shape
    # summation order may differ from the loop's: allow n rounding steps per sum
    eps = np.finfo(float).eps
    np.testing.assert_allclose(w, w_ref, rtol=0, atol=2 * works.size * eps * np.abs(works).max())
    np.testing.assert_allclose(p, p_ref, rtol=0, atol=2 * works.size * eps * np.abs(weights).sum())


def test_distribution_rejects_bad_normalization():
    with pytest.raises(ValueError):
        sch.WorkDistribution.from_atoms([0.0], [0.5], sch.SchemeId.TPM, False)
    with pytest.raises(ValueError):
        sch.WorkDistribution.from_atoms([0.0, 1.0], [1.5, -0.5], sch.SchemeId.TPM, False)
    # non-finite atoms: a NaN work would absorb its neighbour in the merge, and a NaN
    # weight would be pruned before the sum check
    with pytest.raises(ValueError):
        sch.WorkDistribution.from_atoms([np.nan, 0.5], [0.25, 0.75], sch.SchemeId.TPM, False)
    with pytest.raises(ValueError):
        sch.WorkDistribution.from_atoms([0.0, 1.0], [np.nan, 1.0], sch.SchemeId.TPM, False)
    with pytest.raises(ValueError):
        sch.WorkDistribution.from_atoms([0.0, np.inf], [0.5, 0.5], sch.SchemeId.FCS, True)


def test_tv_distance_merges_supports():
    a = sch.WorkDistribution.from_atoms([0.0, 1.0], [0.5, 0.5], sch.SchemeId.TPM, False)
    b = sch.WorkDistribution.from_atoms([1e-10, 1.0], [0.5, 0.5], sch.SchemeId.TPM, False)
    assert a.tv_distance(b) <= 1e-15


# --- TPM --------------------------------------------------------------------------

def test_tpm_identity_evolution():
    rho = random_density(3, 5)
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    s = Scenario(dim=3, h_initial=h, h_final=h, evolution=np.eye(3, dtype=complex), rho=rho)
    dist, _ = sch.tpm(s)
    assert dist.atoms == [(0.0, pytest.approx(1.0))]


def test_tpm_hadamard_quarters(hadamard_scenario):
    dist, table = sch.tpm(hadamard_scenario)
    assert dist.weight_at(-2.0) == pytest.approx(0.25)
    assert dist.weight_at(0.0) == pytest.approx(0.5)
    assert dist.weight_at(2.0) == pytest.approx(0.25)
    np.testing.assert_allclose(table.weights.sum(), 1.0)


def test_tpm_commuting_case_is_deterministic_zero():
    rho = np.diag([0.3, 0.7]).astype(complex)
    u = np.diag([1.0, np.exp(0.7j)]).astype(complex)
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=u, rho=rho)
    assert sch.tpm(s)[0].atoms == [(0.0, pytest.approx(1.0))]


def test_tpm_against_brute_force_oracle():
    rng = np.random.default_rng(100)
    for dim in (2, 3, 4):
        for _ in range(25):
            s = random_scenario(dim, rng)
            assert_matches_atoms(sch.tpm(s)[0], tpm_brute_force(s))


def test_tpm_degenerate_initial_spectrum_uses_projectors():
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    rng = np.random.default_rng(3)
    s = random_scenario(3, rng)
    s = Scenario(dim=3, h_initial=h, h_final=s.h_final, evolution=s.evolution, rho=s.rho)
    dist, table = sch.tpm(s)
    assert table.weights.shape[0] == 2  # two eigenspaces
    assert abs(sum(p for _, p in dist.atoms) - 1.0) <= 1e-9


# --- operator of work ----------------------------------------------------------

def test_work_operator_identity_and_hadamard(hadamard_scenario):
    h = np.diag([0.0, 1.0]).astype(complex)
    s0 = Scenario(dim=2, h_initial=h, h_final=h, evolution=np.eye(2, dtype=complex),
                  rho=PLUS)
    w_op, dist = sch.work_operator(s0)
    assert max_abs(w_op) <= 1e-12
    assert dist.atoms == [(0.0, pytest.approx(1.0))]

    w_op, dist = sch.work_operator(hadamard_scenario)
    np.testing.assert_allclose(w_op, SX - SZ, atol=1e-12)
    np.testing.assert_allclose(dist.works, [-math.sqrt(2), math.sqrt(2)], atol=1e-9)


def test_work_operator_mean_matches_energy_change_500_scenarios():
    rng = np.random.default_rng(42)
    for _ in range(500):
        s = random_scenario(2, rng)
        _, dist = sch.work_operator(s)
        assert abs(dist.mean() - mean_energy_change(s)) <= 1e-9


# --- FCS ------------------------------------------------------------------------

def fcs_brute_force(s):
    e_i, v_i = np.linalg.eigh(s.h_initial)
    e_f, v_f = np.linalg.eigh(s.h_final)
    u = s.unitary()
    atoms = {}
    for n in range(s.dim):
        for n2 in range(s.dim):
            rho_el = v_i[:, n].conj() @ s.rho @ v_i[:, n2]
            for m in range(s.dim):
                ket = np.outer(v_i[:, n], v_i[:, n2].conj())
                proj_m = np.outer(v_f[:, m], v_f[:, m].conj())
                kernel = np.trace(ket @ u.conj().T @ proj_m @ u)
                w = e_f[m] - (e_i[n] + e_i[n2]) / 2.0
                key = round(w, 9)
                atoms[key] = atoms.get(key, 0.0) + (rho_el * kernel).real
    return atoms


def test_fcs_against_brute_force():
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        for _ in range(15):
            s = random_scenario(dim, rng)
            assert_matches_atoms(sch.fcs_quasiprob(s), fcs_brute_force(s))


def test_fcs_equals_tpm_for_diagonal_states():
    rng = np.random.default_rng(8)
    for _ in range(50):
        s = random_scenario(3, rng, diagonal_rho=True)
        assert sch.fcs_quasiprob(s).tv_distance(sch.tpm(s)[0]) <= 1e-10


def test_fcs_mean_is_energy_change():
    rng = np.random.default_rng(9)
    for _ in range(100):
        s = random_scenario(3, rng)
        assert abs(sch.fcs_quasiprob(s).mean() - mean_energy_change(s)) <= 1e-10


def test_fcs_negativity_instance_exists():
    s = Scenario(dim=2, h_initial=H01, h_final=H01, evolution=HADAMARD, rho=PLUS)
    dist = sch.fcs_quasiprob(s)
    assert dist.is_quasi
    assert dist.min_weight() == pytest.approx(-0.5, abs=1e-12)
    assert dist.weight_at(0.5) == pytest.approx(-0.5, abs=1e-12)


def test_fcs_characteristic_function():
    rng = np.random.default_rng(10)
    s = random_scenario(3, rng)
    q = sch.fcs_quasiprob(s)
    assert sch.fcs_characteristic(s, 0.0) == pytest.approx(1.0, abs=1e-12)
    for u_var in (0.1, 0.5, 1.0, 1.7, 2.4, 3.0):
        direct = sum(p * np.exp(1j * u_var * w) for w, p in q.atoms)
        assert abs(sch.fcs_characteristic(s, u_var) - direct) <= 1e-9
    # derivative at zero: central difference vs i * mean
    h = 1e-4
    deriv = (sch.fcs_characteristic(s, h) - sch.fcs_characteristic(s, -h)) / (2 * h)
    assert abs(deriv - 1j * q.mean()) <= 1e-5


# --- Margenau-Hill ---------------------------------------------------------------

def mh_brute_force_table(s):
    e_i, v_i = np.linalg.eigh(s.h_initial)
    e_f, v_f = np.linalg.eigh(s.h_final)
    u = s.unitary()
    table = np.zeros((s.dim, s.dim))
    for k in range(s.dim):
        pk = np.outer(v_i[:, k], v_i[:, k].conj())
        for m in range(s.dim):
            qm = np.outer(v_f[:, m], v_f[:, m].conj())
            table[k, m] = np.trace(s.rho @ pk @ u.conj().T @ qm @ u).real
    return table


def test_mh_against_brute_force_and_marginals():
    rng = np.random.default_rng(12)
    for _ in range(25):
        s = random_scenario(3, rng)
        table, dist = sch.margenau_hill(s)
        np.testing.assert_allclose(table.weights, mh_brute_force_table(s), atol=1e-11)
        e_i, v_i = np.linalg.eigh(s.h_initial)
        pops = [float((v_i[:, k].conj() @ s.rho @ v_i[:, k]).real) for k in range(3)]
        np.testing.assert_allclose(table.initial_marginal(), pops, atol=1e-10)
        evolved = s.unitary() @ s.rho @ s.unitary().conj().T
        e_f, v_f = np.linalg.eigh(s.h_final)
        pops_f = [float((v_f[:, m].conj() @ evolved @ v_f[:, m]).real) for m in range(3)]
        np.testing.assert_allclose(table.final_marginal(), pops_f, atol=1e-10)
        assert abs(dist.mean() - mean_energy_change(s)) <= 1e-10


def test_mh_diagonal_states_recover_tpm():
    rng = np.random.default_rng(13)
    for _ in range(50):
        s = random_scenario(3, rng, diagonal_rho=True)
        assert sch.margenau_hill(s)[1].tv_distance(sch.tpm(s)[0]) <= 1e-10


def test_mh_extremal_negative_joint_value():
    a, b = math.pi / 3.0, 2.0 * math.pi / 3.0
    psi = np.array([math.cos(b), math.sin(b)], dtype=complex)
    u = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]], dtype=complex)
    s = Scenario(dim=2, h_initial=H01, h_final=H01, evolution=u, rho=projector(psi))
    table, _ = sch.margenau_hill(s)
    assert table.weights.min() == pytest.approx(-0.125, abs=1e-12)


# --- consistent histories ----------------------------------------------------------

def make_ramp(rho, h0=SZ, h1=SZ + 0.7 * SX, tau=1.0, steps=64):
    proto = DrivingProtocol([0.0, tau], [h0, h1], steps)
    return Scenario(dim=2, h_initial=h0, h_final=h1, evolution=proto, rho=rho)


def test_ch_constant_driving_is_delta_at_zero():
    proto = DrivingProtocol([0.0, 1.0], [SZ, SZ])
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=proto, rho=PLUS)
    assert sch.consistent_histories(s, 8).atoms == [(0.0, pytest.approx(1.0))]


def test_ch_requires_protocol_and_budget():
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=HADAMARD, rho=PLUS)
    with pytest.raises(ValueError):
        sch.consistent_histories(s, 4)
    ramp = make_ramp(PLUS)
    with pytest.raises(TrajectoryBudgetExceeded):
        sch.consistent_histories(ramp, 25)


def test_ch_time_reversal_symmetry():
    rho = 0.6 * PLUS + 0.4 * np.diag([0.8, 0.2]).astype(complex)
    s = make_ramp(rho)
    K = 8
    fwd = sch.consistent_histories(s, K)
    rev = sch.consistent_histories(time_reversed(s), K)
    mirrored = sch.WorkDistribution.from_atoms(
        -rev.works, rev.weights, sch.SchemeId.CONSISTENT_HISTORIES, True)
    assert fwd.tv_distance(mirrored) <= 1e-10


def test_ch_moments_converge_to_work_operator():
    rho = 0.6 * PLUS + 0.4 * np.diag([0.8, 0.2]).astype(complex)
    s = make_ramp(rho)
    w_op, _ = sch.work_operator(s)
    targets = [np.trace(rho @ w_op).real, np.trace(rho @ w_op @ w_op).real]
    for k_moment, target in enumerate(targets, start=1):
        errs = [abs(sch.consistent_histories(s, K).moment(k_moment) - target)
                for K in (4, 8, 16)]
        assert errs[1] <= 0.6 * errs[0]
        assert errs[2] <= 0.6 * errs[1]


def test_ch_negativity_instance():
    h0 = -2.0 * SX
    h1 = 2.0 * SZ
    psi = np.array([math.cos(1.1), np.exp(0.5j) * math.sin(1.1)])
    proto = DrivingProtocol([0.0, 2.0], [h0, h1], 32)
    s = Scenario(dim=2, h_initial=h0, h_final=h1, evolution=proto, rho=projector(psi))
    dist = sch.consistent_histories(s, 6)
    assert dist.min_weight() < -0.25


# --- state-dependent scheme -----------------------------------------------------

def test_state_dependent_matches_tpm_on_diagonal_states():
    rng = np.random.default_rng(14)
    for _ in range(50):
        s = random_scenario(3, rng, diagonal_rho=True)
        assert sch.state_dependent(s).tv_distance(sch.tpm(s)[0]) <= 1e-9


def test_state_dependent_mean_and_nonconvexity():
    rng = np.random.default_rng(15)
    for _ in range(100):
        s = random_scenario(3, rng)
        assert abs(sch.state_dependent(s).mean() - mean_energy_change(s)) <= 1e-10
    rho1 = np.diag([1.0, 0.0]).astype(complex)
    rho2 = PLUS
    mk = lambda r: Scenario(dim=2, h_initial=H01, h_final=H01,
                            evolution=np.eye(2, dtype=complex), rho=r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateRhoWarning)
        d1, d2 = sch.state_dependent(mk(rho1)), sch.state_dependent(mk(rho2))
    d_mix = sch.state_dependent(mk(0.5 * rho1 + 0.5 * rho2))
    blend = sch.WorkDistribution.from_atoms(
        np.concatenate([d1.works, d2.works]),
        np.concatenate([0.5 * d1.weights, 0.5 * d2.weights]),
        sch.SchemeId.STATE_DEPENDENT, True)
    assert d_mix.tv_distance(blend) > 1e-3


def test_state_dependent_warns_on_degenerate_rho():
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=HADAMARD,
                 rho=np.eye(2, dtype=complex) / 2.0)
    with pytest.warns(DegenerateRhoWarning):
        sch.state_dependent(s)


# --- sub-ensemble ----------------------------------------------------------------

def test_sub_ensemble_energy_eigenstate_decomposition():
    h = np.diag([0.0, 1.0]).astype(complex)
    rho = np.diag([0.4, 0.6]).astype(complex)
    s = Scenario(dim=2, h_initial=h, h_final=h, evolution=np.eye(2, dtype=complex), rho=rho)
    dist = sch.distribution(sch.SchemeId.SUB_ENSEMBLE, s)
    assert dist.atoms == [(0.0, pytest.approx(1.0))]


def test_sub_ensemble_mean_is_decomposition_independent():
    rng = np.random.default_rng(16)
    for trial in range(50):
        s = random_scenario(3, rng)
        target = mean_energy_change(s)
        spec = sch.distribution(sch.SchemeId.SUB_ENSEMBLE, s)
        rand = sch.sub_ensemble(s, sch.random_pure_decomposition(s.rho, 5, trial))
        assert abs(spec.mean() - target) <= 1e-10
        assert abs(rand.mean() - target) <= 1e-10


def test_sub_ensemble_distributions_depend_on_decomposition():
    u = np.array([[math.cos(math.pi / 8), -math.sin(math.pi / 8)],
                  [math.sin(math.pi / 8), math.cos(math.pi / 8)]], dtype=complex)
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=u,
                 rho=np.eye(2, dtype=complex) / 2.0)
    dz = sch.sub_ensemble(s, sch.PureDecomposition(
        np.array([0.5, 0.5]), np.eye(2, dtype=complex)))
    dx = sch.sub_ensemble(s, sch.PureDecomposition(
        np.array([0.5, 0.5]), np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)))
    assert dz.tv_distance(dx) > 0.5


def test_sub_ensemble_rejects_wrong_decomposition():
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=HADAMARD, rho=PLUS)
    bad = sch.PureDecomposition(np.array([1.0]), np.array([[1.0, 0.0]], dtype=complex))
    with pytest.raises(DecompositionMismatch):
        sch.sub_ensemble(s, bad)


def test_random_decomposition_reconstructs():
    rng = np.random.default_rng(18)
    for trial in range(20):
        rho = random_density_np(3, rng)
        decomp = sch.random_pure_decomposition(rho, 6, trial)
        assert max_abs(decomp.reconstruct() - rho) <= 1e-12


# --- collective two-copy ----------------------------------------------------------

def test_collective_lambda_zero_is_tpm(hadamard_scenario):
    dist = sch.collective_two_copy(hadamard_scenario, 0.0)
    assert dist.tv_distance(sch.tpm(hadamard_scenario)[0]) <= 1e-12


def test_collective_diagonal_unitary_reproduces_tpm_any_lambda():
    u = np.diag([1.0, np.exp(1.3j)]).astype(complex)
    s = Scenario(dim=2, h_initial=SZ, h_final=np.diag([0.2, 1.9]).astype(complex),
                 evolution=u, rho=PLUS)
    assert sch.lambda_max(s) == 1.0
    for lam in (0.0, 0.37, 1.0):
        dist = sch.collective_two_copy(s, lam)
        assert dist.tv_distance(sch.tpm(s)[0]) <= 1e-12


def test_lambda_max_is_positivity_boundary():
    rng = np.random.default_rng(19)
    for dim, n_scenarios in ((2, 40), (3, 15), (4, 8)):
        found_interior = 0
        for _ in range(n_scenarios):
            s = random_scenario(dim, rng)
            lam = sch.lambda_max(s)
            assert 0.0 <= lam <= 1.0
            sch.collective_povm(s, lam).check(eig_tol=1e-8)
            if lam < 1.0:
                found_interior += 1
                with pytest.raises(NotPositive):
                    sch.collective_two_copy(s, min(1.0, lam + 1e-3))
        assert found_interior > 0


def _assert_off_min_matches_eigvalsh(s):
    factors = sch.collective_factors(s)
    ref = [np.linalg.eigvalsh(off)[0] for off in factors.off_parts]
    assert np.max(np.abs(factors.off_min - ref)) <= 1e-14
    return factors


def test_collective_off_min_matches_eigvalsh():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4, 16, 64):
        _assert_off_min_matches_eigvalsh(random_scenario(dim, rng))


def test_collective_off_min_edge_cases_are_exact():
    rng = np.random.default_rng(32)
    ladder = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    final = np.diag([0.3, 1.4, 2.2, 3.7]).astype(complex)
    phases = np.diag(np.exp(1j * rng.random(2)))
    # H, H_final diagonal: t is a column of U, so U's blocks fix t's zero pattern
    s = Scenario(dim=4, h_initial=ladder, h_final=final,
                 evolution=block_diag(HADAMARD, phases), rho=random_density_np(4, rng))
    off_min = _assert_off_min_matches_eigvalsh(s).off_min
    assert np.array_equal(off_min[:2], [-abs(HADAMARD[0, 0]) ** 2] * 2)  # equal top weights
    assert np.array_equal(off_min[2:], [0.0, 0.0])  # a single nonzero component: T^off = 0
    # a zero component in t with distinct nonzero weights
    s = Scenario(dim=4, h_initial=ladder, h_final=final,
                 evolution=block_diag(haar_unitary_np(3, rng), phases[:1, :1]),
                 rho=random_density_np(4, rng))
    off_min = _assert_off_min_matches_eigvalsh(s).off_min
    assert np.all(off_min[:3] < 0.0) and off_min[3] == 0.0
    # d = 1: t has one component
    s = Scenario(dim=1, h_initial=[[1.0]], h_final=[[2.0]], evolution=[[1.0]], rho=[[1.0]])
    assert np.array_equal(_assert_off_min_matches_eigvalsh(s).off_min, [0.0])


def test_collective_degenerate_final_eigenspace_takes_the_jacobi_branch():
    rng = np.random.default_rng(33)
    for dim in (3, 4):
        h = random_hermitian_np(dim, rng)
        s = Scenario(dim=dim, h_initial=h, h_final=degenerate_hermitian(dim, rng),
                     evolution=haar_unitary_np(dim, rng), rho=random_density_np(dim, rng))
        factors = _assert_off_min_matches_eigvalsh(s)
        assert len(factors.final_energies) == dim - 1  # one two-fold eigenspace
        sch.collective_povm(s).check(eig_tol=1e-8)


def test_collective_warns_when_its_basis_is_the_solvers_choice():
    # H = diag(0, 0, 1) and a rotation w inside its degenerate block: w H w^dag = H
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    rng = np.random.default_rng(38)
    hf, u, rho = random_hermitian_np(3, rng), haar_unitary_np(3, rng), random_density_np(3, rng)
    w = block_diag(haar_unitary_np(2, rng), 1.0)
    rot = lambda m: w @ m @ w.conj().T
    s = Scenario(dim=3, h_initial=h, h_final=hf, evolution=u, rho=rho)
    t = Scenario(dim=3, h_initial=h, h_final=rot(hf), evolution=rot(u), rho=rot(rho))
    two_copy = []
    for scenario in (s, t):
        with pytest.warns(DegenerateHamiltonianWarning):
            two_copy.append(sch.collective_two_copy(scenario))
    # the two are the same experiment: TPM agrees, the two-copy scheme does not
    assert sch.tpm(s)[0].tv_distance(sch.tpm(t)[0]) <= 1e-12
    assert two_copy[0].tv_distance(two_copy[1]) > 1e-3


def test_collective_warns_on_no_sampled_scenario_or_audit_probe():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateHamiltonianWarning)
        for dim in (2, 3):
            for check in (audit.check_c1_linearity, audit.check_c2, audit.check_c3):
                check(sch.SchemeId.COLLECTIVE_TWO_COPY, dim, 10, 0)
            audit.check_collective_adapted(dim, 10, 0)


def test_collective_factor_positivity_matches_full_diagonalisation():
    rng = np.random.default_rng(34)
    for dim in (2, 3, 4):
        for _ in range(3):
            s = random_scenario(dim, rng)
            for lam in (0.0, 0.5 * sch.lambda_max(s), "auto"):
                factors = sch.collective_factors(s, lam)
                assert abs(factors.min_eigenvalue() - factors.povm().min_eigenvalue()) <= 1e-14


def test_collective_completeness_defect_matches_the_built_elements():
    rng = np.random.default_rng(37)
    for dim in (2, 3, 4):
        for _ in range(3):
            factors = sch.collective_factors(audit.sample_scenario(dim, rng))
            assert factors.completeness_defect() <= 1e-13
            assert factors.povm().completeness_defect() <= 1e-13
            # deliberately incomplete: every sum_j F_ij - I is 0.01 I
            short = replace(factors, diag_parts=1.01 * factors.diag_parts)
            assert short.completeness_defect() == pytest.approx(
                short.povm().completeness_defect(), rel=1e-12)


def test_collective_hadamard_improves_first_law_gap(hadamard_scenario):
    target = mean_energy_change(hadamard_scenario)
    gap_tpm = abs(sch.tpm(hadamard_scenario)[0].mean() - target)
    povm = sch.collective_povm(hadamard_scenario, "auto")
    dist = sch.collective_two_copy(hadamard_scenario, "auto")
    povm.check()
    assert len(povm.ops) == 4
    assert abs(dist.mean() - target) < gap_tpm
    assert gap_tpm == pytest.approx(1.0, abs=1e-12)


def test_collective_povm_on_two_copies_completeness():
    rng = np.random.default_rng(22)
    s = random_scenario(3, rng)
    povm = sch.collective_povm(s, "auto")
    total = sum(op for op in povm.ops)
    assert max_abs(total - np.eye(9)) <= 1e-10


def test_collective_povm_elements_match_the_kron_loop():
    rng = np.random.default_rng(35)
    for dim in (2, 3, 4):
        degenerate = Scenario(dim=dim, h_initial=random_hermitian_np(dim, rng),
                              h_final=degenerate_hermitian(dim, rng),
                              evolution=haar_unitary_np(dim, rng), rho=random_density_np(dim, rng))
        for s in (random_scenario(dim, rng), degenerate):
            for lam in (0.0, "auto"):
                factors = sch.collective_factors(s, lam)
                povm = factors.povm()
                assert np.array_equal(povm.ops, collective_elements_loop(factors))
                assert povm.labels.shape == (len(povm.ops),)
        assert len(sch.collective_factors(degenerate).final_energies) == dim - 1


def test_collective_povm_labels_are_the_tpm_work_values():
    rng = np.random.default_rng(36)
    for dim in (2, 3, 4):
        for _ in range(3):
            s = audit.sample_scenario(dim, rng)
            assert np.array_equal(sch.collective_povm(s).labels, sch.tpm(s)[1].work_values.ravel())


def test_povm_probabilities_match_the_per_element_trace():
    rng = np.random.default_rng(37)
    for dim in (2, 3, 4):
        s = random_scenario(dim, rng)
        rho2 = np.kron(s.rho, s.rho)
        for povm, rho in ((sch.tpm_povm(s), s.rho), (sch.collective_povm(s), rho2)):
            ref = [np.trace(rho @ op).real for op in povm.ops]
            assert np.max(np.abs(povm.probabilities(rho) - ref)) <= 1e-15


def test_collective_closed_form_matches_two_copy_trace():
    # oracle: Tr(M_ij rho (x) rho) from the explicit d^2 x d^2 elements
    rng = np.random.default_rng(26)
    for dim in (2, 3, 4):
        for _ in range(4):
            s = random_scenario(dim, rng)
            work_values = sch.tpm(s)[1].work_values
            rho2 = np.kron(s.rho, s.rho)
            lam_max = sch.lambda_max(s)
            for lam in (0.0, 0.5 * lam_max, lam_max):
                povm = sch.collective_povm(s, lam)
                works = work_values.ravel()
                weights = [np.trace(op @ rho2).real for op in povm.ops]
                ref = sch.WorkDistribution.from_atoms(
                    works, weights, sch.SchemeId.COLLECTIVE_TWO_COPY, False)
                dist = sch.collective_two_copy(s, lam)
                assert np.array_equal(dist.works, ref.works)
                assert np.max(np.abs(dist.weights - ref.weights)) <= 1e-12


def test_collective_any_lambda_matches_tpm_on_diagonal_states():
    rng = np.random.default_rng(23)
    for _ in range(20):
        s = random_scenario(3, rng, diagonal_rho=True)
        for lam in (0.0, 0.5 * sch.lambda_max(s), sch.lambda_max(s)):
            dist = sch.collective_two_copy(s, lam)
            assert dist.tv_distance(sch.tpm(s)[0]) <= 1e-9


# --- shared invariants ---------------------------------------------------------------

def test_linear_schemes_are_exactly_convex():
    rng = np.random.default_rng(24)
    mk = None
    for _ in range(25):
        base = random_scenario(3, rng)
        rho1, rho2 = random_density_np(3, rng), random_density_np(3, rng)
        lam = float(rng.uniform(0.1, 0.9))
        scenarios = [Scenario(dim=3, h_initial=base.h_initial, h_final=base.h_final,
                              evolution=base.evolution, rho=r)
                     for r in (lam * rho1 + (1 - lam) * rho2, rho1, rho2)]
        for fn in (lambda s: sch.tpm(s)[0],
                   lambda s: sch.work_operator(s)[1],
                   sch.fcs_quasiprob,
                   lambda s: sch.margenau_hill(s)[1]):
            d_mix, d1, d2 = (fn(s) for s in scenarios)
            blend = sch.WorkDistribution.from_atoms(
                np.concatenate([d1.works, d2.works]),
                np.concatenate([lam * d1.weights, (1 - lam) * d2.weights]),
                d_mix.scheme, True)
            assert d_mix.tv_distance(blend) <= 1e-10


def test_every_scheme_normalizes_to_one():
    rng = np.random.default_rng(25)
    s = random_scenario(3, rng)
    dists = [
        sch.tpm(s)[0],
        sch.work_operator(s)[1],
        sch.fcs_quasiprob(s),
        sch.margenau_hill(s)[1],
        sch.state_dependent(s),
        sch.distribution(sch.SchemeId.SUB_ENSEMBLE, s),
        sch.collective_two_copy(s, "auto"),
    ]
    ramp = make_ramp(PLUS)
    dists.append(sch.consistent_histories(ramp, 6))
    for dist in dists:
        assert abs(float(dist.weights.sum()) - 1.0) <= 1e-9


# --- stacked eigenspaces against per-atom loop references ---------------------------
#
# Each reference below is the one-atom-at-a-time form of a scheme, built on the
# (label, projector) pairs of ``projector_pairs``.  The sub-ensemble scheme keeps
# the per-state vector products, so it must match its reference exactly; the others
# read eigenvector blocks and sum in another order (1e-14).

def work_operator_loop(s):
    u = s.unitary()
    w_op = u.conj().T @ s.h_final @ u - s.h_initial
    w_op = (w_op + w_op.conj().T) / 2.0
    works, weights = [], []
    dec = eig_hermitian(w_op)
    for val, proj in projector_pairs(dec):
        works.append(val)
        weights.append(float(np.trace(proj @ s.rho).real))
    return sch.WorkDistribution.from_atoms(works, weights, sch.SchemeId.OPERATOR_OF_WORK, False)


def state_dependent_loop(s):
    dec_rho = eig_hermitian(s.rho)
    u = s.unitary()
    works, weights = [], []
    for lam, phi in zip(dec_rho.eigenvalues, dec_rho.eigenvectors.T):
        if lam <= sch.EIG_FLOOR:
            continue
        e_a = float((np.conj(phi) @ s.h_initial @ phi).real)
        evolved = u @ phi
        for e_j, q in projector_pairs(eig_hermitian(s.h_final)):
            works.append(e_j - e_a)
            weights.append(float(lam) * float((np.conj(evolved) @ q @ evolved).real))
    return sch.WorkDistribution.from_atoms(works, weights, sch.SchemeId.STATE_DEPENDENT, False)


def spectral_decomposition_loop(rho):
    """The sub-ensemble scheme's default decomposition: rho's eigenstates above
    ``EIG_FLOOR``, their weights normalised."""
    dec = eig_hermitian(rho)
    keep = dec.eigenvalues > sch.EIG_FLOOR
    weights = dec.eigenvalues[keep]
    return sch.PureDecomposition(weights / weights.sum(), dec.eigenvectors[:, keep].T)


def sub_ensemble_loop(s, decomp):
    u = s.unitary()
    h_evolved = u.conj().T @ s.h_final @ u
    works = [float((np.conj(psi) @ h_evolved @ psi).real)
             - float((np.conj(psi) @ s.h_initial @ psi).real) for psi in decomp.states]
    return sch.WorkDistribution.from_atoms(works, decomp.weights, sch.SchemeId.SUB_ENSEMBLE,
                                           False)


def consistent_histories_loop(s, k_steps):
    """Plain-loop reference histories."""
    protocol = s.evolution
    dt = protocol.duration / k_steps
    x_ops = []
    for t_j in (protocol.duration * j / k_steps for j in range(1, k_steps)):
        u_j = propagator_loop(protocol, t_j)
        x_op = u_j.conj().T @ derivative_at_loop(protocol, t_j) @ u_j
        x_ops.append((x_op + x_op.conj().T) / 2.0)
    prods = np.eye(s.dim, dtype=complex)[None]
    works = np.zeros(1)
    for dec in map(eig_hermitian, x_ops):
        clusters = projector_pairs(dec)
        prods = np.concatenate([np.einsum("ij,njk->nik", proj, prods) for _, proj in clusters])
        works = np.concatenate([works + val * dt for val, _ in clusters])
    weights = np.einsum("nij,ji->n", prods, s.rho).real
    return sch.WorkDistribution.from_atoms(works, weights, sch.SchemeId.CONSISTENT_HISTORIES,
                                           True)


def loop_reference_scenarios(kind, driven=False):
    """One scenario per d = 2, 3, 4: generic, with a degenerate H_final, or a degenerate W."""
    rng = np.random.default_rng({"generic": 71, "degenerate-final": 72, "degenerate-w": 73}[kind])
    out = []
    for dim in (2, 3, 4):
        h, hf, u = random_hermitian_np(dim, rng), random_hermitian_np(dim, rng), None
        if kind == "degenerate-final":
            hf = degenerate_hermitian(dim, rng)
        elif kind == "degenerate-w":
            h, hf, u = degenerate_w_triple(dim, rng)
        evolution = (DrivingProtocol([0.0, 1.0], [h, hf], 16) if driven
                     else haar_unitary_np(dim, rng) if u is None else u)
        out.append(Scenario(dim=dim, h_initial=h, h_final=hf, evolution=evolution,
                            rho=random_density_np(dim, rng)))
    return out


def assert_same_atoms(got, ref, atol=1e-14):
    assert got.works.shape == ref.works.shape
    np.testing.assert_allclose(got.works, ref.works, rtol=0, atol=atol)
    np.testing.assert_allclose(got.weights, ref.weights, rtol=0, atol=atol)


LOOP_KINDS = ["generic", "degenerate-final", "degenerate-w"]


@pytest.mark.parametrize("kind", LOOP_KINDS)
def test_work_operator_matches_the_loop_reference(kind):
    for s in loop_reference_scenarios(kind):
        assert_same_atoms(sch.work_operator(s)[1], work_operator_loop(s))


@pytest.mark.parametrize("kind", LOOP_KINDS)
def test_state_dependent_matches_the_loop_reference(kind):
    for s in loop_reference_scenarios(kind):
        assert_same_atoms(sch.state_dependent(s), state_dependent_loop(s))


@pytest.mark.parametrize("kind", LOOP_KINDS)
def test_sub_ensemble_matches_the_loop_reference(kind):
    for s in loop_reference_scenarios(kind):
        assert_same_atoms(sch.distribution(sch.SchemeId.SUB_ENSEMBLE, s),
                          sub_ensemble_loop(s, spectral_decomposition_loop(s.rho)), atol=0.0)
        decomp = sch.random_pure_decomposition(s.rho, s.dim + 2, seed=9)
        assert_same_atoms(sch.sub_ensemble(s, decomp), sub_ensemble_loop(s, decomp), atol=0.0)


@pytest.mark.parametrize("kind", LOOP_KINDS)
def test_consistent_histories_matches_the_loop_reference(kind):
    for s in loop_reference_scenarios(kind, driven=True):
        assert_same_atoms(sch.consistent_histories(s, 5), consistent_histories_loop(s, 5))


def test_consistent_histories_mean_matches_the_enumeration():
    cases = [(s, k) for kind in LOOP_KINDS for s in loop_reference_scenarios(kind, driven=True)
             for k in (2, 5, 8)]
    cases.append((audit._probe_ch_c2(2)[0], 16))
    for s, k in cases:
        assert sch.consistent_histories_means(ScenarioBatch.of([s]), k)[0] == pytest.approx(
            sch.consistent_histories(s, k).mean(), rel=0, abs=1e-12)


def rotating_degenerate_blocks(mp, rng):
    """Patch ``schemes._jacobi`` so that it turns the columns of each eigenspace of rank
    > 1 it returns by a Haar unitary of their own; returns the ranks it turned."""
    solve, turned = sch._jacobi, []

    def rotating(a):
        vals, vecs = solve(a)
        d = vals.shape[-1]
        vecs = vecs.reshape(-1, d, d).copy()
        for v, ids in zip(vecs, _eigenspaces(vals.reshape(-1, d))[1]):
            for c in np.unique(ids):
                cols = np.flatnonzero(ids == c)
                if len(cols) > 1:
                    v[:, cols] = v[:, cols] @ haar_unitary_np(len(cols), rng)
                    turned.append(len(cols))
        return vals, vecs.reshape(np.shape(a))

    mp.setattr(sch, "_jacobi", rotating)
    return turned


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_ch_atoms_ignore_rotations_inside_degenerate_eigenspaces(seed):
    """The d = 4 negativity probe, whose X(t_j) have a rank-2 eigenspace, on a full-rank
    state: every history through that block carries weight, and its atoms do not move
    when the solver hands back that block's columns in another orientation."""
    rng = np.random.default_rng(seed)
    rho = random_density_np(4, rng)
    ref = sch.consistent_histories(audit._probe_ch_negativity(4).with_rho(rho), 4)
    with pytest.MonkeyPatch.context() as mp:
        turned = rotating_degenerate_blocks(mp, rng)
        got = sch.consistent_histories(audit._probe_ch_negativity(4).with_rho(rho), 4)
    assert turned == [2, 2, 2]  # one rank-2 block at each of the K - 1 = 3 grid times
    assert_same_atoms(got, ref)


# --- a change of basis --------------------------------------------------------------

@pytest.mark.parametrize("driven", [False, True], ids=["unitary", "driven"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_every_scheme_is_invariant_under_a_change_of_basis(dim, driven):
    """H, H_final, the evolution and rho all conjugated by one Haar unitary v."""
    schemes = [sc for sc in sch.SchemeId
               if driven or sc is not sch.SchemeId.CONSISTENT_HISTORIES]
    for seed in range(20):
        rng = np.random.default_rng([seed, dim])
        s = audit.sample_scenario(dim, rng, coherent=True, driven=driven)
        v = haar_unitary_np(dim, rng)
        rot = lambda m: v @ m @ v.conj().T  # a matrix, or each matrix of a stack
        p = s.evolution
        evolution = (DrivingProtocol(p.times, rot(p.hamiltonians), p.steps_per_segment)
                     if driven else rot(p))
        t = Scenario(dim=dim, h_initial=rot(s.h_initial), h_final=rot(s.h_final),
                     evolution=evolution, rho=rot(s.rho))
        for scheme in schemes:
            got, ref = (sch.distribution(scheme, x, k_steps=4) for x in (t, s))
            assert got.tv_distance(ref) <= 1e-10, scheme
