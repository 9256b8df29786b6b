import math

import numpy as np
import pytest

from qworklab import linalg as la
from qworklab import thermo as th
from qworklab.errors import DegenerateHamiltonianWarning, DimensionMismatch, ValidationError
from qworklab.linalg import max_abs, relative_entropy

from conftest import PLUS, SZ, haar_unitary_np, random_density_np

RNG = np.random.default_rng(515)


def random_context(rng, dim=2):
    vals = np.sort(rng.uniform(0.0, 2.0, dim))
    vals += np.arange(dim) * 0.2  # keep the spectrum non-degenerate
    u = haar_unitary_np(dim, rng)
    h = (u * vals) @ u.conj().T
    return th.ThermalContext(float(rng.uniform(0.2, 3.0)), h)


def test_beta_range_is_enforced():
    with pytest.raises(ValueError):
        th.ThermalContext(0.0, SZ)
    with pytest.raises(ValueError):
        th.ThermalContext(1e7, SZ)


def test_equilibrium_free_energy_is_minus_log_partition():
    ctx = th.ThermalContext(1.3, SZ)
    tau = ctx.gibbs_state()
    assert th.free_energy(tau, ctx) == pytest.approx(-ctx.log_partition() / 1.3, abs=1e-12)


def test_pure_ground_state_free_energy_zero():
    ctx = th.ThermalContext(0.7, np.diag([0.0, 2.0]).astype(complex))
    assert th.free_energy(np.diag([1.0, 0.0]).astype(complex), ctx) == pytest.approx(0.0, abs=1e-12)


def test_free_energy_difference_equals_relative_entropy():
    for _ in range(200):
        ctx = random_context(RNG, dim=int(RNG.integers(2, 5)))
        rho = random_density_np(ctx.hamiltonian.shape[0], RNG)
        lhs = th.free_energy(rho, ctx) - th.free_energy(ctx.gibbs_state(), ctx)
        wmax = th.max_extractable_work(rho, ctx)
        assert abs(lhs - wmax) <= 1e-10
        assert abs(wmax - relative_entropy(rho, ctx.gibbs_state()) / ctx.beta) <= 1e-10


def test_max_extractable_work_examples():
    ctx = th.ThermalContext(1.0, SZ)
    assert abs(th.max_extractable_work(ctx.gibbs_state(), ctx)) <= 1e-10
    beta, energy = 0.7, 2.0
    ctx = th.ThermalContext(beta, np.diag([0.0, energy]).astype(complex))
    expected = math.log(1.0 + math.exp(-beta * energy)) / beta
    got = th.max_extractable_work(np.diag([1.0, 0.0]).astype(complex), ctx)
    assert got == pytest.approx(expected, abs=1e-12)


def test_work_nonnegative_zero_iff_thermal_1000_draws():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        ctx = random_context(rng)
        rho = random_density_np(2, rng)
        w = th.max_extractable_work(rho, ctx)
        assert w >= -1e-10
        if w <= 1e-9:
            assert max_abs(rho - ctx.gibbs_state()) <= 1e-4


def test_dephasing_never_increases_extractable_work():
    rng = np.random.default_rng(78)
    for _ in range(300):
        ctx = random_context(rng)
        rho = random_density_np(2, rng)
        assert th.max_extractable_work(rho, ctx) >= \
            th.max_extractable_work(th.dephased(rho, ctx), ctx) - 1e-10


def test_asymmetry_examples_and_cross_check():
    ctx = th.ThermalContext(1.0, SZ)
    assert abs(th.asymmetry(np.diag([0.3, 0.7]).astype(complex), ctx)) <= 1e-12
    assert th.asymmetry(PLUS, ctx) == pytest.approx(math.log(2), abs=1e-10)
    rng = np.random.default_rng(79)
    for _ in range(100):
        ctx = random_context(rng, dim=3)
        rho = random_density_np(3, rng)
        entropic = th.asymmetry(rho, ctx)
        relent = relative_entropy(rho, th.dephased(rho, ctx))
        assert abs(entropic - relent) <= 1e-10


def test_asymmetry_validates_rho_once_at_its_path(monkeypatch):
    ctx = random_context(np.random.default_rng(80), dim=3)
    rho = random_density_np(3, np.random.default_rng(81))
    calls = []
    original = la._require

    def record(m, name, kind, ndim=None):
        calls.append(name)
        return original(m, name, kind, ndim)

    for module in (la, th):
        monkeypatch.setattr(module, "_require", record)
    la._EIG_CACHE.clear()  # a miss: the solve takes the state as validated
    th.asymmetry(rho, ctx)
    assert calls == ["rho"]
    bad = rho.copy()
    bad[0, 1] += 1e-3
    for name in ("asymmetry", "free_energy", "measurement_work_loss"):
        with pytest.raises(ValidationError) as err:
            getattr(th, name)(bad, ctx)
        assert err.value.kind == "NotHermitian"
        assert err.value.path == ("rho" if name == "asymmetry" else "state")


def test_free_energy_decomposition_sums_1000_draws():
    rng = np.random.default_rng(80)
    for _ in range(1000):
        ctx = random_context(rng)
        rho = random_density_np(2, rng)
        diag_part, coherent = th.free_energy_decomposition(rho, ctx)
        total = th.free_energy(rho, ctx) - th.free_energy(ctx.gibbs_state(), ctx)
        assert abs(diag_part + coherent - total) <= 1e-10


def test_suite_and_free_energy_decomposition_share_one_formula(monkeypatch):
    calls = []
    original = th._decomposition_terms

    def record(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(th, "_decomposition_terms", record)
    th.identity_suite(6, seed=2)
    assert calls and all(rho.ndim == 3 for rho, _, _ in calls)
    rng = np.random.default_rng(81)
    ctx = random_context(rng, 3)
    rho = random_density_np(3, rng)
    calls.clear()
    parts = th.free_energy_decomposition(rho, ctx)
    assert len(calls) == 1
    # the public value is the stacked formula on a stack of one
    rho_1, dec_1 = th._states(rho[None], "rho")
    ctx_1 = th._context(np.array([ctx.beta]), ctx.hamiltonian[None])
    stacked = original(rho_1, dec_1, ctx_1)
    np.testing.assert_allclose([v[0] for v in stacked], parts, rtol=0, atol=1e-14)


def test_measurement_work_loss():
    ctx = th.ThermalContext(1.0, SZ)
    assert abs(th.measurement_work_loss(np.diag([0.2, 0.8]).astype(complex), ctx)) <= 1e-12
    assert th.measurement_work_loss(PLUS, ctx) == pytest.approx(math.log(2), abs=1e-10)
    rng = np.random.default_rng(81)
    for _ in range(200):
        ctx = random_context(rng)
        rho = random_density_np(2, rng)
        loss = th.measurement_work_loss(rho, ctx)  # raises if the two paths disagree
        assert loss >= -1e-10
        commutator = max_abs(rho @ ctx.hamiltonian - ctx.hamiltonian @ rho)
        if commutator > 1e-3:
            assert loss > 1e-6


def _entropy_np(probs):
    probs = probs[probs > 1e-14]
    return float(-np.sum(probs * np.log(probs)))


@pytest.mark.parametrize("dim", [16, 32, 64])
@pytest.mark.parametrize("seed", [1, 2])
def test_measurement_work_loss_large_dim_matches_numpy(dim, seed):
    # Haar-rotated ladder with 0.4 jitter and a Wishart state, numpy only;
    # at beta = 1 the Gibbs state has eigenvalues near e^-dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
    u = haar_unitary_np(dim, rng)
    h = (u * (np.arange(dim) + 0.4 * rng.random(dim))) @ u.conj().T
    h = (h + h.conj().T) / 2.0
    rho = random_density_np(dim, rng)
    rho = (rho + rho.conj().T) / 2.0
    ctx = th.ThermalContext(1.0, h)
    vecs = np.linalg.eigh(h)[1]
    pops = np.einsum("ai,ab,bi->i", vecs.conj(), rho, vecs).real
    expected = _entropy_np(pops) - _entropy_np(np.linalg.eigvalsh(rho))
    assert abs(th.measurement_work_loss(rho, ctx) - expected) <= 1e-10


# rank-2 and rank-3 eigenspaces, and none, of H = V diag(ladder) V^dag
LADDERS = np.array([[0.3, 0.3, 1.1, 2.0], [0.0, 0.7, 0.7, 0.7], [0.0, 0.5, 1.2, 1.9]])


def _decomposition_np(rho, h, vecs, ladder, beta):
    """(Delta F(D(rho)), A(rho) / beta), numpy only: D(rho) = sum_e P_e rho P_e over the
    projectors P_e of the distinct levels e of H."""
    cols = [vecs[:, ladder == e] for e in np.unique(ladder)]
    d_rho = sum(c @ c.conj().T @ rho @ c @ c.conj().T for c in cols)
    s_d = _entropy_np(np.linalg.eigvalsh(d_rho))
    log_z = np.log(np.sum(np.exp(-beta * ladder)))
    return (np.trace(h @ d_rho).real - s_d / beta + log_z / beta,
            (s_d - _entropy_np(np.linalg.eigvalsh(rho))) / beta)


def test_free_energy_decomposition_of_degenerate_eigenspaces_matches_numpy():
    rng = np.random.default_rng(86)
    vecs = np.array([haar_unitary_np(4, rng) for _ in LADDERS])
    rhos = np.array([random_density_np(4, rng) for _ in LADDERS])
    betas = rng.uniform(0.3, 2.0, len(LADDERS))
    # the Hamiltonians as identity_suite makes them, a stack validated once
    h = th._require(la.SpectralDecomposition(LADDERS, vecs).reconstruct(), "H", "hermitian")
    expected = np.array([_decomposition_np(*args) for args in zip(rhos, h, vecs, LADDERS, betas)])
    for i in range(len(LADDERS)):
        ctx = th.ThermalContext(betas[i], h[i])
        got = th.free_energy_decomposition(rhos[i], ctx)
        np.testing.assert_allclose(got, expected[i], rtol=0, atol=1e-12)
        assert abs(th.asymmetry(rhos[i], ctx) - betas[i] * expected[i][1]) <= 1e-12
    rho, dec = th._states(rhos, "rho")
    stacked = th._decomposition_terms(rho, dec, th._context(betas, h))
    np.testing.assert_allclose(np.column_stack(stacked), expected, rtol=0, atol=1e-12)


def test_work_loss_of_a_fresh_state_solves_that_state_only(monkeypatch):
    rng = np.random.default_rng(87)
    vecs = haar_unitary_np(6, rng)
    plain, degenerate = (th.ThermalContext(1.0, (vecs * ladder) @ vecs.conj().T)
                         for ladder in ([0.0, 0.4, 1.0, 1.3, 2.0, 2.2], [0, 0, 1, 1, 1, 2]))
    plain.decomposition, degenerate.decomposition  # H solved before the count
    solved = []
    original = la._jacobi
    monkeypatch.setattr(la, "_jacobi", lambda a: solved.append(a.copy()) or original(a))
    rho = random_density_np(6, rng)
    la._EIG_CACHE.clear()
    th.measurement_work_loss(rho, plain)
    assert len(solved) == 1 and np.array_equal(solved[0], rho)
    solved.clear()
    la._EIG_CACHE.clear()
    th.asymmetry(rho, plain)
    assert len(solved) == 1 and np.array_equal(solved[0], rho)
    # a degenerate H: D(rho)'s eigenvalues from one solve of its 3 x 3 eigenspace blocks
    solved.clear()
    la._EIG_CACHE.clear()
    with pytest.warns(DegenerateHamiltonianWarning):
        th.measurement_work_loss(rho, degenerate)
    assert [a.shape for a in solved] == [(6, 6), (3, 3, 3)]


@pytest.mark.parametrize("name", ["free_energy_decomposition", "measurement_work_loss",
                                  "asymmetry"])
def test_state_of_another_size_than_h_is_a_dimension_mismatch(name):
    with pytest.raises(DimensionMismatch, match="rho of size 3 in a basis of size 2"):
        getattr(th, name)(np.eye(3, dtype=complex) / 3, th.ThermalContext(1.0, SZ))


def test_measurement_work_loss_solves_its_hamiltonian_once(monkeypatch):
    ctx = random_context(np.random.default_rng(82), dim=3)
    rho = random_density_np(3, np.random.default_rng(83))
    solved = []
    original = la._jacobi
    monkeypatch.setattr(la, "_jacobi",
                        lambda a: solved.append(a.copy()) or original(a))
    # empty the eigen cache before each step, so only the context can hold H's spectrum
    for name in ("max_extractable_work", "dephased", "asymmetry"):
        step = getattr(th, name)
        monkeypatch.setattr(th, name, lambda *args, step=step: la._EIG_CACHE.clear() or step(*args))
    la._EIG_CACHE.clear()
    th.measurement_work_loss(rho, ctx)
    assert sum(np.array_equal(a, ctx.hamiltonian) for a in solved) == 1


def test_measurement_work_loss_warns_on_degenerate_spectrum():
    ctx = th.ThermalContext(1.0, np.eye(2, dtype=complex))
    with pytest.warns(DegenerateHamiltonianWarning):
        th.measurement_work_loss(PLUS, ctx)


# --- bipartite identities -----------------------------------------------------------

def test_bipartite_identity_trivial_unitary():
    rng = np.random.default_rng(82)
    bs = th.BipartiteScenario(2, 2, SZ, 0.6 * SZ, random_density_np(2, rng), 1.0,
                              np.eye(4, dtype=complex))
    rep = th.bipartite_work_identity(bs)
    assert abs(rep.work) <= 1e-12
    assert abs(rep.correlations) <= 1e-10
    assert abs(rep.athermality_bath) <= 1e-10
    assert rep.residual <= 1e-12 and rep.residual_intermediate <= 1e-12


def test_bipartite_identity_1000_random_scenarios():
    worst = 0.0
    for i in range(1000):
        rng = np.random.default_rng(10_000 + i)
        bs = th.BipartiteScenario(
            2, 2, SZ, 0.6 * SZ, random_density_np(2, rng),
            float(rng.uniform(0.3, 2.0)), haar_unitary_np(4, rng))
        rep = th.bipartite_work_identity(bs)
        worst = max(worst, rep.residual, rep.residual_intermediate)
        assert rep.within_max_bound
        assert rep.correlations >= -1e-10
        assert rep.athermality_system >= -1e-10
        assert rep.athermality_bath >= -1e-10
    assert worst <= 1e-9


def test_bipartite_scenario_validates_hamiltonians_only_when_built(monkeypatch):
    calls = []
    original = la._require

    def record(m, name, kind, ndim=None):
        if kind != "unitary":  # the Hermitian checks, a state's included
            calls.append(name)
        return original(m, name, kind, ndim)

    monkeypatch.setattr(la, "_require", record)
    monkeypatch.setattr(th, "_require", record)
    rng = np.random.default_rng(84)
    bs = th.BipartiteScenario(2, 2, SZ, 0.6 * SZ, random_density_np(2, rng), 1.0,
                              haar_unitary_np(4, rng))
    # each Hamiltonian once, under its own name; the contexts share the validated arrays
    assert calls == ["H_S", "H_B", "rho_S"]
    assert bs.system_context().hamiltonian is bs.h_system
    assert bs.bath_context().hamiltonian is bs.h_bath
    assert bs.system_context() is bs.system_context()
    assert bs.bath_context() is bs.bath_context()
    for _ in range(2):
        calls.clear()
        th.bipartite_work_identity(bs)
        assert not {"H", "H_S", "H_B"} & set(calls), calls


def _record_stacks(monkeypatch):
    """(name, kind, validated array) of every ``_require`` call thermo makes."""
    stacks = []
    original = th._require

    def record(m, name, kind, ndim=None):
        out = original(m, name, kind, ndim)
        stacks.append((name, kind, out))
        return out

    monkeypatch.setattr(th, "_require", record)
    return stacks


def test_identity_suite_validates_each_hamiltonian_once_per_sample(monkeypatch):
    singles = []
    original = la.require_hermitian

    def record(m, name="operator"):
        singles.append(name)
        return original(m, name)

    monkeypatch.setattr(la, "require_hermitian", record)
    monkeypatch.setattr(th, "require_hermitian", record)
    stacks = _record_stacks(monkeypatch)
    th.identity_suite(5, seed=4)
    # the random H of every sample, in one stack per dimension drawn; the qubit
    # Hamiltonians of the bipartite and local parts are the suite's own constants
    hermitian = [(name, len(m)) for name, kind, m in stacks if kind == "hermitian"]
    assert {name for name, _ in hermitian} == {"H"} and len(hermitian) <= 2
    assert sum(n for _, n in hermitian) == 5
    assert not singles


def test_identity_suite_validates_each_state_once(monkeypatch):
    singles = []
    monkeypatch.setattr(th, "require_density", lambda m, name="state": singles.append(name))
    stacks = _record_stacks(monkeypatch)
    th.identity_suite(50, seed=1)
    # per sample: rho and its Gibbs state; rho_S, tau_S, tau_B, rho'_S, rho'_B and
    # rho'_SB of the bipartite identity; X_SB and its two marginals.  The dephased
    # form of rho is formed from the validated rho and is not validated again
    states = [m.tobytes() for _, kind, stack in stacks if kind == "density" for m in stack]
    assert len(states) == len(set(states)) == 550
    assert not singles


def test_identity_suite_solves_each_stack_of_states_once_and_no_single_matrix(monkeypatch):
    solved = []
    original = la._jacobi

    def record(a):
        solved.append(a.copy())
        return original(a)

    monkeypatch.setattr(la, "_jacobi", record)
    monkeypatch.setattr(th, "_jacobi", record, raising=False)
    stacks = _record_stacks(monkeypatch)
    la._EIG_CACHE.clear()  # so that no spectrum comes from an earlier solve
    th.identity_suite(50, seed=1)
    assert solved and all(a.ndim == 3 for a in solved)
    for _, kind, stack in stacks:
        if kind == "density":
            assert sum(a.shape == stack.shape and np.array_equal(a, stack) for a in solved) == 1


def test_bipartite_scenario_checks_beta_through_its_contexts():
    rng = np.random.default_rng(85)
    for beta in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            th.BipartiteScenario(2, 2, SZ, 0.6 * SZ, random_density_np(2, rng), beta,
                                 haar_unitary_np(4, rng))


def test_local_free_energy_decomposition():
    rng = np.random.default_rng(83)
    product = np.kron(random_density_np(2, rng), random_density_np(2, rng))
    out = th.local_free_energy_decomposition(product, (2, 2), SZ, 0.6 * SZ, 1.0)
    assert abs(out["mutual_information_term"]) <= 1e-10
    assert out["residual"] <= 1e-10

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rho_bell = np.outer(bell, bell.conj())
    out = th.local_free_energy_decomposition(rho_bell, (2, 2), SZ, SZ, 1.0)
    assert out["mutual_information_term"] == pytest.approx(2.0 * math.log(2), abs=1e-10)
    assert out["residual"] <= 1e-10

    for _ in range(100):
        rho = random_density_np(4, rng)
        out = th.local_free_energy_decomposition(rho, (2, 2), SZ, 0.6 * SZ,
                                                 float(rng.uniform(0.3, 2.0)))
        assert out["residual"] <= 1e-10


def test_identity_suite_passes():
    report = th.identity_suite(n_samples=60, seed=1)
    assert report["pass"]
