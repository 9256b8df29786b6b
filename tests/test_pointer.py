import math

import numpy as np
import pytest

from qworklab import pointer as ptr
from qworklab.errors import GridTooNarrow
from qworklab.linalg import eig_hermitian, max_abs
from qworklab.scenario import Scenario, ScenarioBatch, mean_energy_change
from qworklab.schemes import margenau_hill, tpm

from conftest import (
    H01,
    HADAMARD,
    PLUS,
    SZ,
    haar_unitary_np,
    projector_pairs,
    random_density_np,
    random_hermitian_np,
)


def coherent_scenario():
    return Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=HADAMARD, rho=PLUS)


def diagonal_scenario():
    return Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=HADAMARD,
                    rho=np.diag([0.7, 0.3]).astype(complex))


def test_config_validation():
    with pytest.raises(ValueError):
        ptr.PointerConfig(coupling=0.0, spread=1.0, x_min=-1, x_max=1)
    with pytest.raises(ValueError):
        ptr.PointerConfig(coupling=1.0, spread=1.0, x_min=-1, x_max=1, n_points=16)


def test_grid_too_narrow_raises():
    s = coherent_scenario()
    cfg = ptr.PointerConfig(coupling=1.0, spread=1.0, x_min=-3.0, x_max=3.0, n_points=512)
    with pytest.raises(GridTooNarrow):
        ptr.gaussian_meter(s, cfg)


def test_readout_normalized_and_nonnegative():
    s = coherent_scenario()
    cfg = ptr.PointerConfig.for_scenario(s, 1.0, 0.5)
    readout = ptr.gaussian_meter(s, cfg)
    assert abs(readout.normalization() - 1.0) <= 1e-6
    assert readout.density.min() >= 0.0


def test_diagonal_state_is_tpm_convolution_at_any_coupling():
    s = diagonal_scenario()
    for g, spread in ((1.0, 0.3), (5.0, 0.2), (0.5, 3.0)):
        cfg = ptr.PointerConfig.for_scenario(s, g, spread)
        assert ptr.gaussian_meter_vs_tpm(s, cfg) <= 1e-6


def test_quadrature_oracle_for_meter_density():
    # independent check at a handful of points: direct |sum of Gaussians|^2
    s = coherent_scenario()
    g, spread = 1.2, 0.7
    cfg = ptr.PointerConfig.for_scenario(s, g, spread)
    readout = ptr.gaussian_meter(s, cfg)
    e_i, v_i = np.linalg.eigh(s.h_initial)
    e_f, v_f = np.linalg.eigh(s.h_final)
    u = s.unitary()
    t = v_f.conj().T @ u @ v_i
    lam, chi = np.linalg.eigh(s.rho)
    norm = (2 * math.pi * spread ** 2) ** -0.25
    for idx in (100, 400, 800):
        x = readout.xs[idx]
        total = 0.0
        for a in range(2):
            if lam[a] <= 1e-14:
                continue
            c = v_i.conj().T @ chi[:, a]
            for m in range(2):
                amp = 0.0
                for n in range(2):
                    shift = g * (e_f[m] - e_i[n])
                    amp += t[m, n] * c[n] * norm * math.exp(-(x - shift) ** 2 / (4 * spread ** 2))
                total += lam[a] * abs(amp) ** 2
        assert abs(total - readout.density[idx]) <= 1e-12


def covering_config(scenarios, coupling, spread):
    """One grid that covers every scenario's centres, at the finest resolution of theirs."""
    cfgs = [ptr.PointerConfig.for_scenario(s, coupling, spread) for s in scenarios]
    lo, hi = min(c.x_min for c in cfgs), max(c.x_max for c in cfgs)
    per_unit = max((c.n_points - 1) / (c.x_max - c.x_min) for c in cfgs)
    return ptr.PointerConfig(coupling, spread, lo, hi, int(math.ceil((hi - lo) * per_unit)) + 1)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_meter_densities_match_the_meter_state_by_state(dim):
    rng = np.random.default_rng([67, dim])
    scenarios = [Scenario(dim=dim, h_initial=random_hermitian_np(dim, rng),
                          h_final=random_hermitian_np(dim, rng),
                          evolution=haar_unitary_np(dim, rng), rho=random_density_np(dim, rng))
                 for _ in range(3)]
    states = np.array([random_density_np(dim, rng) for _ in range(5)])
    for coupling, spread in ((4.0, 1.0), (1.0, 3.0)):
        # a stack of states on one experiment
        cfg = ptr.PointerConfig.for_scenario(scenarios[0], coupling, spread)
        got = ptr.meter_densities(ScenarioBatch.of([scenarios[0]]).with_rho(states), cfg)
        assert got.shape == (len(states), cfg.n_points)
        for rho, density in zip(states, got):
            ref = ptr.gaussian_meter(scenarios[0].with_rho(rho), cfg).density
            assert max_abs(density - ref) <= 1e-15
        # several experiments, each with states in any order
        cfg = covering_config(scenarios, coupling, spread)
        experiment = np.array([2, 0, 1, 1, 0])
        got = ptr.meter_densities(ScenarioBatch.of(scenarios).with_rho(states, experiment), cfg)
        for j, rho, density in zip(experiment, states, got):
            ref = ptr.gaussian_meter(scenarios[j].with_rho(rho), cfg).density
            assert max_abs(density - ref) <= 1e-15


def test_meter_densities_raise_for_a_member_the_grid_misses():
    s = coherent_scenario()
    wide = Scenario(dim=2, h_initial=SZ, h_final=3.0 * SZ, evolution=HADAMARD, rho=PLUS)
    cfg = ptr.PointerConfig.for_scenario(s, 2.0, 0.5)
    batch = ScenarioBatch.of([s, wide]).with_rho(np.array([PLUS, PLUS, PLUS]), [0, 0, 1])
    assert ptr.meter_densities(batch.members(0, 2), cfg).shape == (2, cfg.n_points)
    # the third member's centres reach g (3 + 1) = 8, past the grid's cover
    with pytest.raises(GridTooNarrow, match=r"centres \[-8, 8\]"):
        ptr.meter_densities(batch, cfg)


def test_strong_coupling_recovers_tpm_masses():
    s = coherent_scenario()
    cfg = ptr.PointerConfig.for_scenario(s, 40.0, 1.0)  # g dE_min / s = 80
    readout = ptr.gaussian_meter(s, cfg)
    half = 3.0 * math.sqrt(2.0) / 40.0
    for w, p in tpm(s)[0].atoms:
        assert abs(readout.window_mass(w, half) - p) <= 1e-3


def test_weak_coupling_mean_matches_energy_change():
    s = coherent_scenario()
    cfg = ptr.PointerConfig.for_scenario(s, 1.0, 150.0, points_per_sigma=8.0)
    readout = ptr.gaussian_meter(s, cfg)
    assert abs(readout.mean_work() - mean_energy_change(s)) <= 1e-3


def test_meter_matches_fcs_convolution_in_weak_regime():
    s = coherent_scenario()
    cfg = ptr.PointerConfig.for_scenario(s, 1.0, 150.0, points_per_sigma=8.0)
    assert ptr.gaussian_meter_vs_fcs(s, cfg) <= 1e-5
    diag = diagonal_scenario()
    cfg = ptr.PointerConfig.for_scenario(diag, 2.0, 0.7)
    assert ptr.gaussian_meter_vs_fcs(diag, cfg) <= 1e-6
    cfg_strong = ptr.PointerConfig.for_scenario(s, 40.0, 1.0)
    assert ptr.gaussian_meter_vs_fcs(s, cfg_strong) > 1e-2


# --- post-selected weak-value protocol -------------------------------------------

def test_weak_value_rows_strong_limit_is_tpm():
    s = coherent_scenario()
    cfg = ptr.PointerConfig.for_scenario(s, 10.0, 1.0)
    rows = ptr.weak_value_table(s, cfg)
    np.testing.assert_allclose(rows, tpm(s)[1].weights, atol=1e-3)


def test_weak_value_rows_weak_limit_is_margenau_hill():
    s = coherent_scenario()
    cfg = ptr.PointerConfig.for_scenario(s, 1.0, 20.0, points_per_sigma=8.0)
    rows = ptr.weak_value_table(s, cfg)
    np.testing.assert_allclose(rows, margenau_hill(s)[0].weights, atol=1e-3)


def test_weak_value_identity_evolution_row():
    s = Scenario(dim=2, h_initial=H01, h_final=H01,
                 evolution=np.eye(2, dtype=complex), rho=PLUS)
    cfg = ptr.PointerConfig.for_scenario(s, 2.0, 1.0)
    row = ptr.weak_value_protocol(s, 0, cfg)
    assert row[0] == pytest.approx(0.5, abs=1e-12)
    assert abs(row[1]) <= 1e-10


def test_weak_value_row_against_quadrature_oracle():
    s = coherent_scenario()
    g, spread = 1.3, 0.9
    cfg = ptr.PointerConfig.for_scenario(s, g, spread)
    p_k = projector_pairs(eig_hermitian(s.h_initial))[0][1]
    comp = np.eye(2) - p_k
    u = s.unitary()
    xs = np.linspace(-14 * spread, 14 * spread + g, 40001)

    def phi(x):
        return (2 * math.pi * spread ** 2) ** -0.25 * np.exp(-x ** 2 / (4 * spread ** 2))

    oracle = []
    for _, q in projector_pairs(eig_hermitian(s.h_final)):
        vals = []
        for x in xs:
            k_x = phi(x - g) * p_k + phi(x) * comp
            vals.append(x * np.trace(q @ u @ k_x @ s.rho @ k_x.conj().T @ u.conj().T).real)
        oracle.append(np.trapezoid(vals, xs) / g)
    np.testing.assert_allclose(ptr.weak_value_protocol(s, 0, cfg), oracle, atol=1e-9)


def weak_value_loop(s, kappa):
    """Plain-loop reference rows Re Tr(Q_b U X_a U^dag) of the effective initial operator
    X_a = P_a rho P_a + kappa/2 (P_a rho Q_a + Q_a rho P_a), Q_a = I - P_a."""
    u = s.unitary()
    rows = []
    for _, p in projector_pairs(eig_hermitian(s.h_initial)):
        comp = np.eye(s.dim) - p
        x = p @ s.rho @ p + 0.5 * kappa * (p @ s.rho @ comp + comp @ s.rho @ p)
        evolved = u @ x @ u.conj().T
        rows.append([np.trace(q @ evolved).real
                     for _, q in projector_pairs(eig_hermitian(s.h_final))])
    return np.array(rows)


@pytest.mark.parametrize("degenerate", [False, True], ids=["generic", "degenerate"])
@pytest.mark.parametrize("dim", [2, 3, 16])
def test_weak_value_table_is_the_joint_table_at_kappa(dim, degenerate):
    rng = np.random.default_rng([61, dim, degenerate])

    def hamiltonian():  # two-fold levels 0, 0, 1, 1, ... when degenerate
        levels = np.arange(dim) // 2 if degenerate else np.sort(rng.standard_normal(dim))
        v = haar_unitary_np(dim, rng)
        return (v * levels) @ v.conj().T

    s = Scenario(dim=dim, h_initial=hamiltonian(), h_final=hamiltonian(),
                 evolution=haar_unitary_np(dim, rng), rho=random_density_np(dim, rng))
    for coupling, spread in ((0.5, 2.0), (1.3, 0.9), (3.0, 1.0), (10.0, 1.0)):
        cfg = ptr.PointerConfig(coupling=coupling, spread=spread, x_min=-1.0, x_max=1.0)
        kappa = math.exp(-coupling ** 2 / (8.0 * spread ** 2))
        np.testing.assert_allclose(ptr.weak_value_table(s, cfg), weak_value_loop(s, kappa),
                                   rtol=0, atol=1e-14)
    np.testing.assert_allclose(tpm(s)[1].weights, weak_value_loop(s, 0.0), rtol=0, atol=1e-14)
    # at kappa = 1 the loop's X_a has the Margenau-Hill weights of rho P_a
    mh = margenau_hill(s)[0].weights
    np.testing.assert_allclose(mh, weak_value_loop(s, 1.0), rtol=0, atol=1e-14)
    u = s.unitary()
    mh_loop = [[np.trace(q @ u @ s.rho @ p @ u.conj().T).real
                for _, q in projector_pairs(eig_hermitian(s.h_final))]
               for _, p in projector_pairs(eig_hermitian(s.h_initial))]
    np.testing.assert_allclose(mh, mh_loop, rtol=0, atol=1e-14)


def test_interpolation_sweep_is_monotone():
    s = coherent_scenario()
    ratios = np.logspace(-1, 1.3, 8)
    sweep = ptr.interpolation_sweep(s, 1.0, ratios)
    d_tpm = [row[1] for row in sweep]
    d_mh = [row[2] for row in sweep]
    assert all(a < b for a, b in zip(d_tpm, d_tpm[1:]))
    assert all(a > b for a, b in zip(d_mh, d_mh[1:]))
