"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to stream them).
"""

import math
import time

import numpy as np
import pytest

from qworklab import audit, pointer as ptr, schemes as sch, thermo as th
from qworklab.errors import NotLinear
from qworklab.linalg import max_abs, projector, random_density, random_unitary
from qworklab.scenario import (
    DrivingProtocol,
    Scenario,
    mean_energy_change,
    time_reversed,
)
from qworklab.schemes import SchemeId

from conftest import HADAMARD, PLUS, SX, SZ


def _report(num: int, ok: bool, detail: str):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _coherent_qubit():
    return Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=HADAMARD, rho=PLUS,
                    label="hadamard-plus")


def test_criterion_01_table1_reproduction():
    t0 = time.perf_counter()
    report = audit.build_table1(audit.Table1Config(dim=2, samples=500, seed=0))
    elapsed = time.perf_counter() - t0
    pattern = report.pattern()
    mismatches = {k: (pattern[k], v) for k, v in audit.EXPECTED_TABLE1_PATTERN.items()
                  if pattern[k] != v}
    _report(1, not mismatches and elapsed <= 300.0,
            f"table1 verdict pattern ({len(audit.EXPECTED_TABLE1_PATTERN)} rows) in "
            f"{elapsed:.1f}s; mismatches: {mismatches or 'none'}")


def test_criterion_02_nogo_shadow():
    all_satisfied = []
    for dim in (2, 3, 4):
        for seed in (0, 1):
            for scheme in (SchemeId.TPM, SchemeId.OPERATOR_OF_WORK, SchemeId.FCS,
                           SchemeId.MARGENAU_HILL, SchemeId.CONSISTENT_HISTORIES,
                           SchemeId.STATE_DEPENDENT, SchemeId.SUB_ENSEMBLE,
                           SchemeId.COLLECTIVE_TWO_COPY):
                statuses = (
                    audit.check_c1_linearity(scheme, dim, 20, seed).status,
                    audit.check_c2(scheme, dim, 20, seed).status,
                    audit.check_c3(scheme, dim, 20, seed).status,
                )
                if all(s is audit.Status.SATISFIED for s in statuses):
                    all_satisfied.append((scheme.value, dim, seed))
    nogo = audit.demonstrate_nogo(dim=2, seed=0)
    gap_ok = abs(nogo.coherent_c3_gap - 1.0) <= 1e-10
    _report(2, not all_satisfied and gap_ok,
            f"no all-satisfied rows across schemes/dims/seeds "
            f"(violators: {all_satisfied or 'none'}); forced-POVM Hadamard C3 gap "
            f"{nogo.coherent_c3_gap:.12f}")


def test_criterion_03_condition2_suite():
    worst = {}
    for dim in (2, 3, 4):
        rng = np.random.default_rng(np.random.SeedSequence([404, dim]))
        batch = audit._sample_batch(dim, 500, rng, coherent=False, driven=False)
        refs = sch.distributions(SchemeId.TPM, batch)
        for scheme in (SchemeId.FCS, SchemeId.MARGENAU_HILL,
                       SchemeId.STATE_DEPENDENT, SchemeId.COLLECTIVE_TWO_COPY):
            key = (scheme.value, dim)
            worst[key] = float(sch.distributions(scheme, batch).tv_distance(refs).max())
    bad = {k: v for k, v in worst.items() if v > 1e-9}
    _report(3, not bad,
            f"C2 agreement on 500 diagonal scenarios per dim in {{2,3,4}}: "
            f"max TV {max(worst.values()):.2e} (tolerance 1e-9)")


def test_criterion_04_condition3_suite():
    worst = {}
    for dim in (2, 3, 4):
        rng = np.random.default_rng(np.random.SeedSequence([405, dim]))
        batch = audit._sample_batch(dim, 500, rng, coherent=True, driven=False)
        targets = batch.mean_energy_change()
        for scheme in (SchemeId.OPERATOR_OF_WORK, SchemeId.FCS,
                       SchemeId.MARGENAU_HILL, SchemeId.STATE_DEPENDENT,
                       SchemeId.SUB_ENSEMBLE):
            key = (scheme.value, dim)
            worst[key] = float(np.abs(sch.distributions(scheme, batch).means() - targets).max())
    bad = {k: v for k, v in worst.items() if v > 1e-9}
    _report(4, not bad,
            f"C3 first law on 500 coherent scenarios per dim in {{2,3,4}}: "
            f"max gap {max(worst.values()):.2e} (tolerance 1e-9)")


def test_criterion_05_pointer_limits():
    t0 = time.perf_counter()
    s = _coherent_qubit()
    strong = ptr.PointerConfig.for_scenario(s, 40.0, 1.0)
    readout = ptr.gaussian_meter(s, strong)
    half = 3.0 * math.sqrt(2.0) / 40.0
    atom_err = max(abs(readout.window_mass(w, half) - p)
                   for w, p in sch.tpm(s)[0].atoms)
    weak = ptr.PointerConfig.for_scenario(s, 1.0, 150.0, points_per_sigma=8.0)
    mean_err = abs(ptr.gaussian_meter(s, weak).mean_work() - mean_energy_change(s))
    conv_dist = ptr.gaussian_meter_vs_fcs(s, weak)
    elapsed = time.perf_counter() - t0
    _report(5, atom_err <= 1e-3 and mean_err <= 1e-3 and conv_dist <= 1e-5
            and elapsed <= 30.0,
            f"strong-coupling atom error {atom_err:.2e} (<=1e-3), weak-coupling mean "
            f"error {mean_err:.2e} (<=1e-3), FCS convolution distance {conv_dist:.2e} "
            f"(<=1e-5) in {elapsed:.1f}s")


def test_criterion_06_weak_value_interpolation():
    s = _coherent_qubit()
    strong = ptr.PointerConfig.for_scenario(s, 10.0, 1.0)
    weak = ptr.PointerConfig.for_scenario(s, 1.0, 20.0, points_per_sigma=8.0)
    d_strong = float(np.abs(ptr.weak_value_table(s, strong)
                            - sch.tpm(s)[1].weights).max())
    d_weak = float(np.abs(ptr.weak_value_table(s, weak)
                          - sch.margenau_hill(s)[0].weights).max())
    sweep = ptr.interpolation_sweep(s, 1.0, np.logspace(-1, 1.3, 8))
    to_tpm = [row[1] for row in sweep]
    to_mh = [row[2] for row in sweep]
    monotone = (all(a < b for a, b in zip(to_tpm, to_tpm[1:]))
                and all(a > b for a, b in zip(to_mh, to_mh[1:])))
    _report(6, d_strong <= 1e-3 and d_weak <= 1e-3 and monotone,
            f"rows match TPM at strong coupling ({d_strong:.2e}) and Margenau-Hill at "
            f"weak coupling ({d_weak:.2e}); 8-point sweep monotone: {monotone}")


def test_criterion_07_contextuality_witness():
    t0 = time.perf_counter()
    witness = audit.contextuality_witness(search_budget=10_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = witness is not None and witness.value < -0.05 and elapsed <= 10.0
    _report(7, ok,
            f"witness min joint weight {witness.value if witness else None:.4f} "
            f"(< -0.05) found in {elapsed:.1f}s (budget 1e4)")


def test_criterion_08_collective_improvement():
    report = audit.check_collective_adapted(dim=2, n_samples=500, seed=0)
    ok = (report.n_contract_violations == 0
          and report.n_strict_improvements == 500
          and report.worst_positivity >= -1e-8
          and report.worst_completeness <= 1e-8)
    _report(8, ok,
            f"500/500 scenarios improve or tie the first-law gap "
            f"({report.n_strict_improvements} strict, {report.n_ties} ties); POVM "
            f"min eigenvalue {report.worst_positivity:.1e}, completeness defect "
            f"{report.worst_completeness:.1e}")


def test_criterion_09_consistent_histories_properties():
    rho = 0.6 * PLUS + 0.4 * np.diag([0.8, 0.2]).astype(complex)
    proto = DrivingProtocol([0.0, 1.0], [SZ, SZ + 0.7 * SX], 64)
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ + 0.7 * SX, evolution=proto, rho=rho)
    fwd = sch.consistent_histories(s, 8)
    rev = sch.consistent_histories(time_reversed(s), 8)
    mirrored = sch.WorkDistribution.from_atoms(
        -rev.works, rev.weights, SchemeId.CONSISTENT_HISTORIES, True)
    reversal_tv = fwd.tv_distance(mirrored)

    w_op, _ = sch.work_operator(s)
    ratios = []
    for k_moment, target in ((1, np.trace(rho @ w_op).real),
                             (2, np.trace(rho @ w_op @ w_op).real)):
        errs = [abs(sch.consistent_histories(s, grid).moment(k_moment) - target)
                for grid in (4, 8, 16)]
        ratios += [errs[1] / errs[0], errs[2] / errs[1]]
    ok = reversal_tv <= 1e-10 and all(r <= 0.6 for r in ratios)
    _report(9, ok,
            f"time-reversal TV {reversal_tv:.2e} (<=1e-10 at K=8); moment error "
            f"ratios per K-doubling {[round(r, 3) for r in ratios]} (<=0.6)")


def test_criterion_10_appendix_identities():
    worst_work_identity = 0.0
    worst_bound = 0.0
    for i in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence([410, i]))
        bs = th.BipartiteScenario(
            2, 2, SZ, 0.6 * SZ, random_density(2, rng),
            float(rng.uniform(0.3, 2.0)), random_unitary(4, rng))
        rep = th.bipartite_work_identity(bs)
        worst_work_identity = max(worst_work_identity, rep.residual)
        worst_bound = max(worst_bound, rep.work - rep.bound_delta_f)

    worst_split = 0.0
    worst_loss = 0.0
    rng = np.random.default_rng(np.random.SeedSequence([411]))
    for _ in range(1000):
        beta = float(rng.uniform(0.2, 3.0))
        ctx = th.ThermalContext(beta, SZ)
        rho = random_density(2, rng)
        diag_part, coherent = th.free_energy_decomposition(rho, ctx)
        total = th.free_energy(rho, ctx) - th.free_energy(ctx.gibbs_state(), ctx)
        worst_split = max(worst_split, abs(diag_part + coherent - total))
        direct = (th.max_extractable_work(rho, ctx)
                  - th.max_extractable_work(th.dephased(rho, ctx), ctx))
        worst_loss = max(worst_loss, abs(direct - th.asymmetry(rho, ctx) / beta))
    ok = (worst_work_identity <= 1e-9 and worst_split <= 1e-10
          and worst_bound <= 1e-9 and worst_loss <= 1e-10)
    _report(10, ok,
            f"bipartite work identity residual {worst_work_identity:.1e} (<=1e-9, 1000 "
            f"scenarios); free-energy split residual {worst_split:.1e} (<=1e-10); "
            f"max-work bound excess {worst_bound:.1e} (<=1e-9); measurement-loss "
            f"path disagreement {worst_loss:.1e} (<=1e-10)")


def test_criterion_11_povm_tomography():
    rng = np.random.default_rng(412)
    h = audit.random_nondegenerate_hermitian(2, rng)
    hf = audit.random_nondegenerate_hermitian(2, rng)
    u = random_unitary(2, rng)
    povm = audit.reconstruct_povm(SchemeId.TPM, h, hf, u, seed=0)
    ref = sch.tpm_povm(Scenario(dim=2, h_initial=h, h_final=hf, evolution=u,
                                rho=np.eye(2, dtype=complex) / 2))
    gap = 0.0
    for w, op in zip(povm.labels, povm.ops):
        match = min(zip(ref.labels, ref.ops), key=lambda el: abs(el[0] - w))
        gap = max(gap, max_abs(op - match[1]))
    try:
        audit.reconstruct_povm(SchemeId.STATE_DEPENDENT, h, hf, u, seed=0)
        nonlinear_detected = False
    except NotLinear:
        nonlinear_detected = True
    _report(11, gap <= 1e-8 and nonlinear_detected,
            f"reconstructed TPM POVM matches the analytic form to {gap:.1e} (<=1e-8); "
            f"state-dependent reconstruction raises NotLinear: {nonlinear_detected}")
