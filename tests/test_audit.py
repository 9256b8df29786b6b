import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from qworklab import audit
from qworklab import linalg as la
from qworklab import pointer as pointer_mod
from qworklab import scenario as scenario_mod
from qworklab import schemes as schemes_mod
from qworklab.errors import NotLinear
from qworklab.linalg import max_abs, projector
from qworklab.scenario import (
    DrivingProtocol,
    Scenario,
    ScenarioBatch,
    mean_energy_change,
    parse_scenario,
    serialize_scenario,
)
from qworklab.schemes import (
    Povm,
    SchemeId,
    collective_factors,
    collective_povm,
    collective_two_copy,
    fcs_quasiprob,
    margenau_hill,
    merge_atoms,
    state_dependent,
    tpm,
    tpm_povm,
)

from conftest import (
    H01,
    HADAMARD,
    PLUS,
    SZ,
    degenerate_hermitian,
    degenerate_w_triple,
    haar_unitary_np,
    random_hermitian_np,
)


def test_worst_keeps_the_first_maximum_and_builds_one_witness(monkeypatch):
    built = []
    monkeypatch.setattr(audit, "_witness_payload",
                        lambda s, value, detail: built.append((s, value, detail)) or detail)
    cases = [(0.1, "a", "first"), (0.3, "b", "second"), (0.3, "c", "tie"), (0.2, "d", "x")]
    assert audit._worst(iter(cases)) == (0.3, "second", "second")
    assert built == [("b", 0.3, "second")]
    assert audit._worst([(0.0, "a", "zero")]) == (0.0, None, "")


def test_worst_keeps_the_first_of_cases_tied_to_the_last_bits(monkeypatch):
    monkeypatch.setattr(audit, "_witness_payload", lambda s, value, detail: detail)
    near = 1.0 + 4 * np.spacing(1.0)
    assert audit._worst([(1.0, "a", "first"), (near, "b", "noise")])[2] == "first"
    assert audit._worst([(1.0, "a", "first"), (1.0 + 1e-9, "b", "worse")])[2] == "worse"


def test_worst_witness_stable_under_last_bit_noise(monkeypatch):
    # every state-dependent nonconvexity case saturates at tv = 1 to within 5 ulp
    clean = audit.check_c1_linearity(SchemeId.STATE_DEPENDENT, dim=2, n_samples=40, seed=0)
    exact = audit._worst
    for noise_seed in range(4):
        rng = np.random.default_rng(noise_seed)

        def noisy(cases):
            return exact((v + int(rng.integers(-2, 3)) * np.spacing(v), s, detail)
                         for v, s, detail in cases)

        monkeypatch.setattr(audit, "_worst", noisy)
        verdict = audit.check_c1_linearity(SchemeId.STATE_DEPENDENT, dim=2, n_samples=40, seed=0)
        assert verdict.witness["scenario"] == clean.witness["scenario"]


def test_sample_scenario_validates_each_hamiltonian_once(monkeypatch):
    calls = []
    original = la._require

    def record(m, name, kind, ndim=None):
        calls.append(name)
        return original(m, name, kind, ndim)

    for module in (la, scenario_mod, audit):
        monkeypatch.setattr(module, "_require", record)
    la._EIG_CACHE.clear()
    rng = np.random.default_rng(4)
    # a batch of one: its stacks, or its protocols' breakpoints, which are H and H_final,
    # checked as one stack
    expected = {(True, False): ["H", "H_final", "evolution.U", "rho"],
                (False, False): ["H", "H_final", "evolution.U", "rho"],
                (True, True): ["evolution.breakpoints.H", "rho"],
                (False, True): ["evolution.breakpoints.H", "rho"]}
    for (coherent, driven), names in expected.items():
        calls.clear()
        s = audit.sample_scenario(3, rng, coherent=coherent, driven=driven)
        assert calls == names, (coherent, driven)
        # the schemes solve the validated fields as they are, and a driven
        # scenario compiles its unitary from the validated breakpoints
        for scheme in (tpm, fcs_quasiprob, margenau_hill, state_dependent, collective_factors):
            calls.clear()
            scheme(s)
            assert calls == [], (coherent, driven, scheme.__name__)


def test_driven_batch_checks_its_breakpoints_as_one_stack(monkeypatch):
    checks = []
    original = la._require

    def record_stack(m, name, kind, ndim=None):
        checks.append((name, kind, np.shape(m)))
        return original(m, name, kind, ndim)

    def refuse(m, name="operator"):
        raise AssertionError(f"{name} checked alone")

    for module in (audit, scenario_mod):
        monkeypatch.setattr(module, "_require", record_stack)
    monkeypatch.setattr(scenario_mod, "require_hermitian", refuse)
    batch = audit._sample_batch(3, 60, np.random.default_rng(21), coherent=True, driven=True)
    # the 60 protocols' 120 breakpoints in one check; then the batch's states in one
    assert checks == [("evolution.breakpoints.H", "hermitian", (120, 3, 3)),
                      ("rho", "density", (60, 3, 3))]
    monkeypatch.undo()
    for p, h, hf in zip(batch.evolution, batch.h_initial, batch.h_final):
        public = DrivingProtocol([0.0, 1.0], [h, hf], audit.SAMPLE_PROTOCOL_STEPS)
        for field in ("times", "hamiltonians"):
            mine, theirs = getattr(p, field), getattr(public, field)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()
        assert p.steps_per_segment == public.steps_per_segment


def test_c1_two_copy_computes_the_factors_once_per_mixture(monkeypatch):
    built = []
    original = schemes_mod.CollectiveFactors

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(schemes_mod, "CollectiveFactors", counting)
    audit.check_c1_linearity(SchemeId.COLLECTIVE_TWO_COPY, dim=2, n_samples=200, seed=0)
    # one stack for the probe mixture and one for the 200 sampled mixtures; the
    # components of each reuse it
    assert len(built) == 2


def test_with_rho_copies_share_the_derived_state(monkeypatch):
    s = audit.sample_scenario(3, np.random.default_rng(8), coherent=True, driven=True)
    copies = [s.with_rho(rho) for rho in (np.eye(3) / 3, np.diag([0.5, 0.3, 0.2]))]
    schemes_mod.consistent_histories(s, 4)
    solved = []
    original = schemes_mod._jacobi
    monkeypatch.setattr(schemes_mod, "_jacobi", lambda a: solved.append(a) or original(a))
    batch = ScenarioBatch.of([s])
    for copy in copies:
        assert copy.unitary() is s.unitary()
        for name in ("H", "H_final"):
            assert copy.spectrum(name) is s.spectrum(name)
            assert all(a is b for a, b in zip(copy.eigenspaces(name), s.eigenspaces(name)))
        for lam in ("auto", 0.0):
            assert (schemes_mod._collective_factors(ScenarioBatch.of([copy]), lam)
                    is schemes_mod._collective_factors(batch, lam))
            assert np.shares_memory(collective_factors(copy, lam).blocks,
                                    collective_factors(s, lam).blocks)
        # the history operators and their eigenspaces do not read rho: one per (experiment, K)
        assert (schemes_mod._ch_power_operators(ScenarioBatch.of([copy]), 4)
                is schemes_mod._ch_power_operators(batch, 4))
        schemes_mod.consistent_histories(copy, 4)
        assert solved == []  # the X(t_j) blocks s solved
        # each copy keeps the spectrum of its own rho
        assert copy.spectrum("rho") is not s.spectrum("rho")
        np.testing.assert_allclose(copy.spectrum("rho").reconstruct(), copy.rho, atol=1e-14)
    assert (schemes_mod._collective_factors(batch, 0.0)
            is not schemes_mod._collective_factors(batch, "auto"))
    assert schemes_mod._ch_power_operators(batch, 5) is not schemes_mod._ch_power_operators(batch, 4)


def test_schemes_solve_h_and_h_final_once_per_experiment(monkeypatch):
    solved = []
    original = la._jacobi

    def recording(a):
        solved.append(a.copy())
        return original(a)

    monkeypatch.setattr(la, "_jacobi", recording)
    rng = np.random.default_rng(10)
    # a coherent state, and a diagonal one built in the eigenbasis the sampler drew for H
    for coherent in (True, False):
        solved.clear()
        s = audit.sample_scenario(3, np.random.default_rng(9), coherent=coherent)
        runs = (s, s.with_rho(la.random_density(3, rng)), s.with_rho(la.random_density(3, rng)))
        for t in runs:
            for scheme in (tpm, fcs_quasiprob, margenau_hill, state_dependent,
                           collective_two_copy):
                la._EIG_CACHE.clear()  # so only the scenario can hold a spectrum between calls
                scheme(t)
        # sampled H and H_final come with the spectra they were built from: never solved
        for op in (s.h_initial, s.h_final):
            assert not any(np.array_equal(a, op) for a in solved)
        # and each rho once, when the state-dependent scheme first read spectrum("rho")
        for t in runs:
            assert sum(np.array_equal(a, t.rho) for a in solved) == 1


def test_rho_is_solved_only_when_its_spectrum_is_read(monkeypatch):
    solved = []
    original = la._jacobi

    def recording(a):
        solved.append(a.copy())
        return original(a)

    def read_twice(s):
        """The first spectrum("rho") solves rho once, and the second solves nothing."""
        solved.clear()
        la._EIG_CACHE.clear()  # so only the scenario can hold its rho's spectrum
        first = s.spectrum("rho")
        assert len(solved) == 1 and np.array_equal(solved[0], s.rho)
        assert s.spectrum("rho") is first and len(solved) == 1
        return first

    monkeypatch.setattr(la, "_jacobi", recording)
    sampled = audit.sample_scenario(3, np.random.default_rng(12), coherent=True, driven=True)
    parsed = parse_scenario(serialize_scenario(sampled))
    for s in (sampled, parsed):  # validating rho solved nothing
        assert not any(np.array_equal(a, s.rho) for a in solved)
    first = read_twice(sampled)
    read_twice(parsed)
    copy = sampled.with_rho(la.random_density(3, 13))  # after the original's rho was solved
    assert not any(np.array_equal(a, copy.rho) for a in solved)
    assert read_twice(copy) is not first


class _LookupRecorder(dict):
    """An eigen cache that records the key of every lookup."""

    def __init__(self):
        super().__init__()
        self.keys = set()

    def get(self, key, default=None):
        self.keys.add(key)
        return super().get(key, default)


def test_owned_spectra_bypass_the_eigen_cache(monkeypatch):
    cache = _LookupRecorder()
    monkeypatch.setattr(la, "_EIG_CACHE", cache)
    solved = []
    original = la._jacobi

    def recording(a):
        solved.append(a.copy())
        return original(a)

    for module in (la, schemes_mod):  # scenario solves through linalg._eig
        monkeypatch.setattr(module, "_jacobi", recording)

    def key(op):
        return repr(op.shape).encode() + op.tobytes()

    rng = np.random.default_rng(11)
    for coherent in (True, False):
        for driven in (False, True):
            solved.clear()
            s = audit.sample_scenario(3, rng, coherent=coherent, driven=driven)
            # the sampler hands over the spectra it built H and H_final from
            assert np.array_equal(s.spectrum("H").reconstruct(), s.h_initial)
            assert np.array_equal(s.spectrum("H_final").reconstruct(), s.h_final)
            for scheme in SchemeId:
                if scheme is not SchemeId.CONSISTENT_HISTORIES:
                    schemes_mod.distribution(scheme, s)
            owned = [s.h_initial, s.h_final, schemes_mod.work_operator(s)[0]]
            for k_steps in ((4, 6) if driven else ()):
                schemes_mod.consistent_histories(s, k_steps)
                x = schemes_mod._ch_power_operators(ScenarioBatch.of([s]), k_steps)[1][0]
                owned += list(x)
                # every X(t_j) of the grid in one stacked solve, and none alone
                assert sum(a.shape == x.shape and np.array_equal(a, x) for a in solved) == 1
                assert not any(a.shape == x_j.shape and np.array_equal(a, x_j)
                               for a in solved for x_j in x)
            assert not cache.keys & {key(op) for op in owned}
            assert key(s.rho) in cache.keys  # the cache still sees spectrum("rho")


def test_tpm_c2_is_self_consistent():
    verdict = audit.check_c2(SchemeId.TPM, dim=2, n_samples=50, seed=0)
    assert verdict.status is audit.Status.SATISFIED
    assert verdict.max_violation <= 1e-12


def test_work_operator_c2_violated_with_unit_tv():
    verdict = audit.check_c2(SchemeId.OPERATOR_OF_WORK, dim=2, n_samples=30, seed=0)
    assert verdict.status is audit.Status.VIOLATED
    assert verdict.max_violation == pytest.approx(1.0, abs=1e-9)
    assert verdict.witness is not None


def test_fcs_c2_satisfied():
    verdict = audit.check_c2(SchemeId.FCS, dim=3, n_samples=80, seed=1)
    assert verdict.status is audit.Status.SATISFIED


def test_tpm_c3_violated_via_hadamard():
    verdict = audit.check_c3(SchemeId.TPM, dim=2, n_samples=30, seed=0)
    assert verdict.status is audit.Status.VIOLATED
    assert verdict.max_violation >= 1.0 - 1e-10


def test_mh_and_work_operator_c3_satisfied():
    for scheme in (SchemeId.MARGENAU_HILL, SchemeId.OPERATOR_OF_WORK):
        verdict = audit.check_c3(scheme, dim=2, n_samples=60, seed=2)
        assert verdict.status is audit.Status.SATISFIED


def test_c1_verdicts():
    assert audit.check_c1_linearity(SchemeId.TPM, 2, 40, 0).status is audit.Status.SATISFIED
    fcs = audit.check_c1_linearity(SchemeId.FCS, 2, 40, 0)
    assert fcs.status is audit.Status.VIOLATED
    assert "negativity" in fcs.notes
    sd = audit.check_c1_linearity(SchemeId.STATE_DEPENDENT, 2, 40, 0)
    assert sd.status is audit.Status.VIOLATED
    assert "nonconvexity" in sd.notes


def test_verdicts_are_monotone_in_evidence():
    small = audit.check_c3(SchemeId.TPM, 2, 10, 5)
    large = audit.check_c3(SchemeId.TPM, 2, 80, 5)
    assert large.max_violation >= small.max_violation - 1e-12
    assert small.status is audit.Status.VIOLATED and large.status is audit.Status.VIOLATED


# --- POVM tomography ---------------------------------------------------------------

def analytic_tpm_povm_oracle(h, hf, u):
    """Independent construction with numpy eigh."""
    e_i, v_i = np.linalg.eigh(h)
    e_f, v_f = np.linalg.eigh(hf)
    ops = {}
    for i in range(h.shape[0]):
        for j in range(h.shape[0]):
            amp = np.abs(v_f[:, j].conj() @ u @ v_i[:, i]) ** 2
            key = round(float(e_f[j] - e_i[i]), 9)
            ops.setdefault(key, np.zeros_like(h))
            ops[key] = ops[key] + amp * np.outer(v_i[:, i], v_i[:, i].conj())
    return ops


def test_reconstruct_tpm_povm_matches_analytic_oracle():
    rng = np.random.default_rng(6)
    h = random_hermitian_np(2, rng) + np.diag([0.0, 3.0])
    hf = random_hermitian_np(2, rng) + np.diag([0.0, 3.0])
    u = haar_unitary_np(2, rng)
    povm = audit.reconstruct_povm(SchemeId.TPM, h, hf, u, seed=0)
    oracle = analytic_tpm_povm_oracle(h, hf, u)
    assert len(povm.labels) == len(oracle)
    for w, op in zip(povm.labels, povm.ops):
        key = min(oracle, key=lambda k: abs(k - w))
        assert abs(key - w) <= 1e-8
        assert max_abs(op - oracle[key]) <= 1e-8
    povm.check(eig_tol=1e-8, sum_tol=1e-8)

    # and the packaged analytic form agrees too
    s = Scenario(dim=2, h_initial=h, h_final=hf, evolution=u,
                 rho=np.eye(2, dtype=complex) / 2)
    packaged = tpm_povm(s)
    for w, op in zip(packaged.labels, packaged.ops):
        key = min(oracle, key=lambda k: abs(k - w))
        assert max_abs(op - oracle[key]) <= 1e-10


def test_reconstruct_fcs_povm_has_negative_operator():
    h = np.diag([0.0, 1.0]).astype(complex)
    povm = audit.reconstruct_povm(SchemeId.FCS, h, h, HADAMARD, seed=0)
    total = sum(op for op in povm.ops)
    assert max_abs(total - np.eye(2)) <= 1e-8
    for op in povm.ops:
        assert max_abs(op - op.conj().T) <= 1e-10
    assert povm.min_eigenvalue() < -1e-3


def test_reconstruct_state_dependent_raises_not_linear():
    h = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(NotLinear):
        audit.reconstruct_povm(SchemeId.STATE_DEPENDENT, h, h, HADAMARD, seed=0)


def test_every_c1_satisfier_reconstructs_on_held_out_states():
    # the reconstruction itself validates on 100 fresh states; reaching this
    # point without NotLinear certifies reproduction within tolerance
    rng = np.random.default_rng(30)
    h = random_hermitian_np(3, rng) + np.diag([0.0, 3.0, 6.0])
    hf = random_hermitian_np(3, rng) + np.diag([0.0, 3.0, 6.0])
    u = haar_unitary_np(3, rng)
    for scheme in (SchemeId.TPM, SchemeId.OPERATOR_OF_WORK):
        povm = audit.reconstruct_povm(scheme, h, hf, u, seed=1)
        povm.check(eig_tol=1e-8, sum_tol=1e-8)


def reconstruct_povm_loop(scheme, h, hf, u):
    """Per-work-value reference: one least-squares solve and one hermitisation per value."""
    dim = h.shape[0]
    states = audit.informationally_complete_states(dim)
    base = Scenario(dim=dim, h_initial=h, h_final=hf, evolution=u, rho=states[0])
    dists = [schemes_mod.distribution(scheme, base.with_rho(rho)) for rho in states]
    support, _ = merge_atoms(np.concatenate([d.works for d in dists]),
                             np.concatenate([d.weights for d in dists]))
    y = np.array([[d.weight_at(w) for w in support] for d in dists])
    m = np.array([rho.T.ravel() for rho in states])
    elements = []
    for col, w in enumerate(support):
        vec, *_ = np.linalg.lstsq(m, y[:, col], rcond=None)
        op = vec.reshape(dim, dim)
        elements.append((float(w), (op + op.conj().T) / 2.0))
    return elements


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_reconstruct_povm_matches_the_loop_reference(dim):
    rng = np.random.default_rng(50 + dim)
    h, hf, u = (random_hermitian_np(dim, rng), degenerate_hermitian(dim, rng),
                haar_unitary_np(dim, rng))
    cases = [(SchemeId.TPM, h, hf, u), (SchemeId.FCS, h, hf, u),
             (SchemeId.OPERATOR_OF_WORK, *degenerate_w_triple(dim, rng))]
    for scheme, *triple in cases:
        povm = audit.reconstruct_povm(scheme, *triple, seed=0)
        ref = reconstruct_povm_loop(scheme, *triple)
        assert povm.labels.tolist() == [w for w, _ in ref]
        for op, (_, op_ref) in zip(povm.ops, ref):
            assert max_abs(op - op_ref) <= 1e-14


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_tomography_inverse_matches_least_squares(dim):
    """The closed form against ``lstsq`` of the d^2 x d^2 system, on the probabilities
    Tr(rho_r X) of random Hermitian X on the informationally complete states."""
    rng = np.random.default_rng(80 + dim)
    states = audit.informationally_complete_states(dim)
    xs = np.array([random_hermitian_np(dim, rng) for _ in range(5)])
    probs = np.einsum("rij,kji->kr", states, xs).real
    system = states.swapaxes(1, 2).reshape(len(states), -1)  # row r: rho_r transposed
    lstsq = np.linalg.lstsq(system, probs.T, rcond=None)[0].T.reshape(-1, dim, dim)
    got = audit._tomography_inverse(probs)
    assert max_abs(got - lstsq) <= 1e-13
    assert max_abs(got - xs) <= 1e-13
    assert (got == la.dag(got)).all()


def test_povm_gap_matches_elements_by_label():
    assert [f.name for f in fields(Povm)] == ["labels", "ops"]
    rng = np.random.default_rng(61)
    povm = tpm_povm(audit.sample_scenario(3, rng))
    perm = rng.permutation(len(povm.labels))
    assert audit._povm_gap(povm, Povm(povm.labels[perm], povm.ops[perm])) == 0.0
    eps = 1e-6
    ops = povm.ops.copy()
    ops[perm[0]] += eps * np.eye(3)
    assert audit._povm_gap(povm, Povm(povm.labels, ops)) == pytest.approx(eps, rel=1e-9)


# --- no-go demonstration -------------------------------------------------------------

def test_demonstrate_nogo_report():
    report = audit.demonstrate_nogo(dim=2, seed=0)
    assert report.forced_vs_analytic_gap <= 1e-8
    assert report.tomography_vs_analytic_gap <= 1e-8
    assert report.diagonal_c2_residual <= 1e-12
    assert report.coherent_c3_gap == pytest.approx(1.0, abs=1e-10)
    assert report.tpm_verdicts == {"c1": "satisfied", "c2": "satisfied", "c3": "violated"}


def test_no_scheme_satisfies_all_three():
    schemes = [SchemeId.TPM, SchemeId.OPERATOR_OF_WORK, SchemeId.FCS,
               SchemeId.MARGENAU_HILL, SchemeId.CONSISTENT_HISTORIES,
               SchemeId.STATE_DEPENDENT, SchemeId.SUB_ENSEMBLE,
               SchemeId.COLLECTIVE_TWO_COPY]
    for scheme in schemes:
        statuses = {
            audit.check_c1_linearity(scheme, 2, 25, 3).status,
            audit.check_c2(scheme, 2, 25, 3).status,
            audit.check_c3(scheme, 2, 25, 3).status,
        }
        assert statuses != {audit.Status.SATISFIED}


# --- collective adapted conditions ----------------------------------------------------

def test_collective_adapted_report():
    report = audit.check_collective_adapted(dim=2, n_samples=120, seed=0)
    assert report.n_contract_violations == 0
    assert report.n_strict_improvements == 120
    assert report.n_ties == 1  # the canonical commuting probe
    assert report.worst_positivity >= -1e-8
    assert report.worst_completeness <= 1e-8
    assert report.adapted_c2_max_tv <= 1e-12
    g_tpm, g_col = report.hadamard_gap_pair
    assert g_tpm == pytest.approx(1.0, abs=1e-12)
    assert g_col <= 1e-12


def test_collective_adapted_positivity_matches_the_loop_reference(monkeypatch):
    # the report reads sample positivity off the factor stacks; the reference fully
    # diagonalises every built two-copy element of each member, one scenario at a time
    real = audit._collective_factors
    for dim in (2, 3, 4):
        seen = []
        monkeypatch.setattr(audit, "_collective_factors",
                            lambda b, lam: seen.append(b) or real(b, lam))
        report = audit.check_collective_adapted(dim=dim, n_samples=4, seed=dim)
        # the tie probe, the 4 coherent samples and the Hadamard probe
        assert [len(b) for b in seen] == [1, 4, 1]
        reference = min(0.0, min(collective_povm(b.scenario(i)).min_eigenvalue()
                                 for b in seen for i in range(len(b))))
        assert abs(report.worst_positivity - reference) <= 1e-14


# --- contextuality witness -------------------------------------------------------------

def test_witness_found_within_budget():
    witness = audit.contextuality_witness(search_budget=10_000, seed=0)
    assert witness is not None
    assert witness.value < -0.05
    k, m = witness.indices
    table, _ = margenau_hill(witness.scenario)
    assert table.weights[k, m] == pytest.approx(witness.value, abs=1e-15)


def test_witness_reevaluates_from_serialized_scenario():
    witness = audit.contextuality_witness(search_budget=2_000, seed=1)
    assert witness is not None
    replay = parse_scenario(serialize_scenario(witness.scenario))
    table, _ = margenau_hill(replay)
    k, m = witness.indices
    assert abs(table.weights[k, m] - witness.value) <= 1e-12


def test_witness_scenario_stable_under_last_bit_noise(monkeypatch):
    # a 2-ulp change in a candidate's value must not change which scenario wins
    clean = serialize_scenario(audit.contextuality_witness(search_budget=500, seed=0).scenario)
    exact = audit._witness_weights
    for noise_seed in range(4):
        rng = np.random.default_rng(noise_seed)

        def noisy(params):
            # shifts all four weights of each candidate, and so its minimum, by +-2 ulp
            w = exact(params)
            shift = rng.integers(-2, 3, len(w)) * np.spacing(w.min(axis=(1, 2)))
            return w + shift[:, None, None]

        monkeypatch.setattr(audit, "_witness_weights", noisy)
        witness = audit.contextuality_witness(search_budget=500, seed=0)
        assert serialize_scenario(witness.scenario) == clean


_WITNESS_SPANS = np.array([np.pi, 2 * np.pi, 2 * np.pi, np.pi, 2 * np.pi])


def _loop_qubit_unitary(angles):
    a, b, c = angles
    rz1 = np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])
    ry = np.array([[math.cos(b / 2.0), -math.sin(b / 2.0)],
                   [math.sin(b / 2.0), math.cos(b / 2.0)]], dtype=complex)
    rz2 = np.diag([np.exp(-0.5j * c), np.exp(0.5j * c)])
    return rz1 @ ry @ rz2


def _loop_witness_value(params):
    """One candidate as its own validated Scenario and margenau_hill table."""
    theta, phi, a, b, c = params
    psi = np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)])
    s = Scenario(dim=2, h_initial=H01, h_final=H01, evolution=_loop_qubit_unitary((a, b, c)),
                 rho=projector(psi), label="witness-candidate")
    table, _ = margenau_hill(s)
    k, m = np.unravel_index(int(np.argmin(table.weights)), table.weights.shape)
    return float(table.weights[k, m]), (int(k), int(m)), s


def _loop_witness_search(search_budget, seed):
    """The search candidate by candidate, each scored through _loop_witness_value."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    n_random = max(1, int(0.8 * search_budget))
    best, best_params = (np.inf, (0, 0), None), None
    for _ in range(n_random):
        params = rng.random(5) * _WITNESS_SPANS
        value, idx, s = _loop_witness_value(params)
        if value < best[0] - audit.WITNESS_TIE_TOL:
            best, best_params = (value, idx, s), params
    step = 0.4
    for i in range(search_budget - n_random):
        coord = i % 5
        trial = best_params.copy()
        trial[coord] += rng.normal() * step * _WITNESS_SPANS[coord] / np.pi
        value, idx, s = _loop_witness_value(trial)
        if value < best[0] - audit.WITNESS_TIE_TOL:
            best, best_params = (value, idx, s), trial
        if coord == 4:
            step *= 0.93
    if best[0] < -audit.VIOLATION_FLOOR:
        return audit.ContextualityWitness(scenario=best[2], indices=best[1], value=best[0])
    return None


def test_witness_weights_match_margenau_hill_on_validated_scenarios():
    params = np.random.default_rng(13).random((200, 5)) * _WITNESS_SPANS
    weights = audit._witness_weights(params)
    _, unitaries = audit._witness_candidates(params)
    for row, w, u in zip(params, weights, unitaries):
        _, _, s = _loop_witness_value(row)
        table, _ = margenau_hill(s)
        assert max_abs(w - table.weights) <= 1e-15
        assert np.argmin(w) == np.argmin(table.weights)
        # the closed form multiplies in the order of Rz(a) Ry(b) Rz(c)
        assert np.array_equal(u, s.evolution)


def test_witness_search_equals_the_loop_reference():
    # budgets 1, 2 and 6 refine with no trial, one trial and fewer trials than one block
    # of _WITNESS_BLOCK; 500 and 2,500 with many blocks
    for budget, seeds in ((1, range(6)), (2, range(6)), (6, range(6)), (500, range(6)),
                          (2_500, range(2))):
        for seed in seeds:
            stacked = audit.contextuality_witness(search_budget=budget, seed=seed)
            loop = _loop_witness_search(budget, seed)
            assert (stacked is None) == (loop is None), (budget, seed)
            if stacked is not None:
                assert stacked.to_dict() == loop.to_dict(), (budget, seed)


def test_witness_refinement_scores_its_trials_in_blocks(monkeypatch):
    calls = []
    exact = audit._witness_weights
    monkeypatch.setattr(audit, "_witness_weights",
                        lambda params: calls.append(len(params)) or exact(params))
    audit.contextuality_witness(search_budget=2_500, seed=1)
    # one stack for the 2,000 random candidates, then blocks of the 500 refinement
    # trials; scoring one trial at a time takes 501 calls
    assert calls[0] == 2_000
    assert len(calls) <= 100
    assert max(calls[1:]) <= audit._WITNESS_BLOCK
    assert sum(calls[1:]) >= 500


def test_witness_search_builds_one_scenario(monkeypatch):
    built = []
    post_init = Scenario.__post_init__
    monkeypatch.setattr(Scenario, "__post_init__",
                        lambda self: built.append(self.label) or post_init(self))
    assert audit.contextuality_witness(search_budget=2500, seed=1) is not None
    assert built == ["witness-candidate"]


def test_witness_absent_for_diagonal_states():
    # diagonal joint weights are TPM probabilities, so no negativity exists
    rho = np.diag([0.3, 0.7]).astype(complex)
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=HADAMARD, rho=rho)
    table, _ = margenau_hill(s)
    assert table.weights.min() >= -1e-12


# --- survey table ----------------------------------------------------------------------

def test_table1_small_sample_pattern_matches():
    report = audit.build_table1(audit.Table1Config(dim=2, samples=40, seed=0))
    pattern = report.pattern()
    for scheme, expected in audit.EXPECTED_TABLE1_PATTERN.items():
        assert pattern[scheme] == expected, scheme
    for scheme in ("hamilton_jacobi", "beyond_work_distributions"):
        assert pattern[scheme] == ("out-of-scope",) * 3


def test_table1_audited_rows_equal_the_direct_checks():
    n, seed = 20, 3
    rows = {row.scheme: row for row in
            audit.build_table1(audit.Table1Config(dim=2, samples=n, seed=seed)).rows}
    audited = [SchemeId.TPM, SchemeId.OPERATOR_OF_WORK, SchemeId.FCS, SchemeId.MARGENAU_HILL,
               SchemeId.CONSISTENT_HISTORIES, SchemeId.STATE_DEPENDENT]
    for scheme in audited:
        row = rows[scheme.value]
        assert asdict(row.c1) == asdict(audit.check_c1_linearity(scheme, 2, n, seed)), scheme
        assert asdict(row.c2) == asdict(audit.check_c2(scheme, 2, n, seed)), scheme
        assert asdict(row.c3) == asdict(audit.check_c3(scheme, 2, n, seed)), scheme


def test_gaussian_row_forms_one_amplitude_stack_per_batch(monkeypatch):
    formed = []
    original = pointer_mod._amplitudes
    monkeypatch.setattr(pointer_mod, "_amplitudes",
                        lambda centers, xs, spread: formed.append(xs.size)
                        or original(centers, xs, spread))
    row = audit._gaussian_row(audit.Table1Config(seed=5))
    s = audit.hadamard_scenario()
    strong = pointer_mod.PointerConfig.for_scenario(s, *audit.POINTER_STRONG)
    # C1's 30 states and C2's two strong-coupling states are one batch, one stack;
    # C2 and C3 share it and one weak readout
    assert formed[0] == strong.n_points
    assert len(formed) == 2
    # C1 state by state, through the meter of each Scenario
    monkeypatch.undo()
    rng = np.random.default_rng(np.random.SeedSequence([5, 8]))
    lin = 0.0
    for _ in range(10):
        rho1, rho2 = la.random_density(2, rng), la.random_density(2, rng)
        lam = float(rng.uniform(0.2, 0.8))
        d_mix, d1, d2 = (pointer_mod.gaussian_meter(s.with_rho(rho), strong).density
                         for rho in (lam * rho1 + (1 - lam) * rho2, rho1, rho2))
        lin = max(lin, float(np.max(np.abs(d_mix - lam * d1 - (1 - lam) * d2))))
    assert abs(row.c1.max_violation - lin) <= 1e-15


def test_ch_history_grids_follow_the_trajectory_budget():
    assert [audit._ch_steps(d, 6) for d in (2, 7, 8, 16, 64, 102)] == [6, 6, 5, 4, 2, None]


def test_ch_conditions_without_a_fitting_grid_are_inconclusive():
    # no K >= 2 fits from d = 102; no sample is needed to see it
    for grade in (audit._grade_c1, audit._grade_c2):
        verdict = grade(SchemeId.CONSISTENT_HISTORIES, 102, [])
        assert verdict.status is audit.Status.INCONCLUSIVE
        assert verdict.max_violation is None
        assert f"trajectory budget d^(K+1) <= {schemes_mod.TRAJ_CAP}" in verdict.notes
    # C3 reads the closed-form first moment, which no budget limits
    verdict = audit.check_c3(SchemeId.CONSISTENT_HISTORIES, dim=17, n_samples=10, seed=1)
    assert verdict.status is audit.Status.SATISFIED
    assert "K ladder [4, 8, 16]" in verdict.notes


def test_ch_c3_never_enumerates_histories(monkeypatch):
    def enumerate_histories(*args):
        raise AssertionError("consistent_histories was called")

    monkeypatch.setattr(schemes_mod, "consistent_histories", enumerate_histories)
    monkeypatch.setattr(schemes_mod, "_ch_distributions", enumerate_histories)
    monkeypatch.setattr(audit, "consistent_histories", enumerate_histories, raising=False)
    verdict = audit.check_c3(SchemeId.CONSISTENT_HISTORIES, dim=2, n_samples=5)
    assert verdict.status is audit.Status.SATISFIED


def test_table1_pattern_is_seed_independent():
    a = audit.build_table1(audit.Table1Config(dim=2, samples=25, seed=11)).pattern()
    b = audit.build_table1(audit.Table1Config(dim=2, samples=25, seed=99)).pattern()
    assert a == b
