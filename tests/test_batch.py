"""ScenarioBatch, the batch kernels and the batched graders.

The per-sample graders below are the form the C1, C2 and C3 checks had before
they graded whole batches: one Scenario and one distribution at a time, each
through ``schemes.distribution``.  They are kept here as the oracle of the
batched graders in ``audit``.
"""

import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qworklab import audit
from qworklab import linalg as la
from qworklab import scenario as scenario_mod
from qworklab import schemes as sch
from qworklab.errors import DegenerateRhoWarning, ValidationError
from qworklab.linalg import eig_hermitian
from qworklab.scenario import (
    DrivingProtocol,
    Scenario,
    ScenarioBatch,
    mean_energy_change,
    scenario_from_dict,
)
from qworklab.schemes import SchemeId

from conftest import (
    HADAMARD,
    degenerate_hermitian,
    degenerate_w_triple,
    derivative_at_loop,
    haar_unitary_np,
    projector_pairs,
    propagator_loop,
    random_density_np,
    random_hermitian_np,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from cli_snapshot import degenerate_doc  # noqa: E402

BATCHED = [SchemeId.TPM, SchemeId.OPERATOR_OF_WORK, SchemeId.FCS, SchemeId.MARGENAU_HILL,
           SchemeId.STATE_DEPENDENT, SchemeId.SUB_ENSEMBLE, SchemeId.COLLECTIVE_TWO_COPY]
KERNELS = BATCHED + [SchemeId.CONSISTENT_HISTORIES]  # every scheme with a batch kernel
C = audit.Condition


# --- the per-sample graders, the oracle of the batched ones -------------------------

def reference_dist(scheme, s, k_steps):
    """The scheme on one Scenario."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateRhoWarning)
        return sch.distribution(scheme, s, k_steps=k_steps)


def reference_blend(d1, d2, lam):
    works = np.concatenate([d1.works, d2.works])
    weights = np.concatenate([lam * d1.weights, (1.0 - lam) * d2.weights])
    w, p = sch.merge_atoms(works, weights)
    return sch.WorkDistribution(works=w, weights=p, scheme=d1.scheme, is_quasi=True)


def reference_ensemble(condition, dim, n, seed, driven=False):
    """The checks' instances, sampled one Scenario at a time from the same stream."""
    stream = list(C).index(condition) + 1
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    if condition is not C.C1_LINEAR_POVM:
        coherent = condition is C.C3_FIRST_LAW
        return [audit.sample_scenario(dim, rng, coherent=coherent, driven=driven)
                for _ in range(n)]
    mixtures = []
    for _ in range(n):
        base = audit.sample_scenario(dim, rng, coherent=True, driven=driven)
        rho1 = la.random_density(dim, rng)
        rho2 = la.random_density(dim, rng)
        lam = float(rng.uniform(0.2, 0.8))
        mix = lam * rho1 + (1.0 - lam) * rho2
        mixtures.append((base.with_rho(mix), base.with_rho(rho1), base.with_rho(rho2), lam))
    return mixtures


def reference_grade_c2(scheme, dim, samples):
    k_steps = audit._ch_steps(dim, audit.DEFAULT_CH_STEPS)
    probes = []
    if scheme is SchemeId.OPERATOR_OF_WORK:
        probes.append((audit._probe_work_operator_c2(dim), audit.DEFAULT_CH_STEPS))
    cases = probes + [(s, k_steps) for s in samples]
    worst, witness, _ = audit._worst(
        (reference_dist(scheme, s, kk).tv_distance(sch.tpm(s)[0]), s, "tv distance to TPM")
        for s, kk in cases)
    return audit._graded(C.C2_TPM_AGREEMENT, worst, witness,
                         notes=f"{len(cases)} diagonal-state scenarios, dim {dim}")


def reference_grade_c3(scheme, dim, samples):
    cases = ([audit.hadamard_scenario()] if scheme is SchemeId.TPM and dim == 2 else []) + samples
    worst, witness, _ = audit._worst(
        (abs(reference_dist(scheme, s, audit.DEFAULT_CH_STEPS).mean() - mean_energy_change(s)),
         s, "first-law gap") for s in cases)
    return audit._graded(C.C3_FIRST_LAW, worst, witness,
                         notes=f"{len(cases)} coherent scenarios, dim {dim}")


def reference_grade_c1(scheme, dim, mixtures):
    k_steps = audit._ch_steps(dim, audit.DEFAULT_CH_STEPS)
    notes = f"linearity + positivity over dim {dim}"
    neg_probes = []
    if scheme is SchemeId.FCS:
        neg_probes.append(audit._probe_fcs_negativity(dim))
    if scheme is SchemeId.MARGENAU_HILL:
        neg_probes.append(audit._probe_mh_negativity(dim))
    mix_probes = []
    if scheme in (SchemeId.STATE_DEPENDENT, SchemeId.SUB_ENSEMBLE):
        mix_probes.append(audit._probe_state_dependent_mixture(dim))
    if scheme is SchemeId.COLLECTIVE_TWO_COPY:
        mix_probes.append(audit._probe_collective_mixture(dim))

    def cases():
        for s in neg_probes:
            yield max(0.0, -reference_dist(scheme, s, k_steps).min_weight()), s, "negativity"
        for s_mix, s1, s2, lam in mix_probes + mixtures:
            d_mix, d1, d2 = (reference_dist(scheme, s, k_steps) for s in (s_mix, s1, s2))
            yield d_mix.tv_distance(reference_blend(d1, d2, lam)), s_mix, "nonconvexity"
            for d, s in ((d_mix, s_mix), (d1, s1), (d2, s2)):
                yield max(0.0, -d.min_weight()), s, "negativity"

    worst, witness, mode = audit._worst(cases())
    if mode:
        notes += f"; dominant failure mode: {mode}"
    return audit._graded(C.C1_LINEAR_POVM, worst, witness, notes=notes)


REFERENCE_GRADERS = {C.C1_LINEAR_POVM: (reference_grade_c1, audit._grade_c1),
                     C.C2_TPM_AGREEMENT: (reference_grade_c2, audit._grade_c2),
                     C.C3_FIRST_LAW: (reference_grade_c3, audit._grade_c3)}


def assert_same_witness(got, ref):
    assert (got is None) == (ref is None)
    if got is None:
        return
    assert got["detail"] == ref["detail"]
    assert got["value"] == pytest.approx(ref["value"], rel=0, abs=1e-12)
    a, b = got["scenario"], ref["scenario"]
    assert (a["dim"], a["label"], a["evolution"]["type"]) == (b["dim"], b["label"],
                                                             b["evolution"]["type"])
    for key in ("H", "H_final", "rho"):
        np.testing.assert_allclose(a[key], b[key], rtol=0, atol=1e-12)
    np.testing.assert_allclose(a["evolution"]["U"], b["evolution"]["U"], rtol=0, atol=1e-12)


@pytest.mark.parametrize("condition", list(C), ids=lambda c: c.name[:2])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_batched_graders_match_the_per_sample_reference(condition, dim):
    reference, batched = REFERENCE_GRADERS[condition]
    for seed in range(5):
        ensemble = audit._ensemble(condition, dim, 6, seed, driven=False)
        samples = reference_ensemble(condition, dim, 6, seed)
        for scheme in BATCHED:
            got, ref = batched(scheme, dim, ensemble), reference(scheme, dim, samples)
            assert got.status is ref.status, (scheme, seed)
            assert got.notes == ref.notes, (scheme, seed)
            assert got.max_violation == pytest.approx(ref.max_violation, rel=0, abs=1e-12)
            assert_same_witness(got.witness, ref.witness)


def test_the_batch_sampler_draws_the_per_sample_stream():
    for condition in C:
        for driven in (False, True):
            batch = audit._ensemble(condition, 3, 5, 7, driven)
            samples = reference_ensemble(condition, 3, 5, 7, driven)
            pairs = [(batch, samples)]
            if condition is C.C1_LINEAR_POVM:  # the mixtures, first and second components
                assert batch[3].tolist() == [m[3] for m in samples]
                pairs = [(batch[k], [m[k] for m in samples]) for k in range(3)]
            # the stacked arithmetic is bitwise the per-sample one
            for batch, scenarios in pairs:
                assert len(batch) == len(scenarios)
                for i, s in enumerate(scenarios):
                    member = batch.scenario(i)
                    for a, b in ((member.h_initial, s.h_initial), (member.h_final, s.h_final),
                                 (member.rho, s.rho), (member.unitary(), s.unitary())):
                        np.testing.assert_array_equal(a, b)
                    for name in ("H", "H_final"):  # the drawn spectra the batch holds
                        np.testing.assert_array_equal(member.spectrum(name).eigenvalues,
                                                      s.spectrum(name).eigenvalues)
                        np.testing.assert_array_equal(member.spectrum(name).eigenvectors,
                                                      s.spectrum(name).eigenvectors)


# --- each member is its own batch of one ---------------------------------------------

def assert_same_atoms(got, ref, atol=1e-14):
    assert got.works.shape == ref.works.shape
    np.testing.assert_allclose(got.works, ref.works, rtol=0, atol=atol)
    np.testing.assert_allclose(got.weights, ref.weights, rtol=0, atol=atol)


def member_ensemble(dim, seed, driven):
    """Mixtures and their components, three members on each sampled experiment; driven,
    with the consistent-histories negativity probe first, whose X(t_j) have the
    eigenvalues +-sqrt 2 and, from d = 3, 0 of multiplicity d - 2 (at d = 4 a count
    below the samples' and a rank above theirs)."""
    mixed, first, second, _ = audit._ensemble(C.C1_LINEAR_POVM, dim, 4, seed, driven=driven)
    batch = mixed.with_rho(np.concatenate([mixed.rho, first.rho, second.rho]),
                           np.tile(mixed.experiment, 3))
    if not driven:
        return batch
    return ScenarioBatch.of([audit._probe_ch_negativity(dim)]
                            + [batch.scenario(i) for i in range(len(batch))])


@pytest.mark.parametrize("scheme", KERNELS, ids=lambda s: s.value)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_each_member_matches_its_batch_of_one(scheme, dim):
    k_steps = 4  # the history grid; the other kernels take none
    for seed in range(5):
        batch = member_ensemble(dim, seed, driven=scheme is SchemeId.CONSISTENT_HISTORIES)
        dists = sch.distributions(scheme, batch, k_steps=k_steps)
        assert len(dists) == len(batch)
        for i in range(len(batch)):
            one = batch.with_rho(batch.rho[[i]], batch.experiment[[i]])
            assert_same_atoms(dists[i], sch.distributions(scheme, one, k_steps=k_steps)[0])
            # and the member as a Scenario, through the per-scenario entry point
            assert_same_atoms(dists[i], reference_dist(scheme, batch.scenario(i), k_steps))


def test_large_batches_run_in_bounded_parts(monkeypatch):
    batch = audit._ensemble(C.C3_FIRST_LAW, 3, 7, 0, driven=False)
    driven = audit._ensemble(C.C3_FIRST_LAW, 3, 7, 0, driven=True)
    histories = ScenarioBatch.of([audit._probe_ch_negativity(3)]
                                 + [driven.scenario(i) for i in range(len(driven))])
    whole = {scheme: sch.distributions(scheme, batch) for scheme in BATCHED}
    whole_histories = sch.distributions(SchemeId.CONSISTENT_HISTORIES, histories, k_steps=3)
    checks = (audit.check_c1_linearity, audit.check_c2, audit.check_c3)
    verdicts = {(c, s): asdict(c(s, 3, 5, 0)) for c in checks for s in KERNELS}
    monkeypatch.setattr(scenario_mod, "_PART_ENTRIES", 2 * 3 ** 3)  # two members per part at d = 3
    assert scenario_mod._part_bounds(7, 3 ** 3) == [(0, 2), (2, 4), (4, 6), (6, 7)]
    for scheme in BATCHED:
        parts = sch.distributions(scheme, batch)
        assert np.array_equal(parts.offsets, whole[scheme].offsets)
        for i in range(len(batch)):
            assert_same_atoms(parts[i], whole[scheme][i])
    for (check, scheme), verdict in verdicts.items():
        assert asdict(check(scheme, 3, 5, 0)) == verdict, (check.__name__, scheme)
    # histories count d^(K+1) = 81 entries a member at K = 3: two members per part
    monkeypatch.setattr(scenario_mod, "_PART_ENTRIES", 2 * 3 ** 4)
    kernel, parts = sch._ch_distributions, []
    monkeypatch.setattr(sch, "_ch_distributions",
                        lambda b, k_steps: parts.append(len(b)) or kernel(b, k_steps))
    got = sch.distributions(SchemeId.CONSISTENT_HISTORIES, histories, k_steps=3)
    assert parts == [2, 2, 2, 2]
    assert np.array_equal(got.offsets, whole_histories.offsets)
    for i in range(len(histories)):
        assert_same_atoms(got[i], whole_histories[i])


@pytest.mark.parametrize("scheme", [SchemeId.TPM, SchemeId.FCS, SchemeId.STATE_DEPENDENT,
                                    SchemeId.SUB_ENSEMBLE], ids=lambda s: s.value)
def test_parts_form_the_per_experiment_products_once(scheme, monkeypatch):
    """The products a kernel reads off the experiments alone (T = V'^dag U V, V'^dag U and
    U^dag H' U, each made from U) are formed once per batch, not once per part: with two
    members per part, six parts over four experiments read U once between them."""
    whole = sch.distributions(scheme, member_ensemble(3, 0, driven=False))
    batch = member_ensemble(3, 0, driven=False)  # the same members, nothing derived yet
    unitary, reads = ScenarioBatch.unitary, []
    monkeypatch.setattr(ScenarioBatch, "unitary", lambda b: reads.append(b) or unitary(b))
    monkeypatch.setattr(scenario_mod, "_PART_ENTRIES", 2 * 3 ** 3)  # two members per part at d = 3
    kernel, parts = sch._BATCH_KERNELS[scheme], []
    monkeypatch.setitem(sch._BATCH_KERNELS, scheme,
                        lambda b, *opts: parts.append(len(b)) or kernel(b, *opts))
    got = sch.distributions(scheme, batch)
    assert len(batch) == 12 and len(np.unique(batch.experiment)) == 4
    assert parts == [2] * 6 and len(reads) == 1
    assert np.array_equal(got.offsets, whole.offsets)
    for i in range(len(batch)):
        assert_same_atoms(got[i], whole[i])


def test_support_masses_match_the_hit_matrix():
    rng = np.random.default_rng(3)
    tol = sch.W_MERGE_TOL + 1e-12
    for _ in range(50):
        # some support gaps under 2 tol, so that an atom can be near two values
        support = np.cumsum(rng.choice([1.5e-9, 0.3, 1.0], 6))
        works = rng.choice(support, 24) + rng.choice([0.0, tol, -tol, 6e-10, -2e-9, 0.1], 24)
        offsets = np.array([0, 5, 6, 15, 24])
        dists = sch.WorkBatch(works, rng.standard_normal(24), offsets, SchemeId.FCS, True)
        mass, stray = dists.masses(support, tol)
        for i in range(4):
            w, p = works[offsets[i]:offsets[i + 1]], dists.weights[offsets[i]:offsets[i + 1]]
            hit = np.abs(w[None, :] - support[:, None]) <= tol
            np.testing.assert_allclose(mass[i], hit @ p, rtol=0, atol=1e-15)
            assert stray[i] == pytest.approx(np.abs(p[~hit.any(axis=0)]).sum(), abs=1e-15)


@given(sizes=st.lists(st.integers(0, 12), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_segmented_merge_equals_merging_each_member_alone(sizes, seed):
    rng = np.random.default_rng(seed)
    members = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    # coarse works, so that equal and nearly equal values occur within a member
    works = rng.integers(-4, 5, members.size) + rng.choice([0.0, 3e-10, 0.25], members.size)
    weights = rng.standard_normal(members.size)
    w, p, seg = sch.merge_atoms(works, weights, members)
    assert np.all(np.diff(seg) >= 0)
    for m in range(len(sizes)):
        alone = sch.merge_atoms(works[members == m], weights[members == m])
        assert np.array_equal(w[seg == m], alone[0]) and np.array_equal(p[seg == m], alone[1])


# --- members that differ ----------------------------------------------------------------

def test_members_with_different_eigenspace_counts_share_a_batch():
    rng = np.random.default_rng(31)
    for dim in (3, 4):
        h, h_final, u = degenerate_w_triple(dim, rng)
        scenarios = [  # degenerate H and H_final, generic, and a degenerate W
            Scenario(dim=dim, h_initial=degenerate_hermitian(dim, rng),
                     h_final=degenerate_hermitian(dim, rng),
                     evolution=haar_unitary_np(dim, rng), rho=random_density_np(dim, rng)),
            Scenario(dim=dim, h_initial=random_hermitian_np(dim, rng),
                     h_final=random_hermitian_np(dim, rng),
                     evolution=haar_unitary_np(dim, rng), rho=random_density_np(dim, rng)),
            Scenario(dim=dim, h_initial=h, h_final=h_final, evolution=u,
                     rho=random_density_np(dim, rng)),
        ]
        batch = ScenarioBatch.of(scenarios)
        # NaN marks a label past a member's count: the first member lacks one eigenspace of
        # H and of H_final, the third one of W
        labels = (batch.eigenspaces("H")[0], batch.eigenspaces("H_final")[0],
                  sch._work_operators(batch)[2])
        missing = [np.isnan(x).sum(axis=1).tolist() for x in labels]
        assert missing[0][:2] == missing[1][:2] == [1, 0] and missing[2][1:] == [0, 1]
        for scheme in BATCHED:
            dists = sch.distributions(scheme, batch)
            for i, s in enumerate(scenarios):
                assert_same_atoms(dists[i], sch.distributions(scheme, ScenarioBatch.of([s]))[0])


def joint_loop(s, scheme):
    """Plain-loop TPM or Margenau-Hill: one atom per pair of eigenspace projectors."""
    u = s.unitary()
    works, weights = [], []
    for e_a, p in projector_pairs(eig_hermitian(s.h_initial)):
        x = p @ s.rho @ p if scheme is SchemeId.TPM else s.rho @ p
        evolved = u @ x @ u.conj().T
        for e_b, q in projector_pairs(eig_hermitian(s.h_final)):
            works.append(e_b - e_a)
            weights.append(float(np.trace(q @ evolved).real))
    return sch.WorkDistribution.from_atoms(works, weights, scheme,
                                           is_quasi=scheme is SchemeId.MARGENAU_HILL)


def test_the_degenerate_snapshot_file_keeps_its_joint_distributions():
    s = scenario_from_dict(degenerate_doc(3, seed=2003))
    assert len(s.eigenspaces("H_final")[0]) == 2
    for scheme in (SchemeId.TPM, SchemeId.MARGENAU_HILL):
        assert_same_atoms(sch.distribution(scheme, s), joint_loop(s, scheme))


def test_state_dependent_drops_null_eigenstates_before_the_merge():
    # rho's null eigenstate |2> would put atoms 5e-10 from the kept ones at works 0 and -1
    base = Scenario(dim=3, h_initial=np.diag([0.0, 1.0, 2.0 + 5e-10]),
                    h_final=np.diag([0.0, 1.0, 2.0]), evolution=np.eye(3),
                    rho=np.eye(3, dtype=complex) / 3)
    rng = np.random.default_rng(5)
    rank_two = np.diag([0.7, 0.3, 0.0]).astype(complex)
    stack = np.array([random_density_np(3, rng), rank_two, random_density_np(3, rng)])
    batch = ScenarioBatch.of([base]).with_rho(stack)
    dists = sch.distributions(SchemeId.STATE_DEPENDENT, batch)
    assert dists[1].works.tolist() == [0.0] and dists[1].weights.tolist() == [1.0]
    for i in range(3):
        assert_same_atoms(dists[i], sch.distributions(SchemeId.STATE_DEPENDENT,
                                                      batch.with_rho(stack[[i]]))[0])
    assert len(dists[0]) == len(dists[2]) == 9


def test_degenerate_rho_warns_dist_callers_and_not_the_graders():
    s = Scenario(dim=2, h_initial=np.diag([1.0, -1.0]), h_final=np.diag([1.0, -1.0]),
                 evolution=HADAMARD, rho=np.eye(2, dtype=complex) / 2.0)
    with pytest.warns(DegenerateRhoWarning):
        sch.distribution(SchemeId.STATE_DEPENDENT, s)
    probe = audit._probe_state_dependent_mixture(3)  # rho padded with zeros: degenerate
    with pytest.warns(DegenerateRhoWarning):
        sch.distributions(SchemeId.STATE_DEPENDENT, ScenarioBatch.of(probe[:3]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateRhoWarning)
        for check in (audit.check_c1_linearity, audit.check_c2, audit.check_c3):
            check(SchemeId.STATE_DEPENDENT, dim=3, n_samples=5, seed=0)


# --- what the batch holds ----------------------------------------------------------------

def test_a_sampled_batch_solves_no_hamiltonian_and_validates_each_stack_once(monkeypatch):
    solved, checked = [], []
    original_jacobi, original_require = la._jacobi, la._require

    def recording(a):
        solved.append(a.shape)
        return original_jacobi(a)

    def counting(m, name, kind, ndim=None):
        checked.append((name, np.shape(m)))
        return original_require(m, name, kind, ndim)

    for module in (la, sch):  # scenario solves through linalg._eig
        monkeypatch.setattr(module, "_jacobi", recording)
    monkeypatch.setattr(scenario_mod, "_require", counting)
    batch = audit._ensemble(C.C3_FIRST_LAW, 3, 20, 0, driven=False)
    assert checked == [("H", (20, 3, 3)), ("H_final", (20, 3, 3)),
                       ("evolution.U", (20, 3, 3)), ("rho", (20, 3, 3))]
    for scheme in (SchemeId.TPM, SchemeId.FCS, SchemeId.MARGENAU_HILL):
        sch.distributions(scheme, batch)
    assert solved == []
    sch.distributions(SchemeId.OPERATOR_OF_WORK, batch)
    sch.distributions(SchemeId.STATE_DEPENDENT, batch)
    assert solved == [(20, 3, 3), (20, 3, 3)]  # all W in one stack, all rho in another


_H01 = np.diag([0.0, 1.0]).astype(complex)


@pytest.mark.parametrize("evolution, kind, path", [
    (np.eye(3, dtype=complex), "DimMismatch", "evolution.U"),
    (DrivingProtocol([0.0, 1.0], [np.diag([0.0, 1.0, 2.0])] * 2), "DimMismatch", "evolution"),
    (DrivingProtocol([0.0, 1.0], [np.diag([0.0, 5.0]), np.diag([0.0, 7.0])]),
     "EndpointMismatch", "evolution.breakpoints[0].H"),
], ids=["unitary-of-another-size", "protocol-of-another-size", "protocol-endpoints"])
def test_build_rejects_what_a_scenario_rejects(evolution, kind, path):
    """One experiment check: a d = 2 batch fails where its Scenario fails, with the
    same kind, and at the member's path where the fault is one member's."""
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValidationError) as single:
        Scenario(dim=2, h_initial=_H01, h_final=_H01, evolution=evolution, rho=rho)
    assert (single.value.kind, single.value.path) == (kind, path)
    stacked = evolution[None] if isinstance(evolution, np.ndarray) else (evolution,)
    with pytest.raises(ValidationError) as batch:
        ScenarioBatch.build(_H01[None], _H01[None], stacked, rho[None], [0], {})
    member = path if path == "evolution.U" else f"{path}[0]"  # a size is the whole stack's
    assert (batch.value.kind, batch.value.path) == (kind, member)
    assert str(batch.value).endswith(str(single.value).split(": ", 1)[1])


@pytest.mark.parametrize("experiment", [[-1], [2], [0, 1]], ids=["negative", "past-m", "two"])
def test_with_rho_rejects_the_experiment_indices_build_rejects(experiment):
    batch = audit._sample_batch(2, 2, np.random.default_rng(0), coherent=True, driven=False)
    with pytest.raises(ValidationError) as err:
        ScenarioBatch.build(batch.h_initial, batch.h_final, batch.evolution, batch.rho[:1],
                            experiment, {})
    assert (err.value.kind, err.value.path) == ("DimMismatch", "batch")
    with pytest.raises(ValidationError) as err:
        batch.with_rho(batch.rho[:1], experiment)
    assert (err.value.kind, err.value.path) == ("DimMismatch", "experiment")


def test_nogo_solves_neither_drawn_hamiltonian(monkeypatch):
    from test_audit import _LookupRecorder

    cache = _LookupRecorder()
    monkeypatch.setattr(la, "_EIG_CACHE", cache)
    solved = []
    original = la._jacobi

    def recording(a):
        solved.append(a.copy())
        return original(a)

    for module in (la, sch):  # scenario solves through linalg._eig
        monkeypatch.setattr(module, "_jacobi", recording)
    for dim, seed in ((2, 1), (3, 0)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
        h, hf = (audit._random_spectrum(dim, rng).reconstruct() for _ in range(2))
        solved.clear()
        report = audit.demonstrate_nogo(dim, seed)
        assert report.tpm_verdicts == {"c1": "satisfied", "c2": "satisfied", "c3": "violated"}
        for op in (h, hf):
            assert repr(op.shape).encode() + op.tobytes() not in cache.keys
            assert not any(a.shape[-2:] == op.shape and np.any(np.all(a == op, axis=(-2, -1)))
                           for a in solved)


# --- driven experiments on stacks ---------------------------------------------------------

def counting_compiles(monkeypatch):
    """The protocols each ``compile_unitary`` call receives, and the unpatched compile."""
    calls, real = [], scenario_mod.compile_unitary
    monkeypatch.setattr(scenario_mod, "compile_unitary", lambda p: calls.append(p) or real(p))
    return calls, real


def test_a_batch_compiles_each_protocol_as_it_compiles_alone(monkeypatch):
    batch = audit._ensemble(C.C3_FIRST_LAW, 3, 8, 0, driven=True)
    calls, real = counting_compiles(monkeypatch)
    u = batch.unitary()
    assert len(calls) == 1  # the sampled protocols share one substep mesh
    for j, protocol in enumerate(batch.evolution):
        alone = real(protocol)
        s = batch.scenario(j)
        assert u[j].tobytes() == alone[0].tobytes()  # the products keep their order: atol 0
        [(_, _, mesh, unitaries)] = ScenarioBatch.of([s])._compiles()
        for got, ref in zip((s.unitary(), mesh, unitaries[0]), alone):
            assert got.tobytes() == ref.tobytes()
        sch.consistent_histories(s, 4)  # the history kernel reads the batch's compile
    assert len(calls) == 1


def test_a_scenario_taken_from_a_batch_reads_the_batch_facts(monkeypatch):
    batch = audit._sample_batch(3, 4, np.random.default_rng(41), coherent=True, driven=True)
    sampled = audit.sample_scenario(3, np.random.default_rng(42), driven=True)
    u = batch.unitary()  # both compiled before anything is counted
    sampled.unitary()
    taken = [batch.scenario(i) for i in range(len(batch))] + [sampled]
    taken += [s.with_rho(la.random_density(3, 43 + i)) for i, s in enumerate(taken)]
    calls, _ = counting_compiles(monkeypatch)
    solved = []
    original = la._jacobi

    def recording(a):
        solved.append(a.copy())
        return original(a)

    for module in (la, sch):  # scenario solves through linalg._eig
        monkeypatch.setattr(module, "_jacobi", recording)
    for i, s in enumerate(taken):
        if i % 5 < 4:  # the batch's members and their copies read its compile as it is
            assert s.unitary().tobytes() == u[i % 5].tobytes()
        s.unitary(), s.spectrum("H")
        sch.consistent_histories(s, 4)
    assert calls == []
    assert not any(a.shape[-2:] == op.shape and np.any(np.all(a == op, axis=(-2, -1)))
                   for a in solved for s in taken for op in (s.h_initial, s.h_final))


def mixed_mesh_scenarios(rng):
    """Driven d = 3 scenarios on three meshes: two breakpoint sets, and 8 or 16 steps."""
    out = []
    for times, steps in (([0.0, 1.0], 16), ([0.0, 0.4, 1.0], 16), ([0.0, 1.0], 16),
                         ([0.0, 1.0], 8), ([0.0, 0.4, 1.0], 16)):
        hams = [random_hermitian_np(3, rng) for _ in times]
        out.append(Scenario(3, hams[0], hams[-1], DrivingProtocol(times, hams, steps),
                            random_density_np(3, rng)))
    return out


def ch_mean_loop(s, k_steps):
    """Reference closed-form consistent-histories mean: dt sum_j Re Tr[X(t_j) rho], each
    U(t_j) from the reference propagator loop."""
    tau = s.evolution.duration
    total = 0.0
    for t in tau * np.arange(1, k_steps) / k_steps:
        u = propagator_loop(s.evolution, t)
        x = u.conj().T @ derivative_at_loop(s.evolution, t) @ u
        total += np.trace(x @ s.rho).real
    return tau / k_steps * total


def test_a_batch_mixing_meshes_compiles_each_mesh_once(monkeypatch):
    scenarios = mixed_mesh_scenarios(np.random.default_rng(29))
    batch = ScenarioBatch.of(scenarios)
    calls, real = counting_compiles(monkeypatch)
    u = batch.unitary()
    assert len(calls) == 3
    for j, s in enumerate(scenarios):
        assert u[j].tobytes() == real(s.evolution)[0].tobytes()
    for k in (4, 6):
        means = sch.consistent_histories_means(batch, k)
        for s, mean in zip(scenarios, means):
            assert mean == pytest.approx(ch_mean_loop(s, k), rel=0, abs=1e-12)


def test_consistent_histories_c3_matches_the_member_loop():
    """The batched C3 aggregates against the plain loop over the members that graded
    them before, on per-sample scenarios each compiled alone, with the history
    propagators from the reference loop."""
    ks = [4, 8, 16]
    for dim, seed in ((2, 0), (2, 1), (3, 0), (4, 2)):
        probe, _ = audit._probe_ch_c2(dim)
        ensemble = audit._ensemble(C.C3_FIRST_LAW, dim, 6, seed, driven=True)
        samples = reference_ensemble(C.C3_FIRST_LAW, dim, 6, seed, driven=True)
        loop = np.zeros(len(ks))
        for s in [probe] + samples:
            target = mean_energy_change(s)
            for j, k in enumerate(ks):
                loop[j] += abs(ch_mean_loop(s, k) - target)
        batched = sum(np.array([np.abs(sch.consistent_histories_means(b, k)
                                       - b.mean_energy_change()).sum() for k in ks])
                      for b in (ScenarioBatch.of([probe]), ensemble))
        np.testing.assert_allclose(batched, loop, rtol=0, atol=1e-12)
        ratios = [loop[j + 1] / loop[j] for j in range(len(ks) - 1)]
        got = audit._grade_c3(SchemeId.CONSISTENT_HISTORIES, dim, ensemble)
        assert got.status is (audit.Status.SATISFIED if max(ratios) <= 0.6
                              else audit.Status.VIOLATED)
        assert got.notes == (f"limit criterion: K ladder {ks}, aggregate per-doubling error "
                             f"ratios {[float(round(r, 3)) for r in ratios]} (must stay <= 0.6) "
                             f"on 7 driven scenarios")
        assert got.max_violation == pytest.approx(max(0.0, max(ratios) - 0.6), rel=0, abs=1e-12)


def commuting_experiment(dim, rng):
    """H, H_final, U and a state, H, H_final and U diagonal in one random basis: H a
    ladder, W = U^dag H_final U - H = diag(1, 1, 2, ..., d - 1)."""
    v = haar_unitary_np(dim, rng)
    ladder = np.arange(dim, dtype=float)
    levels = np.concatenate([[1.0], ladder[1:]])
    return [(v * diag) @ v.conj().T
            for diag in (ladder, ladder + levels, np.exp(1j * rng.random(dim)))] + [
        random_density_np(dim, rng)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pruned_atoms_do_not_depend_on_the_summation_order(seed):
    """Margenau-Hill and FCS on a d = 16 experiment whose H, H_final and U commute: only
    its d - 1 distinct levels of W carry weight, and every other atom is zero in exact
    arithmetic.  The basis reversed (an exact permutation, which reorders every sum
    of the kernel and of the eigensolver) and a batch of several members keep the
    same atoms."""
    rng = np.random.default_rng(seed)
    h, hf, u, rho = commuting_experiment(16, rng)
    rev = np.arange(16)[::-1]
    s = Scenario(16, h, hf, u, rho)
    r = Scenario(16, *(m[np.ix_(rev, rev)] for m in (h, hf, u, rho)))
    members = ScenarioBatch.of([s.with_rho(random_density_np(16, rng)), r, s])
    for scheme in (SchemeId.MARGENAU_HILL, SchemeId.FCS):
        batch = sch.distributions(scheme, members)
        for dist in (sch.distribution(scheme, s), sch.distribution(scheme, r), batch[1], batch[2]):
            np.testing.assert_allclose(dist.works, np.arange(1.0, 16.0), rtol=0, atol=1e-9,
                                       err_msg=scheme.value)
