import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qworklab import linalg as la
from qworklab import schemes as sch
from qworklab.errors import DimensionMismatch, NonConvergence, ValidationError
from qworklab.scenario import Scenario, ScenarioBatch

from conftest import (
    degenerate_hermitian,
    haar_unitary_np,
    projector_pairs,
    random_density_np,
    random_hermitian_np,
)


def block_projectors(vecs, ids):
    """The projector B B^dag of each eigenvector block B of ``la._blocks``."""
    blocks = la._blocks(vecs, ids)
    return blocks @ la.dag(blocks)


# --- eigensolver -----------------------------------------------------------

def test_eig_diagonal_is_identity_basis():
    dec = la.eig_hermitian(np.diag([0.0, 1.0]).astype(complex))
    np.testing.assert_array_equal(dec.eigenvalues, [0.0, 1.0])
    np.testing.assert_array_equal(dec.eigenvectors, np.eye(2))


def test_eig_pauli_x():
    dec = la.eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_eig_rank_one():
    dec = la.eig_hermitian(np.ones((2, 2), dtype=complex))
    np.testing.assert_allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-12)


@given(dim=st.integers(2, 8), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_eig_reconstruction_property(dim, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian_np(dim, rng)
    dec = la.eig_hermitian(h)
    assert la.max_abs(dec.reconstruct() - h) <= 1e-8
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert la.max_abs(gram - np.eye(dim)) <= 1e-9
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_eig_matches_numpy_up_to_dim_64():
    rng = np.random.default_rng(7)
    for dim in (3, 16, 64):
        h = random_hermitian_np(dim, rng)
        dec = la.eig_hermitian(h)
        np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(h), atol=1e-9)


def test_eig_deterministic():
    rng = np.random.default_rng(3)
    h = random_hermitian_np(5, rng)
    a = la.eig_hermitian(h)
    la._EIG_CACHE.clear()
    b = la.eig_hermitian(h)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eig_nonconvergence_guard(monkeypatch):
    rng = np.random.default_rng(0)
    h = random_hermitian_np(6, rng)
    monkeypatch.setattr(la, "MAX_SWEEPS", 0)
    with pytest.raises(NonConvergence):
        la._jacobi(h)


# --- the round-parallel kernel: single matrices and stacks --------------------

KERNEL_DIMS = [2, 3, 4, 5, 8, 9, 16, 33, 64]


def hermitian_stack(dim, n, rng):
    return np.array([random_hermitian_np(dim, rng) for _ in range(n)])


def assert_spectral(vals, vecs, h, scale=1.0):
    """Eigenvalues within 1e-9 scale of eigvalsh; reconstruction and orthonormality."""
    dim = h.shape[-1]
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(h), rtol=0, atol=1e-9 * scale)
    assert la.max_abs((vecs * vals[..., None, :]) @ la.dag(vecs) - h) <= 1e-8 * scale
    assert la.max_abs(la.dag(vecs) @ vecs - np.eye(dim)) <= 1e-9
    assert np.all(np.diff(vals, axis=-1) >= 0)
    assert not vals.flags.writeable and not vecs.flags.writeable


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_stacked_kernel_matches_numpy(dim):
    rng = np.random.default_rng(70 + dim)
    h = hermitian_stack(dim, 3 if dim > 16 else 6, rng)
    vals, vecs = la._jacobi(h)
    assert vals.shape == h.shape[:2] and vecs.shape == h.shape
    assert_spectral(vals, vecs, h)


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_single_matrix_equals_its_stack_of_one(dim):
    h = random_hermitian_np(dim, np.random.default_rng(dim))
    vals, vecs = la._jacobi(h)
    assert vals.shape == (dim,) and vecs.shape == (dim, dim)
    assert_spectral(vals, vecs, h)
    stacked = la._jacobi(h[None])
    np.testing.assert_array_equal(vals, stacked[0][0])
    np.testing.assert_array_equal(vecs, stacked[1][0])


def record_sweeps_and_steps(monkeypatch):
    """Wrap ``la._rounds`` (called once a sweep) and ``la._refine``: returns a one-item
    list counting the sweeps run and a dict of the sweeps run before each stack
    member's first step, both filled as ``_jacobi`` runs."""
    sweeps, first = [0], {}
    real_rounds, real_refine = la._rounds, la._refine

    def rounds(d):
        sweeps[0] += 1
        return real_rounds(d)

    def refine(w, todo, *rest):
        for i in todo.tolist():
            first.setdefault(i, sweeps[0])
        return real_refine(w, todo, *rest)

    monkeypatch.setattr(la, "_rounds", rounds)
    monkeypatch.setattr(la, "_refine", refine)
    return sweeps, first


def near_diagonal(dim, rng, scale=1e-3):
    """A unit ladder plus a small random Hermitian: in the step regime as given."""
    return np.diag(np.arange(dim, dtype=complex)) + scale * random_hermitian_np(dim, rng)


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_each_stack_member_equals_its_stack_of_one(dim, monkeypatch):
    rng = np.random.default_rng(90 + dim)
    h = hermitian_stack(dim, 8, rng)
    h[1] = np.diag(rng.standard_normal(dim))  # converges before the others
    h[2] *= 1e-3
    # converged as given, with an entry above the skip level: rotating it again would show
    h[3] = np.diag(np.arange(dim, dtype=complex))
    h[3, 0, -1] = h[3, -1, 0] = 0.7 * la.JACOBI_TOL * max(1, dim - 1)
    # from d = _STEP_MIN_DIM on these leave their sweeps at different sweeps: at once,
    # after a sweep or two, and late (a Wishart state, whose least gaps are small)
    h[5] = near_diagonal(dim, rng)
    h[6] = near_diagonal(dim, rng, scale=0.3)
    h[7] = random_density_np(dim, rng)
    _, first = record_sweeps_and_steps(monkeypatch)
    vals, vecs = la._jacobi(h)
    if dim >= la._STEP_MIN_DIM:
        assert first[5] == 0 and len(set(first.values())) >= 3
    for i in range(h.shape[0]):
        one_vals, one_vecs = la._jacobi(h[i:i + 1])
        np.testing.assert_array_equal(vals[i], one_vals[0])
        np.testing.assert_array_equal(vecs[i], one_vecs[0])


@pytest.mark.parametrize("dim", [2, 5, 8, 9])
def test_stacked_kernel_on_degenerate_spectra(dim):
    rng = np.random.default_rng(110 + dim)
    levels = np.sort(rng.choice([-1.0, 0.5, 2.0], size=dim))
    levels[:2] = levels[0]  # at least one degenerate eigenspace
    levels.sort()
    vecs = haar_unitary_np(dim, rng)
    rotation = np.zeros((dim, dim), dtype=complex)
    for value in np.unique(levels):
        idx = np.flatnonzero(levels == value)
        rotation[np.ix_(idx, idx)] = haar_unitary_np(idx.size, rng) if idx.size > 1 else 1.0
    h = np.array([(v * levels) @ v.conj().T for v in (vecs, vecs @ rotation)])
    h = (h + la.dag(h)) / 2
    vals, out = la._jacobi(h)
    assert_spectral(vals, out, h)
    labels, ids = la._eigenspaces(vals)
    np.testing.assert_allclose(labels, [np.unique(levels)] * 2, rtol=0, atol=1e-9)
    projs = block_projectors(out, ids)
    np.testing.assert_allclose(projs[1], projs[0], rtol=0, atol=1e-9)
    for i in range(2):
        pairs = projector_pairs(la.SpectralDecomposition(vals[i], out[i]))
        np.testing.assert_allclose(projs[i], [p for _, p in pairs], rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3, 8, 9])
def test_stacked_kernel_leaves_diagonal_input_alone(dim):
    diag = np.array([np.diag(np.arange(dim, 0, -1.0)), np.diag(np.zeros(dim))], dtype=complex)
    vals, vecs = la._jacobi(diag)
    np.testing.assert_array_equal(vals, [np.arange(1.0, dim + 1), np.zeros(dim)])
    np.testing.assert_array_equal(vecs[0], np.eye(dim)[:, ::-1])
    np.testing.assert_array_equal(vecs[1], np.eye(dim))
    vals, vecs = la._jacobi(diag[:, ::-1, ::-1])
    np.testing.assert_array_equal(vecs, [np.eye(dim), np.eye(dim)])


def test_stacked_kernel_nonconvergence_guard(monkeypatch):
    h = hermitian_stack(6, 3, np.random.default_rng(0))
    monkeypatch.setattr(la, "MAX_SWEEPS", 0)
    with pytest.raises(NonConvergence):
        la._jacobi(h)
    with pytest.raises(NonConvergence):
        la._jacobi(np.kron(h[0], np.eye(2)))  # one matrix at d = 12


def spectral_case(kind, dim, rng):
    """A Hermitian matrix (dim, dim) of one kind: random; exactly 2-4-fold degenerate;
    near-degenerate (pairs of levels 1e-10 to 1e-7 apart); or diagonal."""
    if kind == "random":
        return random_hermitian_np(dim, rng)
    if kind == "diagonal":
        return np.diag(rng.standard_normal(dim)).astype(complex)
    if kind == "degenerate":
        fold = int(rng.integers(2, 5))
        levels = np.repeat(rng.standard_normal(-(-dim // fold)), fold)[:dim]
    else:
        levels = rng.standard_normal(dim)
        levels[1::2] = levels[::2][:dim // 2] + 10.0 ** rng.uniform(-10, -7, dim // 2)
    v = haar_unitary_np(dim, rng)
    h = (v * levels) @ v.conj().T
    return (h + h.conj().T) / 2


@given(kind=st.sampled_from(["random", "degenerate", "near-degenerate", "diagonal"]),
       log_scale=st.floats(-6, 6), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("dim", [8, 16, 32, 64])
def test_kernel_meets_its_contract_on_every_kind_of_spectrum(dim, kind, log_scale, seed):
    """The convergence target is ``JACOBI_TOL * max(1, ||A||)``: absolute below unit
    scale, relative above it, so a matrix scaled by c is checked at scale max(1, c)."""
    c = 10.0 ** log_scale
    h = c * spectral_case(kind, dim, np.random.default_rng(seed))
    vals, vecs = la._jacobi(h)
    assert_spectral(vals, vecs, h, scale=max(1.0, c))


def test_a_random_matrix_at_d64_takes_at_most_six_sweeps(monkeypatch):
    """Sweeps alone take 8 here; steps finish it, and it never sweeps again."""
    sweeps, first = record_sweeps_and_steps(monkeypatch)
    h = random_hermitian_np(64, np.random.default_rng(2024))
    vals, vecs = la._jacobi(h)
    assert_spectral(vals, vecs, h)
    assert sweeps[0] <= 6 and first == {0: sweeps[0]}


def test_a_step_that_does_not_halve_hands_its_matrix_back_to_sweeps(monkeypatch):
    """With the switch test passed at once, a random matrix's first step fails to
    halve its off-diagonal; the matrix then only sweeps, and still converges."""
    monkeypatch.setattr(la, "JACOBI_STEP_RATIO", 1e9)
    steps = []
    real_refine = la._refine
    monkeypatch.setattr(la, "_refine", lambda *args: steps.append(1) or real_refine(*args))
    h = random_hermitian_np(16, np.random.default_rng(16))
    vals, vecs = la._jacobi(h)
    assert_spectral(vals, vecs, h)
    assert len(steps) == 1


def test_rounds_cover_every_pair_once_with_disjoint_pairs():
    for dim in (2, 3, 8, 9, 64):
        rounds = la._rounds(dim)
        assert len(rounds) == dim - 1 + dim % 2
        pairs = []
        for p, q in rounds:
            assert p.size == dim // 2 and np.all(p < q)
            assert np.unique(np.concatenate([p, q])).size == 2 * p.size
            pairs += list(zip(p.tolist(), q.tolist()))
        assert sorted(pairs) == [(p, q) for p in range(dim) for q in range(p + 1, dim)]


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        la.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValidationError):
        la.eig_hermitian(np.array([[np.nan, 0], [0, 0]], dtype=complex))


def test_eig_validates_a_new_matrix_of_a_cached_shape():
    h = random_hermitian_np(3, np.random.default_rng(11))
    la.eig_hermitian(h)
    bad = h.copy()
    bad[0, 1] += 1.0
    with pytest.raises(ValidationError):
        la.eig_hermitian(bad)


def test_eig_cache_key_holds_the_full_shape():
    h = random_hermitian_np(4, np.random.default_rng(12))
    la.eig_hermitian(h)
    stack = h.reshape(4, 2, 2)
    assert stack.tobytes() == h.tobytes()
    with pytest.raises(ValidationError):
        la.eig_hermitian(stack)


def test_eig_hermitian_solves_a_stack_as_its_members():
    rng = np.random.default_rng(13)
    stack = np.array([random_hermitian_np(3, rng) for _ in range(4)])
    dec = la.eig_hermitian(stack)
    assert dec.eigenvalues.shape == (4, 3) and dec.eigenvectors.shape == (4, 3, 3)
    for h, vals, vecs in zip(stack, dec.eigenvalues, dec.eigenvectors):
        single = la.eig_hermitian(h)
        np.testing.assert_array_equal(vals, single.eigenvalues)
        np.testing.assert_array_equal(vecs, single.eigenvectors)
    bad = stack.copy()
    bad[2, 0, 1] += 1.0
    with pytest.raises(ValidationError) as err:
        la.eig_hermitian(bad)
    assert err.value.kind == "NotHermitian" and err.value.path == "operator[2]"


def test_eig_cache_evicts_only_the_oldest_entry():
    la._EIG_CACHE.clear()
    mats = [np.diag([0.0, k + 1.0]).astype(complex) for k in range(la._EIG_CACHE_CAP + 1)]
    for m in mats:
        la.eig_hermitian(m)
    assert len(la._EIG_CACHE) == la._EIG_CACHE_CAP
    keys = [repr(m.shape).encode() + m.tobytes() for m in mats]
    assert keys[0] not in la._EIG_CACHE
    assert all(k in la._EIG_CACHE for k in keys[1:])


def test_projectors_cluster_degenerate_eigenvalues():
    h = np.diag([1.0, 1.0 + 1e-12, 3.0]).astype(complex)
    dec = la.eig_hermitian(h)
    _, ids = dec.eigenspaces()
    np.testing.assert_array_equal(ids, [0, 0, 1])
    projs = block_projectors(dec.eigenvectors, ids)
    assert len(projs) == 2
    np.testing.assert_allclose(projs, [p for _, p in projector_pairs(dec)], rtol=0, atol=1e-14)
    assert abs(np.trace(projs[0]).real - 2.0) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_eigenspaces_and_dephase_match_the_loop_reference(dim):
    rng = np.random.default_rng(40 + dim)
    rho = random_density_np(dim, rng)
    for h, n_spaces in ((random_hermitian_np(dim, rng), dim),
                        (degenerate_hermitian(dim, rng), dim - 1)):
        dec = la.eig_hermitian(h)
        labels, ids = dec.eigenspaces()
        projs = block_projectors(dec.eigenvectors, ids)
        pairs = projector_pairs(dec)
        assert projs.shape == (n_spaces, dim, dim) and len(pairs) == n_spaces
        np.testing.assert_allclose(labels, [e for e, _ in pairs], rtol=0, atol=1e-14)
        np.testing.assert_allclose(projs, [p for _, p in pairs], rtol=0, atol=1e-14)
        dephased = sum(p @ rho @ p for _, p in pairs)
        np.testing.assert_allclose(la.dephase(rho, dec), dephased, rtol=0, atol=1e-14)


def rotated_in_eigenspaces(vals, rng):
    """A Haar eigenbasis of the ascending ``vals`` and the same basis rotated by a Haar
    unitary inside each degenerate eigenspace."""
    dim = vals.size
    vecs = haar_unitary_np(dim, rng)
    rotation = np.zeros((dim, dim), dtype=complex)
    for value in np.unique(vals):
        idx = np.flatnonzero(vals == value)
        rotation[np.ix_(idx, idx)] = haar_unitary_np(idx.size, rng) if idx.size > 1 else 1.0
    return vecs, vecs @ rotation


@given(levels=st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0]), min_size=2, max_size=6),
       seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_eigenspaces_ignore_rotations_inside_a_degenerate_eigenspace(levels, seed):
    """Every consumer of the eigenspace blocks, on the eigenvectors of H, H_final and
    W as solved and rotated inside their degenerate eigenspaces."""
    rng = np.random.default_rng(seed)
    vals = np.sort(np.array(levels))
    dim = vals.size
    bases = {name: rotated_in_eigenspaces(vals, rng) for name in ("H", "H_final", "W")}
    u, rho = haar_unitary_np(dim, rng), random_density_np(dim, rng)
    hams = {name: (v * vals) @ v.conj().T for name, (v, _) in bases.items()}

    def outputs(rotate, rotate_h=True):
        """The blocks' consumers, with the rotated eigenvectors where ``rotate``."""
        vecs = {name: pair[rotate and (rotate_h or name != "H")] for name, pair in bases.items()}
        batch = ScenarioBatch.build(hams["H"][None], hams["H_final"][None], u[None], rho[None],
                                    [0], {name: (vals[None], vecs[name][None])
                                          for name in ("H", "H_final")})
        batch.derived("work_operator", lambda: (hams["W"][None], vecs["W"][None],
                                                *la._eigenspaces(vals[None])))
        s = batch.scenario(0)
        factors = sch._collective_factors(batch, "auto")
        return ([sch._joint_weights(batch, kappa)[0] for kappa in (0.0, 0.5, 1.0)]
                + [sch.distributions(scheme, batch).weights
                   for scheme in (sch.SchemeId.OPERATOR_OF_WORK, sch.SchemeId.STATE_DEPENDENT)]
                + [la.dephase(rho, s.spectrum("H")), la.dephase(rho, s.spectrum("H_final")),
                   sch.tpm_povm(s).ops, block_projectors(vecs["H"], la._eigenspaces(vals)[1])],
                [factors.diag_parts, sch.collective_factors(s).off_parts, factors.off_min])

    labels, ids = la.SpectralDecomposition(vals, bases["H"][0]).eigenspaces()
    labels_rot, ids_rot = la.SpectralDecomposition(vals, bases["H"][1]).eigenspaces()
    np.testing.assert_array_equal(labels_rot, labels)
    np.testing.assert_array_equal(ids_rot, ids)
    (plain, _), (rotated, _) = outputs(False), outputs(True)
    for got, ref in zip(rotated, plain):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
    # the two-copy factors read the basis of H itself: rotate H_final only
    for got, ref in zip(outputs(True, rotate_h=False)[1], outputs(False)[1]):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


# --- the stacked product ------------------------------------------------------------

# the broadcasts the call sites make: a stack by one matrix, one matrix by a stack, and
# each member's one matrix by its own k
PRODUCT_SHAPES = {"stack-matrix": lambda n, k: ((n, 2, 2), (2, 2)),
                  "matrix-stack": lambda n, k: ((2, 2), (n, 2, 2)),
                  "member-by-k": lambda n, k: ((n, 1, 2, 2), (n, k, 2, 2))}


def random_complex(shape, rng, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@given(kind=st.sampled_from(sorted(PRODUCT_SHAPES)), n=st.integers(1, 9), k=st.integers(1, 5),
       log_scale=st.integers(-8, 8), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_matmul_of_qubit_stacks_is_matmul_within_rounding(kind, n, k, log_scale, seed):
    """Each entry sums two products, by either route: the two results differ by at most
    a few eps ||a||_F ||b||_F of the member's own pair."""
    rng = np.random.default_rng(seed)
    a, b = (random_complex(shape, rng, 10.0 ** log_scale) for shape in PRODUCT_SHAPES[kind](n, k))
    got, ref = la._matmul(a, b), a @ b
    assert got.shape == ref.shape and got.dtype == ref.dtype
    norms = (np.linalg.norm(a, axis=(-2, -1))[..., None, None]
             * np.linalg.norm(b, axis=(-2, -1))[..., None, None])
    assert (np.abs(got - ref) <= 4 * np.finfo(float).eps * norms).all()


@pytest.mark.parametrize("kind", sorted(PRODUCT_SHAPES))
def test_matmul_of_a_qubit_stack_takes_each_member_alone(kind):
    rng = np.random.default_rng(71)
    a, b = (random_complex(shape, rng) for shape in PRODUCT_SHAPES[kind](6, 3))
    got = la._matmul(a, b)
    for i in range(6):
        a_i, b_i = (x if x.ndim == 2 else x[i:i + 1] for x in (a, b))
        assert got[i:i + 1].tobytes() == la._matmul(a_i, b_i).tobytes()
    if kind == "stack-matrix":  # and as two single matrices
        for i in range(6):
            assert got[i].tobytes() == la._matmul(a[i], b).tobytes()


def test_matmul_is_matmul_off_qubit_stacks():
    rng = np.random.default_rng(72)
    pairs = [(random_complex((4, 3, 3), rng), random_complex((3, 3), rng)),
             (random_complex((4, 2, 2), rng), random_complex((2,), rng)),
             (random_complex((2,), rng), random_complex((4, 2, 2), rng)),
             (random_complex((4, 2, 2), rng), random_complex((4, 2, 1), rng))]
    for a, b in pairs:
        assert la._matmul(a, b).tobytes() == (a @ b).tobytes()


# --- memory layout and single validation ---------------------------------------

@pytest.mark.parametrize("layout", ["transposed", "fortran", "strided"])
def test_non_contiguous_input_is_accepted(layout):
    rng = np.random.default_rng(8)
    h = random_hermitian_np(3, rng)
    view = {"transposed": lambda: h.T,
            "fortran": lambda: np.asfortranarray(h),
            "strided": lambda: np.kron(h, np.ones((2, 2)))[::2, ::2]}[layout]()
    assert not view.flags.c_contiguous
    copy = np.ascontiguousarray(view)
    la._EIG_CACHE.clear()
    dec = la.eig_hermitian(view)
    la._EIG_CACHE.clear()
    np.testing.assert_array_equal(dec.eigenvalues, la.eig_hermitian(copy).eigenvalues)
    np.testing.assert_array_equal(la.require_hermitian(view), copy)
    rho = random_density_np(3, rng)
    s = Scenario(dim=3, h_initial=view, h_final=view, evolution=np.eye(3), rho=rho.T)
    np.testing.assert_array_equal(s.h_initial, copy)


@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf), complex(np.inf, 1.0)],
                         ids=["nan", "inf-imag", "inf-real"])
def test_non_finite_entries_raise_dim_mismatch(bad):
    for layout in (lambda m: m, lambda m: m.T, np.asfortranarray):
        m = np.eye(3, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(ValidationError) as err:
            la.eig_hermitian(layout(m))
        assert err.value.kind == "DimMismatch"


def test_require_density_validates_a_fresh_state_once(monkeypatch):
    calls, solved = [], []
    original, jacobi = la._require, la._jacobi
    monkeypatch.setattr(la, "_require", lambda m, name, kind, ndim=None:
                        calls.append(name) or original(m, name, kind, ndim))
    monkeypatch.setattr(la, "_jacobi", lambda a: solved.append(a) or jacobi(a))
    la._EIG_CACHE.clear()
    state = la.random_density(3, 5)
    rho = la.require_density(state)
    assert calls == ["state"]
    # the validated copy alone: a valid state passes the pivot test with no solve
    assert isinstance(rho, np.ndarray) and rho is not state and np.array_equal(rho, state)
    assert not solved
    # a state that fails a pivot is solved once, for the least eigenvalue its message names
    with pytest.raises(ValidationError) as err:
        la.require_density(np.diag([1.5, -0.5]).astype(complex), "rho")
    assert (err.value.kind, err.value.path) == ("NotDensity", "rho")
    assert len(solved) == 1
    bad = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValidationError) as err:
        la.require_density(bad, "rho")
    assert (err.value.kind, err.value.path) == ("NotHermitian", "rho")
    assert len(solved) == 1


def _state_with_least_eigenvalue(dim, lam_min, rng):
    """V diag(lam) V^dag, V Haar, with least eigenvalue ``lam_min`` and unit trace."""
    rest = rng.random(dim - 1) + 0.5
    lam = np.concatenate(([lam_min], rest * (1.0 - lam_min) / rest.sum()))
    v = haar_unitary_np(dim, rng)
    return (v * lam) @ v.conj().T


_TOL = la.DENSITY_EIG_TOL
# least eigenvalues just inside and just outside the positivity tolerance
_BOUNDARY = ((-(1 - 1e-3) * _TOL, True), ((1 - 1e-3) * _TOL, True), ((1 + 1e-3) * _TOL, True),
             (-(1 + 1e-3) * _TOL, False))


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_require_density_keeps_the_eigenvalue_boundary(dim):
    rng = np.random.default_rng(dim)
    states, expected = [], []
    for lam_min, accepted in _BOUNDARY:
        for _ in range(3):
            rho = _state_with_least_eigenvalue(dim, lam_min, rng)
            states.append(rho)
            expected.append(accepted)
            if accepted:
                np.testing.assert_array_equal(la.require_density(rho, "rho"), rho)
                continue
            with pytest.raises(ValidationError) as err:
                la.require_density(rho, "rho")
            assert (err.value.kind, err.value.path) == ("NotDensity", "rho")
            assert str(err.value) == "NotDensity at 'rho': min eigenvalue -1.001e-10 < -1e-10"
    # the stacked test gives every state the verdict it gets alone
    verdicts = la._cholesky_positive(np.array(states))
    assert verdicts.shape == (len(states),)
    assert verdicts.tolist() == expected
    assert [bool(la._cholesky_positive(rho)) for rho in states] == expected


# per kind, the faults a matrix of that kind can carry and the error each gives (None: valid)
_FAULTS = {
    "hermitian": {"none": None, "nan": "DimMismatch", "non-square": "DimMismatch",
                  "hermitian-defect": "NotHermitian"},
    "unitary": {"none": None, "nan": "DimMismatch", "non-square": "DimMismatch",
                "non-unitary": "NotUnitary"},
    "density": {"none": None, "nan": "DimMismatch", "non-square": "DimMismatch",
                "hermitian-defect": "NotHermitian", "trace": "NotDensity",
                "eigenvalue-rejected": "NotDensity", "eigenvalue-accepted": None},
}
_PUBLIC = {"hermitian": la.require_hermitian, "unitary": la.require_unitary,
           "density": la.require_density}


def _valid_matrix(kind, dim, rng, scale):
    if kind == "hermitian":
        return scale * random_hermitian_np(dim, rng)
    return haar_unitary_np(dim, rng) if kind == "unitary" else random_density_np(dim, rng)


def _faulty_matrix(kind, fault, dim, rng, scale):
    if fault.startswith("eigenvalue"):  # just outside, or just inside, the positivity tolerance
        return _state_with_least_eigenvalue(
            dim, (-1.001 if fault == "eigenvalue-rejected" else -0.999) * _TOL, rng)
    m = _valid_matrix(kind, dim, rng, scale)
    if fault == "nan":
        m[dim - 1, 0] = np.nan
    elif fault == "non-square":
        m = m[:, :-1]
    elif fault == "hermitian-defect":  # three times the relative limit, on one side only
        m[0, 1] += 3.0 * la.HERMITICITY_TOL * max(1.0, np.abs(m).max())
    elif fault == "trace":
        m = m + 2e-10 * np.eye(dim) / dim
    elif fault == "non-unitary":
        m = (1.0 + 1e-9) * m
    return m


def _verdict(check, m, name):
    """The validated copy of ``m``, or the error's (kind, path, message)."""
    try:
        return check(m, name)
    except ValidationError as err:
        return err.kind, err.path, str(err).removeprefix(f"{err.kind} at '{err.path}': ")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4, 16]), st.sampled_from(sorted(_FAULTS)), st.data())
def test_a_matrix_alone_and_in_a_stack_gets_one_verdict(dim, kind, data):
    fault = data.draw(st.sampled_from(sorted(_FAULTS[kind])), label="fault")
    n = data.draw(st.integers(1, 4), label="n")
    i = 0 if fault == "non-square" else data.draw(st.integers(0, n - 1), label="i")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    scale = data.draw(st.sampled_from([1.0, 1e-6, 1e6]), label="scale")
    m = _faulty_matrix(kind, fault, dim, rng, scale)
    # a non-square member makes every member non-square, so the first fails
    others = [m if fault == "non-square" else _valid_matrix(kind, dim, rng, scale)
              for _ in range(n)]
    stack = np.array(others[:i] + [m] + others[i + 1:])
    alone = _verdict(_PUBLIC[kind], m, "rho")
    member = _verdict(lambda a, name: la._require(a, name, kind), stack, "rho")
    if _FAULTS[kind][fault] is None:
        np.testing.assert_array_equal(alone, m)
        np.testing.assert_array_equal(member, stack)
    else:
        assert alone[0] == _FAULTS[kind][fault]
        assert member == (alone[0], f"rho[{i}]", alone[2])
    if kind == "hermitian" and fault == "none":
        la._EIG_CACHE.clear()
        np.testing.assert_array_equal(la.eig_hermitian(stack).eigenvalues[i],
                                      la.eig_hermitian(m).eigenvalues)
        assert list(la._EIG_CACHE) == [repr(m.shape).encode() + m.tobytes()]  # the matrix only
        if n > 1:
            la._eig(stack)
            assert len(la._EIG_CACHE) == 1


@pytest.mark.parametrize("x, accepted", [(0.4e-10, True), (0.6e-10, False)])
def test_require_density_tests_a_nearly_hermitian_state_whole(x, accepted):
    # the off-diagonals differ by 9e-11, within HERMITICITY_TOL: the lower triangle
    # alone has least eigenvalue -x, the Hermitian part -x - 4.5e-11
    m = np.array([[0.5, 0.5 + x + 0.9e-10], [0.5 + x, 0.5]], dtype=complex)
    assert bool(la._cholesky_positive(m)) is accepted
    assert la._cholesky_positive(m[None]).tolist() == [accepted]
    if accepted:
        la.require_density(m)
    else:
        with pytest.raises(ValidationError, match="min eigenvalue -1.050e-10"):
            la.require_density(m)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32, 64])
def test_require_density_accepts_pure_states_without_a_solve(dim, monkeypatch):
    solved = []
    monkeypatch.setattr(la, "_jacobi", lambda a: solved.append(a))
    rho = la.projector(la.random_pure(dim, dim))
    np.testing.assert_array_equal(la.require_density(rho), rho)
    assert not solved


@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 16), data=st.data())
@settings(max_examples=60, deadline=None)
def test_require_density_agrees_with_the_least_eigenvalue(seed, dim, data):
    rank = data.draw(st.integers(1, dim), label="rank")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    lam, v = np.linalg.eigh(g @ g.conj().T)  # a rank-r Wishart state's spectrum
    lam[0] = rng.uniform(-1e-8, 1e-8)  # its least eigenvalue, moved
    rho = (v * (lam / lam.sum())) @ v.conj().T
    lo = np.linalg.eigvalsh(rho).min()  # numpy as the oracle
    assume(abs(lo + _TOL) > 1e-6 * _TOL)
    try:
        la.require_density(rho)
        accepted = True
    except ValidationError as err:
        assert err.kind == "NotDensity"
        accepted = False
    assert accepted == (lo >= -_TOL)


# --- tensor / partial trace --------------------------------------------------

def test_tensor_identities():
    np.testing.assert_array_equal(la.tensor(np.eye(2), np.eye(2)), np.eye(4))
    got = la.tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    np.testing.assert_array_equal(got, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_tensor_of_unitaries_is_unitary():
    rng = np.random.default_rng(11)
    u = la.tensor(haar_unitary_np(2, rng), haar_unitary_np(3, rng))
    assert la.max_abs(u.conj().T @ u - np.eye(6)) <= la.UNITARITY_TOL


def test_tensor_of_kets_and_of_stacks():
    rng = np.random.default_rng(12)
    ket_a, ket_b = rng.standard_normal(2) + 0j, rng.standard_normal(3) + 0j
    np.testing.assert_array_equal(la.tensor(ket_a, ket_b), np.kron(ket_a, ket_b))
    a = np.array([haar_unitary_np(2, rng) for _ in range(3)])
    b = np.array([haar_unitary_np(3, rng) for _ in range(3)])
    got = la.tensor(a, b)
    assert got.shape == (3, 6, 6)
    for k in range(3):
        np.testing.assert_array_equal(got[k], np.kron(a[k], b[k]))
    np.testing.assert_array_equal(la.tensor(a, np.eye(2)), [np.kron(m, np.eye(2)) for m in a])
    with pytest.raises(DimensionMismatch):
        la.tensor(a, ket_b)


def brute_partial_trace(m, da, db, keep):
    m = m.reshape(da, db, da, db)
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                for b in range(db):
                    out[i, j] += m[i, b, j, b]
    else:
        out = np.zeros((db, db), dtype=complex)
        for i in range(db):
            for j in range(db):
                for a in range(da):
                    out[i, j] += m[a, i, a, j]
    return out


@given(da=st.integers(2, 4), db=st.integers(2, 4), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_partial_trace_against_brute_force(da, db, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((da * db, da * db)) + 1j * rng.standard_normal((da * db, da * db))
    for keep in ("A", "B"):
        got = la.partial_trace(m, (da, db), keep)
        np.testing.assert_allclose(got, brute_partial_trace(m, da, db, keep), atol=1e-12)
        assert abs(np.trace(got) - np.trace(m)) <= 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(4)
    rho_a = random_density_np(2, rng)
    rho_b = random_density_np(3, rng)
    got = la.partial_trace(la.tensor(rho_a, rho_b), (2, 3), "A")
    np.testing.assert_allclose(got, rho_a, atol=1e-12)
    got = la.partial_trace(np.eye(4) / 4.0, (2, 2), "A")
    np.testing.assert_allclose(got, np.eye(2) / 2.0, atol=1e-15)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        la.partial_trace(np.eye(5), (2, 2), "A")


# --- dephasing ----------------------------------------------------------------

def test_dephase_fixes_diagonal_states():
    h = np.diag([0.0, 1.0, 2.5]).astype(complex)
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    np.testing.assert_allclose(la.dephase(rho, la.eig_hermitian(h)), rho, atol=1e-14)


def test_dephase_plus_state():
    basis = la.eig_hermitian(np.diag([0.0, 1.0]).astype(complex))
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    np.testing.assert_allclose(la.dephase(plus, basis), np.eye(2) / 2.0, atol=1e-14)


def test_dephase_preserves_populations():
    rng = np.random.default_rng(9)
    for _ in range(30):
        h = random_hermitian_np(4, rng)
        rho = random_density_np(4, rng)
        dec = la.eig_hermitian(h)
        out = la.dephase(rho, dec)
        vecs = np.linalg.eigh(h)[1]
        before = np.diag(vecs.conj().T @ rho @ vecs).real
        after = np.diag(vecs.conj().T @ out @ vecs).real
        np.testing.assert_allclose(np.sort(before), np.sort(after), atol=1e-10)


def test_dephase_of_a_stack_matches_each_member_and_validates_it():
    rng = np.random.default_rng(10)
    hs = np.array([random_hermitian_np(3, rng) for _ in range(4)])
    rhos = np.array([random_density_np(3, rng) for _ in range(4)])
    got = la.dephase(rhos, la.SpectralDecomposition(*la._jacobi(hs)))
    for h, rho, out in zip(hs, rhos, got):
        np.testing.assert_allclose(out, la.dephase(rho, la.eig_hermitian(h)), rtol=0, atol=1e-15)
    bad = rhos.copy()
    bad[1, 0, 2] += 0.5
    with pytest.raises(ValidationError) as err:
        la.dephase(bad, la.SpectralDecomposition(*la._jacobi(hs)))
    assert err.value.path == "rho[1]"
    with pytest.raises(ValidationError):
        la.dephase(rhos[..., None], la.eig_hermitian(hs[0]))


def test_dephase_rejects_a_non_hermitian_state():
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    rho[0, 2] = 0.3
    with pytest.raises(ValidationError) as err:
        la.dephase(rho, la.eig_hermitian(np.diag([0.0, 1.0, 2.0]).astype(complex)))
    assert err.value.kind == "NotHermitian" and err.value.path == "rho"


def test_dephase_rejects_a_state_of_another_size():
    basis = la.eig_hermitian(np.diag([0.0, 1.0, 2.0]).astype(complex))
    for rho in (np.eye(2) / 2.0, np.array([np.eye(4) / 4.0] * 2)):
        with pytest.raises(DimensionMismatch):
            la.dephase(rho, basis)


# --- entropies ------------------------------------------------------------------

def test_entropy_pure_and_mixed():
    assert la.von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) <= 1e-12
    for d in (2, 3, 5):
        s = la.von_neumann_entropy(np.eye(d, dtype=complex) / d)
        assert abs(s - math.log(d)) <= 1e-12
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert abs(la.von_neumann_entropy(np.diag([0.25, 0.75]).astype(complex)) - expected) <= 1e-12


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(21)
    for _ in range(50):
        rho = random_density_np(3, rng)
        u = haar_unitary_np(3, rng)
        s1 = la.von_neumann_entropy(rho)
        s2 = la.von_neumann_entropy(u @ rho @ u.conj().T)
        assert abs(s1 - s2) <= 1e-10


def test_relative_entropy_examples():
    rho = random_density_np(3, np.random.default_rng(5))
    assert abs(la.relative_entropy(rho, rho)) <= 1e-10
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    assert abs(la.relative_entropy(ket0, np.eye(2) / 2.0) - math.log(2)) <= 1e-12
    assert la.relative_entropy(ket0, np.diag([0.0, 1.0]).astype(complex)) == math.inf


def test_relative_entropy_nonnegative_1000_pairs():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        a = random_density_np(dim, rng)
        b = random_density_np(dim, rng)
        worst = min(worst, la.relative_entropy(a, b))
    assert worst >= -1e-10


# --- validated random sampling ---------------------------------------------------

def test_random_unitary_invariant_1000_seeds():
    for seed in range(1000):
        u = la.random_unitary(2, seed)
        assert la.max_abs(u.conj().T @ u - np.eye(2)) <= la.UNITARITY_TOL


def test_random_density_invariant_1000_seeds():
    for seed in range(1000):
        rho = la.random_density(3, seed)
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10


def test_random_reproducibility():
    for fn in (la.random_unitary, la.random_density, la.random_pure):
        a = fn(4, 123)
        b = fn(4, 123)
        assert np.array_equal(a, b)


def test_random_requires_dim_two():
    with pytest.raises(ValueError):
        la.random_unitary(1, 0)


# --- validators --------------------------------------------------------------------

def test_density_validator_rejects_bad_trace_and_negativity():
    with pytest.raises(ValidationError):
        la.require_density(np.diag([0.45, 0.45]).astype(complex))
    with pytest.raises(ValidationError):
        la.require_density(np.diag([1.5, -0.5]).astype(complex))


def test_unitary_validator():
    with pytest.raises(ValidationError):
        la.require_unitary(np.diag([1.0, 0.5]).astype(complex))
