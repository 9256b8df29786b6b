import json

import numpy as np
import pytest
import scipy.linalg

from qworklab import linalg as la
from qworklab import scenario as scenario_mod
from qworklab.audit import random_nondegenerate_hermitian
from qworklab.errors import ParseError, ValidationError
from qworklab.linalg import HERMITICITY_TOL, max_abs, random_density, random_unitary
from qworklab.scenario import (
    DrivingProtocol,
    Scenario,
    ScenarioBatch,
    compile_unitary,
    mean_energy_change,
    parse_scenario,
    serialize_scenario,
    time_reversed,
)
from qworklab.schemes import consistent_histories, consistent_histories_means, tpm

from conftest import (
    HADAMARD,
    PLUS,
    SX,
    SZ,
    derivative_at_loop,
    hamiltonian_at_loop,
    partial_factor_loop,
    random_hermitian_np,
    substep_mesh_loop,
)

MINIMAL_DOC = {
    "dim": 2,
    "label": "minimal",
    "H": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "H_final": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "evolution": {"type": "unitary",
                  "U": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    "rho": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
}


def test_parse_minimal_document():
    s = parse_scenario(json.dumps(MINIMAL_DOC))
    assert s.dim == 2
    np.testing.assert_array_equal(s.h_initial, np.diag([0.0, 1.0]))
    np.testing.assert_array_equal(s.unitary(), np.eye(2))


def test_parse_rejects_non_hermitian_h():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["H"][0][1] = [0.5, 0.1]  # != conj(H[1][0])
    with pytest.raises(ValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.kind == "NotHermitian"
    assert err.value.path == "H"


def test_parse_rejects_subnormalized_rho():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["rho"][0][0] = [0.9, 0.0]
    with pytest.raises(ValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.kind == "NotDensity"
    assert err.value.path == "rho"


def test_parse_rejects_non_unitary():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["evolution"]["U"][0][0] = [0.5, 0.0]
    with pytest.raises(ValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.kind == "NotUnitary"


def test_parse_errors_on_malformed_documents():
    with pytest.raises(ParseError):
        parse_scenario("not json")
    doc = json.loads(json.dumps(MINIMAL_DOC))
    del doc["rho"]
    with pytest.raises(ParseError):
        parse_scenario(json.dumps(doc))
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["H"][0][0] = [1.0]  # not a [re, im] pair
    with pytest.raises(ParseError) as err:
        parse_scenario(json.dumps(doc))
    assert "H[0][0]" in str(err.value)


_ENTRY = "complex entry must be a [re, im] pair"
_ROW = "matrix row must be a non-empty array"


@pytest.mark.parametrize("edit, message, path", [
    (lambda rho: rho[1].__setitem__(0, [True, 0.0]), _ENTRY, "rho[1][0]"),
    (lambda rho: rho[1].__setitem__(0, ["0.5", 0.0]), _ENTRY, "rho[1][0]"),
    (lambda rho: rho[1].__setitem__(0, [None, 0.0]), _ENTRY, "rho[1][0]"),
    (lambda rho: rho[1].__setitem__(0, [0.0]), _ENTRY, "rho[1][0]"),
    (lambda rho: rho[1].__setitem__(0, [0.0, 0.0, 0.0]), _ENTRY, "rho[1][0]"),
    (lambda rho: rho[1].pop(), "ragged matrix rows", "rho[1]"),
    (lambda rho: rho[1].clear(), _ROW, "rho[1]"),
    (lambda rho: rho.__setitem__(1, 0.5), _ROW, "rho[1]"),
    (lambda rho: rho[1].__setitem__(0, {"re": 0.0, "im": 0.0}), _ENTRY, "rho[1][0]"),
    (lambda rho: rho.clear(), "matrix must be a non-empty nested array", "rho"),
], ids=["bool", "string", "null", "one-number", "three-numbers", "ragged-row", "empty-row",
        "number-row", "object-cell", "empty-matrix"])
def test_each_malformed_matrix_names_the_path_of_its_first_fault(edit, message, path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    edit(doc["rho"])
    with pytest.raises(ParseError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == path
    assert str(err.value) == f"{message} (at '{path}')"


def test_parsed_matrices_are_bitwise_the_per_entry_conversion():
    numbers = [-0.0, 0, 3, -7, 2 ** 53 + 1, 10 ** 20 + 1, 0.1, 1.2345678901234567e-300,
               -9.876543210987654e+200, 5e-324, -2.2250738585072014e-308, 0.30000000000000004]
    rng = np.random.default_rng(9)
    node = [[[numbers[i], numbers[j]] for i, j in rng.integers(len(numbers), size=(6, 2))]
            for _ in range(6)]
    node = json.loads(json.dumps(node))  # the numbers as a document gives them
    reference = np.array([[complex(float(re), float(im)) for re, im in row] for row in node],
                         dtype=np.complex128)
    got = scenario_mod._matrix_from_json(node, "m")
    assert got.shape == (6, 6) and got.dtype == np.complex128
    assert got.tobytes() == reference.tobytes()


def test_numpy_float_entries_pass_the_walk_to_the_same_conversion():
    node = [[[0.5, -0.0], [0.25, 1e-300]], [[0.25, -1e-300], [0.5, 0.0]]]
    as_numpy = [[[np.float64(x) for x in cell] for cell in row] for row in node]
    assert not scenario_mod._is_pair_matrix(as_numpy)
    got = scenario_mod._matrix_from_json(as_numpy, "rho")
    assert got.tobytes() == scenario_mod._matrix_from_json(node, "rho").tobytes()


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_entry_reaches_the_finiteness_check(number):
    text = json.dumps(MINIMAL_DOC).replace("[1.0, 0.0]", f"[{number}, 0.0]", 1)
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.path == "H" and "finite" in str(err.value)


def test_dim_mismatch_path():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["dim"] = 3
    with pytest.raises(ValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.kind == "DimMismatch"


def test_roundtrip_is_bit_exact(hadamard_scenario):
    text = serialize_scenario(hadamard_scenario)
    again = parse_scenario(text)
    assert np.array_equal(again.h_initial, hadamard_scenario.h_initial)
    assert np.array_equal(again.rho, hadamard_scenario.rho)
    assert np.array_equal(again.unitary(), hadamard_scenario.unitary())
    assert serialize_scenario(again) == text


def test_roundtrip_protocol_scenario():
    proto = DrivingProtocol([0.0, 1.0], [SZ, SZ + 0.7 * SX], steps_per_segment=16)
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ + 0.7 * SX, evolution=proto,
                 rho=PLUS, label="ramp")
    again = parse_scenario(serialize_scenario(s))
    assert again.is_driven
    assert again.evolution.steps_per_segment == 16
    assert max_abs(again.unitary() - s.unitary()) == 0.0


def test_protocol_endpoint_mismatch_rejected():
    proto = DrivingProtocol([0.0, 1.0], [SZ, SX])
    with pytest.raises(ValidationError) as err:
        Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=proto, rho=PLUS)
    assert err.value.kind == "EndpointMismatch"


def test_scenario_at_energy_scale_1e6_is_accepted():
    rng = np.random.default_rng(2)
    h, hf = random_nondegenerate_hermitian(3, rng), random_nondegenerate_hermitian(3, rng)
    u, rho = random_unitary(3, rng), random_density(3, rng)
    # scaled by 1e6, both draws carry rounding defects above the unscaled limit
    for m in (1e6 * h, 1e6 * hf):
        assert max_abs(m - m.conj().T) > HERMITICITY_TOL
    s = Scenario(dim=3, h_initial=h, h_final=hf, evolution=u, rho=rho)
    big = Scenario(dim=3, h_initial=1e6 * h, h_final=1e6 * hf, evolution=u, rho=rho)
    assert tpm(big)[0].mean() == pytest.approx(1e6 * tpm(s)[0].mean(), rel=1e-9)


# --- with_rho --------------------------------------------------------------------

def test_with_rho_shares_the_experiment(hadamard_scenario):
    rho = np.diag([0.7, 0.3]).astype(complex)
    s = hadamard_scenario.with_rho(rho, "diagonal")
    assert s.h_initial is hadamard_scenario.h_initial
    assert s.h_final is hadamard_scenario.h_final
    assert s.evolution is hadamard_scenario.evolution
    assert s.label == "diagonal"
    np.testing.assert_array_equal(s.rho, rho)
    assert hadamard_scenario.label == "hadamard-plus"
    np.testing.assert_array_equal(hadamard_scenario.rho, PLUS)


def test_with_rho_compiles_a_driven_unitary_once(monkeypatch):
    calls = []
    real = scenario_mod.compile_unitary

    def counting(protocol):
        calls.append(protocol)
        return real(protocol)

    monkeypatch.setattr(scenario_mod, "compile_unitary", counting)
    solves = []
    real_expi = scenario_mod._expi
    monkeypatch.setattr(scenario_mod, "_expi",  # the number of factors of each call
                        lambda hs, dts: solves.append(hs[..., 0, 0].size) or real_expi(hs, dts))
    proto = DrivingProtocol([0.0, 1.0], [SZ, SZ + 0.7 * SX], 16)
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ + 0.7 * SX, evolution=proto, rho=PLUS)
    first = s.with_rho(np.diag([0.8, 0.2]).astype(complex))
    u = s.unitary()
    second = s.with_rho(np.diag([0.1, 0.9]).astype(complex))
    assert first.unitary() is u and second.unitary() is u
    # every scheme and history grid, on or off the substep mesh, reads that compile
    for scenario in (s, first, second):
        tpm(scenario)
        for k in (4, 6, 8):
            consistent_histories(scenario, k)
        for k in (4, 8, 16):
            consistent_histories_means(ScenarioBatch.of([scenario]), k)
    assert len(calls) == 1
    # the compile, then one solve for the K = 6 grid points off the mesh (all but t = 1/2)
    assert solves == [16, 4]


@pytest.mark.parametrize("rho, kind", [
    (np.diag([0.9, 0.0]), "NotDensity"),
    (np.eye(3) / 3.0, "DimMismatch"),
])
def test_with_rho_validates_the_state(hadamard_scenario, rho, kind):
    with pytest.raises(ValidationError) as err:
        hadamard_scenario.with_rho(rho)
    assert err.value.kind == kind
    assert err.value.path == "rho"


def test_protocol_time_validation():
    with pytest.raises(ParseError):
        DrivingProtocol([0.5, 1.0], [SZ, SZ])
    with pytest.raises(ParseError):
        DrivingProtocol([0.0, 0.0], [SZ, SZ])


# --- the stacked protocol form ----------------------------------------------------

def unequal_protocols():
    """A 3-breakpoint protocol at d = 3 and a 4-breakpoint one at d = 4, unequal segments."""
    rng = np.random.default_rng(17)
    return [DrivingProtocol(times, [random_hermitian_np(dim, rng) for _ in times], 8)
            for times, dim in (([0.0, 0.5, 2.0], 3), ([0.0, 0.3, 0.7, 1.6], 4))]


def probe_times(protocol):
    """Each breakpoint, points within and just beyond the time tolerance of it (inside
    [-tol / 2, tau + tol / 2]), and points between breakpoints."""
    tol = scenario_mod._TIME_MATCH_TOL * max(1.0, protocol.duration)
    bps = protocol.times
    near = (bps[:, None] + tol * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])).ravel()
    near = near[(near >= -tol / 2) & (near <= protocol.duration + tol / 2)]
    return np.concatenate([near, bps[:-1] + np.diff(bps) / 2, bps[:-1] + np.diff(bps) / 3])


@pytest.mark.parametrize("case", [0, 1], ids=["3-breakpoints", "4-breakpoints"])
def test_interpolation_matches_the_loop_reference(case):
    protocol = unequal_protocols()[case]
    n, d = protocol.times.size, protocol.dim
    assert protocol.times.shape == (n,) and protocol.hamiltonians.shape == (n, d, d)
    ts = probe_times(protocol)
    hams, slopes = protocol.hamiltonian_at(ts), protocol.derivative_at(ts)
    assert hams.shape == slopes.shape == (ts.size, d, d)
    for t, h_t, dh_t in zip(ts, hams, slopes):
        assert h_t.tobytes() == hamiltonian_at_loop(protocol, t).tobytes()
        assert dh_t.tobytes() == derivative_at_loop(protocol, t).tobytes()
        assert protocol.derivative_at(t).tobytes() == dh_t.tobytes()
    # outside [0, tau] the interpolation holds the nearer endpoint
    for t in (-1.0, protocol.duration + 1.0):
        np.testing.assert_array_equal(protocol.hamiltonian_at(t), hamiltonian_at_loop(protocol, t))


def test_derivative_outside_the_protocol_raises():
    protocol = unequal_protocols()[0]
    tol = scenario_mod._TIME_MATCH_TOL * protocol.duration
    for t in (-3.0 * tol, protocol.duration + 3.0 * tol, [0.5, 2.5]):
        with pytest.raises(ValueError):
            protocol.derivative_at(t)


def _pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def test_parse_validates_each_breakpoint_and_rho_once(monkeypatch):
    calls = []
    original = la._require

    def record(m, name, kind, ndim=None):
        calls.append(name)
        return original(m, name, kind, ndim)

    monkeypatch.setattr(la, "_require", record)
    monkeypatch.setattr(scenario_mod, "_require", record)
    rng = np.random.default_rng(5)
    hams = [random_hermitian_np(3, rng) for _ in range(3)]
    doc = {"dim": 3, "H": _pairs(hams[0]), "H_final": _pairs(hams[-1]),
           "rho": _pairs(np.eye(3) / 3.0),
           "evolution": {"type": "protocol", "steps_per_segment": 8,
                         "breakpoints": [{"t": t, "H": _pairs(h)}
                                         for t, h in zip((0.0, 0.5, 2.0), hams)]}}
    s = parse_scenario(json.dumps(doc))
    # H and H_final equal the end breakpoints, which the protocol validated
    assert calls == [f"evolution.breakpoints[{i}].H" for i in range(3)] + ["rho"]
    np.testing.assert_array_equal(s.h_final, hams[-1])


# --- compile_unitary -----------------------------------------------------------

def test_constant_hamiltonian_is_exact():
    tau = 1.3
    proto = DrivingProtocol([0.0, tau], [SZ, SZ])
    u, _, _ = compile_unitary(proto)
    assert max_abs(u - scipy.linalg.expm(-1j * SZ * tau)) <= 1e-12


def test_commuting_breakpoints_match_quadrature_oracle():
    d0 = np.diag([0.0, 1.0]).astype(complex)
    d1 = np.diag([2.0, -1.0]).astype(complex)
    steps = 16
    proto = DrivingProtocol([0.0, 0.7, 1.0], [d0, d1, d0], steps_per_segment=steps)
    u, _, _ = compile_unitary(proto)
    acc = np.zeros((2, 2), dtype=complex)
    bps = list(zip(proto.times, proto.hamiltonians))
    for (ta, ha), (tb, hb) in zip(bps, bps[1:]):
        dt = (tb - ta) / steps
        for k in range(steps):
            lam = (k + 0.5) / steps
            acc += ((1 - lam) * ha + lam * hb) * dt
    assert max_abs(u - scipy.linalg.expm(-1j * acc)) <= 1e-12


def test_step_doubling_second_order():
    h1 = SZ + 0.8 * SX
    ref, _, _ = compile_unitary(DrivingProtocol([0.0, 1.0], [SZ, h1], 2048))
    errs = []
    for n in (8, 16, 32):
        u, _, _ = compile_unitary(DrivingProtocol([0.0, 1.0], [SZ, h1], n))
        errs.append(max_abs(u - ref))
    assert errs[1] <= errs[0] / 3.0
    assert errs[2] <= errs[1] / 3.0


@pytest.mark.parametrize("middle", [0.5, 0.01, 0.001])
def test_each_segment_takes_its_own_factor_step(monkeypatch, middle):
    steps = []
    real = scenario_mod._expi

    def counting(hs, dts):
        assert len(hs) == len(dts)
        steps.extend(dts)
        return real(hs, dts)

    monkeypatch.setattr(scenario_mod, "_expi", counting)
    proto = DrivingProtocol([0.0, middle, 1.0], [SZ, SZ + 0.7 * SX, -SZ], 16)
    u, _, _ = compile_unitary(proto)
    assert len(steps) == 32
    np.testing.assert_allclose(steps, [middle / 16] * 16 + [(1.0 - middle) / 16] * 16,
                               rtol=1e-12)
    assert max_abs(u.conj().T @ u - np.eye(2)) <= 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_stacked_compile_matches_the_per_midpoint_loop(dim):
    rng = np.random.default_rng(40 + dim)
    hams = [random_hermitian_np(dim, rng) for _ in range(3)]
    proto = DrivingProtocol([0.0, 0.3, 1.1], hams, 12)
    u, times, unitaries = compile_unitary(proto)
    ref_times, ref_unitaries = substep_mesh_loop(proto)
    assert times.size == ref_unitaries.shape[0] == 25
    assert max_abs(times - ref_times) <= 1e-15
    assert unitaries[-1].tobytes() == u.tobytes()
    assert max_abs(unitaries - ref_unitaries) <= 1e-12


@pytest.mark.parametrize("case", [0, 1], ids=["3-breakpoints", "4-breakpoints"])
def test_history_grids_read_the_one_compile(monkeypatch, case):
    protocol = unequal_protocols()[case]
    s = Scenario(dim=protocol.dim, h_initial=protocol.hamiltonians[0],
                 h_final=protocol.hamiltonians[-1], evolution=protocol,
                 rho=np.eye(protocol.dim) / protocol.dim)
    _, mesh, unitaries = compile_unitary(protocol)
    tol = scenario_mod._TIME_MATCH_TOL * max(1.0, protocol.duration)
    solves = []
    real = scenario_mod._expi

    def counting(hs, dts):
        solves.append(hs[..., 0, 0].size)  # the number of factors
        return real(hs, dts)

    monkeypatch.setattr(scenario_mod, "_expi", counting)
    s.unitary()
    [(_, _, mesh_c, unitaries_c)] = ScenarioBatch.of([s])._compiles()
    compiled = (mesh_c, unitaries_c[0])
    # every mesh time, and within the tolerance of one, takes its propagator as it is
    for shift in (0.0, -tol / 2, tol / 2):
        ts = np.clip(mesh + shift, 0.0, None)
        assert scenario_mod._propagators(protocol, *compiled, ts).tobytes() == unitaries.tobytes()
    # a 6-step grid and points between mesh times take one partial factor
    tau = protocol.duration
    off = np.concatenate([tau * np.arange(1, 6) / 6, (mesh[:-1] + mesh[1:]) / 2,
                          mesh[1:] - 3.0 * tol])
    got = scenario_mod._propagators(protocol, *compiled, off)
    assert solves == [mesh.size - 1, off.size]  # the compile, then one solve for the grid
    for t, u_t in zip(off, got):
        m = np.searchsorted(mesh, t) - 1
        assert t - mesh[m] > tol
        assert max_abs(u_t - partial_factor_loop(protocol, mesh[m], unitaries[m], t)) <= 1e-14
        assert max_abs(u_t.conj().T @ u_t - np.eye(protocol.dim)) <= 1e-10


def expi_bound(hs, dts):
    """The per-factor bound ``_expi`` documents: 4 d eps max(1, ||H dt||_1), per member."""
    norms = np.abs(hs * dts[:, None, None]).sum(axis=-2).max(axis=-1)
    return 4 * hs.shape[-1] * np.finfo(float).eps * np.maximum(1.0, norms)


def expi_errors(hs, dts):
    """Largest entry error against ``scipy.linalg.expm`` and unitarity defect, per member."""
    got = scenario_mod._expi(hs, dts)
    ref = np.array([scipy.linalg.expm(-1j * dt * h) for h, dt in zip(hs, dts)])
    defect = got.conj().swapaxes(-1, -2) @ got - np.eye(hs.shape[-1])
    return np.abs(got - ref).max(axis=(1, 2)), np.abs(defect).max(axis=(1, 2))


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32, 64])
def test_expi_is_within_its_error_bound(dim, scale):
    rng = np.random.default_rng([dim, int(np.log10(scale)) + 8])
    hs = scale * np.array([random_hermitian_np(dim, rng) for _ in range(3)])
    dts = np.array([1.0 / 16, 0.3, 1e-3])
    error, defect = expi_errors(hs, dts)
    bound = expi_bound(hs, dts)
    assert (error <= bound).all() and (defect <= bound).all()
    if scale == 1.0 and dim == 64:  # the measured per-factor error of a 16-step compile
        assert error[0] <= 1.1e-14 and defect[0] <= 2.2e-14


def expi_members_alone(dim, rng):
    """||H dt||_1 from 0 to 1e3: each member is scaled, takes its own Taylor degree and is
    squared on its own, bitwise as alone, in stacks whose highest degree is 16 and 15."""
    # zero; degree 2; degrees 4, 8, 12 and 16 unscaled; then 1, 4 and 11 squarings
    norms = np.array([0.0, 1e-12, 3e-5, 1.5e-2, 0.14, 0.45, 0.7, 6.0, 1e3])
    dts = np.full(norms.size, 0.1)
    hs = np.array([random_hermitian_np(dim, rng) for _ in norms])
    hs *= (norms / (0.1 * np.abs(hs).sum(axis=-2).max(axis=-1)))[:, None, None]
    squarings = np.maximum(np.frexp(2.0 * norms)[1], 0)
    degrees = np.searchsorted(la._TAYLOR_THETA, np.ldexp(norms, -squarings), side="right") + 1
    assert degrees.tolist() == [1, 2, 4, 8, 12, 16, 15, 15, 16]
    assert squarings.tolist() == [0, 0, 0, 0, 0, 0, 1, 4, 11]
    for pick in (np.arange(norms.size), np.flatnonzero(degrees < 16)):
        stacked = scenario_mod._expi(hs[pick], dts[pick])
        for i, member in zip(pick, stacked):
            assert member.tobytes() == scenario_mod._expi(hs[i:i + 1], dts[i:i + 1])[0].tobytes()
    error, defect = expi_errors(hs, dts)
    assert (error <= expi_bound(hs, dts)).all() and (defect <= expi_bound(hs, dts)).all()


def test_expi_takes_each_member_of_a_stack_alone():
    expi_members_alone(8, np.random.default_rng(23))


def test_expi_takes_each_member_of_a_qubit_stack_alone():
    """The same at d = 2, whose products are the elementwise ones of ``linalg._matmul``."""
    expi_members_alone(2, np.random.default_rng(24))


def test_expi_of_a_zero_generator_is_the_identity():
    rng = np.random.default_rng(29)
    hs = np.array([np.zeros((3, 3), complex), random_hermitian_np(3, rng)])
    got = scenario_mod._expi(hs, np.array([0.5, 0.0]))  # H = 0, then dt = 0
    assert np.array_equal(got, np.broadcast_to(np.eye(3), got.shape))


def test_a_compile_runs_no_eigensolver(monkeypatch):
    solves = []
    real = la._jacobi
    monkeypatch.setattr(la, "_jacobi", lambda a: solves.append(a) or real(a))
    for protocol in unequal_protocols():
        _, mesh, unitaries = compile_unitary(protocol)
        scenario_mod._propagators(protocol, mesh, unitaries, (mesh[:-1] + mesh[1:]) / 2)
    batch = ScenarioBatch.of([Scenario(3, *p.hamiltonians[[0, -1]], p, np.eye(3) / 3)
                              for p in unequal_protocols()[:1] * 2])
    batch.unitary()
    assert solves == []


def test_compiled_unitaries_pass_the_unitarity_invariant():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h0 = (g + g.conj().T) / 2
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h1 = (g + g.conj().T) / 2
        u, _, unitaries = compile_unitary(DrivingProtocol([0.0, 1.5], [h0, h1], 16))
        for uj in [*unitaries, u]:
            assert max_abs(uj.conj().T @ uj - np.eye(3)) <= 1e-10


# --- energetics ------------------------------------------------------------------

def test_mean_energy_change_examples(hadamard_scenario):
    s0 = Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=np.eye(2, dtype=complex),
                  rho=PLUS)
    assert abs(mean_energy_change(s0)) <= 1e-14
    assert abs(mean_energy_change(hadamard_scenario) - 1.0) <= 1e-12
    thermal = np.diag([0.3, 0.7]).astype(complex)
    phase = np.diag([1.0, 1j]).astype(complex)
    s2 = Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=phase, rho=thermal)
    assert abs(mean_energy_change(s2)) <= 1e-14


def test_time_reversed_propagator_identity():
    proto = DrivingProtocol([0.0, 1.0], [SZ, SZ + 0.8 * SX], 16)
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ + 0.8 * SX, evolution=proto, rho=PLUS)
    rev = time_reversed(s)
    assert max_abs(rev.unitary() - np.conj(s.unitary().conj().T)) <= 1e-12
    with pytest.raises(ValueError):
        time_reversed(Scenario(dim=2, h_initial=SZ, h_final=SZ,
                               evolution=HADAMARD, rho=PLUS))
