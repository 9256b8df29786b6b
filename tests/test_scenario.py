import json

import numpy as np
import pytest
import scipy.linalg

from qworklab import scenario as scenario_mod
from qworklab.audit import random_nondegenerate_hermitian
from qworklab.errors import ParseError, ValidationError
from qworklab.linalg import HERMITICITY_TOL, max_abs, random_density, random_unitary
from qworklab.scenario import (
    DrivingProtocol,
    Scenario,
    compile_unitary,
    mean_energy_change,
    parse_scenario,
    serialize_scenario,
    time_reversed,
)
from qworklab.schemes import tpm

from conftest import HADAMARD, PLUS, SX, SZ

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
    proto = DrivingProtocol(((0.0, SZ), (1.0, SZ + 0.7 * SX)), steps_per_segment=16)
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ + 0.7 * SX, evolution=proto,
                 rho=PLUS, label="ramp")
    again = parse_scenario(serialize_scenario(s))
    assert again.is_driven
    assert again.evolution.steps_per_segment == 16
    assert max_abs(again.unitary() - s.unitary()) == 0.0


def test_protocol_endpoint_mismatch_rejected():
    proto = DrivingProtocol(((0.0, SZ), (1.0, SX)))
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

    def counting(protocol, grid=None):
        calls.append(protocol)
        return real(protocol, grid)

    monkeypatch.setattr(scenario_mod, "compile_unitary", counting)
    proto = DrivingProtocol(((0.0, SZ), (1.0, SZ + 0.7 * SX)), 16)
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ + 0.7 * SX, evolution=proto, rho=PLUS)
    first = s.with_rho(np.diag([0.8, 0.2]).astype(complex))
    u = s.unitary()
    second = s.with_rho(np.diag([0.1, 0.9]).astype(complex))
    assert first.unitary() is u and second.unitary() is u
    assert len(calls) == 1


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
        DrivingProtocol(((0.5, SZ), (1.0, SZ)))
    with pytest.raises(ParseError):
        DrivingProtocol(((0.0, SZ), (0.0, SZ)))


# --- compile_unitary -----------------------------------------------------------

def test_constant_hamiltonian_is_exact():
    tau = 1.3
    proto = DrivingProtocol(((0.0, SZ), (tau, SZ)))
    u, _ = compile_unitary(proto)
    assert max_abs(u - scipy.linalg.expm(-1j * SZ * tau)) <= 1e-12


def test_commuting_breakpoints_match_quadrature_oracle():
    d0 = np.diag([0.0, 1.0]).astype(complex)
    d1 = np.diag([2.0, -1.0]).astype(complex)
    steps = 16
    proto = DrivingProtocol(((0.0, d0), (0.7, d1), (1.0, d0)), steps_per_segment=steps)
    u, _ = compile_unitary(proto)
    acc = np.zeros((2, 2), dtype=complex)
    for (ta, ha), (tb, hb) in zip(proto.breakpoints, proto.breakpoints[1:]):
        dt = (tb - ta) / steps
        for k in range(steps):
            lam = (k + 0.5) / steps
            acc += ((1 - lam) * ha + lam * hb) * dt
    assert max_abs(u - scipy.linalg.expm(-1j * acc)) <= 1e-12


def test_step_doubling_second_order():
    h1 = SZ + 0.8 * SX
    ref, _ = compile_unitary(DrivingProtocol(((0.0, SZ), (1.0, h1)), 2048))
    errs = []
    for n in (8, 16, 32):
        u, _ = compile_unitary(DrivingProtocol(((0.0, SZ), (1.0, h1)), n))
        errs.append(max_abs(u - ref))
    assert errs[1] <= errs[0] / 3.0
    assert errs[2] <= errs[1] / 3.0


def test_grid_records_requested_times():
    proto = DrivingProtocol(((0.0, SZ), (1.0, SZ + 0.5 * SX)), 8)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    u, records = compile_unitary(proto, grid=grid)
    assert [t for t, _ in records] == grid
    assert max_abs(records[-1][1] - u) == 0.0
    for _, uj in records:
        assert max_abs(uj.conj().T @ uj - np.eye(2)) <= 1e-10


def test_compiled_unitaries_pass_the_unitarity_invariant():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h0 = (g + g.conj().T) / 2
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h1 = (g + g.conj().T) / 2
        u, records = compile_unitary(DrivingProtocol(((0.0, h0), (1.5, h1)), 16))
        for _, uj in records + [(None, u)]:
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
    proto = DrivingProtocol(((0.0, SZ), (1.0, SZ + 0.8 * SX)), 16)
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ + 0.8 * SX, evolution=proto, rho=PLUS)
    rev = time_reversed(s)
    assert max_abs(rev.unitary() - np.conj(s.unitary().conj().T)) <= 1e-12
    with pytest.raises(ValueError):
        time_reversed(Scenario(dim=2, h_initial=SZ, h_final=SZ,
                               evolution=HADAMARD, rho=PLUS))
