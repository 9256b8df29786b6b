import argparse
import json

import numpy as np
import pytest

from qworklab import __version__, audit
from qworklab import linalg as la
from qworklab import schemes as schemes_mod
from qworklab import thermo
from qworklab.cli import _CONVENTION_FLAGS, TOLERANCES, emit_distribution, main
from qworklab.scenario import Scenario, load_scenario, serialize_scenario
from qworklab.schemes import CollectiveFactors, SchemeId, WorkDistribution

from conftest import HADAMARD, PLUS, SZ


@pytest.fixture
def scenario_file(tmp_path):
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=HADAMARD, rho=PLUS,
                 label="hadamard-plus")
    path = tmp_path / "hadamard.json"
    path.write_text(serialize_scenario(s))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ, evolution=HADAMARD,
                 rho=np.diag([0.7, 0.3]).astype(complex), label="hadamard-mixed")
    path = tmp_path / "mixed.json"
    path.write_text(serialize_scenario(s))
    return str(path)


@pytest.fixture
def ramp_file(tmp_path):
    from qworklab.scenario import DrivingProtocol
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    proto = DrivingProtocol([0.0, 1.0], [SZ, SZ + 0.7 * sx], 32)
    s = Scenario(dim=2, h_initial=SZ, h_final=SZ + 0.7 * sx, evolution=proto, rho=PLUS)
    path = tmp_path / "ramp.json"
    path.write_text(serialize_scenario(s))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_dist_tpm_csv_golden(scenario_file, capsys):
    code, out = run_cli(["dist", "--scheme", "tpm", "--scenario", scenario_file,
                         "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "work,weight"
    rows = [line.split(",") for line in lines[1:]]
    works = [float(r[0]) for r in rows]
    weights = [float(r[1]) for r in rows]
    np.testing.assert_allclose(works, [-2.0, 0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(weights, [0.25, 0.5, 0.25], atol=1e-12)


def test_dist_json_roundtrips_negative_weights(scenario_file, capsys):
    code, out = run_cli(["dist", "--scheme", "fcs", "--scenario", scenario_file,
                         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["is_quasi"] is True
    assert any(p < 0 for _, p in doc["atoms"])
    assert doc["metadata"]["tool"] == "qworklab"
    assert "tolerances" in doc["metadata"]


def test_emit_distribution_formats():
    dist = WorkDistribution.from_atoms([0.0], [1.0], SchemeId.TPM, False)
    assert emit_distribution(dist, "csv") == "work,weight\n0,1\n"
    quasi = WorkDistribution.from_atoms([0.0, 1.0], [1.25, -0.25],
                                        SchemeId.MARGENAU_HILL, True)
    doc = json.loads(emit_distribution(quasi, "json"))
    again = WorkDistribution.from_atoms([w for w, _ in doc["atoms"]],
                                        [p for _, p in doc["atoms"]],
                                        SchemeId.MARGENAU_HILL, True)
    assert np.array_equal(again.weights, quasi.weights)


_RNG = np.random.default_rng(21)


@pytest.mark.parametrize("works, weights", [
    (_RNG.normal(size=3000) * 10.0 ** _RNG.integers(-20, 20, 3000), _RNG.normal(size=3000)),
    ([0.5], [1.0]),
    ([-np.inf, np.nan, -0.0, np.inf], [np.nan, np.inf, -np.inf, 1e-300]),
    ([], []),
], ids=["many-atoms", "one-atom", "non-finite", "no-atoms"])
@pytest.mark.parametrize("scheme", [SchemeId.FCS, SchemeId.STATE_DEPENDENT])
def test_json_emitter_writes_the_text_of_json_dumps(works, weights, scheme):
    # the dataclass takes any arrays, non-finite values included
    dist = WorkDistribution(works=np.array(works, dtype=float),
                            weights=np.array(weights, dtype=float), scheme=scheme, is_quasi=True)
    doc = {"scheme": scheme.value, "is_quasi": True, "atoms": [[w, p] for w, p in dist.atoms],
           "metadata": {"tool": "qworklab", "version": __version__, "seed": 4,
                        "tolerances": TOLERANCES}}
    if scheme in _CONVENTION_FLAGS:
        doc["conventions"] = [_CONVENTION_FLAGS[scheme]]
    assert emit_distribution(dist, "json", seed=4) == json.dumps(doc, indent=2) + "\n"


def test_json_emitter_writes_non_finite_atoms_as_json_does():
    dist = WorkDistribution(works=np.array([np.nan, np.inf, -np.inf]),
                            weights=np.array([-np.inf, 0.5, np.nan]), scheme=SchemeId.FCS,
                            is_quasi=True)
    rows = ",".join("\n    [\n      %s,\n      %s\n    ]" % pair for pair in
                    (("NaN", "-Infinity"), ("Infinity", "0.5"), ("-Infinity", "NaN")))
    assert f'"atoms": [{rows}\n  ],' in emit_distribution(dist, "json")


def test_json_emitter_writes_a_d8_fcs_document_as_json_dumps():
    s = audit.sample_scenario(8, np.random.default_rng(88))
    dist = schemes_mod.distribution(SchemeId.FCS, s)
    assert len(dist) > 100 and np.isfinite(dist.works).all() and np.isfinite(dist.weights).all()
    doc = {"scheme": "fcs", "is_quasi": True, "atoms": [[w, p] for w, p in dist.atoms],
           "metadata": {"tool": "qworklab", "version": __version__, "seed": 5,
                        "tolerances": TOLERANCES}}
    assert emit_distribution(dist, "json", seed=5) == json.dumps(doc, indent=2) + "\n"


def test_atoms_emitted_in_ascending_order(ramp_file, capsys):
    code, out = run_cli(["dist", "--scheme", "consistent-histories", "--scenario",
                         ramp_file, "--k-steps", "6", "--format", "csv"], capsys)
    assert code == 0
    works = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert works == sorted(works)


def test_state_dependent_report_carries_convention_flag(scenario_file, capsys):
    code, out = run_cli(["dist", "--scheme", "state-dependent", "--scenario",
                         scenario_file, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert any("expectation value" in note for note in doc["conventions"])


def test_missing_file_is_exit_2(capsys):
    code, _ = run_cli(["dist", "--scheme", "tpm", "--scenario", "/nonexistent.json"],
                      capsys)
    assert code == 2


def test_invalid_scenario_is_exit_2_with_path(tmp_path, capsys):
    doc = {
        "dim": 2, "label": "", "rho": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "H": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "H_final": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "evolution": {"type": "unitary",
                      "U": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["dist", "--scheme", "tpm", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "rho" in captured.err


def test_scheme_error_is_exit_3(ramp_file, capsys):
    code, _ = run_cli(["dist", "--scheme", "consistent-histories", "--scenario",
                       ramp_file, "--k-steps", "25"], capsys)
    assert code == 3


@pytest.mark.parametrize("args, code", [
    (["dist", "--scheme", "collective-two-copy", "--scenario", "{file}", "--lam", "2"], 3),
    (["dist", "--scheme", "collective-two-copy", "--scenario", "{file}", "--lam", "abc"], 2),
    (["dist", "--scheme", "consistent-histories", "--scenario", "{file}"], 3),
    (["table1", "--dim", "1"], 3),
    (["pointer-sweep", "--scenario", "{file}", "--coupling", "-1"], 3),
    (["pointer-sweep", "--scenario", "{file}", "--density", "--spread", "0"], 3),
    (["witness", "--budget", "-1"], 3),
    (["witness", "--budget", "0"], 3),
    (["thermo", "--samples", "0"], 3),
    (["thermo", "--samples", "-3"], 3),
    (["audit", "--scheme", "tpm", "--samples", "0"], 3),
    (["table1", "--samples", "0"], 3),
    (["collective", "--samples", "0"], 3),
    (["dist", "--scheme", "sub-ensemble", "--scenario", "{mixed}", "--members", "1"], 3),
    (["dist", "--scheme", "sub-ensemble", "--scenario", "{mixed}", "--members", "-2"], 3),
    (["pointer-sweep", "--scenario", "{mixed}", "--ratio-min", "0"], 3),
    (["pointer-sweep", "--scenario", "{mixed}", "--ratio-min", "-1"], 3),
    (["pointer-sweep", "--scenario", "{file}", "--points", "-1"], 3),
    (["pointer-sweep", "--scenario", "{file}", "--points", "0"], 3),
    (["pointer-sweep", "--scenario", "{file}", "--coupling", "inf"], 3),
    (["pointer-sweep", "--scenario", "{file}", "--density", "--coupling", "inf"], 3),
    (["pointer-sweep", "--scenario", "{file}", "--density", "--spread", "inf"], 3),
    (["pointer-sweep", "--scenario", "{file}", "--density", "--spread", "nan"], 3),
    *((args + ["--seed", "-1"], 3) for args in (
        ["table1", "--samples", "1"], ["witness", "--budget", "1"], ["nogo"],
        ["collective", "--samples", "1"], ["audit", "--scheme", "tpm", "--samples", "1"],
        ["thermo", "--samples", "1"],
        ["dist", "--scheme", "sub-ensemble", "--scenario", "{mixed}", "--members", "3"])),
], ids=["dist-lam-2", "dist-lam-abc", "dist-ch-unitary", "table1-dim-1",
        "pointer-sweep-coupling-negative", "pointer-density-spread-0",
        "witness-budget-negative", "witness-budget-0", "thermo-samples-0",
        "thermo-samples-negative", "audit-samples-0", "table1-samples-0",
        "collective-samples-0", "dist-members-below-rank", "dist-members-negative",
        "pointer-sweep-ratio-min-0", "pointer-sweep-ratio-min-negative",
        "pointer-sweep-points-negative", "pointer-sweep-points-0",
        "pointer-sweep-coupling-inf", "pointer-density-coupling-inf",
        "pointer-density-spread-inf", "pointer-density-spread-nan",
        *(f"{verb}-seed-negative" for verb in ("table1", "witness", "nogo", "collective",
                                               "audit", "thermo", "dist-members"))])
def test_flag_domain_errors_exit_with_documented_codes(args, code, scenario_file, mixed_file,
                                                       capsys):
    assert main([a.format(file=scenario_file, mixed=mixed_file) for a in args]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_main_calls_share_one_parser_and_dispatch_to_their_own_verbs(monkeypatch, capsys):
    parse, parsers = argparse.ArgumentParser.parse_args, []
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *args: parsers.append(self) or parse(self, *args))
    assert main(["nogo", "--dim", "2", "--seed", "1"]) == 0
    nogo = json.loads(capsys.readouterr().out)
    assert main(["witness", "--budget", "50", "--seed", "1"]) == 0
    witness = json.loads(capsys.readouterr().out)
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert nogo["dim"] == 2 and "forced_vs_analytic_gap" in nogo and "found" not in nogo
    assert "found" in witness and "dim" not in witness


def test_same_seed_byte_identical_outputs(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["witness", "--budget", "500", "--seed", "9",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_audit_verb(capsys):
    code, out = run_cli(["audit", "--scheme", "fcs", "--condition", "c2",
                         "--samples", "20", "--seed", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"][0]["condition"] == "c2-tpm-agreement"
    assert doc["verdicts"][0]["status"] == "satisfied"


def test_thermo_verb_passes(capsys):
    code, out = run_cli(["thermo", "--check", "all", "--samples", "40", "--seed", "1"],
                        capsys)
    assert code == 0
    assert json.loads(out)["report"]["pass"] is True


def test_nogo_verb(capsys):
    code, out = run_cli(["nogo", "--seed", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["coherent_c3_gap"] == pytest.approx(1.0, abs=1e-10)


def test_collective_verb_at_d32_builds_no_two_copy_element(monkeypatch, capsys):
    # an explicit d = 32 two-copy POVM holds 32^6 complex entries (about 16 GB)
    built = []
    real = CollectiveFactors.povm
    monkeypatch.setattr(CollectiveFactors, "povm", lambda f: built.append(f.lam) or real(f))
    code, out = run_cli(["collective", "--dim", "32", "--samples", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n_contract_violations"] == 0 and doc["worst_completeness"] <= 1e-8
    assert len(built) == 2  # the two fixed d = 2 probes only


def test_rereading_a_scenario_file_reuses_the_cached_spectra(tmp_path, monkeypatch, capsys):
    """Each verb parses the file again, into a Scenario of its own; the eigen cache shares
    H, H_final and rho between those parses, so each is solved once in the process."""
    path = tmp_path / "d16.json"
    path.write_text(serialize_scenario(audit.sample_scenario(16, np.random.default_rng(16))))
    solved = []
    original = la._jacobi

    def recording(a):
        solved.append(a.copy())
        return original(a)

    for module in (la, schemes_mod):  # scenario and thermo solve through linalg._eig
        monkeypatch.setattr(module, "_jacobi", recording)
    monkeypatch.setattr(la, "_EIG_CACHE", {})
    for scheme in ("state-dependent", "sub-ensemble"):
        assert main(["dist", "--scheme", scheme, "--scenario", str(path), "--format", "json"]) == 0
    again = load_scenario(path)
    thermo.measurement_work_loss(again.rho, thermo.ThermalContext(1.0, again.h_initial))
    for op in (again.h_initial, again.h_final, again.rho):
        assert sum(a.shape == op.shape and np.array_equal(a, op) for a in solved) == 1


def test_pointer_sweep_verb(scenario_file, capsys):
    code, out = run_cli(["pointer-sweep", "--scenario", scenario_file,
                         "--points", "5", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "spread_over_coupling,l1_to_tpm,l1_to_margenau_hill"
    assert len(lines) == 6


def test_table1_verb_small(capsys):
    code, out = run_cli(["table1", "--samples", "10", "--seed", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    schemes = [row["scheme"] for row in doc["rows"]]
    assert "tpm" in schemes and "hamilton_jacobi" in schemes
    tpm_row = next(r for r in doc["rows"] if r["scheme"] == "tpm")
    assert tpm_row["c3"]["status"] == "violated"
