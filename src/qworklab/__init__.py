"""Numerical laboratory for quantum work distributions and their limitations."""

__version__ = "0.1.0"

from .linalg import (
    SpectralDecomposition,
    dephase,
    eig_hermitian,
    partial_trace,
    random_density,
    random_pure,
    random_unitary,
    relative_entropy,
    tensor,
    von_neumann_entropy,
)
from .scenario import (
    DrivingProtocol,
    Scenario,
    ScenarioBatch,
    compile_unitary,
    load_scenario,
    mean_energy_change,
    parse_scenario,
    serialize_scenario,
    time_reversed,
)
from .schemes import (
    CollectiveFactors,
    JointWorkTable,
    Povm,
    PureDecomposition,
    SchemeId,
    WorkBatch,
    WorkDistribution,
    collective_factors,
    collective_povm,
    collective_two_copy,
    consistent_histories,
    distribution,
    distributions,
    fcs_characteristic,
    fcs_quasiprob,
    lambda_max,
    margenau_hill,
    state_dependent,
    sub_ensemble,
    tpm,
    work_operator,
)
from .pointer import (
    PointerConfig,
    PointerReadout,
    gaussian_meter,
    gaussian_meter_vs_fcs,
    meter_densities,
    weak_value_protocol,
)
from .thermo import (
    BipartiteScenario,
    ThermalContext,
    asymmetry,
    bipartite_work_identity,
    free_energy,
    free_energy_decomposition,
    max_extractable_work,
    measurement_work_loss,
)
from .audit import (
    ConditionVerdict,
    Table1Config,
    Table1Report,
    build_table1,
    check_c1_linearity,
    check_c2,
    check_c3,
    check_collective_adapted,
    contextuality_witness,
    demonstrate_nogo,
    reconstruct_povm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
