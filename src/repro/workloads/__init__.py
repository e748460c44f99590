"""Synthetic workloads and the paper's worked scenarios.

* :mod:`repro.workloads.topology` -- parameterized delegation topologies
  (chains, layered DAGs with exponential path counts, random DAGs,
  multi-domain coalitions) used by the E1-E3 benchmarks and property
  tests;
* :mod:`repro.workloads.scenarios` -- exact builders for the paper's
  Table 1 example and the Table 3 / Figure 2 case study, both in
  single-wallet and distributed (multi-wallet) form.
"""

from repro.workloads.defects import (
    ANALYSIS_AT,
    DefectiveWorkload,
    make_defective_workload,
)
from repro.workloads.topology import (
    GeneratedWorkload,
    make_chain,
    make_coalition,
    make_fan_tree,
    make_layered_dag,
    make_random_dag,
)
from repro.workloads.scenarios import (
    CaseStudy,
    DistributedCaseStudy,
    DistributedFederation,
    FederationDomain,
    ServicePopulation,
    Table1Scenario,
    build_case_study,
    build_distributed_case_study,
    build_distributed_federation,
    build_table1,
)

__all__ = [
    "ANALYSIS_AT",
    "DefectiveWorkload",
    "GeneratedWorkload",
    "make_defective_workload",
    "make_chain",
    "make_coalition",
    "make_fan_tree",
    "make_layered_dag",
    "make_random_dag",
    "CaseStudy",
    "DistributedCaseStudy",
    "DistributedFederation",
    "FederationDomain",
    "Table1Scenario",
    "ServicePopulation",
    "build_case_study",
    "build_distributed_case_study",
    "build_distributed_federation",
    "build_table1",
]
