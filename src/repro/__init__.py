"""repro — a simulation-based reproduction of Bergeron (SC'98),
"Measurement of a Scientific Workload using the IBM Hardware Performance
Monitor".

The package rebuilds the entire measurement stack of the paper in
Python: a behavioural POWER2 processor and 22-counter hardware monitor,
the SP2 cluster substrate (High Performance Switch, NFS home
filesystems), the PBS batch system, the RS2HPM monitoring tools, a
generative model of the NAS CFD workload, and the analysis that produces
every table and figure in the paper.

Quickstart::

    from repro import StudyConfig, paper_comparison, run_study

    dataset = run_study(StudyConfig(seed=0, n_days=30))  # a one-month campaign
    print(paper_comparison(dataset))                     # paper vs measured

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every experiment.
"""

from repro.core.study import StudyConfig, StudyDataset, WorkloadStudy, run_study
from repro.analysis import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    headline_report,
    paper_comparison,
    table1,
    table2,
    table3,
    table4,
)

__version__ = "1.0.0"

__all__ = [
    "StudyConfig",
    "StudyDataset",
    "WorkloadStudy",
    "run_study",
    "table1",
    "table2",
    "table3",
    "table4",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "headline_report",
    "paper_comparison",
    "__version__",
]
