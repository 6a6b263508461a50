#!/usr/bin/env python3
"""A NAS user's afternoon on the SP2 — the §2/§3 workflow end-to-end.

1. write a batch script with ``#PBS`` directives and ``rs2hpm`` markers;
2. ``qsub`` it, watch ``qstat`` while it queues behind a wide job that
   is draining the machine (§6);
3. read the RS2HPM epilogue report when it finishes;
4. use the per-program monitor interactively (the "preface interactive
   sessions with the appropriate RS2HPM commands" path) to compare the
   untuned and tuned versions of a kernel;
5. check the operator's daily report, where the wide job shows up as a
   paging suspect.

Run::

    python examples/user_session.py
"""

from repro.analysis.opsreport import day_ops, render_day_report
from repro.cluster.machine import SP2Machine
from repro.core.study import StudyConfig, StudyDataset, run_study
from repro.hpm.jobreport import render_job_report
from repro.hpm.program import ProgramMonitor
from repro.pbs.qcmds import PBSCommands
from repro.pbs.scheduler import PBSServer
from repro.power2.node import Node, PhaseKind, WorkPhase
from repro.power2.pipeline import CycleModel
from repro.sim.engine import Simulator
from repro.workload.kernels import kernel

SCRIPT = """\
#!/bin/sh
#PBS -N wingflow
#PBS -l nodes=16,walltime=02:00:00
cd $HOME/cases/wing
rs2hpm start
mpirun -np 16 ./arc3d wing.inp
rs2hpm stop
"""

WIDE_SCRIPT = "#PBS -N hog\n#PBS -l nodes=96\n./bigjob huge.inp\n"


def batch_part() -> None:
    sim = Simulator()
    server = PBSServer(sim, SP2Machine(96 + 8))
    q = PBSCommands(server, seed=2)

    print("$ cat wing.pbs")
    print(SCRIPT)
    wide = q.qsub(WIDE_SCRIPT, user=3)  # someone's oversubscribed monster
    mine = q.qsub(SCRIPT, user=7)

    print("$ qsub wing.pbs")
    print(f"{mine.job_id}.sp2-pbs")
    print("\n$ qstat")
    print(q.qstat_render())

    sim.run()
    record = next(
        r for r in server.accounting.records if r.job_id == mine.job_id
    )
    print("\n# epilogue report (head):")
    print("\n".join(render_job_report(record).splitlines()[:11]))
    print("...")
    hog = next(r for r in server.accounting.records if r.job_id == wide.job_id)
    print(
        f"\nthe 96-node job meanwhile: {hog.mflops_per_node:.2f} Mflops/node, "
        f"sys/user FXU {hog.system_user_fxu_ratio:.1f} — paging (§6)."
    )


def interactive_part() -> None:
    print("\n--- interactive tuning session (rs2hpm per-program mode) ---")
    node = Node(0)
    model = CycleModel(node.config)

    def run(kernel_name: str, flops: float) -> None:
        k = kernel(kernel_name)
        execution = model.execute(k.mix_for_flops(flops), k.memory_behaviour(), k.deps)
        node.run_phase(WorkPhase(kind=PhaseKind.COMPUTE, execution=execution))

    with ProgramMonitor(node, first_phase="before-tuning") as pm:
        run("legacy_vector", 3e7)
        pm.mark("after-tuning")
        run("cfd_tuned", 3e7)

    before = pm.report.phase("before-tuning").rates
    after = pm.report.phase("after-tuning").rates
    print(
        f"before: {before.mflops_total:6.1f} Mflops  fma {before.fma_flop_fraction:4.0%}  "
        f"flops/memref {before.flops_per_memory_inst:.2f}"
    )
    print(
        f"after : {after.mflops_total:6.1f} Mflops  fma {after.fma_flop_fraction:4.0%}  "
        f"flops/memref {after.flops_per_memory_inst:.2f}"
    )
    print("(§7: the better codes reach ≥80% fma and reuse registers)")


def operator_part() -> None:
    print("\n--- the operator's morning report ---")
    dataset: StudyDataset = run_study(
        StudyConfig(seed=3, n_days=3, n_nodes=144, n_users=40)
    )
    worst = min(
        range(3), key=lambda d: day_ops(dataset, d).gflops
    )
    print(render_day_report(day_ops(dataset, worst)))


def main() -> None:
    batch_part()
    interactive_part()
    operator_part()


if __name__ == "__main__":
    main()
