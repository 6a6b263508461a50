"""Campaign-level backend equivalence: the seed × backend × worker matrix.

The accrual backend (``scalar`` vs. the vectorized stores) is an
implementation choice, never an experiment parameter: for any seed and
any shard plan, every backend must produce byte-identical ``--json``
output at every worker count.  This is the system-level counterpart of
the per-node property tests in ``tests/power2/test_batch_equivalence.py``.

Serial and sharded campaigns are *different experiments* (the shard plan
changes the trace realization the way a different seed would), so each
is compared within its own plan group.
"""

from __future__ import annotations

import pytest

from repro.analysis.export import dataset_to_json
from repro.core.study import StudyConfig, run_study
from repro.faults.profile import PROFILES
from repro.parallel import run_parallel_study

SEEDS = [0, 1, 2, 3, 4]
SMALL = dict(n_days=2, n_nodes=16, n_users=6)


def _serial_json(seed: int, backend: str) -> str:
    ds = run_study(StudyConfig(seed=seed, accrual_backend=backend, **SMALL))
    return dataset_to_json(ds)


def _sharded_json(seed: int, backend: str, workers: int) -> str:
    cfg = StudyConfig(seed=seed, accrual_backend=backend, **SMALL)
    ds = run_parallel_study(cfg, workers=workers, shard_days=1)
    return dataset_to_json(ds)


class TestSerialMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_and_vectorized_serial_runs_identical(self, seed):
        assert _serial_json(seed, "scalar") == _serial_json(seed, "vectorized")


class TestShardedMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_backend_and_worker_count_invariant(self, seed):
        """{scalar, vectorized} × {1, 4 workers}: one byte pattern."""
        reference = _sharded_json(seed, "scalar", workers=1)
        assert _sharded_json(seed, "vectorized", workers=1) == reference
        assert _sharded_json(seed, "scalar", workers=4) == reference
        assert _sharded_json(seed, "vectorized", workers=4) == reference


class TestFaultedCampaigns:
    def test_backends_identical_under_fault_injection(self):
        """Crash/repair schedules (counter freezes, unreachable nodes,
        requeues) accrue identically on every backend."""
        jsons = []
        for backend in ("scalar", "vectorized", "auto"):
            ds = run_study(
                StudyConfig(
                    seed=7,
                    accrual_backend=backend,
                    fault_profile=PROFILES["pathological"],
                    **SMALL,
                )
            )
            assert ds.faults is not None and len(ds.faults.events) > 0
            jsons.append(dataset_to_json(ds))
        assert jsons[0] == jsons[1] == jsons[2]


class TestCliSurface:
    def test_flag_threads_through_to_identical_json(self, tmp_path, capsys):
        from repro.cli import main

        outputs = []
        for backend in ("scalar", "vectorized"):
            out = tmp_path / f"{backend}.json"
            rc = main(
                [
                    "--days", "2", "--nodes", "16", "--users", "4", "--seed", "5",
                    "--accrual-backend", backend, "--json", str(out),
                ]
            )
            assert rc == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_unknown_backend_rejected(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--accrual-backend", "fortran"])
