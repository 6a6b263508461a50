"""A campaign does not need networkx.

networkx is declared in the package dependencies, but only
:mod:`repro.cluster.topology` (the switch fabric's structure) uses it.
``import repro``, a campaign and the ``sp2-study`` CLI must work in an
interpreter where it cannot be imported, so the campaign import path
stays as small as the package's numpy core.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys
sys.modules["networkx"] = None  # any `import networkx` now raises ImportError

import repro
from repro.core.study import StudyConfig, run_study

dataset = run_study(StudyConfig(seed=0, n_days=1, n_nodes=16, n_users=4))
assert len(dataset.accounting) > 0
assert "networkx" not in {m.split(".")[0] for m in sys.modules if sys.modules[m]}

from repro.cli import main
sys.exit(main(["--help"]))
"""


def test_campaign_and_cli_run_without_networkx():
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: sp2-study" in proc.stdout
