"""Legacy setup shim.

The offline build environment lacks the ``wheel`` package, so PEP-517
editable installs (which require ``bdist_wheel``) fail.  This shim lets
``pip install -e .`` fall back to ``setup.py develop``.  All metadata
lives in ``pyproject.toml``; the explicit arguments here mirror it for
the legacy code path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Simulation-based reproduction of Bergeron (SC'98): Measurement of a "
        "Scientific Workload using the IBM Hardware Performance Monitor"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23", "networkx"],
    entry_points={
        "console_scripts": [
            "sp2-study = repro.cli:main",
            "sp2-ops = repro.ops_cli:main",
            "sp2-fleet = repro.fleet_cli:main",
        ]
    },
)
