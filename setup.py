"""Legacy setup shim.

The project is fully described by ``pyproject.toml``; this file only exists
so that ``pip install -e .`` works on environments whose setuptools is too
old for PEP 660 editable installs (no ``wheel`` package available offline).
The metadata and console-script entries below must mirror pyproject.toml's
``[project]`` / ``[project.scripts]`` tables — update both together.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={
        "console_scripts": [
            "repro=repro.api.cli:main",
        ]
    },
)
