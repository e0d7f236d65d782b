"""Packaging for the repro distribution.

This environment ships without the `wheel` package, so `pip install -e .`
(PEP 660) cannot build editable wheels offline; `python setup.py develop`
provides the equivalent editable install (after which `import repro`
works without PYTHONPATH=src).
"""

from setuptools import find_packages, setup

setup(
    name="repro-winograd-aware",
    version="1.0.0",
    description=(
        "Reproduction of 'Searching for Winograd-aware Quantized Networks' "
        "(Fernandez-Marques et al., MLSys 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "experiments": ["scipy"],
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
