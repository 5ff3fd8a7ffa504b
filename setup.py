"""Legacy setup shim.

The reproduction environment is offline and lacks the ``wheel`` package, so
PEP-660 editable installs (which build a wheel) fail. This shim lets
``pip install -e .`` take the legacy ``setup.py develop`` path. All real
metadata lives in pyproject.toml; the version comes from
``repro.__version__``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    entry_points={"console_scripts": ["repro-aem=repro.cli:main"]},
)
