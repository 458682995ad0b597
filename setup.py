# Shim for tools that still look for setup.py (old pips' editable
# installs); every field, dependencies included, lives in pyproject.toml.
from setuptools import setup

setup()
