from setuptools import setup

# Kept so that `python setup.py build_ext --inplace` still works; it builds nothing.
setup()
