"""Legacy setup shim.

All metadata lives in pyproject.toml.  Builds without the ``wheel``
package cannot make PEP 660 editable installs (``bdist_wheel``); this
shim keeps ``python setup.py develop`` and ``python setup.py egg_info``
working there.
"""

from setuptools import setup

setup()
