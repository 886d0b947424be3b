"""The names the package and its kernels module export, and what importing
it loads."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evanflow
from evanflow import kernels


@pytest.mark.parametrize("module", [evanflow, kernels], ids=lambda m: m.__name__)
def test_every_exported_name_resolves_and_star_import_binds_it(module):
    # tools that walk __all__ (getattr on each name) break on a stale entry
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), name
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert all(namespace[name] is getattr(module, name) for name in module.__all__)


def test_importing_the_package_and_cli_loads_no_heavy_scipy_subpackage():
    # scipy.integrate alone pulls in scipy.optimize, scipy.sparse and
    # scipy.special (about 23 MB and 0.3 s per process); the library needs
    # only scipy.linalg (about 0.2 s), and only on the first action solve,
    # so a fresh interpreter must not load any of them
    heavy = ["scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse",
             "scipy.special"]
    code = ("import sys, evanflow, evanflow.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    # the child imports the package this test imported, whatever the cwd
    src = str(Path(evanflow.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
