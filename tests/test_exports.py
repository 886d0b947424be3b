"""The names the package and its kernels module export."""
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
