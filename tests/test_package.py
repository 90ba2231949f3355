"""The public namespace of the package."""

from types import ModuleType

import mc_lab


def test_every_exported_name_resolves():
    for name in mc_lab.__all__:
        getattr(mc_lab, name)


def test_exports_hold_the_version_and_no_module():
    assert "__version__" in mc_lab.__all__
    assert len(set(mc_lab.__all__)) == len(mc_lab.__all__)
    modules = [name for name in mc_lab.__all__ if isinstance(getattr(mc_lab, name), ModuleType)]
    assert modules == []
