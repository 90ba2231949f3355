"""The public namespace of the package."""

import mc_lab


def test_every_exported_name_resolves():
    for name in mc_lab.__all__:
        getattr(mc_lab, name)
