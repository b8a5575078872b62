"""The package's own namespace: each name is imported from its submodule."""

import types

import hmfp


def test_package_exposes_only_submodules_and_version():
    public = [name for name, value in vars(hmfp).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert public == []
    assert isinstance(hmfp.__version__, str)
