"""The package's public surface: ``conproj.__all__`` as its imports declare it."""

import types

import conproj


def test_all_names_each_public_import_once():
    names = conproj.__all__
    assert len(names) == len(set(names))
    for name in names:
        value = getattr(conproj, name)
        assert not isinstance(value, types.ModuleType), name
        if name != "__version__":
            assert not name.startswith("_"), name
            assert value.__module__.startswith("conproj."), name
