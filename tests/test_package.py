"""The package's public names: every export resolves."""

import cellres


def test_every_exported_name_resolves():
    assert len(cellres.__all__) == len(set(cellres.__all__))
    for name in cellres.__all__:
        assert getattr(cellres, name) is not None, name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from cellres import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(cellres.__all__)
