"""The package's export list."""

import giots


def test_every_name_the_package_exports_imports_from_it():
    namespace = {}
    exec("from giots import *", namespace)  # AttributeError for a listed name that is gone
    assert set(giots.__all__) <= namespace.keys()
    assert len(giots.__all__) == len(set(giots.__all__))
    assert "DERIVED_PER_BASE_FACT" in giots.__all__
