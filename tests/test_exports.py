"""The public surface: each module's ``__all__``, re-exported by the package."""

import importlib

import qdata

MODULES = ("rng", "linalg", "states", "channels", "boxes", "tomography", "detectors", "scenario", "harness")


def test_package_exports_exactly_the_module_lists():
    expected = ["__version__"]
    for name in MODULES:
        expected += importlib.import_module(f"qdata.{name}").__all__
    assert qdata.__all__ == expected
    assert len(set(qdata.__all__)) == len(qdata.__all__)


def test_every_exported_name_resolves_to_its_module_object():
    assert isinstance(qdata.__version__, str)
    for name in MODULES:
        module = importlib.import_module(f"qdata.{name}")
        for attr in module.__all__:
            assert getattr(qdata, attr) is getattr(module, attr), f"qdata.{attr}"


def test_module_lists_name_only_existing_attributes():
    for name in MODULES + ("cli",):
        module = importlib.import_module(f"qdata.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"qdata.{name}.__all__ names missing {missing}"
