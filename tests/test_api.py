"""The package's public surface: ``probleak`` re-exports each module's
``__all__``, so these tests check that rule, not a copy of the names."""

import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import probleak

_ROOT = Path(__file__).resolve().parent.parent
# the modules whose public names the package re-exports, in __all__'s order
_MODULES = ("exceptions", "predictive", "regression", "leakage", "falsification", "calibration", "simulation")


def test_the_package_lists_each_public_name_once():
    assert len(probleak.__all__) == len(set(probleak.__all__))


def test_the_package_lists_the_version_then_each_modules_names():
    modules = [importlib.import_module(f"probleak.{name}") for name in _MODULES]
    assert probleak.__all__ == ["__version__", *(name for module in modules for name in module.__all__)]


@pytest.mark.parametrize("module", _MODULES)
def test_each_public_name_is_its_modules_object(module):
    module = importlib.import_module(f"probleak.{module}")
    for name in module.__all__:
        assert getattr(probleak, name) is getattr(module, name), name


@pytest.mark.parametrize("first", ["probleak.cli", "probleak.falsification", "probleak.leakage"])
def test_the_leakage_name_is_the_function_whichever_module_loads_first(first):
    # the leakage submodule and its leakage function share a name; the
    # package binds the function, however the interpreter first reaches it
    code = (
        f"import sys, {first}; import probleak; "
        "print(probleak.leakage is sys.modules['probleak.leakage'].leakage)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def test_the_version_is_declared_once():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # setuptools marks [tool.setuptools] configuration as beta
        warnings.simplefilter("ignore", UserWarning)
        config = pyprojecttoml.read_configuration(str(_ROOT / "pyproject.toml"), expand=True)
    assert config["project"]["version"] == probleak.__version__
