"""The package namespace: every public name resolves lazily to the object
its defining module binds."""

import importlib
import subprocess
import sys

import pytest

import landen


def test_every_public_name_resolves_to_its_definition():
    for name in landen.__all__:
        if name == "__version__":
            continue
        value = getattr(landen, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("landen.")
        assert getattr(home, name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from landen import *", namespace)
    for name in landen.__all__:
        assert namespace[name] is getattr(landen, name)


def test_reexports_are_the_same_objects():
    from landen import general, nome
    for name in ("Family", "LandenSpec", "LandenCoefficients",
                 "AlternatingSumDegenerateError", "coefficients"):
        assert getattr(general, name) is getattr(nome, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(landen, "no_such_name")
    assert not hasattr(landen, "_landen_kernel")


def test_import_loads_no_module_of_the_package():
    probe = ("import sys\nimport landen\n"
             "print(sorted(m for m in sys.modules if m.startswith('landen.')))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
