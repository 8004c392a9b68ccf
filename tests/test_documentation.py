"""Documentation hygiene: every public item carries a docstring.

The deliverable promises doc comments on every public item; this
meta-test enforces it mechanically so the promise cannot rot.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _public_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        modules.append(importlib.import_module(info.name))
    return modules


MODULES = _public_modules()


def _overrides_documented_member(cls, member_name):
    for base in cls.__mro__[1:]:
        inherited = base.__dict__.get(member_name)
        if inherited is not None:
            doc = getattr(inherited, "__doc__", None)
            return bool(doc and doc.strip())
    return False


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its definition site
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(f"{module.__name__}.{name}")
            continue
        if inspect.isclass(obj):
            for member_name, member in vars(obj).items():
                if member_name.startswith("_"):
                    continue
                if not inspect.isfunction(member):
                    continue
                if member.__doc__ and member.__doc__.strip():
                    continue
                if _overrides_documented_member(obj, member_name):
                    continue  # inherits the base class's documentation
                undocumented.append(
                    f"{module.__name__}.{name}.{member_name}"
                )
    assert not undocumented, f"undocumented public items: {undocumented}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    """A deletion that forgets a package's ``__all__`` fails here."""
    missing = [
        f"{module.__name__}.{name}"
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing, f"__all__ names that do not resolve: {missing}"
