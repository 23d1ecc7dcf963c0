"""Public-API surface checks: every ``__all__`` name resolves, and every
public item carries a docstring (the documentation contract)."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent


def _all_modules():
    names = ["repro"]
    for mod in pkgutil.walk_packages([str(SRC)], prefix="repro."):
        if "__main__" in mod.name:
            continue
        names.append(mod.name)
    return names


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", _all_modules())
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


# Local closures (e.g. per-op ``backward`` functions) are implementation
# detail even though their names lack underscores; only top-level and
# class-level definitions are held to the docstring contract.
def _public_defs_without_docstrings():
    missing = []
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        scopes = [(tree, None)]
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.ClassDef):
                scopes.append((node, node.name))
        for scope, _name in scopes:
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    if node.name.startswith("_"):
                        continue
                    if not ast.get_docstring(node):
                        missing.append(
                            f"{path.relative_to(SRC.parent)}:{node.lineno} "
                            f"{node.name}"
                        )
    return missing


def test_every_public_item_documented():
    missing = _public_defs_without_docstrings()
    assert not missing, "undocumented public items:\n" + "\n".join(missing)


# ----------------------------------------------------------------------
# Lazy exports: ``repro`` and ``repro.core`` resolve their names on first
# access (PEP 562), and must behave exactly like eager re-exports.
_LAZY_PACKAGES = ["repro", "repro.core"]


def _defining_module(package, name):
    return importlib.import_module(package._EXPORTS[name])


@pytest.mark.parametrize("package_name", _LAZY_PACKAGES)
def test_lazy_exports_are_the_defining_objects(package_name):
    package = importlib.import_module(package_name)
    for name in package.__all__:
        if name == "__version__":
            continue
        assert getattr(package, name) is getattr(
            _defining_module(package, name), name), name


@pytest.mark.parametrize("package_name", _LAZY_PACKAGES)
def test_lazy_exports_listed_by_dir(package_name):
    package = importlib.import_module(package_name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package_name", _LAZY_PACKAGES)
def test_lazy_exports_star_import_binds_every_name(package_name):
    namespace = {}
    exec(f"from {package_name} import *", namespace)
    package = importlib.import_module(package_name)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name), name


@pytest.mark.parametrize("package_name", _LAZY_PACKAGES)
def test_lazy_exports_unknown_name_raises_attribute_error(package_name):
    package = importlib.import_module(package_name)
    assert not hasattr(package, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_rf_cov_pipeline_pickle_round_trip_predicts_the_same():
    import pickle

    import numpy as np

    from repro.models import make_rf_cov

    rng = np.random.default_rng(4)
    X = rng.random((15, 90, 7))
    model = make_rf_cov(n_estimators=4).fit(X, np.arange(15) % 3)
    clone = pickle.loads(pickle.dumps(model))
    assert np.array_equal(clone.predict(X), model.predict(X))
    assert np.array_equal(clone.predict_proba(X), model.predict_proba(X))
