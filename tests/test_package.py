"""The public surface: module ``__all__`` lists and the package exports agree."""

import importlib
import pkgutil
import types

import cographkit


def _modules() -> list[types.ModuleType]:
    return [
        importlib.import_module(f"cographkit.{info.name}")
        for info in pkgutil.iter_modules(cographkit.__path__)
    ]


def test_every_listed_name_exists_and_every_export_is_listed():
    modules = _modules()
    assert {m.__name__ for m in modules} >= {
        "cographkit.cli",
        "cographkit.cotree",
        "cographkit.decomp",
        "cographkit.gadgets",
        "cographkit.graph",
        "cographkit.symbolic",
    }
    listed = set()
    for module in modules:
        names = getattr(module, "__all__", ())
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        listed.update(names)
    exports = {
        name
        for name, value in vars(cographkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exports, "the package exports nothing"
    assert exports <= listed, sorted(exports - listed)
