"""The public surface: module ``__all__`` lists and the package exports
agree, and library errors quote a caller's value in bounded form."""

import importlib
import pkgutil
import types

import pytest

import cographkit
from cographkit import (
    PARTITION,
    AxiomViolation,
    Graph,
    NaeFormula,
    SymbolicMap,
    color_graph,
    eval_nae,
    hypercube,
    literal_graph,
    recognize,
)
from cographkit.decomp import search_assignments


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


# an integer past Python's 4,300-digit limit on int-to-text conversion, and a
# string of 100,000 characters
HUGE = 10**5000
LONG = "a" * 100_000
_TREE = recognize(Graph(3, [(0, 1), (1, 2)]))
_MAP = SymbolicMap(3, 2, [0, 1, 0])
_PATH = Graph(3, [(0, 1), (1, 2)])

BOUNDED_QUOTES = {
    "hypercube": lambda: hypercube(-HUGE),
    "leaf_node-int": lambda: _TREE.leaf_node(HUGE),
    "leaf_node-str": lambda: _TREE.leaf_node(LONG),
    "lca": lambda: _TREE.lca(0, HUGE),
    "lca_label": lambda: _TREE.lca_label(HUGE, HUGE),
    "symbolic-map-pair-count": lambda: SymbolicMap(HUGE, 2, []),
    "symbolic-map-symbol-int": lambda: SymbolicMap(2, 2, [HUGE]),
    "symbolic-map-symbol-str": lambda: SymbolicMap(2, 2, [LONG]),
    "symbolic-map-value": lambda: _MAP.value(HUGE, 0),
    "axiom-recheck": lambda: AxiomViolation(LONG).recheck(_MAP),
    "color_graph-int": lambda: color_graph(_MAP, HUGE),
    "color_graph-str": lambda: color_graph(_MAP, LONG),
    "color_graph-alphabet": lambda: color_graph(SymbolicMap(0, HUGE, []), -1),
    "gadget-role": lambda: literal_graph().vertex(LONG),
    "eval_nae": lambda: eval_nae(NaeFormula(HUGE, ()), []),
    "forced-edge": lambda: search_assignments(_PATH, 2, PARTITION, forced={(HUGE, 0): 1}, symmetry=False),
    "forced-mask-range": lambda: search_assignments(_PATH, 2, PARTITION, forced={(0, 1): HUGE}, symmetry=False),
    "forced-mask-classes": lambda: search_assignments(
        _PATH, 20_000, PARTITION, forced={(0, 1): (1 << 20_000) - 1}, symmetry=False),
    "graph-pair": lambda: Graph(3, [(HUGE, 0)]),
    "graph-range": lambda: Graph(HUGE, [(-1, 0)]),
}


@pytest.mark.parametrize("call", BOUNDED_QUOTES.values(), ids=BOUNDED_QUOTES.keys())
def test_library_errors_quote_caller_values_in_bounded_form(call):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert len(message) <= 200 and "..." in message
    assert "Exceeds the limit" not in message
