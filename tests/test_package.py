import ast
import inspect
import types

import corbf


def test_all_lists_every_public_name_once():
    # __all__ is built from imports: no entry twice, every entry importable, and
    # no public name of the package left out (submodules aside)
    assert len(set(corbf.__all__)) == len(corbf.__all__)
    for name in corbf.__all__:
        assert hasattr(corbf, name), name
    public = {name for name, value in vars(corbf).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(corbf.__all__), sorted(public - set(corbf.__all__))


def test_all_holds_only_corbf_objects():
    # __all__ takes every public name __init__.py binds, so a name imported
    # there from outside corbf (from __future__ import annotations, or a
    # stdlib helper such as types.ModuleType) would be exported too: each
    # must come from a relative import, and a class or function must be
    # defined in corbf
    tree = ast.parse(inspect.getsource(corbf))
    relative = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    for name in set(corbf.__all__) - {"reference", "__version__"}:
        value = getattr(corbf, name)
        assert name in relative, name
        if inspect.isclass(value) or inspect.isroutine(value):
            assert value.__module__.startswith("corbf."), (name, value.__module__)
