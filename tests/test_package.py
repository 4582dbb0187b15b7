import types

import corbf


def test_all_lists_every_public_name_once():
    # __all__ is kept by hand: no entry twice, every entry importable, and
    # no public name of the package left out (submodules aside)
    assert len(set(corbf.__all__)) == len(corbf.__all__)
    for name in corbf.__all__:
        assert hasattr(corbf, name), name
    public = {name for name, value in vars(corbf).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(corbf.__all__), sorted(public - set(corbf.__all__))
