"""The package's public surface."""

import types

import qrelay


def test_all_lists_every_public_name_once_in_order():
    names = qrelay.__all__
    assert len(set(names)) == len(names)
    assert list(names) == sorted(names)
    for name in names:
        getattr(qrelay, name)
    public = {name for name, value in vars(qrelay).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(names)
