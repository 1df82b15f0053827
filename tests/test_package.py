"""The package's exported names."""

import types

import fr1tass


def test_all_names_every_public_import_once():
    public = {name for name, value in vars(fr1tass).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(fr1tass.__all__) == sorted(public)
    assert len(fr1tass.__all__) == len(set(fr1tass.__all__)) == 63
