"""The package's exported names and its module layers."""

import pathlib
import re
import types

import fr1tass


def test_all_names_every_public_import_once():
    public = {name for name, value in vars(fr1tass).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(fr1tass.__all__) == sorted(public)
    assert len(fr1tass.__all__) == len(set(fr1tass.__all__)) == 58


# each module may import only from modules in an earlier layer
LAYERS = [("exceptions",), ("model",), ("simulate",),
          ("transform", "gallery", "pcp"), ("oracle",), ("cli",)]


def test_imports_only_point_down_the_layers():
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    source = pathlib.Path(fr1tass.__file__).parent
    found = {}
    for path in sorted(source.glob("*.py")):
        if path.stem == "__init__":
            continue
        text = path.read_text(encoding="utf-8")
        found[path.stem] = set(re.findall(r"^from \.(\w+) import", text, re.M))
        found[path.stem] |= {name for group in re.findall(
            r"^from \. import (.+)$", text, re.M)
            for name in re.split(r",\s*", group)}
    assert set(found) == set(layer)
    for module, imported in found.items():
        for target in imported:
            assert layer[target] < layer[module], (module, target)
    assert not found["oracle"] & {"gallery", "pcp"}
