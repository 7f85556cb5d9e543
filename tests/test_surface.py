"""Names that other files depend on: the benchmark tracer's layers and the
README's entry points and example."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import majgeom

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def tracer_layers():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, name) for layer, names in tracer.LAYERS.items() for name in names]


@pytest.mark.parametrize("layer, name", tracer_layers())
def test_tracer_layer_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"majgeom.{layer}"), name))


def readme_entry_points():
    table = README.split("Key entry points:", 1)[1].split("\n\n", 2)[1]
    names = []
    for row in table.splitlines()[2:]:
        for cell in re.findall(r"`([^`]+)`", row.split("|")[2]):
            stem = re.fullmatch(r"(\w*)\{([\w,]+)\}(\w*)", cell)
            if stem is None:
                names.append(cell)
            else:
                names += [stem[1] + part + stem[3] for part in stem[2].split(",")]
    return names


def test_readme_lists_entry_points():
    assert len(readme_entry_points()) >= 30


@pytest.mark.parametrize("name", readme_entry_points())
def test_readme_entry_point_exported(name):
    assert callable(getattr(majgeom, name))


def test_readme_python_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
