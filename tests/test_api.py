"""The supported API: the README's list, `supertrop.__all__` and the
names the benchmark takes from the package agree."""

import ast
import importlib
import re
from pathlib import Path

import supertrop

ROOT = Path(__file__).resolve().parent.parent


def readme_list() -> list[str]:
    """The code spans in the bullets of the README's "Supported API"."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Supported API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, re.M)
    return [span for item in bullets for span in re.findall(r"`([^`]+)`", item)]


def resolve(dotted: str):
    value = supertrop
    for part in dotted.split("."):
        value = getattr(value, part)
    return value


def benchmark_imports() -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """What `perfbench/*.py` takes from supertrop, read from the source.

    Returns the names taken from the package itself (imported from it, or
    read as attributes of the imported package), the members read from
    those names (`Poly.linear`), and the (module, name) pairs imported
    from its submodules.
    """
    names, members, submodules = set(), set(), set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        package, imported = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                package.update(a.asname or a.name for a in node.names
                               if a.name == "supertrop")
            elif isinstance(node, ast.ImportFrom) and node.module == "supertrop":
                for a in node.names:
                    imported[a.asname or a.name] = a.name
                    names.add(a.name)
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("supertrop.")):
                submodules.update((node.module, a.name) for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in package:
                    names.add(node.attr)
                elif node.value.id in imported:
                    members.add(f"{imported[node.value.id]}.{node.attr}")
    return names, members, submodules


def test_all_is_the_readme_list():
    names = [span for span in readme_list() if span.isidentifier()]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(supertrop.__all__)


def test_every_listed_name_resolves():
    listed = [span for span in readme_list()
              if all(part.isidentifier() for part in span.split("."))]
    assert any("." in span for span in listed)
    for name in [*supertrop.__all__, *listed]:
        resolve(name)


def test_the_benchmark_uses_only_the_supported_api():
    names, members, submodules = benchmark_imports()
    assert {"resultant_nu_assignment", "common_roots_sample"} <= names
    assert names <= set(supertrop.__all__), names - set(supertrop.__all__)
    assert "Poly.linear" in members and "Element.parse" in members
    for member in members:
        resolve(member)
    assert ("supertrop.checks", "Gen") in submodules
    for module, name in submodules:
        getattr(importlib.import_module(module), name)
