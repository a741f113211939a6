"""README drift: every module-qualified name it cites exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import sstgnn

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(sstgnn.__path__)}
# `graphs.dump_edges` or `sstgnn.graphs.dump_edges(...)`: a code span that
# opens on a module of the package and one attribute of it
REFERENCE = re.compile(r"`(?:sstgnn\.)?([a-z_]+)\.([A-Za-z_]\w*)")


def readme_references():
    return [(module, name) for module, name in REFERENCE.findall(README.read_text())
            if module in MODULES]


def test_readme_references_resolve():
    references = readme_references()
    assert len(references) >= 20, "the README should cite the modules it describes"
    missing = sorted({f"{module}.{name}" for module, name in references
                      if not hasattr(importlib.import_module(f"sstgnn.{module}"), name)})
    assert missing == [], f"README.md names attributes the package lacks: {missing}"
