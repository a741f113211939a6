"""Doc drift: every name README.md and the package's docstrings cite
exists, and every command-line flag README.md names."""

import ast
import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import sstgnn
from test_cli import subcommand_options

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(sstgnn.__path__)}
# `graphs.dump_edges` or `sstgnn.graphs.dump_edges(...)`: a code span that
# opens on a module of the package and one attribute of it
REFERENCE = re.compile(r"`(?:sstgnn\.)?([a-z_]+)\.([A-Za-z_]\w*)")
# `VideoGraph` or `ValueError`: a code span of one capitalised name
CLASS_NAME = re.compile(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)`")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
# flags README.md names of other programs: tests/make_oracle.py and pip
OTHER_FLAGS = {"--compare", "--no-build-isolation"}


def docstrings():
    """The module, class and function docstrings of the package."""
    docs = []
    for module in sorted(MODULES):
        tree = ast.parse(Path(sstgnn.__path__[0], f"{module}.py").read_text())
        docs += [ast.get_docstring(node) or "" for node in ast.walk(tree)
                 if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    return "\n".join(docs)


def references(text):
    return [(module, name) for module, name in REFERENCE.findall(text)
            if module in MODULES]


def missing_references(text):
    return sorted({f"{module}.{name}" for module, name in references(text)
                   if not hasattr(importlib.import_module(f"sstgnn.{module}"), name)})


def missing_class_names(text):
    """The bare capitalised names of ``text`` that are neither a builtin
    nor an attribute of a module of the package."""
    modules = [importlib.import_module(f"sstgnn.{module}") for module in MODULES]
    return sorted({name for name in CLASS_NAME.findall(text) if not hasattr(builtins, name)
                   and not any(hasattr(module, name) for module in modules)})


def missing_flags(text):
    """The flags of ``text`` that no ``sstgnn`` subcommand takes."""
    known = {option for options in subcommand_options().values() for option in options}
    return sorted(set(FLAG.findall(text)) - known - OTHER_FLAGS)


def test_readme_references_resolve():
    text = README.read_text()
    assert len(references(text)) >= 20, "the README should cite the modules it describes"
    missing = missing_references(text)
    assert missing == [], f"README.md names attributes the package lacks: {missing}"


def test_docstring_references_resolve():
    text = docstrings()
    assert len(references(text)) >= 5, "the docstrings should cite the package"
    missing = missing_references(text)
    assert missing == [], f"docstrings name attributes the package lacks: {missing}"


def test_class_names_resolve():
    for source, text in (("README.md", README.read_text()), ("docstrings", docstrings())):
        assert CLASS_NAME.search(text), f"{source} should name the package's classes"
        missing = missing_class_names(text)
        assert missing == [], f"{source} names classes the package lacks: {missing}"


def test_a_deleted_name_is_caught():
    text = "`gat.SignedAdjacency` and `SignedAdjacency`, not `ValueError` or `VideoGraph`"
    assert missing_references(text) == ["gat.SignedAdjacency"]
    assert missing_class_names(text) == ["SignedAdjacency"]


def test_readme_flags_exist():
    text = README.read_text()
    assert len(FLAG.findall(text)) >= 20, "the README should document the CLI flags"
    missing = missing_flags(text)
    assert missing == [], f"README.md names flags no subcommand takes: {missing}"


def test_a_deleted_flag_is_caught():
    assert missing_flags("`--no-temporal-mlp`, not `--no-spectral` or `--dump-embeddings`") \
        == ["--no-temporal-mlp"]
