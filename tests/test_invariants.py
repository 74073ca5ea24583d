"""Checks that results depend on are explicit exceptions, not `assert`
statements, which `python -O` strips; the CLI decides "bad input, exit 2"
in one place; each input contract has one owner; every top-level
function and class is reached; and the brute-force references of the
tests stand apart from `conclab`."""

import ast
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import conclab
from conclab import extremal
from conclab.dist import delta, uniform
from conclab.extremal import AlphaSeq, tsebal

SRC = Path(conclab.__file__).resolve().parent
REFERENCES = (SRC.parents[1] / "bench" / "reference.py", Path(__file__).resolve().parent / "brute.py")


def test_no_assert_statements_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {ast.unparse(t) for t in types if t is not None}


def test_cli_turns_bad_input_into_exit_2_only_in_run_and_load():
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def value_error_handlers(root):
        return {
            node.lineno
            for node in ast.walk(root)
            if isinstance(node, ast.ExceptHandler) and "ValueError" in _handler_names(node)
        }

    allowed = value_error_handlers(functions["_load"]) | value_error_handlers(functions["run"])
    assert value_error_handlers(tree) == allowed
    assert not any(isinstance(node, ast.ClassDef) and node.name == "CliError" for node in ast.walk(tree))
    run = functions["run"]
    caught = set().union(*(_handler_names(node) for node in ast.walk(run) if isinstance(node, ast.ExceptHandler)))
    assert "ValueError" in caught
    assert not caught & {"Exception", "BaseException", "TypeError", "KeyError"}
    assert all(node.type is not None for node in ast.walk(run) if isinstance(node, ast.ExceptHandler))


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in sorted(SRC.glob("*.py"))]


def test_operator_index_is_called_only_in_int_site():
    """Integers are coerced by dist.int_site, which also rejects booleans."""
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "operator.index":
                found.append((name, node.lineno))
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                found.extend((name, node.lineno) for alias in node.names if alias.name == "index")
    dist_tree = dict(_trees())["dist.py"]
    int_site = next(node for node in dist_tree.body if isinstance(node, ast.FunctionDef) and node.name == "int_site")
    assert found and all(
        name == "dist.py" and int_site.lineno <= line <= int_site.end_lineno for name, line in found
    ), found


def test_cli_parses_no_rationals_of_its_own():
    """Rational flags reach the library as text, which dist.as_fraction parses."""
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    }
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "Fraction" not in imported and "fractions" not in imported | modules


def _modules(node) -> set[str]:
    """The modules an import statement imports, relative ones with their dots."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if node.module is None:  # from . import a, b
        return {"." * node.level + alias.name for alias in node.names}
    return {"." * node.level + node.module}


def test_no_function_imports_a_module_its_file_imports_at_the_top():
    found = set()
    for name, tree in _trees():
        top = set().union(*(_modules(node) for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and _modules(node) & top:
                        found.add(f"{name}:{node.lineno}")
    assert sorted(found) == []


def _mentions(node):
    """The name a node mentions: a name's id, an attribute's name or a
    string constant; None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def test_every_top_level_function_and_class_is_reached():
    """Each is referenced elsewhere in src (by name or as a string, as the
    checker table of `cli` names its checkers), exported by the package, or
    named in backticks in README.md.  The package's module hooks, which the
    interpreter calls, count as reached."""
    trees = dict(_trees())
    exported = set(conclab._EXPORTS)
    hooks = {("__init__.py", "__getattr__"), ("__init__.py", "__dir__")}
    readme = re.sub(r"```.*?```", "", (SRC.parents[1] / "README.md").read_text(), flags=re.S)
    documented = {word for span in re.findall(r"`([^`]+)`", readme) for word in re.findall(r"[A-Za-z_]\w*", span)}
    unreached = []
    for name, tree in trees.items():
        for defn in tree.body:
            if not isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if defn.name in exported or defn.name in documented or (name, defn.name) in hooks:
                continue
            own = {id(node) for node in ast.walk(defn)}
            if not any(
                id(node) not in own and _mentions(node) == defn.name
                for other in trees.values()
                for node in ast.walk(other)
            ):
                unreached.append(f"{name[:-3]}.{defn.name}")
    assert unreached == []


def test_tsebal_raises_when_pairings_disagree(monkeypatch):
    def fake(alphas, flip=False):
        return [uniform([0, 1])] if flip else [delta(0)]

    monkeypatch.setattr(extremal, "balanced_sequence", fake)
    with pytest.raises(RuntimeError):
        tsebal(AlphaSeq([F(1, 2), F(1, 2)]))


def _defined_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_brute_force_references_stand_alone():
    """bench/reference.py and tests/brute.py import only the standard
    library, so no fault of conclab reaches the values the tests expect,
    and brute.py defines none of reference.py's names again."""
    trees = [ast.parse(path.read_text(), str(path)) for path in REFERENCES]
    outside = [
        f"{path.name}:{node.lineno} {module}"
        for path, tree in zip(REFERENCES, trees)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for module in _modules(node)
        if module.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
    assert _defined_names(trees[1]) & _defined_names(trees[0]) == set()
