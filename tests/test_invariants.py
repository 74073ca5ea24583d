"""Checks that results depend on are explicit exceptions, not `assert`
statements, which `python -O` strips; and the CLI decides "bad input, exit 2"
in one place."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import conclab
from conclab import extremal
from conclab.dist import delta, uniform
from conclab.extremal import AlphaSeq, tsebal

SRC = Path(conclab.__file__).resolve().parent


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


def test_tsebal_raises_when_pairings_disagree(monkeypatch):
    def fake(alphas, flip=False):
        return [uniform([0, 1])] if flip else [delta(0)]

    monkeypatch.setattr(extremal, "balanced_sequence", fake)
    with pytest.raises(RuntimeError):
        tsebal(AlphaSeq([F(1, 2), F(1, 2)]))
