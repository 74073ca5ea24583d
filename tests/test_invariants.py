"""Checks that results depend on are explicit exceptions, not `assert`
statements, which `python -O` strips."""

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


def test_tsebal_raises_when_pairings_disagree(monkeypatch):
    def fake(alphas, flip=False):
        return [uniform([0, 1])] if flip else [delta(0)]

    monkeypatch.setattr(extremal, "balanced_sequence", fake)
    with pytest.raises(RuntimeError):
        tsebal(AlphaSeq([F(1, 2), F(1, 2)]))
