"""The README's library example runs, and each value that its comments
state is the value the code gives."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    match = re.search(r"^## Library example\n+```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert match is not None
    return match[1]


def test_library_example_states_what_it_computes():
    code = _library_example()
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    stated = 0
    for line in code.splitlines():
        statement, _, comment = line.partition("  #")
        if not comment.strip():
            continue
        node = ast.parse(statement.strip()).body[0]
        # an assignment states its targets, an expression its own value
        shown = node.targets[0] if isinstance(node, ast.Assign) else node.value
        got = eval(ast.unparse(shown), namespace)
        assert got == eval(comment, {"Fraction": Fraction}), line
        stated += 1
    assert stated == 3
