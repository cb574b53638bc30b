import ast
from pathlib import Path

import stfe2d

SRC = Path(stfe2d.__file__).parent


def test_no_np_roll_outside_the_oracle():
    # the stencils shift by slices (fem.shift); np.roll is kept for the
    # dense reference path alone
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "roll"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")):
                calls.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) > 1
    assert calls == []
