"""Checks on the library source itself."""

import ast
from pathlib import Path

import lllcolor


def test_library_raises_contract_errors_not_asserts():
    # ``python -O`` strips assert statements, so the bound checks of the
    # library raise ContractError instead
    offenders = []
    for path in sorted(Path(lllcolor.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders
