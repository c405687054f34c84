"""Checks on the library source itself."""

import ast
from pathlib import Path

import lllcolor


def test_every_lazy_export_resolves():
    # names load on first use, so a stale entry would otherwise fail only
    # when a caller first asks for it
    for name in lllcolor.__all__:
        assert getattr(lllcolor, name) is not None, name


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


def test_verifier_shares_no_code_with_the_detector():
    # verify_acyclic gates CI, so it must not reach the alternating-walk
    # detector or the coloring state it checks, directly or through
    # module-level helpers of the coloring module
    from lllcolor import coloring

    tree = ast.parse(Path(coloring.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    detector = {
        "_cycles_through_edge", "_second_colors", "all_bichromatic_cycles", "find_bichromatic_cycle", "CycleIndex",
        "ColorState",
    }
    reached, todo = set(), ["verify_acyclic"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(defs[name]):
            ref = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if ref in defs:
                todo.append(ref)
    assert not reached & detector, sorted(reached & detector)
    assert {"_witness", "Cycle"} <= reached  # the walk does follow helpers


def test_series_share_no_code_with_their_oracles():
    # the closed form and the fixed-point iteration check the two online
    # series, so neither series may reach them, or the naive convolutions
    # the fixed point is built from, through module-level names of the
    # series modules or of the helper module they share
    from lllcolor import bounds, gamma, series

    defs = {}
    for module in (bounds, gamma, series):
        tree = ast.parse(Path(module.__file__).read_text())
        defs.update({node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))})
    oracles = {"_mul_trunc", "_series_inverse", "series_fixed_point", "q_closed_form"}
    reached, todo = set(), ["q_series", "q_coloring_series"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(defs[name]):
            ref = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if ref in defs:
                todo.append(ref)
    assert not reached & oracles, sorted(reached & oracles)
    assert {"power_step", "PhiParams"} <= reached  # the walk does follow helpers


def test_every_function_is_named_somewhere():
    # a module-level function or method of the library that no library
    # module, test or benchmark names is API nothing reads; the export
    # table of __init__ does not count as a reader, attribute strings
    # elsewhere do (the benchmark wraps methods by name)
    package = Path(lllcolor.__file__).parent
    repo = Path(__file__).resolve().parents[1]
    defined = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    defined.setdefault(member.name, f"{path.name}:{member.lineno}")
    named = set()
    for path in [*package.glob("*.py"), *(repo / "tests").glob("*.py"), *(repo / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and path != package / "__init__.py":
                named.add(node.value)
    unread = sorted(where for name, where in defined.items() if name not in named)
    assert not unread, unread
