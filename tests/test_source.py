"""Checks on the library source itself."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import lllcolor

PACKAGE = Path(lllcolor.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def test_library_raises_contract_errors_not_asserts():
    # ``python -O`` strips assert statements, so the bound checks of the
    # library raise ContractError instead
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


@pytest.mark.parametrize(
    "module, cap",
    [
        ("coloring.py", 1725), ("gamma.py", 2885), ("cli.py", 632), ("cmd_common.py", 291),
        ("cmd_gamma.py", 344), ("cmd_color.py", 241), ("cmd_verify.py", 273), ("cmd_sat.py", 187),
        ("cmd_bounds.py", 427), ("cmd_bench.py", 784), ("cmd_dice.py", 252), ("graphs.py", 2505),
        ("engine.py", 1324), ("bounds.py", 1007), ("dimacs.py", 946), ("witness.py", 877), ("verify.py", 769),
        ("jsonout.py", 480), ("driver.py", 460), ("__init__.py", 246), ("series.py", 74),
    ],
)
def test_module_stays_within_its_node_count(module, cap):
    # a process compiles every library module it imports from source when
    # no bytecode cache is written, and the largest of those compiles sets
    # its command's memory peak (the FOUND lines of CHANGES.md on
    # ``peak_rss_mb`` and the compiler): coloring.py for every command that
    # colors, gamma.py for every `gamma` run and every `color` run that
    # picks its own palette, graphs.py for `verify` and `bench`, engine.py
    # for `sat`, and cli.py, cmd_common.py and its own handler module for
    # every command; so every module is capped.  The cost follows the AST's
    # node count, not the file's bytes, since a docstring is one node
    # whatever its length
    nodes = sum(1 for _ in ast.walk(ast.parse((PACKAGE / module).read_text())))
    assert nodes <= cap, nodes


def _reached(defs, roots):
    """The names of ``defs`` (name -> module-level node) that ``roots``
    reach, directly or through one another."""
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(defs[name]):
            ref = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if ref in defs:
                todo.append(ref)
    return reached


def _names(paths):
    """Every name the given files read: names, attributes, imported names
    and whole string constants (the benchmark wraps methods by name)."""
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return named


def _library_functions():
    """Each module-level function and method of the library but the
    dunders, by name, with where it is defined."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    defined.setdefault(member.name, f"{path.name}:{member.lineno}")
    return defined


def test_verifier_shares_no_code_with_the_detector():
    # verify_acyclic gates CI, so it must not reach the alternating-walk
    # detector or the coloring state it checks: the verifier's module
    # imports nothing but the package and graphs, and its walk over the
    # module-level names of verify and graphs reaches no detector name
    from lllcolor import coloring, graphs, verify

    tree = ast.parse(Path(verify.__file__).read_text())
    imported = {
        (node.level, node.module) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    } | {(0, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert imported <= {(0, "__future__"), (1, None), (1, "graphs")}, sorted(imported, key=str)
    defs = {}
    for module in (graphs, verify):
        body = ast.parse(Path(module.__file__).read_text()).body
        defs.update({node.name: node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))})
    detector = {"_color_edges", "_walk", "find_bichromatic_cycle", "CycleIndex", "ColorState"}
    assert detector <= set(vars(coloring))  # the names still exist where the detector lives
    reached = _reached(defs, ["verify_acyclic"])
    assert not reached & detector, sorted(reached & detector)
    assert {"_witness", "cycle_key", "Graph"} <= reached  # the walk does follow helpers, into graphs


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
    reached = _reached(defs, ["q_series", "q_coloring_series"])
    assert not reached & oracles, sorted(reached & oracles)
    assert {"power_step", "PhiParams"} <= reached  # the walk does follow helpers


def test_every_function_is_named_somewhere():
    # a module-level function or method of the library that no library
    # module, test or benchmark names is API nothing reads; attribute
    # strings count as readers (the benchmark wraps methods by name)
    defined = _library_functions()
    named = _names([*PACKAGE.glob("*.py"), *(REPO / "tests").glob("*.py"), *(REPO / "perfbench").glob("*.py")])
    unread = sorted(where for name, where in defined.items() if name not in named)
    assert not unread, unread


def test_library_functions_only_tests_call_are_the_papers_statements():
    # the library holds what the commands, the benchmark and the paper's
    # statements run: a function that only tests name must be one of the
    # paper's statements, which the tests check, or a graph constructor of
    # the README; once a command runs one, it leaves this set
    named = _names([*PACKAGE.glob("*.py"), *(REPO / "perfbench").glob("*.py")])
    defined = _library_functions()
    test_only = {name for name in defined if name not in named}
    papers = {"q_closed_form", "build_witness_forest", "validate", "phi_prime", "cycle_prob_bounds"}
    readme = {"path_graph", "complete_graph", "star_graph", "petersen_graph"}
    assert test_only == papers | readme, sorted(test_only ^ (papers | readme))
    # the witness statements live where `sat` does not compile them
    assert {defined[name].partition(":")[0] for name in ("build_witness_forest", "validate")} == {"witness.py"}


def test_readme_python_blocks_run():
    # the quick start is the library's documented entry point, so each
    # fenced python block of the README must run as written
    readme = (REPO / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


def test_benchmark_wraps_names_that_exist(monkeypatch):
    # perfbench/child.py wraps each (owner, attribute) of its targets()
    # through vars(owner) on traced runs, so a library change that moves or
    # renames one of them breaks those runs; each must resolve to a function
    # defined on that owner (the import writes no bytecode, and the path
    # entry it adds goes when the test ends)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_child", REPO / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    targets = child.targets()
    assert len(targets) >= 20
    for owner, attr, _, _ in targets:
        raw = vars(owner).get(attr)
        assert callable(raw) or isinstance(raw, classmethod), (owner, attr)
