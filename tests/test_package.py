import ast
import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import cakecut

# The package's public names and the submodule that defines each one.
EXPORTED = {
    "cake": ["Allocation", "InfeasibleCutError", "Interval", "Piece",
             "PiecewiseConstantValuation", "Profile", "frac", "ival", "normalized",
             "validate_allocation"],
    "chains": ["ChainError", "ChainParameters", "InfeasibleParameters",
               "ViolationWitness", "discussion_example",
               "ep_worstcase_fixture", "prop1_chain", "thm1_chain", "thm2_chain"],
    "mechanisms": ["MECHANISMS", "Mechanism", "equal_split_nonwasteful", "even_paz",
                   "get_mechanism", "modified_even_paz", "with_zero_piece_exchange"],
    "properties": ["GainCertificate", "PropertyCertificate", "PropertyReport", "SearchConfig",
                   "best_response_gain", "check_properties",
                   "ep_cutpoint_best_response", "evaluate_misreport", "report_for"],
    "queries": ["LearnedValuation", "LiftedMechanism", "RWOracle",
                "approximate_valuation", "lift_direct_to_rw", "query_budget"],
}
ALL = sorted(name for names in EXPORTED.values() for name in names)


def _loaded_in_child(code: str) -> list:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cakecut.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (f"import json, sys\n{code}\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cakecut'))))")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=env)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_import_loads_no_submodule():
    assert _loaded_in_child("import cakecut") == ["cakecut"]


def test_first_use_loads_only_the_defining_module():
    assert _loaded_in_child("import cakecut; cakecut.Piece") == [
        "cakecut", "cakecut.cake"]
    assert _loaded_in_child("import cakecut; cakecut.report_for") == [
        "cakecut", "cakecut.cake", "cakecut.mechanisms", "cakecut.properties"]


def test_submodules_resolve_after_bare_import():
    assert _loaded_in_child("import cakecut; cakecut.chains.CHAINS") == [
        "cakecut", "cakecut.cake", "cakecut.chains", "cakecut.mechanisms",
        "cakecut.properties"]


def test_all_lists_the_exports():
    assert cakecut.__all__ == ALL


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exports_are_the_defining_objects(module):
    defining = import_module(f"cakecut.{module}")
    for name in EXPORTED[module]:
        assert getattr(cakecut, name) is getattr(defining, name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from cakecut import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ALL
    for name in ALL:
        assert namespace[name] is getattr(cakecut, name)


def test_dir_lists_every_export():
    assert set(ALL) <= set(dir(cakecut))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cakecut.no_such_name
    assert not hasattr(cakecut, "no_such_name")


# The modules that decide: no float may enter them.  cli is left out, because
# its timing is a float by design.
EXACT_MODULES = ("cake", "mechanisms", "properties", "chains", "queries", "sampling", "io")
INTEGER_MATH = {"gcd", "lcm", "comb", "floor", "ceil", "isqrt"}


def _inexact(node):
    """What makes an AST node a way for a float to enter, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return f"literal {node.value!r}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return "float(...)"
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr not in INTEGER_MATH):
        return f"math.{node.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        names = [alias.name for alias in node.names if alias.name not in INTEGER_MATH]
        return f"from math import {', '.join(names)}" if names else None
    return None


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_no_float_enters_the_exact_modules(module):
    path = os.path.join(os.path.dirname(cakecut.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = [f"line {node.lineno}: {what}" for node in ast.walk(tree)
             if (what := _inexact(node)) is not None]
    assert found == []
