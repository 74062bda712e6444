import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import powsum
from powsum.ops import Counted, OpCount


class TestCounted:
    def test_counted_plus_counted_is_an_addition(self):
        ops = OpCount()
        total = Counted(3, ops) + Counted(4, ops)
        assert total.value == 7
        assert ops == OpCount(additions=1)

    def test_only_an_addition_into_zero_is_free(self):
        ops = OpCount()
        sample = Counted(5, ops)
        assert (0 + sample).value == 5
        assert (sample + 0).value == 5
        assert ops == OpCount()
        assert (2 + sample).value == 7
        assert (Counted(0, ops) + sample).value == 5
        assert ops == OpCount(additions=2)

    def test_in_place_addition_into_zeroed_register(self):
        ops = OpCount()
        register = 0
        register += Counted(9, ops)
        register += Counted(1, ops)
        assert register.value == 10
        assert ops == OpCount(additions=1)

    def test_counted_times_counted_is_a_general_multiplication(self):
        ops = OpCount()
        assert (Counted(6, ops) * Counted(-7, ops)).value == -42
        assert ops == OpCount(general_mults=1)

    def test_int_times_counted_is_a_constant_multiplication(self):
        ops = OpCount()
        assert (3 * Counted(5, ops)).value == 15
        assert (Counted(5, ops) * 3).value == 15
        assert ops == OpCount(constant_mults=2)

    def test_results_share_the_tally(self):
        ops = OpCount()
        a, b = Counted(2, ops), Counted(3, ops)
        product = a * b
        (product + a) * b
        assert ops == OpCount(general_mults=2, additions=1)
        assert int(product) == 6


MODULES = sorted(f"powsum.{m.name}" for m in pkgutil.iter_modules(powsum.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    # a fresh interpreter per module, so an import cycle shows up whichever
    # module of the cycle is imported first
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_no_import_inside_functions():
    for path in sorted(Path(powsum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                        f"{path.name}:{node.lineno}: import inside {function.name}()"
                    )


def test_every_public_name_resolves():
    for name in powsum.__all__:
        assert hasattr(powsum, name), name


def test_public_surface():
    assert sorted(powsum.__all__) == [
        "AdditionChain",
        "Cascade",
        "CoefficientSet",
        "ComplexityReport",
        "IntPolynomial",
        "OpCount",
        "__version__",
        "baseline_sum",
        "chain_power",
        "coefficient_polynomials",
        "coefficients_closed",
        "coefficients_stirling",
        "complexity_table",
        "direct_sum",
        "measure_cascade",
        "optimal_chain",
        "predict_baseline",
        "predict_cascade",
        "run_selfcheck",
    ]


ROOT = Path(__file__).resolve().parent.parent
# code that imports powsum names but that a change to the package does not edit
PINNING_FILES = sorted(ROOT.glob("bench/*.py")) + [ROOT / "tests" / "test_acceptance.py"]


@pytest.mark.parametrize("path", PINNING_FILES, ids=lambda p: p.name)
def test_names_pinned_outside_the_package_resolve(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "powsum":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
        # powsum.<module>.<name>, as in powsum.cli.push_stream
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "powsum"
        ):
            module = importlib.import_module(f"powsum.{node.value.attr}")
            assert hasattr(module, node.attr), f"{path.name}: {module.__name__}.{node.attr}"


def test_cascade_methods_the_tracer_wraps_exist():
    # bench/traced.py wraps these by name
    for method in ("push", "finalize", "moment_with_ops"):
        assert callable(getattr(powsum.Cascade, method, None)), method
