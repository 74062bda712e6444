import ast
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
