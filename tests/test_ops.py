import ast
import copy
import dataclasses
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import powsum
from powsum import cascade as cascade_module
from powsum import cli
from powsum.cascade import push_stream
from powsum.costmodel import Counted, OpCount, optimal_chain
from powsum.oracle import direct_sum


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


PACKAGE = Path(powsum.__file__).parent


def _package_imports(module):
    """The dotted names of the powsum modules that powsum.<module> imports
    (``powsum`` itself for the package); a relative import is one of them."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(f"powsum.{node.module}")
            else:
                names.update(f"powsum.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return {name for name in names if name.split(".")[0] == "powsum"}


def test_oracle_imports_nothing_from_the_package():
    # the ground truth shares no code with what it checks
    assert _package_imports("oracle") == set()


def test_costmodel_imports_neither_cascade_nor_oracle():
    # the cascade imports the cost model, and the cost model stays apart
    # from the ground truth
    assert not _package_imports("costmodel") & {"powsum.cascade", "powsum.oracle"}


def _absolute_imports(tree):
    """The modules a parsed source file imports by absolute name."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    return imported


def test_costmodel_holds_only_the_model():
    # output formats live in powsum.cli, the CSV writer beside the JSON one
    tree = ast.parse((PACKAGE / "costmodel.py").read_text(encoding="utf-8"))
    assert "csv" not in _absolute_imports(tree)
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "write_csv" not in defined


def test_coeffs_holds_no_output_format():
    # the coefficient polynomials are plain tuples; table's text for them
    # lives in powsum.cli beside the other output formats
    tree = ast.parse((PACKAGE / "coeffs.py").read_text(encoding="utf-8"))
    assert not _absolute_imports(tree) & {"dataclasses", "json"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            assert "__str__" not in methods, node.name


def _defined_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_selfcheck_checks_only_the_pipeline():
    # selfcheck runs what moment computes; the helpers behind textbook
    # identities are test oracles in tests/helpers.py
    assert _package_imports("selfcheck") == {"powsum.cascade", "powsum.coeffs", "powsum.oracle"}
    for path in sorted(PACKAGE.glob("*.py")):
        assert not _defined_functions(path) & {"rising_factorial", "alternating_power_sum"}, path


def test_package_ships_one_coefficient_route():
    # the Stirling route is a test oracle in tests/helpers.py, and
    # exactmath keeps only the binomial alias the benchmark imports
    for path in sorted(PACKAGE.glob("*.py")):
        stirling = {"coefficients_stirling", "stirling2", "stirling_power_sum"}
        assert not _defined_functions(path) & stirling, path
    assert _defined_functions(PACKAGE / "exactmath.py") == set()
    result = subprocess.run(
        [sys.executable, "-c", "import sys, powsum.cli; print('powsum.exactmath' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_package_import_leaves_the_selfcheck_unloaded():
    # the self-check is the CLI's, not the library's: importing powsum does
    # not load it, nor does importing the CLI, which every moment run pays
    # for; it stays importable from its own module
    code = (
        "import sys, powsum; print('powsum.selfcheck' in sys.modules); "
        "import powsum.cli; print('powsum.selfcheck' in sys.modules); "
        "from powsum.selfcheck import run_selfcheck; print(callable(run_selfcheck))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\nFalse\nTrue\n"


def test_batching_rule_lives_in_the_cascade_module():
    # the reader's queue lags the registers, so only the module that owns
    # the queue may fill, drain or name it
    private = {"_queue", "_drain", "_batched"}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cascade.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & private, path.name
    assert not hasattr(powsum.Cascade, "_batched")
    # bench/traced.py and tests/test_acceptance.py reach the reader through cli
    assert cli.push_stream is cascade_module.push_stream


def test_cli_imports_nothing_private_from_the_cascade():
    # the chunk size and the reader's internals are the cascade module's own
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("cascade", "powsum.cascade"):
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, private


def test_ops_module_is_gone():
    # its counting rules live in powsum.costmodel
    assert importlib.util.find_spec("powsum.ops") is None


def test_every_reader_refusal_has_a_handler():
    # moment turns a refusal of its input into one error line and exit 2,
    # never a traceback: each exception class the cascade module defines is
    # named in an except clause of cli._run_moment
    defined = {
        name
        for name, value in vars(cascade_module).items()
        if isinstance(value, type)
        and issubclass(value, Exception)
        and value.__module__ == cascade_module.__name__
    }
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    (run_moment,) = (
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_run_moment"
    )
    handled = {
        node.id
        for handler in ast.walk(run_moment)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for node in ast.walk(handler.type)
        if isinstance(node, ast.Name)
    }
    assert defined, "the cascade module defines no exception class"
    assert defined <= handled, defined - handled


def test_no_import_inside_functions():
    # one exception: the selfcheck command loads its module, so that the CLI
    # import every moment run pays for does not; it breaks no import cycle,
    # as powsum.selfcheck imports nothing from powsum.cli
    deferred = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        deferred.add((path.name, function.name, ast.unparse(node)))
    assert deferred == {("cli.py", "_run_selfcheck", "from .selfcheck import run_selfcheck")}


def test_no_module_imports_typing():
    # annotations name collections.abc and io types: with postponed
    # annotations they are never evaluated, and typing stays out of the
    # CLI's import. Read from the source, not sys.modules, since some
    # interpreters load typing through the standard library itself.
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.partition(".")[0] == "typing" for module in modules):
                importers.add(path.name)
    assert importers == set()


def test_every_public_name_resolves():
    for name in powsum.__all__:
        assert hasattr(powsum, name), name


def test_public_surface():
    assert sorted(powsum.__all__) == [
        "Cascade",
        "CoefficientSet",
        "OpCount",
        "__version__",
        "baseline_sum",
        "coefficient_polynomials",
        "coefficients_closed",
        "complexity_table",
        "direct_sum",
        "measure_cascade",
        "predict_baseline",
        "predict_cascade",
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


def test_op_counts_convert_with_asdict():
    # bench/run.py records predictions with exactly this call
    assert dataclasses.asdict(powsum.predict_cascade(2, 3)) == {
        "general_mults": 0,
        "constant_mults": 3,
        "additions": 8,
    }


def test_ci_tests_the_supported_versions_from_the_oldest():
    # requires-python names the oldest supported version, and both CI jobs
    # run the same versions from it up
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    requires = pyproject["project"]["requires-python"]
    minimum = re.fullmatch(r">=(\d+)\.(\d+)", requires)
    assert minimum, requires
    oldest = tuple(map(int, minimum.groups()))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    matrices = [
        [tuple(map(int, version.split("."))) for version in re.findall(r'"([\d.]+)"', listed)]
        for listed in re.findall(r"python-version: \[(.*)\]", workflow)
    ]
    assert len(matrices) == 2, matrices
    assert matrices[0] == matrices[1]
    assert matrices[0][0] == oldest


# every public entry point that takes a power K, called as (K, N); N is
# ignored by those that take no length
POWER_TAKERS = {
    "Cascade": lambda K, N: powsum.Cascade(K),
    "coefficient_polynomials": lambda K, N: powsum.coefficient_polynomials(K),
    "baseline_sum": lambda K, N: powsum.baseline_sum([3, 1, 4], K),
    "predict_cascade": powsum.predict_cascade,
    "predict_baseline": powsum.predict_baseline,
    "CoefficientSet": lambda K, N: powsum.CoefficientSet(K, N, (9, -7, 2)),
    "coefficients_closed": powsum.coefficients_closed,
    "optimal_chain": lambda K, N: optimal_chain(K),
    "direct_sum": lambda K, N: direct_sum([3, 1, 4], K),
}
LENGTH_TAKERS = ["predict_cascade", "predict_baseline", "CoefficientSet", "coefficients_closed"]


# True == 1 and 2.0 == 2 would pass a range check, and a bool would be kept as K
@pytest.mark.parametrize("K", [True, 2.0, "3"])
@pytest.mark.parametrize("name", POWER_TAKERS)
def test_power_that_is_not_exactly_an_int_is_refused(name, K):
    with pytest.raises(TypeError, match=f"^power K must be an int, got {re.escape(repr(K))}$"):
        POWER_TAKERS[name](K, 3)


@pytest.mark.parametrize("name", POWER_TAKERS)
def test_negative_power_is_refused(name):
    with pytest.raises(ValueError, match="^power K must be non-negative$"):
        POWER_TAKERS[name](-1, 3)


@pytest.mark.parametrize("N", [True, 3.0])
@pytest.mark.parametrize("name", LENGTH_TAKERS)
def test_length_that_is_not_exactly_an_int_is_refused(name, N):
    message = f"^sequence length N must be an int, got {re.escape(repr(N))}$"
    with pytest.raises(TypeError, match=message):
        POWER_TAKERS[name](2, N)


def test_bool_power_misses_the_cached_chain():
    optimal_chain(1)  # cached under the int key 1, which True == 1 would equal
    with pytest.raises(TypeError, match="^power K must be an int, got True$"):
        optimal_chain(True)


def test_cascade_surface():
    cascade = powsum.Cascade(2)
    public = {name for name in dir(cascade) if not name.startswith("_")}
    assert public == {
        "K",
        "registers",
        "samples_seen",
        "push",
        "finalize",
        "moment_with_ops",
    }
    # plain data: no read runs code to produce the cascade's state
    assert {"registers", "samples_seen"} <= set(vars(cascade))
    for name in ("registers", "samples_seen"):
        assert not isinstance(getattr(powsum.Cascade, name, None), property), name


def test_reads_never_write():
    # finalize and moment_with_ops leave the cascade as they found it, both
    # before moment's reader has streamed into it and after; the registers
    # are read as a plain attribute, which runs no code (test_cascade_surface)
    cascade = powsum.Cascade(3)
    cascade.push(5)
    for lines in ([], ["4\n", "# note\n", "-2\n", "9\n"]):
        push_stream(cascade, lines, int)
        before = copy.deepcopy(vars(cascade))
        cascade.finalize(powsum.coefficients_closed(3, cascade.samples_seen))
        cascade.moment_with_ops(3)
        assert vars(cascade) == before
