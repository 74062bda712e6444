"""A standing census: every function defined in ``src/powsum`` is called
by a documented use of the program, or is named, with its reason, in
``UNCALLED``.

One subprocess, ``tests/census.py``, runs in process through
``powsum.cli.entrypoint``:

* every command line of the README's ``## CLI`` block, ``selfcheck``
  among them;
* the checks of CI's "Documented exit codes" step that can run in
  process: all but a stdout open for reading only, which reaches what
  ``/dev/full`` does, and the line without an end under a memory limit;

and then the README's ``## Library`` block. It reports the functions of
the package it called, by ``co_qualname``; this test reads the functions
the package defines from the AST. Code that only tests reach, as
``_lane_scan``'s padding once was, shows up here on the change that
makes it.
"""

import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import powsum

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(powsum.__file__).resolve().parent

# Defined but called by no documented use: qualified name -> why, and
# what removes it. The list only shrinks, unless a change says why it adds
# an entry; the test fails on an entry that is called or no longer defined.
UNCALLED = {
    "cascade.Cascade.moment_with_ops": (
        "only bench/traced.py wraps it, by name; ROADMAP item 1 deletes it"
    ),
    "cascade.Cascade._power_error": (
        "raised only for a power above the cascade's, which moment never "
        "asks for; ROADMAP item 12 inlines it into finalize"
    ),
    "coeffs.CoefficientSet.__new__": (
        "the public constructor, for library callers: the program builds "
        "its sets directly in coefficients_closed; kept"
    ),
    "coeffs.CoefficientSet._make": (
        "namedtuple's builder, routed through the checked constructor for "
        "library callers; kept"
    ),
}

SEQ_2048 = "".join(f"{n}\n" for n in range(1, 2049))  # a full chunk of moment's reader

# CI's "Documented exit codes" checks, as [argv, stdin, stdout] and the
# exit code: None is a closed stdin; stdout is "text", "full" (/dev/full)
# or "closed"
EXIT_CODE_CHECKS = [
    (["coeffs", "-K", "2", "-N", "3"], "", "closed", 141),
    (["coeffs", "-K", "2", "-N", "3"], "", "full", 141),
    (["moment", "-K", "1"], None, "text", 2),
    (["moment", *(f"-K{K}" for K in range(1981, 2001))], "", "text", 2),
    (["moment", "-K", "1"], SEQ_2048 + "x\n", "text", 2),
    (["moment", "-K", "1"], "\n# c\n" + SEQ_2048 + "x\n", "text", 2),
    (["moment", "-K", "1", "--expect-n", "2"], "1\n" * 10, "text", 2),
    (["complexity", "--Ks", "64", "--Ns", "1"], "", "text", 0),
    (["complexity", "--Ks", "65"], "", "text", 2),
    (["selfcheck", "--seed", "-1"], "", "text", 2),
]


def _readme_block(heading, language):
    """The lines of the first ``language`` code block under ``heading``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0].splitlines()


def _readme_cli_runs():
    """Each command line of the README's CLI block as [argv, stdin,
    stdout] and the exit code 0: ``powsum ARGS`` or ``printf 'TEXT' |
    powsum ARGS``, TEXT's only escape being ``\\n``."""
    runs = []
    for line in _readme_block("## CLI", "sh"):
        if not line.strip() or line.startswith("#"):
            continue
        words = shlex.split(line)
        text = ""
        if words[0] == "printf":
            assert words[2] == "|" and "%" not in words[1], line
            text = words[1].replace("\\n", "\n")
            assert "\\" not in text, line
            words = words[3:]
        assert words[0] == "powsum" and "|" not in words, f"not runnable in process: {line}"
        runs.append((words[1:], text, "text", 0))
    return runs


def _defined_functions():
    """``module.qualname`` of every function the package defines, as its
    code object's ``co_qualname`` names it."""
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return names


def test_every_function_is_called_by_a_documented_use():
    runs = _readme_cli_runs()
    assert (["selfcheck", "--seed", "0"], "", "text", 0) in runs
    runs += EXIT_CODE_CHECKS
    request = {
        "runs": [run[:3] for run in runs],
        "library": "\n".join(_readme_block("## Library", "python")),
    }
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "census.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    # each run did what it documents, so the census counts what it says
    assert report["codes"] == [run[3] for run in runs]
    # a new name here is code that no documented use runs: run it from one,
    # delete it, or list it in UNCALLED with its reason
    uncalled = _defined_functions() - set(report["called"])
    assert uncalled == set(UNCALLED)
