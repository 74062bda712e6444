"""Run powsum commands and library code in one process, and report every
function of the package they call.

Reads one JSON object from stdin:

* ``runs``: a list of ``[argv, stdin, stdout]``. Each run calls
  ``powsum.cli.entrypoint`` with ``argv`` as the arguments after
  ``powsum``. ``stdin`` is the input text, or null for a closed stdin.
  ``stdout`` is ``"text"`` for output taken in memory, ``"full"`` for
  ``/dev/full`` or ``"closed"`` for a closed stdout.
* ``library``: Python source, run after the commands.

Writes one JSON object to stdout: ``codes``, each run's exit code, and
``called``, the sorted ``module.qualname`` (the code object's
``co_qualname``, Python 3.11+) of every function of ``powsum`` that was
called. ``sys.setprofile`` sees every Python-level call. The file's name
does not match ``test_*.py``, so pytest does not collect it;
``tests/test_census.py`` runs it.
"""

import io
import json
import sys
from pathlib import Path

import powsum
from powsum import cli


# what each run's stdout is
OUTPUTS = {
    "text": io.StringIO,
    "full": lambda: open("/dev/full", "w", encoding="utf-8"),
    "closed": lambda: None,
}


def main() -> None:
    request = json.load(sys.stdin)
    stdout, stderr = sys.stdout, sys.stderr
    codes = []
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv, text, output in request["runs"]:
            sys.argv = ["powsum", *argv]
            sys.stdin = None if text is None else io.StringIO(text)
            sys.stdout = OUTPUTS[output]()
            sys.stderr = io.StringIO()
            try:
                cli.entrypoint()
            except SystemExit as exc:
                codes.append(exc.code)
            sys.stdout.close()  # entrypoint opens one for a closed stdout
            sys.stdout, sys.stderr = stdout, stderr
        exec(request["library"], {"__name__": "__census__"})
    finally:
        sys.setprofile(None)
        sys.stdout, sys.stderr = stdout, stderr

    package = Path(powsum.__file__).parent
    called = sorted(
        f"{Path(code.co_filename).stem}.{code.co_qualname}"
        for code in seen
        if Path(code.co_filename).parent == package
    )
    json.dump({"codes": codes, "called": called}, sys.stdout)


if __name__ == "__main__":
    main()
