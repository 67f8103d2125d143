"""The README's examples, run as written and compared with their comments."""

import re
import shlex
from pathlib import Path

import pytest

from maxmintrees import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> list[str]:
    """The lines of the first ``lang`` code block under a README heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0].splitlines()


TOUR = _block("Library quick tour", "python")
# each commented line of the tour: (expression, expected repr and remark)
TOUR_CASES = [
    tuple(part.strip() for part in line.split("#", 1)) for line in TOUR if "#" in line
]
# each CLI example that states its output: (argv, first line of stdout)
CLI_CASES = [
    (shlex.split(m[1])[1:], m[2])
    for m in map(re.compile(r"(maxmintrees .*?)\s+# -> (.*)").fullmatch,
                 _block("Command line", "sh"))
    if m
]


def test_the_readme_has_examples_to_check():
    assert len(TOUR_CASES) >= 7 and len(CLI_CASES) >= 2


@pytest.mark.parametrize("expr, comment", TOUR_CASES, ids=[e for e, _ in TOUR_CASES])
def test_library_tour_line(expr, comment):
    namespace: dict = {}
    exec("\n".join(line for line in TOUR if "#" not in line), namespace)  # the imports
    got = repr(eval(expr, namespace))
    assert comment == got or comment.startswith(got + " "), (expr, got, comment)


@pytest.mark.parametrize("argv, first_line", CLI_CASES, ids=[" ".join(a) for a, _ in CLI_CASES])
def test_cli_example(capsys, argv, first_line):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == first_line
