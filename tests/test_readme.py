"""The README's examples run: the library example prints what its comments say, every
command line example parses, and its tolerance table is the one in ``tensorops``."""

import re
import shlex
from pathlib import Path

from slocceq import tensorops
from slocceq.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    return re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)


def test_library_example_prints_its_comments(capsys):
    code = library_example()
    expected = []
    for line in code.splitlines():
        if line.startswith("print("):
            assert "  # " in line, f"print without an expected-output comment: {line}"
            expected.append(line.split("  # ", 1)[1].strip())
    assert expected
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_command_line_examples_parse(capsys):
    blocks = re.findall(r"```sh\n(.*?)```", section("Command line"), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("slocceq ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            raise AssertionError(f"README example does not parse: {line}\n{capsys.readouterr().err}")


def table_lines(text: str) -> list:
    """The lines of a threshold table, with ``code`` marks read as single backticks."""
    return [line.replace("``", "`") for line in text.splitlines() if line.startswith("|")]


def test_tolerance_table_is_the_tensorops_table():
    text = section("Tolerances")
    rows = [(name, float(value)) for name, value in re.findall(r"^\| `(\w+)` \| ([^|]+) \|", text, re.M)]
    assert rows == [
        (name, value)
        for name, value in vars(tensorops).items()
        if name.isupper() and isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    assert table_lines(text) == table_lines(tensorops.__doc__)
