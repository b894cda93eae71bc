"""The README's library example prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
