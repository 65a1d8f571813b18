"""The README names public functions; every name it lists must still be
exported, and its Python examples must still run, so a rename or an API
change cannot leave the documentation behind."""

import re
from pathlib import Path

import ptspectra

README = Path(__file__).resolve().parent.parent / "README.md"


def test_lower_level_pieces_are_exported():
    text = README.read_text()
    start = text.index("Lower-level pieces")
    paragraph = text[start:text.index("\n\n", start)]
    # the name that opens each code span: `name` or `name(args)`
    names = re.findall(r"`([A-Za-z_]\w*)(?=[`(])", paragraph)
    assert names
    assert [n for n in names if n not in ptspectra.__all__] == []


def test_python_examples_run_in_order(capsys):
    # a later block may use the names an earlier one defined
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert namespace["report"].passed  # the quickstart's "# True"
    assert "(-,-,0) -16.0" in capsys.readouterr().out
