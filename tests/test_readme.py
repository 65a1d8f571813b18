"""The README names public functions; every name it lists must still be
exported, so a rename cannot leave the documentation behind."""

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
