"""The README's examples run against the current package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    # the block imports public names; a removed or renamed one fails here
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under 'Library use'"
    exec(compile(block.group(1), f"{README}:Library use", "exec"), {})
