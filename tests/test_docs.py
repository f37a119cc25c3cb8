"""The README's library example imports names that exist."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_imports_resolve():
    # the package root re-exports nothing, so these lines are the one
    # statement of which module each public name lives in
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n.*?```python\n(.*?)```", text, re.S)
    imports = [line for line in block.group(1).splitlines()
               if line.startswith("from eened")]
    assert imports
    for line in imports:
        exec(line, {})
