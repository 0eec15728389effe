"""The README's Python examples run as written.

Its ```python blocks build on one another (the third reads the first's
``states``), so they run in order in one namespace; a type, field or
function they use that is renamed or removed fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
