"""Every fenced `python` block of README.md runs as written.

Each block runs in a fresh namespace.  A line `name = ...  # ... here v`
states the value of `name` after the block, and its `str` must be `v`,
so a signature or result that changes cannot leave the README stale.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
STATED = re.compile(r"^(\w+) = .*#.*\bhere (\S+)$", re.M)


def test_every_python_block_of_the_readme_runs():
    blocks = BLOCK.findall(README.read_text())
    assert blocks
    checked = []
    for code in blocks:
        namespace = {}
        exec(compile(code, str(README), "exec"), namespace)
        for name, value in STATED.findall(code):
            assert str(namespace[name]) == value, (name, value)
            checked.append((name, value))
    # the library example's global dimension, `# exact scalar, here 3`
    assert ("dim", "3") in checked
