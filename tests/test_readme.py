"""The python code blocks of README.md run as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_readme_python_blocks_run():
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % i, "exec"), {})
