"""README.md stays in step with the code: its python blocks run as written,
and every flag it names is an option of some subcommand."""

import argparse
import os
import re

from stablekneser import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_readme_python_blocks_run():
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % i, "exec"), {})


def test_readme_flags_are_cli_options():
    with open(README) as fh:
        text = fh.read()
    # of the code blocks only the stablekneser examples count: the install
    # block names pip's flags
    text = re.sub(r"^```.*?^```", lambda block: "\n".join(
        line for line in block.group(0).splitlines() if line.startswith("stablekneser ")),
        text, flags=re.S | re.M)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    accepted = {flag for sub in commands.choices.values() for flag in sub._option_string_actions}
    assert named and named <= accepted, sorted(named - accepted)
