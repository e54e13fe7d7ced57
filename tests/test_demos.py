"""The README's demo commands run and exit 0."""

import os
import re
import shlex
import subprocess
import sys

import pytest

import fanfree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _demo_commands() -> list[str]:
    """The lines of the first ``sh`` block under the README's "## Demos"."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Demos\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


DEMOS = _demo_commands()


@pytest.mark.parametrize("line", DEMOS)
def test_demo_runs(line):
    # Point the child at the package this suite imported, wherever it runs.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fanfree.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    interpreter, *args = shlex.split(line)
    assert interpreter == "python3", line
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
