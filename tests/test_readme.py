"""README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first python code block under a ``## heading`` of README."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under ## {heading}"
    return match.group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(python_block("Library"), "README.md", "exec"), namespace)
    policy = namespace["policy"]
    assert policy.step == 1000
    assert policy.s_vectors.shape == (32, 3)
