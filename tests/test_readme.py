"""The README's examples run as written."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python_block(heading: str) -> str:
    """The first fenced python block under the README's `## <heading>`."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_surface_example_runs():
    """A renamed or removed public name fails here, not only for a reader."""
    namespace: dict = {}
    exec(compile(_python_block("Library surface"), "README.md", "exec"), namespace)
    result = namespace["result"]
    assert len(result.series.rows) == namespace["hp"].T + 1
