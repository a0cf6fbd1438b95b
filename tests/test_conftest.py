import os
import shutil
import subprocess
import sys

import fedcef

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_after():
    pass
"""


def test_a_failing_property_test_is_named_and_the_suite_goes_on(tmp_path):
    # the repo's own warning filters and root conftest, on a suite of two
    for name in ("pyproject.toml", "conftest.py"):
        shutil.copy(os.path.join(ROOT, name), tmp_path)
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedcef.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_prop.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_prop.py::test_fails" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
