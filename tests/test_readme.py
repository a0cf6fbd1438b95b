"""The README's examples run as written."""

import importlib
import os
import pkgutil
import re
import shlex
import shutil
import subprocess
import sys

import fedcef
from fedcef import compressors, harness
from fedcef.problems import DIRICHLET, IID

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fenced_block(heading: str, lang: str) -> str:
    """The first fenced `lang` block under the README's `## <heading>`."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def test_every_module_name_the_readme_names_resolves():
    """A backticked `module.name` naming a fedcef module (`core.client_sum`,
    not a config key such as `hyper.K`) is a name that module defines."""
    modules = {m.name for m in pkgutil.iter_modules(fedcef.__path__)}
    with open(os.path.join(ROOT, "README.md")) as fh:
        named = set(re.findall(r"`(\w+)\.(\w+)", fh.read()))
    named = sorted((mod, name) for mod, name in named if mod in modules)
    assert named
    missing = [f"{mod}.{name}" for mod, name in named if not hasattr(importlib.import_module(f"fedcef.{mod}"), name)]
    assert missing == []


def test_the_readme_lists_the_values_of_each_choice_key():
    """The backticked values before the first `;` of a choice key's bullet in
    "Config format" are the values the code accepts, in its order."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    for key, values in (
        ("compressor.kind", compressors.KINDS),
        ("algorithm.name", harness.ALGORITHMS),
        ("problem.partition", (IID, DIRICHLET)),
    ):
        bullet = re.search(rf"^\* `{re.escape(key)}`: (.*?)(?=^\S|\Z)", text, re.MULTILINE | re.DOTALL).group(1)
        assert tuple(re.findall(r"`(\w+)`", bullet.split(";")[0])) == values, key


def test_library_surface_example_runs():
    """A renamed or removed public name fails here, not only for a reader."""
    namespace: dict = {}
    exec(compile(_fenced_block("Library surface", "python"), "README.md", "exec"), namespace)
    result = namespace["result"]
    assert len(result.series.rows) == namespace["hp"].T + 1
    assert (namespace["cfg"].K, namespace["cfg"].seed) == (4, 7)


def test_command_line_example_runs(tmp_path):
    """Each line of the command-line block, with `python -m fedcef` for the
    installed script, exits 0 in a directory holding a copy of configs/."""
    shutil.copytree(os.path.join(ROOT, "configs"), tmp_path / "configs")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedcef.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    lines = _fenced_block("Command line", "bash").splitlines()
    assert [line.split()[:2] for line in lines] == [["fedcef", "run"], ["fedcef", "sweep"], ["fedcef", "compare"]]
    for line in lines:
        args = shlex.split(line)[1:]
        proc = subprocess.run(
            [sys.executable, "-m", "fedcef", *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (line, proc.stderr)
    assert "# cfg run.seed = 0\n" in (tmp_path / "run.csv").read_text()
    assert proc.stdout.startswith("run A: sweep/compressor.retain=0.01.csv\n")
