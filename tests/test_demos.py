"""Each walkthrough in demos/ runs to the end against the current package, and so
do the README's library overview and each of its command-line examples."""

import io
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quiver_cones.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _readme_commands():
    """(argv, output file or None, documented output lines) for each `quiver-cones`
    line of the README's "Command line" block, with continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("quiver-cones "):
            argv = shlex.split(line)[1:]
            target = argv[argv.index(">") + 1] if ">" in argv else None
            commands.append((argv[:argv.index(">")] if target else argv, target, []))
        elif line.startswith("# -> "):
            commands[-1][2].append(line[len("# -> "):])
    return commands


def test_readme_command_line_examples_run(monkeypatch, tmp_path):
    # the first example writes d5hat.quiver, which the others read
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands[0] == (["zoo", "d5hat"], "d5hat.quiver", [])
    documented = []
    for argv, target, expected in commands:
        out = io.StringIO()
        with redirect_stdout(out):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused an option
                code = exc.code
        assert code == 0, argv
        if target:
            Path(target).write_text(out.getvalue(), encoding="utf-8")
        assert set(expected) <= set(out.getvalue().splitlines()), argv
        documented += expected
    assert "2,3,4,4,3,2\t244\t57\t10" in documented


def test_readme_library_overview_runs():
    # the block runs as written, and each value its comments state holds
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library overview", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    calls = [line.split("#", 1)[0].strip() for line in block.splitlines() if "#" in line]

    def value(prefix):
        (call,) = [c for c in calls if c.startswith(prefix)]
        return eval(call, names)

    assert value("t.ext(") == 1
    assert value("counts(") == (244, 57, [10])
    assert len(value("enumerate_I0(")) == 10
    assert len(value('inequalities(t, alpha, "dw")').normals) == 244
