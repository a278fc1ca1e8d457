"""The README's library quick start and command-line examples run, and the
quick start's commented numbers hold."""

import re
import shlex
import shutil
from pathlib import Path

from click.testing import CliRunner

from ic_outage.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_and_its_numbers_hold():
    code = _quick_start()
    ns: dict = {}
    exec(compile(code, str(README), "exec"), ns)
    ic, info, ch, res = ns["ic"], ns["info"], ns["ch"], ns["res"]
    # the numbers in the block's comments, to the 4 decimals shown there
    assert "# (0.3683, 0.4237)" in code
    assert tuple(round(x, 4) for x in ic.lambda_thresholds(info)) == (0.3683, 0.4237)
    assert "# 4.9836" in code
    assert round(ic.lambda_bar(ch)[0], 4) == 4.9836
    assert "# 0.1071, binding user 2 at r0 = 1.1747" in code
    assert (round(res.epsilon, 4), res.user, round(res.r0, 4)) == (0.1071, 2, 1.1747)
    assert "# 'case3-user2'" in code
    assert res.case_label == "case3-user2"
    assert len(ns["sim"].outage) == 2


def _cli_commands() -> list[list[str]]:
    """The ic-outage commands of the Command line section's sh block, each
    with its line continuations joined and its program name dropped."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "ic-outage", line
            commands.append(words[1:])
    return commands


def test_readme_cli_examples_run(tmp_path):
    commands = _cli_commands()
    assert {"analyze", "sweep", "simulate"} <= {c[0] for c in commands}
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        shutil.copytree(ROOT / "configs", "configs")
        for args in commands:
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (args, result.output, result.stderr)
            if args[0] == "simulate":
                assert result.stderr == "check passed\n"
