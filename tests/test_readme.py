import contextlib
import io
import re
import shlex
from pathlib import Path

from driftfield.cli import ALL_KEYS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_prints_its_comment():
    # the README's "Library use" example runs as written and prints the
    # line its trailing comment shows
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    expected = re.search(r"^# (estimated .*)$", code, re.MULTILINE).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [expected]


def _section(title: str) -> str:
    return README.read_text().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_quick_start_commands_print_their_comments(tmp_path, monkeypatch):
    # each heredoc config is written as shown, each `driftfield ...` command
    # runs as shown, and prints the `# ...` lines that follow it
    monkeypatch.chdir(tmp_path)
    lines = "\n".join(re.findall(r"```sh\n(.*?)```", _section("Quick start"), re.DOTALL))
    lines = lines.replace("\\\n", " ").splitlines()
    ran = 0
    while lines:
        line = lines.pop(0)
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            end = lines.index("EOF")
            Path(heredoc.group(1)).write_text("\n".join(lines[:end]) + "\n")
            del lines[:end + 1]
        elif line.startswith("driftfield "):
            expected = []
            while lines and lines[0].startswith("# "):
                expected.append(lines.pop(0)[2:])
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(shlex.split(line)[1:]) == 0, line
            if expected:
                assert out.getvalue().splitlines() == expected, line
            ran += 1
    assert ran == 3


def test_configuration_tables_list_every_key():
    rows = re.findall(r"^\| (.*?) \|", _section("Configuration reference"), re.MULTILINE)
    keys = {key for row in rows for key in re.findall(r"`(\w+)`", row)}
    assert keys == ALL_KEYS
