import contextlib
import inspect
import io
import re
import shlex
from pathlib import Path

from driftfield import cli
from driftfield.cli import ALL_KEYS, main
from driftfield.estimator import EmConfig
from driftfield.flowfield import AnalyticField, random_gyre
from driftfield.harness import RunConfig
from driftfield.kernels import HyperParams
from driftfield.simulator import VehicleConfig

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


# Each config table of the CLI and the constructor its arguments go to.
SECTIONS = [
    (HyperParams, cli.HYPER_ARGS),
    (VehicleConfig, cli.VEHICLE_ARGS),
    (EmConfig, cli.EM_ARGS),
    (RunConfig, cli.RUN_ARGS),
    (random_gyre, cli.FIELD_ARGS["random_gyre"]),
] + [(AnalyticField, args) for kind, args in cli.FIELD_ARGS.items() if kind != "random_gyre"]
# README defaults that no constructor holds.
DERIVED_DEFAULTS = {"pseudo_target_spacing_m": "lengthscale/20", "field": "`random_gyre`"}


def test_configuration_defaults_are_the_constructors():
    # a default in the README is the default of the constructor argument
    # that the key's table entry names
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \| .*? \|$", _section("Configuration reference"),
                      re.MULTILINE)
    checked = 0
    for key, default in rows:
        if default.startswith("required") or DERIVED_DEFAULTS.get(key) == default:
            continue
        entries = [(make, table[key]) for make, table in SECTIONS if key in table]
        assert entries, key
        for make, (arg, parse) in entries:
            assert parse(default.strip("`")) == inspect.signature(make).parameters[arg].default, key
            checked += 1
    assert checked >= 17
