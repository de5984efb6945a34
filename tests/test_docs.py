"""The README's CLI reference checked against the code: config keys, flags
and exit codes."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

from dlrt import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
CONFIG_FIELDS = [f.name for f in fields(cli.RunConfig)]


def section(heading):
    """The README text under ``heading``, up to the next heading."""
    body = README.split(f"\n{heading}\n", 1)[1]
    return re.split(r"\n#+ ", body, maxsplit=1)[0]


def test_config_keys_list_run_config_fields():
    listed = section("### Config file keys").split("Unknown keys")[0]
    assert re.findall(r"`(\w+)`", listed) == CONFIG_FIELDS


def test_every_flag_sets_a_config_field():
    (subparsers,) = [
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    for command, parser in subparsers.choices.items():
        dests = {a.dest for a in parser._actions if a.option_strings}
        stray = dests - {"help", "config"} - set(CONFIG_FIELDS)
        assert not stray, f"{command}: flags without a config field: {sorted(stray)}"


def test_exit_code_table_lists_exit_constants():
    table = section("### Exit codes")
    listed = sorted(int(code) for code in re.findall(r"^\| (\d+) ", table, re.M))
    assert listed == sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
