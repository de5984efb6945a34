"""The README's CLI reference checked against the code: config keys, flags,
example commands and exit codes; and the one call site of each dense
factorization in the source."""

import argparse
import ast
import re
import shlex
from dataclasses import fields
from pathlib import Path

from dlrt import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
CONFIG_FIELDS = [f.name for f in fields(cli.RunConfig)]
(SUBCOMMANDS,) = [
    a.choices for a in cli.build_parser()._actions
    if isinstance(a, argparse._SubParsersAction)
]


def section(heading):
    """The README text under ``heading``, up to the next heading."""
    body = README.split(f"\n{heading}\n", 1)[1]
    return re.split(r"\n#+ ", body, maxsplit=1)[0]


def test_config_keys_list_run_config_fields():
    listed = section("### Config file keys").split("Unknown keys")[0]
    assert re.findall(r"`(\w+)`", listed) == CONFIG_FIELDS


def test_every_flag_sets_a_config_field():
    for command, parser in SUBCOMMANDS.items():
        dests = {a.dest for a in parser._actions if a.option_strings}
        stray = dests - {"help", "config"} - set(CONFIG_FIELDS)
        assert not stray, f"{command}: flags without a config field: {sorted(stray)}"


def test_flag_table_lists_each_command_flags():
    rows = re.findall(r"^\| `?([\w-]+)`? +\|(.*)\|$", section("### Flags"), re.M)
    listed = {name: set(re.findall(r"`(--[\w-]+)`", flags))
              for name, flags in rows if name != "command"}
    common = listed.pop("all")
    assert set(listed) == set(SUBCOMMANDS)
    for command, parser in SUBCOMMANDS.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert common | listed[command] == flags, command


def test_readme_commands_parse():
    shell = "\n".join(re.findall(r"```sh\n(.*?)```", README, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in shell.splitlines() if line.startswith("dlrt ")]
    assert {argv[0] for argv in commands} == set(SUBCOMMANDS)
    for argv in commands:
        cli.build_parser().parse_args(argv)


def test_exit_code_table_lists_exit_constants():
    table = section("### Exit codes")
    listed = sorted(int(code) for code in re.findall(r"^\| (\d+) ", table, re.M))
    assert listed == sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))


def numpy_linalg_uses(names):
    """(enclosing qualified name, function) of every numpy.linalg reference
    to one of ``names`` in src/dlrt, by attribute or by import."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            elif (isinstance(child, ast.Attribute) and child.attr in names
                  and ast.unparse(child.value).split(".")[-1] == "linalg"):
                found.append((where, child.attr))
            elif isinstance(child, ast.ImportFrom) and (child.module or "").endswith("linalg"):
                found.extend((where, a.name) for a in child.names if a.name in names)
            visit(child, inner)

    for path in sorted((ROOT / "src" / "dlrt").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_one_svd_and_one_eigh_call_site():
    # every SVD goes through linalg.svd_thin and every Gram eigendecomposition
    # through lowrank's shared Gram route, so each has one guard and one
    # error mapping
    uses = numpy_linalg_uses({"svd", "eigh"})
    assert {where for where, name in uses if name == "svd"} == {"linalg.svd_thin"}
    assert {where for where, name in uses if name == "eigh"} == {"lowrank._gram_svd"}
