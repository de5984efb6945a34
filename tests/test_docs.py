"""The README's CLI reference checked against the code: the settings table,
example commands and exit codes; the dlrt names the README and the
source's docstrings cite; the one call site of each dense factorization in
the source, the one caller of ``svd_thin`` and the one process pool;
module-level imports, frozen dataclasses, exported names and stepper
signatures in the source; and the names the benchmark's tracer wraps."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import re
import shlex
from dataclasses import fields
from pathlib import Path

from dlrt import cli, integrators

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
SETTINGS = [f for f in fields(cli.RunConfig) if f.name != "command"]
(SUBCOMMANDS,) = [
    a.choices for a in cli.build_parser()._actions
    if isinstance(a, argparse._SubParsersAction)
]


def section(heading):
    """The README text under ``heading``, up to the next heading."""
    body = README.split(f"\n{heading}\n", 1)[1]
    return re.split(r"\n#+ ", body, maxsplit=1)[0]


def settings_rows():
    return re.findall(r"^\| `(\w+)` +\| `(--[\w-]+)` +\|(.*)\|$", section("### Settings"), re.M)


def test_config_keys_list_run_config_fields():
    # the settings table's key column: one row per setting, in field order
    assert [key for key, _, _ in settings_rows()] == [f.name for f in SETTINGS]


def test_every_flag_sets_a_config_field():
    for command, parser in SUBCOMMANDS.items():
        dests = {a.dest for a in parser._actions if a.option_strings}
        stray = dests - {"help", "config"} - {f.name for f in SETTINGS}
        assert not stray, f"{command}: flags without a config field: {sorted(stray)}"


def test_flag_table_lists_each_command_flags():
    # each settings-table row names its flag and the commands RunConfig's
    # field says read it; each command's parser has the flags of its rows
    # and --config
    rows = settings_rows()
    assert len(rows) == len(SETTINGS)
    readers = {}
    for (key, flag, named), f in zip(rows, SETTINGS):
        assert flag == f"--{key.replace('_', '-')}"
        named = set(SUBCOMMANDS) if named.strip() == "all" else set(re.findall(r"`([\w-]+)`", named))
        assert named == set(f.metadata["commands"]), key
        readers[flag] = named
    for command, parser in SUBCOMMANDS.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == {"--config"} | {f for f, named in readers.items() if command in named}


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


def call_sites(name):
    """Enclosing qualified name of every call of ``name`` in src/dlrt, as a
    bare name or as an attribute."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            elif isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                found.append(where)
            visit(child, inner)

    for path in sorted((ROOT / "src" / "dlrt").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_svd_thin_called_only_by_the_gram_route():
    # gesdd is the Gram route's fallback, so shape and caller never pick it
    assert call_sites("svd_thin") == ["lowrank._gram_svd"]


def test_one_process_pool():
    # two pools: compare's runs, on the one process pool that cmd_compare
    # creates, and the one thread pool that the threads module creates,
    # which runs abc-psi's states, evaluation's row chunks and a network
    # build's layer factorizations. Only those two modules import a pool
    # module, threads.width sizes both pools, and each user of the thread
    # pool is named here
    importers = set()
    for path in sorted((ROOT / "src" / "dlrt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("multiprocessing", "concurrent") for m in modules):
                importers.add(path.stem)
    assert importers == {"cli", "threads"}
    assert call_sites("Pool") == []
    assert call_sites("ProcessPoolExecutor") == ["cli.cmd_compare"]
    assert call_sites("ThreadPoolExecutor") == ["threads._executor"]
    assert call_sites("width") == ["cli.cmd_compare", "threads.map_tasks"]
    assert call_sites("map_tasks") == [
        "integrators.abc_psi_flow", "integrators.abc_psi_step", "nn._new_network",
        "nn._map_chunks",
    ]


def test_no_import_inside_a_function():
    # a module's dependencies all show at its top, so an import cycle cannot
    # hide behind a function-level import
    found = []
    for path in sorted((ROOT / "src" / "dlrt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.stem}.{node.name}" for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not found


def source_modules():
    return [importlib.import_module(f"dlrt.{path.stem}")
            for path in sorted((ROOT / "src" / "dlrt").glob("*.py")) if path.stem != "__init__"]


def test_dataclasses_frozen():
    # layers, networks, states, oracles and settings are values that a step
    # or a merge replaces; no record is filled in place
    mutable = set()
    for module in source_modules():
        for obj in vars(module).values():
            if (dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
                    and not obj.__dataclass_params__.frozen):
                mutable.add(f"{module.__name__}.{obj.__name__}")
    assert mutable == set()


def test_exported_names_exist():
    # a renamed or removed function cannot leave a stale export behind
    for module in source_modules():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"


def referenced_names(tree, skip=None):
    """Every name ``tree`` loads, reads as an attribute or imports, outside
    the function or class named ``skip``; ``__all__``'s strings are none."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == skip:
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                found.add(child.id)
            elif isinstance(child, ast.Attribute):
                found.add(child.attr)
            elif isinstance(child, ast.alias):
                found.add(child.name)
            visit(child)

    visit(tree)
    return found


# exported names with no caller yet: ROADMAP's stationarity item gives them one
EXPORTED_WITHOUT_CALLER = {"lowrank.tangent_project", "integrators.robbins_monro_step"}


def test_exported_names_have_a_caller():
    # no public helper exists only for its tests: each exported name is used
    # in src/dlrt, outside its own definition, or by the benchmark
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "dlrt").glob("*.py"))}
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        bench |= referenced_names(ast.parse(path.read_text()))
    refs = {stem: referenced_names(tree) for stem, tree in trees.items()}
    unused = set()
    for module in source_modules():
        stem = module.__name__.split(".")[-1]
        elsewhere = bench.union(*(r for other, r in refs.items() if other != stem))
        for name in module.__all__:
            if name not in elsewhere | referenced_names(trees[stem], skip=name):
                unused.add(f"{stem}.{name}")
    assert unused == EXPORTED_WITHOUT_CALLER


def test_steppers_take_states_grads_cfg():
    # a stepper reports what it computed through its return value, so none
    # takes an option beyond its states, the gradient function it calls and
    # its settings
    for name, stepper in integrators.STEPPERS.items():
        assert list(inspect.signature(stepper).parameters) == ["states", "grads", "cfg"], name


def test_traced_names_exist():
    # bench/spans.py rebinds each TRACED name with getattr, so a renamed or
    # removed function breaks the traced benchmark; read its table without
    # importing the benchmark
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    (traced,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    ]
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(module_name)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"{module_name} lacks {missing}"


MODULES = "|".join(p.stem for p in (ROOT / "src" / "dlrt").glob("*.py") if p.stem != "__init__")


def unresolved(names):
    """The dotted names, each ``[dlrt.]<module>[.<name>...]``, that do not
    resolve to a module and its attributes."""
    missing = []
    for name in sorted(names):
        module, *attrs = name.removeprefix("dlrt.").split(".")
        obj = importlib.import_module(f"dlrt.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    return missing


def test_readme_dotted_names_exist():
    # a backticked `dlrt.<module>.<name>` or `<module>.<name>` in the README
    # names code that exists, so a refactor cannot leave a stale reference
    names = set(re.findall(rf"`((?:dlrt\.)?(?:{MODULES})(?:\.\w+)+)", README))
    assert names
    assert unresolved(names) == []


def test_docstring_dotted_names_exist():
    # as in the README: a double-backticked ``dlrt.<module>`` or
    # ``<module>.<name>`` in a module, class or function docstring of
    # src/dlrt names code that exists
    names = set()
    for path in sorted((ROOT / "src" / "dlrt").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
                doc = ast.get_docstring(node) or ""
                names |= set(re.findall(
                    rf"``((?:dlrt\.(?:{MODULES})|(?:{MODULES})\.\w+)(?:\.\w+)*)``", doc))
    assert "threads.map_tasks" in names and "dlrt.integrators" in names
    assert unresolved(names) == []
