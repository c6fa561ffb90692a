"""Rules on the source of the nsac package itself."""

import ast
import pathlib
import re
from dataclasses import fields

from nsac.cli import _COMMANDS
from nsac.diagnostics import ConvergenceTrace, EnergyTrace, PairTrace
from nsac.experiments import ExperimentConfig
from nsac.io import (
    ENERGY_COLUMNS,
    ENTROPY_COLUMNS,
    MMS_SPATIAL_COLUMNS,
    MMS_TEMPORAL_COLUMNS,
    REI_COLUMNS,
    parse_config_text,
    serialize_config,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nsac"


def test_no_imports_inside_functions():
    """Every import is at module level: one place lists what a module needs,
    and an import cycle shows when the module loads, not on some later call."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    inside = set()
    for path in paths:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside |= {
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert not inside, sorted(inside)


def test_cli_imports_no_numpy_and_no_private_name():
    """Every output format lives in ``nsac.io``: the CLI formats no numbers
    itself, so it needs no numpy and no private helper of another module."""
    path = SRC / "cli.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numpy":
                found.append(node.module)
            elif node.level or (node.module or "").split(".")[0] == "nsac":
                found += [a.name for a in node.names
                          if a.name.startswith("_") and not a.name.endswith("__")]
    assert not found, found


def _imported_from(source: str, module: str) -> list[str]:
    """Every name that package module ``source`` imports from ``nsac.<module>``,
    and the module's own name wherever the module itself is imported."""
    path = SRC / f"{source}.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if (node.module or "").removeprefix("nsac.") in ("", "nsac"):
                found += [n for n in names if n == module]
            elif (node.module or "").removeprefix("nsac.") == module:
                found += names
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == f"nsac.{module}"]
    return found


def test_cli_takes_only_configs_and_studies_from_the_drivers():
    """Every run lives in ``nsac.experiments``: the CLI imports from it only
    ``ExperimentConfig`` and the ``run_*`` studies, and nothing from
    ``nsac.diagnostics``, so it holds no step loop and no schedule."""
    found = _imported_from("cli", "diagnostics") + [
        n for n in _imported_from("cli", "experiments")
        if n != "ExperimentConfig" and not n.startswith("run_")]
    assert not found, found


def test_io_writes_only_records_of_the_diagnostics():
    """``nsac.io`` imports nothing from ``nsac.experiments`` but
    ``ExperimentConfig``, so every record it writes is defined in
    ``nsac.diagnostics``, next to the rows it is reduced from."""
    found = [n for n in _imported_from("io", "experiments") if n != "ExperimentConfig"]
    assert not found, found


class _Calls(ast.NodeVisitor):
    """The dotted scope of every call to a function named ``name``."""

    def __init__(self, module: str, name: str):
        self.scope = [module]
        self.name = name
        self.found = []

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == self.name:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def _call_scopes(name: str) -> list[str]:
    """The dotted scope of every call to a function named ``name`` in the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Calls(path.stem, name)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found += visitor.found
    return found


def test_one_loop_calls_step():
    """``experiments.simulate`` is the one caller of ``solver.step`` and
    ``experiments`` the one module that imports it: every run, forced or not,
    takes its steps from that loop, so a fold over it sees every step."""
    imports = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] == "solver"
        and "step" in [a.name for a in node.names]
    ]
    calls = _call_scopes("step")
    assert calls == ["experiments.simulate"], calls
    # the package also re-exports it as a public name, and calls nothing
    assert imports == ["__init__.py", "experiments.py"], imports


def test_only_the_runs_call_simulate():
    """``simulate`` is called only inside the three runs that fold over it,
    ``run_energy_audit``, ``_lockstep`` and ``run_manufactured``: no driver is
    layered on the loop, so a per-step certificate is written once per run."""
    calls = _call_scopes("simulate")
    runs = {"experiments.run_energy_audit", "experiments._lockstep",
            "experiments.run_manufactured"}
    assert {".".join(scope.split(".")[:2]) for scope in calls} == runs, calls


def test_every_config_key_has_a_reader():
    """Every ``ExperimentConfig`` field is read as an attribute somewhere in
    the package other than ``ExperimentConfig.__post_init__``, whose reads
    are the schema's own checks: a key that nothing reads configures nothing.
    (The well's ends are read by the ``well`` property, a method of the class.)"""
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        checks = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "ExperimentConfig"
                  for fn in cls.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                  for node in ast.walk(fn)}
        reads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and id(node) not in checks}
    unread = [f.name for f in fields(ExperimentConfig) if f.name not in reads]
    assert not unread, unread


def test_readme_config_table_matches_the_schema():
    """The README's table lists every config key, in schema order, with its
    default."""
    rows = re.findall(r"^\| `([a-z_]+\.[a-z0-9_]+)` \| `([^`]*)` \|",
                      (ROOT / "README.md").read_text(), re.MULTILINE)
    defaults = serialize_config(ExperimentConfig())
    assert [key for key, _ in rows] == [line.split(" = ")[0] for line in defaults.splitlines()]
    table = "".join(f"{key} = {value}\n" for key, value in rows)
    assert serialize_config(parse_config_text(table)) == defaults


def test_readme_command_list_matches_the_cli():
    """The README's CLI block lists every command, in dispatch order."""
    cli = (ROOT / "README.md").read_text().split("## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", cli, re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r"^nsac (\S+)", block, re.MULTILINE) == list(_COMMANDS)


def test_readme_package_layout_lists_every_module():
    """The README's package layout lists each module of the package once,
    ``__init__.py`` aside."""
    layout = (ROOT / "README.md").read_text().split("## Package layout\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", layout, re.MULTILINE | re.DOTALL).group(1)
    listed = re.findall(r"^src/nsac/(\S+\.py)", block, re.MULTILINE)
    assert sorted(listed) == sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_pair_trace_fields_are_the_output_columns():
    """``PairTrace`` holds the entropy file's columns, the REI file's after
    ``t``, then the Gronwall fit, in file order: the writers pick columns by
    name, so a column renamed in one place only fails here."""
    names = [f.name for f in fields(PairTrace)]
    assert names == list(ENTROPY_COLUMNS + REI_COLUMNS[1:] + ("k", "violated"))


def test_energy_trace_fields_are_the_output_columns():
    """``EnergyTrace`` holds the energy file's columns, in file order, as
    ``PairTrace`` holds the entropy and REI files'."""
    assert [f.name for f in fields(EnergyTrace)] == list(ENERGY_COLUMNS)


def test_convergence_trace_fields_are_the_output_columns():
    """``ConvergenceTrace`` holds the spatial file's columns, then the
    temporal file's, as ``PairTrace`` holds the entropy and REI files'."""
    names = [f.name for f in fields(ConvergenceTrace)]
    assert names == list(MMS_SPATIAL_COLUMNS + MMS_TEMPORAL_COLUMNS)
