"""README's examples run as written, and the names that README and the
docstrings refer to exist."""

import ast
import importlib
import pkgutil
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

import linens
from linens import cli
from linens.config import ExperimentConfig
from linens.harness import FLAG_COLUMNS, TRACE_COLUMNS, _tally, monitor_report, run_batch

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(Path(linens.__file__).parent.glob("*.py"))

#: ``linens`` and its modules, by the name README writes them under.
MODULES = {"linens"} | {info.name for info in pkgutil.iter_modules(linens.__path__)}


def section(heading: str) -> str:
    """The text under a ``## heading`` of README."""
    return README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def code_block(heading: str, language: str = "python") -> str:
    """The first code block in ``language`` under a ``## heading`` of README."""
    match = re.search(rf"```{language}\n(.*?)```", section(heading), re.DOTALL)
    assert match, f"no {language} block under ## {heading}"
    return match.group(1)


def cli_examples() -> list[str]:
    """Every ``linens …`` command of the bash block under ``## CLI``, with
    its comment stripped."""
    lines = (line.split("#", 1)[0].strip() for line in code_block("CLI", "bash").splitlines())
    return [line for line in lines if line.startswith("linens ")]


def test_library_example_runs():
    namespace = {}
    exec(compile(code_block("Library"), "README.md", "exec"), namespace)
    policy = namespace["policy"]
    assert policy.step == 1000
    assert policy.s_vectors.shape == (1, 32, 3)


def test_the_cli_examples_are_found():
    # every subcommand has an example to check
    commands = {line.split()[1] for line in cli_examples()}
    assert commands == {"run", "equivalence", "rates", "sweep"}


def test_readme_gives_the_trace_header():
    # the bracketed flag columns are written only with monitors on
    header = code_block("CLI", "text").strip().replace("[", "").replace("]", "")
    assert header == "replication,t," + ",".join(TRACE_COLUMNS + FLAG_COLUMNS)


def test_readme_lists_the_monitor_report_fields():
    # the bulleted `field`: items under ## CLI are the report's fields, each
    # once; the tallied counters of a full-trace ensemble give every field
    # but the note, and without elliptical_ok, as below lambda = 1, the note
    documented = re.findall(r"^- `(\w+)`:", section("CLI"), re.MULTILINE)
    cfg = ExperimentConfig()
    cfg.policy.m = 4
    cfg.run.horizon = 5
    cfg.run.diagnostics = "full-trace"
    totals = {}
    _tally(totals, run_batch(cfg.validate(), range(1)).counters)
    below_unit_lambda = {k: v for k, v in totals.items() if k != "elliptical_ok"}
    fields = set(monitor_report(totals, 1)) | set(monitor_report(below_unit_lambda, 1))
    assert sorted(documented) == sorted(fields)


def test_readme_config_keys_are_ini_keys():
    # each backticked `key = value` under ## CLI names an INI key, so a
    # deleted or renamed key does not stay in README's examples
    cfg = ExperimentConfig()
    sections = (getattr(cfg, section.name) for section in fields(cfg))
    ini_keys = {{"lam": "lambda"}.get(f.name, f.name) for s in sections for f in fields(s)}
    spans = re.findall(r"`([\w.]+) = [^`]+`", section("CLI"))
    keys = {span.rsplit(".", 1)[-1] for span in spans}
    assert {"lambda", "m", "sampler"} <= keys
    assert keys <= ini_keys


@pytest.mark.parametrize("line", cli_examples())
def test_cli_example_parses(line):
    # a renamed or removed flag fails here instead of leaving README wrong
    cli.build_parser().parse_args(shlex.split(line)[1:])


class _Loaded(Exception):
    """Raised in place of the run that a command would start after its load."""


@pytest.mark.parametrize("line", cli_examples())
def test_cli_example_loads_its_config(line, monkeypatch):
    # each line loads its file under its own command, with its settings,
    # through cli.load_config; the run it would start is stopped, so a
    # shipped example that its command rejects fails here, not in a shell
    monkeypatch.chdir(README.parent)
    loads = []
    load = cli.load_config

    def recorded(path, command="run", **settings):
        loads.append(command)
        return load(path, command, **settings)

    def stop(*args, **kwargs):
        raise _Loaded

    monkeypatch.setattr(cli, "load_config", recorded)
    for name in ("run_replications", "run_equivalence_suite", "estimate_event_rates"):
        monkeypatch.setattr(cli, name, stop)
    with pytest.raises(_Loaded):
        cli.main(shlex.split(line)[1:])
    assert loads and set(loads) == {line.split()[1]}


def resolve(name: str):
    """The object a dotted name refers to: a module of ``linens``, or a
    name exported by ``linens``, then attributes."""
    head, *attrs = name.split(".")
    if head in MODULES:
        obj = linens if head == "linens" else importlib.import_module(f"linens.{head}")
    else:
        obj = getattr(linens, head)
    for attr in attrs:
        if not hasattr(obj, attr) and hasattr(obj, "__path__"):
            importlib.import_module(f"{obj.__name__}.{attr}")
        obj = getattr(obj, attr)
    return obj


def readme_names() -> list[str]:
    """Every backticked dotted name in README whose head is a ``linens``
    module or a name that ``linens`` exports."""
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
    return sorted({s for s in spans if s.split(".")[0] in MODULES | set(linens.__all__)})


def docstring_roles() -> list[str]:
    """Every fully qualified ``linens.…`` Sphinx role target in the
    package's source."""
    pattern = r":[a-z]+:`~?(linens(?:\.\w+)+)`"
    return sorted({t for path in SOURCES for t in re.findall(pattern, path.read_text())})


def test_the_reference_checks_see_names():
    # the extraction itself must find the names it is meant to check
    assert {"perturb.reward_draws", "PerturbationStream.reward_vector"} <= set(readme_names())
    assert "linens.perturb.reward_draws" in docstring_roles()


@pytest.mark.parametrize("name", readme_names())
def test_readme_name_resolves(name):
    resolve(name)


@pytest.mark.parametrize("target", docstring_roles())
def test_docstring_role_resolves(target):
    resolve(target)


#: Exports that nothing reads yet but the benchmark under ``perfbench/``:
#: its backend report and its tracer's hook. Each leaves ``__all__`` when
#: the benchmark stops reading it.
UNREAD_EXPORTS = {"HAVE_COMPILED_KERNELS", "keyed_generator"}


def names_read_by_the_package() -> set[str]:
    """Every name that the code of the package's modules loads, as a bare
    name or an attribute; ``__init__.py`` only re-exports, and a definition
    or a docstring reads nothing."""
    read = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_export_is_documented_or_read():
    # a name in linens.__all__ is named in README or read by the package,
    # so API that only the tests use does not build up in the exports
    readme = README.read_text()
    read = names_read_by_the_package()
    unread = {
        name
        for name in linens.__all__
        if name not in read and not re.search(rf"\b{name}\b", readme)
    }
    assert unread == UNREAD_EXPORTS


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never loads; a name that its
    ``__all__`` lists is used, as a re-export, and ``__future__`` imports
    are directives, not names."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_unused_import_check_sees_an_unused_import():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int = 0\n"
    assert unused_imports(source) == ["field"]
    assert unused_imports("from . import a as b\n__all__ = ['b']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: unused_imports(path.read_text()) for path in SOURCES}
    assert {name: names for name, names in unused.items() if names} == {}
