"""The package exports only what its own modules use, plus a few names kept on purpose.

Code that only the tests call belongs in tests/reference.py, not in the
package.  Every name `ergoquench.__all__` exports must be referenced in
some other module of the package outside its own definition, or be listed
in KEEP with the reason it stays public.  Every top-level definition of a
package module must be read by package code, exported, or found by name.

The exports load lazily.  The tests of that run each case in a fresh
interpreter, so that what is imported first, and whether numpy is
loaded, is real and not left over from another test.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergoquench
from ergoquench import EXPERIMENTS

PACKAGE = Path(ergoquench.__file__).resolve().parent

# exported names no package module calls, each with the reason it stays
KEEP = {
    "ergotropy": "the benchmark's tracer wraps it as the single-state ergotropy layer",
    "evolve_to": "the one-point jump, which the steady sweeps run many points at a time; "
                 "the benchmark's tracer wraps it as the evolve_to layer",
}


def _exported_names() -> set:
    return set(ergoquench.__all__)


def _loaded_names(tree) -> set:
    """Every bare name tree reads; a dataclass field or an assignment target is no read."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _used_names() -> set:
    """Names some module other than __init__ reads outside their own top-level definition."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _loaded_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
            used |= names
    return used


def test_every_export_is_used_by_the_package_or_kept_for_a_reason():
    unused = sorted(_exported_names() - KEEP.keys() - _used_names())
    assert unused == [], f"exported but used by no package module: {unused}"


def test_every_kept_name_is_exported_and_still_unused():
    assert KEEP.keys() <= _exported_names()
    assert all(KEEP.values())
    assert sorted(KEEP.keys() & _used_names()) == []


def _definitions(node) -> set:
    """The names a top-level statement defines: a def, a class or an assignment target."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)}
    return set()


def _reads(tree) -> set:
    """Every bare name and every attribute name tree reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_package_definition_is_read():
    # a read is a name or an attribute in package code outside the definition, or an
    # export; experiments._runner finds each registered runner by its name
    defined, read = set(), set(ergoquench._EXPORTS)
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _definitions(node)
            defined |= {(path.stem, name) for name in names}
            read |= _reads(node) - names
    exempt = {"__version__", "__all__"} | {info.runner.__name__ for info in EXPERIMENTS.values()}
    unread = sorted(f"{module}.{name}" for module, name in defined
                    if name not in read | exempt)
    assert unread == [], f"defined but read by no package code: {unread}"


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code with args in a new interpreter that imports the package from this tree."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


# the command line's main, then one line saying whether numpy was loaded
_CLI = """
import sys
from ergoquench.cli import main
try:
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
except SystemExit as done:
    code = done.code
print("numpy loaded:", "numpy" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("args,status,err", [
    ((), 0, ""),
    (("list",), 0, ""),
    (("--help",), 0, ""),
    (("run", "--experiment", "fig99"), 2, "config error: unknown experiment 'fig99'"),
    (("run", "--experiment", "fig2", "--config", "no-such.cfg"), 2, "error: cannot read config"),
], ids=["import", "list", "help", "unknown-name", "unreadable-config"])
def test_the_command_line_answers_without_numpy(args, status, err):
    proc = _fresh(_CLI, *args)
    assert proc.returncode == status, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy loaded: False"
    assert proc.stderr.startswith(err)


def test_a_config_value_error_answers_without_numpy(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("alpha = 1.5\n")
    proc = _fresh(_CLI, "run", "--experiment", "fig2", "--config", str(config))
    assert proc.returncode == 2
    assert proc.stdout.splitlines()[-1] == "numpy loaded: False"
    assert "alpha out of [0,1]" in proc.stderr


def test_a_chain_size_the_experiment_does_not_run_answers_without_numpy(tmp_path):
    config = tmp_path / "n4.cfg"
    config.write_text("n_qubits = 4\n")
    out = tmp_path / "out"
    proc = _fresh(_CLI, "run", "--experiment", "fig2", "--config", str(config), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout.splitlines()[-1] == "numpy loaded: False"
    assert proc.stderr == "config error: experiment 'fig2' fixes n_qubits=2\n"
    assert not out.exists()


@pytest.mark.parametrize("name,text,err", [
    ("appB-channels", "dt = 0.3", "t_max 4000.0 is not a multiple of dt 0.3"),
    ("appC-check", "beta_list = 0, 1\nt_max = 10",
     "appC-check's collective steady spectrum needs beta > 0, got beta_list (0.0, 1.0)"),
], ids=["off-grid", "appc-beta-zero"])
def test_a_config_the_runner_cannot_run_answers_without_numpy(tmp_path, name, text, err):
    config = tmp_path / "bad.cfg"
    config.write_text(text + "\n")
    out = tmp_path / "out"
    proc = _fresh(_CLI, "run", "--experiment", name, "--config", str(config), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout.splitlines()[-1] == "numpy loaded: False"
    assert proc.stderr == f"config error: {err}\n"
    assert not out.exists()


def test_list_prints_the_registry_in_its_order():
    proc = _fresh(_CLI, "list")
    lines = proc.stdout.splitlines()[:-1]
    width = max(map(len, EXPERIMENTS))
    assert [line.split()[0] for line in lines] == list(EXPERIMENTS)
    assert lines == [f"{name:<{width}}  {EXPERIMENTS[name].description}" for name in EXPERIMENTS]


@pytest.mark.parametrize("first", [
    "from ergoquench import ergotropy",
    "ergoquench.run_experiment",
    "import ergoquench.experiments",
    "import ergoquench.ergotropy",
])
def test_the_export_ergotropy_is_the_function_whatever_is_imported_first(first):
    proc = _fresh(f"""
import sys
import ergoquench
{first}
import ergoquench.ergotropy
import ergoquench.experiments
print(ergoquench.ergotropy is sys.modules["ergoquench.ergotropy"].ergotropy)
""")
    assert proc.stdout.split() == ["True"], proc.stderr


def test_every_export_resolves_and_is_listed():
    proc = _fresh("""
import sys
import ergoquench
for name in ergoquench.__all__:
    value = getattr(ergoquench, name)
    assert value is getattr(sys.modules["ergoquench." + ergoquench._EXPORTS[name]], name), name
    assert name in dir(ergoquench), name
print(len(ergoquench.__all__))
""")
    assert proc.stdout.split() == [str(len(ergoquench.__all__))], proc.stderr
