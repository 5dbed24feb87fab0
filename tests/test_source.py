import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cfstats"


def _parsed_modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def test_no_assert_statements_in_the_package():
    # runtime checks must be explicit raises: python -O strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _module_level_imports(tree):
    """The import statements that run when the module is imported: those
    outside every function body (class bodies and if/try blocks run too)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def test_no_module_level_scipy_import():
    # scipy is imported where it is used, so enumeration never pays its import
    found = []
    for path, tree in _parsed_modules():
        for node in _module_level_imports(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _fresh_python(code, tmp_path):
    """Run code in a new interpreter that imports cfstats from src/ and
    return its stdout; the test process itself has scipy loaded."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_enumerate_loads_no_scipy(tmp_path):
    out = _fresh_python(
        "import sys\n"
        "import cfstats, cfstats.cli\n"
        "code = cfstats.cli.main(['enumerate', '--algorithm', 'gauss', '--denominator-bound', '30',\n"
        "                         '--targets', '1,2', '--out', 'o'])\n"
        "print(code, cfstats.__file__)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n",
        tmp_path,
    )
    status, loaded = out.splitlines()[-2:]
    assert status == f"0 {PACKAGE / '__init__.py'}"
    assert loaded == "[]"
    assert (tmp_path / "o" / "trajectories.csv").exists()


def test_gaussian_cdf_loads_scipy_special(tmp_path):
    out = _fresh_python(
        "import sys\n"
        "from cfstats import stats\n"
        "before = 'scipy.special' in sys.modules\n"
        "value = float(stats.gaussian_cdf(0.0, 1.0))\n"
        "print(before, 'scipy.special' in sys.modules, value)\n",
        tmp_path,
    )
    assert out.split() == ["False", "True", "0.5"]


def _mutants_script():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS_SCRIPT = _mutants_script()


# scripts/mutants.py makes each edit on a copy and runs its tests, outside
# this suite; here only its list is checked, so that it cannot rot silently
@pytest.mark.parametrize("mutant", MUTANTS_SCRIPT.MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests


@pytest.mark.parametrize("edit", MUTANTS_SCRIPT.EQUIVALENT, ids=lambda m: m.name)
def test_equivalent_old_text_occurs_once(edit):
    assert (ROOT / edit.path).read_text().count(edit.old) == 1
    assert edit.new != edit.old and edit.reason


# Parameters that a public function takes without reading them, each with
# its reason; every other parameter of a public module-level function is read.
UNREAD_PARAMETERS = {
    # perfbench passes these; they go with ROADMAP item 11's change to the benchmark
    **{f"bulk.py:{name}:workers": "passed by perfbench" for name in (
        "gauss_ensemble_table", "gauss_verify", "brun2_ensemble_table", "brun2_verify",
        "jp_ensemble_table", "jp_verify")},
    **{f"spectral.py:{name}:{param}": "passed positionally by perfbench"
       for name in ("frequency_constants", "covariance_matrix") for param in ("map_desc", "targets")},
    # every acceptance criterion has the signature (ctx)
    **{f"acceptance.py:{name}:ctx": "one signature per criterion"
       for name in ("a2_gauss_density", "a6_brun_density", "a10_witnesses")},
}


def test_public_functions_read_every_parameter():
    found = set()
    for path, tree in _parsed_modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x]
                read = {
                    n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.update(f"{path.name}:{node.name}:{p}" for p in params if p not in read)
    assert found == set(UNREAD_PARAMETERS)
