"""The public surface: every exported name resolves, the package and its
modules expose no public name beyond the ones pinned here, and each name the
package exports has a caller outside the tests."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import sapgm

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["sapgm"] + [f"sapgm.{m}" for m in ("bench", "metrics", "problems", "smoothing", "solver", "subproblem")]

SURFACE = {
    # errors
    "DivergingLipschitzError", "InsufficientDataError", "InvalidInputError", "InvalidParameterError",
    "UnsupportedAtomError", "WorkerExitError",
    # metrics
    "FrontPoint", "RateFit", "fit_rate", "merit_against_values", "nondominated_filter",
    # problems
    "GKind", "ProblemSpec", "eval_smooth", "eval_true", "get_problem", "registry",
    "sample_start",
    # smoothing
    "SmoothingConstants", "SmoothSurrogate", "compose_surrogate", "smooth_abs", "smooth_max2", "smooth_max_list",
    "smooth_plus", "verify_surrogate",
    # solver
    "RunResult", "SolverConfig", "backtrack_step", "momentum_update", "mu_schedule", "solve", "solve_baseline",
    # subproblem
    "SubproblemInput", "SubproblemSolution", "solve_subproblem",
}

# names a module exports that the package does not re-export
MODULE_ONLY = {
    "sapgm.bench": {"BenchConfig", "SummaryRow", "emit_svg_scatter", "run_benchmark", "run_rate_experiment"},
    "sapgm.metrics": {"nondominated_mask"},
    "sapgm.smoothing": {
        "Abs", "Affine", "Exp", "Max2", "MaxList", "Plus", "Quartic", "Scale", "Square", "Sum", "SurrogateReport",
    },
    "sapgm.solver": {"TraceRecord"},
}

# classes and functions a module defines under a public name without exporting it
UNEXPORTED = {
    "sapgm.bench": {"merit_series_for_run", "reference_front", "slugify", "summarize"},
    "sapgm.smoothing": {"Expr"},
}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_the_package_exports_exactly_its_surface():
    public = {n for n, v in vars(sapgm).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == set(sapgm.__all__) == SURFACE


@pytest.mark.parametrize("module", MODULES[1:])
def test_a_module_exports_the_package_surface_and_its_own_names(module):
    mod = importlib.import_module(module)
    assert set(mod.__all__) - SURFACE == MODULE_ONLY.get(module, set())


@pytest.mark.parametrize("module", MODULES[1:])
def test_a_module_defines_no_public_name_beyond_its_exports(module):
    mod = importlib.import_module(module)
    own = {
        n
        for n, v in vars(mod).items()
        if not n.startswith("_") and (inspect.isclass(v) or inspect.isfunction(v)) and v.__module__ == module
    }
    assert own - set(mod.__all__) == UNEXPORTED.get(module, set())


def test_front_points_are_built_from_their_values():
    # FrontPoint(x, eval_true(p, x)) is the one constructor
    assert [n for n in vars(sapgm.FrontPoint) if not n.startswith("_")] == []


def _uses(path: Path) -> set[str]:
    """The names a source file's AST uses: Name ids, attribute names, keyword
    and parameter names, inside an f-string's braces too.  An import and the
    name a def or class binds are no use, since neither is a node of these."""
    uses = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif isinstance(node, (ast.keyword, ast.arg)) and node.arg is not None:  # None: a ** argument
            uses.add(node.arg)
    return uses


def test_uses_reads_f_strings_and_skips_imports_and_definitions(tmp_path):
    # Python 3.11 tokenizes an f-string as one STRING token, so its names were no NAME tokens
    path = tmp_path / "module.py"
    path.write_text(
        "import only_imported\n"
        "from pkg import also_imported as alias\n"
        "def only_defined(param):\n"
        "    return f'{in_braces.attr}'\n"
        "class OnlyDefined:\n"
        "    pass\n"
        "call(key=1, **kwargs)\n"
    )
    uses = _uses(path)
    assert {"in_braces", "attr", "param", "call", "key", "kwargs"} <= uses
    assert uses.isdisjoint({"only_imported", "also_imported", "alias", "pkg", "only_defined", "OnlyDefined"})


def test_every_exported_name_has_a_caller_outside_the_tests():
    # no public name without a caller in the package or the benchmark
    sources = [
        path
        for path in sorted((ROOT / "src" / "sapgm").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
        if path.name != "__init__.py"
    ]
    used = set().union(*map(_uses, sources))
    assert sorted(set(sapgm.__all__) - used) == []
