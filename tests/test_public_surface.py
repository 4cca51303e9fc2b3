"""The public surface: every exported name resolves, and the package and its
modules expose no public name beyond the ones pinned here."""
import importlib
import inspect

import pytest

import sapgm

MODULES = ["sapgm"] + [f"sapgm.{m}" for m in ("bench", "metrics", "problems", "smoothing", "solver", "subproblem")]

SURFACE = {
    # errors
    "DivergingLipschitzError", "InsufficientDataError", "InvalidInputError", "InvalidParameterError",
    "UnsupportedAtomError",
    # metrics
    "FrontPoint", "RateFit", "fit_rate", "merit_against_values", "nondominated_filter",
    # problems
    "GKind", "ProblemSpec", "eval_g", "eval_smooth", "eval_true", "get_problem", "registry",
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
