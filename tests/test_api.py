"""The public API: each module's ``__all__``, re-exported by the package."""

import importlib
import subprocess
import sys

import conflearn

MODULES = ("errors", "confidence", "beliefs", "learners", "flows", "axioms", "mutants")

PUBLIC = [
    "AXIOMS", "AxiomReport", "BayesModel", "CheckConfig", "ConfLearnError", "ConfidenceDomain",
    "ConfidenceValue", "ConfigError", "DomainError", "DomainMismatchError", "EventSet",
    "FiniteSimplex", "GaussianBelief", "GradedBeliefTable", "IntegratorConfig",
    "InvalidImagingMapError", "LabeledExample", "Learner", "MUTANT_TARGETS", "MassFunction",
    "NoLimitError", "NonConvergenceWarning", "NumericalError", "ParameterError",
    "RandomVariable", "SoftmaxModel", "StepBudgetError", "TangentVector", "TotalConflictError",
    "TrajectoryRecord", "UnsupportedError", "VectorFieldHandle", "ZeroMassEventError",
    "__version__", "add_to_frac", "additive_form", "available_domains", "available_learners",
    "bayes_observe", "belief_coords", "belief_distance", "belief_from_json", "belief_rebuild",
    "belief_to_json", "boltzmann_observe", "check_axiom", "class_log_probs",
    "classifier_step_observe", "combine_fields", "condition", "confidence_from_json",
    "confidence_to_json", "coord_labels", "dempster_combine", "derivative_field",
    "ds_plaus_update", "frac_to_add", "get_domain", "get_learner", "get_mutants",
    "gradient_step", "image", "integrate", "integrate_sampled", "interp_observe", "jeffrey",
    "kalman_combine", "kalman_observe", "kalman_observe_opt", "lift_to_list", "list_extend",
    "max_graded_observe", "metric_gradient", "natural_gradient", "optimal_gain",
    "parallel_field", "potential_to_likelihood", "reports_to_json", "run_suite",
    "simple_support", "suite_passed", "train_limit", "trotter_interleave",
]


def test_package_all_is_the_module_lists():
    modules = [importlib.import_module(f"conflearn.{name}") for name in MODULES]
    names = conflearn.__all__
    assert names == [n for mod in modules for n in mod.__all__] + ["__version__"]
    assert len(set(names)) == len(names)
    for mod in modules:
        for n in mod.__all__:
            assert getattr(conflearn, n) is getattr(mod, n)
    assert sorted(names) == PUBLIC and len(PUBLIC) == 83
    from conflearn import StepBudgetError

    assert issubclass(StepBudgetError, conflearn.ParameterError)


def test_star_import_is_warning_free():
    code = "from conflearn import *; assert StepBudgetError and get_learner"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
