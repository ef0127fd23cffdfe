"""The axiom battery: built-ins pass, mutants fail, runs are reproducible."""

import copy
import dataclasses
import json
import sys

import numpy as np
import pytest

from conflearn import (
    AXIOMS,
    MUTANT_TARGETS,
    CheckConfig,
    ParameterError,
    available_learners,
    belief_distance,
    check_axiom,
    get_learner,
    get_mutants,
    lift_to_list,
    reports_to_json,
    run_suite,
    suite_passed,
)
from conflearn import axioms
from conflearn.errors import StepBudgetError
from conflearn.flows import _MAX_STEPS
from conflearn.identities import IDENTITIES
from conflearn.learners import _UPDATE_HOOKS
from conflearn.axioms import (
    _BRENT_ITERS,
    _TOL,
    _chart_to_confidence,
    _instances,
    _residual_by_brent,
    _seeded_rng,
)

FAST = CheckConfig(seed=0, samples=25)


def _fail_ids(reports):
    return {r.axiom_id for r in reports if not r.skipped and not r.passed}


# ---------------------------------------------------------------------------
# Built-in learners pass everything applicable.


@pytest.mark.parametrize("learner_id", list(available_learners()))
def test_built_in_passes_suite(learner_id):
    reports = run_suite(get_learner(learner_id), FAST)
    assert suite_passed(reports), _fail_ids(reports)
    assert [r.axiom_id for r in reports] == list(AXIOMS)


@pytest.mark.parametrize(
    "learner_id", [lid for lid in available_learners() if lid != "kalman"]
)
def test_lifted_learner_passes_suite(learner_id):
    lifted = lift_to_list(get_learner(learner_id))
    reports = run_suite(lifted, FAST)
    assert suite_passed(reports), _fail_ids(reports)


def test_expected_skips_are_skips_not_failures():
    by_id = {
        r.axiom_id: r for r in run_suite(get_learner("kalman"), FAST)
    }
    assert by_id["L2"].skipped  # pair domain has no scalar chart
    by_id = {r.axiom_id: r for r in run_suite(get_learner("ds"), FAST)}
    assert by_id["LB"].skipped  # no registered metric on mass space
    by_id = {r.axiom_id: r for r in run_suite(get_learner("classifier"), FAST)}
    assert by_id["B2"].skipped  # saturated states unreachable at finite params


# ---------------------------------------------------------------------------
# Mutants fail what they are built to fail.


# MUTANT_TARGETS is the whole row each mutant fails, at FAST and at the
# acceptance gate's CheckConfig(seed=0, samples=60) alike: a law that stops
# catching one, or starts failing one, shows
@pytest.mark.parametrize("mutant", get_mutants(), ids=lambda m: m.id)
def test_mutant_fails_its_targets(mutant):
    failed = _fail_ids(run_suite(mutant, FAST))
    assert failed, "a mutant that fails nothing guards nothing"
    assert failed == set(MUTANT_TARGETS[mutant.id])


def test_every_axiom_caught_by_some_mutant():
    caught = set()
    for mutant in get_mutants():
        caught |= _fail_ids(run_suite(mutant, FAST))
    assert caught == set(AXIOMS)


def test_failed_check_carries_witness():
    mutant = {m.id: m for m in get_mutants()}["mutant-l5-square"]
    report = check_axiom(mutant, "L5", FAST)
    assert not report.passed
    assert report.worst_violation > _TOL
    assert report.witness is not None


# ---------------------------------------------------------------------------
# Reproducibility and report wiring.


def test_reports_are_byte_identical_for_same_seed():
    cfg = CheckConfig(seed=12, samples=20)
    a = reports_to_json(run_suite(get_learner("boltzmann"), cfg))
    b = reports_to_json(run_suite(get_learner("boltzmann"), cfg))
    assert a == b
    c = reports_to_json(run_suite(get_learner("boltzmann"), CheckConfig(seed=13, samples=20)))
    assert a != c


def test_report_json_shape():
    reports = run_suite(get_learner("interp"), FAST)
    data = json.loads(reports_to_json(reports))
    assert len(data) == len(AXIOMS)
    for entry in data:
        assert entry["learner_id"] == "interp"
        assert entry["axiom_id"] in AXIOMS
        assert isinstance(entry["passed"], bool)


def test_lb_holds_at_every_check_seed():
    # a fixed Fisher difference step fails interp near the simplex boundary
    # at 11 of these seeds; the euclidean mutant must stay caught at each one
    seeds = range(20)
    for learner_id in ("interp", "boltzmann", "bayes", "kalman", "classifier"):
        learner = get_learner(learner_id)
        for seed in seeds:
            report = check_axiom(learner, "LB", CheckConfig(seed=seed))
            assert report.passed, (learner_id, seed, report.worst_violation)
    mutant = next(m for m in get_mutants() if m.id == "mutant-lb-euclid")
    for seed in seeds:
        assert not check_axiom(mutant, "LB", CheckConfig(seed=seed)).passed, seed


def test_l3_holds_at_every_check_seed():
    seeds = range(5)
    base = [get_learner(lid) for lid in available_learners()]
    for learner in base + [lift_to_list(b) for b in base if b.top_absorbing]:
        for seed in seeds:
            report = check_axiom(learner, "L3", CheckConfig(seed=seed))
            assert report.passed and not report.skipped, (learner.id, seed, report.worst_violation)
    caught = ("mutant-l34-cyclic", "mutant-fc-partial", "mutant-b3-timid", "mutant-lb-euclid")
    for mutant in (m for m in get_mutants() if m.id in caught):
        for seed in seeds:
            assert not check_axiom(mutant, "L3", CheckConfig(seed=seed)).passed, (mutant.id, seed)


@pytest.mark.parametrize("learner_id", ["interp", "classifier", "kalman", "max-graded"])
def test_l3_observes_each_grid_point_once_per_instance(learner_id):
    # the residual and Brent steps start from observed states; every other
    # observe call is of an instance, once per grid entry, in grid order
    learner = get_learner(learner_id)
    instances, states, calls = [], [], []

    def sample(rng):
        phi, theta = learner.sample_instance(rng)
        instances.append(theta)
        return phi, theta

    def observe(phi, chi, theta):
        if any(theta is t for t in instances):
            calls.append((id(theta), repr(chi)))
        states.append(copy.deepcopy(learner.observe(phi, chi, theta)))  # never an instance
        return states[-1]

    counting = dataclasses.replace(learner, observe=observe, sample_instance=sample)
    cfg = CheckConfig(seed=0, samples=4)
    check_axiom(counting, "L3", cfg)
    grid = [repr(chi) for chi in axioms._grid(learner, cfg)]
    assert len(instances) == 4 and len(grid) >= 3
    for theta in instances:
        assert [chi for key, chi in calls if key == id(theta)] == grid


@pytest.mark.parametrize("learner_id", ["interp", "ds", "boltzmann", "max-graded"])
def test_l2_and_l3_observe_no_state_twice(learner_id, monkeypatch):
    # L2 observes each base once and each step from it once; L3 observes,
    # outside its residual searches, only the grid states and the updates by
    # the residuals to top.  A search hands back the state it reached, the
    # searches from one start share the confidences they tried, and an
    # update to top takes the top state a search from its start tried.  Where
    # observe at bot returns the instance itself, the searches and residuals
    # from it read the grid states: L3 observes no (instance, confidence) twice
    learner = get_learner(learner_id)
    calls = {"L2": 0, "L3": 0, "search": 0}
    law, searching = ["L2"], [False]
    instances, charted, starts = [], set(), []  # starts are kept alive, so ids stay theirs
    from_instances = set()

    def sample(rng):
        phi, theta = learner.sample_instance(rng)
        instances.append(theta)
        return phi, theta

    def observe(phi, chi, theta):
        calls["search" if searching[0] else law[0]] += 1
        # a chart point from a start: in a search, or an update to top of a grid state
        if law[0] == "L3" and (searching[0] or chi.is_top and not any(theta is t for t in instances)):
            assert (id(theta), repr(chi)) not in charted, chi
            charted.add((id(theta), repr(chi)))
            starts.append(theta)
        if law[0] == "L3" and any(theta is t for t in instances):
            assert learner.observe(phi, learner.domain.bot, theta) is theta
            assert (id(theta), repr(chi)) not in from_instances, chi
            from_instances.add((id(theta), repr(chi)))
        return learner.observe(phi, chi, theta)

    def search(*args):
        searching[0] = True
        try:
            return brent(*args)
        finally:
            searching[0] = False

    brent = axioms._residual_by_brent
    monkeypatch.setattr(axioms, "_residual_by_brent", search)
    counting = dataclasses.replace(learner, observe=observe, sample_instance=sample)
    cfg = CheckConfig(seed=0, samples=4)
    assert check_axiom(counting, "L2", cfg) == check_axiom(learner, "L2", cfg)
    assert calls["L2"] == max(2, cfg.samples // 2) * 2 * 3
    law[0] = "L3"
    assert check_axiom(counting, "L3", cfg) == check_axiom(learner, "L3", cfg)
    grid = axioms._grid(learner, cfg)
    assert grid[-1].is_top and not grid[-2].is_top and calls["search"] > 0
    # the grid states, then fewer updates to top than starts below top
    n = min(cfg.samples, 12)
    assert n * len(grid) <= calls["L3"] < n * (2 * len(grid) - 1)


def test_check_config_rejects_bad_settings():
    for bad in ({"seed": True}, {"seed": 1.5}, {"seed": "1"}, {"samples": True},
                {"samples": 2.5}, {"samples": "3"}, {"samples": 0},
                {"confidence_grid": "ab"}, {"confidence_grid": 5}, {"confidence_grid": {0.5: 1}}):
        with pytest.raises(ParameterError):
            CheckConfig(**bad)
    assert CheckConfig(seed=np.int64(-3), samples=np.int64(2)).samples == 2
    # the law tolerances and the difference step are constants
    for setting in ("tol", "lb_tol", "l2_ratio_bound", "fd_step"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{setting}'"):
            CheckConfig(**{setting: 1e-3})


def test_check_config_refuses_more_samples_than_the_step_budget():
    assert CheckConfig(samples=_MAX_STEPS).samples == _MAX_STEPS
    message = f"^samples={_MAX_STEPS + 1} is more than max_steps={_MAX_STEPS}$"
    with pytest.raises(StepBudgetError, match=message):
        CheckConfig(samples=_MAX_STEPS + 1)


class _NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was used")


@pytest.mark.parametrize("name", ["bayes-boltzmann", "kalman-sequential", "interp-vs-ds"])
def test_identity_entries_refuse_more_samples_than_the_step_budget(name):
    message = f"^samples={_MAX_STEPS + 1} is more than max_steps={_MAX_STEPS}$"
    with pytest.raises(StepBudgetError, match=message):
        IDENTITIES[name](_NoDraws(), _MAX_STEPS + 1)
    # a count that checks nothing is refused as CheckConfig refuses it, not passed
    for bad, text in ((0, "^samples must be at least 1$"), (-3, "^samples must be at least 1$"),
                      (2.5, "^samples must be an integer, got 2.5$"),
                      (True, "^samples must be an integer, got True$")):
        with pytest.raises(ParameterError, match=text):
            IDENTITIES[name](_NoDraws(), bad)


def test_trotter_convergence_ignores_samples():
    # its instances are pinned: it draws nothing and reads no samples count
    passed, payload = IDENTITIES["trotter-convergence"](_NoDraws(), _MAX_STEPS + 1)
    assert passed and (passed, payload) == IDENTITIES["trotter-convergence"](None, 0)


@pytest.mark.parametrize("entry", ["a", 2.0, [0.5], None])
def test_a_grid_entry_that_does_not_coerce_is_a_parameter_error(entry):
    cfg = CheckConfig(samples=2, confidence_grid=[0.25, entry])
    for axiom_id in AXIOMS:  # every check, whether or not it walks the grid
        with pytest.raises(ParameterError, match="confidence grid entry not in domain 'frac'"):
            check_axiom(get_learner("interp"), axiom_id, cfg)


def test_a_grid_must_rise():
    # L3 and B1 walk the grid upward: out of order, they fail a correct learner
    cfg = CheckConfig(samples=5, confidence_grid=[0.0, 0.75, 0.25, 1.0])
    with pytest.raises(ParameterError, match="must rise, but <frac:0.75> comes before <frac:0.25>"):
        run_suite(get_learner("interp"), cfg)
    rising = CheckConfig(samples=5, confidence_grid=[0.0, 0.25, 0.25, 0.75, 1.0])  # repeats rise
    assert suite_passed(run_suite(get_learner("interp"), rising))


def test_unknown_axiom_rejected():
    with pytest.raises(ParameterError):
        check_axiom(get_learner("interp"), "L9", FAST)


def test_empty_grid_skips_grid_checks():
    cfg = CheckConfig(seed=0, samples=10, confidence_grid=[])
    by_id = {r.axiom_id: r for r in run_suite(get_learner("interp"), cfg)}
    for axiom_id in ("L3", "L4", "B1"):
        assert by_id[axiom_id].skipped


def test_custom_grid_is_used():
    cfg = CheckConfig(seed=0, samples=10, confidence_grid=[0.0, 0.25, 0.75])
    report = check_axiom(get_learner("interp"), "L4", cfg)
    assert report.passed and not report.skipped


# ---------------------------------------------------------------------------
# A copy with another observe drops the hooks of the update it replaced.


_LIFTS = [lift_to_list(get_learner(lid)) for lid in available_learners() if lid != "kalman"]


@pytest.mark.parametrize("learner", _LIFTS + list(get_mutants()), ids=lambda learner: learner.id)
def test_lifts_and_mutants_keep_no_hook_of_the_honest_update(learner):
    # else trotter_interleave, derivative_field, learn or LB could run the
    # honest update in place of the copy's own observe; mutant-lb-euclid sets
    # its own flow, and keeps the time translation and metric it satisfies
    own = {"make_flow", "translate", "lb_metric"} if learner.id == "mutant-lb-euclid" else set()
    for name in _UPDATE_HOOKS:
        assert (getattr(learner, name) is None) == (name not in own), name


# ---------------------------------------------------------------------------
# L3 finds its residual by Brent's method on the chart [0, 1].


_SEARCHED = [
    learner
    for learner in (
        [get_learner(lid) for lid in available_learners()]
        + [lift_to_list(get_learner(lid)) for lid in available_learners() if lid != "kalman"]
        + list(get_mutants())
    )
    if learner.domain.is_scalar_continuum and learner.bel is not None
]
_MUTANT_IDS = {m.id for m in get_mutants()}


def _bisect_every_pass(learner, phi, s_lo, target_bel):
    """The plain residual bisection, all _BRENT_ITERS passes, as a reference.

    Returns the confidence and whether an end of the chart settled it early.
    """
    dom = learner.domain
    lo, hi = 0.0, 1.0

    def gap(u):
        return learner.bel(phi, learner.observe(phi, _chart_to_confidence(dom, u), s_lo)) - target_bel

    if gap(0.0) >= 0.0:
        return dom.bot, True
    if gap(1.0) < 0.0:
        return _chart_to_confidence(dom, 1.0), True
    for _ in range(_BRENT_ITERS):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return _chart_to_confidence(dom, hi), False


@pytest.mark.parametrize("learner", _SEARCHED, ids=lambda learner: learner.id)
def test_bisection_early_exit_matches_every_pass(learner):
    # Brent's search stops as soon as its bracket is below the tolerance; it
    # takes the same end-point exits as a bisection run for every pass, and
    # otherwise lands on a state of the same belief up to round-off
    grid = [chi for chi in learner.default_grid if not chi.is_top]
    rng = _seeded_rng(0, learner.id, "L3")
    for phi, theta in _instances(learner, rng, 4):
        for i in range(len(grid)):
            s_lo = learner.observe(phi, grid[i], theta)
            for chi_hi in grid[i + 1:]:
                target = learner.bel(phi, learner.observe(phi, chi_hi, theta))
                got, reached = _residual_by_brent(learner, phi, s_lo, target, {})
                assert belief_distance(reached, learner.observe(phi, got, s_lo)) == 0.0
                ref, at_end = _bisect_every_pass(learner, phi, s_lo, target)
                if at_end:
                    assert got == ref
                else:
                    assert not got.is_bot
                    assert belief_distance(reached, learner.observe(phi, ref, s_lo)) <= 1e-12


@pytest.mark.parametrize("learner", _SEARCHED, ids=lambda learner: learner.id)
def test_residual_search_keeps_its_bracket(learner, monkeypatch):
    # the returned chart point is not below the target, a point below it
    # lies within the stop tolerance under it, and the search is bounded
    dom = learner.domain
    charted = []

    def chart(dom, u):
        charted.append(u)
        return _chart_to_confidence(dom, u)

    monkeypatch.setattr(axioms, "_chart_to_confidence", chart)
    grid = [chi for chi in learner.default_grid if not chi.is_top]
    rng = _seeded_rng(0, learner.id, "L3")
    for phi, theta in _instances(learner, rng, 4):
        for i in range(len(grid)):
            s_lo = learner.observe(phi, grid[i], theta)
            for chi_hi in grid[i + 1:]:
                s_hi = learner.observe(phi, chi_hi, theta)
                target = learner.bel(phi, s_hi)

                def gap(u):
                    state = learner.observe(phi, _chart_to_confidence(dom, u), s_lo)
                    return learner.bel(phi, state) - target

                charted.clear()
                delta, reached = _residual_by_brent(learner, phi, s_lo, target, {})
                if len(charted) == 1:  # nothing to reach from bot
                    assert delta.is_bot and not gap(0.0) < 0.0
                    continue
                *evaluated, u = charted
                assert len(evaluated) <= 2 + _BRENT_ITERS
                if u == 1.0 and gap(1.0) < 0.0:  # the chart end falls short
                    assert len(evaluated) == 2
                else:
                    assert not gap(u) < 0.0
                    tol = 2.0 ** -60 + 4 * sys.float_info.epsilon * u
                    assert any(u - tol <= v < u and gap(v) < 0.0 for v in evaluated)
                if learner.id not in _MUTANT_IDS:
                    assert belief_distance(reached, s_hi) <= _TOL
