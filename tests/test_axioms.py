"""The axiom battery: built-ins pass, mutants fail, runs are reproducible."""

import collections
import copy
import dataclasses
import json
import re
import sys

import numpy as np
import pytest

from conflearn import (
    AXIOMS,
    MUTANT_TARGETS,
    BayesModel,
    CheckConfig,
    ConfidenceValue,
    EventSet,
    FiniteSimplex,
    ParameterError,
    RandomVariable,
    available_learners,
    belief_distance,
    check_axiom,
    get_domain,
    get_learner,
    get_mutants,
    lift_to_list,
    reports_to_json,
    run_suite,
    suite_passed,
)
from conflearn import axioms, learners
from conflearn.beliefs import belief_to_json
from conflearn.errors import ConfLearnError, StepBudgetError, ZeroMassEventError
from conflearn.flows import _MAX_STEPS, _coord_kind, belief_coords
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


def _labels(belief):
    """The labels of a belief's coordinates."""
    return _coord_kind(belief).labels(belief)


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


@pytest.mark.parametrize("axiom_id", AXIOMS)
def test_a_learner_without_an_instance_sampler_skips_the_laws_that_draw_by_it(axiom_id):
    # B2 draws by sample_saturated alone; every other law draws instances
    learner = dataclasses.replace(get_learner("interp"), sample_instance=None)
    report = check_axiom(learner, axiom_id, FAST)
    if axiom_id == "B2":
        assert report == check_axiom(get_learner("interp"), "B2", FAST) and not report.skipped
    else:
        assert report.skipped and report.passed and report.note == "learner has no instance sampler"


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


@pytest.mark.parametrize("learner_id", ["interp", "bayes", "classifier", "kalman", "max-graded"])
def test_l3_observes_each_grid_point_once_per_instance(learner_id):
    # the residual and Brent steps start from observed states; every other
    # update is of an instance, once per grid entry, in grid order.  A
    # learner with a rows hook updates by it, and keeps the instance's row at
    # bot, so its searches from bot ask from the instance too: at the grid's
    # points they read the grid states.  The classifier's count grid has no
    # searches: its residuals from bot are the grid entries
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

    def rows(phis, chis, c, labels):
        for chi, row in zip(chis, c):
            calls.extend((id(t), repr(chi)) for t in instances if belief_coords(t).tobytes() == row.tobytes())
        return learner.rows(phis, chis, c, labels)

    hook = {"observe": observe} if learner.rows is None else {"rows": rows}
    search = learner.domain.is_scalar_continuum and learner.bel is not None
    counting = dataclasses.replace(learner, **hook, sample_instance=sample)
    cfg = CheckConfig(seed=0, samples=4)
    assert check_axiom(counting, "L3", cfg) == check_axiom(learner, "L3", cfg)
    grid = [repr(chi) for chi in axioms._grid(learner, cfg)]
    assert len(instances) == 4 and len(grid) >= 3
    for theta in instances:
        asked = [chi for key, chi in calls if key == id(theta)]
        assert [chi for chi in asked if chi in grid] == grid
        assert len(asked) > len(grid) if learner.rows and search else asked == grid


_WARPS = {"mutant-l1-drift", "mutant-l2-rough", "mutant-l34-cyclic", "mutant-l5-square",
          "mutant-fc-partial", "mutant-b3-timid"}  # interp at a warped weight, rows and all


@pytest.mark.parametrize(
    "learner",
    [get_learner(lid) for lid in ("interp", "ds", "boltzmann", "bayes", "max-graded")]
    + [m for m in get_mutants() if m.id in _WARPS],
    ids=lambda learner: learner.id,
)
def test_l2_and_l3_observe_no_state_twice(learner):
    # L2 observes each base once and each step from it once.  L3 updates,
    # outside its residual searches, only the grid states and the updates by
    # the residuals to top.  The searches from one start share the points
    # they tried, an update to top reads the top state a search from its
    # start tried, and where observe at bot keeps the instance, the searches
    # and residuals from it read the grid states: L3 updates no (instance,
    # start, confidence) twice, the start compared by value.  A learner with
    # a rows hook updates by it; mutant-b3-timid's grid states at 0.5, 0.75
    # and top are one state, reached three times
    calls = {"L2": 0, "L3": collections.Counter()}
    law, instances = ["L2"], []

    def sample(rng):
        phi, theta = learner.sample_instance(rng)
        instances.append((phi, theta))
        return phi, theta

    def count(phi, chi, start):
        value = start.tobytes() if isinstance(start, np.ndarray) else json.dumps(belief_to_json(start), sort_keys=True)
        if law[0] == "L2":
            calls["L2"] += 1
        else:
            calls["L3"][id(phi), value, repr(chi)] += 1

    def observe(phi, chi, theta):
        count(phi, chi, theta)
        return learner.observe(phi, chi, theta)

    def rows(phis, chis, c, labels):
        for phi, chi, row in zip(phis, chis, c):
            count(phi, chi, row)
        return learner.rows(phis, chis, c, labels)

    counting = dataclasses.replace(learner, observe=observe, sample_instance=sample)
    if learner.rows is not None:
        counting = dataclasses.replace(counting, rows=rows)
    cfg = CheckConfig(seed=0, samples=4)
    assert check_axiom(counting, "L2", cfg) == check_axiom(learner, "L2", cfg)
    assert calls["L2"] == max(2, cfg.samples // 2) * 2 * 3
    law[0], instances = "L3", []
    assert check_axiom(counting, "L3", cfg) == check_axiom(learner, "L3", cfg)
    grid = axioms._grid(learner, cfg)
    assert grid[-1].is_top and not grid[-2].is_top
    repeats = {key: n for key, n in calls["L3"].items() if n > 1}
    assert not repeats, repeats
    # the grid states, each once, then the searches
    starts = {(id(phi), theta.probs.tobytes() if learner.rows else json.dumps(belief_to_json(theta), sort_keys=True))
              for phi, theta in instances}
    at_grid = [key for key in calls["L3"] if key[:2] in starts and key[2] in {repr(chi) for chi in grid}]
    assert len(at_grid) == len(instances) * len(grid) == min(cfg.samples, 12) * len(grid)
    assert len(calls["L3"]) > len(at_grid)
    # at most one update to top, searches' included, per grid state below top
    tops = [key for key in calls["L3"] if key[2] == repr(grid[-1]) and key[:2] not in starts]
    assert 0 < len(tops) <= len(instances) * (len(grid) - 1)


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
    # else trotter_interleave, derivative_field, learn, LB or the law checks'
    # rows could run the honest update in place of the copy's own observe;
    # mutant-lb-euclid sets its own flow, and keeps the time translation and
    # metric it satisfies; every mutant, and each lift whose base has rows,
    # sets rows of its own map
    if learner.id.endswith("@list"):
        honest = get_learner(learner.id.removesuffix("@list"))
    else:  # each mutant corrupts interp, but mutant-lb-euclid boltzmann
        honest = get_learner("boltzmann" if learner.id == "mutant-lb-euclid" else "interp")
    own = {"make_flow", "translate", "lb_metric"} if learner.id == "mutant-lb-euclid" else set()
    own |= {"rows"} if learner.id in _MUTANT_IDS or honest.rows is not None else set()
    for name in _UPDATE_HOOKS:
        assert (getattr(learner, name) is None) == (name not in own), name
    if "rows" in own:  # the copy's own map, not the honest one: its observe and bel, bit for bit
        assert learner.rows is not honest.rows
        phi, p = (learner.sample_top_instance or learner.sample_instance)(np.random.default_rng(0))
        chis = [chi for chi in learner.default_grid if not chi.is_top] + [learner.domain.top]
        coords, bels = learner.rows([phi] * len(chis), chis, np.array([belief_coords(p)] * len(chis)), _labels(p))
        for row, bel, chi in zip(coords, bels, chis):
            after = learner.observe(phi, chi, p)
            assert (row.tobytes(), bel) == (belief_coords(after).tobytes(), learner.bel(phi, after)), chi


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


def _search(learner, phi, theta, chi_lo, target):
    """L3's search from the update of theta at chi_lo toward the Bel target,
    driven as the check drives it (by the learner's rows hook where it has
    one): the residual, and the state reached as a belief, bit for bit."""
    update = axioms._Updates(learner, [(phi, theta)], memo=True, bels=True)
    start = update([(0, chi_lo, update.starts[0])])[0][0]
    [(got, (reached, _))] = axioms._residuals(update, [(0, start, _residual_by_brent(learner.domain, target))])
    if isinstance(reached, np.ndarray) and isinstance(theta, FiniteSimplex):  # a row: its probabilities
        state = object.__new__(FiniteSimplex)
        object.__setattr__(state, "labels", theta.labels)
        object.__setattr__(state, "probs", reached)
        reached = state
    return got, reached


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
                got, reached = _search(learner, phi, theta, grid[i], target)
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
                delta, reached = _search(learner, phi, theta, grid[i], target)
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


# ---------------------------------------------------------------------------
# The rows hook: each row is its one-belief observe and bel, bit for bit.


_ROWS = {learner.id: learner for learner in (
    [get_learner(lid) for lid in ("interp", "boltzmann", "bayes", "classifier")]
    + list(get_mutants())
    + [lift_to_list(get_learner(lid)) for lid in ("interp", "boltzmann", "bayes", "classifier")]
)}
_ROWS["classifier-3x3"] = get_learner("classifier", n_features=3, n_classes=3)  # w @ x sums three terms


@pytest.fixture
def low_step_cap(monkeypatch):
    """The classifier's step cap at 64: its update to top from a plain
    instance stops there, with a NonConvergenceWarning, and larger counts
    are over the cap."""
    monkeypatch.setattr(learners, "_MAX_GRADIENT_STEPS", 64)


def _rows_learner(learner, labels):
    """learner over labels: bayes (and its lift) gets a model on them, whose
    observation rows rule worlds out (e0 none, e1 one, e2 all but one)."""
    if learner.id.removesuffix("@list") != "bayes":
        return learner
    n, rng = len(labels), np.random.default_rng(len(labels))
    lik = {f"e{i}": rng.uniform(0.05, 1.0, size=n) for i in range(3)}
    lik["e1"][0] = 0.0
    lik["e2"][1:] = 0.0
    bayes = get_learner("bayes", model=BayesModel(labels, lik))
    return bayes if learner.id == "bayes" else lift_to_list(bayes)


def _rows_instance(learner, rng, labels):
    """An observation and a prior over labels (a world without mass at
    times), the observation one that may be past half the float range; or
    a classifier's example and parameters, from its top sampler at times."""
    base, n = learner.id.removesuffix("@list"), len(labels)
    if base == "classifier":
        return (learner.sample_top_instance if rng.uniform() < 0.3 else learner.sample_instance)(rng)
    probs = rng.dirichlet(np.ones(n))
    if rng.uniform() < 0.3:
        probs[int(rng.integers(n))] = 0.0
    if base in ("boltzmann", "mutant-lb-euclid"):
        values = rng.normal(0.0, 1.0, size=n)
        if rng.uniform() < 0.2 and base == "boltzmann":  # the mutant's E[v] would overflow
            values[int(rng.integers(n))] = 1.7e308
        phi = RandomVariable(labels, values)
    elif base == "bayes":
        phi = f"e{int(rng.integers(3))}"
    else:
        phi = EventSet(labels, int(rng.integers(1, (1 << n) - 1)))
    return phi, FiniteSimplex(labels, probs)


def _rows_confidence(learner, rng):
    """bot, top, or an interior value, in the proportions 1:1:2."""
    dom, u = learner.domain, rng.uniform()
    return dom.bot if u < 0.25 else dom.top if u < 0.5 else dom.sample(rng)


def _alone(learner, phi, chi, p):
    """observe and bel of one belief: its coordinates' bytes and bel, or its error."""
    try:
        after = learner.observe(phi, chi, p)
        return belief_coords(after).tobytes(), learner.bel(phi, after)
    except ConfLearnError as exc:
        return exc


@pytest.mark.filterwarnings("ignore::conflearn.learners.NonConvergenceWarning")
@pytest.mark.parametrize("base", list(_ROWS.values()), ids=list(_ROWS))
@pytest.mark.parametrize("n", range(2, 9))
def test_rows_hook_is_each_rows_observe_and_bel_bytewise(base, n, low_step_cap):
    # rows of one belief space, each its own observation, prior and
    # confidence (bot, interior and top; a classifier's walks to top from
    # plain instances stop at the cap): each row has the bits its belief
    # gets alone
    labels = tuple(f"w{i}" for i in range(n))
    learner, rng = _rows_learner(base, labels), np.random.default_rng(n)
    cases = []
    while len(cases) < 40:
        phi, p = _rows_instance(learner, rng, labels)
        chi = _rows_confidence(learner, rng)
        if not isinstance(_alone(learner, phi, chi, p), ConfLearnError):
            cases.append((phi, chi, p))
    phis, chis, ps = zip(*cases)
    coords, bels = learner.rows(list(phis), list(chis), np.array([belief_coords(p) for p in ps]), _labels(ps[0]))
    assert len(coords) == len(bels) == len(cases)
    for row, bel, case in zip(coords, bels, cases):
        assert (row.tobytes(), bel) == _alone(learner, *case)
    assert any(chi.is_bot for chi in chis) and any(chi.is_top for chi in chis)


@pytest.mark.filterwarnings("ignore::conflearn.learners.NonConvergenceWarning")
@pytest.mark.parametrize("name", [name for name in _ROWS if not name.startswith("bayes")])
def test_check_updates_on_rows_of_mixed_world_counts_are_the_per_point_loop(name, low_step_cap):
    # the law checks' updates: asks over instances of 2-8 worlds (a
    # classifier's, of its one shape), in one rows call per belief space,
    # give each ask the state and bel it gets alone
    learner, rng = _ROWS[name], np.random.default_rng(5)
    instances = [_rows_instance(learner, rng, tuple(f"w{i}" for i in range(int(rng.integers(2, 9))))) for _ in range(30)]
    update = axioms._Updates(learner, instances)
    asks = []
    for _ in range(120):
        k = int(rng.integers(len(instances)))
        chi = _rows_confidence(learner, rng)
        if not isinstance(_alone(learner, instances[k][0], chi, instances[k][1]), ConfLearnError):
            asks.append((k, chi, update.starts[k]))
    assert len({update.spaces[k] for k, _, _ in asks}) == (1 if learner.belief_kind == "params" else 7)
    for (k, chi, _), (state, bel) in zip(asks, update(asks)):
        assert (state.tobytes(), bel) == _alone(learner, instances[k][0], chi, instances[k][1])


def _failing(learner, labels):
    """Two instances over labels, each with a confidence at which its update
    fails alone with its own message, and a confidence for other instances."""
    n, base, dom = len(labels), learner.id.removesuffix("@list"), learner.domain
    if base in ("boltzmann", "mutant-lb-euclid"):  # the least-penalty world holds 5e-324, then 1e-320
        values = np.zeros(n)
        values[0] = 1e-300
        fails = [(RandomVariable(labels, values), FiniteSimplex(labels, np.array([1.0, tiny] + [0.0] * (n - 2))))
                 for tiny in (5e-324, 1e-320)]
        chis = [dom.top] * 3
    elif base == "bayes":  # e2 holds w0 alone and e1 rules it out: priors on the other worlds, then on w0
        others = FiniteSimplex(labels, np.array([0.0] + [1.0 / (n - 1)] * (n - 1)))
        fails, chis = [("e2", others), ("e1", FiniteSimplex(labels, np.eye(n)[0]))], [1.0] * 3
    elif base == "classifier":  # parameters whose logits overflow, then a count over the cap
        ex, theta = learner.sample_instance(np.random.default_rng(n))
        big = learners.LabeledExample(np.ones(len(ex.x)), 0), np.full(len(theta), 1.5e308)
        fails, chis = [big, (ex, theta)], [2, 65, 2]
    elif base == "mutant-b2-uniform":  # a confidence of another domain, then an event over other worlds
        p = FiniteSimplex(labels, np.full(n, 1.0 / n))
        fails = [(EventSet(labels, 0b10), p), (EventSet(tuple(f"v{i}" for i in range(n)), 0b10), p)]
        chis = [get_domain("add").value(2.0), 0.5, 0.5]
    else:
        small = FiniteSimplex(labels, np.array([1.0 - 5e-13, 5e-13] + [0.0] * (n - 2)))
        none = FiniteSimplex(labels, np.array([1.0] + [0.0] * (n - 1)))
        fails, chis = [(EventSet(labels, 0b10), small), (EventSet(labels, 0b10), none)], [0.5] * 3
    # a lift's: each value as a list of one (top is its own)
    chis = [chi if isinstance(chi, ConfidenceValue) else dom.coerce([chi] if base != learner.id else chi) for chi in chis]
    return [(phi, p, chi) for (phi, p), chi in zip(fails, chis)], chis[-1]


@pytest.mark.filterwarnings("ignore::conflearn.learners.NonConvergenceWarning")
@pytest.mark.parametrize("base", list(_ROWS.values()), ids=list(_ROWS))
def test_check_updates_raise_the_first_asks_own_error(base, low_step_cap):
    # a batch that fails raises the error of its first ask that fails alone,
    # though a later ask fails too, with its own message: in the world set
    # the batch updates first (the simplex learners but bayes), or in the
    # same one, whose stacked penalty names the batch's first observation
    # (bayes), or whose count check comes before any step (the classifier)
    big, small = ("w0", "w1", "w2"), ("w0", "w1")
    rng = np.random.default_rng(7)
    learner = _rows_learner(base, big)
    if base.id.startswith("bayes"):
        fine = [_rows_instance(learner, rng, big) for _ in range(4)]
        (first, later), chi = _failing(learner, big)
        instances = [fine[0], first[:2], fine[1], later[:2]]
    else:
        (first, _), chi = _failing(learner, big)
        (_, later), _ = _failing(learner, small)
        instances = [_rows_instance(learner, rng, small), first[:2], _rows_instance(learner, rng, big), later[:2]]
    chis = [chi, first[2], chi, later[2]]
    errors = [_alone(learner, phi, c, p) for (phi, p), c in zip(instances, chis)]
    assert [isinstance(e, ConfLearnError) for e in errors] == [False, True, False, True]
    assert str(errors[1]) != str(errors[3])
    update = axioms._Updates(learner, instances)
    with pytest.raises(type(errors[1]), match=f"^{re.escape(str(errors[1]))}$"):
        update([(k, c, start) for k, (c, start) in enumerate(zip(chis, update.starts))])


def _l5_per_sample(learner, cfg, chk):
    """L5 as its per-sample loop ran it before the check's updates were batched."""
    for _ in range(cfg.samples):
        chi = axioms._draw_confidence(learner, chk.rng)
        chi2 = axioms._draw_confidence(learner, chk.rng)
        if (chi.is_top or chi2.is_top) and learner.sample_top_instance:
            phi, theta = learner.sample_top_instance(chk.rng)
        else:
            phi, theta = learner.sample_instance(chk.rng)
        pair = axioms._unless_truncated(lambda: (
            learner.observe(phi, chi, learner.observe(phi, chi2, theta)),
            learner.observe(phi, learner.domain.combine(chi, chi2), theta),
        ))
        if pair is None:
            continue
        chk.offer(belief_distance(*pair), phi=phi, theta=theta, chi_outer=chi, chi_inner=chi2)
    if not chk.offers:
        return chk.skip("no convergent instances sampled")
    return chk.report()


def _fc_per_sample(learner, cfg, chk):
    """FC as its per-sample loop ran it before the check's updates were batched."""
    top = learner.domain.top

    def twice(phi, theta):
        once = learner.observe(phi, top, theta)
        return learner.observe(phi, top, once), once

    for phi, theta in axioms._top_instances(learner, chk.rng, cfg.samples):
        pair = axioms._unless_truncated(twice, phi, theta)
        if pair is None:
            continue
        chk.offer(belief_distance(*pair), phi=phi, theta=theta)
    if not chk.offers:
        return chk.skip("no instance reached the full-confidence limit")
    return chk.report()


@pytest.mark.filterwarnings("ignore::conflearn.learners.NonConvergenceWarning")
@pytest.mark.parametrize("seed", range(3))
def test_l5_and_fc_skip_the_truncated_samples_the_per_sample_loops_skip(seed, low_step_cap):
    # half the classifier's top instances are plain ones, whose walk to top
    # stops at the cap of 64 steps: a batch that warns runs again one ask at
    # a time, and the samples with a truncated update are the loop's skips
    base = get_learner("classifier")
    learner = dataclasses.replace(base, sample_top_instance=lambda rng: (
        base.sample_top_instance if rng.uniform() < 0.5 else base.sample_instance)(rng))
    cfg = CheckConfig(seed=seed)
    for axiom_id, loop in (("L5", _l5_per_sample), ("FC", _fc_per_sample)):
        got, want = axioms._Check(learner, axiom_id, cfg), axioms._Check(learner, axiom_id, cfg)
        report = check_axiom(learner, axiom_id, cfg)
        assert report == axioms._CHECKERS[axiom_id](learner, cfg, got) == loop(learner, cfg, want)
        assert (got.value, got.witness, got.offers) == (want.value, want.witness, want.offers)
        assert 0 < want.offers < cfg.samples, (axiom_id, want.offers)


def test_check_updates_memo_keeps_two_instances_of_one_prior_apart():
    # L3's memo keys an update by its instance as well as by its start row's
    # value: two observations of one prior are two updates
    learner = get_learner("interp")
    p = FiniteSimplex(("w0", "w1", "w2"), np.array([0.2, 0.3, 0.5]))
    instances = [(EventSet(p.labels, 0b001), p), (EventSet(p.labels, 0b110), p)]
    update, chi = axioms._Updates(learner, instances, memo=True), learner.domain.value(0.5)
    got = update([(k, chi, start) for k, start in enumerate(update.starts)])
    assert got[0][0].tobytes() != got[1][0].tobytes()
    for (phi, theta), (row, _) in zip(instances, got):
        assert row.tobytes() == learner.observe(phi, chi, theta).probs.tobytes()
