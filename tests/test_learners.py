"""Update rules for the seven built-in learners and the list lift."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflearn import (
    BayesModel,
    FiniteSimplex,
    GaussianBelief,
    GradedBeliefTable,
    LabeledExample,
    NonConvergenceWarning,
    RandomVariable,
    SoftmaxModel,
    UnsupportedError,
    available_learners,
    bayes_observe,
    belief_distance,
    boltzmann_observe,
    class_log_probs,
    classifier_step_observe,
    condition,
    get_domain,
    get_learner,
    gradient_step,
    interp_observe,
    kalman_observe,
    kalman_observe_opt,
    lift_to_list,
    make_classifier_learner,
    optimal_gain,
    potential_to_likelihood,
    train_limit,
)

ADD = get_domain("add")
FRAC = get_domain("frac")


def tri(pa=0.5, pb=0.3, pc=0.2):
    return FiniteSimplex(("a", "b", "c"), np.array([pa, pb, pc]))


# ---------------------------------------------------------------------------
# Interpolation learner.


def test_interp_pinned_midpoint():
    p = tri()
    out = interp_observe(p.event(["a", "b"]), 0.5, p)
    assert np.allclose(out.probs, [0.5625, 0.3375, 0.1], atol=1e-15)


def test_interp_endpoints():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = FiniteSimplex(("a", "b", "c"), rng.dirichlet(np.ones(3)))
        a = p.event(["a", "c"])
        assert belief_distance(interp_observe(a, 0.0, p), p) == 0.0
        assert belief_distance(interp_observe(a, 1.0, p), condition(p, a)) <= 1e-15


def test_interp_accepts_domain_values():
    p = tri()
    a = p.event(["a"])
    out = interp_observe(a, FRAC.value(0.25), p)
    assert out.prob(a) == pytest.approx(0.5 + 0.25 * 0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Kalman learner.


def test_kalman_pinned():
    b = kalman_observe(10.0, (0.8, 1.0), GaussianBelief(0.0, 4.0))
    assert b.mean == pytest.approx(8.0, abs=1e-15)
    assert b.var == pytest.approx(0.8, abs=1e-15)


def test_kalman_bot_and_top():
    dom = get_domain("kalman")
    prior = GaussianBelief(1.0, 2.0)
    assert belief_distance(kalman_observe(5.0, dom.bot, prior), prior) == 0.0
    certain = kalman_observe(5.0, dom.top, prior)
    assert certain.mean == 5.0 and certain.var == 0.0


def test_kalman_optimal_gain_adds_precision():
    rng = np.random.default_rng(1)
    for _ in range(200):
        var, r2 = rng.uniform(0.1, 5.0, 2)
        z, x = rng.normal(size=2)
        out = kalman_observe_opt(z, r2, GaussianBelief(x, var))
        assert 1.0 / out.var == pytest.approx(1.0 / var + 1.0 / r2, rel=1e-10)
        k = optimal_gain(var, r2)
        manual = kalman_observe(z, (k, r2), GaussianBelief(x, var))
        assert belief_distance(out, manual) <= 1e-10


# ---------------------------------------------------------------------------
# Boltzmann learner.


def test_boltzmann_pinned_tempering():
    p = FiniteSimplex(("a", "b"), np.array([0.5, 0.5]))
    v = RandomVariable(("a", "b"), np.array([1.0, 0.0]))
    out = boltzmann_observe(v, math.log(2.0), p)
    assert np.allclose(out.probs, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_boltzmann_top_is_prior_weighted_argmin():
    p = tri()
    v = RandomVariable(("a", "b", "c"), np.array([2.0, 1.0, 1.0]))
    out = boltzmann_observe(v, ADD.top, p)
    assert np.allclose(out.probs, [0.0, 0.6, 0.4], atol=1e-15)


def test_boltzmann_zero_beta_is_identity():
    p = tri()
    v = RandomVariable(("a", "b", "c"), np.array([3.0, -1.0, 0.5]))
    assert belief_distance(boltzmann_observe(v, 0.0, p), p) == 0.0


def test_boltzmann_updates_commute():
    rng = np.random.default_rng(2)
    labels = ("a", "b", "c", "d")
    for _ in range(200):
        p = FiniteSimplex(labels, rng.dirichlet(np.ones(4)))
        u = RandomVariable(labels, rng.normal(size=4))
        v = RandomVariable(labels, rng.normal(size=4))
        b1, b2 = rng.uniform(0.1, 3.0, 2)
        lhs = boltzmann_observe(v, b2, boltzmann_observe(u, b1, p))
        rhs = boltzmann_observe(u, b1, boltzmann_observe(v, b2, p))
        assert belief_distance(lhs, rhs) <= 1e-12


# ---------------------------------------------------------------------------
# Bayes learner.


def test_bayes_pinned_posterior():
    m = BayesModel(("h1", "h2"), {"e": np.array([0.8, 0.2])})
    prior = FiniteSimplex(("h1", "h2"), np.array([0.5, 0.5]))
    out = bayes_observe(m, "e", prior)
    assert np.allclose(out.probs, [0.8, 0.2], atol=1e-12)


def test_bayes_powered_likelihood():
    m = BayesModel(("h1", "h2"), {"e": np.array([0.8, 0.2])})
    prior = FiniteSimplex(("h1", "h2"), np.array([0.5, 0.5]))
    learner = get_learner("bayes")
    # the default model is fixed; build one with the same table instead
    from conflearn import make_bayes_learner

    learner = make_bayes_learner(m)
    out = learner.observe("e", ADD.value(2.0), prior)
    expect = 0.64 / (0.64 + 0.04)
    assert out.probs[0] == pytest.approx(expect, abs=1e-12)


def test_potential_round_trip():
    m = potential_to_likelihood({"e": {"h1": 0.5, "h2": 1.5}}, ("h1", "h2"))
    assert np.allclose(m.likelihood["e"], np.exp([-0.5, -1.5]), atol=1e-15)


# ---------------------------------------------------------------------------
# Max-graded learner.


def test_max_graded_pinned():
    t = GradedBeliefTable({"x": 0.5})
    assert max_graded_value(t, "x", 0.75) == pytest.approx(0.75, abs=1e-15)
    assert max_graded_value(t, "x", 0.25) == pytest.approx(0.5, abs=1e-15)


def max_graded_value(t, key, chi):
    from conflearn import max_graded_observe

    return max_graded_observe(key, chi, t).grade(key)


def test_max_graded_translate_pinned():
    learner = get_learner("max-graded")
    t = GradedBeliefTable({"x": 0.5})
    chart = learner.translate("x", get_domain("max").value(0.75), t)
    assert chart == pytest.approx(math.log(2.0), abs=1e-12)


def test_max_graded_top_and_bot():
    t = GradedBeliefTable({"x": 0.4, "y": 0.2})
    dom = get_domain("max")
    assert max_graded_value(t, "x", dom.top) == 1.0
    out = get_learner("max-graded").observe("x", dom.bot, t)
    assert belief_distance(out, t) == 0.0
    assert out.grade("y") == 0.2


# ---------------------------------------------------------------------------
# Classifier learner.


def test_classifier_count_is_iterated_gradient_steps():
    model = SoftmaxModel(n_features=2, n_classes=2)
    theta = np.zeros(6)
    ex = LabeledExample(np.array([1.0, -0.5]), 1)
    manual = theta
    for _ in range(3):
        manual = gradient_step(model, manual, ex)
    out = classifier_step_observe(ex, 3, theta, model)
    assert np.array_equal(out, manual)


def test_classifier_step_matches_finite_difference():
    # one gradient step moves along -d(nll)/d(theta) scaled by eta
    model = SoftmaxModel(n_features=2, n_classes=2, eta=0.1)
    rng = np.random.default_rng(3)
    theta = rng.normal(size=6) * 0.3
    ex = LabeledExample(np.array([0.7, -1.2]), 0)

    def nll(t):
        return -class_log_probs(model, t, ex.x)[ex.y]

    h = 1e-6
    grad = np.array(
        [
            (nll(theta + h * e) - nll(theta - h * e)) / (2 * h)
            for e in np.eye(6)
        ]
    )
    stepped = gradient_step(model, theta, ex)
    assert np.allclose(stepped - theta, -model.eta * grad, atol=1e-8)


def test_classifier_training_improves_likelihood():
    model = SoftmaxModel(n_features=2, n_classes=3)
    rng = np.random.default_rng(4)
    theta = rng.normal(size=9) * 0.1
    ex = LabeledExample(np.array([0.5, 1.0]), 2)
    lp = class_log_probs(model, theta, ex.x)[2]
    for n in (1, 2, 4, 8):
        lp_n = class_log_probs(
            model, classifier_step_observe(ex, n, theta, model), ex.x
        )[2]
        assert lp_n >= lp
        lp = lp_n


def test_classifier_limit_converges_on_separable_input():
    model = SoftmaxModel(n_features=2, n_classes=2)
    theta = np.zeros(6)
    ex = LabeledExample(np.array([1500.0, -900.0]), 1)
    limit, converged = train_limit(model, theta, ex)
    assert converged
    assert class_log_probs(model, limit, ex.x)[1] == 0.0  # log 1
    again = classifier_step_observe(ex, 5, limit, model)
    assert np.array_equal(again, limit)  # exact fixed point


def test_classifier_warns_when_capped():
    model = SoftmaxModel(n_features=1, n_classes=2, max_steps=200)
    theta = np.zeros(4)
    ex = LabeledExample(np.array([0.3]), 0)
    with pytest.warns(NonConvergenceWarning):
        classifier_step_observe(ex, get_domain("count").top, theta, model)


def test_classifier_learner_registry_params():
    learner = make_classifier_learner(n_features=3, n_classes=4)
    phi, theta = learner.sample_instance(np.random.default_rng(5))
    assert theta.shape == (4 * 4,)
    assert learner.domain.id == "count"


# ---------------------------------------------------------------------------
# The sequential-combination law, every learner, many instances.


@pytest.mark.parametrize("learner_id", list(available_learners()))
def test_sequential_equals_combined(learner_id):
    learner = get_learner(learner_id)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(500):
        phi, theta = learner.sample_instance(rng)
        chi1 = learner.domain.sample(rng)
        chi2 = learner.domain.sample(rng)
        seq = learner.observe(phi, chi2, learner.observe(phi, chi1, theta))
        combined = learner.observe(phi, learner.domain.combine(chi2, chi1), theta)
        worst = max(worst, belief_distance(seq, combined))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# The list lift.


def test_lifted_observe_folds_in_order():
    base = get_learner("interp")
    lifted = lift_to_list(base)
    p = tri()
    a = p.event(["a", "b"])
    dom = lifted.domain
    chi = dom.value([FRAC.value(0.3), FRAC.value(0.6)])
    direct = interp_observe(a, 0.6, interp_observe(a, 0.3, p))
    assert belief_distance(lifted.observe(a, chi, p), direct) == 0.0


def test_lifted_l5_is_exact():
    base = get_learner("interp")
    lifted = lift_to_list(base)
    dom = lifted.domain
    rng = np.random.default_rng(7)
    for _ in range(200):
        phi, theta = lifted.sample_instance(rng)
        chi1 = lifted.domain.sample(rng)
        chi2 = lifted.domain.sample(rng)
        seq = lifted.observe(phi, chi2, lifted.observe(phi, chi1, theta))
        combined = lifted.observe(phi, dom.combine(chi2, chi1), theta)
        assert belief_distance(seq, combined) == 0.0


def test_lifted_top_collapse_consistent():
    # [c, top] collapses to [top]; the interp top update absorbs the tail
    base = get_learner("interp")
    lifted = lift_to_list(base)
    dom = lifted.domain
    p = tri()
    a = p.event(["a", "b"])
    collapsed = lifted.observe(a, dom.value([FRAC.value(0.5), FRAC.top]), p)
    assert belief_distance(collapsed, condition(p, a)) <= 1e-12


def test_kalman_lift_refused():
    with pytest.raises(UnsupportedError):
        lift_to_list(get_learner("kalman"))


def test_liftable_learners_marked():
    flags = {lid: get_learner(lid).top_absorbing for lid in available_learners()}
    assert flags["kalman"] is False
    assert all(v for k, v in flags.items() if k != "kalman")


# ---------------------------------------------------------------------------
# Property-based checks.


@settings(max_examples=150)
@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)
def test_interp_event_mass_monotone_in_alpha(a1, a2):
    p = tri()
    ev = p.event(["a", "b"])
    lo, hi = min(a1, a2), max(a1, a2)
    assert interp_observe(ev, hi, p).prob(ev) >= interp_observe(ev, lo, p).prob(
        ev
    ) - 1e-12


@settings(max_examples=150)
@given(
    st.floats(-5.0, 5.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 4.0, allow_nan=False),
)
def test_kalman_mean_between_prior_and_measurement(z, k, r2):
    prior = GaussianBelief(1.0, 2.0)
    out = kalman_observe(z, (k, r2), prior)
    lo, hi = min(1.0, z), max(1.0, z)
    assert lo - 1e-12 <= out.mean <= hi + 1e-12
