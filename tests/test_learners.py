"""Update rules for the seven built-in learners and the list lift."""

import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflearn import learners
from conflearn import (
    BayesModel,
    EventSet,
    FiniteSimplex,
    GaussianBelief,
    GradedBeliefTable,
    LabeledExample,
    MassFunction,
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
    optimal_gain,
    potential_to_likelihood,
    train_limit,
)
from conflearn.axioms import _seeded_rng, _top_instances
from conflearn.beliefs import jeffrey, normalize_probs
from conflearn.errors import ConfLearnError, NumericalError, ParameterError, StepBudgetError, ZeroMassEventError

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


def test_interp_map_is_the_mixture_with_jeffrey_on_one_event_or_several_disjoint_ones():
    # the one kernel of interp's updates on pairwise disjoint events: each
    # row has the bits its weight gets alone; on one event it is
    # interp_observe and the mixture with conditioning, on several the
    # mixture with Jeffrey's rule at the events' shares
    rng = np.random.default_rng(35)
    ws = [0.0, 5e-324, 0.3, math.nextafter(1.0, 0.0), 1.0]
    for k in (1, 1, 2, 3, 4) * 8:
        n = k + int(rng.integers(0, 12))
        labels = tuple(f"w{i}" for i in range(n))
        owner = np.concatenate([np.arange(k), rng.integers(0, k + 1, n - k)])  # k: no event
        rng.shuffle(owner)
        events = [EventSet(labels, int(sum(1 << i for i in np.flatnonzero(owner == j)))) for j in range(k)]
        shares = rng.dirichlet(np.ones(k)) if k > 1 else np.ones(1)
        p = FiniteSimplex(labels, rng.dirichlet(np.ones(n)))
        raw = learners._interp_map(events, shares, ws, labels)(p.probs)
        for w, row in zip(ws, raw):
            alone = learners._interp_map(events, shares, [w], labels)
            assert row.tobytes() == (p.probs if alone is None else alone(p.probs)).tobytes()
            got = p.probs if alone is None else normalize_probs(row)  # weight 0 is the identity
            if k == 1:
                assert got.tobytes() == interp_observe(events[0], w, p).probs.tobytes()
                ref = condition(p, events[0]).probs
            else:
                rest = EventSet(labels, events[0].full_mask & ~sum(a.mask for a in events))
                cells = events + ([rest] if rest.mask else [])
                ref = jeffrey(p, cells, [*shares, 0.0][: len(cells)]).probs
            assert np.max(np.abs(got - ((1.0 - w) * p.probs + w * ref))) <= 1e-15
    labels = ("a", "b", "c")
    p = FiniteSimplex(labels, np.array([0.5, 0.0, 0.5]))
    events = [EventSet(labels, 0b001), EventSet(labels, 0b010)]
    step = learners._interp_map(events, np.array([0.5, 0.5]), ws, labels)
    with pytest.raises(ZeroMassEventError, match=re.escape("cannot condition on {b} with mass 0")):
        step(p.probs)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_interp_event_over_other_worlds_raises_at_any_weight(alpha):
    # bot moves nothing, but an event over other worlds is still a mistake
    p = FiniteSimplex(("a", "b"), np.array([0.6, 0.4]))
    a = EventSet(("x", "y"), 1)
    learner = get_learner("interp")
    t = -math.log1p(-alpha)  # the additive time of weight alpha
    for update in (
        lambda: interp_observe(a, alpha, p),
        lambda: learner.coord_flow(((a, 1.0),), [t], p.labels),
        lambda: learner.make_flow(a)(t, p),
    ):
        with pytest.raises(ParameterError, match="event over a different world set"):
            update()


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


@pytest.mark.parametrize(
    "kind, belief",
    [
        ("simplex", FiniteSimplex(("a", "b"), np.array([0.4, 0.6]))),
        ("mass", MassFunction(("a", "b"), {1: 0.4, 3: 0.6})),
        ("graded", GradedBeliefTable({"a": 0.2})),
        ("params", np.array([0.3, -1.0])),
    ],
)
@pytest.mark.parametrize("confidence", ["bot", "finite", "top"])
def test_kalman_refuses_a_belief_of_another_kind(kind, belief, confidence):
    # top once returned a certain Gaussian and a finite gain a bare
    # AttributeError; in_domain once said True for any belief
    kalman, dom = get_learner("kalman"), get_domain("kalman")
    chi = {"bot": dom.bot, "finite": dom.value((0.5, 1.0)), "top": dom.top}[confidence]
    message = f"^learner 'kalman' updates gaussian beliefs, not {kind}$"
    with pytest.raises(ParameterError, match=message):
        kalman.observe(0.3, chi, belief)
    with pytest.raises(ParameterError, match=message):
        kalman.in_domain(0.3, belief)


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

    learner = get_learner("bayes", model=m)
    out = learner.observe("e", ADD.value(2.0), prior)
    expect = 0.64 / (0.64 + 0.04)
    assert out.probs[0] == pytest.approx(expect, abs=1e-12)


def test_potential_round_trip():
    m = potential_to_likelihood({"e": {"h1": 0.5, "h2": 1.5}}, ("h1", "h2"))
    assert np.allclose(m.likelihood["e"], np.exp([-0.5, -1.5]), atol=1e-15)


@pytest.mark.parametrize("table", [{"e": [0.1, 0.2]}, {"e": {"a": 0.1, "b": 0.2}}])
def test_potential_hypotheses_must_not_be_a_bare_string(table):
    # "ab" would read as the hypotheses a and b
    with pytest.raises(ParameterError, match="hypotheses must be a list of names, got 'ab'"):
        potential_to_likelihood(table, "ab")
    assert potential_to_likelihood(table, ["a", "b"]).hypotheses == ("a", "b")


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


@pytest.mark.parametrize("x", [1e200, math.nan])
def test_classifier_count_with_non_finite_parameters_raises(x):
    model = SoftmaxModel()
    ex = LabeledExample(np.array([x]), 0)
    with pytest.raises(NumericalError, match="after 2 gradient steps"):
        classifier_step_observe(ex, 2, np.zeros(4), model)
    learner = get_learner("classifier")
    theta = learner.observe(LabeledExample(np.array([1e200]), 0), 1, np.zeros(4))
    assert np.isfinite(theta).all()  # one step is finite; its logits overflow
    with pytest.raises(NumericalError):
        learner.bel(LabeledExample(np.array([1e200]), 0), theta)


def test_classifier_step_matches_finite_difference():
    # one gradient step moves along -d(nll)/d(theta) scaled by eta
    model = SoftmaxModel(n_features=2, n_classes=2)
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
    assert np.allclose(stepped - theta, -learners._ETA * grad, atol=1e-8)


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


def test_classifier_warns_when_capped(monkeypatch):
    monkeypatch.setattr(learners, "_MAX_GRADIENT_STEPS", 200)
    model = SoftmaxModel(n_features=1, n_classes=2)
    theta = np.zeros(4)
    ex = LabeledExample(np.array([0.3]), 0)
    with pytest.warns(NonConvergenceWarning):
        classifier_step_observe(ex, get_domain("count").top, theta, model)


def test_classifier_learner_registry_params():
    learner = get_learner("classifier", n_features=3, n_classes=4)
    phi, theta = learner.sample_instance(np.random.default_rng(5))
    assert theta.shape == (4 * 4,)
    assert learner.domain.id == "count"


# train_limit iterates the k logits; the loop it replaced stepped all of theta.


def ref_train_limit(model, theta, ex):
    """Gradient steps on theta until max|delta theta| < _CONV_TOL, as written
    before the loop moved to logit space."""
    k, d = model.n_classes, model.n_features
    theta = np.asarray(theta, dtype=float).copy()
    for _ in range(learners._MAX_GRADIENT_STEPS):
        logits = theta[: k * d].reshape(k, d) @ ex.x + theta[k * d:]
        logits = logits - logits.max()
        err = np.exp(logits - math.log(np.exp(logits).sum()))
        err[ex.y] -= 1.0
        delta = learners._ETA * np.concatenate([np.outer(err, ex.x).ravel(), err])
        if np.abs(delta).max() < learners._CONV_TOL:
            return theta, True
        theta = theta - delta
    return theta, False


def assert_same_limit(model, theta, ex):
    want, want_converged = ref_train_limit(model, theta, ex)
    got, converged = train_limit(model, theta, ex)
    assert converged == want_converged
    assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())
    return got, want


def test_classifier_limit_matches_theta_loop_on_the_suite_instances():
    # the 60 B3 instances of the axiom suite at CheckConfig(seed=0); one of
    # them takes about 4e5 steps to converge
    learner = get_learner("classifier")
    rng = _seeded_rng(0, "classifier", "B3")
    for ex, theta in _top_instances(learner, rng, 60):
        got, want = assert_same_limit(SoftmaxModel(), theta, ex)
        assert learner.bel(ex, got) == learner.bel(ex, want)


def test_classifier_limit_matches_theta_loop_on_random_models():
    rng = np.random.default_rng(0)
    converged = 0
    for _ in range(40):
        d, k = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        x = rng.normal(0.0, 1.0, d)
        if rng.uniform() < 0.5:
            cap = int(rng.choice([200, 5000]))
        else:  # separable: most of these reach the fixed point
            cap = 100_000
            x = x / np.linalg.norm(x) * rng.uniform(1200.0, 2000.0)
        model = SoftmaxModel(d, k)
        theta = rng.normal(0.0, 1.0, model.dim)
        ex = LabeledExample(x, int(rng.integers(k)))
        with mock.patch.object(learners, "_MAX_GRADIENT_STEPS", cap):
            converged += train_limit(model, theta, ex)[1]
            assert_same_limit(model, theta, ex)
    assert 0 < converged < 40  # both exits of the loop are compared


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=5),
    st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=4),
    st.floats(1e-6, 10.0),
)
def test_classifier_factored_stop_quantity_is_exact(err, x, eta):
    # train_limit's stop quantity against max|delta theta| of one step
    grad = np.concatenate([np.outer(err, x).ravel(), err])
    factored = eta * (max([abs(e) for e in err]) * max(1.0, float(np.abs(x).max())))
    assert factored == np.abs(eta * grad).max()


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan])


@st.composite
def _two_class_walks(draw):
    """The arguments train_limit passes its walk, from drawn parameters and
    features of two classes, with a drawn step size, tolerance and cap."""
    d = draw(st.integers(1, 3))
    x = np.array(draw(st.lists(st.floats(-2e3, 2e3) | st.sampled_from([0.0, 1e200]), min_size=d, max_size=d)))
    row = st.lists(st.floats(-5.0, 5.0) | _EDGE_FLOATS, min_size=d + 1, max_size=d + 1)
    r0 = draw(row)
    r1 = r0 if draw(st.booleans()) else draw(row)  # equal rows tie the logits
    w, b = np.array([r0[:d], r1[:d]]), np.array([r0[d], r1[d]])
    eta = draw(st.sampled_from([1e-3, 0.1, 0.5]))
    with np.errstate(over="ignore", invalid="ignore"):
        z0 = (w @ x + b).tolist()
        gain = eta * (float(x @ x) + 1.0)
    xmax = max(1.0, float(np.abs(x).max()))
    tol = draw(st.sampled_from([1e-9, 1e-4, 0.05]))
    max_steps = draw(st.integers(1, 300))  # both exits of the loop happen
    return z0, draw(st.integers(0, 1)), gain, eta, xmax, tol, max_steps


def _walk_bits(walk, args):
    try:
        s, converged = walk(*args)
    except NumericalError as exc:
        return str(exc)
    return np.array(s).tobytes(), converged


@settings(max_examples=400, deadline=None)
@given(_two_class_walks())
def test_classifier_two_class_scalars_match_the_k_list_loop(args):
    # train_limit walks two classes on scalars; the k-list walk is the reference
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _walk_bits(learners._logit_walk_2, args)
        want = _walk_bits(learners._logit_walk, args)
    assert got == want


def test_classifier_two_class_walk_is_bytewise_the_k_list_walk_on_the_b3_instances():
    # the walks of the 60 B3 instances at check seed 0; one takes about 4e5
    # steps, most of them with the shifted sum at 1.0
    walks, walk = [], learners._logit_walk_2

    def record(*args):
        walks.append(args)
        return walk(*args)

    rng = _seeded_rng(0, "classifier", "B3")
    with mock.patch.object(learners, "_logit_walk_2", record):
        for ex, theta in _top_instances(get_learner("classifier"), rng, 60):
            train_limit(SoftmaxModel(), theta, ex)
    assert len(walks) == 60
    for args in walks:
        assert _walk_bits(learners._logit_walk_2, args) == _walk_bits(learners._logit_walk, args)
    long = [args for args in walks if not learners._logit_walk_2(*args[:-1], 300_000)[1]]
    assert len(long) == 1 and learners._logit_walk_2(*long[0])[1]


@pytest.mark.parametrize("y", [0, 1])
@pytest.mark.parametrize("z0", [[1e308, -1e308], [-1.7e308, 1.7e308]])
def test_classifier_two_class_walk_keeps_finite_logits_whose_difference_overflows(z0, y):
    # lower - higher is -inf, yet both logits are finite: no error, and the
    # k-list walk's bits
    args = (z0, y, 0.2, 0.1, 1.0, 1e-9, 50)
    got = _walk_bits(learners._logit_walk_2, args)
    assert not isinstance(got, str)
    assert got == _walk_bits(learners._logit_walk, args)


def _assert_exact_cut(eta, xmax, tol, es=()):
    # the walk's stop test eta * (E * xmax) < tol is E <= cut, for E >= 0
    cut = learners._stop_cut(eta, xmax, tol)

    def stops(e):
        return eta * (e * xmax) < tol

    for e in es:
        assert (e <= cut) == stops(e)
    if cut >= 0.0:
        assert stops(cut) and not stops(math.nextafter(cut, math.inf))
    else:  # no E >= 0 stops
        assert cut == -1.0 and not stops(0.0)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from([1e-3, 0.1, 0.5]) | st.floats(1e-6, 10.0),
    st.sampled_from([1.0, 1251.731195526989, 1e200]) | st.floats(1.0, 1e200),
    st.sampled_from([1e-9, 1e-4, 0.05]) | st.floats(1e-300, 10.0),
    st.floats(0.0, 1.0),
)
def test_classifier_stop_cut_is_the_exact_threshold(eta, xmax, tol, e):
    _assert_exact_cut(eta, xmax, tol, [e])


@pytest.mark.parametrize(
    "eta, xmax, tol",
    [
        (10.0, 1.7976931348623157e308, 1e-9),  # eta * xmax overflows: bisected
        (0.1, 1e200, 1e-300),  # tol / (eta * xmax) underflows to 0
        (0.1, 1.0, 0.0),  # nothing stops
        (0.1, 1.0, math.nan),
        (0.0, 1.0, 1e-9),  # every finite E stops
        (0.1, math.inf, 1e-9),  # nothing stops: the walk raises at its first step
    ],
)
def test_classifier_stop_cut_at_the_ends_of_the_float_range(eta, xmax, tol):
    _assert_exact_cut(eta, xmax, tol, [0.0, 5e-324, 1e-300, 0.5, 1.0])


@pytest.mark.parametrize(
    "x, theta",
    [
        ([1e200], [0.0, 0.0, 0.0, 0.0]),  # the first step overflows the logits
        ([0.5], [math.nan, 0.0, 0.0, 0.0]),
        ([10.0], [-1e308, 0.0, 0.0, 0.0]),  # a logit of -inf
    ],
)
def test_classifier_limit_rejects_non_finite_logits(x, theta):
    model = SoftmaxModel(n_features=1, n_classes=2)
    with pytest.raises(NumericalError, match="non-finite logits"):
        train_limit(model, np.array(theta), LabeledExample(np.array(x), 0))


@pytest.mark.parametrize(
    "params",
    [
        {"n_features": 1.5},
        {"n_classes": 2.0},
        {"n_features": True},
        # the step size, tolerance and cap are constants: unknown keywords
        {"max_steps": 1e12},
        {"max_steps": 0},
        {"eta": math.inf},
        {"eta": math.nan},
        {"eta": "0.1"},
        {"conv_tol": -1.0},
        {"conv_tol": 0.0},
    ],
)
def test_softmax_model_rejects_bad_settings(params):
    shape = {"n_features", "n_classes"}
    with pytest.raises(ParameterError if set(params) <= shape else TypeError):
        SoftmaxModel(**params)


def test_classifier_settings_are_its_shape():
    assert [f.name for f in dataclasses.fields(SoftmaxModel)] == ["n_features", "n_classes"]
    for name in ("eta", "conv_tol", "max_steps"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            get_learner("classifier", **{name: 0.5})


def test_classifier_finite_count_is_bounded_by_max_steps(monkeypatch):
    monkeypatch.setattr(learners, "_MAX_GRADIENT_STEPS", 10)
    model = SoftmaxModel(n_features=1, n_classes=2)
    ex, theta = LabeledExample(np.array([0.3]), 0), np.zeros(4)
    assert classifier_step_observe(ex, 10, theta, model).shape == (4,)
    with pytest.raises(StepBudgetError):
        classifier_step_observe(ex, 11, theta, model)


# A count sweep walks one orbit of gradient steps; the per-point loop that it
# replaces in `learn` is the reference.  The classifier's `sweep` hook collects
# this walk's states (test_cli.py checks what `learn` writes from it).


COUNT = get_domain("count")


def outcomes(states):
    """The states an iterator yields, then the (type, message) of the error
    that ends it, if any, and the warnings raised on the way."""
    out = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out.extend(states)
        except (NumericalError, StepBudgetError) as exc:
            out.append((type(exc), str(exc)))
    return out, [(w.category, str(w.message)) for w in caught]


def assert_same_outcomes(got, want):
    (got, got_warned), (want, want_warned) = got, want
    assert len(got) == len(want) and got_warned == want_warned
    for a, b in zip(got, want):
        if isinstance(b, tuple):
            assert a == b
        else:
            assert np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(2, 4),
    st.floats(0.01, 1.0),
    st.integers(16, 200),
    st.data(),
)
def test_classifier_sweep_is_the_per_point_loop(d, k, eta, max_steps, data):
    model = SoftmaxModel(d, k)
    learner = get_learner("classifier", n_features=d, n_classes=k)
    # 1e200 overflows the logits after one step, so the states go non-finite
    coord = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([1e200, -1e200]))
    x = data.draw(st.lists(coord, min_size=d, max_size=d))
    theta = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=model.dim, max_size=model.dim)))
    ex = LabeledExample(np.array(x), data.draw(st.integers(0, k - 1)))
    entry = st.one_of(st.integers(1, 64), st.sampled_from([COUNT.bot, COUNT.top]))
    grid = data.draw(st.lists(entry, min_size=1, max_size=12))
    with mock.patch.object(learners, "_ETA", eta), mock.patch.object(learners, "_MAX_GRADIENT_STEPS", max_steps):
        assert_same_outcomes(
            outcomes(learners._classifier_sweep(ex, grid, theta, model)),
            outcomes(learner.observe(ex, chi, theta) for chi in grid),
        )


def counting_steps(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return gradient_step(*args)

    monkeypatch.setattr("conflearn.learners.gradient_step", counted)
    return calls


def test_classifier_sweep_costs_its_largest_count(monkeypatch):
    rng = np.random.default_rng(7)
    counts = [int(v) for v in rng.choice(np.arange(1, 128), 97, replace=False)] + [128]
    grid = [COUNT.bot] + list(rng.permutation(counts))
    learner = get_learner("classifier", n_features=2, n_classes=3)
    ex, theta = LabeledExample(np.array([0.4, -1.1]), 2), rng.normal(size=9)
    calls = counting_steps(monkeypatch)
    got, _, final = learner.sweep(ex, grid, theta)
    assert len(grid) == 99 and calls[0] == 128 and np.array_equal(final, got[-1])
    for chi, state in zip(grid, got):
        assert np.array_equal(state, learner.observe(ex, chi, theta))


def test_classifier_sweep_reports_the_first_failing_entry():
    ex, theta = LabeledExample(np.array([1e200]), 0), np.zeros(4)
    with pytest.raises(NumericalError, match="after 8 gradient steps"):
        list(learners._classifier_sweep(ex, [8, 2], theta, SoftmaxModel(1, 2)))
    with pytest.raises(NumericalError, match="after 2 gradient steps"):
        list(learners._classifier_sweep(ex, [1, 2, 8], theta, SoftmaxModel(1, 2)))


def test_classifier_sweep_walks_no_count_over_budget(monkeypatch):
    monkeypatch.setattr(learners, "_MAX_GRADIENT_STEPS", 10)
    learner = get_learner("classifier")
    ex, theta = LabeledExample(np.array([0.3]), 0), np.zeros(4)
    want = learner.observe(ex, 5, theta)
    calls = counting_steps(monkeypatch)
    states = learners._classifier_sweep(ex, [5, 11, 3], theta, SoftmaxModel(1, 2))
    assert np.array_equal(next(states), want)
    with pytest.raises(StepBudgetError, match="11 gradient steps exceed max_gradient_steps=10"):
        next(states)
    assert calls[0] <= 10


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


@pytest.mark.parametrize("lid", ["interp", "boltzmann", "bayes"])
def test_make_flow_is_the_one_coord_flow_defines(lid):
    # a learner given a coord_flow and no make_flow gets the one it defines
    learner = get_learner(lid)
    derived = dataclasses.replace(learner, make_flow=None)
    rng = np.random.default_rng(7)
    for _ in range(20):
        phi, p = learner.sample_instance(rng)
        for t in (0.0, 0.3, 2.5, math.inf):
            alpha = -math.expm1(-t) if lid == "interp" else t
            got = derived.make_flow(phi)(t, p)
            assert np.array_equal(got.probs, learner.observe(phi, alpha, p).probs)
    # an explicit make_flow wins, and no coord_flow leaves none
    explicit = derived.make_flow
    assert dataclasses.replace(learner, make_flow=explicit).make_flow is explicit
    assert dataclasses.replace(learner, make_flow=None, coord_flow=None).make_flow is None


def test_max_graded_make_flow_is_the_one_coord_flow_defines():
    # max-graded registers no make_flow: its flow is derived from coord_flow
    # on the table's coordinates, 1 - (1 - g) e^(-t) for the observed key
    learner = get_learner("max-graded")
    rng = np.random.default_rng(8)
    for _ in range(20):
        key, table = learner.sample_instance(rng)
        flow = learner.make_flow(key)
        assert flow(0.0, table).entries == table.entries  # the identity, bit for bit
        for t in (0.3, 2.5, 40.0, math.inf, get_domain("add").value(1.1)):
            s = get_domain("add").to_float(get_domain("add").coerce(t))
            expect = dict(table.entries)
            expect[key] = 1.0 - (1.0 - table.grade(key)) * math.exp(-s)
            assert flow(t, table).entries == expect
    with pytest.raises(ParameterError, match="unknown statement 'zz'"):
        learner.make_flow("zz")(1.0, table)


_BIG = 1.7e308  # past half the float range


@pytest.mark.parametrize(
    "lid, cases",
    [
        ("interp", [
            (EventSet(("a", "b", "c"), 0b011), (0.5, 0.3, 0.2)),
            (EventSet(("a", "b", "c"), 0b011), (0.0, 0.6, 0.4)),
            (EventSet(("a", "b", "c"), 0b011), (0.7, 0.0, 0.3)),
            (EventSet(("a", "b", "c"), 0b100), (0.5, 0.5, 0.0)),  # no mass: an error
        ]),
        ("boltzmann", [
            (RandomVariable(("a", "b", "c"), np.array([1.0, 0.0, -0.5])), (0.0, 0.6, 0.4)),
            (RandomVariable(("a", "b", "c"), np.array([_BIG, -_BIG, 0.5])), (0.5, 0.3, 0.2)),
            (RandomVariable(("a", "b", "c"), np.array([_BIG, -_BIG, 0.5])), (0.6, 0.0, 0.4)),
        ]),
        ("bayes", [("e", (0.5, 0.3, 0.2)), ("e", (0.0, 0.6, 0.4)), ("e", (1.0, 0.0, 0.0))]),
    ],
)
def test_one_belief_observe_is_its_coordinate_map_row_bytewise(lid, cases):
    # the one-belief update runs the coordinate map's kernel: at each
    # additive time t (interp observes at the weight 1 - e^(-t)) its state
    # has the bits of the row the one-term coord_flow gives (FiniteSimplex's
    # normalization, on rows), and fails with its error; the cases above,
    # then sampled instances
    if lid == "bayes":  # the observation rules a out; the last prior holds a alone
        learner = get_learner("bayes", model=BayesModel(("a", "b", "c"), {"e": [0.0, 0.5, 1.0]}))
    else:
        learner = get_learner(lid)
    instances = [(phi, FiniteSimplex(("a", "b", "c"), np.array(probs))) for phi, probs in cases]
    rng = np.random.default_rng(3)
    instances += [learner.sample_instance(rng) for _ in range(40)]
    for phi, p in instances:
        for t in (0.0, 0.3, 2.5, 40.0, math.inf):
            chi = -math.expm1(-t) if lid == "interp" else t
            try:
                step = learner.coord_flow(((phi, 1.0),), [t], p.labels)
                row = p.probs if step is None else normalize_probs(step(p.probs))
            except ConfLearnError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    learner.observe(phi, chi, p)
                continue
            assert learner.observe(phi, chi, p).probs.tobytes() == row.tobytes()
