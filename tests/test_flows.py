"""Derivative fields, gradients, integration, and interleaving."""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflearn.beliefs import MASS_EPS, normalize_probs
from conflearn.errors import StepBudgetError
from conflearn import flows
from conflearn.flows import _LIMIT_TOL, _check_tangent
from conflearn import (
    BayesModel,
    DomainError,
    EventSet,
    FiniteSimplex,
    GaussianBelief,
    GradedBeliefTable,
    IntegratorConfig,
    MassFunction,
    NoLimitError,
    NumericalError,
    ParameterError,
    RandomVariable,
    TangentVector,
    UnsupportedError,
    VectorFieldHandle,
    ZeroMassEventError,
    additive_form,
    belief_coords,
    belief_distance,
    belief_rebuild,
    boltzmann_observe,
    combine_fields,
    condition,
    coord_labels,
    derivative_field,
    ds_plaus_update,
    get_domain,
    get_learner,
    get_mutants,
    integrate,
    integrate_sampled,
    interp_observe,
    metric_gradient,
    natural_gradient,
    parallel_field,
    trotter_interleave,
)


def tri(pa=0.5, pb=0.3, pc=0.2):
    return FiniteSimplex(("a", "b", "c"), np.array([pa, pb, pc]))


# ---------------------------------------------------------------------------
# Derivative fields.


def test_interp_field_pinned():
    learner = get_learner("interp")
    p = tri()
    field = derivative_field(learner, p.event(["a", "b"]))
    v = field.eval_at(p)
    assert np.allclose(v.components, [0.125, 0.075, -0.2], atol=1e-8)


def test_boltzmann_field_pinned():
    learner = get_learner("boltzmann")
    p = FiniteSimplex(("a", "b"), np.array([0.5, 0.5]))
    v_pot = RandomVariable(("a", "b"), np.array([1.0, 0.0]))
    field = derivative_field(learner, v_pot)
    v = field.eval_at(p)
    assert np.allclose(v.components, [-0.25, 0.25], atol=1e-10)


def test_field_components_sum_to_zero_on_simplex():
    learner = get_learner("interp")
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = FiniteSimplex(("a", "b", "c", "d"), rng.dirichlet(np.ones(4)))
        field = derivative_field(learner, p.event(["a", "d"]))
        v = field.eval_at(p)
        assert abs(v.components.sum()) <= 1e-10


def test_field_outside_domain_raises():
    learner = get_learner("interp")
    p = FiniteSimplex(("a", "b"), np.array([1.0, 0.0]))
    field = derivative_field(learner, p.event(["b"]))
    with pytest.raises(DomainError):
        field.eval_at(p)


def test_field_unsupported_for_mass_beliefs():
    learner = get_learner("ds")
    p = tri()
    from conflearn import MassFunction

    field = derivative_field(learner, p.event(["a"]))
    with pytest.raises(UnsupportedError):
        field.eval_at(MassFunction.from_simplex(p))


def test_kalman_has_no_field_but_a_path_velocity():
    learner = get_learner("kalman")
    with pytest.raises(UnsupportedError):
        derivative_field(learner, 10.0)
    # the learner's gain-path velocity at K=0 with unit sensor noise:
    # d mean/dK = z - x = 10, d var/dK = -2 var = -8
    v = learner.path_velocity(10.0, GaussianBelief(0.0, 4.0), 1e-6)
    assert np.allclose(v, [10.0, -8.0], atol=1e-4)


# ---------------------------------------------------------------------------
# Tangent vectors and coordinates.


def test_tangent_vector_simplex_invariant():
    p = tri()
    TangentVector(p, np.array([0.1, -0.1, 0.0]))
    with pytest.raises(NumericalError):
        TangentVector(p, np.array([0.1, 0.1, 0.1]))
    with pytest.raises(NumericalError):
        TangentVector(p, np.array([math.nan, 0.0, 0.0]))


def test_coords_round_trip():
    cases = [
        tri(),
        GaussianBelief(1.0, 2.5),
        GradedBeliefTable({"x": 0.25, "y": 1.0}),
        np.array([0.5, -2.0, 3.0]),
    ]
    for b in cases:
        vec = belief_coords(b)
        assert len(vec) == len(coord_labels(b))
        assert belief_distance(belief_rebuild(b, vec), b) <= 1e-15


def test_rebuild_projects_back_to_simplex():
    p = tri()
    q = belief_rebuild(p, np.array([0.5, 0.4, -0.05]))
    assert q.probs.min() >= 0.0
    assert q.probs.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Gradients.


def test_natural_gradient_closed_form():
    # for f = log P(A) the natural gradient is the conditioning direction
    rng = np.random.default_rng(1)
    labels = ("a", "b", "c", "d")
    worst = 0.0
    for _ in range(1000):
        p = FiniteSimplex(labels, rng.dirichlet(np.full(4, 2.0)))
        if p.probs.min() < 1e-3:
            continue
        a = p.event(["a", "c"])
        g = natural_gradient(p, lambda q: math.log(q.prob(a)))
        expect = condition(p, a).probs - p.probs
        worst = max(worst, np.abs(g.components - expect).max())
    assert worst <= 1e-8


def test_natural_gradient_matches_interp_field():
    learner = get_learner("interp")
    p = tri()
    a = p.event(["a", "b"])
    field = derivative_field(learner, a)
    g = natural_gradient(p, lambda q: math.log(q.prob(a)))
    assert np.allclose(field.eval_at(p).components, g.components, atol=1e-7)


def test_natural_gradient_respects_boundary():
    p = FiniteSimplex(("a", "b", "c"), np.array([0.5, 0.5, 0.0]))
    g = natural_gradient(p, lambda q: math.log(q.prob(q.event(["a"]))))
    assert g.components[2] == 0.0
    assert abs(g.components.sum()) <= 1e-12


def test_metric_gradient_euclidean():
    b = GaussianBelief(2.0, 1.0)
    grad = metric_gradient(b, lambda g: -((g.mean - 5.0) ** 2) / 2.0, "euclidean")
    assert grad[0] == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize(
    "theta, slot",
    [(GradedBeliefTable({"x": 1.0}), 0), (GradedBeliefTable({"x": 0.0}), 0),
     (GaussianBelief(0.0, 0.0), 1)],
    ids=["grade-1", "grade-0", "variance-0"],
)
def test_metric_gradient_is_one_sided_where_the_rebuild_clamps(theta, slot):
    # the clamped side moves the coordinate by less than h: the quotient is
    # over the span the rebuilt coordinates cover, not 2h
    grad = metric_gradient(theta, lambda s: belief_coords(s)[slot], "euclidean")
    assert grad[slot] == pytest.approx(1.0, abs=1e-9)
    assert grad.size == 1 or grad[1 - slot] == 0.0


def test_metric_gradient_keeps_the_central_quotient_inside_the_bounds():
    def f(s):
        return math.sin(s.mean) + s.var ** 2

    b, h = GaussianBelief(0.5, 2.0), 1e-4
    grad = metric_gradient(b, f, "euclidean", h=h)
    c = belief_coords(b)
    for i, e in enumerate(np.eye(2) * h):
        ahead, behind = f(belief_rebuild(b, c + e)), f(belief_rebuild(b, c - e))
        assert grad[i] == (ahead - behind) / (2.0 * h)  # bit for bit


def _random_observation(lid, rng, labels):
    if lid == "interp":  # a nonempty proper event
        return EventSet(labels, int(rng.integers(1, 2 ** len(labels) - 1)))
    if lid == "boltzmann":
        return RandomVariable(labels, rng.normal(size=len(labels)))
    return ("e1", "e2", "e3")[int(rng.integers(3))]  # the default Bayes model's evidence


@pytest.mark.parametrize("lid", ["interp", "boltzmann", "bayes"])
def test_closed_fields_are_fisher_gradients_of_weighted_bel(lid):
    # each closed field is the Fisher gradient of the weighted sum of Bel:
    # Bayes is an optimizing learner with a linear-expectation loss
    learner = get_learner(lid)
    labels = ("h1", "h2", "h3") if lid == "bayes" else ("a", "b", "c", "d")
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = FiniteSimplex(labels, rng.dirichlet(np.full(len(labels), 2.0)))
        if p.probs.min() < 1e-2:
            continue
        terms = [
            (_random_observation(lid, rng, labels), float(rng.uniform(0.2, 3.0)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        field = combine_fields(
            [derivative_field(learner, phi) for phi, _ in terms], [w for _, w in terms]
        )
        grad = metric_gradient(
            p, lambda q: sum(w * learner.bel(phi, q) for phi, w in terms), "fisher"
        )
        assert np.abs(field(p).components - grad).max() <= 1e-7


def test_max_graded_field_is_the_euclidean_gradient_of_its_loss():
    # r (1 - c) is the euclidean gradient of -sum_k r_k (1 - c_k)^2 / 2
    learner = get_learner("max-graded")
    keys = ("phi1", "phi2", "phi3")
    rng = np.random.default_rng(4)
    for _ in range(30):
        table = GradedBeliefTable({k: float(rng.uniform(0.0, 0.95)) for k in keys})
        terms = [(keys[int(rng.integers(3))], float(rng.uniform(0.2, 3.0))) for _ in range(3)]
        rate = np.array([sum(w for key, w in terms if key == k) for k in keys])
        field = combine_fields(
            [derivative_field(learner, key) for key, _ in terms], [w for _, w in terms]
        )
        grad = metric_gradient(
            table, lambda q: -float((rate * (1.0 - belief_coords(q)) ** 2).sum()) / 2.0, "euclidean"
        )
        assert np.abs(field(table).components - grad).max() <= 1e-7


@pytest.mark.parametrize(
    "theta",
    [GaussianBelief(0.0, 1.0), GradedBeliefTable({"x": 0.5}), np.array([0.5, 0.5])],
    ids=["gaussian", "graded", "params"],
)
def test_fisher_metric_needs_a_simplex(theta):
    with pytest.raises(UnsupportedError, match="simplex"):
        metric_gradient(theta, lambda s: 0.0, "fisher")


@pytest.mark.parametrize(
    "metric, h",
    [("fisher", 1.0), ("fisher", 1.5), ("fisher", 0.0), ("fisher", math.nan),
     ("euclidean", -1e-4), ("euclidean", math.inf)],
)
def test_metric_gradient_rejects_a_step_out_of_range(metric, h):
    # a Fisher step of h >= 1 would leave the simplex, and the rebuild would clip it
    with pytest.raises(ParameterError, match="step h must lie in"):
        metric_gradient(tri(), lambda q: float(q.probs[0]), metric, h=h)


def test_field_handles_fix_their_space_at_the_first_evaluation():
    from conflearn import get_mutants

    (euclid,) = [m for m in get_mutants() if m.id == "mutant-lb-euclid"]
    p, other = tri(), FiniteSimplex(("x", "y", "z"), np.array([0.5, 0.3, 0.2]))
    a = p.event(["a"])
    rv = RandomVariable(p.labels, np.array([1.0, 0.0, -0.5]))
    interp = get_learner("interp")
    handles = [
        derivative_field(interp, a),  # closed
        derivative_field(euclid, rv),  # finite differences
        combine_fields([derivative_field(interp, a), derivative_field(interp, a.complement())]),
        combine_fields([derivative_field(euclid, rv), derivative_field(interp, a)]),
    ]
    for field in handles:
        assert field.space is None
        field(p)
        assert field.space == ("simplex", p.labels)
        with pytest.raises(ParameterError, match="evaluated on a different belief space"):
            field(other)
    # a handle with neither eval_at nor a coordinate map is refused when built
    with pytest.raises(ParameterError, match="needs eval_at or a coordinate map"):
        VectorFieldHandle("empty", None, None)


# ---------------------------------------------------------------------------
# Parallel combination.


def test_parallel_contradiction_field_pinned():
    learner = get_learner("interp")
    p = FiniteSimplex(("a", "b", "c"), np.array([0.8, 0.1, 0.1]))
    a = p.event(["a"])
    f = combine_fields(
        [derivative_field(learner, a), derivative_field(learner, a.complement())]
    )
    v = f.eval_at(p)
    assert np.allclose(v.components, [-0.6, 0.3, 0.3], atol=1e-8)


def test_parallel_field_matches_weighted_sum():
    learner = get_learner("interp")
    p = tri()
    a = p.event(["a"])
    b = p.event(["b", "c"])
    par = parallel_field(learner, ((a, 0.25), (b, 0.75)))
    direct = combine_fields(
        [derivative_field(learner, a), derivative_field(learner, b)], [0.25, 0.75]
    )
    assert np.allclose(
        par.eval_at(p).components, direct.eval_at(p).components, atol=1e-12
    )


def test_combine_fields_rejects_bad_weights():
    learner = get_learner("interp")
    p = tri()
    f = derivative_field(learner, p.event(["a"]))
    with pytest.raises(ParameterError):
        combine_fields([f], [-1.0])
    with pytest.raises(ParameterError):
        combine_fields([f], [1.0, 2.0])
    with pytest.raises(ParameterError):
        combine_fields([f], [True])  # a JSON boolean is not a weight
    with pytest.raises(ParameterError):
        parallel_field(learner, ())


# ---------------------------------------------------------------------------
# Integration.


def test_integrate_to_limit_reaches_conditional():
    learner = get_learner("interp")
    p = tri()
    a = p.event(["a", "b"])
    field = derivative_field(learner, a)
    out = integrate(field, p, math.inf)
    assert belief_distance(out, condition(p, a)) <= 1e-6


def test_parallel_contradiction_limit_pinned():
    learner = get_learner("interp")
    p = FiniteSimplex(("a", "b", "c"), np.array([0.8, 0.1, 0.1]))
    a = p.event(["a"])
    field = combine_fields(
        [derivative_field(learner, a), derivative_field(learner, a.complement())]
    )
    for handle in (field, _stepped(field)):  # the exact flow, and RK4 of the same field
        out = integrate(handle, p, math.inf)
        assert np.allclose(out.probs, [0.5, 0.25, 0.25], atol=1e-6)


def test_integrate_accepts_add_domain_time():
    from conflearn import get_domain

    learner = get_learner("interp")
    p = tri()
    a = p.event(["a", "b"])
    field = derivative_field(learner, a)
    t_val = get_domain("add").value(0.7)
    assert belief_distance(
        integrate(field, p, t_val), integrate(field, p, 0.7)
    ) == 0.0


def test_integrated_flow_matches_observe():
    # integrating the interp field for time t equals observe at chi = 1-e^-t
    learner = get_learner("interp")
    p = tri()
    a = p.event(["a", "b"])
    field = derivative_field(learner, a)
    for t in (0.25, 1.0, 2.5):
        flowed = integrate(field, p, t)
        alpha = -math.expm1(-t)
        assert belief_distance(flowed, interp_observe(a, alpha, p)) <= 1e-8


def test_flow_semigroup_property():
    learner = get_learner("interp")
    p = tri()
    a = p.event(["a", "c"])
    field = derivative_field(learner, a)
    two_legs = integrate(field, integrate(field, p, 0.6), 0.9)
    one_leg = integrate(field, p, 1.5)
    assert belief_distance(two_legs, one_leg) <= 1e-8


def test_integrate_sampled_rows_and_monotone_bel():
    learner = get_learner("interp")
    p = tri()
    a = p.event(["a", "b"])
    field = derivative_field(learner, a)
    final, record = integrate_sampled(field, p, 2.0, step_out=0.5)
    assert len(record.rows) == 5  # t = 0, 0.5, 1.0, 1.5, 2.0
    assert record.columns[0] == "t"
    bels = [math.log(row[1] + row[2]) for row in record.rows]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bels, bels[1:]))
    text = record.to_csv_text()
    assert text.splitlines()[0] == "t,a,b,c"
    assert belief_distance(final, integrate(field, p, 2.0)) == 0.0


def test_integrate_sampled_to_the_limit_holds_start_and_limit():
    learner = get_learner("interp")
    p = FiniteSimplex(("a", "b", "c"), np.array([0.8, 0.1, 0.1]))
    a = p.event(["a"])
    field = combine_fields(
        [derivative_field(learner, a), derivative_field(learner, a.complement())]
    )
    final, record = integrate_sampled(field, p, math.inf)
    limit = integrate(field, p, math.inf)
    assert record.columns == ("t", "a", "b", "c")
    assert len(record.rows) == 2
    assert record.rows[0] == (0.0,) + tuple(p.probs)
    assert record.rows[1][0] == math.inf
    assert np.array_equal(np.array(record.rows[1][1:]), belief_coords(limit))
    assert np.array_equal(final.probs, limit.probs)
    assert record.to_csv_text().splitlines()[2].startswith("inf,")


@pytest.mark.parametrize("step_out", [math.inf, math.nan])
def test_integrate_sampled_rejects_bad_step_out(step_out):
    field = derivative_field(get_learner("interp"), tri().event(["a"]))
    with pytest.raises(ParameterError, match="step_out"):
        integrate_sampled(field, tri(), 1.0, step_out=step_out)


def test_integrator_rejects_bad_settings():
    with pytest.raises(ParameterError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ParameterError):
        IntegratorConfig(step=math.inf)
    with pytest.raises(ParameterError):
        IntegratorConfig(step=True)
    for step in ("x", None, [1]):  # refused by type, before any comparison
        with pytest.raises(ParameterError, match="^step must be positive and finite$"):
            IntegratorConfig(step=step)
    # RK4 is the one stepper; the limit's tolerance, time cap and the step
    # budget are constants
    for setting in ("scheme", "t_max", "limit_tol", "max_steps"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{setting}'"):
            IntegratorConfig(**{setting: 1.0})


def test_no_limit_error_for_drifting_field(monkeypatch):
    drift = VectorFieldHandle(
        "drift",
        ("gaussian",),
        lambda b: TangentVector(b, np.array([1.0, 0.0])),
    )
    monkeypatch.setattr(flows, "_MAX_STEPS", 500)
    with pytest.raises(NoLimitError, match="within 500 steps"):
        integrate(drift, GaussianBelief(0.0, 1.0), math.inf, IntegratorConfig(step=0.1))


# ---------------------------------------------------------------------------
# Additive form.


def test_additive_form_reproduces_observe():
    learner = get_learner("interp")
    p = tri()
    a = p.event(["a", "b"])
    flow, g = additive_form(learner, a)
    assert g(0.5, p) == pytest.approx(math.log(2.0), abs=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(200):
        q = FiniteSimplex(("a", "b", "c"), rng.dirichlet(np.ones(3)))
        chi = rng.uniform(0.0, 0.99)
        assert belief_distance(
            flow(g(chi, q), q), interp_observe(a, chi, q)
        ) <= 1e-10


def test_additive_form_max_graded():
    from conflearn import GradedBeliefTable, max_graded_observe

    learner = get_learner("max-graded")
    flow, g = additive_form(learner, "x")
    rng = np.random.default_rng(3)
    for _ in range(200):
        t0 = GradedBeliefTable({"x": rng.uniform(0.0, 0.95)})
        chi = rng.uniform(0.0, 0.99)
        assert belief_distance(
            flow(g(chi, t0), t0), max_graded_observe("x", chi, t0)
        ) <= 1e-10


def test_additive_form_max_graded_keeps_the_bits_of_observe():
    # where chi <= the grade the translation is time 0, whose flow is the
    # identity: the grade keeps its bits (0.1 used to come back as
    # 0.09999999999999998); at top both give grade 1.  Elsewhere the
    # translation's log and the flow's exp round within one ulp of 1.
    learner = get_learner("max-graded")
    flow, g = additive_form(learner, "x")
    for grade in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        table = GradedBeliefTable({"w": 0.4, "x": grade})
        for chi in np.linspace(0.0, 1.0, 21):
            got, want = flow(g(chi, table), table), learner.observe("x", chi, table)
            if chi <= grade or chi == 1.0:
                assert got.entries == want.entries
            else:
                assert got.entries["w"] == 0.4
                assert abs(got.grade("x") - want.grade("x")) <= 2.0**-52


# ---------------------------------------------------------------------------
# Trotter interleaving.


def test_trotter_single_round_is_sequential():
    learner = get_learner("interp")
    p = tri()
    a = p.event(["a", "b"])
    b = p.event(["b", "c"])
    flow_a = learner.make_flow(a)
    flow_b = learner.make_flow(b)
    direct = flow_b(1.5, flow_a(1.5, p))
    # the interp walk runs on cell masses: within round-off of the flows' bits
    assert np.abs(trotter_interleave(learner, a, b, 1.5, 1, p).probs - direct.probs).max() <= 1e-14


def test_trotter_error_halves():
    learner = get_learner("interp")
    p = FiniteSimplex(("a", "b", "c", "d"), np.array([0.5, 0.2, 0.2, 0.1]))
    a = p.event(["a", "b"])
    b = p.event(["b", "c"])
    chi = 1.5
    field = combine_fields(
        [derivative_field(learner, a), derivative_field(learner, b)]
    )
    reference = integrate(field, p, chi)
    dist = {
        n: belief_distance(trotter_interleave(learner, a, b, chi, n, p), reference)
        for n in (64, 128, 256)
    }
    assert 0.3 <= dist[128] / dist[64] <= 0.7
    assert 0.3 <= dist[256] / dist[128] <= 0.7


def test_trotter_commuting_is_exact():
    learner = get_learner("interp")
    p = tri()
    a = p.event(["a", "b"])
    flow_a = learner.make_flow(a)
    out = trotter_interleave(learner, a, a, 0.8, 1, p)
    assert belief_distance(out, flow_a(1.6, p)) <= 1e-12


@pytest.mark.parametrize("n", [10**9, (6_000_000, 5_000_000, 6_000_000)])
def test_trotter_rounds_over_the_budget_raise_before_any_round(n):
    # the budget is flows._MAX_STEPS rounds over the distinct counts
    def no_round(*args):
        raise AssertionError("a round ran")

    learner = dataclasses.replace(get_learner("interp"), make_flow=no_round, coord_flow=no_round)
    p = tri()
    a, b = p.event(["a", "b"]), p.event(["b", "c"])
    with pytest.raises(StepBudgetError, match=f"more than max_steps={flows._MAX_STEPS}"):
        trotter_interleave(learner, a, b, 1.5, n, p)


@pytest.mark.parametrize("n", [math.nan, np.float64("nan"), (3, math.nan), 2.5, 0], ids=repr)
def test_trotter_round_count_that_is_no_positive_integer_is_a_parameter_error(n):
    # NaN is refused like 2.5, with no ValueError from int(nan)
    learner, p = get_learner("interp"), tri()
    with pytest.raises(ParameterError, match="n must be a positive integer"):
        trotter_interleave(learner, p.event(["a", "b"]), p.event(["b", "c"]), 1.5, n, p)


# ---------------------------------------------------------------------------
# The array kernel against the object path, and its step budget.


def _object_rk4(field, theta, h):
    """One RK4 step that builds a belief at every stage (the reference)."""
    c0 = belief_coords(theta)
    k1 = field(theta).components
    k2 = field(belief_rebuild(theta, c0 + 0.5 * h * k1)).components
    k3 = field(belief_rebuild(theta, c0 + 0.5 * h * k2)).components
    k4 = field(belief_rebuild(theta, c0 + h * k3)).components
    return belief_rebuild(theta, c0 + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def _mixed_field():
    labels = ("a", "b", "c", "d")
    model = BayesModel(labels, {"e": np.array([0.7, 0.2, 0.5, 0.1])})
    p = FiniteSimplex(labels, np.array([0.1, 0.4, 0.3, 0.2]))
    field = combine_fields(
        [
            derivative_field(get_learner("boltzmann"), RandomVariable(labels, np.array([0.3, -0.2, 1.1, 0.4]))),
            derivative_field(get_learner("bayes", model=model), "e"),
            derivative_field(get_learner("interp"), p.event(["a", "c"])),
        ],
        [0.8, 1.3, 0.6],
    )
    return field, p


def test_kernel_matches_object_path_at_finite_time(monkeypatch):
    field, p = _mixed_field()
    monkeypatch.setattr(flows, "_MAX_STEPS", 192)
    cfg = IntegratorConfig(step=2.0 ** -7)  # 1.5 = 192 whole steps, the whole budget
    ref = p
    for _ in range(192):
        ref = _object_rk4(field, ref, cfg.step)
    assert np.array_equal(integrate(field, p, 1.5, cfg).probs, ref.probs)


def test_kernel_matches_object_path_to_the_limit():
    field, p = _mixed_field()
    cfg = IntegratorConfig(step=0.01)
    ref, quiet = p, 0
    for _ in range(100_000):
        ref = _object_rk4(field, ref, cfg.step)
        quiet = quiet + 1 if np.abs(field(ref).components).max() < _LIMIT_TOL else 0
        if quiet == 10:
            break
    assert quiet == 10
    assert np.array_equal(integrate(field, p, math.inf, cfg).probs, ref.probs)


def test_kernel_matches_object_path_without_closed_fields():
    # a finite-difference field and a plain handle both rebuild beliefs
    from conflearn import get_mutants

    (euclid,) = [m for m in get_mutants() if m.id == "mutant-lb-euclid"]
    rng = np.random.default_rng(0)
    cfg = IntegratorConfig(step=2.0 ** -6)
    for _ in range(8):
        n = int(rng.integers(3, 7))
        labels = tuple("abcdef"[:n])
        p = FiniteSimplex(labels, rng.dirichlet(np.ones(n)))
        target = rng.dirichlet(np.ones(n))
        pull = VectorFieldHandle(
            "pull", ("simplex", labels), lambda q: TangentVector(q, target - q.probs)
        )
        rv = RandomVariable(labels, rng.normal(size=n))
        for field in (pull, combine_fields([derivative_field(euclid, rv), pull], [1.7, 0.6])):
            ref = p
            for _ in range(64):
                ref = _object_rk4(field, ref, cfg.step)
            assert np.array_equal(integrate(field, p, 1.0, cfg).probs, ref.probs)


def _count_simplexes(monkeypatch) -> list:
    """A list that gains one entry per FiniteSimplex built from now on."""
    built = []
    init = FiniteSimplex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteSimplex, "__init__", counting_init)
    return built


def test_finite_integration_builds_few_simplexes(monkeypatch):
    field, p = _mixed_field()
    built = _count_simplexes(monkeypatch)
    integrate(field, p, 1.0, IntegratorConfig(step=0.01))  # 100 steps
    assert len(built) <= 3


def test_finite_integration_honours_max_steps(monkeypatch):
    evals = []
    drift = VectorFieldHandle(
        "drift",
        ("gaussian",),
        lambda b: evals.append(b) or TangentVector(b, np.array([1.0, 0.0])),
    )
    g = GaussianBelief(0.0, 1.0)
    monkeypatch.setattr(flows, "_MAX_STEPS", 5)
    with pytest.raises(StepBudgetError, match="max_steps=5 steps"):
        integrate(drift, g, 1.0, IntegratorConfig(step=1e-9))
    assert not evals  # rejected before the first step
    # the budget spans every sample interval: 4 x 25 steps, each under 60
    cfg = IntegratorConfig(step=0.01)
    monkeypatch.setattr(flows, "_MAX_STEPS", 60)
    with pytest.raises(StepBudgetError, match="max_steps=60 steps"):
        integrate_sampled(drift, g, 1.0, cfg, step_out=0.25)
    assert not evals
    monkeypatch.setattr(flows, "_MAX_STEPS", 110)
    final, _ = integrate_sampled(drift, g, 1.0, cfg, step_out=0.25)
    assert final.mean == pytest.approx(1.0)


def test_one_step_budget_bounds_every_path(monkeypatch):
    # flows._MAX_STEPS is the one budget: lowered to 20, each bounded path refuses
    monkeypatch.setattr(flows, "_MAX_STEPS", 20)
    p, interp = tri(), get_learner("interp")
    exact, _, _ = _tilt_on_tri("exact")
    stepped = VectorFieldHandle(exact.label, None, exact.eval_at)
    # a sampled record: six rows of four numbers
    with pytest.raises(StepBudgetError, match="^t=1 sampled every 0.2 records more than max_steps=20 numbers$"):
        integrate_sampled(exact, p, 1.0, step_out=0.2)
    # finite-time RK4 steps: 100 steps of 0.01
    with pytest.raises(StepBudgetError, match="^t=1 takes more than max_steps=20 steps of 0.01$"):
        integrate(stepped, p, 1.0, IntegratorConfig(step=0.01))
    # the cap of a run to the limit
    drift = VectorFieldHandle("drift", ("gaussian",), lambda b: TangentVector(b, np.array([1.0, 0.0])))
    with pytest.raises(NoLimitError, match="within 20 steps"):
        integrate(drift, GaussianBelief(0.0, 1.0), math.inf, IntegratorConfig(step=0.1))
    # the tilt flow of overlapping events, steps of at most 2 / W = 1: its
    # tries at t = 20, and its steps up front at t = 21, whatever the config
    a, b = p.event(["a", "b"]), p.event(["b", "c"])
    tilt = combine_fields([derivative_field(interp, a), derivative_field(interp, b)])
    with pytest.raises(StepBudgetError, match="^t=20 takes more than max_steps=20 steps$"):
        integrate(tilt, p, 20.0, IntegratorConfig(step=1e-6))
    with pytest.raises(StepBudgetError, match="^t=21 takes more than max_steps=20 steps of at most 1$"):
        integrate(tilt, p, 21.0)
    # interleaving rounds over the distinct counts, and the trotter reference's check
    assert len(trotter_interleave(interp, a, b, 1.5, (8, 12, 8), p)) == 3
    for call in (trotter_interleave, flows._trotter_errors):
        with pytest.raises(StepBudgetError, match="^interleaving takes 21 rounds, more than max_steps=20$"):
            call(interp, a, b, 1.5, (8, 13), p)


# ---------------------------------------------------------------------------
# The interleaving kernel against flows composed on belief objects.


def _object_interp_flow(a):
    """The interpolation flow written on belief objects (the reference)."""

    def flow(t, p):
        w = -math.expm1(-t)
        cond = condition(p, a)
        return p.with_probs((1.0 - w) * np.asarray(p.probs) + w * np.asarray(cond.probs))

    return flow


def _object_boltzmann_flow(v):
    """Boltzmann reweighting written on belief objects (the reference)."""

    def flow(t, p):
        pr = np.asarray(p.probs)
        supp = pr > 0.0
        logw = np.log(pr[supp]) - t * np.asarray(v.values)[supp]
        w = np.zeros_like(pr)
        w[supp] = np.exp(logw - logw.max())
        return p.with_probs(w)

    return flow


def _outcome(run):
    try:
        return run().probs.tobytes()  # bytes: the sign of a zero counts too
    except Exception as exc:  # both paths must raise the same error type
        return type(exc)


def _probs_or_type(run):
    """The probabilities of each state, or the error's type."""
    try:
        return [np.asarray(s.probs) for s in run()]
    except Exception as exc:
        return type(exc)


def _assert_close_outcomes(got, expect, tol=1e-14):
    """The interp walk runs on cell masses, not on the object path's per-world
    vectors: the same error type, or states within tol of each other."""
    if isinstance(got, type) or isinstance(expect, type):
        assert got == expect
        return
    assert len(got) == len(expect)
    assert max(float(np.abs(g - e).max()) for g, e in zip(got, expect)) <= tol


@pytest.mark.parametrize("n", [1, 7, 256])
def test_trotter_kernel_matches_object_path(n):
    rng = np.random.default_rng(n)
    interp, boltzmann = get_learner("interp"), get_learner("boltzmann")
    for _ in range(6):
        k = int(rng.integers(2, 7))
        labels = tuple("abcdef"[:k])
        probs = rng.dirichlet(np.ones(k))
        probs[int(rng.integers(k))] *= rng.integers(2)  # a world without mass, or not
        p = FiniteSimplex(labels, probs)
        events = [EventSet(labels, int(rng.integers(1, 2**k))) for _ in range(2)]
        values = [RandomVariable(labels, rng.normal(size=k)) for _ in range(2)]
        chi = float(rng.uniform(0.2, 3.0))
        for learner, phis, reference in (
            (interp, events, _object_interp_flow),
            (boltzmann, values, _object_boltzmann_flow),
        ):
            flow1, flow2 = (reference(phi) for phi in phis)

            def composed():
                theta = p
                for _ in range(n):
                    theta = flow2(chi / n, flow1(chi / n, theta))
                return theta

            if learner is interp:
                _assert_close_outcomes(
                    _probs_or_type(lambda: [trotter_interleave(learner, *phis, chi, n, p)]),
                    _probs_or_type(lambda: [composed()]),
                )
                continue
            expect = _outcome(composed)
            assert _outcome(lambda: trotter_interleave(learner, *phis, chi, n, p)) == expect


def test_trotter_ds_composes_flows_on_mass_functions():
    labels = ("a", "b", "c")
    m = MassFunction(labels, {0b001: 0.3, 0b110: 0.5, 0b111: 0.2})
    a, b = EventSet(labels, 0b011), EventSet(labels, 0b110)
    chi, n = 1.3, 7
    alpha = -math.expm1(-chi / n)
    expect = m
    for _ in range(n):
        expect = ds_plaus_update(ds_plaus_update(expect, a, alpha), b, alpha)
    got = trotter_interleave(get_learner("ds"), a, b, chi, n, m)
    assert got.masses == expect.masses


def test_trotter_builds_one_simplex(monkeypatch):
    p = FiniteSimplex(("a", "b", "c", "d"), np.array([0.5, 0.2, 0.2, 0.1]))
    a, b = p.event(["a", "b"]), p.event(["b", "c"])
    built = _count_simplexes(monkeypatch)
    trotter_interleave(get_learner("interp"), a, b, 1.5, 512, p)
    assert len(built) <= 3
    built.clear()
    counts = (512, 3, 64, 7)
    states = trotter_interleave(get_learner("interp"), a, b, 1.5, counts, p)
    assert len(states) == len(counts)
    assert len(built) <= len(counts) + 2


def test_trotter_walks_every_count_in_one_pass():
    # one walk steps max(n) rounds of two updates, however many counts it serves
    phis = (RandomVariable(("a", "b", "c"), np.array([1.0, 0.0, -0.5])),
            RandomVariable(("a", "b", "c"), np.array([-0.3, 0.7, 0.2])))
    learner = get_learner("boltzmann")
    steps = []

    def coord_flow(terms, ts, labels):
        step = learner.coord_flow(terms, ts, labels)
        return lambda c: (steps.append(len(c)), step(c))[1]

    counting = dataclasses.replace(learner, coord_flow=coord_flow)
    p = tri()
    counts = (40, 7, 13, 7, 1)
    states = trotter_interleave(counting, *phis, 1.2, counts, p)
    assert len(steps) == 2 * max(counts)
    assert sum(steps) == 2 * sum(set(counts))  # each row leaves after its rounds
    assert [s.probs.tobytes() for s in states] == [
        trotter_interleave(learner, *phis, 1.2, n, p).probs.tobytes() for n in counts
    ]


def test_interp_trotter_walks_cell_masses_and_builds_one_simplex_per_count(monkeypatch):
    # interp interleaves through its own walk: no coordinate flow is bound
    # or stepped, and each distinct count builds one simplex, the end state
    interp = get_learner("interp")
    calls = []

    def coord_flow(terms, ts, labels):
        calls.append(ts)
        return interp.coord_flow(terms, ts, labels)

    counting = dataclasses.replace(interp, coord_flow=coord_flow, make_flow=None)
    p = FiniteSimplex(("a", "b", "c", "d"), np.array([0.5, 0.2, 0.2, 0.1]))
    a, b = p.event(["a", "b"]), p.event(["b", "c"])
    counts = (40, 7, 13, 7, 1)
    built = _count_simplexes(monkeypatch)
    states = trotter_interleave(counting, a, b, 1.2, counts, p)
    assert not calls
    assert len(built) == len(set(counts))
    assert [s.probs.tobytes() for s in states] == [
        trotter_interleave(interp, a, b, 1.2, n, p).probs.tobytes() for n in counts
    ]


def test_interp_mutants_keep_the_object_path():
    # a mutant's corrupted observe has no flow: it must not reach the honest
    # interp walk, and interleaving it is unsupported, as before the walk
    p = tri()
    a, b = p.event(["a", "b"]), p.event(["b", "c"])
    for mutant in get_mutants():
        if mutant.id == "mutant-lb-euclid":  # a boltzmann copy with a make_flow
            continue
        assert mutant.interleave is None
        with pytest.raises(UnsupportedError, match="registers no additive form"):
            trotter_interleave(mutant, a, b, 1.5, (1, 8), p)


def test_interp_slices_that_underflow_are_the_identity():
    # 1e-323 / 4 underflows to 0: no update runs, so an event of no mass is
    # never conditioned on, though one round (a slice of 1e-323) is; the
    # events' worlds are still checked
    interp, p = get_learner("interp"), tri()
    a, empty = p.event(["a"]), EventSet(p.labels, 0)
    assert trotter_interleave(interp, a, empty, 1e-323, 4, p) is p
    with pytest.raises(ZeroMassEventError, match="with mass 0"):
        trotter_interleave(interp, a, empty, 1e-323, 1, p)
    with pytest.raises(ParameterError, match="event over a different world set"):
        trotter_interleave(interp, a, EventSet(("x", "y", "z"), 1), 1e-323, 4, p)


def _fraction_cell_walk(p, a, b, chi, n, bits=200):
    """The interp cell walk in Fraction arithmetic from the same float weight:
    each update scales the cells a (or b) holds by (1 - alpha) + alpha / m
    and the others by 1 - alpha, then renormalizes.  Exact fractions double
    their size at every update, so each cell is rounded to 2^-bits after one,
    far below the float walk's round-off."""
    alpha = Fraction(-math.expm1(-chi / n))
    keep, unit = 1 - alpha, 2**bits
    worlds = [((a.mask >> i) & 1, (b.mask >> i) & 1) for i in range(len(p.labels))]
    q0 = {}
    for cell, x in zip(worlds, p.probs.tolist()):
        q0[cell] = q0.get(cell, 0) + Fraction(x)
    q = dict(q0)
    for _ in range(n):
        for j in (0, 1):
            m = sum(x for cell, x in q.items() if cell[j])
            q = {cell: x * (keep + alpha / m if cell[j] else keep) for cell, x in q.items()}
            total = sum(q.values())
            q = {cell: Fraction(round(x / total * unit), unit) for cell, x in q.items()}
    w = [Fraction(x) * q[cell] / q0[cell] if q0[cell] else Fraction(0) for cell, x in zip(worlds, p.probs.tolist())]
    return np.array([float(x / sum(w)) for x in w])


@pytest.mark.parametrize("n", [1, 3, 64, 4096])
def test_interp_cell_walk_matches_a_fraction_walk(n):
    # the float walk stays within 1e-13 of the same walk in exact fractions
    # (rounded far below a float's ulp), world by world
    rng = np.random.default_rng(n)
    interp = get_learner("interp")
    for _ in range(3 if n > 64 else 12):
        k = int(rng.integers(2, 7))
        labels = tuple("abcdef"[:k])
        probs = rng.dirichlet(np.ones(k))
        probs[int(rng.integers(k))] *= rng.integers(2)  # a world without mass, or not
        p = FiniteSimplex(labels, probs)
        a, b = (p.event([x for i, x in enumerate(labels) if m >> i & 1]) for m in rng.integers(1, 2**k, 2))
        if min(p.prob(a), p.prob(b)) <= 0.01:
            continue
        chi = float(rng.uniform(0.2, 3.0))
        got = trotter_interleave(interp, a, b, chi, n, p).probs
        assert np.abs(got - _fraction_cell_walk(p, a, b, chi, n)).max() <= 1e-13


def test_max_graded_trotter_walks_rows_with_the_bits_of_its_flows():
    # max-graded walks its counts as rows of grades, in one pass, and each
    # count keeps the bits of composing make_flow on tables for it alone
    learner = get_learner("max-graded")
    steps = []

    def coord_flow(terms, ts, labels):
        step = learner.coord_flow(terms, ts, labels)
        return lambda c: (steps.append(len(c)), step(c))[1]

    counting = dataclasses.replace(learner, coord_flow=coord_flow)
    table = GradedBeliefTable({"phi1": 0.2, "phi2": 0.5, "phi3": 0.9})
    counts, chi = (1, 3, 3, 64, 1000), 1.7
    states = trotter_interleave(counting, "phi1", "phi3", chi, counts, table)
    assert len(steps) == 2 * max(counts)
    flows = [learner.make_flow(key) for key in ("phi1", "phi3")]
    for n, state in zip(counts, states):
        expect = table
        for _ in range(n):
            for flow in flows:
                expect = flow(chi / n, expect)
        assert state.entries == expect.entries
    # a slice of 0 is the identity, and an unknown statement is still named
    assert trotter_interleave(learner, "phi1", "phi3", 0.0, 5, table) is table
    with pytest.raises(ParameterError, match="unknown statement 'zz'"):
        trotter_interleave(learner, "phi1", "zz", chi, counts, table)


def test_max_graded_field_names_an_unknown_statement():
    # as its coord_flow does: the statement is the fault, not the state
    field = derivative_field(get_learner("max-graded"), "zz")
    table = GradedBeliefTable({"phi1": 0.2, "phi2": 0.5})
    for run in (lambda: field(table), lambda: integrate(field, table, 1.0),
                lambda: integrate(field, table, math.inf), lambda: integrate_sampled(field, table, 1.0)):
        with pytest.raises(ParameterError, match="unknown statement 'zz'"):
            run()


def test_trotter_rows_at_weight_one_keep_their_bits():
    # at chi = 100 the one-round row conditions outright (the weight rounds
    # to 1) while the five-round row mixes; on this prior the two updates
    # differ in their last bits, and each row keeps its own
    labels = tuple("abcd")
    p = FiniteSimplex(labels, np.array(
        [0.6855353753590057, 0.07233691592758151, 0.06029489658540946, 0.18183281212800337]
    ))
    a, b = p.event(["a", "b", "c"]), p.event(["a", "b", "d"])
    interp = get_learner("interp")
    got = trotter_interleave(interp, a, b, 100.0, (1, 5), p)
    assert [s.probs.tobytes() for s in got] == [
        trotter_interleave(interp, a, b, 100.0, n, p).probs.tobytes() for n in (1, 5)
    ]


@pytest.mark.parametrize("counts", [(2, 1), (1, 2), (2, 0), (0, 2), (3, 2, 1), (1.5, 2)])
def test_trotter_raises_the_first_failing_count_error(counts):
    # at chi = 60 one round conditions on a, so b has no mass (mass 0); two
    # rounds fail a round later with mass 2.81e-14; 0 and 1.5 are no counts
    labels = ("a", "b", "c")
    p = FiniteSimplex(labels, np.array([0.4, 0.3, 0.3]))
    a, b = EventSet(labels, 0b001), EventSet(labels, 0b010)
    interp = get_learner("interp")
    expect = _outcomes(lambda: [trotter_interleave(interp, a, b, 60.0, n, p) for n in counts])
    assert isinstance(expect, tuple)  # some count fails
    assert _outcomes(lambda: trotter_interleave(interp, a, b, 60.0, counts, p)) == expect


def _at_slice(flow, top=None):
    """A reference flow as the learners define its edges: a slice of 0 is the
    identity, and ``top(p)`` (if given) is the update where the interpolation
    weight rounds to 1."""

    def at(t, p):
        if t == 0.0:
            return p
        if top is not None and -math.expm1(-t) == 1.0:
            return top(p)
        return flow(t, p)

    return at


def _object_bayes_flow(model, key):
    """The Bayes update on the penalty -log P(key | h), on belief objects."""
    lik = model.likelihood[key]

    def flow(t, p):
        pr = np.asarray(p.probs)
        supp = (pr > 0.0) & (lik > 0.0)
        if not supp.any():
            raise ZeroMassEventError(f"observation {key!r} contradicts the prior")
        logw = np.log(pr[supp]) - t * -np.log(lik[supp])
        w = np.zeros_like(pr)
        w[supp] = np.exp(logw - logw.max())
        return p.with_probs(w)

    return flow


def _outcomes(run):
    """The bytes of each state, or the error's type and message."""
    try:
        return [s.probs.tobytes() for s in run()]
    except Exception as exc:
        return (type(exc), str(exc))


_MASSES = st.one_of(st.just(0.0), st.floats(0.01, 1.0))


@settings(max_examples=150, deadline=None)
@given(
    lid=st.sampled_from(["interp", "boltzmann", "bayes"]),
    probs=st.lists(_MASSES, min_size=2, max_size=6),
    data=st.data(),
    chi=st.one_of(st.floats(0.05, 3.0), st.floats(30.0, 120.0), st.sampled_from([5e-324, 1e-323])),
    counts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
)
def test_trotter_counts_match_the_object_path_one_by_one(lid, probs, data, chi, counts):
    # one walk for all counts equals a call per count, state by state, or
    # raises the first failing count's error; each count equals the loop of
    # the object path (bit for bit; for interp's cell walk, within 1e-14 or
    # with the same error type); slices of 1e-323 underflow to 0 from n = 4
    # on, and slices past about 37 give the interpolation weight 1
    k = len(probs)
    labels = tuple("abcdef"[:k])
    if not any(probs):
        probs[0] = 1.0
    p = FiniteSimplex(labels, np.array(probs))
    if lid == "interp":
        learner = get_learner("interp")
        phis = [EventSet(labels, data.draw(st.integers(0, 2**k - 1))) for _ in range(2)]
        refs = [_at_slice(_object_interp_flow(a), lambda q, a=a: condition(q, a)) for a in phis]
    elif lid == "boltzmann":
        learner = get_learner("boltzmann")
        phis = [
            RandomVariable(labels, np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))))
            for _ in range(2)
        ]
        refs = [_at_slice(_object_boltzmann_flow(v)) for v in phis]
    else:
        rows = {key: np.array(data.draw(st.lists(_MASSES, min_size=k, max_size=k))) for key in ("e1", "e2")}
        model = BayesModel(labels, rows)
        learner = get_learner("bayes", model=model)
        phis = ["e1", "e2"]
        refs = [_at_slice(_object_bayes_flow(model, key)) for key in phis]

    def per_count():
        for n in counts:
            theta = p
            for _ in range(n):
                theta = refs[1](chi / n, refs[0](chi / n, theta))
            yield theta

    one_by_one = _outcomes(lambda: [trotter_interleave(learner, *phis, chi, n, p) for n in counts])
    assert _outcomes(lambda: trotter_interleave(learner, *phis, chi, counts, p)) == one_by_one
    if lid == "interp":  # the cell walk: within round-off of the object path
        _assert_close_outcomes(
            _probs_or_type(lambda: [trotter_interleave(learner, *phis, chi, n, p) for n in counts]),
            _probs_or_type(lambda: list(per_count())),
        )
    else:
        assert one_by_one == _outcomes(lambda: list(per_count()))


# ---------------------------------------------------------------------------
# A parallel observation is one closed form.
#
# The references are the one-observation fields as each learner wrote them
# before the closed forms took weighted terms; combine_fields summed them
# term by term, weighted, in label order.


def _ref_gibbs(u, possible):
    def field(c):
        if possible is None:
            return c * (float(c @ u) - u)
        supp = c > 0.0
        if not possible[supp].all():
            raise DomainError("contradicts the state")
        v = np.where(supp, u, 0.0)
        return np.where(supp, c * (float(c @ v) - v), 0.0)

    return field


def _ref_interp(ind):
    def field(c):
        mass = float(c @ ind)
        if mass <= MASS_EPS:
            raise DomainError("no mass")
        cond = c * ind / mass
        return cond / cond.sum() - c

    return field


def _ref_graded(i):
    def field(c):
        out = np.zeros(len(c))
        out[i] = 1.0 - c[i]
        return out

    return field


def _weighted_sum(fields, c):
    total = None
    for f, w in fields:
        comp = w * f(c)
        total = comp if total is None else total + comp
    return total


def _parallel_case(kind, rng, n, k):
    """(learner, phis, reference fields, space, c, scale of the field)."""
    labels = tuple(f"w{i}" for i in range(n))
    c = rng.dirichlet(np.ones(n))
    c[rng.uniform(size=n) < 0.3] = 0.0
    c[int(rng.integers(n))] += 0.2
    c /= c.sum()
    space = ("simplex", labels)
    if kind == "boltzmann":
        vals = rng.normal(0.0, 2.0, size=(k, n))
        phis = [RandomVariable(labels, row) for row in vals]
        refs = [_ref_gibbs(row, None) for row in vals]
        return get_learner("boltzmann"), phis, refs, space, c, np.abs(vals)
    if kind == "bayes":
        lik = rng.uniform(0.0, 1.0, size=(k, n))
        lik[rng.uniform(size=(k, n)) < 0.15] = 0.0
        lik[:, int(rng.integers(n))] = 0.5  # every row has evidence somewhere
        if rng.uniform() < 0.6:  # zeros off the state's support only
            lik[:, c > 0.0] = np.maximum(lik[:, c > 0.0], 0.01)
        rows = {f"e{j}": row for j, row in enumerate(lik)}
        learner = get_learner("bayes", model=BayesModel(labels, rows))
        u = -np.log(np.where(lik > 0.0, lik, 1.0))
        refs = [_ref_gibbs(np.where(row > 0.0, uj, np.inf), None if row.min() > 0.0 else row > 0.0)
                for row, uj in zip(lik, u)]
        return learner, list(rows), refs, space, c, u
    if kind == "interp":
        masks = rng.uniform(size=(k, n)) < 0.5
        masks[np.arange(k), rng.integers(n, size=k)] = True
        phis = [EventSet(labels, int(sum(1 << i for i in np.flatnonzero(m)))) for m in masks]
        refs = [_ref_interp(m.astype(float)) for m in masks]
        return get_learner("interp"), phis, refs, space, c, np.ones((k, n))
    keys = tuple(f"k{i}" for i in range(n))
    grades = rng.uniform(0.0, 1.0, size=n)
    idx = rng.integers(n, size=k)
    return (get_learner("max-graded"), [keys[i] for i in idx], [_ref_graded(i) for i in idx],
            ("graded", keys), grades, np.ones((k, n)))


@pytest.mark.parametrize("kind", ["boltzmann", "bayes", "interp", "max-graded"])
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), k=st.integers(1, 6),
       weights=st.lists(st.floats(0.05, 5.0), min_size=6, max_size=6))
def test_fused_field_is_the_weighted_sum_of_its_terms(kind, seed, n, k, weights):
    rng = np.random.default_rng(seed)
    learner, phis, refs, space, c, size = _parallel_case(kind, rng, n, k)
    ws = weights[:k]
    # combine_fields hands the learner its terms in label order
    fields = [derivative_field(learner, phi) for phi in phis]
    order = sorted(range(k), key=lambda j: fields[j].label)
    fused = learner.closed_field(tuple((phis[j], ws[j]) for j in order))(space)
    try:
        ref = _weighted_sum([(refs[j], ws[j]) for j in order], c)
    except DomainError:
        with pytest.raises(DomainError):
            fused(c)
        return
    got = fused(c)
    finite = np.where(np.isfinite(size), size, 0.0)
    scale = max(1.0, float((np.asarray(ws)[:, None] * finite).sum(axis=0).max()))
    assert np.abs(got - ref).max() <= 1e-14 * scale


@pytest.mark.parametrize("kind", ["boltzmann", "bayes", "interp"])
def test_fused_field_rejects_other_worlds_once_at_bind(kind):
    rng = np.random.default_rng(3)
    learner, phis, _, _, c, _ = _parallel_case(kind, rng, 4, 3)
    bind = learner.closed_field(tuple((phi, 1.0) for phi in phis))
    with pytest.raises(ParameterError):
        bind(("simplex", ("x", "y", "z", "w")))
    field = combine_fields([derivative_field(learner, phi) for phi in phis])
    with pytest.raises(ParameterError):
        integrate(field, FiniteSimplex(("x", "y", "z", "w"), np.ones(4)), 1.0)


def test_combine_evaluates_one_closed_form_per_stage():
    from dataclasses import replace

    calls = {"closed_field": [], "bind": 0, "eval": 0}

    def counted(base):
        def closed_field(terms):
            calls["closed_field"].append(len(terms))
            bind = base.closed_field(terms)

            def counted_bind(space):
                calls["bind"] += 1
                field = bind(space)

                def counted(c):
                    calls["eval"] += 1
                    return field(c)

                return counted

            return counted_bind

        return replace(base, closed_field=closed_field)

    labels = ("a", "b", "c", "d")
    p = FiniteSimplex(labels, np.ones(4))
    weights = [0.5, 1, 2, 0.3, 1.1]
    cfg = IntegratorConfig(step=0.01)
    # conditionings on overlapping events take the tilt flow, which evaluates
    # the closed form once, at the start
    interp = counted(get_learner("interp"))
    events = [p.event(e) for e in (["a"], ["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"])]
    field = combine_fields([derivative_field(interp, a) for a in events], weights)
    assert calls["closed_field"] == [1, 1, 1, 1, 1, 5]
    integrate(field, p, 0.5, cfg)
    assert (calls["bind"], calls["eval"]) == (1, 1)
    # with no exact flow, RK4 steps the same closed form
    calls.update(bind=0, eval=0)
    integrate(_stepped(field), p, 0.5, cfg)
    assert calls["bind"] == 1
    assert calls["eval"] == 4 * 50  # four RK4 stages for each of 50 steps
    # tempering flows commute: the exact flow evaluates the field once, at the start
    boltzmann = counted(get_learner("boltzmann"))
    rng = np.random.default_rng(5)
    phis = [RandomVariable(labels, rng.normal(size=4)) for _ in range(5)]
    field = combine_fields([derivative_field(boltzmann, phi) for phi in phis], weights)
    calls.update(closed_field=[], bind=0, eval=0)
    integrate(field, p, 0.5, cfg)
    assert (calls["bind"], calls["eval"]) == (1, 1)
    # so do conditionings on disjoint events
    field = combine_fields([derivative_field(interp, p.event(e)) for e in (["a"], ["b", "c"])], weights[:2])
    calls.update(closed_field=[], bind=0, eval=0)
    integrate(field, p, 0.5, cfg)
    assert (calls["bind"], calls["eval"]) == (1, 1)


def test_mixed_learners_keep_the_per_handle_sum():
    labels = ("a", "b", "c", "d")
    p = FiniteSimplex(labels, np.array([0.1, 0.4, 0.3, 0.2]))
    bayes = get_learner("bayes", model=BayesModel(labels, {"e": np.array([0.7, 0.2, 0.5, 0.1])}))
    terms = [  # in label order: bayes, boltzmann, interp
        (derivative_field(bayes, "e"), 1.3),
        (derivative_field(get_learner("boltzmann"), RandomVariable(labels, np.array([0.3, -0.2, 1.1, 0.4]))), 0.8),
        (derivative_field(get_learner("interp"), p.event(["a", "c"])), 0.6),
    ]
    field = combine_fields([f for f, _ in terms[::-1]], [w for _, w in terms[::-1]])
    ref = _weighted_sum([(lambda c, f=f: f.eval_at(p).components, w) for f, w in terms], p.probs)
    assert np.array_equal(field.eval_at(p).components, ref)


def test_limit_integration_stops_when_a_step_cannot_move_the_state():
    learner = get_learner("boltzmann")
    p = tri()
    field = derivative_field(learner, RandomVariable(p.labels, np.array([1.0, 2.0, 3.0])))
    stepped = VectorFieldHandle(field.label, None, field.eval_at)  # no exact flow: RK4 steps it
    with pytest.raises(NoLimitError, match="does not move the state"):
        integrate(stepped, p, math.inf, IntegratorConfig(step=1e-300))


# ---------------------------------------------------------------------------
# The stage path against the sequence it replaced, bit for bit.


def _old_projection(theta0):
    """The projection the integrators used before the clip skip: the
    finiteness check, then the simplex clip (np.maximum, a second sum,
    division) or the graded clamp."""
    simplex = isinstance(theta0, FiniteSimplex)

    def project(vec):
        if not math.isfinite(np.add.reduce(vec)) and not np.isfinite(vec).all():
            raise NumericalError("non-finite coordinates during integration")
        if not simplex:
            return np.clip(vec, 0.0, 1.0)
        clipped = np.maximum(vec, 0.0)
        total = clipped.sum()
        if total <= 0.0:
            raise NumericalError("probability mass vanished during integration")
        if total <= MASS_EPS:
            raise ParameterError("probability vector sums to zero")
        return clipped / total

    return project


def _old_rows(form, theta0, t, cfg, step_out):
    """integrate_sampled's rows and final coordinates, stepped the way the
    integrator stepped before one closure reached the closed form: every
    stage went through _at (the projection, then the form) and the form's
    components through _check_tangent."""
    project, simplex = _old_projection(theta0), isinstance(theta0, FiniteSimplex)

    def at(v, c):
        comp = form(v, c)
        _check_tangent(comp, simplex)
        return comp

    def advance(c, k1, h):
        k2 = at(c + 0.5 * h * k1, project(c + 0.5 * h * k1))
        k3 = at(c + 0.5 * h * k2, project(c + 0.5 * h * k2))
        k4 = at(c + h * k3, project(c + h * k3))
        return c + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    c, v = belief_coords(theta0), None
    rows = [(0.0,) + tuple(c)]
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isinf(t):
            k1, quiet = at(None, c), 0
            for _ in range(100_000):
                v = advance(c, k1, cfg.step)
                c = project(v)
                k1 = at(v, c)
                quiet = quiet + 1 if float(np.abs(k1).max()) < _LIMIT_TOL else 0
                if quiet == 10:
                    break
            assert quiet == 10
            rows.append((t,) + tuple(c))
        else:
            now = 0.0
            for i in range(1, int(math.ceil(t / step_out)) + 1):
                target = min(i * step_out, t)
                n_full, rem = divmod(target - now, cfg.step)
                for h in [cfg.step] * int(n_full) + ([rem] if rem > 1e-15 else []):
                    v = advance(c, at(v, c), h)
                    c = project(v)
                now = target
                rows.append((now,) + tuple(c))
    if v is None:
        return rows, belief_coords(theta0)
    if simplex:  # FiniteSimplex divides the clamped vector itself
        return rows, theta0.with_probs(np.maximum(v, 0.0)).probs
    return rows, project(v)


def _closed_form(learner, phis, weights, space):
    """The learner's closed form of the weighted observations, in the label
    order combine_fields hands it, as a map of (v, c)."""
    labels = [derivative_field(learner, phi).label for phi in phis]
    order = sorted(range(len(phis)), key=lambda j: labels[j])
    field = learner.closed_field(tuple((phis[j], weights[j]) for j in order))(space)
    return lambda v, c: field(c)


def _stepped(field: VectorFieldHandle) -> VectorFieldHandle:
    """field's closed form with no exact flow, so that RK4 steps it through
    the closed-form stage path."""
    return VectorFieldHandle(field.label, None, None, _coords=field._coords)


def _stage_cases():
    """(name, handle, theta0, form of (v, c) spelled out); the sums of one
    learner are stepped (``_stepped``)."""
    labels = ("a", "b", "c", "d")
    p = FiniteSimplex(labels, np.array([0.1, 0.4, 0.3, 0.2]))
    edge = FiniteSimplex(labels, np.array([0.25, 0.45, 0.3, 0.0]))  # a zero stays zero
    space = ("simplex", labels)
    interp, boltzmann = get_learner("interp"), get_learner("boltzmann")
    model = BayesModel(labels, {"e": np.array([0.7, 0.2, 0.5, 0.0]), "f": np.array([0.1, 0.6, 0.3, 0.2]),
                                "g": np.array([0.4, 0.1, 0.3, 0.9])})
    bayes = get_learner("bayes", model=model)
    graded = get_learner("max-graded")
    table = GradedBeliefTable({"phi1": 0.2, "phi2": 0.5, "phi3": 0.9})
    events = [p.event(["a", "c"]), p.event(["b", "c", "d"])]
    rvs = [RandomVariable(labels, np.array(u)) for u in ([0.3, -0.2, 1.1, 0.4], [1.0, 0.5, -0.4, 0.0])]
    weights = [0.6, 1.3]
    (euclid,) = [m for m in get_mutants() if m.id == "mutant-lb-euclid"]

    def fields(learner, phis):
        return _stepped(combine_fields([derivative_field(learner, phi) for phi in phis], weights))

    cases = []
    for name, learner, phis, theta0 in (
        ("interp", interp, events, p),
        ("interp-edge", interp, events, edge),
        ("boltzmann", boltzmann, rvs, p),
        ("boltzmann-edge", boltzmann, rvs, edge),
        ("bayes", bayes, ["f", "g"], p),
        ("bayes-edge", bayes, ["e", "f"], edge),  # zero evidence where there is no mass
    ):
        cases.append((name, fields(learner, phis), theta0, _closed_form(learner, phis, weights, space)))
    cases.append(("max-graded", fields(graded, ["phi1", "phi3"]), table,
                  _closed_form(graded, ["phi1", "phi3"], weights, ("graded", table.keys()))))

    # two learners: the per-handle sum in label order (boltzmann, then interp)
    two = combine_fields([derivative_field(interp, events[0]), derivative_field(boltzmann, rvs[0])],
                         [0.6, 1.3])
    boltz_form = _closed_form(boltzmann, rvs[:1], [1.0], space)
    interp_form = _closed_form(interp, events[:1], [1.0], space)

    def two_form(v, c):
        return 1.3 * boltz_form(v, c) + 0.6 * interp_form(v, c)

    cases.append(("two-learners", two, p, two_form))

    # a finite-difference field rebuilds each stage's belief from its unprojected state
    fd = derivative_field(euclid, rvs[0])
    old_project = _old_projection(p)

    def fd_form(v, c):
        if v is not None:
            old_project(v)  # the rebuild's checks
        return fd.eval_at(p if v is None else p.with_probs(np.maximum(v, 0.0))).components

    cases.append(("fd-mutant", fd, p, fd_form))
    return cases


@pytest.mark.parametrize("t", [0.75, math.inf], ids=["finite", "top"])
@pytest.mark.parametrize("case", _stage_cases(), ids=lambda case: case[0])
def test_stage_path_keeps_the_bits_of_the_old_sequence(case, t):
    _, field, theta0, form = case
    cfg = IntegratorConfig(step=0.03)  # whole steps and a remainder in every sample
    final, record = integrate_sampled(field, theta0, t, cfg, step_out=0.1)
    rows, coords = _old_rows(form, theta0, t, cfg, 0.1)
    assert np.array(record.rows).tobytes() == np.array(rows).tobytes()
    assert belief_coords(final).tobytes() == coords.tobytes()


def test_closed_fields_name_their_domain_in_the_stage_path():
    p = FiniteSimplex(("a", "b", "c"), np.array([0.6, 0.4, 0.0]))
    interp, boltzmann = get_learner("interp"), get_learner("boltzmann")
    empty = derivative_field(interp, p.event(["c"]))
    pull = derivative_field(boltzmann, RandomVariable(p.labels, np.array([0.0, 1.0, 2.0])))
    for field in (empty, combine_fields([empty, pull])):
        for t in (1.0, math.inf):
            with pytest.raises(DomainError, match=r"^state outside the update domain of interp:"):
                integrate(field, p, t)


# ---------------------------------------------------------------------------
# Exact flows of parallel observations.


def _exact_cases():
    """(name, learner, observations, weights, theta0); the bayes prior has no
    mass where observation e has zero likelihood."""
    labels = ("a", "b", "c", "d")
    p = FiniteSimplex(labels, np.array([0.1, 0.4, 0.3, 0.2]))
    edge = FiniteSimplex(labels, np.array([0.25, 0.45, 0.3, 0.0]))
    model = BayesModel(labels, {"e": np.array([0.7, 0.2, 0.5, 0.0]), "f": np.array([0.1, 0.6, 0.3, 0.2]),
                                "g": np.array([0.4, 0.1, 0.3, 0.9])})
    rvs = [RandomVariable(labels, np.array(u))
           for u in ([0.3, -0.2, 1.1, 0.4], [1.0, 0.5, -0.4, 0.0], [-0.5, 0.9, 0.2, 1.6])]
    table = GradedBeliefTable({"phi1": 0.2, "phi2": 0.5, "phi3": 0.9})
    return [
        ("boltzmann", get_learner("boltzmann"), rvs, [1.2, 2.6, 1.6], p),
        ("bayes", get_learner("bayes", model=model), ["f", "g"], [1.2, 2.6], p),
        ("bayes-zero", get_learner("bayes", model=model), ["e", "g"], [2.2, 3.0], edge),
        ("max-graded", get_learner("max-graded"), ["phi1", "phi3", "phi1"], [1.2, 2.6, 1.0], table),
    ]


def _fields(learner, phis, weights):
    return combine_fields([derivative_field(learner, phi) for phi in phis], weights)


@pytest.mark.parametrize("t", [1.3, math.inf], ids=["finite", "top"])
@pytest.mark.parametrize("case", _exact_cases(), ids=lambda case: case[0])
def test_exact_combine_matches_rk4(case, t):
    _, learner, phis, weights, theta0 = case
    field = _fields(learner, phis, weights)
    final, record = integrate_sampled(field, theta0, t, step_out=0.25)
    rk4 = IntegratorConfig(step=1e-3)
    ref_final, ref = integrate_sampled(_stepped(field), theta0, t, rk4, step_out=0.25)
    got, want = np.array(record.rows), np.array(ref.rows)
    assert got.shape == want.shape and np.array_equal(got[:, 0], want[:, 0])
    assert np.abs(got[:, 1:] - want[:, 1:]).max() <= 1e-9
    assert np.abs(belief_coords(final) - belief_coords(ref_final)).max() <= 1e-9
    # the end state is rebuilt from the last row's unprojected coordinates
    assert belief_coords(final).tobytes() == got[-1, 1:].tobytes()


def _disjoint_family(rng, outside: bool):
    """A random simplex, 2-5 pairwise disjoint events over it and their
    weights; the events cover every world, or (``outside``) leave some out."""
    k = int(rng.integers(2, 6))
    cells = [*range(k), *[k] * outside, *rng.integers(0, k + outside, size=int(rng.integers(0, 3)))]
    rng.shuffle(cells)
    labels = tuple(f"w{i}" for i in range(len(cells)))
    p = FiniteSimplex(labels, rng.dirichlet(np.ones(len(cells))))
    events = [EventSet(labels, sum(1 << i for i, c in enumerate(cells) if c == j)) for j in range(k)]
    return p, events, rng.uniform(0.2, 2.0, size=k).tolist()


@pytest.mark.parametrize("outside", [False, True], ids=["cover", "outside"])
def test_interp_exact_flow_on_disjoint_events_matches_rk4(outside):
    # each conditional stays fixed along the flow, so at time t the state is
    # e^(-W t) p + (1 - e^(-W t)) sum_j (w_j / W) condition(p, a_j), W = sum_j w_j
    rng = np.random.default_rng(7 + outside)
    learner, rk4 = get_learner("interp"), IntegratorConfig(step=0.01)
    for _ in range(25):
        p, events, weights = _disjoint_family(rng, outside)
        field = _fields(learner, events, weights)
        for t, tol in ((0.9, 1e-8), (math.inf, 1e-6)):
            assert belief_distance(integrate(field, p, t), integrate(_stepped(field), p, t, rk4)) <= tol
        total = sum(weights)
        jeffrey = sum(w / total * condition(p, a).probs for a, w in zip(events, weights))
        expect = math.exp(-0.9 * total) * p.probs - math.expm1(-0.9 * total) * jeffrey
        assert np.abs(integrate(field, p, 0.9).probs - expect).max() <= 1e-14
        assert np.abs(integrate(field, p, math.inf).probs - jeffrey).max() <= 1e-15


def _overlap_families():
    """(name, p, events, weights, t): 36 seeded random families of 3-8 worlds
    and 2-5 distinct events, two of which overlap, at a time in [0.5, 3]
    with four decimals, and five pinned ones."""
    rng = np.random.default_rng(25)
    families = []
    while len(families) < 36:
        n, k = int(rng.integers(3, 9)), int(rng.integers(2, 6))
        masks = sorted({int(x) for x in rng.integers(1, 1 << n, size=k)})
        if not any(a & b for a, b in itertools.combinations(masks, 2)):
            continue
        labels = tuple(f"w{j}" for j in range(n))
        families.append((f"random{len(families)}", FiniteSimplex(labels, rng.dirichlet(np.ones(n))),
                         [EventSet(labels, mask) for mask in masks],
                         rng.uniform(0.2, 2.0, size=len(masks)).tolist(), int(rng.integers(5_000, 30_001)) / 1e4))
    labels = ("a", "b", "c", "d")
    p = FiniteSimplex(labels, np.array([0.1, 0.4, 0.3, 0.2]))
    ab, cd, ac, bd, bc, a = (p.event(list(e)) for e in ("ab", "cd", "ac", "bd", "bc", "a"))
    return families + [
        ("rank-deficient", p, [ab, cd, ac, bd], [1.3, 0.6, 0.9, 1.7], 2.2),
        ("zero-world", FiniteSimplex(labels, np.array([0.25, 0.45, 0.3, 0.0])), [ab, bd, ac], [0.8, 1.4, 0.5], 1.6),
        ("repeated", p, [ab, bc, ab], [0.7, 1.1, 0.4], 2.7),
        ("full", p, [p.event(list(labels)), bc, ac], [1.5, 0.3, 0.9], 0.9),
        # a's rate 1 / P(a) = 1e6 at the start: the first steps tried overflow exp
        ("light", FiniteSimplex(labels, np.array([1e-6, 0.5, 0.3, 0.2 - 1e-6])), [a, ab, bc], [1.0, 1.0, 0.5], 1.2),
    ]


def _rk4_states(families, starts, h, at):
    """Plain RK4 in steps of h on p * (M^T (w / Mp) - W) for the events and
    weights of every family at once, from the rows of ``starts``: the rows
    after each step count in ``at``.  Padded worlds have no mass, and padded
    events no weight and every world."""
    rows, n, k = len(families), max(len(s) for s in starts), max(len(f[2]) for f in families)
    p, m, w = np.zeros((rows, n)), np.ones((rows, k, n)), np.zeros((rows, k))
    for b, ((_, _, events, weights, _), start) in enumerate(zip(families, starts)):
        p[b, :len(start)] = start
        m[b, :len(events)] = 0.0
        m[b, :len(events), :len(start)] = [a.indicator() for a in events]
        w[b, :len(events)] = weights
    total = w.sum(axis=1, keepdims=True)

    def f(p):
        return p * (np.einsum("bk,bkn->bn", w / np.einsum("bkn,bn->bk", m, p), m) - total)

    states = {}
    for count in range(1, max(at) + 1):
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if count in at:
            states[count] = [p[b, :len(start)] for b, start in enumerate(starts)]
    return states


def test_interp_tilt_flow_matches_fine_rk4():
    # each family at its time and at t = 50 against RK4 at h = 1e-4, which
    # takes every family to t = 3; the flow has slowed by then, and steps of
    # 1e-2 on to 50 agree with steps of 1e-3 from 0 to 4e-14
    families = _overlap_families()
    interp = get_learner("interp")
    ticks = [round(t * 1e4) for *_, t in families]  # each time is a whole number of steps
    states = _rk4_states(families, [p.probs for _, p, *_ in families], 1e-4, set(ticks) | {30_000})
    late = _rk4_states(families, states[30_000], 1e-2, {4_700})[4_700]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a stage that overflows is a rejected step, not a warning
        for b, ((name, p, events, weights, t), tick, end50) in enumerate(zip(families, ticks, late)):
            field = _fields(interp, events, weights)
            for now, ref in ((t, states[tick][b]), (50.0, end50)):
                got = integrate(field, p, now).probs
                assert 0.5 * np.abs(got - ref).sum() <= 1e-9, (name, now)
                assert not got[p.probs == 0.0].any()  # a world of no mass keeps none, exactly


def test_interp_tilt_flow_lands_on_each_time_and_repeats_its_bits():
    interp = get_learner("interp")
    for name, p, events, weights, t in _overlap_families()[-5:]:
        terms = _fields(interp, events, weights)._source[1]
        ts = sorted([0.25 * k for k in range(1, 8)] + [t])
        rows = interp.coord_flow(terms, ts, p.labels)(p.probs)
        assert rows.tobytes() == interp.coord_flow(terms, ts, p.labels)(p.probs).tobytes()
        # the steps to a time do not see later times: a run that ends there
        # ends with that row's bits
        for i in range(len(ts)):
            assert interp.coord_flow(terms, ts[:i + 1], p.labels)(p.probs)[-1].tobytes() == rows[i].tobytes()
        # row i is at time ts[i], in any order; time 0 is the start
        back = interp.coord_flow(terms, [0.0] + ts[::-1], p.labels)(p.probs)
        assert back[0].tobytes() == p.probs.tobytes() and back[1:].tobytes() == rows[::-1].tobytes()
        # a sampled run projects the map's rows at its sample times
        final, record = integrate_sampled(_fields(interp, events, weights), p, t, step_out=0.25)
        times = [0.25 * k for k in range(1, math.ceil(t / 0.25))] + [t]
        rows = normalize_probs(interp.coord_flow(terms, times, p.labels)(p.probs))
        assert np.array(record.rows).tobytes() == np.column_stack([[0.0] + times, [p.probs, *rows]]).tobytes()
        assert belief_coords(final).tobytes() == rows[-1].tobytes()


def test_interp_tilt_flow_ascends_the_summed_log_mass():
    # the field is the Fisher gradient of sum_j w_j log P(a_j): the path is an optimizing learner's
    interp = get_learner("interp")
    for name, p, events, weights, t in _overlap_families():
        _, record = integrate_sampled(_fields(interp, events, weights), p, 3 * t, step_out=0.05)
        m = np.array([a.indicator() for a in events])
        loss = [float(np.log(m @ np.array(row[1:])) @ weights) for row in record.rows]
        assert all(a <= b for a, b in zip(loss, loss[1:])), name


def test_tilt_steps_are_bounded_and_rejected_outside_the_domain(monkeypatch):
    calls = []

    def stage(c, y):  # every stage after the start is off the domain
        calls.append(y)
        return np.array([1.0 if len(calls) == 1 else math.nan]), c

    def run(ts, cap=0.25):
        calls.clear()
        return flows._dormand_prince(stage, np.array([2.0]), np.array([1.0]), ts, cap)

    with pytest.raises(StepBudgetError, match=r"t=1e\+300 takes more than max_steps=10000000 steps of at most 0.25"):
        run((1.0, 1e300))
    assert not calls  # refused before any stage
    # each rejected step is a fifth of the last, until a step rounds to 0
    with pytest.raises(DomainError, match="the flow leaves its domain at t=0"):
        run((1.0,))
    assert 6 * 400 < len(calls) < 6 * 500
    monkeypatch.setattr(flows, "_MAX_STEPS", 50)
    with pytest.raises(StepBudgetError, match="t=1 takes more than max_steps=50 steps$"):
        run((1.0,))
    assert len(calls) == 1 + 6 * 50
    with pytest.raises(DomainError, match="the flow starts outside its domain"):
        flows._dormand_prince(lambda c, y: (np.array([2.0]), c), np.array([2.0]), np.array([1.0]), (1.0,), 0.25)


def test_interp_tilt_flow_refuses_a_start_with_no_event_mass():
    interp = get_learner("interp")
    p = FiniteSimplex(("a", "b", "c"), np.array([0.6, 0.4, 0.0]))
    terms = ((p.event(["b", "c"]), 1.0), (p.event(["c"]), 1.0))
    with pytest.raises(DomainError, match="the flow starts outside its domain"):
        interp.coord_flow(terms, (1.0,), p.labels)(p.probs)
    with pytest.raises(DomainError, match=r"^state outside the update domain of \(interp:"):
        integrate(_fields(interp, [p.event(["b", "c"]), p.event(["c"])], None), p, 1.0)


def test_interp_coord_flow_merges_equal_events_and_refuses_overlapping_ones():
    learner = get_learner("interp")
    p = FiniteSimplex(("a", "b", "c", "d"), np.array([0.1, 0.4, 0.3, 0.2]))
    a, cd, ab = p.event(["a"]), p.event(["c", "d"]), p.event(["a", "b"])
    ts = (0.0, 0.6, math.inf)

    def rows(terms, ts=ts):
        return learner.coord_flow(terms, ts, p.labels)(p.probs).tobytes()

    # an event observed twice is one observation at the summed weight
    assert rows(((a, 0.25), (a, 0.75))) == rows(((a, 1.0),))
    assert rows(((a, 0.5), (cd, 1.0), (a, 0.5))) == rows(((a, 1.0), (cd, 1.0)))
    assert rows(((a, 0.5), (ab, 1.0), (a, 0.5)), ts[:2]) == rows(((a, 1.0), (ab, 1.0)), ts[:2])
    # overlapping events have a flow at finite times (the identity where every
    # time is 0), and no closed-form flow where a time is top
    for terms in (((a, 1.0), (ab, 1.0)), ((ab, 1.0), (cd, 0.5), (a, 2.0))):
        for times in ((), (0.0,), (0.0, 0.0)):
            assert learner.coord_flow(terms, times, p.labels) is None
        assert callable(learner.coord_flow(terms, ts[:2], p.labels))
        for times in ((math.inf,), ts):
            assert learner.coord_flow(terms, times, p.labels) is NotImplemented


@pytest.mark.parametrize("t", [0.7, 1.25, math.inf])
@pytest.mark.parametrize("case", [
    ("interp", lambda p: p.event(["a", "c"])),
    ("boltzmann", lambda p: RandomVariable(p.labels, np.array([0.3, -0.2, 1.1, 0.4]))),
    ("bayes", lambda p: "e1"),
    ("max-graded", None),
], ids=lambda case: case[0])
def test_one_observation_exact_run_is_the_learners_flow(case, t):
    lid, make_phi = case
    learner = get_learner(lid)
    if make_phi is None:
        theta0, phi = GradedBeliefTable({"phi1": 0.2, "phi2": 0.5}), "phi1"
    else:
        labels = ("h1", "h2", "h3") if lid == "bayes" else ("a", "b", "c", "d")
        theta0 = FiniteSimplex(labels, np.linspace(1.0, 2.0, len(labels)))
        phi = make_phi(theta0)
    field = derivative_field(learner, phi)
    expect = belief_coords(learner.make_flow(phi)(t, theta0))
    if lid in ("boltzmann", "bayes"):  # observe takes additive time
        assert belief_coords(learner.observe(phi, t, theta0)).tobytes() == expect.tobytes()
    assert belief_coords(integrate(field, theta0, t)).tobytes() == expect.tobytes()
    final, record = integrate_sampled(field, theta0, t, step_out=0.01)
    assert belief_coords(final).tobytes() == expect.tobytes()
    for now, *row in record.rows[1:]:  # each sample has the bits of its time alone
        assert np.array(row).tobytes() == belief_coords(learner.make_flow(phi)(now, theta0)).tobytes()


@pytest.mark.parametrize("lid", ["boltzmann", "bayes"])
@pytest.mark.parametrize("chi", [0.4, 1.7, 6.0])
def test_one_trotter_round_is_the_exact_parallel_flow(lid, chi):
    # the tilts commute, so interleaving is exact, not only first-order
    learner = get_learner(lid)
    rng = np.random.default_rng(11)
    for _ in range(10):
        phi1, p = learner.sample_instance(rng)
        if lid == "boltzmann":
            phi2 = RandomVariable(p.labels, rng.normal(size=len(p.labels)))
        else:
            phi2 = ("e1", "e2", "e3")[int(rng.integers(3))]
        field = _fields(learner, [phi1, phi2], None)
        exact = integrate(field, p, chi)
        interleaved = trotter_interleave(learner, phi1, phi2, chi, 1, p)
        assert np.abs(exact.probs - interleaved.probs).max() <= 1e-14


def test_exact_flow_makes_the_checks_of_a_first_step():
    p = FiniteSimplex(("a", "b", "c"), np.array([0.6, 0.4, 0.0]))
    model = BayesModel(p.labels, {"e": np.array([0.5, 0.0, 0.5]), "f": np.array([0.2, 0.3, 0.4])})
    bayes = get_learner("bayes", model=model)
    interp = get_learner("interp")
    for field in (derivative_field(interp, p.event(["c"])),
                  _fields(interp, [p.event(["a"]), p.event(["c"])], None),
                  _fields(bayes, ["e", "f"], None)):
        for t in (1.0, math.inf):
            with pytest.raises(DomainError, match=r"^state outside the update domain of "):
                integrate(field, p, t)
    boltzmann = get_learner("boltzmann")
    rvs = [RandomVariable(p.labels, np.array(u)) for u in ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite tangent components"):
            integrate(_fields(boltzmann, rvs, [1e308, 1e308]), p, 1.0)


def test_scheme_steps_only_fields_with_no_exact_flow():
    p = tri()
    interp, boltzmann = get_learner("interp"), get_learner("boltzmann")
    (euclid,) = [m for m in get_mutants() if m.id == "mutant-lb-euclid"]
    rvs = [RandomVariable(p.labels, np.array(u)) for u in ([0.3, -0.2, 1.1], [-0.5, 0.9, 0.2])]
    tilt = derivative_field(boltzmann, rvs[0])
    coarse, fine = IntegratorConfig(step=0.05), IntegratorConfig(step=0.02)

    def rows(field, *cfg, t=1.0):
        return np.array(integrate_sampled(field, p, t, *cfg, step_out=0.25)[1].rows).tobytes()

    overlapping = _fields(interp, [p.event(["a", "b"]), p.event(["b", "c"])], None)
    for field in (
        derivative_field(euclid, rvs[0]),  # a mutant has a finite-difference field only
        VectorFieldHandle("user", None, tilt.eval_at),  # a hand-built handle
        combine_fields([derivative_field(interp, p.event(["a"])), tilt]),  # two learners
    ):
        assert rows(field, coarse) != rows(field, fine)
    # overlapping conditionings have no closed-form limit: RK4 steps them to top
    assert rows(overlapping, coarse, t=math.inf) != rows(overlapping, fine, t=math.inf)
    for field in (tilt, _fields(boltzmann, rvs, [1.5, 0.5]), derivative_field(interp, p.event(["a"])),
                  _fields(interp, [p.event(["a"]), p.event(["b", "c"])], [1.5, 0.5]), overlapping):
        assert rows(field) == rows(field, coarse) == rows(field, fine)


def _tilt_on_tri(path):
    """A boltzmann field on tri(), its observation and its start: the field
    takes its exact flow, or (path "rk4") is a handle of the same field with
    no exact flow, which RK4 steps."""
    learner, p = get_learner("boltzmann"), tri()
    rv = RandomVariable(p.labels, np.array([0.3, -0.2, 1.1]))
    field = derivative_field(learner, rv)
    return (field if path == "exact" else VectorFieldHandle(field.label, None, field.eval_at)), rv, p


@pytest.mark.parametrize("path", ["rk4", "exact"])
def test_sampled_run_ends_exactly_at_t(path):
    # ceil(t / step_out) * step_out rounds one ulp below this t; the last
    # sample is t itself, and the row count stays ceil(t / step_out) + 1
    t, step_out = 52.977826052902145, 0.7568260864700306
    n = math.ceil(t / step_out)
    assert n * step_out < t
    field, rv, p = _tilt_on_tri(path)
    final, record = integrate_sampled(field, p, t, IntegratorConfig(step=0.05), step_out=step_out)
    assert len(record.rows) == n + 1
    assert record.rows[-1][0] == t
    assert record.rows[-2][0] == (n - 1) * step_out
    assert belief_coords(final).tobytes() == np.array(record.rows[-1][1:]).tobytes()
    if path == "exact":
        assert final.probs.tobytes() == get_learner("boltzmann").make_flow(rv)(t, p).probs.tobytes()


@pytest.mark.parametrize("path", ["rk4", "exact"])
def test_sampled_run_records_its_end_time_once(path):
    # t / step_out rounds just above 127 while 127 * step_out is t itself:
    # the whole multiples stop below t, and t ends the record once
    t, step_out = 97.29012611788218, 0.7660639851801746
    assert math.ceil(t / step_out) == 128 and 127 * step_out == t
    field, _, p = _tilt_on_tri(path)
    _, record = integrate_sampled(field, p, t, IntegratorConfig(step=0.05), step_out=step_out)
    times = [row[0] for row in record.rows]
    assert len(times) == 128
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times[-1] == t


def test_exact_run_coerces_no_time_per_row(monkeypatch):
    # coord_flow takes float times: an exact sampled run validates its time
    # once, and no sample row passes through a confidence domain
    add = type(get_domain("add"))
    calls = []
    for op in ("coerce", "value", "to_float", "check_member"):
        inner = getattr(add, op)
        monkeypatch.setattr(add, op, lambda self, *a, _op=op, _inner=inner: (
            calls.append(_op), _inner(self, *a))[1])
    learner, p = get_learner("boltzmann"), tri()
    rvs = [RandomVariable(p.labels, np.array(u)) for u in ([1.0, 0.0, -0.5], [-0.3, 0.7, 0.2])]
    field = _fields(learner, rvs, [1.5, 0.5])
    counts = []
    for rows in (1, 10, 100):
        calls.clear()
        _, record = integrate_sampled(field, p, 2.0, step_out=2.0 / rows)
        assert len(record.rows) == rows + 1
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] <= 2


def test_exact_scheme_bounds_its_rows_not_its_steps(monkeypatch):
    # rows of four numbers (t and three coordinates) against 20 numbers
    field, _, p = _tilt_on_tri("exact")
    monkeypatch.setattr(flows, "_MAX_STEPS", 20)
    cfg = IntegratorConfig(step=1e-9)
    with pytest.raises(StepBudgetError, match="max_steps=20 numbers"):
        integrate_sampled(field, p, 1.0, cfg, step_out=0.2)  # six rows
    _, record = integrate_sampled(field, p, 1.0, cfg, step_out=0.25)  # five rows, no steps
    assert [row[0] for row in record.rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    _, record = integrate_sampled(field, p, 0.0, cfg, step_out=0.25)
    assert record.rows == [(0.0,) + tuple(p.probs)]
    # a stepped run within its step budget is bounded by its record too,
    # before any evaluation: one step per sample of 0.2, six rows
    evals = []
    counted = VectorFieldHandle(field.label, None, lambda b: evals.append(b) or field.eval_at(b))
    with pytest.raises(StepBudgetError, match="max_steps=20 numbers"):
        integrate_sampled(counted, p, 1.0, IntegratorConfig(step=0.25), step_out=0.2)
    assert not evals
