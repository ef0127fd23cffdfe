"""Derivative fields, gradients, integration, and interleaving."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflearn.beliefs import MASS_EPS
from conflearn.errors import StepBudgetError
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
    get_learner,
    integrate,
    integrate_sampled,
    interp_observe,
    make_bayes_learner,
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
    out = integrate(field, p, math.inf)
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
        IntegratorConfig(scheme="leapfrog")
    with pytest.raises(ParameterError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ParameterError):
        IntegratorConfig(max_steps=5.5)
    for setting in ("step", "t_max", "limit_tol", "max_steps"):
        with pytest.raises(ParameterError):
            IntegratorConfig(**{setting: True})
    for setting in ("step", "t_max", "limit_tol"):
        with pytest.raises(ParameterError):
            IntegratorConfig(**{setting: math.inf})


def test_no_limit_error_for_drifting_field():
    drift = VectorFieldHandle(
        "drift",
        ("gaussian",),
        lambda b: TangentVector(b, np.array([1.0, 0.0])),
    )
    cfg = IntegratorConfig(step=0.1, max_steps=500)
    with pytest.raises(NoLimitError):
        integrate(drift, GaussianBelief(0.0, 1.0), math.inf, cfg)


def test_euler_scheme_close_to_rk4():
    learner = get_learner("interp")
    p = tri()
    a = p.event(["a", "b"])
    field = derivative_field(learner, a)
    rk = integrate(field, p, 1.0)
    eu = integrate(field, p, 1.0, IntegratorConfig(scheme="euler", step=1e-4))
    assert belief_distance(rk, eu) <= 1e-3


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
    assert belief_distance(trotter_interleave(learner, a, b, 1.5, 1, p), direct) == 0.0


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
    from conflearn import BayesModel, make_bayes_learner

    labels = ("a", "b", "c", "d")
    model = BayesModel(labels, {"e": np.array([0.7, 0.2, 0.5, 0.1])})
    p = FiniteSimplex(labels, np.array([0.1, 0.4, 0.3, 0.2]))
    field = combine_fields(
        [
            derivative_field(get_learner("boltzmann"), RandomVariable(labels, np.array([0.3, -0.2, 1.1, 0.4]))),
            derivative_field(make_bayes_learner(model), "e"),
            derivative_field(get_learner("interp"), p.event(["a", "c"])),
        ],
        [0.8, 1.3, 0.6],
    )
    return field, p


def test_kernel_matches_object_path_at_finite_time():
    field, p = _mixed_field()
    cfg = IntegratorConfig(step=2.0 ** -7, max_steps=192)  # 1.5 = 192 whole steps
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
        quiet = quiet + 1 if np.abs(field(ref).components).max() < cfg.limit_tol else 0
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


def test_finite_integration_honours_max_steps():
    evals = []
    drift = VectorFieldHandle(
        "drift",
        ("gaussian",),
        lambda b: evals.append(b) or TangentVector(b, np.array([1.0, 0.0])),
    )
    g = GaussianBelief(0.0, 1.0)
    with pytest.raises(StepBudgetError, match="max_steps"):
        integrate(drift, g, 1.0, IntegratorConfig(step=1e-9, max_steps=5))
    assert not evals  # rejected before the first step
    # the budget spans every sample interval: 4 x 25 steps, each under 60
    cfg = IntegratorConfig(step=0.01, max_steps=60)
    with pytest.raises(StepBudgetError, match="max_steps"):
        integrate_sampled(drift, g, 1.0, cfg, step_out=0.25)
    assert not evals
    final, _ = integrate_sampled(drift, g, 1.0, IntegratorConfig(step=0.01, max_steps=110), step_out=0.25)
    assert final.mean == pytest.approx(1.0)


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


@pytest.mark.parametrize("lid, phis", [
    ("interp", (EventSet(("a", "b", "c"), 0b011), EventSet(("a", "b", "c"), 0b110))),
    ("boltzmann", (RandomVariable(("a", "b", "c"), np.array([1.0, 0.0, -0.5])),
                   RandomVariable(("a", "b", "c"), np.array([-0.3, 0.7, 0.2])))),
])
def test_trotter_walks_every_count_in_one_pass(lid, phis):
    # one walk steps max(n) rounds of two updates, however many counts it serves
    learner = get_learner(lid)
    steps = []

    def coord_flow(phi, ts, labels):
        step = learner.coord_flow(phi, ts, labels)
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
    # one walk for all counts equals the per-count loop of the object path,
    # state by state, or raises the first failing count's error; slices of
    # 1e-323 underflow to 0 from n = 4 on, and slices past about 37 give
    # the interpolation weight 1
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
        learner = make_bayes_learner(model)
        phis = ["e1", "e2"]
        refs = [_at_slice(_object_bayes_flow(model, key)) for key in phis]

    def per_count():
        for n in counts:
            theta = p
            for _ in range(n):
                theta = refs[1](chi / n, refs[0](chi / n, theta))
            yield theta

    expect = _outcomes(lambda: list(per_count()))
    assert _outcomes(lambda: trotter_interleave(learner, *phis, chi, counts, p)) == expect
    assert _outcomes(lambda: [trotter_interleave(learner, *phis, chi, n, p) for n in counts]) == expect


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
        learner = make_bayes_learner(BayesModel(labels, rows))
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

    base = get_learner("boltzmann")
    calls = {"closed_field": [], "bind": 0, "eval": 0}

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

    learner = replace(base, closed_field=closed_field)
    labels = ("a", "b", "c", "d")
    rng = np.random.default_rng(5)
    phis = [RandomVariable(labels, rng.normal(size=4)) for _ in range(5)]
    field = combine_fields([derivative_field(learner, phi) for phi in phis], [0.5, 1, 2, 0.3, 1.1])
    assert calls["closed_field"] == [1, 1, 1, 1, 1, 5]
    cfg = IntegratorConfig(step=0.01)
    integrate(field, FiniteSimplex(labels, np.ones(4)), 0.5, cfg)
    assert calls["bind"] == 1
    assert calls["eval"] == 4 * 50  # four RK4 stages for each of 50 steps


def test_mixed_learners_keep_the_per_handle_sum():
    labels = ("a", "b", "c", "d")
    p = FiniteSimplex(labels, np.array([0.1, 0.4, 0.3, 0.2]))
    bayes = make_bayes_learner(BayesModel(labels, {"e": np.array([0.7, 0.2, 0.5, 0.1])}))
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
    with pytest.raises(NoLimitError, match="does not move the state"):
        integrate(field, p, math.inf, IntegratorConfig(step=1e-300))
