"""Bayes is the Boltzmann learner on the penalty -log P(obs | h).

Both learners run on one Gibbs kernel.  The reference functions below are
the formulas each learner used to carry for itself, written out again, and
the tests compare the kernel against them byte for byte: on models with zero
likelihoods, on priors with zero-mass worlds, at finite weight and at top.
Where the kernel's bits differ, the test pins exactly how.
"""

import math
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conflearn.beliefs import FiniteSimplex, RandomVariable
from conflearn.confidence import get_domain
from conflearn.errors import DomainError, ParameterError, ZeroMassEventError
from conflearn.flows import (
    IntegratorConfig,
    combine_fields,
    derivative_field,
    integrate,
    integrate_sampled,
)
from conflearn.learners import (
    _HALF_MAX,
    BayesModel,
    _expectation,
    _gibbs_field,
    _Penalty,
    boltzmann_observe,
    get_learner,
)

ADD = get_domain("add")


# ---------------------------------------------------------------------------
# The likelihood formulas of the bayes learner, as written before the fold.


def ref_bayes_step(lik, key, chi, pr):
    v = ADD.coerce(chi)
    if v.is_bot:
        return None
    supp = (pr > 0.0) & (lik > 0.0)
    if not supp.any():
        raise ZeroMassEventError(f"observation {key!r} contradicts the prior")
    if v.is_top:
        lmax = lik[supp].max()
        return np.where(supp & (lik == lmax), pr, 0.0)
    logw = np.log(pr[supp]) + v.payload * np.log(lik[supp])
    w = np.zeros_like(pr)
    w[supp] = np.exp(logw - logw.max())
    return w


def ref_bayes_bel(lik, pr):
    supp = pr > 0.0
    if np.any(supp & (lik <= 0.0)):
        return -math.inf
    return float(pr[supp] @ np.log(lik[supp]))


def ref_bayes_bel_top(lik, pr):
    supp = pr > 0.0
    if not np.any(supp & (lik > 0.0)):
        return -math.inf
    return float(np.log(lik[supp & (lik > 0.0)].max()))


def ref_bayes_in_domain(lik, pr):
    return not np.any((pr > 0.0) & (lik <= 0.0))


def ref_bayes_field(lik, key):
    impossible = lik <= 0.0
    penalty = -np.log(np.where(impossible, 1.0, lik))

    def field(c, space):
        supp = c > 0.0
        if impossible.any() and np.any(supp & impossible):
            raise DomainError(f"observation {key!r} contradicts the state")
        v = np.where(supp, penalty, 0.0)
        return np.where(supp, c * (float(c @ v) - v), 0.0)

    return field


def ref_bayes_sum_field(rows, terms):
    """The closed-field hook of weighted observations ((key, w), ...): the
    field of the penalty sum_j w_j (-log P(key_j | h)), op for op."""
    impossible = np.zeros(len(rows[terms[0][0]]), dtype=bool)
    total = None
    for key, w in terms:
        lik = rows[key]
        impossible |= lik <= 0.0
        penalty = w * -np.log(np.where(lik <= 0.0, 1.0, lik))
        total = penalty if total is None else total + penalty

    def bind(space):
        def field(c):
            supp = c > 0.0
            if np.any(supp & impossible):
                raise DomainError("an observation contradicts the state")
            v = np.where(supp, total, 0.0)
            return np.where(supp, c * (float(c @ v) - v), 0.0)

        return field

    return bind


def ref_observe(lik, chi, p):
    w = ref_bayes_step(lik, "e", chi, p.probs)
    return p if w is None else FiniteSimplex(p.labels, w)


# The Boltzmann formulas, which the kernel keeps as they were.


def ref_boltzmann_step(vals, chi, pr):
    v = ADD.coerce(chi)
    if v.is_bot:
        return None
    supp = pr > 0.0
    if v.is_top:
        return np.where(supp & (vals == vals[supp].min()), pr, 0.0)
    logw = np.log(pr[supp]) - v.payload * vals[supp]
    w = np.zeros_like(pr)
    w[supp] = np.exp(logw - logw.max())
    return w


# ---------------------------------------------------------------------------
# Helpers.


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def one_term(learner, phi):
    """The closed field of phi alone, as a function of (c, space)."""
    return lambda c, space: learner.closed_field(((phi, 1.0),))(space)(c)


def outcome(fn, *args):
    """fn(*args) as bytes, or its error's type and message."""
    try:
        out = fn(*args)
    except (ZeroMassEventError, DomainError) as exc:
        return (type(exc).__name__, str(exc))
    return None if out is None else bits(out)


def random_case(rng, max_n=12):
    """A model row with zeros and ones, and a prior with zero-mass worlds."""
    n = int(rng.integers(2, max_n + 1))
    hyps = tuple(f"h{i}" for i in range(n))
    lik = rng.uniform(0.0, 1.0, n)
    if rng.uniform() < 0.5:
        lik[rng.uniform(size=n) < 0.3] = 0.0
    if rng.uniform() < 0.2:
        lik[rng.uniform(size=n) < 0.5] = 1.0
    pr = rng.dirichlet(np.ones(n))
    if rng.uniform() < 0.5:
        pr[rng.uniform(size=n) < 0.3] = 0.0
    pr[int(rng.integers(n))] += 0.1  # keep some mass
    p = FiniteSimplex(hyps, pr)
    return hyps, lik, p, get_learner("bayes", model=BayesModel(hyps, {"e": lik}))


# ---------------------------------------------------------------------------
# observe, bel_top and in_domain: the same bits everywhere.


def test_bayes_observe_keeps_the_likelihood_bits():
    rng = np.random.default_rng(11)
    for _ in range(400):
        hyps, lik, p, learner = random_case(rng, max_n=20)
        for chi in (ADD.bot, ADD.value(float(rng.uniform(0.01, 5.0))), ADD.value(1.0), ADD.top):
            ref = outcome(lambda: ref_observe(lik, chi, p).probs)
            assert outcome(lambda: learner.observe("e", chi, p).probs) == ref


def test_bayes_bel_top_and_in_domain_keep_their_bits():
    rng = np.random.default_rng(12)
    for _ in range(400):
        hyps, lik, p, learner = random_case(rng, max_n=20)
        assert bits(learner.bel_top("e", p)) == bits(ref_bayes_bel_top(lik, p.probs))
        assert learner.in_domain("e", p) is ref_bayes_in_domain(lik, p.probs)


def test_top_breaks_ties_by_likelihood_not_by_its_log():
    a, b = 0.30000000000000027, 0.3000000000000003
    assert a < b and math.log(a) == math.log(b)
    hyps = ("h0", "h1", "h2")
    lik = np.array([a, b, 0.1])
    learner = get_learner("bayes", model=BayesModel(hyps, {"e": lik}))
    p = FiniteSimplex(hyps, np.array([0.5, 0.25, 0.25]))
    post = learner.observe("e", ADD.top, p)
    assert list(post.probs) == [0.0, 1.0, 0.0]
    assert bits(post.probs) == bits(ref_observe(lik, ADD.top, p).probs)


def test_bel_keeps_its_bits_but_for_two_pinned_cases():
    rng = np.random.default_rng(13)
    seen = {"same": 0, "all_ones": 0, "wide": 0}
    for _ in range(600):
        hyps, lik, p, learner = random_case(rng, max_n=20)
        ref, new = ref_bayes_bel(lik, p.probs), learner.bel("e", p)
        supp = p.probs > 0.0
        if ref == 0.0 and np.all(lik[supp] == 1.0):
            # every supported likelihood is 1: -(+0.0) where log 1 summed to +0.0
            assert bits(ref) == bits(0.0) and bits(new) == bits(-0.0)
            seen["all_ones"] += 1
        elif len(hyps) >= 16 and not supp.all() and math.isfinite(ref):
            # the kernel's dot runs over every world, the old one over the
            # support; BLAS groups 16 or more terms differently
            assert abs(new - ref) <= 2 * np.spacing(abs(ref))
            seen["wide"] += 1
        else:
            assert bits(new) == bits(ref)
            seen["same"] += 1
    assert min(seen.values()) > 0


# ---------------------------------------------------------------------------
# The closed field.


def test_closed_field_keeps_its_bits_up_to_zero_signs_off_the_support():
    rng = np.random.default_rng(14)
    signed = 0
    for _ in range(400):
        hyps, lik, p, learner = random_case(rng)
        c, space = p.probs.copy(), ("simplex", hyps)
        ref = outcome(ref_bayes_field(lik, "e"), c, space)
        new = outcome(one_term(learner, "e"), c, space)
        if new == ref:
            continue
        # a finite penalty takes the unmasked Boltzmann field, whose zeros at
        # zero-mass worlds carry the sign of E[u] - u
        assert lik.min() > 0.0 and (c == 0.0).any()
        ref_v, new_v = ref_bayes_field(lik, "e")(c, space), one_term(learner, "e")(c, space)
        assert bits(new_v + 0.0) == bits(ref_v)
        assert bits(new_v[c > 0.0]) == bits(ref_v[c > 0.0])
        signed += 1
    assert signed > 0


def test_integrated_states_keep_their_bits():
    # the field's zero signs never reach a state: c + h * (+-0) is c
    hyps = tuple(f"h{i}" for i in range(5))
    rows = {
        "e0": np.array([0.9, 0.2, 0.5, 0.3, 0.6]),
        "e1": np.array([0.4, 0.8, 0.1, 0.7, 0.3]),
        "e2": np.array([0.0, 0.4, 0.0, 0.9, 0.6]),
    }
    # with no exact flow, RK4 steps each closed field
    learner = replace(get_learner("bayes", model=BayesModel(hyps, rows)), coord_flow=None)
    ref = replace(learner, closed_field=lambda terms: ref_bayes_sum_field(rows, terms))
    p = FiniteSimplex(hyps, np.array([0.3, 0.0, 0.3, 0.4, 0.0]))
    q = FiniteSimplex(hyps, np.array([0.0, 0.5, 0.0, 0.2, 0.3]))
    cfg = IntegratorConfig(step=0.02)  # reaches the limits below in a few thousand steps
    runs = (
        (("e0", "e1"), None, p, 0.7),
        (("e0", "e1"), None, p, ADD.top),
        (("e2",), None, q, ADD.top),
        (("e2", "e0", "e1"), (0.7, 1.9, 0.35), q, 1.3),
        (("e2", "e1"), (2.5, 0.4), q, ADD.top),
    )
    for keys, weights, prior, t in runs:
        fields = [combine_fields([derivative_field(l, k) for k in keys], weights)
                  for l in (learner, ref)]
        ends = [integrate(f, prior, t, cfg).probs for f in fields]
        assert bits(ends[0]) == bits(ends[1])
    records = [integrate_sampled(derivative_field(l, "e2"), q, 1.0, cfg)[1] for l in (learner, ref)]
    assert records[0].to_csv_text() == records[1].to_csv_text()


# ---------------------------------------------------------------------------
# Errors.


def test_zero_evidence_errors_keep_their_messages():
    hyps = ("a", "b", "c")
    learner = get_learner("bayes", model=BayesModel(hyps, {"e": np.array([0.0, 0.5, 0.0])}))
    p = FiniteSimplex(hyps, np.array([0.5, 0.0, 0.5]))
    for chi in (0.5, ADD.top):
        with pytest.raises(ZeroMassEventError) as exc:
            learner.observe("e", chi, p)
        assert str(exc.value) == "observation 'e' contradicts the prior"
    with pytest.raises(DomainError) as exc:
        one_term(learner, "e")(p.probs.copy(), ("simplex", hyps))
    assert str(exc.value) == "observation 'e' contradicts the state"
    assert learner.bel("e", p) == -math.inf and learner.bel_top("e", p) == -math.inf
    assert learner.in_domain("e", p) is False


def _world_hooks(learner):
    """Every hook that reads a prior, the closed field included."""
    return (learner.bel, learner.bel_top, learner.in_domain,
            lambda phi, p: learner.observe(phi, 1.0, p),
            lambda phi, p: integrate(derivative_field(learner, phi), p, 1.0))


@pytest.mark.parametrize("labels", [("h1", "h2"), ("x", "y", "z")])
def test_bayes_rejects_a_prior_over_other_worlds(labels):
    learner = get_learner("bayes")
    p = FiniteSimplex(labels, np.ones(len(labels)))
    for hook in _world_hooks(learner):
        with pytest.raises(ParameterError):
            hook("e1", p)


def test_boltzmann_rejects_a_prior_over_other_worlds():
    learner = get_learner("boltzmann")
    v = RandomVariable(("a", "b", "c"), np.array([1.0, 2.0, 3.0]))
    p = FiniteSimplex(("x", "y", "z"), np.ones(3))
    for hook in _world_hooks(learner):
        with pytest.raises(ParameterError):
            hook(v, p)


def test_bayes_rejects_an_unknown_observation():
    learner = get_learner("bayes")
    p = FiniteSimplex(("h1", "h2", "h3"), np.ones(3))
    with pytest.raises(ParameterError, match="unknown observation"):
        learner.observe("e9", 1.0, p)


# ---------------------------------------------------------------------------
# Boltzmann is unchanged, and Bayes is Boltzmann on -log P(obs | h).


def test_boltzmann_keeps_its_formulas():
    rng = np.random.default_rng(16)
    learner = get_learner("boltzmann")
    for _ in range(300):
        n = int(rng.integers(2, 20))
        labels = tuple(f"w{i}" for i in range(n))
        pr = rng.dirichlet(np.ones(n))
        pr[rng.uniform(size=n) < 0.3] = 0.0
        pr[0] += 0.1
        p = FiniteSimplex(labels, pr)
        v = RandomVariable(labels, rng.normal(0.0, 1.0, n))
        vals = np.asarray(v.values)
        for chi in (ADD.value(float(rng.uniform(0.01, 5.0))), ADD.top):
            ref = FiniteSimplex(labels, ref_boltzmann_step(vals, chi, p.probs)).probs
            assert bits(boltzmann_observe(v, chi, p).probs) == bits(ref)
        c = p.probs.copy()
        ref_field = c * (float(c @ vals) - vals)
        assert bits(one_term(learner, v)(c, ("simplex", labels))) == bits(ref_field)
        assert bits(learner.bel(v, p)) == bits(-float(p.probs @ vals))
        assert bits(learner.bel_top(v, p)) == bits(-float(vals[p.probs > 0.0].min()))
        assert learner.in_domain(v, p) is True


def test_boltzmann_overflowing_penalty_keeps_the_least_penalty_worlds():
    # beta * u overflows; the posterior is the prior on the least-penalty worlds
    labels = ("a", "b", "c", "d")
    v = RandomVariable(labels, np.array([1e308, -1e308, -1e308, 1e300]))
    p = FiniteSimplex(labels, np.array([0.1, 0.2, 0.3, 0.4]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = boltzmann_observe(v, 2.0, p).probs
    assert np.allclose(out, [0.0, 0.4, 0.6, 0.0], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("possible", [None, np.array([True, True, False])])
@pytest.mark.parametrize("c", [[0.0, 1.0, 0.0], [1e-300, 1.0, 0.0]])
def test_field_past_half_the_float_range_stays_finite(possible, c):
    # c @ u - u overflows at a coordinate far from the mean, and 0 * inf is
    # NaN; past half the float range the field multiplies by c first, with
    # all worlds possible and with some ruled out alike
    labels = ("a", "b", "c")
    u = np.array([1e308, -1e308, 0.0 if possible is None else math.inf])
    field = _gibbs_field([(_Penalty(labels, u, u, possible, "u"), 1.0)])(("simplex", labels))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vel = field(np.array(c))
    assert np.isfinite(vel).all() and vel[1] == 0.0


def test_expectation_is_vecdot_below_half_the_float_range():
    # the bel of every sweep row and of every belief keeps np.vecdot's bits
    rng = np.random.default_rng(5)
    for n in (2, 5, 12):
        p = rng.dirichlet(np.ones(n), size=4)
        p[0, 0] = 0.0
        u = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-300, 300, n) / 4.0
        assert bits(_expectation(p, u, abs(u).max())) == bits(np.vecdot(p, u))
        assert bits(_expectation(p[1], u, abs(u).max())) == bits(np.vecdot(p[1], u))


def test_expectation_past_half_the_float_range_is_the_clamped_mean():
    # a row whose support holds a |u| past half the float range scales by it:
    # the mean of u stays in [min u, max u] over the support, where vecdot
    # overflows; a row whose support does not keeps vecdot's bits
    big = sys.float_info.max
    p = np.array([[1.0, 0.99999, 0.0], [0.25, 0.75, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    p /= p.sum(axis=1, keepdims=True)
    u = np.array([big, big, -big])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = _expectation(p, u, big)
    assert e[0] == big and e[1] == big and e[3] == -big
    assert e[2] == 0.0
    # these weights sum to 1 + 2^-52 in float: the scaled mean rounds past
    # the float maximum, and the clamp brings it back into the range of u
    q = np.array([0.46335848984461653, 0.3373961461805628, 0.1992453639748208])
    assert np.vecdot(q, np.ones(3)) > 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _expectation(q, np.full(3, big), big) == big
        assert _expectation(q, np.full(3, -big), big) == -big
    rows = np.array([[0.3, 0.7, 0.0], [0.1, 0.2, 0.7]])
    wide = np.array([1.5, -2.5, _HALF_MAX * 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = _expectation(rows, wide, abs(wide).max())
    assert bits(e[0]) == bits(np.vecdot(rows[0], wide))  # its support holds no wide |u|
    exact = sum(Fraction(x) * Fraction(y) for x, y in zip(rows[1], wide))
    assert abs(Fraction(e[1]) - exact) <= abs(exact) * Fraction(1, 2**50)


def test_gibbs_bel_at_the_float_limit_is_the_least_float():
    # E_p[u] of u at the float maximum is that maximum, not an overflow
    labels = ("a", "b")
    v = RandomVariable(labels, np.array([sys.float_info.max, sys.float_info.max]))
    p = FiniteSimplex(labels, np.array([1.0, 0.99999]))
    learner = get_learner("boltzmann")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert learner.bel(v, p) == -sys.float_info.max
        _, bels, final = learner.sweep(v, learner.default_grid, p)
    assert bels == [-sys.float_info.max] * len(learner.default_grid)
    assert bits(final.probs) == bits(boltzmann_observe(v, ADD.top, p).probs)


@pytest.mark.parametrize("lid, phi, what", [
    ("boltzmann", None, "the penalty variable"),
    ("bayes", "e", "observation 'e'"),
])
def test_top_refuses_least_penalty_worlds_without_mass(lid, phi, what):
    # the least-penalty worlds of the support keep mass at most MASS_EPS:
    # the update at top names the observation, as interp names an event
    labels = ("a", "b")
    p = FiniteSimplex(labels, np.array([1.0, 5e-324]))
    if lid == "bayes":
        learner = get_learner("bayes", model=BayesModel(labels, {"e": [0.5, 1.0]}))
    else:
        learner, phi = get_learner("boltzmann"), RandomVariable(labels, np.array([1e-300, 0.0]))
    message = f"cannot condition on the least-penalty worlds of {what} with mass 4.94e-324"
    with pytest.raises(ZeroMassEventError) as err:
        learner.observe(phi, ADD.top, p)
    assert str(err.value) == message
    with pytest.raises(ZeroMassEventError, match="least-penalty worlds"):
        learner.sweep(phi, (ADD.bot, ADD.value(1.0), ADD.top), p)
    # only the rows at top are checked: a row at a finite time may have its
    # least-penalty worlds all but empty
    step = learner.coord_flow(((phi, 1.0),), (1.0, math.inf), labels)
    out = step(np.array([[1.0, 5e-324], [0.5, 0.5]]))
    assert out[0, 0] > 0.0 and out[1].tolist() == [0.0, 0.5]


def test_bayes_is_boltzmann_on_minus_log_likelihood():
    rng = np.random.default_rng(17)
    bayes, boltzmann = get_learner("bayes"), get_learner("boltzmann")
    labels = ("h1", "h2", "h3")
    v = RandomVariable(labels, -np.log(np.array([0.80, 0.30, 0.10])))  # the row of "e1"
    for _ in range(50):
        p = FiniteSimplex(labels, rng.dirichlet(np.ones(3)))
        for chi in (ADD.value(float(rng.uniform(0.01, 5.0))), ADD.top):
            post = bayes.observe("e1", chi, p)
            assert bits(post.probs) == bits(boltzmann.observe(v, chi, p).probs)
        assert bits(bayes.bel("e1", p)) == bits(boltzmann.bel(v, p))
        c, space = p.probs.copy(), ("simplex", labels)
        assert bits(one_term(bayes, "e1")(c, space)) == bits(one_term(boltzmann, v)(c, space))
