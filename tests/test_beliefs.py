"""Belief representations and the full-confidence update rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflearn import (
    EventSet,
    FiniteSimplex,
    GaussianBelief,
    GradedBeliefTable,
    InvalidImagingMapError,
    MassFunction,
    ParameterError,
    RandomVariable,
    TotalConflictError,
    ZeroMassEventError,
    belief_distance,
    belief_from_json,
    belief_to_json,
    condition,
    dempster_combine,
    ds_plaus_update,
    image,
    in_domain,
    jeffrey,
    simple_support,
)


def tri(pa=0.5, pb=0.3, pc=0.2):
    return FiniteSimplex(("a", "b", "c"), np.array([pa, pb, pc]))


# ---------------------------------------------------------------------------
# Conditioning.


def test_condition_pinned():
    p = tri()
    out = condition(p, p.event(["a", "b"]))
    assert np.allclose(out.probs, [0.625, 0.375, 0.0], atol=1e-15)


def test_condition_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = FiniteSimplex(("a", "b", "c", "d"), rng.dirichlet(np.ones(4)))
        a = p.event(["a", "c"])
        if p.prob(a) < 1e-6:
            continue
        once = condition(p, a)
        assert belief_distance(condition(once, a), once) <= 1e-10


def test_condition_zero_mass_event_raises():
    p = FiniteSimplex(("a", "b"), np.array([1.0, 0.0]))
    with pytest.raises(ZeroMassEventError):
        condition(p, p.event(["b"]))


# ---------------------------------------------------------------------------
# Jeffrey's rule.


def test_jeffrey_pinned():
    p = tri(0.8, 0.1, 0.1)
    a = p.event(["a"])
    out = jeffrey(p, [a, a.complement()], [0.5, 0.5])
    assert np.allclose(out.probs, [0.5, 0.25, 0.25], atol=1e-15)


def test_jeffrey_with_certain_weight_is_conditioning():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = FiniteSimplex(("a", "b", "c"), rng.dirichlet(np.ones(3)))
        a = p.event(["a", "b"])
        out = jeffrey(p, [a, a.complement()], [1.0, 0.0])
        assert belief_distance(out, condition(p, a)) <= 1e-12


def test_jeffrey_preserves_conditionals():
    p = tri(0.4, 0.4, 0.2)
    a = p.event(["a", "b"])
    out = jeffrey(p, [a, a.complement()], [0.9, 0.1])
    # inside the partition cell the odds a:b stay 1:1
    assert out.probs[0] == pytest.approx(out.probs[1], abs=1e-12)
    assert out.prob(a) == pytest.approx(0.9, abs=1e-12)


def test_jeffrey_rejects_bad_partition():
    p = tri()
    a = p.event(["a", "b"])
    b = p.event(["b", "c"])  # overlaps a
    with pytest.raises(ParameterError):
        jeffrey(p, [a, b], [0.5, 0.5])


# ---------------------------------------------------------------------------
# Imaging.


def test_image_moves_mass_into_event():
    p = tri()
    a = p.event(["a", "b"])

    def push(ev, w):
        return w if ev.contains(w) else "b"

    out = image(p, push, a)
    assert out.prob(a) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.probs, [0.5, 0.5, 0.0], atol=1e-15)


def test_image_requires_map_into_event():
    p = tri()
    a = p.event(["a"])
    with pytest.raises(InvalidImagingMapError):
        image(p, lambda ev, w: "b", a)


def test_image_is_idempotent():
    p = tri()
    a = p.event(["a", "b"])

    def push(ev, w):
        return w if ev.contains(w) else "a"

    once = image(p, push, a)
    assert belief_distance(image(once, push, a), once) <= 1e-12


# ---------------------------------------------------------------------------
# Mass functions and Dempster combination.


def test_ds_plaus_update_pinned():
    m = MassFunction.from_simplex(FiniteSimplex(("a", "b"), np.array([0.7, 0.3])))
    a = m.event(["a"])
    out = ds_plaus_update(m, a, 0.5)
    assert out.bel(a) == pytest.approx(0.8235294117647058, abs=1e-15)


def test_simple_support_combination_adds_like_frac():
    rng = np.random.default_rng(2)
    labels = ("a", "b", "c")
    a = EventSet.from_names(labels, ["a", "b"])
    for _ in range(200):
        a1, a2 = rng.uniform(0.0, 1.0, 2)
        comb = dempster_combine(
            simple_support(labels, a, a1), simple_support(labels, a, a2)
        )
        assert comb.bel(a) == pytest.approx(a1 + a2 - a1 * a2, abs=1e-12)


def test_plausibility_identity():
    rng = np.random.default_rng(3)
    labels = ("a", "b", "c", "d")
    for _ in range(200):
        p = FiniteSimplex(labels, rng.dirichlet(np.ones(4)))
        m = ds_plaus_update(
            MassFunction.from_simplex(p),
            EventSet.from_names(labels, ["a", "c"]),
            rng.uniform(),
        )
        for mask in range(1, 15):
            u = EventSet(labels, mask)
            assert m.plaus(u) == pytest.approx(
                1.0 - m.bel(u.complement()), abs=1e-10
            )
            assert m.bel(u) <= m.plaus(u) + 1e-12


def test_total_conflict_raises():
    labels = ("a", "b")
    ma = MassFunction.from_simplex(FiniteSimplex(labels, np.array([1.0, 0.0])))
    mb = MassFunction.from_simplex(FiniteSimplex(labels, np.array([0.0, 1.0])))
    with pytest.raises(TotalConflictError):
        dempster_combine(ma, mb)


def test_mass_round_trip_through_simplex():
    p = tri(0.2, 0.5, 0.3)
    m = MassFunction.from_simplex(p)
    assert m.is_probabilistic
    assert belief_distance(m.as_simplex(), p) <= 1e-12


# ---------------------------------------------------------------------------
# Other belief kinds.


def test_gaussian_rejects_negative_variance():
    with pytest.raises(ParameterError):
        GaussianBelief(0.0, -1.0)
    assert math.isinf(GaussianBelief(0.0, math.inf).var)


def test_graded_table_bounds():
    t = GradedBeliefTable({"x": 0.2, "y": 0.7})
    assert t.with_grade("x", 0.9).grade("x") == 0.9
    with pytest.raises(ParameterError):
        GradedBeliefTable({"x": 1.5})
    with pytest.raises(ParameterError):
        t.with_grade("zzz", 0.5)


def test_random_variable_from_dict():
    rv = RandomVariable.from_dict(("a", "b"), {"a": 1.0, "b": -2.0})
    assert tuple(rv.labels) == ("a", "b")
    assert np.allclose(rv.values, [1.0, -2.0])


def test_event_set_algebra():
    labels = ("a", "b", "c")
    ab = EventSet.from_names(labels, ["a", "b"])
    bc = EventSet.from_names(labels, ["b", "c"])
    assert sorted(ab.intersect(bc).members()) == ["b"]
    assert sorted(ab.union(bc).members()) == ["a", "b", "c"]
    assert sorted(ab.complement().members()) == ["c"]
    assert ab.contains("a") and not ab.contains("c")
    assert np.allclose(ab.indicator(), [1.0, 1.0, 0.0])
    assert not ab.is_empty


def test_event_names_must_not_be_a_bare_string():
    # "ab" would otherwise be read as the worlds a and b
    with pytest.raises(ParameterError, match="list of world names"):
        EventSet.from_names(("a", "b"), "ab")


def test_simplex_normalization_guard():
    # non-unit mass is renormalized, negative mass is rejected
    p = FiniteSimplex(("a", "b"), np.array([0.7, 0.7]))
    assert np.allclose(p.probs, [0.5, 0.5], atol=1e-15)
    with pytest.raises(ParameterError):
        FiniteSimplex(("a", "b"), np.array([1.2, -0.2]))
    with pytest.raises(ParameterError, match="finite"):
        FiniteSimplex(("a", "b"), np.array([math.inf, 0.5]))
    # a round-off negative or a negative zero is stored as +0.0
    q = FiniteSimplex(("a", "b", "c"), np.array([-1e-13, -0.0, 1.0]))
    assert not np.signbit(q.probs).any()


def test_in_domain_predicates():
    p = tri()
    assert in_domain("interp", p.event(["a"]), p)
    zero = FiniteSimplex(("a", "b"), np.array([1.0, 0.0]))
    assert not in_domain("interp", zero.event(["b"]), zero)


# ---------------------------------------------------------------------------
# JSON wire format.


def test_belief_json_round_trips():
    cases = [
        tri(0.2, 0.3, 0.5),
        GaussianBelief(1.5, 0.25),
        GradedBeliefTable({"x": 0.1, "y": 1.0}),
        MassFunction.from_simplex(tri()),
        np.array([0.25, -1.5, 3.0]),
        GaussianBelief(-2.0, math.inf),
    ]
    for b in cases:
        back = belief_from_json(belief_to_json(b))
        assert belief_distance(back, b) <= 1e-15


def test_simplex_json_probs_may_name_the_worlds():
    back = belief_from_json({"kind": "simplex", "probs": {"a": 0.5, "b": 0.3, "c": 0.2}})
    assert belief_distance(back, tri()) == 0.0


@pytest.mark.parametrize(
    "a, b",
    [
        (tri(), GaussianBelief(0.0, 1.0)),
        (tri(), MassFunction.from_simplex(tri())),
        (np.array([0.5, 0.3, 0.2]), tri()),
        (tri(), FiniteSimplex(("a", "b", "d"), np.array([0.5, 0.3, 0.2]))),
        (
            MassFunction.from_simplex(tri()),
            MassFunction.from_simplex(FiniteSimplex(("a", "b"), np.array([0.5, 0.5]))),
        ),
        (GradedBeliefTable({"x": 0.1}), GradedBeliefTable({"y": 0.1})),
        (np.zeros(3), np.zeros(4)),
    ],
)
def test_belief_distance_rejects_mixed_kinds_and_spaces(a, b):
    with pytest.raises(ParameterError):
        belief_distance(a, b)


def test_belief_distance_of_empty_graded_tables_is_zero():
    # as for empty parameter vectors: no coordinates, no distance
    empty = GradedBeliefTable({})
    assert belief_distance(empty, GradedBeliefTable({})) == 0.0
    assert belief_distance(np.zeros(0), np.zeros(0)) == 0.0


def test_belief_json_rejects_unknown_kind():
    with pytest.raises(ParameterError):
        belief_from_json({"kind": "wat"})


# ---------------------------------------------------------------------------
# Property-based checks.


@st.composite
def simplices(draw, n=3):
    raw = [draw(st.floats(1e-3, 1.0, allow_nan=False)) for _ in range(n)]
    total = sum(raw)
    labels = tuple("abcdef"[:n])
    return FiniteSimplex(labels, np.array([x / total for x in raw]))


@settings(max_examples=150)
@given(simplices(), st.integers(1, 6))
def test_conditioning_only_grows_event_mass(p, mask):
    a = EventSet(("a", "b", "c"), mask)
    out = condition(p, a)
    assert out.prob(a) >= p.prob(a) - 1e-12
    assert out.prob(a) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=150)
@given(simplices(), st.floats(0.0, 1.0, allow_nan=False))
def test_ds_update_bel_monotone_in_alpha(p, alpha):
    m = MassFunction.from_simplex(p)
    a = m.event(["a", "b"])
    out = ds_plaus_update(m, a, alpha)
    assert out.bel(a) >= m.bel(a) - 1e-12
