"""Belief representations and the full-confidence update rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflearn import (
    BayesModel,
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
    get_learner,
    jeffrey,
    simple_support,
)
from conflearn.beliefs import MASS_EPS, _BY_CLS, normalize_probs
from conflearn.confidence import get_domain
from conflearn.errors import NumericalError


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


def _rule_outcome(fn, *args):
    """A mass function's labels and (subset, mass bits) in order, or the
    error's type and message."""
    try:
        out = fn(*args)
    except (ParameterError, TotalConflictError) as exc:
        return (type(exc), str(exc))
    assert type(out) is MassFunction and all(type(w) is float for w in out.masses.values())
    return (out.labels, [(s, w.hex()) for s, w in out.masses.items()])


def test_ds_plaus_update_is_dempster_with_the_simple_support_bytewise():
    # the support's masses go to Dempster's rule without a mass function built
    # for them: the masses, their order and bits, and the total-conflict line
    # are those of combining with the support the public constructor builds
    rng = np.random.default_rng(34)
    frac = get_domain("frac")
    outcomes = {"masses": 0, "conflict": 0}
    for _ in range(300):
        n = int(rng.integers(2, 7))
        labels, full = tuple(f"w{i}" for i in range(n)), (1 << n) - 1
        draws = int(rng.integers(1, 7))
        m = MassFunction(labels, {int(rng.integers(1, full + 1)): float(rng.uniform(1e-3, 1.0))
                                  for _ in range(draws)})
        focal = 0
        for s in m.masses:
            focal |= s
        masks = {full, int(rng.integers(1, full + 1))}
        if focal != full:
            masks.add(full & ~focal)  # an event of no plausibility
        x = float(rng.uniform())
        alphas = (frac.bot, 0.0, 5e-324, 1e-300, x, np.float64(x), frac.value(x),
                  math.nextafter(1.0, 0.0), 1.0, frac.top)
        for mask in masks:
            a = EventSet(labels, mask)
            for alpha in alphas:
                s = frac.to_float(frac.coerce(alpha))
                if not s:
                    assert ds_plaus_update(m, a, alpha) is m
                    continue
                support = MassFunction(labels, {full: 1.0} if mask == full else {mask: s, full: 1.0 - s})
                got = _rule_outcome(ds_plaus_update, m, a, alpha)
                assert got == _rule_outcome(dempster_combine, m, support), (m, a, alpha)
                assert got == _rule_outcome(lambda: dempster_combine(m, simple_support(labels, a, alpha)))
                outcomes["conflict" if got[0] is TotalConflictError else "masses"] += 1
    assert outcomes["conflict"] > 50 and outcomes["masses"] > 3000


def test_simple_support_on_the_whole_world_set_is_vacuous():
    # the support on every world leaves nothing to shift mass to: all of it
    # stays on the whole set, at top too, and the update keeps the state
    frac = get_domain("frac")
    labels = ("a", "b", "c")
    omega = EventSet(labels, 7)
    m = MassFunction(labels, {1: 0.25, 6: 0.5, 7: 0.25})
    for alpha in (frac.bot, 0.0, 1e-300, 0.3, math.nextafter(1.0, 0.0), 1.0, frac.top):
        assert _rule_outcome(simple_support, labels, omega, alpha) == (labels, [(7, (1.0).hex())])
        assert _rule_outcome(ds_plaus_update, m, omega, alpha) == _rule_outcome(lambda: m)
    assert get_learner("ds").observe(omega, frac.top, m) == m
    # a support still needs its event: checked after the weight and the labels
    with pytest.raises(ParameterError, match="^support event must be nonempty$"):
        simple_support(labels, EventSet(labels, 0), 1.0)
    with pytest.raises(ParameterError, match="^event over a different world set$"):
        ds_plaus_update(m, EventSet(("a", "b"), 3), 1.0)
    with pytest.raises(ParameterError, match="^frac: 1.5 outside carrier"):
        simple_support("ab", EventSet(labels, 0), 1.5)


def test_mass_round_trip_through_simplex():
    p = tri(0.2, 0.5, 0.3)
    m = MassFunction.from_simplex(p)
    assert all(s & (s - 1) == 0 for s in m.masses)  # singletons only
    assert belief_distance(m.as_simplex(), p) <= 1e-12
    with pytest.raises(ParameterError, match="^mass function has non-singleton focal sets$"):
        MassFunction(("a", "b"), {1: 0.5, 3: 0.5}).as_simplex()


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: FiniteSimplex("ab", np.array([0.5, 0.5])),
        lambda: MassFunction("ab", {1: 1.0}),
        lambda: BayesModel("ab", {"e": [0.5, 0.5]}),
        lambda: belief_from_json({"kind": "simplex", "labels": "ab", "probs": [0.5, 0.5]}),
        lambda: belief_from_json({"kind": "mass", "labels": "ab", "masses": {"a": 1.0}}),
    ],
    ids=["simplex", "mass", "bayes-model", "simplex-json", "mass-json"],
)
def test_world_labels_must_not_be_a_bare_string(build):
    # "ab" would otherwise be read as the worlds a and b
    with pytest.raises(ParameterError, match="world labels must be a list of names, got 'ab'"):
        build()


def test_simple_support_checks_its_labels_first():
    # tuple("ab") equals the event's labels, so a check after it would pass
    a = EventSet(("a", "b"), 1)
    with pytest.raises(ParameterError, match="^world labels must be a list of names, got 'ab'$"):
        simple_support("ab", a, 0.3)
    assert simple_support(["a", "b"], a, 0.3) == MassFunction(("a", "b"), {1: 0.3, 3: 0.7})


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda x: FiniteSimplex(("a", "b", "c"), np.array(x)), lambda: FiniteSimplex(("a", "b", "d"), [0.2, 0.3, 0.5])),
        (lambda x: RandomVariable(("a", "b", "c"), np.array(x)), lambda: RandomVariable(("a", "c", "b"), [0.2, 0.3, 0.5])),
        (lambda x: MassFunction(("a", "b", "c"), {1: x[0], 2: x[1], 7: x[2]}),
         lambda: MassFunction(("a", "b", "d"), {1: 0.2, 2: 0.3, 7: 0.5})),
        (lambda x: GradedBeliefTable(dict(zip("abc", x))), lambda: GradedBeliefTable(dict(zip("abd", [0.2, 0.3, 0.5])))),
        (lambda x: GaussianBelief(x[0], x[2]), lambda: GaussianBelief(0.2, math.inf)),
    ],
    ids=["simplex", "random-variable", "mass", "graded", "gaussian"],
)
def test_beliefs_compare_by_value(make, other):
    # a dataclass == on an array field compares the arrays inside a tuple and
    # raises for two distinct simplexes; every kind compares labels and entries
    p, q, r = make([0.2, 0.3, 0.5]), make([0.2, 0.3, 0.5]), make([0.3, 0.2, 0.5])
    assert p is not q
    for x, y, equal in ((p, p, True), (p, q, True), (p, r, False), (p, other(), False), (p, 0.2, False)):
        assert (x == y) is equal and (y == x) is equal and (x != y) is not equal
    assert (p == RandomVariable(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))) is (type(p) is RandomVariable)


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
    assert get_learner("interp").in_domain(p.event(["a"]), p)
    zero = FiniteSimplex(("a", "b"), np.array([1.0, 0.0]))
    assert not get_learner("interp").in_domain(zero.event(["b"]), zero)


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


@pytest.mark.parametrize("masses", [None, "x", [0.5, 0.5], 1])
def test_mass_json_masses_must_be_an_object(masses):
    with pytest.raises(ParameterError, match="'masses' must be an object"):
        belief_from_json({"kind": "mass", "labels": ["a", "b"], "masses": masses})


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_belief_json_refuses_a_non_finite_mass_or_parameter(x):
    with pytest.raises(ParameterError, match="bad mass"):
        belief_from_json({"kind": "mass", "labels": ["a", "b"], "masses": {"a": x, "a|b": 0.5}})
    with pytest.raises(ParameterError, match="bad mass"):
        MassFunction(("a", "b"), {1: x})
    with pytest.raises(ParameterError, match="must be finite"):
        belief_from_json({"kind": "params", "values": [x, 0.0]})


def test_finite_entries_whose_sum_overflows_are_refused():
    with np.errstate(over="ignore"):  # numpy's own overflow warning aside
        with pytest.raises(ParameterError, match="probabilities sum past the float range"):
            FiniteSimplex(("a", "b"), [1e308, 1e308])
        with pytest.raises(ParameterError, match="probabilities sum past the float range"):
            normalize_probs(np.array([[0.5, 0.5], [1e308, 1e308]]))
        # rows whose own sums are finite are each normalized, whatever their total
        assert (normalize_probs(np.full((10, 2), 1e307)) == 0.5).all()
    with pytest.raises(ParameterError, match="masses sum past the float range"):
        MassFunction(("a", "b"), {1: 1e308, 2: 1e308})
    # the JSON reader refuses the simplex without numpy's warning
    with pytest.raises(ParameterError, match="probabilities sum past the float range"):
        belief_from_json({"kind": "simplex", "probs": {"a": 1e308, "b": 1e308}})


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


def _clip_then_sum(vec):
    """The simplex projection as it was before it skipped the clip: the
    finiteness check, np.maximum, a second sum and the division."""
    if not math.isfinite(np.add.reduce(vec)) and not np.isfinite(vec).all():
        raise NumericalError("non-finite coordinates during integration")
    clipped = np.maximum(vec, 0.0)
    total = clipped.sum()
    if total <= 0.0:
        raise NumericalError("probability mass vanished during integration")
    if total <= MASS_EPS:
        raise ParameterError("probability vector sums to zero")
    return clipped / total


_PROJECTION_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MASS_EPS, -MASS_EPS,
                     0.5 * MASS_EPS, math.inf, -math.inf, math.nan, 1e308]),
    st.floats(-MASS_EPS, 0.0, exclude_max=True),  # round-off negatives
    st.floats(0.0, 1e-300),  # subnormals and tiny normals
    st.floats(0.0, MASS_EPS),  # vectors of these sum to at most MASS_EPS or just past it
    st.floats(0.0, 1.0),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=600, deadline=None)
@given(st.lists(_PROJECTION_ENTRIES, min_size=1, max_size=8))
def test_simplex_projection_keeps_the_bits_of_clip_then_sum(entries):
    vec = np.array(entries, dtype=float)
    project = _BY_CLS[FiniteSimplex].project
    with np.errstate(over="ignore", invalid="ignore"):  # as the integrators run it
        try:
            want = _clip_then_sum(vec.copy())
        except (NumericalError, ParameterError) as exc:
            with pytest.raises(type(exc)) as got:
                project(vec)
            assert str(got.value) == str(exc)
            return
        got = project(vec)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_derived_beliefs_equal_the_validated_ones():
    # results the library derives skip the label and per-entry checks the
    # public constructors make: they are the same beliefs, field for field
    rng = np.random.default_rng(11)
    labels = ("a", "b", "c", "d")
    for _ in range(20):
        p = FiniteSimplex(labels, rng.dirichlet(np.ones(4)))
        a = EventSet(labels, int(rng.integers(1, 15)))
        m = MassFunction.from_simplex(p)
        derived = [
            (p.with_probs(p.probs * 3.0), FiniteSimplex(labels, p.probs * 3.0)),
            (m.as_simplex(), FiniteSimplex(labels, np.array([m.masses.get(1 << i, 0.0) for i in range(4)]))),
            (m, MassFunction(labels, {1 << i: x for i, x in enumerate(p.probs.tolist())})),
            (simple_support(labels, a, 0.3), MassFunction(labels, {a.mask: 0.3, 15: 0.7})),
        ]
        support, raw = simple_support(labels, a, 0.3), {}
        for s1, w1 in m.masses.items():  # Dempster's conjunctive products, before the division
            for s2, w2 in support.masses.items():
                if s1 & s2:
                    raw[s1 & s2] = raw.get(s1 & s2, 0.0) + w1 * w2
        derived.append((dempster_combine(m, support), MassFunction(labels, raw)))
        for got, ref in derived:
            assert type(got) is type(ref) and got.labels == ref.labels and repr(got) == repr(ref)
            assert vars(got).keys() == vars(ref).keys()
            if isinstance(got, FiniteSimplex):  # == on two simplexes compares arrays: by bytes
                assert got.probs.tobytes() == ref.probs.tobytes() and got.probs.dtype == float
                assert not got.probs.flags.writeable
                with pytest.raises(ValueError):
                    got.probs[0] = 0.5
            else:
                assert got == ref and list(got.masses.items()) == list(ref.masses.items())
                assert all(type(x) is float for x in got.masses.values())
    p = FiniteSimplex(("a", "b"), np.array([0.4, 0.6]))
    with pytest.raises(ParameterError, match=r"^probability vector shape \(3,\) does not match 2 labels$"):
        p.with_probs(np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ParameterError, match=r"^negative probability -0\.5$"):
        p.with_probs(np.array([-0.5, 1.5]))
    with pytest.raises(ParameterError, match=r"^probability vector sums to zero$"):
        p.with_probs(np.zeros(2))
