"""Monoid laws, the fractional/additive chart, and pair composition."""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflearn import (
    DomainMismatchError,
    ParameterError,
    add_to_frac,
    available_domains,
    confidence_from_json,
    confidence_to_json,
    frac_to_add,
    get_domain,
    kalman_combine,
    list_extend,
)
from conflearn.confidence import ConfidenceValue, _derived, _float_of

FRAC = get_domain("frac")
ADD = get_domain("add")
MAX = get_domain("max")
KALMAN = get_domain("kalman")
COUNT = get_domain("count")


def _gap(dom, a, b):
    """Distance between two confidence values, componentwise for pairs."""
    if a.is_bot or a.is_top or b.is_bot or b.is_top:
        return 0.0 if (a.is_bot == b.is_bot and a.is_top == b.is_top) else math.inf
    pa, pb = a.payload, b.payload
    if dom.id == "kalman":
        return max(abs(pa[0] - pb[0]), abs(pa[1] - pb[1]))
    if dom.id.startswith("list:"):
        if len(pa) != len(pb):
            return math.inf
        inner = get_domain(dom.id[len("list:"):])
        return max((_gap(inner, x, y) for x, y in zip(pa, pb)), default=0.0)
    fa, fb = dom.to_float(a), dom.to_float(b)
    if math.isinf(fa) and math.isinf(fb):
        return 0.0
    return abs(fa - fb)


# ---------------------------------------------------------------------------
# Pinned combine values.


def test_frac_combine_half_half():
    v = FRAC.combine(FRAC.value(0.5), FRAC.value(0.5))
    assert v.payload == pytest.approx(0.75, abs=1e-15)


def test_frac_combine_of_reals_stays_real_near_one():
    # 1 - 2**-53 combined with 0.875 rounds to 1.0 in floats; the exact
    # result is short of certainty, so both bracketings must stay real.
    a, b, c = FRAC.value(0.9999999999999999), FRAC.value(0.875), FRAC.value(0.01)
    left = FRAC.combine(FRAC.combine(a, b), c)
    right = FRAC.combine(a, FRAC.combine(b, c))
    assert not left.is_top and not right.is_top
    assert _gap(FRAC, left, right) <= 1e-12


def test_add_combine_is_addition():
    v = ADD.combine(ADD.value(1.25), ADD.value(0.5))
    assert v.payload == pytest.approx(1.75, abs=1e-15)


def test_max_combine_is_max():
    v = MAX.combine(MAX.value(0.3), MAX.value(0.7))
    assert v.payload == pytest.approx(0.7, abs=1e-15)


def test_kalman_combine_pinned():
    v = kalman_combine(KALMAN.value((0.5, 1.0)), KALMAN.value((0.5, 1.0)))
    assert v.gain == pytest.approx(0.75, abs=1e-15)
    assert v.noise == pytest.approx(0.5555555555555556, abs=1e-15)


def test_kalman_zero_gain_is_neutral():
    c = KALMAN.value((0.4, 2.0))
    for r2 in (0.0, 1.0, 7.5):
        v = kalman_combine(KALMAN.value((0.0, r2)), c)
        assert _gap(KALMAN, v, c) <= 1e-15


def test_kalman_full_gain_first():
    # (1,0) then (K2,r2): gain stays 1, variance becomes K2^2 r2.
    v = kalman_combine(KALMAN.value((1.0, 0.0)), KALMAN.value((0.5, 2.0)))
    assert v.gain == pytest.approx(1.0, abs=1e-15)
    assert v.noise == pytest.approx(0.25 * 2.0, abs=1e-15)


def test_kalman_combine_matches_sequential_updates():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k1, k2 = rng.uniform(0.0, 1.0, 2)
        r1, r2 = rng.uniform(0.0, 3.0, 2)
        x, var = rng.normal(), rng.uniform(0.1, 4.0)
        z = rng.normal()
        # two affine updates applied in order c1 then c2
        x1 = x + k1 * (z - x)
        v1 = (1 - k1) ** 2 * var + k1**2 * r1
        x2 = x1 + k2 * (z - x1)
        v2 = (1 - k2) ** 2 * v1 + k2**2 * r2
        c3 = kalman_combine(KALMAN.value((k1, r1)), KALMAN.value((k2, r2)))
        if c3.is_bot:
            k3, rr = 0.0, 0.0
        elif c3.is_top:
            k3, rr = 1.0, 0.0
        else:
            k3, rr = c3.gain, c3.noise
        x3 = x + k3 * (z - x)
        v3 = (1 - k3) ** 2 * var + k3**2 * rr
        assert abs(x3 - x2) <= 1e-10
        assert abs(v3 - v2) <= 1e-10


# ---------------------------------------------------------------------------
# The chart between the fractional and additive scales.


def test_chart_pinned_value():
    assert frac_to_add(1.0, 0.5).payload == pytest.approx(
        0.6931471805599453, abs=1e-15
    )


def test_chart_sends_one_to_top():
    assert frac_to_add(1.0, 1.0).is_top
    assert add_to_frac(1.0, ADD.top).is_top
    assert frac_to_add(2.0, 0.0).is_bot


def test_chart_round_trip_grid():
    for beta in (0.5, 1.0, 2.0):
        s = np.linspace(0.0, 1.0 - 1e-9, 10_000)
        worst = 0.0
        for si in s:
            back = add_to_frac(beta, frac_to_add(beta, si))
            worst = max(worst, abs(FRAC.to_float(back) - si))
        assert worst <= 1e-10
        # the frac chart stores 1 - exp(-beta t); past beta*t ~ 36 that
        # rounds to exactly 1, so probe the faithfully representable range
        t = np.linspace(0.0, 10.0 / beta, 10_000)
        worst = 0.0
        for ti in t:
            back = frac_to_add(beta, add_to_frac(beta, ti))
            worst = max(worst, abs(ADD.to_float(back) - ti))
        assert worst <= 1e-10
        assert add_to_frac(beta, frac_to_add(beta, 0.999999)).payload == (
            pytest.approx(0.999999, abs=1e-10)
        )


def test_chart_is_monotone():
    for beta in (0.5, 1.0, 2.0):
        s = np.linspace(0.0, 0.999999, 512)
        t = [ADD.to_float(frac_to_add(beta, si)) for si in s]
        assert all(a <= b for a, b in zip(t, t[1:]))


def test_chart_is_homomorphism():
    rng = np.random.default_rng(5)
    for beta in (0.5, 1.0, 2.0):
        for _ in range(300):
            s1, s2 = rng.uniform(0.0, 1.0, 2)
            lhs = frac_to_add(beta, FRAC.combine(FRAC.value(s1), FRAC.value(s2)))
            rhs = ADD.combine(frac_to_add(beta, s1), frac_to_add(beta, s2))
            assert _gap(ADD, lhs, rhs) <= 1e-10


def test_chart_rejects_bad_beta():
    with pytest.raises(ParameterError):
        frac_to_add(0.0, 0.5)
    with pytest.raises(ParameterError):
        add_to_frac(-1.0, 0.5)


def _coerced_float(dom, x):
    """The reference the float helper shortcuts: to_float(coerce(x))."""
    return dom.to_float(dom.coerce(x))


def _outcome(fn, *args):
    """fn(*args) as ("ok", the result's type and bits) or ("error", type, message)."""
    try:
        out = fn(*args)
    except Exception as exc:
        return ("error", type(exc), str(exc))
    if isinstance(out, float):
        return ("ok", type(out), out.hex())
    return ("ok", type(out), repr(out), type(out.payload), out.payload)


def test_float_helper_reads_as_to_float_of_coerce():
    tiny = math.nextafter(0.0, 1.0)
    below_one = math.nextafter(1.0, 0.0)
    for dom in (FRAC, ADD, MAX):
        hi = dom.hi_float
        inputs = [
            0.3, tiny, 1e-300, below_one, 0.0, -0.0, 1.0, 2.5, 1e308, hi,
            0, 1, 2, True,
            np.float64(0.3), np.float64(0.0), np.float64(1.0), np.float32(0.25),
            dom.bot, dom.top, dom.value(0.3), dom.value(tiny), dom.value(0.999),  # read in place
            -1e-13, 1.0 + 1e-13, -1e-11, 1.0 + 1e-11,  # within and past rounding of an end
            math.nan, -0.5, 1.5, -math.inf, "x", None, FRAC.value(0.3), ADD.top,
        ]
        for x in inputs:
            want = _outcome(_coerced_float, dom, x)
            assert _outcome(_float_of, dom, x) == want, (dom.id, x)
    # the direct reading applies to Python floats alone: a numpy float takes the full path
    assert type(np.float64(0.3)) is not float
    assert type(_float_of(FRAC, np.float64(0.3))) is float
    with pytest.raises(ParameterError, match=r"^frac: NaN is not a confidence value$"):
        _float_of(FRAC, math.nan)
    with pytest.raises(ParameterError, match=r"^frac: -0\.5 outside carrier \[0\.0, 1\.0\]$"):
        _float_of(FRAC, -0.5)
    with pytest.raises(DomainMismatchError):
        _float_of(ADD, FRAC.value(0.3))


def _chart_reference(beta, x, src, dst, f, scale):
    """frac_to_add (scale=False) or add_to_frac (scale=True) as they read their
    argument through a coerced ConfidenceValue."""
    beta = float(beta)
    if not 0.0 < beta < math.inf:
        raise ParameterError(f"beta must be a positive real, got {beta!r}")
    v = src.coerce(x)
    if v.is_bot:
        return dst.bot
    if v.is_top:
        return dst.top
    return dst.value(f(beta * v.payload) if scale else f(v.payload) / beta)


def test_chart_keeps_its_bits_at_the_ends():
    tiny = math.nextafter(0.0, 1.0)
    below_one = 1.0 - 2.0 ** -53
    values = [0.0, tiny, 1e-300, 0.5, below_one, 1.0, 37.0, 1e308, math.inf, 0, 1,
              np.float64(below_one), FRAC.bot, FRAC.top, FRAC.value(below_one), ADD.bot, ADD.top,
              ADD.value(tiny), -1e-13, math.nan, -0.5, 1.5, "x"]
    for beta in (1.0, 0.3, 2.0, tiny, 1e308):
        for x in values:
            to_add = _outcome(_chart_reference, beta, x, FRAC, ADD, lambda s: -math.log1p(-s), False)
            to_frac = _outcome(_chart_reference, beta, x, ADD, FRAC, lambda t: -math.expm1(-t), True)
            assert _outcome(frac_to_add, beta, x) == to_add, (beta, x)
            assert _outcome(add_to_frac, beta, x) == to_frac, (beta, x)
    assert frac_to_add(1.0, below_one).payload == -math.log1p(-below_one)
    assert frac_to_add(1.0, 1.0) is ADD.top and frac_to_add(1.0, 0.0) is ADD.bot
    assert add_to_frac(1.0, math.inf) is FRAC.top and add_to_frac(1.0, 0.0) is FRAC.bot
    assert add_to_frac(1.0, tiny).payload == tiny
    # a bad beta is reported before a bad value
    for bad_beta in (0.0, -1.0, math.nan, math.inf):
        for chart in (frac_to_add, add_to_frac):
            with pytest.raises(ParameterError, match=r"^beta must be a positive real"):
                chart(bad_beta, "x")


# ---------------------------------------------------------------------------
# Shared monoid structure across every registered domain.


def test_associativity_sampled_triples():
    rng = np.random.default_rng(2)
    for dom_id in available_domains():
        dom = get_domain(dom_id)
        for _ in range(1000):
            a, b, c = (dom.sample(rng) for _ in range(3))
            left = dom.combine(dom.combine(a, b), c)
            right = dom.combine(a, dom.combine(b, c))
            assert _gap(dom, left, right) <= 1e-12, dom_id


def test_bot_is_neutral_everywhere():
    rng = np.random.default_rng(3)
    for dom_id in available_domains():
        dom = get_domain(dom_id)
        for _ in range(100):
            c = dom.sample(rng)
            assert _gap(dom, dom.combine(dom.bot, c), c) == 0.0
            assert _gap(dom, dom.combine(c, dom.bot), c) == 0.0


def test_top_absorbs_on_the_left():
    rng = np.random.default_rng(4)
    for dom_id in available_domains():
        dom = get_domain(dom_id)
        for _ in range(100):
            c = dom.sample(rng)
            if dom_id == "kalman" and not (c.is_bot or c.is_top):
                # the pair domain is the one genuinely non-commutative case:
                # top-then-c keeps gain 1 but reinflates variance
                v = dom.combine(dom.top, c)
                continue
            assert dom.combine(dom.top, c).is_top


def test_max_domain_laws():
    rng = np.random.default_rng(6)
    for _ in range(200):
        c = MAX.sample(rng)
        assert _gap(MAX, MAX.combine(c, c), c) == 0.0  # idempotent
    assert MAX.combine(MAX.top, MAX.value(0.3)).is_top
    assert _gap(MAX, MAX.combine(MAX.bot, MAX.value(0.3)), MAX.value(0.3)) == 0.0


def test_order_respected_by_combine():
    rng = np.random.default_rng(7)
    for dom_id in ("frac", "add", "max"):
        dom = get_domain(dom_id)
        for _ in range(200):
            a, c = dom.sample(rng), dom.sample(rng)
            assert dom.leq(a, dom.combine(c, a)) or dom_id == "max"
            assert dom.leq(a, dom.combine(a, c)) or dom_id == "max"


def test_count_domain_is_extended_naturals():
    assert COUNT.combine(COUNT.value(2), COUNT.value(3)).payload == 5
    assert COUNT.combine(COUNT.top, COUNT.value(3)).is_top
    assert COUNT.leq(COUNT.value(2), COUNT.value(4))
    assert not COUNT.leq(COUNT.value(4), COUNT.value(2))
    assert COUNT.residual(COUNT.value(2), COUNT.value(5)).payload == 3


# ---------------------------------------------------------------------------
# Residual subtraction.


def test_residuals_recombine():
    rng = np.random.default_rng(8)
    for dom_id in ("frac", "add", "max"):
        dom = get_domain(dom_id)
        for _ in range(300):
            lo, hi = dom.sample(rng), dom.sample(rng)
            if not dom.leq(lo, hi):
                lo, hi = hi, lo
            delta = dom.residual(lo, hi)
            assert delta is not None
            if dom_id == "max":
                assert dom.leq(hi, dom.combine(delta, lo))
            else:
                assert _gap(dom, dom.combine(delta, lo), hi) <= 1e-9


def test_kalman_residual_recombines():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(500):
        lo, hi = KALMAN.sample(rng), KALMAN.sample(rng)
        if not KALMAN.leq(lo, hi):
            lo, hi = hi, lo
        if not KALMAN.leq(lo, hi):
            continue
        delta = KALMAN.residual(lo, hi)
        if delta is None:
            continue
        checked += 1
        assert _gap(KALMAN, KALMAN.combine(delta, lo), hi) <= 1e-8
    assert checked >= 50


def test_residual_of_incomparable_is_none():
    assert FRAC.residual(FRAC.value(0.8), FRAC.value(0.2)) is None


# ---------------------------------------------------------------------------
# The list extension.


def test_list_concatenation_orders_items():
    dom = list_extend(FRAC)
    a = dom.value([FRAC.value(0.1), FRAC.value(0.2)])
    b = dom.value([FRAC.value(0.3)])
    # combine(a, b) is "b first, then a", so b's items lead
    v = dom.combine(a, b)
    assert [c.payload for c in v.payload] == [0.3, 0.1, 0.2]


def test_list_bot_is_empty_list():
    dom = list_extend(FRAC)
    a = dom.value([FRAC.value(0.4)])
    assert dom.combine(dom.bot, a).payload == a.payload
    assert dom.combine(a, dom.bot).payload == a.payload
    assert dom.value([]).is_bot


def test_list_collapses_top():
    dom = list_extend(FRAC)
    assert dom.value([FRAC.value(0.4), FRAC.top]).is_top
    a = dom.value([FRAC.value(0.4)])
    assert dom.combine(dom.top, a).is_top
    assert dom.combine(a, dom.top).is_top


def test_list_prefix_order():
    dom = list_extend(FRAC)
    short = dom.value([FRAC.value(0.2)])
    long = dom.value([FRAC.value(0.2), FRAC.value(0.5)])
    other = dom.value([FRAC.value(0.3)])
    assert dom.leq(short, long)
    assert not dom.leq(long, short)
    assert not dom.leq(other, long)
    assert dom.leq(dom.bot, other)
    assert dom.leq(other, dom.top)


def test_list_residual_is_suffix():
    dom = list_extend(FRAC)
    short = dom.value([FRAC.value(0.2)])
    long = dom.value([FRAC.value(0.2), FRAC.value(0.5)])
    delta = dom.residual(short, long)
    assert _gap(dom, dom.combine(delta, short), long) == 0.0


def test_list_of_list_rejected():
    dom = list_extend(FRAC)
    with pytest.raises(ParameterError):
        list_extend(dom)


# ---------------------------------------------------------------------------
# JSON wire format.


def test_confidence_json_round_trip():
    rng = np.random.default_rng(10)
    for dom_id in available_domains():
        dom = get_domain(dom_id)
        for c in (dom.bot, dom.top, dom.sample(rng)):
            back = confidence_from_json(confidence_to_json(c))
            assert _gap(dom, back, c) == 0.0


def test_confidence_json_default_domain():
    v = confidence_from_json(0.25, default_domain="frac")
    assert v.domain_id == "frac" and v.payload == 0.25
    assert confidence_from_json("top", default_domain="max").is_top


# ---------------------------------------------------------------------------
# Property-based monoid laws.


scalar_domains = st.sampled_from(["frac", "add", "max"])


@st.composite
def domain_values(draw, dom_id):
    dom = get_domain(dom_id)
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return dom.bot
    if kind == 1:
        return dom.top
    if dom_id == "add":
        return dom.value(draw(st.floats(0.0, 50.0, allow_nan=False)))
    return dom.value(draw(st.floats(0.0, 1.0, allow_nan=False)))


@settings(max_examples=200)
@given(st.data(), scalar_domains)
def test_monoid_laws_property(data, dom_id):
    dom = get_domain(dom_id)
    a = data.draw(domain_values(dom_id))
    b = data.draw(domain_values(dom_id))
    c = data.draw(domain_values(dom_id))
    assert _gap(dom, dom.combine(dom.bot, a), a) == 0.0
    assert dom.combine(dom.top, a).is_top
    left = dom.combine(dom.combine(a, b), c)
    right = dom.combine(a, dom.combine(b, c))
    assert _gap(dom, left, right) <= 1e-12


@settings(max_examples=200)
@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_chart_monotone_property(s1, s2, beta):
    lo, hi = min(s1, s2), max(s1, s2)
    assert ADD.leq(frac_to_add(beta, lo), frac_to_add(beta, hi))


# ---------------------------------------------------------------------------
# Values the domains derive are the public constructor's values.


_DERIVED = [  # (domain, interior payloads): every domain builds its values through _derived
    (FRAC, [0.3, 5e-324, math.nextafter(1.0, 0.0)]),
    (ADD, [0.7, 1e308]),
    (MAX, [0.5]),
    (COUNT, [1, 8]),
    (KALMAN, [(0.3, 2.0), (1.0, 0.5)]),
    (list_extend(FRAC), [[0.25], [0.25, 0.5]]),
]


@pytest.mark.parametrize("dom, payloads", _DERIVED, ids=[d.id for d, _ in _DERIVED])
def test_derived_values_equal_the_constructors(dom, payloads):
    for v in [dom.bot, dom.top] + [dom.value(x) for x in payloads]:
        made = ConfidenceValue(v.domain_id, v.kind, v.payload)
        assert _derived(v.domain_id, v.kind, v.payload) == v
        for w in (v, copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(w) is ConfidenceValue
            assert w == made and hash(w) == hash(made) and repr(w) == repr(made)
        assert not hasattr(v, "__dict__")  # the fields are slots
        for name in ("domain_id", "kind", "payload", "other"):  # as without slots, off the fields too
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(v, name, 0.5)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(v, name)


@pytest.mark.parametrize("dom", [d for d, _ in _DERIVED], ids=lambda d: d.id)
def test_a_value_of_another_domain_is_refused_in_the_same_words(dom):
    for w in (other.value(payloads[0]) for other, payloads in _DERIVED if other is not dom):
        message = f"^expected a value of domain {dom.id!r}, got {re.escape(repr(w))}$"
        readers = [dom.coerce, lambda v: dom.combine(v, dom.bot), lambda v: dom.leq(dom.bot, v)]
        if dom in (FRAC, ADD, MAX):
            readers += [dom.to_float, lambda v: _float_of(dom, v)]
        for read in readers:
            with pytest.raises(DomainMismatchError, match=message):
                read(w)
