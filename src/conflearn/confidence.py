"""Confidence domains: graded trust values and how they compose.

A confidence domain is a preordered monoid (D, <=, bot, top, combine).  Its
elements grade how strongly an observation is trusted: ``bot`` is "ignore the
observation" (neutral), ``top`` is "treat it as certain" (absorbing on the
left).  ``combine(a, b)`` is the single confidence equivalent to updating
first with ``b`` and then with ``a``; for the commutative domains the order
is irrelevant, but the Kalman pair domain genuinely depends on it.

Registered domains, addressable by string id:

- ``"frac"``   fractional support in [0, 1], a (+) b = a + b - a*b
- ``"add"``    additive weight of evidence in [0, inf], a (+) b = a + b
- ``"max"``    plateau support in [0, 1], a (+) b = max(a, b)
- ``"kalman"`` pairs (K, r2) of gain and sensor variance
- ``"count"``  extended natural numbers under addition
- ``"list:<inner-id>"`` finite sequences over an inner domain under
  concatenation, with top collapsing to the singleton [top]

The fractional and additive domains are isomorphic via the weight-of-evidence
chart ``t = -log(1 - s)/beta`` (``frac_to_add``/``add_to_frac``), which turns
fractional combination into plain addition.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import DomainMismatchError, ParameterError, UnsupportedError

__all__ = [
    "ConfidenceValue",
    "ConfidenceDomain",
    "get_domain",
    "available_domains",
    "list_extend",
    "frac_to_add",
    "add_to_frac",
    "kalman_combine",
    "confidence_to_json",
    "confidence_from_json",
]

# Payload kinds.  Top/bot are explicit variants, never encoded as inf/NaN.
BOT = "bot"
TOP = "top"
REAL = "real"
PAIR = "pair"
SEQ = "list"

_EPS = 1e-12
_BELOW_ONE = math.nextafter(1.0, 0.0)  # largest float short of certainty


@dataclass(frozen=True, slots=True)
class ConfidenceValue:
    """One element of a confidence domain.

    ``payload`` is a float for scalar domains, an int for counts, a
    (gain, variance) tuple for the Kalman pair domain, and a tuple of inner
    ConfidenceValues for list domains.  For the ``bot``/``top`` kinds the
    payload is unused.  The fields are slots, and ``_derived`` builds the
    values a domain derives without this constructor, to equal ones.
    """

    domain_id: str
    kind: str
    payload: object = None

    @property
    def is_bot(self) -> bool:
        return self.kind == BOT

    @property
    def is_top(self) -> bool:
        return self.kind == TOP

    @property
    def gain(self) -> float:
        k, _ = _pair_payload(self)
        return k

    @property
    def noise(self) -> float:
        _, v = _pair_payload(self)
        return v

    def __repr__(self) -> str:  # compact, used in witnesses
        if self.kind in (BOT, TOP):
            return f"<{self.domain_id}:{self.kind}>"
        return f"<{self.domain_id}:{self.payload!r}>"


def _frozen(v, name, *value):  # as unslotted: the slotted dataclass's own raises TypeError off its fields
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


ConfidenceValue.__setattr__ = ConfidenceValue.__delattr__ = _frozen
_SET_DOMAIN_ID, _SET_KIND, _SET_PAYLOAD = (ConfidenceValue.__dict__[f].__set__ for f in ConfidenceValue.__slots__)


def _derived(domain_id: str, kind: str, payload) -> ConfidenceValue:
    """ConfidenceValue(domain_id, kind, payload), its slots set by their descriptors at half the cost."""
    v = object.__new__(ConfidenceValue)
    _SET_DOMAIN_ID(v, domain_id)
    _SET_KIND(v, kind)
    _SET_PAYLOAD(v, payload)
    return v


def _pair_payload(v: ConfidenceValue) -> tuple:
    """Materialize a Kalman-domain value as a (gain, variance) pair."""
    if v.kind == BOT:
        return (0.0, math.inf)
    if v.kind == TOP:
        return (1.0, 0.0)
    if v.kind == PAIR:
        return v.payload
    raise UnsupportedError(f"value of kind {v.kind!r} has no gain/noise")


class ConfidenceDomain:
    """Base class; concrete domains fill in value/combine/leq."""

    id: str = ""

    def __init__(self) -> None:
        self.bot = ConfidenceValue(self.id, BOT)
        self.top = ConfidenceValue(self.id, TOP)

    # -- membership -------------------------------------------------------

    def check_member(self, v: ConfidenceValue) -> ConfidenceValue:
        if not isinstance(v, ConfidenceValue) or v.domain_id != self.id:
            raise DomainMismatchError(
                f"expected a value of domain {self.id!r}, got {v!r}"
            )
        return v

    def value(self, x) -> ConfidenceValue:
        """Wrap a raw payload, canonicalizing endpoint payloads to bot/top."""
        raise NotImplementedError

    def coerce(self, x) -> ConfidenceValue:
        """Accept either a ConfidenceValue of this domain or a raw payload."""
        if isinstance(x, ConfidenceValue):
            return self.check_member(x)
        return self.value(x)

    # -- monoid structure ---------------------------------------------------

    def combine(self, a: ConfidenceValue, b: ConfidenceValue) -> ConfidenceValue:
        """a (+) b: one value equivalent to updating with b, then with a."""
        a = self.check_member(a)
        b = self.check_member(b)
        if b.is_bot:
            return a
        if a.is_bot:
            return b
        if a.is_top:
            return self.top
        return self._combine_inner(a, b)

    def _combine_inner(self, a: ConfidenceValue, b: ConfidenceValue) -> ConfidenceValue:
        raise NotImplementedError

    def leq(self, a: ConfidenceValue, b: ConfidenceValue) -> bool:
        a = self.check_member(a)
        b = self.check_member(b)
        if a.is_bot or b.is_top:
            return True
        if a.is_top:
            return b.is_top
        if b.is_bot:
            return a.is_bot
        return self._leq_inner(a, b)

    def _leq_inner(self, a: ConfidenceValue, b: ConfidenceValue) -> bool:
        raise NotImplementedError

    # -- optional structure used by probes ---------------------------------

    def residual(
        self, lo: ConfidenceValue, hi: ConfidenceValue
    ) -> Optional[ConfidenceValue]:
        """A delta with combine(delta, lo) == hi, when one is available."""
        return self._residual_inner(lo, hi) if self.leq(lo, hi) else None

    def _residual_inner(self, lo: ConfidenceValue, hi: ConfidenceValue) -> Optional[ConfidenceValue]:
        return None  # called where lo <= hi; a domain with residuals overrides it

    def to_float(self, v: ConfidenceValue) -> float:
        raise UnsupportedError(f"domain {self.id!r} has no scalar chart")

    def sample(self, rng) -> ConfidenceValue:
        raise UnsupportedError(f"domain {self.id!r} has no sampler")

    @property
    def is_scalar_continuum(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"ConfidenceDomain({self.id!r})"


class _ScalarDomain(ConfidenceDomain):
    """Shared plumbing for domains carried by a real interval."""

    lo_float = 0.0
    hi_float = math.inf  # float image of top

    def value(self, x) -> ConfidenceValue:
        x = float(x)
        lo, hi = self.lo_float, self.hi_float
        if lo < x < hi:  # the open interior, the common case; NaN fails it
            return _derived(self.id, REAL, x)
        if math.isnan(x):
            raise ParameterError(f"{self.id}: NaN is not a confidence value")
        if x < lo - _EPS or x > hi + _EPS:
            raise ParameterError(f"{self.id}: {x!r} outside carrier [{lo}, {hi}]")
        # within rounding of an end point: clamp onto it
        return self.bot if x <= lo else self.top

    def to_float(self, v: ConfidenceValue) -> float:
        if not (isinstance(v, ConfidenceValue) and v.domain_id == self.id):
            self.check_member(v)  # raises
        return _float_of(self, v)

    def _leq_inner(self, a, b) -> bool:
        return a.payload <= b.payload

    def _combine_inner(self, a, b):
        if b.is_top:  # all scalar domains commute, so top absorbs either way
            return self.top
        return self.value(self._op(a.payload, b.payload))

    def _op(self, s: float, t: float) -> float:
        raise NotImplementedError

    def sample(self, rng) -> ConfidenceValue:  # the unit carrier's; "add" has its own
        return self.value(float(rng.uniform(0.01, 0.99)))

    @property
    def is_scalar_continuum(self) -> bool:
        return True


class FractionalDomain(_ScalarDomain):
    """Support values in [0, 1] with a (+) b = a + b - a*b."""

    id = "frac"
    hi_float = 1.0

    def _op(self, s, t):
        # Two supports short of certainty combine to one short of certainty;
        # a sum that rounds up to 1.0 is held just below it, so rounding alone
        # never yields top and associativity cannot split top from a real.
        return min(s + t - s * t, _BELOW_ONE)

    def _residual_inner(self, lo, hi):
        s, t = self.to_float(lo), self.to_float(hi)
        if t >= 1.0:
            return self.top
        if s >= 1.0:
            return None
        return self.value((t - s) / (1.0 - s))


class AdditiveDomain(_ScalarDomain):
    """Weights of evidence in [0, inf] under addition."""

    id = "add"
    hi_float = math.inf

    def _op(self, s, t):
        return s + t

    def _residual_inner(self, lo, hi):
        if hi.is_top:
            return self.top
        return self.value(self.to_float(hi) - self.to_float(lo))

    def sample(self, rng) -> ConfidenceValue:
        # log-uniform keeps both gentle and decisive updates in play
        return self.value(float(math.exp(rng.uniform(math.log(1e-2), math.log(10.0)))))


class MaxDomain(_ScalarDomain):
    """Plateau support in [0, 1]: combining keeps the stronger value."""

    id = "max"
    hi_float = 1.0

    def _op(self, s, t):
        return max(s, t)

    def _residual_inner(self, lo, hi):
        return hi


class CountDomain(ConfidenceDomain):
    """Extended natural numbers under addition (iteration counts)."""

    id = "count"

    def value(self, x) -> ConfidenceValue:
        if isinstance(x, float) and math.isinf(x):
            return self.top
        n = int(x)
        if n != x or n < 0:
            raise ParameterError(f"count: {x!r} is not a natural number")
        if n == 0:
            return self.bot
        return _derived(self.id, REAL, n)

    def to_float(self, v: ConfidenceValue) -> float:
        v = self.check_member(v)
        if v.is_bot:
            return 0.0
        if v.is_top:
            return math.inf
        return float(v.payload)

    def _combine_inner(self, a, b):
        if b.is_top:
            return self.top
        return self.value(a.payload + b.payload)

    def _leq_inner(self, a, b) -> bool:
        return a.payload <= b.payload

    def _residual_inner(self, lo, hi):
        if hi.is_top:
            return self.top
        return self.value(int(self.to_float(hi) - self.to_float(lo)))

    def sample(self, rng) -> ConfidenceValue:
        return self.value(int(rng.integers(0, 9)))


class KalmanPairDomain(ConfidenceDomain):
    """Pairs (K, r2): filter gain in [0, 1] and sensor variance in [0, inf].

    Zero gain is the identity update whatever the variance, so every (0, r2)
    canonicalizes to bot; (1, 0) is the certain projection, canonicalized to
    top.  Composition is non-commutative: combine(a, b) applies b first.
    """

    id = "kalman"

    def value(self, x) -> ConfidenceValue:
        k, v = x
        k = float(k)
        v = float(v)
        if math.isnan(k) or math.isnan(v):
            raise ParameterError("kalman: NaN in (K, r2) pair")
        if k < -_EPS or k > 1.0 + _EPS or v < -_EPS:
            raise ParameterError(f"kalman: ({k!r}, {v!r}) outside carrier")
        k = min(max(k, 0.0), 1.0)
        v = max(v, 0.0)
        if k == 0.0:
            return self.bot
        if k == 1.0 and v == 0.0:
            return self.top
        return _derived(self.id, PAIR, (k, v))

    def _combine_inner(self, a, b):
        # b happens first: translate to the sequential form and back.
        k, v = _compose_pairs(*_pair_payload(b), *_pair_payload(a))
        return self.value((k, v))

    def _leq_inner(self, a, b) -> bool:
        ka, va = _pair_payload(a)
        kb, vb = _pair_payload(b)
        if ka != kb:
            return ka < kb
        return va >= vb  # at equal gain, a quieter sensor is more confident

    def _residual_inner(self, lo, hi):
        """delta with combine(delta, lo) == hi, i.e. lo-then-delta == hi."""
        if lo.is_bot:
            return hi
        if hi.is_top:
            return self.top
        k1, v1 = _pair_payload(lo)
        k3, v3 = _pair_payload(hi)
        if k1 >= 1.0:
            # gain already one: only the variance can shrink, via (k2, 0)
            return self.value((1.0 - math.sqrt(v3 / v1), 0.0)) if v3 <= v1 else None
        k2 = (k3 - k1) / (1.0 - k1)
        if k2 <= 0.0:
            return self.bot if v3 == v1 else None
        w = k1 * (1.0 - k2)
        num = v3 * k3 * k3 - (w * w * v1 if w > 0.0 else 0.0)
        if num < -1e-9:
            return None
        v2 = max(num, 0.0) / (k2 * k2)
        return self.value((k2, v2))

    def sample(self, rng) -> ConfidenceValue:
        k = float(rng.uniform(0.05, 0.95))
        v = float(math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        return self.value((k, v))


def _compose_pairs(k1: float, v1: float, k2: float, v2: float) -> tuple:
    """Single (K, r2) equal to updating with (k1, v1) and then (k2, v2).

    Derived by composing the affine mean maps ((1-K3) = (1-K1)(1-K2)) and
    matching the propagated variances.  The K3 = 0 case is the identity; its
    variance is fixed by convention (the value is neutral either way).
    """
    k3 = k1 + k2 - k1 * k2
    if k3 == 0.0:
        return (0.0, v1)
    t1 = (k2 * k2) * v2 if k2 > 0.0 else 0.0
    w = k1 * (1.0 - k2)
    t2 = (w * w) * v1 if w > 0.0 else 0.0
    return (k3, (t1 + t2) / (k3 * k3))


class ListDomain(ConfidenceDomain):
    """Free extension: finite sequences over an inner domain.

    Concatenation is the combination (earlier updates first), the empty list
    is neutral, and any occurrence of the inner top collapses the whole list
    to [top].  The order is prefix order.
    """

    def __init__(self, inner: ConfidenceDomain) -> None:
        if isinstance(inner, ListDomain):
            raise ParameterError("list domains do not nest")
        self.inner = inner
        self.id = f"list:{inner.id}"
        super().__init__()

    def value(self, xs) -> ConfidenceValue:
        items = []
        for x in xs:
            v = self.inner.coerce(x)
            if v.is_top:
                return self.top
            items.append(v)
        if not items:
            return self.bot
        return _derived(self.id, SEQ, tuple(items))

    def _materialize(self, v: ConfidenceValue) -> tuple:
        if v.is_bot:
            return ()
        if v.is_top:
            return (self.inner.top,)
        return v.payload

    def _combine_inner(self, a, b):
        if b.is_top:
            return self.top
        return self.value(self._materialize(b) + self._materialize(a))

    def _leq_inner(self, a, b) -> bool:
        xs, ys = self._materialize(a), self._materialize(b)
        return xs == ys[: len(xs)]

    def residual(self, lo, hi):
        if hi.is_top:
            return self.top
        xs, ys = self._materialize(lo), self._materialize(hi)
        if xs == ys[: len(xs)]:
            return self.value(ys[len(xs):])
        return None

    def sample(self, rng) -> ConfidenceValue:
        n = int(rng.integers(0, 4))
        return self.value([self.inner.sample(rng) for _ in range(n)])


_BUILTIN = {
    "frac": FractionalDomain,
    "add": AdditiveDomain,
    "max": MaxDomain,
    "kalman": KalmanPairDomain,
    "count": CountDomain,
}

_CACHE: dict = {}


def get_domain(domain_id: str) -> ConfidenceDomain:
    """Look up a registered domain by id (see module docstring for the ids)."""
    if domain_id in _CACHE:
        return _CACHE[domain_id]
    if domain_id in _BUILTIN:
        dom = _BUILTIN[domain_id]()
    elif domain_id.startswith("list:"):
        dom = ListDomain(get_domain(domain_id[len("list:"):]))
    else:
        raise ParameterError(f"unknown confidence domain {domain_id!r}")
    _CACHE[domain_id] = dom
    return dom


def available_domains() -> tuple:
    return tuple(_BUILTIN)


def list_extend(domain: ConfidenceDomain) -> ConfidenceDomain:
    """The list domain over ``domain``."""
    return get_domain(f"list:{domain.id}")


def _float_of(dom: _ScalarDomain, x) -> float:
    """dom.to_float(dom.coerce(x)) for a scalar domain, read in place: a value of dom is its payload,
    or lo_float/hi_float at bot/top, and a Python float inside the open carrier is its own payload."""
    if isinstance(x, ConfidenceValue) and x.domain_id == dom.id:
        return x.payload if x.kind == REAL else dom.lo_float if x.kind == BOT else dom.hi_float
    return x if type(x) is float and dom.lo_float < x < dom.hi_float else dom.to_float(dom.coerce(x))


# ---------------------------------------------------------------------------
# The weight-of-evidence chart between "frac" and "add".

_FRAC = get_domain("frac")
_ADD = get_domain("add")


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta < math.inf:  # NaN fails it too
        raise ParameterError(f"beta must be a positive real, got {beta!r}")
    return beta


def _to_add(s: float) -> float:
    """frac_to_add at beta = 1 on a float support s < 1: -log(1 - s)."""
    return -math.log1p(-s)


def _to_frac(t: float) -> float:
    """add_to_frac at beta = 1 on a float weight t: 1 - exp(-t), 1 at inf."""
    return -math.expm1(-t)


def frac_to_add(beta: float, s) -> ConfidenceValue:
    """Map fractional support s to additive weight -log(1 - s)/beta.

    Sends bot to bot and top to top, and turns fractional combination into
    addition: phi(a (+) b) = phi(a) + phi(b).
    """
    beta = _check_beta(beta)
    x = _float_of(_FRAC, s)
    if x < 1.0:  # 0 maps to 0, which value() reads as bot
        return _ADD.value(_to_add(x) / beta)
    return _ADD.top  # log1p(-1) raises


def add_to_frac(beta: float, t) -> ConfidenceValue:
    """Inverse chart: additive weight t back to support 1 - exp(-beta*t)."""
    beta = _check_beta(beta)
    x = _float_of(_ADD, t)
    if x < math.inf:
        return _FRAC.value(_to_frac(beta * x))
    return _FRAC.top


# ---------------------------------------------------------------------------
# Kalman pair composition in its sequential reading.


def kalman_combine(c1, c2) -> ConfidenceValue:
    """One (K, r2) equivalent to updating with c1 first and then c2.

    Accepts ConfidenceValues of the "kalman" domain or raw (K, r2) tuples.
    """
    dom = get_domain("kalman")
    a = dom.coerce(tuple(c1) if not isinstance(c1, ConfidenceValue) else c1)
    b = dom.coerce(tuple(c2) if not isinstance(c2, ConfidenceValue) else c2)
    return dom.combine(b, a)


# ---------------------------------------------------------------------------
# JSON wire format for confidence values.


def confidence_to_json(v: ConfidenceValue) -> dict:
    if v.kind == BOT:
        return {"domain": v.domain_id, "value": "bot"}
    if v.kind == TOP:
        return {"domain": v.domain_id, "value": "top"}
    if v.kind == PAIR:
        k, r2 = v.payload
        return {"domain": v.domain_id, "value": {"K": k, "r2": r2}}
    if v.kind == SEQ:
        return {
            "domain": v.domain_id,
            "value": [confidence_to_json(item)["value"] for item in v.payload],
        }
    return {"domain": v.domain_id, "value": v.payload}


def confidence_from_json(obj, default_domain: Optional[str] = None) -> ConfidenceValue:
    """Parse {"domain": id, "value": ...}; bare payloads use default_domain."""
    if isinstance(obj, dict) and "domain" in obj:
        return _parse_raw(get_domain(obj["domain"]), obj.get("value"))
    if default_domain is None:
        raise ParameterError("confidence value without a domain id")
    return _parse_raw(get_domain(default_domain), obj)


def _parse_raw(dom: ConfidenceDomain, raw) -> ConfidenceValue:
    if raw == "bot":
        return dom.bot
    if raw == "top":
        return dom.top
    if isinstance(dom, KalmanPairDomain):
        if isinstance(raw, dict):
            return dom.value((raw["K"], raw["r2"]))
        return dom.value(tuple(raw))
    if isinstance(dom, ListDomain):
        return dom.value([_parse_raw(dom.inner, r) for r in raw])
    return dom.value(raw)
