"""Confidence-graded learners.

A :class:`Learner` bundles one update rule with everything the rest of the
package needs to reason about it: its confidence domain, its belief
representation, an optional belief functional ``bel`` (what the update is
gaining confidence *in*), closed-form flow/field representations when they
exist, and deterministic instance samplers used by the axiom lab.

Built-in registry ids:

- ``"interp"``      linear interpolation toward the conditioned simplex
- ``"ds"``          Dempster-Shafer plausibility update via simple support
- ``"kalman"``      scalar Kalman estimator driven by (gain, variance) pairs
- ``"boltzmann"``   exponential reweighting by a penalty variable
- ``"bayes"``       the Boltzmann learner on the penalty -log P(obs | h):
                    exact Bayesian conditioning at weight 1
- ``"max-graded"``  per-statement plateau update (keep the stronger grade)
- ``"classifier"``  iterated gradient steps on a softmax regression loss

All ``observe`` implementations share the signature
``observe(observation, confidence, belief) -> belief`` and satisfy the
no-confidence identity and the sequential-combination law of their domain.

The two reweighting learners share one Gibbs kernel (``_gibbs_learner``).
Each supplies only its penalty vector, samplers and JSON readers; the kernel
supplies the update, its coordinate flow and closed field, ``bel``,
``bel_top`` and ``in_domain``.  A penalty entry may be +inf (a zero
likelihood), which rules its world out.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .confidence import (
    ConfidenceDomain,
    ConfidenceValue,
    get_domain,
    list_extend,
)
from .beliefs import (
    EventSet,
    FiniteSimplex,
    GaussianBelief,
    GradedBeliefTable,
    MassFunction,
    RandomVariable,
    ds_plaus_update,
    normalize_probs,
    MASS_EPS,
)
from .errors import (
    DomainError,
    ParameterError,
    UnsupportedError,
    ZeroMassEventError,
)

__all__ = [
    "Learner",
    "get_learner",
    "available_learners",
    "in_domain",
    "lift_to_list",
    "interp_observe",
    "optimal_gain",
    "kalman_observe",
    "kalman_observe_opt",
    "boltzmann_observe",
    "BayesModel",
    "bayes_observe",
    "potential_to_likelihood",
    "DEFAULT_BAYES_MODEL",
    "max_graded_observe",
    "SoftmaxModel",
    "LabeledExample",
    "classifier_step_observe",
    "train_limit",
    "NonConvergenceWarning",
]


class NonConvergenceWarning(UserWarning):
    """The capped full-confidence iteration stopped before its fixed point."""


@dataclass(frozen=True)
class Learner:
    """An update rule plus the structure other modules probe it with.

    Optional fields are ``None`` when the learner does not register that
    representation; consumers treat a missing hook as "unsupported" rather
    than an error in the learner itself.
    """

    id: str
    domain: ConfidenceDomain
    observe: Callable[[Any, ConfidenceValue, Any], Any]
    in_domain: Callable[[Any, Any], bool]
    bel: Optional[Callable[[Any, Any], float]] = None
    bel_top: Optional[Callable[[Any, Any], float]] = None
    translate: Optional[Callable[[Any, ConfidenceValue, Any], float]] = None
    make_flow: Optional[Callable[[Any], Callable[[float, Any], Any]]] = None
    # coord_flow(phi, t, labels) is make_flow(phi) at additive time t, bound
    # once to simplexes over ``labels``: None where the update is the
    # identity, else a map from probs to the updated probs before
    # beliefs.normalize_probs, so FiniteSimplex(labels, map(probs)) is
    # make_flow(phi)(t, belief) bit for bit.
    coord_flow: Optional[
        Callable[[Any, float, Tuple[str, ...]], Optional[Callable[[np.ndarray], np.ndarray]]]
    ] = None
    # closed_field(phi) is the derivative field on coordinate arrays:
    # field(c, space) maps a belief's coordinates c (flows.belief_coords) on
    # the belief space with key ``space`` to its velocity components, and
    # raises DomainError where in_domain(phi, belief) is false.
    closed_field: Optional[Callable[[Any], Callable[[np.ndarray, tuple], np.ndarray]]] = None
    path_velocity: Optional[Callable[[Any, Any, float], np.ndarray]] = None
    lb_metric: Optional[str] = None
    sample_instance: Optional[Callable[[np.random.Generator], Tuple[Any, Any]]] = None
    sample_saturated: Optional[Callable[[np.random.Generator], Tuple[Any, Any]]] = None
    sample_top_instance: Optional[Callable[[np.random.Generator], Tuple[Any, Any]]] = None
    default_grid: Tuple[ConfidenceValue, ...] = ()
    bel_chain: Optional[Callable[[Any, Any], Sequence[ConfidenceValue]]] = None
    observation_to_json: Optional[Callable[[Any], dict]] = None
    observation_from_json: Optional[Callable[[Mapping, Any], Any]] = None
    # True when the full-confidence update absorbs any further update on the
    # same observation; the list lift is only well defined in that case.
    top_absorbing: bool = True
    notes: str = ""

    def __repr__(self) -> str:
        return f"Learner({self.id!r}, domain={self.domain.id!r})"


def _on_simplex(
    step: Optional[Callable[[np.ndarray], np.ndarray]], p: FiniteSimplex
) -> FiniteSimplex:
    """Apply a bound coordinate update (see ``Learner.coord_flow``) to p."""
    return p if step is None else p.with_probs(step(p.probs))


def _grid(dom: ConfidenceDomain, inner: Sequence, top: bool = True) -> Tuple[ConfidenceValue, ...]:
    """A default grid: bot, the values ``inner``, then top if ``top``."""
    return (dom.bot, *map(dom.value, inner)) + ((dom.top,) if top else ())


def _world_labels(n: int) -> Tuple[str, ...]:
    return tuple(f"w{i}" for i in range(n))


def _sample_simplex_instance(rng: np.random.Generator) -> Tuple[EventSet, FiniteSimplex]:
    """A random interior simplex and a nonempty proper event with real mass."""
    n = int(rng.integers(2, 7))
    labels = _world_labels(n)
    p = FiniteSimplex(labels, rng.dirichlet(np.ones(n)))
    full = (1 << n) - 1
    for _ in range(64):
        mask = int(rng.integers(1, full))
        a = EventSet(labels, mask)
        if p.prob(a) > 1e-6:
            return a, p
    return EventSet(labels, 1), p


# ---------------------------------------------------------------------------
# Interpolation learner (fractional support on event observations).


def interp_observe(
    a: EventSet, alpha: Union[float, ConfidenceValue], p: FiniteSimplex
) -> FiniteSimplex:
    """Mix the prior with its conditioning on ``a`` at weight alpha."""
    return _on_simplex(_interp_map(a, alpha, p.labels), p)


def _interp_map(a: EventSet, alpha, labels: Tuple[str, ...]):
    """interp_observe(a, alpha, .) bound to simplexes over ``labels``."""
    v = get_domain("frac").coerce(alpha)
    if v.is_bot:
        return None
    if labels != a.labels:
        raise ParameterError("event over a different world set")
    ind = a.indicator()
    w = None if v.is_top else v.payload

    def step(c: np.ndarray) -> np.ndarray:
        mass = float(c @ ind)  # condition(p, a), op for op
        if mass <= MASS_EPS:
            raise ZeroMassEventError(f"cannot condition on {a!r} with mass {mass:.3g}")
        cond = c * ind / mass
        if w is None:
            return cond
        return (1.0 - w) * c + w * normalize_probs(cond)

    return step


def _interp_coord_flow(a: EventSet, t: float, labels: Tuple[str, ...]):
    return _interp_map(a, -math.expm1(-t), labels)  # t = inf gives alpha = 1


def _interp_flow(a: EventSet):
    def flow(t: float, p: FiniteSimplex) -> FiniteSimplex:
        return _on_simplex(_interp_coord_flow(a, t, p.labels), p)

    return flow


def _interp_field(a: EventSet):
    ind = a.indicator()

    def field(c: np.ndarray, space: tuple) -> np.ndarray:
        # condition(p, a).probs - p.probs, op for op
        if space[1] != a.labels:
            raise ParameterError("event over a different world set")
        mass = float(c @ ind)
        if mass <= MASS_EPS:
            raise DomainError(f"event {a!r} has no mass")
        cond = c * ind / mass
        return cond / cond.sum() - c

    return field


def _frac_translate(phi, chi: ConfidenceValue, theta) -> float:
    frac = get_domain("frac")
    v = frac.coerce(chi)
    if v.is_top:
        return math.inf
    return -math.log1p(-frac.to_float(v))


def _event_to_json(a: EventSet) -> dict:
    return {"event": list(a.members())}


def _event_from_json(obj: Mapping, belief) -> EventSet:
    return EventSet.from_names(belief.labels, obj["event"])


def make_interp_learner() -> Learner:
    frac = get_domain("frac")

    def sample_saturated(rng):
        n = int(rng.integers(2, 6))
        labels = _world_labels(n)
        size = int(rng.integers(1, n))
        idx = rng.choice(n, size=size, replace=False)
        probs = np.zeros(n)
        probs[idx] = rng.dirichlet(np.ones(size))
        mask = int(sum(1 << int(i) for i in idx))
        return EventSet(labels, mask), FiniteSimplex(labels, probs)

    return Learner(
        id="interp",
        domain=frac,
        observe=interp_observe,
        in_domain=lambda a, p: p.prob(a) > MASS_EPS,
        bel=lambda a, p: math.log(p.prob(a)) if p.prob(a) > 0 else -math.inf,
        bel_top=lambda a, p: 0.0,
        translate=_frac_translate,
        make_flow=_interp_flow,
        coord_flow=_interp_coord_flow,
        closed_field=_interp_field,
        lb_metric="fisher",
        sample_instance=_sample_simplex_instance,
        sample_saturated=sample_saturated,
        default_grid=_grid(frac, (0.25, 0.5, 0.75)),
        observation_to_json=_event_to_json,
        observation_from_json=_event_from_json,
        notes="posterior = (1-alpha) P + alpha P(.|a); Bel = log P(a)",
    )


# ---------------------------------------------------------------------------
# Dempster-Shafer learner.


def make_ds_learner() -> Learner:
    frac = get_domain("frac")

    def sample_instance(rng):
        n = int(rng.integers(2, 5))
        labels = _world_labels(n)
        full = (1 << n) - 1
        k = int(rng.integers(2, 6))
        masks = [int(rng.integers(1, full + 1)) for _ in range(k)]
        weights = rng.dirichlet(np.ones(k))
        table: Dict[int, float] = {}
        for s, w in zip(masks, weights):
            table[s] = table.get(s, 0.0) + float(w)
        m = MassFunction(labels, table)
        for _ in range(64):
            mask = int(rng.integers(1, full))
            a = EventSet(labels, mask)
            if m.plaus(a) > 1e-6:
                return a, m
        return EventSet(labels, full), m

    def sample_saturated(rng):
        n = int(rng.integers(2, 5))
        labels = _world_labels(n)
        full = (1 << n) - 1
        mask = int(rng.integers(1, full))
        a = EventSet(labels, mask)
        k = int(rng.integers(1, 4))
        subs = []
        for _ in range(k):
            sub = mask & int(rng.integers(1, full + 1))
            subs.append(sub if sub else mask)
        weights = rng.dirichlet(np.ones(len(subs)))
        table: Dict[int, float] = {}
        for s, w in zip(subs, weights):
            table[s] = table.get(s, 0.0) + float(w)
        return a, MassFunction(labels, table)

    def flow_factory(a: EventSet):
        def flow(t: float, m: MassFunction) -> MassFunction:
            alpha = 1.0 if math.isinf(t) else -math.expm1(-t)
            return ds_plaus_update(m, a, alpha)

        return flow

    return Learner(
        id="ds",
        domain=frac,
        observe=lambda a, chi, m: ds_plaus_update(m, a, chi),
        in_domain=lambda a, m: m.plaus(a) > MASS_EPS,
        bel=lambda a, m: m.bel(a),
        bel_top=lambda a, m: 1.0,
        translate=_frac_translate,
        make_flow=flow_factory,
        sample_instance=sample_instance,
        sample_saturated=sample_saturated,
        default_grid=_grid(frac, (0.25, 0.5, 0.75)),
        observation_to_json=_event_to_json,
        observation_from_json=_event_from_json,
        notes="Dempster combination with a simple support; Bel = belief function",
    )


# ---------------------------------------------------------------------------
# Kalman learner.


def optimal_gain(var: float, r2: float) -> float:
    """The variance-minimizing gain var/(var + r2), with inf conventions.

    An infinitely noisy sensor contributes nothing (gain 0); when the state
    is infinitely uncertain and the sensor is not, the sensor takes over
    (gain 1); a certain state never moves (gain 0).
    """
    if r2 < 0 or var < 0:
        raise ParameterError("variances must be nonnegative")
    if math.isinf(r2):
        return 0.0
    if math.isinf(var):
        return 1.0
    if var == 0.0:
        return 0.0
    return var / (var + r2)


def kalman_observe(
    z: float, c: Union[ConfidenceValue, Tuple[float, float]], b: GaussianBelief
) -> GaussianBelief:
    """One gain-weighted measurement update of a scalar Gaussian state."""
    dom = get_domain("kalman")
    v = dom.coerce(c if isinstance(c, ConfidenceValue) else tuple(c))
    if v.is_bot:
        return b
    if v.is_top:
        return GaussianBelief(float(z), 0.0)
    k, r2 = v.payload
    mean = b.mean + k * (float(z) - b.mean)
    if k == 1.0:
        var = r2
    elif math.isinf(b.var):
        var = math.inf
    else:
        var = (1.0 - k) ** 2 * b.var + k * k * r2
    return GaussianBelief(mean, var)


def kalman_observe_opt(z: float, r2: float, b: GaussianBelief) -> GaussianBelief:
    """Measurement update with the optimal gain for sensor variance r2."""
    k = optimal_gain(b.var, r2)
    if math.isinf(r2):
        return b
    return kalman_observe(z, (k, r2), b)


def make_kalman_learner() -> Learner:
    dom = get_domain("kalman")

    def path_velocity(z, b: GaussianBelief, h: float) -> np.ndarray:
        # derivative of the update path in the gain at K = 0 (any fixed r2);
        # second-order one-sided stencil, exact here since the path is
        # quadratic in the gain
        def coords(k):
            out = kalman_observe(z, (k, 1.0), b)
            return np.array([out.mean, out.var])

        f0 = np.array([b.mean, b.var])
        return (-3.0 * f0 + 4.0 * coords(h) - coords(2.0 * h)) / (2.0 * h)

    def bel_chain(z, b: GaussianBelief):
        if b.var <= 0.0:
            return (
                dom.bot,
                dom.value((0.3, 0.0)),
                dom.value((0.7, 0.0)),
                dom.top,
            )
        chain = [dom.bot]
        for r2 in (4.0 * b.var, b.var, b.var / 4.0, b.var / 16.0):
            chain.append(dom.value((optimal_gain(b.var, r2), r2)))
        chain.append(dom.top)
        return tuple(chain)

    def sample_instance(rng):
        z = float(rng.normal(0.0, 2.0))
        mean = float(rng.normal(0.0, 2.0))
        var = float(math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        return z, GaussianBelief(mean, var)

    def sample_saturated(rng):
        z = float(rng.normal(0.0, 2.0))
        return z, GaussianBelief(z, 0.0)

    return Learner(
        id="kalman",
        domain=dom,
        observe=kalman_observe,
        in_domain=lambda z, b: True,
        bel=lambda z, b: -(0.5 * (b.mean - float(z)) ** 2 + b.var * b.var),
        bel_top=lambda z, b: 0.0,
        path_velocity=path_velocity,
        lb_metric="euclidean",
        sample_instance=sample_instance,
        sample_saturated=sample_saturated,
        default_grid=_grid(dom, ((0.3, 2.0), (0.5, 1.0), (0.8, 0.5))),
        bel_chain=bel_chain,
        observation_to_json=lambda z: {"z": float(z)},
        observation_from_json=lambda obj, b: float(obj["z"]),
        # A later update with gain K and noise r2 reinflates the variance to
        # K^2 r2 even after a certain measurement, so top does not absorb.
        top_absorbing=False,
        notes="x' = x + K(z - x), var' = (1-K)^2 var + K^2 r2; Bel = -(err^2/2 + var^2)",
    )


# ---------------------------------------------------------------------------
# Gibbs reweighting: the kernel behind the Boltzmann and Bayesian learners.


class _Penalty(NamedTuple):
    """A penalty vector u over the worlds ``labels``: the update at additive
    time t reweights a simplex by exp(-t u).

    An entry u = +inf rules its world out.  ``possible`` marks the finite
    entries, or is None when all are finite, so finite penalties skip that
    work.  At top the update keeps the supported worlds of least ``rank``
    (bayes ranks by -likelihood, whose ties are finer than its log's).
    ``what`` names the observation in errors.
    """

    labels: Tuple[str, ...]
    u: np.ndarray
    rank: np.ndarray
    possible: Optional[np.ndarray]
    what: str


def _check_worlds(pen: _Penalty, labels: Tuple[str, ...]) -> _Penalty:
    if pen.labels != labels:
        raise ParameterError(f"prior is not over the worlds of {pen.what}")
    return pen


def _gibbs_map(pen: _Penalty, t, labels: Tuple[str, ...]):
    """The update by pen at additive time t, bound to simplexes over labels."""
    _check_worlds(pen, labels)
    chi = get_domain("add").coerce(t)
    if chi.is_bot:
        return None
    u, rank, possible = pen.u, pen.rank, pen.possible
    top, b = chi.is_top, chi.payload

    def step(pr: np.ndarray) -> np.ndarray:
        supp = pr > 0.0
        if possible is not None:
            supp &= possible
            if not supp.any():
                raise ZeroMassEventError(f"{pen.what} contradicts the prior")
        if top:
            least = rank[supp].min()
            return np.where(supp & (rank == least), pr, 0.0)
        logw = np.log(pr[supp]) - b * u[supp]
        w = np.zeros_like(pr)
        w[supp] = np.exp(logw - logw.max())
        return w

    return step


def _gibbs_field(pen: _Penalty):
    u, possible = pen.u, pen.possible
    if possible is None:
        return lambda c, space: c * (float(c @ u) - u)

    def field(c: np.ndarray, space: tuple) -> np.ndarray:
        supp = c > 0.0
        if not possible[supp].all():
            raise DomainError(f"{pen.what} contradicts the state")
        v = np.where(supp, u, 0.0)
        return np.where(supp, c * (float(c @ v) - v), 0.0)

    return field


def _gibbs_learner(penalty: Callable[[Any], _Penalty], **hooks) -> Learner:
    """The learner reweighting simplexes by exp(-t u) for u = penalty(phi);
    ``hooks`` give its id, samplers, JSON readers and notes."""
    add = get_domain("add")

    def coord_flow(phi, t, labels: Tuple[str, ...]):
        return _gibbs_map(penalty(phi), t, labels)

    def observe(phi, t, p: FiniteSimplex) -> FiniteSimplex:
        return _on_simplex(coord_flow(phi, t, p.labels), p)

    def bel(phi, p: FiniteSimplex) -> float:
        pen = _check_worlds(penalty(phi), p.labels)
        u = pen.u
        if pen.possible is not None:
            supp = p.probs > 0.0
            if not pen.possible[supp].all():
                return -math.inf
            u = np.where(supp, u, 0.0)
        return -float(p.probs @ u)

    def bel_top(phi, p: FiniteSimplex) -> float:
        return -float(_check_worlds(penalty(phi), p.labels).u[p.probs > 0.0].min())

    def in_domain_fn(phi, p: FiniteSimplex) -> bool:
        possible = _check_worlds(penalty(phi), p.labels).possible
        return possible is None or bool(possible[p.probs > 0.0].all())

    return Learner(
        domain=add,
        observe=observe,
        in_domain=in_domain_fn,
        bel=bel,
        bel_top=bel_top,
        translate=lambda phi, chi, p: add.to_float(chi),
        make_flow=lambda phi: (lambda t, p: observe(phi, t, p)),
        coord_flow=coord_flow,
        closed_field=lambda phi: _gibbs_field(penalty(phi)),
        lb_metric="fisher",
        default_grid=_grid(add, (0.1, 0.5, 1.5, 3.0)),
        **hooks,
    )


# ---------------------------------------------------------------------------
# Boltzmann learner: the penalty is a random variable.


def _boltzmann_penalty(v: RandomVariable) -> _Penalty:
    return _Penalty(v.labels, v.values, v.values, None, "the penalty variable")


def boltzmann_observe(
    v: RandomVariable, beta: Union[float, ConfidenceValue], p: FiniteSimplex
) -> FiniteSimplex:
    """Reweight by exp(-beta * v), computed in log space on the support.

    At full confidence the posterior conditions on the v-minimizing worlds of
    the support, ties sharing mass in proportion to the prior.
    """
    return _on_simplex(_gibbs_map(_boltzmann_penalty(v), beta, p.labels), p)


def make_boltzmann_learner() -> Learner:
    def sample_instance(rng):
        n = int(rng.integers(2, 7))
        labels = _world_labels(n)
        p = FiniteSimplex(labels, rng.dirichlet(np.ones(n)))
        v = RandomVariable(labels, rng.normal(0.0, 1.0, size=n))
        return v, p

    def sample_saturated(rng):
        n = int(rng.integers(2, 6))
        labels = _world_labels(n)
        size = int(rng.integers(1, n))
        idx = rng.choice(n, size=size, replace=False)
        probs = np.zeros(n)
        probs[idx] = rng.dirichlet(np.ones(size))
        vals = rng.uniform(0.5, 2.0, size=n)
        vals[idx] = 0.0  # constant on the support, so Bel is already maximal
        return RandomVariable(labels, vals), FiniteSimplex(labels, probs)

    return _gibbs_learner(
        _boltzmann_penalty,
        id="boltzmann",
        sample_instance=sample_instance,
        sample_saturated=sample_saturated,
        observation_to_json=lambda v: {"values": {l: float(x) for l, x in zip(v.labels, v.values)}},
        observation_from_json=lambda obj, p: RandomVariable.from_dict(p.labels, obj["values"]),
        notes="posterior ~ P * exp(-beta v); Bel = -E_P[v]",
    )


# ---------------------------------------------------------------------------
# Bayesian learner: the Boltzmann learner on the penalty -log P(obs | h).


@dataclass(frozen=True)
class BayesModel:
    """Hypothesis labels plus a likelihood table P(observation | hypothesis).

    Rows are keyed by observation id; each row holds one value per hypothesis
    in [0, 1].  Rows need not normalize across observations.
    """

    hypotheses: Tuple[str, ...]
    likelihood: Mapping[str, np.ndarray]

    def __post_init__(self):
        hyps = tuple(self.hypotheses)
        if not hyps or len(set(hyps)) != len(hyps):
            raise ParameterError("hypothesis labels must be nonempty and unique")
        object.__setattr__(self, "hypotheses", hyps)
        table = {}
        for key, row in self.likelihood.items():
            row = np.asarray(row, dtype=float).copy()
            if row.shape != (len(hyps),):
                raise ParameterError(f"likelihood row {key!r} does not match hypotheses")
            if not np.all(np.isfinite(row)) or row.min() < 0.0 or row.max() > 1.0:
                raise ParameterError(f"likelihood row {key!r} outside [0, 1]")
            row.setflags(write=False)
            table[str(key)] = row
        if not table:
            raise ParameterError("at least one observation row is required")
        object.__setattr__(self, "likelihood", table)

    @property
    def observations(self) -> Tuple[str, ...]:
        return tuple(self.likelihood)

    @property
    def is_strict(self) -> bool:
        return all(row.min() > 0.0 for row in self.likelihood.values())

    def row(self, key: str) -> np.ndarray:
        if key not in self.likelihood:
            raise ParameterError(f"unknown observation {key!r}")
        return self.likelihood[key]


def bayes_observe(model: BayesModel, key: str, prior: FiniteSimplex) -> FiniteSimplex:
    """Exact Bayesian conditioning: posterior ~ prior * likelihood."""
    if prior.labels != model.hypotheses:
        raise ParameterError("prior is not over the model's hypotheses")
    w = np.asarray(prior.probs) * model.row(key)
    if w.sum() <= MASS_EPS:
        raise ZeroMassEventError(f"observation {key!r} has zero evidence")
    return prior.with_probs(w)


def potential_to_likelihood(
    u: Mapping[str, Union[Mapping[str, float], Sequence[float]]],
    hypotheses: Optional[Sequence[str]] = None,
) -> BayesModel:
    """Turn nonnegative penalties u(obs, h) into the likelihood exp(-u).

    This realizes a penalty-driven learner as an exact Bayesian one: each
    observation becomes an event whose likelihood given h is exp(-u(obs, h)),
    so weight-1 exponential reweighting and Bayes' rule coincide.
    """
    rows = {}
    hyps: Optional[Tuple[str, ...]] = tuple(hypotheses) if hypotheses else None
    for key, row in u.items():
        if isinstance(row, Mapping):
            if hyps is None:
                hyps = tuple(row)
            vals = np.array([float(row[h]) for h in hyps])
        else:
            vals = np.asarray(row, dtype=float)
            if hyps is None:
                hyps = tuple(f"h{i}" for i in range(len(vals)))
        if vals.min() < 0.0 or not np.all(np.isfinite(vals)):
            raise ParameterError(f"penalties for {key!r} must be finite and >= 0")
        rows[key] = np.exp(-vals)
    if hyps is None:
        raise ParameterError("empty potential table")
    return BayesModel(hyps, rows)


DEFAULT_BAYES_MODEL = BayesModel(
    ("h1", "h2", "h3"),
    {
        "e1": np.array([0.80, 0.30, 0.10]),
        "e2": np.array([0.15, 0.50, 0.60]),
        "e3": np.array([0.05, 0.20, 0.30]),
    },
)


def make_bayes_learner(model: Optional[BayesModel] = None) -> Learner:
    model = model or DEFAULT_BAYES_MODEL
    hyps, keys = model.hypotheses, model.observations
    with np.errstate(divide="ignore"):  # a zero likelihood is an infinite penalty
        table = {
            key: _Penalty(hyps, -np.log(row), -row, None if row.min() > 0.0 else row > 0.0,
                          f"observation {key!r}")
            for key, row in model.likelihood.items()
        }

    def penalty(key: str) -> _Penalty:
        model.row(key)  # rejects an unknown observation
        return table[key]

    def observation_from_json(obj: Mapping, p: FiniteSimplex) -> str:
        key = str(obj["id"])
        _check_worlds(penalty(key), p.labels)
        return key

    def sample_instance(rng):
        p = FiniteSimplex(hyps, rng.dirichlet(np.ones(len(hyps))))
        return keys[int(rng.integers(len(keys)))], p

    def sample_saturated(rng):
        probs = np.zeros(len(hyps))
        probs[int(rng.integers(len(hyps)))] = 1.0
        return keys[int(rng.integers(len(keys)))], FiniteSimplex(hyps, probs)

    return _gibbs_learner(
        penalty,
        id="bayes",
        sample_instance=sample_instance,
        sample_saturated=sample_saturated,
        observation_to_json=lambda key: {"id": key},
        observation_from_json=observation_from_json,
        notes="posterior ~ P(h) P(obs|h)^beta; exact Bayes at beta = 1",
    )


# ---------------------------------------------------------------------------
# Max-graded learner.


def max_graded_observe(
    key: str, chi: Union[float, ConfidenceValue], table: GradedBeliefTable
) -> GradedBeliefTable:
    """Keep the stronger of the stored grade and the offered confidence."""
    dom = get_domain("max")
    x = dom.to_float(dom.coerce(chi))
    g = table.grade(key)
    if x <= g:
        return table
    return table.with_grade(key, x)


def _max_translate(key: str, chi, table: GradedBeliefTable) -> float:
    dom = get_domain("max")
    x = dom.to_float(dom.coerce(chi))
    g = table.grade(key)
    if x <= g:
        return 0.0
    if x >= 1.0:
        return math.inf
    return math.log((1.0 - g) / (1.0 - x))


def _statement_from_json(obj: Mapping, table: GradedBeliefTable) -> str:
    key = str(obj["id"])
    table.grade(key)  # rejects a statement the table does not grade
    return key


def make_max_graded_learner() -> Learner:
    dom = get_domain("max")

    def flow_factory(key: str):
        def flow(t: float, table: GradedBeliefTable) -> GradedBeliefTable:
            g = table.grade(key)
            new = 1.0 if math.isinf(t) else 1.0 - (1.0 - g) * math.exp(-t)
            return table.with_grade(key, new)

        return flow

    def closed_field(key: str):
        def fieldfn(c: np.ndarray, space: tuple) -> np.ndarray:
            keys = space[1]
            if key not in keys:
                raise DomainError(f"unknown statement {key!r}")
            i = keys.index(key)
            out = np.zeros(len(keys))
            out[i] = 1.0 - c[i]
            return out

        return fieldfn

    def sample_instance(rng):
        keys = ("phi1", "phi2", "phi3")
        table = GradedBeliefTable({k: float(rng.uniform(0.0, 0.95)) for k in keys})
        return keys[int(rng.integers(3))], table

    def sample_saturated(rng):
        key, table = sample_instance(rng)
        return key, table.with_grade(key, 1.0)

    return Learner(
        id="max-graded",
        domain=dom,
        observe=max_graded_observe,
        in_domain=lambda key, table: key in table.entries,
        bel=lambda key, table: table.grade(key),
        bel_top=lambda key, table: 1.0,
        translate=_max_translate,
        make_flow=flow_factory,
        closed_field=closed_field,
        sample_instance=sample_instance,
        sample_saturated=sample_saturated,
        default_grid=_grid(dom, (0.25, 0.5, 0.75)),
        observation_to_json=lambda key: {"id": key},
        observation_from_json=_statement_from_json,
        notes="grade' = max(grade, chi); saturating exponential in additive time",
    )


# ---------------------------------------------------------------------------
# Classifier learner: iterated gradient steps on softmax regression.


@dataclass(frozen=True)
class SoftmaxModel:
    """Shape and step-size hyperparameters for the gradient-step learner."""

    n_features: int = 1
    n_classes: int = 2
    eta: float = 0.1
    conv_tol: float = 1e-9
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.n_features < 1 or self.n_classes < 2:
            raise ParameterError("need at least 1 feature and 2 classes")
        if not self.eta > 0.0:
            raise ParameterError("learning rate must be positive")

    @property
    def dim(self) -> int:
        return self.n_classes * (self.n_features + 1)

    def init_params(self) -> np.ndarray:
        return np.zeros(self.dim)


@dataclass(frozen=True)
class LabeledExample:
    x: np.ndarray
    y: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).copy()
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", int(self.y))


def _unpack(model: SoftmaxModel, theta: np.ndarray):
    k, d = model.n_classes, model.n_features
    return theta[: k * d].reshape(k, d), theta[k * d:]


def _check_example(model: SoftmaxModel, ex: LabeledExample) -> None:
    if ex.x.shape != (model.n_features,):
        raise ParameterError("example features do not match the model")
    if not 0 <= ex.y < model.n_classes:
        raise ParameterError(f"label {ex.y} outside {model.n_classes} classes")


def class_log_probs(model: SoftmaxModel, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    w, b = _unpack(model, theta)
    logits = w @ x + b
    logits = logits - logits.max()
    return logits - math.log(np.exp(logits).sum())


def _nll_grad(model: SoftmaxModel, theta: np.ndarray, ex: LabeledExample) -> np.ndarray:
    err = np.exp(class_log_probs(model, theta, ex.x))
    err[ex.y] -= 1.0
    return np.concatenate([np.outer(err, ex.x).ravel(), err])


def gradient_step(model: SoftmaxModel, theta: np.ndarray, ex: LabeledExample) -> np.ndarray:
    return theta - model.eta * _nll_grad(model, theta, ex)


def train_limit(
    model: SoftmaxModel, theta: np.ndarray, ex: LabeledExample
) -> Tuple[np.ndarray, bool]:
    """Iterate gradient steps until the step displacement stalls.

    Returns the final parameters and whether the convergence threshold was
    reached before the iteration cap.
    """
    theta = np.asarray(theta, dtype=float).copy()
    for _ in range(model.max_steps):
        delta = model.eta * _nll_grad(model, theta, ex)
        if np.abs(delta).max() < model.conv_tol:
            return theta, True
        theta = theta - delta
    return theta, False


def classifier_step_observe(
    ex: LabeledExample,
    n: Union[int, ConfidenceValue],
    theta: np.ndarray,
    model: Optional[SoftmaxModel] = None,
) -> np.ndarray:
    """Apply n gradient steps on the example's loss; n = top runs to the cap.

    Non-convergence at the cap is reported as a :class:`NonConvergenceWarning`
    rather than an exception: the state reached is still a belief, just not a
    fixed point.
    """
    model = model or SoftmaxModel()
    _check_example(model, ex)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dim,):
        raise ParameterError("parameter vector does not match the model shape")
    count = get_domain("count")
    v = count.coerce(n)
    if v.is_bot:
        return theta.copy()
    if v.is_top:
        out, converged = train_limit(model, theta, ex)
        if not converged:
            warnings.warn(
                f"no fixed point within {model.max_steps} steps",
                NonConvergenceWarning,
                stacklevel=2,
            )
        return out
    out = theta.copy()
    for _ in range(v.payload):
        out = gradient_step(model, out, ex)
    return out


def make_classifier_learner(
    n_features: int = 1,
    n_classes: int = 2,
    eta: float = 0.1,
    conv_tol: float = 1e-9,
    max_steps: int = 1_000_000,
) -> Learner:
    model = SoftmaxModel(n_features, n_classes, eta, conv_tol, max_steps)
    count = get_domain("count")

    def observe(ex, chi, theta):
        return classifier_step_observe(ex, chi, theta, model)

    def bel(ex, theta):
        _check_example(model, ex)
        return float(class_log_probs(model, theta, ex.x)[ex.y])

    def path_velocity(ex, theta, h):
        # the one-step quotient is exactly the negated loss gradient
        return (observe(ex, count.value(1), theta) - theta) / model.eta

    def sample_instance(rng):
        theta = rng.normal(0.0, 1.0, size=model.dim)
        x = rng.normal(0.0, 1.0, size=model.n_features)
        y = int(rng.integers(model.n_classes))
        return LabeledExample(x, y), theta

    def sample_top_instance(rng):
        # strongly separated inputs so the capped iteration saturates the
        # softmax in float and genuinely reaches its fixed point
        theta = rng.normal(0.0, 1.0, size=model.dim)
        x = rng.normal(0.0, 1.0, size=model.n_features)
        x = x / max(np.linalg.norm(x), 1e-9) * rng.uniform(1200.0, 2000.0)
        y = int(rng.integers(model.n_classes))
        return LabeledExample(x, y), theta

    return Learner(
        id="classifier",
        domain=count,
        observe=observe,
        in_domain=lambda ex, theta: bool(np.all(np.isfinite(theta))),
        bel=bel,
        bel_top=lambda ex, theta: 0.0,
        translate=lambda ex, chi, theta: count.to_float(chi),
        path_velocity=path_velocity,
        lb_metric="euclidean",
        sample_instance=sample_instance,
        sample_top_instance=sample_top_instance,
        default_grid=_grid(count, (1, 2, 4, 8), top=False),
        observation_to_json=lambda ex: {"x": [float(v) for v in ex.x], "y": ex.y},
        observation_from_json=lambda obj, theta: LabeledExample(
            np.asarray(obj["x"], dtype=float), int(obj["y"])
        ),
        notes="n gradient steps on -log softmax(Wx+b)[y]; Bel = log p(y|x)",
    )


# ---------------------------------------------------------------------------
# Free list lifting.


def lift_to_list(base: Learner) -> Learner:
    """Lift a learner to the list extension of its domain.

    A list of confidences is applied left to right; combining lists by
    concatenation then satisfies the sequential-combination law by
    construction.  Because the list domain collapses any list containing
    top to [top], the lift exists only for learners whose full-confidence
    update absorbs further updates; otherwise the collapsed value would
    disagree with the sequential one.
    """
    if not base.top_absorbing:
        raise UnsupportedError(
            f"cannot lift {base.id!r}: its full-confidence update does not "
            "absorb later updates, so the collapsed list [top] would not "
            "commute with sequential application"
        )
    dom = list_extend(base.domain)

    def observe(phi, chi, theta):
        v = dom.coerce(chi)
        if v.is_bot:
            return theta
        items = (base.domain.top,) if v.is_top else v.payload
        for c in items:
            theta = base.observe(phi, c, theta)
        return theta

    inner = [c for c in base.default_grid if not (c.is_bot or c.is_top)]
    # Keep top out of the walkable grid when the base learner keeps it out
    # (its limit may only be reachable on dedicated instances).
    top = any(c.is_top for c in base.default_grid)
    grid = _grid(dom, [inner[: i + 1] for i in range(min(2, len(inner)))], top)

    return Learner(
        id=f"{base.id}@list",
        domain=dom,
        observe=observe,
        in_domain=base.in_domain,
        bel=base.bel,
        bel_top=base.bel_top,
        sample_instance=base.sample_instance,
        sample_saturated=base.sample_saturated,
        sample_top_instance=base.sample_top_instance,
        default_grid=grid,
        observation_to_json=base.observation_to_json,
        observation_from_json=base.observation_from_json,
        notes=f"list lift of {base.id}",
    )


# ---------------------------------------------------------------------------
# Registry.


_FACTORIES: Dict[str, Callable[..., Learner]] = {
    "interp": make_interp_learner,
    "ds": make_ds_learner,
    "kalman": make_kalman_learner,
    "boltzmann": make_boltzmann_learner,
    "bayes": make_bayes_learner,
    "max-graded": make_max_graded_learner,
    "classifier": make_classifier_learner,
}

_DEFAULT_CACHE: Dict[str, Learner] = {}


def available_learners() -> Tuple[str, ...]:
    return tuple(_FACTORIES)


def get_learner(learner_id: str, **params) -> Learner:
    """Build a registered learner; keyword params configure bayes/classifier."""
    if learner_id not in _FACTORIES:
        raise ParameterError(f"unknown learner {learner_id!r}")
    if not params:
        if learner_id not in _DEFAULT_CACHE:
            _DEFAULT_CACHE[learner_id] = _FACTORIES[learner_id]()
        return _DEFAULT_CACHE[learner_id]
    return _FACTORIES[learner_id](**params)


def in_domain(learner_id: str, phi, theta) -> bool:
    """Whether the learner's update is defined at theta for all finite trust."""
    return get_learner(learner_id).in_domain(phi, theta)
