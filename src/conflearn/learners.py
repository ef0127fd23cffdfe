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
import numbers
import struct
import sys
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import (
    Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from .confidence import (
    _ADD, _FRAC, ConfidenceDomain, ConfidenceValue, _float_of, _to_frac, add_to_frac, frac_to_add, get_domain, list_extend,
)
from .beliefs import (
    EventSet,
    FiniteSimplex,
    GaussianBelief,
    GradedBeliefTable,
    MassFunction,
    RandomVariable,
    _check_labels,
    ds_plaus_update,
    normalize_probs,
    MASS_EPS,
    MAX_WORLDS,
)
from .errors import (
    DomainError,
    NumericalError,
    ParameterError,
    StepBudgetError,
    UnsupportedError,
    ZeroMassEventError,
)
from .flows import _check_kind, _coord_kind, _dormand_prince, _forward_stencil, belief_coords

__all__ = [
    "Learner",
    "get_learner",
    "available_learners",
    "lift_to_list",
    "interp_observe",
    "optimal_gain",
    "kalman_observe",
    "kalman_observe_opt",
    "boltzmann_observe",
    "BayesModel",
    "bayes_observe",
    "potential_to_likelihood",
    "max_graded_observe",
    "SoftmaxModel",
    "LabeledExample",
    "class_log_probs",
    "gradient_step",
    "classifier_step_observe",
    "train_limit",
    "NonConvergenceWarning",
]


_MAX, _KALMAN, _COUNT = map(get_domain, ("max", "kalman", "count"))


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
    # the name of the belief kind (beliefs._KINDS) that observe updates
    belief_kind: Optional[str] = None
    bel: Optional[Callable[[Any, Any], float]] = None
    bel_top: Optional[Callable[[Any, Any], float]] = None
    translate: Optional[Callable[[Any, ConfidenceValue, Any], float]] = None
    # make_flow(phi)(t, belief) is the update at additive time t; a learner
    # with a coord_flow and no make_flow gets the one coord_flow defines
    make_flow: Optional[Callable[[Any], Callable[[float, Any], Any]]] = None
    # coord_flow(terms, ts, labels) is the flow of the weighted parallel
    # observation terms = ((phi, w), ...) (closed_field's terms, label order)
    # at the float additive times ts >= 0 (inf for top), bound once to
    # beliefs of any kind with coordinates labelled ``labels``.  It returns
    # NotImplemented where the learner has no flow of the terms' sum at ts
    # (interp on overlapping events where a time is top: their limit has no
    # closed form); None where every time is 0 (the identity); else, for
    # positive times, a map from one belief's coordinates to the updated
    # ones before the kind's projection: row i at time ts[i], or one row
    # that stands for every time where they give one update, as one time
    # does (interp on overlapping events: on cells, by
    # flows._dormand_prince).  It raises ParameterError if an observation is
    # over other worlds.  The one-term case ((phi, 1.0),) is make_flow(phi):
    # the belief rebuilt from map(coords) is make_flow(phi)(t, belief) bit
    # for bit, and each row gets those bits (interp's map on one event or
    # disjoint ones runs its observe's kernel, _interp_step).
    coord_flow: Optional[
        Callable[[Sequence[Tuple[Any, float]], Sequence[float], Tuple[str, ...]], Any]
    ] = None
    # interleave(phis, n, dt, belief) is flows.trotter_interleave on a belief
    # of belief_kind at one count, as a walk of the learner's own: the state
    # after n rounds of one update on each of the two phis in turn at the
    # float additive time dt > 0, or the belief itself where dt is 0 (after
    # the observations' checks).  A learner without one composes make_flow.
    interleave: Optional[Callable[[Sequence[Any], int, float, Any], Any]] = None
    # closed_field(terms) is the derivative field of the weighted parallel
    # observation terms = ((phi, w), ...), given in label order: the field of
    # sum_j w_j phi_j, as one closed form.  One observation is the one-term
    # case ((phi, 1.0),).  bind = closed_field(terms) takes a belief space
    # key and raises ParameterError if an observation is over other worlds;
    # bind(space) maps a belief's coordinates c (flows.belief_coords) to the
    # velocity components, and raises DomainError where some
    # in_domain(phi_j, belief) is false.
    closed_field: Optional[
        Callable[[Sequence[Tuple[Any, float]]], Callable[[tuple], Callable[[np.ndarray], np.ndarray]]]
    ] = None
    # sweep(phi, grid, theta) is (rows, bels, final): row i is the coordinates
    # of observe(phi, grid[i], theta), bels[i] its bel, bit for bit, and final
    # the state at grid[-1]; it raises where that per-point loop would.  A copy
    # with another observe drops it with the other _UPDATE_HOOKS.  The law
    # checks never use it: L3 and L5 test the identities it relies on, point
    # by point.
    sweep: Optional[Callable[[Any, Sequence[Any], Any], Tuple[np.ndarray, Sequence[float], Any]]] = None
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

    def __post_init__(self):
        if self.make_flow is None and self.coord_flow is not None:
            object.__setattr__(self, "make_flow", partial(_coord_make_flow, self))

    def __repr__(self) -> str:
        return f"Learner({self.id!r}, domain={self.domain.id!r})"


# The hooks tied to a learner's own update, as replace() keywords that drop
# them: a copy with another observe takes **_UPDATE_HOOKS, so that no flow,
# interleaving, field, sweep or LB metric runs the update it replaced.
_UPDATE_HOOKS = dict.fromkeys(
    ("translate", "make_flow", "coord_flow", "interleave", "closed_field", "sweep", "path_velocity", "lb_metric")
)


def _coord_make_flow(learner: Learner, phi) -> Callable[[Any, Any], Any]:
    """make_flow(phi) as the learner's coord_flow defines it, on the
    coordinates of a belief of its kind, whose kind record is looked up once."""
    coord_flow = learner.coord_flow

    def flow(t, theta):
        kind = _coord_kind(theta, learner)
        step = coord_flow(((phi, 1.0),), (_float_of(_ADD, t),), kind.labels(theta))
        vec = None if step is None else step(kind.coords(theta))
        return theta if vec is None else kind.make(theta, vec, kind.project(vec))

    return flow


def _first_failure(call: Callable[[tuple], Any], items: Sequence):
    """call(items), or where that raises, the error of the first item that
    fails alone (call((item,)), in order), else the batch's own error."""
    try:
        return call(items)
    except Exception as exc:  # any failure: raised again below
        failure = exc
    for item in items:
        call((item,))
    raise failure


def _row_sweep(observe, rows, phi, grid, theta):
    """``Learner.sweep`` by rows(phi, grid, theta), the coordinate rows and bel
    values of observe at the grid entries.  Where rows raises, the first entry
    that fails alone raises its own error."""
    coords, bels = _first_failure(lambda some: rows(phi, some, theta), grid)
    return coords, bels, observe(phi, grid[-1], theta)


def _simplex_rows(bind, dom: ConfidenceDomain, grid: Sequence, p: FiniteSimplex) -> np.ndarray:
    """The coordinates of the update of p by bind([x], p.labels) (see
    ``Learner.coord_flow``) at each grid entry's float x, by one map of
    p.probs bound to the nonzero xs, one row each; a zero's row is p's."""
    xs = [_float_of(dom, chi) for chi in grid]
    rows = np.repeat(p.probs[None], len(xs), axis=0)
    live = [i for i, x in enumerate(xs) if x]
    step = bind([xs[i] for i in live], p.labels)
    if step is not None:
        rows[live] = normalize_probs(step(p.probs))
    return rows


def _rows(xs):
    """Values, one per row, as a column that broadcasts one belief's
    coordinates to the rows; one row's is the value itself, which numpy
    applies faster."""
    return xs[0] if len(xs) == 1 else np.asarray(xs)[:, None]


def _grid(dom: ConfidenceDomain, inner: Sequence, top: bool = True) -> Tuple[ConfidenceValue, ...]:
    """A default grid: bot, the values ``inner``, then top if ``top``."""
    return (dom.bot, *map(dom.value, inner)) + ((dom.top,) if top else ())


@lru_cache(maxsize=None)  # one tuple per world count, shared by every caller
def _world_labels(n: int) -> Tuple[str, ...]:
    return tuple(f"w{i}" for i in range(n))


def _random_simplex(rng: np.random.Generator) -> FiniteSimplex:
    """A random interior simplex on 2-6 worlds."""
    n = int(rng.integers(2, 7))
    return FiniteSimplex(_world_labels(n), rng.dirichlet(np.ones(n)))


def _saturated_simplex(rng: np.random.Generator) -> Tuple[np.ndarray, FiniteSimplex]:
    """idx and a random simplex on 2-5 worlds with mass on the worlds idx alone."""
    n = int(rng.integers(2, 6))
    size = int(rng.integers(1, n))
    idx = rng.choice(n, size=size, replace=False)
    probs = np.zeros(n)
    probs[idx] = rng.dirichlet(np.ones(size))
    return idx, FiniteSimplex(_world_labels(n), probs)


def _event_with_mass(rng: np.random.Generator, labels: Tuple[str, ...], mass, fallback: int) -> EventSet:
    """A random nonempty proper event a over labels with mass(a) > 1e-6, or
    the event of the bit mask ``fallback`` after 64 draws without one."""
    full = (1 << len(labels)) - 1
    for _ in range(64):
        a = EventSet(labels, int(rng.integers(1, full)))
        if mass(a) > 1e-6:
            return a
    return EventSet(labels, fallback)


# ---------------------------------------------------------------------------
# Interpolation learner (fractional support on event observations).


_ONE = np.ones(1)  # the share of the weight one event takes


def interp_observe(
    a: EventSet, alpha: Union[float, ConfidenceValue], p: FiniteSimplex
) -> FiniteSimplex:
    """Mix the prior with its conditioning on ``a`` at weight alpha: the
    kernel ``_interp_step`` on one event, on one belief."""
    w = _float_of(_FRAC, alpha)
    m = _interp_rows((a,), p.labels)
    return p.with_probs(_interp_step(p.probs, (a,), m, _ONE, w, w == 1.0)) if w else p


def _interp_map(events: Sequence[EventSet], shares: np.ndarray, ws: Sequence[float], labels: Tuple[str, ...]):
    """``_interp_step`` on the pairwise disjoint ``events`` with their
    ``shares`` of each float weight w in [0, 1] of ``ws``, one per row, bound
    to simplexes over ``labels`` (see ``Learner.coord_flow``)."""
    m = _interp_rows(events, labels)
    if not any(ws):
        return None
    return partial(_interp_step, events=events, m=m, shares=shares, w=_rows(ws), top=min(ws) == 1.0)


def _interp_step(c: np.ndarray, events: Sequence[EventSet], m: np.ndarray, shares: np.ndarray, w, top: bool) -> np.ndarray:
    """The one interp update that needs no tilt: c_i (1 - w + w ((s / Mc)^T
    M)_i) for pairwise disjoint events, with indicator rows M and shares s of
    the weight w (a float, or a column), the mixture of c and Jeffrey's rule;
    one event (s = [1]) is conditioning.  Where ``top`` (every w is 1) the
    factor is (s / Mc)^T M alone, the bits 1 - w + w x has there.  c is one
    belief's coordinates; a column of weights gives one row each.  An event
    of mass at most MASS_EPS raises ZeroMassEventError, naming the one of
    least mass."""
    mass = c @ m.T
    least = min(mass.tolist())
    if least <= MASS_EPS:
        a = events[int(mass.argmin())]
        raise ZeroMassEventError(f"cannot condition on {a!r} with mass {least:.3g}")
    # a world is in at most one event: each entry of the product is one
    # share over its mass or 0, exactly
    g = np.dot(shares / mass, m)
    return c * g if top else c * (1.0 - w + w * g)


def _interp_rows(events: Sequence[EventSet], labels: Tuple[str, ...]) -> np.ndarray:
    """The indicator rows of ``events`` over the worlds ``labels``, one per
    event: the one bind of interp's paths."""
    if any(a.labels != labels for a in events):
        raise ParameterError("event over a different world set")
    # one event's row is a view; np.array copies
    return events[0].indicator()[None] if len(events) == 1 else np.array([a.indicator() for a in events])


def _interp_coord_flow(terms: Sequence[Tuple[EventSet, float]], ts: Sequence[float],
                       labels: Tuple[str, ...]):
    weights: Dict[EventSet, float] = {}
    for a, w in terms:  # an event observed twice is one cell of their summed weight
        weights[a] = weights.get(a, 0.0) + w
    events, w = list(weights), np.array(list(weights.values()))
    if len(events) > 1 and any(ts):
        m = _interp_rows(events, labels)
        if np.maximum.reduce(np.add.reduce(m)) > 1.0:  # some world is in two events
            if math.inf in ts:  # the limit of overlapping events has no closed form
                return NotImplemented
            return _interp_tilt_flow(m, w, ts)
    # on disjoint events each conditional is fixed along the flow, so at t it
    # keeps e^(-W t) of p, W = sum_j w_j, and moves the rest to Jeffrey's rule
    # with the shares w_j / W
    total = sum(w.tolist())
    return _interp_map(events, w / total, [_to_frac(total * t) for t in ts], labels)


def _cell_expand(c: np.ndarray, q: np.ndarray, q0: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """World i of cell s at c_i * q_s / q0_s (0 where q0_s is 0), for cell
    masses q (or rows of them) reached from q0, the cells' masses under c."""
    return c * np.divide(q, q0, out=np.zeros_like(q), where=q0 > 0.0)[..., cell]


def _interp_interleave(events: Sequence[EventSet], n: int, dt: float, p: FiniteSimplex) -> FiniteSimplex:
    """``Learner.interleave`` for interp: n rounds of interp_observe on each
    of the two events in turn at weight 1 - e^(-dt) (Trotter 1959), walked
    on the masses q of the four cells the events cut in plain floats,
    renormalized after each update; world i ends at p_i * q_s / q0_s for its
    cell s (0 where q0_s is 0), as in the tilt flow.  An event of mass at
    most MASS_EPS raises ZeroMassEventError, as conditioning on it does."""
    m = _interp_rows(events, p.labels)
    if dt == 0.0:  # an underflowing slice is the identity
        return p
    # each world's cell: 0 both, 1 a only, 2 b only, 3 neither
    cell = (3.0 - 2.0 * m[0] - m[1]).astype(int)
    q0 = np.bincount(cell, weights=p.probs, minlength=4).tolist()
    alpha = _to_frac(dt)
    keep = 1.0 - alpha  # 0 where alpha rounds to 1: the update conditions outright
    # x1, x2 are the cells the next event holds, x3, x4 those it does not
    x1, x2, x3, x4 = q0
    for _ in range(n):
        for e in events:
            mass = x1 + x2
            if mass <= MASS_EPS:
                raise ZeroMassEventError(f"cannot condition on {e!r} with mass {mass:.3g}")
            up = keep + alpha / mass
            x1, x2, x3, x4 = x1 * up, x2 * up, x3 * keep, x4 * keep
            total = x1 + x2 + x3 + x4
            # renormalized, and seen from the other event: "a only" and
            # "b only" trade places; after a round a's view is back
            x1, x2, x3, x4 = x1 / total, x3 / total, x2 / total, x4 / total
    return p.with_probs(_cell_expand(p.probs, np.array([x1, x2, x3, x4]), np.array(q0), cell))


def _interp_tilt_flow(m: np.ndarray, w: np.ndarray, ts: Sequence[float]):
    """The flow of the overlapping events with indicator rows m at the weights
    w, at the finite times ts (not all 0), as a map from one belief's
    coordinates to the rows at ts.  Along p * (M^T (w / Mp) - W),
    p(t) = p(0) * exp(M^T lam(t)) / Z with dlam/dt = w / (M p) (Csiszar 1975):
    each world keeps its ratio to p(0) within its cell (the events that hold
    it).  ``flows._dormand_prince`` integrates the masses q of the cells with
    a world, and world i of cell s ends at p_i * q_s / q0_s (0 if q0_s is 0)."""
    _, first, cell = np.unique(m, axis=1, return_index=True, return_inverse=True)
    mc, cell = m[:, first], cell.ravel()  # the events' indicator on cells; each world's cell
    masses = np.vstack([mc, np.ones(len(first))])  # each event's mass, then the total
    # a world no event holds decays as e^(-W t); DP5(4) is stable on it for
    # steps below about 3.3 / W, so they are at most 2 / W
    cap = 2.0 / sum(w.tolist())

    def stage(q: np.ndarray, lam: np.ndarray):
        q = q * np.exp(lam @ mc)
        r = masses @ q
        return w * r[-1] / r[:-1], q

    def flow(c: np.ndarray) -> np.ndarray:
        q0 = np.bincount(cell, weights=c)
        # a rate w_j / P(a_j) of at least w_j / MASS_EPS: a_j has no mass
        # each step settles on the masses normalized, and is judged by its error in lam
        q, _ = _dormand_prince(stage, w / MASS_EPS, q0, ts, cap, lambda q, e: (q / np.add.reduce(q), e))
        return _cell_expand(c, q, q0, cell)

    return flow


def _interp_field(terms: Sequence[Tuple[EventSet, float]]):
    """sum_j w_j (condition(p, a_j) - p) = p * (M^T (w / Mp) - sum w), for
    the k x n indicator matrix M of the events a_j."""
    events = [a for a, _ in terms]
    w = np.array([w for _, w in terms], dtype=float)
    total = sum(w.tolist())

    def bind(space: tuple):
        m = _interp_rows(events, space[1])

        def field(c: np.ndarray) -> np.ndarray:
            mass = m @ c
            if np.minimum.reduce(mass) <= MASS_EPS:
                raise DomainError(f"event {events[int(mass.argmin())]!r} has no mass")
            return c * ((w / mass) @ m - total)

        return field

    return bind


def _frac_translate(phi, chi, theta) -> float:
    """The translate of interp and ds: Shafer's weight of evidence -log(1 - chi)."""
    return _ADD.to_float(frac_to_add(1.0, chi))


def _event_to_json(a: EventSet) -> dict:
    return {"event": list(a.members())}


def _event_from_json(obj: Mapping, belief) -> EventSet:
    return EventSet.from_names(belief.labels, obj["event"])


def _interp_learner() -> Learner:
    def sample_instance(rng):  # an interior simplex and an event with real mass
        p = _random_simplex(rng)
        return _event_with_mass(rng, p.labels, p.prob, 1), p

    def rows(a, grid, p):
        coords = _simplex_rows(partial(_interp_map, (a,), _ONE), _FRAC, grid, p)
        # vecdot gives each row the bits of p.prob(a)
        return coords, [math.log(m) if m > 0 else -math.inf for m in np.vecdot(coords, a.indicator()).tolist()]

    def sample_saturated(rng):
        idx, p = _saturated_simplex(rng)
        return EventSet(p.labels, int(sum(1 << int(i) for i in idx))), p

    return Learner(
        id="interp",
        domain=_FRAC,
        belief_kind="simplex",
        observe=interp_observe,
        in_domain=lambda a, p: p.prob(a) > MASS_EPS,
        bel=lambda a, p: math.log(m) if (m := p.prob(a)) > 0 else -math.inf,
        bel_top=lambda a, p: 0.0,
        translate=_frac_translate,
        coord_flow=_interp_coord_flow,
        interleave=_interp_interleave,
        sweep=partial(_row_sweep, interp_observe, rows),
        closed_field=_interp_field,
        lb_metric="fisher",
        sample_instance=sample_instance,
        sample_saturated=sample_saturated,
        default_grid=_grid(_FRAC, (0.25, 0.5, 0.75)),
        observation_to_json=_event_to_json,
        observation_from_json=_event_from_json,
    )


# ---------------------------------------------------------------------------
# Dempster-Shafer learner.


def _random_masses(labels: Tuple[str, ...], subsets: Sequence[int], rng) -> MassFunction:
    """Dirichlet weights on the bit masks ``subsets``, a repeated one's summed."""
    table: Dict[int, float] = {}
    for s, w in zip(subsets, rng.dirichlet(np.ones(len(subsets)))):
        table[s] = table.get(s, 0.0) + float(w)
    return MassFunction(labels, table)


def _ds_learner() -> Learner:
    def sample_instance(rng):
        n = int(rng.integers(2, 5))
        labels = _world_labels(n)
        full = (1 << n) - 1
        k = int(rng.integers(2, 6))
        m = _random_masses(labels, [int(rng.integers(1, full + 1)) for _ in range(k)], rng)
        return _event_with_mass(rng, labels, m.plaus, full), m

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
        return a, _random_masses(labels, subs, rng)

    def flow(a, t, m):
        _check_kind(learner, m)
        return ds_plaus_update(m, a, add_to_frac(1.0, t))

    learner = Learner(
        id="ds",
        domain=_FRAC,
        belief_kind="mass",
        observe=lambda a, chi, m: ds_plaus_update(m, a, chi),
        in_domain=lambda a, m: m.plaus(a) > MASS_EPS,
        bel=lambda a, m: m.bel(a),
        bel_top=lambda a, m: 1.0,
        translate=_frac_translate,
        make_flow=lambda a: partial(flow, a),
        sample_instance=sample_instance,
        sample_saturated=sample_saturated,
        default_grid=_grid(_FRAC, (0.25, 0.5, 0.75)),
        observation_to_json=_event_to_json,
        observation_from_json=_event_from_json,
    )
    return learner


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
    v = _KALMAN.coerce(c if isinstance(c, ConfidenceValue) else tuple(c))
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


def _kalman_observation_from_json(obj: Mapping, belief) -> float:
    z = float(obj["z"])
    if not math.isfinite(z):
        raise ParameterError(f"'z' must be a finite number, got {z!r}")
    return z


def _kalman_learner() -> Learner:
    def path_velocity(z, b: GaussianBelief, h: float) -> np.ndarray:
        # derivative of the update path in the gain at K = 0 (any fixed r2);
        # the second-order forward stencil is exact, since the path is
        # quadratic in the gain
        return _forward_stencil(lambda k, state: kalman_observe(z, (k, 1.0), state), b, h)

    def bel(z, b: GaussianBelief) -> float:
        # err * err would overflow to inf where ** raises, but it rounds some
        # squares differently from the libm pow behind **
        try:
            sq = (b.mean - float(z)) ** 2
        except OverflowError:
            sq = math.inf
        return -(0.5 * sq + b.var * b.var)

    def bel_chain(z, b: GaussianBelief):
        if b.var <= 0.0:
            return (_KALMAN.bot, _KALMAN.value((0.3, 0.0)), _KALMAN.value((0.7, 0.0)), _KALMAN.top)
        chain = [_KALMAN.bot]
        for r2 in (4.0 * b.var, b.var, b.var / 4.0, b.var / 16.0):
            chain.append(_KALMAN.value((optimal_gain(b.var, r2), r2)))
        chain.append(_KALMAN.top)
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
        domain=_KALMAN,
        belief_kind="gaussian",
        observe=kalman_observe,
        in_domain=lambda z, b: True,
        bel=bel,
        bel_top=lambda z, b: 0.0,
        path_velocity=path_velocity,
        lb_metric="euclidean",
        sample_instance=sample_instance,
        sample_saturated=sample_saturated,
        default_grid=_grid(_KALMAN, ((0.3, 2.0), (0.5, 1.0), (0.8, 0.5))),
        bel_chain=bel_chain,
        observation_to_json=lambda z: {"z": float(z)},
        observation_from_json=_kalman_observation_from_json,
        # A later update with gain K and noise r2 reinflates the variance to
        # K^2 r2 even after a certain measurement, so top does not absorb.
        top_absorbing=False,
    )


# ---------------------------------------------------------------------------
# Gibbs reweighting: the kernel behind the Boltzmann and Bayesian learners.


_HALF_MAX = 0.5 * sys.float_info.max
_GIBBS_GRID = _grid(_ADD, (0.1, 0.5, 1.5, 3.0))  # the Gibbs learners' default grid, built once


@dataclass(frozen=True, eq=False)
class _Penalty:
    """A penalty vector u over the worlds ``labels``: the update at additive
    time t reweights a simplex by exp(-t u).

    An entry u = +inf rules its world out.  ``possible`` marks the finite
    entries, or is None when all are finite, so finite penalties skip that
    work.  At top the update keeps the supported worlds of least ``rank``
    (bayes ranks by -likelihood, whose ties are finer than its log's).
    ``what`` names the observation in errors.  ``largest`` is max |u| over
    the possible worlds (0 if there are none), computed once, when the
    penalty is built.
    """

    labels: Tuple[str, ...]
    u: np.ndarray
    rank: np.ndarray
    possible: Optional[np.ndarray]
    what: str

    def __post_init__(self):
        # not a field: replace() builds it again for the new u
        u = self.u if self.possible is None else self.u[self.possible]
        object.__setattr__(self, "largest", max(map(abs, u.tolist()), default=0.0))


def _check_worlds(pen: _Penalty, labels: Tuple[str, ...]) -> _Penalty:
    if pen.labels != labels:
        raise ParameterError(f"prior is not over the worlds of {pen.what}")
    return pen


def _gibbs_map(pen: _Penalty, bs: Sequence[float], labels: Tuple[str, ...]):
    """The update by pen at the float additive times bs (inf for top), one
    per row, bound to simplexes over labels (see ``Learner.coord_flow``)."""
    _check_worlds(pen, labels)
    if not any(bs):
        return None
    if min(bs) == math.inf:
        return partial(_gibbs_least, pen)
    top = None
    if max(bs) == math.inf:  # a top row's time is a stand-in: _gibbs_least gives its update
        top = _rows([x == math.inf for x in bs])
        bs = [1.0 if x == math.inf else x for x in bs]
    return partial(_gibbs_step, pen, _rows(bs), _wide(max(bs), pen), top)


def _wide(b: float, pen: _Penalty) -> bool:
    """Whether b * u or the shift by logw.max() may overflow at times up to b
    (silently, in Python floats): such a row shifts, once its support is known."""
    return not b * pen.largest <= _HALF_MAX


def _gibbs_support(pen: _Penalty, pr: np.ndarray) -> np.ndarray:
    supp = pr > 0.0
    if pen.possible is not None:
        supp &= pen.possible
        if not supp.any():
            raise ZeroMassEventError(f"{pen.what} contradicts the prior")
    return supp


def _gibbs_least(pen: _Penalty, pr: np.ndarray) -> np.ndarray:
    """The update at top: the supported worlds of least rank keep their mass,
    which must exceed MASS_EPS."""
    supp, rank = _gibbs_support(pen, pr), pen.rank
    lowest = np.minimum.reduce(np.where(supp, rank, np.inf))
    kept = np.where(supp & (rank == lowest), pr, 0.0)
    if max(kept.tolist()) <= MASS_EPS:  # else one world holds more
        mass = float(np.add.reduce(kept))
        if mass <= MASS_EPS:
            raise ZeroMassEventError(f"cannot condition on the least-penalty worlds of {pen.what} with mass {mass:.3g}")
    return kept


def _gibbs_step(pen: _Penalty, b, wide: bool, top, pr: np.ndarray) -> np.ndarray:
    """The update at the positive finite times b (top where ``top`` is set)."""
    u = pen.u
    if wide:
        # a row past half the float range shifts by its least penalty on
        # the support: the least-penalty worlds keep their prior weight, and
        # an infinite product rules its world out
        supp = _gibbs_support(pen, pr)
        us = np.where(supp, u, 0.0)
        with np.errstate(over="ignore"):
            shift = ~(b * np.maximum.reduce(np.abs(us), axis=-1, keepdims=True) <= _HALF_MAX)
            lo = np.minimum.reduce(np.where(supp, u, np.inf), axis=-1, keepdims=True)
            logw = np.log(np.where(supp, pr, 1.0)) - b * np.where(shift, us - lo, us)
        logw = np.where(supp, logw, -np.inf)
    else:
        if pen.possible is not None:
            _gibbs_support(pen, pr)  # a contradicted prior raises
        # a world without mass, or ruled out (u = inf), has log weight -inf,
        # so weight 0, as if the support were cut out first
        if np.count_nonzero(pr) == pr.size:  # no log(0) to warn of
            logw = np.log(pr) - b * u
        else:
            with np.errstate(divide="ignore"):
                logw = np.log(pr) - b * u
    w = np.exp(logw - np.maximum.reduce(logw, axis=-1, keepdims=True))
    return w if top is None else np.where(top, _gibbs_least(pen, pr), w)


def _expectation(p: np.ndarray, u: np.ndarray, largest: float) -> np.ndarray:
    """E_p[u] of a finite u along the last axis, |u| at most ``largest`` on the
    support: np.vecdot, bit for bit, in a row whose support has no |u| past
    half the float range; else the mean of u over its largest |u| there,
    scaled back and clamped into [min u, max u] on the support: no overflow."""
    if not largest > _HALF_MAX:
        return np.vecdot(p, u)
    supp = p > 0.0
    us = np.where(supp, u, 0.0)
    big = np.maximum.reduce(np.abs(us), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # the wide rows' plain products
        plain = np.vecdot(p, u)
        scaled = np.vecdot(p, us / np.maximum(big, 1.0)[..., None]) * big
    lo = np.minimum.reduce(np.where(supp, u, np.inf), axis=-1)
    hi = np.maximum.reduce(np.where(supp, u, -np.inf), axis=-1)
    return np.where(big > _HALF_MAX, np.minimum(np.maximum(scaled, lo), hi), plain)


def _gibbs_bel(pen: _Penalty, c: np.ndarray) -> np.ndarray:
    """Bel = -E_c[u] of the coordinates c of one simplex or of each row of
    them, -inf where c puts mass on a world that pen rules out."""
    if pen.possible is None:
        return -_expectation(c, pen.u, pen.largest)
    supp = c > 0.0
    dots = -_expectation(c, np.where(supp & pen.possible, pen.u, 0.0), pen.largest)
    return np.where((supp <= pen.possible).all(axis=-1), dots, -math.inf)


def _sum_penalties(terms: Sequence[Tuple[_Penalty, float]]) -> _Penalty:
    """The penalty u = sum_j w_j u_j of a weighted parallel observation
    (label order), whose worlds are possible where every term's are: the
    Gibbs learners are optimizing learners with a linear-expectation loss, so
    their tilts add.  At top the worlds of least sum win; one term keeps its
    own rank, and at weight 1 is its own penalty."""
    pen, w = terms[0]
    if len(terms) == 1 and w == 1.0:
        return pen
    u = None
    with np.errstate(over="ignore"):  # an infinite sum fails the tangent check
        for term, w in terms:
            u = w * term.u if u is None else u + w * term.u
    if len(terms) == 1:
        return replace(pen, u=u)
    masks = [term.possible for term, _ in terms if term.possible is not None]
    possible = np.logical_and.reduce(masks) if masks else None
    return _Penalty(pen.labels, u, u, possible, "the sum of the observations")


def _gibbs_field(terms: Sequence[Tuple[_Penalty, float]]):
    """The field of the summed penalty (``_sum_penalties``)."""
    pens = [pen for pen, _ in terms]
    summed = _sum_penalties(terms)
    u, possible = summed.u, summed.possible
    # past half the float range c @ u - u overflows where c is 0 (and 0 * inf
    # is NaN), so such a field multiplies by c before it subtracts
    largest = summed.largest
    wide = largest > _HALF_MAX

    def bind(space: tuple):
        for pen in pens:
            _check_worlds(pen, space[1])

        if possible is None:
            if wide:
                return lambda c: c * float(_expectation(c, u, largest)) - c * u
            return lambda c: c * (float(c @ u) - u)

        def field(c: np.ndarray) -> np.ndarray:
            supp = c > 0.0
            if not possible[supp].all():
                pen = next(p for p in pens if p.possible is not None and not p.possible[supp].all())
                raise DomainError(f"{pen.what} contradicts the state")
            v = np.where(supp, u, 0.0)
            return np.where(supp, c * float(_expectation(c, v, largest)) - c * v if wide else c * (float(c @ v) - v), 0.0)

        return field

    return bind


def _gibbs_observe(penalty: Callable[[Any], _Penalty], phi, t, p: FiniteSimplex) -> FiniteSimplex:
    """The update of p by penalty(phi) at additive time t (``_gibbs_map``'s kernels)."""
    pen, b = penalty(phi), _float_of(_ADD, t)
    _check_worlds(pen, p.labels)
    if not b:
        return p
    if b == math.inf:
        return p.with_probs(_gibbs_least(pen, p.probs))
    return p.with_probs(_gibbs_step(pen, b, _wide(b, pen), None, p.probs))


def _gibbs_learner(penalty: Callable[[Any], _Penalty], **hooks) -> Learner:
    """The learner reweighting simplexes by exp(-t u) for u = penalty(phi);
    ``hooks`` give its id, samplers and JSON readers."""
    observe = partial(_gibbs_observe, penalty)

    def coord_flow(terms, ts: Sequence, labels: Tuple[str, ...]):
        pens = [(_check_worlds(penalty(phi), labels), w) for phi, w in terms]
        return _gibbs_map(_sum_penalties(pens), ts, labels)

    def bel(phi, p: FiniteSimplex) -> float:
        return float(_gibbs_bel(_check_worlds(penalty(phi), p.labels), p.probs))

    def rows(phi, grid, p: FiniteSimplex):
        pen = penalty(phi)
        coords = _simplex_rows(partial(_gibbs_map, pen), _ADD, grid, p)
        return coords, _gibbs_bel(pen, coords).tolist()

    def bel_top(phi, p: FiniteSimplex) -> float:
        return -float(_check_worlds(penalty(phi), p.labels).u[p.probs > 0.0].min())

    def in_domain_fn(phi, p: FiniteSimplex) -> bool:
        possible = _check_worlds(penalty(phi), p.labels).possible
        return possible is None or bool(possible[p.probs > 0.0].all())

    return Learner(
        domain=_ADD,
        belief_kind="simplex",
        observe=observe,
        in_domain=in_domain_fn,
        bel=bel,
        bel_top=bel_top,
        translate=lambda phi, chi, p: _ADD.to_float(chi),
        coord_flow=coord_flow,
        closed_field=lambda terms: _gibbs_field([(penalty(phi), w) for phi, w in terms]),
        sweep=partial(_row_sweep, observe, rows),
        lb_metric="fisher",
        default_grid=_GIBBS_GRID,
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
    return _gibbs_observe(_boltzmann_penalty, v, beta, p)


def _boltzmann_learner() -> Learner:
    def sample_instance(rng):
        p = _random_simplex(rng)
        return RandomVariable(p.labels, rng.normal(0.0, 1.0, size=len(p.labels))), p

    def sample_saturated(rng):
        idx, p = _saturated_simplex(rng)
        vals = rng.uniform(0.5, 2.0, size=len(p.labels))
        vals[idx] = 0.0  # constant on the support, so Bel is already maximal
        return RandomVariable(p.labels, vals), p

    last = (None, None)

    def penalty(v: RandomVariable) -> _Penalty:
        # callers ask for one variable's penalty many times in a row (a law
        # check's grid): it and its bound are built once per variable
        nonlocal last
        seen, pen = last
        if seen is not v:
            pen = _boltzmann_penalty(v)
            last = (v, pen)
        return pen

    return _gibbs_learner(
        penalty,
        id="boltzmann",
        sample_instance=sample_instance,
        sample_saturated=sample_saturated,
        observation_to_json=lambda v: {"values": {l: float(x) for l, x in zip(v.labels, v.values)}},
        observation_from_json=lambda obj, p: RandomVariable.from_dict(p.labels, obj["values"]),
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
        hyps = _check_labels(self.hypotheses, MAX_WORLDS)  # the worlds of the prior
        object.__setattr__(self, "hypotheses", hyps)
        if not isinstance(self.likelihood, Mapping):
            raise ParameterError("the likelihood must map observation ids to rows")
        table = {}
        for key, row in self.likelihood.items():
            try:
                row = np.asarray(row, dtype=float).copy()
            except (TypeError, ValueError):
                raise ParameterError(f"likelihood row {key!r} is not an array of numbers") from None
            if row.shape != (len(hyps),):
                raise ParameterError(f"likelihood row {key!r} does not match hypotheses")
            if not (np.minimum.reduce(row) >= 0.0 and np.maximum.reduce(row) <= 1.0):  # false for NaN
                raise ParameterError(f"likelihood row {key!r} outside [0, 1]")
            row.setflags(write=False)
            table[str(key)] = row
        if not table:
            raise ParameterError("at least one observation row is required")
        object.__setattr__(self, "likelihood", table)

    @property
    def observations(self) -> Tuple[str, ...]:
        return tuple(self.likelihood)

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
    if isinstance(hypotheses, str):  # would read as one-letter names
        raise ParameterError(f"hypotheses must be a list of names, got {hypotheses!r}")
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


def _bayes_learner(model: Optional[BayesModel] = None) -> Learner:
    model = model or DEFAULT_BAYES_MODEL
    hyps, keys = model.hypotheses, model.observations
    with np.errstate(divide="ignore"):  # a zero likelihood is an infinite penalty
        table = {
            key: _Penalty(hyps, -np.log(row), -row, None if np.minimum.reduce(row) > 0.0 else row > 0.0,
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
    )


# ---------------------------------------------------------------------------
# Max-graded learner.


def max_graded_observe(
    key: str, chi: Union[float, ConfidenceValue], table: GradedBeliefTable
) -> GradedBeliefTable:
    """Keep the stronger of the stored grade and the offered confidence."""
    x = _float_of(_MAX, chi)
    g = table.grade(key)
    if x <= g:
        return table
    return table.with_grade(key, x)


def _max_translate(key: str, chi, table: GradedBeliefTable) -> float:
    x = _float_of(_MAX, chi)
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


def _key_rates(terms: Sequence[Tuple[str, float]], keys: Tuple[str, ...]) -> list:
    """Each key's summed weight in terms ((key, w), ...): max-graded's rates."""
    rates = [0.0] * len(keys)
    for key, w in terms:
        if key not in keys:
            raise ParameterError(f"unknown statement {key!r}")
        rates[keys.index(key)] += w
    return rates


def _max_graded_learner() -> Learner:
    def closed_field(terms):
        # sum_j w_j (1 - grade_j) e_j: a rate per key, r * (1 - c)
        def bind(space: tuple):
            rate = np.array(_key_rates(terms, space[1]))
            return lambda c: rate * (1.0 - c)

        return bind

    def coord_flow(terms, ts, labels):
        # the statements' flows commute: 1 - (1 - c) e^(-r t) per key and
        # row, at the key's rate r; grade 1 at top
        rates = _key_rates(terms, labels)
        if not any(ts):
            return None
        moved = np.array([r > 0.0 for r in rates])
        decay = np.array([[math.exp(-(t * r)) if r > 0.0 else 1.0 for r in rates] for t in ts])
        decay = decay[0] if len(ts) == 1 else decay
        return lambda c: np.where(moved, 1.0 - (1.0 - c) * decay, c)

    def rows(key, grid, table: GradedBeliefTable):
        # max_graded_observe row by row: the grade moves to x only where x > g
        g, at = table.grade(key), table.keys().index(key)
        xs = np.array([_float_of(_MAX, x) for x in grid])
        coords = np.repeat(belief_coords(table)[None], len(grid), axis=0)
        coords[:, at] = np.where(xs > g, xs, g)
        return coords, coords[:, at].tolist()

    def sample_instance(rng):
        keys = ("phi1", "phi2", "phi3")
        table = GradedBeliefTable({k: float(rng.uniform(0.0, 0.95)) for k in keys})
        return keys[int(rng.integers(3))], table

    def sample_saturated(rng):
        key, table = sample_instance(rng)
        return key, table.with_grade(key, 1.0)

    return Learner(
        id="max-graded",
        domain=_MAX,
        belief_kind="graded",
        observe=max_graded_observe,
        in_domain=lambda key, table: key in table.entries,
        bel=lambda key, table: table.grade(key),
        bel_top=lambda key, table: 1.0,
        translate=_max_translate,
        coord_flow=coord_flow,
        closed_field=closed_field,
        sweep=partial(_row_sweep, max_graded_observe, rows),
        sample_instance=sample_instance,
        sample_saturated=sample_saturated,
        default_grid=_grid(_MAX, (0.25, 0.5, 0.75)),
        observation_to_json=lambda key: {"id": key},
        observation_from_json=_statement_from_json,
    )


# ---------------------------------------------------------------------------
# Classifier learner: iterated gradient steps on softmax regression.


# The classifier's step size, the stop tolerance of its run to top and its
# cap on gradient steps.  Its confidence is the step count n, so these are
# fixed properties of the update; the functions below read them at call time.
_ETA = 0.1
_CONV_TOL = 1e-9
_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class SoftmaxModel:
    """The shape of the gradient-step learner's softmax regression; its step
    size, stop tolerance and step cap are the constants ``_ETA``,
    ``_CONV_TOL`` and ``_MAX_STEPS``."""

    n_features: int = 1
    n_classes: int = 2

    def __post_init__(self):
        for name in ("n_features", "n_classes"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {v!r}")
        if self.n_features < 1 or self.n_classes < 2:
            raise ParameterError("need at least 1 feature and 2 classes")

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


def _example_from_json(model: SoftmaxModel, obj: Mapping) -> LabeledExample:
    """``{"x": [n_features finite numbers], "y": class index}``."""
    x, y = obj["x"], obj["y"]
    if isinstance(y, bool) or not isinstance(y, int) or not 0 <= y < model.n_classes:
        raise ParameterError(f"'y' must be a class index below {model.n_classes}, got {y!r}")
    if not (
        isinstance(x, list)
        and len(x) == model.n_features
        and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max  # False for NaN
            for v in x
        )
    ):
        raise ParameterError(f"'x' must be a list of {model.n_features} finite numbers, got {x!r}")
    return LabeledExample(np.array(x, dtype=float), y)


def class_log_probs(model: SoftmaxModel, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log softmax(W x + b): the log probability of each class at theta."""
    w, b = _unpack(model, theta)
    logits = w @ x + b
    logits = logits - logits.max()
    return logits - math.log(np.exp(logits).sum())


def gradient_step(model: SoftmaxModel, theta: np.ndarray, ex: LabeledExample) -> np.ndarray:
    """One step of size ``_ETA`` down the gradient of -log p(y | x): the
    reference step that a count of n iterates n times."""
    err = np.exp(class_log_probs(model, theta, ex.x))
    err[ex.y] -= 1.0
    return theta - _ETA * np.concatenate([np.outer(err, ex.x).ravel(), err])


def train_limit(
    model: SoftmaxModel, theta: np.ndarray, ex: LabeledExample
) -> Tuple[np.ndarray, bool]:
    """Iterate gradient steps until the step displacement stalls.

    On one example a step moves theta only along err (x) (x, 1), where err is
    softmax(z) minus the one-hot label and z = Wx + b are the logits.  So,
    with eta = ``_ETA``, the logits move by -eta (|x|^2 + 1) err, and after n
    steps theta is theta0 - eta (S (x) x, S) with S the sum of the n errors.
    The loop iterates the k logits as floats (k as lists in _logit_walk, the
    reference; two classes as scalars in _logit_walk_2, which gives its bits
    with fewer operations per step) and builds theta once, at the end.

    The stop rule is max|delta theta| < ``_CONV_TOL``, evaluated as
    eta * (max|err| * max(1, max|x|)): float rounding is monotone, so this
    equals ``np.abs(eta * grad).max()`` bit for bit for the same err.

    Returns the final parameters and whether the convergence threshold was
    reached within ``_MAX_STEPS`` steps.  Non-finite logits raise
    :class:`NumericalError`.
    """
    theta = np.asarray(theta, dtype=float)
    w, b = _unpack(model, theta)
    x, eta = ex.x, _ETA
    with np.errstate(over="ignore", invalid="ignore"):  # checked in the loop
        z0 = (w @ x + b).tolist()
        gain = eta * (float(x @ x) + 1.0)
    xmax = max(1.0, float(np.abs(x).max()))
    walk = _logit_walk_2 if model.n_classes == 2 else _logit_walk
    s, converged = walk(z0, ex.y, gain, eta, xmax, _CONV_TOL, _MAX_STEPS)
    sv = np.array(s)
    return theta - eta * np.concatenate([np.outer(sv, x).ravel(), sv]), converged


def _logit_walk(z0, y, gain, eta, xmax, tol, max_steps):
    """The sum S of the errors along train_limit's walk from the logits z0,
    and whether the stop rule was met within max_steps."""
    z, s = z0, [0.0] * len(z0)
    exp, log, isfinite = math.exp, math.log, math.isfinite
    for _ in range(max_steps):
        m = max(z)
        total = sum([exp(v - m) for v in z])
        # NaN or +inf anywhere makes total NaN; -inf only shows in min(z)
        if not isfinite(total) or min(z) == -math.inf:
            raise NumericalError("non-finite logits in classifier training")
        lse = log(total)
        err = [exp((v - m) - lse) for v in z]
        err[y] -= 1.0
        if eta * (max([abs(e) for e in err]) * xmax) < tol:
            return s, True
        s = [a + e for a, e in zip(s, err)]
        z = [a - gain * c for a, c in zip(z0, s)]
    return s, False


def _logit_walk_2(z0, y, gain, eta, xmax, tol, max_steps):
    """_logit_walk for two classes: its floats, stop step and errors, on the
    logits u of class y and w of the other, by four identities exact in IEEE
    doubles.  The higher logit shifted is 0.0, so the shifted sum is
    1.0 + exp(d) with d = lower - higher, and the higher probability is
    exp(-lse); lse and exp(-lse) are kept while the sum repeats (near
    convergence it stays 1.0); y's error is <= 0 and the other's >= 0, so the
    stop test is -eu <= cut and ew <= cut (``_stop_cut``); and a logit is not
    finite exactly when d is NaN or -inf and u or w is not finite."""
    cut = _stop_cut(eta, xmax, tol)
    au, aw = (z0[1], z0[0]) if y else (z0[0], z0[1])
    u, w, su, sw = au, aw, 0.0, 0.0
    exp, log, isfinite, ninf = math.exp, math.log, math.isfinite, -math.inf
    last = lse = p_hi = 0.0  # every sum is at least 1.0
    for _ in range(max_steps):
        hi = u >= w
        d = w - u if hi else u - w
        if not d > ninf and not (isfinite(u) and isfinite(w)):
            raise NumericalError("non-finite logits in classifier training")
        total = 1.0 + exp(d)
        if total != last:
            last, lse = total, log(total)
            p_hi = exp(-lse)
        if hi:
            eu, ew = p_hi - 1.0, exp(d - lse)
        else:
            eu, ew = exp(d - lse) - 1.0, p_hi
        if -eu <= cut and ew <= cut:
            return ([sw, su] if y else [su, sw]), True
        su, sw = su + eu, sw + ew
        u, w = au - gain * su, aw - gain * sw
    return ([sw, su] if y else [su, sw]), False


def _stop_cut(eta: float, xmax: float, tol: float) -> float:
    """The largest float E >= 0 with eta * (E * xmax) < tol as rounded, or
    -1.0 if there is none: for eta, xmax >= 0 the test is E <= cut.  Floats
    >= 0 order as their bits, so cut is bisected over them, within two ulps
    of tol / (eta * xmax) where that brackets it."""
    as_float, top = struct.Struct("<d"), 0x7FF0000000000000  # the bits of inf

    def stops(bits):
        return eta * (as_float.unpack(bits.to_bytes(8, "little"))[0] * xmax) < tol

    c = tol / (eta * xmax) if eta * xmax > 0.0 else 0.0
    b = int.from_bytes(as_float.pack(c), "little") if 0.0 < c < math.inf else 0
    lo, hi = max(b - 2, 0), min(b + 2, top)
    if not stops(lo) or stops(hi):  # no bracket: search every float (inf never stops)
        lo, hi = 0, top
        if not stops(lo):
            return -1.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if stops(mid) else (lo, mid)
    return as_float.unpack(lo.to_bytes(8, "little"))[0]


def classifier_step_observe(
    ex: LabeledExample,
    n: Union[int, ConfidenceValue],
    theta: np.ndarray,
    model: Optional[SoftmaxModel] = None,
) -> np.ndarray:
    """Apply n gradient steps of size ``_ETA`` on the example's loss; n = top
    runs train_limit, to the stop tolerance ``_CONV_TOL`` or the cap
    ``_MAX_STEPS``.

    Non-convergence at the cap is reported as a :class:`NonConvergenceWarning`
    rather than an exception: the state reached is still a belief, just not a
    fixed point.  A finite n above ``_MAX_STEPS`` raises
    :class:`StepBudgetError` before any step, and parameters that are not
    finite after the n steps raise :class:`NumericalError`.  This is the
    one-entry sweep (``_classifier_sweep``), which holds these rules.
    """
    return next(_classifier_sweep(ex, (n,), theta, model or SoftmaxModel()))


def _checked_params(model: SoftmaxModel, ex: LabeledExample, theta) -> np.ndarray:
    _check_example(model, ex)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dim,):
        raise ParameterError("parameter vector does not match the model shape")
    return theta


def _non_finite(n: int) -> NumericalError:
    return NumericalError(f"non-finite parameters after {n} gradient steps")


def _orbit(
    model: SoftmaxModel, ex: LabeledExample, theta: np.ndarray, counts: Sequence[int]
) -> list:
    """The parameters after each of the ascending step counts ``counts``,
    walked as one orbit of gradient steps from theta.

    The list stops before the first count whose parameters are not finite: a
    non-finite entry stays non-finite under further steps, so every larger
    count would fail too.
    """
    out, done, states = theta.copy(), 0, []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for n in counts:
            for _ in range(n - done):
                out = gradient_step(model, out, ex)
            done = n
            if not np.isfinite(out).all():
                break
            states.append(out)
    return states


def _classifier_sweep(
    ex: LabeledExample, grid: Sequence, theta: np.ndarray, model: SoftmaxModel
) -> Iterator[np.ndarray]:
    """Yield ``classifier_step_observe(ex, chi, theta, model)`` for each chi in
    grid, in grid order, raising where that per-point loop would raise: the
    one home of the classifier's count rules.

    The distinct finite counts are walked once, in ascending order, so the
    sweep costs its largest count in gradient steps.  The first entry that
    is not a count, or a count over ``_MAX_STEPS``, raises its error after
    the entries before it and ends the walk before any step of its own.
    Top runs train_limit, with a :class:`NonConvergenceWarning` where it
    stops at the cap.  A repeated count yields the same array each time.
    """
    theta = _checked_params(model, ex, theta)
    values, failure = [], None
    for chi in grid:
        try:
            v = _COUNT.coerce(chi)
        except Exception as exc:  # any failure: raised below, in grid order
            failure = exc
            break
        if not (v.is_bot or v.is_top) and v.payload > _MAX_STEPS:
            failure = StepBudgetError(f"{v.payload} gradient steps exceed max_steps={_MAX_STEPS}")
            break
        values.append(v)
    counts = sorted({v.payload for v in values if not (v.is_bot or v.is_top)})
    states = dict(zip(counts, _orbit(model, ex, theta, counts))) if counts else {}
    for v in values:
        if v.is_bot:
            yield theta.copy()
        elif v.is_top:
            out, converged = train_limit(model, theta, ex)
            if not converged:
                # stacklevel 3: the caller of the function that drives this generator
                warnings.warn(f"no fixed point within {_MAX_STEPS} steps", NonConvergenceWarning, stacklevel=3)
            yield out
        elif v.payload in states:
            yield states[v.payload]
        else:
            raise _non_finite(v.payload)
    if failure is not None:
        raise failure


def _classifier_learner(n_features: int = 1, n_classes: int = 2) -> Learner:
    model = SoftmaxModel(n_features, n_classes)

    def observe(ex, chi, theta):
        return classifier_step_observe(ex, chi, theta, model)

    def bel(ex, theta):
        _check_example(model, ex)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            logp = float(class_log_probs(model, theta, ex.x)[ex.y])
        if math.isnan(logp):
            raise NumericalError("non-finite logits in the classifier's belief")
        return logp

    def sweep(ex, grid, theta):
        states, bels = [], []
        for state in _classifier_sweep(ex, grid, theta, model):  # bel in the loop's order
            states.append(state)
            bels.append(bel(ex, state))
        return np.array(states), bels, states[-1]

    def path_velocity(ex, theta, h):
        # the one-step quotient is exactly the negated loss gradient
        return (observe(ex, _COUNT.value(1), theta) - theta) / _ETA

    def sample_instance(rng, top: bool = False):
        theta = rng.normal(0.0, 1.0, size=model.dim)
        x = rng.normal(0.0, 1.0, size=model.n_features)
        if top:  # strongly separated inputs so the capped iteration saturates
            # the softmax in float and genuinely reaches its fixed point
            x = x / max(np.linalg.norm(x), 1e-9) * rng.uniform(1200.0, 2000.0)
        return LabeledExample(x, int(rng.integers(model.n_classes))), theta

    return Learner(
        id="classifier",
        domain=_COUNT,
        belief_kind="params",
        observe=observe,
        sweep=sweep,
        in_domain=lambda ex, theta: bool(np.all(np.isfinite(theta))),
        bel=bel,
        bel_top=lambda ex, theta: 0.0,
        path_velocity=path_velocity,
        lb_metric="euclidean",
        sample_instance=sample_instance,
        sample_top_instance=partial(sample_instance, top=True),
        default_grid=_grid(_COUNT, (1, 2, 4, 8), top=False),
        observation_to_json=lambda ex: {"x": [float(v) for v in ex.x], "y": ex.y},
        observation_from_json=lambda obj, theta: _example_from_json(model, obj),
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

    return replace(base, **_UPDATE_HOOKS, id=f"{base.id}@list", domain=dom, observe=observe, default_grid=grid)


# ---------------------------------------------------------------------------
# Registry.


_FACTORIES: Dict[str, Callable[..., Learner]] = {
    "interp": _interp_learner,
    "ds": _ds_learner,
    "kalman": _kalman_learner,
    "boltzmann": _boltzmann_learner,
    "bayes": _bayes_learner,
    "max-graded": _max_graded_learner,
    "classifier": _classifier_learner,
}

_DEFAULT_CACHE: Dict[str, Learner] = {}


def available_learners() -> Tuple[str, ...]:
    return tuple(_FACTORIES)


def get_learner(learner_id: str, **params) -> Learner:
    """Build a registered learner.  Keyword params configure two of them:
    ``get_learner("bayes", model=m)`` for a :class:`BayesModel` m, and
    ``get_learner("classifier", n_features=..., n_classes=...)``.  Without
    params the learner is built once and shared."""
    if learner_id not in _FACTORIES:
        raise ParameterError(f"unknown learner {learner_id!r}")
    if not params:
        if learner_id not in _DEFAULT_CACHE:
            _DEFAULT_CACHE[learner_id] = _FACTORIES[learner_id]()
        return _DEFAULT_CACHE[learner_id]
    return _FACTORIES[learner_id](**params)
