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
import sys
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from .confidence import (
    _ADD, _FRAC, ConfidenceDomain, ConfidenceValue, _to_frac, add_to_frac, frac_to_add, get_domain, list_extend,
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
from .flows import _dormand_prince, _first_failure, _forward_stencil, belief_coords, belief_rebuild, coord_labels

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
    # positive times, a map along the last axis from coordinates to the
    # updated ones before the kind's projection, row i at time ts[i], taking
    # one belief's coordinates or an array of rows, one per time (interp on
    # overlapping events: one belief's, integrated by flows._dormand_prince).
    # It raises ParameterError if an observation is over other worlds.  The
    # one-term case ((phi, 1.0),) is make_flow(phi): the belief rebuilt from
    # map(coords) is make_flow(phi)(t, belief) bit for bit, and each row gets
    # those bits.
    coord_flow: Optional[
        Callable[[Sequence[Tuple[Any, float]], Sequence[float], Tuple[str, ...]], Any]
    ] = None
    # interleave(phis, slices, belief) is flows.trotter_interleave on a belief
    # of belief_kind, as a walk of the learner's own: for each (n, dt) of
    # slices, the state after n rounds of one update on each of the two
    # phis in turn at the float additive time dt > 0, or the belief itself
    # where dt is 0 (after the observations' checks).  It raises if any
    # entry fails.  A learner without one walks its coord_flow's rows.
    interleave: Optional[
        Callable[[Sequence[Any], Sequence[Tuple[int, float]], Any], Sequence[Any]]
    ] = None
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
    # with another observe sets it to None.  The law checks never use it: L3
    # and L5 test the identities it relies on, point by point.
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
            object.__setattr__(self, "make_flow", partial(_coord_make_flow, self.coord_flow))

    def __repr__(self) -> str:
        return f"Learner({self.id!r}, domain={self.domain.id!r})"


def _coord_make_flow(coord_flow, phi) -> Callable[[Any, Any], Any]:
    """make_flow(phi) as coord_flow defines it, on the belief's coordinates."""

    def flow(t, theta):
        step = coord_flow(((phi, 1.0),), (_ADD.to_float(_ADD.coerce(t)),), coord_labels(theta))
        return theta if step is None else belief_rebuild(theta, step(belief_coords(theta)))

    return flow


def _on_simplex(
    step: Optional[Callable[[np.ndarray], np.ndarray]], p: FiniteSimplex
) -> FiniteSimplex:
    """Apply a bound one-row coordinate update (see ``Learner.coord_flow``) to p."""
    return p if step is None else p.with_probs(step(p.probs))


def _row_sweep(observe, rows, phi, grid, theta):
    """``Learner.sweep`` by rows(phi, grid, theta), the coordinate rows and bel
    values of observe at the grid entries.  Where rows raises, the first entry
    that fails alone raises its own error."""
    coords, bels = _first_failure(lambda some: rows(phi, some, theta), grid)
    return coords, bels, observe(phi, grid[-1], theta)


def _simplex_rows(bind, dom: ConfidenceDomain, grid: Sequence, p: FiniteSimplex) -> np.ndarray:
    """The coordinates of _on_simplex(bind([x], p.labels), p) at each grid
    entry's float x, by one map bind(nonzero xs, labels); a zero's row is p's."""
    xs = [dom.to_float(dom.coerce(chi)) for chi in grid]
    rows = np.repeat(p.probs[None], len(xs), axis=0)
    live = [i for i, x in enumerate(xs) if x]
    step = bind([xs[i] for i in live], p.labels)
    if step is not None:
        rows[live] = normalize_probs(step(rows[live]))
    return rows


def _rows(xs):
    """Values, one per row of a coordinate array, as a column that broadcasts
    over the rows; one row's is the value itself, which numpy applies faster."""
    return xs[0] if len(xs) == 1 else np.asarray(xs)[:, None]


def _grid(dom: ConfidenceDomain, inner: Sequence, top: bool = True) -> Tuple[ConfidenceValue, ...]:
    """A default grid: bot, the values ``inner``, then top if ``top``."""
    return (dom.bot, *map(dom.value, inner)) + ((dom.top,) if top else ())


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


def interp_observe(
    a: EventSet, alpha: Union[float, ConfidenceValue], p: FiniteSimplex
) -> FiniteSimplex:
    """Mix the prior with its conditioning on ``a`` at weight alpha."""
    return _on_simplex(_interp_map(((a, 1.0),), (_FRAC.to_float(_FRAC.coerce(alpha)),), p.labels), p)


def _interp_map(cells: Sequence[Tuple[EventSet, float]], ws: Sequence[float],
                labels: Tuple[str, ...]):
    """The interpolation toward sum_j s_j condition(p, a_j), over the pairwise
    disjoint events a_j at the shares s_j (summing to 1) of ``cells``
    ((a_j, s_j), ...), at each float weight w in [0, 1] of ``ws``, one per
    row, bound to simplexes over ``labels`` (see ``Learner.coord_flow``).
    One cell ((a, 1.0),) is interp_observe(a, w, .)."""
    for a, _ in cells:
        if a.labels != labels:
            raise ParameterError("event over a different world set")
    if not any(ws):
        return None
    target = _interp_target(cells)
    if min(ws) == 1.0:  # every row at top
        return target
    w = _rows(ws)
    keep = 1.0 - w
    top = None if max(ws) < 1.0 else _rows([x == 1.0 for x in ws])

    def step(c: np.ndarray) -> np.ndarray:
        cond = target(c)
        mixed = keep * c + w * normalize_probs(cond)
        return mixed if top is None else np.where(top, cond, mixed)

    return step


def _interp_target(cells: Sequence[Tuple[EventSet, float]]):
    """The map c -> sum_j s_j c * ind(a_j) / mass_j(c) of ``_interp_map``'s
    cells, on one belief's coordinates or on rows, raising
    ZeroMassEventError where some a_j has no mass.  One cell's share is 1,
    and its map is condition(p, a) op for op."""
    if len(cells) == 1:
        ((a, _),) = cells
        ind = a.indicator()

        def target(c: np.ndarray) -> np.ndarray:
            mass = np.vecdot(c, ind)  # condition(p, a) row by row, op for op
            # one belief's vector has one mass, which numpy applies faster as is
            least = float(np.minimum.reduce(mass) if mass.ndim else mass)
            if least <= MASS_EPS:
                raise ZeroMassEventError(f"cannot condition on {a!r} with mass {least:.3g}")
            return c * ind / (mass[:, None] if mass.ndim else mass)

        return target
    m = np.array([a.indicator() for a, _ in cells])
    shares = np.array([s for _, s in cells])

    def target(c: np.ndarray) -> np.ndarray:
        mass = c @ m.T
        least = float(np.minimum.reduce(mass, axis=None))
        if least <= MASS_EPS:
            a = cells[int(mass.argmin()) % len(cells)][0]
            raise ZeroMassEventError(f"cannot condition on {a!r} with mass {least:.3g}")
        # the events are disjoint: each world's coefficient is its cell's alone
        return c * ((shares / mass) @ m)

    return target


def _interp_coord_flow(terms: Sequence[Tuple[EventSet, float]], ts: Sequence[float],
                       labels: Tuple[str, ...]):
    weights: Dict[EventSet, float] = {}
    for a, w in terms:  # an event observed twice is one cell of their summed weight
        if a.labels != labels:
            raise ParameterError("event over a different world set")
        weights[a] = weights.get(a, 0.0) + w
    union = 0
    for a in weights:
        if union & a.mask:
            if math.inf in ts:  # the limit of overlapping events has no closed form
                return NotImplemented
            return _interp_tilt_flow(weights, ts, labels)
        union |= a.mask
    total = sum(weights.values())
    # on disjoint events each conditional is fixed along the flow, so the flow
    # of sum_j w_j (condition(p, a_j) - p) at t interpolates toward
    # sum_j (w_j / W) condition(p, a_j) at weight 1 - e^(-W t), W = sum_j w_j;
    # t = inf gives weight 1
    cells = tuple((a, w / total) for a, w in weights.items())
    return _interp_map(cells, [_to_frac(total * t) for t in ts], labels)


def _interp_interleave(events: Sequence[EventSet], slices: Sequence[Tuple[int, float]],
                       p: FiniteSimplex) -> list:
    """``Learner.interleave`` for interp: for each (n, dt) of ``slices``, n
    rounds of interp_observe on each of the two events in turn at weight
    1 - e^(-dt).  Each update scales a world by a factor that depends only
    on whether the event holds it, so the state stays p * g(cell) / Z over
    the four cells the events cut (a and b, a only, b only, neither)
    (Trotter 1959).  The walk runs on their masses q in plain floats,
    renormalized after each update, and world i ends at p_i * q_s / q0_s for
    its cell s (0 where q0_s is 0).  An event of mass at most MASS_EPS
    raises ZeroMassEventError, as conditioning on it does."""
    a, b = events
    if a.labels != p.labels or b.labels != p.labels:
        raise ParameterError("event over a different world set")
    # each world's cell: 0 both, 1 a only, 2 b only, 3 neither
    cell = [3 - 2 * (a.mask >> i & 1) - (b.mask >> i & 1) for i in range(len(p.labels))]
    q0 = [0.0] * 4
    for s, x in zip(cell, p.probs.tolist()):
        q0[s] += x
    states = []
    for n, dt in slices:
        if dt == 0.0:  # an underflowing slice is the identity
            states.append(p)
            continue
        alpha = _to_frac(dt)
        keep = 1.0 - alpha  # 0 where alpha rounds to 1: the update conditions outright
        # x1, x2 are the cells the next event holds, x3, x4 those it does not
        x1, x2, x3, x4 = q0
        for _ in range(n):
            for e in events:
                m = x1 + x2
                if m <= MASS_EPS:
                    raise ZeroMassEventError(f"cannot condition on {e!r} with mass {m:.3g}")
                up = keep + alpha / m
                x1, x2, x3, x4 = x1 * up, x2 * up, x3 * keep, x4 * keep
                total = x1 + x2 + x3 + x4
                # renormalized, and seen from the other event: "a only" and
                # "b only" trade places; after a round a's view is back
                x1, x2, x3, x4 = x1 / total, x3 / total, x2 / total, x4 / total
        ratio = np.array([x / x0 if x0 > 0.0 else 0.0 for x, x0 in zip((x1, x2, x3, x4), q0)])
        states.append(p.with_probs(p.probs * ratio[cell]))
    return states


# the tilt flow's steps are at most this over the summed weight W: a world no
# event holds decays as e^(-W t), and DP5(4) is stable on it below about 3.3
_TILT_RATE = 2.0


def _interp_tilt_flow(weights: Dict[EventSet, float], ts: Sequence[float], labels: Tuple[str, ...]):
    """The flow of overlapping events at the finite times ts, as a map from
    one belief's coordinates to the rows at ts (None if every time is 0).
    Along p * (M^T (w / Mp) - W), d log p stays in the span of M's rows and
    of 1, so p(t) = p(0) * exp(M^T lam(t)) / Z with dlam/dt = w / (M p)
    (Csiszar 1975), the ODE that ``flows._dormand_prince`` integrates."""
    if not any(ts):
        return None
    m = np.array([a.indicator() for a in weights], dtype=float)
    masses = np.vstack([m, np.ones(len(labels))])  # each event's mass, then the total
    w = np.array(list(weights.values()))
    cap = _TILT_RATE / sum(weights.values())

    def stage(c: np.ndarray, lam: np.ndarray):
        q = c * np.exp(lam @ m)
        r = masses @ q
        return w * r[-1] / r[:-1], q

    # a rate w_j / P(a_j) of at least w_j / MASS_EPS: a_j has no mass
    return lambda c: _dormand_prince(stage, w / MASS_EPS, c, ts, cap)


def _interp_field(terms: Sequence[Tuple[EventSet, float]]):
    """sum_j w_j (condition(p, a_j) - p) = p * (M^T (w / Mp) - sum w), for
    the k x n indicator matrix M of the events a_j."""
    events = [a for a, _ in terms]
    w = np.array([w for _, w in terms], dtype=float)
    total = sum(w.tolist())

    def bind(space: tuple):
        if any(a.labels != space[1] for a in events):
            raise ParameterError("event over a different world set")
        m = np.array([a.indicator() for a in events])

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
        coords = _simplex_rows(partial(_interp_map, ((a, 1.0),)), _FRAC, grid, p)
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
        bel=lambda a, p: math.log(p.prob(a)) if p.prob(a) > 0 else -math.inf,
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

    return Learner(
        id="ds",
        domain=_FRAC,
        belief_kind="mass",
        observe=lambda a, chi, m: ds_plaus_update(m, a, chi),
        in_domain=lambda a, m: m.plaus(a) > MASS_EPS,
        bel=lambda a, m: m.bel(a),
        bel_top=lambda a, m: 1.0,
        translate=_frac_translate,
        make_flow=lambda a: lambda t, m: ds_plaus_update(m, a, add_to_frac(1.0, t)),
        sample_instance=sample_instance,
        sample_saturated=sample_saturated,
        default_grid=_grid(_FRAC, (0.25, 0.5, 0.75)),
        observation_to_json=_event_to_json,
        observation_from_json=_event_from_json,
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
    # within half the float range neither b * u nor the shift by logw.max()
    # can overflow (Python floats overflow silently); a row past it may
    # shift, once its support is known
    wide = not max(bs) * pen.largest <= _HALF_MAX
    return partial(_gibbs_step, pen, _rows(bs), wide, top)


def _gibbs_support(pen: _Penalty, pr: np.ndarray) -> np.ndarray:
    supp = pr > 0.0
    if pen.possible is not None:
        supp &= pen.possible
        if not supp.any(axis=-1).all():
            raise ZeroMassEventError(f"{pen.what} contradicts the prior")
    return supp


def _gibbs_least(pen: _Penalty, pr: np.ndarray, top=True) -> np.ndarray:
    """The update at top: the supported worlds of least rank keep their mass,
    which must exceed MASS_EPS in each row where ``top`` is set."""
    supp, rank = _gibbs_support(pen, pr), pen.rank
    lowest = np.minimum.reduce(np.where(supp, rank, np.inf), axis=-1, keepdims=True)
    kept = np.where(supp & (rank == lowest), pr, 0.0)
    if kept.ndim > 1 or max(kept.tolist()) <= MASS_EPS:  # else one world holds more
        mass = np.where(top, np.add.reduce(kept, axis=-1, keepdims=True), np.inf)
        least = float(np.minimum.reduce(mass, axis=None))
        if least <= MASS_EPS:
            raise ZeroMassEventError(f"cannot condition on the least-penalty worlds of {pen.what} with mass {least:.3g}")
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
        with np.errstate(divide="ignore"):
            logw = np.log(pr) - b * u
    w = np.exp(logw - np.maximum.reduce(logw, axis=-1, keepdims=True))
    return w if top is None else np.where(top, _gibbs_least(pen, pr, top), w)


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
    """The update of p by penalty(phi) at additive time t: coord_flow of the
    one term (phi, 1.0), without building the term."""
    return _on_simplex(_gibbs_map(penalty(phi), (_ADD.to_float(_ADD.coerce(t)),), p.labels), p)


def _gibbs_learner(penalty: Callable[[Any], _Penalty], **hooks) -> Learner:
    """The learner reweighting simplexes by exp(-t u) for u = penalty(phi);
    ``hooks`` give its id, samplers and JSON readers."""
    observe = partial(_gibbs_observe, penalty)

    def coord_flow(terms, ts: Sequence, labels: Tuple[str, ...]):
        pens = [(_check_worlds(penalty(phi), labels), w) for phi, w in terms]
        return _gibbs_map(_sum_penalties(pens), ts, labels)

    def bel(phi, p: FiniteSimplex) -> float:
        pen = _check_worlds(penalty(phi), p.labels)
        u = pen.u
        if pen.possible is not None:
            supp = p.probs > 0.0
            if not pen.possible[supp].all():
                return -math.inf
            u = np.where(supp, u, 0.0)
        return -float(_expectation(p.probs, u, pen.largest))  # the bits of the sweep's rows

    def rows(phi, grid, p: FiniteSimplex):
        pen = penalty(phi)
        coords = _simplex_rows(partial(_gibbs_map, pen), _ADD, grid, p)
        if pen.possible is None:
            return coords, (-_expectation(coords, pen.u, pen.largest)).tolist()
        supp = coords > 0.0  # as bel: mass on a ruled-out world gives -inf
        dots = -_expectation(coords, np.where(supp & pen.possible, pen.u, 0.0), pen.largest)
        return coords, np.where((supp <= pen.possible).all(axis=-1), dots, -math.inf).tolist()

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
        default_grid=_grid(_ADD, (0.1, 0.5, 1.5, 3.0)),
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
    )


# ---------------------------------------------------------------------------
# Max-graded learner.


def max_graded_observe(
    key: str, chi: Union[float, ConfidenceValue], table: GradedBeliefTable
) -> GradedBeliefTable:
    """Keep the stronger of the stored grade and the offered confidence."""
    x = _MAX.to_float(_MAX.coerce(chi))
    g = table.grade(key)
    if x <= g:
        return table
    return table.with_grade(key, x)


def _max_translate(key: str, chi, table: GradedBeliefTable) -> float:
    x = _MAX.to_float(_MAX.coerce(chi))
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
        xs = np.array([_MAX.to_float(_MAX.coerce(x)) for x in grid])
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
    The loop iterates the k logits as floats (two classes as scalars, k as
    lists) and builds theta once, at the end.

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
    """_logit_walk for two classes on scalars: the same float operations in
    the same order, so the same bits."""
    a0, a1 = z0
    v0, v1, s0, s1 = a0, a1, 0.0, 0.0
    exp, log, isfinite = math.exp, math.log, math.isfinite
    for _ in range(max_steps):
        m = max(v0, v1)
        total = 0 + exp(v0 - m) + exp(v1 - m)  # sum() starts at 0
        if not isfinite(total) or min(v0, v1) == -math.inf:
            raise NumericalError("non-finite logits in classifier training")
        lse = log(total)
        e0, e1 = exp((v0 - m) - lse), exp((v1 - m) - lse)
        if y:
            e1 -= 1.0
        else:
            e0 -= 1.0
        if eta * (max(abs(e0), abs(e1)) * xmax) < tol:
            return [s0, s1], True
        s0, s1 = s0 + e0, s1 + e1
        v0, v1 = a0 - gain * s0, a1 - gain * s1
    return [s0, s1], False


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
    finite after the n steps raise :class:`NumericalError`.
    """
    model = model or SoftmaxModel()
    theta = _checked_params(model, ex, theta)
    v = _COUNT.coerce(n)
    if v.is_bot:
        return theta.copy()
    if v.is_top:
        out, converged = train_limit(model, theta, ex)
        if not converged:
            warnings.warn(
                f"no fixed point within {_MAX_STEPS} steps",
                NonConvergenceWarning,
                stacklevel=2,
            )
        return out
    if v.payload > _MAX_STEPS:
        raise StepBudgetError(f"{v.payload} gradient steps exceed max_steps={_MAX_STEPS}")
    states = _orbit(model, ex, theta, [v.payload])
    if not states:
        raise _non_finite(v.payload)
    return states[0]


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
    grid, in grid order, raising where that per-point loop would raise.

    The distinct finite counts are walked once, in ascending order, so the
    sweep costs its largest count in gradient steps.  The first entry that
    is over ``_MAX_STEPS`` or not a count ends the walk: from there on
    the sweep is the per-point loop, which raises at that entry before any
    step.  A repeated count yields the same array each time.
    """
    theta = _checked_params(model, ex, theta)
    values = []
    for chi in grid:
        try:
            v = _COUNT.coerce(chi)
        except Exception:  # the per-point loop below raises it in grid order
            break
        if not (v.is_bot or v.is_top) and v.payload > _MAX_STEPS:
            break
        values.append(v)
    counts = sorted({v.payload for v in values if not (v.is_bot or v.is_top)})
    states = dict(zip(counts, _orbit(model, ex, theta, counts)))
    for v in values:
        if v.is_bot:
            yield theta.copy()
        elif v.is_top:
            yield classifier_step_observe(ex, v, theta, model)
        elif v.payload in states:
            yield states[v.payload]
        else:
            raise _non_finite(v.payload)
    for chi in grid[len(values):]:
        yield classifier_step_observe(ex, chi, theta, model)


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

    return Learner(
        id=f"{base.id}@list",
        domain=dom,
        belief_kind=base.belief_kind,
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
    )


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
