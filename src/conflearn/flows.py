"""Vector-field calculus on belief spaces.

Graded updates that are additive in their confidence are flows; this module
exposes their generating vector fields, combines fields to observe several
statements in parallel, integrates fields by their learner's flow of the
observations' sum where it has one and by one adaptive ODE driver
elsewhere, and interleaves two flows to approximate their parallel
combination from sequential updates.

Fields act on coordinate arrays.  ``VectorFieldHandle`` is the one handle
class; its belief space is given, or fixed by its first evaluation.  A
learner's closed field is the field of a weighted parallel observation
((phi, w), ...) as one closed form, bound to a belief space once and then a
map from a belief's coordinates to its velocity; one observation is the
one-term case.  ``combine_fields`` merges the closed fields of one learner
into one such form, and sums any other fields term by term.  ``integrate``
and ``integrate_sampled`` share one driver (``_run``): it binds the field
once, checks the budget, follows the field to finite time (sample by
sample) or to the limit, and returns the end state with the rows (t,
*coords) of the start, each sample time and the end.  ``TrajectoryRecord``
writes its rows through ``_csv_text``, the one CSV writer of the package.

Where the observations' flows commute, the flow of their sum at time t is
the composition of each flow at time w_j t, a closed form; interp
observations of pairwise disjoint events have one too, a mixture moving
toward Jeffrey's rule on the events.  The handle's (learner, terms) reach
the learner's ``coord_flow``, which maps the start to every sample time as
one row of one call; the driver evaluates the field once at the start, so
each check a first step would make still runs.  ``boltzmann``, ``bayes``,
``max-graded`` and ``interp`` on one or disjoint events have such flows,
whatever the config.  Interp observations of overlapping events stay in the
exponential family p(0) exp(M^T lam) / Z, one coordinate per event: at
finite times their ``coord_flow`` integrates lam.

Every other field is stepped by ``_dormand_prince``, the one ODE driver:
adaptive Dormand-Prince 5(4) steps of at most ``IntegratorConfig.step``
that land on each sample time.  These are interp sums over overlapping
events at top (on their closed field, over worlds), mutants, hand-built
handles and sums over different learners.  Each stage projects its state
into the constraint set with the projection of the belief's kind record
(``beliefs._KINDS``), which makes the checks a belief object makes, and
calls one closure: for a closed form, that closure names the field in a
DomainError and checks the velocity (finite, and on the sum-one plane for a
simplex).  Beliefs are built for the result, rebuilt from the last
unprojected state, and for each evaluation of a field with no closed form.

Interleaving has two paths, and ``trotter_interleave`` walks each round
count alone.  A learner with a walk of its own (``Learner.interleave``)
takes it: interp's state stays p(0) g(cell) / Z over the four cells its two
events cut, so its walk runs on four masses in plain floats and builds one
belief per count.  Every other learner (``boltzmann``, ``bayes``,
``max-graded``, ``ds``) composes its two ``make_flow``s on belief objects.

``metric_gradient`` (Fisher on a simplex, or euclidean) lets callers verify
that a learner's update direction is metric gradient ascent on its Bel.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .beliefs import FiniteSimplex, _kind_of, belief_distance, normalize_probs
from .confidence import _ADD, _float_of
from .errors import (
    DomainError,
    NoLimitError,
    NumericalError,
    ParameterError,
    StepBudgetError,
    UnsupportedError,
)

if TYPE_CHECKING:
    from .learners import Learner

__all__ = [
    "TangentVector",
    "VectorFieldHandle",
    "IntegratorConfig",
    "TrajectoryRecord",
    "belief_coords",
    "belief_rebuild",
    "coord_labels",
    "derivative_field",
    "parallel_field",
    "natural_gradient",
    "metric_gradient",
    "combine_fields",
    "integrate",
    "integrate_sampled",
    "trotter_interleave",
    "additive_form",
]

_SUM_TOL = 1e-10
_STENCIL_STEP = 1e-6  # derivative_field's step on a flow with no closed field

# A field on coordinate arrays, bound to some start state theta0: fmap(v, c)
# is the field's components at c, the projection of the unprojected state v
# (v is None at theta0 itself, and c is then theta0's coordinates).  Closed
# fields read c; other fields rebuild their belief from v, as the object
# path did, which keeps its bits.
CoordsMap = Callable[[Optional[np.ndarray], np.ndarray], np.ndarray]
# A belief kind's projection of a float vector into its constraint set.
Project = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Coordinates, read from the belief's kind record (beliefs._KINDS).


def _coord_kind(theta, learner: Optional[Learner] = None):
    """theta's kind record, looked up once: checked to be of the kind
    ``learner`` updates, if given, and to have coordinates."""
    kind = _kind_of(theta) if learner is None else _check_kind(learner, theta)
    if kind is None or kind.coords is None:
        raise UnsupportedError(f"no coordinates for {type(theta).__name__}")
    return kind


def _check_kind(learner: Learner, theta):
    """theta's kind record (or None), refused if the learner updates another kind."""
    kind = _kind_of(theta)
    if kind is not None and learner.belief_kind not in (None, kind.name):
        raise ParameterError(f"learner {learner.id!r} updates {learner.belief_kind} beliefs, not {kind.name}")
    return kind


def belief_coords(theta) -> np.ndarray:
    """Flatten a belief state into the coordinate vector fields act on."""
    return _coord_kind(theta).coords(theta)


def belief_rebuild(template, vec: np.ndarray):
    """Rebuild a belief like ``template`` from coordinates, projecting back
    into the representation's constraint set (simplex: clip and renormalize;
    grades: clamp to [0, 1]; variance: clamp to >= 0)."""
    kind, vec = _coord_kind(template), np.asarray(vec, dtype=float)
    return kind.make(template, vec, kind.project(vec))


def coord_labels(theta) -> Tuple[str, ...]:
    return _coord_kind(theta).labels(theta)


# ---------------------------------------------------------------------------
# Tangent vectors and field handles.


def _check_tangent(comp: np.ndarray, simplex: bool) -> None:
    # The integrators check every stage's velocity here, so they run with
    # numpy's overflow warnings off: an overflow is this NumericalError.
    drift = abs(float(np.add.reduce(comp)))
    if not math.isfinite(drift) and not np.isfinite(comp).all():
        raise NumericalError("non-finite tangent components")
    if simplex and drift > _SUM_TOL:
        raise NumericalError(
            f"simplex tangent leaves the sum-one plane (drift {drift:.3g})"
        )


@dataclass(frozen=True)
class TangentVector:
    """A velocity attached to a belief state, in that state's coordinates."""

    base: Any
    components: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float).copy()
        _check_tangent(comp, getattr(_kind_of(self.base), "sums_to_one", False))
        comp.setflags(write=False)
        object.__setattr__(self, "components", comp)


@dataclass(frozen=True)
class VectorFieldHandle:
    """A named, space-tagged vector field; evaluate with ``field(theta)``.

    A ``space`` of None is fixed by the first evaluation.  ``_coords``, if
    given, is a learner's closed form: ``_coords(space)`` maps coordinates on
    that space to components, raising DomainError outside the field's domain.
    ``_terms`` ((handle, w), ...), if given, makes the field the weighted sum
    of the handles' fields.  The integrators step with ``_bind``'s map, and an
    ``eval_at`` of None evaluates that map at one belief.  ``_source`` is
    ``(learner, terms)`` for a learner's closed field of the weighted
    observations terms: ``combine_fields`` merges such fields, and the
    integrators reach the learner's ``coord_flow`` through it.
    """

    label: str
    space: Optional[tuple]
    eval_at: Optional[Callable[[Any], TangentVector]]
    _coords: Optional[Callable] = field(default=None, kw_only=True, repr=False, compare=False)
    _terms: tuple = field(default=(), kw_only=True, repr=False, compare=False)
    _source: Optional[tuple] = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if self.eval_at is None:
            if self._coords is None and not self._terms:
                raise ParameterError(f"field {self.label!r} needs eval_at or a coordinate map")

            def eval_at(theta) -> TangentVector:
                return TangentVector(theta, self._bind(theta)[0](None, belief_coords(theta)))

            object.__setattr__(self, "eval_at", eval_at)

    def _match(self, theta):
        """theta's kind record, once theta is checked to be of the kind the field's
        learner updates and on the field's space, which the first match fixes."""
        kind = _coord_kind(theta, None if self._source is None else self._source[0])
        key = kind.space(theta)
        if self.space is None:
            object.__setattr__(self, "space", key)
        elif key != self.space:
            raise ParameterError(
                f"field {self.label!r} evaluated on a different belief space"
            )
        return kind

    def __call__(self, theta) -> TangentVector:
        self._match(theta)
        return self.eval_at(theta)

    def _bind(self, theta0) -> Tuple[CoordsMap, Project]:
        """The field on theta0's space as a CoordsMap whose components pass
        the checks a TangentVector makes, and the space's projection.  A
        closed form or a sum is one closure around its arithmetic; with
        neither, each stage belief is rebuilt for ``eval_at``."""
        kind = self._match(theta0)
        key, sums_to_one = self.space, kind.sums_to_one
        if self._coords is not None:
            outside = f"state outside the update domain of {self.label}"
            try:
                form = self._coords(key)
            except DomainError:
                raise DomainError(outside) from None

            def fmap(v, c):
                try:
                    comp = form(c)
                except DomainError:
                    raise DomainError(outside) from None
                _check_tangent(comp, sums_to_one)
                return comp

        elif self._terms:
            terms = [(f._bind(theta0)[0], w) for f, w in self._terms]

            def fmap(v, c):
                total = None
                for term, w in terms:
                    comp = term(v, c)
                    total = w * comp if total is None else total + w * comp
                _check_tangent(total, sums_to_one)
                return total

        else:
            eval_at = self.eval_at

            def fmap(v, c):
                return eval_at(_result(theta0, v)).components

        return fmap, kind.project


# bench/tracer.py looks this name up; the alias stays until the tracer
# patches public entry points only (ROADMAP item 1).
_LazyHandle = VectorFieldHandle


def _obs_label(learner: Learner, phi) -> str:
    if learner.observation_to_json is not None:
        return json.dumps(learner.observation_to_json(phi), sort_keys=True)
    return repr(phi)


def derivative_field(learner: Learner, phi) -> VectorFieldHandle:
    """The field generated by vanishing confidence in ``phi``.

    Uses the learner's closed form when registered, otherwise a second-order
    one-sided stencil of step ``_STENCIL_STEP`` on the additive flow (the
    additive axis has nothing to the left of zero, so the stencil is forward).
    """
    label = f"{learner.id}:{_obs_label(learner, phi)}"
    if learner.closed_field is not None:
        return _closed_handle(label, learner, ((phi, 1.0),))

    if learner.make_flow is not None:
        flow = learner.make_flow(phi)
        outside = f"state outside the update domain of {label}"

        def eval_fd(theta) -> TangentVector:
            _check_kind(learner, theta)
            if not learner.in_domain(phi, theta):
                raise DomainError(outside)
            v = _forward_stencil(flow, theta, _STENCIL_STEP)
            if _coord_kind(theta).sums_to_one:
                v = v - v.mean()  # discard off-plane stencil round-off
            return TangentVector(theta, v)

        return VectorFieldHandle(label, None, eval_fd)

    raise UnsupportedError(f"learner {learner.id!r} registers no flow representation")


def _closed_handle(label: str, learner: Learner, terms: tuple) -> VectorFieldHandle:
    """The field of the weighted observations ``terms`` (label order) as the
    learner's one closed form, bound to a belief space once per integration."""
    return VectorFieldHandle(
        label, None, None, _coords=learner.closed_field(terms), _source=(learner, terms)
    )


def _forward_stencil(flow: Callable[[float, Any], Any], theta, h: float) -> np.ndarray:
    """d/dt flow(t, theta) at t = 0 by the second-order forward stencil."""
    c0 = belief_coords(theta)
    c1 = belief_coords(flow(h, theta))
    c2 = belief_coords(flow(2.0 * h, theta))
    return (-3.0 * c0 + 4.0 * c1 - c2) / (2.0 * h)


def parallel_field(learner: Learner, terms: Sequence[Tuple[Any, float]]) -> VectorFieldHandle:
    """The field of the weighted observations ``terms`` ((phi, w), ...)
    observed simultaneously: ``combine_fields`` of their derivative fields."""
    fields = [derivative_field(learner, phi) for phi, _ in terms]
    return combine_fields(fields, [w for _, w in terms])


def combine_fields(
    fields: Sequence[VectorFieldHandle], weights: Optional[Sequence[float]] = None
) -> VectorFieldHandle:
    """Weighted superposition of fields on one belief space.

    Terms are summed in label order so the operation is exactly commutative
    and associative at the float level.  Closed fields of one learner become
    one call of its closed form on all their weighted observations; other
    fields are summed per handle.
    """
    if not fields:
        raise ParameterError("no fields to combine")
    if weights is None:
        weights = [1.0] * len(fields)
    if len(weights) != len(fields):
        raise ParameterError("one weight per field is required")
    for w in weights:
        if isinstance(w, bool) or not (math.isfinite(w) and w > 0.0):
            raise ParameterError(f"weights must be positive and finite, got {w!r}")
    pairs = sorted(zip(fields, weights), key=lambda fw: fw[0].label)
    label = "(" + " + ".join(
        (f"{w:g}*{f.label}" if w != 1.0 else f.label) for f, w in pairs
    ) + ")"
    sources = [f._source for f, _ in pairs]
    learner = sources[0][0] if sources[0] is not None else None
    if learner is not None and all(src is not None and src[0] is learner for src in sources):
        # closed fields of one learner: its closed form of the weighted sum
        terms = tuple((phi, w * v) for (_, src), (_, w) in zip(sources, pairs) for phi, v in src)
        return _closed_handle(label, learner, terms)
    return VectorFieldHandle(label, None, None, _terms=tuple(pairs))


# ---------------------------------------------------------------------------
# Metric gradients.


_FREEZE = 1e-9  # simplex coordinates with no more mass than this are frozen


def _central_partials(
    f: Callable[[Any], Any], theta, c0: np.ndarray, steps: np.ndarray
) -> np.ndarray:
    """Central differences of f at theta, whose coordinates are c0: coordinate
    i is stepped by steps[i] and the state rebuilt by ``belief_rebuild``; the
    partial is zero where steps[i] is zero.  Where the rebuild clamped
    coordinate i on either side, the quotient is over the span the rebuilt
    coordinates cover, a one-sided difference at a bound.  A simplex's
    rebuild renormalizes every coordinate instead, and keeps 2 steps[i]."""
    clamps = not _coord_kind(theta).sums_to_one
    partials = np.zeros_like(c0)
    for i in np.flatnonzero(steps):
        e = np.zeros_like(c0)
        e[i] = steps[i]
        ahead, behind = belief_rebuild(theta, c0 + e), belief_rebuild(theta, c0 - e)
        span = 2.0 * steps[i]
        if clamps:
            hi, lo = belief_coords(ahead)[i], belief_coords(behind)[i]
            if hi != c0[i] + e[i] or lo != c0[i] - e[i]:
                span = hi - lo
        partials[i] = (float(f(ahead)) - float(f(behind))) / span
    if not np.all(np.isfinite(partials)):
        raise NumericalError("non-finite partial derivatives")
    return partials


def natural_gradient(
    p: FiniteSimplex, f: Callable[[FiniteSimplex], float], h: float = 1e-6
) -> TangentVector:
    """Fisher natural gradient of f at p, as a simplex tangent vector:
    ``metric_gradient(p, f, "fisher", h=h)``."""
    return TangentVector(p, metric_gradient(p, f, "fisher", h=h))


def metric_gradient(theta, f: Callable[[Any], float], metric: str, h: float = 1e-4) -> np.ndarray:
    """Gradient of f at theta under the named metric, in coordinates, from
    central differences on states rebuilt by ``belief_rebuild``.

    "euclidean" steps every coordinate by h > 0; where the rebuild clamps a
    side (a grade at 0 or 1, a variance at 0) the difference is one-sided.
    "fisher" needs coordinates that sum to one; its components are
    p_i (df/dp_i - sum_j p_j df/dp_j), with coordinates of mass at most 1e-9
    frozen (the boundary pseudoinverse convention).  Its mass-relative step
    h min(1, p_i), 0 < h < 1, keeps every perturbed state inside the simplex,
    so the rebuild only renormalizes (it would clip silently for h >= 1), and
    bounds the truncation error of functions like log p_i."""
    if metric not in ("fisher", "euclidean"):
        raise UnsupportedError(f"unknown metric {metric!r}")
    fisher = metric == "fisher"
    if fisher and not getattr(_kind_of(theta), "sums_to_one", False):
        raise UnsupportedError("fisher metric requires a simplex state")
    if not 0.0 < h < (1.0 if fisher else math.inf):
        raise ParameterError(f"{metric} step h must lie in (0, {1 if fisher else 'inf'}), got {h!r}")
    c0 = belief_coords(theta)
    if not fisher:
        return _central_partials(f, theta, c0, np.full(c0.size, h))
    free = c0 > _FREEZE
    partials = _central_partials(f, theta, c0, np.where(free, h * np.minimum(1.0, c0), 0.0))
    w = c0[free]
    lam = float((w * partials[free]).sum() / w.sum())
    comp = np.zeros_like(c0)
    comp[free] = w * (partials[free] - lam)
    _check_tangent(comp, True)
    return comp


# ---------------------------------------------------------------------------
# Integration.


_QUIET_STEPS = 10  # consecutive quiet accepted steps that count as a detected limit
_LIMIT_TOL = 1e-9  # a field whose sup norm is below this is quiet
_T_MAX = 1e4  # the time a run to the limit may take before it reports no limit
# The one step budget, whatever the config: a run to the limit reports no
# limit after this many tries of a step, and a run that would take more steps
# of the cap, tries or interleaving rounds, or record more numbers (rows times
# one more than the coordinates), is refused.
_MAX_STEPS = 10_000_000


def _check_samples(samples: int) -> None:
    """Refuse more samples than the step budget, before any is drawn."""
    if samples > _MAX_STEPS:
        raise StepBudgetError(f"samples={samples} is more than max_steps={_MAX_STEPS}")


def _sample_times(t: float, step_out: Optional[float]) -> Iterable[float]:
    """The times a run to finite t records after its start: t alone or,
    sampled, each whole multiple of ``step_out`` below t, then t itself (no
    time at t = 0)."""
    if step_out is None:
        return (t,)
    n = math.ceil(t / step_out)  # (n - 1) * step_out may round to t, n * step_out below it
    wholes = range(1, n if (n - 1) * step_out < t else n - 1)
    return itertools.chain((k * step_out for k in wholes), (t,) if n else ())


@dataclass(frozen=True)
class IntegratorConfig:
    """The largest step of the adaptive driver.  The integrators take a
    field's learner's flow wherever it has one (see ``Learner.coord_flow``)
    and step every other field by Dormand-Prince 5(4) with steps of at most
    ``step``: interp observations of overlapping events at top, mutants,
    hand-built handles and sums over learners.  A run to the limit stops once
    the field's sup norm stays below ``_LIMIT_TOL`` for ``_QUIET_STEPS``
    accepted steps, and reports no limit past time ``_T_MAX`` or
    ``_MAX_STEPS`` tries."""

    step: float = 1.0

    def __post_init__(self):
        # the type first: "x" < 0 would raise a TypeError that names no setting
        if not isinstance(self.step, numbers.Real) or isinstance(self.step, bool) or not 0 < self.step < math.inf:
            raise ParameterError("step must be positive and finite")


def _check_record(t: float, step_out: Optional[float], width: int) -> None:
    """Reject integrating to finite time t, sampled every ``step_out`` if
    given, when its record of rows of ``width`` numbers would hold more than
    ``_MAX_STEPS`` numbers."""
    # at most ceil(t / step_out) + 1 rows; the cap keeps an infinite quotient roundable
    if step_out is not None and (math.ceil(min(t / step_out, _MAX_STEPS)) + 1) * width > _MAX_STEPS:
        raise StepBudgetError(f"t={t:g} sampled every {step_out:g} records more than max_steps={_MAX_STEPS} numbers")


def _result(theta0, v):
    # rebuilding from the unprojected state gives the bits the projection gave
    return theta0 if v is None else belief_rebuild(theta0, v)


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.5): row i
# holds stage i + 1's weights on the stages before it, the last row is the
# fifth-order step, whose stage is the next step's first (FSAL), and _DP_ERR
# holds the fifth- less the fourth-order weights.
_DP_ROWS = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_DP_TOL = 1e-10  # absolute tolerance on each step's error, where settle measures it
# Error control cuts a plain field's step to this (or its cap) at least: where
# the field is stiff or kinked, steps this size are taken whatever their error.
_MIN_STEP = 1e-3


def _dormand_prince(stage, bound: np.ndarray, c: np.ndarray, ts: Sequence[float], cap: float, settle,
                    floor: float = 0.0):
    """The one ODE driver: the rows at the times ``ts`` (finite, or inf
    alone: the limit) of a flow in local coordinates y about its state c, and
    the end state before settling (None where no step ran).  ``stage(c, y)``
    is (dy/dt, the state at y); ``settle(q, e)`` is (the state c that a step
    ending at q settles to, about which y restarts at 0, and the error to
    judge the step by), e being its error estimate in y.  Adaptive
    Dormand-Prince 5(4) steps of at most ``cap`` land on each time exactly.
    A step with a rate not below ``bound`` (NaN included), or a stage raising
    DomainError or NumericalError, leaves the domain and is rejected; error
    control cuts no step below ``floor``.  A last finite time over
    ``_MAX_STEPS`` steps of ``cap`` raises StepBudgetError before any step,
    and so do that many tries; DomainError where the start is outside the
    domain, or where a step to stay inside rounds to 0.  A run to the limit
    stops once the rates stay below ``_LIMIT_TOL`` for ``_QUIET_STEPS``
    accepted steps, and raises NoLimitError where a step of ``cap`` does not
    move the state, past time ``_T_MAX`` or after ``_MAX_STEPS`` tries."""
    end = max(ts, default=0.0)
    limit = math.isinf(end)
    if not (limit or end <= cap * _MAX_STEPS):
        raise StepBudgetError(f"t={end:g} takes more than max_steps={_MAX_STEPS} steps of at most {cap:g}")
    at, q = {}, None
    ks = np.empty((7, bound.size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ks[6] = stage(c, np.zeros(bound.size))[0]
        if not np.logical_and.reduce(ks[6] < bound):
            raise DomainError("the flow starts outside its domain")
        now, h, tries, quiet = 0.0, cap, 0, 0
        for target in sorted(set(ts)):
            while now < target:
                tries += 1
                if tries > _MAX_STEPS:
                    if limit:
                        raise NoLimitError(f"no limit detected within {_MAX_STEPS} steps (field norm still moving)")
                    raise StepBudgetError(f"t={end:g} takes more than max_steps={_MAX_STEPS} steps")
                step = min(h, target - now)
                ks[0] = ks[6]
                try:
                    for i in range(1, 7):
                        ks[i], y_end = stage(c, step * (_DP_ROWS[i - 1] @ ks[:i]))
                except (DomainError, NumericalError):  # a stage outside the field's domain
                    ks[6] = math.nan
                err = math.inf
                if np.logical_and.reduce(ks < bound, axis=None):
                    settled, e = settle(y_end, step * (_DP_ERR @ ks))
                    err = float(np.maximum.reduce(np.abs(e))) / _DP_TOL
                # the step scale that would have met the tolerance, within [0.2, 5]
                fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                if err <= 1.0 or step <= floor < err < math.inf:
                    still = step == cap and settled.tobytes() == c.tobytes()
                    c, q, now = settled, y_end, (target if step == target - now else now + step)
                    if step == h:  # a step cut short to land keeps the step it was cut from
                        h = min(cap, max(floor, step * fac))
                    if limit:
                        rate = float(np.maximum.reduce(np.abs(ks[6])))
                        quiet = quiet + 1 if rate < _LIMIT_TOL else 0
                        if quiet == _QUIET_STEPS:
                            break
                        if still and not quiet:  # the field reads the state alone: every later step repeats it
                            raise NoLimitError(f"no limit: a step of {cap:g} does not move the state "
                                               f"(field norm {rate:.3g})")
                        if now > _T_MAX:
                            raise NoLimitError(f"no limit detected by t={_T_MAX:g} (field norm still moving)")
                else:  # a step outside the domain may be cut below the floor
                    h, ks[6] = (step * fac if err == math.inf else max(floor, step * fac)), ks[0]
                    if now + h == now:
                        raise DomainError(f"the flow leaves its domain at t={now:g}")
            at[target] = c
    return np.array([at[t] for t in ts]), q


def _run(field: VectorFieldHandle, theta0, t: float, cfg: IntegratorConfig, step_out=None):
    """The one integration driver: follow the field from theta0 for time t
    (inf: to the limit), sampled every ``step_out`` if given.  A learner's
    closed field takes the learner's ``coord_flow`` where it has one of the
    terms' sum at these times: the driver evaluates the field once at theta0,
    for the checks a first step makes, and projects the flow's rows with
    ``normalize_probs`` on a simplex (each row's FiniteSimplex bits), else
    with the kind's projection.  Every other field is stepped by
    ``_dormand_prince`` with steps of at most ``cfg.step``: y is the
    displacement, each stage state c + y is projected and checked, a step
    ends at its projected state, and its error is measured between the
    projected fifth- and fourth-order states, so that where the projection
    clips both alike (a kink at the boundary) the step is not cut for it.
    Returns the final belief, rebuilt from the last state before its
    projection, and the rows (t, *coords) of the start, each sample time and
    the end."""
    f, project = field._bind(theta0)
    kind, c, v = _coord_kind(theta0), belief_coords(theta0), None
    if not math.isinf(t):  # before the times are listed
        _check_record(t, step_out, c.size + 1)
    times = [t] if math.isinf(t) else list(_sample_times(t, step_out))
    source, flow = field._source, NotImplemented
    if source is not None and source[0].coord_flow is not None:
        flow = source[0].coord_flow(source[1], times, kind.labels(theta0))

    def stage(c, y):
        v = c + y
        return f(v, project(v)), v

    def settle(v, e):
        c = project(v)
        return c, c - project(v - e)

    with np.errstate(over="ignore", invalid="ignore"):  # see _check_tangent
        if flow is NotImplemented:
            inf = np.full(c.size, math.inf)
            cs, v = _dormand_prince(stage, inf, c, times, cfg.step, settle, min(cfg.step, _MIN_STEP))
        else:
            f(None, c)
            if flow is None:  # every time is 0
                cs = [c] * len(times)
            else:
                v = np.broadcast_to(flow(c), (len(times), c.size))
                cs = normalize_probs(v) if kind.sums_to_one else [project(row) for row in v]
                v = v[-1]
    rows = [(0.0,) + tuple(c)]
    rows.extend((now,) + tuple(row) for now, row in zip(times, cs))
    return _result(theta0, v), rows


def integrate(
    field: VectorFieldHandle,
    theta0,
    t,
    cfg: Optional[IntegratorConfig] = None,
):
    """Follow the field from theta0 for additive time t (top = to the limit),
    read as a value of the ``add`` domain, as ``make_flow`` reads it."""
    return _run(field, theta0, _float_of(_ADD, t), cfg or IntegratorConfig())[0]


def _csv_text(columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """The CSV text of a header and rows ("\n" line ends): numbers get 17 significant digits ("%.17g":
    inf, -inf, nan) and strings the csv module's RFC 4180 quoting.  Each row is a line template, "%.17g"
    for a number and a string as csv quotes it, "%" doubled; one ``%`` then formats every number."""
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow  # returns what it writes
    is_str = str.__instancecheck__  # isinstance(x, str), for map
    templates, numbers = [], []
    for row in rows:
        if any(map(is_str, row)):  # csv quotes the strings, and writes a lone empty one as '""'
            templates.append(line([x.replace("%", "%%") if is_str(x) else "%.17g" for x in row]))
            numbers.extend([x for x in row if not is_str(x)])
        else:
            templates.append(("%.17g," * len(row))[:-1] + "\n")
            numbers.extend(row)
    return line(columns) + "".join(templates) % tuple(numbers)


def _json_text(obj, indent: Optional[int] = None) -> str:
    """The JSON text of obj, keys sorted, with each non-finite float spelled
    as ``_csv_text`` spells it ("inf", "-inf", "nan"), so the text is strict
    JSON that the readers take back: the one writer of the JSON outputs."""

    def strict(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else format(x, ".17g")
        if isinstance(x, dict):
            return {k: strict(v) for k, v in x.items()}
        return [strict(v) for v in x] if isinstance(x, (list, tuple)) else x

    return json.dumps(strict(obj), sort_keys=True, indent=indent, allow_nan=False)


@dataclass
class TrajectoryRecord:
    """Sampled states along an integrated path, ready for CSV export."""

    columns: Tuple[str, ...]
    rows: list

    def to_csv_text(self) -> str:
        return _csv_text(self.columns, self.rows)


def integrate_sampled(
    field: VectorFieldHandle,
    theta0,
    t,
    cfg: Optional[IntegratorConfig] = None,
    step_out: float = 0.1,
) -> Tuple[Any, TrajectoryRecord]:
    """Integrate for time t, sampling every ``step_out`` time units.

    For finite t the record holds the initial state, each whole multiple of
    ``step_out`` below t, and t itself: ceil(t / step_out) + 1 rows, or one
    fewer where the last whole multiple rounds to t.  At top it holds two:
    the initial state and the limit, at t = inf.  The final state is the one
    ``integrate`` returns.
    """
    t = _float_of(_ADD, t)
    if not 0 < step_out < math.inf:
        raise ParameterError(f"step_out must be positive and finite, got {step_out!r}")
    final, rows = _run(field, theta0, t, cfg or IntegratorConfig(), step_out)
    return final, TrajectoryRecord(("t",) + coord_labels(theta0), rows)


# ---------------------------------------------------------------------------
# Additive forms and interleaving.


def additive_form(learner: Learner, phi):
    """The learner's commitment flow and confidence translation for phi.

    Returns ``(flow, g)`` with ``flow(t, theta)`` the additive-time update and
    ``g(chi, theta)`` the additive time equivalent to trust ``chi`` at theta,
    so that ``flow(g(chi, theta), theta) == observe(phi, chi, theta)``.
    """
    if learner.make_flow is None or learner.translate is None:
        raise UnsupportedError(
            f"learner {learner.id!r} registers no additive form"
        )
    return learner.make_flow(phi), partial(learner.translate, phi)


def trotter_interleave(
    learner: Learner,
    phi1,
    phi2,
    chi,
    n,
    theta0,
):
    """n rounds of (phi1 at chi/n, then phi2 at chi/n) in additive time.

    At n = 1 this is plain sequential observation; as n grows it converges to
    the integral of the combined field at first order in 1/n.  Where the two
    flows commute (``boltzmann``, ``bayes``, ``max-graded``), every n gives
    that integral, within round-off.  ``interp`` flows on disjoint events do
    not commute, though their sum has an exact flow: interleaving them stays
    first order against that exact reference, and on overlapping events
    against the tilt flow of their sum.

    ``n`` is one round count, or a sequence of them; a sequence gives a
    tuple of states, one per entry in the order given.  Each distinct count
    is walked alone, in that order, so the first count that fails raises its
    error.  Distinct counts that sum to more than ``_MAX_STEPS`` rounds raise
    :class:`StepBudgetError` before any round.  A learner with its own walk
    (``Learner.interleave``) on a belief of its kind takes it: interp walks
    the masses of the four cells its two events cut, in plain floats, which
    agrees with composing its flows within round-off.  Other learners compose
    ``make_flow`` on belief objects.  A slice that underflows to 0 is the
    identity: each flow runs once, for its checks, and the start comes back.
    """
    single = np.ndim(n) == 0
    counts = (n,) if single else tuple(n)
    _check_rounds(counts)
    states = _interleave(learner, (phi1, phi2), chi, counts, theta0)
    return states[0] if single else states


def _check_rounds(counts) -> None:
    """Refuse round counts whose distinct values take more than
    ``_MAX_STEPS`` rounds in all."""
    rounds = sum(set(counts))
    if rounds > _MAX_STEPS:
        raise StepBudgetError(f"interleaving takes {rounds} rounds, more than max_steps={_MAX_STEPS}")


def _trotter_errors(learner: Learner, phi1, phi2, chi, counts, theta0, cfg=None):
    """The parallel reference (the sum of the two fields integrated to chi),
    the distance from it of each distinct count's interleaving, and the
    ratio d(2n)/d(n) wherever 2n is a count too and d(n) > 0; counts are
    written as strings, the JSON keys.  Counts over ``_MAX_STEPS`` rounds
    raise :class:`StepBudgetError` before the reference is integrated."""
    _check_rounds(counts)
    field = combine_fields([derivative_field(learner, phi1), derivative_field(learner, phi2)])
    try:
        reference = integrate(field, theta0, chi, cfg)
    except StepBudgetError as exc:  # its messages begin "t=", the time integrated, here chi
        raise StepBudgetError("chi" + str(exc)[1:]) from None
    counts = sorted(set(counts))
    states = trotter_interleave(learner, phi1, phi2, chi, counts, theta0)
    distances = {str(n): belief_distance(state, reference) for n, state in zip(counts, states)}
    ratios = {
        str(n): distances[str(2 * n)] / distances[str(n)]
        for n in counts
        if str(2 * n) in distances and distances[str(n)] > 0
    }
    return reference, distances, ratios


def _interleave(learner: Learner, phis, chi, counts: tuple, theta0) -> tuple:
    """The states of ``trotter_interleave`` for each of ``counts``: each
    distinct count is checked and walked alone, in the order given, and
    ``chi`` is checked before the first walk."""
    _check_kind(learner, theta0)
    ends, walk = {}, None
    for n in counts:
        if n in ends:
            continue
        if not n >= 1 or int(n) != n:  # NaN fails n >= 1, as 0 does
            raise ParameterError(f"n must be a positive integer, got {n!r}")
        if walk is None:
            t = _float_of(_ADD, chi)
            if math.isinf(t):
                raise ParameterError("interleaving needs a finite total commitment")
            walk = _walk(learner, phis, theta0)
        ends[n] = walk(int(n), t / n)
    return tuple(ends[n] for n in counts)


def _walk(learner: Learner, phis, theta0) -> Callable[[int, float], Any]:
    """walk(n, dt), the state after n rounds of the two phis at the float
    additive time dt each: the learner's own walk on a belief of its kind,
    else its two ``make_flow``s composed on belief objects."""
    kind = _kind_of(theta0)
    if learner.interleave is not None and kind is not None and kind.name == learner.belief_kind:
        return lambda n, dt: learner.interleave(phis, n, dt, theta0)
    if learner.make_flow is None:
        raise UnsupportedError(f"learner {learner.id!r} registers no additive form")
    flows = [learner.make_flow(phi) for phi in phis]

    def walk(n: int, dt: float):
        theta = theta0
        for _ in range(n if dt else 1):  # a slice of 0: each flow once, for its checks
            for flow in flows:
                theta = flow(dt, theta)
        return theta if dt else theta0

    return walk
