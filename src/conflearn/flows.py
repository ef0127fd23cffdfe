"""Vector-field calculus on belief spaces.

Graded updates that are additive in their confidence are flows; this module
exposes their generating vector fields, combines fields to observe several
statements in parallel, integrates fields with a fixed-step RK4/Euler scheme,
and interleaves two flows to approximate their parallel combination from
sequential updates.

Fields act on coordinate arrays.  ``VectorFieldHandle`` is the one handle
class; its belief space is given, or fixed by its first evaluation.  A
learner's closed field is the field of a weighted parallel observation
((phi, w), ...) as one closed form, bound to a belief space once and then a
map from a belief's coordinates to its velocity; one observation is the
one-term case.  ``combine_fields`` merges the closed fields of one learner
into one such form, and sums any other fields term by term.  ``integrate``
and ``integrate_sampled`` share one driver: it checks the step budget, binds
the field once, steps on arrays to finite time (sample by sample) or to the
limit, and returns the end state with the rows (t, *coords) of the start,
each sample time and the end.  It checks the velocity of every stage
(finite, and on the sum-one plane for a simplex), and projects each stage
into the constraint set with the projection of the belief's kind record
(``beliefs._KINDS``), which makes the checks a belief object makes.  Beliefs
are built for the result, and for each evaluation of a field with no closed
form.  ``TrajectoryRecord`` writes its rows through ``_csv_text``, the one
CSV writer of the package.

Interleaving works the same way.  A simplex learner's coordinate flow maps
probability rows to their updates at one additive time per row, bound to
the belief space once; ``trotter_interleave`` walks every round count of a
call as one row of one array, normalises after each update with the shared
``beliefs.normalize_probs`` and builds one belief per count.  Learners
without a coordinate flow compose their flows on belief objects.

``metric_gradient`` (Fisher on a simplex, or euclidean) lets callers verify
that a learner's update direction is metric gradient ascent on its Bel.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .beliefs import FiniteSimplex, _kind_of, normalize_probs
from .confidence import ConfidenceValue, get_domain
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


def _coord_kind(theta):
    kind = _kind_of(theta)
    if kind is None or kind.coords is None:
        raise UnsupportedError(f"no coordinates for {type(theta).__name__}")
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

    A ``space`` of None is fixed by the first evaluation.  ``_coords(theta0,
    space)``, if given, is the field on theta0's space as a CoordsMap: the
    integrators step with it, and an ``eval_at`` of None wraps its
    components in a TangentVector.  ``_source`` is ``(learner, phi)`` for
    the closed field of one observation, which ``combine_fields`` merges.
    """

    label: str
    space: Optional[tuple]
    eval_at: Optional[Callable[[Any], TangentVector]]
    _coords: Optional[Callable] = field(default=None, kw_only=True, repr=False, compare=False)
    _source: Optional[tuple] = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if self.eval_at is None:
            coords = self._coords
            if coords is None:
                raise ParameterError(f"field {self.label!r} needs eval_at or a coordinate map")

            def eval_at(theta) -> TangentVector:
                kind = _coord_kind(theta)
                fmap = coords(theta, kind.space(theta))
                return TangentVector(theta, fmap(None, kind.coords(theta)))

            object.__setattr__(self, "eval_at", eval_at)

    def _match(self, key: tuple) -> None:
        if self.space is None:
            object.__setattr__(self, "space", key)
        elif key != self.space:
            raise ParameterError(
                f"field {self.label!r} evaluated on a different belief space"
            )

    def __call__(self, theta) -> TangentVector:
        self._match(_coord_kind(theta).space(theta))
        return self.eval_at(theta)

    def _bind(self, theta0) -> Tuple[CoordsMap, Project]:
        """The field on theta0's space as a CoordsMap whose components pass
        the checks a TangentVector makes, and the space's projection.  With
        no ``_coords``, each stage belief is rebuilt for ``eval_at``."""
        kind = _coord_kind(theta0)
        key = kind.space(theta0)
        self._match(key)
        if self._coords is None:
            eval_at = self.eval_at
            return (lambda v, c: eval_at(_result(theta0, v)).components), kind.project
        fmap, sums_to_one = self._coords(theta0, key), kind.sums_to_one

        def checked(v, c):
            comp = fmap(v, c)
            _check_tangent(comp, sums_to_one)
            return comp

        return checked, kind.project


# bench/tracer.py looks this name up; the alias stays until the tracer
# patches public entry points only (ROADMAP item 1).
_LazyHandle = VectorFieldHandle


def _obs_label(learner: Learner, phi) -> str:
    if learner.observation_to_json is not None:
        return json.dumps(learner.observation_to_json(phi), sort_keys=True)
    return repr(phi)


def derivative_field(learner: Learner, phi, h: float = 1e-6) -> VectorFieldHandle:
    """The field generated by vanishing confidence in ``phi``.

    Uses the learner's closed form when registered, otherwise a second-order
    one-sided stencil on the additive flow (the additive axis has nothing to
    the left of zero, so the stencil is forward).
    """
    label = f"{learner.id}:{_obs_label(learner, phi)}"
    if learner.closed_field is not None:
        return _closed_handle(label, learner, ((phi, 1.0),), source=(learner, phi))

    if learner.make_flow is not None:
        flow = learner.make_flow(phi)
        outside = f"state outside the update domain of {label}"

        def eval_fd(theta) -> TangentVector:
            if not learner.in_domain(phi, theta):
                raise DomainError(outside)
            v = _forward_stencil(flow, theta, h)
            if _coord_kind(theta).sums_to_one:
                v = v - v.mean()  # discard off-plane stencil round-off
            return TangentVector(theta, v)

        return VectorFieldHandle(label, None, eval_fd)

    raise UnsupportedError(f"learner {learner.id!r} registers no flow representation")


def _closed_handle(label: str, learner: Learner, terms: tuple, source=None) -> VectorFieldHandle:
    """The field of the weighted observations ``terms`` (label order) as the
    learner's one closed form, bound to a belief space once per integration."""
    outside = f"state outside the update domain of {label}"
    bind = learner.closed_field(terms)

    def closed_map(theta0, space) -> CoordsMap:
        try:
            field = bind(space)
        except DomainError:
            raise DomainError(outside) from None

        def fmap(v, c):
            try:
                return field(c)
            except DomainError:
                raise DomainError(outside) from None

        return fmap

    return VectorFieldHandle(label, None, None, _coords=closed_map, _source=source)


def _forward_stencil(flow: Callable[[float, Any], Any], theta, h: float) -> np.ndarray:
    """d/dt flow(t, theta) at t = 0 by the second-order forward stencil."""
    c0 = belief_coords(theta)
    c1 = belief_coords(flow(h, theta))
    c2 = belief_coords(flow(2.0 * h, theta))
    return (-3.0 * c0 + 4.0 * c1 - c2) / (2.0 * h)


def parallel_field(learner: Learner, terms: Sequence[Tuple[Any, float]], h: float = 1e-6) -> VectorFieldHandle:
    """The field of the weighted observations ``terms`` ((phi, w), ...)
    observed simultaneously: ``combine_fields`` of their derivative fields."""
    fields = [derivative_field(learner, phi, h=h) for phi, _ in terms]
    return combine_fields(fields, [w for _, w in terms])


def combine_fields(
    fields: Sequence[VectorFieldHandle], weights: Optional[Sequence[float]] = None
) -> VectorFieldHandle:
    """Weighted superposition of fields on one belief space.

    Terms are summed in label order so the operation is exactly commutative
    and associative at the float level.  Fields that ``derivative_field``
    built on one learner with a closed form become one call of that closed
    form on the weighted observations; other fields are summed per handle.
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
        terms = tuple((phi, w) for (_, phi), (_, w) in zip(sources, pairs))
        return _closed_handle(label, learner, terms)

    def sum_map(theta0, space) -> CoordsMap:
        terms = [(f._bind(theta0)[0], w) for f, w in pairs]

        def fmap(v, c):
            total = None
            for term, w in terms:
                comp = term(v, c)
                total = w * comp if total is None else total + w * comp
            return total

        return fmap

    return VectorFieldHandle(label, None, None, _coords=sum_map)


# ---------------------------------------------------------------------------
# Metric gradients.


_FREEZE = 1e-9  # simplex coordinates with no more mass than this are frozen


def _central_partials(
    f: Callable[[Any], Any], theta, c0: np.ndarray, steps: np.ndarray
) -> np.ndarray:
    """Central differences of f at theta, whose coordinates are c0: coordinate
    i is stepped by steps[i] and the state rebuilt by ``belief_rebuild``; the
    partial is zero where steps[i] is zero."""
    partials = np.zeros_like(c0)
    for i in np.flatnonzero(steps):
        e = np.zeros_like(c0)
        e[i] = steps[i]
        ahead, behind = f(belief_rebuild(theta, c0 + e)), f(belief_rebuild(theta, c0 - e))
        partials[i] = (float(ahead) - float(behind)) / (2.0 * steps[i])
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

    "euclidean" steps every coordinate by h > 0.  "fisher" needs coordinates
    that sum to one; its components are p_i (df/dp_i - sum_j p_j df/dp_j),
    with coordinates of mass at most 1e-9 frozen (the boundary pseudoinverse
    convention).  Its mass-relative step h min(1, p_i), 0 < h < 1, keeps every
    perturbed state inside the simplex, so the rebuild only renormalizes (it
    would clip silently for h >= 1), and bounds the truncation error of
    functions like log p_i."""
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
# Fixed-step integration.


_QUIET_STEPS = 10  # consecutive quiet steps that count as a detected limit
_REM_TOL = 1e-15  # a remainder below this takes no extra step


def _sample_times(t: float, step_out: Optional[float]) -> Iterable[float]:
    if step_out is None:
        return (t,)
    n_samples = int(math.ceil(t / step_out))
    return (min(i * step_out, t) for i in range(1, n_samples + 1))


@dataclass(frozen=True)
class IntegratorConfig:
    """Deterministic fixed-step integrator settings.

    ``limit_tol``/``t_max``/``max_steps`` control detection of the infinite-
    confidence limit: the integration stops once the field's sup norm stays
    below ``limit_tol`` for ten consecutive steps, and reports no limit after
    ``max_steps`` steps or time ``t_max``.  A finite-time integration that
    would take more than ``max_steps`` steps is rejected before it starts.
    """

    scheme: str = "rk4"
    step: float = 1e-3
    t_max: float = 1e4
    limit_tol: float = 1e-9
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.scheme not in ("rk4", "euler"):
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        reals = (self.step, self.t_max, self.limit_tol)
        if any(isinstance(x, bool) for x in reals) or not all(0 < x < math.inf for x in reals):
            raise ParameterError("step, t_max and limit_tol must be positive and finite")
        if (
            isinstance(self.max_steps, bool)
            or not isinstance(self.max_steps, (int, np.integer))
            or self.max_steps < 1
        ):
            raise ParameterError("max_steps must be an integer of at least 1")


def _check_budget(cfg: IntegratorConfig, t: float, step_out: Optional[float] = None) -> None:
    """Reject integrating to finite time t, sampled every ``step_out`` if
    given, when its sample intervals together take over ``max_steps`` steps."""
    too_many = f"t={t:g} takes more than max_steps={cfg.max_steps} steps of {cfg.step:g}"
    if step_out is not None and t / step_out > cfg.max_steps:
        raise StepBudgetError(too_many)  # every sample interval takes a step
    steps, now = 0, 0.0
    for target in _sample_times(t, step_out):
        n_full, rem = divmod(target - now, cfg.step)
        steps += n_full + (rem > _REM_TOL)  # a float, so an infinite count is over budget
        now = target
        if steps > cfg.max_steps:
            raise StepBudgetError(too_many)


def _coerce_time(t) -> float:
    if isinstance(t, ConfidenceValue):
        return get_domain("add").to_float(get_domain("add").check_member(t))
    t = float(t)
    if math.isnan(t) or t < 0.0:
        raise ParameterError(f"time must be a nonnegative real or top, got {t!r}")
    return t


def _at(f: CoordsMap, project: Project, v: np.ndarray) -> np.ndarray:
    return f(v, project(v))


def _advance(f: CoordsMap, project: Project, c, k1, h: float, scheme: str) -> np.ndarray:
    """One step of size h from projected coordinates c, where k1 is the field
    there; returns the new state before its projection."""
    if scheme == "euler":
        return c + h * k1
    k2 = _at(f, project, c + 0.5 * h * k1)
    k3 = _at(f, project, c + 0.5 * h * k2)
    k4 = _at(f, project, c + h * k3)
    return c + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _cover(f: CoordsMap, project: Project, c, v, dt: float, cfg: IntegratorConfig):
    """Cover time dt from the state v (projected: c) with whole steps, then
    one remainder step.  Returns the new projected and unprojected states."""
    n_full, rem = divmod(dt, cfg.step)
    for _ in range(int(n_full)):
        v = _advance(f, project, c, f(v, c), cfg.step, cfg.scheme)
        c = project(v)
    if rem > _REM_TOL:
        v = _advance(f, project, c, f(v, c), rem, cfg.scheme)
        c = project(v)
    return c, v


def _result(theta0, v):
    # rebuilding from the unprojected state gives the bits the projection gave
    return theta0 if v is None else belief_rebuild(theta0, v)


def _run(field: VectorFieldHandle, theta0, t: float, cfg: IntegratorConfig, step_out=None):
    """The one integration loop: follow the field from theta0 for time t
    (inf: to the limit), sampled every ``step_out`` if given.  Returns the
    final belief and the rows (t, *coords) of the start, each sample time
    and the end."""
    if not math.isinf(t):
        _check_budget(cfg, t, step_out)
    f, project = field._bind(theta0)
    c, v = belief_coords(theta0), None
    rows = [(0.0,) + tuple(c)]
    with np.errstate(over="ignore", invalid="ignore"):  # see _check_tangent
        if math.isinf(t):
            c, v = _to_limit(f, project, c, cfg)
            rows.append((t,) + tuple(c))
        else:
            now = 0.0
            for target in _sample_times(t, step_out):
                c, v = _cover(f, project, c, v, target - now, cfg)
                now = target
                rows.append((now,) + tuple(c))
    return _result(theta0, v), rows


def _to_limit(f: CoordsMap, project: Project, c, cfg: IntegratorConfig):
    """Step from the projected coordinates c until the field stays quiet;
    returns the limit's projected and unprojected states."""
    k1 = f(None, c)
    quiet, before = 0, c.tobytes()
    cap = min(cfg.max_steps, int(math.ceil(cfg.t_max / cfg.step)))
    for _ in range(cap):
        v = _advance(f, project, c, k1, cfg.step, cfg.scheme)
        c = project(v)
        k1 = f(v, c)  # also the next step's first stage
        after = c.tobytes()
        if float(np.abs(k1).max()) < cfg.limit_tol:
            quiet += 1
            if quiet >= _QUIET_STEPS:
                return c, v
        elif after == before:
            # the field depends on the state alone, so every later step
            # repeats this one
            raise NoLimitError(
                f"no limit: a step of {cfg.step:g} does not move the state "
                f"(field norm {float(np.abs(k1).max()):.3g})"
            )
        else:
            quiet = 0
        before = after
    raise NoLimitError(f"no limit detected within {cap} steps (field norm still moving)")


def integrate(
    field: VectorFieldHandle,
    theta0,
    t,
    cfg: Optional[IntegratorConfig] = None,
):
    """Follow the field from theta0 for additive time t (top = to the limit)."""
    return _run(field, theta0, _coerce_time(t), cfg or IntegratorConfig())[0]


def _fmt(x) -> str:
    """A CSV field: strings pass through, numbers get 17 significant digits."""
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def _csv_text(columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """The CSV text of a header and rows (RFC 4180 quoting, "\n" line ends),
    each row's fields written by ``_fmt``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(x) for x in row] for row in rows)
    return buf.getvalue()


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

    For finite t the record holds ceil(t / step_out) + 1 rows: the initial
    state, each whole sample time, and the final time.  At top it holds two:
    the initial state and the limit, at t = inf.  The final state is the one
    ``integrate`` returns.
    """
    t = _coerce_time(t)
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
    flow = learner.make_flow(phi)

    def g(chi, theta) -> float:
        return learner.translate(phi, chi, theta)

    return flow, g


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
    the integral of the combined field at first order in 1/n.

    ``n`` is one round count, or a sequence of them; a sequence gives a
    tuple of states, one per entry in the order given, each the state (or
    the error) of that count alone, and the first count that fails alone
    raises its error.  A simplex learner with a coordinate flow
    (``Learner.coord_flow``) walks every distinct count at once, as one row
    of a probability array: both flows are bound to the rows' slices, each
    update is normalized with FiniteSimplex's own checks, and row n leaves
    the walk after n rounds as one belief.  Other learners compose
    ``make_flow`` on belief objects, once per count.
    """
    phis = (phi1, phi2)
    if np.ndim(n) == 0:
        return _interleave(learner, phis, chi, (n,), theta0)[0]
    counts = tuple(n)
    try:
        return _interleave(learner, phis, chi, counts, theta0)
    except Exception as exc:  # any failure: raised again below
        failure = exc
    # some count failed: walking each alone, in the given order, raises the
    # error of the first count that fails
    for count in counts:
        _interleave(learner, phis, chi, (count,), theta0)
    raise failure


def _interleave(learner: Learner, phis, chi, counts: tuple, theta0) -> tuple:
    """The states of ``trotter_interleave`` for each of ``counts``, raising
    if any count fails."""
    if not counts:
        return ()
    for n in counts:
        if n < 1 or int(n) != n:
            raise ParameterError(f"n must be a positive integer, got {n!r}")
    t = _coerce_time(chi)
    if math.isinf(t):
        raise ParameterError("interleaving needs a finite total commitment")
    rows = sorted(set(counts))
    ends = {}
    if learner.coord_flow is None:
        flows = [additive_form(learner, phi)[0] for phi in phis]
        for n in rows:
            theta, dt = theta0, t / n
            for _ in range(int(n)):
                for flow in flows:
                    theta = flow(dt, theta)
            ends[n] = theta
        return tuple(ends[n] for n in counts)
    labels, dts = theta0.labels, [t / n for n in rows]
    # the slices shrink as n grows: rows whose slice underflows to 0 are the
    # identity, and binding them only makes the observations' checks
    live = sum(dt > 0.0 for dt in dts)
    if live < len(rows):
        for phi in phis:
            learner.coord_flow(phi, dts[live:], labels)
        ends.update((n, theta0) for n in rows[live:])
    c = np.repeat(theta0.probs[None], live, axis=0)
    v, done = None, 0
    for lo in range(live):
        steps = [learner.coord_flow(phi, dts[lo:live], labels) for phi in phis]
        steps = [step for step in steps if step is not None]  # None: the identity
        for _ in range(int(rows[lo]) - done):
            for step in steps:
                v = step(c)
                c = normalize_probs(v)
        done = int(rows[lo])
        # rebuilding from the unnormalized row gives the object path's bits
        ends[rows[lo]] = theta0 if v is None else theta0.with_probs(v[0])
        c = c[1:]
        v = None if v is None else v[1:]
    return tuple(ends[n] for n in counts)
