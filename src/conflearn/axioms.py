"""Executable axiom suite for graded belief updaters.

Each check draws deterministic random instances (seeded per learner and
axiom), probes one law, and reports the worst violation found together with
a witness for the worst instance:

  L1  no confidence changes nothing
  L2  updates vary smoothly in the confidence grade (no jumps)
  L3  any later grid state is reachable from an earlier one by a residual
  L4  the update path never revisits a state it has left
  L5  sequential updates equal one update at the combined confidence
  FC  the full-confidence update is idempotent
  B1  belief in the statement is monotone in the confidence spent
  B2  states already fully believing the statement are fixed points
  B3  the full-confidence update saturates belief

  LB  at zero commitment the update velocity is the metric gradient of Bel

A check passes when its worst violation is at most 1e-10; LB allows 1e-5
at a difference step of 1e-4, and L2 bounds its ratio by 10.  These are
constants: a ``CheckConfig`` sets only the seed, the samples and the grid.
Every check but B3 and LB takes its updates in batches (``_Updates``): by
the learner's rows hook (``Learner.rows``) where it has one, one call per
belief space, else point by point through observe; L3 runs its Brent
searches in lockstep.  Checks that do not apply to a learner (wrong
confidence geometry, missing hooks or samplers) come back with
``skipped=True`` and a note instead of failing.
"""

from __future__ import annotations

import hashlib
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .beliefs import _KINDS, belief_distance, belief_to_json
from .confidence import ConfidenceValue, _to_add, confidence_to_json
from .errors import ConfLearnError, ParameterError
from .flows import _check_samples, _forward_stencil, _json_text, metric_gradient
from .learners import Learner, NonConvergenceWarning, _first_failure

__all__ = [
    "AXIOMS",
    "CheckConfig",
    "AxiomReport",
    "check_axiom",
    "run_suite",
    "suite_passed",
    "reports_to_json",
]

AXIOMS: Tuple[str, ...] = (
    "L1",
    "L2",
    "L3",
    "L4",
    "L5",
    "FC",
    "B1",
    "B2",
    "B3",
    "LB",
)

_TOL = 1e-10  # the laws' tolerance on the worst violation
_LB_TOL = 1e-5  # LB's: its velocity and gradient are both difference quotients
_L2_RATIO_BOUND = 10.0  # L2's bound on the fine/coarse difference-quotient ratio
_FD_STEP = 1e-4  # LB's difference step; a Fisher step h p_i leaves the simplex once h >= 1
_L2_H_COARSE = 1e-2
_L2_H_FINE = 1e-4
_L2_BASE_RANGE = {"frac": 0.9, "max": 0.9, "add": 3.0}
_BRENT_ITERS = 60
_BRENT_XTOL = 2.0 ** -60
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class CheckConfig:
    """Sampling settings shared by all axiom checks: the seed that names every
    sample stream, the instances each check draws, and the confidence grid
    (None: the learner's own), a list or tuple of values of the checked
    learner's domain, each at most the next: L3 and B1 walk it upward.
    ``flows._check_samples`` rules the samples count; more than the step
    budget ``flows._MAX_STEPS`` raise :class:`StepBudgetError`.  The
    tolerances and LB's difference step are the module constants ``_TOL``,
    ``_LB_TOL``, ``_L2_RATIO_BOUND`` and ``_FD_STEP``."""

    seed: int = 0
    samples: int = 60
    confidence_grid: Optional[Sequence[Any]] = None

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")
        _check_samples(self.samples)
        if self.confidence_grid is not None and not isinstance(self.confidence_grid, (list, tuple)):
            raise ParameterError(
                f"confidence_grid must be a list or tuple, got {self.confidence_grid!r}"
            )


@dataclass
class AxiomReport:
    """Outcome of one axiom check on one learner."""

    learner_id: str
    axiom_id: str
    passed: bool
    worst_violation: float
    tol: float
    witness: Optional[dict] = None
    skipped: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "learner_id": self.learner_id,
            "axiom_id": self.axiom_id,
            "passed": bool(self.passed),
            "worst_violation": float(self.worst_violation),
            "tol": float(self.tol),
            "witness": self.witness,
            "skipped": bool(self.skipped),
            "note": self.note,
        }


def _seeded_rng(*parts) -> np.random.Generator:
    """A generator seeded from the parts joined by '|' (e.g. seed, learner id,
    axiom id), so every stream is fixed by its name alone."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _grid(learner: Learner, cfg: CheckConfig) -> Tuple[ConfidenceValue, ...]:
    """The grid in the learner's domain; ParameterError unless every entry
    coerces and each is at most the next."""
    raw = cfg.confidence_grid if cfg.confidence_grid is not None else learner.default_grid
    dom = learner.domain
    try:
        grid = tuple(dom.coerce(x) for x in raw)
    except (ConfLearnError, TypeError, ValueError) as exc:
        raise ParameterError(f"confidence grid entry not in domain {dom.id!r}: {exc}") from exc
    for lo, hi in zip(grid, grid[1:]):
        if not dom.leq(lo, hi):
            raise ParameterError(f"the confidence grid must rise, but {lo!r} comes before {hi!r}")
    return grid


def _safe_json(converter, value):
    try:
        return converter(value)
    except Exception:
        return str(value)


def _witness(learner: Learner, **parts) -> dict:
    out: Dict[str, Any] = {}
    for key, value in parts.items():
        if value is None:
            continue
        if key.startswith("phi"):
            conv = learner.observation_to_json or str
            out[key] = _safe_json(conv, value)
        elif key.startswith("chi"):
            out[key] = _safe_json(confidence_to_json, value)
        elif key.startswith("theta") or key.startswith("state"):
            out[key] = _safe_json(belief_to_json, value)
        else:
            out[key] = value
    return out


def _instances(learner: Learner, rng, n: int):
    return [learner.sample_instance(rng) for _ in range(n)]


def _top_instances(learner: Learner, rng, n: int):
    sampler = learner.sample_top_instance or learner.sample_instance
    return [sampler(rng) for _ in range(n)]


class _Check:
    """One law checked on one learner: the sample stream named by the seed,
    learner and axiom, and the largest violation offered, with its witness."""

    def __init__(self, learner: Learner, axiom_id: str, cfg: CheckConfig):
        self.learner, self.axiom_id = learner, axiom_id
        self.rng = _seeded_rng(cfg.seed, learner.id, axiom_id)
        self.value = 0.0
        self.witness: Optional[dict] = None
        self.offers = 0

    def offer(self, violation: float, **parts) -> None:
        """Record ``violation``; a new worst gets the witness built from ``parts``."""
        self.offers += 1
        if math.isnan(violation):
            violation = math.inf
        if violation > self.value:
            self.value = float(violation)
            self.witness = _witness(self.learner, **parts)

    def report(self, tol: float = _TOL, note: str = "", skipped: bool = False) -> AxiomReport:
        """The outcome against ``tol``."""
        return AxiomReport(
            learner_id=self.learner.id,
            axiom_id=self.axiom_id,
            passed=self.value <= tol,
            worst_violation=self.value,
            tol=tol,
            witness=self.witness if self.value > tol else None,
            skipped=skipped,
            note=note,
        )

    def skip(self, note: str) -> AxiomReport:
        """The report of a check that does not apply, or offered nothing."""
        return self.report(note=note, skipped=True)


def _unless_truncated(fn: Callable[..., Any], *args):
    """fn(*args), or None when a training run inside it warned that it was
    truncated: such an instance is outside the laws' scope."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NonConvergenceWarning)
        out = fn(*args)
    if any(issubclass(w.category, NonConvergenceWarning) for w in caught):
        return None
    return out


def _chain(learner: Learner, grid: Tuple[ConfidenceValue, ...], phi, theta) -> Tuple[ConfidenceValue, ...]:
    """The confidence chain B1 and B2 walk: the learner's own, else the grid."""
    if learner.bel_chain is not None:
        return tuple(learner.bel_chain(phi, theta))
    return grid


def _per_group(keys: Sequence, run: Callable[[Any, List[int]], Sequence]) -> list:
    """run(key, at) once per distinct key, for its indexes at: the results in key order."""
    groups: Dict[Any, List[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    done = {i: x for key, at in groups.items() for i, x in zip(at, run(key, at))}
    return [done[i] for i in range(len(keys))]


class _Updates:
    """A check's updates: an ask (k, chi, start) is observe(phi, chi, start)
    for instance k's phi, its entry (state, bel), bel None unless ``bels``.
    A learner with a rows hook takes the asks in one call per belief space,
    on coordinate rows, whose starts, spaces, labels and distances its
    belief kind's record (``beliefs._KINDS``) gives; any other observes
    point by point.  ``memo`` keys by instance, start (an array's bytes,
    else its id) and chi's fields (they hash in C), so no start array is
    updated twice at one confidence.  A failing batch raises the error of
    its first ask that fails alone.  Where ``truncated``, an ask whose
    training run warned that it was truncated comes back None (outside the
    laws' scope): a batch that warns runs again one ask at a time."""

    def __init__(self, learner: Learner, instances: Sequence[tuple], memo=False, bels=False, truncated=False):
        self.learner, self.instances, self.memo, self.bels = learner, instances, {} if memo else None, bels
        self.kind = None if learner.rows is None else next(k for k in _KINDS if k.name == learner.belief_kind)
        self.starts = [theta if self.kind is None else self.kind.coords(theta) for _, theta in instances]
        self.spaces, self.truncated = [self.kind.space(theta) for _, theta in instances] if self.kind else None, truncated

    def __call__(self, asks: Sequence[tuple]) -> List[Optional[tuple]]:
        if self.memo is None:
            return self._run(asks)
        keys = [(k, start.tobytes() if isinstance(start, np.ndarray) else id(start), chi.kind, chi.payload)
                for k, chi, start in asks]
        new = {key: ask for key, ask in zip(keys, asks) if key not in self.memo}  # a repeat's ask is equal
        self.memo.update(zip(new, self._run(list(new.values()))))
        return [self.memo[key] for key in keys]

    def _run(self, asks: Sequence[tuple]) -> List[Optional[tuple]]:
        if not self.truncated:
            return _first_failure(self._evaluate, asks)
        got = _unless_truncated(_first_failure, self._evaluate, asks)
        return got or [None if (one := _unless_truncated(self._evaluate, [ask])) is None else one[0] for ask in asks]

    def _evaluate(self, asks: Sequence[tuple]) -> List[tuple]:
        learner, phis = self.learner, [self.instances[k][0] for k, _, _ in asks]
        if self.kind is None:
            states = [learner.observe(phi, chi, start) for phi, (_, chi, start) in zip(phis, asks)]
            return [(s, learner.bel(phi, s) if self.bels else None) for phi, s in zip(phis, states)]
        return _per_group([self.spaces[k] for k, _, _ in asks], lambda _, at: zip(*learner.rows(
            [phis[i] for i in at], [asks[i][1] for i in at], np.array([asks[i][2] for i in at]),
            self.kind.labels(self.instances[asks[at[0]][0]][1]),
        )))

    def distances(self, pairs: Sequence[tuple]) -> List[float]:
        """belief_distance of each pair of states: on rows, one call per row length."""
        if self.kind is None:
            return [belief_distance(a, b) for a, b in pairs]
        return _per_group([len(a) for a, _ in pairs], lambda _, at: self.kind.row_distance(
            np.array([pairs[i][0] for i in at]), np.array([pairs[i][1] for i in at])
        ).tolist())


# ---------------------------------------------------------------------------
# Individual checks.


def _check_l1(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    update = _Updates(learner, _instances(learner, chk.rng, cfg.samples))
    after = update([(k, learner.domain.bot, start) for k, start in enumerate(update.starts)])
    for (phi, theta), d in zip(update.instances, update.distances([(s, start) for (s, _), start in zip(after, update.starts)])):
        chk.offer(d, phi=phi, theta=theta)
    return chk.report()


def _check_l2(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    dom = learner.domain
    if not dom.is_scalar_continuum:
        return chk.skip("confidence domain is not a one-dimensional continuum")
    hi_base, hs = _L2_BASE_RANGE.get(dom.id, 0.9), (_L2_H_COARSE, _L2_H_FINE)
    instances = _instances(learner, chk.rng, max(2, cfg.samples // 2))
    bases = [(k, base) for k in range(len(instances)) for base in (0.0, float(chk.rng.uniform(0.0, hi_base)))]
    update = _Updates(learner, instances)
    # each base's state, then its steps by each h
    states = [s for s, _ in update([(k, dom.value(base + h), update.starts[k]) for k, base in bases for h in (0.0, *hs)])]
    d = iter(update.distances([(states[3 * i], states[3 * i + j]) for i in range(len(bases)) for j in (1, 2)]))
    for k, base in bases:
        quotients = {h: next(d) / h for h in hs}
        ratio = quotients[_L2_H_FINE] / max(quotients[_L2_H_COARSE], 1.0)
        chk.offer(ratio, phi=instances[k][0], theta=instances[k][1], base=base,
                  quotients={str(h): v for h, v in quotients.items()})
    return chk.report(
        _L2_RATIO_BOUND, note="violation is the fine/coarse difference-quotient ratio"
    )


def _chart_to_confidence(dom, u: float) -> ConfidenceValue:
    # map [0, 1] onto the carrier so the root finder can search unbounded domains
    if dom.id == "add":
        return dom.top if u >= 1.0 else dom.value(_to_add(u))
    return dom.value(u)


def _residual_by_brent(dom, target_bel: float):
    """The search (``_residuals``) for the residual confidence whose update
    from its start brings Bel up to target_bel, by Brent's zero finder
    (Brent 1973, ch. 4) on gap(u) = Bel - target_bel on the chart [0, 1].

    A point is below the target when its gap is < 0; a NaN gap is not.  The
    bracket keeps a point below at its lower end and one not below at its
    upper end.  Each step tries inverse quadratic or secant interpolation and
    bisects when that step would not shrink the bracket fast enough.  The
    search stops once the bracket is at most _BRENT_XTOL + 4 eps u wide, or
    after _BRENT_ITERS steps, and settles on the upper end.
    """
    fa = (yield _chart_to_confidence(dom, 0.0)) - target_bel
    if not fa < 0.0:
        return dom.bot  # the chart sends 0 to bot
    fb = (yield _chart_to_confidence(dom, 1.0)) - target_bel
    if fb < 0.0:
        return _chart_to_confidence(dom, 1.0)
    # b is the latest point, a the one before it, c the bracket end facing b;
    # hi is the upper end, the latest point not below
    a, b, c, fc, hi = 0.0, 1.0, 0.0, fa, 1.0
    d = e = b - a
    walk, near = 0.0, False  # near: b was just reached by interpolation or a walk
    for _ in range(_BRENT_ITERS):
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
            near = False
        tol = 2.0 * _EPS * abs(b) + 0.5 * _BRENT_XTOL
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            break
        # interpolation sees nothing past an exact zero; one just reached
        # near the root most likely ends close to b, so walk toward c in
        # doubling steps while they stay inside the nearer half
        if fb == 0.0 and near:
            walk = 2.0 * walk if walk else tol
        else:
            walk = 0.0
        if 0.0 < walk < abs(m):
            d = e = math.copysign(walk, m)
        elif fb == 0.0 or abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
            near = False
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            near = 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q))
            if near:
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = (yield _chart_to_confidence(dom, b)) - target_bel
        if not fb < 0.0:
            hi = b
    return _chart_to_confidence(dom, hi)


def _step(chi: ConfidenceValue):
    """The update at chi as a search that asks for chi alone."""
    yield chi
    return chi


def _residuals(update: _Updates, searches: Sequence[tuple]) -> List[tuple]:
    """Each search (k, start, run) from start for instance k, in lockstep:
    run yields the confidences it asks for, is sent their Bel and returns
    the one it settles on, and a round asks ``update`` for every live run's
    next at once.  Returns each settled confidence and its entry."""
    chis, live = [next(run) for _, _, run in searches], range(len(searches))
    while live:
        still = []
        for i, (_, bel) in zip(live, update([(searches[i][0], chis[i], searches[i][1]) for i in live])):
            try:
                chis[i] = searches[i][2].send(bel)
                still.append(i)
            except StopIteration as stop:
                chis[i] = stop.value
        live = still
    return list(zip(chis, update([(k, chi, start) for (k, start, _), chi in zip(searches, chis)])))


def _check_l3(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    grid = _grid(learner, cfg)
    if len(grid) < 2:
        return chk.skip("confidence grid has fewer than two points")
    dom = learner.domain
    search = dom.is_scalar_continuum and learner.bel is not None
    instances = _instances(learner, chk.rng, min(cfg.samples, 12))
    update, g = _Updates(learner, instances, memo=True, bels=search), len(grid)
    # where observe at bot keeps the instance, the searches and residuals from it read its grid states
    states = update([(k, chi, start) for k, start in enumerate(update.starts) for chi in grid])
    pairs = [(k, i, j) for k in range(len(instances)) for i in range(g) for j in range(i + 1, g)]
    runs = {}  # each pair's search for its residual, or its update by the domain's residual
    for k, i, j in pairs:
        if search and not grid[j].is_top:
            runs[k, i, j] = _residual_by_brent(dom, states[k * g + j][1])
        elif (delta := dom.residual(grid[i], grid[j])) is not None:
            runs[k, i, j] = _step(delta)
    reached = dict(zip(runs, _residuals(update, [(k, states[k * g + i][0], run) for (k, i, _), run in runs.items()])))
    d = iter(update.distances([(reached[k, i, j][1][0], states[k * g + j][0]) for k, i, j in reached]))
    for k, i, j in pairs:
        parts = dict(zip(("phi", "theta"), instances[k]), chi_lo=grid[i], chi_hi=grid[j])
        if (k, i, j) in reached:
            chk.offer(next(d), **parts, chi_residual=reached[k, i, j][0])
        else:
            chk.offer(math.inf, **parts, reason="no residual in the confidence domain")
    return chk.report()


def _check_l4(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    grid = _grid(learner, cfg)
    if len(grid) < 3:
        return chk.skip("confidence grid has fewer than three points")
    instances = _instances(learner, chk.rng, cfg.samples)
    update, g = _Updates(learner, instances), len(grid)
    states = [s for s, _ in update([(k, chi, start) for k, start in enumerate(update.starts) for chi in grid])]
    far = [(k, i, m) for k in range(len(instances)) for i in range(g) for m in range(i + 2, g)]
    gaps = update.distances([(states[k * g + i], states[k * g + m]) for k, i, m in far])
    # the detours of each return, in the order of the per-instance loops
    near = [(k, i, j, m) for (k, i, m), gap in zip(far, gaps) if not gap > _TOL for j in range(i + 1, m)]
    for (k, i, j, m), d in zip(near, update.distances([(states[k * g + i], states[k * g + j]) for k, i, j, _ in near])):
        phi, theta = instances[k]
        chk.offer(d, phi=phi, theta=theta, chi_return_from=grid[i], chi_detour=grid[j], chi_return_to=grid[m])
    return chk.report()


def _draw_confidence(learner: Learner, rng) -> ConfidenceValue:
    u = rng.uniform()
    if u < 0.1:
        return learner.domain.bot
    if u < 0.2:
        return learner.domain.top
    return learner.domain.sample(rng)


def _check_l5(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    draws = []
    for _ in range(cfg.samples):
        chi = _draw_confidence(learner, chk.rng)
        chi2 = _draw_confidence(learner, chk.rng)
        # Full-confidence draws use instances where the limit is reachable;
        # elsewhere the update would be truncated and skipped anyway.
        top = (chi.is_top or chi2.is_top) and learner.sample_top_instance
        draws.append(((learner.sample_top_instance if top else learner.sample_instance)(chk.rng), chi, chi2))
    update, dom = _Updates(learner, [instance for instance, _, _ in draws], truncated=True), learner.domain

    def gaps(ks):  # the update at chi2, from it at chi, and from the instance at the two combined
        inner = [(k, e[0]) for k, e in zip(ks, update([(k, draws[k][2], update.starts[k]) for k in ks])) if e]
        got = update([ask for k, s in inner for ask in ((k, draws[k][1], s), (k, dom.combine(*draws[k][1:]), update.starts[k]))])
        pairs = [(k, a[0], b[0]) for (k, _), a, b in zip(inner, got[::2], got[1::2]) if a and b]
        return list(zip([k for k, _, _ in pairs], update.distances([(a, b) for _, a, b in pairs])))

    # each step is one batch; a failing one raises the error the per-sample loop meets first
    for k, d in _first_failure(gaps, range(len(draws))):
        (phi, theta), chi, chi2 = draws[k]
        chk.offer(d, phi=phi, theta=theta, chi_outer=chi, chi_inner=chi2)
    if not chk.offers:
        return chk.skip("no convergent instances sampled")
    return chk.report()


def _check_fc(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    top, instances = learner.domain.top, _top_instances(learner, chk.rng, cfg.samples)
    update = _Updates(learner, instances, truncated=True)

    def gaps(ks):  # the update to top, and again to top from it
        once = [(k, e[0]) for k, e in zip(ks, update([(k, top, update.starts[k]) for k in ks])) if e]
        pairs = [(k, e[0], s) for (k, s), e in zip(once, update([(k, top, s) for k, s in once])) if e]
        return list(zip([k for k, _, _ in pairs], update.distances([(a, b) for _, a, b in pairs])))

    for k, d in _first_failure(gaps, range(len(instances))):  # as in L5
        chk.offer(d, phi=instances[k][0], theta=instances[k][1])
    if not chk.offers:
        return chk.skip("no instance reached the full-confidence limit")
    return chk.report()


def _check_b1(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    if learner.bel is None:
        return chk.skip("learner exposes no belief functional")
    grid = _grid(learner, cfg)
    instances = _instances(learner, chk.rng, cfg.samples)
    update = _Updates(learner, instances, bels=True)
    chains = [_chain(learner, grid, phi, theta) for phi, theta in instances]
    asks = [(k, chi, update.starts[k]) for k, chain in enumerate(chains) if len(chain) >= 2 for chi in chain]
    every = iter([float(bel) for _, bel in update(asks)])
    for (phi, theta), chain in zip(instances, chains):
        if len(chain) < 2:
            continue
        bels = [next(every) for _ in chain]
        for i in range(len(bels)):
            for j in range(i + 1, len(bels)):
                drop = bels[i] - bels[j]
                if math.isinf(bels[i]) and math.isinf(bels[j]) and bels[i] == bels[j]:
                    drop = 0.0
                chk.offer(
                    drop, phi=phi, theta=theta, chi_lo=chain[i], chi_hi=chain[j],
                    bel_lo=bels[i], bel_hi=bels[j],
                )
    if not chk.offers:
        return chk.skip("no usable confidence chain")
    return chk.report()


def _check_b2(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    if learner.bel is None or learner.bel_top is None:
        return chk.skip("learner exposes no belief functional")
    if learner.sample_saturated is None:
        return chk.skip("full-belief states are unattainable at finite parameters")
    grid = _grid(learner, cfg)
    instances = [learner.sample_saturated(chk.rng) for _ in range(cfg.samples)]
    update = _Updates(learner, instances)
    chains = [_chain(learner, grid, phi, theta) for phi, theta in instances]
    asks = [(k, chi, update.starts[k]) for k, chain in enumerate(chains) for chi in chain]
    moved = update.distances([(state, start) for (_, _, start), (state, _) in zip(asks, update(asks))])
    for (k, chi, _), d in zip(asks, moved):
        phi, theta = instances[k]
        chk.offer(d, phi=phi, theta=theta, chi=chi)
    return chk.report()


def _check_b3(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    if learner.bel is None or learner.bel_top is None:
        return chk.skip("learner exposes no belief functional")
    for phi, theta in _top_instances(learner, chk.rng, cfg.samples):
        star = _unless_truncated(learner.observe, phi, learner.domain.top, theta)
        if star is None:
            continue
        gap = abs(learner.bel(phi, star) - learner.bel_top(phi, star))
        chk.offer(gap, phi=phi, theta=theta, state=star)
    if not chk.offers:
        return chk.skip("no instance reached the full-confidence limit")
    return chk.report()


def _check_lb(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    if learner.lb_metric is None or learner.bel is None:
        return chk.skip("learner declares no metric for gradient ascent")
    if learner.path_velocity is None and learner.make_flow is None:
        return chk.skip("learner exposes no update path")
    for phi, theta in _instances(learner, chk.rng, cfg.samples):
        if learner.path_velocity is not None:
            vel = np.asarray(learner.path_velocity(phi, theta, _FD_STEP))
        else:
            vel = _forward_stencil(learner.make_flow(phi), theta, _FD_STEP)
        grad = metric_gradient(theta, lambda s: learner.bel(phi, s), learner.lb_metric, h=_FD_STEP)
        chk.offer(float(np.abs(vel - grad).max()), phi=phi, theta=theta)
    return chk.report(_LB_TOL)


_CHECKERS: Dict[str, Callable[[Learner, CheckConfig, _Check], AxiomReport]] = {
    "L1": _check_l1,
    "L2": _check_l2,
    "L3": _check_l3,
    "L4": _check_l4,
    "L5": _check_l5,
    "FC": _check_fc,
    "B1": _check_b1,
    "B2": _check_b2,
    "B3": _check_b3,
    "LB": _check_lb,
}


def check_axiom(
    learner: Learner, axiom_id: str, cfg: Optional[CheckConfig] = None
) -> AxiomReport:
    """Run one named check; unknown axiom ids raise ParameterError."""
    if axiom_id not in _CHECKERS:
        raise ParameterError(
            f"unknown axiom {axiom_id!r}; expected one of {', '.join(AXIOMS)}"
        )
    cfg = cfg or CheckConfig()
    _grid(learner, cfg)  # a bad grid fails every check alike, before any draw
    chk = _Check(learner, axiom_id, cfg)
    if learner.sample_instance is None and axiom_id != "B2":  # B2 draws by sample_saturated alone
        return chk.skip("learner has no instance sampler")
    return _CHECKERS[axiom_id](learner, cfg, chk)


def run_suite(learner: Learner, cfg: Optional[CheckConfig] = None) -> List[AxiomReport]:
    """All checks for one learner, in the canonical axiom order."""
    cfg = cfg or CheckConfig()
    return [check_axiom(learner, axiom_id, cfg) for axiom_id in AXIOMS]


def suite_passed(reports: Sequence[AxiomReport]) -> bool:
    return all(r.passed for r in reports)


def reports_to_json(reports: Sequence[AxiomReport]) -> str:
    return _json_text([r.to_dict() for r in reports], indent=2)
