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
Checks that do not apply to a learner (wrong confidence geometry, missing
hooks) come back with ``skipped=True`` and a note instead of failing.
"""

from __future__ import annotations

import hashlib
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .beliefs import belief_distance, belief_to_json
from .confidence import ConfidenceValue, _to_add, confidence_to_json
from .errors import ConfLearnError, ParameterError
from .flows import _check_samples, _forward_stencil, _json_text, metric_gradient
from .learners import Learner, NonConvergenceWarning

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
    learner's domain, each at most the next: L3 and B1 walk it upward.  More
    samples than the step budget ``flows._MAX_STEPS`` raise
    :class:`StepBudgetError`.  The tolerances and LB's difference step are
    the module constants ``_TOL``, ``_LB_TOL``, ``_L2_RATIO_BOUND`` and
    ``_FD_STEP``."""

    seed: int = 0
    samples: int = 60
    confidence_grid: Optional[Sequence[Any]] = None

    def __post_init__(self):
        for name in ("seed", "samples"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.samples < 1:
            raise ParameterError("samples must be at least 1")
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


# ---------------------------------------------------------------------------
# Individual checks.


def _check_l1(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    for phi, theta in _instances(learner, chk.rng, cfg.samples):
        after = learner.observe(phi, learner.domain.bot, theta)
        d = belief_distance(after, theta)
        chk.offer(d, phi=phi, theta=theta)
    return chk.report()


def _check_l2(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    dom = learner.domain
    if not dom.is_scalar_continuum:
        return chk.skip("confidence domain is not a one-dimensional continuum")
    hi_base = _L2_BASE_RANGE.get(dom.id, 0.9)
    for phi, theta in _instances(learner, chk.rng, max(2, cfg.samples // 2)):
        for base in (0.0, float(chk.rng.uniform(0.0, hi_base))):
            quotients = {}
            a = learner.observe(phi, dom.value(base), theta)
            for h in (_L2_H_COARSE, _L2_H_FINE):
                b = learner.observe(phi, dom.value(base + h), theta)
                quotients[h] = belief_distance(a, b) / h
            ratio = quotients[_L2_H_FINE] / max(quotients[_L2_H_COARSE], 1.0)
            chk.offer(
                ratio, phi=phi, theta=theta, base=base,
                quotients={str(k): v for k, v in quotients.items()},
            )
    return chk.report(
        _L2_RATIO_BOUND, note="violation is the fine/coarse difference-quotient ratio"
    )


def _chart_to_confidence(dom, u: float) -> ConfidenceValue:
    # map [0, 1] onto the carrier so the root finder can search unbounded domains
    if dom.id == "add":
        return dom.top if u >= 1.0 else dom.value(_to_add(u))
    return dom.value(u)


def _update(learner, phi, chi, s_lo, states):
    """observe(phi, chi, s_lo) once: ``states`` maps the chi tried from s_lo to their updates."""
    if chi not in states:
        states[chi] = learner.observe(phi, chi, s_lo)
    return states[chi]


def _residual_by_brent(learner, phi, s_lo, target_bel, states):
    """The residual confidence whose update from s_lo brings Bel up to
    target_bel, found on the chart [0, 1] by Brent's zero finder (Brent 1973,
    ch. 4) on gap(u) = Bel - target_bel.

    A point is below the target when its gap is < 0; a NaN gap is not.  The
    bracket keeps a point below at its lower end and one not below at its
    upper end.  Each step tries inverse quadratic or secant interpolation and
    bisects when that step would not shrink the bracket fast enough.  The
    search stops once the bracket is at most _BRENT_XTOL + 4 eps u wide, or
    after _BRENT_ITERS steps, and returns the upper end's confidence and state.
    ``states`` is s_lo's memo of ``_update``.
    """
    dom = learner.domain

    def gap(u: float) -> float:
        return learner.bel(phi, _update(learner, phi, _chart_to_confidence(dom, u), s_lo, states)) - target_bel

    def at(u: float):
        chi = _chart_to_confidence(dom, u)
        return chi, states[chi]

    fa = gap(0.0)
    if not fa < 0.0:
        return dom.bot, states[dom.bot]  # the chart sends 0 to bot
    fb = gap(1.0)
    if fb < 0.0:
        return at(1.0)
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
        fb = gap(b)
        if not fb < 0.0:
            hi = b
    return at(hi)


def _check_l3(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    grid = _grid(learner, cfg)
    if len(grid) < 2:
        return chk.skip("confidence grid has fewer than two points")
    dom = learner.domain
    search = dom.is_scalar_continuum and learner.bel is not None
    n = min(cfg.samples, 12)
    for phi, theta in _instances(learner, chk.rng, n):
        states = [None] * len(grid)  # observed once each, at first use
        # by start state's id, its _update memo; where observe at bot returns
        # theta itself, its searches and residuals read the grid states
        tried = {id(theta): {}}
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                for k in (i, j):
                    if states[k] is None:
                        states[k] = _update(learner, phi, grid[k], theta, tried[id(theta)])
                s_lo, s_hi = states[i], states[j]
                charted = tried.setdefault(id(s_lo), {})
                if grid[j].is_top or not search:
                    delta = dom.residual(grid[i], grid[j])
                    if delta is None:
                        chk.offer(
                            math.inf, phi=phi, theta=theta, chi_lo=grid[i], chi_hi=grid[j],
                            reason="no residual in the confidence domain",
                        )
                        continue
                    after = _update(learner, phi, delta, s_lo, charted)
                else:
                    delta, after = _residual_by_brent(learner, phi, s_lo, learner.bel(phi, s_hi), charted)
                d = belief_distance(after, s_hi)
                chk.offer(
                    d, phi=phi, theta=theta, chi_lo=grid[i], chi_hi=grid[j], chi_residual=delta
                )
    return chk.report()


def _check_l4(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    grid = _grid(learner, cfg)
    if len(grid) < 3:
        return chk.skip("confidence grid has fewer than three points")
    for phi, theta in _instances(learner, chk.rng, cfg.samples):
        states = [learner.observe(phi, chi, theta) for chi in grid]
        for i in range(len(states)):
            for k in range(i + 2, len(states)):
                if belief_distance(states[i], states[k]) > _TOL:
                    continue
                for j in range(i + 1, k):
                    d = belief_distance(states[i], states[j])
                    chk.offer(
                        d, phi=phi, theta=theta,
                        chi_return_from=grid[i], chi_detour=grid[j], chi_return_to=grid[k],
                    )
    return chk.report()


def _draw_confidence(learner: Learner, rng) -> ConfidenceValue:
    u = rng.uniform()
    if u < 0.1:
        return learner.domain.bot
    if u < 0.2:
        return learner.domain.top
    return learner.domain.sample(rng)


def _check_l5(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    for _ in range(cfg.samples):
        chi = _draw_confidence(learner, chk.rng)
        chi2 = _draw_confidence(learner, chk.rng)
        # Full-confidence draws use instances where the limit is reachable;
        # elsewhere the update would be truncated and skipped anyway.
        if (chi.is_top or chi2.is_top) and learner.sample_top_instance:
            phi, theta = learner.sample_top_instance(chk.rng)
        else:
            phi, theta = learner.sample_instance(chk.rng)
        pair = _unless_truncated(lambda: (
            learner.observe(phi, chi, learner.observe(phi, chi2, theta)),
            learner.observe(phi, learner.domain.combine(chi, chi2), theta),
        ))
        if pair is None:
            continue
        chk.offer(belief_distance(*pair), phi=phi, theta=theta, chi_outer=chi, chi_inner=chi2)
    if not chk.offers:
        return chk.skip("no convergent instances sampled")
    return chk.report()


def _check_fc(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    top = learner.domain.top

    def twice(phi, theta):
        once = learner.observe(phi, top, theta)
        return learner.observe(phi, top, once), once

    for phi, theta in _top_instances(learner, chk.rng, cfg.samples):
        pair = _unless_truncated(twice, phi, theta)
        if pair is None:
            continue
        chk.offer(belief_distance(*pair), phi=phi, theta=theta)
    if not chk.offers:
        return chk.skip("no instance reached the full-confidence limit")
    return chk.report()


def _check_b1(learner: Learner, cfg: CheckConfig, chk: _Check) -> AxiomReport:
    if learner.bel is None:
        return chk.skip("learner exposes no belief functional")
    grid = _grid(learner, cfg)
    for phi, theta in _instances(learner, chk.rng, cfg.samples):
        chain = _chain(learner, grid, phi, theta)
        if len(chain) < 2:
            continue
        bels = [float(learner.bel(phi, learner.observe(phi, chi, theta))) for chi in chain]
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
    for _ in range(cfg.samples):
        phi, theta = learner.sample_saturated(chk.rng)
        for chi in _chain(learner, grid, phi, theta):
            d = belief_distance(learner.observe(phi, chi, theta), theta)
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
    return _CHECKERS[axiom_id](learner, cfg, _Check(learner, axiom_id, cfg))


def run_suite(learner: Learner, cfg: Optional[CheckConfig] = None) -> List[AxiomReport]:
    """All checks for one learner, in the canonical axiom order."""
    cfg = cfg or CheckConfig()
    return [check_axiom(learner, axiom_id, cfg) for axiom_id in AXIOMS]


def suite_passed(reports: Sequence[AxiomReport]) -> bool:
    return all(r.passed for r in reports)


def reports_to_json(reports: Sequence[AxiomReport]) -> str:
    return _json_text([r.to_dict() for r in reports], indent=2)
