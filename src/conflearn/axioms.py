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

Checks that do not apply to a learner (wrong confidence geometry, missing
hooks) come back with ``skipped=True`` and a note instead of failing.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .beliefs import belief_distance, belief_to_json
from .confidence import ConfidenceValue, confidence_to_json
from .errors import ParameterError
from .flows import _forward_stencil, metric_gradient
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

_L2_H_COARSE = 1e-2
_L2_H_FINE = 1e-4
_L2_BASE_RANGE = {"frac": 0.9, "max": 0.9, "add": 3.0}
_BISECT_ITERS = 60


@dataclass(frozen=True)
class CheckConfig:
    """Sampling and tolerance settings shared by all axiom checks."""

    seed: int = 0
    samples: int = 60
    tol: float = 1e-10
    confidence_grid: Optional[Sequence[Any]] = None
    lb_tol: float = 1e-5
    l2_ratio_bound: float = 10.0
    fd_step: float = 1e-4

    def __post_init__(self):
        if self.samples < 1:
            raise ParameterError("samples must be at least 1")
        if not (self.tol > 0 and self.lb_tol > 0 and self.fd_step > 0):
            raise ParameterError("tolerances and fd_step must be positive")
        if self.l2_ratio_bound <= 0:
            raise ParameterError("l2_ratio_bound must be positive")


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
    raw = cfg.confidence_grid if cfg.confidence_grid is not None else learner.default_grid
    return tuple(learner.domain.coerce(x) for x in raw)


def _skip(learner: Learner, axiom_id: str, cfg: CheckConfig, note: str) -> AxiomReport:
    return AxiomReport(
        learner_id=learner.id,
        axiom_id=axiom_id,
        passed=True,
        worst_violation=0.0,
        tol=cfg.tol,
        witness=None,
        skipped=True,
        note=note,
    )


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


class _Worst:
    """Tracks the largest violation and its witness."""

    def __init__(self):
        self.value = 0.0
        self.witness: Optional[dict] = None

    def offer(self, violation: float, witness_thunk: Callable[[], dict]):
        if math.isnan(violation):
            violation = math.inf
        if violation > self.value:
            self.value = float(violation)
            self.witness = witness_thunk()


def _report(learner, axiom_id, worst: _Worst, tol: float, note: str = "") -> AxiomReport:
    return AxiomReport(
        learner_id=learner.id,
        axiom_id=axiom_id,
        passed=worst.value <= tol,
        worst_violation=worst.value,
        tol=tol,
        witness=worst.witness if worst.value > tol else None,
        skipped=False,
        note=note,
    )


# ---------------------------------------------------------------------------
# Individual checks.


def _check_l1(learner: Learner, cfg: CheckConfig) -> AxiomReport:
    rng = _seeded_rng(cfg.seed, learner.id, "L1")
    worst = _Worst()
    for phi, theta in _instances(learner, rng, cfg.samples):
        after = learner.observe(phi, learner.domain.bot, theta)
        d = belief_distance(after, theta)
        worst.offer(d, lambda p=phi, t=theta: _witness(learner, phi=p, theta=t))
    return _report(learner, "L1", worst, cfg.tol)


def _check_l2(learner: Learner, cfg: CheckConfig) -> AxiomReport:
    dom = learner.domain
    if not dom.is_scalar_continuum:
        return _skip(
            learner, "L2", cfg, "confidence domain is not a one-dimensional continuum"
        )
    rng = _seeded_rng(cfg.seed, learner.id, "L2")
    hi_base = _L2_BASE_RANGE.get(dom.id, 0.9)
    worst = _Worst()
    for phi, theta in _instances(learner, rng, max(2, cfg.samples // 2)):
        for base in (0.0, float(rng.uniform(0.0, hi_base))):
            quotients = {}
            for h in (_L2_H_COARSE, _L2_H_FINE):
                a = learner.observe(phi, dom.value(base), theta)
                b = learner.observe(phi, dom.value(base + h), theta)
                quotients[h] = belief_distance(a, b) / h
            ratio = quotients[_L2_H_FINE] / max(quotients[_L2_H_COARSE], 1.0)
            worst.offer(
                ratio,
                lambda p=phi, t=theta, x=base, q=dict(quotients): _witness(
                    learner, phi=p, theta=t, base=x, quotients={str(k): v for k, v in q.items()}
                ),
            )
    return _report(
        learner,
        "L2",
        worst,
        cfg.l2_ratio_bound,
        note="violation is the fine/coarse difference-quotient ratio",
    )


def _chart_to_confidence(dom, u: float) -> ConfidenceValue:
    # map [0, 1] onto the carrier so bisection can search unbounded domains
    if dom.id == "add":
        return dom.top if u >= 1.0 else dom.value(-math.log1p(-u))
    return dom.value(u)


def _residual_by_bisection(learner, phi, s_lo, target_bel):
    dom = learner.domain
    lo, hi = 0.0, 1.0

    def gap(u: float) -> float:
        state = learner.observe(phi, _chart_to_confidence(dom, u), s_lo)
        return learner.bel(phi, state) - target_bel

    if gap(0.0) >= 0.0:
        return dom.bot
    if gap(1.0) < 0.0:
        return _chart_to_confidence(dom, 1.0)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return _chart_to_confidence(dom, hi)


def _check_l3(learner: Learner, cfg: CheckConfig) -> AxiomReport:
    grid = _grid(learner, cfg)
    if len(grid) < 2:
        return _skip(learner, "L3", cfg, "confidence grid has fewer than two points")
    dom = learner.domain
    bisect = dom.is_scalar_continuum and learner.bel is not None
    rng = _seeded_rng(cfg.seed, learner.id, "L3")
    worst = _Worst()
    n = min(cfg.samples, 12)
    for phi, theta in _instances(learner, rng, n):
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                s_lo = learner.observe(phi, grid[i], theta)
                s_hi = learner.observe(phi, grid[j], theta)
                if grid[j].is_top or not bisect:
                    delta = dom.residual(grid[i], grid[j])
                    if delta is None:
                        worst.offer(
                            math.inf,
                            lambda p=phi, t=theta, a=grid[i], b=grid[j]: _witness(
                                learner, phi=p, theta=t, chi_lo=a, chi_hi=b,
                                reason="no residual in the confidence domain",
                            ),
                        )
                        continue
                else:
                    delta = _residual_by_bisection(
                        learner, phi, s_lo, learner.bel(phi, s_hi)
                    )
                d = belief_distance(learner.observe(phi, delta, s_lo), s_hi)
                worst.offer(
                    d,
                    lambda p=phi, t=theta, a=grid[i], b=grid[j], dd=delta: _witness(
                        learner, phi=p, theta=t, chi_lo=a, chi_hi=b, chi_residual=dd
                    ),
                )
    return _report(learner, "L3", worst, cfg.tol)


def _check_l4(learner: Learner, cfg: CheckConfig) -> AxiomReport:
    grid = _grid(learner, cfg)
    if len(grid) < 3:
        return _skip(learner, "L4", cfg, "confidence grid has fewer than three points")
    rng = _seeded_rng(cfg.seed, learner.id, "L4")
    worst = _Worst()
    for phi, theta in _instances(learner, rng, cfg.samples):
        states = [learner.observe(phi, chi, theta) for chi in grid]
        for i in range(len(states)):
            for k in range(i + 2, len(states)):
                if belief_distance(states[i], states[k]) > cfg.tol:
                    continue
                for j in range(i + 1, k):
                    d = belief_distance(states[i], states[j])
                    worst.offer(
                        d,
                        lambda p=phi, t=theta, a=grid[i], b=grid[j], c=grid[k]: _witness(
                            learner, phi=p, theta=t,
                            chi_return_from=a, chi_detour=b, chi_return_to=c,
                        ),
                    )
    return _report(learner, "L4", worst, cfg.tol)


def _draw_confidence(learner: Learner, rng) -> ConfidenceValue:
    u = rng.uniform()
    if u < 0.1:
        return learner.domain.bot
    if u < 0.2:
        return learner.domain.top
    return learner.domain.sample(rng)


def _check_l5(learner: Learner, cfg: CheckConfig) -> AxiomReport:
    rng = _seeded_rng(cfg.seed, learner.id, "L5")
    worst = _Worst()
    used = 0
    for _ in range(cfg.samples):
        chi = _draw_confidence(learner, rng)
        chi2 = _draw_confidence(learner, rng)
        # Full-confidence draws use instances where the limit is reachable;
        # elsewhere the update would be truncated and skipped anyway.
        if (chi.is_top or chi2.is_top) and learner.sample_top_instance:
            phi, theta = learner.sample_top_instance(rng)
        else:
            phi, theta = learner.sample_instance(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NonConvergenceWarning)
            seq = learner.observe(phi, chi, learner.observe(phi, chi2, theta))
            combined = learner.observe(phi, learner.domain.combine(chi, chi2), theta)
        if any(issubclass(w.category, NonConvergenceWarning) for w in caught):
            continue  # a truncated training run is outside the law's scope
        used += 1
        d = belief_distance(seq, combined)
        worst.offer(
            d,
            lambda p=phi, t=theta, a=chi, b=chi2: _witness(
                learner, phi=p, theta=t, chi_outer=a, chi_inner=b
            ),
        )
    if used == 0:
        return _skip(learner, "L5", cfg, "no convergent instances sampled")
    return _report(learner, "L5", worst, cfg.tol)


def _check_fc(learner: Learner, cfg: CheckConfig) -> AxiomReport:
    rng = _seeded_rng(cfg.seed, learner.id, "FC")
    worst = _Worst()
    used = 0
    for phi, theta in _top_instances(learner, rng, cfg.samples):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NonConvergenceWarning)
            once = learner.observe(phi, learner.domain.top, theta)
            twice = learner.observe(phi, learner.domain.top, once)
        if any(issubclass(w.category, NonConvergenceWarning) for w in caught):
            continue
        used += 1
        d = belief_distance(twice, once)
        worst.offer(
            d,
            lambda p=phi, t=theta: _witness(learner, phi=p, theta=t),
        )
    if used == 0:
        return _skip(
            learner, "FC", cfg, "no instance reached the full-confidence limit"
        )
    return _report(learner, "FC", worst, cfg.tol)


def _bel_sequence(learner: Learner, phi, theta, chain) -> List[float]:
    out = []
    for chi in chain:
        state = learner.observe(phi, chi, theta)
        out.append(float(learner.bel(phi, state)))
    return out


def _check_b1(learner: Learner, cfg: CheckConfig) -> AxiomReport:
    if learner.bel is None:
        return _skip(learner, "B1", cfg, "learner exposes no belief functional")
    rng = _seeded_rng(cfg.seed, learner.id, "B1")
    worst = _Worst()
    checked = 0
    for phi, theta in _instances(learner, rng, cfg.samples):
        if learner.bel_chain is not None:
            chain = tuple(learner.bel_chain(phi, theta))
        else:
            chain = _grid(learner, cfg)
        if len(chain) < 2:
            continue
        checked += 1
        bels = _bel_sequence(learner, phi, theta, chain)
        for i in range(len(bels)):
            for j in range(i + 1, len(bels)):
                drop = bels[i] - bels[j]
                if math.isinf(bels[i]) and math.isinf(bels[j]) and bels[i] == bels[j]:
                    drop = 0.0
                worst.offer(
                    drop,
                    lambda p=phi, t=theta, a=chain[i], b=chain[j], ba=bels[i], bb=bels[j]: _witness(
                        learner, phi=p, theta=t, chi_lo=a, chi_hi=b,
                        bel_lo=ba, bel_hi=bb,
                    ),
                )
    if checked == 0:
        return _skip(learner, "B1", cfg, "no usable confidence chain")
    return _report(learner, "B1", worst, cfg.tol)


def _check_b2(learner: Learner, cfg: CheckConfig) -> AxiomReport:
    if learner.bel is None or learner.bel_top is None:
        return _skip(learner, "B2", cfg, "learner exposes no belief functional")
    if learner.sample_saturated is None:
        return _skip(
            learner, "B2", cfg, "full-belief states are unattainable at finite parameters"
        )
    rng = _seeded_rng(cfg.seed, learner.id, "B2")
    worst = _Worst()
    for _ in range(cfg.samples):
        phi, theta = learner.sample_saturated(rng)
        if learner.bel_chain is not None:
            chain = tuple(learner.bel_chain(phi, theta))
        else:
            chain = _grid(learner, cfg)
        for chi in chain:
            d = belief_distance(learner.observe(phi, chi, theta), theta)
            worst.offer(
                d,
                lambda p=phi, t=theta, c=chi: _witness(learner, phi=p, theta=t, chi=c),
            )
    return _report(learner, "B2", worst, cfg.tol)


def _check_b3(learner: Learner, cfg: CheckConfig) -> AxiomReport:
    if learner.bel is None or learner.bel_top is None:
        return _skip(learner, "B3", cfg, "learner exposes no belief functional")
    rng = _seeded_rng(cfg.seed, learner.id, "B3")
    worst = _Worst()
    used = 0
    for phi, theta in _top_instances(learner, rng, cfg.samples):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NonConvergenceWarning)
            star = learner.observe(phi, learner.domain.top, theta)
        if any(issubclass(w.category, NonConvergenceWarning) for w in caught):
            continue
        used += 1
        gap = abs(learner.bel(phi, star) - learner.bel_top(phi, star))
        worst.offer(
            gap,
            lambda p=phi, t=theta, s=star: _witness(learner, phi=p, theta=t, state=s),
        )
    if used == 0:
        return _skip(
            learner, "B3", cfg, "no instance reached the full-confidence limit"
        )
    return _report(learner, "B3", worst, cfg.tol)


def _check_lb(learner: Learner, cfg: CheckConfig) -> AxiomReport:
    if learner.lb_metric is None or learner.bel is None:
        return _skip(
            learner, "LB", cfg, "learner declares no metric for gradient ascent"
        )
    if learner.path_velocity is None and learner.make_flow is None:
        return _skip(learner, "LB", cfg, "learner exposes no update path")
    rng = _seeded_rng(cfg.seed, learner.id, "LB")
    worst = _Worst()
    for phi, theta in _instances(learner, rng, cfg.samples):
        if learner.path_velocity is not None:
            vel = np.asarray(learner.path_velocity(phi, theta, cfg.fd_step))
        else:
            vel = _forward_stencil(learner.make_flow(phi), theta, cfg.fd_step)
        grad = metric_gradient(
            theta, lambda s: learner.bel(phi, s), learner.lb_metric, h=cfg.fd_step
        )
        gap = float(np.abs(vel - grad).max())
        worst.offer(
            gap,
            lambda p=phi, t=theta: _witness(learner, phi=p, theta=t),
        )
    return _report(learner, "LB", worst, cfg.lb_tol)


_CHECKERS: Dict[str, Callable[[Learner, CheckConfig], AxiomReport]] = {
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
    return _CHECKERS[axiom_id](learner, cfg or CheckConfig())


def run_suite(learner: Learner, cfg: Optional[CheckConfig] = None) -> List[AxiomReport]:
    """All checks for one learner, in the canonical axiom order."""
    cfg = cfg or CheckConfig()
    return [check_axiom(learner, axiom_id, cfg) for axiom_id in AXIOMS]


def suite_passed(reports: Sequence[AxiomReport]) -> bool:
    return all(r.passed for r in reports)


def reports_to_json(reports: Sequence[AxiomReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
