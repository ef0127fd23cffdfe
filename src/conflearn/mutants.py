"""Deliberately broken learners for exercising the axiom checks.

Each mutant is a small, plausible-looking corruption of a stock learner
that leaves most laws intact but reliably violates the ones listed for it
in MUTANT_TARGETS, and no others.  They are the negative controls for the
check suite: a suite that passes every stock learner must still catch every
one of these, and a law that stops catching one shows as a changed row.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Dict, Tuple

import numpy as np

from .confidence import _FRAC, _float_of
from .beliefs import normalize_probs
from .learners import _UPDATE_HOOKS, Learner, _interp_row_update, _interp_rows, boltzmann_observe, get_learner, interp_observe

__all__ = ["MUTANT_TARGETS", "get_mutants"]

# every axiom check each mutant fails, in AXIOMS order: the same at the
# suite's default CheckConfig() and at CheckConfig(seed=0, samples=25)
MUTANT_TARGETS: Dict[str, Tuple[str, ...]] = {
    "mutant-l1-drift": ("L1", "L5"),
    "mutant-l2-rough": ("L2", "L5"),
    "mutant-l34-cyclic": ("L3", "L4", "L5", "B1", "B3"),
    "mutant-l5-square": ("L5",),
    "mutant-fc-partial": ("L3", "L5", "FC", "B3"),
    "mutant-b2-uniform": ("B2",),
    "mutant-b3-timid": ("L3", "L5", "FC", "B3"),
    "mutant-lb-euclid": ("L3", "L5", "LB"),
}


def _interp_mutant(mutant_id: str, observe) -> Learner:
    """Interpolation learner with a corrupted observe map and none of the
    hooks tied to the honest update (``learners._UPDATE_HOOKS``), so the
    checks see only the corrupted map (and the unchanged Bel)."""
    return replace(get_learner("interp"), **_UPDATE_HOOKS, id=mutant_id, observe=observe)


def _weight_warp(mutant_id: str, warp: Callable[[float], float]) -> Learner:
    """Interpolation learner whose mixing weight is warped before use; its
    rows hook feeds the warped weights into interp's: the corrupted map."""

    def observe(phi, chi, theta):
        x = _float_of(_FRAC, chi)
        return interp_observe(phi, warp(x), theta)

    return replace(_interp_mutant(mutant_id, observe), rows=lambda phis, chis, c, labels: _interp_row_update(
        phis, [warp(_float_of(_FRAC, chi)) for chi in chis], c, labels))


def _mutant_l1_drift() -> Learner:
    """Zero confidence still drags the prior a tenth of the way."""
    return _weight_warp("mutant-l1-drift", lambda x: 0.1 + 0.9 * x)


def _mutant_l2_rough() -> Learner:
    """An x^0.1 cusp at zero confidence: continuous but violently non-smooth."""
    return _weight_warp(
        "mutant-l2-rough", lambda x: min(max(x + 0.2 * x**0.1 * (1.0 - x), 0.0), 1.0)
    )


def _mutant_l34_cyclic() -> Learner:
    """Commitment rises then falls back, so the path revisits the prior."""
    return _weight_warp("mutant-l34-cyclic", lambda x: math.sin(math.pi * x))


def _mutant_l5_square() -> Learner:
    """A squared weight is not a homomorphism of the fractional monoid."""
    return _weight_warp("mutant-l5-square", lambda x: x * x)


def _mutant_b3_timid() -> Learner:
    """Full confidence caps out at a half-strength update."""
    return _weight_warp("mutant-b3-timid", lambda x: min(x, 0.5))


def _mutant_fc_partial() -> Learner:
    """The top update only does ninety percent of the conditioning."""
    # the weight is 1.0 only at top
    return _weight_warp("mutant-fc-partial", lambda x: 0.9 if x == 1.0 else x)


def _mutant_b2_uniform() -> Learner:
    """Pulls toward the uniform law on the event, moving states that already
    believe it."""

    def observe(phi, chi, theta):
        x = _float_of(_FRAC, chi)
        ind = phi.indicator()
        uniform = ind / ind.sum()
        return theta.with_probs((1.0 - x) * np.asarray(theta.probs) + x * uniform)

    def rows(phis, chis, c, labels):
        # the same pull on each row; interp's rows at bot keep them and give their Bel
        x, ind = np.array([_float_of(_FRAC, chi) for chi in chis])[:, None], _interp_rows(phis, labels)
        out = normalize_probs((1.0 - x) * c + x * (ind / np.add.reduce(ind, axis=1, keepdims=True)))
        return _interp_row_update(phis, [_FRAC.bot] * len(phis), out, labels)

    return replace(_interp_mutant("mutant-b2-uniform", observe), rows=rows)


def _mutant_lb_euclid() -> Learner:
    """Boltzmann-style learner that descends the raw (unweighted) penalty
    direction instead of the Fisher one, so its initial velocity is not the
    natural gradient of Bel: it moves along v - E[v] itself rather than
    p * (E[v] - v)."""
    base = get_learner("boltzmann")
    add = base.domain

    def observe(phi, chi, theta):
        v = add.coerce(chi)
        if v.is_top:
            return boltzmann_observe(phi, add.top, theta)
        t = add.to_float(v)
        tau = 0.02 * -math.expm1(-t)
        pr = np.asarray(theta.probs)
        vals = np.asarray(phi.values)
        mean = float(pr @ vals)
        shifted = np.clip(pr - tau * (vals - mean), 0.0, None)
        return theta.with_probs(shifted)

    def rows(phis, chis, c, labels):
        # the same descent on the rows of finite times; boltzmann's rows then
        # update the top rows, keep the others (at bot) and give their Bel
        vs, out = [add.coerce(chi) for chi in chis], c.copy()
        if at := [i for i, v in enumerate(vs) if not v.is_top]:
            tau = np.array([0.02 * -math.expm1(-add.to_float(vs[i])) for i in at])[:, None]
            pr, vals = c[at], np.array([phis[i].values for i in at])
            out[at] = normalize_probs(np.clip(pr - tau * (vals - np.vecdot(pr, vals)[:, None]), 0.0, None))
        return base.rows(phis, [add.top if v.is_top else add.bot for v in vs], out, labels)

    # of the honest hooks it keeps only what its own observe satisfies: the
    # time translation, and the Fisher metric that LB measures it against
    hooks = dict(
        _UPDATE_HOOKS,
        make_flow=lambda phi: (lambda t, theta: observe(phi, float(t), theta)),
        rows=rows,
        translate=base.translate,
        lb_metric=base.lb_metric,
    )
    return replace(base, **hooks, id="mutant-lb-euclid", observe=observe)


def get_mutants() -> Tuple[Learner, ...]:
    """All mutants, in a fixed order matching MUTANT_TARGETS."""
    builders = (
        _mutant_l1_drift,
        _mutant_l2_rough,
        _mutant_l34_cyclic,
        _mutant_l5_square,
        _mutant_fc_partial,
        _mutant_b2_uniform,
        _mutant_b3_timid,
        _mutant_lb_euclid,
    )
    out = tuple(build() for build in builders)
    assert tuple(sorted(m.id for m in out)) == tuple(sorted(MUTANT_TARGETS))
    return out
