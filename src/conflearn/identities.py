"""The paper's identities, each declared once.

``IDENTITIES`` maps a name to an entry ``entry(rng, samples)`` that draws
``samples`` random instances from the generator ``rng``, checks the
identity on each at a fixed tolerance, and returns ``(passed, payload)``:
whether every check held, and a JSON-ready dict of the worst deviations.
A samples count that is not an integer from 1 to ``flows._MAX_STEPS`` is
refused before any draw (``flows._check_samples``).  ``bayes-boltzmann`` and
``interp-vs-ds`` check a block of samples of one world count as matrix rows,
through the library's kernels on rows, and build no belief per sample; each
row has the bits of its sample checked alone.

    bayes-boltzmann       Bayes is the optimizing learner whose loss is a
                          linear expectation: powered Bayes = Boltzmann on
                          the negative log likelihood
    kalman-sequential     Kalman gain is a confidence: (K, r2) pairs compose,
                          and optimal-gain updates add precisions
    interp-vs-ds          plausibility revision and interpolation agree at
                          the endpoints of the confidence scale only
    trotter-convergence   parallel observation is the first-order limit of
                          interleaving (a pinned instance; rng and samples
                          are not used)

``conflearn equiv`` runs an entry on a generator derived from its seed and
name; acceptance gates 03, 04, 07 and 09 run ``interp-vs-ds``,
``kalman-sequential``, ``bayes-boltzmann`` and ``trotter-convergence`` on
their own seeds.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .beliefs import (
    FiniteSimplex,
    GaussianBelief,
    MassFunction,
    RandomVariable,
    _conditioned,
    _plaus_rows,
    _total_variation,
    belief_distance,
    ds_plaus_update,
    normalize_probs,
)
from .confidence import get_domain, kalman_combine
from .flows import _check_samples, _trotter_errors, trotter_interleave
from .learners import (
    _ONE,
    _bayes_penalty,
    _boltzmann_penalty,
    _event,
    _gibbs_map,
    _interp_step,
    _world_labels,
    boltzmann_observe,
    get_learner,
    interp_observe,
    kalman_observe,
    kalman_observe_opt,
    potential_to_likelihood,
)

_BLOCK = 100  # bayes_boltzmann and interp_vs_ds draw and check at most this many samples at a time


def bayes_boltzmann(rng: np.random.Generator, samples: int = 100) -> Tuple[bool, dict]:
    """Boltzmann reweighting with v = -log lik equals powered Bayes updating.

    Draws random strict models (2..8 hypotheses), priors and weights, and
    checks: (a) the two posteriors agree, (b) weight 1 of either is exact
    Bayes, (c) likelihoods survive the potential round trip exp(-(-log lik)).
    Draws come in blocks of at most ``_BLOCK``; a block's samples of one
    count are rows that ``_gibbs_map`` updates on their Bayes and Boltzmann
    penalties, and rows of one ``potential_to_likelihood`` table, each under
    its sample's key.  A row has its sample's bits, so the payload is the
    per-sample loop's at any block size.
    """
    _check_samples(samples)
    tol = 1e-12
    worst = 0.0
    for start in range(0, samples, _BLOCK):
        by_worlds: Dict[int, list] = {}
        for i in range(start, min(start + _BLOCK, samples)):
            n = int(rng.integers(2, 9))
            lik = rng.uniform(0.05, 1.0, size=n)
            by_worlds.setdefault(n, []).append((f"e{i}", lik, rng.dirichlet(np.ones(n)), float(rng.uniform(0.1, 3.0))))
        for n, rows in by_worlds.items():
            hyps = _world_labels(n)
            keys, lik, prior, betas = zip(*rows)
            lik, prior = np.array(lik), normalize_probs(np.array(prior))  # each row its simplex's probabilities
            pot = -np.log(lik)
            bayes, boltzmann = (  # each row at its weight, then each at weight 1
                [normalize_probs(_gibbs_map(pen, times, hyps)(prior)) for times in (betas, (1.0,))]
                for pen in (_bayes_penalty(hyps, lik, "the block's observations"), _boltzmann_penalty(hyps, pot))
            )
            exact = normalize_probs(prior * lik)  # bayes_observe's posteriors
            back = np.array(list(potential_to_likelihood(dict(zip(keys, pot)), hyps).likelihood.values()))
            checks = (
                _total_variation(bayes[0], boltzmann[0]),
                _total_variation(bayes[1], exact),
                _total_variation(boltzmann[1], exact),
                np.maximum.reduce(np.abs(back - lik), axis=-1),
                _total_variation(normalize_probs(prior * back), exact),
            )
            worst = max(worst, *np.column_stack(checks).ravel().tolist())  # sample by sample, as checked alone
    return worst <= tol, {"worst": worst, "tol": tol, "samples": samples}


def kalman_sequential(rng: np.random.Generator, samples: int = 100) -> Tuple[bool, dict]:
    """Two gain updates equal one update at the composed (K, r2) pair, and
    optimal-gain updates add precisions, both absolutely and relatively."""
    _check_samples(samples)
    tol = 1e-10
    kalman = get_domain("kalman")
    worst = 0.0
    for _ in range(samples):
        c1 = kalman.value((rng.uniform(), rng.uniform(0.0, 4.0)))
        c2 = kalman.value((rng.uniform(), rng.uniform(0.0, 4.0)))
        b0 = GaussianBelief(rng.normal(), rng.uniform(0.1, 5.0))
        z = float(rng.normal())
        seq = kalman_observe(z, c2, kalman_observe(z, c1, b0))
        combined = kalman_observe(z, kalman_combine(c1, c2), b0)
        worst = max(worst, belief_distance(seq, combined))
    worst_abs = worst_rel = 0.0
    for _ in range(samples):
        var, r2 = rng.uniform(0.1, 5.0, 2)
        z = float(rng.normal())
        post = kalman_observe_opt(z, r2, GaussianBelief(rng.normal(), var))
        added = float(1.0 / var + 1.0 / r2)
        gap = float(abs(1.0 / post.var - added))
        worst_abs = max(worst_abs, gap)
        worst_rel = max(worst_rel, gap / added)
    return max(worst, worst_abs, worst_rel) <= tol, {
        "worst_composition": worst,
        "worst_precision_abs": worst_abs,
        "worst_precision_rel": worst_rel,
        "tol": tol,
        "samples": samples,
    }


def interp_vs_ds(rng: np.random.Generator, samples: int = 200) -> Tuple[bool, dict]:
    """Interpolation and graded plausibility revision agree exactly at the
    endpoints of the confidence scale and measurably disagree inside it.

    Each instance is a prior and an event drawn together, redrawn while the
    event's mass is outside [0.05, 0.9], at most 64 draws per sample; a
    run that uses fewer than ``samples`` instances fails.  Instances come in
    blocks of at most ``_BLOCK``; a block's instances of one count are rows
    of ``_interp_step``, ``_plaus_rows`` (from_simplex is its vacuous support)
    and ``_conditioned``.  A row has its instance's bits and the distances
    fold in draw order, so the payload is the per-instance loop's.
    """
    _check_samples(samples)
    end_tol = 1e-12
    interior_floor = 1e-3
    worst_end = 0.0
    min_interior = math.inf
    used = draws = 0
    while used < samples and draws < 64 * samples:
        first, by_worlds = used, {}
        while used - first < _BLOCK and used < samples and draws < 64 * samples:
            draws += 1
            n = int(rng.integers(2, 6))
            p = normalize_probs(rng.dirichlet(np.ones(n)))  # the prior simplex's probabilities
            a = _event(_world_labels(n), int(rng.integers(1, (1 << n) - 1)))
            if 0.05 <= float(p @ a.indicator()) <= 0.9:  # the event's mass, as FiniteSimplex.prob takes it
                by_worlds.setdefault(n, []).append((used - first, p, a))
                used += 1
        ends, gaps = np.empty((used - first, 4)), np.empty(used - first)
        for rows in by_worlds.values():
            at, p, events = zip(*rows)
            at, p = list(at), np.array(p)
            ind = np.array([a.indicator() for a in events])
            interp = {w: normalize_probs(_interp_step(p, events, ind, _ONE, w, w == 1.0)) for w in (1.0, 0.5)}
            m = _plaus_rows(p, np.ones_like(p), 1.0)  # MassFunction.from_simplex's masses
            ds = {s: normalize_probs(_plaus_rows(m, ind, s)) for s in (1.0, 0.5)}  # as_simplex of the updates
            cond = normalize_probs(_conditioned(p, ind, events))
            ends[at] = np.column_stack((
                _total_variation(p, p),  # interp at 0 is the prior itself
                _total_variation(normalize_probs(m), p),  # ds at 0 is the mass function itself
                _total_variation(interp[1.0], cond),
                _total_variation(ds[1.0], cond),
            ))
            gaps[at] = _total_variation(interp[0.5], ds[0.5])
        worst_end = max([worst_end, *ends.ravel().tolist()])
        min_interior = min([min_interior, *gaps.tolist()])
    demo_p = FiniteSimplex(("a", "b"), np.array([0.7, 0.3]))
    demo_a = demo_p.event(["a"])
    demo_interp = interp_observe(demo_a, 0.5, demo_p).prob(demo_a)
    demo_ds = ds_plaus_update(MassFunction.from_simplex(demo_p), demo_a, 0.5).as_simplex().prob(demo_a)
    passed = used == samples and worst_end <= end_tol and min_interior >= interior_floor
    return passed, {
        "worst_endpoint": worst_end,
        "min_interior_gap": min_interior,
        "endpoint_tol": end_tol,
        "interior_floor": interior_floor,
        "samples": used,
        "illustration": {
            "prior": {"a": 0.7, "b": 0.3},
            "event": ["a"],
            "alpha": 0.5,
            "interp_prob_a": demo_interp,
            "ds_prob_a": demo_ds,
        },
    }


def trotter_convergence(rng: Optional[np.random.Generator], samples: int = 0) -> Tuple[bool, dict]:
    """First-order interleaving: halving the slice size halves the error, and
    interleaving flows that commute is already exact at one round."""
    del rng, samples  # the instances are pinned
    interp = get_learner("interp")
    p = FiniteSimplex(("a", "b", "c", "d"), np.array([0.5, 0.2, 0.2, 0.1]))
    ev_a = p.event(["a", "b"])
    ev_b = p.event(["b", "c"])
    chi = 1.5
    ns = (64, 128, 256, 512, 1024, 2048, 4096)
    _, distances, ratios = _trotter_errors(interp, ev_a, ev_b, chi, ns, p)
    band = (0.3, 0.7)
    ratios_ok = len(ratios) == len(ns) - 1 and all(band[0] <= r <= band[1] for r in ratios.values())

    # a flow interleaved with itself, and two Boltzmann flows, commute
    same = trotter_interleave(interp, ev_a, ev_a, chi, 1, p)
    commuting_gap = belief_distance(same, interp.make_flow(ev_a)(2.0 * chi, p))
    labels = ("a", "b", "c")
    q = FiniteSimplex(labels, np.array([0.5, 0.3, 0.2]))
    u = RandomVariable(labels, np.array([1.0, 0.0, -0.5]))
    v = RandomVariable(labels, np.array([-0.3, 0.7, 0.2]))
    boltzmann_gap = belief_distance(
        trotter_interleave(get_learner("boltzmann"), u, v, 0.8, 1, q),
        boltzmann_observe(RandomVariable(labels, u.values + v.values), 0.8, q),
    )

    passed = ratios_ok and max(commuting_gap, boltzmann_gap) <= 1e-12
    return passed, {
        "distances": distances,
        "ratios": ratios,
        "commuting_gap": commuting_gap,
        "boltzmann_commuting_gap": boltzmann_gap,
        "ratio_band": list(band),
    }


IDENTITIES: Dict[str, Callable[..., Tuple[bool, dict]]] = {
    "bayes-boltzmann": bayes_boltzmann,
    "kalman-sequential": kalman_sequential,
    "interp-vs-ds": interp_vs_ds,
    "trotter-convergence": trotter_convergence,
}
