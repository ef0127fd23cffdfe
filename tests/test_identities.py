"""The equiv entries that check per world count give the per-sample loops'
results bit for bit, and hold at most one block of draws at a time."""

import math

import numpy as np
import pytest

from conflearn import identities, learners
from conflearn.beliefs import (
    EventSet,
    FiniteSimplex,
    MassFunction,
    RandomVariable,
    belief_distance,
    condition,
    ds_plaus_update,
)
from conflearn.identities import IDENTITIES
from conflearn.learners import (
    BayesModel,
    bayes_observe,
    boltzmann_observe,
    get_learner,
    interp_observe,
    potential_to_likelihood,
)

SEEDS = list(range(50)) + [103, 107]  # and the acceptance gates' seeds


def _bayes_boltzmann_per_sample(rng, samples):
    """The entry as one model, learner and round-trip table per sample."""
    tol = 1e-12
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 9))
        hyps = tuple(f"h{i}" for i in range(n))
        lik = rng.uniform(0.05, 1.0, size=n)
        prior = FiniteSimplex(hyps, rng.dirichlet(np.ones(n)))
        beta = float(rng.uniform(0.1, 3.0))
        model, pot = BayesModel(hyps, {"e": lik}), -np.log(lik)
        learner = get_learner("bayes", model=model)
        v = RandomVariable(hyps, pot)
        exact = bayes_observe(model, "e", prior)
        back = potential_to_likelihood({"e": dict(zip(hyps, pot))}, hyps)
        worst = max(
            worst,
            belief_distance(learner.observe("e", beta, prior), boltzmann_observe(v, beta, prior)),
            belief_distance(learner.observe("e", 1.0, prior), exact),
            belief_distance(boltzmann_observe(v, 1.0, prior), exact),
            float(np.abs(back.row("e") - lik).max()),
            belief_distance(bayes_observe(back, "e", prior), exact),
        )
    return worst <= tol, {"worst": worst, "tol": tol, "samples": samples}


def _interp_vs_ds_per_sample(rng, samples):
    """The entry building its labels, prior and event on every draw."""
    end_tol = 1e-12
    interior_floor = 1e-3
    worst_end = 0.0
    min_interior = math.inf
    used = draws = 0
    while used < samples and draws < 64 * samples:
        draws += 1
        n = int(rng.integers(2, 6))
        labels = tuple(f"w{i}" for i in range(n))
        p = FiniteSimplex(labels, rng.dirichlet(np.ones(n)))
        mask = int(rng.integers(1, (1 << n) - 1))
        a = EventSet(labels, mask)
        if not 0.05 <= p.prob(a) <= 0.9:
            continue
        used += 1
        m, cond = MassFunction.from_simplex(p), condition(p, a)
        worst_end = max(
            worst_end,
            belief_distance(interp_observe(a, 0.0, p), p),
            belief_distance(ds_plaus_update(m, a, 0.0).as_simplex(), p),
            belief_distance(interp_observe(a, 1.0, p), cond),
            belief_distance(ds_plaus_update(m, a, 1.0).as_simplex(), cond),
        )
        gap = belief_distance(interp_observe(a, 0.5, p), ds_plaus_update(m, a, 0.5).as_simplex())
        min_interior = min(min_interior, gap)
    demo_p = FiniteSimplex(("a", "b"), np.array([0.7, 0.3]))
    demo_a = demo_p.event(["a"])
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
            "interp_prob_a": interp_observe(demo_a, 0.5, demo_p).prob(demo_a),
            "ds_prob_a": ds_plaus_update(MassFunction.from_simplex(demo_p), demo_a, 0.5)
            .as_simplex()
            .prob(demo_a),
        },
    }


@pytest.mark.parametrize("samples", [1, 7, 100, 250])
def test_bayes_boltzmann_is_the_per_sample_loop_at_any_block_size(samples, monkeypatch):
    # repr spells every float exactly: equal reprs are equal bits
    entry = IDENTITIES["bayes-boltzmann"]
    for seed in SEEDS:
        want = repr(_bayes_boltzmann_per_sample(np.random.default_rng(seed), samples))
        assert repr(entry(np.random.default_rng(seed), samples)) == want, seed
        with monkeypatch.context() as m:
            m.setattr(identities, "_BLOCK", 3)  # block edges inside every run past 3 samples
            assert repr(entry(np.random.default_rng(seed), samples)) == want, seed


@pytest.mark.parametrize("samples", [1, 7, 100, 250])
def test_interp_vs_ds_is_the_per_sample_loop(samples):
    entry = IDENTITIES["interp-vs-ds"]
    for seed in SEEDS:
        want = repr(_interp_vs_ds_per_sample(np.random.default_rng(seed), samples))
        assert repr(entry(np.random.default_rng(seed), samples)) == want, seed


@pytest.mark.parametrize("block", [3, 100])
def test_bayes_boltzmann_holds_at_most_one_block_of_draws(block, monkeypatch):
    sizes = []

    class Recorded(BayesModel):
        def __post_init__(self):
            super().__post_init__()
            sizes.append(len(self.likelihood))

    # the entry's models and its round-trip tables, which potential_to_likelihood builds
    monkeypatch.setattr(identities, "BayesModel", Recorded)
    monkeypatch.setattr(learners, "BayesModel", Recorded)
    monkeypatch.setattr(identities, "_BLOCK", block)
    passed, payload = IDENTITIES["bayes-boltzmann"](np.random.default_rng(7), 250)
    assert passed and payload["samples"] == 250
    assert sizes and max(sizes) <= block
    # each draw lands in one model and one table of its block
    assert sum(sizes) == 2 * 250
