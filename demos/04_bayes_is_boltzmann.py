"""
Bayesian updating is tempering in disguise
==========================================

Bayes' rule multiplies the prior by the likelihood and renormalises.
Tempering multiplies by exp(-beta * V) and renormalises.  Setting
V = -log likelihood makes the two identical at beta = 1, and the beta
dial then reads as evidence strength: beta = 2 counts the observation
twice, beta = 0.5 counts half of it, beta -> inf jumps to the maximum
likelihood hypotheses.
"""

import numpy as np

from conflearn import (
    BayesModel,
    FiniteSimplex,
    RandomVariable,
    bayes_observe,
    belief_distance,
    boltzmann_observe,
    get_domain,
    get_learner,
    potential_to_likelihood,
)

hyps = ("h0", "h1", "h2")
model = BayesModel(hyps, {"e": [0.9, 0.5, 0.1]})
prior = FiniteSimplex(hyps, np.array([1 / 3, 1 / 3, 1 / 3]))

# ---------------------------------------------------------------------------
# Forward direction: the posterior equals tempering the negative log
# likelihood for one unit of time.

post = bayes_observe(model, "e", prior)
v = RandomVariable(hyps, -np.log(np.array([0.9, 0.5, 0.1])))
tempered = boltzmann_observe(v, 1.0, prior)
print("bayes posterior ->", post.probs)
print("tempered nll    ->", tempered.probs)
print("distance        ->", belief_distance(post, tempered))

# ---------------------------------------------------------------------------
# The strength dial.  beta scales the log likelihood, so evidence can be
# fractionally weighted or replayed.

learner = get_learner("bayes", model=model)
add = get_domain("add")
for beta in (0.25, 1.0, 2.0, 8.0):
    out = learner.observe("e", add.value(beta), prior)
    print(f"beta={beta:<4} ->", np.round(out.probs, 4))
print("beta=top  ->", learner.observe("e", add.top, prior).probs,
      "(all mass on the max-likelihood hypothesis)")

# Two half-strength updates equal one full update: the additive domain is
# doing the bookkeeping.
half_twice = learner.observe(
    "e", add.value(0.5), learner.observe("e", add.value(0.5), prior)
)
print("half twice vs once ->", belief_distance(half_twice, post))

# ---------------------------------------------------------------------------
# Backward direction: any potential table is the negative log of some
# likelihood table, so tempering models round-trip through Bayes models.

u = {"e": {"h0": 0.2, "h1": 1.0, "h2": 3.0}}
rebuilt = potential_to_likelihood(u, hyps)
print("rebuilt likelihoods ->", rebuilt.likelihood["e"])
direct = boltzmann_observe(RandomVariable(hyps, np.array([0.2, 1.0, 3.0])), 1.0, prior)
print("round-trip distance ->",
      belief_distance(bayes_observe(rebuilt, "e", prior), direct))
