"""
Updates as flows along vector fields
====================================

On the additive time scale, many update rules become flows: each
observation induces a vector field on the belief space, and "update with
confidence t" means "follow that field for time t".  Fields can then be
added, which gives a principled way to process contradictory evidence in
parallel and to interleave observations.
"""

import math

import numpy as np

from conflearn import (
    FiniteSimplex,
    IntegratorConfig,
    belief_distance,
    boltzmann_observe,
    combine_fields,
    condition,
    derivative_field,
    get_learner,
    integrate,
    interp_observe,
    RandomVariable,
    trotter_interleave,
)

interp = get_learner("interp")
p = FiniteSimplex(("a", "b", "c"), np.array([0.5, 0.3, 0.2]))
a = p.event(["a", "b"])

# ---------------------------------------------------------------------------
# The field of a single observation.  Its value at p points from p toward
# the conditional P(.|A); following it for time t = -log(1-alpha) lands
# exactly on the interpolated update at alpha.

field = derivative_field(interp, a)
print("field at p          ->", field(p).components)

alpha = 0.5
t = -math.log1p(-alpha)
flowed = integrate(field, p, t)
direct = interp_observe(a, alpha, p)
print("flow for t=ln2      ->", flowed.probs)
print("closed form         ->", direct.probs)
print("distance            ->", belief_distance(flowed, direct))

# ---------------------------------------------------------------------------
# Parallel contradictory evidence.  Summing the fields for A and for not-A
# and following the sum forever settles on the even mixture of the two
# conditionals, instead of crashing into a contradiction.

both = combine_fields([derivative_field(interp, a),
                       derivative_field(interp, a.complement())])
print("sum field at p      ->", both(p).components)

limit = integrate(both, p, math.inf)
mixture = 0.5 * condition(p, a).probs + 0.5 * condition(p, a.complement()).probs
print("parallel limit      ->", limit.probs)
print("half-half mixture   ->", mixture)

# Unequal weights tilt the resting point toward the stronger source.
tilted = combine_fields(
    [derivative_field(interp, a), derivative_field(interp, a.complement())],
    weights=[3.0, 1.0],
)
print("3:1 weighted limit  ->", integrate(tilted, p, math.inf).probs)

# ---------------------------------------------------------------------------
# Interleaving two observations in small slices.  For non-commuting
# updates the n-slice interleaving converges to the parallel flow at
# first order: the error halves each time n doubles.

q = FiniteSimplex(("a", "b", "c", "d"), np.array([0.5, 0.2, 0.2, 0.1]))
ev1 = q.event(["a", "b"])
ev2 = q.event(["b", "c"])
chi = 1.5
target = integrate(
    combine_fields([derivative_field(interp, ev1), derivative_field(interp, ev2)]),
    q,
    chi,
    IntegratorConfig(step=1e-4),
)
print("\n  n   distance to parallel flow   ratio")
prev = None
ns = (8, 16, 32, 64, 128, 256)
# one call walks every n at once, as rows of one array, for max(ns) rounds
for n, state in zip(ns, trotter_interleave(interp, ev1, ev2, chi, ns, q)):
    d = belief_distance(state, target)
    print(f"{n:4d}   {d:.3e}                  "
          + (f"{d / prev:.3f}" if prev else "  -"))
    prev = d

# ---------------------------------------------------------------------------
# When the two flows commute, one slice is already exact.  Tempering flows
# commute with each other, so interleaving two potentials at n=1 equals a
# single update with their sum.

boltz = get_learner("boltzmann")
labels = ("a", "b", "c")
r = FiniteSimplex(labels, np.array([0.5, 0.3, 0.2]))
u = RandomVariable(labels, np.array([1.0, 0.0, -0.5]))
v = RandomVariable(labels, np.array([-0.3, 0.7, 0.2]))
one_slice = trotter_interleave(boltz, u, v, 0.8, 1, r)
summed = boltzmann_observe(RandomVariable(labels, u.values + v.values), 0.8, r)
print("\ncommuting case, n=1 ->", belief_distance(one_slice, summed))
