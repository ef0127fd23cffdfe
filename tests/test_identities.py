"""The equiv entries that check a block's rows per world count give the
per-sample loops' results bit for bit, hold at most one block of draws at a
time and build no belief per sample; the row kernels they run have the bits
of the one-belief calls they stand in for."""

import math
import re

import numpy as np
import pytest

from conflearn import identities, learners
from conflearn import beliefs
from conflearn.beliefs import (
    EventSet,
    FiniteSimplex,
    MassFunction,
    RandomVariable,
    _conditioned,
    _plaus_rows,
    _total_variation,
    belief_distance,
    condition,
    dempster_combine,
    ds_plaus_update,
    normalize_probs,
    simple_support,
)
from conflearn.errors import TotalConflictError, ZeroMassEventError
from conflearn.identities import IDENTITIES
from conflearn.learners import (
    _ONE,
    BayesModel,
    _bayes_penalty,
    _boltzmann_penalty,
    _gibbs_map,
    _interp_step,
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
    tables, updated = [], []

    class Recorded(BayesModel):
        def __post_init__(self):
            super().__post_init__()
            tables.append(len(self.likelihood))

    def recorded_map(pen, times, labels):
        step = _gibbs_map(pen, times, labels)

        def run(prior):
            updated.append(len(prior))
            return step(prior)

        return run

    # the round-trip tables, which potential_to_likelihood builds, and the
    # prior rows each Gibbs update takes
    monkeypatch.setattr(learners, "BayesModel", Recorded)
    monkeypatch.setattr(identities, "_gibbs_map", recorded_map)
    monkeypatch.setattr(identities, "_BLOCK", block)
    passed, payload = IDENTITIES["bayes-boltzmann"](np.random.default_rng(7), 250)
    assert passed and payload["samples"] == 250
    assert tables and max(tables) <= block and max(updated) <= block
    # each draw lands in one table, and in one row of each of the four updates
    assert sum(tables) == 250 and sum(updated) == 4 * 250


@pytest.mark.parametrize("block", [3, 100])
def test_interp_vs_ds_holds_at_most_one_block_of_draws(block, monkeypatch):
    rows = {"interp": [], "ds": [], "condition": []}

    def recorded(name, kernel):
        def run(p, *args):
            rows[name].append(len(p))
            return kernel(p, *args)

        return run

    monkeypatch.setattr(identities, "_interp_step", recorded("interp", _interp_step))
    monkeypatch.setattr(identities, "_plaus_rows", recorded("ds", _plaus_rows))
    monkeypatch.setattr(identities, "_conditioned", recorded("condition", _conditioned))
    monkeypatch.setattr(identities, "_BLOCK", block)
    passed, payload = IDENTITIES["interp-vs-ds"](np.random.default_rng(7), 250)
    assert passed and payload["samples"] == 250
    assert max(max(sizes) for sizes in rows.values()) <= block
    # each instance is one row of interp at 1 and 1/2, of from_simplex and
    # ds at 1 and 1/2, and of its conditioning
    assert sum(rows["interp"]) == 2 * 250 and sum(rows["condition"]) == 250
    assert sum(rows["ds"]) == 3 * 250


@pytest.mark.parametrize("name", ["bayes-boltzmann", "interp-vs-ds"])
def test_entries_build_no_belief_per_sample(name, monkeypatch):
    calls = []

    def counted(freeze):
        def run(*args):
            calls.append(freeze.__qualname__)
            return freeze(*args)

        return run

    for cls in (FiniteSimplex, MassFunction):
        monkeypatch.setattr(cls, "_freeze", counted(cls._freeze))
    counts = []
    for samples in (10, 250):
        calls.clear()
        assert IDENTITIES[name](np.random.default_rng(3), samples)[0]
        counts.append(len(calls))
    # interp-vs-ds's illustration, once a run, builds its prior, the interp
    # update, the mass function, the ds update and its simplex
    assert counts[0] == counts[1] == (0 if name == "bayes-boltzmann" else 5)


def _simplexes(rng, n, k, zeros=False):
    """k random simplexes over n worlds, a few with worlds of no mass."""
    labels = learners._world_labels(n)
    draws = rng.dirichlet(np.ones(n), size=k)
    if zeros:
        draws[::3, rng.integers(n)] = 0.0
    return labels, [FiniteSimplex(labels, d) for d in draws]


def _events(rng, labels, k):
    return [EventSet(labels, int(rng.integers(1, (1 << len(labels)) - 1))) for _ in range(k)]


def _dense(m: MassFunction) -> np.ndarray:
    return np.array([m.masses.get(1 << i, 0.0) for i in range(len(m.labels))])


@pytest.mark.parametrize("n", range(2, 9))
def test_interp_and_condition_rows_are_the_one_belief_calls_bytewise(n):
    rng = np.random.default_rng(n)
    labels, ps = _simplexes(rng, n, 40, zeros=True)
    events = _events(rng, labels, 40)
    live = [i for i, (p, a) in enumerate(zip(ps, events)) if p.prob(a) > 0.0]
    ps, events = [ps[i] for i in live], [events[i] for i in live]
    prior, ind = np.array([p.probs for p in ps]), np.array([a.indicator() for a in events])
    for w in (0.5, 1.0, float(rng.uniform())):
        got = normalize_probs(_interp_step(prior, events, ind, _ONE, w, w == 1.0))
        for row, p, a in zip(got, ps, events):
            assert row.tobytes() == interp_observe(a, w, p).probs.tobytes()
    got = normalize_probs(_conditioned(prior, ind, events))
    for row, p, a in zip(got, ps, events):
        assert row.tobytes() == condition(p, a).probs.tobytes()
    # an event of no mass: the rows raise the error of the one of least mass alone
    dead = EventSet(labels, 1 << int(np.argmin(ps[0].probs)))
    prior[0] = np.where(dead.indicator() > 0.0, 0.0, prior[0])
    ps[0], events[0], ind[0] = FiniteSimplex(labels, prior[0]), dead, dead.indicator()
    with pytest.raises(ZeroMassEventError) as exc:
        interp_observe(dead, 0.5, ps[0])
    for call in (lambda: _interp_step(prior, events, ind, _ONE, 0.5, False),
                 lambda: _conditioned(prior, ind, events)):
        with pytest.raises(ZeroMassEventError, match=re.escape(str(exc.value))):
            call()


@pytest.mark.parametrize("n", range(2, 9))
def test_gibbs_and_bayes_rows_are_the_one_belief_calls_bytewise(n):
    rng = np.random.default_rng(10 + n)
    labels, ps = _simplexes(rng, n, 30)
    prior = np.array([p.probs for p in ps])
    lik = rng.uniform(0.05, 1.0, size=(30, n))
    lik[::4, rng.integers(n)] = 0.0  # a world ruled out
    betas = [float(b) for b in rng.uniform(0.1, 3.0, 30)]
    pot = -np.log(lik[1::4])  # the rows with no zero: finite potentials
    for times in (betas, (1.0,)):
        bayes = normalize_probs(_gibbs_map(_bayes_penalty(labels, lik, "rows"), times, labels)(prior))
        pot_times = times[1::4] if len(times) > 1 else times
        boltzmann = normalize_probs(_gibbs_map(_boltzmann_penalty(labels, pot), pot_times, labels)(prior[1::4]))
        for i, p in enumerate(ps):
            b = times[i] if len(times) > 1 else times[0]
            learner = get_learner("bayes", model=BayesModel(labels, {"e": lik[i]}))
            assert bayes[i].tobytes() == learner.observe("e", b, p).probs.tobytes()
        for i, row in enumerate(boltzmann):
            b = times[1 + 4 * i] if len(times) > 1 else times[0]
            assert row.tobytes() == boltzmann_observe(RandomVariable(labels, pot[i]), b, ps[1 + 4 * i]).probs.tobytes()
    exact = normalize_probs(prior * lik)
    for i, p in enumerate(ps):
        assert exact[i].tobytes() == bayes_observe(BayesModel(labels, {"e": lik[i]}), "e", p).probs.tobytes()
    for i, q in enumerate(ps[::-1]):
        assert _total_variation(prior, prior[::-1])[i] == belief_distance(ps[i], q)


@pytest.mark.parametrize("n", range(2, 9))
def test_plausibility_rows_are_the_one_belief_calls_bytewise(n):
    rng = np.random.default_rng(20 + n)
    labels, ps = _simplexes(rng, n, 40, zeros=True)
    events = _events(rng, labels, 40)
    prior, ind = np.array([p.probs for p in ps]), np.array([a.indicator() for a in events])
    ms = [MassFunction.from_simplex(p) for p in ps]
    # from_simplex renormalizes as the vacuous support does
    masses = _plaus_rows(prior, np.ones_like(prior), 1.0)
    assert masses.tobytes() == np.array([_dense(m) for m in ms]).tobytes()
    live = [i for i, (m, a) in enumerate(zip(ms, events)) if m.plaus(a) > 0.0]
    for s in (1.0, 0.5, float(rng.uniform()), 1e-300):
        got = _plaus_rows(masses[live], ind[live], s)
        for row, i in zip(got, live):
            general = dempster_combine(ms[i], simple_support(labels, events[i], s))  # Dempster's rule on dicts
            assert row.tobytes() == _dense(general).tobytes()
            assert ds_plaus_update(ms[i], events[i], s).masses == general.masses
            assert normalize_probs(row).tobytes() == general.as_simplex().probs.tobytes()
    # an event of no plausibility totally conflicts at weight 1, naming the conflict as the dicts do
    dead = [i for i in range(len(ms)) if i not in live]
    if dead:
        with pytest.raises(TotalConflictError) as exc:
            dempster_combine(ms[dead[0]], simple_support(labels, events[dead[0]], 1.0))
        with pytest.raises(TotalConflictError, match=re.escape(str(exc.value))):
            _plaus_rows(masses[dead[:1] + live], ind[dead[:1] + live], 1.0)


def test_ds_on_a_bayesian_mass_function_is_boltzmann_at_the_weight_of_evidence():
    # Shafer's weight of evidence t = -log(1 - s): plausibility revision of a
    # Bayesian mass function by the simple support of mass s on a is the
    # Boltzmann update on the potential 1[w not in a] at t, within round-off
    # (the two differ in the last bits on most instances)
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        labels = learners._world_labels(n)
        p = FiniteSimplex(labels, rng.dirichlet(np.ones(n)))
        a = EventSet(labels, int(rng.integers(1, (1 << n) - 1)))
        s = float(rng.uniform(0.0, 0.999))
        ds = ds_plaus_update(MassFunction.from_simplex(p), a, s).as_simplex()
        tilted = boltzmann_observe(RandomVariable(labels, 1.0 - a.indicator()), -math.log1p(-s), p)
        worst = max(worst, belief_distance(ds, tilted))
    assert worst <= 1e-15
