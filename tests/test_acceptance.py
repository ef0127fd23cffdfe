"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion pins a mathematical identity of the library at an explicit
tolerance; several also pin a runtime budget.  Run with ``pytest -s`` to see
the lines as they print.
"""

import math
import time

import numpy as np
import pytest

from conflearn import (
    BayesModel,
    FiniteSimplex,
    GaussianBelief,
    GradedBeliefTable,
    MassFunction,
    RandomVariable,
    add_to_frac,
    bayes_observe,
    belief_distance,
    boltzmann_observe,
    combine_fields,
    condition,
    derivative_field,
    ds_plaus_update,
    frac_to_add,
    get_domain,
    get_learner,
    get_mutants,
    image,
    integrate,
    interp_observe,
    jeffrey,
    kalman_combine,
    kalman_observe,
    kalman_observe_opt,
    make_bayes_learner,
    max_graded_observe,
    potential_to_likelihood,
    run_suite,
    suite_passed,
    trotter_interleave,
)
from conflearn.axioms import CheckConfig
from conflearn.learners import available_learners

ADD = get_domain("add")
FRAC = get_domain("frac")
KALMAN = get_domain("kalman")


def report(number, name, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"acceptance {number:02d} {name:28s} {flag}  {detail}")
    assert passed, f"{name}: {detail}"


def random_simplex(rng, labels):
    return FiniteSimplex(labels, rng.dirichlet(np.ones(len(labels))))


def tv(p, q):
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


# ---------------------------------------------------------------------------


def test_01_isomorphism_laws():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(101)
    for beta in (0.5, 1.0, 2.0):
        for s in np.linspace(0.0, 1.0 - 1e-9, 10_000):
            back = add_to_frac(beta, frac_to_add(beta, s))
            worst = max(worst, abs(FRAC.to_float(back) - s))
        for t in np.linspace(0.0, 10.0 / beta, 10_000):
            back = frac_to_add(beta, add_to_frac(beta, t))
            worst = max(worst, abs(ADD.to_float(back) - t))
        for _ in range(2_000):
            s1, s2 = rng.uniform(0.0, 1.0, 2)
            hom = ADD.combine(frac_to_add(beta, s1), frac_to_add(beta, s2))
            direct = frac_to_add(beta, FRAC.combine(FRAC.value(s1), FRAC.value(s2)))
            worst = max(worst, abs(ADD.to_float(hom) - ADD.to_float(direct)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, "isomorphism-laws", ok, f"worst={worst:.3g} time={elapsed:.2f}s")


def test_02_full_confidence_idempotence():
    rng = np.random.default_rng(102)
    labels = ("a", "b", "c", "d")
    worst = {}

    def track(rule, d):
        worst[rule] = max(worst.get(rule, 0.0), d)

    n = 0
    while n < 500:
        p = random_simplex(rng, labels)
        mask = int(rng.integers(1, 15))
        a = p.event([labels[i] for i in range(4) if mask >> i & 1])
        if p.prob(a) < 1e-6 or p.prob(a) > 1.0 - 1e-6:
            continue
        n += 1

        once = condition(p, a)
        track("conditioning", belief_distance(condition(once, a), once))

        anchor = a.members()[0]

        def push(ev, w, anchor=anchor):
            return w if ev.contains(w) else anchor

        img = image(p, push, a)
        track("imaging", belief_distance(image(img, push, a), img))

        pi = [float(rng.uniform(0.2, 0.8))]
        pi.append(1.0 - pi[0])
        jf = jeffrey(p, [a, a.complement()], pi)
        track("jeffrey", belief_distance(jeffrey(jf, [a, a.complement()], pi), jf))

        it = interp_observe(a, 1.0, p)
        track("interp", belief_distance(interp_observe(a, 1.0, it), it))

        m = ds_plaus_update(MassFunction.from_simplex(p), a, 1.0)
        track("ds", belief_distance(ds_plaus_update(m, a, 1.0), m))

        v = RandomVariable(labels, rng.normal(size=4))
        bz = boltzmann_observe(v, ADD.top, p)
        track("boltzmann", belief_distance(boltzmann_observe(v, ADD.top, bz), bz))

        z = float(rng.normal())
        g = kalman_observe(z, KALMAN.top, GaussianBelief(rng.normal(), 2.0))
        track("kalman", belief_distance(kalman_observe(z, KALMAN.top, g), g))

    bad = {k: v for k, v in worst.items() if v > 1e-10}
    report(
        2,
        "full-confidence-idempotence",
        not bad,
        f"rules={len(worst)} worst={max(worst.values()):.3g}",
    )


def test_03_interp_vs_ds_gap():
    rng = np.random.default_rng(103)
    endpoint_worst = 0.0
    interior_min = math.inf
    alphas = np.linspace(0.05, 0.95, 19)
    n = 0
    while n < 200:
        k = int(rng.integers(2, 6))
        labels = tuple(f"w{i}" for i in range(k))
        p = random_simplex(rng, labels)
        mask = int(rng.integers(1, (1 << k) - 1))
        a = p.event([labels[i] for i in range(k) if mask >> i & 1])
        if not 0.05 <= p.prob(a) <= 0.9:
            continue
        n += 1
        m = MassFunction.from_simplex(p)
        endpoint_worst = max(
            endpoint_worst,
            belief_distance(interp_observe(a, 0.0, p), p),
            belief_distance(ds_plaus_update(m, a, 0.0).as_simplex(), p),
            belief_distance(interp_observe(a, 1.0, p), condition(p, a)),
            belief_distance(
                ds_plaus_update(m, a, 1.0).as_simplex(), condition(p, a)
            ),
        )
        gap = max(
            belief_distance(
                interp_observe(a, al, p), ds_plaus_update(m, a, al).as_simplex()
            )
            for al in alphas
        )
        interior_min = min(interior_min, gap)
    ok = endpoint_worst <= 1e-12 and interior_min >= 1e-3
    report(
        3,
        "interp-vs-ds",
        ok,
        f"endpoints={endpoint_worst:.3g} min-gap={interior_min:.3g}",
    )


def test_04_kalman_combinativity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        c1 = KALMAN.value((rng.uniform(), rng.uniform(0.0, 4.0)))
        c2 = KALMAN.value((rng.uniform(), rng.uniform(0.0, 4.0)))
        b0 = GaussianBelief(rng.normal(), rng.uniform(0.1, 5.0))
        z = float(rng.normal())
        seq = kalman_observe(z, c2, kalman_observe(z, c1, b0))
        combined = kalman_observe(z, kalman_combine(c1, c2), b0)
        worst = max(worst, belief_distance(seq, combined))
    prec_worst = 0.0
    for _ in range(1000):
        var, r2 = rng.uniform(0.1, 5.0, 2)
        z = float(rng.normal())
        out = kalman_observe_opt(z, r2, GaussianBelief(rng.normal(), var))
        prec_worst = max(
            prec_worst, abs(1.0 / out.var - (1.0 / var + 1.0 / r2))
        )
    ok = worst <= 1e-10 and prec_worst <= 1e-10
    report(
        4,
        "kalman-combinativity",
        ok,
        f"sequential={worst:.3g} precision={prec_worst:.3g}",
    )


def test_05_boltzmann_flow_integral():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    labels = tuple("abcde")
    learner = get_learner("boltzmann")
    worst = 0.0
    for _ in range(5):
        p = random_simplex(rng, labels)
        v = RandomVariable(labels, rng.normal(size=5))
        field = derivative_field(learner, v)
        for beta in (0.5, 1.0, 2.0, 5.0):
            closed = boltzmann_observe(v, beta, p)
            flowed = integrate(field, p, float(beta))
            worst = max(worst, tv(closed, flowed))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(
        5, "boltzmann-flow-integral", ok, f"tv={worst:.3g} time={elapsed:.2f}s"
    )


def test_06_tempering_stack_identities():
    rng = np.random.default_rng(106)
    labels = ("a", "b", "c", "d")
    boltz = get_learner("boltzmann")
    worst_comm = worst_field = worst_stack = 0.0
    for _ in range(200):
        p = random_simplex(rng, labels)
        u = RandomVariable(labels, rng.normal(size=4))
        v = RandomVariable(labels, rng.normal(size=4))
        b1, b2 = rng.uniform(0.1, 3.0, 2)

        lhs = boltzmann_observe(v, b2, boltzmann_observe(u, b1, p))
        rhs = boltzmann_observe(u, b1, boltzmann_observe(v, b2, p))
        worst_comm = max(worst_comm, belief_distance(lhs, rhs))

        # summing the two tempering fields equals the field of the summed
        # potential, pointwise
        both = RandomVariable(labels, u.values + v.values)
        summed = combine_fields(
            [derivative_field(boltz, u), derivative_field(boltz, v)]
        )
        worst_field = max(
            worst_field,
            float(
                np.abs(
                    summed(p).components
                    - derivative_field(boltz, both)(p).components
                ).max()
            ),
        )

        betas = rng.uniform(0.1, 2.0, 3)
        pots = [RandomVariable(labels, rng.normal(size=4)) for _ in range(3)]
        stacked = p
        for bi, vi in zip(betas, pots):
            stacked = boltzmann_observe(vi, bi, stacked)
        total = RandomVariable(
            labels, sum(bi * vi.values for bi, vi in zip(betas, pots))
        )
        worst_stack = max(
            worst_stack, belief_distance(stacked, boltzmann_observe(total, 1.0, p))
        )
    worst = max(worst_comm, worst_field, worst_stack)
    report(
        6,
        "tempering-stack-identities",
        worst <= 1e-12,
        f"commute={worst_comm:.3g} field-sum={worst_field:.3g} "
        f"stack={worst_stack:.3g}",
    )


def test_07_bayes_equals_boltzmann():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        hyps = tuple(f"h{i}" for i in range(k))
        lik = rng.uniform(0.05, 1.0, k)
        model = BayesModel(hyps, {"e": lik})
        prior = random_simplex(rng, hyps)
        beta = float(rng.uniform(0.1, 3.0))

        # tempering the negative log likelihood is powered Bayes
        v = RandomVariable(hyps, -np.log(lik))
        learner = make_bayes_learner(model)
        worst = max(
            worst,
            belief_distance(
                boltzmann_observe(v, beta, prior),
                learner.observe("e", ADD.value(beta), prior),
            ),
        )
        worst = max(
            worst,
            belief_distance(
                boltzmann_observe(v, 1.0, prior), bayes_observe(model, "e", prior)
            ),
        )

        # potentials -> likelihood table -> same posterior
        table = {"e": dict(zip(hyps, -np.log(lik)))}
        rebuilt = potential_to_likelihood(table, hyps)
        worst = max(
            worst,
            belief_distance(
                bayes_observe(rebuilt, "e", prior), bayes_observe(model, "e", prior)
            ),
        )
    report(7, "bayes-equals-boltzmann", worst <= 1e-12, f"worst={worst:.3g}")


def test_08_parallel_contradiction_limit():
    learner = get_learner("interp")
    p = FiniteSimplex(("a", "b", "c"), np.array([0.8, 0.1, 0.1]))
    a = p.event(["a"])
    field = combine_fields(
        [derivative_field(learner, a), derivative_field(learner, a.complement())]
    )
    out = integrate(field, p, math.inf)
    target = 0.5 * condition(p, a).probs + 0.5 * condition(p, a.complement()).probs
    err = float(np.abs(out.probs - target).max())
    report(8, "parallel-contradiction", err <= 1e-6, f"err={err:.3g}")


def test_09_trotter_convergence():
    learner = get_learner("interp")
    p = FiniteSimplex(("a", "b", "c", "d"), np.array([0.5, 0.2, 0.2, 0.1]))
    ev_a = p.event(["a", "b"])
    ev_b = p.event(["b", "c"])
    chi = 1.5
    field = combine_fields(
        [derivative_field(learner, ev_a), derivative_field(learner, ev_b)]
    )
    reference = integrate(field, p, chi)
    ns = (64, 128, 256, 512, 1024, 2048, 4096)
    states = trotter_interleave(learner, ev_a, ev_b, chi, ns, p)  # one walk of 4096 rounds
    dist = {n: belief_distance(state, reference) for n, state in zip(ns, states)}
    ratios = [dist[2 * n] / dist[n] for n in ns[:-1]]
    ratios_ok = all(0.3 <= r <= 0.7 for r in ratios)

    boltz = get_learner("boltzmann")
    labels = ("a", "b", "c")
    q = FiniteSimplex(labels, np.array([0.5, 0.3, 0.2]))
    u = RandomVariable(labels, np.array([1.0, 0.0, -0.5]))
    v = RandomVariable(labels, np.array([-0.3, 0.7, 0.2]))
    both = RandomVariable(labels, u.values + v.values)
    exact = belief_distance(
        trotter_interleave(boltz, u, v, 0.8, 1, q), boltzmann_observe(both, 0.8, q)
    )
    ok = ratios_ok and exact <= 1e-12
    report(
        9,
        "trotter-convergence",
        ok,
        f"ratios={min(ratios):.2f}..{max(ratios):.2f} commuting={exact:.3g}",
    )


def test_10_additive_form_fidelity():
    rng = np.random.default_rng(110)
    interp = get_learner("interp")
    maxg = get_learner("max-graded")
    worst = 0.0
    for _ in range(1000):
        p = random_simplex(rng, ("a", "b", "c"))
        a = p.event(["a", "b"])
        if p.prob(a) < 1e-6:
            continue
        chi = float(rng.uniform(0.0, 0.99))
        flow = interp.make_flow(a)
        t = interp.translate(a, FRAC.value(chi), p)
        assert abs(t - (-math.log1p(-chi))) <= 1e-12
        worst = max(
            worst, belief_distance(flow(t, p), interp_observe(a, chi, p))
        )

        g0 = float(rng.uniform(0.0, 0.95))
        table = GradedBeliefTable({"x": g0})
        chi2 = float(rng.uniform(0.0, 0.99))
        flow2 = maxg.make_flow("x")
        t2 = maxg.translate("x", get_domain("max").value(chi2), table)
        worst = max(
            worst,
            belief_distance(flow2(t2, table), max_graded_observe("x", chi2, table)),
        )
    report(10, "additive-form-fidelity", worst <= 1e-10, f"worst={worst:.3g}")


def test_11_axiom_suite():
    t0 = time.perf_counter()
    cfg = CheckConfig(seed=0, samples=60)
    failing_builtins = []
    for lid in available_learners():
        if not suite_passed(run_suite(get_learner(lid), cfg)):
            failing_builtins.append(lid)
    toothless = []
    for mutant in get_mutants():
        reports = run_suite(mutant, cfg)
        if all(r.passed for r in reports):
            toothless.append(mutant.id)
    elapsed = time.perf_counter() - t0
    ok = not failing_builtins and not toothless and elapsed < 120.0
    report(
        11,
        "axiom-suite",
        ok,
        f"builtins-ok={not failing_builtins} mutants-caught={not toothless} "
        f"time={elapsed:.1f}s",
    )
