"""Job generators for the three benchmark workloads.

Every workload is a closed loop over *rounds*: a round is a fixed-shape list
of jobs drawn from ``numpy.random.default_rng([seed, workload tag, round])``,
so the same seed always yields the same jobs and another seed yields others.
A job is either a ``conflearn`` CLI invocation (its JSON config is written to
disk before the round is timed), an in-process domain-algebra job, or one
``check_axiom`` call.  ``expect`` carries what the checker in ``refs.py``
needs to build its own reference; the program never sees it.

This module imports numpy only, so the generator can be tested on its own.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

WORKLOADS = ("flow-parallel", "sequential-updates", "law-suite")
_TAGS = {name: i + 1 for i, name in enumerate(WORKLOADS)}

STEP = 1e-2  # integrator step written into every combine/trotter config
STEP_OUT = 0.25
GRID_POINTS = 100

REGISTERED = ("interp", "ds", "kalman", "boltzmann", "bayes", "max-graded", "classifier")
LIFTABLE = ("interp", "ds", "boltzmann", "bayes", "max-graded", "classifier")
DOMAINS = ("frac", "add", "max", "kalman", "count")
EXPERIMENTS = ("bayes-boltzmann", "kalman-sequential", "interp-vs-ds")
AXIOM_IDS = ("L1", "L2", "L3", "L4", "L5", "FC", "B1", "B2", "B3", "LB")
MUTANT_IDS = (
    "mutant-l1-drift",
    "mutant-l2-rough",
    "mutant-l34-cyclic",
    "mutant-l5-square",
    "mutant-fc-partial",
    "mutant-b2-uniform",
    "mutant-b3-timid",
    "mutant-lb-euclid",
)
SUITE_LEARNERS = REGISTERED + tuple(f"{lid}@list" for lid in LIFTABLE) + MUTANT_IDS
SUITE_SAMPLES = 60
# The timed law suite replays the suite as `conflearn axioms` and the repo's
# acceptance gate run it (CheckConfig's default seed).  Its cost hinges on a
# few classifier instances that need ~1e5-1e6 gradient steps, so drawing the
# check seed from the workload seed would swing a run's wall time 5x.  The
# workload seed orders the jobs instead.
SUITE_CHECK_SEED = 0

# A round's time on the 2-core box the benchmark was built on (the law
# suite's round is the whole suite).  A lap's round count comes from these
# and --seconds, never from a clock, so every commit and every machine state
# times the same jobs.
ROUND_SECONDS = {"flow-parallel": 0.8, "sequential-updates": 0.7, "law-suite": 12.0}

# flow-parallel: 8 jobs per round, one of them integrated to the limit.
FLOW_PATTERN = (
    "boltzmann", "bayes", "interp-overlap", "boltzmann",
    "interp-top", "bayes", "max-graded", "interp-pair",
)


@dataclass
class Job:
    """One unit of closed-loop work and what its checker needs."""

    id: str
    kind: str  # e.g. "combine.boltzmann", "learn.kalman", "trotter", "check"
    command: str  # CLI subcommand, or "domain" / "chart" / "check"
    config: dict
    expect: dict = field(default_factory=dict)
    size: int = 0  # worlds / statements / hypotheses, 0 when not a table
    config_path: Optional[str] = None


def _rng(seed: int, workload: str, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[workload], round_index])


# Irrational steps for the Kronecker sequences below, one per parameter, so
# that the parameters of one job are not correlated with each other.
_STEPS = {"t": 0.6180339887498949, "k": 0.41421356237309515, "n": 0.7320508075688772,
          "w": 0.2360679774997898, "chi": 0.7182818284590451}


class _Spread:
    """Evenly spread cost parameters (sizes, observation counts, times).

    The j-th job of a kind takes u = frac(offset + j * step) for each cost
    parameter, with the offset drawn from the seed: any prefix of a run then
    covers every parameter's range almost uniformly, so a run's total work
    varies little from seed to seed, while the values themselves and all
    other inputs still change with the seed.  Over seeds 201-220 a cost
    proxy of a 104-job flow-parallel run spread 0.035 (IQR / median) with
    these sequences and 0.108 with plain draws (README, Load shape).
    """

    def __init__(self, seed: int, workload: str):
        self.seed = seed
        self.tag = _TAGS[workload]

    def u(self, kind: str, param: str, j: int) -> float:
        key = zlib.crc32(f"{kind}.{param}".encode())
        offset = np.random.default_rng([self.seed, self.tag, key]).random()
        return (offset + j * _STEPS[param]) % 1.0

    def real(self, kind, param, j, lo, hi) -> float:
        return lo + (hi - lo) * self.u(kind, param, j)

    def int(self, kind, param, j, lo, hi) -> int:
        """An integer in [lo, hi]."""
        return lo + min(int(self.u(kind, param, j) * (hi - lo + 1)), hi - lo)


def _labels(n: int, prefix: str = "w") -> List[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _simplex_json(labels, probs) -> dict:
    return {"kind": "simplex", "labels": list(labels), "probs": [float(x) for x in probs]}


def _names(labels, mask) -> List[str]:
    return [lab for i, lab in enumerate(labels) if mask[i]]


def _event(rng, p, lo=0.05, hi=0.95) -> np.ndarray:
    """A proper, nonempty event (boolean mask) whose mass lies in [lo, hi]."""
    n = len(p)
    for _ in range(256):
        mask = rng.random(n) < 0.5
        if 0 < mask.sum() < n and lo <= float(p[mask].sum()) <= hi:
            return mask
    mask = np.zeros(n, dtype=bool)
    mask[int(np.argmin(np.abs(p - 0.5)))] = True
    return mask


def _weights(rng, k, lo=0.2, hi=1.5) -> List[float]:
    return [float(w) for w in rng.uniform(lo, hi, size=k)]


def _flow_config(learner: str, belief: dict, observations, weights, t) -> dict:
    cfg = {
        "learner": learner,
        "belief": belief,
        "observations": observations,
        "weights": weights,
        "t": t,
        "integrator": {"step": STEP},
        "output_csv": "out.csv",
    }
    if t != "top":
        cfg["step_out"] = STEP_OUT
    return cfg


# ---------------------------------------------------------------------------
# flow-parallel


def _flow_job(rng, even: _Spread, kind: str, j: int, job_id: str) -> Job:
    t = even.real(kind, "t", j, 0.5, 3.0)
    if kind == "max-graded":
        m = even.int(kind, "n", j, 3, 12)
        keys = _labels(m, "k")
        grades = {k: float(g) for k, g in zip(keys, rng.uniform(0.0, 0.9, size=m))}
        k = even.int(kind, "k", j, 2, min(6, m))
        observed = [keys[i] for i in rng.choice(m, size=k, replace=False)]
        weights = _weights(rng, k)
        cfg = _flow_config(
            "max-graded",
            {"kind": "graded", "entries": grades},
            [{"id": key} for key in observed],
            weights,
            t,
        )
        expect = {"grades": grades, "rates": dict(zip(observed, weights))}
        return Job(job_id, "combine.max-graded", "combine", cfg, expect, m)

    n = even.int(kind, "n", j, 3, 12)
    labels = _labels(n)
    p = rng.dirichlet(np.ones(n))
    belief = _simplex_json(labels, p)
    if kind in ("boltzmann", "bayes"):
        k = even.int(kind, "k", j, 2, 6)
        weights = _weights(rng, k)
        if kind == "boltzmann":
            values = rng.normal(0.0, 1.0, size=(k, n))
            obs = [{"values": dict(zip(labels, map(float, row)))} for row in values]
            cfg = _flow_config("boltzmann", belief, obs, weights, t)
            potentials = values
        else:
            lik = rng.uniform(0.05, 1.0, size=(k, n))
            model = {
                "hypotheses": labels,
                "likelihood": {f"e{i}": [float(x) for x in row] for i, row in enumerate(lik)},
            }
            cfg = _flow_config("bayes", belief, [{"id": f"e{i}"} for i in range(k)], weights, t)
            cfg["learner_params"] = {"model": model}
            potentials = -np.log(lik)
        summed = np.asarray(weights) @ potentials
        return Job(job_id, f"combine.{kind}", "combine", cfg, {"potential": summed.tolist()}, n)

    if kind == "interp-overlap":
        # Events keep 20-80% of the mass: lighter events make the field stiff
        # enough that RK4 at the configured step misses the 1e-6 tolerance.
        k = even.int(kind, "k", j, 2, 6)
        events = [_event(rng, p, 0.2, 0.8) for _ in range(k)]
        weights = _weights(rng, k)
        cfg = _flow_config(
            "interp", belief, [{"event": _names(labels, e)} for e in events], weights, t
        )
        expect = {"events": [e.tolist() for e in events], "weights": weights}
        return Job(job_id, "combine.interp-overlap", "combine", cfg, expect, n)

    # Complementary pair, at finite t ("interp-pair") or to the limit
    # ("interp-top"); limit runs keep w1 + w2 = 6, which sets their length
    # (~0.25 s at the configured step).
    a = _event(rng, p)
    top = kind == "interp-top"
    if top:
        w1 = even.real(kind, "w", j, 2.0, 4.0)
        weights = [w1, 6.0 - w1]
    else:
        weights = _weights(rng, 2)
    cfg = _flow_config(
        "interp",
        belief,
        [{"event": _names(labels, a)}, {"event": _names(labels, ~a)}],
        weights,
        "top" if top else t,
    )
    expect = {"event": a.tolist(), "weights": weights}
    return Job(job_id, f"combine.{kind}", "combine", cfg, expect, n)


def _flow_round(rng, even: _Spread, r: int) -> List[Job]:
    per_round = Counter(FLOW_PATTERN)
    seen: Counter = Counter()
    out = []
    for i, kind in enumerate(FLOW_PATTERN):
        j = r * per_round[kind] + seen[kind]
        seen[kind] += 1
        out.append(_flow_job(rng, even, kind, j, f"r{r}.{i:02d}"))
    return out


# ---------------------------------------------------------------------------
# sequential-updates


def _sorted_inner(draw, n=GRID_POINTS - 2) -> list:
    return sorted(float(x) for x in draw(n))


def _learn_setup(rng, even: _Spread, kind: str, j: int, lid: str):
    """(belief JSON, observation JSON, learner_params, size, base grid payloads)."""
    log_uniform = lambda lo, hi: (lambda n: np.exp(rng.uniform(np.log(lo), np.log(hi), n)))
    if lid in ("interp", "boltzmann", "bayes"):
        n = even.int(kind, "n", j, 3, 12)
        labels = _labels(n)
        p = rng.dirichlet(np.ones(n))
        belief = _simplex_json(labels, p)
        params = {}
        if lid == "interp":
            obs = {"event": _names(labels, _event(rng, p))}
            inner = _sorted_inner(lambda k: rng.uniform(0.0, 1.0, k))
        elif lid == "boltzmann":
            obs = {"values": dict(zip(labels, map(float, rng.normal(0.0, 1.0, n))))}
            inner = _sorted_inner(log_uniform(0.01, 10.0))
        else:
            lik = rng.uniform(0.05, 1.0, size=(3, n))
            params = {
                "model": {
                    "hypotheses": labels,
                    "likelihood": {f"e{j}": [float(x) for x in row] for j, row in enumerate(lik)},
                }
            }
            obs = {"id": f"e{int(rng.integers(3))}"}
            inner = _sorted_inner(log_uniform(0.01, 10.0))
        return belief, obs, params, n, ["bot"] + inner + ["top"]
    if lid == "ds":
        n = even.int(kind, "n", j, 3, 6)
        labels = _labels(n)
        full = (1 << n) - 1
        masses: dict = {}
        k = int(rng.integers(2, 7))
        for mask, w in zip(rng.integers(1, full + 1, size=k), rng.dirichlet(np.ones(k))):
            key = "|".join(lab for i, lab in enumerate(labels) if int(mask) >> i & 1)
            masses[key] = masses.get(key, 0.0) + float(w)
        plaus = lambda a: sum(
            m for key, m in masses.items() if any(w in a for w in key.split("|"))
        )
        event = labels[:1]
        for _ in range(256):
            cand = [lab for lab in labels if rng.random() < 0.5]
            if 0 < len(cand) < n and plaus(cand) > 0.05:
                event = cand
                break
        belief = {"kind": "mass", "labels": labels, "masses": masses}
        inner = _sorted_inner(lambda k: rng.uniform(0.0, 1.0, k))
        return belief, {"event": event}, {}, n, ["bot"] + inner + ["top"]
    if lid == "kalman":
        belief = {
            "kind": "gaussian",
            "mean": float(rng.normal(0.0, 2.0)),
            "var": float(np.exp(rng.uniform(np.log(0.05), np.log(5.0)))),
        }
        gains = np.sort(rng.uniform(0.02, 0.98, GRID_POINTS - 2))
        noises = np.exp(rng.uniform(np.log(0.05), np.log(5.0), GRID_POINTS - 2))
        inner = [{"K": float(k), "r2": float(v)} for k, v in zip(gains, noises)]
        return belief, {"z": float(rng.normal(0.0, 2.0))}, {}, 0, ["bot"] + inner + ["top"]
    if lid == "max-graded":
        m = even.int(kind, "n", j, 3, 12)
        keys = _labels(m, "k")
        grades = {k: float(g) for k, g in zip(keys, rng.uniform(0.0, 0.95, m))}
        inner = _sorted_inner(lambda k: rng.uniform(0.0, 1.0, k))
        obs = {"id": keys[int(rng.integers(m))]}
        return {"kind": "graded", "entries": grades}, obs, {}, m, ["bot"] + inner + ["top"]
    if lid == "classifier":
        d = even.int(kind, "n", j, 1, 4)
        c = even.int(kind, "k", j, 2, 4)
        theta = rng.normal(0.0, 1.0, c * (d + 1))
        obs = {"x": [float(v) for v in rng.normal(0.0, 1.0, d)], "y": int(rng.integers(c))}
        counts = sorted(int(v) for v in rng.choice(np.arange(1, 129), GRID_POINTS - 1, replace=False))
        params = {"n_features": d, "n_classes": c}
        belief = {"kind": "params", "values": [float(v) for v in theta]}
        return belief, obs, params, 0, ["bot"] + counts
    raise ValueError(f"no learn generator for {lid!r}")


def _learn_job(rng, even: _Spread, j: int, lid: str, job_id: str) -> Job:
    belief, obs, params, size, grid = _learn_setup(rng, even, f"learn.{lid}", j, lid)
    cfg = {
        "learner": lid,
        "belief": belief,
        "observation": obs,
        "confidence_grid": grid,
        "output_csv": "out.csv",
    }
    if params:
        cfg["learner_params"] = params
    return Job(job_id, f"learn.{lid}", "learn", cfg, {"learner": lid}, size)


def _learn_list_job(rng, even: _Spread, j: int, lid: str, job_id: str) -> Job:
    """A `learn` sweep on the list lift: each grid entry is a short batch."""
    belief, obs, params, size, base_grid = _learn_setup(rng, even, "learn.@list", j, lid)
    inner = [g for g in base_grid if g not in ("bot", "top")]
    picks = [sorted(rng.choice(len(inner), size=j, replace=False)) for j in (1, 2, 3)]
    grid = ["bot"] + [[inner[i] for i in pick] for pick in picks]
    if base_grid[-1] == "top":
        grid.append("top")
    cfg = {
        "learner": f"{lid}@list",
        "belief": belief,
        "observation": obs,
        "confidence_grid": grid,
        "output_csv": "out.csv",
    }
    if params:
        cfg["learner_params"] = params
    return Job(job_id, "learn.@list", "learn", cfg, {"learner": lid}, size)


def _trotter_job(rng, even: _Spread, j: int, job_id: str) -> Job:
    n = even.int("trotter", "n", j, 4, 8)
    labels = _labels(n)
    p = rng.dirichlet(np.full(n, 2.0))
    a = b = None
    for _ in range(1024):
        a = _event(rng, p, 0.1, 0.9)
        b = _event(rng, p, 0.1, 0.9)
        if (a & b).any() and (a & ~b).any() and (b & ~a).any():
            break
    cfg = {
        "learner": "interp",
        "belief": _simplex_json(labels, p),
        "observations": [{"event": _names(labels, a)}, {"event": _names(labels, b)}],
        "chi": even.real("trotter", "chi", j, 1.0, 2.0),
        "n_values": [256, 512, 1024, 2048],
        "integrator": {"step": STEP},
        "output_json": "out.json",
    }
    return Job(job_id, "trotter", "trotter", cfg, {"events": [a.tolist(), b.tolist()]}, n)


def _equiv_job(rng, even: _Spread, j: int, name: str, job_id: str) -> Job:
    cfg = {"experiment": name, "seed": int(rng.integers(0, 2**31)), "output_json": "out.json"}
    return Job(job_id, f"equiv.{name}", "equiv", cfg)


def _domain_job(rng, even: _Spread, j: int, dom: str, job_id: str, chains: int = 10,
                length: int = 4) -> Job:
    """Short combine/residual chains: long ones drive frac and kalman gains to
    within float round-off of 1, where no residual is well conditioned."""
    n = chains * length
    if dom == "frac":
        xs = [float(x) for x in rng.uniform(0.01, 0.6, n)]
    elif dom == "add":
        xs = [float(x) for x in np.exp(rng.uniform(np.log(0.01), np.log(5.0), n))]
    elif dom == "max":
        xs = [float(x) for x in rng.uniform(0.0, 1.0, n)]
    elif dom == "kalman":
        xs = [
            [float(k), float(v)]
            for k, v in zip(
                rng.uniform(0.05, 0.95, n),
                np.exp(rng.uniform(np.log(0.05), np.log(5.0), n)),
            )
        ]
    else:
        xs = [int(x) for x in rng.integers(0, 9, n)]
    cfg = {"domain": dom, "chains": [xs[i:i + length] for i in range(0, n, length)]}
    return Job(job_id, f"domain.{dom}", "domain", cfg)


def _chart_job(rng, even: _Spread, j: int, job_id: str) -> Job:
    cfg = {
        "betas": [0.5, 1.0, 2.0],
        "s": [float(x) for x in rng.uniform(0.0, 1.0 - 1e-9, 300)],
        "u": [float(x) for x in rng.uniform(0.0, 1.0, 300)],  # t = 10 u / beta
        "pairs": [[float(a), float(b)] for a, b in rng.uniform(0.0, 1.0, (200, 2))],
    }
    return Job(job_id, "domain.chart", "chart", cfg)


def _sequential_round(rng, even: _Spread, r: int) -> List[Job]:
    jobs: List[Job] = []

    def add(make, *args, j=r):
        jobs.append(make(rng, even, j, *args, f"r{r}.{len(jobs):02d}"))

    for lid in REGISTERED:
        add(_learn_job, lid)
    add(_learn_list_job, LIFTABLE[int(rng.integers(len(LIFTABLE)))])
    add(_trotter_job)
    for name in EXPERIMENTS:
        add(_equiv_job, name)
    for dom in DOMAINS:
        add(_domain_job, dom)
    add(_chart_job)
    return jobs


# ---------------------------------------------------------------------------
# law-suite


def suite_jobs(check_seed: int, job_prefix: str, learners=SUITE_LEARNERS) -> List[Job]:
    return [
        Job(
            f"{job_prefix}.{lid}.{axiom}",
            "check",
            "check",
            {"learner": lid, "axiom": axiom, "seed": check_seed, "samples": SUITE_SAMPLES},
        )
        for lid in learners
        for axiom in AXIOM_IDS
    ]


def _suite_round(rng, even: _Spread, r: int) -> List[Job]:
    jobs = suite_jobs(SUITE_CHECK_SEED, f"r{r}")
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


_ROUNDS = {
    "flow-parallel": _flow_round,
    "sequential-updates": _sequential_round,
    "law-suite": _suite_round,
}


def rounds_per_lap(workload: str, lap_seconds: float, min_jobs: int) -> int:
    """Rounds that fill ``lap_seconds`` at the nominal round time, and hold at
    least ``min_jobs`` jobs; at least one."""
    per_round = len(make_round(workload, 0, 0))
    return max(1, round(lap_seconds / ROUND_SECONDS[workload]), -(-min_jobs // per_round))


def make_round(workload: str, seed: int, round_index: int) -> List[Job]:
    """The jobs of one round; a pure function of its three arguments."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return _ROUNDS[workload](_rng(seed, workload, round_index), _Spread(seed, workload), round_index)
