"""Independent references and per-job output checks.

Every reference here is plain numpy written for the benchmark (closed forms,
a hand-written RK4, a hand-written Dempster rule and softmax gradient step);
none of it calls conflearn.  Checks run after the timed loop.

``check_round`` returns one :class:`Verdict` per job.  A job that fails for a
reason listed in ``KNOWN_DEFECTS`` is marked ``known``: it still counts
against ``ok_frac`` and is listed in the run record, but does not make the
run incorrect.  Any other failure does.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from jobs import MUTANT_IDS, STEP, STEP_OUT

FLOW_TOL = 1e-6  # TV / sup distance for integrated flows (acceptance gate 05)
LEARN_TOL = 1e-9  # closed-form sweeps, relative to max(1, |reference|)
LAW_TOL = 1e-10  # domain algebra (acceptance gate 01)
TROTTER_BAND = (0.3, 0.7)

KNOWN_DEFECTS = {
    "list-learn-csv": (
        "learn on <id>@list exits 3: the CLI has no flat CSV representation "
        "for list confidence domains"
    ),
    "frac-combine-near-top": (
        "frac combine computes s + t - s*t, losing the relative precision of "
        "1 - s near 1: the frac-to-add chart homomorphism misses 1e-10 (by up "
        "to ~1e-9) when (1 - a)(1 - b) < 1e-5"
    ),
}


@dataclass
class Outcome:
    """What one job returned: exit code, captured streams and artifacts."""

    code: Optional[int]
    stdout: str = ""
    stderr: str = ""
    outdir: str = ""
    value: object = None  # in-process result (domain jobs, axiom reports)
    error: str = ""  # repr of an exception that escaped the program


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    known: bool = False


OK = Verdict(True)


def _fail(reason: str) -> Verdict:
    return Verdict(False, reason)


def _known(key: str) -> Verdict:
    return Verdict(False, key, known=True)


# ---------------------------------------------------------------------------
# References.


def tv(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


def _normalized(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return p / p.sum()


def tempered(p0, potential, t: float) -> np.ndarray:
    """p0 * exp(-t V) renormalized; at t = inf, p0 restricted to argmin V."""
    p0 = _normalized(p0)
    v = np.asarray(potential, dtype=float)
    supp = p0 > 0.0
    w = np.zeros_like(p0)
    if math.isinf(t):
        vmin = v[supp].min()
        w[supp & (v == vmin)] = p0[supp & (v == vmin)]
    else:
        logw = np.log(p0[supp]) - t * v[supp]
        w[supp] = np.exp(logw - logw.max())
    return w / w.sum()


def interp_pair(p0, event, w1: float, w2: float, t: float) -> np.ndarray:
    """Complementary interp pair: q_t P(.|A) + (1 - q_t) P(.|A^c)."""
    p0 = _normalized(p0)
    a = np.asarray(event, dtype=bool)
    pa = np.where(a, p0, 0.0) / p0[a].sum()
    pc = np.where(~a, p0, 0.0) / p0[~a].sum()
    q_star = w1 / (w1 + w2)
    q = q_star if math.isinf(t) else q_star + (p0[a].sum() - q_star) * math.exp(-(w1 + w2) * t)
    return q * pa + (1.0 - q) * pc


def interp_rk4(p0, events, weights, times, h: float = STEP / 10) -> List[np.ndarray]:
    """Plain RK4 on sum_j w_j (P(.|A_j) - p), reporting the state at each time."""
    m = np.asarray(events, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = w.sum()

    def f(p):
        return p * (m.T @ (w / (m @ p))) - total * p

    p = _normalized(p0)
    now = 0.0
    out = []
    for target in times:
        n = max(1, int(math.ceil((target - now) / h - 1e-9)))
        dt = (target - now) / n
        for _ in range(n):
            k1 = f(p)
            k2 = f(p + 0.5 * dt * k1)
            k3 = f(p + 0.5 * dt * k2)
            k4 = f(p + dt * k3)
            p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        now = target
        out.append(p.copy())
    return out


def graded(g0: float, rate: float, t: float) -> float:
    return 1.0 - (1.0 - g0) * math.exp(-rate * t)


def dempster_simple(masses: Dict[int, float], a: int, alpha: float) -> Dict[int, float]:
    """Dempster-combine a mass function with the simple support (alpha on a)."""
    out: Dict[int, float] = {}
    conflict = 0.0
    for s, m in masses.items():
        if s & a:
            out[s & a] = out.get(s & a, 0.0) + m * alpha
        else:
            conflict += m * alpha
        out[s] = out.get(s, 0.0) + m * (1.0 - alpha)
    norm = 1.0 - conflict
    return {s: m / norm for s, m in out.items() if m > 0.0}


def softmax_steps(theta, x, y: int, n_classes: int, steps: int, eta: float = 0.1) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).copy()
    x = np.asarray(x, dtype=float)
    d = x.size
    for _ in range(steps):
        w, b = theta[: n_classes * d].reshape(n_classes, d), theta[n_classes * d:]
        logits = w @ x + b
        logits = logits - logits.max()
        err = np.exp(logits - math.log(np.exp(logits).sum()))
        err[y] -= 1.0
        theta = theta - eta * np.concatenate([np.outer(err, x).ravel(), err])
    return theta


# ---------------------------------------------------------------------------
# Artifact readers.


def read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(header, data, names) -> np.ndarray:
    idx = [header.index(n) for n in names]
    return np.array([[float(row[i]) for i in idx] for row in data])


def _rel_gap(got, ref) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    both_inf = np.isinf(got) & np.isinf(ref) & (np.sign(got) == np.sign(ref))
    diff = np.where(both_inf, 0.0, np.abs(got - ref))
    return float((diff / np.maximum(1.0, np.where(np.isinf(ref), 1.0, np.abs(ref)))).max())


def _expect_exit(out: Outcome) -> Optional[Verdict]:
    """A failing verdict unless the job exited 0."""
    if out.error:
        return _fail(f"exception: {out.error}")
    if out.code != 0:
        first = out.stderr.strip().splitlines()[:1]
        return _fail(f"exit {out.code}: {first[0] if first else ''}".strip())
    return None


# ---------------------------------------------------------------------------
# combine (flow-parallel)


def check_combine(job, out: Outcome) -> Verdict:
    bad = _expect_exit(out)
    if bad:
        return bad
    header, data = read_csv(os.path.join(out.outdir, "out.csv"))
    cfg = job.config
    times = [float(row[0]) for row in data]
    if cfg["t"] == "top":
        if len(times) != 2 or not math.isinf(times[1]):
            return _fail("limit run must report t = 0 and t = inf")
    else:
        expected_rows = int(math.ceil(cfg["t"] / STEP_OUT)) + 1
        if len(times) != expected_rows or abs(times[-1] - cfg["t"]) > 1e-12:
            return _fail(f"expected {expected_rows} sampled rows ending at t")

    if job.kind == "combine.max-graded":
        g0 = job.expect["grades"]
        rates = job.expect["rates"]
        keys = sorted(g0)
        got = _columns(header, data, keys)
        ref = np.array(
            [[graded(g0[k], rates.get(k, 0.0), t) for k in keys] for t in times]
        )
        gap = float(np.abs(got - ref).max())
        return OK if gap <= FLOW_TOL else _fail(f"grade off closed form by {gap:.3g}")

    labels = cfg["belief"]["labels"]
    p0 = cfg["belief"]["probs"]
    got = _columns(header, data, labels)
    if job.kind in ("combine.boltzmann", "combine.bayes"):
        refs = [tempered(p0, job.expect["potential"], t) for t in times]
    elif job.kind in ("combine.interp-pair", "combine.interp-top"):
        w1, w2 = job.expect["weights"]
        refs = [interp_pair(p0, job.expect["event"], w1, w2, t) for t in times]
    else:
        refs = interp_rk4(p0, job.expect["events"], job.expect["weights"], times[1:])
        refs.insert(0, _normalized(p0))
    gap = max(tv(g, r) for g, r in zip(got, refs))
    return OK if gap <= FLOW_TOL else _fail(f"TV {gap:.3g} from reference")


# ---------------------------------------------------------------------------
# learn (sequential-updates)


_SCALAR_TOP = {"interp": 1.0, "ds": 1.0, "max-graded": 1.0, "boltzmann": math.inf, "bayes": math.inf}


def _scalar(raw, lid: str) -> float:
    if raw == "bot":
        return 0.0
    if raw == "top":
        return _SCALAR_TOP[lid]
    return float(raw)


def _mask(labels, names) -> int:
    return sum(1 << labels.index(n) for n in names)


def _mass_table(labels, masses: dict) -> Dict[int, float]:
    out: Dict[int, float] = {}
    for key, m in masses.items():
        s = _mask(labels, [n for n in key.split("|") if n])
        out[s] = out.get(s, 0.0) + float(m)
    total = sum(out.values())
    return {s: m / total for s, m in out.items() if m > 0.0}


def learn_reference(cfg: dict, lid: str, x) -> object:
    """The state a sweep must report at confidence ``x`` (already combined
    for list lifts): a probability vector, (mean, var), a grade table, a mass
    table or a parameter vector."""
    belief = cfg["belief"]
    obs = cfg["observation"]
    params = cfg.get("learner_params", {})
    if lid == "interp":
        labels = belief["labels"]
        p0 = _normalized(belief["probs"])
        a = np.array([lab in obs["event"] for lab in labels])
        cond = np.where(a, p0, 0.0) / p0[a].sum()
        return (1.0 - x) * p0 + x * cond
    if lid == "boltzmann":
        v = [obs["values"][lab] for lab in belief["labels"]]
        return tempered(belief["probs"], v, x)
    if lid == "bayes":
        lik = np.asarray(params["model"]["likelihood"][obs["id"]])
        return tempered(belief["probs"], -np.log(lik), x)
    if lid == "ds":
        labels = belief["labels"]
        table = _mass_table(labels, belief["masses"])
        return dempster_simple(table, _mask(labels, obs["event"]), x)
    if lid == "max-graded":
        grades = dict(belief["entries"])
        grades[obs["id"]] = max(grades[obs["id"]], x)
        return grades
    if lid == "kalman":
        mean, var, z = belief["mean"], belief["var"], obs["z"]
        if x == "bot":
            return (mean, var)
        if x == "top":
            return (z, 0.0)
        k, r2 = x["K"], x["r2"]
        return (mean + k * (z - mean), r2 if k == 1.0 else (1.0 - k) ** 2 * var + k * k * r2)
    if lid == "classifier":
        steps = 0 if x == "bot" else int(x)
        return softmax_steps(
            belief["values"], obs["x"], obs["y"], params.get("n_classes", 2), steps
        )
    raise ValueError(lid)


def _sweep_gap(cfg: dict, lid: str, header, data, xs) -> float:
    if len(data) != len(xs):
        return math.inf
    belief = cfg["belief"]
    if lid in ("interp", "boltzmann", "bayes"):
        got = _columns(header, data, belief["labels"])
        return max(tv(g, learn_reference(cfg, lid, x)) for g, x in zip(got, xs))
    if lid == "ds":
        labels = belief["labels"]
        col = header.index("state")
        gap = 0.0
        for row, x in zip(data, xs):
            state = json.loads(row[col])
            got = _mass_table(labels, state["masses"])
            ref = learn_reference(cfg, lid, x)
            keys = set(got) | set(ref)
            gap = max(gap, 0.5 * sum(abs(got.get(s, 0.0) - ref.get(s, 0.0)) for s in keys))
        return gap
    if lid == "max-graded":
        keys = sorted(belief["entries"])
        got = _columns(header, data, keys)
        refs = [[learn_reference(cfg, lid, x)[k] for k in keys] for x in xs]
        return _rel_gap(got, refs)
    if lid == "kalman":
        got = _columns(header, data, ["mean", "var"])
        return _rel_gap(got, [learn_reference(cfg, lid, x) for x in xs])
    got = _columns(header, data, [h for h in header if h.startswith("p")])
    return _rel_gap(got, [learn_reference(cfg, lid, x) for x in xs])


def _combined(lid: str, items) -> object:
    """One confidence equal to applying a list lift's items in order."""
    if lid == "classifier":
        return sum(int(v) for v in items)
    vals = [_scalar(v, lid) for v in items]
    if lid in ("interp", "ds"):
        return 1.0 - float(np.prod([1.0 - v for v in vals]))
    if lid == "max-graded":
        return max(vals)
    return float(sum(vals))


def check_learn(job, out: Outcome) -> Verdict:
    lid = job.expect["learner"]
    cfg = job.config
    grid = cfg["confidence_grid"]
    if job.kind == "learn.@list":
        if out.code == 3 and "has no flat CSV representation" in out.stderr:
            return _known("list-learn-csv")
        xs = [g if g in ("bot", "top") else _combined(lid, g) for g in grid]
    else:
        xs = grid
    bad = _expect_exit(out)
    if bad:
        return bad
    if lid not in ("kalman", "classifier"):
        xs = [_scalar(x, lid) for x in xs]
    header, data = read_csv(os.path.join(out.outdir, "out.csv"))
    gap = _sweep_gap(cfg, lid, header, data, xs)
    return OK if gap <= LEARN_TOL else _fail(f"sweep row off reference by {gap:.3g}")


# ---------------------------------------------------------------------------
# trotter and equiv


def check_trotter(job, out: Outcome) -> Verdict:
    bad = _expect_exit(out)
    if bad:
        return bad
    with open(os.path.join(out.outdir, "out.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    ns = job.config["n_values"]
    ratios = report["ratios"]
    if sorted(ratios, key=int) != [str(n) for n in ns[:-1]]:
        return _fail("missing interleaving ratios")
    lo, hi = TROTTER_BAND
    off = {n: r for n, r in ratios.items() if not lo <= r <= hi}
    if off:
        return _fail(f"ratio outside [{lo}, {hi}]: {off}")
    belief = job.config["belief"]
    ref = interp_rk4(belief["probs"], job.expect["events"], [1.0, 1.0], [job.config["chi"]])[0]
    gap = tv(report["reference"]["probs"], ref)
    return OK if gap <= FLOW_TOL else _fail(f"parallel reference TV {gap:.3g}")


def check_equiv(job, out: Outcome) -> Verdict:
    bad = _expect_exit(out)
    if bad:
        return bad
    with open(os.path.join(out.outdir, "out.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("passed") is not True or report.get("experiment") != job.config["experiment"]:
        return _fail("experiment artifact does not report a pass")
    return OK


# ---------------------------------------------------------------------------
# domain algebra (in-process)


_DOM_TOP = {"frac": 1.0, "add": math.inf, "max": 1.0, "count": math.inf}


def _dom_float(v, dom: str):
    if v.kind == "bot":
        return (0.0, math.inf) if dom == "kalman" else 0.0
    if v.kind == "top":
        return (1.0, 0.0) if dom == "kalman" else _DOM_TOP[dom]
    return tuple(v.payload) if dom == "kalman" else float(v.payload)


def _compose(first, then):
    """(K, r2) equal to updating with ``first`` and then ``then``."""
    k1, v1 = first
    k2, v2 = then
    k3 = k1 + k2 - k1 * k2
    if k3 == 0.0:
        return (0.0, v1)
    t1 = k2 * k2 * v2 if k2 > 0.0 else 0.0
    w = k1 * (1.0 - k2)
    t2 = w * w * v1 if w > 0.0 else 0.0
    return (k3, (t1 + t2) / (k3 * k3))


def _op(dom: str, x, acc):
    if dom == "frac":
        return x + acc - x * acc
    if dom in ("add", "count"):
        return x + acc
    if dom == "max":
        return max(x, acc)
    return x if acc[0] == 0.0 else _compose(acc, x)


def check_domain(job, out: Outcome) -> Verdict:
    if out.error:
        return _fail(f"exception: {out.error}")
    dom = job.config["domain"]
    worst = 0.0
    for acc, v, new, delta, back, leq in out.value:
        a, x, n = (_dom_float(c, dom) for c in (acc, v, new))
        if delta is None or back is None or not leq:
            return _fail("no residual between a chain value and its successor")
        worst = max(worst, _rel_gap(n, _op(dom, x, a)), _rel_gap(_dom_float(back, dom), n))
    return OK if worst <= LAW_TOL else _fail(f"domain law off by {worst:.3g}")


def check_chart(job, out: Outcome) -> Verdict:
    if out.error:
        return _fail(f"exception: {out.error}")
    cfg = job.config
    worst = near_top = 0.0
    for beta, (s_back, t_back, hom) in zip(cfg["betas"], out.value):
        worst = max(worst, float(np.abs(np.asarray(s_back) - cfg["s"]).max()))
        ts = 10.0 * np.asarray(cfg["u"]) / beta
        worst = max(worst, float(np.abs(np.asarray(t_back) - ts).max()))
        for (a, b), (via_add, via_frac) in zip(cfg["pairs"], hom):
            rest = (1.0 - a) * (1.0 - b)
            gap = max(abs(via_add - via_frac), abs(via_frac + math.log(rest) / beta))
            if rest < 1e-5:
                near_top = max(near_top, gap)
            else:
                worst = max(worst, gap)
    if worst > LAW_TOL or near_top > 1e-8:
        return _fail(f"chart law off by {max(worst, near_top):.3g}")
    return OK if near_top <= LAW_TOL else _known("frac-combine-near-top")


# ---------------------------------------------------------------------------
# law suite


def _check_report(job, out: Outcome) -> Verdict:
    if out.error:
        return _fail(f"exception: {out.error}")
    report = out.value
    lid, axiom = job.config["learner"], job.config["axiom"]
    if report.learner_id != lid or report.axiom_id != axiom:
        return _fail("report names another check")
    if lid in MUTANT_IDS or report.passed:
        return OK
    return _fail(f"{lid} fails {axiom}: worst {report.worst_violation:.3g}")


def check_round(jobs, outcomes) -> List[Verdict]:
    """Verdicts for one round; mutants must fail at least one of their checks."""
    verdicts = [CHECKERS[job.command](job, out) for job, out in zip(jobs, outcomes)]
    caught: Dict[str, bool] = {}
    for job, out in zip(jobs, outcomes):
        if job.command == "check" and job.config["learner"] in MUTANT_IDS:
            key = job.id.rsplit(".", 1)[0]
            failed = out.value is not None and not out.value.passed
            caught[key] = caught.get(key, False) or failed
    for i, job in enumerate(jobs):
        key = job.id.rsplit(".", 1)[0]
        if verdicts[i].ok and caught.get(key) is False:
            verdicts[i] = _fail(f"{job.config['learner']} passes every law")
    return verdicts


CHECKERS = {
    "combine": check_combine,
    "learn": check_learn,
    "trotter": check_trotter,
    "equiv": check_equiv,
    "domain": check_domain,
    "chart": check_chart,
    "check": _check_report,
}
