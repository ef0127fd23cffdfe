"""conflearn benchmark: closed-loop workloads through the CLI and the law suite.

    python3 bench/run.py --workload flow-parallel --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  One
process, one thread: each job starts when the previous one returns.  Jobs are
generated from ``--seed`` round by round, and each round's configs are
written before the round is timed.  Lap 0 runs the number of rounds that
``jobs.rounds_per_lap`` works out from ``--seconds``; a second lap replays
those jobs.  After each job, untimed, a fixed kernel measures the box's
speed (``Calibration``), and a job's latency is the faster of its two runs,
each taken at the reference speed.  Every job's output is then checked
against the benchmark's own reference (``refs.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
rounds untraced, then traced (``tracer.py``), then the first round traced
again, and prints the per-layer metrics, after checking that the traced
counters repeat exactly and that every artifact is byte-identical across the
three passes.  The last stdout line is the result object; the line before it
is the run record (job mix, failures, versions).  Records and span dumps are
kept under ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import jobs as jobgen
import refs
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
MIN_JOBS = 100  # so at least ten jobs lie beyond p90
LAPS = 2  # each job's latency is its fastest of this many runs
SETUP_REPEATS = 9
# Calibration kernel time on the 2-core box the benchmark was built on, in a
# fast spell: times are reported as if the box always ran at that speed.
REF_KERNEL_S = 1.5e-3
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import conflearn.cli
from conflearn.learners import available_learners, get_learner
from conflearn.mutants import get_mutants
for lid in available_learners():
    get_learner(lid)
get_mutants()
print(repr(time.perf_counter() - t0))
"""


def import_library():
    """Import conflearn from this checkout's src/ and nowhere else."""
    init = os.path.join(SRC, "conflearn", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"bench: no conflearn sources at {init}")
    sys.path.insert(0, SRC)
    import conflearn
    from conflearn import axioms, cli, confidence, learners, mutants

    if os.path.realpath(conflearn.__file__) != os.path.realpath(init):
        raise SystemExit(f"bench: imported conflearn from {conflearn.__file__}, not {init}")
    return {"axioms": axioms, "cli": cli, "confidence": confidence,
            "learners": learners, "mutants": mutants}


# ---------------------------------------------------------------------------
# Running one job.


class Runner:
    """Executes jobs in-process; every library call goes through a module
    attribute so the tracer's patches apply."""

    def __init__(self, lib):
        self.lib = lib
        self.learners = {}

    def build_learners(self) -> None:
        learners, mutants = self.lib["learners"], self.lib["mutants"]
        out = {lid: learners.get_learner(lid) for lid in jobgen.REGISTERED}
        for lid in jobgen.LIFTABLE:
            out[f"{lid}@list"] = learners.lift_to_list(out[lid])
        out.update((m.id, m) for m in mutants.get_mutants())
        self.learners = out

    def __call__(self, job, outdir: str) -> refs.Outcome:
        try:
            if job.command == "check":
                cfg = job.config
                check_cfg = self.lib["axioms"].CheckConfig(seed=cfg["seed"], samples=cfg["samples"])
                report = self.lib["axioms"].check_axiom(
                    self.learners[cfg["learner"]], cfg["axiom"], check_cfg
                )
                return refs.Outcome(0, value=report)
            if job.command == "domain":
                return refs.Outcome(0, value=self._domain(job.config))
            if job.command == "chart":
                return refs.Outcome(0, value=self._chart(job.config))
            so, se = io.StringIO(), io.StringIO()
            with redirect_stdout(so), redirect_stderr(se):
                code = self.lib["cli"].main(
                    [job.command, "--config", job.config_path, "--output", outdir]
                )
            return refs.Outcome(code, so.getvalue(), se.getvalue(), outdir)
        except Exception as exc:  # a job that escapes the exit-code contract
            return refs.Outcome(None, outdir=outdir, error=repr(exc))

    def _domain(self, cfg):
        dom = self.lib["confidence"].get_domain(cfg["domain"])
        out = []
        for chain in cfg["chains"]:
            acc = dom.bot
            for x in chain:
                v = dom.value(tuple(x) if isinstance(x, list) else x)
                new = dom.combine(v, acc)
                delta = dom.residual(acc, new)
                back = None if delta is None else dom.combine(delta, acc)
                out.append((acc, v, new, delta, back, dom.leq(acc, new)))
                acc = new
        return out

    def _chart(self, cfg):
        conf = self.lib["confidence"]
        frac, add = conf.get_domain("frac"), conf.get_domain("add")
        out = []
        for beta in cfg["betas"]:
            s_back = [frac.to_float(conf.add_to_frac(beta, conf.frac_to_add(beta, s))) for s in cfg["s"]]
            t_back = [add.to_float(conf.frac_to_add(beta, conf.add_to_frac(beta, 10.0 * u / beta)))
                      for u in cfg["u"]]
            hom = []
            for a, b in cfg["pairs"]:
                via_add = add.combine(conf.frac_to_add(beta, a), conf.frac_to_add(beta, b))
                via_frac = conf.frac_to_add(beta, frac.combine(frac.value(a), frac.value(b)))
                hom.append((add.to_float(via_add), add.to_float(via_frac)))
            out.append((s_back, t_back, hom))
        return out


# ---------------------------------------------------------------------------
# Passes.


class Pass:
    """A closed-loop pass: the rounds of lap 0, then ``laps - 1`` replays.

    ``latencies`` holds each job's fastest run over the laps as measured,
    and ``scaled`` its fastest run at the reference speed; ``wall`` and
    ``round_walls`` are lap 0's.  ``mismatches`` lists jobs whose replay
    produced different artifacts than lap 0.
    """

    def __init__(self):
        self.rounds = []  # (jobs, lap-0 outcomes) per round
        self.latencies = []
        self.scaled = []
        self.round_walls = []
        self.wall = 0.0
        self.mismatches = []

    @property
    def jobs(self):
        return [j for js, _ in self.rounds for j in js]


def _write_round(jobs, root: str):
    dirs = []
    for job in jobs:
        d = os.path.join(root, job.id)
        os.makedirs(d)
        if job.command not in ("check", "domain", "chart"):
            job.config_path = os.path.join(d, "config.json")
            with open(job.config_path, "w", encoding="utf-8") as fh:
                json.dump(job.config, fh)
        dirs.append(os.path.join(d, "out"))
    return dirs


def _time_round(run_job, jobs, dirs, tracer, calibrate):
    """(outcomes, latencies, latencies at the reference speed).  A job is
    scaled by the calibration samples taken just before and after it."""
    outcomes, latencies, scaled = [], [], []
    before = calibrate.sample() if calibrate else None
    for job, outdir in zip(jobs, dirs):
        if tracer is not None:
            tracer.job = job.id
        t0 = perf_counter()
        outcomes.append(run_job(job, outdir))
        latencies.append(perf_counter() - t0)
        if calibrate is None:
            scaled.append(latencies[-1])
        else:
            after = calibrate.sample()
            scaled.append(latencies[-1] * calibrate.factor(before, after))
            before = after
    return outcomes, latencies, scaled


def run_pass(workload, seed, runner, root, n_rounds, laps=1,
             tracer=None, on_round=None, between=None, calibrate=None) -> Pass:
    """Lap 0 runs ``n_rounds`` rounds; later laps replay the same jobs in
    order.  ``between()`` runs untimed after every round of every lap, and
    ``calibrate``, if given, samples the box's speed around every job."""
    result = Pass()
    run_job = runner if tracer is None else tracer.wrap(runner, "bench.job")
    for r in range(n_rounds):
        round_jobs = jobgen.make_round(workload, seed, r)
        dirs = _write_round(round_jobs, os.path.join(root, f"round{r}"))
        outcomes, latencies, scaled = _time_round(run_job, round_jobs, dirs, tracer, calibrate)
        result.latencies.extend(latencies)
        result.scaled.extend(scaled)
        result.round_walls.append(sum(latencies))
        result.wall += sum(latencies)
        result.rounds.append((round_jobs, outcomes))
        if on_round is not None:
            on_round(r)
        if between is not None:
            between()
    for lap in range(1, laps):
        i = 0
        for round_jobs, first in result.rounds:
            dirs = [out.outdir + str(lap) if out.outdir else "" for out in first]
            outcomes, latencies, scaled = _time_round(run_job, round_jobs, dirs, tracer, calibrate)
            for job, a, b, t, ts in zip(round_jobs, first, outcomes, latencies, scaled):
                result.latencies[i] = min(result.latencies[i], t)
                result.scaled[i] = min(result.scaled[i], ts)
                i += 1
                if fingerprint(job, a) != fingerprint(job, b):
                    result.mismatches.append(job.id)
            if between is not None:
                between()
    return result


def fingerprint(job, out: refs.Outcome) -> str:
    """Digest of everything a job produced: stdout, artifacts, return value."""
    h = hashlib.sha256()
    h.update(f"{out.code}|{out.error}|{out.stdout}".encode())
    if out.value is not None:
        value = out.value.to_dict() if hasattr(out.value, "to_dict") else out.value
        h.update(repr(value).encode())
    if out.outdir and os.path.isdir(out.outdir):
        for name in sorted(os.listdir(out.outdir)):
            with open(os.path.join(out.outdir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def artifact_bytes(out: refs.Outcome) -> int:
    if not out.outdir or not os.path.isdir(out.outdir):
        return 0
    return sum(os.path.getsize(os.path.join(out.outdir, n)) for n in os.listdir(out.outdir))


# ---------------------------------------------------------------------------
# Metrics.


_KERNEL_EVENTS = np.array([[1, 1, 0, 0, 1, 0, 1, 0, 0],
                           [0, 1, 1, 0, 0, 1, 1, 1, 0],
                           [1, 0, 0, 1, 1, 0, 0, 1, 1]], dtype=float)
_KERNEL_WEIGHTS = np.array([0.5, 1.0, 0.7])


@dataclass(frozen=True)
class _Simplex:
    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.labels),) or (p < 0.0).any():
            raise ValueError("bad simplex")
        object.__setattr__(self, "probs", p / p.sum())


class Calibration:
    """The box's speed, sampled untimed after every job.

    On a shared box co-tenants change a core's speed by up to 1.6x, in spells
    of about ten seconds and in drifts over tens of minutes.  The kernel does
    the kind of work conflearn's time goes to, in code of its own that no
    change to the library can move: Euler steps of a summed interp field on a
    9-world simplex, each wrapped in a validated frozen dataclass and
    rendered to JSON.  A sample is the faster of two back-to-back runs.
    """

    def __init__(self):
        self.times = []

    def sample(self) -> float:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        self.times.append(best)
        return best

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Takes a time measured between two samples to the reference speed."""
        return 2.0 * REF_KERNEL_S / (before + after)

    @staticmethod
    def _kernel() -> None:
        s = _Simplex(tuple(f"w{i}" for i in range(9)), np.linspace(1.0, 2.0, 9))
        m, w = _KERNEL_EVENTS, _KERNEL_WEIGHTS
        for _ in range(60):
            p = s.probs
            field = p * (m.T @ (w / (m @ p))) - w.sum() * p
            s = _Simplex(s.labels, np.clip(p + 1e-3 * field, 0.0, None))
            json.dumps({"labels": list(s.labels), "probs": s.probs.tolist()})


class SetupSampler:
    """Fresh-interpreter set-up times, sampled between rounds so that the
    samples spread over the run instead of sharing one moment's machine
    load.  Each is also taken at the reference speed, from the calibration
    samples just before and after it.  The first run only warms the .pyc
    files."""

    def __init__(self, calibrate: Calibration, repeats: int = SETUP_REPEATS):
        self.calibrate = calibrate
        self.repeats = repeats
        self.times = []
        self.scaled = []
        self._one()
        self.times.clear()
        self.scaled.clear()

    def _one(self) -> None:
        before = self.calibrate.sample()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=120,
        )
        t = float(proc.stdout.strip().splitlines()[-1])
        self.times.append(t)
        self.scaled.append(t * self.calibrate.factor(before, self.calibrate.sample()))

    def maybe(self) -> None:
        if len(self.times) < self.repeats:
            self._one()

    def median(self, scaled: bool = True) -> float:
        while len(self.times) < self.repeats:
            self._one()
        return statistics.median(self.scaled if scaled else self.times)


def end_to_end(p: Pass, verdicts, setup_s: float, scaled: bool = True) -> dict:
    """End-to-end metrics, at the reference speed unless ``scaled`` is off
    (``setup_s`` is passed in scaled or not to match)."""
    lat_ms = np.asarray(p.scaled if scaled else p.latencies) * 1000.0
    ok = sum(v.ok for v in verdicts)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "jobs_per_s": {"value": len(lat_ms) / (lat_ms.sum() / 1000.0), "unit": "1/s"},
        "job_ms_p50": {"value": float(np.median(lat_ms)), "unit": "ms"},
        "job_ms_p90": {"value": float(np.percentile(lat_ms, 90)), "unit": "ms"},
        "ok_frac": {"value": ok / len(verdicts), "unit": "ratio"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def per_layer(tr, traced: Pass, untraced: Pass, bytes_written: int) -> dict:
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("confidence.calls", tr.calls("confidence"), "count")
    put("confidence.self_s", tr.self_s("confidence"), "s")
    put("confidence.combine.calls", tr.calls("confidence.combine"), "count")
    put("confidence.residual.calls", tr.calls("confidence.residual"), "count")
    put("beliefs.construct.calls", tr.calls("beliefs.construct"), "count")
    put("beliefs.construct.self_s", tr.self_s("beliefs.construct"), "s")
    put("beliefs.distance.calls", tr.calls("beliefs.distance"), "count")
    put("beliefs.self_s", tr.self_s("beliefs"), "s")
    put("learners.observe.calls", tr.calls("learners.observe"), "count")
    put("learners.observe.self_s", tr.self_s("learners.observe"), "s")
    observe = {k[len("learners.observe."):]: v[2] for k, v in tr.agg.items()
               if k.startswith("learners.observe.")}
    for lid in jobgen.REGISTERED:
        put(f"learners.observe.{lid}.self_s", observe.get(lid, 0.0), "s")
    put("learners.observe.list.self_s",
        sum(v for k, v in observe.items() if k.endswith("@list")), "s")
    put("learners.observe.mutants.self_s",
        sum(v for k, v in observe.items() if k in jobgen.MUTANT_IDS), "s")
    put("learners.classifier.steps", tr.counts.get("learners.classifier.steps", 0), "count")
    tl_calls = tr.calls("learners.train_limit")
    put("learners.train_limit.calls", tl_calls, "count")
    put("learners.train_limit.self_s", tr.self_s("learners.train_limit"), "s")
    converged = tr.counts.get("learners.train_limit.converged", 0)
    put("learners.train_limit.converged_ratio", converged / tl_calls if tl_calls else 0.0, "ratio")
    put("learners.self_s", tr.self_s("learners"), "s")
    rebuilds = tr.calls("flows.rebuild")
    for part in ("field_eval", "tangent", "rebuild", "integrate"):
        put(f"flows.{part}.calls", tr.calls(f"flows.{part}"), "count")
        put(f"flows.{part}.self_s", tr.self_s(f"flows.{part}"), "s")
    put("flows.clipped_mass", tr.counts.get("flows.clipped_mass", 0.0), "prob")
    outer = tr.counts.get("flows.field_eval.outer", 0)
    put("flows.evals_per_rebuild", outer / rebuilds if rebuilds else 0.0, "ratio")
    put("flows.trotter.self_s", tr.self_s("flows.trotter"), "s")
    put("flows.gradient.self_s", tr.self_s("flows.gradient"), "s")
    put("flows.self_s", tr.self_s("flows"), "s")
    for axiom in jobgen.AXIOM_IDS:
        put(f"axioms.{axiom}.s", tr.inclusive_s(f"axioms.{axiom}"), "s")
    put("axioms.observe_calls", tr.counts.get("axioms.observe_calls", 0), "count")
    checks = [s for s in tr.spans if s[0].startswith("axioms.")]
    put("axioms.check_s_max", max((s[2] - s[1] for s in checks), default=0.0), "s")
    put("axioms.self_s", tr.self_s("axioms"), "s")
    put("cli.self_s", tr.self_s("cli"), "s")
    put("cli.bytes_written", bytes_written, "B")
    put("bench.self_s", tr.self_s("bench"), "s")
    put("trace_overhead", traced.wall / untraced.wall, "ratio")
    return m


def checked_counters(tr) -> dict:
    return {
        "flows.field_eval.calls": tr.calls("flows.field_eval"),
        "flows.rebuild.calls": tr.calls("flows.rebuild"),
        "beliefs.construct.calls": tr.calls("beliefs.construct"),
        "learners.classifier.steps": tr.counts.get("learners.classifier.steps", 0),
        "axioms.observe_calls": tr.counts.get("axioms.observe_calls", 0),
    }


def job_mix(p: Pass, workload: str) -> dict:
    jobs = p.jobs
    lat = p.latencies
    total = sum(lat)
    mix = {
        "jobs": len(jobs),
        "rounds": len(p.rounds),
        "jobs_per_kind": dict(sorted(Counter(j.kind for j in jobs).items())),
        "size_histogram": {
            kind: dict(sorted(Counter(j.size for j in jobs if j.kind == kind and j.size).items()))
            for kind in sorted({j.kind for j in jobs if j.size})
        },
        "p90_beyond": int(np.sum(np.asarray(lat) > np.percentile(lat, 90))),
    }
    if workload == "flow-parallel":
        top = sum(t for j, t in zip(jobs, lat) if j.kind == "combine.interp-top")
        mix["top_wall_share"] = top / total
    if workload == "law-suite":
        i = int(np.argmax(lat))
        mix["slowest_check"] = {"id": jobs[i].id, "share": lat[i] / total, "s": lat[i]}
    return mix


# ---------------------------------------------------------------------------
# Entry point.


def check_pass(p: Pass):
    verdicts = []
    for round_jobs, outcomes in p.rounds:
        verdicts.extend(refs.check_round(round_jobs, outcomes))
    return verdicts


def summarize_failures(jobs, verdicts):
    """(unexpected failures by reason, known defects by key)."""
    failures = Counter()
    known = Counter()
    for job, v in zip(jobs, verdicts):
        if v.known:
            known[v.reason] += 1
        elif not v.ok:
            failures[f"{job.kind}: {v.reason}"] += 1
    return dict(failures), dict(known)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    lib = import_library()

    os.makedirs(RUN_DIR, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(RUN_DIR, f"work-{tag}-{os.getpid()}")
    try:
        return _run(args, lib, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, lib, work, tag) -> int:
    started = time.time()
    calibrate = None if args.trace else Calibration()
    setup = None if args.trace else SetupSampler(calibrate)
    runner = Runner(lib)
    if args.workload == "law-suite":
        runner.build_learners()
    base = run_pass(args.workload, args.seed, runner, os.path.join(work, "untraced"),
                    jobgen.rounds_per_lap(args.workload, args.seconds / LAPS, MIN_JOBS),
                    laps=1 if args.trace else LAPS, between=setup.maybe if setup else None,
                    calibrate=calibrate)
    verdicts = check_pass(base)
    jobs = base.jobs

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "untraced_wall_s": base.wall,
        "round_walls_s": base.round_walls,
        "mix": job_mix(base, args.workload),
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    failures, known = summarize_failures(jobs, verdicts)
    if base.mismatches:
        failures["replayed job changed its artifacts"] = len(base.mismatches)
    record["failures"] = failures
    record["known_defects"] = {k: {"jobs": n, "what": refs.KNOWN_DEFECTS[k]} for k, n in known.items()}
    correct = not failures

    if not args.trace:
        metrics = end_to_end(base, verdicts, setup.median())
        measured = end_to_end(base, verdicts, setup.median(scaled=False), scaled=False)
        record["measured"] = {k: v["value"] for k, v in measured.items()}
        record["calibration"] = {"median_s": statistics.median(calibrate.times),
                                 "samples": len(calibrate.times)}
        record["setup_samples_s"] = setup.times
    else:
        n_rounds = len(base.rounds)
        snap = {}
        tr = Tracer()
        tr.install()
        try:
            if args.workload == "law-suite":
                runner.build_learners()
            traced = run_pass(args.workload, args.seed, runner, os.path.join(work, "traced"),
                              n_rounds=n_rounds, tracer=tr,
                              on_round=lambda r: snap.setdefault(r, checked_counters(tr)))
        finally:
            tr.uninstall()
        tr2 = Tracer()
        tr2.install()
        try:
            if args.workload == "law-suite":
                runner.build_learners()
            again = run_pass(args.workload, args.seed, runner, os.path.join(work, "again"),
                             n_rounds=1, tracer=tr2)
        finally:
            tr2.uninstall()

        problems = []
        if checked_counters(tr2) != snap[0]:
            problems.append(f"traced counters differ between runs: {snap[0]} vs {checked_counters(tr2)}")
        for name, other in (("traced", traced), ("traced again", again)):
            for (js, a), (_, b) in zip(base.rounds, other.rounds):
                for job, x, y in zip(js, a, b):
                    if fingerprint(job, x) != fingerprint(job, y):
                        problems.append(f"{name} artifacts differ from untraced for {job.id}")
        if problems:
            correct = False
            record["failures"]["determinism"] = problems[:10]
        bytes_written = sum(artifact_bytes(o) for _, outs in traced.rounds for o in outs)
        metrics = per_layer(tr, traced, base, bytes_written)
        slowest = max((s for s in tr.spans if s[0].startswith("axioms.")),
                      key=lambda s: s[2] - s[1], default=None)
        record["traced_wall_s"] = traced.wall
        record["checked_counters"] = snap[0]
        record["layer_self_s"] = {layer: tr.self_s(layer) for layer in LAYERS}
        record["slowest_traced_check"] = None if slowest is None else {
            "learner": slowest[5], "axiom": slowest[0].split(".", 1)[1], "s": slowest[2] - slowest[1]}
        tr.dump(os.path.join(RUN_DIR, f"trace-{tag}.json"), {"workload": args.workload, "seed": args.seed})

    record["elapsed_s"] = time.time() - started
    with open(os.path.join(RUN_DIR, f"record-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": sum(1 for v in verdicts if not v.ok and not v.known),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
