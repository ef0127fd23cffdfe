"""Self-tests for the benchmark's generator and output checkers.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Each checker must accept the library's real output and refuse the same
output perturbed: a final state moved by 1e-4, or a wrong exit code.
"""

import copy
import csv
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs as jobgen  # noqa: E402
import refs  # noqa: E402
from run import Runner, _write_round, import_library  # noqa: E402

LIB = import_library()


def _configs(round_jobs):
    return json.dumps([(j.id, j.kind, j.config, j.expect) for j in round_jobs], sort_keys=True)


@pytest.mark.parametrize("workload", jobgen.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    first = _configs(jobgen.make_round(workload, 7, 2))
    assert first == _configs(jobgen.make_round(workload, 7, 2))
    assert first != _configs(jobgen.make_round(workload, 8, 2))
    assert first != _configs(jobgen.make_round(workload, 7, 3))


def test_law_suite_round_covers_every_pair():
    round_jobs = jobgen.make_round("law-suite", 5, 0)
    pairs = {(j.config["learner"], j.config["axiom"]) for j in round_jobs}
    assert len(round_jobs) == len(pairs) == 21 * 10


def _run_jobs(tmp_path, round_jobs):
    dirs = _write_round(round_jobs, str(tmp_path))
    runner = Runner(LIB)
    if any(j.command == "check" for j in round_jobs):
        runner.build_learners()
    return [runner(j, d) for j, d in zip(round_jobs, dirs)]


def _perturb_last_row(outdir, name="out.csv", column=-1, delta=1e-4):
    path = os.path.join(outdir, name)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[-1][column] = repr(float(rows[-1][column]) + delta)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _pick(workload, kinds, seed=3):
    out = {}
    r = 0
    while len(out) < len(kinds):
        for job in jobgen.make_round(workload, seed, r):
            if job.kind in kinds and job.kind not in out:
                out[job.kind] = job
        r += 1
    return [out[k] for k in kinds]


FLOW_KINDS = ["combine.boltzmann", "combine.bayes", "combine.interp-overlap",
              "combine.interp-pair", "combine.interp-top", "combine.max-graded"]
LEARN_KINDS = ["learn.interp", "learn.ds", "learn.kalman", "learn.boltzmann",
               "learn.bayes", "learn.max-graded", "learn.classifier"]


@pytest.mark.parametrize("workload,kinds", [
    ("flow-parallel", FLOW_KINDS),
    ("sequential-updates", LEARN_KINDS + ["trotter"]),
])
def test_artifact_checkers_catch_a_moved_final_state(tmp_path, workload, kinds):
    picked = _pick(workload, kinds)
    outcomes = _run_jobs(tmp_path, picked)
    for job, out in zip(picked, outcomes):
        assert refs.CHECKERS[job.command](job, out).ok, job.kind
        if job.command == "trotter":
            path = os.path.join(out.outdir, "out.json")
            with open(path) as fh:
                report = json.load(fh)
            report["reference"]["probs"][0] += 1e-4
            report["reference"]["probs"][1] -= 1e-4
            with open(path, "w") as fh:
                json.dump(report, fh)
        elif job.kind == "learn.ds":
            path = os.path.join(out.outdir, "out.csv")
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            col = rows[0].index("state")
            state = json.loads(rows[-1][col])
            key = next(iter(state["masses"]))
            state["masses"][key] += 2e-4
            rows[-1][col] = json.dumps(state)
            with open(path, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        else:
            # sweeps end with the bel column; trajectories with a coordinate
            _perturb_last_row(out.outdir, column=-2 if job.command == "learn" else -1)
        assert not refs.CHECKERS[job.command](job, out).ok, job.kind


@pytest.mark.parametrize("kind", FLOW_KINDS[:1] + ["learn.interp", "equiv.kalman-sequential"])
def test_checkers_refuse_a_wrong_exit_code(tmp_path, kind):
    workload = "flow-parallel" if kind.startswith("combine") else "sequential-updates"
    job = _pick(workload, [kind])[0]
    out = _run_jobs(tmp_path, [job])[0]
    assert refs.CHECKERS[job.command](job, out).ok
    for code in (1, 2, 3):
        wrong = copy.copy(out)
        wrong.code = code
        assert not refs.CHECKERS[job.command](job, wrong).ok


def test_list_learn_is_a_known_defect_only_with_its_message(tmp_path):
    job = _pick("sequential-updates", ["learn.@list"])[0]
    out = _run_jobs(tmp_path, [job])[0]
    verdict = refs.CHECKERS["learn"](job, out)
    assert not verdict.ok and verdict.known and verdict.reason == "list-learn-csv"
    other = copy.copy(out)
    other.stderr = "error: something else"
    assert not refs.CHECKERS["learn"](job, other).known


def test_domain_checkers_catch_moved_values(tmp_path):
    round_jobs = [j for j in jobgen.make_round("sequential-updates", 4, 0)
                  if j.command in ("domain", "chart")]
    outcomes = _run_jobs(tmp_path, round_jobs)
    frac = LIB["confidence"].get_domain("frac")
    for job, out in zip(round_jobs, outcomes):
        assert refs.CHECKERS[job.command](job, out).ok, job.kind
        bad = copy.copy(out)
        if job.command == "chart":
            s_back, t_back, hom = out.value[0]
            bad.value = [([s_back[0] + 1e-4] + s_back[1:], t_back, hom)] + out.value[1:]
        elif job.config["domain"] == "frac":
            acc, v, new, delta, back, leq = out.value[-1]
            moved = frac.value(frac.to_float(back) - 1e-4)
            bad.value = out.value[:-1] + [(acc, v, new, delta, moved, leq)]
        else:
            continue
        assert not refs.CHECKERS[job.command](job, bad).ok, job.kind


def test_law_checks_flag_failing_learners_and_toothless_mutants(tmp_path):
    picked = jobgen.suite_jobs(0, "t", learners=("interp", "mutant-l1-drift"))
    picked = [j for j in picked if j.config["axiom"] in ("L1", "L2")]
    outcomes = _run_jobs(tmp_path, picked)
    assert all(v.ok for v in refs.check_round(picked, outcomes))
    broken = [copy.copy(o) for o in outcomes]
    for o in broken:
        o.value = copy.copy(o.value)
    broken[0].value.passed = False  # interp L1
    broken[2].value.passed = True  # the mutant's only failing law
    verdicts = refs.check_round(picked, broken)
    assert not verdicts[0].ok and not verdicts[0].known
    assert not verdicts[2].ok and not verdicts[3].ok
