"""The conflearn command line: configs in, CSV/JSON out, honest exit codes."""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflearn import IntegratorConfig, cli, flows, learners
from conflearn.cli import main
from conflearn.identities import IDENTITIES


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, command, payload, *extra):
    cfg = write_config(tmp_path, f"{command}.json", payload)
    out = tmp_path / "out"
    return main([command, "--config", cfg, "--output", str(out), *extra])


def read_csv(tmp_path, name):
    with open(tmp_path / "out" / name, newline="") as fh:
        return list(csv.reader(fh))


KALMAN_SWEEP = {
    "learner": "kalman",
    "belief": {"kind": "gaussian", "mean": 0.0, "var": 4.0},
    "observation": {"z": 10.0},
    "confidence_grid": ["bot", {"K": 0.8, "r2": 1.0}, "top"],
}


# ---------------------------------------------------------------------------
# learn


def test_learn_kalman_gain_sweep(tmp_path, capsys):
    assert run_cli(tmp_path, "learn", KALMAN_SWEEP) == 0
    rows = read_csv(tmp_path, "learn_kalman.csv")
    assert rows[0] == ["K", "r2", "mean", "var", "bel"]
    means = [float(r[2]) for r in rows[1:]]
    assert means == [0.0, 8.0, 10.0]
    final = json.loads(capsys.readouterr().out)
    assert final["final"]["mean"] == 10.0


def test_learn_interp_pinned_rows(tmp_path):
    cfg = {
        "learner": "interp",
        "belief": {"kind": "simplex", "probs": {"a": 0.5, "b": 0.3, "c": 0.2}},
        "observation": {"event": ["a", "b"]},
        "confidence_grid": [0.0, 0.5, 1.0],
    }
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 0
    rows = read_csv(tmp_path, "learn_interp.csv")
    got = np.array([[float(x) for x in r[1:4]] for r in rows[1:]])
    expect = [[0.5, 0.3, 0.2], [0.5625, 0.3375, 0.1], [0.625, 0.375, 0.0]]
    assert np.allclose(got, expect, atol=1e-12)


def test_learn_bot_only_grid_is_identity(tmp_path):
    cfg = {
        "learner": "interp",
        "belief": {"kind": "simplex", "probs": {"a": 0.6, "b": 0.4}},
        "observation": {"event": ["a"]},
        "confidence_grid": ["bot"],
    }
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 0
    rows = read_csv(tmp_path, "learn_interp.csv")
    assert [float(x) for x in rows[1][1:3]] == [0.6, 0.4]


def test_learn_csv_floats_round_trip(tmp_path):
    cfg = {
        "learner": "interp",
        "belief": {"kind": "simplex", "probs": {"a": 1 / 3, "b": 2 / 3}},
        "observation": {"event": ["a"]},
        "confidence_grid": [1 / 7],
    }
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 0
    rows = read_csv(tmp_path, "learn_interp.csv")
    assert float(rows[1][0]) == 1 / 7  # 17 significant digits are lossless


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "learn.json", KALMAN_SWEEP)
    assert main(["learn", "--config", cfg, "--output", str(tmp_path / "a"), "--quiet"]) == 0
    assert main(["learn", "--config", cfg, "--output", str(tmp_path / "b"), "--quiet"]) == 0
    a = (tmp_path / "a" / "learn_kalman.csv").read_bytes()
    b = (tmp_path / "b" / "learn_kalman.csv").read_bytes()
    assert a == b


# ---------------------------------------------------------------------------
# combine


def test_combine_contradiction_limit(tmp_path, capsys):
    cfg = {
        "learner": "interp",
        "belief": {"kind": "simplex", "probs": {"a": 0.8, "b": 0.1, "c": 0.1}},
        "observations": [{"event": ["a"]}, {"event": ["b", "c"]}],
        "t": "top",
    }
    assert run_cli(tmp_path, "combine", cfg) == 0
    final = json.loads(capsys.readouterr().out)["final"]["probs"]
    assert np.allclose(final, [0.5, 0.25, 0.25], atol=1e-6)


@pytest.mark.parametrize("t", [1.0, "top"])
def test_combine_csv_quotes_labels(tmp_path, t):
    labels = ["a,b", 'c"d']
    cfg = {
        "learner": "interp",
        "belief": {"kind": "simplex", "probs": dict(zip(labels, [0.6, 0.4]))},
        "observations": [{"event": ["a,b"]}],
        "t": t,
        "step_out": 0.5,
    }
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 0
    rows = read_csv(tmp_path, "combine_interp.csv")
    assert rows[0] == ["t"] + labels
    assert len(rows) == (4 if t == 1.0 else 3)  # header, start, samples or the limit
    assert all(len(row) == len(rows[0]) for row in rows)
    assert [float(x) for x in rows[1]] == [0.0, 0.6, 0.4]


def test_combine_unsupported_learner_exits_3(tmp_path):
    cfg = {
        "learner": "ds",
        "belief": {
            "kind": "mass",
            "labels": ["a", "b"],
            "masses": {"a": 0.7, "b": 0.3},
        },
        "observations": [{"event": ["a"]}],
        "t": 1.0,
    }
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 3


# ---------------------------------------------------------------------------
# trotter


def test_trotter_ratios_near_half(tmp_path):
    cfg = {
        "learner": "interp",
        "belief": {
            "kind": "simplex",
            "probs": {"a": 0.5, "b": 0.2, "c": 0.2, "d": 0.1},
        },
        "observations": [{"event": ["a", "b"]}, {"event": ["b", "c"]}],
        "chi": 1.5,
        "n_values": [16, 32, 64],
    }
    assert run_cli(tmp_path, "trotter", cfg, "--quiet") == 0
    report = json.loads((tmp_path / "out" / "trotter.json").read_text())
    for ratio in report["ratios"].values():
        assert 0.3 <= ratio <= 0.7


# overlapping events: the reference takes the tilt flow
TROTTER_OVERLAP = {
    "learner": "interp",
    "belief": {"kind": "simplex", "probs": {"a": 0.5, "b": 0.3, "c": 0.2}},
    "observations": [{"event": ["a", "b"]}, {"event": ["b", "c"]}],
    "chi": 1.5,
}


@pytest.mark.parametrize(
    "extra",  # (config keys, step budget, stderr line)
    [
        ({"n_values": [1_000_000_000]}, 10_000_000, "interleaving takes 1000000000 rounds, more than max_steps=10000000"),
        # 16 + 32 rounds over a budget of 40
        ({"n_values": [16, 32, 16], "integrator": {"step": 0.1}}, 40, "interleaving takes 48 rounds, more than max_steps=40"),
        # the reference's tilt flow takes more than max_steps steps of its largest
        ({"chi": 1e308}, 10_000_000, "chi=1e+308 takes more than max_steps=10000000 steps of at most 1"),
    ],
)
def test_trotter_rounds_over_max_steps_exit_2(tmp_path, capsys, monkeypatch, extra):
    keys, budget, line = extra
    monkeypatch.setattr(flows, "_MAX_STEPS", budget)
    assert run_cli(tmp_path, "trotter", dict(TROTTER_OVERLAP, **keys), "--quiet") == 2
    assert capsys.readouterr().err == f"config error: {line}\n"


def test_trotter_reference_over_max_steps_names_chi(tmp_path, capsys):
    # the reference integrates to chi: its budget message names chi, not a time t
    assert run_cli(tmp_path, "trotter", dict(TROTTER_OVERLAP, chi=1e308), "--quiet") == 2
    err = capsys.readouterr().err
    assert err == "config error: chi=1e+308 takes more than max_steps=10000000 steps of at most 1\n"


@pytest.mark.parametrize(
    "extra", [{"n_values": [True, 2]}, {"chi": math.inf}, {"n_values": []}]
)
def test_trotter_bad_settings_exit_2(tmp_path, capsys, extra):
    cfg = {
        "learner": "interp",
        "belief": {"kind": "simplex", "probs": {"a": 0.6, "b": 0.4}},
        "observations": [{"event": ["a"]}, {"event": ["b"]}],
        "chi": 1.5,
        **extra,
    }
    assert run_cli(tmp_path, "trotter", cfg, "--quiet") == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trotter.json").exists()


def test_trotter_needs_two_observations(tmp_path):
    cfg = {
        "learner": "interp",
        "belief": {"kind": "simplex", "probs": {"a": 0.6, "b": 0.4}},
        "observations": [{"event": ["a"]}],
        "chi": 1.0,
    }
    assert run_cli(tmp_path, "trotter", cfg, "--quiet") == 2


# ---------------------------------------------------------------------------
# axioms


def test_axioms_pass_run(tmp_path, capsys):
    cfg = {"learners": ["interp"], "samples": 10}
    assert run_cli(tmp_path, "axioms", cfg) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # one line per check plus the summary
    assert sum("PASS" in l or "SKIP" in l for l in lines) == 10
    report = json.loads((tmp_path / "out" / "axioms.json").read_text())
    assert all(entry["passed"] for entry in report)


def test_axioms_mutant_failure_exits_1(tmp_path):
    cfg = {"learners": ["mutant-l5-square"], "samples": 10}
    assert run_cli(tmp_path, "axioms", cfg, "--quiet") == 1


def test_axioms_unliftable_request_exits_2(tmp_path):
    cfg = {"learners": ["kalman@list"], "samples": 10}
    assert run_cli(tmp_path, "axioms", cfg, "--quiet") == 2


def test_axioms_config_seed_names_the_streams(tmp_path):
    reports = []
    for d, seed in (("s1", 7), ("s2", 7), ("s3", 8)):
        cfg = write_config(tmp_path, f"{d}.json", {"learners": ["interp"], "samples": 10, "seed": seed})
        assert main(["axioms", "--config", cfg, "--output", str(tmp_path / d), "--quiet"]) == 0
        reports.append((tmp_path / d / "axioms.json").read_bytes())
    assert reports[0] == reports[1]
    assert reports[0] != reports[2]


# ---------------------------------------------------------------------------
# equiv


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_equiv_experiment_passes(tmp_path, capsys, name):
    artifacts = []
    for run, seed in enumerate((3, 3, 4)):
        cfg = write_config(tmp_path, f"equiv{run}.json", {"experiment": name, "samples": 40, "seed": seed})
        out = tmp_path / f"out{run}"
        assert main(["equiv", "--config", cfg, "--output", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True and report["experiment"] == name
        artifacts.append((out / f"equiv_{name}.json").read_bytes())
    assert artifacts[0] == artifacts[1]
    # every entry but the pinned trotter instance draws from the seed
    assert (artifacts[0] != artifacts[2]) == (name != "trotter-convergence")
    if name == "interp-vs-ds":
        assert report["illustration"]["interp_prob_a"] == pytest.approx(0.85)
        assert report["illustration"]["ds_prob_a"] == pytest.approx(0.8235294117647058)


@pytest.mark.parametrize(
    "command, settings",
    [
        ("axioms", {"samples": "x"}),
        ("axioms", {"seed": "x"}),
        ("axioms", {"seed": 1.5}),
        ("axioms", {"samples": 0}),
        ("axioms", {"samples": True}),
        ("axioms", {"seed": True}),
        ("axioms", {"samples": 2.5}),
        ("axioms", {"samples": "3"}),
        ("axioms", {"seed": math.nan}),
        ("equiv", {"experiment": "interp-vs-ds", "samples": -3}),
        ("equiv", {"experiment": "interp-vs-ds", "samples": "x"}),
        ("equiv", {"experiment": "bayes-boltzmann", "seed": "x"}),
        ("axioms", {"samples": -1}),
    ],
)
def test_bad_numeric_settings_exit_2(tmp_path, capsys, command, settings):
    cfg = dict(settings, learners=["interp"]) if command == "axioms" else settings
    assert run_cli(tmp_path, command, cfg, "--quiet") == 2
    (key,) = set(settings) - {"experiment"}
    assert capsys.readouterr().err.startswith(f"config error: {key!r} must be an integer above ")


@pytest.mark.parametrize(
    "key, fixed",
    [("tol", "1e-10"), ("lb_tol", "1e-05"), ("l2_ratio_bound", "10"), ("fd_step", "0.0001")],
)
def test_fixed_law_settings_exit_2(tmp_path, capsys, key, fixed):
    # the law tolerances and the difference step are constants: naming one,
    # even at its fixed value, is a config error rather than silently ignored
    for value in (float(fixed), 1e-6):
        assert run_cli(tmp_path, "axioms", {"learners": ["interp"], "samples": 1, key: value}, "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: axioms reads no key {key!r}; its keys are ")
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()


def test_equiv_unknown_experiment_exits_2(tmp_path):
    assert run_cli(tmp_path, "equiv", {"experiment": "nope"}, "--quiet") == 2


@pytest.mark.parametrize("experiment", [["interp-vs-ds"], {"name": "interp-vs-ds"}])
def test_equiv_experiment_must_be_a_name(tmp_path, capsys, experiment):
    assert run_cli(tmp_path, "equiv", {"experiment": experiment}, "--quiet") == 2
    assert "unknown experiment" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config plumbing


def test_unreadable_config_exits_2(tmp_path):
    out = tmp_path / "out"
    assert main(["learn", "--config", str(tmp_path / "missing.json"), "--output", str(out)]) == 2


def test_malformed_json_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["learn", "--config", str(bad), "--output", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(b'{"learners": ["interp"], "samples": 1, "x": "\xff"}', id="not-utf8"),
        # nested past the parser's recursion limit
        pytest.param(b'{"learners": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", id="deep-arrays"),
        pytest.param(b'{"learners": ' + b'{"a": ' * 100_000 + b"1" + b"}" * 100_000 + b"}", id="deep-objects"),
    ],
)
def test_a_config_that_does_not_parse_exits_2_with_one_line(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert main(["axioms", "--config", str(bad), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "is not valid JSON" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_unknown_learner_exits_2(tmp_path):
    cfg = {
        "learner": "nope",
        "belief": {"kind": "simplex", "probs": {"a": 1.0}},
        "observation": {"event": ["a"]},
    }
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys, request):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    request.addfinalizer(cli._build_parser.cache_clear)
    seen, emit = [], cli._emit

    def recording_emit(args, payload):
        seen.append((args.quiet, args.output))
        emit(args, payload)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "equiv.json", {"experiment": "kalman-sequential", "samples": 3})
    assert main(["equiv", "--config", cfg, "--output", "first", "--quiet"]) == 0
    assert built and capsys.readouterr().out == ""
    n_built = len(built)
    assert main(["equiv", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["experiment"] == "kalman-sequential"
    with pytest.raises(SystemExit) as exc:
        main(["nosuch", "--config", cfg])
    assert exc.value.code == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err
    assert len(built) == n_built  # every parser was built by the first call
    assert seen == [(True, "first"), (False, ".")]
    assert (tmp_path / "first" / "equiv_kalman-sequential.json").exists()
    assert (tmp_path / "equiv_kalman-sequential.json").exists()


@pytest.mark.parametrize(
    "cfg",
    [
        {"learner": "bayes", "learner_params": {"model": {"hypotheses": "ab", "likelihood": {"e": [0.5, 0.5]}}},
         "belief": {"kind": "simplex", "probs": {"a": 0.5, "b": 0.5}}, "observation": {"id": "e"}},
        {"learner": "interp", "belief": {"kind": "simplex", "labels": "ab", "probs": [0.5, 0.5]},
         "observation": {"event": ["a"]}},
        {"learner": "ds", "belief": {"kind": "mass", "labels": "ab", "masses": {"a": 0.5, "a|b": 0.5}},
         "observation": {"event": ["a"]}},
    ],
    ids=["bayes-hypotheses", "simplex-labels", "mass-labels"],
)
def test_learn_string_where_a_list_of_names_belongs_exits_2(tmp_path, capsys, cfg):
    # "ab" would otherwise be read as the worlds a and b
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "world labels must be a list of names, got 'ab'" in err
    assert not (tmp_path / "out").exists()


def test_console_script_entry_point(tmp_path):
    cfg = write_config(tmp_path, "learn.json", KALMAN_SWEEP)
    proc = subprocess.run(
        [sys.executable, "-m", "conflearn.cli", "learn", "--config", cfg,
         "--output", str(tmp_path / "out"), "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_python_m_conflearn_runs_the_cli(tmp_path):
    cfg = write_config(tmp_path, "learn.json", KALMAN_SWEEP)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "conflearn", "learn", "--config", cfg,
         "--output", str(tmp_path / "m"), "--quiet"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(["learn", "--config", cfg, "--output", str(tmp_path / "main"), "--quiet"]) == 0
    written = {p.name: p.read_bytes() for p in (tmp_path / "main").iterdir()}
    assert written and {p.name: p.read_bytes() for p in (tmp_path / "m").iterdir()} == written


# ---------------------------------------------------------------------------
# config mistakes exit 2 without a traceback


COMBINE_INTERP = {
    "learner": "interp",
    "belief": {"kind": "simplex", "probs": {"a": 0.8, "b": 0.1, "c": 0.1}},
    "observations": [{"event": ["a"]}, {"event": ["b", "c"]}],
    "t": 1.0,
}
# the same pair as a trotter config, which reads a chi and no t
TROTTER_INTERP = {**{k: v for k, v in COMBINE_INTERP.items() if k != "t"}, "chi": 1.0}
# an interp combine on overlapping events: the tilt flow at finite t, RK4 steps to top
COMBINE_OVERLAP = dict(COMBINE_INTERP, observations=[{"event": ["a", "b"]}, {"event": ["b", "c"]}])


def test_combine_step_budget_exits_2(tmp_path, capsys):
    for extra, bound in (
        ({}, "numbers"),  # 1e301 rows of samples every 0.1
        # one sample: the tilt flow's steps are at most 1 here, 1e300 of them
        ({"step_out": 1e300}, "steps of at most 1"),
    ):
        assert run_cli(tmp_path, "combine", dict(COMBINE_OVERLAP, t=1e300, **extra), "--quiet") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"more than max_steps=10000000 {bound}" in err


def test_combine_to_the_limit_with_a_step_that_cannot_move_exits_3(tmp_path, capsys):
    # c + 1e-300 * k rounds back to c: without the stall guard this ran all
    # 10^7 steps before NoLimitError
    cfg = dict(COMBINE_OVERLAP, t="top", integrator={"step": 1e-300})
    start = time.perf_counter()
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "does not move the state" in err and "Traceback" not in err


@pytest.mark.parametrize("step, shown", [(5e-324, "4.94066e-324"), (1e-305, "1e-305")])
def test_combine_to_the_limit_with_a_subnormal_step_exits_3(tmp_path, capsys, step, shown):
    # 1e4 / step overflows to inf: the step cap is taken before rounding
    cfg = dict(COMBINE_OVERLAP, t="top", integrator={"step": step})
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 3
    assert capsys.readouterr().err == (
        f"error: no limit: a step of {shown} does not move the state (field norm 0.711)\n"
    )


def test_the_step_budget_is_one_library_constant(tmp_path, capsys, monkeypatch):
    # the tilt flow and both checks of a trotter run's rounds read flows._MAX_STEPS
    monkeypatch.setattr(flows, "_MAX_STEPS", 12)
    assert run_cli(tmp_path, "combine", dict(COMBINE_OVERLAP, t=50, step_out=50), "--quiet") == 2
    assert capsys.readouterr().err == "config error: t=50 takes more than max_steps=12 steps of at most 1\n"
    monkeypatch.setattr(flows, "_MAX_STEPS", 47)
    assert run_cli(tmp_path, "trotter", dict(TROTTER_OVERLAP, n_values=[16, 32]), "--quiet") == 2
    assert capsys.readouterr().err == "config error: interleaving takes 48 rounds, more than max_steps=47\n"
    monkeypatch.setattr(flows, "_MAX_STEPS", 48)
    assert run_cli(tmp_path, "trotter", dict(TROTTER_OVERLAP, n_values=[16, 32]), "--quiet") == 0


BAYES_LEARN = {
    "learner": "bayes",
    "belief": {"kind": "simplex", "probs": {"h1": 0.5, "h2": 0.5}},
    "observation": {"id": "e"},
}


@pytest.mark.parametrize(
    "command, cfg, line",
    [
        ("combine", dict(COMBINE_OVERLAP, t=50, integrator={"max_steps": 12}),
         "integrator reads no key 'max_steps'; its keys are step"),
        ("trotter", dict(TROTTER_INTERP, n_values=[15_000_000], integrator={"max_steps": 20_000_000}),
         "integrator reads no key 'max_steps'; its keys are step"),
        ("learn", {"learner": "classifier", "learner_params": {"eta": 0.5},
                   "belief": {"kind": "params", "values": [0.0, 0.0, 0.0, 0.0]}, "observation": {"x": [0.5], "y": 0}},
         "learner_params reads no key 'eta'; its keys are n_classes, n_features"),
        ("learn", dict(BAYES_LEARN, learner_params={"model": {"hypotheses": ["h1", "h2"], "likelihod": {"e": [0.5, 1.0]}}}),
         "model reads no key 'likelihod'; its keys are hypotheses, likelihood"),
        ("learn", dict(BAYES_LEARN, learner_params={"model": ["x"]}),
         "'model' must be an object"),
        ("learn", {"learner": "interp", "learner_params": {"x": 1},
                   "belief": {"kind": "simplex", "probs": {"a": 0.6, "b": 0.4}}, "observation": {"event": ["a"]}},
         "learner_params reads no key 'x'; its keys are none"),
    ],
    ids=["integrator-combine", "integrator-trotter", "classifier-eta", "model-typo", "model-list", "interp-params"],
)
def test_a_nested_config_object_names_its_unknown_key(tmp_path, capsys, command, cfg, line):
    # integrator, learner_params and a Bayes model refuse keys as the top level does
    assert run_cli(tmp_path, command, cfg, "--quiet") == 2
    assert capsys.readouterr().err == f"config error: {line}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "learner, observations",
    [
        ("interp", [{"event": ["a"]}, {"event": ["b", "c"]}]),
        ("boltzmann", [{"values": {"a": 1, "b": 2, "c": 3}}, {"values": {"a": 3, "b": 2, "c": 1}}]),
        ("interp", COMBINE_OVERLAP["observations"]),  # the tilt flow's first-step checks
    ],
)
def test_combine_overflowing_field_exits_3_without_warnings(tmp_path, capsys, learner, observations):
    cfg = dict(COMBINE_INTERP, learner=learner, observations=observations, weights=[1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, "combine", cfg, "--quiet") == 3
    assert "non-finite tangent components" in capsys.readouterr().err


def test_learn_boltzmann_penalties_near_the_float_limit(tmp_path):
    # b * u overflows from beta = 1.5 on: all mass goes to the least penalty
    cfg = {
        "learner": "boltzmann",
        "belief": {"kind": "simplex", "probs": {"a": 0.5, "b": 0.5}},
        "observation": {"values": {"a": 1e308, "b": -1e308}},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, "learn", cfg, "--quiet") == 0
    rows = read_csv(tmp_path, "learn_boltzmann.csv")
    assert rows[0] == ["chi", "a", "b", "bel"]
    assert [r[:3] for r in rows[1:]] == [
        ["0", "0.5", "0.5"], ["0.10000000000000001", "0", "1"], ["0.5", "0", "1"],
        ["1.5", "0", "1"], ["3", "0", "1"], ["inf", "0", "1"],
    ]


def test_combine_zero_step_out_exits_2(tmp_path):
    cfg = dict(COMBINE_INTERP, step_out=0)
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2


def test_combine_infinite_step_out_exits_2(tmp_path):
    cfg = dict(COMBINE_INTERP, step_out=math.inf)
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2
    assert not (tmp_path / "out").exists()


def test_combine_unknown_world_exits_2(tmp_path):
    cfg = dict(COMBINE_INTERP, observations=[{"event": ["zz"]}])
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2


@pytest.mark.parametrize("weights", [["x", 1.0], [-1.0, 1.0], [True, 1]])
def test_combine_bad_weights_exit_2(tmp_path, capsys, weights):
    cfg = dict(COMBINE_INTERP, weights=weights)
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2
    err = capsys.readouterr().err
    assert "bad weights" in err and "Traceback" not in err


@pytest.mark.parametrize("t", [1.0, "top"])
@pytest.mark.parametrize(
    "integrator",
    [
        # True is an int to Python, not a number to the config reader
        {"step": True},
        {"t_max": True},
        {"limit_tol": True},
        {"max_steps": True},
        # Python's JSON reader accepts Infinity
        {"step": math.inf},
        {"t_max": math.inf},
        {"limit_tol": math.inf},
        # RK4 is the one stepper: t_max and limit_tol above are unknown settings too, and
        # so is max_steps, since the step budget is a library constant
        {"scheme": "rk4"},
    ],
)
def test_combine_bad_integrator_setting_exits_2(tmp_path, capsys, integrator, t):
    cfg = dict(COMBINE_INTERP, integrator=integrator, t=t)
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2
    err = capsys.readouterr().err
    if "step" in integrator:
        assert err.startswith("config error: bad integrator settings: ") and err.count("\n") == 1
    else:  # the line the top level prints for a key it does not read
        assert err == f"config error: integrator reads no key {next(iter(integrator))!r}; its keys are step\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("step", ["x", None, [1], {"a": 1}], ids=repr)
def test_combine_non_number_step_names_the_setting(tmp_path, capsys, step):
    # the type is checked before the bounds: no comparison TypeError text
    cfg = dict(COMBINE_INTERP, integrator={"step": step})
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2
    assert capsys.readouterr().err == "config error: bad integrator settings: step must be positive and finite\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, key", [
    ({"hypotheses": ["h1", "h2"]}, "likelihood"),
    ({"likelihood": {"e": [0.5, 1.0]}}, "hypotheses"),
    ({}, "hypotheses"),
])
def test_learn_bayes_model_missing_a_field_names_it(tmp_path, capsys, model, key):
    # in the top level's wording, not the bare KeyError text
    cfg = dict(BAYES_LEARN, learner_params={"model": model})
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2
    assert capsys.readouterr().err == f"config error: model is missing the {key!r} field\n"
    assert not (tmp_path / "out").exists()


def test_combine_bare_string_event_exits_2(tmp_path):
    cfg = dict(COMBINE_INTERP, observations=[{"event": "ab"}])
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2


@pytest.mark.parametrize("entry", [{"K": "x", "r2": 1}, {"K": 0.5}, {"K": None, "r2": 1}])
def test_learn_bad_kalman_grid_entry_exits_2(tmp_path, capsys, entry):
    cfg = dict(KALMAN_SWEEP, confidence_grid=[entry])
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2
    assert "bad confidence grid" in capsys.readouterr().err


def test_combine_simplex_without_probs_exits_2(tmp_path):
    cfg = dict(COMBINE_INTERP, belief={"kind": "simplex", "labels": ["a", "b", "c"]})
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2


def test_learn_on_list_lift_writes_csv(tmp_path):
    cfg = {
        "learner": "interp@list",
        "belief": {"kind": "simplex", "probs": {"a": 0.5, "b": 0.3, "c": 0.2}},
        "observation": {"event": ["a", "b"]},
    }
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 0
    rows = read_csv(tmp_path, "learn_interp@list.csv")
    assert rows[0][:4] == ["chi", "a", "b", "c"]
    assert json.loads(rows[1][0]) == {"domain": "list:frac", "value": "bot"}
    assert [float(x) for x in rows[1][1:4]] == [0.5, 0.3, 0.2]


BAYES_PRIOR = {"kind": "simplex", "probs": {"h1": 0.5, "h2": 0.3, "h3": 0.2}}
GRADED = {"kind": "graded", "entries": {"phi1": 0.2, "phi2": 0.5}}


def _observing(command, learner, belief, observation):
    if command == "learn":
        return {"learner": learner, "belief": belief, "observation": observation}
    return {"learner": learner, "belief": belief, "observations": [observation], "t": 1.0}


@pytest.mark.parametrize("command", ["learn", "combine"])
def test_bayes_and_max_graded_observations_run(tmp_path, command):
    assert run_cli(tmp_path, command, _observing(command, "bayes", BAYES_PRIOR, {"id": "e1"}),
                   "--quiet") == 0
    assert run_cli(tmp_path, command, _observing(command, "max-graded", GRADED, {"id": "phi1"}),
                   "--quiet") == 0


@pytest.mark.parametrize(
    "likelihood",
    [{"e": ["a", 0.5]}, [[0.5, 0.5]], {"e": [[0.5], 0.5]}],
    ids=["string-entry", "list-table", "ragged-row"],
)
def test_learn_malformed_bayes_model_exits_2(tmp_path, capsys, likelihood):
    cfg = {
        "learner": "bayes",
        "learner_params": {"model": {"hypotheses": ["h1", "h2"], "likelihood": likelihood}},
        "belief": {"kind": "simplex", "probs": {"h1": 0.5, "h2": 0.5}},
        "observation": {"id": "e"},
    }
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_learn_bayes_model_beside_an_unknown_param_exits_2(tmp_path, capsys):
    # the model goes to get_learner with the other params, which must be known
    model = {"hypotheses": ["h1", "h2"], "likelihood": {"e": [0.5, 0.25]}}
    cfg = {
        "learner": "bayes",
        "learner_params": {"model": model, "eta": 0.1},
        "belief": {"kind": "simplex", "probs": {"h1": 0.5, "h2": 0.5}},
        "observation": {"id": "e"},
    }
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2
    err = capsys.readouterr().err
    assert err == "config error: learner_params reads no key 'eta'; its keys are model\n"
    assert run_cli(tmp_path, "learn", dict(cfg, learner_params={"model": model}), "--quiet") == 0


@pytest.mark.parametrize("command", ["learn", "combine"])
@pytest.mark.parametrize(
    "learner,belief,observation",
    [
        ("bayes", {"kind": "simplex", "probs": {"h1": 0.5, "h2": 0.5}}, {"id": "e1"}),
        ("bayes", {"kind": "simplex", "probs": {"x": 0.5, "y": 0.3, "z": 0.2}}, {"id": "e1"}),
        ("bayes", BAYES_PRIOR, {"key": "e1"}),
        ("bayes", BAYES_PRIOR, {"id": "e9"}),
        ("max-graded", GRADED, {"id": "zz"}),
    ],
)
def test_observation_mistakes_exit_2(tmp_path, capsys, command, learner, belief, observation):
    cfg = _observing(command, learner, belief, observation)
    assert run_cli(tmp_path, command, cfg, "--quiet") == 2
    assert "bad observation" in capsys.readouterr().err


# One belief of each kind, and one observation each learner reads.
KIND_BELIEFS = {
    "simplex": {"kind": "simplex", "labels": ["a", "b"], "probs": [0.6, 0.4]},
    "mass": {"kind": "mass", "labels": ["a", "b"], "masses": {"a": 0.5, "a|b": 0.5}},
    "gaussian": {"kind": "gaussian", "mean": 0.0, "var": 1.0},
    "graded": GRADED,
    "params": {"kind": "params", "values": [0.0, 0.0, 0.0, 0.0]},
}
# learner: (its observation, the kind it updates, exit codes of learn,
# combine and trotter on that kind)
KIND_LEARNERS = {
    "interp": ({"event": ["a"]}, "simplex", (0, 0, 0)),
    "ds": ({"event": ["a"]}, "mass", (0, 3, 3)),  # no field: combine and trotter exit 3
    "kalman": ({"z": 1.0}, "gaussian", (0, 3, 3)),
    "boltzmann": ({"values": {"a": 1.0, "b": 0.0}}, "simplex", (0, 0, 0)),
    "bayes": ({"id": "e1"}, "simplex", (0, 0, 0)),
    "max-graded": ({"id": "phi1"}, "graded", (0, 0, 0)),
    "classifier": ({"x": [0.5], "y": 0}, "params", (0, 3, 3)),
}


@pytest.mark.parametrize("kind", sorted(KIND_BELIEFS))
@pytest.mark.parametrize("lid", sorted(KIND_LEARNERS))
def test_belief_of_the_wrong_kind_exits_2_before_any_update(tmp_path, capsys, lid, kind):
    observation, expects, codes = KIND_LEARNERS[lid]
    belief = BAYES_PRIOR if (lid, kind) == ("bayes", "simplex") else KIND_BELIEFS[kind]
    configs = {
        "learn": _observing("learn", lid, belief, observation),
        "combine": _observing("combine", lid, belief, observation),
        "trotter": {"learner": lid, "belief": belief, "observations": [observation] * 2,
                    "chi": 1.0, "n_values": [1, 2]},
    }
    for (command, cfg), code in zip(configs.items(), codes):
        got = run_cli(tmp_path, command, cfg, "--quiet")  # a traceback raises here
        err = capsys.readouterr().err
        if kind == expects:
            assert got == code, (command, err)
        else:
            assert got == 2, (command, err)
            assert err == f"config error: learner {lid!r} updates {expects} beliefs, not {kind}\n"


@pytest.mark.parametrize("masses", [None, "x", [0.5, 0.5], 1])
def test_mass_belief_whose_masses_is_not_an_object_exits_2(tmp_path, capsys, masses):
    belief = {"kind": "mass", "labels": ["a", "b"], "masses": masses}
    observation = {"event": ["a"]}
    configs = {
        "learn": _observing("learn", "ds", belief, observation),
        "combine": _observing("combine", "ds", belief, observation),
        "trotter": {"learner": "ds", "belief": belief, "observations": [observation] * 2,
                    "chi": 1.0, "n_values": [1, 2]},
    }
    for command, cfg in configs.items():
        assert run_cli(tmp_path, command, cfg, "--quiet") == 2, command  # not a traceback
        err = capsys.readouterr().err
        assert err.startswith("config error") and "'masses' must be an object" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("t", [1, "top"])
def test_combine_boltzmann_penalties_near_the_float_limit(tmp_path, capsys, t):
    # c @ u - u overflows at the zero coordinate: the field multiplies first
    cfg = {
        "learner": "boltzmann",
        "belief": {"kind": "simplex", "probs": {"a": 0.5, "b": 0.5}},
        "observations": [{"values": {"a": 1e308, "b": -1e308}}],
        "t": t,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, "combine", cfg) == 0
    final = json.loads(capsys.readouterr().out)["final"]
    assert final["labels"] == ["a", "b"] and final["probs"] == [0.0, 1.0]


# learner: (belief, observations) of a combine that the learner's exact flow takes:
# observations whose flows commute, or interp's complementary pair
EXACT_COMBINES = {
    "interp": (COMBINE_INTERP["belief"], COMBINE_INTERP["observations"]),
    "boltzmann": (COMBINE_INTERP["belief"], [{"values": {"a": 1.0, "b": 0.0, "c": -0.5}},
                                             {"values": {"a": -0.3, "b": 0.7, "c": 0.2}}]),
    "bayes": (BAYES_PRIOR, [{"id": "e1"}, {"id": "e3"}]),
    "max-graded": ({"kind": "graded", "entries": {"phi1": 0.2, "phi2": 0.5, "phi3": 0.9}},
                   [{"id": "phi1"}, {"id": "phi3"}]),
}


def _combine_csv(tmp_path, cfg):
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 0
    (path,) = (tmp_path / "out").iterdir()
    text = path.read_text()
    path.unlink()
    return text


@pytest.mark.parametrize("lid", sorted(EXACT_COMBINES) + ["interp-overlap"])
def test_a_named_scheme_keeps_a_commuting_combine_csv(tmp_path, lid):
    belief, observations = EXACT_COMBINES.get(lid, (COMBINE_OVERLAP["belief"], COMBINE_OVERLAP["observations"]))
    cfg = {"learner": lid.removesuffix("-overlap"), "belief": belief, "observations": observations,
           "weights": [3.0, 1.0], "t": 1.3}
    unnamed = _combine_csv(tmp_path, cfg)
    coarse, fine = (_combine_csv(tmp_path, dict(cfg, integrator={"step": step})) for step in (0.05, 0.02))
    # conditionings on overlapping events take the tilt flow, which has no step setting either
    assert unnamed == coarse == fine


def test_scheme_is_an_unknown_integrator_setting(tmp_path, capsys):
    with pytest.raises(TypeError, match="unexpected keyword argument 'scheme'"):
        IntegratorConfig(scheme="rk4")
    belief, observations = EXACT_COMBINES["boltzmann"]
    for cfg in (COMBINE_INTERP, dict(COMBINE_INTERP, belief=belief, observations=observations, learner="boltzmann")):
        for scheme in ("rk4", "exact"):
            assert run_cli(tmp_path, "combine", dict(cfg, integrator={"scheme": scheme}), "--quiet") == 2
            err = capsys.readouterr().err
            assert err == "config error: integrator reads no key 'scheme'; its keys are step\n"
            assert not (tmp_path / "out").exists()


def test_combine_record_over_max_steps_numbers_exits_2(tmp_path, capsys):
    # 5e6 rows of 65 numbers: rejected before any evaluation, never run
    worlds = [f"w{i}" for i in range(64)]
    cfg = {"learner": "boltzmann", "belief": {"kind": "simplex", "labels": worlds, "probs": [1.0] * 64},
           "observations": [{"values": {w: float(i % 7) for i, w in enumerate(worlds)}},
                            {"values": {w: float(i % 5) for i, w in enumerate(worlds)}}],
           "t": 500000}
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "more than max_steps=10000000 numbers" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lid", ["boltzmann", "bayes"])
def test_trotter_reference_is_the_exact_parallel_flow(tmp_path, capsys, lid):
    belief, observations = EXACT_COMBINES[lid]
    cfg = {"learner": lid, "belief": belief, "observations": observations, "chi": 1.3,
           "n_values": [1, 4]}
    assert run_cli(tmp_path, "trotter", cfg, "--quiet") == 0
    report = json.loads((tmp_path / "out" / "trotter.json").read_text())
    assert report["distances"]["1"] <= 1e-15  # the tilts commute: one round is exact
    combine = {key: cfg[key] for key in ("learner", "belief", "observations")}
    assert run_cli(tmp_path, "combine", dict(combine, t=1.3)) == 0
    assert json.loads(capsys.readouterr().out)["final"] == report["reference"]


@pytest.mark.parametrize("lid", ["nope", "nope@list"])
def test_axioms_unknown_learner_exits_2(tmp_path, capsys, lid):
    assert run_cli(tmp_path, "axioms", {"learners": [lid], "samples": 10}, "--quiet") == 2
    assert "unknown learner" in capsys.readouterr().err


def test_axioms_empty_learner_list_exits_2(tmp_path, capsys):
    # an empty selection checks nothing, so it must not read as a passing suite
    assert run_cli(tmp_path, "axioms", {"learners": []}, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: 'learners' must be") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", [{"belief": {"kind": "gaussian", "mean": 1e308, "var": 4.0}},
                                   {"observation": {"z": 1e308}}])
def test_learn_kalman_overflowing_error_gives_minus_inf_bel(tmp_path, where):
    assert run_cli(tmp_path, "learn", dict(KALMAN_SWEEP, **where), "--quiet") == 0
    rows = read_csv(tmp_path, "learn_kalman.csv")
    assert rows[1][0] == "0" and float(rows[1][-1]) == -math.inf


MINIMAL = {
    "learn": (KALMAN_SWEEP, "output_csv"),
    "combine": (COMBINE_INTERP, "output_csv"),
    "trotter": (dict(TROTTER_INTERP, n_values=[1]), "output_json"),
    "axioms": ({"learners": ["interp"], "samples": 1}, "output_json"),
    "equiv": ({"experiment": "kalman-sequential", "samples": 1}, "output_json"),
}


@pytest.mark.parametrize(
    "command, keys",
    [
        ("learn", ["confidence-grid"]),  # a typo
        ("learn", ["t"]),  # another command's key
        ("combine", ["chi", "n_values"]),
        ("trotter", ["t"]),
        ("axioms", ["sample"]),
        ("axioms", ["include_lifted", "include_mutants"]),  # removed settings
        ("equiv", ["learners"]),
    ],
)
def test_a_key_the_command_does_not_read_exits_2(tmp_path, capsys, command, keys):
    cfg, _ = MINIMAL[command]
    assert run_cli(tmp_path, command, dict(cfg, **dict.fromkeys(keys, 1)), "--quiet") == 2
    err = capsys.readouterr().err
    named = ", ".join(map(repr, sorted(keys)))
    assert err.startswith(f"config error: {command} reads no key {named}; its keys are ")
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()
    assert run_cli(tmp_path, command, cfg, "--quiet") == 0  # the same config without them runs
    assert (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(MINIMAL))
@pytest.mark.parametrize("name", [5, ["a"], "", "..", "sub/x.out", "absolute"])
def test_output_name_must_be_a_plain_file_name(tmp_path, capsys, command, name):
    cfg, key = MINIMAL[command]
    if name == "absolute":
        name = str(tmp_path / "x.out")
    assert run_cli(tmp_path, command, {**cfg, key: name}, "--quiet") == 2
    assert "must be a plain file name" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(MINIMAL))
def test_output_name_is_used(tmp_path, command):
    cfg, key = MINIMAL[command]
    assert run_cli(tmp_path, command, {**cfg, key: "result.out"}, "--quiet") in (0, 1)
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["result.out"]


# [0.5] is a grid for interp but not for kalman, which is checked second
@pytest.mark.parametrize("grid", [["x"], 5, [[0.5]], [], [0.5]])
def test_axioms_bad_grid_exits_2_before_any_check(tmp_path, capsys, grid):
    cfg = {"learners": ["interp", "kalman"], "samples": 1, "confidence_grid": grid}
    assert run_cli(tmp_path, "axioms", cfg, "--quiet") == 2
    assert "grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_axioms_grid_must_rise(tmp_path, capsys, monkeypatch):
    # L3 and B1 walk the grid upward; learn sweeps a grid in any order
    monkeypatch.setattr(cli, "run_suite", lambda *a: pytest.fail("a law ran"))
    cfg = {"learners": ["interp", "boltzmann"], "samples": 1, "confidence_grid": ["bot", 0.75, 0.25, "top"]}
    assert run_cli(tmp_path, "axioms", cfg, "--quiet") == 2
    assert capsys.readouterr().err == (
        "config error: for interp, the confidence grid must rise, "
        "but <frac:0.75> comes before <frac:0.25>\n"
    )
    assert not (tmp_path / "out").exists()


def test_grid_grammar_is_shared_by_learn_and_axioms(tmp_path):
    grid = ["bot", 0.5, "top"]
    learn = {
        "learner": "interp",
        "belief": {"kind": "simplex", "probs": {"a": 0.6, "b": 0.4}},
        "observation": {"event": ["a"]},
        "confidence_grid": grid,
    }
    assert run_cli(tmp_path, "learn", learn, "--quiet") == 0
    assert [r[0] for r in read_csv(tmp_path, "learn_interp.csv")[1:]] == ["0", "0.5", "1"]
    axioms = {"learners": ["interp"], "samples": 5, "confidence_grid": grid}
    assert run_cli(tmp_path, "axioms", axioms, "--quiet") == 0


CLASSIFIER_LEARN = {
    "learner": "classifier",
    "belief": {"kind": "params", "values": [0.0, 0.0, 0.0, 0.0]},
    "observation": {"x": [0.5], "y": 0},
    "confidence_grid": [1, "top"],
}


@pytest.mark.parametrize(
    "params",
    [
        {"max_steps": 1e12},
        {"max_steps": 0},
        {"max_steps": True},
        {"conv_tol": -1},
        {"eta": math.inf},
        {"n_features": 1.5},
    ],
)
def test_learn_bad_classifier_params_exit_2(tmp_path, capsys, params):
    # the step size, tolerance and cap are constants: naming one is an unknown key
    cfg = dict(CLASSIFIER_LEARN, learner_params=params)
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert ("learner_params reads no key" in err) == ("n_features" not in params)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "params, count", [({"_MAX_STEPS": 10}, 11), ({}, 1_000_001), ({}, 1_000_000_000)]
)
def test_learn_classifier_count_over_max_steps_exits_2(tmp_path, capsys, monkeypatch, params, count):
    for name, value in params.items():  # learners' constants, set for this run
        monkeypatch.setattr(learners, name, value)
    cfg = dict(CLASSIFIER_LEARN, confidence_grid=[count])
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2
    assert "exceed max_steps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_learn_classifier_count_at_max_steps_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(learners, "_MAX_STEPS", 10)
    cfg = dict(CLASSIFIER_LEARN, confidence_grid=[10])
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 0


def test_learn_classifier_overflow_at_a_finite_count_exits_3(tmp_path, capsys):
    # the first step leaves finite parameters whose logits overflow
    cfg = dict(CLASSIFIER_LEARN, observation={"x": [1e200], "y": 0}, confidence_grid=[1, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, "learn", cfg, "--quiet") == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "changes",
    [
        # (config changes, step cap): unsorted, repeated, bot and top, with a cap that keeps top short
        ({"confidence_grid": [64, "bot", 3, 128, 3, "top", 1, 97]}, 500),
        ({"observation": {"x": [1e200], "y": 0}, "confidence_grid": [1, 2]}, None),  # exit 3 at bel
        ({"observation": {"x": [1e200], "y": 0}, "confidence_grid": [8, 2]}, None),  # exit 3 at 8
        ({"confidence_grid": [4, 2000, 1]}, 1000),  # exit 2
    ],
)
def test_learn_classifier_sweep_writes_what_the_per_point_loop_writes(
    tmp_path, capsys, monkeypatch, changes
):
    changes, cap = changes
    if cap is not None:
        monkeypatch.setattr(learners, "_MAX_STEPS", cap)

    def run(where):
        where.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(where, "learn", dict(CLASSIFIER_LEARN, **changes))
        written = where / "out" / "learn_classifier.csv"
        csv_bytes = written.read_bytes() if written.exists() else None
        return code, capsys.readouterr(), csv_bytes, [str(w.message) for w in caught]

    swept = run(tmp_path / "sweep")
    build = cli._build_learner
    monkeypatch.setattr(cli, "_build_learner", lambda cfg: dataclasses.replace(build(cfg), sweep=None))
    assert swept == run(tmp_path / "per-point")


# The row sweeps of the simplex and graded learners: `learn` through each
# learner's sweep hook against the per-point loop (sweep=None), byte for byte.

MAX_FLOAT = sys.float_info.max
WORLDS = tuple("abcdefghijkl")


def learn_outcome(cfg: dict, per_point: bool):
    """(exit code, stdout, stderr, CSV bytes or None, warnings) of one learn
    run, through the learner's sweep or through the per-point loop.  The
    warnings are the distinct ones: where the loop overflows once per grid
    point, one call on the rows overflows once."""
    build = cli._build_learner
    make = (lambda c: dataclasses.replace(build(c), sweep=None)) if per_point else build
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "learn.json")
        with open(path, "w") as fh:
            json.dump(dict(cfg, output_csv="learn.csv"), fh)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "_build_learner", make), redirect_stdout(out), \
                redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["learn", "--config", path, "--output", tmp])
        csv_bytes = None
        if os.path.exists(os.path.join(tmp, "learn.csv")):
            with open(os.path.join(tmp, "learn.csv"), "rb") as fh:
                csv_bytes = fh.read()
    return code, out.getvalue(), err.getvalue(), csv_bytes, {(w.category, str(w.message)) for w in caught}


def grids(entry, foreign):
    """Grids of entry draws, unsorted, with repeated entries; one in five
    holds the value ``foreign`` of another domain, which fails at its entry."""
    @st.composite
    def grid(draw):
        entries = draw(st.lists(entry, min_size=1, max_size=10))
        entries += draw(st.lists(st.sampled_from(entries), max_size=4))
        entries += [foreign] if draw(st.integers(0, 4)) == 3 else []
        return draw(st.permutations(entries))

    return grid()


@st.composite
def simplex_beliefs(draw, mass=st.just(0.0) | st.sampled_from([5e-324, 1e-300, 1.0, 3.0]) | st.floats(0.0, 1.0)):
    """A simplex over 2-12 worlds, one of weight 1 and the others of any weight,
    0 and subnormal ones too."""
    n = draw(st.integers(2, len(WORLDS)))
    probs = draw(st.permutations([1.0] + draw(st.lists(mass, min_size=n - 1, max_size=n - 1))))
    return {"kind": "simplex", "probs": dict(zip(WORLDS, probs))}


FRAC_GRIDS = grids(
    st.sampled_from(["bot", "top", 0.0, 5e-324, 0.5, 1.0, 1 - 2**-53]) | st.floats(0.0, 1.0),
    {"domain": "add", "value": 0.5},
)
ADD_GRIDS = grids(
    st.sampled_from(["bot", "top", 0.0, 5e-324, 1.0, 1e154, 0.6 * MAX_FLOAT, MAX_FLOAT])
    | st.floats(0.0, 10.0) | st.floats(0.0, MAX_FLOAT),
    {"domain": "frac", "value": 0.5},
)
GRADE = st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def interp_learns(draw):
    belief = draw(simplex_beliefs())
    labels = list(belief["probs"])
    event = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    return {"learner": "interp", "belief": belief, "observation": {"event": event},
            "confidence_grid": draw(FRAC_GRIDS)}


@st.composite
def boltzmann_learns(draw):
    belief = draw(simplex_beliefs())
    value = st.sampled_from([0.0, 1e-300, MAX_FLOAT, -MAX_FLOAT]) | st.floats(-3.0, 3.0) \
        | st.floats(-MAX_FLOAT, MAX_FLOAT)
    values = {label: draw(value) for label in belief["probs"]}
    return {"learner": "boltzmann", "belief": belief, "observation": {"values": values},
            "confidence_grid": draw(ADD_GRIDS)}


@st.composite
def bayes_learns(draw):
    belief = draw(simplex_beliefs())
    labels = list(belief["probs"])
    likelihood = st.just(0.0) | st.sampled_from([5e-324, 1.0]) | st.floats(0.0, 1.0)
    rows = {key: draw(st.lists(likelihood, min_size=len(labels), max_size=len(labels))) for key in ("e", "f")}
    return {"learner": "bayes", "learner_params": {"model": {"hypotheses": labels, "likelihood": rows}},
            "belief": belief, "observation": {"id": draw(st.sampled_from(["e", "f"]))},
            "confidence_grid": draw(ADD_GRIDS)}


@st.composite
def max_graded_learns(draw):
    entries = {key: draw(GRADE) for key in ("phi1", "phi2", "phi3")}
    return {"learner": "max-graded", "belief": {"kind": "graded", "entries": entries},
            "observation": {"id": draw(st.sampled_from(list(entries)))},
            "confidence_grid": draw(FRAC_GRIDS)}


@pytest.mark.parametrize("configs", [interp_learns(), boltzmann_learns(), bayes_learns(), max_graded_learns()],
                         ids=["interp", "boltzmann", "bayes", "max-graded"])
def test_learn_row_sweep_writes_what_the_per_point_loop_writes(configs):
    @settings(max_examples=150, deadline=None)
    @given(configs)
    def check(cfg):
        assert learn_outcome(cfg, per_point=False) == learn_outcome(cfg, per_point=True)

    check()


@pytest.mark.parametrize(
    "observation",
    [
        {"x": [0.5], "y": 0.9},
        {"x": [0.5], "y": 1.0},
        {"x": [0.5], "y": True},
        {"x": [0.5], "y": 2},
        {"x": [0.5], "y": -1},
        {"x": [0.5], "y": "0"},
        {"x": 0.5, "y": 0},
        {"x": [], "y": 0},
        {"x": [0.5, 0.5], "y": 0},
        {"x": [math.nan], "y": 0},
        {"x": [math.inf], "y": 0},
        {"x": [10**400], "y": 0},
        {"x": [True], "y": 0},
        {"x": ["0.5"], "y": 0},
        {"x": {"a": 0.5}, "y": 0},
    ],
)
def test_learn_bad_classifier_observation_exits_2(tmp_path, capsys, observation):
    cfg = dict(CLASSIFIER_LEARN, observation=observation)
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2
    assert "bad observation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A JSON integer beyond the float range, at each place a config reads a number:
# (command, config with "BIG" where the integer goes).
BIG_NUMBER_PLACES = {
    "simplex-probs": ("learn", {"learner": "interp", "belief": {"kind": "simplex", "probs": {"a": "BIG", "b": 0.4}},
                                "observation": {"event": ["a"]}}),
    "gaussian-mean": ("learn", dict(KALMAN_SWEEP, belief={"kind": "gaussian", "mean": "BIG", "var": 4.0})),
    "gaussian-var": ("learn", dict(KALMAN_SWEEP, belief={"kind": "gaussian", "mean": 0.0, "var": "BIG"})),
    "kalman-z": ("learn", dict(KALMAN_SWEEP, observation={"z": "BIG"})),
    "boltzmann-values": ("learn", {"learner": "boltzmann", "belief": {"kind": "simplex", "probs": {"a": 0.6, "b": 0.4}},
                                   "observation": {"values": {"a": "BIG", "b": 0.0}}}),
    "graded-entries": ("learn", {"learner": "max-graded", "belief": {"kind": "graded", "entries": {"phi1": "BIG"}},
                                 "observation": {"id": "phi1"}}),
    "mass-masses": ("learn", {"learner": "ds", "belief": {"kind": "mass", "labels": ["a", "b"],
                                                          "masses": {"a": "BIG", "a|b": 0.5}},
                              "observation": {"event": ["a"]}}),
    "bayes-likelihood": ("learn", {"learner": "bayes", "learner_params": {"model": {"hypotheses": ["h1", "h2"],
                                                                                    "likelihood": {"e": ["BIG", 0.5]}}},
                                   "belief": {"kind": "simplex", "probs": {"h1": 0.5, "h2": 0.5}},
                                   "observation": {"id": "e"}}),
    "params-values": ("learn", dict(CLASSIFIER_LEARN, belief={"kind": "params", "values": ["BIG", 0.0, 0.0, 0.0]})),
    "classifier-x": ("learn", dict(CLASSIFIER_LEARN, observation={"x": ["BIG"], "y": 0})),
    "confidence-grid": ("learn", {"learner": "interp", "belief": {"kind": "simplex", "probs": {"a": 0.6, "b": 0.4}},
                                  "observation": {"event": ["a"]}, "confidence_grid": ["BIG"]}),
    "combine-t": ("combine", dict(COMBINE_INTERP, t="BIG")),
    "combine-weights": ("combine", dict(COMBINE_INTERP, weights=["BIG", 1.0])),
    # integrator.step, the integrator's one setting, under the id of the removed max_steps
    "max-steps": ("combine", dict(COMBINE_INTERP, integrator={"step": "BIG"})),
    "trotter-n": ("trotter", dict(TROTTER_INTERP, n_values=["BIG"])),
    "axioms-seed": ("axioms", {"learners": ["interp"], "samples": 1, "seed": "BIG"}),
}


def _run_with_token(run, command, cfg, token):
    """Run ``command`` in the new directory ``run`` on ``cfg`` with the JSON
    token ``token`` where "BIG" is; returns the exit code and the output
    files' bytes (None: no output directory)."""
    run.mkdir()
    (run / "config.json").write_text(json.dumps(cfg).replace('"BIG"', token))
    out = run / "out"
    code = main([command, "--config", str(run / "config.json"), "--output", str(out), "--quiet"])
    return code, ({p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None)


@pytest.mark.parametrize("digits", [401, 5001])  # Python's int() refuses over 4,300 digits
@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("place", sorted(BIG_NUMBER_PLACES))
def test_an_integer_beyond_the_float_range_reads_as_1e400(tmp_path, capsys, place, sign, digits):
    command, cfg = BIG_NUMBER_PLACES[place]
    code, written = _run_with_token(tmp_path / "int", command, cfg, sign + "1" + "0" * (digits - 1))
    err = capsys.readouterr().err
    assert (code, written) == _run_with_token(tmp_path / "float", command, cfg, sign + "1e400")
    if code == 0:
        assert err == "" and written
    else:
        assert code in (2, 3) and err.count("\n") == 1 and written is None


# where +inf means something: a combine to the limit, a flat Gaussian prior
INFINITY_PLACES = {"combine-t", "gaussian-var"}


@pytest.mark.parametrize("token", ["1e400", "-1e400", "Infinity", "NaN"])
@pytest.mark.parametrize("place", sorted(BIG_NUMBER_PLACES))
def test_a_non_finite_number_is_a_config_error(tmp_path, capsys, place, token):
    command, cfg = BIG_NUMBER_PLACES[place]
    code, written = _run_with_token(tmp_path / "run", command, cfg, token)
    err = capsys.readouterr().err
    if place in INFINITY_PLACES and token in ("1e400", "Infinity"):
        assert code == 0 and err == "" and written
    else:
        assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1
        assert written is None


@pytest.mark.parametrize("value", ["no", "true", 0, 1, None, []])
@pytest.mark.parametrize("key", ["include_lifted", "include_mutants"])
def test_axioms_include_flag_must_be_a_boolean(tmp_path, capsys, key, value):
    # the include flags are gone ("learners" names lifts and mutants): a
    # non-boolean value is refused, and now so is a boolean one
    cfg = {"learners": ["interp"], "samples": 2}
    for flag in (value, True, False):
        assert run_cli(tmp_path, "axioms", dict(cfg, **{key: flag}), "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: axioms reads no key {key!r}; ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
    assert run_cli(tmp_path, "axioms", cfg, "--quiet") == 0
    assert len(json.loads((tmp_path / "out" / "axioms.json").read_text())) == 10


@pytest.mark.parametrize(
    "belief",
    [
        {"kind": "simplex", "probs": {"a": 1e308, "b": 1e308}},
        {"kind": "mass", "labels": ["a", "b"], "masses": {"a": 1e308, "b": 1e308}},
    ],
)
@pytest.mark.parametrize("action", ["always", "error"])
def test_a_belief_whose_sum_overflows_is_a_config_error(tmp_path, capsys, belief, action):
    cfg = {"learner": "interp" if belief["kind"] == "simplex" else "ds", "belief": belief,
           "observation": {"event": ["a"]}}
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad belief: ") and "sum past the float range" in err
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()


def test_learn_classifier_top_without_a_fixed_point_warns_in_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(learners, "_MAX_STEPS", 1000)
    cfg = dict(CLASSIFIER_LEARN, observation={"x": [1.0], "y": 1},
               learner_params={"n_features": 1, "n_classes": 2})
    written = []
    for action in ("always", "error"):
        (tmp_path / action).mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert run_cli(tmp_path / action, "learn", cfg, "--quiet") == 0
        assert capsys.readouterr().err == "warning: no fixed point within 1000 steps\n"
        written.append((tmp_path / action / "out" / "learn_classifier.csv").read_bytes())
    assert written[0] == written[1] and written[0].count(b"\n") == 3


def test_learn_classifier_overflowing_logits_exit_3(tmp_path, capsys):
    cfg = dict(CLASSIFIER_LEARN, observation={"x": [1e200], "y": 0}, confidence_grid=["top"])
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 3
    err = capsys.readouterr().err
    assert "non-finite logits" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Penalties at the float limit, and strict JSON out


FLOAT_MAX = sys.float_info.max
OVERFLOW_PRIOR = {"kind": "simplex", "probs": {"a": 1.0, "b": 0.99999}}
OVERFLOW_VALUES = {"values": {"a": FLOAT_MAX, "b": FLOAT_MAX}}


def strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def test_learn_bel_at_the_float_limit_is_the_least_float(tmp_path, capsys):
    # E_p[u] no longer overflows: no warning, and a finite bel in every row
    cfg = {"learner": "boltzmann", "belief": OVERFLOW_PRIOR, "observation": OVERFLOW_VALUES}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, "learn", cfg) == 0
    assert strict_json(capsys.readouterr().out)["final_bel"] == -FLOAT_MAX
    rows = read_csv(tmp_path, "learn_boltzmann.csv")
    assert [r[-1] for r in rows[1:]] == ["-1.7976931348623157e+308"] * 6


@pytest.mark.parametrize("t", [1, "top"])
def test_combine_at_the_float_limit_keeps_the_prior(tmp_path, capsys, t):
    # the penalty is constant, so the field is zero and the flow the identity
    cfg = {"learner": "boltzmann", "belief": OVERFLOW_PRIOR, "observations": [OVERFLOW_VALUES], "t": t}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, "combine", cfg) == 0
    probs = strict_json(capsys.readouterr().out)["final"]["probs"]
    assert np.allclose(probs, np.array([1.0, 0.99999]) / 1.99999, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("command, cfg, line", [
    ("learn", {"learner": "boltzmann", "observation": {"values": {"a": 1e-300, "b": 0.0}},
               "confidence_grid": ["bot", 1.0, "top"]},
     "error: cannot condition on the least-penalty worlds of the penalty variable with mass 4.94e-324\n"),
    ("combine", {"learner": "boltzmann", "observations": [{"values": {"a": 1e-300, "b": 0.0}}], "t": "top"},
     "error: cannot condition on the least-penalty worlds of the penalty variable with mass 4.94e-324\n"),
    ("learn", {"learner": "bayes", "observation": {"id": "e"}, "confidence_grid": ["top"],
               "learner_params": {"model": {"hypotheses": ["a", "b"], "likelihood": {"e": [0.5, 1.0]}}}},
     "error: cannot condition on the least-penalty worlds of observation 'e' with mass 4.94e-324\n"),
])
def test_top_without_least_penalty_mass_names_the_observation(tmp_path, capsys, command, cfg, line):
    cfg = {**cfg, "belief": {"kind": "simplex", "probs": {"a": 1.0, "b": 5e-324}}}
    assert run_cli(tmp_path, command, cfg, "--quiet") == 3
    assert capsys.readouterr().err == line


def test_learn_prints_non_finite_numbers_as_its_csv_does(tmp_path, capsys):
    # a bel of an event with no mass, and a Gaussian of infinite variance
    cfg = {"learner": "interp", "belief": {"kind": "simplex", "probs": {"a": 1.0, "b": 0.0}},
           "observation": {"event": ["b"]}, "confidence_grid": ["bot"]}
    assert run_cli(tmp_path, "learn", cfg) == 0
    assert strict_json(capsys.readouterr().out)["final_bel"] == "-inf"
    cfg = {"learner": "kalman", "belief": {"kind": "gaussian", "mean": 0.0, "var": "inf"},
           "observation": {"z": 1.0}, "confidence_grid": ["bot"]}
    assert run_cli(tmp_path, "learn", cfg) == 0
    out = capsys.readouterr().out
    summary = strict_json(out)
    assert summary["final"] == {"kind": "gaussian", "mean": 0.0, "var": "inf"}
    assert summary["final_bel"] == "-inf"
    # final reads back as a belief
    assert run_cli(tmp_path, "learn", {**cfg, "belief": summary["final"]}) == 0
    assert capsys.readouterr().out == out


def test_json_files_spell_non_finite_numbers_as_the_csv_does():
    from conflearn.axioms import AxiomReport, reports_to_json
    from conflearn.flows import _json_text

    obj = {"b": [math.inf, -math.inf, (math.nan, 1.5)], "a": {"x": 2}}
    assert _json_text(obj) == '{"a": {"x": 2}, "b": ["inf", "-inf", ["nan", 1.5]]}'
    assert _json_text(obj, indent=2) == json.dumps(json.loads(_json_text(obj)), sort_keys=True, indent=2)
    report = AxiomReport("x", "L1", False, math.inf, 1e-10, {"gap": -math.inf})
    assert strict_json(reports_to_json([report]))[0]["worst_violation"] == "inf"
    assert '"gap": "-inf"' in reports_to_json([report])
