"""The conflearn command line: configs in, CSV/JSON out, honest exit codes."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conflearn.cli import main


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


@pytest.mark.parametrize(
    "extra",
    [
        {"n_values": [1_000_000_000]},
        # 16 + 32 rounds over a budget of 40; the reference takes 15 steps
        {"n_values": [16, 32, 16], "integrator": {"step": 0.1, "max_steps": 40}},
    ],
)
def test_trotter_rounds_over_max_steps_exit_2(tmp_path, capsys, extra):
    cfg = {
        "learner": "interp",
        "belief": {"kind": "simplex", "probs": {"a": 0.6, "b": 0.4}},
        "observations": [{"event": ["a"]}, {"event": ["b"]}],
        "chi": 1.5,
        **extra,
    }
    assert run_cli(tmp_path, "trotter", cfg, "--quiet") == 2
    assert "max_steps" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [{"n_values": [True, 2]}, {"chi": math.inf}])
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


def test_axioms_seed_flag_overrides_config(tmp_path):
    cfg = write_config(
        tmp_path, "ax.json", {"learners": ["interp"], "samples": 10, "seed": 1}
    )
    for d, seed in (("s1", "7"), ("s2", "7"), ("s3", "8")):
        assert (
            main(
                [
                    "axioms",
                    "--config",
                    cfg,
                    "--output",
                    str(tmp_path / d),
                    "--seed",
                    seed,
                    "--quiet",
                ]
            )
            == 0
        )
    a = (tmp_path / "s1" / "axioms.json").read_bytes()
    b = (tmp_path / "s2" / "axioms.json").read_bytes()
    c = (tmp_path / "s3" / "axioms.json").read_bytes()
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# equiv


def test_equiv_experiment_passes(tmp_path, capsys):
    cfg = {"experiment": "interp-vs-ds", "samples": 40}
    assert run_cli(tmp_path, "equiv", cfg) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    assert report["illustration"]["interp_prob_a"] == pytest.approx(0.85)
    assert report["illustration"]["ds_prob_a"] == pytest.approx(
        0.8235294117647058
    )
    assert (tmp_path / "out" / "equiv_interp-vs-ds.json").exists()


@pytest.mark.parametrize(
    "command, settings",
    [
        ("axioms", {"samples": "x"}),
        ("axioms", {"seed": "x"}),
        ("axioms", {"seed": 1.5}),
        ("axioms", {"samples": 0}),
        ("axioms", {"samples": True}),
        ("axioms", {"tol": 0.0}),
        ("axioms", {"lb_tol": math.nan}),
        ("axioms", {"l2_ratio_bound": -1.0}),
        ("axioms", {"fd_step": math.inf}),
        ("equiv", {"experiment": "interp-vs-ds", "samples": -3}),
        ("equiv", {"experiment": "interp-vs-ds", "samples": "x"}),
        ("equiv", {"experiment": "bayes-boltzmann", "seed": "x"}),
    ],
)
def test_bad_numeric_settings_exit_2(tmp_path, capsys, command, settings):
    cfg = {"learners": ["interp"], **settings}
    assert run_cli(tmp_path, command, cfg, "--quiet") == 2
    assert "config error" in capsys.readouterr().err


def test_equiv_unknown_experiment_exits_2(tmp_path):
    assert run_cli(tmp_path, "equiv", {"experiment": "nope"}, "--quiet") == 2


# ---------------------------------------------------------------------------
# config plumbing


def test_unreadable_config_exits_2(tmp_path):
    out = tmp_path / "out"
    assert main(["learn", "--config", str(tmp_path / "missing.json"), "--output", str(out)]) == 2


def test_malformed_json_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["learn", "--config", str(bad), "--output", str(tmp_path / "out")]) == 2


def test_unknown_learner_exits_2(tmp_path):
    cfg = {
        "learner": "nope",
        "belief": {"kind": "simplex", "probs": {"a": 1.0}},
        "observation": {"event": ["a"]},
    }
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2


def test_console_script_entry_point(tmp_path):
    cfg = write_config(tmp_path, "learn.json", KALMAN_SWEEP)
    proc = subprocess.run(
        [sys.executable, "-m", "conflearn.cli", "learn", "--config", cfg,
         "--output", str(tmp_path / "out"), "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# config mistakes exit 2 without a traceback


COMBINE_INTERP = {
    "learner": "interp",
    "belief": {"kind": "simplex", "probs": {"a": 0.8, "b": 0.1, "c": 0.1}},
    "observations": [{"event": ["a"]}, {"event": ["b", "c"]}],
    "t": 1.0,
}


def test_combine_step_budget_exits_2(tmp_path, capsys):
    cfg = dict(COMBINE_INTERP, integrator={"step": 1e-9, "max_steps": 5})
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2
    assert "max_steps" in capsys.readouterr().err


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


@pytest.mark.parametrize("weights", [["x", 1.0], [-1.0, 1.0]])
def test_combine_bad_weights_exit_2(tmp_path, weights):
    cfg = dict(COMBINE_INTERP, weights=weights)
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2


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


@pytest.mark.parametrize("command", ["learn", "combine"])
@pytest.mark.parametrize(
    "learner,belief,observation",
    [
        ("bayes", {"kind": "simplex", "probs": {"h1": 0.5, "h2": 0.5}}, {"id": "e1"}),
        ("bayes", {"kind": "simplex", "probs": {"x": 0.5, "y": 0.3, "z": 0.2}}, {"id": "e1"}),
        ("bayes", {"kind": "gaussian", "mean": 0.0, "var": 1.0}, {"id": "e1"}),
        ("bayes", BAYES_PRIOR, {"id": "e9"}),
        ("max-graded", GRADED, {"id": "zz"}),
    ],
)
def test_observation_mistakes_exit_2(tmp_path, capsys, command, learner, belief, observation):
    cfg = _observing(command, learner, belief, observation)
    assert run_cli(tmp_path, command, cfg, "--quiet") == 2
    assert "bad observation" in capsys.readouterr().err


@pytest.mark.parametrize("lid", ["nope", "nope@list"])
def test_axioms_unknown_learner_exits_2(tmp_path, capsys, lid):
    assert run_cli(tmp_path, "axioms", {"learners": [lid], "samples": 10}, "--quiet") == 2
    assert "unknown learner" in capsys.readouterr().err
