"""The conflearn command line: configs in, CSV/JSON out, honest exit codes."""

import csv
import dataclasses
import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conflearn import cli
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


@pytest.mark.parametrize(
    "extra",
    [
        {"n_values": [1_000_000_000]},
        # 16 + 32 rounds over a budget of 40; the reference takes 15 steps
        {"n_values": [16, 32, 16], "integrator": {"step": 0.1, "max_steps": 40}},
        # the reference integration's step count overflows a float
        {"chi": 1e308},
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
        ("axioms", {"fd_step": 1.0}),
    ],
)
def test_bad_numeric_settings_exit_2(tmp_path, capsys, command, settings):
    cfg = {"learners": ["interp"], **settings}
    assert run_cli(tmp_path, command, cfg, "--quiet") == 2
    assert "config error" in capsys.readouterr().err


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


def test_combine_step_budget_exits_2(tmp_path, capsys):
    cfg = dict(COMBINE_INTERP, integrator={"step": 1e-9, "max_steps": 5})
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2
    assert "max_steps" in capsys.readouterr().err


def test_combine_to_the_limit_with_a_step_that_cannot_move_exits_3(tmp_path, capsys):
    # c + 1e-300 * k rounds back to c: without the stall guard this ran all
    # 10^7 steps before NoLimitError
    cfg = dict(COMBINE_INTERP, t="top", integrator={"step": 1e-300})
    start = time.perf_counter()
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "does not move the state" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "learner, observations",
    [
        ("interp", [{"event": ["a"]}, {"event": ["b", "c"]}]),
        ("boltzmann", [{"values": {"a": 1, "b": 2, "c": 3}}, {"values": {"a": 3, "b": 2, "c": 1}}]),
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
    ],
)
def test_combine_bad_integrator_setting_exits_2(tmp_path, capsys, integrator, t):
    cfg = dict(COMBINE_INTERP, integrator=integrator, t=t)
    assert run_cli(tmp_path, "combine", cfg, "--quiet") == 2
    err = capsys.readouterr().err
    assert "bad integrator settings" in err and "Traceback" not in err
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


@pytest.mark.parametrize("lid", ["nope", "nope@list"])
def test_axioms_unknown_learner_exits_2(tmp_path, capsys, lid):
    assert run_cli(tmp_path, "axioms", {"learners": [lid], "samples": 10}, "--quiet") == 2
    assert "unknown learner" in capsys.readouterr().err


@pytest.mark.parametrize("where", [{"belief": {"kind": "gaussian", "mean": 1e308, "var": 4.0}},
                                   {"observation": {"z": 1e308}}])
def test_learn_kalman_overflowing_error_gives_minus_inf_bel(tmp_path, where):
    assert run_cli(tmp_path, "learn", dict(KALMAN_SWEEP, **where), "--quiet") == 0
    rows = read_csv(tmp_path, "learn_kalman.csv")
    assert rows[1][0] == "0" and float(rows[1][-1]) == -math.inf


MINIMAL = {
    "learn": (KALMAN_SWEEP, "output_csv"),
    "combine": (COMBINE_INTERP, "output_csv"),
    "trotter": (dict(COMBINE_INTERP, chi=1.0, n_values=[1]), "output_json"),
    "axioms": ({"learners": ["interp"], "samples": 1}, "output_json"),
    "equiv": ({"experiment": "kalman-sequential", "samples": 1}, "output_json"),
}


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
    cfg = dict(CLASSIFIER_LEARN, learner_params=params)
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params, count", [({"max_steps": 10}, 11), ({}, 1_000_001), ({}, 1_000_000_000)]
)
def test_learn_classifier_count_over_max_steps_exits_2(tmp_path, capsys, params, count):
    cfg = dict(CLASSIFIER_LEARN, learner_params=params, confidence_grid=[count])
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 2
    assert "exceed max_steps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_learn_classifier_count_at_max_steps_runs(tmp_path):
    cfg = dict(CLASSIFIER_LEARN, learner_params={"max_steps": 10}, confidence_grid=[10])
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
        # unsorted, repeated, bot and top; the cap keeps top short
        {"confidence_grid": [64, "bot", 3, 128, 3, "top", 1, 97], "learner_params": {"max_steps": 500}},
        {"observation": {"x": [1e200], "y": 0}, "confidence_grid": [1, 2]},  # exit 3 at bel
        {"observation": {"x": [1e200], "y": 0}, "confidence_grid": [8, 2]},  # exit 3 at 8
        {"confidence_grid": [4, 2000, 1], "learner_params": {"max_steps": 1000}},  # exit 2
    ],
)
def test_learn_classifier_sweep_writes_what_the_per_point_loop_writes(
    tmp_path, capsys, monkeypatch, changes
):
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


def test_learn_classifier_overflowing_logits_exit_3(tmp_path, capsys):
    cfg = dict(CLASSIFIER_LEARN, observation={"x": [1e200], "y": 0}, confidence_grid=["top"])
    assert run_cli(tmp_path, "learn", cfg, "--quiet") == 3
    err = capsys.readouterr().err
    assert "non-finite logits" in err and "Traceback" not in err
