"""Command-line front end.

    conflearn learn   --config learn.json   [--output DIR] [--quiet]
    conflearn combine --config combine.json [--output DIR] [--quiet]
    conflearn trotter --config trotter.json [--output DIR] [--quiet]
    conflearn axioms  --config axioms.json  [--output DIR] [--seed N] [--quiet]
    conflearn equiv   --config equiv.json   [--output DIR] [--seed N] [--quiet]

Configs are JSON files; results are written atomically into the output
directory and a summary JSON goes to stdout.  All numeric CSV fields carry
17 significant digits so reruns are byte-identical.

Exit codes: 0 success, 1 a requested check or experiment failed, 2 the
config is invalid or names an unknown experiment, 3 the computation itself
was rejected (zero-mass event, domain mismatch, no limit, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .axioms import CheckConfig, _seeded_rng, reports_to_json, run_suite
from .beliefs import (
    FiniteSimplex,
    GaussianBelief,
    MassFunction,
    RandomVariable,
    _kind_of,
    belief_distance,
    belief_from_json,
    belief_to_json,
    condition,
    ds_plaus_update,
)
from .confidence import (
    ConfidenceValue,
    confidence_from_json,
    confidence_to_json,
    get_domain,
    kalman_combine,
)
from .errors import ConfigError, ConfLearnError, ParameterError, StepBudgetError, UnsupportedError
from .flows import (
    IntegratorConfig,
    _csv_text,
    belief_coords,
    combine_fields,
    coord_labels,
    derivative_field,
    integrate,
    integrate_sampled,
    trotter_interleave,
)
from .learners import (
    BayesModel,
    Learner,
    available_learners,
    bayes_observe,
    boltzmann_observe,
    get_learner,
    interp_observe,
    kalman_observe,
    kalman_observe_opt,
    lift_to_list,
    make_bayes_learner,
    make_interp_learner,
    potential_to_likelihood,
)
from .mutants import get_mutants

__all__ = [
    "main",
    "EXPERIMENTS",
    "experiment_bayes_boltzmann",
    "experiment_kalman_sequential",
    "experiment_interp_vs_ds",
    "experiment_trotter_convergence",
]


# ---------------------------------------------------------------------------
# Small config/IO helpers.


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing the {key!r} field")
    return cfg[key]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".conflearn-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out_name(cfg: dict, key: str, default: str) -> str:
    """cfg[key], or ``default``: a plain file name, since results go into the
    output directory."""
    name = cfg.get(key, default)
    if (
        not isinstance(name, str)
        or name in ("", ".", "..")
        or os.path.basename(name) != name
        or "\0" in name
    ):
        raise ConfigError(f"{key!r} must be a plain file name, got {name!r}")
    return name


def _out_path(args, name: str) -> str:
    os.makedirs(args.output, exist_ok=True)
    return os.path.join(args.output, name)


def _emit(args, payload: dict) -> None:
    if not args.quiet:
        print(json.dumps(payload, sort_keys=True))


def _number(cfg: dict, key: str, default=None, integer: bool = False, above: float = -math.inf):
    """cfg[key], or ``default`` when it is absent (None: the key is required),
    checked to be a finite JSON number above ``above``; an int if ``integer``."""
    raw = _need(cfg, key) if default is None else cfg.get(key, default)
    if (
        isinstance(raw, bool)
        or not isinstance(raw, int if integer else (int, float))
        or not (raw > above and abs(raw) <= sys.float_info.max)  # False for NaN
    ):
        what = "an integer" if integer else "a number"
        raise ConfigError(f"{key!r} must be {what} above {above:g}, got {raw!r}")
    return raw if integer else float(raw)


def _seed_of(args, cfg: dict) -> int:
    return args.seed if args.seed is not None else _number(cfg, "seed", 0, integer=True)


def _build_learner(cfg: dict) -> Learner:
    lid = _need(cfg, "learner")
    if not isinstance(lid, str):
        raise ConfigError("'learner' must be a learner id string")
    params = cfg.get("learner_params", {})
    if not isinstance(params, dict):
        raise ConfigError("'learner_params' must be an object")
    return _learner_of(lid, params)


def _learner_of(lid: str, params: dict) -> Learner:
    """The learner ``lid`` (an id, "@list" ones too); a bad one is a config error."""
    lifted = lid.endswith("@list")
    base_id = lid[: -len("@list")] if lifted else lid
    try:
        if base_id == "bayes" and "model" in params:
            spec = params["model"]
            model = BayesModel(tuple(spec["hypotheses"]), spec["likelihood"])
            learner = make_bayes_learner(model)
        else:
            learner = get_learner(base_id, **params)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad learner configuration: {exc}") from exc
    except ConfLearnError as exc:
        raise ConfigError(str(exc)) from exc
    if not lifted:
        return learner
    try:
        return lift_to_list(learner)
    except UnsupportedError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_belief(obj) -> object:
    try:
        return belief_from_json(obj)
    except KeyError as exc:
        raise ConfigError(f"bad belief: missing field {exc}") from exc
    except (ConfLearnError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad belief: {exc}") from exc


def _parse_belief_for(learner: Learner, obj) -> object:
    """The belief ``obj``, which must be of the kind ``learner`` updates."""
    belief = _parse_belief(obj)
    kind = _kind_of(belief).name
    if learner.belief_kind is not None and kind != learner.belief_kind:
        raise ConfigError(
            f"learner {learner.id!r} updates {learner.belief_kind} beliefs, not {kind}"
        )
    return belief


def _parse_observation(learner: Learner, obj, belief):
    if learner.observation_from_json is None:
        raise ConfigError(f"learner {learner.id!r} takes no JSON observations")
    try:
        return learner.observation_from_json(obj, belief)
    except (ConfLearnError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad observation {obj!r}: {exc}") from exc


def _parse_grid(learner: Learner, cfg: dict) -> Tuple[ConfidenceValue, ...]:
    if "confidence_grid" not in cfg:
        return learner.default_grid
    raw = cfg["confidence_grid"]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("'confidence_grid' must be a nonempty array")
    try:
        return tuple(
            confidence_from_json(x, default_domain=learner.domain.id) for x in raw
        )
    except (ConfLearnError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad confidence grid: {exc}") from exc


def _integrator(cfg: dict) -> IntegratorConfig:
    spec = cfg.get("integrator", {})
    if not isinstance(spec, dict):
        raise ConfigError("'integrator' must be an object")
    try:
        return IntegratorConfig(**spec)
    except (TypeError, ConfLearnError) as exc:
        raise ConfigError(f"bad integrator settings: {exc}") from exc


def _parse_time(raw):
    if raw == "top":
        return math.inf
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        t = float(raw)
        if math.isnan(t) or t < 0:
            raise ConfigError(f"'t' must be nonnegative or \"top\", got {raw!r}")
        return t
    raise ConfigError(f"'t' must be a number or \"top\", got {raw!r}")


# ---------------------------------------------------------------------------
# learn: sweep one observation across a confidence grid.


def _confidence_headers(learner: Learner) -> Tuple[Tuple[str, ...], Callable]:
    dom = learner.domain
    if dom.id == "kalman":
        return ("K", "r2"), lambda v: (v.gain, v.noise)
    if dom.id == "count":
        return ("n",), lambda v: (dom.to_float(v),)
    if dom.is_scalar_continuum:
        return ("chi",), lambda v: (dom.to_float(v),)
    if dom.id.startswith("list:"):
        return ("chi",), lambda v: (json.dumps(confidence_to_json(v), sort_keys=True),)
    raise UnsupportedError(
        f"confidence domain {dom.id!r} has no flat CSV representation"
    )


def _belief_headers(theta) -> Tuple[Tuple[str, ...], Callable]:
    if _kind_of(theta).coords is None:
        return ("state",), lambda s: (json.dumps(belief_to_json(s), sort_keys=True),)
    return coord_labels(theta), lambda s: tuple(belief_coords(s))


def _cmd_learn(args, cfg: dict) -> int:
    learner = _build_learner(cfg)
    theta0 = _parse_belief_for(learner, _need(cfg, "belief"))
    phi = _parse_observation(learner, _need(cfg, "observation"), theta0)
    grid = _parse_grid(learner, cfg)
    if not grid:
        raise ConfigError("the learner has no default grid; supply 'confidence_grid'")
    name = _out_name(cfg, "output_csv", f"learn_{learner.id.replace(':', '_')}.csv")
    chi_headers, chi_cols = _confidence_headers(learner)
    bel_headers, bel_cols = _belief_headers(theta0)

    if learner.sweep is not None:
        states = learner.sweep(phi, grid, theta0)
    else:
        states = (learner.observe(phi, chi, theta0) for chi in grid)
    rows = []
    for chi, final in zip(grid, states):
        row = list(chi_cols(chi)) + list(bel_cols(final))
        if learner.bel is not None:
            row.append(learner.bel(phi, final))
        rows.append(row)

    headers = list(chi_headers) + list(bel_headers)
    if learner.bel is not None:
        headers.append("bel")
    _atomic_write(_out_path(args, name), _csv_text(headers, rows))

    payload = {
        "command": "learn",
        "learner": learner.id,
        "grid_size": len(grid),
        "final": belief_to_json(final),
        "csv": name,
    }
    if learner.bel is not None:
        payload["final_bel"] = float(learner.bel(phi, final))
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# combine: integrate the weighted parallel field of several observations.


def _cmd_combine(args, cfg: dict) -> int:
    learner = _build_learner(cfg)
    theta0 = _parse_belief_for(learner, _need(cfg, "belief"))
    obs = _need(cfg, "observations")
    if not isinstance(obs, list) or not obs:
        raise ConfigError("'observations' must be a nonempty array")
    phis = [_parse_observation(learner, o, theta0) for o in obs]
    weights = cfg.get("weights")
    if weights is not None and (
        not isinstance(weights, list) or len(weights) != len(phis)
    ):
        raise ConfigError("'weights' must match 'observations' in length")
    fields = [derivative_field(learner, phi) for phi in phis]
    try:
        field = combine_fields(fields, weights)
    except (ParameterError, TypeError) as exc:
        raise ConfigError(f"bad weights: {exc}") from exc
    icfg = _integrator(cfg)
    t = _parse_time(_need(cfg, "t"))
    name = _out_name(cfg, "output_csv", f"combine_{learner.id.replace(':', '_')}.csv")

    step_out = _number(cfg, "step_out", 0.1, above=0.0)
    final, record = integrate_sampled(field, theta0, t, icfg, step_out=step_out)
    _atomic_write(_out_path(args, name), record.to_csv_text())

    _emit(
        args,
        {
            "command": "combine",
            "learner": learner.id,
            "observations": len(phis),
            "t": "top" if math.isinf(t) else t,
            "final": belief_to_json(final),
            "csv": name,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# trotter: interleaved sequential updates against the parallel-field limit.


def _cmd_trotter(args, cfg: dict) -> int:
    learner = _build_learner(cfg)
    theta0 = _parse_belief_for(learner, _need(cfg, "belief"))
    obs = _need(cfg, "observations")
    if not isinstance(obs, list) or len(obs) != 2:
        raise ConfigError("'observations' must hold exactly two entries")
    phi1 = _parse_observation(learner, obs[0], theta0)
    phi2 = _parse_observation(learner, obs[1], theta0)
    chi = _number(cfg, "chi", above=0.0)
    n_values = cfg.get("n_values", [1, 2, 4, 8, 16, 32, 64])
    if not isinstance(n_values, list) or not n_values or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in n_values
    ):
        raise ConfigError("'n_values' must be a non-empty array of positive integers")
    icfg = _integrator(cfg)
    name = _out_name(cfg, "output_json", "trotter.json")
    rounds = sum(set(n_values))
    if rounds > icfg.max_steps:
        raise StepBudgetError(
            f"'n_values' take {rounds} rounds, more than max_steps={icfg.max_steps}"
        )

    field = combine_fields(
        [derivative_field(learner, phi1), derivative_field(learner, phi2)]
    )
    reference = integrate(field, theta0, chi, icfg)

    counts = sorted(set(n_values))
    states = trotter_interleave(learner, phi1, phi2, chi, counts, theta0)
    distances = {str(n): belief_distance(state, reference) for n, state in zip(counts, states)}
    ratios: Dict[str, float] = {}
    for n in counts:
        if str(2 * n) in distances and distances[str(n)] > 0:
            ratios[str(n)] = distances[str(2 * n)] / distances[str(n)]

    payload = {
        "command": "trotter",
        "learner": learner.id,
        "chi": chi,
        "distances": distances,
        "ratios": ratios,
        "reference": belief_to_json(reference),
    }
    _atomic_write(_out_path(args, name), json.dumps(payload, sort_keys=True, indent=2) + "\n")
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# axioms: the executable law suite over chosen learners.


def _resolve_learners(cfg: dict) -> List[Learner]:
    spec = cfg.get("learners", "all")
    out: List[Learner] = []
    if spec == "all":
        out.extend(get_learner(lid) for lid in available_learners())
    elif isinstance(spec, list):
        mutants = {m.id: m for m in get_mutants()}
        for lid in spec:
            if not isinstance(lid, str):
                raise ConfigError("'learners' entries must be id strings")
            out.append(mutants[lid] if lid in mutants else _learner_of(lid, {}))
    else:
        raise ConfigError("'learners' must be \"all\" or an array of ids")
    if cfg.get("include_lifted", False):
        out.extend(
            lift_to_list(base)
            for base in (get_learner(lid) for lid in available_learners())
            if base.top_absorbing
        )
    if cfg.get("include_mutants", False):
        out.extend(get_mutants())
    return out


def _cmd_axioms(args, cfg: dict) -> int:
    learners = _resolve_learners(cfg)
    name = _out_name(cfg, "output_json", "axioms.json")
    grids = [_parse_grid(learner, cfg) for learner in learners]
    try:
        check_cfg = CheckConfig(
            seed=_seed_of(args, cfg),
            samples=_number(cfg, "samples", 60, integer=True, above=0),
            tol=_number(cfg, "tol", 1e-10),
            lb_tol=_number(cfg, "lb_tol", 1e-5),
            l2_ratio_bound=_number(cfg, "l2_ratio_bound", 10.0),
            fd_step=_number(cfg, "fd_step", 1e-4),
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    reports = []
    for learner, grid in zip(learners, grids):
        reports.extend(run_suite(learner, dataclasses.replace(check_cfg, confidence_grid=grid)))
    _atomic_write(_out_path(args, name), reports_to_json(reports) + "\n")
    if not args.quiet:
        for r in reports:
            status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
            print(f"{r.learner_id:<20} {r.axiom_id:<3} {status}  worst={r.worst_violation:.3g}")
    failed = [r for r in reports if not r.passed]
    _emit(
        args,
        {
            "command": "axioms",
            "learners": [l.id for l in learners],
            "checks": len(reports),
            "failed": len(failed),
            "report": name,
        },
    )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# equiv: canned equivalence/limit experiments.


def experiment_bayes_boltzmann(seed: int = 0, samples: int = 100):
    """Boltzmann reweighting with v = -log lik equals powered Bayes updating.

    Draws random strict models (2..8 hypotheses), random priors and weights,
    and checks: (a) the two posteriors agree, (b) weight 1 is exact Bayes,
    (c) likelihoods survive the potential round trip exp(-(-log lik)).
    """
    rng = _seeded_rng(seed, "bayes-boltzmann")
    tol = 1e-12
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 9))
        hyps = tuple(f"h{i}" for i in range(n))
        lik = rng.uniform(0.05, 1.0, size=n)
        prior = FiniteSimplex(hyps, rng.dirichlet(np.ones(n)))
        beta = float(rng.uniform(0.1, 3.0))
        model = BayesModel(hyps, {"e": lik})
        learner = make_bayes_learner(model)

        post_b = learner.observe("e", beta, prior)
        v = RandomVariable(hyps, -np.log(lik))
        post_g = boltzmann_observe(v, beta, prior)
        worst = max(worst, belief_distance(post_b, post_g))

        exact = bayes_observe(model, "e", prior)
        worst = max(worst, belief_distance(learner.observe("e", 1.0, prior), exact))

        back = potential_to_likelihood({"e": dict(zip(hyps, -np.log(lik)))}, hyps)
        worst = max(worst, float(np.abs(back.row("e") - lik).max()))
        worst = max(worst, belief_distance(bayes_observe(back, "e", prior), exact))
    return worst <= tol, {"worst": worst, "tol": tol, "samples": samples}


def experiment_kalman_sequential(seed: int = 0, samples: int = 100):
    """Two gain updates equal one update at the composed (K, r2) pair, and
    optimal-gain updates add precisions."""
    rng = _seeded_rng(seed, "kalman-sequential")
    tol = 1e-10
    dom = get_domain("kalman")
    worst = 0.0
    worst_prec = 0.0
    for _ in range(samples):
        z = float(rng.normal(0.0, 2.0))
        b0 = GaussianBelief(float(rng.normal(0.0, 2.0)), float(rng.uniform(0.05, 5.0)))
        c1 = dom.sample(rng)
        c2 = dom.sample(rng)
        seq = kalman_observe(z, c2, kalman_observe(z, c1, b0))
        combined = kalman_observe(z, kalman_combine(c1, c2), b0)
        worst = max(worst, belief_distance(seq, combined))

        r2 = float(rng.uniform(0.1, 4.0))
        post = kalman_observe_opt(z, r2, b0)
        lhs = 1.0 / post.var
        rhs = 1.0 / b0.var + 1.0 / r2
        worst_prec = max(worst_prec, abs(lhs - rhs) / rhs)
    passed = worst <= tol and worst_prec <= tol
    return passed, {
        "worst_composition": worst,
        "worst_precision_rel": worst_prec,
        "tol": tol,
        "samples": samples,
    }


def experiment_interp_vs_ds(seed: int = 0, samples: int = 200):
    """Interpolation and graded plausibility revision agree exactly at the
    endpoints of the confidence scale and measurably disagree inside it."""
    rng = _seeded_rng(seed, "interp-vs-ds")
    end_tol = 1e-12
    interior_floor = 1e-3
    worst_end = 0.0
    min_interior = math.inf
    for _ in range(samples):
        n = int(rng.integers(2, 6))
        labels = tuple(f"w{i}" for i in range(n))
        p = FiniteSimplex(labels, rng.dirichlet(np.ones(n)))
        a = None
        for _ in range(256):
            mask = int(rng.integers(1, (1 << n) - 1))
            cand = p.event([labels[i] for i in range(n) if mask >> i & 1])
            if 0.05 <= p.prob(cand) <= 0.9:
                a = cand
                break
        if a is None:
            continue
        m = MassFunction.from_simplex(p)

        worst_end = max(
            worst_end,
            belief_distance(interp_observe(a, 0.0, p), p),
            belief_distance(ds_plaus_update(m, a, 0.0).as_simplex(), p),
            belief_distance(interp_observe(a, 1.0, p), condition(p, a)),
            belief_distance(ds_plaus_update(m, a, 1.0).as_simplex(), condition(p, a)),
        )
        gap = belief_distance(
            interp_observe(a, 0.5, p), ds_plaus_update(m, a, 0.5).as_simplex()
        )
        min_interior = min(min_interior, gap)
    demo_p = FiniteSimplex(("a", "b"), np.array([0.7, 0.3]))
    demo_a = demo_p.event(["a"])
    demo_interp = interp_observe(demo_a, 0.5, demo_p).prob(demo_a)
    demo_ds = (
        ds_plaus_update(MassFunction.from_simplex(demo_p), demo_a, 0.5)
        .as_simplex()
        .prob(demo_a)
    )
    passed = worst_end <= end_tol and min_interior >= interior_floor
    return passed, {
        "worst_endpoint": worst_end,
        "min_interior_gap": min_interior,
        "endpoint_tol": end_tol,
        "interior_floor": interior_floor,
        "samples": samples,
        "illustration": {
            "prior": {"a": 0.7, "b": 0.3},
            "event": ["a"],
            "alpha": 0.5,
            "interp_prob_a": demo_interp,
            "ds_prob_a": demo_ds,
        },
    }


def experiment_trotter_convergence(seed: int = 0, samples: int = 0):
    """First-order interleaving: halving the slice size halves the error, and
    interleaving a flow with itself is already exact at one round."""
    del seed, samples  # the instance is pinned for reproducibility
    learner = make_interp_learner()
    labels = ("a", "b", "c", "d")
    p = FiniteSimplex(labels, np.array([0.5, 0.2, 0.2, 0.1]))
    ev_a = p.event(["a", "b"])
    ev_b = p.event(["b", "c"])
    chi = 1.5
    field = combine_fields(
        [derivative_field(learner, ev_a), derivative_field(learner, ev_b)]
    )
    reference = integrate(field, p, chi)
    ns = (64, 128, 256, 512, 1024, 2048, 4096)
    states = trotter_interleave(learner, ev_a, ev_b, chi, ns, p)
    distances = {n: belief_distance(state, reference) for n, state in zip(ns, states)}
    ratios = {n: distances[2 * n] / distances[n] for n in (64, 128, 256, 512, 1024, 2048)}
    ratios_ok = all(0.3 <= r <= 0.7 for r in ratios.values())

    # a flow interleaved with itself commutes, so one round is already exact
    same = trotter_interleave(learner, ev_a, ev_a, chi, 1, p)
    closed = learner.make_flow(ev_a)(2.0 * chi, p)
    commuting_gap = belief_distance(same, closed)

    passed = ratios_ok and commuting_gap <= 1e-12
    return passed, {
        "distances": {str(n): d for n, d in distances.items()},
        "ratios": {str(n): r for n, r in ratios.items()},
        "commuting_gap": commuting_gap,
        "ratio_band": [0.3, 0.7],
    }


EXPERIMENTS: Dict[str, Callable[..., Tuple[bool, dict]]] = {
    "bayes-boltzmann": experiment_bayes_boltzmann,
    "kalman-sequential": experiment_kalman_sequential,
    "interp-vs-ds": experiment_interp_vs_ds,
    "trotter-convergence": experiment_trotter_convergence,
}


def _cmd_equiv(args, cfg: dict) -> int:
    name = _need(cfg, "experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; expected one of {', '.join(sorted(EXPERIMENTS))}"
        )
    out_name = _out_name(cfg, "output_json", f"equiv_{name}.json")
    kwargs = {"seed": _seed_of(args, cfg)}
    if "samples" in cfg:
        kwargs["samples"] = _number(cfg, "samples", integer=True, above=0)
    passed, payload = EXPERIMENTS[name](**kwargs)
    result = {"command": "equiv", "experiment": name, "passed": passed, **payload}
    _atomic_write(
        _out_path(args, out_name), json.dumps(result, sort_keys=True, indent=2) + "\n"
    )
    _emit(args, result)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Entry point.


_COMMANDS = {
    "learn": _cmd_learn,
    "combine": _cmd_combine,
    "trotter": _cmd_trotter,
    "axioms": _cmd_axioms,
    "equiv": _cmd_equiv,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conflearn",
        description="confidence-graded belief updating: sweeps, flows, law checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "learn": "sweep one observation across a confidence grid",
        "combine": "integrate the parallel field of several observations",
        "trotter": "compare interleaved updates with the parallel-field limit",
        "axioms": "run the executable law suite",
        "equiv": "run a canned equivalence experiment",
    }
    for name, handler in _COMMANDS.items():
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", required=True, help="path to the JSON config")
        sp.add_argument("--output", default=".", help="directory for result files")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--quiet", action="store_true", help="suppress stdout summaries")
        sp.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.handler(args, cfg)
    except (ConfigError, StepBudgetError) as exc:  # the budget comes from the config
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfLearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
