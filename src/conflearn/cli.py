"""Command-line front end.

    conflearn learn   --config learn.json   [--output DIR] [--quiet]
    conflearn combine --config combine.json [--output DIR] [--quiet]
    conflearn trotter --config trotter.json [--output DIR] [--quiet]
    conflearn axioms  --config axioms.json  [--output DIR] [--quiet]
    conflearn equiv   --config equiv.json   [--output DIR] [--quiet]

Configs are JSON files and the one home of every setting, the seed included.
Each command reads its own set of top-level keys (``_KEYS``); any other key is
a config error, raised before the command runs.  Results are written
atomically into the output directory and a summary JSON goes to stdout.  All
numeric CSV fields carry 17 significant digits so reruns are byte-identical.
``equiv`` runs one entry of ``identities.IDENTITIES`` on a generator derived
from the seed and the entry's name; the experiments themselves live there.

Exit codes: 0 success, 1 a requested check or experiment failed, 2 the
config is invalid or names an unknown experiment, 3 the computation itself
was rejected (zero-mass event, domain mismatch, no limit, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
import tempfile
import warnings
from typing import Callable, List, Optional, Sequence, Tuple

from .axioms import CheckConfig, _grid, _seeded_rng, reports_to_json, run_suite
from .beliefs import _kind_of, belief_from_json, belief_to_json
from .confidence import ConfidenceValue, confidence_from_json, confidence_to_json
from .errors import ConfigError, ConfLearnError, ParameterError, StepBudgetError, UnsupportedError
from .flows import (
    IntegratorConfig,
    _csv_text,
    _json_text,
    _trotter_errors,
    belief_coords,
    combine_fields,
    coord_labels,
    derivative_field,
    integrate_sampled,
)
from .identities import IDENTITIES
from .learners import (
    _FACTORIES,
    BayesModel,
    Learner,
    NonConvergenceWarning,
    available_learners,
    get_learner,
    lift_to_list,
)
from .mutants import get_mutants

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Small config/IO helpers.


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # an integer beyond the float range reads as +-inf, as 1e400 does, for the
            # readers' finite checks to see (int() refuses one of over 4,300 digits)
            cfg = json.load(fh, parse_int=lambda s: int(s) if math.isfinite(float(s)) else float(s))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    # RecursionError: arrays or objects nested past the parser's recursion limit
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _need(cfg: dict, key: str, name: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{name} is missing the {key!r} field")
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
        print(_json_text(payload))


def _number(cfg: dict, key: str, integer: bool = False, above: float = -math.inf):
    """cfg[key], which must be a finite JSON number above ``above``; an int if
    ``integer``."""
    raw = _need(cfg, key)
    if (
        isinstance(raw, bool)
        or not isinstance(raw, int if integer else (int, float))
        or not (raw > above and abs(raw) <= sys.float_info.max)  # False for NaN
    ):
        what = "an integer" if integer else "a number"
        raise ConfigError(f"{key!r} must be {what} above {above:g}, got {raw!r}")
    return raw if integer else float(raw)


def _settings(cfg: dict, integer: bool = False, **floors) -> dict:
    """The keys of ``floors`` that cfg names, each read by ``_number`` above its
    floor; a key it leaves out keeps its default where it is used."""
    return {k: _number(cfg, k, integer=integer, above=v) for k, v in floors.items() if k in cfg}


def _check_keys(name: str, spec, keys) -> None:
    """Refuse a config value that is no object, or names a key outside
    ``keys``: a typo or a stale key would otherwise run on defaults."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name!r} must be an object")
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        listed = ", ".join(sorted(keys)) or "none"
        raise ConfigError(f"{name} reads no key {', '.join(map(repr, unknown))}; its keys are {listed}")


# the keys each learner's learner_params may hold: its builder's keyword names
_PARAMS = {lid: frozenset(inspect.signature(build).parameters) for lid, build in _FACTORIES.items()}


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
        if base_id in _PARAMS:  # else get_learner names the unknown id
            _check_keys("learner_params", params, _PARAMS[base_id])
        if base_id == "bayes" and "model" in params:
            spec, keys = params["model"], [f.name for f in dataclasses.fields(BayesModel)]
            _check_keys("model", spec, keys)
            params = {**params, "model": BayesModel(*(_need(spec, key, "model") for key in keys))}
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


def _learner_and_belief(cfg: dict) -> Tuple[Learner, object]:
    """The config's learner and its belief, which must be of the kind the learner
    updates."""
    learner = _build_learner(cfg)
    try:
        belief = belief_from_json(_need(cfg, "belief"))
    except KeyError as exc:
        raise ConfigError(f"bad belief: missing field {exc}") from exc
    except (ConfLearnError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad belief: {exc}") from exc
    kind = _kind_of(belief).name
    if learner.belief_kind is not None and kind != learner.belief_kind:
        raise ConfigError(
            f"learner {learner.id!r} updates {learner.belief_kind} beliefs, not {kind}"
        )
    return learner, belief


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
    _check_keys("integrator", spec, [f.name for f in dataclasses.fields(IntegratorConfig)])
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
    learner, theta0 = _learner_and_belief(cfg)
    phi = _parse_observation(learner, _need(cfg, "observation"), theta0)
    grid = _parse_grid(learner, cfg)
    if not grid:
        raise ConfigError("the learner has no default grid; supply 'confidence_grid'")
    name = _out_name(cfg, "output_csv", f"learn_{learner.id.replace(':', '_')}.csv")
    chi_headers, chi_cols = _confidence_headers(learner)
    bel_headers, bel_cols = _belief_headers(theta0)

    # a training run that stops at its step cap still gives a belief: one stderr
    # line says so, under any warning filter
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NonConvergenceWarning)
        if learner.sweep is not None:  # the grid's coordinate rows and bel values at once
            coords, bels, final = learner.sweep(phi, grid, theta0)
            rows = [[*chi_cols(chi), *c, b] for chi, c, b in zip(grid, coords.tolist(), bels)]
        else:
            rows = []
            for chi in grid:
                final = learner.observe(phi, chi, theta0)
                row = list(chi_cols(chi)) + list(bel_cols(final))
                if learner.bel is not None:
                    row.append(learner.bel(phi, final))
                rows.append(row)
    for w in caught:
        if issubclass(w.category, NonConvergenceWarning):
            print(f"warning: {w.message}", file=sys.stderr)
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)

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
    learner, theta0 = _learner_and_belief(cfg)
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

    final, record = integrate_sampled(field, theta0, t, icfg, **_settings(cfg, step_out=0.0))
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
    learner, theta0 = _learner_and_belief(cfg)
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

    reference, distances, ratios = _trotter_errors(learner, phi1, phi2, chi, n_values, theta0, icfg)

    payload = {
        "command": "trotter",
        "learner": learner.id,
        "chi": chi,
        "distances": distances,
        "ratios": ratios,
        "reference": belief_to_json(reference),
    }
    _atomic_write(_out_path(args, name), _json_text(payload, indent=2) + "\n")
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# axioms: the executable law suite over chosen learners.


def _resolve_learners(cfg: dict) -> List[Learner]:
    spec = cfg.get("learners", "all")
    if spec == "all":
        return [get_learner(lid) for lid in available_learners()]
    if not isinstance(spec, list) or not spec:
        raise ConfigError("'learners' must be \"all\" or a non-empty array of ids")
    if not all(isinstance(lid, str) for lid in spec):
        raise ConfigError("'learners' entries must be id strings")
    mutants = {m.id: m for m in get_mutants()}
    return [mutants[lid] if lid in mutants else _learner_of(lid, {}) for lid in spec]


def _cmd_axioms(args, cfg: dict) -> int:
    learners = _resolve_learners(cfg)
    name = _out_name(cfg, "output_json", "axioms.json")
    check_cfg = CheckConfig(**_settings(cfg, integer=True, seed=-math.inf, samples=0))
    runs = []
    for learner in learners:  # every grid is checked before the first law
        run_cfg = dataclasses.replace(check_cfg, confidence_grid=_parse_grid(learner, cfg))
        try:
            _grid(learner, run_cfg)
        except ParameterError as exc:
            raise ConfigError(f"for {learner.id}, {exc}") from exc
        runs.append((learner, run_cfg))
    reports = []
    for learner, run_cfg in runs:
        reports.extend(run_suite(learner, run_cfg))
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
# equiv: one entry of the table of paper identities.


def _cmd_equiv(args, cfg: dict) -> int:
    name = _need(cfg, "experiment")
    if not isinstance(name, str) or name not in IDENTITIES:
        raise ConfigError(
            f"unknown experiment {name!r}; expected one of {', '.join(sorted(IDENTITIES))}"
        )
    out_name = _out_name(cfg, "output_json", f"equiv_{name}.json")
    settings = _settings(cfg, integer=True, seed=-math.inf, samples=0)
    rng = _seeded_rng(settings.pop("seed", 0), name)
    passed, payload = IDENTITIES[name](rng, **settings)
    result = {"command": "equiv", "experiment": name, "passed": passed, **payload}
    _atomic_write(_out_path(args, out_name), _json_text(result, indent=2) + "\n")
    _emit(args, result)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Entry point.


_COMMANDS = {  # name: (handler, help line)
    "learn": (_cmd_learn, "sweep one observation across a confidence grid"),
    "combine": (_cmd_combine, "integrate the parallel field of several observations"),
    "trotter": (_cmd_trotter, "compare interleaved updates with the parallel-field limit"),
    "axioms": (_cmd_axioms, "run the executable law suite"),
    "equiv": (_cmd_equiv, "run a canned equivalence experiment"),
}

# the top-level config keys each command reads; any other key is a config error
_KEYS = {
    "learn": {"learner", "learner_params", "belief", "observation", "confidence_grid",
              "output_csv"},
    "combine": {"learner", "learner_params", "belief", "observations", "weights", "integrator",
                "t", "step_out", "output_csv"},
    "trotter": {"learner", "learner_params", "belief", "observations", "chi", "n_values",
                "integrator", "output_json"},
    "axioms": {"learners", "samples", "seed", "confidence_grid", "output_json"},
    "equiv": {"experiment", "seed", "samples", "output_json"},
}


@functools.lru_cache(maxsize=None)  # built on the first call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conflearn",
        description="confidence-graded belief updating: sweeps, flows, law checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_line) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("--config", required=True, help="path to the JSON config")
        sp.add_argument("--output", default=".", help="directory for result files")
        sp.add_argument("--quiet", action="store_true", help="suppress stdout summaries")
        sp.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _check_keys(args.command, cfg, _KEYS[args.command])
        return args.handler(args, cfg)
    except (ConfigError, StepBudgetError) as exc:  # over the step budget: the config asks too much
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfLearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
