"""In-memory tracing of conflearn's layers, installed by monkeypatching.

The benchmark wraps public entry points of each module from outside the
library.  ``cli`` and ``axioms`` bind names with ``from ... import``, so a
function is replaced at every module attribute that holds it, not only where
it is defined.  Methods, constructors and field handles are patched on their
classes; learners are instrumented as the factories hand them out, because
``Learner.observe`` is a dataclass field, not a method.

Span bookkeeping:

- every wrapped call is a span with a name ``<layer>.<what>``;
- self time = span duration minus the durations of its direct child spans;
- fine-grained spans (domain ops, belief construction, field evaluations,
  observe calls, ...) are aggregated per name as calls / inclusive / self
  seconds, so a run's memory stays bounded;
- coarse spans (jobs, ``cli.main``, axiom checks, integrations, trotter,
  train_limit) are also kept whole: name, start, end, parent span and job id.

Everything stays in memory until :meth:`Tracer.dump` writes it out.
"""

from __future__ import annotations

import dataclasses
import json
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

LAYERS = ("confidence", "beliefs", "learners", "flows", "axioms", "cli", "bench")
_COARSE = {
    "bench.job",
    "cli.main",
    "flows.integrate",
    "flows.integrate_sampled",
    "flows.trotter",
    "learners.train_limit",
}
_WRAPPED = "__bench_wrapped__"


def _is_coarse(name: str) -> bool:
    return name in _COARSE or name.startswith("axioms.")


class Tracer:
    def __init__(self):
        self.stack: List[list] = []  # frames: [start, child seconds, coarse index]
        self.agg: Dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.spans: List[list] = []  # coarse: [name, start, end, parent, job, detail]
        self.counts: Dict[str, float] = {}
        self.job = None
        self.axioms_depth = 0
        self.field_depth = 0
        self._patches: List[tuple] = []
        self._learners: Dict[int, tuple] = {}

    # -- spans -------------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn: Callable, name, detail: Callable = None, after: Callable = None):
        """Wrap ``fn`` in a span.  ``name`` is a string, or a function of the
        call's arguments returning one; ``after(result, args)`` runs on exit."""
        if getattr(fn, _WRAPPED, False):
            return fn
        stack, agg, spans = self.stack, self.agg, self.spans
        fixed = name if isinstance(name, str) else None
        fixed_coarse = fixed is not None and _is_coarse(fixed)

        def wrapper(*args, **kwargs):
            if fixed is None:
                label = name(*args, **kwargs)
                coarse = _is_coarse(label)
            else:
                label, coarse = fixed, fixed_coarse
            parent = stack[-1][2] if stack else -1
            frame = [0.0, 0.0, parent]
            if coarse:
                frame[2] = len(spans)
                spans.append(
                    [label, 0.0, 0.0, parent, self.job, detail(*args, **kwargs) if detail else None]
                )
            stack.append(frame)
            frame[0] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                rec = agg.get(label)
                if rec is None:
                    rec = agg[label] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if coarse:
                    spans[frame[2]][1] = start
                    spans[frame[2]][2] = end
            if after is not None:
                after(result, args)
            return result

        setattr(wrapper, _WRAPPED, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_method(self, cls, attr: str, name) -> None:
        if attr in cls.__dict__:
            self._set(cls, attr, self.wrap(cls.__dict__[attr], name))

    def patch_function(self, modules, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` at every attribute of ``modules`` bound to it."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._learners.clear()

    def install(self) -> None:
        import conflearn
        from conflearn import axioms, beliefs, cli, confidence, flows, learners, mutants

        mods = [conflearn, confidence, beliefs, learners, flows, axioms, mutants, cli]

        def everywhere(module, names, label, **kw):
            for n in names:
                fn = getattr(module, n)
                self.patch_function(mods, fn, self.wrap(fn, label(n), **kw))

        # confidence: domain ops on every domain class, JSON, charts
        for cls in vars(confidence).values():
            if isinstance(cls, type) and issubclass(cls, confidence.ConfidenceDomain):
                for op in ("coerce", "value", "combine", "residual", "leq", "to_float"):
                    self.patch_method(cls, op, f"confidence.{op}")
        everywhere(confidence, ("confidence_to_json", "confidence_from_json"), lambda n: "confidence.json")
        everywhere(confidence, ("frac_to_add", "add_to_frac"), lambda n: "confidence.chart")
        everywhere(confidence, ("kalman_combine",), lambda n: "confidence.kalman_combine")

        # beliefs: constructors (with_probs builds through them), rules, JSON
        for cls in (beliefs.FiniteSimplex, beliefs.GaussianBelief, beliefs.GradedBeliefTable,
                    beliefs.MassFunction):
            self.patch_method(cls, "__init__", "beliefs.construct")
        everywhere(
            beliefs,
            ("condition", "image", "jeffrey", "simple_support", "dempster_combine", "ds_plaus_update"),
            lambda n: "beliefs.rule",
        )
        everywhere(beliefs, ("belief_distance",), lambda n: "beliefs.distance")
        everywhere(beliefs, ("belief_to_json", "belief_from_json"), lambda n: "beliefs.json")

        # flows: handles, tangents, projection, integrators
        self._patch_handles(flows)
        self.patch_method(flows.TangentVector, "__init__", "flows.tangent")
        everywhere(flows, ("belief_rebuild",), lambda n: "flows.rebuild", after=self._clipped)
        everywhere(flows, ("integrate", "integrate_sampled"), lambda n: f"flows.{n}")
        everywhere(flows, ("trotter_interleave",), lambda n: "flows.trotter")
        everywhere(flows, ("metric_gradient", "natural_gradient"), lambda n: "flows.gradient")
        everywhere(
            flows,
            ("derivative_field", "combine_fields", "parallel_field", "additive_form"),
            lambda n: "flows.build",
        )

        # learners: every Learner handed out gets wrapped hooks
        factories = ["get_learner", "lift_to_list"] + [
            n for n in vars(learners) if n.startswith("make_") and n.endswith("_learner")
        ]
        for n in factories:
            fn = getattr(learners, n)
            self.patch_function(mods, fn, self._learner_factory(fn))
        self.patch_function(mods, mutants.get_mutants, self._mutant_factory(mutants.get_mutants))
        self._set(learners, "train_limit", self.wrap(
            learners.train_limit, "learners.train_limit",
            after=lambda res, args: self.count("learners.train_limit.converged", int(res[1])),
        ))
        steps = learners.class_log_probs

        def class_log_probs(*args, **kwargs):
            self.count("learners.classifier.steps")
            return steps(*args, **kwargs)

        self._set(learners, "class_log_probs", class_log_probs)
        # update rules the CLI's equivalence experiments call directly
        for n in ("interp_observe", "kalman_observe", "kalman_observe_opt", "boltzmann_observe",
                  "bayes_observe", "potential_to_likelihood"):
            fn = getattr(learners, n)
            self.patch_function([cli], fn, self.wrap(fn, "learners.rule"))

        # axioms and cli entry points
        self.patch_function(
            mods,
            axioms.check_axiom,
            self._check_wrapper(axioms.check_axiom),
        )
        self.patch_function([cli], cli.main, self.wrap(cli.main, "cli.main"))

    # -- layer-specific wrappers -------------------------------------------

    def _clipped(self, result, args) -> None:
        template, vec = args[0], args[1]
        if type(template).__name__ == "FiniteSimplex":
            vec = np.asarray(vec, dtype=float)
            self.count("flows.clipped_mass", float(-vec[vec < 0.0].sum()))

    def _patch_handles(self, flows) -> None:
        for cls in (flows.VectorFieldHandle, flows._LazyHandle):
            call = cls.__dict__["__call__"]
            inner = self.wrap(call, "flows.field_eval")

            def handle_call(handle, theta, _inner=inner):
                if self.field_depth == 0:
                    self.count("flows.field_eval.outer")
                self.field_depth += 1
                try:
                    return _inner(handle, theta)
                finally:
                    self.field_depth -= 1

            setattr(handle_call, _WRAPPED, True)
            self._set(cls, "__call__", handle_call)

    def _check_wrapper(self, check_axiom):
        def label(learner, axiom_id, cfg=None):
            return f"axioms.{axiom_id}"

        spanned = self.wrap(check_axiom, label, detail=lambda learner, axiom_id, cfg=None: learner.id)

        def wrapper(learner, axiom_id, cfg=None):
            self.axioms_depth += 1
            try:
                return spanned(learner, axiom_id, cfg)
            finally:
                self.axioms_depth -= 1

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def instrument(self, learner):
        """A copy of ``learner`` whose hooks open learners-layer spans."""
        hit = self._learners.get(id(learner))
        if hit is not None:
            return hit[1]
        spanned = self.wrap(learner.observe, f"learners.observe.{learner.id}")

        def observe(*args):
            if self.axioms_depth:
                self.count("axioms.observe_calls")
            return spanned(*args)

        kw = {"observe": observe}
        for hook, label in (("bel", "learners.bel"), ("in_domain", "learners.in_domain"),
                            ("path_velocity", "learners.velocity")):
            fn = getattr(learner, hook)
            if fn is not None:
                kw[hook] = self.wrap(fn, label)
        for hook, label in (("closed_field", "learners.field"), ("make_flow", "learners.flow")):
            factory = getattr(learner, hook)
            if factory is not None and not getattr(factory, _WRAPPED, False):
                kw[hook] = self._returns_wrapped(factory, label)
        out = dataclasses.replace(learner, **kw)
        self._learners[id(learner)] = (learner, out)
        self._learners[id(out)] = (out, out)
        return out

    def _returns_wrapped(self, factory, label):
        def make(phi):
            return self.wrap(factory(phi), label)

        setattr(make, _WRAPPED, True)
        return make

    def _learner_factory(self, fn):
        def factory(*args, **kwargs):
            return self.instrument(fn(*args, **kwargs))

        return self.wrap(factory, "learners.build")

    def _mutant_factory(self, fn):
        def factory(*args, **kwargs):
            return tuple(self.instrument(m) for m in fn(*args, **kwargs))

        return self.wrap(factory, "learners.build")

    # -- reporting -----------------------------------------------------------

    def calls(self, prefix: str) -> int:
        return sum(v[0] for k, v in self.agg.items() if k == prefix or k.startswith(prefix + "."))

    def self_s(self, prefix: str) -> float:
        return sum(v[2] for k, v in self.agg.items() if k == prefix or k.startswith(prefix + "."))

    def inclusive_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[1]

    def dump(self, path: str, meta: dict) -> None:
        payload = {
            "meta": meta,
            "aggregates": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.agg.items())},
            "counters": self.counts,
            "span_fields": ["name", "start", "end", "parent", "job", "detail"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
