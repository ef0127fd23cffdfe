"""Belief states and the full-confidence revision rules that act on them.

Four belief representations are provided:

- :class:`FiniteSimplex`: probability vectors over at most 64 named worlds,
  with events as label subsets (:class:`EventSet`).
- :class:`GaussianBelief`: a (mean, variance) state for scalar estimation.
- :class:`MassFunction`: Dempster-Shafer basic mass assignments over at most
  20 worlds, with derived belief/plausibility set functions.
- :class:`GradedBeliefTable`: per-statement support grades in [0, 1].

Parameter vectors (numpy arrays) are a fifth kind.  Each kind is described
once, in a private record (``_KINDS``) holding its space key, coordinates,
projection, rebuild, distance and JSON form; every other module asks it.

The module-level operations are the *certain* (full-confidence) revisions:
conditioning, imaging, Jeffrey mixing, and the plausibility update obtained
by Dempster-combining with a simple support function.  Confidence-graded
versions of these live in :mod:`conflearn.learners`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .confidence import _FRAC, ConfidenceValue, _float_of
from .errors import (
    InvalidImagingMapError,
    NumericalError,
    ParameterError,
    TotalConflictError,
    ZeroMassEventError,
)

__all__ = [
    "EventSet",
    "FiniteSimplex",
    "GaussianBelief",
    "MassFunction",
    "GradedBeliefTable",
    "RandomVariable",
    "condition",
    "image",
    "jeffrey",
    "simple_support",
    "dempster_combine",
    "ds_plaus_update",
    "belief_distance",
    "belief_to_json",
    "belief_from_json",
]

MASS_EPS = 1e-12
MAX_WORLDS = 64
MAX_MASS_WORLDS = 20


def _check_labels(labels: Sequence[str], cap: int) -> Tuple[str, ...]:
    if isinstance(labels, str):  # would read as a list of one-letter names
        raise ParameterError(f"world labels must be a list of names, got {labels!r}")
    labels = tuple(labels)
    if not labels:
        raise ParameterError("at least one world label is required")
    if len(labels) > cap:
        raise ParameterError(f"at most {cap} worlds supported, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ParameterError("world labels must be unique")
    return labels


@dataclass(frozen=True)
class EventSet:
    """A subset of a named world set, stored as a bitmask over the labels."""

    labels: Tuple[str, ...]
    mask: int

    def __post_init__(self):
        labels = _check_labels(self.labels, MAX_WORLDS)
        object.__setattr__(self, "labels", labels)
        full = (1 << len(labels)) - 1
        if not 0 <= self.mask <= full:
            raise ParameterError(f"event mask {self.mask:#x} outside world set")
        # computed once and read-only; not a field, so == and hash (events are dict keys) skip it
        ind = np.array([(self.mask >> i) & 1 for i in range(len(labels))], dtype=float)
        ind.setflags(write=False)
        object.__setattr__(self, "_indicator", ind)

    @classmethod
    def from_names(cls, labels: Sequence[str], names: Iterable[str]) -> "EventSet":
        if isinstance(names, str):  # would read as a list of one-letter names
            raise ParameterError(f"event must be a list of world names, got {names!r}")
        labels = tuple(labels)
        mask = 0
        for name in names:
            try:
                mask |= 1 << labels.index(name)
            except ValueError:
                raise ParameterError(f"unknown world {name!r}") from None
        return cls(labels, mask)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def members(self) -> Tuple[str, ...]:
        return tuple(
            lab for i, lab in enumerate(self.labels) if self.mask >> i & 1
        )

    def contains(self, name: str) -> bool:
        return bool(self.mask >> self.labels.index(name) & 1)

    def complement(self) -> "EventSet":
        return EventSet(self.labels, self.full_mask & ~self.mask)

    def intersect(self, other: "EventSet") -> "EventSet":
        self._check_same(other)
        return EventSet(self.labels, self.mask & other.mask)

    def union(self, other: "EventSet") -> "EventSet":
        self._check_same(other)
        return EventSet(self.labels, self.mask | other.mask)

    def indicator(self) -> np.ndarray:
        return self._indicator

    def _check_same(self, other: "EventSet") -> None:
        if self.labels != other.labels:
            raise ParameterError("events over different world sets")

    def __repr__(self) -> str:
        return "{" + ",".join(self.members()) + "}"


def normalize_probs(p: np.ndarray) -> np.ndarray:
    """The probability vector a FiniteSimplex stores for the float vector p,
    or for each row of p.

    Rejects non-finite entries, finite ones whose total overflows and entries
    below -MASS_EPS, clamps round-off negatives to zero and divides by the
    total, which must exceed MASS_EPS.
    Returns a new array.  Array-native flows project with this too, so their
    states keep the constructor's bits; a row's sum is the sum of the same
    vector alone, so each row gets the bits it gets alone.  One vector is
    checked in plain floats: its sum has the bits of its row's.
    """
    if p.ndim == 1:
        total = lowest = whole = float(np.add.reduce(p))
    else:
        total = np.add.reduce(p, axis=-1, keepdims=True)
        sums = total.ravel().tolist()
        whole, lowest = sum(sums), min(sums)
        total = sums[0] if len(sums) == 1 else total  # numpy divides by a float faster
    # a finite sum has finite terms; only a non-finite one needs a closer look
    if not math.isfinite(whole):
        if not np.isfinite(p).all():
            raise ParameterError("probabilities must be finite")
        if np.any(total == math.inf):
            raise ParameterError("probabilities sum past the float range")
    least = min(p.tolist()) if p.ndim == 1 else float(np.minimum.reduce(p, axis=None))  # no NaN here
    if least < -MASS_EPS:
        raise ParameterError(f"negative probability {least!r}")
    if least < 0.0:  # summed again once clamped; clamping a zero's sign (below) changes no sum
        return normalize_probs(np.maximum(p, 0.0))
    if not least > 0.0:  # with every entry positive, clamping changes no bit
        p = np.maximum(p, 0.0)
    if lowest <= MASS_EPS:
        raise ParameterError("probability vector sums to zero")
    return p / total


@dataclass(frozen=True)
class FiniteSimplex:
    """A probability distribution over named worlds.

    The constructor clamps round-off negatives (>= -1e-12) to zero and
    renormalizes, so downstream operations can assume sum-to-one without
    tracking drift.  The probability array is read-only.
    """

    labels: Tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        self._freeze(_check_labels(self.labels, MAX_WORLDS), self.probs)

    def _freeze(self, labels: Tuple[str, ...], p) -> "FiniteSimplex":
        """The step that builds every simplex: p as a read-only float vector of
        the checked ``labels``' length, normalized.  Results the library derives
        call it on ``object.__new__(FiniteSimplex)``, skipping the label checks."""
        p = np.asarray(p, dtype=float)
        if p.shape != (len(labels),):
            raise ParameterError(
                f"probability vector shape {p.shape} does not match {len(labels)} labels"
            )
        p = normalize_probs(p)
        p.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", p)
        return self

    @classmethod
    def from_dict(cls, table: Mapping[str, float]) -> "FiniteSimplex":
        labels = tuple(table)
        return cls(labels, np.array([table[k] for k in labels], dtype=float))

    def event(self, names: Iterable[str]) -> EventSet:
        return EventSet.from_names(self.labels, names)

    def prob(self, a: EventSet) -> float:
        if a.labels != self.labels:
            raise ParameterError("event over a different world set")
        return float(self.probs @ a.indicator())

    def with_probs(self, p: np.ndarray) -> "FiniteSimplex":
        """These worlds with the probabilities p, checked and normalized as the
        constructor does; the labels, already checked, are not checked again."""
        return object.__new__(FiniteSimplex)._freeze(self.labels, p)

    def __eq__(self, other) -> bool:  # by value: the dataclass's == raises on two arrays
        return type(other) is FiniteSimplex and self.labels == other.labels and np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}: {p:.4g}" for l, p in zip(self.labels, self.probs))
        return f"FiniteSimplex({inner})"


@dataclass(frozen=True)
class GaussianBelief:
    """Scalar estimate with mean and variance; variance may be inf."""

    mean: float
    var: float

    def __post_init__(self):
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "var", float(self.var))
        if math.isnan(self.mean) or math.isnan(self.var):
            raise ParameterError("NaN in Gaussian belief")
        if math.isinf(self.mean):
            raise ParameterError("Gaussian mean must be finite")
        if self.var < 0.0:
            raise ParameterError(f"negative variance {self.var!r}")


@dataclass(frozen=True)
class RandomVariable:
    """A real-valued map on a named world set (a potential/penalty vector)."""

    labels: Tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        labels = _check_labels(self.labels, MAX_WORLDS)
        object.__setattr__(self, "labels", labels)
        v = np.asarray(self.values, dtype=float).copy()
        if v.shape != (len(labels),):
            raise ParameterError("value vector does not match labels")
        if not np.all(np.isfinite(v)):
            raise ParameterError("random variable values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_dict(cls, labels: Sequence[str], table: Mapping[str, float]) -> "RandomVariable":
        return cls(tuple(labels), np.array([table[k] for k in labels], dtype=float))

    def __eq__(self, other) -> bool:  # as FiniteSimplex's
        return type(other) is RandomVariable and self.labels == other.labels and np.array_equal(self.values, other.values)


# ---------------------------------------------------------------------------
# Certain revision rules on the simplex.


def condition(p: FiniteSimplex, a: EventSet) -> FiniteSimplex:
    """Bayesian conditioning P(. | a); rejects events of mass <= MASS_EPS."""
    if a.labels != p.labels:
        raise ParameterError("event over a different world set")
    return p.with_probs(_conditioned(p.probs, a.indicator(), (a,)))


def _conditioned(pr: np.ndarray, ind: np.ndarray, events: Sequence[EventSet]) -> np.ndarray:
    """pr * ind / (pr . ind), or each row's, with the bits of the row alone; an event (of
    ``events``, one a row) of mass at most MASS_EPS raises ZeroMassEventError."""
    mass = np.vecdot(pr, ind)  # np.dot's bits, row by row
    least = min(np.ravel(mass).tolist())
    if least <= MASS_EPS:
        raise ZeroMassEventError(f"cannot condition on {events[int(np.argmin(mass))]!r} with mass {least:.3g}")
    return pr * ind / mass[..., None]


def image(
    p: FiniteSimplex,
    f: Callable[[EventSet, str], str],
    a: EventSet,
) -> FiniteSimplex:
    """Imaging: move each world's mass to its designated representative in a.

    ``f(a, w)`` names the world that w's mass moves to; it must land inside
    ``a`` and fix its own image (idempotence), otherwise the map is rejected.
    """
    if a.is_empty:
        raise InvalidImagingMapError("cannot image onto the empty event")
    targets = []
    for w in p.labels:
        t = f(a, w)
        if t not in p.labels:
            raise InvalidImagingMapError(f"image {t!r} of {w!r} is not a world")
        if not a.contains(t):
            raise InvalidImagingMapError(f"image {t!r} of {w!r} lies outside {a!r}")
        targets.append(t)
    # idempotence: representatives must be their own representative
    for t in set(targets):
        if f(a, t) != t:
            raise InvalidImagingMapError(f"map does not fix its image point {t!r}")
    out = np.zeros(len(p.labels))
    for w, t, mass in zip(p.labels, targets, p.probs):
        out[p.labels.index(t)] += mass
    return p.with_probs(out)


def jeffrey(
    p: FiniteSimplex,
    partition: Sequence[EventSet],
    pi: Union[FiniteSimplex, Sequence[float]],
) -> FiniteSimplex:
    """Jeffrey's rule: reweight the partition cells to the target marginals.

    ``pi`` gives one target probability per cell (a plain sequence or a
    FiniteSimplex over cell names, in partition order).  Cells with target
    above MASS_EPS must have prior mass above it; the others are dropped.
    """
    if not partition:
        raise ParameterError("empty partition")
    labels = partition[0].labels
    union = 0
    for cell in partition:
        if cell.labels != labels:
            raise ParameterError("partition cells over different world sets")
        if union & cell.mask:
            raise ParameterError("partition cells overlap")
        union |= cell.mask
    if union != partition[0].full_mask:
        raise ParameterError("partition does not cover the world set")
    weights = np.asarray(
        pi.probs if isinstance(pi, FiniteSimplex) else pi, dtype=float
    )
    if weights.shape != (len(partition),):
        raise ParameterError("one target weight per cell is required")
    if weights.min() < -MASS_EPS or abs(weights.sum() - 1.0) > 1e-9:
        raise ParameterError("target weights must form a distribution")
    out = np.zeros(len(labels))
    for cell, w in zip(partition, weights):
        if w <= MASS_EPS:
            continue
        mass = p.prob(cell)
        if mass <= MASS_EPS:
            raise ZeroMassEventError(f"cell {cell!r} has prior mass {mass:.3g}")
        out += w * (np.asarray(p.probs) * cell.indicator() / mass)
    return p.with_probs(out)


# ---------------------------------------------------------------------------
# Dempster-Shafer states.


@dataclass(frozen=True)
class MassFunction:
    """A basic mass assignment: focal subsets (bitmasks) with positive mass.

    The empty set carries no mass; masses are renormalized to sum to one,
    and a total past the float range is refused.  ``bel``/``plaus`` are the
    induced belief and plausibility set functions.
    """

    labels: Tuple[str, ...]
    masses: Mapping[int, float]

    def __post_init__(self):
        labels = _check_labels(self.labels, MAX_MASS_WORLDS)
        full = (1 << len(labels)) - 1
        clean: Dict[int, float] = {}
        for subset, m in self.masses.items():
            subset = int(subset)
            m = float(m)
            if not 0 <= subset <= full:
                raise ParameterError(f"focal mask {subset:#x} outside world set")
            if not -MASS_EPS <= m < math.inf:  # false for NaN
                raise ParameterError(f"bad mass {m!r}")
            if subset == 0 or m <= 0.0:
                continue
            clean[subset] = clean.get(subset, 0.0) + m
        self._freeze(labels, clean)

    def _freeze(self, labels: Tuple[str, ...], masses: Mapping[int, float]) -> "MassFunction":
        """The step that builds every mass function: the positive float masses
        on nonempty subsets of the checked ``labels``, renormalized in subset
        order.  Results the library derives call it directly, skipping the checks."""
        clean = {s: m for s, m in masses.items() if m > 0.0}
        total = sum(clean.values())
        if total == math.inf:
            raise ParameterError("masses sum past the float range")
        if total <= MASS_EPS:
            raise ParameterError("mass function has no positive focal mass")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "masses", {s: m / total for s, m in sorted(clean.items())})
        return self

    @classmethod
    def from_simplex(cls, p: FiniteSimplex) -> "MassFunction":
        return object.__new__(cls)._freeze(p.labels, {1 << i: float(m) for i, m in enumerate(p.probs) if m > 0})

    def event(self, names: Iterable[str]) -> EventSet:
        return EventSet.from_names(self.labels, names)

    def _mask_of(self, u: EventSet) -> int:
        if u.labels != self.labels:
            raise ParameterError("event over a different world set")
        return u.mask

    def bel(self, u: EventSet) -> float:
        """Total mass committed to subsets of u."""
        mask = self._mask_of(u)
        return float(sum(m for s, m in self.masses.items() if s & ~mask == 0))

    def plaus(self, u: EventSet) -> float:
        """Total mass not contradicting u."""
        mask = self._mask_of(u)
        return float(sum(m for s, m in self.masses.items() if s & mask))

    def as_simplex(self) -> FiniteSimplex:
        out = [0.0] * len(self.labels)
        for s, m in self.masses.items():
            if s & (s - 1):
                raise ParameterError("mass function has non-singleton focal sets")
            out[s.bit_length() - 1] = m
        return object.__new__(FiniteSimplex)._freeze(self.labels, out)

    def __repr__(self) -> str:
        parts = []
        for s, m in self.masses.items():
            names = ",".join(l for i, l in enumerate(self.labels) if s >> i & 1)
            parts.append(f"{{{names}}}: {m:.4g}")
        return "MassFunction(" + "; ".join(parts) + ")"


def _support_masses(labels: Tuple[str, ...], a: EventSet, s: float) -> tuple:
    """simple_support's (subset, mass) pairs in subset order, vacuous on the whole world set:
    s + (1 - s) rounds to exactly 1 for every float s in [0, 1], so they are normalized."""
    if a.labels != labels:
        raise ParameterError("event over a different world set")
    if a.is_empty:
        raise ParameterError("support event must be nonempty")
    full = (1 << len(labels)) - 1
    if a.mask == full or not s:
        return ((full, 1.0),)
    return ((a.mask, s),) if s == 1.0 else ((a.mask, s), (full, 1.0 - s))


def simple_support(labels: Sequence[str], a: EventSet, alpha: Union[float, ConfidenceValue]) -> MassFunction:
    """The simple support function: mass alpha on a, 1 - alpha on everything;
    on the whole world set it is vacuous (all mass there) at every alpha."""
    s = _float_of(_FRAC, alpha)
    labels = _check_labels(labels, MAX_MASS_WORLDS)  # the constructor's; its per-entry checks hold by construction
    return object.__new__(MassFunction)._freeze(labels, dict(_support_masses(labels, a, s)))


def _dempster(labels: Tuple[str, ...], masses: Mapping[int, float], other) -> MassFunction:
    """Dempster's rule on ``masses`` and the (subset, mass) pairs ``other``, both in subset order."""
    out: Dict[int, float] = {}
    conflict = 0.0
    for s1, w1 in masses.items():
        for s2, w2 in other:
            inter = s1 & s2
            w = w1 * w2
            if inter == 0:
                conflict += w
            else:
                out[inter] = out.get(inter, 0.0) + w
    if 1.0 - conflict <= MASS_EPS:
        raise TotalConflictError(f"total conflict (K = {conflict:.6g})")
    return object.__new__(MassFunction)._freeze(labels, out)


def dempster_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule: conjunctive combination with conflict renormalization;
    a conflict leaving no more than MASS_EPS of mass is total."""
    if m1.labels != m2.labels:
        raise ParameterError("mass functions over different world sets")
    return _dempster(m1.labels, m1.masses, m2.masses.items())


def ds_plaus_update(
    bel: MassFunction,
    a: EventSet,
    alpha: Union[float, ConfidenceValue],
) -> MassFunction:
    """Graded plausibility update: Dempster-combine with a simple support on a.

    At alpha = 0 this is the identity; at alpha = 1 it is Dempster
    conditioning on a.  The normalizer is 1 - alpha + alpha*Plaus(a); when it
    is at most MASS_EPS the evidence totally conflicts with the state.  The support's
    masses go to Dempster's rule in place, with the bits of dempster_combine(bel, simple_support(...)).
    """
    s = _float_of(_FRAC, alpha)
    if not s:
        if a.labels != bel.labels:  # alpha 0 moves nothing, but the event is still checked
            raise ParameterError("event over a different world set")
        return bel
    return _dempster(bel.labels, bel.masses, _support_masses(bel.labels, a, s))


def _plaus_rows(w: np.ndarray, ind: np.ndarray, s: float) -> np.ndarray:
    """Dempster's rule on rows w of singleton masses (Bayesian mass functions)
    and the simple support of mass s in (0, 1] on each row's event, ind's row
    (s = 1 on every world is vacuous), renormalized: the bits and errors of
    _dempster and _freeze, whose sums run in world order as these do.  One
    mass function goes through _dempster, whose dict loop is faster on one."""
    hit = w * s
    out = np.where(ind, hit, 0.0) if s == 1.0 else np.where(ind, hit, 0.0) + w * (1.0 - s)
    conflict = np.add.accumulate(np.where(ind, 0.0, hit), axis=-1)[:, -1]
    total = np.add.accumulate(out, axis=-1)[:, -1:]
    fails = 1.0 - conflict <= MASS_EPS
    if fails.any():
        raise TotalConflictError(f"total conflict (K = {conflict[fails.argmax()]:.6g})")
    if not min(total.ravel().tolist()) > MASS_EPS:
        raise ParameterError("mass function has no positive focal mass")
    return out / total


# ---------------------------------------------------------------------------
# Graded belief tables.


@dataclass(frozen=True)
class GradedBeliefTable:
    """Per-statement support grades in [0, 1], keyed by statement id."""

    entries: Mapping[str, float]

    def __post_init__(self):
        clean = {}
        for key, grade in self.entries.items():
            grade = float(grade)
            if math.isnan(grade) or grade < -MASS_EPS or grade > 1.0 + MASS_EPS:
                raise ParameterError(f"grade {grade!r} for {key!r} outside [0, 1]")
            clean[str(key)] = min(max(grade, 0.0), 1.0)
        object.__setattr__(self, "entries", dict(sorted(clean.items())))

    def grade(self, key: str) -> float:
        if key not in self.entries:
            raise ParameterError(f"unknown statement {key!r}")
        return self.entries[key]

    def with_grade(self, key: str, grade: float) -> "GradedBeliefTable":
        self.grade(key)  # rejects an unknown statement
        return GradedBeliefTable({**self.entries, key: grade})

    def keys(self) -> Tuple[str, ...]:
        return tuple(self.entries)


# ---------------------------------------------------------------------------
# Belief kinds: the one place each representation is described.


def _simplex_clip(vec: np.ndarray, total) -> np.ndarray:
    # total is vec's sum; with every entry positive, clipping changes no bit
    # and the clipped sum is the same sum
    if not np.minimum.reduce(vec) > 0.0:
        vec = np.maximum(vec, 0.0)
        total = np.add.reduce(vec)
        if total <= 0.0:
            raise NumericalError("probability mass vanished during integration")
    if total <= MASS_EPS:  # FiniteSimplex's own check
        raise ParameterError("probability vector sums to zero")
    return vec / total


def _total_variation(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Half the L1 distance of two probability vectors, or of each pair of rows (its bits alone)."""
    return 0.5 * np.add.reduce(np.abs(p - q), axis=-1)


def _subset_key(labels: Tuple[str, ...], mask: int) -> str:
    return "|".join(l for i, l in enumerate(labels) if mask >> i & 1)


def _mass_from_json(obj: Mapping) -> MassFunction:
    labels, masses = _check_labels(obj["labels"], MAX_MASS_WORLDS), obj["masses"]
    if not isinstance(masses, Mapping):
        raise ParameterError(f"'masses' must be an object of subset: mass, got {masses!r}")
    return MassFunction(labels, {
        EventSet.from_names(labels, [n for n in key.split("|") if n]).mask: float(m)
        for key, m in masses.items()
    })


def _params_from_json(obj: Mapping) -> np.ndarray:
    values = np.asarray(obj["values"], dtype=float)
    if not np.isfinite(values).all():
        raise ParameterError("params values must be finite numbers")
    return values


class _Kind(NamedTuple):
    """How one belief representation is handled outside its class.

    ``distance`` is only called on beliefs with equal ``space`` keys.
    ``clip(vec, total)`` maps finite coordinates vec, whose sum is total, into
    the constraint set with a belief's checks;
    ``make(template, vec, coords)`` builds the belief like ``template`` with
    coordinates ``coords = project(vec)``.  Mass functions have no coordinates.
    """

    name: str
    cls: type
    space: Callable[[object], tuple]
    distance: Callable[[object, object], float]
    to_json: Callable[[object], dict]  # the JSON object without its "kind"
    from_json: Callable[[Mapping], object]
    labels: Optional[Callable[[object], Tuple[str, ...]]] = None
    coords: Optional[Callable[[object], np.ndarray]] = None
    clip: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    make: Optional[Callable[[object, np.ndarray, np.ndarray], object]] = None
    sums_to_one: bool = False  # coordinates sum to one; velocities to zero

    def project(self, vec: np.ndarray) -> np.ndarray:
        """vec in the kind's constraint set: the coordinates of its rebuilt belief."""
        # a finite sum has finite terms; only a non-finite one needs a closer look
        total = np.add.reduce(vec)
        if not math.isfinite(total) and not np.isfinite(vec).all():
            raise NumericalError("non-finite coordinates during integration")
        return self.clip(vec, total)


_KINDS = (
    _Kind(
        "simplex", FiniteSimplex,
        space=lambda b: ("simplex", b.labels),
        distance=lambda a, b: float(_total_variation(a.probs, b.probs)),
        to_json=lambda b: {"labels": list(b.labels), "probs": [float(x) for x in b.probs]},
        from_json=lambda obj: (
            FiniteSimplex.from_dict(obj["probs"]) if isinstance(obj.get("probs"), Mapping)
            else FiniteSimplex(obj["labels"], np.asarray(obj["probs"], dtype=float))
        ),
        labels=lambda b: b.labels,
        coords=lambda b: b.probs.copy(),
        clip=_simplex_clip,
        # FiniteSimplex divides the clipped vec itself; passing the projection divides twice
        make=lambda template, vec, coords: template.with_probs(np.maximum(vec, 0.0)),
        sums_to_one=True,
    ),
    _Kind(
        "gaussian", GaussianBelief,
        space=lambda b: ("gaussian",),
        distance=lambda a, b: max(
            abs(a.mean - b.mean),
            0.0 if math.isinf(a.var) and math.isinf(b.var) else abs(a.var - b.var),
        ),
        to_json=lambda b: {"mean": b.mean, "var": b.var},
        from_json=lambda obj: GaussianBelief(
            float(obj["mean"]), math.inf if obj["var"] in ("inf", None) else float(obj["var"])
        ),
        labels=lambda b: ("mean", "var"),
        coords=lambda b: np.array([b.mean, b.var]),
        clip=lambda vec, total: np.array([vec[0], max(vec[1], 0.0)]),
        make=lambda template, vec, coords: GaussianBelief(*coords),
    ),
    _Kind(
        "mass", MassFunction,
        space=lambda b: ("mass", b.labels),
        distance=lambda a, b: float(0.5 * sum(
            abs(a.masses.get(s, 0.0) - b.masses.get(s, 0.0)) for s in set(a.masses) | set(b.masses)
        )),
        to_json=lambda b: {
            "labels": list(b.labels),
            "masses": {_subset_key(b.labels, s): float(m) for s, m in b.masses.items()},
        },
        from_json=_mass_from_json,
    ),
    _Kind(
        "graded", GradedBeliefTable,
        space=lambda b: ("graded", b.keys()),
        distance=lambda a, b: max(
            (abs(a.entries[k] - b.entries[k]) for k in a.entries), default=0.0
        ),
        to_json=lambda b: {"entries": {k: float(v) for k, v in b.entries.items()}},
        from_json=lambda obj: GradedBeliefTable(dict(obj["entries"])),
        labels=lambda b: b.keys(),
        coords=lambda b: np.array([b.entries[k] for k in b.keys()]),
        clip=lambda vec, total: np.clip(vec, 0.0, 1.0),
        make=lambda template, vec, coords: GradedBeliefTable(dict(zip(template.keys(), coords))),
    ),
    _Kind(
        "params", np.ndarray,
        space=lambda b: ("params", b.shape),
        distance=lambda a, b: float(np.abs(a - b).max()) if a.size else 0.0,
        to_json=lambda b: {"values": [float(x) for x in b]},
        from_json=_params_from_json,
        labels=lambda b: tuple(f"p{i}" for i in range(b.size)),
        coords=lambda b: np.asarray(b, dtype=float).copy(),
        clip=lambda vec, total: vec,
        make=lambda template, vec, coords: coords.copy(),
    ),
)
_BY_CLS = {kind.cls: kind for kind in _KINDS}


def _kind_of(belief) -> Optional[_Kind]:
    """The kind record of belief's type (or of a base class), else None."""
    kind = _BY_CLS.get(type(belief))
    if kind is None:
        kind = next((_BY_CLS[cls] for cls in type(belief).__mro__ if cls in _BY_CLS), None)
    return kind


# ---------------------------------------------------------------------------
# Distances and the JSON wire format.


def belief_distance(a, b) -> float:
    """A representation-appropriate distance between two belief states.

    Simplexes use total variation; Gaussians, graded tables, and parameter
    vectors use the sup metric on their coordinates; mass functions use total
    variation on the focal masses.
    """
    kind = _kind_of(a)
    if kind is None or _kind_of(b) is not kind:
        raise ParameterError(f"no distance between {type(a).__name__} and {type(b).__name__}")
    if kind.space(a) != kind.space(b):
        raise ParameterError(f"{kind.name} beliefs over different spaces")
    return kind.distance(a, b)


def belief_to_json(belief) -> dict:
    """Serialize a belief state to its JSON object form."""
    kind = _kind_of(belief)
    if kind is None:
        raise ParameterError(f"cannot serialize belief of type {type(belief).__name__}")
    return {"kind": kind.name, **kind.to_json(belief)}


def belief_from_json(obj: Mapping) -> object:
    """Parse the JSON object form back into a belief state.  A simplex's
    ``probs`` may also be a {world: probability} object naming the worlds."""
    try:
        name = obj["kind"]
    except (TypeError, KeyError):
        raise ParameterError("belief JSON must be an object with a 'kind'") from None
    kind = next((kind for kind in _KINDS if kind.name == name), None)
    if kind is None:
        raise ParameterError(f"unknown belief kind {name!r}")
    with np.errstate(over="ignore"):  # a sum past the float range is refused, not warned of
        return kind.from_json(obj)
