"""Declared generative systems and target specifications.

An :class:`ActualSystem` is a factored DAG over named discrete variables:
one conditional factor per variable, each factor fixed, parameterized
(per-parent-slice softmax over logits), or a point mass (a selector table).
Materializing the system multiplies the factors into an exact joint table.

A :class:`TargetSpec` is an unnormalized product of non-negative factors
over a declared scope. Variables in scope with no factor carry an implicit
uniform weight of one. Reward factors store raw values ``r`` and enter the
product as ``exp(r)``. Parameterized target factors (auxiliary predictors
such as decoders or reverse predictors) are per-slice softmaxes and share
the flat parameter vector with system factors. Mirror factors reference the
current system: a :class:`FactorMirror` reuses a system factor's conditional
table verbatim, and a :class:`MarginalMirror` uses a marginal conditional of
the materialized joint, which is how targets that contain the controlled
dynamics are expressed.

Parameters are owned by a :class:`ParameterSpace` that flattens every
parameterized factor (system side first, then target side) into one float64
vector of blocks, with an index map back to (side, factor, parent slice,
outcome). ``ParameterSpace.logits`` cuts a checked vector into one logits
array per block, and ``ParameterSpace.set`` swaps those arrays into copies
of the system and target without re-running the constructors' checks,
since logits cannot change what they checked.

The reports materialize dense tables through :func:`build_joint` and
:func:`build_target`; the engine contracts the factor tables instead and
shares only :func:`_check_target_factor`, which checks a target factor's
shape before any log is taken. Fixed target tables take their logarithm
once, at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import CapacityError, ValidationError
from .tables import (
    CAPACITY_LIMIT,
    JOINT_SUM_TOL,
    NORMALIZATION_TOL,
    Role,
    Table,
    UnnormalizedTable,
    Variable,
    _Layout,
    _float_array,
    _safe_log,
    log_conditional,
)

def softmax(logits: np.ndarray) -> np.ndarray:
    """Per-slice softmax along the last axis; strictly positive for finite
    logits."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _frozen(values, what: str, nonnegative: bool = False) -> np.ndarray:
    """A read-only float64 copy of ``values``, which must be finite and,
    with ``nonnegative``, at least zero; ``what`` names them in the error."""
    arr = _float_array(values, what)
    if not np.all(np.isfinite(arr)) or (nonnegative and np.any(arr < 0.0)):
        raise ValidationError(f"{what} must be finite{' and non-negative' if nonnegative else ''}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _one_hot(selector: np.ndarray, cardinality: int) -> np.ndarray:
    out = np.zeros(selector.shape + (cardinality,), dtype=np.float64)
    np.put_along_axis(out, selector[..., None], 1.0, axis=-1)
    return out


@dataclass(frozen=True)
class FactorSpec:
    """Conditional factor for one child variable given its parents.

    Exactly one of ``table`` (fixed, normalized per parent slice), ``logits``
    (parameterized softmax) or ``selector`` (point mass, integer outcome per
    parent slice) is set; arrays are laid out parents-then-child.
    """

    child: str
    parents: tuple[str, ...] = ()
    table: np.ndarray | None = None
    logits: np.ndarray | None = None
    selector: np.ndarray | None = None

    def __post_init__(self) -> None:
        given = [x is not None for x in (self.table, self.logits, self.selector)]
        if sum(given) != 1:
            raise ValidationError(
                f"factor for {self.child!r} must set exactly one of table/logits/selector"
            )
        object.__setattr__(self, "parents", tuple(self.parents))
        for name, arr in (("table", self.table), ("logits", self.logits)):
            if arr is not None:
                object.__setattr__(self, name, _frozen(arr, f"factor {self.child!r}: {name}"))
        if self.selector is not None:
            what = f"factor {self.child!r}: selector"
            arr = _float_array(self.selector, what)
            if not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
                raise ValidationError(f"{what} entries must be integers")
            sel = arr.astype(np.int64)
            sel.flags.writeable = False
            object.__setattr__(self, "selector", sel)

    @staticmethod
    def fixed(child: str, parents: Sequence[str], table: np.ndarray | Sequence) -> "FactorSpec":
        return FactorSpec(child, parents, table=table)

    @staticmethod
    def parameterized(
        child: str, parents: Sequence[str], logits: np.ndarray | Sequence
    ) -> "FactorSpec":
        return FactorSpec(child, parents, logits=logits)

    @staticmethod
    def point_mass(
        child: str, parents: Sequence[str], selector: np.ndarray | Sequence | int
    ) -> "FactorSpec":
        return FactorSpec(child, parents, selector=selector)

    @property
    def kind(self) -> str:
        if self.table is not None:
            return "fixed"
        if self.logits is not None:
            return "parameterized"
        return "point-mass"


class ActualSystem:
    """A factored DAG with one factor per variable, in a fixed variable order.

    The declaration order of ``variables`` is the storage order of all
    tables and, for temporal presets, the time order used by per-step terms.
    """

    __slots__ = ("variables", "factors", "_index")

    def __init__(
        self, variables: Sequence[Variable], factors: Iterable[FactorSpec]
    ) -> None:
        self.variables = tuple(variables)
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate variable names: {names}")
        self._index = {v.name: i for i, v in enumerate(self.variables)}
        fdict: dict[str, FactorSpec] = {}
        for f in factors:
            if f.child not in self._index:
                raise ValidationError(f"factor child {f.child!r} is not a declared variable")
            if f.child in fdict:
                raise ValidationError(f"multiple factors for variable {f.child!r}")
            fdict[f.child] = f
        missing = [n for n in names if n not in fdict]
        if missing:
            raise ValidationError(f"variables without factors: {missing}")
        self.factors = {n: fdict[n] for n in names}
        self._check_acyclic()
        self._check_shapes()
        size = 1
        for v in self.variables:
            size *= v.cardinality
        if size > CAPACITY_LIMIT:
            raise CapacityError(
                f"joint outcome space of size {size} exceeds the cap of {CAPACITY_LIMIT}"
            )
        if not any(f.kind != "fixed" for f in self.factors.values()):
            raise ValidationError(
                "system has no parameterized or point-mass factor, so there is nothing to choose"
            )

    def _check_acyclic(self) -> None:
        state: dict[str, int] = {}

        def visit(name: str, stack: tuple[str, ...]) -> None:
            st = state.get(name, 0)
            if st == 1:
                raise ValidationError(f"cycle through {name!r}: {' -> '.join(stack + (name,))}")
            if st == 2:
                return
            state[name] = 1
            for p in self.factors[name].parents:
                if p not in self._index:
                    raise ValidationError(
                        f"factor {name!r} references unknown parent {p!r}"
                    )
                if p == name:
                    raise ValidationError(f"factor {name!r} lists itself as a parent")
                visit(p, stack + (name,))
            state[name] = 2

        for v in self.variables:
            visit(v.name, ())

    def _check_shapes(self) -> None:
        for name, f in self.factors.items():
            shape = tuple(self.variable(p).cardinality for p in f.parents)
            child_card = self.variable(name).cardinality
            if f.selector is not None:
                if f.selector.shape != shape:
                    raise ValidationError(
                        f"selector for {name!r} has shape {f.selector.shape}, expected {shape}"
                    )
                if f.selector.size and (
                    f.selector.min() < 0 or f.selector.max() >= child_card
                ):
                    raise ValidationError(f"selector for {name!r} indexes out of range")
                continue
            arr = f.table if f.table is not None else f.logits
            if arr.shape != shape + (child_card,):
                raise ValidationError(
                    f"factor for {name!r} has shape {arr.shape}, expected {shape + (child_card,)}"
                )
            if f.table is not None:
                if np.any(f.table < 0.0):
                    raise ValidationError(f"fixed factor for {name!r} has negative entries")
                sums = f.table.sum(axis=-1)
                if np.any(np.abs(sums - 1.0) > NORMALIZATION_TOL):
                    raise ValidationError(
                        f"fixed factor for {name!r} is not normalized per parent slice"
                    )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable(self, name: str) -> Variable:
        try:
            return self.variables[self._index[name]]
        except KeyError:
            raise ValidationError(f"unknown variable {name!r}") from None

    def with_factor(self, factor: FactorSpec) -> "ActualSystem":
        replaced = dict(self.factors)
        replaced[factor.child] = factor
        return ActualSystem(self.variables, replaced.values())

    def inputs(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.role.is_input)

    def by_role(self, *roles: Role) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.role in roles)

    def factor_conditional(self, name: str) -> np.ndarray:
        """The conditional probability table of ``name``'s factor,
        parents-then-child layout."""
        f = self.factors[name]
        if f.table is not None:
            return f.table
        if f.logits is not None:
            return softmax(f.logits)
        return _one_hot(f.selector, self.variable(name).cardinality)

    def __repr__(self) -> str:
        kinds = {n: f.kind for n, f in self.factors.items()}
        return f"ActualSystem(variables={self.names}, factors={kinds})"


def _grow(
    acc: np.ndarray, term: np.ndarray, shape: tuple[int, ...], op: np.ufunc
) -> np.ndarray:
    """``op(acc, term)`` with broadcasting, in place once ``acc`` has the
    full ``shape``.

    A product or sum started from a ``(1,) * n`` identity grows to the
    grid only as its factors span it, and each outcome still sees the same
    operations in the same order, because 1 * x and 0 + x are exact. A
    step that grows ``acc`` copies it into a fresh array of the broadcast
    shape and applies ``term`` there in place: the same numbers as
    ``op(acc, term)``, but numpy then loops over runs as long as ``term``'s
    trailing axes rather than over the length-one axes ``acc`` still has
    (1.8x faster on a 248832-outcome step, 2.3x on a 2**21 one), and the
    result is never a factor's own array.
    """
    if acc.shape == shape:
        return op(acc, term, out=acc)
    out = np.empty(np.broadcast(acc, term).shape)
    out[...] = acc
    return op(out, term, out=out)


def build_joint(system: ActualSystem) -> Table:
    """Multiply all factors into the exact joint table over the full scope,
    in the system's order; their sum must be one to ``JOINT_SUM_TOL``."""
    scope = system.variables
    shape = tuple(v.cardinality for v in scope)
    probs = np.ones((1,) * len(shape))
    for name, f in system.factors.items():
        cond = _Layout(f.parents + (name,), scope).place(system.factor_conditional(name))
        probs = _grow(probs, cond, shape, np.multiply)
    total = float(probs.sum())
    if abs(total - 1.0) > JOINT_SUM_TOL:
        raise ValidationError(f"materialized joint sums to {total!r}; factors are inconsistent")
    probs /= total
    return Table(scope, probs, copy=False)


# ---------------------------------------------------------------------------
# Target factors


def _frozen_log(table: np.ndarray) -> np.ndarray:
    """ln of a fixed table, taken once, as a read-only array."""
    log = _safe_log(table)
    log.flags.writeable = False
    return log


@dataclass(frozen=True)
class TableFactor:
    """Fixed non-negative potential over ``vars`` (raw weights)."""

    vars: tuple[str, ...]
    table: np.ndarray
    log_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = _frozen(self.table, "target table factor", nonnegative=True)
        object.__setattr__(self, "table", arr)
        object.__setattr__(self, "log_table", _frozen_log(arr))
        object.__setattr__(self, "vars", tuple(self.vars))


@dataclass(frozen=True)
class ConditionalFactor:
    """Fixed conditional table of child given parents, normalized per slice."""

    child: str
    parents: tuple[str, ...]
    table: np.ndarray
    log_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = _frozen(self.table, "target conditional factor", nonnegative=True)
        if np.any(np.abs(arr.sum(axis=-1) - 1.0) > NORMALIZATION_TOL):
            raise ValidationError(
                f"target conditional for {self.child!r} is not normalized per parent slice"
            )
        object.__setattr__(self, "table", arr)
        object.__setattr__(self, "log_table", _frozen_log(arr))
        object.__setattr__(self, "parents", tuple(self.parents))


@dataclass(frozen=True)
class RewardFactor:
    """Reward potential exp(values) over ``vars``; stores raw reward values."""

    vars: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values, "reward values"))
        object.__setattr__(self, "vars", tuple(self.vars))


@dataclass(frozen=True)
class ParamFactor:
    """Parameterized per-slice softmax conditional on the target side."""

    child: str
    parents: tuple[str, ...]
    logits: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "logits", _frozen(self.logits, "target logits"))
        object.__setattr__(self, "parents", tuple(self.parents))


@dataclass(frozen=True)
class FactorMirror:
    """Mirrors the current system factor of ``child`` into the target product."""

    child: str


@dataclass(frozen=True)
class MarginalMirror:
    """Mirrors the system's marginal conditional p(vars | given) into the target."""

    vars: tuple[str, ...]
    given: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "given", tuple(self.given))


TargetFactor = Union[
    TableFactor, ConditionalFactor, RewardFactor, ParamFactor, FactorMirror, MarginalMirror
]


class TargetSpec:
    """Unnormalized product of factors over a declared scope subset."""

    __slots__ = ("scope", "factors")

    def __init__(self, scope: Sequence[str], factors: Iterable[TargetFactor]) -> None:
        self.scope = tuple(scope)
        if not self.scope:
            raise ValidationError("target scope must be non-empty")
        if len(set(self.scope)) != len(self.scope):
            raise ValidationError(f"duplicate names in target scope: {self.scope}")
        self.factors = tuple(factors)
        for f in self.factors:
            for n in _factor_vars(f):
                if n not in self.scope:
                    raise ValidationError(
                        f"target factor references {n!r} outside scope {self.scope}"
                    )

    def __repr__(self) -> str:
        return f"TargetSpec(scope={self.scope}, factors={[type(f).__name__ for f in self.factors]})"


def _factor_vars(f: TargetFactor) -> tuple[str, ...]:
    if isinstance(f, (TableFactor, RewardFactor)):
        return f.vars
    if isinstance(f, (ConditionalFactor, ParamFactor)):
        return f.parents + (f.child,)
    if isinstance(f, FactorMirror):
        return (f.child,)
    if isinstance(f, MarginalMirror):
        return f.given + f.vars
    raise ValidationError(f"unknown target factor type {type(f).__name__}")


def target_factor_scope(f: TargetFactor, system: ActualSystem) -> tuple[str, ...]:
    """All variables a target factor touches, mirrors resolved via the system."""
    if isinstance(f, FactorMirror):
        return (*system.factors[f.child].parents, f.child)
    return _factor_vars(f)


def _check_target_factor(f: TargetFactor, target: TargetSpec, system: ActualSystem) -> None:
    """Reject a target factor whose array is not laid out one axis per
    variable with that variable's cardinality, or a factor mirror whose
    factor reads a variable outside the target scope. Takes no log.

    Tables, rewards and logits come from user data: a length-one axis
    would broadcast, and a transposed one reshape, into a factor nobody
    wrote.
    """
    if isinstance(f, FactorMirror):
        for n in system.factors[f.child].parents + (f.child,):
            if n not in target.scope:
                raise ValidationError(
                    f"mirrored factor {f.child!r} uses {n!r} outside the target scope"
                )
    elif not isinstance(f, MarginalMirror):
        names = _factor_vars(f)
        values = f.values if isinstance(f, RewardFactor) else (
            f.logits if isinstance(f, ParamFactor) else f.table
        )
        want = tuple(system.variable(n).cardinality for n in names)
        if values.shape != want:
            raise ValidationError(
                f"target {type(f).__name__} over {names} has shape {values.shape}, "
                f"expected {want}"
            )


def target_factor_log_array(
    f: TargetFactor, target: TargetSpec, system: ActualSystem, joint: Table | None = None
) -> np.ndarray:
    """ln factor value over the target scope shape; -inf where the factor
    is 0. A marginal mirror reads ``joint``, the system's materialized
    joint, which no other factor needs."""
    _check_target_factor(f, target, system)
    scope = tuple(map(system.variable, target.scope))
    if isinstance(f, MarginalMirror):
        full = log_conditional(joint, f.vars, f.given)
        # Move the array from the system's axes onto the target's; it has
        # length one off (given + vars).
        names = tuple(v.name for v, n in zip(joint.scope, full.shape) if n > 1)
        return _Layout(names, scope).place(np.squeeze(full))
    if isinstance(f, (TableFactor, ConditionalFactor)):
        log = f.log_table
    elif isinstance(f, RewardFactor):
        log = f.values
    elif isinstance(f, ParamFactor):
        log = _safe_log(softmax(f.logits))
    else:
        log = _safe_log(system.factor_conditional(f.child))
    return _Layout(target_factor_scope(f, system), scope).place(log)


def build_target(
    target: TargetSpec, system: ActualSystem, joint: Table | None = None
) -> UnnormalizedTable:
    """Materialize the unnormalized target over its scope: its factors'
    logs, added in order, exponentiated.

    Variables in scope without any factor contribute an implicit uniform
    weight of one. Mirror factors need the system (and, for marginal
    mirrors, its materialized joint).
    """
    if joint is None and any(isinstance(f, MarginalMirror) for f in target.factors):
        joint = build_joint(system)
    scope = tuple(map(system.variable, target.scope))
    shape = tuple(v.cardinality for v in scope)
    log_w = np.zeros((1,) * len(shape))
    for f in target.factors:
        log_w = _grow(log_w, target_factor_log_array(f, target, system, joint), shape, np.add)
    # A scope variable that no factor touches still has length one here.
    log_w = np.broadcast_to(log_w, shape)
    # A weight that overflows is rejected as not finite by the table.
    with np.errstate(over="ignore"):
        weights = np.exp(log_w, where=np.isfinite(log_w), out=np.zeros(shape))
    return UnnormalizedTable(scope, weights, copy=False)


# ---------------------------------------------------------------------------
# Parameter vector


@dataclass(frozen=True)
class ParameterBlock:
    side: str  # "p" for system factors, "q" for target factors
    child: str
    shape: tuple[int, ...]
    offset: int
    index: int = -1  # position of a target-side block's factor in the target

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def key(self) -> str:
        """The child's name (system) or "<index>:<child>" (target)."""
        return self.child if self.side == "p" else f"{self.index}:{self.child}"


class ParameterSpace:
    """Flat view of every parameterized factor in a (system, target) pair."""

    def __init__(self, system: ActualSystem, target: TargetSpec) -> None:
        self.system = system
        self.target = target
        blocks: list[ParameterBlock] = []
        offset = 0
        for name, f in system.factors.items():
            if f.logits is not None:
                blocks.append(ParameterBlock("p", name, f.logits.shape, offset))
                offset += blocks[-1].size
        for i, tf in enumerate(target.factors):
            if isinstance(tf, ParamFactor):
                blocks.append(ParameterBlock("q", tf.child, tf.logits.shape, offset, i))
                offset += blocks[-1].size
        self.blocks = tuple(blocks)
        self.size = offset

    def get(self) -> np.ndarray:
        """Current parameters as one flat vector (bit-exact copies)."""
        out = np.empty(self.size, dtype=np.float64)
        for b in self.blocks:
            if b.side == "p":
                arr = self.system.factors[b.child].logits
            else:
                arr = self.target.factors[b.index].logits
            out[b.offset : b.offset + b.size] = arr.ravel()
        return out

    def logits(self, phi: np.ndarray) -> tuple[np.ndarray, ...]:
        """``phi`` cut into one logits array per block, in block order, as
        views of a checked float64 vector."""
        phi = _float_array(phi, "parameter vector")
        if phi.shape != (self.size,):
            raise ValidationError(f"parameter vector has shape {phi.shape}, expected ({self.size},)")
        if not np.all(np.isfinite(phi)):
            raise ValidationError("parameter vector must be finite")
        return tuple(phi[b.offset : b.offset + b.size].reshape(b.shape) for b in self.blocks)

    def set(self, phi: np.ndarray) -> tuple[ActualSystem, TargetSpec]:
        """New system/target with logits replaced by ``phi`` (inputs
        unchanged). Logits change no variable, parent or factor kind, so
        the constructors' checks still hold and are not re-run."""
        factors = dict(self.system.factors)
        target_factors = list(self.target.factors)
        for b, arr in zip(self.blocks, self.logits(phi)):
            if b.side == "p":
                factors[b.child] = FactorSpec.parameterized(b.child, factors[b.child].parents, arr)
            else:
                old = target_factors[b.index]
                target_factors[b.index] = ParamFactor(old.child, old.parents, arr)
        system = object.__new__(ActualSystem)
        system.variables, system.factors, system._index = (
            self.system.variables, factors, self.system._index
        )
        target = object.__new__(TargetSpec)
        target.scope, target.factors = self.target.scope, tuple(target_factors)
        return system, target

    def label(self, flat_index: int) -> tuple[str, str, tuple[int, ...], int]:
        """Map a flat coordinate to (side, factor, parent slice, outcome)."""
        if not 0 <= flat_index < self.size:
            raise ValidationError(f"index {flat_index} out of range for size {self.size}")
        for b in self.blocks:
            if b.offset <= flat_index < b.offset + b.size:
                local = np.unravel_index(flat_index - b.offset, b.shape)
                return b.side, b.key, tuple(int(i) for i in local[:-1]), int(local[-1])
        raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Horizon


@dataclass(frozen=True)
class Horizon:
    """The number of decision steps a preset unrolls.

    Which inputs are past and which are future is each variable's role,
    not a property of the horizon.
    """

    steps: int

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
