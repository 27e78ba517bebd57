"""Exact probability tables over small discrete outcome spaces.

Everything downstream (decompositions, objectives, gradients) reduces to a
handful of operations on dense tables: marginalization, conditioning,
entropies, Kullback-Leibler divergences, and mutual information. Tables are
immutable, live in linear probability space, and enumerate at most ``2**22``
joint outcomes. All information quantities are in nats; the convention
``0 * ln 0 = 0`` applies throughout.

A :class:`Table` is a normalized distribution. An :class:`UnnormalizedTable`
carries non-negative weights and caches its log partition function ``ln Z``;
divergences against it are computed against ``weights / Z`` with ``ln Z``
reported alongside. A divergence is *divergent* when the normalized side
puts mass where the reference has none; this is reported as a flag on
:class:`KLResult` together with the finite part of the sum, never as a bare
floating-point infinity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, NullEvidenceError, ValidationError

CAPACITY_LIMIT = 2**22

NORMALIZATION_TOL = 1e-12


class Role(str, enum.Enum):
    """What a variable means to the agent; drives decompositions and realizability."""

    PAST_INPUT = "past-input"
    FUTURE_INPUT = "future-input"
    ACTION = "action"
    SKILL = "skill"
    LATENT_STATE = "latent-state"
    PARAMETER = "parameter"

    @property
    def is_input(self) -> bool:
        return self in (Role.PAST_INPUT, Role.FUTURE_INPUT)

    @property
    def realizable(self) -> bool:
        """Whether a value of this variable may be realized by intervention."""
        return self in (Role.ACTION, Role.SKILL, Role.PAST_INPUT)


@dataclass(frozen=True)
class Variable:
    """A named categorical variable with a fixed outcome count and a role."""

    name: str
    cardinality: int
    role: Role

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("variable name must be non-empty")
        if self.cardinality < 1:
            raise ValidationError(
                f"variable {self.name!r} needs cardinality >= 1, got {self.cardinality}"
            )
        if not isinstance(self.role, Role):
            object.__setattr__(self, "role", Role(self.role))


# An assignment binds variable names to outcome indices. Plain mappings are
# accepted everywhere; validation happens against the scope of the table or
# system the assignment is used with.
Assignment = Mapping[str, int]


def _as_probs(
    values: np.ndarray | Sequence,
    shape: tuple[int, ...],
    copy: bool = True,
    what: str = "probabilities",
) -> tuple[np.ndarray, float]:
    """``values`` as a checked, read-only float64 array, with its sum: a
    copy, or with ``copy=False`` the caller's own array, which it hands
    over. ``what`` names the values in errors.

    Two passes check it. The sum must be finite: an inf or a nan carries
    through it, and finite entries whose sum overflows are rejected too,
    without numpy's overflow warning. The minimum then checks the signs.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValidationError(f"array shape {arr.shape} does not match scope shape {shape}")
    if arr.size > CAPACITY_LIMIT:
        raise CapacityError(
            f"outcome space of size {arr.size} exceeds the cap of {CAPACITY_LIMIT}"
        )
    if copy:
        arr = arr.copy()
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if not math.isfinite(total):
        raise ValidationError(f"{what} must be finite")
    if arr.min() < 0.0:
        raise ValidationError(f"{what} must be non-negative")
    arr.flags.writeable = False
    return arr, total


class _Scoped:
    """A scope of distinctly named variables, with name-to-axis lookup."""

    __slots__ = ("scope", "_index")

    def __init__(self, scope: Sequence[Variable]) -> None:
        self.scope = tuple(scope)
        self._index = {v.name: i for i, v in enumerate(self.scope)}
        if not self.scope:
            raise ValidationError("scope must contain at least one variable")
        if len(self._index) != len(self.scope):
            raise ValidationError(f"duplicate variable names in scope: {list(self.names)}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.scope)

    def axis(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"variable {name!r} not in scope {self.names}") from None

    def variable(self, name: str) -> Variable:
        return self.scope[self.axis(name)]


class Table(_Scoped):
    """An exact joint distribution over the product space of its scope.

    ``probs`` is indexed by one axis per scope variable, in scope order.
    The constructor copies it, unless ``copy=False`` hands over a float64
    array that nothing else writes; either way it is read-only afterwards.
    """

    __slots__ = ("probs",)

    def __init__(
        self, scope: Sequence[Variable], probs: np.ndarray | Sequence, *, copy: bool = True
    ) -> None:
        super().__init__(scope)
        shape = tuple(v.cardinality for v in self.scope)
        arr, total = _as_probs(probs, shape, copy)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        self.probs = arr

    def __repr__(self) -> str:
        return f"Table(scope={self.names}, shape={self.probs.shape})"


class UnnormalizedTable(_Scoped):
    """Non-negative weights over a product space, with a cached ``ln Z``;
    ``copy`` as for :class:`Table`."""

    __slots__ = ("weights", "log_partition")

    def __init__(
        self, scope: Sequence[Variable], weights: np.ndarray | Sequence, *, copy: bool = True
    ) -> None:
        super().__init__(scope)
        shape = tuple(v.cardinality for v in self.scope)
        arr, total = _as_probs(weights, shape, copy, "target weights")
        if total <= 0.0:
            raise ValidationError("target weights must have positive total mass")
        self.weights = arr
        self.log_partition = math.log(total)

    def __repr__(self) -> str:
        return f"UnnormalizedTable(scope={self.names}, lnZ={self.log_partition:.6g})"


@dataclass(frozen=True)
class KLResult:
    """KL divergence against a possibly unnormalized reference.

    ``kl_nats`` is KL(p || q / Z); ``log_partition`` is ln Z of the reference
    (zero for a normalized one). When ``divergent`` is set, p has support
    where the reference has none and ``kl_nats`` holds the finite part of
    the sum so identity checks can still run on it.
    """

    kl_nats: float
    log_partition: float
    divergent: bool = False

    @property
    def value(self) -> float:
        return math.inf if self.divergent else self.kl_nats


def _validate_subset(table: Table | UnnormalizedTable, names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate names in subset: {names}")
    for n in names:
        table.axis(n)
    return names


def marginalize(table: Table, keep: Iterable[str]) -> Table:
    """Sum out everything except ``keep``; result scope keeps the original
    order, and ``table`` itself comes back when ``keep`` covers its scope."""
    keep = _validate_subset(table, keep)
    if not keep:
        raise ValidationError("keep must name at least one variable")
    drop_axes = tuple(i for i, v in enumerate(table.scope) if v.name not in keep)
    if not drop_axes:
        return table
    marg = table.probs.sum(axis=drop_axes)
    new_scope = tuple(v for v in table.scope if v.name in keep)
    return Table(new_scope, marg, copy=False)


def condition(table: Table, evidence: Assignment) -> Table:
    """Condition on ``evidence`` and drop the bound variables from the scope."""
    if not evidence:
        raise ValidationError("evidence must bind at least one variable")
    _validate_subset(table, evidence.keys())
    sl: list[object] = [slice(None)] * len(table.scope)
    for name, k in evidence.items():
        v = table.variable(name)
        k = int(k)
        if not 0 <= k < v.cardinality:
            raise ValidationError(
                f"evidence {name}={k} out of range for cardinality {v.cardinality}"
            )
        sl[table.axis(name)] = k
    if len(evidence) == len(table.scope):
        raise ValidationError("cannot condition on the entire scope")
    slab = table.probs[tuple(sl)]
    mass = float(slab.sum())
    if mass <= 0.0:
        raise NullEvidenceError(f"evidence {dict(evidence)} has probability zero")
    new_scope = tuple(v for v in table.scope if v.name not in evidence)
    return Table(new_scope, slab / mass)


def _safe_log(values: np.ndarray) -> np.ndarray:
    """Elementwise ln, with -inf wherever an entry is not positive (nan
    included), as one masked log."""
    return np.log(values, out=np.full(values.shape, -np.inf), where=values > 0.0)


def _xlogx_sum(p: np.ndarray) -> float:
    """sum p ln p with 0 ln 0 = 0."""
    vals = p[p > 0.0]
    return float(np.dot(vals, np.log(vals)))


def entropy(table: Table, subset: Iterable[str] | None = None) -> float:
    """Shannon entropy in nats of the (marginal of the) distribution."""
    if subset is None:
        subset = table.names
    subset = _validate_subset(table, subset)
    if not subset:
        raise ValidationError("entropy needs a non-empty subset")
    marg = marginalize(table, subset) if set(subset) != set(table.names) else table
    return -_xlogx_sum(marg.probs)


def kl(p: Table, q: Table | UnnormalizedTable) -> KLResult:
    """KL(p || q / Z) in nats, with ln Z reported separately.

    Requires identical scope in identical order. Outcomes with p = 0
    contribute nothing regardless of q; outcomes with p > 0 and q = 0 set
    the divergent flag and are excluded from the finite part.
    """
    if p.names != q.names:
        raise ValidationError(f"scope mismatch: {p.names} vs {q.names}")
    for vp, vq in zip(p.scope, q.scope):
        if vp.cardinality != vq.cardinality:
            raise ValidationError(
                f"cardinality mismatch on {vp.name!r}: {vp.cardinality} vs {vq.cardinality}"
            )
    if isinstance(q, UnnormalizedTable):
        q_arr = q.weights / q.weights.sum()
        lnz = q.log_partition
    else:
        q_arr = q.probs
        lnz = 0.0
    p_arr = p.probs
    support = p_arr > 0.0
    divergent = bool(np.any(support & (q_arr <= 0.0)))
    ok = support & (q_arr > 0.0)
    pv = p_arr[ok]
    val = float(np.dot(pv, np.log(pv) - np.log(q_arr[ok])))
    return KLResult(kl_nats=val, log_partition=lnz, divergent=divergent)


def expected_conditional_kl(
    p: Table,
    q: Table | UnnormalizedTable,
    targets: Iterable[str],
    conditions: Iterable[str],
) -> KLResult:
    """E_{p(conditions)} KL[ p(targets | conditions) || q(targets | conditions) ].

    Equals E_p[ln p(targets|conditions) - ln q(targets|conditions)], so the
    reference's normalization cancels and ``log_partition`` is zero.
    """
    targets = tuple(targets)
    conditions = tuple(conditions)
    if not targets:
        raise ValidationError("targets must be non-empty")
    if set(targets) & set(conditions):
        raise ValidationError("targets and conditions must be disjoint")
    value, divergent = expected_log(
        p, log_conditional(p, targets, conditions), log_conditional(q, targets, conditions)
    )
    return KLResult(kl_nats=value, log_partition=0.0, divergent=divergent)


def mutual_information(table: Table, left: Iterable[str], right: Iterable[str]) -> float:
    """I[left; right] = H[left] + H[right] - H[left, right], in nats."""
    left = _validate_subset(table, left)
    right = _validate_subset(table, right)
    if not left or not right:
        raise ValidationError("both variable groups must be non-empty")
    if set(left) & set(right):
        raise ValidationError("variable groups must be disjoint")
    return entropy(table, left) + entropy(table, right) - entropy(table, left + right)


def variational_mi_lower_bound(
    p: Table,
    decoder: np.ndarray,
    x_vars: Iterable[str],
    z_vars: Iterable[str],
) -> float:
    """E_p[ln decoder(x | z) - ln p(x)], a lower bound on I[x; z].

    ``decoder`` is indexed by the z variables then the x variables, in the
    given orders, and must be normalized over x within
    ``NORMALIZATION_TOL`` for every z. The bound's gap to I[x; z] is
    E_p KL[p(x|z) || decoder(x|z)] >= 0. Returns -inf when the decoder has
    no mass on a visited outcome.
    """
    x_vars = _validate_subset(p, x_vars)
    z_vars = _validate_subset(p, z_vars)
    if not x_vars or not z_vars:
        raise ValidationError("both variable groups must be non-empty")
    if set(x_vars) & set(z_vars):
        raise ValidationError("variable groups must be disjoint")
    dec = np.asarray(decoder, dtype=np.float64)
    z_shape = tuple(p.variable(n).cardinality for n in z_vars)
    x_shape = tuple(p.variable(n).cardinality for n in x_vars)
    if dec.shape != z_shape + x_shape:
        raise ValidationError(
            f"decoder shape {dec.shape} does not match (z, x) shape {z_shape + x_shape}"
        )
    if np.any(dec < 0.0):
        raise ValidationError("decoder must be non-negative")
    sums = dec.reshape(z_shape + (-1,)).sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > NORMALIZATION_TOL):
        raise ValidationError("decoder slices must each be normalized over x")
    log_dec = _Layout(z_vars + x_vars, p.scope).place(_safe_log(dec))
    value, divergent = expected_log(p, log_dec, log_conditional(p, x_vars, ()))
    return -math.inf if divergent else value


class _Layout:
    """Where the variables ``names`` lie on the axes of ``scope``, worked
    out once.

    ``place`` moves an array indexed by those variables, in that order,
    onto the scope's axes with length one on every other axis. The
    array's own lengths carry over, so one that already has length one
    off some variables keeps it; an array from user data is checked
    against the cardinalities before it is placed.
    """

    __slots__ = ("axes", "perm", "ndim")

    def __init__(self, names: tuple[str, ...], scope: Sequence[Variable]) -> None:
        index = {v.name: i for i, v in enumerate(scope)}
        self.axes = tuple(index[n] for n in names)
        self.perm = tuple(sorted(range(len(names)), key=self.axes.__getitem__))
        self.ndim = len(index)

    def place(self, arr: np.ndarray) -> np.ndarray:
        shape = [1] * self.ndim
        for a, n in zip(self.axes, arr.shape):
            shape[a] = n
        return arr.transpose(self.perm).reshape(shape)


def log_conditional(
    table: Table | UnnormalizedTable, targets: tuple[str, ...], conditions: tuple[str, ...]
) -> np.ndarray:
    """ln m(targets | conditions) of the normalized table.

    The result lies on the table's axes with length one outside targets and
    conditions. It is ln 1 for empty ``targets`` and -inf where the marginal
    on targets and conditions has no mass; callers mask those entries
    against the actual support.
    """
    for n in targets + conditions:
        table.axis(n)
    if not targets:
        return np.zeros((1,) * len(table.scope))
    base = table.probs if isinstance(table, Table) else table.weights

    def log_marginal(subset: set[str]) -> np.ndarray:
        drop = tuple(i for i, v in enumerate(table.scope) if v.name not in subset)
        marg = base.sum(axis=drop, keepdims=True) if drop else base
        return _safe_log(marg / marg.sum())

    joint = log_marginal(set(targets + conditions))
    if not conditions:
        return joint
    with np.errstate(invalid="ignore"):
        return joint - log_marginal(set(conditions))


def expected_log(
    p: Table, log_a: np.ndarray, log_b: np.ndarray | float = 0.0
) -> tuple[float, bool]:
    """E_p[log_a - log_b] over p's support, both logs broadcast to p's shape.

    Returns the finite part and a divergent flag, set when p has mass where
    either log is not finite; those outcomes are left out of the sum.
    """
    log_a = np.broadcast_to(log_a, p.probs.shape)
    log_b = np.broadcast_to(log_b, p.probs.shape)
    mask = p.probs > 0.0
    finite = np.isfinite(log_a) & np.isfinite(log_b)
    divergent = bool(np.any(mask & ~finite))
    ok = mask & finite
    return float(np.dot(p.probs[ok], log_a[ok] - log_b[ok])), divergent
