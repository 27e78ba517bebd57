"""Exact values and gradients for objectives, contracted from factor tables.

Every functional handled here is an expectation under the actual joint of a
signed sum of log-quantities, plus an optional multiple of the target's log
normalizer:

    F(phi) = sum_k c_k E_p[ V_k(omega) ] + c_Z ln Z(phi)

where each integrand V_k is built from conditional log-marginals of the
actual distribution, conditional log-marginals of the normalized target,
the log of one target factor (ln q~ = sum_i ln f_i is read one factor at a
time), and fixed payoff arrays. Differentiation goes through both the
measure and the integrand,

    dF = sum_k c_k ( E_p[ s_p (V_k - E_p V_k) ] + E_p[ dV_k ] ) + c_Z E_q[ s_q ],

with s_p the gradient of ln p and s_q that of ln q~; centring V_k is exact
under evidence, which shifts ln p by a constant. A conditional log-marginal
differentiates into E[s | G, H] - E[s | H] under the matching measure.

No outcome grid is built. Each measure is a product of small tables: the
unobserved joint j of the system's conditionals on their (parents, child)
axes; the actual measure p, which adds one indicator vector per evidence
variable and divides by its total; and the target q~, its factors' weights
on their own scopes. Every quantity the engine reads is a marginal of one
of them, run by a variable-elimination program compiled once per (measure,
axes) (Dechter 1999; Koller & Friedman 2009, ch. 9), or summed from the
smallest marginal of the same measure already taken that covers it; ln Z is
the log of the target's total. The engine so shares no materialization step
with the reports it is certified against, which multiply the dense grid.

A term whose sources span the scope S is evaluated as sum_S p_S V, and it
is divergent when p_S > 0 where V is not finite: p_S(s) > 0 exactly when
some outcome with that s carries mass.

Each gradient piece is a measure times a scope-sized piece g_G, contracted
against a block's scores: onto the block's family F, the measure's marginal
on G + F contracted with g_G.

* the measure part is p h with h = sum_k c_k (V_k - E_p V_k);
* one target factor's log contributes c p to that factor's field alone;
* ln q(G | H) contributes c q~ (p(A)/q~(A) - p(H)/q~(H)), A = G + H, by the
  tower property E_p[ E_q[s | A] ] = E_q[ (p(A)/q~(A)) s ], and ln Z
  contributes c_Z q~ / Z: both q~ r for scope-local pieces r;
* ln p(G | H) adds nothing, since E_p[ E_p[s | A] ] - E_p[ E_p[s | H] ] = 0.

A target factor's field, c p + q~ r, goes to the block its score lives in:
a parameterized factor's own block, a factor mirror's child block, and, for
a marginal mirror j(G | H), the system blocks gain j (F(A)/j(A) - F(H)/j(H))
by the same tower property. A piece whose scope holds no descendant of a
block's child, under a measure with no evidence on one, meets that block's
score only through E[s | non-descendants] = 0, and is skipped.

The score of softmax logit (parents', c') is 1[parents = parents'] (1[child
= c'] - sigma_c'), so a field contracts against a block as its marginal on
(parents, child) minus sigma times its marginal on the parents. For the
unobserved joint that is zero in theory, j(pa, c) = sigma j(pa); its
largest entry over the system blocks is returned as the score residual.

The natural direction divides each block's gradient by occupancy * sigma,
with occupancy the actual measure's marginal on the block's parents, and
centres it over the child axis: the pseudo-inverse of the block's Fisher
information. Slices whose occupancy lies below a floor get a zero
direction, so g . d = sum g^2 / (occupancy sigma) >= 0.

A line search asks for the gradient at the point it accepts right after
the value there, so a value call keeps its state, evaluation and p-field
pieces for a gradient call at the bit-identical parameter vector, which
then only contracts; any other call releases them first.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .decomp import realize
from .errors import NullEvidenceError, ValidationError
from .systems import (
    ActualSystem,
    FactorMirror,
    MarginalMirror,
    ParameterSpace,
    RewardFactor,
    TargetSpec,
    _check_target_factor,
    _frozen,
    softmax,
    target_factor_scope,
)
from .tables import Assignment, _float_array, _Layout, _safe_log

# ---------------------------------------------------------------------------
# Log-sources


@dataclass(frozen=True, eq=False)
class ActualLog:
    """ln p(vars | given) of the (possibly observed) actual distribution."""

    vars: tuple[str, ...]
    given: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class TargetLog:
    """ln q(vars | given) of the normalized target.

    With non-empty ``given`` the normalizer cancels; with empty ``given``
    this is the normalized marginal, whose gradient picks up the global
    target score expectation.
    """

    vars: tuple[str, ...]
    given: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class TargetFactorLog:
    """ln of one target factor's value at omega, by position in the target.

    Unlike :class:`TargetLog` this reads the factor itself rather than a
    conditional of the materialized product, so it stays meaningful when
    other factors couple the same variables. Parameterized factors and
    mirrors contribute their exact scores.
    """

    index: int


@dataclass(frozen=True, eq=False)
class Payoff:
    """A fixed array indexed by ``vars``; contributes no gradient."""

    vars: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values, "payoff values"))


LogSource = ActualLog | TargetLog | TargetFactorLog | Payoff


@dataclass(frozen=True, eq=False)
class Term:
    """One named expectation E_p[ sum_i weight_i * source_i ]."""

    name: str
    coeff: float
    parts: tuple[tuple[float, LogSource], ...]


@dataclass(frozen=True)
class Evaluation:
    """A functional's value with its named terms at face value.

    ``total`` already includes the ``lnz_coeff * log_partition`` part. When
    the actual distribution has mass on a zero of some source, ``divergent``
    is set and the finite parts exclude those outcomes.
    """

    total: float
    terms: Mapping[str, float]
    log_partition: float
    divergent: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))


@dataclass(frozen=True)
class GradientEvaluation:
    """Value plus exact gradient, natural direction and the score-identity
    residual.

    ``direction`` has the layout of ``grad``: per softmax block, the
    gradient divided by occupancy * sigma and centred over the child axis,
    and zero on parent slices whose occupancy is below the floor, so that
    grad . direction >= 0. A block's occupancy is the actual measure's
    marginal on its parents, evidence included.

    ``score_residual`` is the max-abs entry, over every softmax block of the
    realized system, of the unobserved joint contracted against that block's
    scores: p(parents, child) - sigma p(parents), exactly zero in theory. It
    certifies the block contraction against the probabilities the joint was
    built from, per block and with or without evidence.
    """

    evaluation: Evaluation
    grad: np.ndarray
    direction: np.ndarray
    score_residual: float


# ---------------------------------------------------------------------------
# Variable elimination

# A step is merged into the call that consumes its result while the merged
# call's variables span at most this many outcomes, and a wider call is cut
# into pairwise ones. An einsum call costs about 2.5 us and loops over every
# outcome its variables span: on a chain of five (x, a, x') tables, one call
# beats two at a span of 32 outcomes (4.3 against 5.2 us) and is 3x slower
# at 864 (15.6 against 5.6 us). Spans of 16 to 256 time the same on chain-mdp
# and on a descent pass.
_MERGE_SPACE = 64

# The system blocks' field pieces of one measure are bundled into one
# piece while the bundle's scope and every system block's family span at
# most this many outcomes: one marginal and one contraction per block then
# replace one per piece. On chain-mdp's value plus gradient that is 10 %
# faster at 1000 outcomes and 3 % at 4096, and twice as slow at 65536.
_BUNDLE_SPACE = 4096

_LABELS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"  # einsum's 52


class _Program:
    """One marginal of a product of tables, compiled once.

    ``operands`` holds each table's variables in its own axis order, and
    ``out`` the variables of the result in the order it is written.
    Variables are eliminated greedily: each step takes the variable whose
    tables span the fewest outcomes, multiplies those tables and sums out
    every variable no other table and no output holds. Each step is one
    einsum call, and a step whose result feeds one later step is merged
    into it while the merged call spans at most ``_MERGE_SPACE`` outcomes,
    so a small network is one call. Every intermediate lies on a subset of
    the network's variables, so none outgrows the network's outcome space.

    ``calls`` lists each einsum call's subscripts and the slots of its
    inputs: the tables first, then each call's result in turn. ``shape``
    is the shape the result is read in.
    """

    __slots__ = ("calls", "result", "shape")

    def __init__(self, operands: tuple[tuple[int, ...], ...], out: tuple, card: tuple) -> None:
        self.shape = tuple(n if a in out else 1 for a, n in enumerate(card))

        def span(names: Iterable[int]) -> int:
            return math.prod(card[v] for v in names)

        held = dict(enumerate(operands))  # live slot -> its variables
        steps = []
        todo = set().union(*held.values()) - set(out)
        while todo:
            v = min(todo, key=lambda u: (span(set().union(*(s for s in held.values() if u in s))),
                                         u))
            used = [i for i, s in held.items() if v in s]
            joined = set().union(*(held[i] for i in used))
            rest = set(out).union(*(s for i, s in held.items() if i not in used))
            result = tuple(sorted(joined & rest))
            for i in used:
                del held[i]
            held[len(operands) + len(steps)] = result
            steps.append((used, result))
            todo -= joined - rest
        steps.append((list(held), out))
        # Merge each step into its consumer while the merged span allows.
        calls, names = {}, dict(enumerate(operands))
        for k, (used, result) in enumerate(steps):
            slot = len(operands) + k
            inputs, joined = [], set(result).union(*(names[i] for i in used))
            for i in used:
                merged = calls.get(i)
                if merged is not None and span(joined | merged[1]) <= _MERGE_SPACE:
                    del calls[i]
                    inputs += merged[0]
                    joined |= merged[1]
                else:
                    inputs.append(i)
            calls[slot] = (inputs, joined, result)
            names[slot] = result
        slots, self.calls = {i: i for i in range(len(operands))}, []

        def emit(inputs: list[int], result: tuple[int, ...]) -> int:
            label = dict(zip(sorted(set().union(*(names[i] for i in inputs))), _LABELS))
            subscripts = ",".join("".join(label[v] for v in names[i]) for i in inputs)
            subscripts += "->" + "".join(label[v] for v in result)
            self.calls.append((subscripts, tuple(slots[i] for i in inputs)))
            return len(operands) + len(self.calls) - 1

        for slot, (inputs, joined, result) in calls.items():
            if len(inputs) == 1 and names[inputs[0]] == result:
                slots[slot] = slots[inputs[0]]  # nothing to sum or move
                continue
            # A wide call multiplies pairwise, the product that spans the
            # fewest outcomes first, summing each variable once no later
            # table holds it.
            while span(joined) > _MERGE_SPACE and len(inputs) > 2:
                a, b = min(
                    itertools.combinations(inputs, 2),
                    key=lambda ab: span({*names[ab[0]], *names[ab[1]]}),
                )
                inputs = [i for i in inputs if i not in (a, b)]
                need = set(result).union(*(names[i] for i in inputs))
                pair = len(names)
                names[pair] = tuple(sorted({*names[a], *names[b]} & need))
                slots[pair] = emit([a, b], names[pair])
                inputs.append(pair)
            slots[slot] = emit(inputs, result)
        self.result = slots[len(operands) + len(steps) - 1]

    def run(self, tables: Sequence[np.ndarray]) -> np.ndarray:
        values = list(tables)
        for subscripts, inputs in self.calls:
            values.append(np.einsum(subscripts, *[values[i] for i in inputs]))
        return values[self.result].reshape(self.shape)


# Programs are compiled once per structure: engines over systems of one
# shape, such as a sweep's seeded instances, share them.
_compiled = functools.lru_cache(maxsize=4096)(_Program)


@functools.lru_cache(maxsize=4096)
def _order(axes: tuple[int, ...], ndim: int) -> tuple[int, ...]:
    """The transposition of ``ndim`` axes that puts ``axes`` first."""
    return axes + tuple(a for a in range(ndim) if a not in axes)


@functools.lru_cache(maxsize=4096)
def _contraction(scope: frozenset[int], onto: tuple[int, ...], shape: tuple[int, ...]) -> tuple:
    """The einsum that contracts a measure's marginal on the axes
    ``joined`` of ``scope`` and ``onto`` of length above one against a
    piece on ``scope`` onto ``onto`` in their order, with ``joined``, the
    shapes it reads its two operands in and the shape of its result."""
    joined = tuple(a for a in sorted(scope.union(onto)) if shape[a] > 1)
    label = dict(zip(joined, _LABELS))
    subscripts = "".join(map(label.get, joined)) + "," + "".join(map(label.get, sorted(scope)))
    subscripts += "->" + "".join(label[a] for a in onto if a in label)
    sizes = [tuple(shape[a] for a in axes) for axes in (joined, sorted(scope), onto)]
    return (frozenset(joined), subscripts, *sizes)


# ---------------------------------------------------------------------------
# Gradient pieces


# Parent slices reached with less probability than this get no natural
# step: their Fisher scale occupancy * sigma vanishes, and dividing by it
# would only blow up rounding. Any floor from 1e-300 to 1e-6 gives the
# same descent on every preset; a zero floor divides by zero.
_OCCUPANCY_FLOOR = 1.0e-12


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, zero where den is: between marginals on the same axes A,
    the tower weight w(A) / m(A), as sum w E_m[s | A] = sum m (w(A) / m(A)) s."""
    return np.divide(
        num, den, out=np.zeros(np.broadcast_shapes(num.shape, den.shape)), where=den > 0.0
    )


def _grouped(pieces: list[tuple], fits=lambda joined: False) -> list[list]:
    """(measure, scope, piece) ``pieces`` summed into groups. Each piece,
    largest first, is added into the first group so far of its measure
    whose scope covers its own, or whose scope joined with it ``fits``, or
    starts a group: a piece on x_t costs nothing once one on (x_t, a_t) is
    there."""
    groups: list[list] = []
    for which, scope, piece in sorted(pieces, key=lambda entry: entry[2].size, reverse=True):
        for group in groups:
            joined = group[1] | scope
            if group[0] == which and (joined == group[1] or fits(joined)):
                group[1], group[2] = joined, group[2] + piece
                break
        else:
            groups.append([which, scope, piece])
    return groups


def _natural_direction(grad: np.ndarray, sigma: np.ndarray, occupancy: np.ndarray) -> np.ndarray:
    """One block's gradient preconditioned by its Fisher information, flattened.

    The gradient is divided by occupancy * sigma, set to zero on parent
    slices whose occupancy is below the floor, and centred over the child
    axis; ``occupancy`` is indexed by the parents alone.
    """
    occupancy = occupancy[..., np.newaxis]
    live = (occupancy >= _OCCUPANCY_FLOOR) & (sigma > 0.0)
    scaled = np.divide(
        grad.reshape(sigma.shape), occupancy * sigma, out=np.zeros(sigma.shape), where=live
    )
    return (scaled - np.add.reduce(scaled, axis=-1, keepdims=True) / sigma.shape[-1]).ravel()


# ---------------------------------------------------------------------------
# The evaluation plan and the state of one evaluation


@dataclass(frozen=True)
class _Block:
    """One live softmax block: a system factor the realization left
    parameterized, or a parameterized target factor. ``at`` is its position
    among the parameter space's blocks, ``family`` and ``parents`` its axes
    in (parents, child) order, ``shape`` its softmax's shape and ``compact``
    that shape without length-one axes. A system block's ``below`` holds
    its child and the child's descendants, and ``conditioned`` whether
    evidence lies among them."""

    at: int
    coords: slice
    side: str
    family: tuple[int, ...]
    parents: tuple[int, ...]
    shape: tuple[int, ...]
    compact: tuple[int, ...]
    below: frozenset[int]
    conditioned: bool


@dataclass
class _QSide:
    """The target's tables, its total Z, its marginals taken so far, and
    its source values: each marginal mirror's log by factor position, the
    others by source. An engine whose target does not depend on phi builds
    one and shares it."""

    tables: tuple[np.ndarray, ...]
    total: float
    values: dict
    cache: dict = field(default_factory=dict)


class _Plan:
    """What every evaluation of one engine shares, resolved from structure
    on its first evaluation.

    ``networks`` holds each measure's tables and ``variables`` their axes
    of length above one: ``"joint"`` the system's conditionals, ``"p"``
    those and one indicator per evidence variable, ``"q"`` each target
    factor's weights and a ones vector per target variable no factor
    reads. A table is fixed and laid out once, or the position of the live
    block whose softmax it is, or a marginal mirror. ``logs`` holds each
    target factor's log on the joint's axes, or what it reads.

    The gradient's structure: ``scopes`` holds each term's axes,
    ``towers`` each normalized-target source's coefficient with the axes
    of its two ratios, ``ratio`` whether a tower or ln Z adds q~ r to a
    consumed field, and ``consumers`` each target factor whose field a
    live block consumes, with its coefficient of p and what it feeds: a
    block position, or a marginal mirror's (given + vars, given) axes.
    """

    def __init__(self, system: ActualSystem, target: TargetSpec, evidence: Mapping[str, int],
                 space: ParameterSpace, terms: tuple[Term, ...], lnz_coeff: float) -> None:
        self.evidence = evidence
        self.shape = shape = tuple(v.cardinality for v in system.variables)
        self.axis = {v.name: i for i, v in enumerate(system.variables)}
        self.grid = frozenset(a for a, n in enumerate(shape) if n > 1)
        above: dict[str, set[str]] = {}

        def ancestors(name: str) -> set[str]:
            if name not in above:
                parents = system.factors[name].parents
                above[name] = set(parents).union(*map(ancestors, parents))
            return above[name]

        seen = self.grid.intersection(self.axes(tuple(evidence)))
        blocks: list[_Block] = []
        # A system child's name, or a target factor's position, to the
        # position of its live block in ``blocks``.
        live: dict[str | int, int] = {}
        for at, b in enumerate(space.blocks):
            if b.side == "p":
                factor = system.factors[b.child]
                if factor.logits is None:
                    continue  # realized into a point mass; no dependence left
                below = self.grid.intersection(self.axes(tuple(
                    n for n in system.names if n == b.child or b.child in ancestors(n)
                )))
            else:
                factor, below = target.factors[b.index], frozenset()
            live[b.child if b.side == "p" else b.index] = len(blocks)
            parents = self.axes(factor.parents)
            blocks.append(_Block(
                at, slice(b.offset, b.offset + b.size), b.side,
                parents + (self.axis[factor.child],), parents, b.shape,
                tuple(n for n in b.shape if n > 1), below, bool(below & seen),
            ))
        self.blocks = tuple(blocks)
        self.system_blocks = any(b.side == "p" for b in blocks)
        # Every system block's family: what a bundle of field pieces joins.
        self.families = self.grid.intersection(
            set().union(*(b.family for b in blocks if b.side == "p"))
        )
        joint = [
            (self.compact(f.parents + (n,)), live[n] if f.logits is not None
             else self.squeezed(system.factor_conditional(n)))
            for n, f in system.factors.items()
        ]
        joint_ind = joint + [
            ((self.axis[n],), (np.arange(shape[self.axis[n]]) == v) * 1.0)
            for n, v in evidence.items() if self.axis[n] in self.grid
        ]
        # Payoffs carry no gradient, and an ActualLog adds none in
        # expectation: E_p[ E_p[s | G, H] - E_p[s | H] ] = 0.
        c_factor: dict[int, float] = {}
        towers = []
        scopes = []
        for t in terms:
            names: tuple[str, ...] = ()
            for w, src in t.parts:
                if isinstance(src, TargetFactorLog):
                    c_factor[src.index] = c_factor.get(src.index, 0.0) + t.coeff * w
                    names += target_factor_scope(target.factors[src.index], system)
                elif isinstance(src, Payoff):
                    names += src.vars
                elif src.vars:
                    names += src.vars + src.given
                    if isinstance(src, TargetLog):
                        towers.append(
                            (t.coeff * w, self.axes(src.vars + src.given), self.axes(src.given))
                        )
            scopes.append(self.grid.intersection(self.axes(names)))
        self.scopes, self.towers = tuple(scopes), tuple(towers)
        ratio = bool(towers) or lnz_coeff != 0.0
        target_axes = [self.axis[system.variable(n).name] for n in target.scope]
        self.q_grid = self.grid.intersection(target_axes)
        logs: list = []
        weights: list[tuple[tuple[int, ...], np.ndarray | int | MarginalMirror]] = []
        consumers = []
        for i, f in enumerate(target.factors):
            names = target_factor_scope(f, system)
            # A factor mirror feeds its child's live block, a parameterized
            # factor its own, and a marginal mirror the system blocks.
            if isinstance(f, MarginalMirror):
                feeds = (self.axes(names), self.axes(f.given)) if self.system_blocks else None
                logs.append(f)
                weights.append((tuple(sorted(self.grid.intersection(self.axes(names)))), f))
            elif (feeds := live.get(f.child if isinstance(f, FactorMirror) else i)) is not None:
                logs.append((feeds, _Layout(names, system.variables)))
                weights.append((self.compact(names), feeds))
            elif isinstance(f, RewardFactor):
                logs.append(_Layout(names, system.variables).place(f.values))
                with np.errstate(over="ignore"):  # an inf weight fails the total's check
                    weights.append((self.compact(names), self.squeezed(np.exp(f.values))))
            else:
                mirror = isinstance(f, FactorMirror)
                table = system.factor_conditional(f.child) if mirror else f.table
                logs.append(_Layout(names, system.variables).place(_safe_log(table)))
                weights.append((self.compact(names), self.squeezed(table)))
            c = c_factor.get(i, 0.0)
            if feeds is not None and (c != 0.0 or ratio):
                consumers.append((c, feeds))  # a zero field is left out
        read = set().union(*(v for v, _ in weights))
        weights += [((a,), np.ones(shape[a])) for a in sorted(self.q_grid - read)]
        weights = weights or [((), np.ones(()))]
        self.logs, self.consumers = tuple(logs), tuple(consumers)
        self.ratio = ratio and bool(consumers)
        self.networks, self.variables = {}, {}
        for which, tables in (("joint", joint), ("p", joint_ind), ("q", weights)):
            self.variables[which] = tuple(v for v, _ in tables)
            self.networks[which] = tuple(e for _, e in tables)
        self.payoffs = {
            src: _Layout(src.vars, system.variables).place(src.values)
            for t in terms
            for _, src in t.parts
            if isinstance(src, Payoff)
        }

    def axes(self, names: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(self.axis[x] for x in names)

    def compact(self, names: tuple[str, ...]) -> tuple[int, ...]:
        """The axes of ``names`` of length above one, in that order."""
        return tuple(a for a in self.axes(names) if a in self.grid)

    @staticmethod
    def squeezed(table: np.ndarray) -> np.ndarray:
        return table.reshape(tuple(n for n in table.shape if n > 1))

    def program(self, which: str, keep: frozenset[int]) -> _Program:
        """The marginal of measure ``which`` on the axes ``keep``."""
        return _compiled(self.variables[which], tuple(sorted(keep)), self.shape)

    @property
    def fixed_target(self) -> bool:
        """Whether no target factor depends on phi: none is parameterized,
        a marginal mirror, or a mirror of a live softmax block."""
        return all(isinstance(e, np.ndarray) for e in self.logs)


class _State:
    """Everything derived from one parameter vector: one softmax per live
    block, each measure's tables, their totals and the marginals taken."""

    def __init__(self, plan: _Plan, sigmas: tuple[np.ndarray, ...], q_side: _QSide | None) -> None:
        self.plan, self.sigmas = plan, sigmas
        compact = tuple(s.reshape(b.compact) for b, s in zip(plan.blocks, sigmas))
        self.networks = {
            which: tuple(
                e if isinstance(e, np.ndarray) else compact[e] for e in plan.networks[which]
            )
            for which in ("joint", "p")
        }
        self.totals: dict[str, float] = {}
        self.cache: dict[str, dict] = {"joint": {}, "p": {}}
        self.values: dict = {}  # actual-side source values
        self.q_side = q_side or self._target_side(compact)

    def _target_side(self, compact: tuple[np.ndarray, ...]) -> _QSide:
        """The target's tables and its checked total Z at this state."""
        plan = self.plan
        logs = {
            i: self.log_conditional("joint", e.vars, e.given)
            for i, e in enumerate(plan.logs)
            if isinstance(e, MarginalMirror)
        }
        tables = []
        for i, (axes, e) in enumerate(zip(plan.variables["q"], plan.networks["q"])):
            if isinstance(e, MarginalMirror):
                w = np.exp(logs[i], where=np.isfinite(logs[i]), out=np.zeros(logs[i].shape))
                e = w.reshape(tuple(plan.shape[a] for a in axes))
            tables.append(e if isinstance(e, np.ndarray) else compact[e])
        total = plan.program("q", frozenset()).run(tables).item()
        if not math.isfinite(total):
            raise ValidationError("target weights must be finite")
        if total <= 0.0:
            raise ValidationError("target weights must have positive total mass")
        return _QSide(tuple(tables), total, logs)

    def marginal(self, which: str, keep: Iterable[int]) -> np.ndarray:
        """The marginal on ``keep`` of the actual measure (``"p"``), the
        unobserved joint (``"joint"``) or the target weights (``"q"``,
        unnormalized), on the joint's axes with length one elsewhere, cached.

        A new marginal is summed from the smallest one of the same measure
        already taken that covers ``keep``, and otherwise run by its
        program. The first program a measure runs fixes its total: the
        joint's must be one to 1e-10, checked with p's under evidence, and
        evidence must keep some mass.
        """
        plan = self.plan
        if which == "q":
            keep, cache = plan.q_grid.intersection(keep), self.q_side.cache
        else:
            if which == "joint" and not plan.evidence:
                which = "p"  # no evidence: one measure, one cache
            keep, cache = plan.grid.intersection(keep), self.cache[which]
        m = cache.get(keep)
        if m is None:
            covering = [(kept, m) for kept, m in cache.items() if keep <= kept]
            if covering:
                kept, m = min(covering, key=lambda entry: entry[1].size)
                m = np.add.reduce(m, axis=tuple(sorted(kept - keep)), keepdims=True)
            elif which == "q":
                m = plan.program(which, keep).run(self.q_side.tables)
            else:
                m = plan.program(which, keep).run(self.networks[which])
                total = self.totals.get(which)
                if total is None:
                    total = self.totals[which] = float(m.sum())
                    if which == "p" and plan.evidence:
                        self.marginal("joint", ())  # the joint's sum is checked too
                        if total <= 0.0:
                            raise NullEvidenceError(
                                f"evidence {dict(plan.evidence)} has zero mass"
                            )
                    elif abs(total - 1.0) > 1e-10:
                        raise ValidationError(
                            f"materialized joint sums to {total!r}; factors are inconsistent"
                        )
                m = m / total
            cache[keep] = m
        return m

    def read(self, which: str, axes: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
        """The marginal on ``axes`` read in their order, in ``shape``."""
        order = _order(axes, len(self.plan.shape))
        return self.marginal(which, axes).transpose(order).reshape(shape)

    def onto(self, which: str, scope: frozenset, piece: np.ndarray, axes: tuple) -> np.ndarray:
        """Measure ``which`` times a piece on ``scope``, summed onto
        ``axes`` in their order: the measure's marginal on both scopes
        contracted with the piece."""
        joined, subscripts, m_shape, piece_shape, shape = _contraction(
            scope, axes, self.plan.shape
        )
        m = self.marginal(which, joined).reshape(m_shape)
        return np.einsum(subscripts, m, piece.reshape(piece_shape)).reshape(shape)

    def log_conditional(self, which: str, vars: tuple, given: tuple) -> np.ndarray:
        """ln m(vars | given) of measure ``which``, from its marginals; -inf
        where the marginal on vars + given is 0, and ln 1 for empty
        ``vars``."""
        if not vars:
            return np.zeros((1,) * len(self.plan.shape))

        def log_marginal(names: tuple[str, ...]) -> np.ndarray:
            m = self.marginal(which, self.plan.axes(names))
            return _safe_log(m / m.sum())

        out = log_marginal(vars + given)
        if given:
            with np.errstate(invalid="ignore"):
                out = out - log_marginal(given)
        return out


class Engine:
    """Evaluates one functional and its exact gradient at parameter points.

    The engine is bound to a (system, target) pair, a term list, and a
    realization; parameter vectors index every parameterized factor on both
    sides through a :class:`ParameterSpace`. Term values match what the
    report definitions give, although the two share no table: the reports
    multiply the dense outcome grid, and the engine contracts factor tables.

    The realization is applied and every target factor's shape checked at
    construction. The first evaluation resolves structure into one plan;
    every evaluation then takes one softmax per live block and runs only
    the marginal programs its terms and blocks ask for. A target that does
    not depend on ``phi`` is contracted once, and its ln Z, marginals and
    source values are reused.

    ``value`` keeps its state, with its evaluation and p-field pieces,
    keyed by the exact bytes of the checked float64 ``phi``: a
    ``value_and_gradient`` call at bit-identical ``phi`` right after it
    only contracts them. Every other call releases the state first, so an
    engine holds at most one state of scope-sized marginals and pieces. An
    engine is not meant for concurrent use.
    """

    def __init__(
        self,
        system: ActualSystem,
        target: TargetSpec,
        terms: tuple[Term, ...] | list[Term],
        lnz_coeff: float = 0.0,
        realized: Assignment | None = None,
        realization: str = "intervene",
    ) -> None:
        self.system = system
        self.target = target
        self.terms = tuple(terms)
        self.lnz_coeff = float(lnz_coeff)
        self.realized = dict(realized or {})
        self.realization = realization
        self.space = ParameterSpace(system, target)
        # The evidence the realization leaves; ``make_objective`` checks its
        # scope against the target's.
        self._realized_system, self.evidence = realize(
            system, self.realized, realization
        )
        self._validate_terms()
        for f in target.factors:
            _check_target_factor(f, target, self._realized_system)
        # Both built by the first evaluation.
        self._plan: _Plan | None = None
        self._fixed_q_side: _QSide | None = None
        # The last ``value`` call's state, evaluation and p-field pieces,
        # keyed by the bytes of its phi; emptied by the next evaluation.
        self._kept: tuple[bytes, _State, Evaluation, list | None] | None = None

    # -- construction checks ---------------------------------------------

    def _validate_terms(self) -> None:
        seen: set[str] = set()
        in_system, in_target = set(self.system.names), set(self.target.scope)
        for t in self.terms:
            if t.name in seen:
                raise ValidationError(f"duplicate term name {t.name!r}")
            seen.add(t.name)
            if not math.isfinite(t.coeff):
                raise ValidationError(f"term {t.name!r} has non-finite coefficient")
            for w, src in t.parts:
                if not math.isfinite(w):
                    raise ValidationError(f"term {t.name!r} has non-finite weight")
                if isinstance(src, ActualLog):
                    missing = set(src.vars + src.given) - in_system
                elif isinstance(src, TargetLog):
                    missing = set(src.vars + src.given) - in_target
                elif isinstance(src, Payoff):
                    missing = set(src.vars) - in_system
                    want = tuple(self.system.variable(n).cardinality for n in src.vars
                                 if not missing)
                    if not missing and src.values.shape != want:
                        raise ValidationError(
                            f"payoff over {src.vars} has shape {src.values.shape}, expected {want}"
                        )
                elif isinstance(src, TargetFactorLog):
                    missing = set()
                    if not 0 <= src.index < len(self.target.factors):
                        raise ValidationError(
                            f"term {t.name!r} references target factor {src.index}, "
                            f"but the target has {len(self.target.factors)} factors"
                        )
                else:
                    raise ValidationError(f"unknown source type {type(src).__name__}")
                if missing:
                    raise ValidationError(
                        f"term {t.name!r} references unknown variables {sorted(missing)}"
                    )

    # -- state ------------------------------------------------------------

    def parameters(self) -> np.ndarray:
        return self.space.get()

    def _state(self, phi: np.ndarray) -> _State:
        logits = self.space.logits(phi)
        if self._plan is None:
            self._plan = _Plan(self._realized_system, self.target, self.evidence, self.space,
                               self.terms, self.lnz_coeff)
        plan = self._plan
        st = _State(plan, tuple(softmax(logits[b.at]) for b in plan.blocks), self._fixed_q_side)
        if plan.fixed_target:
            self._fixed_q_side = st.q_side
        return st

    # -- per-source arrays --------------------------------------------------

    def _source_values(self, src: LogSource, st: _State) -> np.ndarray:
        """A source's values on the joint's axes, with length one on every
        axis outside the source's own scope."""
        if isinstance(src, Payoff):
            return self._plan.payoffs[src]
        cache = st.values if isinstance(src, ActualLog) else st.q_side.values
        arr = cache.get(src)
        if arr is not None:
            return arr
        if isinstance(src, ActualLog):
            arr = st.log_conditional("p", src.vars, src.given)
        elif isinstance(src, TargetLog):
            arr = st.log_conditional("q", src.vars, src.given)
        else:
            e = self._plan.logs[src.index]
            if isinstance(e, MarginalMirror):
                return st.q_side.values[src.index]
            arr = e if isinstance(e, np.ndarray) else e[1].place(_safe_log(st.sigmas[e[0]]))
        cache[src] = arr
        return arr

    # -- evaluation ---------------------------------------------------------

    def _evaluate(self, st: _State) -> tuple[Evaluation, list | None]:
        """The term pass at ``st``: the evaluation, and the p-field's pieces
        c_t (V_t - E_p V_t), each on its term's scope, when some live system
        block consumes them."""
        ones = (1,) * len(self._plan.shape)
        values: dict[str, float] = {}
        divergent = False
        centred = [] if self._plan.system_blocks else None
        for term, scope in zip(self.terms, self._plan.scopes):
            # Opposite infinities from stacked log sources cancel into nans
            # off the support; the finite mask below discards them.
            with np.errstate(invalid="ignore"):
                weighted = [w * self._source_values(src, st) for w, src in term.parts]
                v = sum(weighted[1:], weighted[0]) if weighted else np.zeros(ones)
            # p on the term's scope S: p_S(s) > 0 exactly when some outcome
            # with that s carries mass, so this is the outcome-level test.
            ps = st.marginal("p", scope)
            ok = np.isfinite(v)
            if not ok.all():
                divergent = divergent or bool(np.any((ps > 0.0) & ~ok))
                ps, v = np.where(ok, ps, 0.0), np.where(ok, v, 0.0)
            val = float(np.vdot(ps, v))
            values[term.name] = val
            if centred is not None:
                centred.append((scope, term.coeff * (v - val)))
        log_partition = math.log(st.q_side.total)
        parts = [term.coeff * values[term.name] for term in self.terms]
        parts.append(self.lnz_coeff * log_partition)
        return Evaluation(math.fsum(parts), values, log_partition, divergent), centred

    def _target_ratios(self, st: _State) -> list[list]:
        """The pieces r, grouped, of every target factor's field q~ r."""

        def ratio(axes: tuple[int, ...]) -> np.ndarray:
            return _ratio(st.marginal("p", axes), st.marginal("q", axes))

        q_grid = self._plan.q_grid
        pieces = []
        for c, keep, given in self._plan.towers:
            pieces += [("q", q_grid.intersection(keep), c * ratio(keep)),
                       ("q", q_grid.intersection(given), -c * ratio(given))]
        if self.lnz_coeff != 0.0:
            lnz = np.full((1,) * len(self._plan.shape), self.lnz_coeff / st.q_side.total)
            pieces.append(("q", frozenset(), lnz))
        return _grouped(pieces)

    def _field(self, st: _State, c: float, ratios: list, axes: tuple, shape: tuple) -> np.ndarray:
        """A target factor's field c p + q~ r onto ``axes``, in ``shape``."""
        field = c * st.read("p", axes, shape) if c != 0.0 else 0.0
        for _, scope, r in ratios:
            field = field + st.onto("q", scope, r, axes).reshape(shape)
        return field

    def _contract(
        self, st: _State, centred: list[tuple] | None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """The score residual, then every block's gradient from the field
        pieces that reach it, and its natural direction. ``centred`` holds
        the terms' (scope, piece) pieces of h. Marginals are summed from the
        smallest cached cover, so the residual's are taken first and the
        occupancies last, as the rounding depends on that order."""
        plan = self._plan
        residual = self._score_residual(st)
        # (measure, scope, piece) for every piece of the system blocks' field
        pieces = [("p", *piece) for piece in centred or ()]
        ratios = self._target_ratios(st) if plan.ratio else []
        own: dict[int, np.ndarray] = {}  # fields for one block only, by position
        for c, feeds in plan.consumers:
            if isinstance(feeds, int):
                b = plan.blocks[feeds]
                f = self._field(st, c, ratios, b.family, b.shape)
                own[feeds] = own[feeds] + f if feeds in own else f
            else:
                keep, given = feeds
                scope = plan.grid.intersection(keep)
                keepdims = tuple(n if a in scope else 1 for a, n in enumerate(plan.shape))
                fa = self._field(st, c, ratios, tuple(sorted(scope)), keepdims)
                fh = np.add.reduce(fa, axis=tuple(sorted(scope.difference(given))), keepdims=True)
                pieces.append(("joint", scope, _ratio(fa, st.marginal("joint", keep))
                               - _ratio(fh, st.marginal("joint", given))))
        bundles = _grouped(pieces, lambda joined: math.prod(
            plan.shape[a] for a in joined | plan.families) <= _BUNDLE_SPACE)
        grad = np.zeros(self.space.size)
        direction = np.zeros(self.space.size)
        for i, (b, sigma) in enumerate(zip(plan.blocks, st.sigmas)):
            field = own.get(i)
            for which, scope, piece in bundles if b.side == "p" else ():
                # A piece that reads no descendant of the block's child, under
                # a measure with no evidence on one, adds zero in theory.
                if scope & b.below or (which == "p" and b.conditioned):
                    part = st.onto(which, scope, piece, b.family)
                    field = part if field is None else field + part
            if field is not None:
                g = (field - sigma * np.add.reduce(field, axis=-1, keepdims=True)).ravel()
                grad[b.coords] = g
                occupancy = st.read("p", b.parents, b.shape[:-1])
                direction[b.coords] = _natural_direction(g, sigma, occupancy)
        return grad, direction, residual

    def _score_residual(self, st: _State) -> float:
        """The max-abs entry, over the live system blocks, of the unobserved
        joint contracted against each block's scores: j(parents, child) -
        sigma j(parents), exactly zero in theory."""
        residual = 0.0
        for b, sigma in zip(self._plan.blocks, st.sigmas):
            if b.side == "p":
                joint = st.read("joint", b.family, b.shape)
                off = joint - sigma * np.add.reduce(joint, axis=-1, keepdims=True)
                residual = max(residual, float(np.abs(off).max()))
        return residual

    def _vector(self, phi: np.ndarray | None) -> np.ndarray:
        """``phi`` as a float64 array; the current parameters when None."""
        return _float_array(self.space.get() if phi is None else phi, "parameter vector")

    def value(self, phi: np.ndarray | None = None) -> Evaluation:
        """The functional's value and term breakdown at ``phi``.

        The state it builds, with its evaluation and p-field pieces, is kept
        for a ``value_and_gradient`` call at the same point that comes next."""
        self._kept = None
        phi = self._vector(phi)
        st = self._state(phi)
        evaluation, centred = self._evaluate(st)
        self._kept = (phi.tobytes(), st, evaluation, centred)
        return evaluation

    def value_and_gradient(self, phi: np.ndarray | None = None) -> GradientEvaluation:
        """Value plus the exact gradient and natural direction over every
        parameterized factor.

        Right after a ``value`` call at bit-identical ``phi`` this only
        contracts what that call kept, so the term pass runs once per
        point and the result is what a fresh state gives."""
        kept, self._kept = self._kept, None
        phi = self._vector(phi)
        if kept is None or phi.shape != (self.space.size,) or phi.tobytes() != kept[0]:
            kept = None  # release the old state before building the new one
            st = self._state(phi)
            kept = (None, st, *self._evaluate(st))
        _, st, evaluation, centred = kept
        return GradientEvaluation(evaluation, *self._contract(st, centred))
