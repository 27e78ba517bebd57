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
the log of the target's total. The programs of one measure are interned
into one network of einsum calls, a node per set of tables multiplied and
axes kept, so the marginals of one state run each message they share once
(Koller & Friedman 2009, ch. 10): a chain's step marginals share their
prefixes, and cost linear in its length. A program over j or p leaves out
every barren conditional, one whose child is not kept, not observed and
read by no table left, until none is (Shachter 1986): it sums to one over
its child, so a marginal reads only the conditionals of the ancestors of
its axes and, in p, of the evidence. The target's factors are not
conditionals, and a program over q~ reads them all. The engine so shares
no materialization step with the reports it is certified against, which
multiply the dense grid.

A term whose sources span the scope S is evaluated as sum_S p_S V, and it
is divergent when p_S > 0 where V is not finite: p_S(s) > 0 exactly when
some outcome with that s carries mass.

A block's field is a measure times scope-sized pieces r_G, summed onto the
block's family:

* the measure part is p h with h = sum_k c_k (V_k - E_p V_k);
* one target factor's log contributes c p to that factor's field alone;
* ln q(G | H) contributes c q~ (p(A)/q~(A) - p(H)/q~(H)), A = G + H, by the
  tower property E_p[ E_q[s | A] ] = E_q[ (p(A)/q~(A)) s ], and ln Z
  contributes c_Z q~ / Z;
* ln p(G | H) adds nothing, since E_p[ E_p[s | A] ] - E_p[ E_p[s | H] ] = 0.

A target factor's field, c p + q~ r, goes to the block its score lives in:
a parameterized factor's own block, a factor mirror's child block, and, for
a marginal mirror j(G | H), the system blocks gain j (F(A)/j(A) - F(H)/j(H))
by the same tower property.

Every field comes from one reverse sweep per measure (Griewank & Walther
2008). The sum of a measure's product of tables times r_G is the sum of its
marginal on G times r_G, and a table T_b times that sum's derivative by T_b
is the measure times r_G summed onto T_b's axes (Darwiche 2003). So each
piece is seeded as a cotangent on a marginal the value took, and passed up
to a cached marginal that covers it or onto the node that holds it; one
sweep per measure then takes every node's cotangent back, in descending
slot order, to every table at once.

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
then sweeps back through the kept nodes; any other call releases them
first.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

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
from .tables import JOINT_SUM_TOL, Assignment, _float_array, _Layout, _safe_log

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


# The bound a score residual must stay under, in ``gradcheck`` and in
# ``verify``'s ``score_residual`` check: the residual is zero in theory.
SCORE_RESIDUAL_TOL = 1e-10


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

_LABELS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"  # einsum's 52


class _Program:
    """One marginal of a network's product of tables, on the sorted axes
    ``out``, compiled once and interned into the network.

    Variables are eliminated greedily: each step takes the variable whose
    tables span the fewest outcomes, multiplies those tables and sums out
    every variable no other table and no output holds. Each step is one
    einsum call, and a step whose result feeds one later step is merged
    into it while the merged call spans at most ``_MERGE_SPACE`` outcomes,
    so a small network is one call. Every intermediate lies on a subset of
    the network's variables, so none outgrows the network's outcome space.

    A conditional whose child is not in ``out`` and that no other table
    left reads is barren and not read, until none is. Each call is
    interned as the network's node for the tables it multiplies and the
    axes it keeps, which an earlier program may have made. ``slots``
    lists, in order, every node the
    marginal needs, ``result`` the slot of the marginal, None when no
    table is left and the marginal is 1, and ``shape`` the shape the
    result is read in.
    """

    __slots__ = ("result", "shape", "slots")

    def __init__(self, network: _Network, out: tuple[int, ...]) -> None:
        operands, card, children = network.operands, network.card, network.children
        self.shape = tuple(n if a in out else 1 for a, n in enumerate(card))

        def span(names: Iterable[int]) -> int:
            return math.prod(card[v] for v in names)

        held = dict(enumerate(operands))  # live slot -> its variables
        while barren := [t for t in held if children and (child := children[t]) is not None
                         and child not in out and all(child not in held[u] for u in held if u != t)]:
            for t in barren:
                del held[t]
        if not held:  # nothing left to read: the marginal is 1
            self.slots, self.result = (), None
            return
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
        placed = {i: i for i in range(len(operands))}  # this program's slots -> the network's
        for slot, (inputs, joined, result) in calls.items():
            if len(inputs) == 1 and names[inputs[0]] == result:
                placed[slot] = placed[inputs[0]]  # nothing to sum or move
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
                placed[pair] = network.node([(placed[i], names[i]) for i in (a, b)], names[pair])
                inputs.append(pair)
            placed[slot] = network.node([(placed[i], names[i]) for i in inputs], result)
        self.result = placed[len(operands) + len(steps) - 1]
        needed, todo = set(), [self.result]
        while todo:
            s = todo.pop() - len(operands)
            if s >= 0 and s not in needed:
                needed.add(s)
                todo += network.nodes[s][1]
        self.slots = tuple(sorted(s + len(operands) for s in needed))


class _Network:
    """Every compiled marginal of one product of tables, as one network of
    shared einsum calls (Koller & Friedman 2009, ch. 10).

    ``operands`` holds each table's variables in its own axis order,
    ``card`` each variable's length, ``children`` each table's child axis
    when it is a conditional, None otherwise, and ``wanted`` the tables
    whose fields the reverse sweep gives. Slots number the tables, then
    the nodes in the order they were interned, so a node's inputs come
    before it.

    A node is one einsum call, keyed by the set of tables it multiplies
    and the axes it keeps, in sorted order: within one state those two
    facts fix its array, so a program that needs a key an earlier program
    interned reuses that node. ``nodes`` holds each node's subscripts, the
    slots of its inputs, one reverse step per input that is a wanted table
    or a node with steps, and the tables it multiplies. A reverse step
    gives the input's slot, and an einsum from the node's cotangent and
    the slots it reads to the input's cotangent, read in the shape given,
    or for a table to the table times it. ``programs`` holds the programs
    interned, by their axes.
    """

    __slots__ = ("card", "children", "keys", "nodes", "operands", "programs", "wanted")

    def __init__(self, operands: tuple[tuple[int, ...], ...], card: tuple,
                 children: tuple[int | None, ...] | None = None,
                 wanted: frozenset[int] = frozenset()) -> None:
        self.operands, self.card, self.children, self.wanted = operands, card, children, wanted
        self.nodes: list[tuple[str, tuple[int, ...], tuple, frozenset[int]]] = []
        # (tables multiplied, axes kept) -> the slot of its node
        self.keys: dict[tuple[frozenset[int], tuple[int, ...]], int] = {}
        self.programs: dict[tuple[int, ...], _Program] = {}

    def program(self, keep: tuple[int, ...]) -> _Program:
        """The marginal on the sorted axes ``keep``, interned on first use."""
        program = self.programs.get(keep)
        if program is None:
            program = self.programs[keep] = _Program(self, keep)
        return program

    def node(self, inputs: list[tuple[int, tuple[int, ...]]], result: tuple[int, ...]) -> int:
        """The slot of the call that multiplies ``inputs``, each a slot with
        its variables, and keeps ``result``: a node of the same key if one
        is interned, and a new node otherwise."""
        tables = len(self.operands)
        reads = frozenset().union(*(
            {i} if i < tables else self.nodes[i - tables][3] for i, _ in inputs))
        key = (reads, result)
        slot = self.keys.get(key)
        if slot is not None:
            return slot
        label = dict(zip(sorted(set().union(*(v for _, v in inputs))), _LABELS))
        subs = ["".join(label[v] for v in names) for _, names in inputs]
        written = "".join(label[v] for v in result)
        # An input's cotangent is the result's times the other inputs,
        # summed onto the input's variables, and constant on one that only
        # the input holds; a table's step multiplies by the table.
        steps = []
        for j, (i, names) in enumerate(inputs):
            if not (i in self.wanted if i < tables else self.nodes[i - tables][2]):
                continue  # leads back to no wanted table
            ops = [o for o in range(len(inputs)) if o != j or i < tables]
            held = set(written).union(*(subs[o] for o in ops))
            ins = ",".join([written, *(subs[o] for o in ops)])
            steps.append((i, ins + "->" + "".join(c for c in subs[j] if c in held),
                          tuple(inputs[o][0] for o in ops), None if j in ops else
                          tuple(self.card[v] if label[v] in held else 1 for v in names)))
        self.nodes.append((",".join(subs) + "->" + written, tuple(i for i, _ in inputs),
                           tuple(steps), reads))
        slot = self.keys[key] = tables + len(self.nodes) - 1
        return slot

    def run(self, values: dict, keep: tuple[int, ...]) -> tuple[np.ndarray, int | None]:
        """The marginal on the sorted axes ``keep`` of the tables in
        ``values``, and its slot. ``values`` holds the array of each table
        and of each node run so far, by slot, and the marginal runs only the
        nodes it needs that it does not hold."""
        program = self.programs.get(keep) or self.program(keep)
        for s in program.slots:
            if s not in values:
                subscripts, inputs, _, _ = self.nodes[s - len(self.operands)]
                values[s] = np.einsum(subscripts, *[values[i] for i in inputs])
        if program.result is None:
            return np.ones(program.shape), None
        return values[program.result].reshape(program.shape), program.result

    def backward(self, values: dict, seeded: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Each wanted table T times the gradient by T of the sum, over the
        slots ``seeded``, of sum(cot * value), for the run that filled
        ``values``: all tables times the cotangents, summed onto T's
        variables. One sweep visits the nodes in descending slot order."""
        tables = len(self.operands)
        cots, fields = {}, {}
        for s, cot in seeded.items():
            cot = cot.reshape(values[s].shape)
            if s >= tables:
                cots[s] = cot
            elif s in self.wanted:  # a table read as it is
                fields[s] = values[s] * cot
        while cots:
            g = cots.pop(s := max(cots))
            for i, subscripts, read, shape in self.nodes[s - tables][2]:
                d = np.einsum(subscripts, g, *[values[o] for o in read])
                d = d if shape is None else d.reshape(shape)
                into = cots if i >= tables else fields
                into[i] = into[i] + d if i in into else d
        return fields


# Networks are built once per structure: engines over systems of one
# shape, such as a sweep's seeded instances, share them.
_network = functools.lru_cache(maxsize=4096)(_Network)


@functools.lru_cache(maxsize=4096)
def _order(axes: tuple[int, ...], ndim: int) -> tuple[int, ...]:
    """The transposition of ``ndim`` axes that puts ``axes`` first."""
    return axes + tuple(a for a in range(ndim) if a not in axes)


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
    that shape without length-one axes."""

    at: int
    coords: slice
    side: str
    family: tuple[int, ...]
    parents: tuple[int, ...]
    shape: tuple[int, ...]
    compact: tuple[int, ...]


@dataclass
class _QSide:
    """The target's tables and network nodes run, by slot (``slots``), its
    marginals taken so far with the slot each was run into, its total Z
    and its source values: each marginal mirror's log by factor position,
    the others by source. An engine whose target does not depend on phi
    builds one and shares it."""

    slots: dict
    values: dict
    total: float = 0.0
    cache: dict = field(default_factory=dict)
    made: dict = field(default_factory=dict)


class _Plan:
    """What every evaluation of one engine shares, resolved from structure
    on its first evaluation.

    ``tables`` holds each measure's tables: ``"joint"`` the system's
    conditionals, ``"p"`` those and one indicator per evidence variable,
    ``"q"`` each target factor's weights and a ones vector per target
    variable no factor reads. A table is fixed and laid out once, or the
    position of the live block whose softmax it is, or a marginal mirror.
    ``networks`` holds each measure's network, over its tables' axes of
    length above one, with each table's child axis for ``"joint"`` and
    ``"p"`` (None for an indicator), and ``checked`` whether a state has
    checked the whole joint's sum. ``logs`` holds each target factor's log
    on the joint's axes, or what it reads.

    The gradient's structure: ``scopes`` holds each term's axes,
    ``towers`` the coefficient and axes of each ratio p / q~ that the
    normalized-target sources and ln Z seed the target with, ``consumers``
    each target factor whose field a live block consumes, with its
    position, its coefficient of p and what it feeds: a block position, or
    a marginal mirror's axes, its given axes and the axes between. Each
    network's ``wanted`` tables are those whose field a block reads.
    """

    def __init__(self, system: ActualSystem, target: TargetSpec, evidence: Mapping[str, int],
                 space: ParameterSpace, terms: tuple[Term, ...], lnz_coeff: float) -> None:
        self.evidence = evidence
        self.shape = shape = tuple(v.cardinality for v in system.variables)
        self.axis = {v.name: i for i, v in enumerate(system.variables)}
        self.grid = frozenset(a for a, n in enumerate(shape) if n > 1)
        blocks: list[_Block] = []
        # A system child's name, or a target factor's position, to the
        # position of its live block in ``blocks``.
        live: dict[str | int, int] = {}
        for at, b in enumerate(space.blocks):
            factor = system.factors[b.child] if b.side == "p" else target.factors[b.index]
            if b.side == "p" and factor.logits is None:
                continue  # realized into a point mass; no dependence left
            live[b.child if b.side == "p" else b.index] = len(blocks)
            parents = self.axes(factor.parents)
            blocks.append(_Block(
                at, slice(b.offset, b.offset + b.size), b.side,
                parents + (self.axis[factor.child],), parents, b.shape,
                tuple(n for n in b.shape if n > 1),
            ))
        self.blocks = tuple(blocks)
        joint = [
            (self.compact(f.parents + (n,)), live[n] if f.logits is not None
             else self.squeezed(system.factor_conditional(n)))
            for n, f in system.factors.items()
        ]
        joint_ind = joint + [
            ((self.axis[n],), (np.arange(shape[self.axis[n]]) == v) * 1.0)
            for n, v in evidence.items() if self.axis[n] in self.grid
        ]
        children = tuple(self.axis[n] for n in system.factors)
        children = {"joint": children, "p": children + (None,) * (len(joint_ind) - len(joint))}
        self.checked = False  # whether a state has checked the joint's sum
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
                        towers += [(t.coeff * w, self.axes(src.vars + src.given)),
                                   (-t.coeff * w, self.axes(src.given))]
            scopes.append(self.grid.intersection(self.axes(names)))
        if lnz_coeff != 0.0:
            towers.append((lnz_coeff, ()))  # on no axes, p / q~ is 1 / Z
        self.scopes, self.towers = tuple(scopes), tuple(towers)
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
                kept = tuple(sorted(self.grid.intersection(self.axes(names))))
                feeds = (kept, self.axes(f.given), tuple(set(kept) - set(self.axes(f.given))))
                logs.append(f)
                weights.append((kept, f))
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
            if feeds is not None and (c != 0.0 or towers):
                consumers.append((i, c, feeds))  # a zero field is left out
        read = set().union(*(v for v, _ in weights))
        weights += [((a,), np.ones(shape[a])) for a in sorted(self.q_grid - read)]
        weights = weights or [((), np.ones(()))]
        self.logs, self.consumers = tuple(logs), tuple(consumers)
        at = frozenset(t for t, (_, e) in enumerate(joint_ind) if isinstance(e, int))
        wanted = {"joint": at, "p": at, "q": frozenset(i for i, _, _ in consumers)}
        self.tables, self.networks = {}, {}
        for which, tables in (("joint", joint), ("p", joint_ind), ("q", weights)):
            self.tables[which] = tuple(e for _, e in tables)
            self.networks[which] = _network(tuple(v for v, _ in tables), shape,
                                            children.get(which), wanted[which])
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

    @property
    def fixed_target(self) -> bool:
        """Whether no target factor depends on phi: none is parameterized,
        a marginal mirror, or a mirror of a live softmax block."""
        return all(isinstance(e, np.ndarray) for e in self.logs)


class _State:
    """Everything derived from one parameter vector: one softmax per live
    block, each measure's tables and network nodes run, by slot, their
    totals, the marginals taken with the slot each was run into, and the
    cotangents seeded on them."""

    def __init__(self, plan: _Plan, sigmas: tuple[np.ndarray, ...], q_side: _QSide | None) -> None:
        self.plan, self.sigmas = plan, sigmas
        compact = tuple(s.reshape(b.compact) for b, s in zip(plan.blocks, sigmas))
        self.slots = {
            which: {t: e if isinstance(e, np.ndarray) else compact[e]
                    for t, e in enumerate(plan.tables[which])}
            for which in ("joint", "p")
        }
        if not plan.checked:  # the whole joint, which no pruned program reads
            joint = _network(plan.networks["joint"].operands, plan.shape)  # slots of its own
            total = joint.run(dict(self.slots["joint"]), ())[0].item()
            if abs(total - 1.0) > JOINT_SUM_TOL:
                raise ValidationError(
                    f"materialized joint sums to {total!r}; factors are inconsistent"
                )
            plan.checked = True  # its fixed tables hold, and softmax rows sum to one
        self.totals = {"q": 1.0}  # the target's weights are not divided
        self.cache: dict[str, dict] = {"joint": {}, "p": {}}
        self.made: dict[str, dict] = {"joint": {}, "p": {}}
        self.cot: dict[str, dict] = {"joint": {}, "p": {}, "q": {}}  # seeded on marginals
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
        for i, (axes, e) in enumerate(zip(plan.networks["q"].operands, plan.tables["q"])):
            if isinstance(e, MarginalMirror):
                w = np.exp(logs[i], where=np.isfinite(logs[i]), out=np.zeros(logs[i].shape))
                e = w.reshape(tuple(plan.shape[a] for a in axes))
            tables.append(e if isinstance(e, np.ndarray) else compact[e])
        self.q_side = _QSide(dict(enumerate(tables)), logs)
        total = self.q_side.total = self.marginal("q", ()).item()
        if not math.isfinite(total):
            raise ValidationError("target weights must be finite")
        if total <= 0.0:
            raise ValidationError("target weights must have positive total mass")
        return self.q_side

    def _measure(self, which: str, keep: Iterable[int]) -> tuple[str, frozenset, dict, dict]:
        """The measure that stands for ``which``, the axes of ``keep`` it is
        cached on, its cache and how each cached marginal was made."""
        if which == "q":
            return which, self.plan.q_grid.intersection(keep), self.q_side.cache, self.q_side.made
        if which == "joint" and not self.plan.evidence:
            which = "p"  # no evidence: one measure, one cache
        return which, self.plan.grid.intersection(keep), self.cache[which], self.made[which]

    def marginal(self, which: str, keep: Iterable[int]) -> np.ndarray:
        """The marginal on ``keep`` of the actual measure (``"p"``), the
        unobserved joint (``"joint"``) or the target weights (``"q"``,
        unnormalized), on the joint's axes with length one elsewhere, cached.

        A new marginal is summed from the smallest one of the same measure
        already taken that covers ``keep``, and otherwise run by the
        measure's network, which runs only the nodes of its program that no
        earlier marginal ran; ``made`` records the slot it was run into. The
        first marginal a measure runs fixes the total its marginals are
        divided by, and under evidence p's total is checked for mass on
        every evaluation. A program reads no barren table, so the joint's
        sum is checked apart, once per plan, by its first state.
        """
        plan = self.plan
        which, keep, cache, made = self._measure(which, keep)
        m = cache.get(keep)
        if m is None:
            covering = [(kept, m) for kept, m in cache.items() if keep <= kept]
            if covering:
                kept, m = min(covering, key=lambda entry: entry[1].size)
                m = np.add.reduce(m, axis=tuple(sorted(kept - keep)), keepdims=True)
            else:
                slots = self.q_side.slots if which == "q" else self.slots[which]
                m, made[keep] = plan.networks[which].run(slots, tuple(sorted(keep)))
                total = self.totals.get(which)
                if total is None:
                    total = self.totals[which] = float(m.sum())
                    if which == "p" and plan.evidence and total <= 0.0:
                        raise NullEvidenceError(f"evidence {dict(plan.evidence)} has zero mass")
                m = m if which == "q" else m / total
            cache[keep] = m
        return m

    def read(self, which: str, axes: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
        """The marginal on ``axes`` read in their order, in ``shape``."""
        order = _order(axes, len(self.plan.shape))
        return self.marginal(which, axes).transpose(order).reshape(shape)

    def seed(self, which: str, keep: Iterable[int], cot: np.ndarray) -> None:
        """Adds ``cot`` to the cotangent of measure ``which``'s marginal on
        ``keep``, which has been taken."""
        which, keep, _, _ = self._measure(which, keep)
        seeded = self.cot[which]
        seeded[keep] = seeded[keep] + cot if keep in seeded else cot

    def sweep(self, which: str) -> dict[int, np.ndarray]:
        """Each table of measure ``which`` that a block reads, by position,
        times the gradient of the seeded sum(cot * marginal), in reverse
        mode. A marginal is the sum of any cached one that covers it, so a
        cotangent passes, broadcast, to the smallest cover, smaller
        marginals first; one that no other covers was run by the network,
        and seeds the slot it was run into, from which one sweep goes back
        through the network's nodes."""
        which, _, cache, made = self._measure(which, ())
        seeded, self.cot[which] = self.cot[which], {}
        network = self.plan.networks[which]
        at: dict[int, np.ndarray] = {}  # slot -> cotangent; marginals have distinct slots
        while seeded and network.wanted:
            keep = min(seeded, key=len)
            cot = seeded.pop(keep)
            covers = [kept for kept in cache if keep < kept]
            if covers:
                kept = min(covers, key=lambda kept: cache[kept].size)
                seeded[kept] = seeded[kept] + cot if kept in seeded else cot
            elif made[keep] is not None:  # else the marginal is 1 and reads no table
                if cot.shape != cache[keep].shape:
                    cot = np.broadcast_to(cot, cache[keep].shape)
                at[made[keep]] = cot
        if not at:
            return {}
        fields = network.backward(self.q_side.slots if which == "q" else self.slots[which], at)
        return fields if which == "q" else {t: f / self.totals[which] for t, f in fields.items()}

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
    construction. The first evaluation resolves structure into one plan
    and checks that the whole joint sums to one; every evaluation then
    takes one softmax per live block and runs the network nodes of the
    marginals its terms ask for, each over the ancestors of its axes, that
    no earlier marginal of the evaluation ran; the gradient sweeps back
    through them. A target that does not depend on ``phi`` is
    contracted once, and its ln Z, marginals and source values are reused.

    ``value`` keeps its state, with its evaluation and p-field pieces,
    keyed by the exact bytes of the checked float64 ``phi``: a
    ``value_and_gradient`` call at bit-identical ``phi`` right after it
    sweeps back through them. Every other call releases the state first,
    so an engine holds at most one state of scope-sized marginals, network
    nodes and pieces. An engine is not meant for concurrent use.
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
        self._kept: tuple[bytes, _State, Evaluation, list] | None = None

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

    def _evaluate(self, st: _State) -> tuple[Evaluation, list]:
        """The term pass at ``st``: the evaluation, and the p-field's pieces
        c_t (V_t - E_p V_t), each on its term's scope."""
        ones = (1,) * len(self._plan.shape)
        values: dict[str, float] = {}
        divergent = False
        centred = []
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
            centred.append((scope, term.coeff * (v - val)))
        log_partition = math.log(st.q_side.total)
        parts = [term.coeff * values[term.name] for term in self.terms]
        parts.append(self.lnz_coeff * log_partition)
        return Evaluation(math.fsum(parts), values, log_partition, divergent), centred

    def _contract(self, st: _State, centred: list[tuple]) -> tuple[np.ndarray, np.ndarray, float]:
        """The score residual, then every block's gradient and its natural
        direction. ``centred`` holds the terms' (scope, piece) pieces of h,
        seeded on p; the towers seed the target, whose sweep gives its
        factors' fields, and a marginal mirror's field seeds the joint.
        Marginals are summed from the smallest cached cover, so the
        residual's are taken first and the occupancies last, as the
        rounding depends on that order."""
        plan = self._plan
        residual = self._score_residual(st)
        fields = [np.zeros(b.shape) for b in plan.blocks]
        for w, axes in plan.towers if plan.networks["q"].wanted else ():
            st.seed("q", axes, w * _ratio(st.marginal("p", axes), st.marginal("q", axes)))
        from_q = st.sweep("q") if plan.networks["q"].wanted else {}
        for i, c, feeds in plan.consumers:
            if isinstance(feeds, int):
                b = plan.blocks[feeds]
                if c != 0.0:
                    fields[feeds] += c * st.read("p", b.family, b.shape)
                if i in from_q:
                    fields[feeds] += from_q[i].reshape(b.shape)
                continue
            keep, given, between = feeds
            j = st.marginal("joint", keep)
            f = c * st.marginal("p", keep) + (from_q[i].reshape(j.shape) if i in from_q else 0.0)
            fh = np.add.reduce(f, axis=between, keepdims=True)
            st.seed("joint", keep, _ratio(f, j))
            st.seed("joint", given, -_ratio(fh, st.marginal("joint", given)))
        for scope, piece in centred:
            st.seed("p", scope, piece)
        for which in ("joint", "p") if plan.evidence else ("p",):
            for t, f in st.sweep(which).items():
                at = plan.tables[which][t]
                fields[at] += f.reshape(plan.blocks[at].shape)
        grad = np.zeros(self.space.size)
        direction = np.zeros(self.space.size)
        for b, sigma, field in zip(plan.blocks, st.sigmas, fields):
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

        One reverse sweep per measure, through the nodes the term pass ran,
        gives every block's field. Right after a ``value`` call at
        bit-identical ``phi`` it starts from what that call kept, and the
        result is what a fresh state gives."""
        kept, self._kept = self._kept, None
        phi = self._vector(phi)
        if kept is None or phi.shape != (self.space.size,) or phi.tobytes() != kept[0]:
            kept = None  # release the old state before building the new one
            st = self._state(phi)
            kept = (None, st, *self._evaluate(st))
        _, st, evaluation, centred = kept
        return GradientEvaluation(evaluation, *self._contract(st, centred))
