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
variable; and the target q~, its factors' weights on their own scopes. A
state holds each as one ``_Measure``, with the nodes it has run, the
marginals it has taken, its total and the cotangents seeded on it; without
evidence j is p itself. A measure's total is the sum of its first
marginal: j's and p's marginals are divided by theirs, q~'s are not, and
ln Z is the log of q~'s, taken on no axes. Every marginal is run by a
variable-elimination program compiled once per (measure, axes) (Dechter
1999; Koller & Friedman 2009, ch. 9), and a conditional's given side is
summed from the marginal it conditions. The programs of one measure are
interned into one network of einsum calls, a node per set of tables
multiplied and axes kept, so the marginals of one state run each message
they share once (Koller & Friedman 2009, ch. 10): a chain's step marginals
share their prefixes, and cost linear in its length. A program over j or p
reads the ancestor closure of its axes and, in p, of the evidence: every
other conditional is barren (Shachter 1986), and sums to one over its
child. The target's factors are not conditionals, and a program over q~
reads them all.

Every array the engine holds lies on its own axes, those of its variables
of length above one in sorted order, as the network's nodes do; two arrays
line up by a reshape or a transpose fixed from structure. The engine so
shares no materialization step with the reports it is certified against,
which multiply the dense grid, one axis per variable.

A term whose sources span the scope S is evaluated as sum_S' p_S' V on the
largest term scope S' that holds S, each source reshaped onto S', where V
is constant off S, and it is divergent when p_S' > 0 where V is not
finite: p_S'(s) > 0 exactly when some outcome with that s carries mass.

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
piece is seeded as a cotangent on the marginal the value took on G, which
lands on the node that holds it; one sweep per measure then takes every
node's cotangent back, in descending slot order, to every table at once.

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
from dataclasses import dataclass
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
from .tables import JOINT_SUM_TOL, Assignment, _float_array, _safe_log

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
_MAX_OPERANDS = 32  # numpy 1's einsum limit (numpy 2 takes 63); cut pairwise too

_LABELS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"  # einsum's 52


class _Program:
    """One marginal of a network's product of tables, on the sorted axes
    ``out``, compiled once and interned into the network.

    Variables are eliminated greedily: each step takes the variable whose
    tables span the fewest outcomes, multiplies those tables and sums out
    every variable no other table and no output holds, ties going to the
    lowest axis. An index from each variable to the tables that hold it,
    and to what eliminating it spans, is updated for the variables a step
    joins alone, so a step scans no table it does not read. Each step is
    one einsum call, and a step whose result feeds one later step is
    merged into it while the merged call spans at most ``_MERGE_SPACE``
    outcomes, so a small network is one call. Every intermediate lies on a
    subset of the network's variables, so none outgrows the network's
    outcome space.

    The program reads the tables that are not conditionals, such as
    evidence indicators, the conditionals whose child is in ``out``, and,
    in turn, the conditional of each variable a table read holds: every
    other conditional is barren. Each call is interned as the network's
    node for the tables it multiplies and the axes it keeps, which an
    earlier program may have made. ``slots`` lists, in order, every node
    the marginal needs, and ``result`` the slot of the marginal, which lies
    on ``out``: None when no table is left and the marginal is 1.
    """

    __slots__ = ("result", "slots")

    def __init__(self, network: _Network, out: tuple[int, ...]) -> None:
        operands, card, children = network.operands, network.card, network.children

        def span(names: Iterable[int]) -> int:
            return math.prod(card[v] for v in names)

        owner = {c: t for t, c in enumerate(children or ()) if c is not None}
        read = {*range(len(operands))} - {*owner.values()} | {owner[a] for a in out if a in owner}
        front = list(read)
        while front:  # the ancestor closure of what the marginal keeps
            front += (new := {owner[v] for v in operands[front.pop()] if v in owner} - read)
            read |= new
        held = {t: operands[t] for t in sorted(read)}  # live slot -> its variables
        if not held:  # nothing left to read: the marginal is 1
            self.slots, self.result = (), None
            return
        where: dict[int, set[int]] = {}  # variable -> the live slots that hold it
        for t, names in held.items():
            for v in names:
                where.setdefault(v, set()).add(t)

        def cost(u: int) -> tuple[int, int]:  # what eliminating u spans, then u for ties
            return span(set().union(*(held[i] for i in where[u]))), u

        steps, kept = [], set(out)
        costs = {u: cost(u) for u in set(where) - kept}  # the variables left to eliminate
        while costs:
            v = min(costs, key=costs.__getitem__)
            used = where[v]
            joined = set().union(*(held[i] for i in used))
            result = tuple(sorted(u for u in joined if u in kept or where[u] - used))
            slot = len(operands) + len(steps)
            for i in used:
                del held[i]
            held[slot] = result
            steps.append((sorted(used), result))  # live slots ascend, as ``held`` does
            for u in joined:  # only the variables joined change slots, and so cost
                if u in result:
                    where[u] = where[u] - used | {slot}
                    if u in costs:
                        costs[u] = cost(u)
                else:
                    del costs[u]  # summed out
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
            # A wide call, or one of too many operands, multiplies
            # pairwise, the product that spans the fewest outcomes first,
            # summing each variable once no later table holds it.
            while (span(joined) > _MERGE_SPACE or len(inputs) > _MAX_OPERANDS) and len(inputs) > 2:
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
            return np.ones(()), None
        return values[program.result], program.result

    def backward(self, values: dict, seeded: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Each wanted table T times the gradient by T of the sum, over the
        slots ``seeded``, of sum(cot * value), cot in the slot's shape, for
        the run that filled ``values``: all tables times the cotangents,
        summed onto T's variables. One sweep visits the nodes in descending
        slot order."""
        tables = len(self.operands)
        cots, fields = {}, {}
        for s, cot in seeded.items():
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
def _reading(axes: tuple[int, ...], grid: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """The own axes of ``axes`` in ``grid``, and the transposition that
    reads an array on them in the order of ``axes``: their ranks."""
    axes = tuple(a for a in axes if a in grid)
    return tuple(sorted(axes)), tuple(np.argsort(np.argsort(axes)))


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
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0.0)


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
    among the parameter space's blocks, ``family`` its axes in (parents,
    child) order and ``shape`` its softmax's shape."""

    at: int
    coords: slice
    side: str
    family: tuple[int, ...]
    shape: tuple[int, ...]


class _Plan:
    """What every evaluation of one engine shares, resolved from structure
    on its first evaluation.

    ``tables`` holds each measure's tables, from which each state builds
    its ``_Measure``: ``"joint"`` the system's conditionals, ``"p"`` those
    and one indicator per evidence variable, ``"q"`` each target factor's
    weights and a ones vector per target variable no factor reads. A table
    is fixed and laid out once, or the position of the live block whose
    softmax it is, or a marginal mirror. ``networks`` holds each measure's
    network, over its tables' axes of length above one, with each table's
    child axis for ``"joint"`` and ``"p"`` (None for an indicator), and
    ``checked`` whether a state has checked the whole joint's sum. ``logs`` holds each target factor's log
    on its own axes, or what it reads.

    An array over some variables lies on their own axes, those of length
    above one in sorted order (``own``), where a fixed one is put once
    (``sort``). ``scopes`` holds the axes each term is evaluated on (the
    largest term scope that holds its own), and ``parts`` the shape each of
    its sources is reshaped to there. The gradient's structure: ``towers``
    holds the coefficient and axes of each ratio p / q~ that the
    normalized-target sources and ln Z seed the target with, ``consumers``
    each target factor whose field a live block consumes, with its
    position, its coefficient of p and what it feeds: a block position, or
    a marginal mirror's axes, its given axes and the positions of the
    others. Each network's ``wanted`` tables are those whose field a block
    reads.
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
            blocks.append(_Block(at, slice(b.offset, b.offset + b.size), b.side,
                                 self.axes(factor.parents + (factor.child,)), b.shape))
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
        self.payoffs = {}
        sources: list[list[tuple[int, ...]]] = [[] for _ in terms]  # each term's sources' axes
        for t, axes in zip(terms, sources):
            for w, src in t.parts:
                if isinstance(src, TargetFactorLog):
                    c_factor[src.index] = c_factor.get(src.index, 0.0) + t.coeff * w
                    names = target_factor_scope(target.factors[src.index], system)
                elif isinstance(src, Payoff):
                    names = src.vars
                    self.payoffs[src] = self.sort(names, src.values)
                else:  # ln 1 for no vars, on no axes
                    names = src.vars + src.given if src.vars else ()
                    if isinstance(src, TargetLog) and src.vars:
                        towers += [(t.coeff * w, self.own(names)),
                                   (-t.coeff * w, self.own(src.given))]
                axes.append(self.own(names))
        if lnz_coeff != 0.0:
            towers.append((lnz_coeff, ()))  # on no axes, p / q~ is 1 / Z
        # A term is evaluated on the largest term scope that holds its own,
        # so that nested terms read one marginal of p.
        scopes = [frozenset().union(*axes) for axes in sources]
        self.scopes = tuple(tuple(sorted(max((s for s in scopes if scope <= s),
                                             key=lambda s: math.prod(shape[a] for a in s))))
                            for scope in scopes)
        self.parts = tuple(tuple(tuple(shape[a] if a in axes else 1 for a in scope)
                                 for axes in term) for scope, term in zip(self.scopes, sources))
        self.towers = tuple(towers)
        logs: list = []
        weights: list[tuple[tuple[int, ...], np.ndarray | int | MarginalMirror]] = []
        consumers = []
        for i, f in enumerate(target.factors):
            names = target_factor_scope(f, system)
            # A factor mirror feeds its child's live block, a parameterized
            # factor its own, and a marginal mirror the system blocks.
            if isinstance(f, MarginalMirror):
                kept, given = self.own(names), self.own(f.given)
                feeds = (kept, given, tuple(k for k, a in enumerate(kept) if a not in given))
                logs.append(f)
                weights.append((kept, f))
            elif (feeds := live.get(f.child if isinstance(f, FactorMirror) else i)) is not None:
                logs.append((feeds, names))
                weights.append((self.compact(names), feeds))
            elif isinstance(f, RewardFactor):
                logs.append(self.sort(names, f.values))
                with np.errstate(over="ignore"):  # an inf weight fails the total's check
                    weights.append((self.compact(names), self.squeezed(np.exp(f.values))))
            else:
                mirror = isinstance(f, FactorMirror)
                table = system.factor_conditional(f.child) if mirror else f.table
                logs.append(self.sort(names, _safe_log(table)))
                weights.append((self.compact(names), self.squeezed(table)))
            c = c_factor.get(i, 0.0)
            if feeds is not None and (c != 0.0 or towers):
                consumers.append((i, c, feeds))  # a zero field is left out
        read = set().union(*(v for v, _ in weights))
        # ``system.variable`` rejects a target variable the system lacks.
        scope = self.own(tuple(system.variable(n).name for n in target.scope))
        weights += [((a,), np.ones(shape[a])) for a in scope if a not in read]
        weights = weights or [((), np.ones(()))]
        self.logs, self.consumers = tuple(logs), tuple(consumers)
        at = frozenset(t for t, (_, e) in enumerate(joint_ind) if isinstance(e, int))
        wanted = {"joint": at, "p": at, "q": frozenset(i for i, _, _ in consumers)}
        self.tables, self.networks = {}, {}
        for which, tables in (("joint", joint), ("p", joint_ind), ("q", weights)):
            self.tables[which] = tuple(e for _, e in tables)
            self.networks[which] = _network(tuple(v for v, _ in tables), shape,
                                            children.get(which), wanted[which])

    def axes(self, names: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(self.axis[x] for x in names)

    def compact(self, names: tuple[str, ...]) -> tuple[int, ...]:
        """The axes of ``names`` of length above one, in that order."""
        return tuple(a for a in self.axes(names) if a in self.grid)

    def own(self, names: tuple[str, ...]) -> tuple[int, ...]:
        """The own axes of ``names``: those of length above one, sorted."""
        return tuple(sorted(set(self.compact(names))))

    def sort(self, names: tuple[str, ...], arr: np.ndarray) -> np.ndarray:
        """``arr``, indexed by ``names`` in that order, on their own axes."""
        return self.squeezed(arr).transpose(np.argsort(self.compact(names)))

    @staticmethod
    def squeezed(table: np.ndarray) -> np.ndarray:
        return table.reshape(tuple(n for n in table.shape if n > 1))

    @property
    def fixed_target(self) -> bool:
        """Whether no target factor depends on phi: none is parameterized,
        a marginal mirror, or a mirror of a live softmax block."""
        return all(isinstance(e, np.ndarray) for e in self.logs)


class _Measure:
    """One measure of one state, a product of tables: the actual measure
    p, the unobserved joint or the target weights q~.

    ``tables`` holds each table as the plan gives it (a fixed array, the
    position of the live block whose softmax it is, or a marginal mirror),
    ``values`` the array of each table and of each node run so far, by
    slot, ``made`` each marginal taken, by its own axes, with the slot it
    was run into, ``logs`` each log-conditional read from it, by its
    (vars, given), and ``cot`` the cotangents seeded on its marginals.

    The first marginal taken fixes ``total``, its sum. A ``normalized``
    measure divides its marginals and fields by it; the target's weights
    are not divided, and their total is Z, from their first marginal, on
    no axes. A measure under ``evidence`` checks its total for mass.
    """

    __slots__ = ("cot", "evidence", "logs", "made", "network", "normalized", "tables", "total",
                 "values")

    def __init__(self, network: _Network, tables: tuple, arrays: list[np.ndarray],
                 normalized: bool = True, evidence: Mapping[str, int] | None = None) -> None:
        self.network, self.tables, self.values = network, tables, dict(enumerate(arrays))
        self.normalized, self.evidence = normalized, evidence
        self.made, self.logs, self.cot, self.total = {}, {}, {}, None

    def marginal(self, keep: tuple[int, ...]) -> np.ndarray:
        """The marginal on the own axes ``keep``, on those axes, cached. A
        new one is run by the network, which runs only the nodes of its
        program that no earlier marginal ran."""
        made = self.made.get(keep)
        if made is None:
            m, slot = self.network.run(self.values, keep)
            if self.total is None:
                self.total = float(m.sum())
                if self.evidence and self.total <= 0.0:
                    raise NullEvidenceError(f"evidence {dict(self.evidence)} has zero mass")
            made = self.made[keep] = (m / self.total if self.normalized else m, slot)
        return made[0]

    def seed(self, keep: tuple[int, ...], cot: np.ndarray) -> None:
        """Adds ``cot`` to the cotangent of the marginal on the own axes
        ``keep``, which has been taken, in its shape."""
        self.cot[keep] = self.cot[keep] + cot if keep in self.cot else cot

    def sweep(self) -> dict[int, np.ndarray]:
        """Each table that a block reads, by position, times the gradient of
        the seeded sum(cot * marginal), in reverse mode; the seeds are used
        up. Each marginal seeds the slot it was run into, from which one
        sweep goes back through the network's nodes; one on no slot is 1
        and reads no table."""
        seeded, self.cot = self.cot, {}
        at = {slot: cot for keep, cot in seeded.items() if (slot := self.made[keep][1]) is not None}
        if not at or not self.network.wanted:
            return {}
        fields = self.network.backward(self.values, at)
        return {t: f / self.total for t, f in fields.items()} if self.normalized else fields


class _State:
    """Everything derived from one parameter vector: one softmax per live
    block and three measures. ``p`` is the actual measure, ``joint`` the
    unobserved joint, which is ``p`` itself without evidence, and ``q`` the
    target weights, which every state of an engine whose target does not
    depend on phi shares."""

    def __init__(self, plan: _Plan, sigmas: tuple[np.ndarray, ...], q: _Measure | None) -> None:
        self.plan, self.sigmas = plan, sigmas
        compact = tuple(map(plan.squeezed, sigmas))
        self.p = self._build("p", compact, evidence=plan.evidence)
        self.joint = self._build("joint", compact) if plan.evidence else self.p
        if not plan.checked:  # the whole joint, which no pruned program reads
            joint = _network(plan.networks["joint"].operands, plan.shape)  # slots of its own
            total = joint.run(dict(self.joint.values), ())[0].item()
            if abs(total - 1.0) > JOINT_SUM_TOL:
                raise ValidationError(
                    f"materialized joint sums to {total!r}; factors are inconsistent"
                )
            plan.checked = True  # its fixed tables hold, and softmax rows sum to one
        self.q = q or self._target(compact)

    def _build(self, which: str, compact: tuple[np.ndarray, ...], normalized: bool = True,
               evidence: Mapping[str, int] | None = None) -> _Measure:
        """The plan's measure ``which`` at this state: a live block's table
        is its softmax, and a marginal mirror's the exp of its log."""
        arrays = []
        for e in self.plan.tables[which]:
            if isinstance(e, MarginalMirror):
                log = self.log_conditional(self.joint, e.vars, e.given)
                e = np.exp(log, where=np.isfinite(log), out=np.zeros(log.shape))
            arrays.append(e if isinstance(e, np.ndarray) else compact[e])
        return _Measure(self.plan.networks[which], self.plan.tables[which], arrays, normalized,
                        evidence)

    def _target(self, compact: tuple[np.ndarray, ...]) -> _Measure:
        """The target's measure at this state, with its total Z checked."""
        q = self._build("q", compact, normalized=False)
        q.marginal(())
        if not math.isfinite(q.total):
            raise ValidationError("target weights must be finite")
        if q.total <= 0.0:
            raise ValidationError("target weights must have positive total mass")
        return q

    def read(self, m: _Measure, axes: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
        """The marginal of ``m`` on ``axes`` read in their order, in ``shape``."""
        keep, ranks = _reading(axes, self.plan.grid)
        return m.marginal(keep).transpose(ranks).reshape(shape)

    def log_conditional(self, m: _Measure, vars: tuple, given: tuple) -> np.ndarray:
        """ln m(vars | given) on the own axes of vars + given, from the
        marginal there, summed over vars for the given side, cached; -inf
        where that marginal is 0, and ln 1 on no axes for no ``vars``."""
        if not vars:
            return np.zeros(())
        out = m.logs.get((vars, given))
        if out is None:
            plan = self.plan
            marginal = m.marginal(keep := plan.own(vars + given))
            out = _safe_log(marginal / marginal.sum())
            if given:
                given_axes = plan.own(given)
                summed = tuple(k for k, a in enumerate(keep) if a not in given_axes)
                h = np.add.reduce(marginal, axis=summed, keepdims=True)
                with np.errstate(invalid="ignore"):
                    out = out - _safe_log(h / h.sum())
            m.logs[vars, given] = out
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
    through them. A target that does not depend on ``phi`` is built into
    one measure once, and its ln Z, marginals and logs are reused.

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
        self._fixed_q: _Measure | None = None
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
        st = _State(plan, tuple(softmax(logits[b.at]) for b in plan.blocks), self._fixed_q)
        if plan.fixed_target:
            self._fixed_q = st.q
        return st

    # -- per-source arrays --------------------------------------------------

    def _source_values(self, src: LogSource, st: _State) -> np.ndarray:
        """A source's values on its own axes: those of its variables of
        length above one, sorted; none for a log-conditional of no vars."""
        if isinstance(src, Payoff):
            return self._plan.payoffs[src]
        if isinstance(src, ActualLog):
            return st.log_conditional(st.p, src.vars, src.given)
        if isinstance(src, TargetLog):
            return st.log_conditional(st.q, src.vars, src.given)
        e = self._plan.logs[src.index]
        if isinstance(e, MarginalMirror):
            return st.log_conditional(st.joint, e.vars, e.given)
        return e if isinstance(e, np.ndarray) else self._plan.sort(e[1], _safe_log(st.sigmas[e[0]]))

    # -- evaluation ---------------------------------------------------------

    def _evaluate(self, st: _State) -> tuple[Evaluation, list]:
        """The term pass at ``st``: the evaluation, and the p-field's pieces
        c_t (V_t - E_p V_t), each on its term's scope."""
        plan = self._plan
        values: dict[str, float] = {}
        divergent = False
        centred = []
        for term, scope, shapes in zip(self.terms, plan.scopes, plan.parts):
            # Opposite infinities from stacked log sources cancel into nans
            # off the support; the finite mask below discards them.
            with np.errstate(invalid="ignore"):
                weighted = [w * self._source_values(src, st).reshape(shape)
                            for (w, src), shape in zip(term.parts, shapes)]
                v = sum(weighted[1:], weighted[0]) if weighted else np.zeros(())
            # p on the scope S the term is evaluated on: p_S(s) > 0 exactly
            # when some outcome with that s carries mass, so this is the
            # outcome-level test.
            ps = st.p.marginal(scope)
            if v.shape != ps.shape:  # constant on the axes of a wider scope
                v = np.broadcast_to(v, ps.shape)
            ok = np.isfinite(v)
            if not ok.all():
                divergent = divergent or bool(np.any((ps > 0.0) & ~ok))
                ps, v = np.where(ok, ps, 0.0), np.where(ok, v, 0.0)
            val = float(np.vdot(ps, v))
            values[term.name] = val
            centred.append((scope, term.coeff * (v - val)))
        log_partition = math.log(st.q.total)
        parts = [term.coeff * values[term.name] for term in self.terms]
        parts.append(self.lnz_coeff * log_partition)
        return Evaluation(math.fsum(parts), values, log_partition, divergent), centred

    def _contract(self, st: _State, centred: list[tuple]) -> tuple[np.ndarray, np.ndarray, float]:
        """The score residual, then every block's gradient and its natural
        direction. ``centred`` holds the terms' (scope, piece) pieces of h,
        seeded on p; the towers seed the target, whose sweep gives its
        factors' fields, and a marginal mirror's field seeds the joint. A
        block's occupancy is its family's marginal summed over the child."""
        plan = self._plan
        residual = self._score_residual(st)
        fields = [np.zeros(b.shape) for b in plan.blocks]
        for w, axes in plan.towers if st.q.network.wanted else ():
            st.q.seed(axes, w * _ratio(st.p.marginal(axes), st.q.marginal(axes)))
        from_q = st.q.sweep()
        for i, c, feeds in plan.consumers:
            if isinstance(feeds, int):
                b = plan.blocks[feeds]
                if c != 0.0:
                    fields[feeds] += c * st.read(st.p, b.family, b.shape)
                if i in from_q:
                    fields[feeds] += from_q[i].reshape(b.shape)
                continue
            keep, given, between = feeds
            f = c * st.p.marginal(keep) + from_q.get(i, 0.0)
            fh = np.add.reduce(f, axis=between)
            st.joint.seed(keep, _ratio(f, st.joint.marginal(keep)))
            st.joint.seed(given, -_ratio(fh, st.joint.marginal(given)))
        for scope, piece in centred:
            st.p.seed(scope, piece)
        for m in (st.joint, st.p) if plan.evidence else (st.p,):
            for t, f in m.sweep().items():
                at = m.tables[t]
                fields[at] += f.reshape(plan.blocks[at].shape)
        grad = np.zeros(self.space.size)
        direction = np.zeros(self.space.size)
        for b, sigma, field in zip(plan.blocks, st.sigmas, fields):
            g = (field - sigma * np.add.reduce(field, axis=-1, keepdims=True)).ravel()
            grad[b.coords] = g
            occupancy = np.add.reduce(st.read(st.p, b.family, b.shape), axis=-1)
            direction[b.coords] = _natural_direction(g, sigma, occupancy)
        return grad, direction, residual

    def _score_residual(self, st: _State) -> float:
        """The max-abs entry, over the live system blocks, of the unobserved
        joint contracted against each block's scores: j(parents, child) -
        sigma j(parents), exactly zero in theory."""
        residual = 0.0
        for b, sigma in zip(self._plan.blocks, st.sigmas):
            if b.side == "p":
                joint = st.read(st.joint, b.family, b.shape)
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
