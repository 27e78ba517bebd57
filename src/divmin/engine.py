"""Exact values and gradients for objectives over materialized tables.

Every functional handled here is an expectation under the actual joint of a
signed sum of log-quantities, plus an optional multiple of the target's log
normalizer:

    F(phi) = sum_k c_k E_p[ V_k(omega) ] + c_Z ln Z(phi)

where each integrand V_k is built from four kinds of sources: conditional
log-marginals of the actual distribution, conditional log-marginals of the
normalized target, the log of one target factor, and fixed payoff arrays.
The raw unnormalized target log-weight is the sum of its factors' logs,
ln q~ = sum_i ln f_i, so a functional reads it as one factor log per
factor. Differentiation goes through both the measure and the integrand,

    dF = sum_k c_k ( E_p[ s_p (V_k - E_p V_k) ] + E_p[ dV_k ] ) + c_Z E_q[ s_q ],

with s_p(omega) the gradient of ln p(omega) and s_q(omega) the gradient of
ln q~(omega). Centring V_k is exact under evidence, where conditioning
shifts ln p by a constant, and adds zero in theory without it. A conditional
log-marginal differentiates into a difference of conditional score
expectations under the matching measure,

    d ln m(G | H)(omega) = E[ s | G, H ](omega) - E[ s | H ](omega).

Every source depends on a few variables only: its scope. The engine keeps
each source scope-sized, on the joint's axes with length one elsewhere,
and derives the conditional log-marginals of p and of the normalized
target itself, from their marginals, rather than through the report
code it is certified against. A term whose sources span the scope S is
evaluated on p_S, the actual measure's marginal on S: its value is
sum_S p_S V, and it is divergent when p_S > 0 where V is not finite,
which is the outcome-level test because p_S(s) > 0 exactly when some
outcome with that s carries mass. A term over the whole grid uses p
itself. Each marginal is summed from the smallest marginal of the same
measure already taken that covers its scope, so nested scopes such as x_t
inside (x_t, a_t) cost one pass over the grid between them.

Every piece of the gradient is a weight field over outcomes contracted
against scores, and the fields are assembled from scope-local parts:

* the measure part is a single p-field, p h with h = sum_k c_k (V_k -
  E_p V_k) summed by broadcasting, contracted against s_p;
* one target factor's log contributes c p to that factor's field alone,
  so only its scalar coefficient is summed;
* ln q(G | H) contributes c q (p(A)/q(A) - p(H)/q(H)), with A = G + H,
  by the tower property E_p[ E_q[s | A] ] = E_q[ (p(A)/q(A)) s ], and
  ln Z contributes c_Z q / Z. Both are q r for one scope-local r. Here q
  is the target weights broadcast over the k system outcomes that share
  each target outcome, so every q-marginal, Z included, counts k copies;
* ln p(G | H) adds nothing, since E_p[ E_p[s | A] ] - E_p[ E_p[s | H] ] = 0.

A target factor's field, c p + q r, goes to the block its score lives
in: a parameterized factor's own block, a factor mirror's child block on
the system side, and, for a marginal mirror j(G | H) of the joint j, the
p-field gains j (F(A)/j(A) - F(H)/j(H)) by the same tower property. Each
outcome-sized field is built once, and only when a live block consumes
it; where no target factor has one, no target field is built at all.

For a softmax factor the score of logit (parents', c') is 1[parents =
parents'] (1[child = c'] - sigma_c'), so a field contracts against a block
as its marginal on (parents, child) minus sigma times its marginal on the
parents: one pass over the grid per block and memory linear in the number
of outcomes. Everything is evaluated on the dense outcome grid, so gradients
are exact up to floating point; no sampling or automatic differentiation is
involved. The same contraction applied to the unobserved joint is zero in
theory, p(pa, c) = sigma p(pa), and its largest entry over the system
blocks is returned as a residual so callers can assert that the
contraction stayed honest.

Alongside the gradient the engine returns the natural direction: each
block's gradient preconditioned by that block's Fisher information,
occupancy(pa) (diag(sigma) - sigma sigma^T) on every parent slice. Its
pseudo-inverse applied to a slice's gradient, which sums to zero over
the child, is the gradient divided by occupancy * sigma and centred
over the child axis. Every block, on either side, takes its occupancy
from one rule: the actual measure's marginal on its parents, evidence
included, since that is the measure the functional weighs it by. The
unobserved joint is read only for the score residual. Slices whose
occupancy lies below a floor get a zero direction, since dividing by a
vanishing Fisher scale would only blow up rounding. Then g . d = sum g^2
/ (occupancy sigma) >= 0, so the direction descends wherever it is
nonzero.

A line search asks for the gradient at the point it accepts right after
the value there, so a value call keeps its state for a gradient call
that comes next at the bit-identical parameter vector. Any other call
releases it first: an engine holds at most one state, and none after a
gradient call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .decomp import _evidence_mask, _observed, realize
from .errors import ValidationError
from .systems import (
    ActualSystem,
    FactorMirror,
    MarginalMirror,
    ParameterSpace,
    TargetSpec,
    _check_target_factor,
    _frozen,
    _grow,
    _joint_product,
    _target_table,
    softmax,
    target_factor_log_array,
    target_factor_scope,
)
from .tables import Assignment, Table, UnnormalizedTable, _Layout, _safe_log

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
# Weight fields and their contraction

# Parent slices reached with less probability than this get no natural
# step: their Fisher scale occupancy * sigma vanishes, and dividing by it
# would only blow up rounding. Any floor from 1e-300 to 1e-6 gives the
# same descent on every preset; a zero floor divides by zero.
_OCCUPANCY_FLOOR = 1.0e-12


def _marginal_on(arr: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """``arr`` summed over every axis outside ``keep``, keeping its axes;
    ``arr`` itself when no axis of length above one lies outside."""
    drop = tuple(i for i, n in enumerate(arr.shape) if n > 1 and i not in keep)
    return arr.sum(axis=drop, keepdims=True) if drop else arr


def _on_axes(marginal: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """A keepdims marginal on ``axes`` with just those axes, in that order."""
    kept = sorted(axes)
    return marginal.reshape([marginal.shape[a] for a in kept]).transpose(
        [kept.index(a) for a in axes]
    )


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, zero where den is.

    Between marginals on the same axes A this is the tower weight
    w(A) / m(A): sum w * E_m[s | A] equals sum m * (w(A) / m(A)) * s for any
    per-outcome s.
    """
    return np.divide(
        num, den, out=np.zeros(np.broadcast_shapes(num.shape, den.shape)), where=den > 0.0
    )


def _block_grad(
    weights: np.ndarray,
    conditional: np.ndarray,
    parent_axes: tuple[int, ...],
    child_axis: int,
) -> np.ndarray:
    """A weight field contracted against one softmax block's scores, flattened.

    The score of logit (parents', c') is 1[parents = parents'] (1[child =
    c'] - sigma[parents', c']), so the contraction is the field's marginal
    on (parents, child) minus sigma times its marginal on the parents.
    """
    axes = parent_axes + (child_axis,)
    marginal = _on_axes(_marginal_on(weights, axes), axes)
    return (marginal - conditional * marginal.sum(axis=-1, keepdims=True)).ravel()


def _natural_direction(
    grad: np.ndarray, sigma: np.ndarray, occupancy: np.ndarray
) -> np.ndarray:
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
    return (scaled - scaled.mean(axis=-1, keepdims=True)).ravel()


# ---------------------------------------------------------------------------
# The evaluation plan and the state of one evaluation


@dataclass(frozen=True)
class _Block:
    """One live softmax block: a system factor the realization left
    parameterized, or a parameterized target factor. ``at`` is its
    position among the parameter space's blocks."""

    at: int
    coords: slice
    side: str
    parent_axes: tuple[int, ...]
    child_axis: int


# A factor's table on some scope's axes: fixed, or the softmax (or its log)
# of the live block at that position, laid out.
_Placed = np.ndarray | tuple[int, _Layout]


def _place(entry: _Placed, tables: tuple[np.ndarray, ...]) -> np.ndarray:
    return entry if isinstance(entry, np.ndarray) else entry[1].place(tables[entry[0]])


@dataclass(frozen=True)
class _QSide:
    """The materialized target, its weights on the joint's axes, each
    target factor's log on the target's axes, and a cache of what is
    derived from the target alone: its marginals and the values of the
    target-side sources. An engine whose target does not depend on phi
    builds one and shares it between all its states."""

    q: UnnormalizedTable
    lift: np.ndarray
    logs: tuple[np.ndarray, ...]
    cache: dict = field(default_factory=dict)


class _Plan:
    """What every evaluation of one engine shares, resolved from structure
    on its first evaluation.

    ``blocks`` are the live softmax blocks. ``conditionals`` holds each
    system factor's conditional on the joint's axes, in the joint's
    multiplication order: fixed and point-mass tables laid out once,
    softmax factors as their block's position and layout. ``logs`` does
    the same for each target factor's log on the target's axes, with a
    marginal mirror kept as itself, since it reads the joint of each
    evaluation; only the factors that do not depend on phi have their
    logs taken here. ``keep`` is the evidence mask, or None without
    evidence, ``lift`` the layout of the target's axes on the joint's,
    and ``payoffs`` each payoff source on the joint's axes. The tables
    are materialized by the steps the reports use: ``_joint_product``,
    ``decomp._observed`` and ``_target_table``.

    The gradient's structure is resolved here too, from the terms alone:
    ``towers`` holds each normalized-target source's coefficient with the
    axes of its two ratios, ``ratio`` whether some tower or ln Z adds a
    q r part to a consumed field, ``copies`` how many system outcomes share each target
    outcome, ``system_blocks`` whether a live system block needs the
    p-field, and ``consumers`` each target factor whose field a live block
    consumes, with its coefficient of p and the block position, or the
    axes of a marginal mirror's tower into the p-field, that it feeds.
    """

    def __init__(
        self,
        system: ActualSystem,
        target: TargetSpec,
        evidence: Mapping[str, int],
        space: ParameterSpace,
        terms: tuple[Term, ...],
        lnz_coeff: float,
    ) -> None:
        self.system, self.target, self.evidence = system, target, evidence
        self.scope = scope = system.variables
        self.shape = tuple(v.cardinality for v in scope)
        self.axis = {v.name: i for i, v in enumerate(scope)}
        blocks: list[_Block] = []
        # A system child's name, or a target factor's position, to the
        # position of its live block in ``blocks``.
        live: dict[str | int, int] = {}
        for at, b in enumerate(space.blocks):
            if b.side == "p":
                factor = system.factors[b.child]
                if factor.logits is None:
                    continue  # realized into a point mass; no dependence left
                live[b.child] = len(blocks)
            else:
                factor = target.factors[b.index]
                live[b.index] = len(blocks)
            blocks.append(_Block(
                at, slice(b.offset, b.offset + b.size), b.side,
                self.axes(factor.parents), self.axis[factor.child],
            ))
        self.blocks = tuple(blocks)
        self.conditionals = tuple(
            (live[name], _Layout(f.parents + (name,), scope))
            if f.logits is not None
            else _Layout(f.parents + (name,), scope).place(system.factor_conditional(name))
            for name, f in system.factors.items()
        )
        self.keep = _evidence_mask(scope, evidence) if evidence else None
        # The gradient's structure. Payoffs carry no gradient, and an
        # ActualLog adds none in expectation: E_p[ E_p[s | G, H] - E_p[s | H] ]
        # = 0. A target factor's log adds its coefficient to that factor's
        # field, and a normalized-target source adds a tower to the ratio.
        c_factor: dict[int, float] = {}
        towers: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = []
        for t in terms:
            for w, src in t.parts:
                c = t.coeff * w
                if isinstance(src, TargetFactorLog):
                    c_factor[src.index] = c_factor.get(src.index, 0.0) + c
                elif isinstance(src, TargetLog) and src.vars:
                    towers.append((c, self.axes(src.vars + src.given), self.axes(src.given)))
        self.towers = tuple(towers)
        ratio = bool(towers) or lnz_coeff != 0.0
        self.system_blocks = any(b.side == "p" for b in blocks)
        self.target_scope = tuple(map(system.variable, target.scope))
        self.copies = math.prod(self.shape) / math.prod(v.cardinality for v in self.target_scope)
        logs: list[_Placed | MarginalMirror] = []
        consumers: list[tuple[float, int | tuple[tuple[int, ...], tuple[int, ...]]]] = []
        for i, f in enumerate(target.factors):
            # What the factor's field c p + q r feeds: a live block's
            # position, or a marginal mirror's tower into the p-field.
            feeds = None
            if isinstance(f, MarginalMirror):
                logs.append(f)
                if self.system_blocks:
                    feeds = (self.axes(f.given + f.vars), self.axes(f.given))
            else:
                # A factor mirror feeds its child's live block, and a
                # parameterized factor the block at its own position.
                feeds = live.get(f.child if isinstance(f, FactorMirror) else i)
                logs.append(
                    target_factor_log_array(f, target, system) if feeds is None
                    else (feeds, _Layout(target_factor_scope(f, system), self.target_scope))
                )
            c = c_factor.get(i, 0.0)
            if feeds is not None and (c != 0.0 or ratio):
                consumers.append((c, feeds))  # a zero field is left out
        self.logs = tuple(logs)
        self.consumers = tuple(consumers)
        self.ratio = ratio and bool(consumers)
        self.lift = _Layout(target.scope, scope)
        self.payoffs = {
            src: _Layout(src.vars, scope).place(src.values)
            for t in terms
            for _, src in t.parts
            if isinstance(src, Payoff)
        }

    def axes(self, names: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(self.axis[x] for x in names)

    @property
    def fixed_target(self) -> bool:
        """Whether no target factor depends on phi: none is parameterized,
        a marginal mirror, or a mirror of a live softmax block."""
        return all(isinstance(e, np.ndarray) for e in self.logs)

    def joint(self, sigmas: tuple[np.ndarray, ...]) -> Table:
        """The laid-out conditionals multiplied into the joint by
        ``systems._joint_product``."""
        return _joint_product(self.scope, (_place(e, sigmas) for e in self.conditionals))

    def observe(self, joint: Table) -> Table:
        """The joint conditioned on the evidence, on its full scope, by
        ``decomp._observed``."""
        return joint if self.keep is None else _observed(joint, self.keep, self.evidence)

    def target_side(self, sigmas: tuple[np.ndarray, ...], joint: Table) -> _QSide:
        """The target's factor logs summed into its weights by
        ``systems._target_table``, with their lift."""
        logs = tuple(
            target_factor_log_array(e, self.target, self.system, joint)
            if isinstance(e, MarginalMirror)
            else e if isinstance(e, np.ndarray)
            else e[1].place(_safe_log(sigmas[e[0]]))
            for e in self.logs
        )
        q = _target_table(self.target_scope, logs)
        return _QSide(q, self.lift.place(q.weights), logs)


@dataclass
class _State:
    """Everything derived from one parameter vector: one softmax per live
    block, the joint, the actual measure and the target side."""

    sigmas: tuple[np.ndarray, ...]
    joint: Table
    p: Table
    q_side: _QSide
    cache: dict = field(default_factory=dict)

    @property
    def q(self) -> UnnormalizedTable:
        return self.q_side.q

    @property
    def q_lift(self) -> np.ndarray:
        return self.q_side.lift

    def marginal(self, which: str, keep: tuple[int, ...]) -> np.ndarray:
        """The keepdims marginal on ``keep`` of the actual measure (``"p"``),
        the unobserved joint (``"joint"``) or the target weights on the
        joint's axes (``"q"``), cached.

        A new marginal is summed from the smallest one of the same measure
        already taken that covers ``keep``, and from the grid itself only
        when none does.
        """
        if which == "joint" and self.p is self.joint:
            which = "p"  # no evidence: one measure, one cache entry
        arr = self.q_lift if which == "q" else self.p.probs if which == "p" else self.joint.probs
        keep = frozenset(a for a in keep if arr.shape[a] > 1)
        taken = (self.q_side.cache if which == "q" else self.cache).setdefault(which, {})
        if keep not in taken:
            covering = (m for kept, m in taken.items() if keep <= kept)
            taken[keep] = _marginal_on(min(covering, key=np.size, default=arr), keep)
        return taken[keep]


class Engine:
    """Evaluates one functional and its exact gradient at parameter points.

    The engine is bound to a (system, target) pair, a term list, and a
    realization; parameter vectors index every parameterized factor on both
    sides through a :class:`ParameterSpace`. Term values always match what
    the corresponding report definitions give, so optimization and
    certification never drift apart.

    The realization is applied once, at construction. The first evaluation
    resolves everything that depends on structure alone into one plan: each
    factor's layout on the joint's (or the target's) axes, the fixed and
    point-mass conditionals and the fixed target-factor logs already laid
    out, the evidence mask, each live softmax block's coordinates and
    axes, and which fields the gradient builds for which blocks. Every
    evaluation then checks ``phi`` (``phi=None`` means the
    current parameters) once, takes one softmax per live block, which the
    joint, the target's factor logs, the target-factor sources and the
    gradient all share, and materializes its tables through the steps
    ``build_joint``, ``decomp.observe`` and ``build_target`` use. No
    factor is rebuilt per evaluation. Every target factor's shape is
    checked at construction, so a malformed one fails before the first
    evaluation.

    ``value`` keeps the state it built, keyed by the exact bytes of the
    checked float64 ``phi``, and the next call always empties that slot.
    Only ``value_and_gradient`` at bit-identical ``phi`` assembles from the
    kept state; every other call releases it before building a fresh one.
    The engine therefore holds at most one state, and none after a
    gradient call, so peak memory is that of one evaluation. The gradient
    is the same either way: a fresh ``value_and_gradient`` runs the value
    pass first, which caches exactly what the kept state holds. An engine
    is not meant for concurrent use from several threads.

    The plan also decides whether the target depends on ``phi``: it does
    when some factor is parameterized, a marginal mirror of the joint, or a
    mirror of a softmax factor of the realized system. A target that does
    not, such as the dynamics, action prior and exp(reward) of a control
    problem, is materialized by the first evaluation, and every later one
    reuses it together with its weights on the joint's axes, its marginals
    and the values of the target-side sources. Nothing is built at
    construction, so an engine that is never evaluated costs nothing.
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
        # The last ``value`` call's state, keyed by the bytes of its phi;
        # emptied by the next evaluation.
        self._kept: tuple[bytes, _State] | None = None

    # -- construction checks ---------------------------------------------

    def _validate_terms(self) -> None:
        seen: set[str] = set()
        in_system = set(self.system.names)
        in_target = set(self.target.scope)
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
                    if not missing:
                        want = tuple(
                            self.system.variable(n).cardinality for n in src.vars
                        )
                        if src.values.shape != want:
                            raise ValidationError(
                                f"payoff over {src.vars} has shape "
                                f"{src.values.shape}, expected {want}"
                            )
                elif isinstance(src, TargetFactorLog):
                    missing = set()
                    if not 0 <= src.index < len(self.target.factors):
                        raise ValidationError(
                            f"term {t.name!r} references target factor "
                            f"{src.index}, but the target has "
                            f"{len(self.target.factors)} factors"
                        )
                else:
                    raise ValidationError(
                        f"unknown source type {type(src).__name__}"
                    )
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
            self._plan = _Plan(
                self._realized_system,
                self.target,
                self.evidence,
                self.space,
                self.terms,
                self.lnz_coeff,
            )
        plan = self._plan
        sigmas = tuple(softmax(logits[b.at]) for b in plan.blocks)
        joint = plan.joint(sigmas)
        q_side = self._fixed_q_side
        if q_side is None:
            q_side = plan.target_side(sigmas, joint)
            if plan.fixed_target:
                self._fixed_q_side = q_side
        return _State(sigmas=sigmas, joint=joint, p=plan.observe(joint), q_side=q_side)

    # -- per-source arrays --------------------------------------------------

    def _source_values(self, src: LogSource, st: _State) -> np.ndarray:
        """A source's values on the joint's axes, with length one on every
        axis outside the source's own scope."""
        if isinstance(src, Payoff):
            return self._plan.payoffs[src]
        cache = st.cache if isinstance(src, ActualLog) else st.q_side.cache
        key = ("v", src)
        if key in cache:
            return cache[key]
        if isinstance(src, ActualLog):
            arr = self._log_conditional(st, "p", src.vars, src.given)
        elif isinstance(src, TargetLog):
            arr = self._log_conditional(st, "q", src.vars, src.given)
        else:
            arr = self._plan.lift.place(st.q_side.logs[src.index])
        cache[key] = arr
        return arr

    def _log_conditional(
        self, st: _State, which: str, vars: tuple[str, ...], given: tuple[str, ...]
    ) -> np.ndarray:
        """ln m(vars | given) of the actual measure or the normalized target,
        from their marginals; -inf where the marginal on vars + given is 0,
        and ln 1 when ``vars`` is empty."""
        if not vars:
            return np.zeros((1,) * st.joint.probs.ndim)

        def log_marginal(names: tuple[str, ...]) -> np.ndarray:
            m = st.marginal(which, self._plan.axes(names))
            return _safe_log(m / m.sum())

        out = log_marginal(vars + given)
        if given:
            with np.errstate(invalid="ignore"):
                out = out - log_marginal(given)
        return out

    # -- assembly -----------------------------------------------------------

    def _assemble(self, st: _State, with_grad: bool) -> Evaluation | GradientEvaluation:
        ones = (1,) * st.p.probs.ndim
        values: dict[str, float] = {}
        divergent = False
        centred = np.zeros(ones)  # sum_t c_t (V_t - E_p V_t), for the p-field
        for term in self.terms:
            v = np.zeros(ones)
            # Opposite infinities from stacked log sources cancel into nans
            # off the support; the finite mask below discards them.
            with np.errstate(invalid="ignore"):
                for w, src in term.parts:
                    v = v + w * self._source_values(src, st)
            # p on the term's scope S: p_S(s) > 0 exactly when some outcome
            # with that s carries mass, so this is the outcome-level test.
            ps = st.marginal("p", tuple(i for i, n in enumerate(v.shape) if n > 1))
            ok = np.isfinite(v)
            if not ok.all():
                divergent = divergent or bool(np.any((ps > 0.0) & ~ok))
                ps, v = np.where(ok, ps, 0.0), np.where(ok, v, 0.0)
            val = float(np.vdot(ps, v))
            values[term.name] = val
            if with_grad:
                centred = _grow(centred, term.coeff * (v - val), st.p.probs.shape, np.add)
        parts = [term.coeff * values[term.name] for term in self.terms]
        parts.append(self.lnz_coeff * st.q.log_partition)
        total = math.fsum(parts)
        evaluation = Evaluation(
            total=total,
            terms=values,
            log_partition=st.q.log_partition,
            divergent=divergent,
        )
        if not with_grad:
            return evaluation
        grad, direction, residual = self._contract(st, centred)
        return GradientEvaluation(evaluation, grad, direction, residual)

    def _target_ratios(self, st: _State) -> np.ndarray:
        """r such that q r is the part of every target factor's field that
        the normalized-target sources and ln Z contribute.

        q is the target weights broadcast over the system variables outside
        the target scope, so each of its marginals counts those copies.
        """

        def ratio(axes: tuple[int, ...]) -> np.ndarray:
            return _ratio(st.marginal("p", axes), st.marginal("q", axes))

        r = np.zeros((1,) * st.p.probs.ndim)
        for c, keep, given in self._plan.towers:
            r = r + c * (ratio(keep) - ratio(given))
        if self.lnz_coeff != 0.0:
            r = r + self.lnz_coeff / st.marginal("q", ())
        return r / self._plan.copies

    def _contract(
        self, st: _State, centred: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Measures the score residual, builds each weight field once and
        only for the live blocks that consume it, contracts every softmax
        block once, and preconditions each block's gradient into the
        natural direction.

        Each new marginal is summed from the smallest cached one that
        covers it, so the order marginals are first taken in fixes their
        rounding. The residual's are taken first and the occupancies last,
        after every field's.
        """
        plan, pm = self._plan, st.p.probs
        residual = self._score_residual(st)
        p_field = pm * centred if plan.system_blocks else None
        r = self._target_ratios(st) if plan.ratio else None
        q_part = None if r is None else np.broadcast_to(st.q_lift * r, pm.shape)
        own: dict[int, np.ndarray] = {}  # fields for one block only, by position
        for c, feeds in plan.consumers:
            # c p + q r, never zero here
            f = q_part if c == 0.0 else c * pm if q_part is None else c * pm + q_part
            if isinstance(feeds, int):
                own[feeds] = own[feeds] + f if feeds in own else f
            else:
                keep, given = feeds
                p_field = p_field + st.joint.probs * (
                    _ratio(_marginal_on(f, keep), st.marginal("joint", keep))
                    - _ratio(_marginal_on(f, given), st.marginal("joint", given))
                )
        grad = np.zeros(self.space.size)
        direction = np.zeros(self.space.size)
        for i, (b, sigma) in enumerate(zip(plan.blocks, st.sigmas)):
            field = own.get(i)
            if b.side == "p":
                field = p_field if field is None else p_field + field
            if field is not None:
                g = _block_grad(field, sigma, b.parent_axes, b.child_axis)
                occupancy = _on_axes(st.marginal("p", b.parent_axes), b.parent_axes)
                grad[b.coords] = g
                direction[b.coords] = _natural_direction(g, sigma, occupancy)
        return grad, direction, residual

    def _score_residual(self, st: _State) -> float:
        """The max-abs entry, over the live system blocks, of the unobserved
        joint contracted against each block's scores: p(parents, child) -
        sigma p(parents), exactly zero in theory."""
        residual = 0.0
        for b, sigma in zip(self._plan.blocks, st.sigmas):
            if b.side == "p":
                axes = b.parent_axes + (b.child_axis,)
                joint = _on_axes(st.marginal("joint", axes), axes)
                off = joint - sigma * joint.sum(axis=-1, keepdims=True)
                residual = max(residual, float(np.max(np.abs(off))))
        return residual

    def _vector(self, phi: np.ndarray | None) -> np.ndarray:
        """``phi`` as a float64 array; the current parameters when None."""
        return np.asarray(self.space.get() if phi is None else phi, dtype=np.float64)

    def value(self, phi: np.ndarray | None = None) -> Evaluation:
        """The functional's value and term breakdown at ``phi``.

        The state it builds is kept for a ``value_and_gradient`` call at the
        same point that comes next."""
        self._kept = None
        phi = self._vector(phi)
        st = self._state(phi)
        evaluation = self._assemble(st, with_grad=False)
        self._kept = (phi.tobytes(), st)
        return evaluation

    def value_and_gradient(
        self, phi: np.ndarray | None = None
    ) -> GradientEvaluation:
        """Value plus the exact gradient and natural direction over every
        parameterized factor.

        Right after a ``value`` call at bit-identical ``phi`` this assembles
        from the state that call built, whose caches hold what a fresh
        state's value pass would put there, so the result is the same."""
        kept, self._kept = self._kept, None
        phi = self._vector(phi)
        if kept is not None and phi.shape == (self.space.size,) and phi.tobytes() == kept[0]:
            st = kept[1]
        else:
            kept = None  # release the old state before building the new one
            st = self._state(phi)
        return self._assemble(st, with_grad=True)
