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
itself.

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
over the child axis. One resolver walks the live blocks: a system
block's occupancy is the sum over the child of the joint's (parents,
child) marginal that the residual already takes, and a target block's
is the actual measure's marginal on its parents, the measure its field
is weighted by. Slices whose occupancy lies below a floor get a zero
direction, since dividing by a vanishing Fisher scale would only blow
up rounding. Then g . d = sum g^2 / (occupancy sigma) >= 0, so the
direction descends wherever it is nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .decomp import observe, realize
from .errors import ValidationError
from .systems import (
    ActualSystem,
    FactorMirror,
    MarginalMirror,
    ParameterSpace,
    ParamFactor,
    TargetFactor,
    TargetSpec,
    _frozen,
    build_joint,
    build_target,
    softmax,
    target_factor_log_array,
)
from .tables import Assignment, Table, UnnormalizedTable, _expand_to_scope, _safe_log

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
    grad . direction >= 0.

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
    axis; ``occupancy`` carries a trailing axis of length one.
    """
    live = (occupancy >= _OCCUPANCY_FLOOR) & (sigma > 0.0)
    scaled = np.divide(
        grad.reshape(sigma.shape), occupancy * sigma, out=np.zeros(sigma.shape), where=live
    )
    return (scaled - scaled.mean(axis=-1, keepdims=True)).ravel()


@dataclass(frozen=True)
class _Block:
    """One live softmax block resolved against one state.

    ``occupancy`` is the probability of each parent slice, with a trailing
    axis of length one: for a system block the unobserved joint's, for a
    target block that of the actual measure its field is weighted by.
    ``residual`` is the block's score residual, zero for target blocks.
    """

    coords: slice
    side: str
    key: str
    parent_axes: tuple[int, ...]
    child_axis: int
    sigma: np.ndarray
    occupancy: np.ndarray
    residual: float


@dataclass(frozen=True)
class _QSide:
    """The materialized target, its weights on the joint's axes, and a cache
    of what is derived from the target alone: its marginals and the values
    of the target-side sources. An engine whose target does not depend on
    phi builds one and shares it between all its states."""

    q: UnnormalizedTable
    lift: np.ndarray
    cache: dict = field(default_factory=dict)


@dataclass
class _State:
    """Everything derived from one parameter vector."""

    realized_system: ActualSystem
    target: TargetSpec
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
        joint's axes (``"q"``), cached."""
        if which == "joint" and self.p is self.joint:
            which = "p"  # no evidence: one measure, one cache entry
        cache = self.q_side.cache if which == "q" else self.cache
        key = ("m", which, frozenset(keep))
        if key not in cache:
            arr = {"p": self.p.probs, "joint": self.joint.probs, "q": self.q_lift}[which]
            cache[key] = _marginal_on(arr, keep)
        return cache[key]


def _depends_on_phi(factor: TargetFactor, system: ActualSystem) -> bool:
    """Whether a target factor's values change with the parameter vector:
    a parameterized factor, a marginal mirror of the joint, or a mirror of
    a softmax factor of ``system``."""
    if isinstance(factor, FactorMirror):
        mirrored = system.factors.get(factor.child)
        return mirrored is not None and mirrored.logits is not None
    return isinstance(factor, (ParamFactor, MarginalMirror))


class Engine:
    """Evaluates one functional and its exact gradient at parameter points.

    The engine is bound to a (system, target) pair, a term list, and a
    realization; parameter vectors index every parameterized factor on both
    sides through a :class:`ParameterSpace`. Term values always match what
    the corresponding report definitions give, so optimization and
    certification never drift apart.

    The realization is applied once, at construction. Each evaluation swaps
    the logits of ``phi`` (``phi=None`` means the current parameters) into
    that realized system and the target with ``with_logits``, skipping
    blocks realized into point masses, so the structure validated at
    construction is never validated again; only ``phi`` itself, the new
    logits and the materialized joint are checked per evaluation.

    Construction also decides whether the target depends on ``phi``: it
    does when some factor is parameterized, a marginal mirror of the joint,
    or a mirror of a softmax factor of the realized system. A target that
    does not, such as the dynamics, action prior and exp(reward) of a
    control problem, is materialized by the first evaluation, and every
    later one reuses it together with its weights on the joint's axes, its
    marginals and the values of the target-side sources. Nothing is built
    at construction, so an engine that is never evaluated costs nothing.
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
        self._realized_system, self._evidence = realize(
            system, self.realized, realization
        )
        self._validate_terms()
        self._target_varies = any(
            _depends_on_phi(f, self._realized_system) for f in target.factors
        )
        self._fixed_q_side: _QSide | None = None  # built by the first evaluation

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

    def _state(self, phi: np.ndarray | None) -> _State:
        system_logits, target_logits = self.space.logits(
            self.space.get() if phi is None else phi
        )
        base = self._realized_system
        realized_system = base.with_logits(
            {k: v for k, v in system_logits.items() if base.factors[k].logits is not None}
        )
        target = self.target.with_logits(target_logits)
        joint = build_joint(realized_system)
        # Threads that race on a fixed target build and cache equal values,
        # so the shared side needs no lock.
        q_side = self._fixed_q_side
        if q_side is None:
            q = build_target(target, realized_system, joint)
            q_side = _QSide(q, _expand_to_scope(q.weights, q.names, joint.scope))
            if not self._target_varies:
                self._fixed_q_side = q_side
        p = observe(joint, self._evidence) if self._evidence else joint
        return _State(
            realized_system=realized_system, target=target, joint=joint, p=p, q_side=q_side
        )

    # -- per-source arrays --------------------------------------------------

    def _source_values(self, src: LogSource, st: _State) -> np.ndarray:
        """A source's values on the joint's axes, with length one on every
        axis outside the source's own scope."""
        cache = st.cache if isinstance(src, (ActualLog, Payoff)) else st.q_side.cache
        key = ("v", src)
        if key in cache:
            return cache[key]
        if isinstance(src, ActualLog):
            arr = self._log_conditional(st, "p", src.vars, src.given)
        elif isinstance(src, TargetLog):
            arr = self._log_conditional(st, "q", src.vars, src.given)
        elif isinstance(src, TargetFactorLog):
            raw = target_factor_log_array(
                st.target.factors[src.index], st.target, st.realized_system, st.joint
            )
            # raw lies on the target's axes, with length one outside the
            # factor's own scope; those lengths carry over to the joint's.
            axes = self._axes(st, st.q.names)
            shape = [1] * st.joint.probs.ndim
            for a, n in zip(axes, raw.shape):
                shape[a] = n
            arr = raw.transpose(np.argsort(axes)).reshape(shape)
        else:
            arr = _expand_to_scope(src.values, src.vars, st.joint.scope)
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
            m = st.marginal(which, self._axes(st, names))
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
        c_factor: dict[int, float] = {}  # coefficient of p in a target factor's field
        towers: list[tuple[float, TargetLog]] = []
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
            if not with_grad:
                continue
            centred = centred + term.coeff * (v - val)
            # Payoffs carry no gradient, and an ActualLog adds none in
            # expectation: E_p[ E_p[s | G, H] - E_p[s | H] ] = 0.
            for w, src in term.parts:
                c = term.coeff * w
                if isinstance(src, TargetFactorLog):
                    c_factor[src.index] = c_factor.get(src.index, 0.0) + c
                elif isinstance(src, TargetLog) and src.vars:
                    towers.append((c, src))
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
        grad, direction, residual = self._contract(st, centred, c_factor, towers)
        return GradientEvaluation(evaluation, grad, direction, residual)

    @staticmethod
    def _axes(st: _State, names: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(st.joint.axis(x) for x in names)

    def _target_ratios(
        self, st: _State, towers: list[tuple[float, TargetLog]]
    ) -> np.ndarray | None:
        """r such that q r is the part of every target factor's field that
        the normalized-target sources and ln Z contribute, or None if none
        does.

        q is the target weights broadcast over the system variables outside
        the target scope, so each of its marginals counts those copies.
        """
        if not towers and self.lnz_coeff == 0.0:
            return None

        def ratio(names: tuple[str, ...]) -> np.ndarray:
            axes = self._axes(st, names)
            return _ratio(st.marginal("p", axes), st.marginal("q", axes))

        r = np.zeros((1,) * st.p.probs.ndim)
        for c, src in towers:
            r = r + c * (ratio(src.vars + src.given) - ratio(src.given))
        if self.lnz_coeff != 0.0:
            r = r + self.lnz_coeff / st.marginal("q", ())
        return r / (st.p.probs.size / st.q_lift.size)

    def _contract(
        self,
        st: _State,
        centred: np.ndarray,
        c_factor: dict[int, float],
        towers: list[tuple[float, TargetLog]],
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Builds each weight field once and only for the live blocks that
        consume it, contracts every softmax block once, preconditions each
        block's gradient into the natural direction, and measures the score
        residual."""
        pm = st.p.probs
        blocks = list(self._blocks(st))
        live = {(b.side, b.key) for b in blocks}
        p_field = pm * centred if any(b.side == "p" for b in blocks) else None
        # The target factors whose field some live block consumes: a
        # parameterized factor's own block, a factor mirror's child block,
        # and a marginal mirror's tower into the p-field.
        consumers: list[tuple[int, TargetFactor, tuple[str, str] | None]] = []
        for idx, tf in enumerate(st.target.factors):
            if isinstance(tf, ParamFactor):
                key = ("q", f"{idx}:{tf.child}")
            elif isinstance(tf, FactorMirror):
                key = ("p", tf.child)
            elif isinstance(tf, MarginalMirror) and p_field is not None:
                key = None
            else:
                continue
            if key is None or key in live:
                consumers.append((idx, tf, key))
        r = self._target_ratios(st, towers) if consumers else None
        q_part = None if r is None else np.broadcast_to(st.q_lift * r, pm.shape)
        own: dict[tuple[str, str], np.ndarray] = {}  # fields for one block only
        for idx, tf, key in consumers:
            # c p + q r, skipped where it is zero
            c = c_factor.get(idx, 0.0)
            if c == 0.0 and q_part is None:
                continue
            f = q_part if c == 0.0 else c * pm if q_part is None else c * pm + q_part
            if key is None:
                keep, given = self._axes(st, tf.given + tf.vars), self._axes(st, tf.given)
                p_field = p_field + st.joint.probs * (
                    _ratio(_marginal_on(f, keep), st.marginal("joint", keep))
                    - _ratio(_marginal_on(f, given), st.marginal("joint", given))
                )
            else:
                own[key] = own[key] + f if key in own else f
        grad = np.zeros(self.space.size)
        direction = np.zeros(self.space.size)
        residual = 0.0
        for b in blocks:
            field = own.get((b.side, b.key))
            if b.side == "p":
                field = p_field if field is None else p_field + field
            if field is not None:
                g = _block_grad(field, b.sigma, b.parent_axes, b.child_axis)
                grad[b.coords] = g
                direction[b.coords] = _natural_direction(g, b.sigma, b.occupancy)
            residual = max(residual, b.residual)
        return grad, direction, residual

    def _blocks(self, st: _State) -> Iterator[_Block]:
        """Every softmax block that still depends on its logits at ``st``.

        A system block's occupancy and score residual both come from the
        unobserved joint's marginal on (parents, child), which the residual
        needs anyway; a target block's occupancy is the actual measure's
        marginal on its parents. Both come from the state's marginal cache,
        so a scope some term was already evaluated on costs no second pass.
        """
        for b in self.space.blocks:
            coords = slice(b.offset, b.offset + b.size)
            if b.side == "p":
                factor = st.realized_system.factors[b.key]
                if factor.logits is None:
                    continue  # realized into a point mass; no dependence left
                parents, child = self._axes(st, factor.parents), st.joint.axis(b.key)
                sigma = factor.conditional()
                axes = parents + (child,)
                joint = _on_axes(st.marginal("joint", axes), axes)
                occupancy = joint.sum(axis=-1, keepdims=True)
                residual = float(np.max(np.abs(joint - sigma * occupancy)))
            else:
                tf = st.target.factors[b.index]
                parents, child = self._axes(st, tf.parents), st.joint.axis(tf.child)
                sigma = softmax(tf.logits, axis=-1)
                occupancy = _on_axes(st.marginal("p", parents), parents)[..., np.newaxis]
                residual = 0.0
            yield _Block(coords, b.side, b.key, parents, child, sigma, occupancy, residual)

    def value(self, phi: np.ndarray | None = None) -> Evaluation:
        """The functional's value and term breakdown at ``phi``."""
        return self._assemble(self._state(phi), with_grad=False)

    def value_and_gradient(
        self, phi: np.ndarray | None = None
    ) -> GradientEvaluation:
        """Value plus the exact gradient and natural direction over every
        parameterized factor."""
        return self._assemble(self._state(phi), with_grad=True)
