"""Exact values and gradients for objectives over materialized tables.

Every functional handled here is an expectation under the actual joint of a
signed sum of log-quantities, plus an optional multiple of the target's log
normalizer:

    F(phi) = sum_k c_k E_p[ V_k(omega) ] + c_Z ln Z(phi)

where each integrand V_k is built from four kinds of sources: conditional
log-marginals of the actual distribution, conditional log-marginals of the
normalized target, the raw unnormalized target log-weight, and fixed payoff
arrays. Differentiation goes through both the measure and the integrand,

    dF = sum_k c_k ( E_p[ s_p (V_k - E_p V_k) ] + E_p[ dV_k ] ) + c_Z E_q[ s_q ],

with s_p(omega) the gradient of ln p(omega) and s_q(omega) the gradient of
ln q~(omega). Centring V_k is exact under evidence, where conditioning
shifts ln p by a constant, and adds zero in theory without it. A conditional
log-marginal differentiates into a difference of conditional score
expectations under the matching measure,

    d ln m(G | H)(omega) = E[ s | G, H ](omega) - E[ s | H ](omega).

Every piece is therefore a weight field over outcomes contracted against
scores, and the gradient is assembled from fields alone:

* the measure part adds c p (V - E_p V) to the p-field, which is contracted
  against s_p;
* the raw target log adds c w p to the q-field of every target factor, a
  single target factor's log adds it to that factor's q-field only, and
  ln Z adds c_Z q / Z;
* ln q(G | H) adds c w q (p(A)/q(A) - p(H)/q(H)), with A = G + H and both
  marginals taken on the full outcome grid, by the tower property
  E_p[ E_q[s | A] ] = E_q[ (p(A)/q(A)) s ];
* ln p(G | H) adds nothing, since E_p[ E_p[s | A] ] - E_p[ E_p[s | H] ] = 0.

A target factor's q-field goes to the block its score lives in: a
parameterized factor's own block, a factor mirror's child block on the
system side, and, for a marginal mirror j(G | H) of the joint j, the
p-field gains j (F(A)/j(A) - F(H)/j(H)) by the same tower property.

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

from .decomp import _log_given, observe, realize
from .errors import ValidationError
from .systems import (
    ActualSystem,
    FactorMirror,
    MarginalMirror,
    ParameterSpace,
    ParamFactor,
    TargetSpec,
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
class TargetLogRaw:
    """ln q~(omega), the raw unnormalized target log-weight."""


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
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float64)
        )
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("payoff values must be finite")


LogSource = ActualLog | TargetLog | TargetLogRaw | TargetFactorLog | Payoff


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


def _tower(
    weights: np.ndarray,
    measure: np.ndarray,
    keep: tuple[int, ...],
    given: tuple[int, ...],
) -> np.ndarray:
    """measure * (weights(keep) / measure(keep) - weights(given) / measure(given)).

    Marginals are taken on the full grid and broadcast back. By the tower
    property, sum weights * (E_m[s | keep] - E_m[s | given]) equals the sum
    of this field times s, for any per-outcome s.
    """

    def ratio(axes: tuple[int, ...]) -> np.ndarray:
        others = tuple(i for i in range(measure.ndim) if i not in axes)
        num = weights.sum(axis=others, keepdims=True)
        den = measure.sum(axis=others, keepdims=True)
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)

    return measure * (ratio(keep) - ratio(given))


def _marginal(weights: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The marginal of a field over outcomes on ``axes``, in that order."""
    others = tuple(i for i in range(weights.ndim) if i not in axes)
    kept = sorted(axes)
    return weights.sum(axis=others).transpose([kept.index(a) for a in axes])


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
    marginal = _marginal(weights, parent_axes + (child_axis,))
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


@dataclass
class _State:
    """Everything derived from one parameter vector."""

    realized_system: ActualSystem
    target: TargetSpec
    joint: Table
    p: Table
    q: UnnormalizedTable
    q_lift: np.ndarray
    cache: dict = field(default_factory=dict)


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
                elif isinstance(src, TargetLogRaw):
                    missing = set()
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
        q = build_target(target, realized_system, joint)
        p = observe(joint, self._evidence) if self._evidence else joint
        return _State(
            realized_system=realized_system,
            target=target,
            joint=joint,
            p=p,
            q=q,
            q_lift=_expand_to_scope(q.weights, q.names, joint),
        )

    # -- per-source arrays --------------------------------------------------

    def _source_values(self, src: LogSource, st: _State) -> np.ndarray:
        key = ("v", id(src))
        if key in st.cache:
            return st.cache[key]
        if isinstance(src, ActualLog):
            arr = _log_given(st.p, src.vars, src.given)
        elif isinstance(src, TargetLog):
            raw = np.broadcast_to(
                _log_given(st.q, src.vars, src.given), st.q.weights.shape
            )
            arr = _expand_to_scope(raw, st.q.names, st.joint)
        elif isinstance(src, TargetFactorLog):
            raw = np.broadcast_to(
                target_factor_log_array(
                    st.target.factors[src.index], st.target, st.realized_system, st.joint
                ),
                st.q.weights.shape,
            )
            arr = _expand_to_scope(raw, st.q.names, st.joint)
        elif isinstance(src, TargetLogRaw):
            arr = _expand_to_scope(_safe_log(st.q.weights), st.q.names, st.joint)
        else:
            arr = _expand_to_scope(src.values, src.vars, st.joint)
        st.cache[key] = arr
        return arr

    # -- assembly -----------------------------------------------------------

    def _assemble(self, st: _State, with_grad: bool) -> Evaluation | GradientEvaluation:
        pm = st.p.probs
        support = pm > 0.0
        values: dict[str, float] = {}
        divergent = False
        if with_grad:
            q_full = np.broadcast_to(st.q_lift, pm.shape)
            p_field = np.zeros_like(pm)  # contracted against the score of ln p
            q_field = np.zeros_like(pm)  # against every target factor's score
            q_own: dict[int, np.ndarray] = {}  # against one target factor's score
        for term in self.terms:
            v = np.zeros_like(pm)
            # Opposite infinities from stacked log sources cancel into nans
            # off the support; the finite mask below discards them.
            with np.errstate(invalid="ignore"):
                for w, src in term.parts:
                    v = v + w * self._source_values(src, st)
            finite = np.isfinite(v)
            ok = support & finite
            if bool(np.any(support & ~finite)):
                divergent = True
            val = float(np.dot(pm[ok].ravel(), v[ok].ravel())) if ok.any() else 0.0
            values[term.name] = val
            if not with_grad:
                continue
            p_field += term.coeff * pm * (np.where(ok, v, 0.0) - val)
            # Payoffs carry no gradient, and an ActualLog adds none in
            # expectation: E_p[ E_p[s | G, H] - E_p[s | H] ] = 0.
            for w, src in term.parts:
                c = term.coeff * w
                if isinstance(src, TargetLogRaw):
                    q_field += c * pm
                elif isinstance(src, TargetFactorLog):
                    q_own[src.index] = q_own.get(src.index, 0.0) + c * pm
                elif isinstance(src, TargetLog) and src.vars:
                    q_field += c * _tower(
                        pm,
                        q_full,
                        self._axes(st, src.vars + src.given),
                        self._axes(st, src.given),
                    )
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
        if self.lnz_coeff != 0.0:
            q_field += self.lnz_coeff * q_full / float(q_full.sum())
        grad, direction, residual = self._contract(st, p_field, q_field, q_own)
        return GradientEvaluation(evaluation, grad, direction, residual)

    @staticmethod
    def _axes(st: _State, names: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(st.joint.axis(x) for x in names)

    def _contract(
        self,
        st: _State,
        p_field: np.ndarray,
        q_field: np.ndarray,
        q_own: dict[int, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Routes each target factor's field to the block its score lives in,
        contracts every softmax block once, preconditions each block's
        gradient into the natural direction, and measures the score
        residual."""
        joint = st.joint.probs
        own: dict[tuple[str, str], np.ndarray] = {}  # fields for one block only
        for idx, tf in enumerate(st.target.factors):
            f = q_field + q_own[idx] if idx in q_own else q_field
            if isinstance(tf, ParamFactor):
                own["q", f"{idx}:{tf.child}"] = f
            elif isinstance(tf, FactorMirror):
                key = ("p", tf.child)
                own[key] = own[key] + f if key in own else f
            elif isinstance(tf, MarginalMirror):
                p_field = p_field + _tower(
                    f, joint, self._axes(st, tf.given + tf.vars), self._axes(st, tf.given)
                )
        grad = np.zeros(self.space.size)
        direction = np.zeros(self.space.size)
        residual = 0.0
        for b in self._blocks(st):
            if b.side == "p":
                field = p_field + own[b.side, b.key] if (b.side, b.key) in own else p_field
            else:
                field = own[b.side, b.key]
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
        marginal on its parents.
        """
        for b in self.space.blocks:
            coords = slice(b.offset, b.offset + b.size)
            if b.side == "p":
                factor = st.realized_system.factors[b.key]
                if factor.logits is None:
                    continue  # realized into a point mass; no dependence left
                parents, child = self._axes(st, factor.parents), st.joint.axis(b.key)
                sigma = factor.conditional()
                joint = _marginal(st.joint.probs, parents + (child,))
                occupancy = joint.sum(axis=-1, keepdims=True)
                residual = float(np.max(np.abs(joint - sigma * occupancy)))
            else:
                tf = st.target.factors[b.index]
                parents, child = self._axes(st, tf.parents), st.joint.axis(tf.child)
                sigma = softmax(tf.logits, axis=-1)
                occupancy = _marginal(st.p.probs, parents)[..., np.newaxis]
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
