"""Exact values and gradients for objectives over materialized tables.

Every functional handled here is an expectation under the actual joint of a
signed sum of log-quantities, plus an optional multiple of the target's log
normalizer:

    F(phi) = sum_k c_k E_p[ V_k(omega) ] + c_Z ln Z(phi)

where each integrand V_k is built from four kinds of sources: conditional
log-marginals of the actual distribution, conditional log-marginals of the
normalized target, the raw unnormalized target log-weight, and fixed payoff
arrays. Differentiation goes through both the measure and the integrand,

    dF = sum_k c_k ( E_p[ s_p V_k ] + E_p[ dV_k ] ) + c_Z E_q[ s_q ],

with s_p(omega) the gradient of ln p(omega) and s_q(omega) the gradient of
ln q~(omega). For a softmax-parameterized factor the per-outcome score of
logit (parents', c') is 1[parents = parents'] (1[child = c'] - sigma_c'),
and a conditional log-marginal differentiates into a difference of
conditional score expectations,

    d ln m(G | H)(omega) = E[ s | G, H ](omega) - E[ s | H ](omega),

under the matching measure. Everything is evaluated on the dense outcome
grid, so gradients are exact up to floating point; no sampling or automatic
differentiation is involved. The analytic identity E_p[s_p] = 0 is returned
as a residual so callers can assert the score computation stayed honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

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
    """Value plus exact gradient and the score-identity residual.

    ``score_residual`` is the max-abs entry of the expected measure score,
    which is exactly zero in theory; it certifies the score matrices against
    the probabilities they were derived from.
    """

    evaluation: Evaluation
    grad: np.ndarray
    score_residual: float


# ---------------------------------------------------------------------------
# Score construction


def _axis_grid(dims: tuple[int, ...], axis: int) -> np.ndarray:
    shape = [1] * len(dims)
    shape[axis] = dims[axis]
    return np.arange(dims[axis]).reshape(shape)


def _softmax_score_block(
    conditional: np.ndarray,
    parent_axes: tuple[int, ...],
    child_axis: int,
    dims: tuple[int, ...],
) -> np.ndarray:
    """Per-outcome score rows of one softmax block, over the joint shape.

    Column (parents', c') holds 1[parents(omega) = parents'] times
    (1[child(omega) = c'] - sigma[parents', c']).
    """
    out = np.zeros(dims + (conditional.size,), dtype=np.float64)
    child = _axis_grid(dims, child_axis)
    card = dims[child_axis]
    col = 0
    for pa in np.ndindex(conditional.shape[:-1]):
        mask: np.ndarray | float = 1.0
        for ax, v in zip(parent_axes, pa):
            mask = mask * (_axis_grid(dims, ax) == v)
        for c in range(card):
            out[..., col] = mask * ((child == c) - conditional[pa + (c,)])
            col += 1
    return out


def _cond_expectation(
    weights: np.ndarray, scores: np.ndarray, keep_axes: tuple[int, ...]
) -> np.ndarray:
    """E[scores | the variables on keep_axes] under weights, broadcastable."""
    sum_axes = tuple(i for i in range(weights.ndim) if i not in set(keep_axes))
    if not sum_axes:
        return scores
    num = (weights[..., None] * scores).sum(axis=sum_axes, keepdims=True)
    den = weights.sum(axis=sum_axes, keepdims=True)[..., None]
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)


@dataclass
class _State:
    """Everything derived from one parameter vector."""

    realized_system: ActualSystem
    target: TargetSpec
    joint: Table
    p: Table
    q: UnnormalizedTable
    q_lift: np.ndarray
    evidence: dict[str, int]
    s_p: np.ndarray | None = None
    s_q: np.ndarray | None = None
    s_used: np.ndarray | None = None
    local_p: dict[str, tuple[int, int, np.ndarray]] = field(default_factory=dict)
    local_q: dict[int, tuple[int, int, np.ndarray]] = field(default_factory=dict)
    score_residual: float = 0.0
    cache: dict = field(default_factory=dict)


class Engine:
    """Evaluates one functional and its exact gradient at parameter points.

    The engine is bound to a (system, target) pair, a term list, and a
    realization; parameter vectors index every parameterized factor on both
    sides through a :class:`ParameterSpace`. Term values always match what
    the corresponding report definitions give, so optimization and
    certification never drift apart.
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
        realize(system, self.realized, realization)  # fail fast on bad bindings
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

    def _state(self, phi: np.ndarray | None, with_scores: bool) -> _State:
        if phi is None:
            system, target = self.system, self.target
        else:
            system, target = self.space.set(phi)
        realized_system, evidence = realize(system, self.realized, self.realization)
        joint = build_joint(realized_system)
        q = build_target(target, realized_system, joint)
        p = observe(joint, evidence) if evidence else joint
        q_lift = _expand_to_scope(q.weights, q.names, joint)
        st = _State(
            realized_system=realized_system,
            target=target,
            joint=joint,
            p=p,
            q=q,
            q_lift=q_lift,
            evidence=evidence,
        )
        if with_scores:
            self._attach_scores(st, realized_system, target)
        return st

    def _attach_scores(
        self, st: _State, realized_system: ActualSystem, target: TargetSpec
    ) -> None:
        dims = st.joint.probs.shape
        n = self.space.size
        s_p = np.zeros(dims + (n,), dtype=np.float64)
        s_q = np.zeros(dims + (n,), dtype=np.float64)
        local = st.local_p
        for b in self.space.blocks:
            if b.side == "p":
                f = realized_system.factors[b.key]
                if f.logits is None:
                    continue  # realized into a point mass; no dependence left
                block = _softmax_score_block(
                    f.conditional(),
                    tuple(realized_system.axis(x) for x in f.parents),
                    realized_system.axis(b.key),
                    dims,
                )
                local[b.key] = (b.offset, b.size, block)
                s_p[..., b.offset : b.offset + b.size] = block
            else:
                idx = int(b.key.split(":", 1)[0])
                tf = target.factors[idx]
                assert isinstance(tf, ParamFactor)
                block = _softmax_score_block(
                    softmax(tf.logits, axis=-1),
                    tuple(realized_system.axis(x) for x in tf.parents),
                    realized_system.axis(tf.child),
                    dims,
                )
                st.local_q[idx] = (b.offset, b.size, block)
                s_q[..., b.offset : b.offset + b.size] = block
        for tf in target.factors:
            if isinstance(tf, FactorMirror) and tf.child in local:
                off, size, block = local[tf.child]
                s_q[..., off : off + size] += block
            elif isinstance(tf, MarginalMirror):
                axes = tuple(st.joint.axis(x) for x in tf.given + tf.vars)
                given_axes = tuple(st.joint.axis(x) for x in tf.given)
                s_q += _cond_expectation(st.joint.probs, s_p, axes)
                s_q -= _cond_expectation(st.joint.probs, s_p, given_axes)
        mean = (
            np.tensordot(st.p.probs, s_p, axes=st.p.probs.ndim)
            if n
            else np.zeros(0)
        )
        if st.evidence:
            # Conditioning shifts the log-density by a constant, so the
            # measure score is the centered one; the residual then certifies
            # the centering rather than the raw identity.
            st.s_used = s_p - mean
            resid = np.tensordot(st.p.probs, st.s_used, axes=st.p.probs.ndim)
        else:
            st.s_used = s_p
            resid = mean
        st.s_p = s_p
        st.s_q = s_q
        st.score_residual = float(np.max(np.abs(resid))) if n else 0.0

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

    def _source_grads(self, src: LogSource, st: _State) -> np.ndarray | None:
        if isinstance(src, Payoff):
            return None
        key = ("g", id(src))
        if key in st.cache:
            return st.cache[key]
        if isinstance(src, TargetLogRaw):
            arr = st.s_q
        elif isinstance(src, TargetFactorLog):
            arr = self._target_factor_grad(src.index, st)
            if arr is None:
                return None
        elif isinstance(src, ActualLog):
            if not src.vars:
                return None
            axes = tuple(st.joint.axis(x) for x in src.vars + src.given)
            given_axes = tuple(st.joint.axis(x) for x in src.given)
            arr = _cond_expectation(st.p.probs, st.s_p, axes) - _cond_expectation(
                st.p.probs, st.s_p, given_axes
            )
        else:
            if not src.vars:
                return None
            axes = tuple(st.joint.axis(x) for x in src.vars + src.given)
            given_axes = tuple(st.joint.axis(x) for x in src.given)
            arr = _cond_expectation(st.q_lift, st.s_q, axes) - _cond_expectation(
                st.q_lift, st.s_q, given_axes
            )
        st.cache[key] = arr
        return arr

    def _target_factor_grad(self, index: int, st: _State) -> np.ndarray | None:
        f = st.target.factors[index]
        dims = st.joint.probs.shape
        if isinstance(f, ParamFactor):
            entry = st.local_q.get(index)
        elif isinstance(f, FactorMirror):
            entry = st.local_p.get(f.child)
        elif isinstance(f, MarginalMirror):
            axes = tuple(st.joint.axis(x) for x in f.given + f.vars)
            given_axes = tuple(st.joint.axis(x) for x in f.given)
            return _cond_expectation(
                st.joint.probs, st.s_p, axes
            ) - _cond_expectation(st.joint.probs, st.s_p, given_axes)
        else:
            return None
        if entry is None:
            return None
        off, size, block = entry
        wide = np.zeros(dims + (self.space.size,), dtype=np.float64)
        wide[..., off : off + size] = block
        return wide

    # -- assembly -----------------------------------------------------------

    def _assemble(
        self, st: _State, with_grad: bool
    ) -> tuple[Evaluation, np.ndarray | None]:
        pm = st.p.probs
        support = pm > 0.0
        ndim = pm.ndim
        values: dict[str, float] = {}
        divergent = False
        grad = np.zeros(self.space.size) if with_grad else None
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
            grad += term.coeff * np.tensordot(
                pm * np.where(ok, v, 0.0), st.s_used, axes=ndim
            )
            dv: np.ndarray | None = None
            for w, src in term.parts:
                g = self._source_grads(src, st)
                if g is not None:
                    dv = w * g if dv is None else dv + w * g
            if dv is not None:
                # dv may carry broadcast singleton axes from the conditional
                # expectations, so contract by explicit broadcasting.
                grad += term.coeff * (pm[..., None] * dv).sum(
                    axis=tuple(range(ndim))
                )
        parts = [term.coeff * values[term.name] for term in self.terms]
        parts.append(self.lnz_coeff * st.q.log_partition)
        total = math.fsum(parts)
        if with_grad and self.lnz_coeff != 0.0:
            # Materialize the broadcast so targets over a scope subset
            # contract against the full-shape scores; the uniform lift over
            # the out-of-scope axes cancels in the normalization.
            lift = np.broadcast_to(st.q_lift, pm.shape)
            mass = float(lift.sum())
            grad += self.lnz_coeff * (
                np.tensordot(lift, st.s_q, axes=ndim) / mass
            )
        evaluation = Evaluation(
            total=total,
            terms=values,
            log_partition=st.q.log_partition,
            divergent=divergent,
        )
        return evaluation, grad

    def value(self, phi: np.ndarray | None = None) -> Evaluation:
        """The functional's value and term breakdown at ``phi``."""
        st = self._state(phi, with_scores=False)
        evaluation, _ = self._assemble(st, with_grad=False)
        return evaluation

    def value_and_gradient(
        self, phi: np.ndarray | None = None
    ) -> GradientEvaluation:
        """Value plus the exact gradient over every parameterized factor."""
        st = self._state(phi, with_scores=True)
        evaluation, grad = self._assemble(st, with_grad=True)
        assert grad is not None
        return GradientEvaluation(
            evaluation=evaluation, grad=grad, score_residual=st.score_residual
        )
