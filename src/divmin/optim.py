"""Descent, gradient certification, and exhaustive point-mass scans.

The minimizer is natural-gradient descent with a backtracking line search.
Every parameter block is a per-slice softmax, and for a joint divergence
over such blocks the Fisher information of a block is diagonal in its
parent slices: occupancy times (diag(sigma) - sigma sigma^T), where the
occupancy is the actual distribution's marginal on the parents, evidence
included. The engine returns the matching natural direction d with every
gradient g, namely g / (occupancy sigma) centred over each slice, and zero
on slices the actual distribution does not reach. In logit space a step
along d is exponentiated-gradient (mirror) descent. Its step of size 1 is
exact on a system block whose share of the divergence reads
sum occupancy sigma (ln sigma + V), with V free of that block: from any
start the step lands on the block's minimizer, sigma proportional to
exp(-V). That covers every system block of the presets but
bandit-infogain's ``x1`` and two-room-skills' ``a1``, whose conditionals
also enter the divergence through marginals. It never holds for target
predictor blocks (decoders, the skill predictor, the information-gain
belief), whose exact update is the posterior under the actual
distribution. Since g . d = sum g^2 / (occupancy sigma) >= 0, d is
a descent direction; where g . d is not positive, as for a ln Z term
whose target-weighted gradient lives only on slices the actual
distribution never reaches, the search falls back to d = g.

Every line search starts from the mirror step, 1, and halves it at most
30 times until the strict Armijo condition f(phi - t d) < f(phi) - c t
g . d holds, with c = 1e-4, rejecting any candidate whose evaluation is
divergent or non-finite. That candidates are rejected rather than
compared means divergent regions act as infinite walls, so descent never
walks onto a zero of the target that carries actual mass. No step above
1 is tried: plain gradient descent needed steps of up to 1e6 to follow
logits running off to infinity at boundary optima, and the 1 /
(occupancy sigma) scaling of d does that stretching itself.

Near a minimum the Armijo decrease falls below the rounding of the total,
a few float spacings of its summed term magnitudes, so a candidate passes
the Armijo test only if its total also falls by more than that rounding. A
candidate whose total lies within that rounding of f(phi), even one that
rounds lower, is accepted only if it moves phi, the slope along the step
is still downhill there, d . grad f(phi - t d) > 0, and its max-abs
gradient is strictly below the current point's; the gradient computed for
that test is reused by the next iteration. This rule stays because
gradient tolerances such as 1e-9 lie below what the total can resolve:
without it descent on ``hmm-filter`` stops with ``"no-descent"`` at a
gradient of 1.0e-9, just above that tolerance. Requiring the gradient to
shrink keeps level steps from cycling between points whose gradients are
rounding noise. Descent thus keeps shrinking the gradient past the
resolution of the total, never takes a step that merely rounds level, and
stops with ``"no-descent"`` once neither test can pass.

``check_gradient`` compares the engine's exact gradient against central
finite differences of the total. The reported relative error is the
max-abs difference scaled by the larger gradient norm, floored at one,
so it degrades gracefully to an absolute error at critical points.

``map_scan`` enumerates every point-mass belief over the internal
variables and scores each with the energy reading of the divergence;
over point masses the entropy of the beliefs vanishes, so the scan is
exactly maximum a posteriori selection under the raw target weights.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .decomp import _split_roles, energy_entropy
from .engine import Evaluation, GradientEvaluation
from .errors import ConfigError, DivergenceError
from .objectives import Objective
from .systems import FactorSpec

__all__ = [
    "GradientCheck",
    "IterationRecord",
    "OptimTrace",
    "ScanResult",
    "check_gradient",
    "finite_difference_gradient",
    "map_scan",
    "minimize",
]

# Totals that differ by less than this many float spacings of the summed
# term magnitudes are level up to rounding.
_ROUNDING = 4.0 * np.finfo(np.float64).eps

# The line search: its first trial step (the mirror step), how often it
# may halve it, and the fraction of the linear decrease it demands.
_MIRROR_STEP = 1.0
_MAX_HALVINGS = 30
_ARMIJO = 1.0e-4


@dataclass(frozen=True)
class IterationRecord:
    """One visited point: value breakdown, gradient size, accepted step and
    the number of value calls its line search made."""

    iteration: int
    total: float
    grad_norm: float
    step: float
    evaluations: int
    terms: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))


@dataclass(frozen=True)
class OptimTrace:
    """Final point of a descent run, its gradient evaluation there, and the
    per-iteration history."""

    phi: np.ndarray
    gradient: GradientEvaluation
    records: tuple[IterationRecord, ...]
    reason: str
    converged: bool

    @property
    def evaluation(self) -> Evaluation:
        return self.gradient.evaluation

    @property
    def total(self) -> float:
        return self.evaluation.total


def minimize(
    objective: Objective,
    phi0: np.ndarray | None = None,
    *,
    max_iters: int = 5000,
    grad_tol: float = 1.0e-7,
) -> OptimTrace:
    """Natural-gradient descent until the max-abs gradient entry falls under
    ``grad_tol``.

    Each iteration searches along the objective's natural direction d,
    falling back to the gradient g when g . d is not positive. The line
    search starts from the mirror step 1 and halves it up to 30 times until
    f(phi - t d) < f(phi) - max(1e-4 t g . d, r), with r the rounding of the
    total, or until a candidate level with f(phi) up to r still slopes
    downhill along d and has a smaller max-abs gradient. The keywords are
    exactly the ``optimizer`` settings a run configuration may give. Only
    ``parameters``, ``value`` and ``value_and_gradient`` of ``objective``
    are called. The gradient at an accepted point is asked for right after
    the value call that accepted it, at the same vector, and an engine
    answers it from that call's state: an accepted step costs one forward
    pass plus one contraction.

    Termination reasons: ``"gradient-tolerance"`` (converged),
    ``"no-descent"`` (the line search exhausted its halvings), and
    ``"max-iterations"``.
    """
    if max_iters < 1 or grad_tol < 0.0:
        raise ConfigError("minimize needs max_iters >= 1 and grad_tol >= 0")
    phi = np.array(
        objective.parameters() if phi0 is None else np.asarray(phi0, dtype=np.float64)
    )
    ge = objective.value_and_gradient(phi)
    if ge.evaluation.divergent:
        raise DivergenceError("the objective diverges at the starting point")

    def record(it: int, step: float, evaluations: int) -> IterationRecord:
        # The point of the current gradient evaluation ``ge``.
        gnorm = float(np.max(np.abs(ge.grad))) if ge.grad.size else 0.0
        return IterationRecord(
            it, ge.evaluation.total, gnorm, step, evaluations, ge.evaluation.terms
        )

    records: list[IterationRecord] = []
    reason = "max-iterations"
    for it in range(int(max_iters)):
        g = ge.grad
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= grad_tol:
            records.append(record(it, 0.0, 0))
            reason = "gradient-tolerance"
            break
        d = ge.direction
        slope = float(np.dot(g, d))
        if not slope > 0.0:
            d, slope = g, float(np.dot(g, g))
        total = ge.evaluation.total
        level = _ROUNDING * (sum(abs(t) for t in ge.evaluation.terms.values()) + abs(total))
        trial = _MIRROR_STEP
        accepted: tuple[np.ndarray, GradientEvaluation | None] | None = None
        for calls in range(1, _MAX_HALVINGS + 2):
            cand = phi - trial * d
            ev = objective.value(cand)
            if math.isfinite(ev.total) and not ev.divergent:
                if ev.total < total - max(_ARMIJO * trial * slope, level):
                    accepted = (cand, None)
                    break
                if abs(ev.total - total) <= level and np.any(cand != phi):
                    at_cand = objective.value_and_gradient(cand)
                    if (
                        float(np.dot(d, at_cand.grad)) > 0.0
                        and float(np.max(np.abs(at_cand.grad))) < gnorm
                    ):
                        accepted = (cand, at_cand)
                        break
            trial *= 0.5
        if accepted is None:
            records.append(record(it, 0.0, calls))
            reason = "no-descent"
            break
        phi, at_cand = accepted
        records.append(record(it, trial, calls))
        ge = at_cand if at_cand is not None else objective.value_and_gradient(phi)
    else:
        records.append(record(int(max_iters), 0.0, 0))
    return OptimTrace(
        phi=phi,
        gradient=ge,
        records=tuple(records),
        reason=reason,
        converged=(reason == "gradient-tolerance"),
    )


def _positive(what: str, value: float) -> None:
    """Reject a step or tolerance that is not finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{what} must be finite and positive, got {value}")


def finite_difference_gradient(
    objective: Objective, phi: np.ndarray | None = None, h: float = 1.0e-5
) -> np.ndarray:
    """Central differences of the total, one coordinate at a time."""
    _positive("finite difference step", h)
    base = np.array(
        objective.parameters() if phi is None else np.asarray(phi, dtype=np.float64)
    )
    grad = np.zeros_like(base)
    for i in range(base.size):
        bump = np.zeros_like(base)
        bump[i] = h
        grad[i] = (
            objective.value(base + bump).total - objective.value(base - bump).total
        ) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class GradientCheck:
    """Analytic-versus-numeric gradient comparison at one point."""

    analytic: np.ndarray
    numeric: np.ndarray
    max_abs_err: float
    rel_err: float
    score_residual: float
    step: float

    def passed(self, rel_tol: float = 1.0e-8, residual_tol: float = 1.0e-10) -> bool:
        _positive("relative error tolerance", rel_tol)
        _positive("score residual tolerance", residual_tol)
        return self.rel_err < rel_tol and self.score_residual < residual_tol


def check_gradient(
    objective: Objective, phi: np.ndarray | None = None, h: float = 1.0e-5
) -> GradientCheck:
    base = np.array(
        objective.parameters() if phi is None else np.asarray(phi, dtype=np.float64)
    )
    ge = objective.value_and_gradient(base)
    numeric = finite_difference_gradient(objective, base, h)
    diff = float(np.max(np.abs(ge.grad - numeric))) if base.size else 0.0
    scale = max(
        1.0,
        float(np.max(np.abs(ge.grad))) if base.size else 0.0,
        float(np.max(np.abs(numeric))) if base.size else 0.0,
    )
    return GradientCheck(
        analytic=ge.grad,
        numeric=numeric,
        max_abs_err=diff,
        rel_err=diff / scale,
        score_residual=ge.score_residual,
        step=h,
    )


@dataclass(frozen=True)
class ScanResult:
    """Every point-mass belief configuration with its objective total."""

    names: tuple[str, ...]
    totals: tuple[tuple[tuple[int, ...], float], ...]
    best: Mapping[str, int]
    best_total: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "best", MappingProxyType(dict(self.best)))


def map_scan(objective: Objective) -> ScanResult:
    """Score every point-mass internal belief of a map objective.

    Each internal variable's factor is replaced by a parentless point
    mass and the energy reading is evaluated; ties keep the first
    configuration in odometer order.
    """
    if objective.family != "map_point_mass":
        raise ConfigError(
            f"map_scan needs a 'map_point_mass' objective, got {objective.family!r}"
        )
    system = objective.system
    internal = _split_roles(system.variables)[1]
    if not internal:
        raise ConfigError("the system has no internal variables to scan")
    cards = tuple(system.variable(n).cardinality for n in internal)
    totals: list[tuple[tuple[int, ...], float]] = []
    best_combo: tuple[int, ...] | None = None
    best_total = math.inf
    for combo in np.ndindex(*cards):
        scanned = system
        for name, value in zip(internal, combo):
            scanned = scanned.with_factor(
                FactorSpec.point_mass(name, (), np.asarray(int(value)))
            )
        total = energy_entropy(scanned, objective.target).total
        totals.append((tuple(int(v) for v in combo), total))
        if total < best_total:
            best_total = total
            best_combo = tuple(int(v) for v in combo)
    assert best_combo is not None
    return ScanResult(
        names=internal,
        totals=tuple(totals),
        best=dict(zip(internal, best_combo)),
        best_total=best_total,
    )
