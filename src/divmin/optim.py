"""Descent, gradient certification, and exhaustive point-mass scans.

The minimizer is plain gradient descent with a backtracking line search:
from twice the last accepted step it halves until the strict Armijo
condition f(phi - t g) < f(phi) - c t |g|^2 holds, rejecting any candidate
whose evaluation is divergent or non-finite. That candidates are rejected
rather than compared means divergent regions act as infinite walls, so
descent never walks onto a zero of the target that carries actual mass.

Near a minimum the Armijo decrease falls below the rounding of the total,
a few float spacings of its summed term magnitudes. A candidate whose
total lies within that rounding of f(phi) is accepted only if it moves
phi and the slope along the step is still downhill there, g . grad
f(phi - t g) > 0; the gradient computed for that test is reused by the
next iteration. Descent thus keeps shrinking the gradient past the
resolution of the total, never takes a step that merely rounds level,
and stops with ``"no-descent"`` once neither test can pass.

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

from .decomp import energy_entropy
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


@dataclass(frozen=True)
class IterationRecord:
    """One visited point: value breakdown, gradient size, accepted step."""

    iteration: int
    total: float
    grad_norm: float
    step: float
    terms: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))


@dataclass(frozen=True)
class OptimTrace:
    """Final point of a descent run plus the per-iteration history."""

    phi: np.ndarray
    evaluation: Evaluation
    records: tuple[IterationRecord, ...]
    reason: str
    converged: bool

    @property
    def total(self) -> float:
        return self.evaluation.total


def minimize(
    objective: Objective,
    phi0: np.ndarray | None = None,
    max_iters: int = 5000,
    grad_tol: float = 1.0e-7,
    initial_step: float = 1.0,
    max_halvings: int = 30,
    armijo: float = 1.0e-4,
) -> OptimTrace:
    """Gradient descent until the max-abs gradient entry falls under ``grad_tol``.

    Termination reasons: ``"gradient-tolerance"`` (converged),
    ``"no-descent"`` (the line search exhausted its halvings), and
    ``"max-iterations"``.
    """
    if max_iters < 1 or max_halvings < 0 or grad_tol < 0.0 or initial_step <= 0.0:
        raise ConfigError(
            "minimize needs max_iters >= 1, max_halvings >= 0, "
            "grad_tol >= 0, and a positive initial step"
        )
    phi = np.array(
        objective.parameters() if phi0 is None else np.asarray(phi0, dtype=np.float64)
    )
    ge = objective.value_and_gradient(phi)
    if ge.evaluation.divergent:
        raise DivergenceError("the objective diverges at the starting point")

    step = float(initial_step)
    records: list[IterationRecord] = []
    reason = "max-iterations"
    for it in range(int(max_iters)):
        g = ge.grad
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= grad_tol:
            records.append(IterationRecord(it, ge.evaluation.total, gnorm, 0.0, ge.evaluation.terms))
            reason = "gradient-tolerance"
            break
        gsq = float(np.dot(g, g))
        total = ge.evaluation.total
        level = _ROUNDING * (sum(abs(t) for t in ge.evaluation.terms.values()) + abs(total))
        trial = min(step * 2.0, 1.0e6)
        accepted: tuple[np.ndarray, float, GradientEvaluation | None] | None = None
        for _ in range(int(max_halvings) + 1):
            cand = phi - trial * g
            ev = objective.value(cand)
            if math.isfinite(ev.total) and not ev.divergent:
                if ev.total < total - armijo * trial * gsq:
                    accepted = (cand, trial, None)
                    break
                if abs(ev.total - total) <= level and np.any(cand != phi):
                    at_cand = objective.value_and_gradient(cand)
                    if float(np.dot(g, at_cand.grad)) > 0.0:
                        accepted = (cand, trial, at_cand)
                        break
            trial *= 0.5
        if accepted is None:
            records.append(IterationRecord(it, total, gnorm, 0.0, ge.evaluation.terms))
            reason = "no-descent"
            break
        records.append(IterationRecord(it, total, gnorm, accepted[1], ge.evaluation.terms))
        phi, step, at_cand = accepted
        ge = at_cand if at_cand is not None else objective.value_and_gradient(phi)
    else:
        gnorm = float(np.max(np.abs(ge.grad))) if ge.grad.size else 0.0
        records.append(
            IterationRecord(int(max_iters), ge.evaluation.total, gnorm, 0.0, ge.evaluation.terms)
        )
    return OptimTrace(
        phi=phi,
        evaluation=ge.evaluation,
        records=tuple(records),
        reason=reason,
        converged=(reason == "gradient-tolerance"),
    )


def finite_difference_gradient(
    objective: Objective, phi: np.ndarray | None = None, h: float = 1.0e-5
) -> np.ndarray:
    """Central differences of the total, one coordinate at a time."""
    if h <= 0.0:
        raise ConfigError(f"finite difference step must be positive, got {h}")
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

    def passed(self, rel_tol: float = 1.0e-5, residual_tol: float = 1.0e-10) -> bool:
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
    internal = tuple(
        n for n in system.names if not system.variable(n).role.is_input
    )
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
