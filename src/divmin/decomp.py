"""Exact rearrangements of the divergence between a system and its target.

Every report certifies one algebraic identity or bound for the joint
divergence KL[p(omega) || q(omega)/Z]. A report stores the named terms with
the values their definitions give, a signed coefficient per term, and a
coefficient for ln Z, so a single machine check covers every form:

    sum_k combo[k] * terms[k] + lnz_coeff * ln Z  ==  joint_kl   ("equals")
    ... >= joint_kl, slack reported                ("lower-bounds-joint")

Variables split by role: input variables form the external side x, and all
internal variables (latent states, skills, parameters, actions) form z.
Conditionals such as p(z|x) or q(x_>|x_<) are exact marginal conditionals of
the materialized tables, which is what makes the identities hold to machine
precision on arbitrary systems rather than only on structured families.

Realized values enter two ways. Realized actions and skills are substituted
into the system (their factors become point masses), or treated as evidence
when ``realization="condition"``. Observed past inputs are always evidence.
Evidence keeps the full scope: the actual distribution is collapsed onto the
observed slice and renormalized, so term definitions need no special cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import NullEvidenceError, ValidationError
from .systems import (
    ActualSystem,
    FactorSpec,
    MarginalMirror,
    TargetSpec,
    build_joint,
    build_target,
    target_factor_scope,
)
from .tables import (
    Assignment,
    KLResult,
    Role,
    Table,
    UnnormalizedTable,
    Variable,
    _Layout,
    _safe_log,
    entropy,
    expected_log,
    kl,
    log_conditional,
    marginalize,
    reorder,
)

BAYES_TOL = 1e-9


@dataclass(frozen=True)
class Report:
    """One certified rearrangement of the joint divergence.

    ``terms`` holds each named quantity at face value; ``combo`` holds its
    signed coefficient in the reconstruction. ``joint_kl`` is the finite
    part of KL[p || q/Z] on the target's scope. When any contribution had
    actual mass on a zero of its reference, ``divergent`` is set and the
    finite parts exclude those outcomes.
    """

    equation: str
    terms: Mapping[str, float]
    combo: Mapping[str, float]
    log_partition: float
    lnz_coeff: float
    joint_kl: float
    relation: str
    divergent: bool
    extras: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.relation not in ("equals", "lower-bounds-joint"):
            raise ValidationError(f"unknown relation {self.relation!r}")
        if set(self.terms) != set(self.combo):
            raise ValidationError("terms and combo must name the same quantities")
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))
        object.__setattr__(self, "combo", MappingProxyType(dict(self.combo)))
        object.__setattr__(self, "extras", MappingProxyType(dict(self.extras)))

    @property
    def total(self) -> float:
        parts = [self.combo[k] * v for k, v in self.terms.items()]
        parts.append(self.lnz_coeff * self.log_partition)
        return math.fsum(parts)

    @property
    def slack(self) -> float:
        return self.total - self.joint_kl

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "relation": self.relation,
            "terms": dict(self.terms),
            "combo": dict(self.combo),
            "log_partition": self.log_partition,
            "lnz_coeff": self.lnz_coeff,
            "total": self.total,
            "joint_kl": self.joint_kl,
            "slack": self.slack,
            "divergent": self.divergent,
            "extras": dict(self.extras),
        }


def observe(table: Table, evidence: Assignment) -> Table:
    """Condition on evidence while keeping the full scope.

    Off-evidence entries become zero and the remainder renormalizes, so the
    result is the conditional distribution embedded in the original shape.
    """
    for name, value in evidence.items():
        card = table.variable(name).cardinality
        if not 0 <= value < card:
            raise ValidationError(f"evidence {name}={value} outside 0..{card - 1}")
    masked = np.where(_evidence_mask(table.scope, evidence), table.probs, 0.0)
    mass = masked.sum()
    if mass <= 0.0:
        raise NullEvidenceError(f"evidence {dict(evidence)} has zero mass")
    return Table(table.scope, masked / mass, copy=False)


def _evidence_mask(scope: Sequence[Variable], evidence: Assignment) -> np.ndarray:
    """True on the outcomes that agree with ``evidence``, on the axes of
    ``scope`` with length one off the evidence variables."""
    keep = np.ones((1,) * len(scope), dtype=bool)
    for v in scope:
        if v.name in evidence:
            sel = np.arange(v.cardinality) == evidence[v.name]
            keep = keep & _Layout((v.name,), scope).place(sel)
    return keep


def realize(
    system: ActualSystem,
    realized: Assignment | None,
    realization: str = "intervene",
) -> tuple[ActualSystem, dict[str, int]]:
    """Apply realized values, returning the substituted system and evidence.

    Actions and skills are substituted into the system unless
    ``realization="condition"`` demotes them to evidence; observed past
    inputs always become evidence, since observing an exogenous input never
    severs its incoming arrows. A substituted variable's factor becomes a
    parentless point mass and the factors downstream are left untouched,
    so upstream marginals keep their values, unlike under conditioning.
    Every value is range-checked here, so an objective with an impossible
    realization fails when it is built.
    """
    if realization not in ("intervene", "condition"):
        raise ValidationError(
            f"realization must be 'intervene' or 'condition', got {realization!r}"
        )
    substituted: dict[str, int] = {}
    evidence: dict[str, int] = {}
    for name, value in dict(realized or {}).items():
        variable = system.variable(name)
        role = variable.role
        if not role.realizable:
            raise ValidationError(
                f"cannot realize {name!r} with role {role.value}"
            )
        value = int(value)
        if not 0 <= value < variable.cardinality:
            raise ValidationError(
                f"realized {name}={value} out of range for cardinality {variable.cardinality}"
            )
        if role is Role.PAST_INPUT or realization == "condition":
            evidence[name] = value
        else:
            substituted[name] = value
    if not substituted:
        return system, evidence
    factors = dict(system.factors)
    for name, value in substituted.items():
        factors[name] = FactorSpec.point_mass(name, (), value)
    return ActualSystem(system.variables, factors.values()), evidence


def _check_evidence_scope(evidence: Assignment, scope: Sequence[str]) -> None:
    """Reject evidence on a variable the target does not score."""
    for name in evidence:
        if name not in scope:
            raise ValidationError(f"evidence variable {name!r} is outside the target scope")


def _prepare(
    system: ActualSystem,
    target: TargetSpec,
    realized: Assignment | None = None,
    realization: str = "intervene",
) -> tuple[Table, UnnormalizedTable, Table, ActualSystem]:
    """Materialize (actual, target) on the target scope, applying realizations.

    Returns (p, q, full joint, realized system); the last two are what
    target factors that mirror the system are read against.
    """
    realized_system, evidence = realize(system, realized, realization)
    joint = build_joint(realized_system)
    q = build_target(target, realized_system, joint)
    p = reorder(marginalize(joint, q.names), q.names)
    _check_evidence_scope(evidence, q.names)
    if evidence:
        p = observe(p, evidence)
    return p, q, joint, realized_system


def _split_roles(scope: Sequence[Variable]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(input variables, internal variables) of a scope, in scope order."""
    x = tuple(v.name for v in scope if v.role.is_input)
    z = tuple(v.name for v in scope if not v.role.is_input)
    return x, z


def _split_time(scope: Sequence[Variable]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(past inputs, future inputs) of a scope, in scope order."""
    past = tuple(v.name for v in scope if v.role is Role.PAST_INPUT)
    future = tuple(v.name for v in scope if v.role is Role.FUTURE_INPUT)
    return past, future


# name -> (signed coefficient, value, divergent) of one report term
Terms = dict[str, tuple[float, float, bool]]


def _certify(
    equation: str,
    p: Table,
    q: UnnormalizedTable,
    terms: Terms,
    lnz_coeff: float = 0.0,
    relation: str = "equals",
    extras: Mapping[str, float] | None = None,
) -> Report:
    """The report of ``terms`` on a prepared pair.

    ``joint_kl``, ln Z and the divergent flag come from KL[p || q]; the
    flag is also set when any term diverged.
    """
    ref = kl(p, q)
    return Report(
        equation=equation,
        terms={name: value for name, (_, value, _) in terms.items()},
        combo={name: coeff for name, (coeff, _, _) in terms.items()},
        log_partition=ref.log_partition,
        lnz_coeff=lnz_coeff,
        joint_kl=ref.kl_nats,
        relation=relation,
        divergent=ref.divergent or any(d for _, _, d in terms.values()),
        extras=extras or {},
    )


def joint_kl(
    system: ActualSystem,
    target: TargetSpec,
    realized: Assignment | None = None,
    realization: str = "intervene",
) -> KLResult:
    """KL[p || q/Z] on the target's scope, with ln Z reported separately.

    When the target scope is a strict subset of the system's variables, the
    actual distribution is marginalized onto that scope first.
    """
    p, q, _, _ = _prepare(system, target, realized, realization)
    return kl(p, q)


def fully_matched_target(system: ActualSystem) -> TargetSpec:
    """A target equal to the system's own joint; every divergence vanishes."""
    names = system.names
    return TargetSpec(names, [MarginalMirror(names, ())])


def decompose_latent_side(
    system: ActualSystem,
    target: TargetSpec,
    realized: Assignment | None = None,
    realization: str = "intervene",
) -> Report:
    """Split the joint divergence through the internal variables.

    joint_kl = E_x KL[p(z|x) || q(z)] - E[ln q(x|z) - ln p(x)]. The second
    term is a variational lower bound on the information the internal
    variables carry about the inputs; its gap to that information is an
    expected conditional divergence.
    """
    p, q, _, _ = _prepare(system, target, realized, realization)
    return _certify("info_latent", p, q, _latent_side(p, q))


def _latent_side(p: Table, q: UnnormalizedTable) -> Terms:
    x, z = _split_roles(p.scope)
    return {
        "latent_pref_kl": (
            1.0, *expected_log(p, log_conditional(p, z, x), log_conditional(q, z, ()))
        ),
        "info_bound": (-1.0, *expected_log(p, log_conditional(q, x, z), log_conditional(p, x, ()))),
    }


def decompose_input_side(
    system: ActualSystem,
    target: TargetSpec,
    realized: Assignment | None = None,
    realization: str = "intervene",
) -> Report:
    """Mirror split through the inputs.

    joint_kl = E_z KL[p(x|z) || q(x)] - E[ln q(z|x) - ln p(z)].
    """
    p, q, _, _ = _prepare(system, target, realized, realization)
    return _certify("info_input", p, q, _input_side(p, q))


def _input_side(p: Table, q: UnnormalizedTable) -> Terms:
    x, z = _split_roles(p.scope)
    return {
        "input_pref_kl": (
            1.0, *expected_log(p, log_conditional(p, x, z), log_conditional(q, x, ()))
        ),
        "info_bound_latent": (
            -1.0, *expected_log(p, log_conditional(q, z, x), log_conditional(p, z, ()))
        ),
    }


def energy_entropy(system: ActualSystem, target: TargetSpec) -> Report:
    """joint_kl = E_p[-ln q~] - H[p] + ln Z, the physics-style reading."""
    p, q, _, _ = _prepare(system, target)
    return _certify("energy_entropy", p, q, _energy_entropy(p, q), lnz_coeff=1.0)


def _energy_entropy(p: Table, q: UnnormalizedTable) -> Terms:
    cross, diverged = expected_log(p, _safe_log(q.weights))
    return {"energy": (1.0, -cross, diverged), "entropy": (-1.0, entropy(p), False)}


def expected_free_energy(system: ActualSystem, target: TargetSpec) -> Report:
    """joint_kl = [E[-ln q(x|z)] + E_x KL[p(z|x) || q(z)]] - H[p(x)]."""
    p, q, _, _ = _prepare(system, target)
    x, z = _split_roles(p.scope)
    reconstruction, d1 = expected_log(p, log_conditional(q, x, z))
    latent_pref, d2 = expected_log(p, log_conditional(p, z, x), log_conditional(q, z, ()))
    terms = {
        "efe": (1.0, -reconstruction + latent_pref, d1 or d2),
        "input_entropy": (-1.0, entropy(p, x) if x else 0.0, False),
    }
    return _certify("efe", p, q, terms)


def past_future_split(
    system: ActualSystem,
    target: TargetSpec,
    realized: Assignment | None = None,
    realization: str = "intervene",
) -> Report:
    """Four-term upper bound on the joint divergence across the time split.

    joint_kl <= E KL[p(z|x_<) || q(z)] - E[ln q(x_<|z) - ln p(x_<)]
             + E KL[p(x_>|x_<,z) || q(x_>|x_<)] - E[ln q(z|x) - ln p(z|x_<)]

    The slack equals E_{p(x_<)} KL[p(z|x_<) || q(z|x_<)], hence it is
    non-negative and vanishes exactly when the target's internal-given-past
    conditional matches the actual one. The past inputs x_< and future
    inputs x_> are the variables with those roles, whatever their order.
    """
    p, q, _, _ = _prepare(system, target, realized, realization)
    return _certify("combined", p, q, _past_future(p, q), relation="lower-bounds-joint")


def _past_future(p: Table, q: UnnormalizedTable) -> Terms:
    """The terms of :func:`past_future_split`."""
    past, future = _split_time(p.scope)
    x = past + future
    z = tuple(n for n in p.names if n not in set(x))
    log_p_z_past = log_conditional(p, z, past)
    return {
        "past_latent_pref": (1.0, *expected_log(p, log_p_z_past, log_conditional(q, z, ()))),
        "repr_learning": (
            -1.0, *expected_log(p, log_conditional(q, past, z), log_conditional(p, past, ()))
        ),
        "future_input_pref": (
            1.0,
            *expected_log(
                p, log_conditional(p, future, past + z), log_conditional(q, future, past)
            ),
        ),
        "exploration": (-1.0, *expected_log(p, log_conditional(q, z, x), log_p_z_past)),
    }


def bayesian_future_check(
    system: ActualSystem,
    target: TargetSpec,
    realized: Assignment | None = None,
) -> Report:
    """Split into a past inference problem and an uncontrolled future term.

    joint_kl = KL[p(x_<, z) || q(x_<, z)] + E KL[p(x_>|x_<) || q(x_>|z)].

    The second term is zero exactly when the actual future given the past
    already follows the target's latent-conditioned future, i.e. when the
    system behaves as a Bayesian filter for the target model. The identity
    needs the filtering structure, which is validated: internal factors may
    condition only on past inputs and other internal variables, the actual
    future factors may not condition on internal variables, and the
    target's future factors may touch only future inputs and internals.
    """
    if system.by_role(Role.ACTION, Role.SKILL):
        raise ValidationError(
            "the past/future inference split is for passive systems; "
            "found action or skill variables"
        )
    past = set(system.by_role(Role.PAST_INPUT))
    future = set(system.by_role(Role.FUTURE_INPUT))
    internal = {v.name for v in system.variables if not v.role.is_input}
    for name in internal:
        extra = set(system.factors[name].parents) - past - internal
        if extra:
            raise ValidationError(
                f"internal factor {name!r} conditions on {sorted(extra)}; "
                "only past inputs and internal variables are allowed"
            )
    for name in future:
        bad = set(system.factors[name].parents) & internal
        if bad:
            raise ValidationError(
                f"future input {name!r} conditions on internal {sorted(bad)}; "
                "the actual future may depend on inputs only"
            )
    for f in target.factors:
        fvars = set(target_factor_scope(f, system))
        if fvars & future and not fvars <= future | internal:
            raise ValidationError(
                "target factors over future inputs may touch only future "
                f"inputs and internal variables; offending scope {sorted(fvars)}"
            )

    p, q, _, _ = _prepare(system, target, realized, "condition")
    past_t = tuple(n for n in p.names if n in past or n in internal)
    fut_t = tuple(n for n in p.names if n in future)
    z = tuple(n for n in p.names if n in internal)
    past_only = tuple(n for n in p.names if n in past)

    uncontrolled, d2 = expected_log(
        p, log_conditional(p, fut_t, past_only), log_conditional(q, fut_t, z)
    )
    terms = {
        "past_vi": (
            1.0, *expected_log(p, log_conditional(p, past_t, ()), log_conditional(q, past_t, ()))
        ),
        "uncontrolled_future": (1.0, uncontrolled, d2),
    }
    extras = {"bayesian_satisfied": float(not d2 and uncontrolled < BAYES_TOL)}
    return _certify("missing_data", p, q, terms, extras=extras)
