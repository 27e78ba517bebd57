"""Named objective families over discrete causal systems.

Every family here is one way of reading the same quantity: the joint
divergence KL[p || q/Z] between what a system actually does and an
unnormalized product of target factors. A family differs from the others
only in its target and in how it splits the divergence into terms.

Each family has a builder that validates its inputs, takes the options it
reads out of the options mapping, and returns the family's parts:

* the target, given or built from the options;
* the engine terms and ln Z coefficient, whose signed sum is what gradient
  descent minimizes;
* a report body, which rearranges the divergence into the family's named
  terms on a prepared (p, q) pair and certifies it through
  ``decomp._certify``;
* ``total_matches_report``: when set, the engine total equals the report
  total to numerical precision at every parameter point; when clear, the
  engine optimizes a single bound term whose face value still appears in
  the report.

:func:`make_objective` alone turns the parts into an
:class:`~divmin.engine.Engine` and an :class:`Objective`, and rejects any
option the builder left unread.

The identities behind each family, with x the inputs and z the internal
variables on the target scope, and the option keys each one reads:

``joint_kl`` (no options)
    The divergence itself, no rearrangement.

``elbo_bnn`` (no options)
    For a fixed data distribution p(x), a prior over beliefs, and
    per-observation likelihoods, KL = complexity - accuracy + constant
    where complexity = E_x KL[p(z|x) || q(z)], accuracy is the expected
    log-likelihood of the data, and the constant collects the covariate
    count and the data entropy. Minimizing the engine total is exactly
    maximizing the evidence lower bound.

``map_point_mass`` (no options)
    The energy reading KL = E_p[-ln q~] - H[p] + ln Z. Over point-mass
    beliefs the entropy vanishes and minimization reduces to picking the
    configuration with the largest raw target weight.

``amortized_vae`` (``form``)
    The two conditional splits of the divergence. "reconstruction" uses
    KL = complexity - fit_bound with fit_bound = E[ln q(x|z) - ln p(x)];
    "contrastive" mirrors it through the inputs.

``kl_control`` (``rewards``, ``mode``, ``priors``) / ``maxent_rl`` (``rewards``)
    Decision variables pay E[ln pi(a|s) / prior(a)] while rewarded
    inputs earn E[r]; mirrored dynamics cancel, so the divergence equals
    the control cost minus the expected reward plus ln Z. ``maxent_rl``
    is the uniform-prior special case. Mode "kl-regularized" swaps the
    mirrored dynamics for the action-averaged passive dynamics on the
    input scope, and "expected-reward" mirrors the actual dynamics
    entirely so only the reward terms remain to optimize.

``empowerment`` (``channel_effects``)
    The input-side split, read as a channel: the engine maximizes
    gen_empowerment_bound = E[ln q(z|x) - ln p(z)], a variational lower
    bound on the mutual information between actions and effects.

``skill_discovery`` (``predictor``, ``action_prior``)
    Mirrored dynamics plus a reverse predictor q(z|observations) give
    KL = control + action_complexity - skill_info_bound + ln Z, where
    the bound is a variational lower bound on I(skill; observations).

``info_gain`` (``optimize``)
    The four-term past/future reading, with past and future inputs taken
    from the variables' roles. The engine either descends the
    whole bound ("bound") or just the negated information-gain term
    ("intrinsic"), a lower bound on I(z; all inputs) - I(z; past).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .decomp import (
    Report,
    _certify,
    _check_evidence_scope,
    _energy_entropy,
    _input_side,
    _latent_side,
    _past_future,
    _prepare,
    _split_roles,
    _split_time,
)
from .engine import (
    ActualLog,
    Engine,
    Evaluation,
    GradientEvaluation,
    Payoff,
    TargetFactorLog,
    TargetLog,
    Term,
)
from .errors import ConfigError
from .systems import (
    ActualSystem,
    ConditionalFactor,
    FactorMirror,
    MarginalMirror,
    ParamFactor,
    RewardFactor,
    TableFactor,
    TargetSpec,
    target_factor_log_array,
    target_factor_scope,
)
from .tables import (
    Role,
    Table,
    UnnormalizedTable,
    _Layout,
    entropy,
    expected_conditional_kl,
    expected_log,
    kl,
    log_conditional,
    mutual_information,
)

Assignment = Mapping[str, int]

FAMILY_TAGS: dict[str, str] = {
    "joint_kl": "jointkl",
    "elbo_bnn": "elbo",
    "map_point_mass": "map",
    "amortized_vae": "vae",
    "kl_control": "control",
    "maxent_rl": "maxentrl",
    "empowerment": "empowerment",
    "skill_discovery": "skills",
    "info_gain": "infogain",
}

# The eight specialized families; "joint_kl" is the base objective they
# all rearrange, not a member of the catalog.
OBJECTIVE_FAMILIES: tuple[str, ...] = tuple(
    name for name in FAMILY_TAGS if name != "joint_kl"
)

# (target, p, q, full joint, realized system) -> certified report
ReportBody = Callable[[TargetSpec, Table, UnnormalizedTable, Table, ActualSystem], Report]
# Rejects evidence, realized by the engine, that a family cannot take.
EvidenceCheck = Callable[[Assignment], None]
# (target, engine terms, ln Z coefficient, report body, total_matches_report,
# evidence check beyond the target scope, or None)
Parts = tuple[TargetSpec, list[Term], float, ReportBody, bool, EvidenceCheck | None]


@dataclass(frozen=True)
class Objective:
    """One family bound to a concrete system, target, and realization.

    ``engine`` evaluates the optimized functional and its exact gradient;
    ``report(phi)`` re-derives the certified decomposition at the same
    parameter point. ``total_matches_report`` states whether the engine
    total and the report total are the same number.
    """

    family: str
    engine: Engine
    total_matches_report: bool
    _report: ReportBody = field(repr=False)

    @property
    def equation(self) -> str:
        return FAMILY_TAGS[self.family]

    @property
    def system(self) -> ActualSystem:
        return self.engine.system

    @property
    def target(self) -> TargetSpec:
        return self.engine.target

    def parameters(self) -> np.ndarray:
        return self.engine.parameters()

    def value(self, phi: np.ndarray | None = None) -> Evaluation:
        return self.engine.value(phi)

    def value_and_gradient(self, phi: np.ndarray | None = None) -> GradientEvaluation:
        return self.engine.value_and_gradient(phi)

    def report(self, phi: np.ndarray | None = None) -> Report:
        if phi is None:
            system, target = self.system, self.target
        else:
            system, target = self.engine.space.set(phi)
        p, q, joint, realized_system = _prepare(
            system, target, self.engine.realized, self.engine.realization
        )
        return self._report(target, p, q, joint, realized_system)


def make_objective(
    family: str,
    system: ActualSystem,
    target: TargetSpec | None = None,
    options: Mapping[str, object] | None = None,
    realized: Assignment | None = None,
    realization: str = "intervene",
) -> Objective:
    """Build the named family over ``system``.

    Families that derive their target from the options (the control
    modes, skill discovery, and, when none is given, empowerment and
    info gain) document that behaviour on their builders. Families that
    split the inputs into past and future read that split off the
    variables' roles. An option the family does not read raises
    :class:`ConfigError`.
    """
    builder = _BUILDERS.get(family)
    if builder is None:
        known = ", ".join(sorted(_BUILDERS))
        raise ConfigError(f"unknown objective family {family!r}; known families: {known}")
    options = dict(options or {})
    realized = dict(realized or {})
    target, terms, lnz_coeff, report, matches, check_evidence = builder(
        system, target, options, realized
    )
    if options:
        raise ConfigError(f"family {family!r} does not use the option(s) {sorted(options)}")
    engine = Engine(system, target, terms, lnz_coeff, realized, realization)
    if check_evidence is not None:
        check_evidence(engine.evidence)
    _check_evidence_scope(engine.evidence, target.scope)
    return Objective(family, engine, matches, report)


def from_preset(preset) -> Objective:
    """Instantiate the objective a preset describes."""
    options = dict(preset.options)
    realized = options.pop("realized", None)
    return make_objective(
        preset.family,
        preset.system,
        target=preset.target,
        options=options,
        realized=realized,
    )


# ---------------------------------------------------------------------------
# Shared construction helpers


def _face(target: TargetSpec, index: int, realized_system: ActualSystem, joint: Table) -> np.ndarray:
    """ln of one target factor on the target's axes."""
    return target_factor_log_array(target.factors[index], target, realized_system, joint)


def _summed(coeff: float, parts: list[tuple[float, bool]]) -> tuple[float, float, bool]:
    """One report term made of several (value, divergent) parts."""
    return coeff, math.fsum(v for v, _ in parts), any(d for _, d in parts)


def _expected_payoff(p: Table, name: str, values: np.ndarray) -> float:
    arr = _Layout((name,), p.scope).place(np.asarray(values, dtype=np.float64))
    return float((p.probs * arr).sum())


def _numbers(option: str, values) -> np.ndarray:
    """An option's values as a float64 array."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"option {option!r} must hold numbers, got {values!r}") from None


def _per_variable(option: str, values) -> Mapping:
    """An option that maps variable names to values."""
    if not isinstance(values, Mapping):
        raise ConfigError(f"option {option!r} must map variable names to values, got {values!r}")
    return values


def _names(option: str, values) -> tuple:
    """An option that lists variable names, as a tuple; a text is not a
    list of its letters."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ConfigError(f"option {option!r} must list variable names, got {values!r}")
    return tuple(values)


def _uniform(cardinality: int) -> np.ndarray:
    return np.full(cardinality, 1.0 / cardinality)


def _check_no_realization(family: str, realized: Assignment) -> None:
    if realized:
        raise ConfigError(f"family {family!r} does not support realized values")


def _reject_target(family: str, target: TargetSpec | None, instead: str) -> None:
    if target is not None:
        raise ConfigError(
            f"family {family!r} builds its target from the options; pass {instead} instead"
        )


def _beliefs(family: str, system: ActualSystem) -> tuple[str, ...]:
    """The internal variables, each of which must be a belief: a variable
    with the parameter role."""
    internal = _split_roles(system.variables)[1]
    if not internal:
        raise ConfigError(f"family {family!r} needs at least one belief variable")
    for n in internal:
        role = system.variable(n).role
        if role is not Role.PARAMETER:
            raise ConfigError(
                f"belief variables must carry the parameter role; {n!r} has role {role.value!r}"
            )
    return internal


def _minus_raw_log(target: TargetSpec) -> tuple[tuple[float, TargetFactorLog], ...]:
    """-ln q~ as term parts: the raw target log-weight is the sum of its
    factors' logs, so one factor log per target factor."""
    return tuple((-1.0, TargetFactorLog(i)) for i in range(len(target.factors)))


# ---------------------------------------------------------------------------
# joint_kl


def _build_joint_kl(system, target, options, realized) -> Parts:
    """The divergence itself; the report holds a single term."""
    if target is None:
        raise ConfigError("family 'joint_kl' needs an explicit target")
    terms = [
        Term("cross", 1.0, ((1.0, ActualLog(tuple(target.scope))), *_minus_raw_log(target))),
    ]

    def report(tgt, p, q, joint, rsys) -> Report:
        ref = kl(p, q)
        return _certify("jointkl", p, q, {"joint_kl": (1.0, ref.kl_nats, ref.divergent)})

    return target, terms, 1.0, report, True, None


# ---------------------------------------------------------------------------
# elbo_bnn


def _build_elbo(system, target, options, realized) -> Parts:
    """Variational inference over belief variables against prior times likelihoods.

    The target must consist of factors over the belief variables (the
    prior pieces) plus normalized conditionals whose child is an input
    (the likelihoods). Keeping the data distribution fixed makes the
    leftover constant parameter-free: the engine reads it as E_p[ln p(x)]
    plus the covariates' log counts, with no gradient.
    """
    _check_no_realization("elbo_bnn", realized)
    if target is None:
        raise ConfigError("family 'elbo_bnn' needs an explicit target (prior and likelihoods)")
    if system.by_role(Role.ACTION, Role.SKILL):
        raise ConfigError("family 'elbo_bnn' is for passive inference; found action or skill variables")
    inputs = system.inputs()
    internal = _beliefs("elbo_bnn", system)
    for n in inputs:
        if system.factors[n].logits is not None:
            raise ConfigError(f"input {n!r} is parameterized; the data distribution must stay fixed")
        inward = set(system.factors[n].parents) & set(internal)
        if inward:
            raise ConfigError(
                f"input {n!r} depends on belief variables {sorted(inward)}; "
                "the data distribution must stay fixed"
            )

    lik_idx: list[int] = []
    children: set[str] = set()
    for i, f in enumerate(target.factors):
        if isinstance(f, ConditionalFactor) and f.child in inputs:
            if f.child in children:
                raise ConfigError(f"input {f.child!r} appears as a likelihood child twice")
            children.add(f.child)
            lik_idx.append(i)
        else:
            scope_f = target_factor_scope(f, system)
            if not set(scope_f) <= set(internal):
                raise ConfigError(
                    "target factors must be priors over the belief variables or "
                    f"likelihoods with an input child; offending scope {scope_f}"
                )
    if not lik_idx:
        raise ConfigError("the target carries no likelihood factors")
    for i in lik_idx:
        bad = set(target.factors[i].parents) & children
        if bad:
            raise ConfigError(
                f"likelihood for {target.factors[i].child!r} conditions on outcome "
                f"{sorted(bad)}; parents must be covariates or belief variables"
            )

    x, z = _split_roles(tuple(map(system.variable, target.scope)))
    covariate_logs = [math.log(system.variable(n).cardinality) for n in x if n not in children]
    terms = [
        Term("complexity", 1.0, ((1.0, ActualLog(z, x)), (-1.0, TargetLog(z)))),
        Term("accuracy", -1.0, tuple((1.0, TargetFactorLog(i)) for i in lik_idx)),
        Term("constant", 1.0, ((1.0, ActualLog(x)), (1.0, Payoff((), math.fsum(covariate_logs))))),
    ]

    def report(tgt, p, q, joint, rsys) -> Report:
        parts = {
            "complexity": (
                1.0, *expected_log(p, log_conditional(p, z, x), log_conditional(q, z, ()))
            ),
            "accuracy": _summed(
                -1.0, [expected_log(p, _face(tgt, i, rsys, joint)) for i in lik_idx]
            ),
            "constant": (1.0, math.fsum(covariate_logs + [-entropy(p, x)]), False),
        }
        extras = {"posterior_kl": expected_conditional_kl(p, q, z, x).kl_nats}
        return _certify("elbo", p, q, parts, extras=extras)

    return target, terms, 0.0, report, True, None


# ---------------------------------------------------------------------------
# map_point_mass


def _build_map(system, target, options, realized) -> Parts:
    """Energy minus entropy; over point masses this is raw-weight maximization."""
    _check_no_realization("map_point_mass", realized)
    if target is None:
        raise ConfigError("family 'map_point_mass' needs an explicit target")
    terms = [
        Term("energy", 1.0, _minus_raw_log(target)),
        Term("entropy", -1.0, ((-1.0, ActualLog(tuple(target.scope))),)),
    ]

    def report(tgt, p, q, joint, rsys) -> Report:
        return _certify("map", p, q, _energy_entropy(p, q), lnz_coeff=1.0)

    return target, terms, 1.0, report, True, None


# ---------------------------------------------------------------------------
# amortized_vae


def _build_vae(system, target, options, realized) -> Parts:
    """Encoder-decoder splits of the divergence.

    ``form="reconstruction"`` charges the code complexity against a
    reconstruction-style bound; ``form="contrastive"`` mirrors the split
    through the inputs. Data and code are the input and internal
    variables of the target scope.
    """
    if target is None:
        raise ConfigError("family 'amortized_vae' needs an explicit target (code prior and decoder)")
    form = options.pop("form", "reconstruction")
    if form not in ("reconstruction", "contrastive"):
        raise ConfigError(f"unknown amortized_vae form {form!r}")
    x_scope, z_scope = _split_roles(tuple(map(system.variable, target.scope)))
    if not x_scope or not z_scope:
        raise ConfigError("the target scope must contain both data and code variables")

    if form == "reconstruction":
        terms = [
            Term("complexity", 1.0, ((1.0, ActualLog(z_scope, x_scope)), (-1.0, TargetLog(z_scope)))),
            Term("fit_bound", -1.0, ((1.0, TargetLog(x_scope, z_scope)), (-1.0, ActualLog(x_scope)))),
        ]
        split = _latent_side
        names = {"latent_pref_kl": "complexity", "info_bound": "fit_bound"}
    else:
        terms = [
            Term("input_pref", 1.0, ((1.0, ActualLog(x_scope, z_scope)), (-1.0, TargetLog(x_scope)))),
            Term("code_bound", -1.0, ((1.0, TargetLog(z_scope, x_scope)), (-1.0, ActualLog(z_scope)))),
        ]
        split = _input_side
        names = {"input_pref_kl": "input_pref", "info_bound_latent": "code_bound"}

    def report(tgt, p, q, joint, rsys) -> Report:
        parts = split(p, q)
        return _certify("vae", p, q, {new: parts[old] for old, new in names.items()})

    return target, terms, 0.0, report, True, None


# ---------------------------------------------------------------------------
# kl_control / maxent_rl


def _control_rewards(system, rewards: Mapping) -> dict[str, np.ndarray]:
    inputs = system.inputs()
    out: dict[str, np.ndarray] = {}
    for name, values in _per_variable("rewards", rewards or {}).items():
        if name not in inputs:
            raise ConfigError(f"reward variable {name!r} is not an input")
        arr = _numbers("rewards", values)
        card = system.variable(name).cardinality
        if arr.shape != (card,):
            raise ConfigError(f"reward for {name!r} has shape {arr.shape}, expected ({card},)")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"reward for {name!r} must be finite")
        out[name] = arr
    return out


def _build_control(system, target, options, realized, family="kl_control") -> Parts:
    """Shared construction for kl_control and maxent_rl.

    The target is built from the options, so an explicit target is an
    error. ``maxent_rl`` reads only ``rewards``: its mode is "kl-control"
    and its action priors are uniform. Decision variables are exactly the
    parameterized factors of the system. Realized actions must be
    interventions; evidence is accepted only by mode "kl-regularized",
    and only on its inputs.
    """
    _reject_target(family, target, "rewards")
    if family == "maxent_rl":
        mode = "kl-control"
        cost_name, gain_name = "action_complexity", "reward"
    else:
        mode = options.pop("mode", "kl-control")
        cost_name, gain_name = "control_cost", "expected_pref"
    if mode not in ("kl-control", "kl-regularized", "expected-reward"):
        raise ConfigError(f"unknown control mode {mode!r}")

    inputs = system.inputs()
    decisions = tuple(n for n in system.names if system.factors[n].logits is not None)
    if not decisions:
        raise ConfigError("control families need at least one parameterized decision variable")
    for n in decisions:
        role = system.variable(n).role
        if role not in (Role.ACTION, Role.SKILL) and not role.is_input:
            raise ConfigError(
                f"parameterized variable {n!r} has role {role.value!r}; "
                "control families steer actions, skills, or inputs"
            )
    for n in system.by_role(Role.ACTION):
        if n not in decisions:
            raise ConfigError(f"action variable {n!r} is not parameterized")
    rewards = _control_rewards(system, options.pop("rewards", {}))
    states = tuple(n for n in inputs if n not in decisions)
    # Conditioning p breaks the cancellation of the mirrored dynamics, so
    # only "kl-regularized", whose target mirrors nothing, takes evidence,
    # and only on the inputs it scores.
    allowed = set(states) if mode == "kl-regularized" else set()

    def check_evidence(evidence: Assignment) -> None:
        stray = sorted(set(evidence) - allowed)
        if stray:
            raise ConfigError(
                f"mode {mode!r} cannot take {stray} as evidence; realize actions by intervention"
            )
    gains = [(f"{gain_name}_{inputs.index(v) + 1}", v) for v in inputs if v in rewards]

    factors: list = []
    # (term name, variable, given, target-factor index) of every KL term,
    # read by the engine terms and the report alike.
    kl_terms: list[tuple[str, str, tuple[str, ...], int]] = []
    if mode == "kl-control":
        given = {} if family == "maxent_rl" else options.pop("priors", None) or {}
        priors = {k: _numbers("priors", v) for k, v in _per_variable("priors", given).items()}
        for k in priors:
            if k not in decisions:
                raise ConfigError(f"prior given for {k!r}, which is not a decision variable")
        for v in system.names:
            if v in decisions:
                card = system.variable(v).cardinality
                vec = priors[v] if v in priors else _uniform(card)
                if vec.shape != (card,) or np.any(vec <= 0.0) or not np.all(np.isfinite(vec)):
                    raise ConfigError(f"prior for {v!r} must be a positive vector of length {card}")
                name = f"{cost_name}_{decisions.index(v) + 1}"
                kl_terms.append((name, v, system.factors[v].parents, len(factors)))
                factors.append(TableFactor((v,), vec))
            else:
                factors.append(FactorMirror(v))
        scope = system.names
    elif mode == "kl-regularized":
        overlap = tuple(d for d in decisions if d in inputs)
        if overlap:
            raise ConfigError(
                f"mode 'kl-regularized' needs decisions outside the inputs; found {overlap}"
            )
        for t, v in enumerate(states, start=1):
            f = system.factors[v]
            extra = set(f.parents) - set(states) - set(decisions)
            if extra:
                raise ConfigError(
                    f"input {v!r} conditions on {sorted(extra)}; passive dynamics "
                    "need input and decision parents only"
                )
            cond = system.factor_conditional(v)
            dec_axes = tuple(i for i, pname in enumerate(f.parents) if pname in decisions)
            avg = cond.mean(axis=dec_axes) if dec_axes else cond
            state_parents = tuple(pname for pname in f.parents if pname not in decisions)
            kl_terms.append((f"control_{t}", v, states[: t - 1], len(factors)))
            if state_parents:
                factors.append(ConditionalFactor(v, state_parents, avg))
            else:
                factors.append(TableFactor((v,), avg))
        scope = states
    else:  # expected-reward
        if not rewards:
            raise ConfigError("mode 'expected-reward' needs at least one reward")
        for i, v in enumerate(inputs):
            factors.append(MarginalMirror((v,), inputs[:i]))
        scope = inputs
    factors.extend(RewardFactor((v,), rewards[v]) for _, v in gains)

    terms = [
        Term(name, 1.0, ((1.0, ActualLog((v,), given)), (-1.0, TargetFactorLog(index))))
        for name, v, given, index in kl_terms
    ]
    terms += [Term(name, -1.0, ((1.0, Payoff((v,), rewards[v])),)) for name, v in gains]
    # "expected-reward" mirrors the dynamics in full, so the engine descends
    # the expected reward alone while the report keeps ln Z.
    matches = mode != "expected-reward"

    def report(tgt, p, q, joint, rsys) -> Report:
        parts = {}
        for name, v, given, index in kl_terms:
            log_p = log_conditional(p, (v,), given)
            parts[name] = (1.0, *expected_log(p, log_p, _face(tgt, index, rsys, joint)))
        for name, v in gains:
            parts[name] = (-1.0, _expected_payoff(p, v, rewards[v]), False)
        return _certify(FAMILY_TAGS[family], p, q, parts, lnz_coeff=1.0)

    return (
        TargetSpec(scope, factors), terms, 1.0 if matches else 0.0, report, matches, check_evidence
    )


# ---------------------------------------------------------------------------
# empowerment


def _build_empowerment(system, target, options, realized) -> Parts:
    """Channel-capacity reading: maximize a bound on I(actions; effects).

    Without an explicit target a softmax decoder over the channel
    effects (``channel_effects``, by default the future inputs) is
    constructed, one factor per action variable with the earlier actions
    appended to its parents.
    """
    actions = system.by_role(Role.ACTION)
    if not actions:
        raise ConfigError("family 'empowerment' needs at least one action variable")
    if target is None:
        effects = _names("channel_effects", options.pop("channel_effects", None) or ())
        if not effects:
            effects = system.by_role(Role.FUTURE_INPUT)
        if not effects:
            raise ConfigError("no channel effects: pass channel_effects or add future inputs")
        for n in effects:
            if n not in system.inputs():
                raise ConfigError(f"channel effect {n!r} is not an input")
        factors = []
        for i, a in enumerate(actions):
            parents = effects + actions[:i]
            shape = tuple(system.variable(n).cardinality for n in parents) + (
                system.variable(a).cardinality,
            )
            factors.append(ParamFactor(a, parents, np.zeros(shape)))
        scope = tuple(n for n in system.names if n in set(effects) | set(actions))
        target = TargetSpec(scope, factors)
    x_scope, z_scope = _split_roles(tuple(map(system.variable, target.scope)))
    if not x_scope or not z_scope:
        raise ConfigError("the decoder scope must contain actions and effects")
    terms = [
        Term(
            "gen_empowerment_bound",
            -1.0,
            ((1.0, TargetLog(z_scope, x_scope)), (-1.0, ActualLog(z_scope))),
        )
    ]

    def report(tgt, p, q, joint, rsys) -> Report:
        parts = _input_side(p, q)
        extras = {
            "exact_mi": mutual_information(p, z_scope, x_scope),
            "mi_cap": min(entropy(p, z_scope), entropy(p, x_scope)),
        }
        renamed = {
            "control": parts["input_pref_kl"],
            "gen_empowerment_bound": parts["info_bound_latent"],
        }
        return _certify("empowerment", p, q, renamed, extras=extras)

    return target, terms, 0.0, report, False, None


# ---------------------------------------------------------------------------
# skill_discovery


def _build_skills(system, target, options, realized) -> Parts:
    """Reverse-predictor skill objective; the target comes from the options.

    Mirrored dynamics and (optionally mirrored) action priors cancel, so
    the joint divergence reduces to the negated variational bound on
    I(skill; observations) plus ln Z.
    """
    _reject_target("skill_discovery", target, "predictor and action_prior")
    skills = system.by_role(Role.SKILL)
    if len(skills) != 1:
        raise ConfigError(f"skill discovery needs exactly one skill variable, found {skills}")
    zname = skills[0]
    if system.factors[zname].parents:
        raise ConfigError(f"the skill variable {zname!r} must be a root of the system")
    actions = system.by_role(Role.ACTION)
    prior_mode = options.pop("action_prior", "policy")
    if prior_mode not in ("policy", "uniform"):
        raise ConfigError(f"unknown action_prior {prior_mode!r}")
    pred_opt = options.pop("predictor", None)
    if not isinstance(pred_opt, Mapping) or not {"child", "parents", "init"} <= set(pred_opt):
        raise ConfigError("skill discovery needs a predictor with child, parents, and init")
    if pred_opt["child"] != zname:
        raise ConfigError(f"the predictor must read back {zname!r}, got {pred_opt['child']!r}")
    pred_parents = _names("predictor parents", pred_opt["parents"])
    for n in pred_parents:
        if n not in system.inputs():
            raise ConfigError(f"predictor parent {n!r} is not an input")
    init = _numbers("predictor init", pred_opt["init"])
    want = tuple(system.variable(n).cardinality for n in pred_parents) + (
        system.variable(zname).cardinality,
    )
    if init.shape != want:
        raise ConfigError(f"predictor init has shape {init.shape}, expected {want}")

    factors: list = []
    mirror_idx: dict[str, int] = {}
    prior_idx: dict[str, int] = {}
    for v in system.names:
        if v == zname:
            continue
        if v in actions:
            prior_idx[v] = len(factors)
            if prior_mode == "policy":
                factors.append(FactorMirror(v))
            else:
                factors.append(TableFactor((v,), _uniform(system.variable(v).cardinality)))
        else:
            mirror_idx[v] = len(factors)
            factors.append(FactorMirror(v))
    pred_idx = len(factors)
    factors.append(ParamFactor(zname, pred_parents, init))

    terms = [
        Term(
            "skill_info_bound",
            -1.0,
            ((1.0, TargetFactorLog(pred_idx)), (-1.0, ActualLog((zname,)))),
        )
    ]
    if prior_mode == "uniform":
        parts: list[tuple[float, object]] = [
            (1.0, ActualLog((a,), system.factors[a].parents)) for a in actions
        ]
        log_counts = math.fsum(math.log(system.variable(a).cardinality) for a in actions)
        parts.append((1.0, Payoff((), log_counts)))
        terms.append(Term("action_complexity", 1.0, tuple(parts)))

    def report(tgt, p, q, joint, rsys) -> Report:
        def kl_to(v: str, index: int) -> tuple[float, bool]:
            return expected_log(
                p,
                log_conditional(p, (v,), rsys.factors[v].parents),
                _face(tgt, index, rsys, joint),
            )

        parts = {
            "control": _summed(1.0, [kl_to(v, index) for v, index in mirror_idx.items()]),
            "action_complexity": _summed(1.0, [kl_to(a, prior_idx[a]) for a in actions]),
            "skill_info_bound": (
                -1.0,
                *expected_log(
                    p, _face(tgt, pred_idx, rsys, joint), log_conditional(p, (zname,), ())
                ),
            ),
        }
        extras = {"exact_mi": mutual_information(p, (zname,), pred_parents)}
        return _certify("skills", p, q, parts, lnz_coeff=1.0, extras=extras)

    return TargetSpec(system.names, factors), terms, 0.0, report, False, None


# ---------------------------------------------------------------------------
# info_gain


def _build_info_gain(system, target, options, realized) -> Parts:
    """Belief-update reading of the past/future split.

    Without an explicit target a softmax predictor over all inputs is
    constructed per belief variable (every internal variable).
    ``optimize="bound"`` descends the full four-term bound;
    ``optimize="intrinsic"`` descends only the negated information-gain
    term.
    """
    internal = _beliefs("info_gain", system)
    optimize = options.pop("optimize", "bound")
    if optimize not in ("bound", "intrinsic"):
        raise ConfigError(f"unknown optimize choice {optimize!r}")

    inputs = system.inputs()
    if target is None:
        factors = []
        for w in internal:
            shape = tuple(system.variable(n).cardinality for n in inputs) + (
                system.variable(w).cardinality,
            )
            factors.append(ParamFactor(w, inputs, np.zeros(shape)))
        target = TargetSpec(system.names, factors)

    scope = tuple(map(system.variable, target.scope))
    past, future = _split_time(scope)
    xs = past + future
    z = _split_roles(scope)[1]

    terms = [
        Term("simplicity", 1.0, ((1.0, ActualLog(z, past)), (-1.0, TargetLog(z)))),
        Term("repr_learning", -1.0, ((1.0, TargetLog(past, z)), (-1.0, ActualLog(past)))),
        Term("control", 1.0, ((1.0, ActualLog(future, past + z)), (-1.0, TargetLog(future, past)))),
        Term("info_gain", -1.0, ((1.0, TargetLog(z, xs)), (-1.0, ActualLog(z, past)))),
    ]
    if optimize == "intrinsic":
        terms = terms[-1:]

    rename = {
        "past_latent_pref": "simplicity",
        "repr_learning": "repr_learning",
        "future_input_pref": "control",
        "exploration": "info_gain",
    }

    def report(tgt, p, q, joint, rsys) -> Report:
        parts = _past_future(p, q)
        info_gain = parts["exploration"][1]
        exact = mutual_information(p, z, xs)
        if past:
            exact -= mutual_information(p, z, past)
        # Telescoped per-step sum: each step reads the target's predictor
        # restricted to the inputs seen so far against the belief from one
        # step earlier. It never exceeds the one-shot info_gain term
        # because every non-final step pays an extra conditional KL.
        steps = []
        for k in range(1, len(future) + 1):
            value, _ = expected_log(
                p,
                log_conditional(q, z, past + future[:k]),
                log_conditional(p, z, past + future[: k - 1]),
            )
            steps.append(value)
        intrinsic_sum = math.fsum(steps)
        extras = {
            "exact_info_gain": exact,
            "info_gain_gap": exact - info_gain,
            "intrinsic_sum": intrinsic_sum,
            "intrinsic_gap": info_gain - intrinsic_sum,
        }
        return _certify(
            "infogain",
            p,
            q,
            {new: parts[old] for old, new in rename.items()},
            relation="lower-bounds-joint",
            extras=extras,
        )

    return target, terms, 0.0, report, optimize == "bound", None


_BUILDERS: dict[str, Callable[..., Parts]] = {
    "joint_kl": _build_joint_kl,
    "elbo_bnn": _build_elbo,
    "map_point_mass": _build_map,
    "amortized_vae": _build_vae,
    "kl_control": _build_control,
    "maxent_rl": partial(_build_control, family="maxent_rl"),
    "empowerment": _build_empowerment,
    "skill_discovery": _build_skills,
    "info_gain": _build_info_gain,
}
