"""Named objective families over discrete causal systems.

Every family here is one way of reading the same quantity: the joint
divergence KL[p || q/Z] between what a system actually does and an
unnormalized product of target factors. A family fixes three coupled
artifacts at once:

* an :class:`~divmin.engine.Engine` whose scalar value is what gradient
  descent actually minimizes,
* a report closure producing a certified :class:`~divmin.decomp.Report`
  that rearranges the joint divergence into the family's named terms,
* bookkeeping tying the two together, most importantly
  ``total_matches_report``: when set, the engine total must equal the
  report total to numerical precision at every parameter point; when
  clear, the engine optimizes a single bound term whose face value still
  appears in the report.

The identities behind each family, with x the inputs and z the internal
variables on the target scope:

``joint_kl``
    The divergence itself, no rearrangement.

``elbo_bnn``
    For a fixed data distribution p(x), a prior over beliefs, and
    per-observation likelihoods, KL = complexity - accuracy + constant
    where complexity = E_x KL[p(z|x) || q(z)], accuracy is the expected
    log-likelihood of the data, and the constant collects the covariate
    count and the data entropy. Minimizing the engine total is exactly
    maximizing the evidence lower bound.

``map_point_mass``
    The energy reading KL = E_p[-ln q~] - H[p] + ln Z. Over point-mass
    beliefs the entropy vanishes and minimization reduces to picking the
    configuration with the largest raw target weight.

``amortized_vae``
    The two conditional splits of the divergence. "reconstruction" uses
    KL = complexity - fit_bound with fit_bound = E[ln q(x|z) - ln p(x)];
    "contrastive" mirrors it through the inputs.

``kl_control`` / ``maxent_rl``
    Decision variables pay E[ln pi(a|s) / prior(a)] while rewarded
    inputs earn E[r]; mirrored dynamics cancel, so the divergence equals
    the control cost minus the expected reward plus ln Z. ``maxent_rl``
    is the uniform-prior special case. Mode "kl-regularized" swaps the
    mirrored dynamics for the action-averaged passive dynamics on the
    input scope, and "expected-reward" mirrors the actual dynamics
    entirely so only the reward terms remain to optimize.

``empowerment``
    The input-side split, read as a channel: the engine maximizes
    gen_empowerment_bound = E[ln q(z|x) - ln p(z)], a variational lower
    bound on the mutual information between actions and effects.

``skill_discovery``
    Mirrored dynamics plus a reverse predictor q(z|observations) give
    KL = control + action_complexity - skill_info_bound + ln Z, where
    the bound is a variational lower bound on I(skill; observations).

``info_gain``
    The four-term past/future reading. The engine either descends the
    whole bound ("bound") or just the negated information-gain term
    ("intrinsic"), a lower bound on I(z; all inputs) - I(z; past).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .decomp import (
    Report,
    _input_side,
    _log_given,
    _past_future,
    _prepare,
    _split_roles,
    _term,
    decompose_input_side,
    decompose_latent_side,
    energy_entropy,
    joint_kl,
    realize,
)
from .engine import (
    ActualLog,
    Engine,
    Evaluation,
    GradientEvaluation,
    Payoff,
    TargetFactorLog,
    TargetLog,
    TargetLogRaw,
    Term,
)
from .errors import ConfigError
from .systems import (
    ActualSystem,
    ConditionalFactor,
    FactorMirror,
    Horizon,
    MarginalMirror,
    ParamFactor,
    RewardFactor,
    TableFactor,
    TargetSpec,
    build_joint,
    target_factor_log_array,
    target_factor_scope,
)
from .tables import (
    Role,
    Table,
    _expand_to_scope,
    entropy,
    expectation_of_log,
    expected_conditional_kl,
    kl,
    marginalize,
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


@dataclass(frozen=True)
class Objective:
    """One family bound to a concrete system, target, and realization.

    ``engine`` evaluates the optimized functional and its exact gradient;
    ``report(phi)`` re-derives the certified decomposition at the same
    parameter point. ``total_matches_report`` states whether the engine
    total and the report total are the same number.
    """

    family: str
    equation: str
    system: ActualSystem
    target: TargetSpec
    horizon: Horizon | None
    engine: Engine
    options: Mapping[str, object]
    total_matches_report: bool
    _report: Callable[[ActualSystem, TargetSpec], Report] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", MappingProxyType(dict(self.options)))

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
            system, target = self.engine.space.set(np.asarray(phi, dtype=np.float64))
        return self._report(system, target)


_BUILDERS: dict[str, Callable[..., Objective]] = {}


def _family(name: str):
    def register(fn):
        _BUILDERS[name] = fn
        return fn

    return register


def make_objective(
    family: str,
    system: ActualSystem,
    target: TargetSpec | None = None,
    horizon: Horizon | None = None,
    options: Mapping[str, object] | None = None,
    realized: Assignment | None = None,
    realization: str = "intervene",
) -> Objective:
    """Build the named family over ``system``.

    Families that derive their target from the options (the control
    modes, skill discovery, and, when none is given, empowerment and
    info gain) document that behaviour on their builders.
    """
    if family not in _BUILDERS:
        known = ", ".join(sorted(_BUILDERS))
        raise ConfigError(f"unknown objective family {family!r}; known families: {known}")
    return _BUILDERS[family](
        system, target, horizon, dict(options or {}), dict(realized or {}), realization
    )


def from_preset(preset) -> Objective:
    """Instantiate the objective a preset describes."""
    options = dict(preset.options)
    realized = options.pop("realized", None)
    return make_objective(
        preset.family,
        preset.system,
        target=preset.target,
        horizon=preset.horizon,
        options=options,
        realized=realized,
    )


# ---------------------------------------------------------------------------
# Shared construction helpers


def _face(target: TargetSpec, index: int, realized_system: ActualSystem, joint: Table, q) -> np.ndarray:
    """ln of one target factor, broadcast to the target scope shape."""
    raw = target_factor_log_array(target.factors[index], target, realized_system, joint)
    return np.broadcast_to(raw, q.weights.shape)


def _renamed(base: Report, equation: str, names: Mapping[str, str], **changes) -> Report:
    """A ``decomp`` report under a family's equation tag and term names."""
    return replace(
        base,
        equation=equation,
        terms={names[k]: v for k, v in base.terms.items()},
        combo={names[k]: c for k, c in base.combo.items()},
        **changes,
    )


def _expected_payoff(p: Table, name: str, values: np.ndarray) -> float:
    arr = _expand_to_scope(np.asarray(values, dtype=np.float64), (name,), p)
    return float((p.probs * arr).sum())


def _scope_split(system: ActualSystem, scope: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(inputs, internal) restricted to ``scope``, in scope order."""
    x = tuple(n for n in scope if system.variable(n).role.is_input)
    z = tuple(n for n in scope if not system.variable(n).role.is_input)
    return x, z


def _uniform(cardinality: int) -> np.ndarray:
    return np.full(cardinality, 1.0 / cardinality)


def _check_no_realization(family: str, realized: Assignment) -> None:
    if realized:
        raise ConfigError(f"family {family!r} does not support realized values")


# ---------------------------------------------------------------------------
# joint_kl


@_family("joint_kl")
def _build_joint_kl(system, target, horizon, options, realized, realization) -> Objective:
    """The divergence itself; the report holds a single term."""
    if target is None:
        raise ConfigError("family 'joint_kl' needs an explicit target")
    scope = tuple(target.scope)
    terms = [
        Term("cross", 1.0, ((1.0, ActualLog(scope)), (-1.0, TargetLogRaw()))),
    ]
    engine = Engine(system, target, terms, lnz_coeff=1.0, realized=realized, realization=realization)

    def report(sys2: ActualSystem, tgt2: TargetSpec) -> Report:
        ref = joint_kl(sys2, tgt2, realized, realization)
        return Report(
            equation="jointkl",
            terms={"joint_kl": ref.kl_nats},
            combo={"joint_kl": 1.0},
            log_partition=ref.log_partition,
            lnz_coeff=0.0,
            joint_kl=ref.kl_nats,
            relation="equals",
            divergent=ref.divergent,
        )

    return Objective(
        family="joint_kl",
        equation="jointkl",
        system=system,
        target=target,
        horizon=horizon,
        engine=engine,
        options=options,
        total_matches_report=True,
        _report=report,
    )


# ---------------------------------------------------------------------------
# elbo_bnn


@_family("elbo_bnn")
def _build_elbo(system, target, horizon, options, realized, realization) -> Objective:
    """Variational inference over belief variables against prior times likelihoods.

    The target must consist of factors over the belief variables (the
    prior pieces) plus normalized conditionals whose child is an input
    (the likelihoods). Keeping the data distribution fixed makes the
    leftover constant parameter-free, so the engine can carry it as a
    payoff.
    """
    _check_no_realization("elbo_bnn", realized)
    if target is None:
        raise ConfigError("family 'elbo_bnn' needs an explicit target (prior and likelihoods)")
    if system.by_role(Role.ACTION, Role.SKILL):
        raise ConfigError("family 'elbo_bnn' is for passive inference; found action or skill variables")
    inputs = system.inputs()
    internal = tuple(n for n in system.names if not system.variable(n).role.is_input)
    if not internal:
        raise ConfigError("family 'elbo_bnn' needs at least one belief variable")
    for n in internal:
        if system.variable(n).role is not Role.PARAMETER:
            raise ConfigError(
                f"belief variables must carry the parameter role; {n!r} has role "
                f"{system.variable(n).role.value!r}"
            )
    for n in inputs:
        if system.factors[n].logits is not None:
            raise ConfigError(f"input {n!r} is parameterized; the data distribution must stay fixed")
        inward = set(system.factors[n].parents) & set(internal)
        if inward:
            raise ConfigError(
                f"input {n!r} depends on belief variables {sorted(inward)}; "
                "the data distribution must stay fixed"
            )
    belief = options.get("belief_vars")
    if belief is not None and set(belief) != set(internal):
        raise ConfigError(
            f"belief_vars {tuple(belief)} disagree with the internal variables {internal}"
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

    scope = tuple(target.scope)
    x_scope, z_scope = _scope_split(system, scope)
    covariates = tuple(n for n in x_scope if n not in children)
    base_joint = build_joint(system)
    data_entropy = entropy(marginalize(base_joint, x_scope))
    constant = math.fsum(
        [math.log(system.variable(n).cardinality) for n in covariates] + [-data_entropy]
    )

    terms = [
        Term("complexity", 1.0, ((1.0, ActualLog(z_scope, x_scope)), (-1.0, TargetLog(z_scope)))),
        Term("accuracy", -1.0, tuple((1.0, TargetFactorLog(i)) for i in lik_idx)),
        Term("constant", 1.0, ((1.0, Payoff((), constant)),)),
    ]
    engine = Engine(system, target, terms, lnz_coeff=0.0)

    def report(sys2: ActualSystem, tgt2: TargetSpec) -> Report:
        p, q, joint, rsys = _prepare(sys2, tgt2, None, realization)
        x, z = _split_roles(p)
        complexity, d1 = _term(p, _log_given(p, z, x), _log_given(q, z, ()))
        parts: list[float] = []
        divergent = d1
        for i in lik_idx:
            val, d = expectation_of_log(p, _face(tgt2, i, rsys, joint, q))
            parts.append(val)
            divergent = divergent or d
        accuracy = math.fsum(parts)
        const_val = math.fsum(
            [math.log(sys2.variable(n).cardinality) for n in covariates] + [-entropy(p, x)]
        )
        ref = kl(p, q)
        posterior_gap = expected_conditional_kl(p, q, z, x)
        return Report(
            equation="elbo",
            terms={"complexity": complexity, "accuracy": accuracy, "constant": const_val},
            combo={"complexity": 1.0, "accuracy": -1.0, "constant": 1.0},
            log_partition=ref.log_partition,
            lnz_coeff=0.0,
            joint_kl=ref.kl_nats,
            relation="equals",
            divergent=ref.divergent or divergent,
            extras={"posterior_kl": posterior_gap.kl_nats},
        )

    return Objective(
        family="elbo_bnn",
        equation="elbo",
        system=system,
        target=target,
        horizon=horizon,
        engine=engine,
        options=options,
        total_matches_report=True,
        _report=report,
    )


# ---------------------------------------------------------------------------
# map_point_mass


@_family("map_point_mass")
def _build_map(system, target, horizon, options, realized, realization) -> Objective:
    """Energy minus entropy; over point masses this is raw-weight maximization."""
    _check_no_realization("map_point_mass", realized)
    if target is None:
        raise ConfigError("family 'map_point_mass' needs an explicit target")
    scope = tuple(target.scope)
    terms = [
        Term("energy", 1.0, ((-1.0, TargetLogRaw()),)),
        Term("entropy", -1.0, ((-1.0, ActualLog(scope)),)),
    ]
    engine = Engine(system, target, terms, lnz_coeff=1.0)

    def report(sys2: ActualSystem, tgt2: TargetSpec) -> Report:
        return replace(energy_entropy(sys2, tgt2), equation="map")

    return Objective(
        family="map_point_mass",
        equation="map",
        system=system,
        target=target,
        horizon=horizon,
        engine=engine,
        options=options,
        total_matches_report=True,
        _report=report,
    )


# ---------------------------------------------------------------------------
# amortized_vae


@_family("amortized_vae")
def _build_vae(system, target, horizon, options, realized, realization) -> Objective:
    """Encoder-decoder splits of the divergence.

    ``form="reconstruction"`` charges the code complexity against a
    reconstruction-style bound; ``form="contrastive"`` mirrors the split
    through the inputs.
    """
    if target is None:
        raise ConfigError("family 'amortized_vae' needs an explicit target (code prior and decoder)")
    form = options.get("form", "reconstruction")
    if form not in ("reconstruction", "contrastive"):
        raise ConfigError(f"unknown amortized_vae form {form!r}")
    scope = tuple(target.scope)
    x_scope, z_scope = _scope_split(system, scope)
    if not x_scope or not z_scope:
        raise ConfigError("the target scope must contain both data and code variables")
    code = options.get("code_vars")
    if code is not None and set(code) != set(z_scope):
        raise ConfigError(f"code_vars {tuple(code)} disagree with the internal scope {z_scope}")
    data = options.get("data_vars")
    if data is not None and set(data) != set(x_scope):
        raise ConfigError(f"data_vars {tuple(data)} disagree with the input scope {x_scope}")

    if form == "reconstruction":
        terms = [
            Term("complexity", 1.0, ((1.0, ActualLog(z_scope, x_scope)), (-1.0, TargetLog(z_scope)))),
            Term("fit_bound", -1.0, ((1.0, TargetLog(x_scope, z_scope)), (-1.0, ActualLog(x_scope)))),
        ]
        split = decompose_latent_side
        names = {"latent_pref_kl": "complexity", "info_bound": "fit_bound"}
    else:
        terms = [
            Term("input_pref", 1.0, ((1.0, ActualLog(x_scope, z_scope)), (-1.0, TargetLog(x_scope)))),
            Term("code_bound", -1.0, ((1.0, TargetLog(z_scope, x_scope)), (-1.0, ActualLog(z_scope)))),
        ]
        split = decompose_input_side
        names = {"input_pref_kl": "input_pref", "info_bound_latent": "code_bound"}
    engine = Engine(system, target, terms, lnz_coeff=0.0, realized=realized, realization=realization)

    def report(sys2: ActualSystem, tgt2: TargetSpec) -> Report:
        return _renamed(split(sys2, tgt2, realized, realization), "vae", names)

    return Objective(
        family="amortized_vae",
        equation="vae",
        system=system,
        target=target,
        horizon=horizon,
        engine=engine,
        options={**options, "form": form},
        total_matches_report=True,
        _report=report,
    )


# ---------------------------------------------------------------------------
# kl_control / maxent_rl


def _control_rewards(system, options) -> dict[str, np.ndarray]:
    inputs = system.inputs()
    rewards: dict[str, np.ndarray] = {}
    for name, values in dict(options.get("rewards", {}) or {}).items():
        if name not in inputs:
            raise ConfigError(f"reward variable {name!r} is not an input")
        arr = np.asarray(values, dtype=np.float64)
        card = system.variable(name).cardinality
        if arr.shape != (card,):
            raise ConfigError(f"reward for {name!r} has shape {arr.shape}, expected ({card},)")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"reward for {name!r} must be finite")
        rewards[name] = arr
    return rewards


def _build_control_like(family, system, target, horizon, options, realized, realization) -> Objective:
    """Shared construction for kl_control and maxent_rl.

    The target is derived from the options; any supplied target is
    replaced. Decision variables are exactly the parameterized factors
    of the system. Realized actions must be interventions; evidence is
    accepted only by mode "kl-regularized", and only on its inputs.
    """
    equation = FAMILY_TAGS[family]
    mode = options.get("mode", "kl-control")
    if family == "maxent_rl":
        if mode != "kl-control":
            raise ConfigError("family 'maxent_rl' fixes mode='kl-control'")
        if "priors" in options:
            raise ConfigError("family 'maxent_rl' fixes uniform action priors")
        cost_name, gain_name = "action_complexity", "reward"
    else:
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
    rewards = _control_rewards(system, options)
    states = tuple(n for n in inputs if n not in decisions)
    # Conditioning p breaks the cancellation of the mirrored dynamics, so
    # only "kl-regularized", whose target mirrors nothing, takes evidence,
    # and only on the inputs it scores.
    _, evidence = realize(system, realized, realization)
    allowed = set(states) if mode == "kl-regularized" else set()
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
        priors_opt = {k: np.asarray(v, dtype=np.float64) for k, v in dict(options.get("priors", {}) or {}).items()}
        for k in priors_opt:
            if k not in decisions:
                raise ConfigError(f"prior given for {k!r}, which is not a decision variable")
        for v in system.names:
            if v in decisions:
                card = system.variable(v).cardinality
                vec = priors_opt.get(v)
                if vec is None or family == "maxent_rl":
                    vec = _uniform(card)
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
            cond = f.conditional_with(system.variable(v).cardinality)
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
    built = TargetSpec(scope, factors)

    terms = [
        Term(name, 1.0, ((1.0, ActualLog((v,), given)), (-1.0, TargetFactorLog(index))))
        for name, v, given, index in kl_terms
    ]
    terms += [Term(name, -1.0, ((1.0, Payoff((v,), rewards[v])),)) for name, v in gains]
    # "expected-reward" mirrors the dynamics in full, so the engine descends
    # the expected reward alone while the report keeps ln Z.
    matches = mode != "expected-reward"

    def report(sys2: ActualSystem, tgt2: TargetSpec) -> Report:
        p, q, joint, rsys = _prepare(sys2, tgt2, realized, realization)
        out: dict[str, float] = {}
        combo: dict[str, float] = {}
        divergent = False
        for name, v, given, index in kl_terms:
            out[name], dv = _term(p, _log_given(p, (v,), given), _face(tgt2, index, rsys, joint, q))
            combo[name] = 1.0
            divergent = divergent or dv
        for name, v in gains:
            out[name] = _expected_payoff(p, v, rewards[v])
            combo[name] = -1.0
        ref = kl(p, q)
        return Report(
            equation=equation,
            terms=out,
            combo=combo,
            log_partition=ref.log_partition,
            lnz_coeff=1.0,
            joint_kl=ref.kl_nats,
            relation="equals",
            divergent=ref.divergent or divergent,
        )

    engine = Engine(
        system,
        built,
        terms,
        lnz_coeff=1.0 if matches else 0.0,
        realized=realized,
        realization=realization,
    )
    return Objective(
        family=family,
        equation=equation,
        system=system,
        target=built,
        horizon=horizon,
        engine=engine,
        options={**options, "mode": mode},
        total_matches_report=matches,
        _report=report,
    )


@_family("kl_control")
def _build_kl_control(system, target, horizon, options, realized, realization) -> Objective:
    return _build_control_like("kl_control", system, target, horizon, options, realized, realization)


@_family("maxent_rl")
def _build_maxent(system, target, horizon, options, realized, realization) -> Objective:
    return _build_control_like("maxent_rl", system, target, horizon, options, realized, realization)


# ---------------------------------------------------------------------------
# empowerment


@_family("empowerment")
def _build_empowerment(system, target, horizon, options, realized, realization) -> Objective:
    """Channel-capacity reading: maximize a bound on I(actions; effects).

    Without an explicit target a softmax decoder over the channel
    effects is constructed, one factor per action variable with the
    earlier actions appended to its parents.
    """
    actions = system.by_role(Role.ACTION)
    if not actions:
        raise ConfigError("family 'empowerment' needs at least one action variable")
    if target is None:
        effects = tuple(options.get("channel_effects") or ())
        if not effects:
            effects = tuple(
                n for n in system.inputs() if system.variable(n).role is Role.FUTURE_INPUT
            )
        if not effects:
            raise ConfigError("no channel effects: pass channel_effects or add future inputs")
        for n in effects:
            if n not in system.inputs():
                raise ConfigError(f"channel effect {n!r} is not an input")
        chosen = tuple(options.get("channel_actions") or actions)
        if set(chosen) != set(actions):
            raise ConfigError(
                f"channel_actions {chosen} disagree with the action variables {actions}"
            )
        factors = []
        for i, a in enumerate(actions):
            parents = effects + actions[:i]
            shape = tuple(system.variable(n).cardinality for n in parents) + (
                system.variable(a).cardinality,
            )
            factors.append(ParamFactor(a, parents, np.zeros(shape)))
        scope = tuple(n for n in system.names if n in set(effects) | set(actions))
        target = TargetSpec(scope, factors)
    scope = tuple(target.scope)
    x_scope, z_scope = _scope_split(system, scope)
    if not x_scope or not z_scope:
        raise ConfigError("the decoder scope must contain actions and effects")

    terms = [
        Term(
            "gen_empowerment_bound",
            -1.0,
            ((1.0, TargetLog(z_scope, x_scope)), (-1.0, ActualLog(z_scope))),
        )
    ]
    engine = Engine(system, target, terms, lnz_coeff=0.0, realized=realized, realization=realization)

    names = {"input_pref_kl": "control", "info_bound_latent": "gen_empowerment_bound"}

    def report(sys2: ActualSystem, tgt2: TargetSpec) -> Report:
        p, q, _, _ = _prepare(sys2, tgt2, realized, realization)
        x, z = _split_roles(p)
        extras = {
            "exact_mi": mutual_information(p, z, x),
            "mi_cap": min(entropy(p, z), entropy(p, x)),
        }
        return _renamed(_input_side(p, q), "empowerment", names, extras=extras)

    return Objective(
        family="empowerment",
        equation="empowerment",
        system=system,
        target=target,
        horizon=horizon,
        engine=engine,
        options=options,
        total_matches_report=False,
        _report=report,
    )


# ---------------------------------------------------------------------------
# skill_discovery


@_family("skill_discovery")
def _build_skills(system, target, horizon, options, realized, realization) -> Objective:
    """Reverse-predictor skill objective; the target comes from the options.

    Mirrored dynamics and (optionally mirrored) action priors cancel, so
    the joint divergence reduces to the negated variational bound on
    I(skill; observations) plus ln Z.
    """
    if target is not None:
        raise ConfigError(
            "family 'skill_discovery' builds its target from the options; "
            "pass predictor and action_prior instead"
        )
    skills = system.by_role(Role.SKILL)
    if len(skills) != 1:
        raise ConfigError(f"skill discovery needs exactly one skill variable, found {skills}")
    zname = skills[0]
    if system.factors[zname].parents:
        raise ConfigError(f"the skill variable {zname!r} must be a root of the system")
    declared = options.get("skill_vars")
    if declared is not None and tuple(declared) != skills:
        raise ConfigError(f"skill_vars {tuple(declared)} disagree with the skill variables {skills}")
    actions = system.by_role(Role.ACTION)
    prior_mode = options.get("action_prior", "policy")
    if prior_mode not in ("policy", "uniform"):
        raise ConfigError(f"unknown action_prior {prior_mode!r}")
    pred_opt = options.get("predictor")
    if not isinstance(pred_opt, Mapping) or not {"child", "parents", "init"} <= set(pred_opt):
        raise ConfigError("skill discovery needs a predictor with child, parents, and init")
    if pred_opt["child"] != zname:
        raise ConfigError(f"the predictor must read back {zname!r}, got {pred_opt['child']!r}")
    pred_parents = tuple(pred_opt["parents"])
    for n in pred_parents:
        if n not in system.inputs():
            raise ConfigError(f"predictor parent {n!r} is not an input")
    init = np.asarray(pred_opt["init"], dtype=np.float64)
    want = tuple(system.variable(n).cardinality for n in pred_parents) + (
        system.variable(zname).cardinality,
    )
    if init.shape != want:
        raise ConfigError(f"predictor init has shape {init.shape}, expected {want}")

    mirror_vars = tuple(n for n in system.names if n != zname and n not in actions)
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
    built = TargetSpec(system.names, factors)

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
    engine = Engine(system, built, terms, lnz_coeff=0.0, realized=realized, realization=realization)

    def report(sys2: ActualSystem, tgt2: TargetSpec) -> Report:
        p, q, joint, rsys = _prepare(sys2, tgt2, realized, realization)
        divergent = False
        control_parts: list[float] = []
        for v in mirror_vars:
            val, dv = _term(
                p,
                _log_given(p, (v,), rsys.factors[v].parents),
                _face(tgt2, mirror_idx[v], rsys, joint, q),
            )
            control_parts.append(val)
            divergent = divergent or dv
        complexity_parts: list[float] = []
        for a in actions:
            val, dv = _term(
                p,
                _log_given(p, (a,), rsys.factors[a].parents),
                _face(tgt2, prior_idx[a], rsys, joint, q),
            )
            complexity_parts.append(val)
            divergent = divergent or dv
        bound, dv = _term(p, _face(tgt2, pred_idx, rsys, joint, q), _log_given(p, (zname,), ()))
        divergent = divergent or dv
        ref = kl(p, q)
        return Report(
            equation="skills",
            terms={
                "control": math.fsum(control_parts),
                "action_complexity": math.fsum(complexity_parts),
                "skill_info_bound": bound,
            },
            combo={"control": 1.0, "action_complexity": 1.0, "skill_info_bound": -1.0},
            log_partition=ref.log_partition,
            lnz_coeff=1.0,
            joint_kl=ref.kl_nats,
            relation="equals",
            divergent=ref.divergent or divergent,
            extras={"exact_mi": mutual_information(p, (zname,), pred_parents)},
        )

    return Objective(
        family="skill_discovery",
        equation="skills",
        system=system,
        target=built,
        horizon=horizon,
        engine=engine,
        options={**options, "action_prior": prior_mode},
        total_matches_report=False,
        _report=report,
    )


# ---------------------------------------------------------------------------
# info_gain


@_family("info_gain")
def _build_info_gain(system, target, horizon, options, realized, realization) -> Objective:
    """Belief-update reading of the past/future split.

    Without an explicit target a softmax predictor over all inputs is
    constructed per belief variable. ``optimize="bound"`` descends the
    full four-term bound; ``optimize="intrinsic"`` descends only the
    negated information-gain term.
    """
    if horizon is None:
        raise ConfigError("family 'info_gain' needs a horizon")
    horizon.validate_with(system)
    internal = tuple(n for n in system.names if not system.variable(n).role.is_input)
    if not internal:
        raise ConfigError("family 'info_gain' needs at least one belief variable")
    for n in internal:
        if system.variable(n).role is not Role.PARAMETER:
            raise ConfigError(
                f"info gain tracks beliefs over parameters; {n!r} has role "
                f"{system.variable(n).role.value!r}"
            )
    belief = options.get("belief_vars")
    if belief is not None and set(belief) != set(internal):
        raise ConfigError(
            f"belief_vars {tuple(belief)} disagree with the internal variables {internal}"
        )
    optimize = options.get("optimize", "bound")
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

    scope = tuple(target.scope)
    in_scope = set(scope)
    past = tuple(n for n in horizon.past_inputs(system) if n in in_scope)
    future = tuple(n for n in horizon.future_inputs(system) if n in in_scope)
    xs = past + future
    z = tuple(n for n in scope if n in set(internal))

    bound_terms = [
        Term("simplicity", 1.0, ((1.0, ActualLog(z, past)), (-1.0, TargetLog(z)))),
        Term("repr_learning", -1.0, ((1.0, TargetLog(past, z)), (-1.0, ActualLog(past)))),
        Term("control", 1.0, ((1.0, ActualLog(future, past + z)), (-1.0, TargetLog(future, past)))),
        Term("info_gain", -1.0, ((1.0, TargetLog(z, xs)), (-1.0, ActualLog(z, past)))),
    ]
    if optimize == "bound":
        terms = bound_terms
    else:
        terms = [bound_terms[-1]]
    engine = Engine(system, target, terms, lnz_coeff=0.0, realized=realized, realization=realization)

    rename = {
        "past_latent_pref": "simplicity",
        "repr_learning": "repr_learning",
        "future_input_pref": "control",
        "exploration": "info_gain",
    }

    def report(sys2: ActualSystem, tgt2: TargetSpec) -> Report:
        p, q, _, _ = _prepare(sys2, tgt2, realized, realization)
        base = _past_future(p, q, past, future)
        info_gain = base.terms["exploration"]
        exact = mutual_information(p, z, xs)
        if past:
            exact -= mutual_information(p, z, past)
        # Telescoped per-step sum: each step reads the target's predictor
        # restricted to the inputs seen so far against the belief from one
        # step earlier. It never exceeds the one-shot info_gain term
        # because every non-final step pays an extra conditional KL.
        steps = []
        for k in range(1, len(future) + 1):
            value, _ = _term(
                p,
                _log_given(q, z, past + future[:k]),
                _log_given(p, z, past + future[: k - 1]),
            )
            steps.append(value)
        intrinsic_sum = math.fsum(steps)
        extras = {
            "exact_info_gain": exact,
            "info_gain_gap": exact - info_gain,
            "intrinsic_sum": intrinsic_sum,
            "intrinsic_gap": info_gain - intrinsic_sum,
        }
        return _renamed(base, "infogain", rename, extras=extras)

    return Objective(
        family="info_gain",
        equation="infogain",
        system=system,
        target=target,
        horizon=horizon,
        engine=engine,
        options={**options, "optimize": optimize},
        total_matches_report=(optimize == "bound"),
        _report=report,
    )
