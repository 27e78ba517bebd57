"""Bundled example systems covering the supported objective families.

Each preset is a small, exactly solvable discrete system chosen so that the
quantity an objective family optimizes has a hand-checkable optimum:

* ``bnn-toy`` is Bayesian inference over one binary weight from four
  input/output pairs; the exact posterior follows from two likelihood
  products, so variational fits can be compared digit for digit.
* ``vae-toy`` is a four-outcome observation with a two-outcome code; the
  best achievable code captures one bit, ``ln 2`` nats, of mutual
  information, reached when the encoder groups observations in pairs.
* ``hmm-filter`` is a three-step hidden Markov model with two observed
  steps; belief factors condition only on observed inputs, which is the
  structure under which past/future decompositions become exact.
* ``chain-mdp`` is a five-state random walk with slip 0.1 and reward 2 in
  the rightmost state, small enough to solve by soft dynamic programming.
* ``free-choice`` is a single binary outcome with reward ``(0, ln 3)``,
  whose exponentiated-reward target normalizes to ``(0.25, 0.75)``.
* ``bandit-infogain`` has a hidden coin and two arms: arm 0 reveals the
  coin (one-step information gain ``ln 2``), arm 1 returns noise (gain 0).
* ``two-room-skills`` routes a binary skill through two action steps into
  one of two absorbing rooms, so distinct skills can earn ``ln 2`` of
  skill information when they commit to different rooms.
* ``dead-action`` offers three actions over a binary effect where action 2
  merely copies a random bit; the channel-capacity optimum puts zero mass
  on the uninformative action and ``1/2`` on each writing action.
* ``identity-channel`` is the smallest empowerment check: the effect copies
  the action, so the information between them is ``ln 2`` at the uniform
  source.

Builders take keyword size parameters where a family benefits from scaling
(state counts, pair counts, cardinalities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, ValidationError
from .systems import (
    ActualSystem,
    ConditionalFactor,
    FactorSpec,
    Horizon,
    ParamFactor,
    TableFactor,
    TargetSpec,
)
from .tables import Role, Variable


@dataclass(frozen=True)
class Preset:
    """A named system bundle: model, horizon, default family, and options.

    The horizon counts decision steps only; the past/future split of the
    inputs comes from the variables' roles.

    ``target`` is set when the preset's target distribution is plain data
    (priors, likelihoods, rewards, auxiliary predictors). Families that
    assemble their targets from mirrored system factors receive the raw
    ingredients through ``options`` instead and build the target themselves.
    """

    name: str
    family: str
    system: ActualSystem
    horizon: Horizon
    target: TargetSpec | None = None
    options: Mapping[str, object] = field(default_factory=dict)
    summary: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", MappingProxyType(dict(self.options)))


def bnn_toy(n_pairs: int = 4) -> Preset:
    """Binary-weight Bayesian regression on ``n_pairs`` clamped data points.

    Inputs alternate 0, 1, ...; outputs agree with the input on even indices
    and disagree on odd ones. Under weight 0 an output matches its input
    with probability 0.8, under weight 1 with probability 0.3, so the two
    weights explain the half-agreeing data differently and the posterior is
    interior.
    """
    if n_pairs < 1:
        raise ValidationError(f"n_pairs must be >= 1, got {n_pairs}")
    xs = [i % 2 for i in range(n_pairs)]
    ys = [x if i % 2 == 0 else 1 - x for i, x in enumerate(xs)]

    variables = [Variable("w", 2, Role.PARAMETER)]
    factors = [FactorSpec.parameterized("w", (), np.zeros(2))]
    for i in range(n_pairs):
        variables.append(Variable(f"x{i + 1}", 2, Role.PAST_INPUT))
        variables.append(Variable(f"y{i + 1}", 2, Role.PAST_INPUT))
        factors.append(FactorSpec.point_mass(f"x{i + 1}", (), np.asarray(xs[i])))
        factors.append(FactorSpec.point_mass(f"y{i + 1}", (), np.asarray(ys[i])))
    system = ActualSystem(variables, factors)

    # p(y = x) is 0.8 under weight 0 and 0.3 under weight 1; rows are
    # indexed (x, w) and give the distribution over y.
    match = np.asarray(
        [
            [[0.8, 0.2], [0.3, 0.7]],
            [[0.2, 0.8], [0.7, 0.3]],
        ]
    )
    target_factors = [TableFactor(("w",), np.asarray([0.5, 0.5]))]
    for i in range(n_pairs):
        target_factors.append(
            ConditionalFactor(f"y{i + 1}", (f"x{i + 1}", "w"), match)
        )
    target = TargetSpec(tuple(v.name for v in variables), target_factors)

    return Preset(
        name="bnn-toy",
        family="elbo_bnn",
        system=system,
        horizon=Horizon(steps=1),
        target=target,
        summary="binary-weight Bayesian fit to clamped data",
    )


def vae_toy(x_card: int = 4, z_card: int = 2) -> Preset:
    """Discrete autoencoder: uniform data, softmax encoder, softmax decoder.

    The decoder starts with a balanced near-deterministic grouping of
    observations onto codes (logit +1.5 inside a code's block, -1.5 outside)
    so that plain descent has a direction to follow; a perfectly symmetric
    start is a stationary point of the objective.
    """
    if x_card < 2 or z_card < 2 or x_card % z_card != 0:
        raise ValidationError(
            f"need x_card >= 2 divisible by z_card >= 2, got {x_card}, {z_card}"
        )
    variables = [
        Variable("x", x_card, Role.PAST_INPUT),
        Variable("z", z_card, Role.LATENT_STATE),
    ]
    factors = [
        FactorSpec.fixed("x", (), np.full(x_card, 1.0 / x_card)),
        FactorSpec.parameterized("z", ("x",), np.zeros((x_card, z_card))),
    ]
    system = ActualSystem(variables, factors)

    block = x_card // z_card
    decoder_init = np.full((z_card, x_card), -1.5)
    for z in range(z_card):
        decoder_init[z, z * block : (z + 1) * block] = 1.5
    target = TargetSpec(
        ("x", "z"),
        [
            TableFactor(("z",), np.full(z_card, 1.0 / z_card)),
            ParamFactor("x", ("z",), decoder_init),
        ],
    )
    return Preset(
        name="vae-toy",
        family="amortized_vae",
        system=system,
        horizon=Horizon(steps=1),
        target=target,
        summary="discrete autoencoder with a learnable decoder",
    )


def hmm_filter() -> Preset:
    """Three-step HMM with two observed steps and filtering-style beliefs.

    The belief factors condition only on observed inputs (never on other
    hidden states), and the agent's own input model is a symmetric 0.7/0.3
    chain that deliberately differs from the predictive distribution the
    target HMM implies.
    """
    variables = [
        Variable("x1", 2, Role.PAST_INPUT),
        Variable("x2", 2, Role.PAST_INPUT),
        Variable("x3", 2, Role.FUTURE_INPUT),
        Variable("z1", 2, Role.LATENT_STATE),
        Variable("z2", 2, Role.LATENT_STATE),
        Variable("z3", 2, Role.LATENT_STATE),
    ]
    stay = np.asarray([[0.7, 0.3], [0.3, 0.7]])
    factors = [
        FactorSpec.fixed("x1", (), np.asarray([0.5, 0.5])),
        FactorSpec.fixed("x2", ("x1",), stay),
        FactorSpec.fixed("x3", ("x2",), stay),
        FactorSpec.parameterized("z1", ("x1",), np.zeros((2, 2))),
        FactorSpec.parameterized("z2", ("x1", "x2"), np.zeros((2, 2, 2))),
        FactorSpec.parameterized("z3", ("x1", "x2"), np.zeros((2, 2, 2))),
    ]
    system = ActualSystem(variables, factors)

    transition = np.asarray([[0.8, 0.2], [0.2, 0.8]])
    emission = np.asarray([[0.9, 0.1], [0.1, 0.9]])
    target = TargetSpec(
        tuple(v.name for v in variables),
        [
            TableFactor(("z1",), np.asarray([0.5, 0.5])),
            ConditionalFactor("z2", ("z1",), transition),
            ConditionalFactor("z3", ("z2",), transition),
            ConditionalFactor("x1", ("z1",), emission),
            ConditionalFactor("x2", ("z2",), emission),
            ConditionalFactor("x3", ("z3",), emission),
        ],
    )
    return Preset(
        name="hmm-filter",
        family="joint_kl",
        system=system,
        horizon=Horizon(steps=3),
        target=target,
        options={"realized": {"x1": 0, "x2": 1}},
        summary="hidden Markov chain with two observed steps",
    )


def _walk_transition(n_states: int) -> np.ndarray:
    """P(next | state, action) for a clamped random walk that slips the
    other way with probability 0.1; action 0 is left."""
    slip = 0.1
    table = np.zeros((n_states, 2, n_states))
    for s in range(n_states):
        for a, step in ((0, -1), (1, +1)):
            hit = min(max(s + step, 0), n_states - 1)
            miss = min(max(s - step, 0), n_states - 1)
            table[s, a, hit] += 1.0 - slip
            table[s, a, miss] += slip
    return table


def chain_mdp(n_states: int = 5, steps: int = 3) -> Preset:
    """Random-walk MDP with reward 2 in the last state and Markov policies.

    The walk starts in the middle state. Each of the ``steps`` stages has a
    state-conditioned softmax policy; the final action has no successor, so
    only its preference terms act on it.
    """
    if n_states < 2 or steps < 1:
        raise ValidationError(f"need n_states >= 2 and steps >= 1; got {n_states}, {steps}")
    reward = [0.0] * n_states
    reward[-1] = 2.0

    variables = [Variable("x1", n_states, Role.PAST_INPUT)]
    factors = [FactorSpec.point_mass("x1", (), np.asarray(n_states // 2))]
    env = _walk_transition(n_states)
    rewards: dict[str, tuple[float, ...]] = {}
    for t in range(1, steps + 1):
        variables.append(Variable(f"a{t}", 2, Role.ACTION))
        factors.append(
            FactorSpec.parameterized(f"a{t}", (f"x{t}",), np.zeros((n_states, 2)))
        )
        if t < steps:
            variables.append(Variable(f"x{t + 1}", n_states, Role.FUTURE_INPUT))
            factors.append(FactorSpec.fixed(f"x{t + 1}", (f"x{t}", f"a{t}"), env))
            rewards[f"x{t + 1}"] = tuple(reward)
    system = ActualSystem(variables, factors)
    return Preset(
        name="chain-mdp",
        family="kl_control",
        system=system,
        horizon=Horizon(steps=steps),
        options={"rewards": rewards, "mode": "kl-control"},
        summary="five-state random walk with terminal-state reward",
    )


def free_choice() -> Preset:
    """One binary outcome with reward ``(0, ln 3)``; optimum is (0.25, 0.75)."""
    system = ActualSystem(
        [Variable("x", 2, Role.FUTURE_INPUT)],
        [FactorSpec.parameterized("x", (), np.zeros(2))],
    )
    return Preset(
        name="free-choice",
        family="kl_control",
        system=system,
        horizon=Horizon(steps=1),
        options={"rewards": {"x": (0.0, math.log(3.0))}, "mode": "kl-control"},
        summary="single controlled outcome with a log-odds reward",
    )


def bandit_infogain() -> Preset:
    """Hidden coin, two arms: arm 0 reveals the coin, arm 1 returns noise.

    The one-step information gain about the coin is ``ln 2`` for arm 0 and
    exactly zero for arm 1, so an information-seeking policy should commit
    to arm 0.
    """
    variables = [
        Variable("w", 2, Role.PARAMETER),
        Variable("x1", 2, Role.FUTURE_INPUT),
        Variable("x2", 2, Role.FUTURE_INPUT),
    ]
    # Observation given (arm, coin): arm 0 copies the coin, arm 1 is a fair
    # coin flip regardless of w. Layout is (x1, w, x2).
    observe = np.asarray(
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.5, 0.5], [0.5, 0.5]],
        ]
    )
    factors = [
        FactorSpec.fixed("w", (), np.asarray([0.5, 0.5])),
        FactorSpec.parameterized("x1", (), np.zeros(2)),
        FactorSpec.fixed("x2", ("x1", "w"), observe),
    ]
    system = ActualSystem(variables, factors)
    return Preset(
        name="bandit-infogain",
        family="info_gain",
        system=system,
        horizon=Horizon(steps=2),
        options={"optimize": "intrinsic"},
        summary="two-armed bandit where one arm reveals a hidden coin",
    )


def two_room_skills() -> Preset:
    """Binary skill steering two action steps into one of two absorbing rooms.

    Policies condition on the skill and the current observation; the first
    action picks the room deterministically and the second step stays put.
    The reverse predictor that reads the skill back off the final room
    starts mildly aligned (room 0 to skill 0) so that symmetric policies are
    not a stationary start.
    """
    variables = [
        Variable("z", 2, Role.SKILL),
        Variable("x1", 3, Role.PAST_INPUT),
        Variable("a1", 2, Role.ACTION),
        Variable("x2", 2, Role.FUTURE_INPUT),
        Variable("a2", 2, Role.ACTION),
        Variable("x3", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.parameterized("z", (), np.zeros(2)),
        FactorSpec.fixed("x1", (), np.full(3, 1.0 / 3.0)),
        FactorSpec.parameterized("a1", ("z", "x1"), np.zeros((2, 3, 2))),
        FactorSpec.point_mass("x2", ("a1",), np.asarray([0, 1])),
        FactorSpec.parameterized("a2", ("z", "x2"), np.zeros((2, 2, 2))),
        FactorSpec.point_mass("x3", ("x2",), np.asarray([0, 1])),
    ]
    system = ActualSystem(variables, factors)
    predictor_init = np.asarray([[0.5, -0.5], [-0.5, 0.5]])
    return Preset(
        name="two-room-skills",
        family="skill_discovery",
        system=system,
        horizon=Horizon(steps=2),
        options={
            "predictor": {"child": "z", "parents": ("x3",), "init": predictor_init.tolist()},
            "action_prior": "policy",
        },
        summary="skill-conditioned two-step navigation between rooms",
    )


def dead_action() -> Preset:
    """Three actions over one bit; action 2 copies a random past bit.

    Actions 0 and 1 write the bit; action 2 forwards the uniformly random
    ``x0``, contributing nothing to the influence of the action on the
    effect. The capacity-achieving source is (1/2, 1/2, 0).
    """
    variables = [
        Variable("x0", 2, Role.PAST_INPUT),
        Variable("a", 3, Role.ACTION),
        Variable("x1", 2, Role.FUTURE_INPUT),
    ]
    # Effect given (x0, a): write 0, write 1, copy x0.
    effect = np.asarray(
        [
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
            [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
        ]
    )
    factors = [
        FactorSpec.fixed("x0", (), np.asarray([0.5, 0.5])),
        FactorSpec.parameterized("a", (), np.zeros(3)),
        FactorSpec.fixed("x1", ("x0", "a"), effect),
    ]
    system = ActualSystem(variables, factors)
    return Preset(
        name="dead-action",
        family="empowerment",
        system=system,
        horizon=Horizon(steps=1),
        options={"channel_effects": ("x1",)},
        summary="channel with two writing actions and one dead action",
    )


def identity_channel(card: int = 2) -> Preset:
    """The effect copies the action; information is ``ln card`` at uniform."""
    if card < 2:
        raise ValidationError(f"card must be >= 2, got {card}")
    variables = [
        Variable("a", card, Role.ACTION),
        Variable("x1", card, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.parameterized("a", (), np.zeros(card)),
        FactorSpec.point_mass("x1", ("a",), np.arange(card)),
    ]
    system = ActualSystem(variables, factors)
    return Preset(
        name="identity-channel",
        family="empowerment",
        system=system,
        horizon=Horizon(steps=1),
        options={"channel_effects": ("x1",)},
        summary="noiseless copy channel from action to effect",
    )


PRESETS: Mapping[str, Callable[..., Preset]] = MappingProxyType(
    {
        "bnn-toy": bnn_toy,
        "vae-toy": vae_toy,
        "hmm-filter": hmm_filter,
        "chain-mdp": chain_mdp,
        "free-choice": free_choice,
        "bandit-infogain": bandit_infogain,
        "two-room-skills": two_room_skills,
        "dead-action": dead_action,
        "identity-channel": identity_channel,
    }
)


def preset(name: str, **size_params) -> Preset:
    """Build a bundled preset by name, forwarding any size parameters."""
    try:
        builder = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; available: {known}") from None
    return builder(**size_params)


def names() -> tuple[str, ...]:
    return tuple(sorted(PRESETS))
