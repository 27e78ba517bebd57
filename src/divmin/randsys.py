"""Seeded random problem instances for the verification suites.

Every generator draws from a counter-based Philox stream keyed by a
seed plus a fixed structural path, so the same seed always reproduces
the same instance no matter which other generators ran first. Random
rows are normalized exponentials of Gaussian draws, which keeps every
produced distribution strictly positive: identity checks then never
trip divergence handling, which has its own dedicated tests.
"""

from __future__ import annotations

import numpy as np

from .systems import (
    ActualSystem,
    ConditionalFactor,
    FactorSpec,
    MarginalMirror,
    TableFactor,
    TargetSpec,
)
from .tables import Role, Table, Variable

__all__ = [
    "belief_chain",
    "channel_pair",
    "control_pair",
    "filter_pair",
    "generic_pair",
    "mi_table",
    "rng_for",
    "skill_pair",
    "tight_target",
]


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """A Philox generator keyed by ``seed`` and a structural path."""
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(int(p) for p in path)
    )
    return np.random.Generator(np.random.Philox(ss))


def _rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    e = np.exp(rng.normal(size=shape))
    return e / e.sum(axis=-1, keepdims=True)


def generic_pair(seed: int) -> tuple[ActualSystem, TargetSpec]:
    """Four binary variables with random wiring and a full-support target.

    The first latent is always parameterized so the system has something
    to choose; everything else flips a coin between softmax and fixed
    rows. The target multiplies one singleton potential per variable
    with two random pairwise potentials.
    """
    rng = rng_for(seed, 0)
    names = ("x1", "z1", "z2", "x2")
    roles = {
        "x1": Role.PAST_INPUT,
        "z1": Role.LATENT_STATE,
        "z2": Role.LATENT_STATE,
        "x2": Role.FUTURE_INPUT,
    }
    variables = [Variable(n, 2, roles[n]) for n in names]
    factors = []
    for i, n in enumerate(names):
        pool = names[:i]
        mask = rng.random(len(pool)) < 0.5
        parents = tuple(p for p, m in zip(pool, mask) if m)
        shape = (2,) * len(parents) + (2,)
        if n == "z1" or rng.random() < 0.5:
            factors.append(FactorSpec.parameterized(n, parents, rng.normal(size=shape)))
        else:
            factors.append(FactorSpec.fixed(n, parents, _rows(rng, shape)))
    system = ActualSystem(variables, factors)
    tfactors: list = [TableFactor((n,), np.exp(rng.normal(size=2))) for n in names]
    for _ in range(2):
        i, j = sorted(rng.choice(4, size=2, replace=False))
        tfactors.append(
            TableFactor((names[i], names[j]), np.exp(rng.normal(size=(2, 2))))
        )
    return system, TargetSpec(names, tfactors)


def tight_target(seed: int, system: ActualSystem) -> TargetSpec:
    """A target whose internal-given-past conditional matches the system's.

    Mirroring p(past) and p(internal | past) and coupling the future only
    to itself makes the time-split bound exact.
    """
    rng = rng_for(seed, 1)
    past = system.by_role(Role.PAST_INPUT)
    future = system.by_role(Role.FUTURE_INPUT)
    z = tuple(n for n in system.names if not system.variable(n).role.is_input)
    factors: list = []
    if past:
        factors.append(MarginalMirror(past, ()))
    factors.append(MarginalMirror(z, past))
    if future:
        shape = tuple(system.variable(n).cardinality for n in future)
        factors.append(TableFactor(future, np.exp(rng.normal(size=shape))))
    return TargetSpec(system.names, factors)


def filter_pair(seed: int) -> tuple[ActualSystem, TargetSpec]:
    """Filtering-shaped triple: beliefs read the past, the future reads inputs.

    The shape satisfies the structural requirements of the past/future
    inference split; the distributions themselves are random, so the
    uncontrolled term is generically positive.
    """
    rng = rng_for(seed, 2)
    variables = [
        Variable("x1", 2, Role.PAST_INPUT),
        Variable("z", 2, Role.LATENT_STATE),
        Variable("x2", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.fixed("x1", (), _rows(rng, (2,))),
        FactorSpec.parameterized("z", ("x1",), rng.normal(size=(2, 2))),
        FactorSpec.fixed("x2", ("x1",), _rows(rng, (2, 2))),
    ]
    system = ActualSystem(variables, factors)
    target = TargetSpec(
        ("x1", "z", "x2"),
        [
            TableFactor(("x1",), np.exp(rng.normal(size=2))),
            ConditionalFactor("z", ("x1",), _rows(rng, (2, 2))),
            ConditionalFactor("x2", ("z",), _rows(rng, (2, 2))),
        ],
    )
    return system, target


def control_pair(seed: int) -> tuple[ActualSystem, dict]:
    """Two observed steps of a three-state walk with random rewards."""
    rng = rng_for(seed, 3)
    variables = [
        Variable("x1", 3, Role.PAST_INPUT),
        Variable("a1", 2, Role.ACTION),
        Variable("x2", 3, Role.FUTURE_INPUT),
        Variable("a2", 2, Role.ACTION),
        Variable("x3", 3, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.fixed("x1", (), _rows(rng, (3,))),
        FactorSpec.parameterized("a1", ("x1",), rng.normal(size=(3, 2))),
        FactorSpec.fixed("x2", ("x1", "a1"), _rows(rng, (3, 2, 3))),
        FactorSpec.parameterized("a2", ("x2",), rng.normal(size=(3, 2))),
        FactorSpec.fixed("x3", ("x2", "a2"), _rows(rng, (3, 2, 3))),
    ]
    system = ActualSystem(variables, factors)
    options = {
        "rewards": {
            "x2": tuple(rng.normal(size=3)),
            "x3": tuple(rng.normal(size=3)),
        },
        "mode": "kl-control",
    }
    return system, options


def skill_pair(seed: int) -> tuple[ActualSystem, dict]:
    """One skill steering one action into one noisy observation."""
    rng = rng_for(seed, 4)
    variables = [
        Variable("z", 2, Role.SKILL),
        Variable("x1", 2, Role.PAST_INPUT),
        Variable("a1", 2, Role.ACTION),
        Variable("x2", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.parameterized("z", (), rng.normal(size=2)),
        FactorSpec.fixed("x1", (), _rows(rng, (2,))),
        FactorSpec.parameterized("a1", ("z", "x1"), rng.normal(size=(2, 2, 2))),
        FactorSpec.fixed("x2", ("a1",), _rows(rng, (2, 2))),
    ]
    system = ActualSystem(variables, factors)
    options = {
        "predictor": {
            "child": "z",
            "parents": ("x2",),
            "init": rng.normal(size=(2, 2)).tolist(),
        },
        "action_prior": "policy" if seed % 2 == 0 else "uniform",
    }
    return system, options


def channel_pair(seed: int) -> ActualSystem:
    """A three-way action pushed through a random binary channel."""
    rng = rng_for(seed, 5)
    variables = [
        Variable("a", 3, Role.ACTION),
        Variable("x1", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.parameterized("a", (), rng.normal(size=3)),
        FactorSpec.fixed("x1", ("a",), _rows(rng, (3, 2))),
    ]
    return ActualSystem(variables, factors)


def belief_chain(seed: int) -> ActualSystem:
    """A hidden parameter observed through two successive noisy reads."""
    rng = rng_for(seed, 6)
    variables = [
        Variable("w", 2, Role.PARAMETER),
        Variable("x1", 2, Role.FUTURE_INPUT),
        Variable("x2", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.parameterized("w", (), rng.normal(size=2)),
        FactorSpec.fixed("x1", ("w",), _rows(rng, (2, 2))),
        FactorSpec.fixed("x2", ("w", "x1"), _rows(rng, (2, 2, 2))),
    ]
    return ActualSystem(variables, factors)


def mi_table(seed: int) -> Table:
    """A full-support random joint over one 3-way and one 4-way variable."""
    rng = rng_for(seed, 7)
    weights = np.exp(rng.normal(size=(3, 4)))
    scope = (
        Variable("u", 3, Role.LATENT_STATE),
        Variable("v", 4, Role.FUTURE_INPUT),
    )
    return Table(scope, weights / weights.sum())
