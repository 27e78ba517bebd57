"""Randomized verification of the divergence identities and bounds.

Each named check replays one exact identity, one inequality, or one
cross-implementation agreement over many seeded random instances and
records the worst error observed. A check passes when that worst error
stays within its stated tolerance. Checks are independent of each
other and run one after another on the calling thread.

The sweep is deterministic: instances come from counter-based streams
keyed by the case index, never from global random state, so a failure
reported for one seed can be replayed in isolation.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from . import randsys
from .decomp import (
    bayesian_future_check,
    decompose_input_side,
    decompose_latent_side,
    energy_entropy,
    expected_free_energy,
    past_future_split,
)
from .errors import ConfigError
from .objectives import FAMILY_TAGS, Objective, from_preset, make_objective
from .presets import preset
from .systems import (
    ActualSystem,
    FactorSpec,
    MarginalMirror,
    TargetSpec,
    build_joint,
)
from .tables import (
    Role,
    Variable,
    entropy,
    kl,
    marginalize,
    mutual_information,
    variational_mi_lower_bound,
)

__all__ = ["CheckResult", "SuiteResult", "check_names", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check over its whole case sweep."""

    name: str
    equation: str
    passed: bool
    cases: int
    max_error: float
    tolerance: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SuiteResult:
    """All check outcomes plus the wall time of the sweep."""

    checks: tuple[CheckResult, ...]
    duration_s: float

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        """Only the reproducible parts; the timing stays off the
        serialized record."""
        return {
            "passed": self.passed,
            "checks": [check.to_dict() for check in self.checks],
        }


# A sweep yields once per case: that case's error, or a tuple of errors
# when the case tests several quantities. An error is a violation, so a
# negative one is a bound that holds with room to spare.
CaseErrors = float | tuple[float, ...]
Sweep = Callable[[int, int], Iterator[CaseErrors]]
# randsys.generic_pair, or a memo of it shared by the checks of one run.
GenericPairs = Callable[[int], tuple[ActualSystem, TargetSpec]]


def _identity(split, generic_pair: GenericPairs, seeds: int, draws: int) -> Iterator[CaseErrors]:
    for seed in range(seeds):
        system, target = generic_pair(seed)
        yield abs(split(system, target).slack)


def _filter_split(seeds: int, draws: int) -> Iterator[CaseErrors]:
    for seed in range(seeds):
        system, target = randsys.filter_pair(seed)
        report = bayesian_future_check(system, target)
        yield abs(report.slack), -report.terms["uncontrolled_future"]


def _maxent_identity(seeds: int, draws: int) -> Iterator[CaseErrors]:
    for seed in range(seeds):
        system, options = randsys.control_pair(seed)
        objective = make_objective(
            "maxent_rl", system, options={"rewards": options["rewards"]}
        )
        phi = randsys.rng_for(seed, 30).normal(size=objective.parameters().shape)
        yield abs(objective.report(phi).slack)


def _empowerment_bound(seeds: int, draws: int) -> Iterator[CaseErrors]:
    for seed in range(seeds):
        objective = make_objective("empowerment", randsys.channel_pair(seed))
        phi = randsys.rng_for(seed, 31).normal(size=objective.parameters().shape)
        report = objective.report(phi)
        bound = -objective.value(phi).total
        yield (
            abs(report.slack),
            bound - report.extras["exact_mi"],
            report.extras["exact_mi"] - report.extras["mi_cap"],
        )


def _skill_identity(seeds: int, draws: int) -> Iterator[CaseErrors]:
    for seed in range(seeds):
        system, options = randsys.skill_pair(seed)
        objective = make_objective("skill_discovery", system, options=options)
        phi = randsys.rng_for(seed, 32).normal(size=objective.parameters().shape)
        report = objective.report(phi)
        yield abs(report.slack), abs(report.terms["control"])


def _time_split_bound(
    generic_pair: GenericPairs, seeds: int, draws: int
) -> Iterator[CaseErrors]:
    for seed in range(seeds):
        system, target = generic_pair(seed)
        yield -past_future_split(system, target).slack


def _time_split_tightness(
    generic_pair: GenericPairs, seeds: int, draws: int
) -> Iterator[CaseErrors]:
    for seed in range(seeds):
        system, _ = generic_pair(seed)
        target = randsys.tight_target(seed, system)
        yield abs(past_future_split(system, target).slack)


def _exploration_bound(seeds: int, draws: int) -> Iterator[CaseErrors]:
    for seed in range(seeds):
        system = randsys.belief_chain(seed)
        objective = make_objective("info_gain", system)
        phi = randsys.rng_for(seed, 33).normal(size=objective.parameters().shape)
        report = objective.report(phi)
        matched = TargetSpec(system.names, [MarginalMirror(("w",), ("x1", "x2"))])
        tight = make_objective("info_gain", system, target=matched)
        tight_phi = randsys.rng_for(seed, 37).normal(size=tight.parameters().shape)
        yield (
            -report.extras["info_gain_gap"],
            -report.slack,
            abs(tight.report(tight_phi).extras["info_gain_gap"]),
        )


def _mi_variational(seeds: int, draws: int) -> Iterator[CaseErrors]:
    for seed in range(seeds):
        table = randsys.mi_table(seed)
        exact = mutual_information(table, ("u",), ("v",))
        rng = randsys.rng_for(seed, 8)
        guess = np.exp(rng.normal(size=table.probs.shape))
        guess /= guess.sum(axis=1, keepdims=True)
        bound = variational_mi_lower_bound(table, guess, ("v",), ("u",))
        matched = table.probs / table.probs.sum(axis=1, keepdims=True)
        tight = variational_mi_lower_bound(table, matched, ("v",), ("u",))
        yield bound - exact, abs(tight - exact)


_PRESET_FOR_FAMILY = {
    "joint_kl": "hmm-filter",
    "elbo_bnn": "bnn-toy",
    "amortized_vae": "vae-toy",
    "kl_control": "chain-mdp",
    "empowerment": "dead-action",
    "skill_discovery": "two-room-skills",
    "info_gain": "bandit-infogain",
}


def _family_objective(family: str) -> Objective:
    if family in _PRESET_FOR_FAMILY:
        return from_preset(preset(_PRESET_FOR_FAMILY[family]))
    if family == "map_point_mass":
        source = preset("bnn-toy")
        return make_objective("map_point_mass", source.system, source.target)
    if family == "maxent_rl":
        system, options = randsys.control_pair(0)
        return make_objective(
            "maxent_rl", system, options={"rewards": options["rewards"]}
        )
    raise ConfigError(f"no verification instance for family {family!r}")


def _certificate_error(objective: Objective, phi: np.ndarray) -> tuple[float, ...]:
    """Disagreements between the engine evaluation and the report.

    Term names shared by both sides must carry the same value; totals must
    agree whenever the family claims they coincide; the report's own
    relation to the joint divergence must hold as stated.
    """
    evaluation = objective.value_and_gradient(phi).evaluation
    report = objective.report(phi)
    errors = [
        abs(value - report.terms[name])
        for name, value in evaluation.terms.items()
        if name in report.terms
    ]
    if objective.total_matches_report:
        errors.append(abs(evaluation.total - report.total))
    errors.append(abs(report.slack) if report.relation == "equals" else -report.slack)
    return tuple(errors)


def _certificate_check(family: str) -> Sweep:
    def sweep(seeds: int, draws: int) -> Iterator[CaseErrors]:
        objective = _family_objective(family)
        shape = objective.parameters().shape
        for index in range(draws):
            phi = randsys.rng_for(1000 + index, 9).normal(size=shape)
            yield _certificate_error(objective, phi)

    return sweep


def _score_residual(seeds: int, draws: int) -> Iterator[CaseErrors]:
    for family in FAMILY_TAGS:
        objective = _family_objective(family)
        shape = objective.parameters().shape
        for index in range(max(1, draws // 4)):
            phi = randsys.rng_for(2000 + index, 10).normal(size=shape)
            yield objective.value_and_gradient(phi).score_residual


def _maxent_reduction(seeds: int, draws: int) -> Iterator[CaseErrors]:
    for seed in range(min(seeds, 20)):
        system, options = randsys.control_pair(seed)
        rewards = {"rewards": options["rewards"]}
        maxent = make_objective("maxent_rl", system, options=rewards)
        control = make_objective(
            "kl_control", system, options=dict(rewards, mode="kl-control")
        )
        phi = randsys.rng_for(seed, 34).normal(size=maxent.parameters().shape)
        yield abs(maxent.value(phi).total - control.value(phi).total)


def _reward_noise_invariance(seeds: int, draws: int) -> Iterator[CaseErrors]:
    for seed in range(min(seeds, 20)):
        system, options = randsys.control_pair(seed)
        opts = {"rewards": options["rewards"], "mode": "expected-reward"}
        base = make_objective("kl_control", system, options=opts)
        rng = randsys.rng_for(seed, 35)
        noise = np.exp(rng.normal(size=(3, 2)))
        noise /= noise.sum(axis=-1, keepdims=True)
        extended = ActualSystem(
            [system.variable(name) for name in system.names]
            + [Variable("x4", 2, Role.FUTURE_INPUT)],
            [system.factors[name] for name in system.names]
            + [FactorSpec.fixed("x4", ("x3",), noise)],
        )
        bigger = make_objective("kl_control", extended, options=opts)
        phi = randsys.rng_for(seed, 36).normal(size=base.parameters().shape)
        yield abs(base.value(phi).total - bigger.value(phi).total)


def _probability_core(
    generic_pair: GenericPairs, seeds: int, draws: int
) -> Iterator[CaseErrors]:
    for seed in range(min(seeds, 50)):
        system, _ = generic_pair(seed)
        joint = build_joint(system)
        part = marginalize(joint, ("x1", "z2"))
        h_all = entropy(joint)
        h_a = entropy(joint, ("x1", "z1"))
        h_b = entropy(joint, ("z2", "x2"))
        mi = mutual_information(joint, ("x1", "z1"), ("z2", "x2"))
        yield (
            abs(float(joint.probs.sum()) - 1.0),
            abs(float(part.probs.sum()) - 1.0),
            h_all - h_a - h_b,
            -h_a,
            h_a - math.log(4.0),
            abs(kl(joint, joint).value),
            -mi,
            abs((h_a + h_b - h_all) - mi),
        )


def _belief_telescope(seeds: int, draws: int) -> Iterator[CaseErrors]:
    for seed in range(min(seeds, 50)):
        system = randsys.belief_chain(seed)
        joint = build_joint(system)
        total_gain = mutual_information(joint, ("w",), ("x1", "x2"))
        first = mutual_information(joint, ("w",), ("x1",))
        probs = joint.probs
        posterior = probs / probs.sum(axis=0, keepdims=True)
        prior_step = probs.sum(axis=2)
        prior_step = prior_step / prior_step.sum(axis=0, keepdims=True)
        second = float(
            np.sum(probs * (np.log(posterior) - np.log(prior_step)[:, :, None]))
        )
        matched = TargetSpec(system.names, [MarginalMirror(("w",), ("x1", "x2"))])
        objective = make_objective("info_gain", system, target=matched)
        report = objective.report(objective.parameters())
        yield (
            abs(first + second - total_gain),
            -second,
            abs(report.terms["info_gain"] - total_gain),
        )


_IDENTITY_TOL = 1e-9


def _checks() -> tuple[tuple[str, str, float, Sweep], ...]:
    """The checks in execution order. Seven of them sweep the same generic
    pairs, so each pair is built once per call and shared; the systems and
    targets are immutable, so sharing them changes no result."""
    generic = functools.cache(randsys.generic_pair)
    entries: list[tuple[str, str, float, Sweep]] = [
        ("latent_side_identity", "info_latent", _IDENTITY_TOL, functools.partial(_identity, decompose_latent_side, generic)),
        ("input_side_identity", "info_input", _IDENTITY_TOL, functools.partial(_identity, decompose_input_side, generic)),
        ("free_energy_identity", "efe", _IDENTITY_TOL, functools.partial(_identity, expected_free_energy, generic)),
        ("energy_entropy_identity", "energy_entropy", _IDENTITY_TOL, functools.partial(_identity, energy_entropy, generic)),
        ("filter_split_identity", "missing_data", _IDENTITY_TOL, _filter_split),
        ("maxent_policy_identity", "maxentrl", _IDENTITY_TOL, _maxent_identity),
        ("empowerment_bound", "empowerment", _IDENTITY_TOL, _empowerment_bound),
        ("skill_separation_identity", "skills", _IDENTITY_TOL, _skill_identity),
        ("time_split_bound", "combined", 1e-10, functools.partial(_time_split_bound, generic)),
        ("time_split_tightness", "combined", _IDENTITY_TOL, functools.partial(_time_split_tightness, generic)),
        ("exploration_bound", "infogain", 1e-10, _exploration_bound),
        ("mi_variational_bound", "varmi", 1e-10, _mi_variational),
    ]
    for family, tag in FAMILY_TAGS.items():
        entries.append((f"certificate_{family}", tag, _IDENTITY_TOL, _certificate_check(family)))
    entries.extend(
        [
            ("score_residual", "score", 1e-10, _score_residual),
            ("maxent_uniform_reduction", "maxentrl", 1e-12, _maxent_reduction),
            ("reward_noise_invariance", "control", 1e-12, _reward_noise_invariance),
            ("probability_core", "core", _IDENTITY_TOL, functools.partial(_probability_core, generic)),
            ("belief_update_telescope", "infogain", _IDENTITY_TOL, _belief_telescope),
        ]
    )
    return tuple(entries)


def check_names() -> tuple[str, ...]:
    """Names of every check the suite can run, in execution order."""
    return tuple(name for name, _, _, _ in _checks())


def run_suite(
    seeds: int = 100,
    draws: int = 20,
    only: Iterable[str] | None = None,
) -> SuiteResult:
    """Run the named checks in order and collect their worst-case errors.

    ``seeds`` sizes the per-check instance sweeps and ``draws`` the random
    parameter draws for the certificate checks. ``only`` restricts the run
    to the given check names.
    """
    if seeds < 1:
        raise ConfigError("seeds must be a positive integer")
    if draws < 1:
        raise ConfigError("draws must be a positive integer")

    entries = _checks()
    if only is not None:
        wanted = set(only)
        unknown = wanted - {name for name, _, _, _ in entries}
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}")
        entries = tuple(entry for entry in entries if entry[0] in wanted)

    start = time.perf_counter()
    results = []
    for name, equation, tolerance, sweep in entries:
        errors = list(sweep(seeds, draws))
        # np.max passes a nan through, so a nan error fails its check.
        error = np.max(np.hstack(errors), initial=0.0)
        results.append(
            CheckResult(
                name=name,
                equation=equation,
                passed=bool(error <= tolerance),
                cases=len(errors),
                max_error=float(error),
                tolerance=tolerance,
            )
        )
    return SuiteResult(checks=tuple(results), duration_s=time.perf_counter() - start)
