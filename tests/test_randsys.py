"""Determinism and validity of the seeded instance generators."""

import numpy as np
import pytest

from divmin import randsys
from divmin.decomp import bayesian_future_check, joint_kl, past_future_split
from divmin.objectives import make_objective
from divmin.systems import build_joint


def _payload(factor):
    return factor.table if factor.table is not None else factor.logits


def test_same_seed_reproduces_the_instance():
    first, target_a = randsys.generic_pair(11)
    second, target_b = randsys.generic_pair(11)
    for name in first.names:
        assert first.factors[name].parents == second.factors[name].parents
        assert np.array_equal(_payload(first.factors[name]), _payload(second.factors[name]))
    assert len(target_a.factors) == len(target_b.factors)
    for fa, fb in zip(target_a.factors, target_b.factors):
        assert fa.vars == fb.vars
        assert np.array_equal(fa.table, fb.table)


def test_distinct_seeds_differ():
    first, _ = randsys.generic_pair(11)
    second, _ = randsys.generic_pair(12)

    def differs():
        for name in first.names:
            fa, fb = first.factors[name], second.factors[name]
            if fa.parents != fb.parents:
                return True
            a, b = _payload(fa), _payload(fb)
            if a is None or b is None or a.shape != b.shape:
                return True
            if not np.array_equal(a, b):
                return True
        return False

    assert differs()


def test_rng_paths_are_independent_streams():
    a = randsys.rng_for(0, 1).normal(size=4)
    b = randsys.rng_for(0, 1).normal(size=4)
    c = randsys.rng_for(0, 2).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generic_pair_builds_and_stays_finite(seed):
    system, target = randsys.generic_pair(seed)
    joint = build_joint(system)
    assert joint.probs.sum() == pytest.approx(1.0, abs=1e-12)
    for factor in target.factors:
        assert np.all(factor.table > 0.0)
    assert not joint_kl(system, target).divergent


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_tight_target_closes_the_time_split(seed):
    system, _ = randsys.generic_pair(seed)
    target = randsys.tight_target(seed, system)
    assert abs(past_future_split(system, target).slack) < 1e-12


@pytest.mark.parametrize("seed", [0, 3])
def test_filter_pair_splits_exactly(seed):
    system, target = randsys.filter_pair(seed)
    report = bayesian_future_check(system, target)
    assert abs(report.slack) < 1e-12
    assert report.terms["uncontrolled_future"] >= -1e-12


def test_control_skill_and_channel_instances_build_objectives():
    system, options = randsys.control_pair(0)
    control = make_objective("kl_control", system, options=options)
    assert abs(control.report(control.parameters()).slack) < 1e-12

    system, options = randsys.skill_pair(0)
    skills = make_objective("skill_discovery", system, options=options)
    assert abs(skills.report(skills.parameters()).slack) < 1e-12

    channel = make_objective("empowerment", randsys.channel_pair(0))
    report = channel.report(channel.parameters())
    assert report.extras["exact_mi"] >= 0.0


def test_belief_chain_and_mi_table_shapes():
    system = randsys.belief_chain(0)
    objective = make_objective("info_gain", system)
    report = objective.report(objective.parameters())
    assert report.extras["info_gain_gap"] >= -1e-12

    table = randsys.mi_table(0)
    assert table.probs.shape == (3, 4)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)
