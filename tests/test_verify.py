"""Behavior of the randomized verification suite driver."""

import dataclasses
import json
import math
import multiprocessing
import os

import pytest

import divmin.randsys
import divmin.verify
from divmin.errors import ConfigError, ValidationError
from divmin.objectives import FAMILY_TAGS
from divmin.verify import check_names, run_suite


def test_full_suite_passes_on_a_small_sweep():
    result = run_suite(seeds=30, draws=5)
    assert result.passed
    assert len(result.checks) == len(check_names())
    assert result.duration_s > 0.0
    for check in result.checks:
        assert check.passed
        assert check.cases > 0
        assert check.max_error <= check.tolerance


def test_check_names_are_unique_and_ordered():
    names = check_names()
    assert len(names) == len(set(names))
    result = run_suite(seeds=2, draws=1)
    assert tuple(check.name for check in result.checks) == names


def test_corrupt_flag_forces_a_reported_failure(monkeypatch):
    # A split whose joint_kl is off by 1e-3 must surface as a failed check.
    split = divmin.verify.decompose_latent_side

    def skewed(system, target):
        report = split(system, target)
        return dataclasses.replace(report, joint_kl=report.joint_kl + 1e-3)

    monkeypatch.setattr(divmin.verify, "decompose_latent_side", skewed)
    result = run_suite(seeds=3, draws=1, only=["latent_side_identity"])
    assert not result.passed
    (check,) = result.checks
    assert not check.passed
    assert check.max_error > check.tolerance


def test_nan_case_error_fails_its_check(monkeypatch):
    # max(0.0, nan) is 0.0 in Python; the driver must not drop a nan error.
    split = divmin.verify.decompose_latent_side

    def broken(system, target):
        return dataclasses.replace(split(system, target), joint_kl=math.nan)

    monkeypatch.setattr(divmin.verify, "decompose_latent_side", broken)
    result = run_suite(seeds=3, draws=1, only=["latent_side_identity"])
    assert not result.passed
    (check,) = result.checks
    assert not check.passed
    assert math.isnan(check.max_error)
    assert check.cases == 3


def test_cases_count_yields_not_errors():
    # empowerment_bound tests three quantities per seed, score_residual
    # one per family and parameter draw.
    result = run_suite(seeds=3, draws=8, only=["empowerment_bound", "score_residual"])
    empowerment, score = result.checks
    assert empowerment.cases == 3
    assert score.cases == 2 * len(FAMILY_TAGS)


def test_only_restricts_and_rejects_unknown_names():
    result = run_suite(seeds=3, draws=1, only=["mi_variational_bound"])
    assert [check.name for check in result.checks] == ["mi_variational_bound"]
    with pytest.raises(ConfigError):
        run_suite(seeds=3, draws=1, only=["no_such_check"])


def test_argument_validation():
    with pytest.raises(ConfigError):
        run_suite(seeds=0)
    with pytest.raises(ConfigError):
        run_suite(draws=0)


def test_results_serialize_to_plain_json():
    result = run_suite(seeds=2, draws=1, only=["probability_core"])
    payload = json.loads(json.dumps(result.to_dict()))
    assert set(payload) == {"passed", "checks"}
    assert payload["passed"] is True
    (check,) = payload["checks"]
    assert set(check) == {
        "name", "equation", "passed", "cases", "max_error", "tolerance",
    }


def test_each_run_builds_each_generic_pair_once(monkeypatch):
    # Seven checks sweep the same generic pairs; one run shares them, and a
    # second run builds its own rather than reusing the first run's.
    built = []
    generic_pair = divmin.randsys.generic_pair

    def counted(seed):
        built.append(seed)
        return generic_pair(seed)

    monkeypatch.setattr(divmin.randsys, "generic_pair", counted)
    only = [
        "latent_side_identity",
        "input_side_identity",
        "free_energy_identity",
        "energy_entropy_identity",
        "time_split_bound",
        "time_split_tightness",
        "probability_core",
    ]
    first = run_suite(seeds=3, draws=1, only=only)
    assert sorted(built) == [0, 1, 2]
    second = run_suite(seeds=3, draws=1, only=only)
    assert sorted(built) == [0, 0, 1, 1, 2, 2]
    assert first.to_dict() == second.to_dict()
    assert first.passed


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that a run of two or more checks forks its pool
    on any machine."""
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the pool needs fork and sched_getaffinity")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_the_pool_gives_the_results_of_each_check_run_alone(two_cpus):
    pooled = run_suite(seeds=5, draws=2)
    alone = tuple(
        check
        for name in check_names()
        for check in run_suite(seeds=5, draws=2, only=[name]).checks
    )
    assert pooled.checks == alone
    assert multiprocessing.active_children() == []


def test_a_check_that_raises_in_a_worker_leaves_no_process(two_cpus, monkeypatch):
    def raising(system, target):
        raise ValidationError(f"raised in process {os.getpid()}")

    monkeypatch.setattr(divmin.verify, "decompose_latent_side", raising)
    with pytest.raises(ValidationError, match="raised in process") as caught:
        run_suite(seeds=3, draws=1, only=["latent_side_identity", "mi_variational_bound"])
    assert str(caught.value) != f"raised in process {os.getpid()}"
    assert multiprocessing.active_children() == []
    with pytest.raises(ValidationError, match=f"^raised in process {os.getpid()}$"):
        run_suite(seeds=3, draws=1, only=["latent_side_identity"])
