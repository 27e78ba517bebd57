"""Schema enforcement and construction for JSON run configurations."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from divmin.config import (
    _TARGET_FACTORS,
    SCHEMA,
    bundled_config_names,
    bundled_config_path,
    load_config,
    parse_config,
)
from divmin.errors import ConfigError, ValidationError
from divmin.optim import check_gradient, minimize
from divmin.systems import (
    ConditionalFactor,
    FactorMirror,
    FactorSpec,
    MarginalMirror,
    ParamFactor,
    RewardFactor,
    TableFactor,
    TargetFactor,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports divmin from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def inline_problem() -> dict:
    return {
        "family": "joint_kl",
        "system": {
            "variables": [
                {"name": "x", "cardinality": 2, "role": "past-input"},
                {"name": "z", "cardinality": 2, "role": "latent-state"},
            ],
            "factors": [
                {"child": "x", "parents": [], "table": [0.5, 0.5]},
                {"child": "z", "parents": ["x"], "logits": [[0.0, 0.0], [0.0, 0.0]]},
            ],
        },
        "target": {
            "scope": ["x", "z"],
            "factors": [
                {
                    "type": "table",
                    "vars": ["x", "z"],
                    "table": [[1.0, 2.0], [3.0, 4.0]],
                }
            ],
        },
    }


def test_bundled_configs_exist_and_build():
    names = bundled_config_names()
    assert {"bnn-toy", "free-choice", "bandit-infogain", "chain-mdp"} <= set(names)
    for name in names:
        config = load_config(bundled_config_path(name))
        assert config.name == name
        assert config.phi0.shape == config.objective.parameters().shape


def test_inline_problem_builds_a_working_objective():
    config = parse_config({"seed": 3, "problem": inline_problem()})
    assert config.objective.family == "joint_kl"
    assert np.array_equal(config.phi0, config.objective.parameters())
    evaluation = config.objective.value(config.phi0)
    assert np.isfinite(evaluation.total)


def test_an_unnamed_config_is_named_after_its_preset_or_family(tmp_path):
    inline = tmp_path / "inline-run.json"
    inline.write_text(json.dumps({"seed": 0, "problem": inline_problem()}))
    assert load_config(inline).name == "joint_kl"
    named = tmp_path / "preset-run.json"
    named.write_text(json.dumps({"seed": 0, "preset": "free-choice"}))
    assert load_config(named).name == "free-choice"


def test_random_init_is_seed_deterministic():
    doc = {"seed": 9, "problem": inline_problem(), "init": "random"}
    first = parse_config(doc)
    second = parse_config(doc)
    assert np.array_equal(first.phi0, second.phi0)
    other = parse_config({**doc, "seed": 10})
    assert not np.array_equal(first.phi0, other.phi0)


def test_explicit_init_values_are_used_and_checked():
    doc = {"seed": 0, "problem": inline_problem(), "init": [1.0, -1.0, 0.5, 0.0]}
    config = parse_config(doc)
    assert np.array_equal(config.phi0, [1.0, -1.0, 0.5, 0.0])
    with pytest.raises(ConfigError):
        parse_config({**doc, "init": [1.0, 2.0]})


@pytest.mark.parametrize(
    "document",
    [
        {"seed": 0},
        {"preset": "bnn-toy"},
        {"seed": 0, "preset": "bnn-toy", "unexpected": True},
        {"seed": 0, "preset": "nope"},
        {"seed": 0, "preset": "bnn-toy", "optimizer": {"step_size": 1.0}},
        {"seed": -1, "preset": "bnn-toy"},
    ],
)
def test_malformed_documents_are_rejected(document):
    with pytest.raises(ConfigError):
        parse_config(document)


def test_preset_and_problem_are_mutually_exclusive():
    with pytest.raises(ConfigError):
        parse_config({"seed": 0, "preset": "bnn-toy", "problem": inline_problem()})


def test_factor_must_pick_exactly_one_payload():
    doc = {"seed": 0, "problem": inline_problem()}
    doc["problem"]["system"]["factors"][0] = {
        "child": "x",
        "parents": [],
        "table": [0.5, 0.5],
        "logits": [0.0, 0.0],
    }
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_load_config_reports_bad_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(missing)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(broken)
    array = tmp_path / "array.json"
    array.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_config(array)


def test_unknown_bundled_name_is_rejected():
    with pytest.raises(ConfigError):
        bundled_config_path("definitely-not-bundled")


def test_schema_is_a_valid_draft_2020_12_schema():
    # parse_config checks the schema once per process, so check it here too.
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def test_optimizer_settings_are_exactly_the_keywords_of_minimize():
    keywords = {
        name
        for name, param in inspect.signature(minimize).parameters.items()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
    }
    assert set(SCHEMA["properties"]["optimizer"]["properties"]) == keywords


def test_building_objectives_and_verifying_never_load_jsonschema():
    run_fresh("""
import sys
import divmin
from divmin import from_preset, preset, run_suite
from_preset(preset("chain-mdp"))
run_suite(seeds=1, draws=1, only=["probability_core"])
loaded = [m for m in sys.modules if m.split(".")[0] == "jsonschema"]
assert not loaded, loaded
""")


def test_the_first_parse_loads_jsonschema_and_still_rejects():
    run_fresh("""
import sys
from divmin.config import parse_config
from divmin.errors import ConfigError
try:
    parse_config({"seed": 0, "preset": "bnn-toy", "unexpected": True})
except ConfigError as exc:
    assert "invalid configuration at top level" in str(exc), exc
else:
    raise AssertionError("an unknown key was accepted")
assert "jsonschema" in sys.modules
""")


def test_the_first_parse_checks_the_schema_itself():
    run_fresh("""
import jsonschema
from divmin import config
config.parse_config({"seed": 0, "preset": "bnn-toy"})
config.SCHEMA = {"type": 12}
config._validator.cache_clear()
try:
    config.parse_config({"seed": 0, "preset": "bnn-toy"})
except jsonschema.SchemaError:
    pass
else:
    raise AssertionError("an invalid schema went unchecked")
""")


def assert_same_fields(parsed, built) -> None:
    """``parsed`` has ``built``'s class and, field by field, its values
    (arrays with the same dtype)."""
    assert type(parsed) is type(built)
    for f in dataclasses.fields(built):
        got, want = getattr(parsed, f.name), getattr(built, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name
        else:
            assert got == want, f.name


@pytest.mark.parametrize(
    "factor, parsed",
    [
        ({"type": "table", "vars": ["z"], "table": [0.4, 1.6]}, TableFactor(("z",), [0.4, 1.6])),
        (
            {"type": "conditional", "child": "x", "parents": ["z"], "table": [[0.3, 0.7], [0.6, 0.4]]},
            ConditionalFactor("x", ("z",), [[0.3, 0.7], [0.6, 0.4]]),
        ),
        ({"type": "reward", "vars": ["x"], "values": [0.5, -0.5]}, RewardFactor(("x",), [0.5, -0.5])),
        (
            {"type": "param", "child": "x", "parents": ["z"], "logits": [[0.2, -0.1], [0.0, 0.3]]},
            ParamFactor("x", ("z",), [[0.2, -0.1], [0.0, 0.3]]),
        ),
        ({"type": "mirror", "child": "z"}, FactorMirror("z")),
        ({"type": "marginal_mirror", "vars": ["z"], "given": ["x"]}, MarginalMirror(("z",), ("x",))),
        ({"type": "marginal_mirror", "vars": ["z"]}, MarginalMirror(("z",))),
        ({"child": "x", "selector": 1}, FactorSpec.point_mass("x", (), 1)),
    ],
    ids=["table", "conditional", "reward", "param", "mirror", "marginal mirror",
         "marginal mirror without given", "point-mass system factor"],
)
def test_mirror_target_factors_parse_and_certify(factor, parsed):
    # Every target-factor kind, and a system factor without parents, parse
    # into the factor the Python API builds.
    doc = {"seed": 0, "problem": inline_problem()}
    doc["problem"]["target"]["factors"].append(
        {"type": "param", "child": "z", "parents": ["x"], "logits": [[0.3, -0.2], [0.1, 0.4]]}
    )
    if "type" in factor:
        doc["problem"]["target"]["factors"].append(factor)
    else:
        doc["problem"]["system"]["factors"][0] = factor
    objective = parse_config(doc).objective
    if "type" in factor:
        assert_same_fields(objective.target.factors[-1], parsed)
    else:
        assert_same_fields(objective.system.factors[factor["child"]], parsed)
    rng = np.random.default_rng(5)
    size = objective.parameters().size
    for phi in [objective.parameters(), rng.standard_normal(size)]:
        value, report = objective.value(phi), objective.report(phi)
        assert abs(value.total - report.total) <= 1e-12 * max(1.0, abs(report.total))
        assert check_gradient(objective, phi).rel_err <= 1e-8


def test_the_parser_knows_every_target_factor_class():
    assert len(_TARGET_FACTORS) == len(typing.get_args(TargetFactor))
    assert {cls for cls, _ in _TARGET_FACTORS.values()} == set(typing.get_args(TargetFactor))


def test_an_integral_float_cardinality_builds_an_integer_variable():
    doc = {"seed": 0, "problem": inline_problem()}
    doc["problem"]["system"]["variables"][0]["cardinality"] = 2.0
    variable = parse_config(doc).objective.system.variable("x")
    assert variable.cardinality == 2 and type(variable.cardinality) is int


@pytest.mark.parametrize(
    "where, key, value, what",
    [
        ("system", "logits", [[0.0, 0.0], [1.0]], "factor 'z': logits"),
        ("system", "table", [[0.5, 0.5], [0.5]], "factor 'x': table"),
        ("target", "table", [[1.0, 2.0], [3.0]], "target table factor"),
    ],
    ids=["ragged system logits", "ragged system table", "ragged target table"],
)
def test_a_ragged_array_is_a_validation_error(where, key, value, what):
    doc = {"seed": 0, "problem": inline_problem()}
    factor = next(f for f in doc["problem"][where]["factors"] if key in f)
    factor[key] = value
    with pytest.raises(ValidationError, match=f"^{what} must be a rectangular array of numbers$"):
        parse_config(doc)
