"""JSON run configurations: strict schema first, then construction.

A configuration names a problem, either a bundled preset or an inline
system description, plus a seed, a starting point, and optimizer
settings. Validation is two-staged: the JSON schema checks the
document's shape (known keys, required fields, JSON types), then each
system and target class is built straight from its JSON fields and
converts and checks them itself (rectangular arrays, integral counts
and selectors, row normalization, scope membership), so a
configuration can only ever build the same objects the Python API
would. ``jsonschema`` is imported on the first validation, not with the
package, so code that never parses a configuration never loads it.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ConfigError
from .objectives import FAMILY_TAGS, Objective, from_preset, make_objective
from .presets import names as preset_names
from .presets import preset
from .randsys import rng_for
from .systems import (
    ActualSystem,
    ConditionalFactor,
    FactorMirror,
    FactorSpec,
    MarginalMirror,
    ParamFactor,
    RewardFactor,
    TableFactor,
    TargetSpec,
)
from .tables import Role, Variable, _float_array

__all__ = [
    "RunConfig",
    "SCHEMA",
    "SCHEMA_VERSION",
    "bundled_config_names",
    "bundled_config_path",
    "load_config",
    "parse_config",
]

SCHEMA_VERSION = 3


_NAME = {"type": "string"}
_NAMES = {"type": "array", "items": {"type": "string", "minLength": 1}}
_NUMBERS = {"$ref": "#/$defs/numbers"}

# Each target-factor kind: its class, and the schema of the class's fields.
_TARGET_FACTORS = {
    "table": (TableFactor, {"vars": _NAMES, "table": _NUMBERS}),
    "conditional": (ConditionalFactor, {"child": _NAME, "parents": _NAMES, "table": _NUMBERS}),
    "reward": (RewardFactor, {"vars": _NAMES, "values": _NUMBERS}),
    "param": (ParamFactor, {"child": _NAME, "parents": _NAMES, "logits": _NUMBERS}),
    "mirror": (FactorMirror, {"child": _NAME}),
    "marginal_mirror": (MarginalMirror, {"vars": _NAMES, "given": _NAMES}),
}


def _target_factor_schema(kind: str, cls: type, properties: dict) -> dict:
    """A ``kind`` object: ``cls``'s fields, those without a default required."""
    return {
        "type": "object",
        "properties": {"type": {"const": kind}, **properties},
        "required": ["type"] + [f.name for f in fields(cls) if f.init and f.default is MISSING],
        "additionalProperties": False,
    }


SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "seed": {"type": "integer", "minimum": 0},
        "preset": {"type": "string", "minLength": 1},
        "problem": {"$ref": "#/$defs/problem"},
        "init": {
            "anyOf": [
                {"enum": ["system", "random"]},
                {"type": "array", "minItems": 1, "items": {"type": "number"}},
            ]
        },
        "optimizer": {
            "type": "object",
            "properties": {
                "max_iters": {"type": "integer", "minimum": 1},
                "grad_tol": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "required": ["seed"],
    "additionalProperties": False,
    "oneOf": [{"required": ["preset"]}, {"required": ["problem"]}],
    "$defs": {
        "numbers": {
            "anyOf": [
                {"type": "number"},
                {"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/numbers"}},
            ]
        },
        "problem": {
            "type": "object",
            "properties": {
                "family": {"enum": sorted(FAMILY_TAGS)},
                "system": {"$ref": "#/$defs/system"},
                "target": {"$ref": "#/$defs/target"},
                "options": {"type": "object"},
                "realized": {
                    "type": "object",
                    "additionalProperties": {"type": "integer", "minimum": 0},
                },
                "realization": {"enum": ["intervene", "condition"]},
            },
            "required": ["family", "system"],
            "additionalProperties": False,
        },
        "system": {
            "type": "object",
            "properties": {
                "variables": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"$ref": "#/$defs/variable"},
                },
                "factors": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"$ref": "#/$defs/factor"},
                },
            },
            "required": ["variables", "factors"],
            "additionalProperties": False,
        },
        "variable": {
            "type": "object",
            "properties": {
                "name": {"type": "string", "minLength": 1},
                "cardinality": {"type": "integer", "minimum": 1},
                "role": {"enum": [role.value for role in Role]},
            },
            "required": ["name", "cardinality", "role"],
            "additionalProperties": False,
        },
        "factor": {
            "type": "object",
            "properties": {
                "child": {"type": "string", "minLength": 1},
                "parents": _NAMES,
                "table": _NUMBERS,
                "logits": _NUMBERS,
                "selector": _NUMBERS,
            },
            "required": ["child"],
            "additionalProperties": False,
            "oneOf": [
                {"required": ["table"]},
                {"required": ["logits"]},
                {"required": ["selector"]},
            ],
        },
        "target": {
            "type": "object",
            "properties": {
                "scope": {"type": "array", "minItems": 1, "items": {"type": "string"}},
                "factors": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"$ref": "#/$defs/target_factor"},
                },
            },
            "required": ["scope", "factors"],
            "additionalProperties": False,
        },
        "target_factor": {
            "oneOf": [
                _target_factor_schema(kind, cls, properties)
                for kind, (cls, properties) in _TARGET_FACTORS.items()
            ]
        },
    },
}


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration, ready to hand to the optimizer."""

    name: str
    seed: int
    objective: Objective
    phi0: np.ndarray
    optimizer: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        phi0 = _float_array(self.phi0, "parameter vector").copy()
        phi0.flags.writeable = False
        object.__setattr__(self, "phi0", phi0)
        object.__setattr__(self, "optimizer", MappingProxyType(dict(self.optimizer)))


def _build_system(data: Mapping) -> ActualSystem:
    return ActualSystem(
        [Variable(**v) for v in data["variables"]], [FactorSpec(**f) for f in data["factors"]]
    )


def _build_target(data: Mapping) -> TargetSpec:
    factors = [
        _TARGET_FACTORS[f["type"]][0](**{k: v for k, v in f.items() if k != "type"})
        for f in data["factors"]
    ]
    return TargetSpec(data["scope"], factors)


def _initial_point(init, seed: int, objective: Objective) -> np.ndarray:
    declared = objective.parameters()
    if init == "system" or init is None:
        return declared
    if init == "random":
        return rng_for(seed, 100).normal(size=declared.shape)
    values = np.asarray(init, dtype=np.float64)
    if values.shape != declared.shape:
        raise ConfigError(
            f"init has {values.size} values, but the objective has "
            f"{declared.size} parameters"
        )
    return values


@functools.cache
def _validator():
    """The ``Draft202012Validator`` for ``SCHEMA``, whose own check runs
    once per process."""
    from jsonschema import Draft202012Validator

    Draft202012Validator.check_schema(SCHEMA)
    return Draft202012Validator(SCHEMA)


def parse_config(data: Mapping) -> RunConfig:
    """Validate a configuration document and build its objective.

    An unnamed configuration is named after its preset, or else after
    its problem's family.
    """
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(data))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "top level"
        raise ConfigError(f"invalid configuration at {where}: {error.message}")

    seed = int(data["seed"])
    if "preset" in data:
        ref = data["preset"]
        if ref not in preset_names():
            raise ConfigError(
                f"unknown preset {ref!r}; available: {', '.join(preset_names())}"
            )
        objective = from_preset(preset(ref))
        default_name = ref
    else:
        problem = data["problem"]
        system = _build_system(problem["system"])
        target = _build_target(problem["target"]) if "target" in problem else None
        realized = dict(problem["realized"]) if "realized" in problem else None
        objective = make_objective(
            problem["family"],
            system,
            target=target,
            options=problem.get("options"),
            realized=realized,
            realization=problem.get("realization", "intervene"),
        )
        default_name = problem["family"]

    return RunConfig(
        name=data.get("name", default_name),
        seed=seed,
        objective=objective,
        phi0=_initial_point(data.get("init"), seed, objective),
        optimizer=data.get("optimizer", {}),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read, validate, and build a configuration from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return parse_config(data)


def bundled_config_names() -> tuple[str, ...]:
    """Names of the configuration files shipped inside the package."""
    root = resources.files("divmin") / "configs"
    return tuple(
        sorted(entry.name[:-5] for entry in root.iterdir() if entry.name.endswith(".json"))
    )


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a bundled configuration by bare name."""
    entry = resources.files("divmin") / "configs" / f"{name}.json"
    if not entry.is_file():
        raise ConfigError(
            f"no bundled configuration named {name!r}; available: "
            f"{', '.join(bundled_config_names())}"
        )
    return Path(str(entry))
