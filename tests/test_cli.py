"""End-to-end behavior of the command-line interface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divmin.cli
import divmin.verify
from divmin.cli import main
from divmin.config import bundled_config_names
from divmin.errors import ConfigError
from divmin.objectives import from_preset
from divmin.optim import minimize
from divmin.presets import names as preset_names
from divmin.presets import preset
from divmin.runio import write_report_json, write_terms_svg, write_trace_csv

DIVERGENT_DOC = {
    "seed": 0,
    "problem": {
        "family": "joint_kl",
        "system": {
            "variables": [{"name": "x", "cardinality": 2, "role": "action"}],
            "factors": [{"child": "x", "parents": [], "logits": [0.0, 0.0]}],
        },
        "target": {
            "scope": ["x"],
            "factors": [{"type": "table", "vars": ["x"], "table": [1.0, 0.0]}],
        },
    },
}


def test_list_shows_families_presets_and_checks(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "config schema version: 3" in out
    assert "base objective: joint_kl [jointkl]" in out
    assert "skill_discovery [skills]" in out
    assert "free-choice:" in out
    families = out.split("objective families:")[1].split("presets:")[0]
    assert len([line for line in families.splitlines() if line.strip()]) == 8
    assert "joint_kl" not in families
    assert "latent_side_identity" in out


def test_python_dash_m_divmin_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "divmin", "list"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "objective families:" in done.stdout


def test_verify_passes_and_writes_json(tmp_path, capsys):
    out_file = tmp_path / "suite.json"
    code = main(
        [
            "verify",
            "--seeds", "3",
            "--draws", "1",
            "--only", "probability_core,mi_variational_bound",
            "--json", str(out_file),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS probability_core" in printed
    assert "all checks passed" in printed
    payload = json.loads(out_file.read_text())
    assert payload["passed"] is True
    assert len(payload["checks"]) == 2


def test_verify_corrupt_fails_with_exit_one(monkeypatch, capsys):
    # A split whose joint_kl is off by 1e-3 must fail the run with exit 1.
    split = divmin.verify.decompose_latent_side

    def skewed(system, target):
        report = split(system, target)
        return dataclasses.replace(report, joint_kl=report.joint_kl + 1e-3)

    monkeypatch.setattr(divmin.verify, "decompose_latent_side", skewed)
    code = main(["verify", "--seeds", "2", "--draws", "1", "--only", "latent_side_identity"])
    assert code == 1
    assert "FAIL latent_side_identity" in capsys.readouterr().out


def test_verify_nan_error_fails_with_exit_one(monkeypatch, capsys):
    # A split whose joint_kl is nan must fail the run, not pass at error 0.
    split = divmin.verify.decompose_latent_side

    def broken(system, target):
        return dataclasses.replace(split(system, target), joint_kl=math.nan)

    monkeypatch.setattr(divmin.verify, "decompose_latent_side", broken)
    code = main(["verify", "--seeds", "2", "--draws", "1", "--only", "latent_side_identity"])
    assert code == 1
    assert "FAIL latent_side_identity" in capsys.readouterr().out


def test_run_writes_reproducible_artifacts(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", "free-choice", "--out", str(first)]) == 0
    assert main(["run", "free-choice", "--out", str(second)]) == 0
    capsys.readouterr()
    for out in (first, second):
        assert (out / "report.json").is_file()
        assert (out / "trace.csv").is_file()
        assert (out / "terms.svg").is_file()

    report = json.loads((first / "report.json").read_text())
    assert report["name"] == "free-choice"
    assert report["converged"] is True
    assert abs(report["total"]) < 1e-9
    probs = report["optimized_factors"]["p:x"]
    assert abs(probs[0] - 0.25) < 1e-3 and abs(probs[1] - 0.75) < 1e-3

    lines_a = (first / "report.json").read_text().splitlines()
    lines_b = (second / "report.json").read_text().splitlines()
    assert len(lines_a) == len(lines_b)
    differing = [(a, b) for a, b in zip(lines_a, lines_b) if a != b]
    assert all('"timestamp"' in a for a, _ in differing)

    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()
    assert (first / "terms.svg").read_bytes() == (second / "terms.svg").read_bytes()

    header = (first / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("iteration,total,grad_norm,step")
    chart = (first / "terms.svg").read_text()
    assert chart.startswith("<svg") and "polyline" in chart


def test_run_reports_line_search_evaluations(tmp_path, capsys):
    assert main(["run", "chain-mdp", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[4] == "evaluations"
    counts = [int(row.split(",")[4]) for row in rows[1:]]
    assert counts[-1] == 0 and all(c >= 1 for c in counts[:-1])
    assert f"and {sum(counts)} evaluation(s)" in printed


def test_gradcheck_passes_on_bundled_config(capsys):
    assert main(["gradcheck", "bnn-toy"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert out.count("rel_err=") == 5
    assert "worst coordinate:" in out


def test_gradcheck_without_parameters_passes(tmp_path, capsys):
    doc = tmp_path / "point-mass.json"
    doc.write_text(json.dumps({
        "seed": 0,
        "problem": {
            "family": "joint_kl",
            "system": {
                "variables": [{"name": "x", "cardinality": 2, "role": "action"}],
                "factors": [{"child": "x", "parents": [], "selector": 1}],
            },
            "target": {
                "scope": ["x"],
                "factors": [{"type": "table", "vars": ["x"], "table": [0.5, 0.5]}],
            },
        },
    }))
    assert main(["gradcheck", str(doc)]) == 0
    out = capsys.readouterr().out
    assert out.count("rel_err=") == 5
    assert "worst coordinate: none (no parameters)" in out
    assert out.splitlines()[-1] == "PASS"


def test_thirty_two_variables_of_one_state_gradcheck_and_run(tmp_path, capsys):
    # One axis per variable: 33 of them pass the 32 dimensions that
    # np.broadcast and np.broadcast_shapes take, so neither the engine nor
    # the report may use them.
    points = [f"c{i}" for i in range(32)]
    doc = tmp_path / "points.json"
    doc.write_text(json.dumps({
        "seed": 0,
        "problem": {
            "family": "joint_kl",
            "system": {
                "variables": [{"name": "a", "cardinality": 3, "role": "action"}]
                + [{"name": n, "cardinality": 1, "role": "latent-state"} for n in points],
                "factors": [{"child": "a", "parents": [], "logits": [0.2, -0.4, 0.1]}]
                + [{"child": n, "parents": [], "table": [1.0]} for n in points],
            },
            "target": {
                "scope": ["a", *points],
                "factors": [{"type": "param", "child": "a", "parents": [],
                             "logits": [0.5, 0.0, -0.3]}],
            },
        },
        "optimizer": {"max_iters": 3},
    }))
    assert main(["gradcheck", str(doc)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "report.json").exists()


def test_seventy_variables_of_one_state_gradcheck_but_report_no_joint(tmp_path, capsys):
    # 71 variables pass numpy's 64 array dimensions and its einsum
    # operands. The engine holds no array with an axis per variable, so the
    # gradient checks out; the report's dense joint has one, so ``run``
    # fails with a capacity error.
    points = [f"c{i}" for i in range(70)]
    doc = tmp_path / "points.json"
    doc.write_text(json.dumps({
        "seed": 0,
        "problem": {
            "family": "joint_kl",
            "system": {
                "variables": [{"name": "a", "cardinality": 3, "role": "action"}]
                + [{"name": n, "cardinality": 1, "role": "latent-state"} for n in points],
                "factors": [{"child": "a", "parents": [], "logits": [0.2, -0.4, 0.1]}]
                + [{"child": n, "parents": [], "table": [1.0]} for n in points],
            },
            "target": {
                "scope": ["a", *points],
                "factors": [{"type": "param", "child": "a", "parents": [],
                             "logits": [0.5, 0.0, -0.3]}],
            },
        },
        "optimizer": {"max_iters": 3},
    }))
    assert main(["gradcheck", str(doc)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "71 variables" in err[0]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--step", "nan"),
        ("--step", "inf"),
        ("--step", "1e-5"),
        ("--rel-tol", "nan"),
        ("--rel-tol", "1e-8"),
        ("--residual-tol", "-1"),
        ("--residual-tol", "1e-10"),
    ],
)
def test_gradcheck_takes_no_step_or_tolerance_flag(capsys, flag, value):
    # The gate is fixed: a flag is a usage error whether its value is bad or
    # repeats the fixed one.
    with pytest.raises(SystemExit) as exit_info:
        main(["gradcheck", "free-choice", flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert captured.out == ""


def test_run_dry_run_validates_without_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "never"
    code = main(["run", "free-choice", "--out", str(out_dir), "--dry-run"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "configuration valid" in printed
    assert "family: kl_control" in printed
    assert not out_dir.exists()


def test_run_rejects_a_misspelled_option(tmp_path, capsys):
    doc = tmp_path / "typo.json"
    doc.write_text(json.dumps({
        "seed": 0,
        "problem": {
            "family": "kl_control",
            "system": {
                "variables": [{"name": "x", "cardinality": 2, "role": "future-input"}],
                "factors": [{"child": "x", "parents": [], "logits": [0.0, 0.0]}],
            },
            "options": {"rewards": {"x": [0.0, 1.0]}, "mdoe": "expected-reward"},
        },
    }))
    out_dir = tmp_path / "never"
    assert main(["run", str(doc), "--out", str(out_dir), "--dry-run"]) == 2
    assert "mdoe" in capsys.readouterr().err
    assert not out_dir.exists()


def test_dry_run_rejects_evidence_outside_the_target_scope(tmp_path, capsys):
    doc = tmp_path / "outside.json"
    doc.write_text(json.dumps({
        "seed": 0,
        "problem": {
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
                "scope": ["z"],
                "factors": [{"type": "table", "vars": ["z"], "table": [0.3, 0.7]}],
            },
            "realized": {"x": 1},
        },
    }))
    out_dir = tmp_path / "never"
    assert main(["run", str(doc), "--out", str(out_dir), "--dry-run"]) == 2
    assert "'x' is outside the target scope" in capsys.readouterr().err
    assert not out_dir.exists()


def test_dry_run_rejects_a_realized_value_out_of_range(tmp_path, capsys):
    doc = tmp_path / "out-of-range.json"
    doc.write_text(json.dumps({
        "seed": 0,
        "problem": {
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
                "factors": [{"type": "table", "vars": ["z"], "table": [0.3, 0.7]}],
            },
            "realized": {"x": 5},
        },
    }))
    out_dir = tmp_path / "never"
    assert main(["run", str(doc), "--out", str(out_dir), "--dry-run"]) == 2
    assert "realized x=5 out of range" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_rejects_a_removed_optimizer_setting(tmp_path, capsys):
    doc = tmp_path / "armijo.json"
    doc.write_text(json.dumps({"seed": 0, "preset": "free-choice", "optimizer": {"armijo": 0.1}}))
    assert main(["run", str(doc), "--out", str(tmp_path / "never"), "--dry-run"]) == 2
    assert "armijo" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_report_keeps_one_entry_per_optimized_block(tmp_path, capsys):
    # Two target predictors of the same child are two blocks, and each
    # keeps its own entry next to the system block of that child.
    predictor = {"type": "param", "child": "z", "parents": ["x"], "logits": [[0.0, 0.0]] * 2}
    doc = tmp_path / "two-predictors.json"
    doc.write_text(json.dumps({
        "seed": 0,
        "problem": {
            "family": "joint_kl",
            "system": {
                "variables": [
                    {"name": "x", "cardinality": 2, "role": "past-input"},
                    {"name": "z", "cardinality": 2, "role": "latent-state"},
                ],
                "factors": [
                    {"child": "x", "parents": [], "table": [0.5, 0.5]},
                    {"child": "z", "parents": ["x"], "logits": [[0.0, 1.0], [1.0, 0.0]]},
                ],
            },
            "target": {"scope": ["x", "z"], "factors": [predictor, predictor]},
        },
        "optimizer": {"max_iters": 3},
    }))
    assert main(["run", str(doc), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["version"] == 2
    assert sorted(report["optimized_factors"]) == ["p:z", "q:0:z", "q:1:z"]


def test_verify_json_is_reproducible_apart_from_timestamp(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    base = ["verify", "--seeds", "3", "--draws", "1", "--only", "probability_core"]
    assert main(base + ["--json", str(first)]) == 0
    assert main(base + ["--json", str(second)]) == 0
    capsys.readouterr()
    lines_a = first.read_text().splitlines()
    lines_b = second.read_text().splitlines()
    assert len(lines_a) == len(lines_b)
    differing = [(a, b) for a, b in zip(lines_a, lines_b) if a != b]
    assert all('"timestamp"' in a for a, _ in differing)


def test_missing_config_exits_two(capsys):
    assert main(["run", "definitely-not-a-config"]) == 2
    assert "error:" in capsys.readouterr().err


def test_divergent_start_exits_three(tmp_path, capsys):
    doc = tmp_path / "divergent.json"
    doc.write_text(json.dumps(DIVERGENT_DOC))
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 3
    assert "diverges" in capsys.readouterr().err


def _three_state_doc(factor: dict) -> dict:
    return {
        "seed": 0,
        "problem": {
            "family": "joint_kl",
            "system": {
                "variables": [
                    {"name": "x", "cardinality": 3, "role": "past-input"},
                    {"name": "z", "cardinality": 2, "role": "latent-state"},
                ],
                "factors": [
                    {"child": "x", "parents": [], "table": [0.2, 0.3, 0.5]},
                    {"child": "z", "parents": ["x"], "logits": [[0.0, 0.0]] * 3},
                ],
            },
            "target": {"scope": ["x", "z"], "factors": [factor]},
        },
    }


@pytest.mark.parametrize(
    "factor",
    [
        {"type": "table", "vars": ["x"], "table": [0.2]},
        {"type": "table", "vars": ["x", "z"], "table": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]},
        {"type": "conditional", "child": "z", "parents": ["x"], "table": [[0.5, 0.5]]},
        {"type": "reward", "vars": ["x"], "values": [1.0]},
        {"type": "param", "child": "z", "parents": ["x"], "logits": [[0.0, 0.0]]},
        {"type": "param", "child": "z", "parents": ["x"], "logits": [[0.0]] * 3},
    ],
    ids=[
        "length-one table",
        "transposed table",
        "one-slice conditional",
        "length-one reward",
        "one-slice param",
        "one-outcome param",
    ],
)
def test_target_factor_of_the_wrong_shape_exits_two(tmp_path, capsys, factor):
    # The objective checks every target factor's shape when it is built,
    # so a dry run rejects the factor too.
    doc = tmp_path / "bad-shape.json"
    doc.write_text(json.dumps(_three_state_doc(factor)))
    for dry_run in ([], ["--dry-run"]):
        assert main(["run", str(doc), "--out", str(tmp_path / "out"), *dry_run]) == 2
        assert "expected (3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, name",
    [("config", n) for n in bundled_config_names()] + [("preset", n) for n in preset_names()],
    ids=lambda v: v,
)
def test_every_bundled_config_and_preset_passes_a_dry_run(tmp_path, capsys, kind, name):
    ref = name
    if kind == "preset":
        ref = tmp_path / f"{name}.json"
        ref.write_text(json.dumps({"seed": 0, "preset": name}))
    assert main(["run", str(ref), "--out", str(tmp_path / "out"), "--dry-run"]) == 0
    assert "configuration valid" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_removed_horizon(tmp_path, capsys):
    # Past and future inputs are roles, so a problem has no horizon key.
    doc = _three_state_doc({"type": "table", "vars": ["x"], "table": [0.2, 0.3, 0.5]})
    doc["problem"]["horizon"] = {"steps": 1, "split": 1}
    path = tmp_path / "horizon.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration at problem" in err
    assert "'horizon' was unexpected" in err
    assert not (tmp_path / "out").exists()


def _over_capacity_doc() -> dict:
    """23 binary latents and one action: 2**24 outcomes, over the cap."""
    names = [f"z{i}" for i in range(23)]
    return {
        "seed": 0,
        "problem": {
            "family": "joint_kl",
            "system": {
                "variables": [{"name": n, "cardinality": 2, "role": "latent-state"} for n in names]
                + [{"name": "a", "cardinality": 2, "role": "action"}],
                "factors": [{"child": n, "parents": [], "table": [0.5, 0.5]} for n in names]
                + [{"child": "a", "parents": [], "logits": [0.0, 0.0]}],
            },
            "target": {
                "scope": ["a"],
                "factors": [{"type": "table", "vars": ["a"], "table": [0.5, 0.5]}],
            },
        },
    }


def _null_evidence_doc() -> dict:
    """x = 1 is realized, but p(x = 1) = 0."""
    doc = _three_state_doc({"type": "table", "vars": ["z"], "table": [0.3, 0.7]})
    doc["problem"]["system"]["factors"][0]["table"] = [1.0, 0.0, 0.0]
    doc["problem"]["realized"] = {"x": 1}
    return doc


def _ragged_logits_doc() -> dict:
    doc = _three_state_doc({"type": "table", "vars": ["z"], "table": [0.3, 0.7]})
    doc["problem"]["system"]["factors"][1]["logits"] = [[0.0, 0.0], [1.0], [0.0, 0.0]]
    return doc


def _ragged_reward_doc() -> dict:
    return _three_state_doc({"type": "reward", "vars": ["x", "z"], "values": [[0.0], [1.0, 2.0]]})


def _fractional_selector_doc() -> dict:
    doc = _three_state_doc({"type": "table", "vars": ["z"], "table": [0.3, 0.7]})
    doc["problem"]["system"]["factors"][1] = {"child": "z", "parents": ["x"], "selector": [0, 1.5, 1]}
    return doc


@pytest.mark.parametrize("command", [["run", "--dry-run"], ["gradcheck"]], ids=" ".join)
@pytest.mark.parametrize(
    "make, message",
    [
        (_over_capacity_doc, "exceeds the cap"),
        (_null_evidence_doc, "has zero mass"),
        (_ragged_logits_doc, "factor 'z': logits must be a rectangular array of numbers"),
        (_ragged_reward_doc, "reward values must be a rectangular array of numbers"),
        (_fractional_selector_doc, "factor 'z': selector entries must be integers"),
    ],
    ids=["capacity", "null evidence", "ragged logits", "ragged reward", "fractional selector"],
)
def test_a_library_error_from_the_input_exits_two(tmp_path, capsys, make, message, command):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(make()))
    assert main([command[0], str(doc), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and message in captured.err


def _skill_action_doc(family: str, options: dict) -> dict:
    """A skill s picks an action a, which moves a future input x."""
    return {
        "seed": 0,
        "problem": {
            "family": family,
            "system": {
                "variables": [
                    {"name": "s", "cardinality": 2, "role": "skill"},
                    {"name": "a", "cardinality": 2, "role": "action"},
                    {"name": "x", "cardinality": 2, "role": "future-input"},
                ],
                "factors": [
                    {"child": "s", "parents": [], "logits": [0.0, 0.0]},
                    {"child": "a", "parents": ["s"], "logits": [[0.0, 0.0], [0.0, 0.0]]},
                    {"child": "x", "parents": ["a"], "table": [[0.9, 0.1], [0.2, 0.8]]},
                ],
            },
            "options": options,
        },
    }


REWARDS = {"x": [0.0, 1.0]}


@pytest.mark.parametrize(
    "family, options, option",
    [
        ("kl_control", {"rewards": [1, 2]}, "rewards"),
        ("kl_control", {"rewards": {"x": "ab"}}, "rewards"),
        ("kl_control", {"rewards": REWARDS, "priors": [1, 2]}, "priors"),
        ("kl_control", {"rewards": REWARDS, "priors": {"a": "zz"}}, "priors"),
        ("empowerment", {"channel_effects": 3}, "channel_effects"),
        ("empowerment", {"channel_effects": "x"}, "channel_effects"),
        ("skill_discovery", {"predictor": {"child": "s", "parents": 3, "init": [0.0, 0.0]}},
         "predictor parents"),
        ("skill_discovery", {"predictor": {"child": "s", "parents": "x", "init": [0.0, 0.0]}},
         "predictor parents"),
        ("skill_discovery", {"predictor": {"child": "s", "parents": ["x"], "init": "ab"}},
         "predictor init"),
    ],
    ids=["rewards list", "rewards text", "priors list", "priors text", "channel_effects number",
         "channel_effects text", "predictor parents number", "predictor parents text",
         "predictor init text"],
)
def test_a_malformed_family_option_exits_two(tmp_path, capsys, family, options, option):
    doc = tmp_path / "bad-option.json"
    doc.write_text(json.dumps(_skill_action_doc(family, options)))
    assert main(["run", str(doc), "--out", str(tmp_path / "out"), "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: option {option!r}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--seeds", "1", "--draws", "1", "--only", "probability_core",
         "--json", "{blocker}/suite.json"],
        ["run", "free-choice", "--out", "{blocker}/run"],
    ],
    ids=["verify --json", "run --out"],
)
def test_an_unwritable_output_path_exits_two(tmp_path, capsys, monkeypatch, command):
    blocker = tmp_path / "afile"
    blocker.write_text("a regular file, not a directory")

    def no_descent(*args, **kwargs):
        raise AssertionError("minimize ran before the output directory was checked")

    monkeypatch.setattr(divmin.cli, "minimize", no_descent)
    assert main([arg.format(blocker=blocker) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(f"error: cannot make output directory {blocker}")


def test_each_writer_turns_an_os_error_into_a_config_error(tmp_path):
    trace = minimize(from_preset(preset("free-choice")))
    writers = [
        lambda path: write_report_json(path, {"name": "x"}),
        lambda path: write_trace_csv(path, trace),
        lambda path: write_terms_svg(path, trace),
    ]
    for write in writers:
        # The path is an existing directory: the parent exists, the write fails.
        with pytest.raises(ConfigError, match=f"^cannot write {tmp_path}: "):
            write(tmp_path)
