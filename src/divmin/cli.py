"""Command-line interface.

Exit codes: 0 on success, 1 when a verification or gradient check
fails, 2 on usage errors and on every other library error, which outside
input causes (a ``DivminError`` such as ``ConfigError``,
``ValidationError``, ``CapacityError`` or ``NullEvidenceError``), 3 when
an evaluation diverges (``DivergenceError``: actual mass where the target
has none).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import SCHEMA_VERSION, bundled_config_names, bundled_config_path, load_config
from .errors import ConfigError, DivergenceError, DivminError
from .objectives import FAMILY_TAGS, OBJECTIVE_FAMILIES
from .optim import check_gradient, minimize
from .presets import names as preset_names
from .presets import preset
from .randsys import rng_for
from .runio import report_payload, write_report_json, write_terms_svg, write_trace_csv
from .verify import check_names, run_suite

__all__ = ["build_parser", "main"]


def _resolve_config(ref: str) -> Path:
    path = Path(ref)
    if path.exists():
        return path
    if ref in bundled_config_names():
        return bundled_config_path(ref)
    raise ConfigError(
        f"no such configuration file or bundled name: {ref!r}; bundled names: "
        f"{', '.join(bundled_config_names())}"
    )


def _cmd_list(args: argparse.Namespace) -> int:
    print(f"config schema version: {SCHEMA_VERSION}")
    print(f"base objective: joint_kl [{FAMILY_TAGS['joint_kl']}]")
    print("objective families:")
    for family in OBJECTIVE_FAMILIES:
        print(f"  {family} [{FAMILY_TAGS[family]}]")
    print("presets:")
    for name in preset_names():
        print(f"  {name}: {preset(name).summary}")
    print("bundled configs:")
    for name in bundled_config_names():
        print(f"  {name}")
    print("verification checks:")
    for name in check_names():
        print(f"  {name}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    only = [name.strip() for name in args.only.split(",")] if args.only else None
    result = run_suite(seeds=args.seeds, draws=args.draws, only=only)
    for check in result.checks:
        flag = "PASS" if check.passed else "FAIL"
        print(
            f"{flag} {check.name} [{check.equation}] cases={check.cases} "
            f"max_error={check.max_error:.3e} tolerance={check.tolerance:.1e}"
        )
    verdict = "all checks passed" if result.passed else "failures present"
    print(f"{verdict} in {result.duration_s:.2f}s")
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(result.to_dict())
        payload["seeds"] = args.seeds
        payload["draws"] = args.draws
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0 if result.passed else 1


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(_resolve_config(args.config))
    objective = config.objective
    if args.dry_run:
        # Some inputs fail only when evaluated, such as evidence of zero mass.
        start = objective.value(config.phi0)
        print(f"{config.name}: configuration valid")
        print(f"  family: {objective.family} [{FAMILY_TAGS[objective.family]}]")
        print(f"  seed: {config.seed}")
        print(f"  parameters: {config.phi0.size}")
        print(f"  total at phi0: {'divergent' if start.divergent else f'{start.total:.9g}'}")
        print(f"  optimizer: {json.dumps(dict(config.optimizer), sort_keys=True)}")
        return 0
    trace = minimize(objective, phi0=config.phi0, **config.optimizer)
    out = Path(args.out) if args.out else Path("runs") / config.name
    report_path = write_report_json(out / "report.json", report_payload(config, trace))
    trace_path = write_trace_csv(out / "trace.csv", trace)
    chart_path = write_terms_svg(out / "terms.svg", trace)
    status = "converged" if trace.converged else f"stopped ({trace.reason})"
    print(
        f"{config.name}: {status} after {len(trace.records)} iteration(s) and "
        f"{sum(r.evaluations for r in trace.records)} evaluation(s), "
        f"total {trace.total:.9g}"
    )
    print(f"wrote {report_path}, {trace_path}, {chart_path}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    config = load_config(_resolve_config(args.config))
    objective = config.objective
    n_params = objective.parameters().size
    all_ok = True
    worst_dev = -1.0
    worst_index = 0
    worst_draw = 0
    for draw in range(5):
        phi = rng_for(config.seed, 40 + draw).normal(size=n_params)
        result = check_gradient(objective, phi=phi, h=args.step)
        ok = result.passed(rel_tol=args.rel_tol, residual_tol=args.residual_tol)
        all_ok = all_ok and ok
        print(
            f"phi[{draw}]: rel_err={result.rel_err:.3e} "
            f"max_abs_err={result.max_abs_err:.3e} "
            f"score_residual={result.score_residual:.3e} h={result.step:.1e}"
        )
        deviations = np.abs(result.analytic - result.numeric)
        if n_params and deviations.max() > worst_dev:
            worst_index = int(np.argmax(deviations))
            worst_dev = float(deviations[worst_index])
            worst_draw = draw
    if not n_params:
        print("worst coordinate: none (no parameters)")
    else:
        side, factor, parents, outcome = objective.engine.space.label(worst_index)
        where = "system" if side == "p" else "target"
        print(
            f"worst coordinate: {worst_index} ({where} factor {factor!r}, "
            f"parent slice {parents}, outcome {outcome}) "
            f"abs deviation {worst_dev:.3e} at phi[{worst_draw}]"
        )
    print("PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divmin",
        description=(
            "Exact divergence minimization on small discrete systems: "
            "verify identities, run objectives, check gradients."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_cmd = commands.add_parser(
        "list", help="show families, presets, bundled configs, and checks"
    )
    list_cmd.set_defaults(func=_cmd_list)

    verify_cmd = commands.add_parser(
        "verify", help="replay the randomized identity and bound checks, one after another"
    )
    verify_cmd.add_argument("--seeds", type=int, default=100, help="instances per check")
    verify_cmd.add_argument(
        "--draws", type=int, default=20, help="parameter draws for certificate checks"
    )
    verify_cmd.add_argument(
        "--only", type=str, default=None, help="comma-separated check names to run"
    )
    verify_cmd.add_argument(
        "--json", type=str, default=None, help="also write results to this JSON file"
    )
    verify_cmd.set_defaults(func=_cmd_verify)

    run_cmd = commands.add_parser(
        "run", help="minimize a configured objective and write run artifacts"
    )
    run_cmd.add_argument("config", help="path to a config file, or a bundled name")
    run_cmd.add_argument(
        "--out", type=str, default=None, help="output directory (default: runs/<name>)"
    )
    run_cmd.add_argument(
        "--dry-run",
        action="store_true",
        help="validate and describe the configuration without optimizing",
    )
    run_cmd.set_defaults(func=_cmd_run)

    grad_cmd = commands.add_parser(
        "gradcheck", help="compare the analytic gradient against central differences"
    )
    grad_cmd.add_argument("config", help="path to a config file, or a bundled name")
    grad_cmd.add_argument(
        "--step", type=float, default=1.0e-5, help="finite-difference step size"
    )
    grad_cmd.add_argument(
        "--rel-tol", type=float, default=1.0e-8, help="relative error threshold"
    )
    grad_cmd.add_argument(
        "--residual-tol",
        type=float,
        default=1.0e-10,
        help="expected-score residual threshold",
    )
    grad_cmd.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
