"""Benchmark harness for divmin.

One workload (run from the repository root)::

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

prints every metric on its own line, then one JSON object as the last
line of standard output. With ``--trace 0`` that object carries the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
carries the per-layer metrics, from passes whose timed sections run with
spans recorded, alternating with untraced passes so that the tracing
overhead is measured too. On ``verify`` the layer spans come instead
from its checks run one at a time, away from the suite's thread pool.
Full results go to ``.bench_out/``: one result file per run, and in
traced runs the spans.

All three workloads, untraced and traced, one process each::

    python3 perfbench/run.py --all --seed 1 --seconds 30

prints the eight end-to-end metrics by name and unit for every workload,
writes ``.bench_out/summary.json``, rewrites ``BENCHMARK.json`` from
``perfbench/spec.json`` and exits non-zero when a correctness gate fails.

Exit codes: 0 when every gate passed, 1 when a gate failed or a call
raised, 2 when the divmin sources or the benchmark's own files are
missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SPEC = HERE / "spec.json"
WORKLOADS = ("descent", "scale", "verify")


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def median(values) -> float:
    return float(statistics.median(values))


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Set the workload up in a new interpreter and return the time it took."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-child", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_child(workload: str, seed: int) -> int:
    # numpy is imported before the clock starts: its import time varies
    # widely on a shared machine and no divmin change can move it. The
    # clock covers importing divmin and building the workload's inputs.
    import numpy  # noqa: F401

    start = time.perf_counter()
    import workloads

    instance = workloads.WORKLOADS[workload](ROOT, seed, OUT / f"setup-{os.getpid()}")
    elapsed = time.perf_counter() - start
    instance.close()
    print(repr(elapsed))
    return 0


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    names = sorted({name for sample in samples for name in sample})
    return {name: median([s[name] for s in samples if name in s]) for name in names}


def unit_table(spec: dict):
    """Unit lookup for every metric name spec.json defines. A name with
    ``<...>`` placeholders, such as ``engine.grad_s.<outcomes>``, stands
    for every name with some text in their place."""
    entries = spec["end_to_end"] + spec["per_layer"] + spec["trace_file_only"]["metrics"]
    exact = {m["name"]: m["unit"] for m in entries if "<" not in m["name"]}
    patterns = [
        (re.compile(".+".join(map(re.escape, re.split(r"<[^>]+>", m["name"])))), m["unit"])
        for m in entries
        if "<" in m["name"]
    ]

    def unit_of(name: str) -> str:
        if name in exact:
            return exact[name]
        for pattern, unit in patterns:
            if pattern.fullmatch(name):
                return unit
        raise KeyError(f"metric {name!r} has no unit in {SPEC.name}")

    return unit_of


def measure(workload, tracer, seconds: float, between):
    """Passes until ``seconds`` would be exceeded; traced runs alternate
    untraced and traced passes and end with the workload's extras.
    Only the timed section of a traced pass runs with the wrappers
    installed. ``between`` runs after every pass, outside the timed
    sections."""
    untraced, traced, layer_samples, extra = [], [], [], []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        traced_pass = tracer is not None and len(traced) < len(untraced)
        if traced_pass:
            first = len(tracer.spans)
            with tracer.installed():
                result = workload.timed(tracer)
            if not workload.layers_from_extras:
                layer_samples.append(tracing.layer_metrics(tracer.spans[first:]))
        else:
            result = workload.timed(tracing.NullTracer())
        workload.check(result)
        result.outputs = None  # so that memory does not grow with the pass count
        (traced if traced_pass else untraced).append(result)
        between()
        took = time.perf_counter() - started
        if time.perf_counter() - begin + took > seconds and (tracer is None or traced):
            break
    if tracer is not None:
        extra.append(workload.trace_extras(tracer))
    return untraced, traced, layer_samples, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    wanted = spec["setup_samples"]
    setup_samples: list[float] = []

    begin = time.perf_counter()

    def sample_setup() -> None:
        # Spread evenly over the run, so that one slow spell of a shared
        # machine does not set every sample.
        due = math.ceil(wanted * min(1.0, (time.perf_counter() - begin) / seconds))
        while len(setup_samples) < due:
            setup_samples.append(fresh_setup_seconds(name, seed))

    import workloads

    workload = workloads.WORKLOADS[name](ROOT, seed, OUT / f"work-{name}-{os.getpid()}")
    tracer = tracing.Tracer(name) if trace else None
    try:
        untraced, traced, layer_samples, extra = measure(workload, tracer, seconds, sample_setup)
    finally:
        workload.close()
    while len(setup_samples) < wanted:
        setup_samples.append(fresh_setup_seconds(name, seed))

    passes = untraced + traced + extra
    failures = {}
    for index, result in enumerate(passes):
        for op, problem in result.failures.items():
            failures.setdefault(op, f"pass {index}: {problem}")
    attempted = sum(r.attempted for r in passes)
    failed = sum(len(r.failures) for r in passes)

    values = medians([r.values for r in untraced])
    end_to_end = {
        "setup_s": median(setup_samples),
        "wall_s": median([r.wall_s for r in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for key in ("solve_s", "max_gap", "failed_frac", "grad_s", "value_s"):
        if key in values:
            end_to_end[key] = values.pop(key)

    per_layer = dict(values)
    per_layer["max_gap"] = end_to_end.get("max_gap", 0.0)
    per_layer["failed_frac"] = end_to_end["failed_frac"]
    if tracer is not None:
        per_layer.update(medians(layer_samples))
        per_layer.update(extra[0].values)
        traced_wall = median([r.wall_s for r in traced])
        per_layer["trace.overhead"] = traced_wall / end_to_end["wall_s"] - 1.0
        per_layer[f"trace.overhead.{name}"] = per_layer["trace.overhead"]
        if "verify.checks_sum_s" in per_layer:
            per_layer["verify.pool_ratio"] = end_to_end["wall_s"] / per_layer["verify.checks_sum_s"]

    unit_of = unit_table(spec)
    listed = [m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"]) if m.get("gated", True)]
    shown = per_layer if trace else end_to_end
    reported = {n: {"value": shown.get(n, 0.0), "unit": unit_of(n)} for n in listed}

    print(f"workload {name}, seed {seed}: {len(untraced)} untraced and {len(traced)} traced passes")
    for key, value in end_to_end.items():
        print(f"  {key:<40} {value:>14.6g} {unit_of(key)}")
    if trace:
        for key in sorted(set(per_layer) - set(end_to_end)):
            print(f"  {key:<40} {per_layer[key]:>14.6g} {unit_of(key)}")
    for op, problem in failures.items():
        print(f"  FAILED {op}: {problem}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_samples_s": setup_samples,
        "wall_samples_s": {
            "untraced": [r.wall_s for r in untraced],
            "traced": [r.wall_s for r in traced],
        },
        "end_to_end": {k: {"value": v, "unit": unit_of(k)} for k, v in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(per_layer.items())},
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        spans = {
            "workload": tracer.workload,
            "columns": ["id", "name", "start", "end", "parent", "thread"],
            "spans": [
                [s.span_id, s.name, s.start, s.end, s.parent, s.thread] for s in tracer.spans
            ],
        }
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(spans) + "\n")

    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": reported}
        )
    )
    return 0 if not failures else 1


def write_benchmark_json(spec: dict) -> None:
    """Write BENCHMARK.json: the fields of spec.json that a benchmark runner reads."""
    doc = {
        "command": spec["command"],
        "paths": spec["paths"],
        "run_seconds": spec["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]} for w in spec["workloads"]],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")}
            for m in spec["end_to_end"]
            if m["gated"]
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in spec["per_layer"]],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")


def run_all(seed: int, seconds: float) -> int:
    spec = load_spec()
    # workload -> trace -> result file; None where the run left none
    results: dict[str, dict[int, dict | None]] = {}
    ok = True
    OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for trace in (0, 1):
            path = OUT / f"{name}-seed{seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            cmd = [
                sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, timeout=600)
            ok = ok and proc.returncode == 0
            results.setdefault(name, {})[trace] = (
                json.loads(path.read_text()) if path.is_file() else None
            )

    def cell(name: str, trace: int, section: str, metric: str) -> str:
        record = results[name][trace]
        if record is None:
            return f" {'CRASHED':>14}"
        entry = record[section].get(metric)
        return f" {entry['value']:>14.6g}" if entry else f" {'n/a':>14}"

    print()
    print(f"{'metric':<14} {'unit':<6}" + "".join(f" {name:>14}" for name in WORKLOADS))
    for metric in spec["end_to_end"]:
        row = f"{metric['name']:<14} {metric['unit']:<6}"
        print(row + "".join(cell(name, 0, "end_to_end", metric["name"]) for name in WORKLOADS))
    row = f"{'trace.overhead':<14} {'ratio':<6}"
    print(row + "".join(cell(name, 1, "per_layer", "trace.overhead") for name in WORKLOADS))
    crashed = [
        f"{name} (trace {trace})"
        for name, runs in results.items()
        for trace, record in runs.items()
        if record is None
    ]
    correct = not crashed and all(r["correct"] for runs in results.values() for r in runs.values())
    if crashed:
        print("no result from: " + ", ".join(crashed))
    print("all correctness gates passed" if correct else "correctness gates FAILED")

    def section(name: str, trace: int, key: str):
        record = results[name][trace]
        return record[key] if record is not None else None

    summary = {
        "seed": seed,
        "seconds": seconds,
        "correct": correct,
        "crashed": crashed,
        "end_to_end": {name: section(name, 0, "end_to_end") for name in WORKLOADS},
        "per_layer": {name: section(name, 1, "per_layer") for name in WORKLOADS},
    }
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    if not crashed:
        write_benchmark_json(spec)
    return 0 if ok and correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "divmin" / "__init__.py").is_file():
        print(f"error: no divmin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: missing {SPEC}", file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args.setup_child, args.seed)
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
