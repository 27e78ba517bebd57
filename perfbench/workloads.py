"""The three benchmark workloads: ``descent``, ``scale`` and ``verify``.

Every workload is closed-loop: one caller issues each call after the
previous one has returned. Constructing a workload is its set-up (import
plus building configs, presets and objectives); ``timed`` runs the timed
section once, and ``check`` then checks its outputs. Only ``timed`` runs
with the tracer's wrappers installed, so spans never cover the checks.

* ``descent`` replays ``divmin run`` on the four bundled configs and
  minimizes the other five presets under one shared setting. It is
  bound by per-evaluation overhead and by the number of line-search
  evaluations, and it measures how close each descent gets to the exact
  optimum from ``optima``.
* ``scale`` evaluates ``chain-mdp`` at a ladder of sizes, where the dense
  score tensors of the gradient dominate time and memory.
* ``verify`` runs the default ``divmin verify`` sweep.
"""

from __future__ import annotations

import math
import shutil
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import optima
import tracing

CONFIGS = ("bandit-infogain", "bnn-toy", "chain-mdp", "free-choice")
PRESETS = ("dead-action", "hmm-filter", "identity-channel", "two-room-skills", "vae-toy")
DESCENT = {"max_iters": 500, "grad_tol": 1e-9}
SOLVE_TOL = 1e-6  # |total - exact optimum| that counts as solved
MATCH_TOL = 1e-9  # engine against report, and totals against their optimum
STEP_CAP = 1e6  # the largest trial step minimize takes

RUNGS = ((5, 3), (8, 3), (8, 4), (6, 5))  # chain-mdp (n_states, steps)
RESIDUAL_TOL = 1e-10
DIRECTIONS = 2  # directional difference checks per rung and pass
FD_STEP = 1e-5
FD_REL_TOL = 1e-5

VERIFY = {"seeds": 100, "draws": 20}
VERIFY_CHECKS = 26


def load_divmin(root: Path):
    """Import ``divmin`` from the checkout's own ``src`` directory."""
    src = root / "src"
    if not (src / "divmin" / "__init__.py").is_file():
        raise FileNotFoundError(f"no divmin sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import divmin

    if Path(divmin.__file__).resolve().parent != (src / "divmin").resolve():
        raise ImportError(f"divmin was imported from {divmin.__file__}, not {src}")
    return divmin


@dataclass
class PassResult:
    """One timed section, its operations and what its outputs showed."""

    wall_s: float
    attempted: int
    # operation -> what went wrong: a gate that failed or a call that raised
    failures: dict[str, str] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    # what the timed section returned, for ``Workload.check``
    outputs: object = None

    def fail(self, operation: str, problem: str) -> None:
        previous = self.failures.get(operation)
        self.failures[operation] = f"{previous}; {problem}" if previous else problem


class Probe:
    """Forwards the three methods ``minimize`` calls to an objective.

    It counts value and gradient calls and keeps the time and total of
    every point at which a gradient was taken: the start and each
    accepted step.
    """

    def __init__(self, objective, keep_phi: bool) -> None:
        self.objective = objective
        self.keep_phi = keep_phi
        self.value_calls = 0
        self.grad_calls = 0
        self.points: list[tuple[float, float, np.ndarray | None]] = []

    def parameters(self):
        return self.objective.parameters()

    def value(self, phi=None):
        self.value_calls += 1
        return self.objective.value(phi)

    def value_and_gradient(self, phi=None):
        self.grad_calls += 1
        result = self.objective.value_and_gradient(phi)
        kept = np.array(phi, dtype=np.float64) if self.keep_phi else None
        self.points.append((time.perf_counter(), result.evaluation.total, kept))
        return result


@dataclass
class Solve:
    name: str
    objective: object
    probe: Probe
    trace: object
    start: float
    end: float


def term_mismatch(objective, evaluation, report) -> float:
    """Worst disagreement between engine terms and the report's terms."""
    err = 0.0
    for name, value in evaluation.terms.items():
        if name in report.terms:
            err = max(err, abs(value - report.terms[name]))
    if objective.total_matches_report:
        err = max(err, abs(evaluation.total - report.total))
    return err


class Workload:
    """Set up in the constructor; ``timed`` and ``check`` may run any number
    of times, in pairs."""

    name = ""
    # True when the per-layer figures come from ``trace_extras`` rather than
    # from the spans of the traced passes.
    layers_from_extras = False

    def timed(self, rec) -> PassResult:
        """The timed section; ``rec`` opens spans around the calls it makes."""
        raise NotImplementedError

    def check(self, result: PassResult) -> None:
        """Check ``result.outputs`` and record failures and values."""
        raise NotImplementedError

    def trace_extras(self, tracer) -> PassResult:
        """Measurements taken once, after the passes of a traced run."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Descent(Workload):
    name = "descent"

    def __init__(self, root: Path, seed: int, out_dir: Path) -> None:
        dm = load_divmin(root)
        self.dm = dm
        self.out_dir = out_dir
        missing = set(CONFIGS) - set(dm.bundled_config_names())
        if missing:
            raise FileNotFoundError(f"bundled configs missing: {sorted(missing)}")
        from divmin import runio

        self.runio = runio
        self.config_paths = {name: dm.bundled_config_path(name) for name in CONFIGS}
        self.references = {
            name: optima.reference_total(name, dm.preset(name)) for name in CONFIGS + PRESETS
        }
        for name in CONFIGS:
            dm.load_config(self.config_paths[name])
        for name in PRESETS:
            dm.from_preset(dm.preset(name))
        self.last_objectives: dict[str, object] = {}

    def _replay_run(self, name: str, rec) -> Solve:
        """What ``divmin run <config>`` does, with a probe around the objective."""
        dm, runio = self.dm, self.runio
        config = rec.call("config.load_config", dm.load_config, self.config_paths[name])
        probe = Probe(config.objective, name in optima.REPORT_GAP)
        start = time.perf_counter()
        trace = rec.call(
            "optim.minimize", dm.minimize, probe, phi0=config.phi0, **config.optimizer
        )
        end = time.perf_counter()
        payload = rec.call("runio.report_payload", runio.report_payload, config, trace)
        out = self.out_dir / name
        rec.call("runio.write.report_json", runio.write_report_json, out / "report.json", payload)
        rec.call("runio.write.trace_csv", runio.write_trace_csv, out / "trace.csv", trace)
        rec.call("runio.write.terms_svg", runio.write_terms_svg, out / "terms.svg", trace)
        return Solve(name, config.objective, probe, trace, start, end)

    def _descend(self, name: str, rec) -> Solve:
        dm = self.dm
        objective = rec.call("objectives.from_preset", dm.from_preset, dm.preset(name))
        probe = Probe(objective, name in optima.REPORT_GAP)
        start = time.perf_counter()
        trace = rec.call("optim.minimize", dm.minimize, probe, **DESCENT)
        end = time.perf_counter()
        return Solve(name, objective, probe, trace, start, end)

    def timed(self, rec) -> PassResult:
        solves: list[Solve] = []
        raised: dict[str, str] = {}
        begin = time.perf_counter()
        for name in CONFIGS + PRESETS:
            step = self._replay_run if name in CONFIGS else self._descend
            try:
                solves.append(step(name, rec))
            except Exception as exc:  # one failed preset must not hide the others
                raised[name] = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - begin
        return PassResult(
            wall_s=wall, attempted=len(CONFIGS) + len(PRESETS), failures=raised, outputs=solves
        )

    def _gap(self, solve: Solve, total: float, phi) -> float:
        key = optima.REPORT_GAP.get(solve.name)
        if key is not None:
            return abs(solve.objective.report(phi).extras[key])
        return abs(total - self.references[solve.name])

    def check(self, result: PassResult) -> None:
        solves: list[Solve] = result.outputs
        values = result.values
        solve_s = 0.0
        max_gap = 0.0
        misses = len(result.failures)
        totals = {"iterations": 0, "value_calls": 0, "grad_calls": 0, "steps_at_cap": 0}
        accepted = 0
        for solve in solves:
            name, trace, probe = solve.name, solve.trace, solve.probe
            self.last_objectives[name] = solve.objective
            report = solve.objective.report(trace.phi)
            mismatch = term_mismatch(solve.objective, trace.evaluation, report)
            if mismatch > MATCH_TOL:
                result.fail(name, f"engine and report differ by {mismatch:.3e}")
            records = trace.records
            counts = {
                "iterations": len(records),
                "value_calls": probe.value_calls,
                "grad_calls": probe.grad_calls,
                "steps_at_cap": sum(1 for r in records if r.step >= STEP_CAP),
            }
            accepted += sum(1 for r in records if r.step > 0.0)
            for key, count in counts.items():
                values[f"optim.{name}.{key}"] = count
                totals[key] += count
            if name in optima.NO_REFERENCE:
                continue
            reference = self.references.get(name)
            if reference is not None and trace.total < reference - MATCH_TOL:
                result.fail(name, f"total {trace.total!r} is below the optimum {reference!r}")
            key = optima.REPORT_GAP.get(name)
            if key is not None and report.extras[key] < -MATCH_TOL:
                result.fail(name, f"{key} is negative: {report.extras[key]!r}")
            gap = self._gap(solve, trace.total, trace.phi)
            solved_at = solve.end
            for when, total, phi in probe.points:
                if self._gap(solve, total, phi) <= SOLVE_TOL:
                    solved_at = when
                    break
            preset_solve = solved_at - solve.start
            values[f"optim.{name}.solve_s"] = preset_solve
            values[f"optim.{name}.gap"] = gap
            solve_s += preset_solve
            max_gap = max(max_gap, gap)
            if gap > SOLVE_TOL:
                misses += 1
        for key, count in totals.items():
            values[f"optim.{key}"] = count
        values["optim.accept_ratio"] = accepted / max(1, totals["value_calls"])
        values["solve_s"] = solve_s
        values["max_gap"] = max_gap
        values["failed_frac"] = misses / result.attempted

    def trace_extras(self, tracer) -> PassResult:
        """Peak traced allocation of one gradient at each preset's start."""
        peaks = {
            f"engine.grad_peak_mb.{name}": grad_peak_mb(objective, objective.parameters())
            for name, objective in self.last_objectives.items()
        }
        peaks["engine.grad_peak_mb"] = max(peaks.values(), default=0.0)
        return PassResult(wall_s=0.0, attempted=len(self.last_objectives), values=peaks)

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def grad_peak_mb(objective, phi) -> float:
    """Peak memory traced by ``tracemalloc`` during one gradient call."""
    tracemalloc.start()
    try:
        objective.value_and_gradient(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


class Scale(Workload):
    name = "scale"

    def __init__(self, root: Path, seed: int, out_dir: Path) -> None:
        dm = load_divmin(root)
        self.rng = np.random.default_rng(seed)
        self.rungs = []
        for n_states, steps in RUNGS:
            objective = dm.from_preset(dm.preset("chain-mdp", n_states=n_states, steps=steps))
            system = objective.system
            outcomes = math.prod(system.variable(n).cardinality for n in system.names)
            self.rungs.append((outcomes, objective))
        self.top = self.rungs[-1][0]
        small = self.rungs[0][1]
        small.value_and_gradient(self.rng.normal(size=small.parameters().shape))

    def timed(self, rec) -> PassResult:
        points = [self.rng.normal(size=obj.parameters().shape) for _, obj in self.rungs]
        timed = []
        for (outcomes, objective), phi in zip(self.rungs, points):
            t0 = time.perf_counter()
            value = objective.value(phi)
            t1 = time.perf_counter()
            grad = objective.value_and_gradient(phi)
            t2 = time.perf_counter()
            timed.append((outcomes, objective, phi, value, grad, t1 - t0, t2 - t1))
        return PassResult(
            wall_s=sum(v + g for *_, v, g in timed), attempted=len(timed), outputs=timed
        )

    def check(self, result: PassResult) -> None:
        timed = result.outputs
        for outcomes, objective, phi, value, grad, value_s, grad_s in timed:
            result.values[f"engine.value_s.{outcomes}"] = value_s
            result.values[f"engine.grad_s.{outcomes}"] = grad_s
            result.values[f"engine.score_s.{outcomes}"] = grad_s - value_s
            for problem in self._gates(objective, phi, value, grad):
                result.fail(f"rung {outcomes}", problem)
        result.values["value_s"] = result.values[f"engine.value_s.{self.top}"]
        result.values["grad_s"] = result.values[f"engine.grad_s.{self.top}"]
        result.values["failed_frac"] = len(result.failures) / len(timed)

    def _gates(self, objective, phi, value, grad) -> list[str]:
        problems = []
        report = objective.report(phi)
        for label, total in (("value", value.total), ("gradient", grad.evaluation.total)):
            if abs(total - report.total) > MATCH_TOL:
                problems.append(f"{label} total {total!r} != report total {report.total!r}")
        if not grad.score_residual <= RESIDUAL_TOL:
            problems.append(f"score residual {grad.score_residual:.3e}")
        for _ in range(DIRECTIONS):
            d = self.rng.normal(size=phi.shape)
            d /= np.linalg.norm(d)
            numeric = (
                objective.value(phi + FD_STEP * d).total - objective.value(phi - FD_STEP * d).total
            ) / (2.0 * FD_STEP)
            analytic = float(np.dot(grad.grad, d))
            rel = abs(numeric - analytic) / max(1.0, abs(analytic), abs(numeric))
            if not rel <= FD_REL_TOL:
                problems.append(f"directional derivative off by {rel:.3e} (relative)")
        return problems

    def trace_extras(self, tracer) -> PassResult:
        """Peak traced allocation of one gradient at each rung."""
        peaks = {
            f"engine.grad_peak_mb.{outcomes}": grad_peak_mb(
                objective, self.rng.normal(size=objective.parameters().shape)
            )
            for outcomes, objective in self.rungs
        }
        peaks["engine.grad_peak_mb"] = max(peaks.values())
        return PassResult(wall_s=0.0, attempted=len(self.rungs), values=peaks)


class Verify(Workload):
    name = "verify"
    # The suite runs its checks on a thread pool, and a span timed there
    # also counts the time its thread waits for the other one. The layer
    # figures are therefore taken from the checks run one at a time.
    layers_from_extras = True

    def __init__(self, root: Path, seed: int, out_dir: Path) -> None:
        dm = load_divmin(root)
        self.run_suite = dm.run_suite
        self.check_names = dm.check_names()

    def timed(self, rec) -> PassResult:
        begin = time.perf_counter()
        suite = rec.call("verify.run_suite", self.run_suite, **VERIFY)
        wall = time.perf_counter() - begin
        attempted = max(VERIFY_CHECKS, len(suite.checks))
        return PassResult(wall_s=wall, attempted=attempted, outputs=suite)

    def check(self, result: PassResult) -> None:
        suite = result.outputs
        for check in suite.checks:
            if not check.passed:
                result.fail(check.name, check_problem(check))
        if len(suite.checks) != VERIFY_CHECKS:
            result.fail("suite", f"ran {len(suite.checks)} checks, expected {VERIFY_CHECKS}")
        result.values["verify.checks_passed"] = sum(c.passed for c in suite.checks)
        result.values["failed_frac"] = len(result.failures) / result.attempted

    def trace_extras(self, tracer) -> PassResult:
        """Each check run alone on this thread, first untraced for its own
        time, then with the wrappers installed for the layer figures."""
        result = PassResult(wall_s=0.0, attempted=2 * len(self.check_names))
        for name in self.check_names:
            begin = time.perf_counter()
            suite = self.run_suite(only=[name], **VERIFY)
            result.values[f"verify.{name}.s"] = time.perf_counter() - begin
            self._check_alone(suite, result)
        result.values["verify.checks_sum_s"] = sum(result.values.values())
        first = len(tracer.spans)
        with tracer.installed():
            suites = [
                tracer.call(f"verify.{name}", self.run_suite, only=[name], **VERIFY)
                for name in self.check_names
            ]
        result.values.update(tracing.layer_metrics(tracer.spans[first:]))
        for suite in suites:
            self._check_alone(suite, result)
        return result

    @staticmethod
    def _check_alone(suite, result: PassResult) -> None:
        for check in suite.checks:
            if not check.passed:
                result.fail(f"{check.name} (alone)", check_problem(check))


def check_problem(check) -> str:
    return f"max error {check.max_error:.3e} over tolerance {check.tolerance:.1e}"


WORKLOADS = {cls.name: cls for cls in (Descent, Scale, Verify)}
