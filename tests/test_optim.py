"""Optimizer behaviour against closed-form optima and hand enumerations."""

import dataclasses
import math

import numpy as np
import pytest

from divmin.config import bundled_config_path, load_config
from divmin.engine import Evaluation, GradientEvaluation
from divmin.errors import ConfigError, DivergenceError
from divmin.objectives import from_preset, make_objective
from divmin.optim import (
    GradientCheck,
    check_gradient,
    finite_difference_gradient,
    map_scan,
    minimize,
)
from divmin.presets import names, preset
from divmin.systems import ActualSystem, FactorSpec, TableFactor, TargetSpec
from divmin.tables import Role, Variable


def softmax(v):
    e = np.exp(v - np.max(v))
    return e / e.sum()


def test_free_choice_reaches_log_odds_optimum():
    obj = from_preset(preset("free-choice"))
    trace = minimize(obj)
    assert trace.converged and trace.reason == "gradient-tolerance"
    pol = softmax(trace.phi)
    assert abs(pol[0] - 0.25) < 1.0e-6 and abs(pol[1] - 0.75) < 1.0e-6
    assert trace.total < 1.0e-9
    totals = [r.total for r in trace.records]
    assert all(b <= a + 1.0e-12 for a, b in zip(totals, totals[1:]))


def test_immediate_convergence_at_optimum():
    obj = from_preset(preset("free-choice"))
    trace = minimize(obj, phi0=np.log(np.asarray([0.25, 0.75])))
    assert trace.converged
    assert len(trace.records) == 1
    assert trace.records[0].step == 0.0


def test_bnn_vi_hits_exact_posterior():
    obj = from_preset(preset("bnn-toy"))
    trace = minimize(obj)
    assert trace.converged
    lik = {0: (0.8 * 0.2) ** 2, 1: (0.3 * 0.7) ** 2}
    post = np.asarray([0.5 * lik[0], 0.5 * lik[1]])
    post /= post.sum()
    assert np.max(np.abs(softmax(trace.phi) - post)) < 1.0e-6
    value_at_exact = obj.value(np.log(post)).total
    assert trace.total <= value_at_exact + 1.0e-12
    assert abs(trace.total - value_at_exact) < 1.0e-9


def test_chain_mdp_descends():
    obj = from_preset(preset("chain-mdp"))
    start = obj.value().total
    trace = minimize(obj, max_iters=400)
    assert trace.total < start - 0.1
    assert trace.reason in ("gradient-tolerance", "max-iterations")


@pytest.mark.parametrize("name", names())
def test_gradient_check_passes(name):
    obj = from_preset(preset(name))
    rng = np.random.default_rng(3)
    phi = obj.parameters() + 0.4 * rng.standard_normal(obj.parameters().size)
    chk = check_gradient(obj, phi)
    assert chk.passed()
    assert chk.max_abs_err < 1.0e-7
    assert np.allclose(chk.analytic, chk.numeric, rtol=1.0e-5, atol=1.0e-8)


def test_gradient_check_default_gate_is_1e_8_relative():
    # Central differences at h = 1e-5 agree with the engine gradient to
    # below 1e-10 relative on every preset, so 1e-7 is a real disagreement.
    def check(rel_err):
        zero = np.zeros(1)
        return GradientCheck(zero, zero, rel_err, rel_err, 0.0, 1.0e-5)

    assert check(1.0e-9).passed()
    assert not check(1.0e-7).passed()


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_gradient_check_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    zero = np.zeros(1)
    chk = GradientCheck(zero, zero, 0.0, 0.0, 0.0, 1.0e-5)
    with pytest.raises(ConfigError, match="relative error tolerance"):
        chk.passed(rel_tol=tol)
    with pytest.raises(ConfigError, match="score residual tolerance"):
        chk.passed(residual_tol=tol)


def test_descent_runs_past_the_resolution_of_the_total():
    # With no gradient tolerance the Armijo decrease drops below float
    # resolution; descent must keep shrinking the gradient and then stop
    # rather than spend the iteration budget on level steps.
    pre = preset("chain-mdp")
    obj = make_objective("maxent_rl", pre.system, options={"rewards": pre.options["rewards"]})
    trace = minimize(obj, max_iters=400, grad_tol=0.0)
    assert trace.reason != "max-iterations"
    assert trace.records[-1].grad_norm <= 1.0e-12


class _LevelStub:
    """A constant total whose gradient is rounding noise: 2e-17 at phi >= 0
    and 1e-17 below, always sloping downhill along the step."""

    def parameters(self):
        return np.zeros(1)

    def value(self, phi=None):
        return Evaluation(total=1.0, terms={"t": 1.0}, log_partition=0.0, divergent=False)

    def value_and_gradient(self, phi=None):
        g = np.asarray([2.0e-17 if (phi is None or phi[0] >= 0.0) else 1.0e-17])
        return GradientEvaluation(self.value(phi), g, g, 0.0)


def test_level_steps_must_shrink_the_gradient():
    # Every level candidate slopes downhill, but below phi = 0 the gradient
    # no longer shrinks: one level step is taken, then descent stops
    # instead of cycling through level steps until the budget runs out.
    trace = minimize(_LevelStub(), max_iters=50, grad_tol=0.0)
    assert trace.reason == "no-descent"
    assert len(trace.records) == 2
    assert trace.records[0].step == 1.0
    assert trace.phi[0] < 0.0


class _RoundingStub:
    """A total one float spacing lower per unit step, 1.5 + phi * 2**-52,
    with a gradient of 1e-16 that never shrinks and a unit direction."""

    def parameters(self):
        return np.zeros(1)

    def value(self, phi=None):
        total = 1.5 + (0.0 if phi is None else phi[0]) * 2.0**-52
        return Evaluation(total=total, terms={"t": total}, log_partition=0.0, divergent=False)

    def value_and_gradient(self, phi=None):
        return GradientEvaluation(self.value(phi), np.asarray([1.0e-16]), np.ones(1), 0.0)


def test_a_decrease_within_rounding_is_no_armijo_step():
    # Each unit step rounds the total one spacing lower, which beats the
    # Armijo decrease of 1e-20; it is only a level step, and the gradient
    # does not shrink, so descent stops at once.
    trace = minimize(_RoundingStub(), max_iters=50, grad_tol=0.0)
    assert trace.reason == "no-descent"
    assert len(trace.records) == 1
    assert trace.phi[0] == 0.0


@pytest.mark.parametrize(
    "name", ["dead-action", "two-room-skills", "bandit-infogain", "identity-channel"]
)
def test_boundary_optima_converge_without_large_steps(name):
    # Each optimum is ln 2 nats of capacity reached as logits run off to
    # infinity; the natural step gets there without growing the step.
    trace = minimize(from_preset(preset(name)), max_iters=500, grad_tol=1.0e-9)
    assert trace.converged
    assert len(trace.records) <= 100
    assert all(r.step <= 1.0 for r in trace.records)
    assert abs(trace.total + math.log(2.0)) <= 1.0e-8


@pytest.mark.parametrize("name", ["free-choice", "bnn-toy"])
def test_mirror_step_is_exact_on_one_block(name):
    trace = minimize(from_preset(preset(name)), grad_tol=1.0e-10)
    assert trace.converged
    assert [r.step for r in trace.records] == [1.0, 0.0]


@pytest.mark.parametrize("seed", range(3))
def test_unit_step_is_exact_on_each_hmm_filter_block(seed):
    # Each system block is linear plus entropy in its own softmax, weighed
    # by the observed p: from any start, a unit natural step on that block
    # alone lands on the block's optimum.
    obj = from_preset(preset("hmm-filter"))
    space = obj.engine.space
    phi = obj.parameters() + np.random.default_rng(seed).standard_normal(space.size)
    ge = obj.value_and_gradient(phi)
    for b in space.blocks:
        block = slice(b.offset, b.offset + b.size)
        stepped = phi.copy()
        stepped[block] -= ge.direction[block]
        assert np.max(np.abs(obj.value_and_gradient(stepped).grad[block])) <= 1.0e-15, b.key


class _Protocol:
    """Only the three methods ``minimize`` may call, with every value call's
    point and every gradient evaluation logged; ``natural=False`` withholds
    the natural direction."""

    def __init__(self, objective, natural=True):
        self._objective = objective
        self._natural = natural
        self.trials = []
        self.gradients = []

    @property
    def value_calls(self):
        return len(self.trials)

    def parameters(self):
        return self._objective.parameters()

    def value(self, phi=None):
        self.trials.append(np.array(phi))
        return self._objective.value(phi)

    def value_and_gradient(self, phi=None):
        res = self._objective.value_and_gradient(phi)
        if not self._natural:
            res = dataclasses.replace(res, direction=np.zeros_like(res.direction))
        self.gradients.append((np.array(phi), res))
        return res


@pytest.mark.parametrize("name", ["hmm-filter", "vae-toy"])
def test_every_line_search_first_tries_the_unit_step(name):
    wrapped = _Protocol(from_preset(preset(name)))
    trace = minimize(wrapped, max_iters=500, grad_tol=1.0e-9)
    assert trace.converged
    at = {phi.tobytes(): res for phi, res in wrapped.gradients}
    phi, first = wrapped.parameters(), 0
    for record in trace.records[:-1]:
        res = at[phi.tobytes()]
        d = res.direction if np.dot(res.grad, res.direction) > 0.0 else res.grad
        assert np.array_equal(wrapped.trials[first], phi - d), record.iteration
        first += record.evaluations
        phi = wrapped.trials[first - 1]  # the accepted candidate
    assert first == wrapped.value_calls


def test_hmm_filter_descends_in_few_value_calls():
    # The unit step is exact on every hmm-filter block, so the line search
    # rarely halves: 23 value calls measured.
    wrapped = _Protocol(from_preset(preset("hmm-filter")))
    trace = minimize(wrapped, max_iters=500, grad_tol=1.0e-9)
    assert trace.reason == "gradient-tolerance"
    assert wrapped.value_calls <= 30
    assert all(r.step <= 1.0 for r in trace.records)


def test_realized_reconstruction_keeps_its_encoder_interior():
    # With x = 1 observed the minimum, 0, has an interior encoder row; a
    # one-hot row is a critical point at ln 2 that descent must not stop at.
    pre = preset("vae-toy")
    obj = make_objective(
        "amortized_vae", pre.system, pre.target, {"form": "reconstruction"}, {"x": 1}
    )
    trace = minimize(obj, max_iters=500, grad_tol=1.0e-9)
    assert trace.converged
    assert trace.total <= 1.0e-8
    encoder = obj.engine.space.set(trace.phi)[0].factor_conditional("z")
    assert np.all(encoder[1] > 1.0e-3)


def test_minimize_needs_only_the_objective_protocol():
    obj = from_preset(preset("vae-toy"))
    wrapped = _Protocol(obj)
    trace = minimize(wrapped, max_iters=500, grad_tol=1.0e-9)
    direct = minimize(obj, max_iters=500, grad_tol=1.0e-9)
    assert trace.converged
    assert np.array_equal(trace.phi, direct.phi)
    assert sum(r.evaluations for r in trace.records) == wrapped.value_calls
    final = obj.value_and_gradient(trace.phi)
    assert np.array_equal(trace.gradient.grad, final.grad)
    assert trace.gradient.score_residual == final.score_residual
    assert dict(trace.evaluation.terms) == dict(final.evaluation.terms)


def test_minimize_falls_back_to_the_gradient():
    # With no usable natural direction (g . d = 0) descent follows g.
    trace = minimize(_Protocol(from_preset(preset("free-choice")), natural=False))
    assert trace.converged
    pol = softmax(trace.phi)
    assert abs(pol[0] - 0.25) < 1.0e-6 and abs(pol[1] - 0.75) < 1.0e-6


def test_argument_validation():
    obj = from_preset(preset("free-choice"))
    for h in (0.0, -1.0e-5, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="finite difference step"):
            finite_difference_gradient(obj, h=h)
    with pytest.raises(ConfigError):
        minimize(obj, max_iters=0)
    with pytest.raises(ConfigError):
        map_scan(obj)


def test_map_scan_picks_higher_likelihood_weight():
    pre = preset("bnn-toy")
    obj = make_objective("map_point_mass", pre.system, target=pre.target)
    scan = map_scan(obj)
    assert scan.names == ("w",)
    assert dict(scan.best) == {"w": 1}
    expected = -math.log(0.5 * (0.3 * 0.7) ** 2) + math.log(16.0)
    assert abs(scan.best_total - expected) < 1.0e-12
    worse = -math.log(0.5 * (0.8 * 0.2) ** 2) + math.log(16.0)
    assert abs(dict(scan.totals)[(0,)] - worse) < 1.0e-12


def test_minimize_rejects_divergent_start():
    system = ActualSystem(
        [Variable("x", 2, Role.PAST_INPUT), Variable("z", 2, Role.LATENT_STATE)],
        [FactorSpec.fixed("x", (), np.asarray([0.5, 0.5])),
         FactorSpec.parameterized("z", ("x",), np.zeros((2, 2)))],
    )
    target = TargetSpec(
        ("x", "z"),
        [TableFactor(("x",), np.asarray([1.0, 0.0])),
         TableFactor(("z",), np.asarray([0.5, 0.5]))],
    )
    obj = make_objective("joint_kl", system, target=target)
    assert obj.value().divergent
    with pytest.raises(DivergenceError):
        minimize(obj)


@pytest.mark.parametrize(
    "name, value_calls, grad_calls",
    [("hmm-filter", 23, 24), ("vae-toy", 11, 7), ("bandit-infogain", 28, 29)],
)
def test_an_accepted_point_builds_its_joint_once(name, value_calls, grad_calls, monkeypatch):
    # Every gradient but the starting one is asked for at the point of the
    # value call just before it, and takes that call's state: the tables of
    # every measure at that point, built once. bandit-infogain runs as its
    # bundled config, with the config's own optimizer settings.
    import divmin.engine

    if name == "bandit-infogain":
        config = load_config(bundled_config_path(name))
        objective, phi0, settings = config.objective, config.phi0, config.optimizer
    else:
        objective, phi0 = from_preset(preset(name)), None
        settings = {"max_iters": 500, "grad_tol": 1.0e-9}
    joints = []
    init = divmin.engine._State.__init__

    def counted(state, plan, sigmas, q_side):
        joints.append(sigmas)
        init(state, plan, sigmas, q_side)

    monkeypatch.setattr(divmin.engine._State, "__init__", counted)
    wrapped = _Protocol(objective)
    assert minimize(wrapped, phi0, **settings).converged
    assert (wrapped.value_calls, len(wrapped.gradients)) == (value_calls, grad_calls)
    assert len(joints) == wrapped.value_calls + 1
