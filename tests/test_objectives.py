"""Family-level checks: engines, certified reports, and their agreement.

Oracles here are independent enumerations: nested loops over outcome
tuples, hand-rolled softmax, and math.fsum accumulation. They share no
table machinery with the code under test.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from divmin import optim
from divmin.config import RunConfig
from divmin.decomp import observe, realize
from divmin.engine import Engine
from divmin.errors import ConfigError, ValidationError
from divmin.objectives import FAMILY_TAGS, Objective, from_preset, make_objective
from divmin.optim import check_gradient
from divmin.presets import names as preset_names
from divmin.presets import preset
from divmin.randsys import control_pair
from divmin.systems import (
    ActualSystem,
    ConditionalFactor,
    FactorMirror,
    FactorSpec,
    MarginalMirror,
    ParamFactor,
    RewardFactor,
    TableFactor,
    TargetSpec,
    build_joint,
    build_target,
)
from divmin.tables import Role, Variable
from divmin.verify import _PRESET_FOR_FAMILY, _family_objective


def softmax_rows(logits):
    arr = np.asarray(logits, dtype=np.float64)
    e = np.exp(arr - arr.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def fd_grad(obj, phi, h=1.0e-5):
    phi = np.asarray(phi, dtype=np.float64)
    g = np.zeros_like(phi)
    for i in range(phi.size):
        e = np.zeros_like(phi)
        e[i] = h
        g[i] = (obj.value(phi + e).total - obj.value(phi - e).total) / (2.0 * h)
    return g


def assert_certificate(obj: Objective, phi=None, tol=1.0e-9):
    """Shared term names agree between engine and report; totals when claimed."""
    ev = obj.value(phi)
    rep = obj.report(phi)
    for k in set(ev.terms) & set(rep.terms):
        assert abs(ev.terms[k] - rep.terms[k]) < tol, (k, ev.terms[k], rep.terms[k])
    if obj.total_matches_report:
        assert abs(ev.total - rep.total) < tol
    if rep.relation == "equals" and not rep.divergent:
        assert abs(rep.slack) < 1.0e-9
    else:
        assert rep.slack > -1.0e-9
    return ev, rep


# ---------------------------------------------------------------------------
# Construction and roundtrips


def test_from_preset_roundtrip_all_presets():
    rng = np.random.default_rng(7)
    for name in preset_names():
        obj = from_preset(preset(name))
        assert obj.equation == FAMILY_TAGS[obj.family]
        base = obj.parameters()
        assert_certificate(obj)
        if base.size:
            assert_certificate(obj, base + 0.4 * rng.standard_normal(base.size))


@pytest.mark.parametrize(
    "method", ["value", "value_and_gradient", "report", "minimize", "check_gradient", "RunConfig"]
)
def test_a_ragged_parameter_vector_is_a_validation_error(method):
    # The objective's own methods, the optimizer's functions that take a
    # starting or checked vector, and a run configuration's starting point.
    objective = from_preset(preset("free-choice"))
    if method == "RunConfig":
        call = partial(RunConfig, "ragged", 0, objective)
    else:
        call = getattr(objective, method, None) or partial(getattr(optim, method), objective)
    with pytest.raises(
        ValidationError, match="^parameter vector must be a rectangular array of numbers$"
    ):
        call([[0.0], [1.0, 2.0]])


def test_unknown_family_and_missing_targets():
    system = ActualSystem(
        [Variable("x", 2, Role.PAST_INPUT), Variable("z", 2, Role.LATENT_STATE)],
        [FactorSpec.fixed("x", (), np.asarray([0.4, 0.6])),
         FactorSpec.parameterized("z", ("x",), np.zeros((2, 2)))],
    )
    with pytest.raises(ConfigError):
        make_objective("nonsense", system)
    with pytest.raises(ConfigError):
        make_objective("joint_kl", system)
    with pytest.raises(ConfigError):
        make_objective("map_point_mass", system)
    with pytest.raises(ConfigError):
        make_objective("elbo_bnn", system)
    with pytest.raises(ConfigError):
        make_objective("amortized_vae", system)


def test_report_peak_memory_stays_within_six_outcome_arrays():
    # The report's terms each hold a few outcome-sized float64 arrays at
    # once; the peak reads about 4.4 of them on this 65536-outcome chain.
    obj = from_preset(preset("chain-mdp", n_states=8, steps=4))
    phi = np.random.default_rng(0).standard_normal(obj.parameters().size)
    outcomes = math.prod(v.cardinality for v in obj.system.variables)
    obj.report(phi)
    tracemalloc.start()
    try:
        obj.report(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * outcomes


def family_args(family):
    """(family, system, target, options) of the instance verify checks."""
    if family == "maxent_rl":
        system, options = control_pair(0)
        return family, system, None, {"rewards": options["rewards"]}
    pre = preset("bnn-toy" if family == "map_point_mass" else _PRESET_FOR_FAMILY[family])
    options = {k: v for k, v in pre.options.items() if k != "realized"}
    return family, pre.system, pre.target, options


@pytest.mark.parametrize("family", list(FAMILY_TAGS))
def test_misspelled_option_is_rejected(family):
    family, system, target, options = family_args(family)
    make_objective(family, system, target, options)
    with pytest.raises(ConfigError, match="mdoe"):
        make_objective(family, system, target, dict(options, mdoe="kl-control"))


@pytest.mark.parametrize("family", list(FAMILY_TAGS))
def test_unknown_realization_is_rejected_at_construction(family):
    with pytest.raises(ValidationError, match="realization"):
        make_objective(*family_args(family), realization="bogus")


# ---------------------------------------------------------------------------
# joint_kl


def test_joint_kl_family_total_is_the_divergence():
    pre = preset("hmm-filter")
    obj = from_preset(pre)
    rng = np.random.default_rng(3)
    phi = obj.parameters() + 0.3 * rng.standard_normal(obj.parameters().size)
    ev, rep = assert_certificate(obj, phi)
    assert abs(ev.total - rep.joint_kl) < 1.0e-9
    assert rep.terms["joint_kl"] == rep.joint_kl
    assert set(ev.terms) == {"cross"}


def _edge_system(point_mass: bool) -> ActualSystem:
    a = (
        FactorSpec.point_mass("a", (), 1)
        if point_mass
        else FactorSpec.parameterized("a", (), [0.2, -0.3])
    )
    return ActualSystem(
        [
            Variable("a", 2, Role.ACTION),
            Variable("z", 3, Role.LATENT_STATE),
            Variable("y", 2, Role.FUTURE_INPUT),
        ],
        [
            a,
            FactorSpec.parameterized("z", ("a",), [[0.1, 0.5, -0.2], [0.3, -0.4, 0.0]]),
            FactorSpec.fixed("y", ("z",), [[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]]),
        ],
    )


EDGE_TARGETS = {
    "no factors": [],
    "untouched scope variable": [TableFactor(("z",), np.asarray([1.0, 2.0, 0.5]))],
    "mirror of a point mass": [FactorMirror("a"), TableFactor(("y",), np.asarray([0.7, 1.3]))],
    "zero-weight factor": [TableFactor(("z",), np.asarray([1.0, 0.0, 2.0]))],
}

# (total, divergent) with ln q~ taken as the log of the materialized product
# on the full grid. The sum of factor logs must agree up to rounding: a
# target that leaves a scope variable untouched sums on a smaller marginal.
EDGE_EXPECTED = {
    ("joint_kl", "no factors"): (0.1492850083989672, False),
    ("joint_kl", "untouched scope variable"): (0.23176597360561368, False),
    ("joint_kl", "mirror of a point mass"): (0.12398491807041245, False),
    ("joint_kl", "zero-weight factor"): (0.715513083986852, True),
    ("map_point_mass", "no factors"): (0.1492850083989672, False),
    ("map_point_mass", "untouched scope variable"): (0.23176597360561346, False),
    ("map_point_mass", "mirror of a point mass"): (0.12398491807041256, False),
    ("map_point_mass", "zero-weight factor"): (-0.03623847233216307, True),
}


@pytest.mark.parametrize("family, case", list(EDGE_EXPECTED))
def test_raw_target_log_is_the_sum_of_factor_logs_on_edge_targets(family, case):
    target = TargetSpec(("a", "z", "y"), EDGE_TARGETS[case])
    mirrored = case == "mirror of a point mass"
    if mirrored and family == "joint_kl":
        obj = make_objective(family, _edge_system(False), target, realized={"a": 1})
    else:  # map_point_mass takes no realization, so declare the point mass
        obj = make_objective(family, _edge_system(mirrored), target)
    total, divergent = EDGE_EXPECTED[family, case]
    for ev in (obj.value(), obj.value_and_gradient().evaluation):
        assert ev.divergent is divergent
        assert ev.total == pytest.approx(total, rel=0.0, abs=1.0e-15)
        if not divergent:
            assert abs(ev.total - obj.report().total) <= 1.0e-12


# ---------------------------------------------------------------------------
# elbo_bnn


def test_elbo_closed_form_and_identity():
    pre = preset("bnn-toy")
    obj = from_preset(pre)
    rng = np.random.default_rng(11)
    phi = 0.7 * rng.standard_normal(2)

    # Hand-computed pieces. Posterior weights come straight from the two
    # logits; per-pair likelihoods follow the match table rows.
    sig = softmax_rows(phi)
    xs = [0, 1, 0, 1]
    ys = [0, 0, 0, 0]
    match = np.asarray([[[0.8, 0.2], [0.3, 0.7]], [[0.2, 0.8], [0.7, 0.3]]])
    complexity = math.fsum(sig[w] * math.log(sig[w] / 0.5) for w in range(2))
    accuracy = math.fsum(
        sig[w] * math.log(match[xs[i], w, ys[i]]) for i in range(4) for w in range(2)
    )
    constant = math.log(16.0)

    ev, rep = assert_certificate(obj, phi, tol=1.0e-10)
    assert abs(ev.terms["complexity"] - complexity) < 1.0e-12
    assert abs(ev.terms["accuracy"] - accuracy) < 1.0e-12
    assert abs(ev.terms["constant"] - constant) < 1.0e-12
    assert abs(rep.slack) < 1.0e-11

    grad = obj.value_and_gradient(phi)
    assert np.allclose(grad.grad, fd_grad(obj, phi), rtol=1.0e-6, atol=1.0e-8)
    assert grad.score_residual < 1.0e-12


def test_elbo_rejects_unfit_systems():
    pre = preset("bnn-toy")
    sys_act = ActualSystem(
        [Variable("w", 2, Role.PARAMETER), Variable("y", 2, Role.PAST_INPUT),
         Variable("a", 2, Role.ACTION)],
        [FactorSpec.parameterized("w", (), np.zeros(2)),
         FactorSpec.fixed("y", (), np.asarray([0.5, 0.5])),
         FactorSpec.parameterized("a", (), np.zeros(2))],
    )
    with pytest.raises(ConfigError):
        make_objective("elbo_bnn", sys_act, target=pre.target)
    sys_param_input = ActualSystem(
        [Variable("w", 2, Role.PARAMETER), Variable("y", 2, Role.PAST_INPUT)],
        [FactorSpec.parameterized("w", (), np.zeros(2)),
         FactorSpec.parameterized("y", (), np.zeros(2))],
    )
    tgt = TargetSpec(
        ("w", "y"),
        [TableFactor(("w",), np.asarray([0.5, 0.5])),
         ConditionalFactor("y", ("w",), np.asarray([[0.8, 0.2], [0.3, 0.7]]))],
    )
    with pytest.raises(ConfigError):
        make_objective("elbo_bnn", sys_param_input, target=tgt)
    with pytest.raises(ConfigError):
        make_objective("elbo_bnn", sys_param_input.with_factor(
            FactorSpec.fixed("y", (), np.asarray([0.5, 0.5]))),
            target=TargetSpec(("w", "y"), [TableFactor(("y",), np.asarray([0.5, 0.5]))]))


# ---------------------------------------------------------------------------
# map_point_mass


def test_map_family_recasts_energy_entropy():
    pre = preset("bnn-toy")
    obj = make_objective("map_point_mass", pre.system, target=pre.target)
    ev, rep = assert_certificate(obj)
    assert rep.equation == "map"
    assert set(rep.terms) == {"energy", "entropy"}
    # Uniform belief at the zero start: H = ln 2, energy averages the two
    # raw log-weights ln(0.5 * lik_w).
    lik = (0.8 * 0.2) ** 2, (0.3 * 0.7) ** 2
    energy = -0.5 * math.fsum(math.log(0.5 * l) for l in lik)
    assert abs(ev.terms["energy"] - energy) < 1.0e-12
    assert abs(ev.terms["entropy"] - math.log(2.0)) < 1.0e-12


# ---------------------------------------------------------------------------
# amortized_vae


def test_vae_forms_agree_with_conditional_splits():
    pre = preset("vae-toy")
    rng = np.random.default_rng(5)
    phi0 = from_preset(pre).parameters()
    phi = phi0 + 0.5 * rng.standard_normal(phi0.size)

    recon = from_preset(pre)
    ev_r, rep_r = assert_certificate(recon, phi, tol=1.0e-10)
    assert set(rep_r.terms) == {"complexity", "fit_bound"}

    contr = make_objective(
        "amortized_vae", pre.system, target=pre.target,
        options={"form": "contrastive"},
    )
    ev_c, rep_c = assert_certificate(contr, phi, tol=1.0e-10)
    assert set(rep_c.terms) == {"input_pref", "code_bound"}

    # Both forms rearrange the same divergence.
    assert abs(rep_r.joint_kl - rep_c.joint_kl) < 1.0e-12
    assert abs(ev_r.total - ev_c.total) < 1.0e-10

    grad = recon.value_and_gradient(phi)
    assert np.allclose(grad.grad, fd_grad(recon, phi), rtol=1.0e-5, atol=1.0e-7)
    assert grad.score_residual < 1.0e-12

    with pytest.raises(ConfigError):
        make_objective("amortized_vae", pre.system, target=pre.target,
                       options={"form": "banana"})


# ---------------------------------------------------------------------------
# kl_control / maxent_rl


def chain_oracle_total(sys2, n_states=5, reward=None):
    """Enumerate sum_t E[ln pi/prior] - E[r] + ln Z for the three-step chain."""
    reward = reward if reward is not None else [0.0, 0.0, 0.0, 0.0, 2.0]
    start = n_states // 2
    env = sys2.factor_conditional("x2")
    pis = {t: softmax_rows(sys2.factors[f"a{t}"].logits) for t in (1, 2, 3)}
    cost_parts, reward_parts, zmass = [], [], []
    for a1 in range(2):
        for x2 in range(n_states):
            for a2 in range(2):
                for x3 in range(n_states):
                    for a3 in range(2):
                        pp = (
                            pis[1][start, a1] * env[start, a1, x2]
                            * pis[2][x2, a2] * env[x2, a2, x3]
                            * pis[3][x3, a3]
                        )
                        lead = (
                            math.log(pis[1][start, a1] / 0.5)
                            + math.log(pis[2][x2, a2] / 0.5)
                            + math.log(pis[3][x3, a3] / 0.5)
                        )
                        cost_parts.append(pp * lead)
                        reward_parts.append(pp * (reward[x2] + reward[x3]))
                        zmass.append(
                            env[start, a1, x2] * env[x2, a2, x3]
                            * 0.125 * math.exp(reward[x2] + reward[x3])
                        )
    return math.fsum(cost_parts) - math.fsum(reward_parts) + math.log(math.fsum(zmass))


def test_kl_control_matches_enumeration():
    pre = preset("chain-mdp")
    obj = from_preset(pre)
    rng = np.random.default_rng(13)
    phi = 0.6 * rng.standard_normal(obj.parameters().size)
    sys2, _ = obj.engine.space.set(phi)

    ev, rep = assert_certificate(obj, phi, tol=1.0e-10)
    assert abs(ev.total - chain_oracle_total(sys2)) < 1.0e-10
    assert set(rep.terms) == {
        "control_cost_1", "control_cost_2", "control_cost_3",
        "expected_pref_2", "expected_pref_3",
    }
    grad = obj.value_and_gradient(phi)
    assert np.allclose(grad.grad, fd_grad(obj, phi), rtol=1.0e-5, atol=1.0e-7)
    assert grad.score_residual < 1.0e-12


def test_maxent_rl_is_uniform_prior_kl_control():
    pre = preset("chain-mdp")
    rng = np.random.default_rng(17)
    control = from_preset(pre)
    maxent = make_objective(
        "maxent_rl", pre.system,
        options={"rewards": dict(pre.options["rewards"])},
    )
    phi = 0.5 * rng.standard_normal(control.parameters().size)
    ev_c = control.value(phi)
    ev_m, rep_m = assert_certificate(maxent, phi, tol=1.0e-10)
    assert abs(ev_c.total - ev_m.total) < 1.0e-12
    assert set(rep_m.terms) == {
        "action_complexity_1", "action_complexity_2", "action_complexity_3",
        "reward_2", "reward_3",
    }
    with pytest.raises(ConfigError):
        make_objective("maxent_rl", pre.system, options={
            "rewards": dict(pre.options["rewards"]), "priors": {"a1": (0.3, 0.7)},
        })


def test_free_choice_value_and_prior_handling():
    pre = preset("free-choice")
    obj = from_preset(pre)
    # Uniform start: cost 0, expected reward 0.5 ln 3, ln Z = ln 2.
    ev, rep = assert_certificate(obj, tol=1.0e-12)
    expect = -0.5 * math.log(3.0) + math.log(2.0)
    assert abs(ev.total - expect) < 1.0e-12
    assert abs(rep.joint_kl - expect) < 1.0e-12

    skewed = make_objective(
        "kl_control", pre.system,
        options={"rewards": {"x": (0.0, math.log(3.0))},
                 "priors": {"x": (0.75, 0.25)}},
    )
    ev2 = skewed.value()
    expect2 = (
        0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        - 0.5 * math.log(3.0)
        + math.log(0.75 + 0.25 * 3.0)
    )
    assert abs(ev2.total - expect2) < 1.0e-12


@pytest.mark.parametrize("family", ["kl_control", "maxent_rl"])
def test_control_families_reject_an_explicit_target(family):
    pre = preset("free-choice")
    target = TargetSpec(("x",), [RewardFactor(("x",), np.asarray([5.0, -5.0]))])
    with pytest.raises(ConfigError, match="builds its target"):
        make_objective(family, pre.system, target=target,
                       options={"rewards": dict(pre.options["rewards"])})


@pytest.mark.filterwarnings("error")
def test_target_weights_whose_sum_overflows_are_rejected_on_both_sides():
    # e^709 and e^709.5 are finite, but their sum is not, and e^710 is not
    # finite itself: the engine and the report hold the target's total to
    # one finiteness rule, with one message and no numpy warning.
    system = ActualSystem([Variable("x", 2, Role.LATENT_STATE)],
                          [FactorSpec.parameterized("x", (), [0.0, 0.0])])
    for rewards in ([709.0, 709.5], [710.0, 0.0]):
        target = TargetSpec(("x",), [RewardFactor(("x",), np.asarray(rewards))])
        obj = make_objective("joint_kl", system, target)
        for call in (obj.value, obj.value_and_gradient, obj.report):
            with pytest.raises(ValidationError, match="^target weights must be finite$"):
                call()


def test_kl_regularized_mode_passive_and_identity():
    pre = preset("chain-mdp")
    obj = make_objective(
        "kl_control", pre.system,
        options={"rewards": dict(pre.options["rewards"]), "mode": "kl-regularized"},
    )
    # The built target starts with the clamped point mass and the two
    # action-averaged transitions; from the middle state the passive walk
    # is an even split over the two neighbours.
    passive = obj.target.factors[1]
    assert isinstance(passive, ConditionalFactor)
    assert np.allclose(passive.table[2], [0.0, 0.5, 0.0, 0.5, 0.0])
    assert np.allclose(passive.table[0], [0.5, 0.5, 0.0, 0.0, 0.0])

    rng = np.random.default_rng(19)
    phi = 0.6 * rng.standard_normal(obj.parameters().size)
    ev, rep = assert_certificate(obj, phi, tol=1.0e-10)
    assert abs(rep.slack) < 1.0e-11
    grad = obj.value_and_gradient(phi)
    assert np.allclose(grad.grad, fd_grad(obj, phi), rtol=1.0e-5, atol=1.0e-7)

    with pytest.raises(ConfigError):
        make_objective("kl_control", preset("free-choice").system,
                       options={"mode": "kl-regularized"})


def test_expected_reward_mode_is_pure_reward():
    pre = preset("chain-mdp")
    obj = make_objective(
        "kl_control", pre.system,
        options={"rewards": dict(pre.options["rewards"]), "mode": "expected-reward"},
    )
    assert not obj.total_matches_report
    rng = np.random.default_rng(23)
    phi = 0.6 * rng.standard_normal(obj.parameters().size)
    sys2, _ = obj.engine.space.set(phi)

    env = sys2.factor_conditional("x2")
    pis = {t: softmax_rows(sys2.factors[f"a{t}"].logits) for t in (1, 2)}
    reward = [0.0, 0.0, 0.0, 0.0, 2.0]
    parts = []
    for a1 in range(2):
        for x2 in range(5):
            for a2 in range(2):
                for x3 in range(5):
                    pp = pis[1][2, a1] * env[2, a1, x2] * pis[2][x2, a2] * env[x2, a2, x3]
                    parts.append(pp * (reward[x2] + reward[x3]))
    ev, rep = assert_certificate(obj, phi, tol=1.0e-10)
    assert abs(ev.total + math.fsum(parts)) < 1.0e-10
    assert abs(rep.slack) < 1.0e-11

    grad = obj.value_and_gradient(phi)
    assert np.allclose(grad.grad, fd_grad(obj, phi), rtol=1.0e-5, atol=1.0e-7)

    with pytest.raises(ConfigError):
        make_objective("kl_control", pre.system, options={"mode": "expected-reward"})


# ---------------------------------------------------------------------------
# empowerment


def noisy_channel():
    variables = [
        Variable("a", 2, Role.ACTION),
        Variable("x1", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.parameterized("a", (), np.asarray([0.3, -0.2])),
        FactorSpec.fixed("x1", ("a",), np.asarray([[0.8, 0.2], [0.3, 0.7]])),
    ]
    return ActualSystem(variables, factors)


def test_empowerment_bound_and_matched_decoder():
    system = noisy_channel()
    obj = make_objective("empowerment", system)
    ev, rep = assert_certificate(obj, tol=1.0e-10)
    assert rep.terms["gen_empowerment_bound"] <= rep.extras["exact_mi"] + 1.0e-12
    assert rep.extras["exact_mi"] <= rep.extras["mi_cap"] + 1.0e-12
    assert abs(ev.total + ev.terms["gen_empowerment_bound"]) < 1.0e-14

    # Exact posterior decoder: enumerate the joint by hand.
    pa = softmax_rows(np.asarray([0.3, -0.2]))
    chan = np.asarray([[0.8, 0.2], [0.3, 0.7]])
    joint = np.asarray([[pa[a] * chan[a, x] for x in range(2)] for a in range(2)])
    post = joint / joint.sum(axis=0, keepdims=True)
    matched = TargetSpec(
        ("a", "x1"), [ParamFactor("a", ("x1",), np.log(post.T))]
    )
    exact = make_objective("empowerment", system, target=matched)
    rep2 = exact.report()
    assert abs(rep2.terms["gen_empowerment_bound"] - rep2.extras["exact_mi"]) < 1.0e-12

    mi_parts = [
        joint[a, x] * math.log(joint[a, x] / (pa[a] * joint.sum(axis=0)[x]))
        for a in range(2) for x in range(2)
    ]
    assert abs(rep2.extras["exact_mi"] - math.fsum(mi_parts)) < 1.0e-12

    grad = obj.value_and_gradient()
    assert np.allclose(grad.grad, fd_grad(obj, obj.parameters()), rtol=1.0e-5, atol=1.0e-7)


def test_empowerment_presets_build_sane_decoders():
    dead = from_preset(preset("dead-action"))
    pf = dead.target.factors[0]
    assert isinstance(pf, ParamFactor) and pf.child == "a" and pf.parents == ("x1",)
    ident = from_preset(preset("identity-channel"))
    assert_certificate(ident)
    with pytest.raises(ConfigError):
        make_objective("empowerment", preset("bnn-toy").system)


# ---------------------------------------------------------------------------
# skill_discovery


def test_skills_identity_and_policy_prior_cancellation():
    pre = preset("two-room-skills")
    obj = from_preset(pre)
    rng = np.random.default_rng(29)
    phi = obj.parameters() + 0.5 * rng.standard_normal(obj.parameters().size)
    ev, rep = assert_certificate(obj, phi, tol=1.0e-10)
    assert abs(rep.terms["control"]) < 1.0e-9
    assert abs(rep.terms["action_complexity"]) < 1.0e-9
    assert abs(rep.slack) < 1.0e-10
    assert abs(ev.total + ev.terms["skill_info_bound"]) < 1.0e-14
    assert rep.terms["skill_info_bound"] <= rep.extras["exact_mi"] + 1.0e-12

    grad = obj.value_and_gradient(phi)
    assert np.allclose(grad.grad, fd_grad(obj, phi), rtol=1.0e-5, atol=1.0e-7)
    assert grad.score_residual < 1.0e-12


def test_skills_uniform_prior_charges_actions():
    pre = preset("two-room-skills")
    options = dict(pre.options)
    options["action_prior"] = "uniform"
    obj = make_objective("skill_discovery", pre.system, options=options)
    rng = np.random.default_rng(31)
    phi = obj.parameters() + 0.5 * rng.standard_normal(obj.parameters().size)
    ev, rep = assert_certificate(obj, phi, tol=1.0e-10)
    assert rep.terms["action_complexity"] > 0.0
    assert abs(ev.total - (ev.terms["action_complexity"] - ev.terms["skill_info_bound"])) < 1.0e-12

    with pytest.raises(ConfigError):
        make_objective("skill_discovery", pre.system, target=obj.target,
                       options=dict(pre.options))
    with pytest.raises(ConfigError):
        make_objective("skill_discovery", pre.system,
                       options={"action_prior": "policy"})


# ---------------------------------------------------------------------------
# info_gain


def test_info_gain_intrinsic_bound_and_matched_predictor():
    pre = preset("bandit-infogain")
    obj = from_preset(pre)
    assert not obj.total_matches_report
    rng = np.random.default_rng(37)
    phi = 0.8 * rng.standard_normal(obj.parameters().size)
    ev, rep = assert_certificate(obj, phi)
    assert rep.extras["info_gain_gap"] > -1.0e-11
    assert rep.slack > -1.0e-11
    assert abs(ev.total + ev.terms["info_gain"]) < 1.0e-14

    matched = make_objective(
        "info_gain", pre.system,
        target=TargetSpec(("w", "x1", "x2"), [MarginalMirror(("w",), ("x1", "x2"))]),
        options={"optimize": "intrinsic"},
    )
    rep_m = matched.report(phi[:2])
    assert abs(rep_m.extras["info_gain_gap"]) < 1.0e-10
    assert abs(rep_m.terms["info_gain"] - rep_m.extras["exact_info_gain"]) < 1.0e-10


def test_info_gain_bound_mode_descends_whole_certificate():
    pre = preset("bandit-infogain")
    obj = make_objective(
        "info_gain", pre.system,
        options={"optimize": "bound"},
    )
    assert obj.total_matches_report
    rng = np.random.default_rng(41)
    phi = 0.6 * rng.standard_normal(obj.parameters().size)
    ev, rep = assert_certificate(obj, phi, tol=1.0e-10)
    assert set(ev.terms) == {"simplicity", "repr_learning", "control", "info_gain"}

    grad = obj.value_and_gradient(phi)
    assert np.allclose(grad.grad, fd_grad(obj, phi), rtol=1.0e-5, atol=1.0e-7)
    assert grad.score_residual < 1.0e-12

    with pytest.raises(ConfigError):
        make_objective("info_gain", pre.system, options={"optimize": "sideways"})


def belief_in_order(order):
    """A belief over a parameter read once in the past and once in the
    future, declared in ``order``."""
    roles = {"w": Role.PARAMETER, "x1": Role.PAST_INPUT, "x2": Role.FUTURE_INPUT}
    factors = {
        "w": FactorSpec.parameterized("w", (), [0.3, -0.2]),
        "x1": FactorSpec.fixed("x1", ("w",), [[0.8, 0.2], [0.35, 0.65]]),
        "x2": FactorSpec.fixed(
            "x2", ("w", "x1"), [[[0.7, 0.3], [0.4, 0.6]], [[0.1, 0.9], [0.55, 0.45]]]
        ),
    }
    return ActualSystem(
        [Variable(n, 2, roles[n]) for n in order], [factors[n] for n in order]
    )


def test_info_gain_builds_from_roles_alone():
    past_first = make_objective("info_gain", belief_in_order(("w", "x1", "x2")))
    future_first = make_objective("info_gain", belief_in_order(("x2", "w", "x1")))
    want = past_first.report(past_first.parameters())
    got = future_first.report(future_first.parameters())
    assert want.extras["exact_info_gain"] > 1.0e-3
    for name in ("terms", "extras"):
        for key, value in getattr(want, name).items():
            assert getattr(got, name)[key] == pytest.approx(value, abs=1e-12), key
    assert got.total == pytest.approx(want.total, abs=1e-12)


# ---------------------------------------------------------------------------
# Realized values


def realized_objective_args(case):
    """(family, system, target, options) for one realized-value case."""
    if case.startswith("vae-"):
        pre = preset("vae-toy")
        return "amortized_vae", pre.system, pre.target, {"form": case[4:]}
    if case == "two-room-skills":
        pre = preset(case)
        return "skill_discovery", pre.system, None, dict(pre.options)
    system, options = control_pair(0)
    rewards = {"rewards": options["rewards"]}
    if case == "maxent_rl":
        return "maxent_rl", system, None, rewards
    return "kl_control", system, None, dict(rewards, mode=case)


REALIZED_CASES = [
    ("vae-reconstruction", {"x": 1}, "intervene"),
    ("vae-reconstruction", {"x": 1}, "condition"),
    ("vae-contrastive", {"x": 1}, "intervene"),
    ("vae-contrastive", {"x": 1}, "condition"),
    ("two-room-skills", {"x1": 0, "a1": 1}, "intervene"),
    ("kl-control", {"a1": 1}, "intervene"),
    ("kl-regularized", {"a1": 1}, "intervene"),
    ("expected-reward", {"a1": 1}, "intervene"),
    ("maxent_rl", {"a2": 0}, "intervene"),
    ("kl-regularized", {"x1": 0}, "intervene"),
]

# Evidence conditions p, and the mirrored dynamics of these modes then no
# longer cancel, so a report would certify an identity that is off.
REJECTED_CASES = [
    ("kl-control", {"x1": 0}, "intervene"),
    ("kl-control", {"x1": 2}, "intervene"),
    ("kl-control", {"a1": 1}, "condition"),
    ("expected-reward", {"x1": 0}, "intervene"),
    ("maxent_rl", {"x1": 0}, "intervene"),
    ("kl-regularized", {"a1": 1}, "condition"),
]


def test_evidence_outside_the_target_scope_is_rejected_at_construction():
    system = ActualSystem(
        [Variable("x", 2, Role.PAST_INPUT), Variable("z", 2, Role.LATENT_STATE)],
        [FactorSpec.fixed("x", (), np.asarray([0.5, 0.5])),
         FactorSpec.parameterized("z", ("x",), np.zeros((2, 2)))],
    )
    target = TargetSpec(("z",), [TableFactor(("z",), np.asarray([0.3, 0.7]))])
    make_objective("joint_kl", system, target)
    with pytest.raises(ValidationError, match="'x' is outside the target scope"):
        make_objective("joint_kl", system, target, realized={"x": 1})


def count_calls(monkeypatch, function) -> list:
    """Counts calls of ``function`` through every divmin module that binds
    its name."""
    import sys

    calls = []

    def counted(*args):
        calls.append(args)
        return function(*args)

    name = function.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "divmin" and getattr(module, name, None) is function:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("realization", ["intervene", "condition"])
def test_make_objective_realizes_once(realization, monkeypatch):
    calls = count_calls(monkeypatch, realize)
    make_objective(*realized_objective_args("vae-reconstruction"), {"x": 1}, realization)
    assert len(calls) == 1


CONTROL_CASES = [c for c in REALIZED_CASES if not c[0].startswith(("vae-", "two-room"))]


@pytest.mark.parametrize("case, realized, realization", CONTROL_CASES)
def test_control_objectives_realize_once(case, realized, realization, monkeypatch):
    # The stray-evidence check reads the engine's realized evidence.
    assert len(CONTROL_CASES) == 5
    calls = count_calls(monkeypatch, realize)
    make_objective(*realized_objective_args(case), realized, realization)
    assert len(calls) == 1


@pytest.mark.parametrize("name", preset_names())
def test_make_objective_builds_no_dense_joint(name, monkeypatch):
    # The engine contracts factor tables; only the reports build the joint.
    calls = count_calls(monkeypatch, build_joint)
    from_preset(preset(name))
    assert calls == []


@pytest.mark.parametrize("case, realized, realization", REALIZED_CASES + REJECTED_CASES)
def test_reports_hold_with_realized_values(case, realized, realization):
    family, system, target, options = realized_objective_args(case)
    if (case, realized, realization) in REJECTED_CASES:
        with pytest.raises(ConfigError):
            make_objective(family, system, target, options, realized, realization)
        return
    obj = make_objective(family, system, target, options, realized, realization)
    rng = np.random.default_rng(43)
    for _ in range(3):
        phi = rng.standard_normal(obj.parameters().size)
        ev = obj.value(phi)
        rep = obj.report(phi)
        assert abs(rep.slack) <= 1.0e-9
        assert set(ev.terms) <= set(rep.terms)
        for k, v in ev.terms.items():
            assert abs(v - rep.terms[k]) <= 1.0e-9, (k, v, rep.terms[k])


# ---------------------------------------------------------------------------
# Logit swaps against fully validated systems


SWAP_CASES = (
    [("preset", name) for name in preset_names()]
    + [("family", family) for family in FAMILY_TAGS]
    + [("realized", i) for i in range(len(REALIZED_CASES))]
)


def swap_objective(kind, key) -> Objective:
    if kind == "preset":
        return from_preset(preset(key))
    if kind == "family":
        return _family_objective(key)
    case, realized, realization = REALIZED_CASES[key]
    return make_objective(*realized_objective_args(case), realized, realization)


def validated_engine(engine: Engine, phi: np.ndarray) -> Engine:
    """An engine whose system and target carry ``phi`` as their own logits,
    rebuilt one factor at a time through the fully validating constructors."""
    system, factors = engine.system, list(engine.target.factors)
    for b in engine.space.blocks:
        chunk = phi[b.offset : b.offset + b.size].reshape(b.shape)
        if b.side == "p":
            parents = system.factors[b.key].parents
            system = system.with_factor(FactorSpec.parameterized(b.key, parents, chunk))
        else:
            old = factors[b.index]
            factors[b.index] = ParamFactor(old.child, old.parents, chunk)
    target = TargetSpec(engine.target.scope, factors)
    return Engine(
        system, target, engine.terms, engine.lnz_coeff, engine.realized, engine.realization
    )


@pytest.mark.parametrize("kind, key", SWAP_CASES)
def test_logit_swaps_match_fully_validated_systems(kind, key):
    obj = swap_objective(kind, key)
    rng = np.random.default_rng(17)
    size = obj.parameters().size
    for phi in [None] + [rng.standard_normal(size) for _ in range(3)]:
        reference = validated_engine(
            obj.engine, obj.parameters() if phi is None else phi
        ).value_and_gradient()
        fast = obj.value_and_gradient(phi)
        for got in (obj.value(phi), fast.evaluation):
            assert got.total == reference.evaluation.total
            assert dict(got.terms) == dict(reference.evaluation.terms)
            assert got.log_partition == reference.evaluation.log_partition
        assert np.array_equal(fast.grad, reference.grad)
        assert fast.score_residual == reference.score_residual


@pytest.mark.parametrize("kind, key", SWAP_CASES)
def test_gradient_after_a_value_call_is_the_fresh_one(kind, key):
    # The gradient takes the state of a value call at the same phi just
    # before it; a fresh engine builds its own.
    obj = swap_objective(kind, key)
    rng = np.random.default_rng(29)
    for _ in range(3):
        phi = rng.standard_normal(obj.parameters().size)
        obj.value(phi)
        got = obj.value_and_gradient(phi)
        want = swap_objective(kind, key).value_and_gradient(phi)
        assert got.evaluation == want.evaluation  # total, terms, ln Z, divergent
        assert got.grad.tobytes() == want.grad.tobytes()
        assert got.direction.tobytes() == want.direction.tobytes()
        assert got.score_residual == want.score_residual


@pytest.mark.parametrize("kind, key", SWAP_CASES)
def test_planned_tables_match_the_materialized_ones(kind, key):
    # The engine contracts factor tables and the reports multiply the dense
    # grid: two algorithms, whose marginals must agree. Every marginal the
    # engine takes for a value and a gradient, of the actual measure, the
    # unobserved joint and the target weights, matches the materialized
    # tables' to 1e-15 relative, and so does ln Z.
    obj = swap_objective(kind, key)
    eng = obj.engine
    rng = np.random.default_rng(31)
    for _ in range(3):
        phi = rng.standard_normal(obj.parameters().size)
        system, target = eng.space.set(phi)
        realized, evidence = realize(system, eng.realized, eng.realization)
        joint = build_joint(realized)
        q = build_target(target, realized, joint)
        p = observe(joint, evidence) if evidence else joint
        eng.value(phi)
        st = eng._kept[1]
        eng.value_and_gradient(phi)  # contracts the kept state
        assert st.q_side.total == pytest.approx(math.exp(q.log_partition), rel=1e-15)
        lift = [realized.names.index(n) for n in q.names]
        q_lifted = np.expand_dims(q.weights.transpose(np.argsort(lift)), tuple(
            a for a in range(len(realized.names)) if a not in lift
        ))
        taken = [("q", keep, m, q_lifted) for keep, m in st.q_side.cache.items()]
        for which, dense in (("p", p.probs), ("joint", joint.probs)):
            taken += [(which, keep, m, dense) for keep, m in st.cache[which].items()]
        assert taken
        for which, keep, m, dense in taken:
            drop = tuple(a for a in range(dense.ndim) if a not in keep and dense.shape[a] > 1)
            want = dense.sum(axis=drop, keepdims=True)
            assert m.shape == want.shape, (which, keep)
            np.testing.assert_allclose(m, want, rtol=1e-15, atol=1e-300, err_msg=which)


@pytest.mark.parametrize("kind, key", SWAP_CASES)
def test_earlier_evaluations_leave_no_stale_state(kind, key):
    # An engine whose target does not depend on phi keeps the target built
    # by its first evaluation; nothing derived from an earlier phi may leak
    # into a later one.
    obj = swap_objective(kind, key)
    rng = np.random.default_rng(29)
    phi_a, phi_b = (rng.standard_normal(obj.parameters().size) for _ in range(2))
    obj.value_and_gradient(phi_b)
    value = obj.value(phi_a)
    fast = obj.value_and_gradient(phi_a)
    reference = swap_objective(kind, key).value_and_gradient(phi_a)
    want = reference.evaluation
    for got in (value, fast.evaluation):
        assert got.total == want.total
        assert dict(got.terms) == dict(want.terms)
        assert got.log_partition == want.log_partition
    assert np.array_equal(fast.grad, reference.grad)
    assert np.array_equal(fast.direction, reference.direction)
    assert fast.score_residual == reference.score_residual


# ---------------------------------------------------------------------------
# Where the gates had no case: ln Z that depends on phi, and option settings
# that verify does not certify


def decoder_pair():
    """A three-state x read by a two-state softmax code z."""
    system = ActualSystem(
        [Variable("x", 3, Role.PAST_INPUT), Variable("z", 2, Role.LATENT_STATE)],
        [FactorSpec.fixed("x", (), [0.2, 0.5, 0.3]),
         FactorSpec.parameterized("z", ("x",), [[0.3, -0.4], [0.1, 0.6], [-0.5, 0.2]])],
    )
    decoder = ParamFactor("x", ("z",), np.asarray([[0.4, -0.3, 0.2], [-0.6, 0.5, 0.1]]))
    return system, decoder


def lnz_objective(case: str) -> Objective:
    """joint_kl whose target's ln Z moves with phi."""
    if case == "vae-toy plus a reward on x":
        pre = preset("vae-toy")
        reward = RewardFactor(("x",), np.asarray([0.5, -1.0, 2.0, 0.0]))
        target = TargetSpec(pre.target.scope, list(pre.target.factors) + [reward])
        return make_objective("joint_kl", pre.system, target)
    system, decoder = decoder_pair()
    second = (
        RewardFactor(("x",), np.asarray([1.0, -0.5, 2.5]))
        if case == "a reward on a softmax factor's child"
        else TableFactor(("z", "x"), np.asarray([[0.9, 0.1, 0.6], [0.2, 0.7, 0.4]]))
    )
    return make_objective("joint_kl", system, TargetSpec(("x", "z"), [decoder, second]))


LNZ_CASES = [
    "a reward on a softmax factor's child",
    "two target factors on one child",
    "vae-toy plus a reward on x",
]


@pytest.mark.parametrize("case", LNZ_CASES)
def test_gradient_holds_where_ln_z_depends_on_phi(case):
    obj = lnz_objective(case)
    rng = np.random.default_rng(37)
    size = obj.parameters().size
    lnz = []
    for phi in [obj.parameters()] + [rng.standard_normal(size) for _ in range(3)]:
        check = check_gradient(obj, phi)
        assert check.rel_err <= 1e-8, check.rel_err
        assert check.score_residual <= 1e-10
        value, report = obj.value(phi), obj.report(phi)
        assert abs(value.total - report.total) <= 1e-12 * max(1.0, abs(report.total))
        lnz.append(value.log_partition)
    assert np.ptp(lnz) > 0.1  # the case exercises a moving ln Z


def elbo_with_data_entropy() -> Objective:
    """A binary-weight fit to data (x, y) drawn from a distribution with
    positive entropy, unlike bnn-toy's clamped points."""
    system = ActualSystem(
        [Variable("w", 2, Role.PARAMETER), Variable("x", 3, Role.PAST_INPUT),
         Variable("y", 2, Role.PAST_INPUT)],
        [FactorSpec.parameterized("w", (), [0.3, -0.2]),
         FactorSpec.fixed("x", (), [0.5, 0.3, 0.2]),
         FactorSpec.fixed("y", ("x",), [[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]])],
    )
    likelihood = np.asarray([[[0.8, 0.2], [0.3, 0.7]], [[0.5, 0.5], [0.6, 0.4]],
                             [[0.1, 0.9], [0.35, 0.65]]])
    target = TargetSpec(
        ("w", "x", "y"),
        [TableFactor(("w",), np.asarray([0.6, 0.4])),
         ConditionalFactor("y", ("x", "w"), likelihood)],
    )
    return make_objective("elbo_bnn", system, target)


def info_gain_bound() -> Objective:
    """The full bound over a belief read once in the past, so that every
    one of its four terms is nonzero."""
    return make_objective(
        "info_gain", belief_in_order(("w", "x1", "x2")), options={"optimize": "bound"}
    )


@pytest.mark.parametrize("make", [elbo_with_data_entropy, info_gain_bound])
def test_engine_matches_report_on_settings_verify_skips(make):
    obj = make()
    assert obj.total_matches_report
    rng = np.random.default_rng(41)
    size = obj.parameters().size
    for phi in [obj.parameters()] + [rng.standard_normal(size) for _ in range(3)]:
        value, report = obj.value(phi), obj.report(phi)
        assert abs(value.total - report.total) <= 1e-12 * max(1.0, abs(report.total))
        for name, v in value.terms.items():
            assert abs(v - report.terms[name]) <= 1e-12 * max(1.0, abs(v)), name
        assert min(abs(v) for v in value.terms.values()) > 1e-3  # every term counts
    if make is elbo_with_data_entropy:
        x = build_joint(obj.system).probs.sum(axis=0)
        assert -float(np.sum(x * np.log(x))) > 0.5  # the data entropy counts


def system_x_z_a() -> ActualSystem:
    """x -> z -> a, listed in that order, so that a target scope can be
    ordered away from the system's."""
    rng = np.random.default_rng(43)
    return ActualSystem(
        [Variable("x", 2, Role.PAST_INPUT), Variable("z", 3, Role.LATENT_STATE),
         Variable("a", 2, Role.ACTION)],
        [FactorSpec.fixed("x", (), [0.35, 0.65]),
         FactorSpec.parameterized("z", ("x",), rng.standard_normal((2, 3))),
         FactorSpec.parameterized("a", ("z",), rng.standard_normal((3, 2)))],
    )


@pytest.mark.parametrize("scope", [("z", "x", "a"), ("x", "a", "z"), ("a", "x", "z")], ids="".join)
@pytest.mark.parametrize("family", ["joint_kl", "map_point_mass", "amortized_vae", "empowerment"])
def test_a_target_scope_ordered_away_from_the_system_certifies(family, scope):
    # The report moves p onto the target's axis order, while the engine
    # never lays out either side on it: the two agree only if that move is
    # right.
    rng = np.random.default_rng(47)
    target = TargetSpec(scope, [
        TableFactor(("z", "x"), np.exp(rng.standard_normal((3, 2)))),
        ConditionalFactor("a", ("x",), np.asarray([[0.3, 0.7], [0.8, 0.2]])),
        ParamFactor("z", ("a",), rng.standard_normal((2, 3))),
    ])
    obj = make_objective(family, system_x_z_a(), target)
    size = obj.parameters().size
    for phi in [obj.parameters()] + [rng.standard_normal(size) for _ in range(2)]:
        value, report = obj.value(phi), obj.report(phi)
        assert report.relation == "equals" and abs(report.slack) <= 1e-12
        if obj.total_matches_report:
            assert abs(value.total - report.total) <= 1e-12 * max(1.0, abs(report.total))
        for name in value.terms.keys() & report.terms.keys():
            v = value.terms[name]
            assert abs(v - report.terms[name]) <= 1e-12 * max(1.0, abs(v)), name
        assert check_gradient(obj, phi).rel_err <= 1e-8
