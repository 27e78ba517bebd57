"""Optimum-level checks against independent enumeration oracles.

Other test modules certify that evaluations and gradients are correct
at given parameter points. This module asks a harder question: after
optimization, do the preset problems land where exhaustive enumeration
says the optimum is? Every reference value here is computed from the
problem data by a separate algorithm (dynamic programming, Bayes rule
by hand, brute-force configuration sweeps), never by the code under
test.
"""

import math

import numpy as np

from divmin import (
    ActualSystem,
    ConditionalFactor,
    FactorMirror,
    FactorSpec,
    Role,
    TableFactor,
    TargetSpec,
    Variable,
    bayesian_future_check,
    build_joint,
    condition,
    from_preset,
    make_objective,
    map_scan,
    marginalize,
    minimize,
    preset,
)
from divmin.randsys import rng_for
from divmin.systems import softmax

LN2 = math.log(2.0)


def optimized_system(objective, trace):
    system, _ = objective.engine.space.set(trace.phi)
    return system


# ---------------------------------------------------------------------------
# maxent control: soft-Bellman dynamic programming


def soft_bellman_total(system, rewards, n_states=5, prior=0.5):
    """Optimal chain total by backward induction plus direct normalization.

    The recursion works on the negated value W so that soft-min matches
    the minimized objective: the last action has no successor and costs
    nothing at the uniform policy, and each earlier stage soft-mins the
    expected continuation under the uniform action prior.
    """
    env = system.factors["x2"].table
    reward = np.asarray(rewards["x2"])
    w_next = np.zeros(n_states)
    for _ in range(2):
        a_vals = np.einsum("saj,j->sa", env, -reward + w_next)
        w_next = -np.log(prior * np.exp(-a_vals).sum(axis=1))
    start = n_states // 2

    mass = 0.0
    for a1 in range(2):
        for x2 in range(n_states):
            for a2 in range(2):
                for x3 in range(n_states):
                    for a3 in range(2):
                        mass += (
                            prior * env[start, a1, x2]
                            * prior * env[x2, a2, x3]
                            * prior
                            * math.exp(reward[x2] + reward[x3])
                        )
    return w_next[start] + math.log(mass)


def test_maxent_chain_matches_soft_bellman_enumeration():
    pre = preset("chain-mdp")
    oracle = soft_bellman_total(pre.system, pre.options["rewards"])
    objective = make_objective(
        "maxent_rl", pre.system, options={"rewards": pre.options["rewards"]}
    )
    trace = minimize(objective, max_iters=5000, grad_tol=1e-9)
    assert trace.converged
    assert abs(trace.total - oracle) < 1e-6


# ---------------------------------------------------------------------------
# belief fitting: Bayes rule by hand


def bnn_hand_posterior():
    """Posterior over the binary weight from the four clamped pairs.

    The data alternate inputs 0, 1 and always answer 0, so each weight
    explains two agreeing and two disagreeing pairs; the likelihoods
    follow from the 0.8/0.3 match probabilities directly.
    """
    match = np.asarray([[[0.8, 0.2], [0.3, 0.7]], [[0.2, 0.8], [0.7, 0.3]]])
    xs, ys = (0, 1, 0, 1), (0, 0, 0, 0)
    raw = np.asarray(
        [0.5 * math.prod(match[x, w, y] for x, y in zip(xs, ys)) for w in (0, 1)]
    )
    return raw / raw.sum()


def test_bnn_optimized_belief_reaches_enumerated_posterior():
    posterior = bnn_hand_posterior()
    objective = from_preset(preset("bnn-toy"))
    trace = minimize(objective, max_iters=5000, grad_tol=1e-10)
    assert trace.converged and len(trace.records) <= 5000
    belief = softmax(trace.phi)
    div = float(np.sum(belief * np.log(belief / posterior)))
    assert div < 1e-6
    assert abs(objective.report(trace.phi).extras["posterior_kl"]) < 1e-6


# ---------------------------------------------------------------------------
# point-mass beliefs: raw-weight maximization over full enumeration


def test_map_scan_equals_raw_weight_maximization():
    pre = preset("bnn-toy")
    objective = make_objective("map_point_mass", pre.system, pre.target)
    scan = map_scan(objective)
    assert scan.names == ("w",)

    match = np.asarray([[[0.8, 0.2], [0.3, 0.7]], [[0.2, 0.8], [0.7, 0.3]]])
    xs, ys = (0, 1, 0, 1), (0, 0, 0, 0)

    def raw_weight(w, data_x, data_y):
        return 0.5 * math.prod(match[x, w, y] for x, y in zip(data_x, data_y))

    mass = sum(
        raw_weight(w, dx, dy)
        for w in (0, 1)
        for dx in np.ndindex(2, 2, 2, 2)
        for dy in np.ndindex(2, 2, 2, 2)
    )
    for (w,), total in scan.totals:
        oracle = -math.log(raw_weight(w, xs, ys)) + math.log(mass)
        assert abs(total - oracle) < 1e-12
    # Weight 1 explains the half-agreeing data better (0.3 * 0.7 > 0.8 * 0.2).
    assert dict(scan.best) == {"w": 1}


# ---------------------------------------------------------------------------
# autoencoding: sweep of all deterministic encodings


def test_vae_best_deterministic_encoding_reaches_full_information():
    """The flat optimum contains the balanced groupings at full code MI.

    With the matched decoder the objective collapses to the divergence
    between the code marginal and the uniform prior, so the sweep over
    the 16 deterministic encoders is fully closed-form.
    """
    best_total = math.inf
    best_mi = None
    for bits in np.ndindex(2, 2, 2, 2):
        share = sum(bits) / 4.0
        marginal = np.asarray([1.0 - share, share])
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(marginal > 0.0, np.log(np.maximum(marginal, 1e-300) / 0.5), 0.0)
        total = float(np.sum(marginal * logs))
        info = float(entropy_of(marginal))
        if total < best_total - 1e-15:
            best_total = total
            best_mi = info
    assert abs(best_total) < 1e-12
    assert best_mi >= LN2 - 0.02

    objective = from_preset(preset("vae-toy"))
    trace = minimize(objective, max_iters=5000, grad_tol=1e-8)
    assert trace.converged
    assert trace.total <= best_total + 1e-9


def entropy_of(probs):
    probs = np.asarray(probs, dtype=np.float64)
    mask = probs > 0.0
    return -float(np.sum(probs[mask] * np.log(probs[mask])))


# ---------------------------------------------------------------------------
# channel capacity: closed-form optima of the two bundled channels


def test_identity_channel_reaches_capacity():
    objective = from_preset(preset("identity-channel"))
    trace = minimize(objective, max_iters=600, grad_tol=1e-9)
    assert abs(-trace.total - LN2) < 1e-3


def test_dead_action_suppresses_the_uninformative_action():
    objective = from_preset(preset("dead-action"))
    trace = minimize(objective, max_iters=1500, grad_tol=1e-9)
    system = optimized_system(objective, trace)
    policy = system.factor_conditional("a")
    assert policy[2] < policy[0]
    assert policy[2] < policy[1]

    # Hand mutual information of the channel at the optimized source: the
    # writing actions emit their bit, the dead action emits a fair coin.
    effect_dist = np.asarray(
        [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
    )
    out = policy @ effect_dist
    hand_mi = entropy_of(out) - float(policy @ [entropy_of(row) for row in effect_dist])
    report = objective.report(trace.phi)
    assert abs(report.extras["exact_mi"] - hand_mi) < 1e-9
    assert -trace.total <= hand_mi + 1e-12
    assert trace.converged
    assert abs(-trace.total - LN2) < 1e-6


# ---------------------------------------------------------------------------
# exploration: per-arm gains by posterior enumeration


def bandit_arm_gains(system):
    """Expected belief change per arm, by enumerating posteriors."""
    observe = system.factors["x2"].table
    prior = system.factors["w"].table
    gains = []
    for arm in range(2):
        gain = 0.0
        for outcome in range(2):
            mass = float(prior @ observe[arm, :, outcome])
            if mass <= 0.0:
                continue
            post = prior * observe[arm, :, outcome] / mass
            kl_terms = np.where(post > 0.0, post * np.log(np.maximum(post, 1e-300) / prior), 0.0)
            gain += mass * float(kl_terms.sum())
        gains.append(gain)
    return gains


def test_bandit_per_arm_gains_by_posterior_enumeration():
    pre = preset("bandit-infogain")
    gains = bandit_arm_gains(pre.system)
    assert abs(gains[0] - LN2) < 1e-9
    assert abs(gains[1]) < 1e-9

    # At any policy the exact gain is the policy mixture of per-arm gains,
    # because the arm choice itself carries no information about the coin.
    objective = from_preset(pre)
    for seed in range(5):
        phi = rng_for(seed, 3).normal(size=objective.parameters().shape)
        system, _ = objective.engine.space.set(phi)
        arm_probs = system.factor_conditional("x1")
        mixture = float(arm_probs @ gains)
        report = objective.report(phi)
        assert abs(report.extras["exact_info_gain"] - mixture) < 1e-9


def test_bandit_optimized_policy_commits_to_the_informative_arm():
    objective = from_preset(preset("bandit-infogain"))
    trace = minimize(objective, max_iters=5000, grad_tol=1e-8)
    system = optimized_system(objective, trace)
    arm_probs = system.factor_conditional("x1")
    assert arm_probs[0] >= 0.9


# ---------------------------------------------------------------------------
# per-step belief updates: telescoping against the one-shot bound


def test_intrinsic_sum_never_exceeds_the_one_shot_term():
    objective = from_preset(preset("bandit-infogain"))
    for seed in range(10):
        phi = rng_for(seed, 7).normal(size=objective.parameters().shape)
        report = objective.report(phi)
        assert report.extras["intrinsic_gap"] >= -1e-12
        assert (
            abs(report.terms["info_gain"]
                - report.extras["intrinsic_sum"]
                - report.extras["intrinsic_gap"])
            < 1e-12
        )


def test_intrinsic_sum_matches_one_shot_term_under_mirrored_target():
    pre = preset("bandit-infogain")
    mirrored = TargetSpec(
        tuple(pre.system.names), [FactorMirror(v) for v in pre.system.names]
    )
    objective = make_objective(
        "info_gain", pre.system, target=mirrored,
        options={"optimize": "intrinsic"},
    )
    for seed in range(5):
        phi = rng_for(seed, 78).normal(size=objective.parameters().shape)
        report = objective.report(phi)
        assert abs(report.extras["intrinsic_gap"]) < 1e-9
        assert abs(report.extras["info_gain_gap"]) < 1e-9


# ---------------------------------------------------------------------------
# skills: separation of the terminal input across skills


def test_skill_optimum_separates_terminal_inputs():
    objective = from_preset(preset("two-room-skills"))
    trace = minimize(objective, max_iters=600, grad_tol=1e-8)
    assert -trace.total >= LN2 - 1e-6
    system = optimized_system(objective, trace)
    joint = build_joint(system)
    terminal = [
        marginalize(condition(joint, {"z": skill}), ("x3",)).probs for skill in (0, 1)
    ]
    distance = 0.5 * float(np.abs(terminal[0] - terminal[1]).sum())
    assert distance >= 0.9


# ---------------------------------------------------------------------------
# filtering: the uncontrolled-future reading


def test_uncontrolled_future_vanishes_for_a_constructed_filter():
    rng = rng_for(0, 55)
    push = rng.random((2, 3)) + 0.1
    push /= push.sum(axis=1, keepdims=True)
    system = ActualSystem(
        [
            Variable("x1", 2, Role.PAST_INPUT),
            Variable("z", 2, Role.LATENT_STATE),
            Variable("x2", 3, Role.FUTURE_INPUT),
        ],
        [
            FactorSpec.fixed("x1", (), np.asarray([0.4, 0.6])),
            FactorSpec.point_mass("z", ("x1",), np.asarray([0, 1])),
            FactorSpec.fixed("x2", ("x1",), push),
        ],
    )
    target = TargetSpec(
        ("x1", "z", "x2"),
        [TableFactor(("z",), rng.random(2) + 0.1), ConditionalFactor("x2", ("z",), push)],
    )
    report = bayesian_future_check(system, target)
    assert abs(report.terms["uncontrolled_future"]) < 1e-9
    assert report.terms["past_vi"] > 0.0


def test_uncontrolled_future_stays_positive_for_the_mismatched_filter():
    pre = preset("hmm-filter")
    objective = from_preset(pre)
    for seed in range(3):
        phi = rng_for(seed, 77).normal(size=objective.parameters().shape)
        system, _ = objective.engine.space.set(phi)
        report = bayesian_future_check(system, pre.target, realized=pre.options["realized"])
        assert report.terms["uncontrolled_future"] > 1e-3
