"""Bundled presets: shapes, hand-checked tables, and exact small quantities."""

import math

import numpy as np
import pytest

from divmin.errors import ConfigError, ValidationError
from divmin.objectives import from_preset
from divmin.presets import PRESETS, names, preset
from divmin.systems import build_joint, build_target
from divmin.tables import condition, marginalize, mutual_information


def test_every_preset_builds_and_normalizes():
    for name in names():
        p = preset(name)
        assert p.name == name
        joint = build_joint(p.system)
        assert joint.probs.sum() == pytest.approx(1.0, abs=1e-10)
        if p.target is not None:
            t = build_target(p.target, p.system)
            assert np.isfinite(t.log_partition)


def test_unknown_preset_name():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("no-such-system")


def test_registry_and_names_agree():
    assert set(names()) == set(PRESETS)


# --- bnn-toy -----------------------------------------------------------------


def clamped_data(p):
    """The clamped data point: every point-mass factor's selected outcome."""
    return {
        name: int(f.selector)
        for name, f in p.system.factors.items()
        if f.kind == "point-mass"
    }


def test_bnn_toy_outcome_count_and_clamping():
    p = preset("bnn-toy")
    joint = build_joint(p.system)
    assert joint.probs.size == 512  # one belief bit times eight clamped bits
    # All mass sits on the clamped data row, split across the two weights.
    data = clamped_data(p)
    sub = condition(joint, data)
    assert sub.probs.sum() == pytest.approx(1.0)
    assert np.allclose(sub.probs, [0.5, 0.5])


def test_bnn_toy_target_weights_at_data():
    p = preset("bnn-toy")
    t = build_target(p.target, p.system)
    data = clamped_data(p)
    idx_w0 = tuple([0] + [data[n] for n in t.names[1:]])
    idx_w1 = tuple([1] + [data[n] for n in t.names[1:]])
    # Two agreeing and two disagreeing pairs under each weight's match rate.
    assert t.weights[idx_w0] == pytest.approx(0.5 * 0.8**2 * 0.2**2, abs=1e-15)
    assert t.weights[idx_w1] == pytest.approx(0.5 * 0.3**2 * 0.7**2, abs=1e-15)
    # Summing likelihoods over free (x, y) pairs gives 1 per x outcome.
    assert t.log_partition == pytest.approx(math.log(16.0), abs=1e-12)


def test_bnn_toy_sizing():
    p = preset("bnn-toy", n_pairs=2)
    assert build_joint(p.system).probs.size == 32
    with pytest.raises(ValidationError):
        preset("bnn-toy", n_pairs=0)


# --- vae-toy -----------------------------------------------------------------


def test_vae_toy_decoder_groups_observations():
    p = preset("vae-toy")
    decoder = p.target.factors[1]
    rows = np.exp(decoder.logits)
    rows = rows / rows.sum(axis=-1, keepdims=True)
    assert rows.shape == (2, 4)
    # Code 0 favors observations {0, 1}, code 1 favors {2, 3}.
    assert set(np.argmax(rows, axis=-1)) <= {0, 2}
    assert rows[0, :2].sum() > 0.9
    assert rows[1, 2:].sum() > 0.9


def test_vae_toy_initial_joint_is_uniform():
    p = preset("vae-toy")
    joint = build_joint(p.system)
    assert np.allclose(joint.probs, 0.125)
    with pytest.raises(ValidationError):
        preset("vae-toy", x_card=3, z_card=2)


# --- hmm-filter --------------------------------------------------------------


def test_hmm_filter_target_product_by_hand():
    p = preset("hmm-filter")
    t = build_target(p.target, p.system)
    at = {n: i for n, i in zip(t.names, [0, 1, 0, 0, 1, 0])}
    # prior(z1=0) * A[0,1] * A[1,0] * B[z1=0,x1=0] * B[z2=1,x2=1] * B[z3=0,x3=0]
    expected = 0.5 * 0.2 * 0.2 * 0.9 * 0.9 * 0.9
    idx = tuple(at[n] for n in t.names)
    assert t.weights[idx] == pytest.approx(expected, abs=1e-15)


def test_hmm_filter_beliefs_condition_on_inputs_only():
    p = preset("hmm-filter")
    for z in ("z1", "z2", "z3"):
        parents = p.system.factors[z].parents
        assert all(name.startswith("x") for name in parents)


# --- chain-mdp ---------------------------------------------------------------


def test_chain_mdp_outcome_count():
    p = preset("chain-mdp")
    assert build_joint(p.system).probs.size == 1000


def test_chain_mdp_transition_slip_and_clamping():
    p = preset("chain-mdp")
    env = p.system.factors["x2"].table
    assert env.shape == (5, 2, 5)
    assert np.allclose(env.sum(axis=-1), 1.0, atol=1e-12)
    # Interior state 2: left goes to 1 with 0.9, slips to 3 with 0.1.
    assert env[2, 0, 1] == pytest.approx(0.9)
    assert env[2, 0, 3] == pytest.approx(0.1)
    # Boundary state 0 under left: hug the wall with 0.9, slip right 0.1.
    assert env[0, 0, 0] == pytest.approx(0.9)
    assert env[0, 0, 1] == pytest.approx(0.1)
    # Boundary state 4 under right stays with 0.9.
    assert env[4, 1, 4] == pytest.approx(0.9)


def test_chain_mdp_reward_and_start():
    p = preset("chain-mdp")
    assert dict(p.options["rewards"]) == {
        "x2": (0.0, 0.0, 0.0, 0.0, 2.0),
        "x3": (0.0, 0.0, 0.0, 0.0, 2.0),
    }
    joint = build_joint(p.system)
    assert marginalize(joint, ["x1"]).probs[2] == pytest.approx(1.0)


def test_chain_mdp_sizing():
    p = preset("chain-mdp", n_states=3, steps=2)
    assert build_joint(p.system).probs.size == 3 * 2 * 3 * 2
    for bad in ({"n_states": 1}, {"steps": 0}):
        with pytest.raises(ValidationError):
            preset("chain-mdp", **bad)
    with pytest.raises(TypeError):
        preset("chain-mdp", slip=0.1)  # the slip is fixed at 0.1


# --- free-choice ---------------------------------------------------------------


def test_free_choice_target_is_quarter_three_quarters():
    p = preset("free-choice")
    t = build_target(from_preset(p).target, p.system)
    assert np.allclose(t.weights / t.weights.sum(), [0.25, 0.75], atol=1e-12)


# --- bandit-infogain -----------------------------------------------------------


def test_bandit_arm_information_by_enumeration():
    p = preset("bandit-infogain")
    joint = build_joint(p.system)
    revealing = condition(joint, {"x1": 0})
    noisy = condition(joint, {"x1": 1})
    assert mutual_information(revealing, ["w"], ["x2"]) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    assert mutual_information(noisy, ["w"], ["x2"]) == pytest.approx(0.0, abs=1e-12)


# --- two-room-skills ------------------------------------------------------------


def test_two_room_skills_rooms_absorb():
    p = preset("two-room-skills")
    assert np.array_equal(p.system.factors["x2"].selector, [0, 1])
    assert np.array_equal(p.system.factors["x3"].selector, [0, 1])
    joint = build_joint(p.system)
    # The final room always equals the first room.
    pair = marginalize(joint, ["x2", "x3"])
    assert pair.probs[0, 1] == pytest.approx(0.0)
    assert pair.probs[1, 0] == pytest.approx(0.0)


def test_two_room_skills_predictor_breaks_symmetry():
    init = np.asarray(preset("two-room-skills").options["predictor"]["init"])
    assert init[0, 0] > init[0, 1]
    assert init[1, 1] > init[1, 0]


# --- dead-action and identity-channel ----------------------------------------------


def test_dead_action_copy_slice_is_identity():
    p = preset("dead-action")
    effect = p.system.factors["x1"].table
    # Slices are indexed (x0, a, x1); action 2 copies x0.
    assert np.allclose(effect[:, 2, :], np.eye(2))
    assert np.allclose(effect[:, 0, 0], 1.0)
    assert np.allclose(effect[:, 1, 1], 1.0)


def test_dead_action_uniform_policy_information():
    p = preset("dead-action")
    joint = build_joint(p.system)
    # At the uniform source the channel output mixes the copy branch in:
    # I(a; x1) there is strictly below the ln 2 capacity.
    info = mutual_information(joint, ["a"], ["x1"])
    assert 0.0 < info < math.log(2.0)


def test_identity_channel_information_is_ln_card():
    p = preset("identity-channel")
    joint = build_joint(p.system)
    assert mutual_information(joint, ["a"], ["x1"]) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    p3 = preset("identity-channel", card=3)
    joint3 = build_joint(p3.system)
    assert mutual_information(joint3, ["a"], ["x1"]) == pytest.approx(
        math.log(3.0), abs=1e-12
    )
