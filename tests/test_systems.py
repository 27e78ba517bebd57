"""System assembly, materialization, interventions, and parameter plumbing."""

import math

import numpy as np
import pytest

from divmin.decomp import realize
from divmin.errors import CapacityError, ValidationError
from divmin.objectives import from_preset
from divmin.presets import names as preset_names
from divmin.presets import preset
from divmin.systems import (
    ActualSystem,
    ConditionalFactor,
    FactorMirror,
    FactorSpec,
    MarginalMirror,
    ParamFactor,
    ParameterSpace,
    RewardFactor,
    TableFactor,
    TargetSpec,
    _grow,
    build_joint,
    build_target,
    softmax,
)
from divmin.tables import Role, Variable, condition, marginalize


def two_var_system(logits=(0.0, 0.0)):
    variables = [
        Variable("x", 2, Role.PAST_INPUT),
        Variable("z", 2, Role.LATENT_STATE),
    ]
    factors = [
        FactorSpec.fixed("x", (), [0.25, 0.75]),
        FactorSpec.parameterized("z", ("x",), [[logits[0], logits[1]], [0.5, -0.5]]),
    ]
    return ActualSystem(variables, factors)


def chain_system():
    variables = [
        Variable("x1", 2, Role.PAST_INPUT),
        Variable("a", 2, Role.ACTION),
        Variable("x2", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.fixed("x1", (), [0.5, 0.5]),
        FactorSpec.parameterized("a", ("x1",), np.zeros((2, 2))),
        FactorSpec.fixed(
            "x2", ("x1", "a"), [[[0.9, 0.1], [0.2, 0.8]], [[0.7, 0.3], [0.4, 0.6]]]
        ),
    ]
    return ActualSystem(variables, factors)


# --- validation ---------------------------------------------------------------


def test_factor_requires_exactly_one_payload():
    with pytest.raises(ValidationError):
        FactorSpec(child="x", parents=(), table=np.array([1.0]), logits=np.array([0.0]))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FactorSpec.fixed("x", (), [[0.5, 0.5], [1.0]]),
         "factor 'x': table must be a rectangular array of numbers"),
        (lambda: FactorSpec.parameterized("x", (), ["a", "b"]),
         "factor 'x': logits must be a rectangular array of numbers"),
        (lambda: FactorSpec.point_mass("x", (), [[0], [1, 0]]),
         "factor 'x': selector must be a rectangular array of numbers"),
        (lambda: FactorSpec.point_mass("x", ("a",), [0.5, 1.7]),
         "factor 'x': selector entries must be integers"),
        (lambda: FactorSpec.point_mass("x", ("a",), [0.0, np.nan]),
         "factor 'x': selector entries must be integers"),
        (lambda: RewardFactor(("x",), [[0.0], [1.0, 2.0]]),
         "reward values must be a rectangular array of numbers"),
        (lambda: ParamFactor("x", (), {"a": 1}),
         "target logits must be a rectangular array of numbers"),
    ],
    ids=["ragged table", "text logits", "ragged selector", "fractional selector",
         "nan selector", "ragged reward", "mapping logits"],
)
def test_a_malformed_factor_array_is_a_validation_error(make, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        make()


def test_a_selector_of_integral_floats_is_taken_as_integers():
    factor = FactorSpec.point_mass("x", ("a",), np.array([1.0, 0.0]))
    assert factor.selector.dtype == np.int64 and factor.selector.tolist() == [1, 0]
    assert not factor.selector.flags.writeable


def test_missing_factor_rejected():
    with pytest.raises(ValidationError):
        ActualSystem(
            [Variable("x", 2, Role.PAST_INPUT), Variable("y", 2, Role.ACTION)],
            [FactorSpec.fixed("x", (), [0.5, 0.5])],
        )


def test_cycle_rejected():
    variables = [Variable("a", 2, Role.ACTION), Variable("b", 2, Role.ACTION)]
    factors = [
        FactorSpec.parameterized("a", ("b",), np.zeros((2, 2))),
        FactorSpec.parameterized("b", ("a",), np.zeros((2, 2))),
    ]
    with pytest.raises(ValidationError):
        ActualSystem(variables, factors)


def test_unnormalized_fixed_factor_rejected():
    with pytest.raises(ValidationError):
        ActualSystem(
            [Variable("x", 2, Role.PAST_INPUT)],
            [FactorSpec.fixed("x", (), [0.5, 0.6])],
        )


def test_all_fixed_system_rejected():
    with pytest.raises(ValidationError):
        ActualSystem(
            [Variable("x", 2, Role.PAST_INPUT)],
            [FactorSpec.fixed("x", (), [0.5, 0.5])],
        )


def test_capacity_cap_on_joint():
    variables = [Variable(f"v{i}", 2, Role.LATENT_STATE) for i in range(23)]
    factors = [FactorSpec.parameterized("v0", (), np.zeros(2))] + [
        FactorSpec.fixed(f"v{i}", (), [0.5, 0.5]) for i in range(1, 23)
    ]
    with pytest.raises(CapacityError):
        ActualSystem(variables, factors)


# --- build_joint ----------------------------------------------------------------


def test_build_joint_matches_manual_product():
    sys_ = chain_system()
    joint = build_joint(sys_)
    probs = joint.probs
    # Oracle: explicit triple loop over the factorization.
    env = np.asarray([[[0.9, 0.1], [0.2, 0.8]], [[0.7, 0.3], [0.4, 0.6]]])
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert probs[i, j, k] == pytest.approx(0.5 * 0.5 * env[i, j, k], abs=1e-15)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("op, start", [(np.multiply, np.ones), (np.add, np.zeros)])
def test_each_growth_step_is_the_broadcast_op(op, start):
    # Every step is op(acc, term) to the bit, and a step that grows the
    # product writes into an array no factor owns.
    shape = (3, 1, 2, 4, 2)
    rng = np.random.default_rng(5)
    for _ in range(40):
        factors = []
        for _ in range(int(rng.integers(1, 5))):
            spans = rng.random(len(shape)) < 0.5
            term = rng.standard_normal([n if s else 1 for n, s in zip(shape, spans)])
            term[rng.random(term.shape) < 0.2] = rng.choice([0.0, -0.0, np.inf])
            factors.append(term)
        acc = start((1,) * len(shape))
        for term in factors:
            with np.errstate(invalid="ignore"):
                want = op(acc, term)
                grown = acc.shape != shape
                acc = _grow(acc, term, shape, op)
            assert acc.shape == want.shape
            assert acc.tobytes() == want.tobytes()
            if grown:
                assert not any(np.shares_memory(acc, f) for f in factors)


def test_build_joint_invariant_to_declaration_order():
    variables = [
        Variable("x", 2, Role.PAST_INPUT),
        Variable("z", 2, Role.LATENT_STATE),
    ]
    factors = [
        FactorSpec.fixed("x", (), [0.25, 0.75]),
        FactorSpec.parameterized("z", ("x",), [[0.3, -0.3], [0.5, -0.5]]),
    ]
    a = build_joint(ActualSystem(variables, factors))
    b = build_joint(ActualSystem(variables[::-1], factors))
    # Same distribution once axes are aligned.
    assert np.allclose(a.probs, np.transpose(b.probs, (1, 0)), atol=1e-12)


def test_build_joint_with_a_child_declared_before_its_parent():
    # z is declared first, so the product starts from z's factor, which
    # spans (z, x) before x's own factor is multiplied in.
    variables = [Variable("z", 3, Role.LATENT_STATE), Variable("x", 2, Role.PAST_INPUT)]
    px = [0.25, 0.75]
    factors = [
        FactorSpec.parameterized("z", ("x",), [[0.3, -0.3, 0.1], [0.5, -0.5, 0.2]]),
        FactorSpec.fixed("x", (), px),
    ]
    system = ActualSystem(variables, factors)
    joint = build_joint(system)
    pz = system.factor_conditional("z")  # indexed (x, z)
    want = np.empty((3, 2))
    for z in range(3):
        for x in range(2):
            want[z, x] = pz[x, z] * px[x]
    assert np.array_equal(joint.probs, want / want.sum())
    assert not joint.probs.flags.writeable
    with pytest.raises(ValueError):
        joint.probs[0, 0] = 0.0


def test_point_mass_factor_materializes_one_hot():
    variables = [Variable("x", 2, Role.PAST_INPUT), Variable("a", 3, Role.ACTION)]
    factors = [
        FactorSpec.fixed("x", (), [0.4, 0.6]),
        FactorSpec.point_mass("a", ("x",), [2, 0]),
    ]
    joint = build_joint(ActualSystem(variables, factors))
    assert joint.probs[0, 2] == pytest.approx(0.4)
    assert joint.probs[1, 0] == pytest.approx(0.6)
    assert joint.probs.sum() == pytest.approx(1.0)


def test_softmax_logit_example():
    probs = softmax(np.asarray([math.log(3.0), 0.0]))
    assert np.allclose(probs, [0.75, 0.25], atol=1e-12)


# --- realize: intervention ---------------------------------------------------------


def test_intervene_replaces_factor_with_point_mass():
    sys_ = chain_system()
    done, evidence = realize(sys_, {"a": 1})
    assert evidence == {}
    f = done.factors["a"]
    assert f.kind == "point-mass"
    assert f.parents == ()
    joint = build_joint(done)
    assert marginalize(joint, ["a"]).probs[1] == pytest.approx(1.0)


def test_intervene_preserves_ancestor_marginal_unlike_conditioning():
    # x1 -> a: conditioning on a shifts p(x1); do(a) must not.
    variables = [Variable("x1", 2, Role.PAST_INPUT), Variable("a", 2, Role.ACTION)]
    factors = [
        FactorSpec.fixed("x1", (), [0.3, 0.7]),
        FactorSpec.parameterized("a", ("x1",), [[2.0, 0.0], [0.0, 2.0]]),
    ]
    sys_ = ActualSystem(variables, factors)
    joint = build_joint(sys_)
    conditioned = condition(joint, {"a": 1})
    intervened = marginalize(build_joint(realize(sys_, {"a": 1})[0]), ["x1"])
    assert np.allclose(intervened.probs, [0.3, 0.7], atol=1e-12)
    assert not np.allclose(conditioned.probs, [0.3, 0.7], atol=1e-6)


def test_intervene_rejects_latent_roles():
    variables = [Variable("z", 2, Role.LATENT_STATE), Variable("a", 2, Role.ACTION)]
    factors = [
        FactorSpec.parameterized("z", (), np.zeros(2)),
        FactorSpec.fixed("a", ("z",), [[0.5, 0.5], [0.5, 0.5]]),
    ]
    sys_ = ActualSystem(variables, factors)
    with pytest.raises(ValidationError):
        realize(sys_, {"z": 0})


def test_intervene_matches_manual_substitution():
    sys_ = chain_system()
    manual = sys_.with_factor(FactorSpec.point_mass("a", (), np.asarray(0)))
    assert np.allclose(
        build_joint(realize(sys_, {"a": 0})[0]).probs, build_joint(manual).probs, atol=0
    )


# --- parameters ---------------------------------------------------------------------


def test_parameter_round_trip_is_bit_exact():
    sys_ = two_var_system()
    target = TargetSpec(sys_.names, [])
    phi = ParameterSpace(sys_, target).get()
    phi2 = phi + np.linspace(-1.0, 1.0, phi.size)
    sys2, _ = ParameterSpace(sys_, target).set(phi2)
    assert np.array_equal(ParameterSpace(sys2, target).get(), phi2)


def test_parameter_space_covers_target_side():
    sys_ = two_var_system()
    target = TargetSpec(
        ("x", "z"),
        [
            TableFactor(("z",), np.asarray([0.5, 0.5])),
            ParamFactor("x", ("z",), np.zeros((2, 2))),
        ],
    )
    space = ParameterSpace(sys_, target)
    assert space.size == 4 + 4  # system z|x block plus target x|z block
    sides = {b.side for b in space.blocks}
    assert sides == {"p", "q"}
    phi = space.get()
    phi[-1] = 3.5
    _, t2 = space.set(phi)
    assert t2.factors[1].logits[1, 1] == 3.5


def system_and_target():
    target = TargetSpec(
        ("x", "z"),
        [
            TableFactor(("z",), np.asarray([0.5, 0.5])),
            ParamFactor("x", ("z",), np.zeros((2, 2))),
        ],
    )
    return two_var_system(), target


@pytest.mark.parametrize("bad", ["shape", math.nan, math.inf, -math.inf])
def test_parameter_set_checks_every_vector(bad):
    space = ParameterSpace(*system_and_target())
    phi = space.get()
    if bad == "shape":
        phi = np.append(phi, 0.0)
    else:
        phi[-1] = bad
    with pytest.raises(ValidationError):
        space.set(phi)


@pytest.mark.parametrize("name", preset_names())
def test_parameter_set_reruns_no_structure_check(name, monkeypatch):
    # Logits change no variable, parent or factor kind, so set swaps them
    # into copies without running the constructors' checks again.
    space = from_preset(preset(name)).engine.space
    calls = []
    check_acyclic, check_shapes = ActualSystem._check_acyclic, ActualSystem._check_shapes
    monkeypatch.setattr(
        ActualSystem, "_check_acyclic", lambda self: calls.append(self) or check_acyclic(self)
    )
    monkeypatch.setattr(
        ActualSystem, "_check_shapes", lambda self: calls.append(self) or check_shapes(self)
    )
    rng = np.random.default_rng(7)
    for _ in range(3):
        system, target = space.set(rng.standard_normal(space.size))
    assert calls == []
    ActualSystem(system.variables, system.factors.values())
    assert len(calls) == 2  # the counters are live


def test_parameter_set_copies_into_read_only_logits():
    space = ParameterSpace(*system_and_target())
    phi = space.get() + np.linspace(-1.0, 1.0, space.size)
    expected = phi.copy()
    system, target = space.set(phi)
    phi[:] = 99.0
    assert np.array_equal(ParameterSpace(system, target).get(), expected)
    for logits in (system.factors["z"].logits, target.factors[1].logits):
        assert not logits.flags.writeable
        with pytest.raises(ValueError):
            logits[0, 0] = 1.0


def test_parameter_label_round_trip():
    space = ParameterSpace(*system_and_target())
    side, key, parent_slice, outcome = space.label(3)
    assert side == "p" and key == "z"
    assert parent_slice == (1,) and outcome == 1


# --- targets -------------------------------------------------------------------------


def test_reward_target_normalizes_to_softmax_of_r():
    sys_ = ActualSystem(
        [Variable("x", 2, Role.FUTURE_INPUT)],
        [FactorSpec.parameterized("x", (), np.zeros(2))],
    )
    target = TargetSpec(("x",), [RewardFactor(("x",), np.asarray([0.0, math.log(3.0)]))])
    t = build_target(target, sys_)
    assert np.allclose(t.weights / t.weights.sum(), [0.25, 0.75], atol=1e-12)
    assert t.log_partition == pytest.approx(math.log(4.0), abs=1e-12)


def test_target_scope_without_factors_is_uniform_weight():
    sys_ = two_var_system()
    target = TargetSpec(("x", "z"), [TableFactor(("z",), np.asarray([0.2, 0.8]))])
    t = build_target(target, sys_)
    # x has no factor: weight 1 for both x outcomes.
    assert np.allclose(t.weights, np.tile([0.2, 0.8], (2, 1)), atol=1e-15)


def test_target_weighs_a_scope_variable_no_factor_touches_exactly_one():
    sys_ = chain_system()
    table = np.asarray([[0.0, 0.3], [0.6, 0.1]])  # over (x2, x1)
    target = TargetSpec(
        ("x1", "a", "x2"),
        [TableFactor(("x2", "x1"), table), RewardFactor(("x1",), np.asarray([0.2, -0.4]))],
    )
    t = build_target(target, sys_)
    # On the full (x1, a, x2) grid: 0 + ln table + reward, with a repeated.
    with np.errstate(divide="ignore"):
        log_table = np.log(table).T[:, None, :]
    reward = np.asarray([0.2, -0.4])[:, None, None]
    log_w = np.zeros((2, 2, 2)) + log_table + reward
    want = np.where(np.isfinite(log_w), np.exp(log_w), 0.0)
    assert np.array_equal(t.weights, want)
    assert np.all(t.weights[0, :, 0] == 0.0)
    assert not t.weights.flags.writeable


def test_target_with_a_single_factor():
    sys_ = chain_system()
    rewards = np.asarray([[0.5, -1.0], [0.25, 2.0]])  # over (x2, a)
    target = TargetSpec(("a", "x2"), [RewardFactor(("x2", "a"), rewards)])
    t = build_target(target, sys_)
    want = np.exp(np.zeros((2, 2)) + rewards.T)
    assert np.array_equal(t.weights, want)
    assert t.log_partition == math.log(want.sum())
    assert not t.weights.flags.writeable


def test_factor_mirror_copies_current_system_factor():
    sys_ = two_var_system(logits=(1.0, -1.0))
    target = TargetSpec(("x", "z"), [FactorMirror("z")])
    t = build_target(target, sys_)
    assert np.allclose(t.weights, softmax(sys_.factors["z"].logits), atol=1e-15)


def test_marginal_mirror_uses_joint_conditional():
    sys_ = chain_system()
    joint = build_joint(sys_)
    target = TargetSpec(("x1", "x2"), [MarginalMirror(("x2",), ("x1",))])
    t = build_target(target, sys_)
    for i in range(2):
        cond = condition(marginalize(joint, ["x1", "x2"]), {"x1": i})
        assert np.allclose(t.weights[i], cond.probs, atol=1e-12)


def test_marginal_mirror_of_no_variables_weighs_one_everywhere():
    # p(() | x) is ln 1 even on an x the system never takes.
    sys_ = ActualSystem(
        [Variable("x", 2, Role.PAST_INPUT), Variable("z", 2, Role.LATENT_STATE)],
        [FactorSpec.fixed("x", (), np.asarray([1.0, 0.0])),
         FactorSpec.parameterized("z", ("x",), np.zeros((2, 2)))],
    )
    target = TargetSpec(("x", "z"), [MarginalMirror((), ("x",))])
    assert np.array_equal(build_target(target, sys_).weights, np.ones((2, 2)))


def test_conditional_target_factor_validates_slices():
    with pytest.raises(ValidationError):
        ConditionalFactor("y", ("x",), np.asarray([[0.9, 0.2], [0.5, 0.5]]))


def test_target_rejects_out_of_scope_factor():
    with pytest.raises(ValidationError):
        TargetSpec(("x",), [TableFactor(("z",), np.asarray([1.0, 1.0]))])
