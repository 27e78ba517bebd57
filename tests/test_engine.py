"""Gradient engine against finite differences and closed forms.

Central finite differences of the engine's own value function act as the
independent oracle for every gradient; small systems additionally get fully
hand-derived gradients.
"""

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divmin.decomp import joint_kl, past_future_split, realize
from divmin.engine import (
    ActualLog,
    Engine,
    Payoff,
    TargetFactorLog,
    TargetLog,
    Term,
    _MERGE_SPACE,
    _Network,
    _Program,
    _State,
)
from divmin.errors import NullEvidenceError, ValidationError
from divmin.objectives import from_preset, make_objective
from divmin.optim import check_gradient
from divmin.presets import names as preset_names
from divmin.presets import preset
from divmin.randsys import generic_pair
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
)
from divmin.tables import Role, Variable


def fd_grad(engine, phi, h=1e-5):
    g = np.zeros_like(phi)
    for i in range(phi.size):
        up = phi.copy()
        dn = phi.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (engine.value(up).total - engine.value(dn).total) / (2.0 * h)
    return g


def kl_terms(target):
    """The joint divergence as a functional: E[ln p - ln q~] plus ln Z, with
    ln q~ read as the sum of the target's factor logs."""
    minus_raw = tuple((-1.0, TargetFactorLog(i)) for i in range(len(target.factors)))
    return [Term("cross", 1.0, ((1.0, ActualLog(tuple(target.scope))), *minus_raw))]


def softmax(v):
    e = [math.exp(x - max(v)) for x in v]
    return [x / math.fsum(e) for x in e]


def make_xyz():
    variables = [
        Variable("x", 2, Role.PAST_INPUT),
        Variable("z", 2, Role.LATENT_STATE),
        Variable("y", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.fixed("x", (), [0.3, 0.7]),
        FactorSpec.parameterized("z", ("x",), [[0.4, -0.2], [0.1, 0.9]]),
        FactorSpec.fixed(
            "y", ("x", "z"), [[[0.6, 0.4], [0.2, 0.8]], [[0.5, 0.5], [0.9, 0.1]]]
        ),
    ]
    system = ActualSystem(variables, factors)
    target = TargetSpec(
        ("x", "z", "y"),
        [
            TableFactor(("z",), np.asarray([0.6, 0.4])),
            ConditionalFactor("y", ("z",), np.asarray([[0.7, 0.3], [0.25, 0.75]])),
            RewardFactor(("x",), np.asarray([0.2, -0.1])),
        ],
    )
    return system, target


def test_single_softmax_kl_closed_form():
    logits = [0.2, -0.1, 0.4]
    ref = [0.5, 0.2, 0.3]
    system = ActualSystem(
        [Variable("z", 3, Role.LATENT_STATE)],
        [FactorSpec.parameterized("z", (), logits)],
    )
    target = TargetSpec(("z",), [TableFactor(("z",), np.asarray(ref))])
    eng = Engine(system, target, kl_terms(target), lnz_coeff=1.0)
    phi = eng.parameters()
    res = eng.value_and_gradient(phi)
    sig = softmax(logits)
    want_kl = math.fsum(s * math.log(s / r) for s, r in zip(sig, ref))
    assert res.evaluation.total == pytest.approx(want_kl, abs=1e-12)
    want = [s * (math.log(s / r) - want_kl) for s, r in zip(sig, ref)]
    np.testing.assert_allclose(res.grad, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.grad, fd_grad(eng, phi), rtol=1e-6, atol=1e-8)
    assert res.score_residual < 1e-12


def test_joint_kl_value_matches_report_path():
    system, target = make_xyz()
    eng = Engine(system, target, kl_terms(target), lnz_coeff=1.0)
    ref = joint_kl(system, target)
    got = eng.value(eng.parameters())
    assert got.total == pytest.approx(ref.kl_nats, abs=1e-12)
    assert got.log_partition == pytest.approx(ref.log_partition, abs=1e-12)


def test_two_sided_decomposition_terms_and_gradient():
    system, target = make_xyz()
    terms = [
        Term(
            "latent_pref_kl",
            1.0,
            ((1.0, ActualLog(("z",), ("x", "y"))), (-1.0, TargetLog(("z",)))),
        ),
        Term(
            "info_bound",
            -1.0,
            ((1.0, TargetLog(("x", "y"), ("z",))), (-1.0, ActualLog(("x", "y")))),
        ),
    ]
    eng = Engine(system, target, terms)
    from divmin.decomp import decompose_latent_side

    rep = decompose_latent_side(system, target)
    res = eng.value_and_gradient(eng.parameters())
    assert res.evaluation.terms["latent_pref_kl"] == pytest.approx(
        rep.terms["latent_pref_kl"], abs=1e-12
    )
    assert res.evaluation.terms["info_bound"] == pytest.approx(
        rep.terms["info_bound"], abs=1e-12
    )
    assert res.evaluation.total == pytest.approx(rep.total, abs=1e-12)
    np.testing.assert_allclose(
        res.grad, fd_grad(eng, eng.parameters()), rtol=1e-5, atol=1e-8
    )


def test_target_parameter_gradient():
    variables = [
        Variable("x", 4, Role.PAST_INPUT),
        Variable("z", 2, Role.LATENT_STATE),
    ]
    factors = [
        FactorSpec.fixed("x", (), [0.25] * 4),
        FactorSpec.parameterized("z", ("x",), np.linspace(-0.5, 0.5, 8).reshape(4, 2)),
    ]
    system = ActualSystem(variables, factors)
    target = TargetSpec(
        ("x", "z"),
        [
            TableFactor(("z",), np.asarray([0.5, 0.5])),
            ParamFactor("x", ("z",), np.linspace(0.3, -0.4, 8).reshape(2, 4)),
        ],
    )
    eng = Engine(system, target, kl_terms(target), lnz_coeff=1.0)
    phi = eng.parameters()
    assert phi.size == 16
    res = eng.value_and_gradient(phi)
    assert res.evaluation.total == pytest.approx(
        joint_kl(system, target).kl_nats, abs=1e-12
    )
    np.testing.assert_allclose(res.grad, fd_grad(eng, phi), rtol=1e-5, atol=1e-8)


def test_marginal_mirror_reward_closed_form():
    r = [0.3, -0.2, 0.1]
    logits = [0.1, 0.5, -0.3]
    system = ActualSystem(
        [Variable("x", 3, Role.FUTURE_INPUT)],
        [FactorSpec.parameterized("x", (), logits)],
    )
    target = TargetSpec(
        ("x",),
        [MarginalMirror(("x",), ()), RewardFactor(("x",), np.asarray(r))],
    )
    eng = Engine(system, target, kl_terms(target))
    phi = eng.parameters()
    res = eng.value_and_gradient(phi)
    sig = softmax(logits)
    want_val = -math.fsum(s * v for s, v in zip(sig, r))
    assert res.evaluation.total == pytest.approx(want_val, abs=1e-12)
    want_grad = [-s * (v + want_val) for s, v in zip(sig, r)]
    np.testing.assert_allclose(res.grad, want_grad, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.grad, fd_grad(eng, phi), rtol=1e-6, atol=1e-8)


def test_factor_mirror_gradient():
    variables = [
        Variable("z", 2, Role.SKILL),
        Variable("a", 2, Role.ACTION),
        Variable("x", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.parameterized("z", (), [0.0, 0.3]),
        FactorSpec.parameterized("a", ("z",), [[0.6, -0.6], [-0.2, 0.2]]),
        FactorSpec.point_mass("x", ("a",), np.asarray([0, 1])),
    ]
    system = ActualSystem(variables, factors)
    target = TargetSpec(
        ("z", "a", "x"),
        [
            FactorMirror("a"),
            TableFactor(("z",), np.asarray([0.5, 0.5])),
            ParamFactor("z", ("x",), np.asarray([[0.5, -0.5], [-0.5, 0.5]])),
        ],
    )
    eng = Engine(system, target, kl_terms(target), lnz_coeff=1.0)
    phi = eng.parameters()
    res = eng.value_and_gradient(phi)
    np.testing.assert_allclose(res.grad, fd_grad(eng, phi), rtol=1e-5, atol=1e-8)
    assert res.evaluation.total == pytest.approx(
        joint_kl(system, target).kl_nats, abs=1e-12
    )


def test_gradient_under_evidence():
    system, target = make_xyz()
    terms = [
        Term(
            "latent_pref_kl",
            1.0,
            ((1.0, ActualLog(("z",), ("x", "y"))), (-1.0, TargetLog(("z",)))),
        ),
        Term(
            "info_bound",
            -1.0,
            ((1.0, TargetLog(("x", "y"), ("z",))), (-1.0, ActualLog(("x", "y")))),
        ),
    ]
    eng = Engine(system, target, terms, realized={"x": 1})
    phi = eng.parameters()
    res = eng.value_and_gradient(phi)
    np.testing.assert_allclose(res.grad, fd_grad(eng, phi), rtol=1e-5, atol=1e-8)
    assert res.score_residual < 1e-12


def mirror_under_evidence():
    # The field pieces of the "p" and the "joint" measures must be bundled
    # apart: a marginal mirror under evidence feeds the blocks from both.
    system = ActualSystem(
        [
            Variable("x", 2, Role.PAST_INPUT),
            Variable("z", 3, Role.LATENT_STATE),
            Variable("y", 2, Role.FUTURE_INPUT),
        ],
        [
            FactorSpec.parameterized("x", (), [0.2, -0.4]),
            FactorSpec.parameterized("z", ("x",), [[0.4, -0.2, 0.3], [0.1, 0.9, -0.5]]),
            FactorSpec.parameterized("y", ("z",), [[0.6, -0.1], [0.2, 0.8], [-0.3, 0.5]]),
        ],
    )
    target = TargetSpec(
        ("x", "z", "y"),
        [
            MarginalMirror(("z",), ("y",)),
            TableFactor(("y",), [0.3, 0.7]),
            ConditionalFactor("x", ("z",), [[0.7, 0.3], [0.4, 0.6], [0.5, 0.5]]),
        ],
    )
    return make_objective("joint_kl", system, target, realized={"x": 1}, realization="condition")


def two_factors_feed_one_block():
    # Both mirrors of x add a field to x's block, and the two must add up.
    system = ActualSystem(
        [Variable("z", 2, Role.LATENT_STATE), Variable("x", 3, Role.FUTURE_INPUT)],
        [
            FactorSpec.parameterized("z", (), [0.3, -0.2]),
            FactorSpec.parameterized("x", ("z",), [[0.5, -0.1, 0.2], [0.0, 0.7, -0.4]]),
        ],
    )
    target = TargetSpec(
        ("z", "x"), [FactorMirror("x"), FactorMirror("x"), TableFactor(("z",), [0.6, 0.4])]
    )
    return make_objective("joint_kl", system, target)


def collider_coparent_alone():
    # Observing the collider x couples a and b, so the one term on {b}
    # moves a's gradient although it reads no descendant of a. The term
    # stands alone, so no piece on {a} can make up for a field that
    # leaves it out.
    system = ActualSystem(
        [
            Variable("a", 2, Role.ACTION),
            Variable("b", 3, Role.LATENT_STATE),
            Variable("x", 2, Role.PAST_INPUT),
        ],
        [
            FactorSpec.parameterized("a", (), [0.4, -0.3]),
            FactorSpec.parameterized("b", (), [0.1, 0.5, -0.2]),
            FactorSpec.fixed(
                "x",
                ("a", "b"),
                [[[0.9, 0.1], [0.3, 0.7], [0.5, 0.5]], [[0.2, 0.8], [0.6, 0.4], [0.75, 0.25]]],
            ),
        ],
    )
    target = TargetSpec(("a", "b", "x"), [TableFactor(("b",), [0.2, 0.3, 0.5])])
    terms = [Term("b_only", 1.0, ((1.0, ActualLog(("b",))), (-1.0, TargetLog(("b",)))))]
    return Engine(system, target, terms, realized={"x": 1}, realization="condition")


@pytest.mark.parametrize(
    "build", [mirror_under_evidence, two_factors_feed_one_block, collider_coparent_alone]
)
def test_gradient_on_structures_the_presets_never_build(build):
    objective = build()
    draw = np.random.default_rng(3).normal(size=objective.parameters().shape)
    for phi in (None, draw):
        assert check_gradient(objective, phi).rel_err <= 1e-10


def test_intervened_action_block_is_inert():
    variables = [
        Variable("x", 2, Role.PAST_INPUT),
        Variable("a", 2, Role.ACTION),
        Variable("y", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.fixed("x", (), [0.3, 0.7]),
        FactorSpec.parameterized("a", ("x",), [[1.5, 0.0], [0.0, 1.5]]),
        FactorSpec.fixed("y", ("a",), [[0.9, 0.1], [0.2, 0.8]]),
    ]
    system = ActualSystem(variables, factors)
    target = TargetSpec(
        ("x", "a", "y"), [RewardFactor(("y",), np.asarray([0.0, 1.0]))]
    )
    sub = Engine(system, target, kl_terms(target), lnz_coeff=1.0, realized={"a": 1})
    phi = sub.parameters()
    res = sub.value_and_gradient(phi)
    np.testing.assert_allclose(res.grad, np.zeros_like(phi), atol=1e-12)
    np.testing.assert_allclose(res.grad, fd_grad(sub, phi), atol=1e-8)
    obs = Engine(
        system,
        target,
        kl_terms(target),
        lnz_coeff=1.0,
        realized={"a": 1},
        realization="condition",
    )
    res2 = obs.value_and_gradient(phi)
    assert float(np.max(np.abs(res2.grad))) > 1e-3
    np.testing.assert_allclose(res2.grad, fd_grad(obs, phi), rtol=1e-5, atol=1e-8)


def test_per_term_agreement_with_time_split():
    p = preset("hmm-filter")
    past, future = ("x1", "x2"), ("x3",)
    z = ("z1", "z2", "z3")
    allx = past + future
    terms = [
        Term(
            "past_latent_pref",
            1.0,
            ((1.0, ActualLog(z, past)), (-1.0, TargetLog(z))),
        ),
        Term(
            "repr_learning",
            -1.0,
            ((1.0, TargetLog(past, z)), (-1.0, ActualLog(past))),
        ),
        Term(
            "future_input_pref",
            1.0,
            ((1.0, ActualLog(future, past + z)), (-1.0, TargetLog(future, past))),
        ),
        Term(
            "exploration",
            -1.0,
            ((1.0, TargetLog(z, allx)), (-1.0, ActualLog(z, past))),
        ),
    ]
    eng = Engine(p.system, p.target, terms)
    rep = past_future_split(p.system, p.target)
    got = eng.value(eng.parameters())
    for name, want in rep.terms.items():
        assert got.terms[name] == pytest.approx(want, abs=1e-12), name
    assert got.total == pytest.approx(rep.total, abs=1e-12)
    res = eng.value_and_gradient(eng.parameters())
    np.testing.assert_allclose(
        res.grad, fd_grad(eng, eng.parameters()), rtol=1e-5, atol=1e-7
    )
    assert res.score_residual < 1e-12


def test_payoff_term_value_and_shape_check():
    system, target = make_xyz()
    pay = [[0.5, -1.0], [2.0, 0.25]]
    eng = Engine(
        system,
        target,
        [Term("payout", 1.0, ((1.0, Payoff(("x", "y"), np.asarray(pay))),))],
    )
    got = eng.value(eng.parameters())
    # Independent expectation over the (x, y) marginal.
    from divmin.systems import build_joint
    from divmin.tables import marginalize

    m = marginalize(build_joint(system), ("x", "y"))
    want = float(np.sum(m.probs * np.asarray(pay)))
    assert got.terms["payout"] == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValidationError):
        Engine(
            system,
            target,
            [Term("payout", 1.0, ((1.0, Payoff(("x",), np.zeros((3,))),),))],
        )


@pytest.mark.parametrize(
    "x_table, realized, error, match",
    [
        ([0.3, 0.8], None, ValidationError, "materialized joint sums to"),
        ([0.3, 0.8], {"y": 1}, ValidationError, "materialized joint sums to"),
        ([1.0, 0.0], {"y": 1}, NullEvidenceError, "zero mass"),
        pytest.param(None, None, ValidationError, "materialized joint sums to", id="bad-leaf"),
    ],
)
def test_every_evaluation_checks_the_joint_and_the_evidence(x_table, realized, error, match):
    # A factor swapped in after the system's own checks: the joint no
    # longer sums to one, or the evidence has no mass. A value call alone
    # must notice, with evidence or without, and also when the bad factor
    # is a leaf that no term and no target factor reads (x_table None),
    # which every program then leaves out as barren.
    system = ActualSystem(
        [Variable("x", 2, Role.LATENT_STATE), Variable("y", 2, Role.PAST_INPUT)],
        [FactorSpec.parameterized("x", (), [0.2, -0.1]),
         FactorSpec.fixed("y", ("x",), [[1.0, 0.0], [0.4, 0.6]])],
    )
    if x_table is None:
        system.factors["y"] = FactorSpec.fixed("y", ("x",), [[0.3, 0.8], [0.4, 0.6]])
        target = TargetSpec(("x",), [TableFactor(("x",), np.full(2, 0.5))])
    else:
        system.factors["x"] = FactorSpec.fixed("x", (), x_table)
        target = TargetSpec(("x", "y"), [TableFactor(("x", "y"), np.full((2, 2), 0.5))])
    eng = Engine(system, target, kl_terms(target), lnz_coeff=1.0, realized=realized)
    with pytest.raises(error, match=match):
        eng.value()


def test_term_validation():
    system, target = make_xyz()
    with pytest.raises(ValidationError, match="duplicate"):
        Engine(
            system,
            target,
            [
                Term("t", 1.0, ((1.0, ActualLog(("x",))),)),
                Term("t", 1.0, ((1.0, ActualLog(("z",))),)),
            ],
        )
    with pytest.raises(ValidationError, match="unknown variables"):
        Engine(system, target, [Term("t", 1.0, ((1.0, ActualLog(("w",))),))])
    ghost = TargetSpec(target.scope + ("w",), target.factors)
    with pytest.raises(ValidationError, match="unknown variable 'w'"):
        Engine(system, ghost, [Term("t", 1.0, ((1.0, ActualLog(("x",))),))]).value()


def test_target_factor_log_values_and_gradient():
    variables = [
        Variable("x", 2, Role.PAST_INPUT),
        Variable("z", 2, Role.LATENT_STATE),
    ]
    factors = [
        FactorSpec.fixed("x", (), [0.3, 0.7]),
        FactorSpec.parameterized("z", ("x",), [[0.4, -0.2], [0.1, 0.9]]),
    ]
    system = ActualSystem(variables, factors)
    like = np.asarray([[0.9, 0.1], [0.4, 0.6]])
    target = TargetSpec(
        ("x", "z"),
        [
            ConditionalFactor("x", ("z",), like),
            ParamFactor("z", ("x",), np.asarray([[0.2, -0.2], [-0.3, 0.3]])),
            MarginalMirror(("z",), ("x",)),
        ],
    )
    terms = [
        Term("fixed_part", 1.0, ((1.0, TargetFactorLog(0)),)),
        Term("param_part", 1.0, ((1.0, TargetFactorLog(1)),)),
        Term("mirror_part", -1.0, ((1.0, TargetFactorLog(2)),)),
    ]
    eng = Engine(system, target, terms)
    phi = eng.parameters()
    res = eng.value_and_gradient(phi)
    # Face values by direct enumeration over the joint.
    from divmin.systems import build_joint

    joint = build_joint(system)
    pij = joint.probs
    want_fixed = sum(
        pij[i, j] * math.log(like[j, i]) for i in range(2) for j in range(2)
    )
    assert res.evaluation.terms["fixed_part"] == pytest.approx(want_fixed, abs=1e-12)
    # The mirror reproduces the system conditional, so its term equals the
    # expected log of p(z|x).
    pz_given_x = pij / pij.sum(axis=1, keepdims=True)
    want_mirror = sum(
        pij[i, j] * math.log(pz_given_x[i, j]) for i in range(2) for j in range(2)
    )
    assert res.evaluation.terms["mirror_part"] == pytest.approx(want_mirror, abs=1e-12)
    np.testing.assert_allclose(res.grad, fd_grad(eng, phi), rtol=1e-5, atol=1e-8)
    with pytest.raises(ValidationError, match="target factor"):
        Engine(system, target, [Term("t", 1.0, ((1.0, TargetFactorLog(7)),))])


def test_gradient_with_weights_and_coefficients_other_than_one():
    # The presets weigh every part and term by +-1, where a weight that
    # divides a term's coefficient instead of multiplying it goes unseen.
    vae = preset("vae-toy")
    terms = [
        Term(
            "w",
            2.0,
            (
                (0.5, TargetFactorLog(1)),
                (-3.0, TargetLog(("z",))),
                (1.0, ActualLog(("z",), ("x",))),
            ),
        ),
        Term("v", -0.5, ((2.0, TargetLog(("x",), ("z",))),)),
    ]
    engine = Engine(vae.system, vae.target, terms)
    draw = np.random.default_rng(4).normal(size=engine.parameters().shape)
    for phi in (None, draw):
        assert check_gradient(engine, phi).rel_err <= 1e-8


def test_divergent_flag_from_zero_target():
    system, _ = make_xyz()
    target = TargetSpec(("x", "z", "y"), [TableFactor(("z",), np.asarray([1.0, 0.0]))])
    eng = Engine(system, target, kl_terms(target), lnz_coeff=1.0)
    got = eng.value(eng.parameters())
    assert got.divergent


def make_unreached_x(pref):
    """x never takes the value 2; z depends on x; y on (x, z). One term
    reads ln p(z | x) + ln pref(x), a strict sub-scope of (x, z, y)."""
    variables = [
        Variable("x", 3, Role.PAST_INPUT),
        Variable("z", 2, Role.LATENT_STATE),
        Variable("y", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.fixed("x", (), [0.4, 0.6, 0.0]),
        FactorSpec.parameterized("z", ("x",), [[0.4, -0.2], [0.1, 0.9], [0.3, 0.0]]),
        FactorSpec.fixed("y", ("x", "z"), np.full((3, 2, 2), 0.5)),
    ]
    system = ActualSystem(variables, factors)
    target = TargetSpec(("x", "z", "y"), [TableFactor(("x",), np.asarray(pref))])
    terms = [Term("t", 1.0, ((1.0, ActualLog(("z",), ("x",))), (1.0, TargetFactorLog(0))))]
    return system, Engine(system, target, terms)


def full_grid_sum(system, pref):
    """sum over outcomes with p > 0 and a finite integrand, and whether any
    such outcome has a non-finite one."""
    px = [0.4, 0.6, 0.0]
    pz = np.asarray([softmax(row) for row in system.factors["z"].logits])
    total, divergent = [], False
    for x in range(3):
        for z in range(2):
            for y in range(2):
                p = px[x] * pz[x, z] * 0.5
                if p == 0.0:
                    continue
                if pref[x] == 0.0:
                    divergent = True
                    continue
                total.append(p * (math.log(pz[x, z]) + math.log(pref[x])))
    return math.fsum(total), divergent


def test_sub_scope_term_ignores_infinities_p_never_reaches():
    pref = [0.7, 0.3, 0.0]  # ln pref = -inf only at x = 2, where p(x) = 0
    system, eng = make_unreached_x(pref)
    want, want_divergent = full_grid_sum(system, pref)
    assert not want_divergent
    for got in (eng.value(), eng.value_and_gradient().evaluation):
        assert not got.divergent
        assert got.terms["t"] == pytest.approx(want, abs=1e-14)
    phi = eng.parameters()
    np.testing.assert_allclose(eng.value_and_gradient(phi).grad, fd_grad(eng, phi), atol=1e-9)


def test_sub_scope_term_flags_infinities_p_reaches():
    pref = [0.7, 0.0, 0.3]  # ln pref = -inf at x = 1, where p(x) = 0.6
    system, eng = make_unreached_x(pref)
    want, want_divergent = full_grid_sum(system, pref)
    assert want_divergent
    for got in (eng.value(), eng.value_and_gradient().evaluation):
        assert got.divergent
        assert got.terms["t"] == pytest.approx(want, abs=1e-14)


def test_gradient_memory_is_linear_in_outcomes():
    objective = from_preset(preset("chain-mdp", n_states=8, steps=4))
    phi = objective.parameters()
    system = objective.system
    outcomes = math.prod(system.variable(n).cardinality for n in system.names)
    assert (outcomes, phi.size) == (65536, 64)
    tracemalloc.start()
    try:
        objective.value_and_gradient(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # No score tensor of |outcomes| x |parameters|: a bounded number of
    # outcome-sized float64 arrays suffices.
    assert peak <= 32 * outcomes * 8


def test_value_and_gradient_memory_stays_near_the_joint():
    # Terms are evaluated on their own scopes and only live blocks get a
    # field, so a gradient holds a few outcome-sized arrays beyond the joint.
    objective = from_preset(preset("chain-mdp", n_states=8, steps=4))
    phi = objective.parameters()
    outcomes = 65536
    objective.value_and_gradient(phi)
    tracemalloc.start()
    try:
        objective.value_and_gradient(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * outcomes * 8


@pytest.mark.parametrize("n_states, steps", [(8, 3), (8, 4), (6, 5)])
def test_engine_agrees_with_report_above_preset_sizes(n_states, steps):
    objective = from_preset(preset("chain-mdp", n_states=n_states, steps=steps))
    rng = np.random.default_rng(29)
    phi = objective.parameters() + rng.standard_normal(objective.parameters().size)
    res = objective.value_and_gradient(phi)
    report = objective.report(phi)
    assert set(res.evaluation.terms) <= set(report.terms)
    for name, value in res.evaluation.terms.items():
        assert abs(value - report.terms[name]) <= 1e-12, name
    h = 1e-5
    for _ in range(2):
        d = rng.standard_normal(phi.size)
        d /= np.linalg.norm(d)
        numeric = (objective.value(phi + h * d).total - objective.value(phi - h * d).total) / (
            2.0 * h
        )
        analytic = float(np.dot(res.grad, d))
        assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(analytic), abs(numeric))


def test_engine_takes_no_log_marginal_helper_from_decomp():
    # The certificate checks compare the engine against decomp's reports,
    # so the engine derives its conditional log-marginals itself.
    import divmin.decomp
    import divmin.engine
    import divmin.tables

    assert not hasattr(divmin.engine, "_log_given")
    helpers = {
        id(divmin.tables.log_conditional),
        id(divmin.tables.expected_log),
    }
    assert not [name for name, obj in vars(divmin.engine).items() if id(obj) in helpers]


@pytest.mark.parametrize("name", ["chain-mdp", "two-room-skills", "vae-toy", "realized vae-toy"])
def test_evaluations_revalidate_no_structure(name, monkeypatch):
    if name == "realized vae-toy":
        pre = preset("vae-toy")
        obj = make_objective(
            "amortized_vae", pre.system, pre.target,
            {"form": "reconstruction"}, {"x": 1}, "intervene",
        )
    else:
        obj = from_preset(preset(name))
    calls = []
    check_acyclic = ActualSystem._check_acyclic

    def counted(self):
        calls.append(self)
        return check_acyclic(self)

    monkeypatch.setattr(ActualSystem, "_check_acyclic", counted)
    phi = np.random.default_rng(5).standard_normal(obj.parameters().size)
    obj.value(phi)
    obj.value_and_gradient(phi)
    obj.value()
    assert calls == []
    ActualSystem(obj.system.variables, obj.system.factors.values())
    assert len(calls) == 1  # the counter is live


@pytest.mark.parametrize("name", preset_names())
def test_natural_direction_descends(name):
    obj = from_preset(preset(name))
    rng = np.random.default_rng(11)
    for _ in range(3):
        phi = obj.parameters() + rng.standard_normal(obj.parameters().size)
        res = obj.value_and_gradient(phi)
        assert float(np.dot(res.grad, res.direction)) > 0.0
        for b in obj.engine.space.blocks:
            block = res.direction[b.offset : b.offset + b.size].reshape(b.shape)
            slack = 1e-12 * (1.0 + float(np.max(np.abs(block))))
            np.testing.assert_allclose(block.sum(axis=-1), 0.0, rtol=0, atol=slack)


def test_natural_direction_skips_unreached_parent_slices():
    logits = [[0.2, -0.1, 0.4], [0.3, 0.0, -0.5]]
    ref = np.asarray([0.5, 0.2, 0.3])
    system = ActualSystem(
        [Variable("x", 2, Role.PAST_INPUT), Variable("z", 3, Role.LATENT_STATE)],
        [FactorSpec.fixed("x", (), [1.0, 0.0]), FactorSpec.parameterized("z", ("x",), logits)],
    )
    target = TargetSpec(
        ("x", "z"),
        [TableFactor(("x",), np.asarray([1.0, 0.0])), TableFactor(("z",), ref)],
    )
    eng = Engine(system, target, kl_terms(target), lnz_coeff=1.0)
    res = eng.value_and_gradient()
    d = res.direction.reshape(2, 3)
    # The reached slice gets the mirror step ln(sigma / ref), centred.
    want = np.log(np.asarray(softmax(logits[0])) / ref)
    np.testing.assert_allclose(d[0], want - want.mean(), rtol=0, atol=1e-12)
    assert np.all(d[1] == 0.0)
    assert float(np.dot(res.grad, res.direction)) > 0.0


def action_system():
    variables = [
        Variable("x", 2, Role.PAST_INPUT),
        Variable("a", 2, Role.ACTION),
        Variable("y", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.fixed("x", (), [0.3, 0.7]),
        FactorSpec.parameterized("a", ("x",), [[0.2, -0.4], [0.5, 0.1]]),
        FactorSpec.fixed("y", ("x", "a"), [[[0.6, 0.4], [0.2, 0.8]], [[0.5, 0.5], [0.9, 0.1]]]),
    ]
    return ActualSystem(variables, factors)


@pytest.mark.parametrize(
    "factor, realized, varies",
    [
        (FactorMirror("a"), None, True),  # mirrors a softmax factor
        (MarginalMirror(("y",), ("x",)), None, True),
        (ParamFactor("a", ("y",), np.zeros((2, 2))), None, True),
        (FactorMirror("y"), None, False),  # mirrors a fixed factor
        (FactorMirror("a"), {"a": 1}, False),  # the softmax is realized away
        (TableFactor(("a",), np.asarray([0.4, 0.6])), None, False),
    ],
)
def test_target_is_built_once_unless_it_depends_on_phi(factor, realized, varies, monkeypatch):
    # Counts the target network's builds: its tables and its total.
    calls = []
    build = _State._target_side

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(_State, "_target_side", counted)
    system = action_system()
    target = TargetSpec(("x", "a", "y"), [RewardFactor(("y",), np.asarray([0.0, 1.0])), factor])
    eng = Engine(system, target, kl_terms(target), lnz_coeff=1.0, realized=realized)
    assert calls == []  # nothing is built before the first evaluation
    rng = np.random.default_rng(3)
    for _ in range(3):
        phi = rng.standard_normal(eng.parameters().size)
        got = eng.value_and_gradient(phi)
    assert len(calls) == (3 if varies else 1)
    fresh = Engine(system, target, kl_terms(target), lnz_coeff=1.0, realized=realized)
    want = fresh.value_and_gradient(phi)
    assert got.evaluation == want.evaluation
    assert np.array_equal(got.grad, want.grad)
    assert np.array_equal(got.direction, want.direction)


@pytest.mark.parametrize("name", preset_names())
def test_evaluations_build_no_factor(name, monkeypatch):
    obj = from_preset(preset(name))
    calls = []
    post_init = FactorSpec.__post_init__

    def counted(self):
        calls.append(self.child)
        post_init(self)

    monkeypatch.setattr(FactorSpec, "__post_init__", counted)
    phi = np.random.default_rng(5).standard_normal(obj.parameters().size)
    obj.value(phi)
    obj.value_and_gradient(phi)
    obj.value()
    obj.value_and_gradient()
    assert calls == []
    FactorSpec.fixed("x", (), [1.0])
    assert calls == ["x"]  # the counter is live


def test_each_marginal_is_summed_from_the_smallest_one_taken(einsum_calls):
    # chain-mdp's value asks p for the marginals on (x_t, a_t) and x_t at
    # five steps; each x_t is summed from its (x_t, a_t), so only those
    # five are run by the network over the factor tables, and every einsum
    # call runs one of their nodes.
    obj = from_preset(preset("chain-mdp", n_states=6, steps=5))
    phi = np.random.default_rng(1).standard_normal(obj.parameters().size)
    obj.value(phi)  # the fixed target is contracted by the first evaluation
    einsum_calls.clear()
    obj.value(phi)
    st = obj.engine._kept[1]
    assert sorted(tuple(sorted(keep)) for keep in st.made["p"]) == [
        (0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    assert einsum_calls == ["run"] * (len(st.slots["p"]) - len(st.plan.tables["p"]))


@pytest.mark.parametrize("steps", [4, 8, 10])
def test_a_gradient_after_a_value_runs_no_program(steps, einsum_calls):
    # The gradient sweeps back through the nodes the value ran, so its
    # cost grows with theirs, not with one marginal per (piece, block):
    # it runs no forward node.
    obj = from_preset(preset("chain-mdp", n_states=2, steps=steps))
    phi = np.random.default_rng(2).standard_normal(obj.parameters().size)
    obj.value(phi)
    einsum_calls.clear()
    got = obj.value_and_gradient(phi)
    assert "run" not in einsum_calls
    assert "backward" in einsum_calls
    assert np.abs(got.grad).max() > 1e-3


def chain_network(shape, rng, draw=None):
    """Random positive tables over the axes of ``shape`` of length above
    one: a unary on the first, one on each neighbouring pair, and one on
    the first, middle and last axes, which closes a loop. By default the
    entries are powers of two, so every product is exact and only the
    sums round."""
    draw = draw or (lambda size: 2.0 ** rng.integers(-3, 4, size))
    big = [a for a, n in enumerate(shape) if n > 1]
    scopes = [tuple(big[:1])] + [tuple(big[i:i + 2]) for i in range(len(big) - 1)]
    if len(big) > 2:
        scopes.append((big[-1], big[len(big) // 2], big[0]))
    return [(v, draw([shape[a] for a in v])) for v in scopes]


def dense_product(shape, network):
    grid = np.ones(shape)
    for axes, table in network:
        order = sorted(range(len(axes)), key=axes.__getitem__)
        placed = [1] * len(shape)
        for a in axes:
            placed[a] = shape[a]
        grid = grid * table.transpose(order).reshape(placed)
    return grid


@pytest.mark.parametrize(
    "shape",
    [(1,), (3,), (1, 3, 1, 2, 4, 1), (2, 1, 1, 5, 3), (4, 1, 2, 1, 3, 1, 2), (1, 6, 2, 6, 2, 1),
     (6, 2) * 5, (1,) + (2,) * 20],
)
def test_each_reduction_matches_the_numpy_sum(shape):
    # Every compiled marginal of a product of tables, on the grid's axes
    # with length one elsewhere, equals the sum of the dense product. The
    # tables' products are exact, so the compiled sums are checked against
    # the exactly rounded sum (math.fsum): np.sum over the leading axes of
    # the 2**20 grid is itself off by 6.5e-15.
    #
    # The marginals are run into one list of slots, so each reuses the
    # nodes of those before it. The reverse sweep from a cotangent r on the
    # middle pair's marginal gives each table times its gradient: the
    # marginal of grid * r on that table's axes.
    rng = np.random.default_rng(len(shape))
    network = chain_network(shape, rng)
    grid = dense_product(shape, network)
    big = [a for a, n in enumerate(shape) if n > 1]
    half = len(big) // 2
    net = _Network(tuple(v for v, _ in network), shape, None, frozenset(range(len(network))))
    values = {t: table for t, (_, table) in enumerate(network)}
    got, _ = net.run(values, tuple(big))
    assert got.shape == shape
    assert np.array_equal(got, grid)

    def exact_sum(dense, axes):
        kept = [dense.shape[a] for a in axes]
        rows = np.moveaxis(dense, axes, range(len(axes))).reshape(math.prod(kept), -1)
        return np.asarray([math.fsum(row) for row in rows]).reshape(kept)

    for keep in [(), tuple(big[half:half + 2]), tuple(big[-2:]), tuple(big[:2])]:
        got, slot = net.run(values, keep)
        want = exact_sum(grid, keep).reshape(net.program(keep).shape)
        assert got.shape == want.shape, keep
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        if keep != tuple(big[half:half + 2]):
            continue
        cot = 2.0 ** rng.integers(-3, 4, got.shape)
        fields = net.backward(values, {slot: cot})
        assert sorted(fields) == list(range(len(network)))
        for t, (axes, table) in enumerate(network):
            field = fields[t]
            assert field.shape == table.shape, axes
            np.testing.assert_allclose(field, exact_sum(grid * cot, axes), rtol=1e-15, atol=0.0)


def observed_slice(joint: np.ndarray, axes: dict[int, int]) -> np.ndarray:
    """``joint`` zeroed off the outcomes whose axis ``a`` holds ``axes[a]``,
    by slicing, and renormalized."""
    index = tuple(
        slice(axes[a], axes[a] + 1) if a in axes else slice(None) for a in range(joint.ndim)
    )
    out = np.zeros(joint.shape)
    out[index] = joint[index] / joint[index].sum()
    return out


def summed(dense: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``dense`` summed onto ``axes``, in their order."""
    kept = dense.sum(axis=tuple(a for a in range(dense.ndim) if a not in axes))
    return kept.transpose(np.argsort(np.argsort(axes)))


def evidence_objectives():
    """Objectives whose actual measure is conditioned, on variables of
    three and four states as well as binary ones."""
    system = ActualSystem(
        [Variable("x", 3, Role.LATENT_STATE), Variable("y", 3, Role.PAST_INPUT),
         Variable("z", 2, Role.LATENT_STATE)],
        [FactorSpec.parameterized("x", (), [0.2, -0.5, 0.4]),
         FactorSpec.fixed("y", ("x",), [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]),
         FactorSpec.parameterized("z", ("y",), [[0.3, -0.3], [0.0, 0.8], [-0.6, 0.1]])],
    )
    target = TargetSpec(("x", "y", "z"), [
        TableFactor(("x", "y"), np.asarray([[0.5, 0.2, 0.9], [0.3, 0.8, 0.1], [0.6, 0.4, 0.7]])),
        TableFactor(("z",), np.asarray([0.3, 0.7])),
    ])
    vae = preset("vae-toy")
    return [
        make_objective("joint_kl", system, target, realized={"y": 2}),
        from_preset(preset("hmm-filter")),
        make_objective("amortized_vae", vae.system, vae.target, {"form": "reconstruction"},
                       {"x": 1}, "condition"),
    ]


@pytest.mark.parametrize("index", range(3))
def test_engine_marginals_under_evidence_are_slices_of_the_joint(index):
    obj = evidence_objectives()[index]
    eng = obj.engine
    rng = np.random.default_rng(43)
    for _ in range(3):
        phi = rng.standard_normal(obj.parameters().size)
        eng.value(phi)
        st = eng._kept[1]
        eng.value_and_gradient(phi)  # contracts the kept state
        system, _ = eng.space.set(phi)
        joint = build_joint(realize(system, eng.realized, eng.realization)[0]).probs
        axes = {system.names.index(n): v for n, v in eng.evidence.items()}
        assert axes
        p = observed_slice(joint, axes)
        for which, dense in (("p", p), ("joint", joint)):
            for keep, m in st.cache[which].items():
                want = summed(dense, tuple(sorted(keep)))
                got = m.reshape(want.shape)
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-300, err_msg=which)


@st.composite
def random_networks(draw):
    """A DAG of 1-6 variables with 1-4 states each, fixed or softmax
    conditionals, evidence on some of them, and sets of axes in random
    orders to take marginals on."""
    cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = []
    for i, card in enumerate(cards):
        parents = tuple(sorted(draw(st.sets(st.integers(0, i - 1), max_size=3)))) if i else ()
        shape = tuple(cards[j] for j in parents) + (card,)
        names = tuple(f"v{j}" for j in parents)
        if draw(st.booleans()) or i == len(cards) - 1:
            factors.append(FactorSpec.parameterized(f"v{i}", names, rng.normal(size=shape)))
        else:
            table = rng.uniform(0.1, 1.0, shape)
            factors.append(FactorSpec.fixed(f"v{i}", names, table / table.sum(-1, keepdims=True)))
    system = ActualSystem(
        [Variable(f"v{i}", c, Role.ACTION) for i, c in enumerate(cards)], factors
    )
    observed = draw(st.sets(st.integers(0, len(cards) - 1), max_size=2))
    evidence = {f"v{i}": draw(st.integers(0, cards[i] - 1)) for i in observed}
    orders = draw(st.lists(st.permutations(range(len(cards))), min_size=1, max_size=4))
    keeps = [tuple(order[: draw(st.integers(0, len(cards)))]) for order in orders]
    return system, evidence, keeps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_networks())
def test_each_compiled_marginal_is_the_sum_of_the_dense_product(case):
    system, evidence, keeps = case
    eng = Engine(system, TargetSpec(system.names, []), [], realized=evidence,
                 realization="condition")
    phi = np.random.default_rng(len(keeps)).standard_normal(eng.parameters().size)
    joint = build_joint(eng.space.set(phi)[0]).probs
    observed = {int(n[1:]): v for n, v in evidence.items()}
    dense = {"joint": joint, "p": observed_slice(joint, observed)}
    shape = joint.shape
    for keep in keeps:
        for which in ("p", "joint"):
            st = eng._state(phi)  # a fresh state: every marginal runs its program
            got = st.read(which, keep, tuple(shape[a] for a in keep))
            np.testing.assert_allclose(got, summed(dense[which], keep), rtol=1e-14, atol=1e-300)
            program = st.plan.networks[which].program(tuple(sorted(a for a in keep
                                                                   if shape[a] > 1)))
            if math.prod(shape) <= _MERGE_SPACE:
                assert len(program.slots) <= 1  # a small network is one call


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_networks())
def test_marginals_from_one_state_reuse_its_nodes_soundly(case):
    # The case's marginals and those on each variable and each pair are
    # read on both measures from one state, smaller ones first so that few
    # are summed from a cached cover: each reuses the nodes those before it
    # ran. A second engine of the same structure shares the networks, and
    # its state, at another phi, takes the same marginals in turn.
    system, evidence, keeps = case
    observed = {int(n[1:]): v for n, v in evidence.items()}
    rng = np.random.default_rng(len(keeps))
    states, dense = [], []
    for _ in range(2):
        eng = Engine(system, TargetSpec(system.names, []), [], realized=evidence,
                     realization="condition")
        phi = rng.standard_normal(eng.parameters().size)
        joint = build_joint(eng.space.set(phi)[0]).probs
        states.append(eng._state(phi))
        dense.append({"joint": joint, "p": observed_slice(joint, observed)})
    assert states[0].plan.networks["p"] is states[1].plan.networks["p"]
    shape = dense[0]["joint"].shape
    pairs = list(itertools.combinations(range(len(shape)), 2))
    for keep in sorted(keeps + [(a,) for a in range(len(shape))] + pairs + [()], key=len):
        for which in ("p", "joint"):
            for st_, d in zip(states, dense):
                got = st_.read(which, keep, tuple(shape[a] for a in keep))
                np.testing.assert_allclose(got, summed(d[which], keep), rtol=1e-14, atol=1e-300)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_networks(), st.data())
def test_gradients_on_random_networks_match_differences(case, data):
    # One term reads ln p - ln q on a random sub-scope, split into vars and
    # given, against a target that mirrors the last (softmax) conditional
    # and adds a random table on the same sub-scope: the target's sweep
    # feeds a block, and under evidence so does p's.
    system, evidence, _ = case
    names = system.names
    scope = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    cut = data.draw(st.integers(1, len(scope)))
    read, given = tuple(scope[:cut]), tuple(scope[cut:])
    rng = np.random.default_rng(len(scope))
    weights = rng.uniform(0.5, 2.0, [system.variable(n).cardinality for n in scope])
    target = TargetSpec(names, [FactorMirror(names[-1]), TableFactor(tuple(scope), weights)])
    term = Term("divergence", 1.0, ((1.0, ActualLog(read, given)), (-1.0, TargetLog(read, given))))
    engine = Engine(system, target, [term], realized=evidence, realization="condition")
    phi = rng.standard_normal(engine.parameters().size)
    assert check_gradient(engine, phi).rel_err <= 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_networks(), st.data())
def test_several_terms_share_one_reverse_sweep(case, data):
    # Two or three terms ln p - ln q on random scopes that all hold one
    # variable seed cotangents on several marginals of each measure, under
    # the case's evidence; one sweep per measure takes them back through
    # the shared nodes. A gradient after a value starts from the value's
    # state and is bit-identical to a fresh one.
    system, evidence, _ = case
    names = system.names
    shared = data.draw(st.sampled_from(names))
    terms, scopes = [], []
    for k in range(data.draw(st.integers(2, 3))):
        rest = data.draw(st.lists(st.sampled_from(names), unique=True))
        scope = data.draw(st.permutations([shared, *(n for n in rest if n != shared)]))
        cut = data.draw(st.integers(1, len(scope)))
        read, given_ = tuple(scope[:cut]), tuple(scope[cut:])
        pair = ((1.0, ActualLog(read, given_)), (-1.0, TargetLog(read, given_)))
        terms.append(Term(f"t{k}", (1.0, -0.5, 2.0)[k], pair))
        scopes.append(tuple(scope))
    rng = np.random.default_rng(len(terms))
    tables = [TableFactor(s, rng.uniform(0.5, 2.0, [system.variable(n).cardinality for n in s]))
              for s in scopes]
    target = TargetSpec(names, [FactorMirror(names[-1]), *tables])
    engine = Engine(system, target, terms, realized=evidence, realization="condition")
    phi = rng.standard_normal(engine.parameters().size)
    assert check_gradient(engine, phi).rel_err <= 1e-8
    engine.value(phi)
    after = engine.value_and_gradient(phi)
    fresh = engine.value_and_gradient(phi)
    assert after.evaluation == fresh.evaluation
    for got, want in ((after.grad, fresh.grad), (after.direction, fresh.direction)):
        assert np.array_equal(got, want)
    assert after.score_residual == fresh.score_residual


def tables_read(network: _Network, program: _Program) -> set[int]:
    """The positions of the tables ``program`` of ``network`` reads."""
    tables = len(network.operands)
    slots = {i for s in program.slots for i in network.nodes[s - tables][1]} | {program.result}
    return {i for i in slots if i is not None and i < tables}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_networks())
def test_a_program_reads_the_ancestors_of_its_axes_and_the_evidence(case):
    # Every other conditional is barren: its child is neither kept nor
    # observed, and none of the tables read reads it. Variables of one
    # state are constant, so no table reads them, and evidence on them adds
    # no indicator. Tables are the conditionals in variable order, then the
    # indicators of the observed variables of more than one state.
    system, evidence, keeps = case
    eng = Engine(system, TargetSpec(system.names, []), [], realized=evidence,
                 realization="condition")
    st = eng._state(eng.parameters())
    cards = [system.variable(n).cardinality for n in system.names]
    parents = [[int(p[1:]) for p in system.factors[n].parents] for n in system.names]
    observed = [int(n[1:]) for n in evidence if cards[int(n[1:])] > 1]

    def ancestors(start: set[int]) -> set[int]:
        found, todo = set(), [v for v in start if cards[v] > 1]
        while todo:
            v = todo.pop()
            if v not in found:
                found.add(v)
                todo += [u for u in parents[v] if cards[u] > 1]
        return found

    indicators = set(range(len(cards), len(cards) + len(observed)))
    for keep in keeps + [()]:
        axes = tuple(sorted({a for a in keep if cards[a] > 1}))
        networks = st.plan.networks
        p, joint = networks["p"].program(axes), networks["joint"].program(axes)
        assert tables_read(networks["p"], p) == ancestors(set(keep) | set(observed)) | indicators
        assert tables_read(networks["joint"], joint) == ancestors(set(keep))
        if not axes and not observed:
            assert p.slots == () and p.result is None  # nothing is read: the marginal is 1
            assert networks["p"].run(dict(st.slots["p"]), ())[0].item() == 1.0


def test_a_chain_value_reads_only_each_steps_ancestors(einsum_calls):
    # Each step's marginal (x_t, a_t) of chain-mdp (2, 10) leaves out the
    # conditionals of the later steps: the value's 10 marginals make at
    # most 26 einsum calls, where programs over the whole chain make 55.
    obj = from_preset(preset("chain-mdp", n_states=2, steps=10))
    rng = np.random.default_rng(3)
    obj.value(rng.standard_normal(obj.parameters().size))  # builds the plan and the target
    einsum_calls.clear()
    obj.value(rng.standard_normal(obj.parameters().size))
    assert len(obj.engine._kept[1].made["p"]) == 10
    assert len(einsum_calls) <= 26


def test_a_chain_costs_linear_in_its_length(einsum_calls):
    # The step marginals of a chain share their prefix nodes, so one more
    # step adds a bounded number of einsum calls: chain-mdp n_states=2
    # makes 11/12/14 per value and 31/35/41 per gradient after a value at
    # 8/9/10 steps, where re-eliminating every earlier step made 17/21/26
    # and 45/57/71.
    per_value, per_gradient = [], []
    for steps in (8, 9, 10):
        obj = from_preset(preset("chain-mdp", n_states=2, steps=steps))
        rng = np.random.default_rng(3)
        obj.value(rng.standard_normal(obj.parameters().size))  # builds the plan and the target
        phi = rng.standard_normal(obj.parameters().size)
        einsum_calls.clear()
        obj.value(phi)
        per_value.append(len(einsum_calls))
        einsum_calls.clear()
        obj.value_and_gradient(phi)
        per_gradient.append(len(einsum_calls))
    assert max(np.diff(per_value)) <= 2, per_value
    assert max(np.diff(per_gradient)) <= 6, per_gradient


def test_an_unread_fixed_leaf_changes_no_bit():
    # A leaf that no term and no target factor reads is barren in every
    # program, so the engine reads the same tables in the same order with
    # it as without it.
    rng = np.random.default_rng(0)
    for seed in range(30):
        system, target = generic_pair(seed)
        rows = rng.dirichlet(np.ones(3), size=(2, 2))
        leafy = ActualSystem(
            [*system.variables, Variable("w", 3, Role.FUTURE_INPUT)],
            [*system.factors.values(), FactorSpec.fixed("w", ("z1", "x2"), rows)],
        )
        pair = (ActualLog(("z1", "z2"), ("x1",)), TargetLog(("z1", "z2"), ("x1",)))
        terms = [Term("gap", 1.0, ((1.0, pair[0]), (-1.0, pair[1]))),
                 Term("factor", 0.5, ((1.0, TargetFactorLog(0)),))]
        got, want = (Engine(s, target, terms, lnz_coeff=1.0).value_and_gradient()
                     for s in (leafy, system))
        assert got.evaluation.total == want.evaluation.total, seed
        assert got.evaluation.terms == want.evaluation.terms, seed
        assert np.array_equal(got.grad, want.grad), seed
        assert np.array_equal(got.direction, want.direction), seed
        assert got.score_residual == want.score_residual, seed


# ---------------------------------------------------------------------------
# A value call hands its state to the gradient at the same phi


def count_states(monkeypatch) -> list:
    """Records every state an engine builds: one softmax per live block and
    the tables of every measure."""
    calls = []
    init = _State.__init__

    def counted(state, plan, sigmas, q_side):
        calls.append(sigmas)
        init(state, plan, sigmas, q_side)

    monkeypatch.setattr(_State, "__init__", counted)
    return calls


def assert_same_gradient(got, want):
    assert got.evaluation == want.evaluation  # total, terms, ln Z, divergent
    assert got.grad.tobytes() == want.grad.tobytes()
    assert got.direction.tobytes() == want.direction.tobytes()
    assert got.score_residual == want.score_residual


def chain_objective():
    return from_preset(preset("chain-mdp", n_states=3, steps=2))


@pytest.mark.parametrize(
    "calls, joints",
    [
        ((("value", 0), ("grad", 0)), 1),
        ((("value", 0), ("grad", 1)), 2),
        ((("grad", 0), ("grad", 0)), 2),
        ((("value", 0), ("value", 0)), 2),
        ((("value", 0), ("value", 1), ("grad", 0)), 3),
    ],
)
def test_only_a_gradient_at_the_same_phi_takes_the_kept_state(calls, joints, monkeypatch):
    obj = chain_objective()
    rng = np.random.default_rng(7)
    points = [rng.standard_normal(obj.parameters().size) for _ in range(2)]
    built = count_states(monkeypatch)
    for method, at in calls:
        phi = points[at].copy()  # the same bits, another array
        (obj.value if method == "value" else obj.value_and_gradient)(phi)
    assert len(built) == joints


def test_a_point_mutated_in_place_is_built_again(monkeypatch):
    obj = chain_objective()
    phi = np.random.default_rng(8).standard_normal(obj.parameters().size)
    built = count_states(monkeypatch)
    obj.value(phi)
    phi[0] += 1.0
    got = obj.value_and_gradient(phi)
    assert len(built) == 2
    assert_same_gradient(got, chain_objective().value_and_gradient(phi))


def test_current_parameters_hand_over_to_an_explicit_copy(monkeypatch):
    obj = chain_objective()
    built = count_states(monkeypatch)
    obj.value()
    got = obj.value_and_gradient(obj.parameters())
    assert len(built) == 1
    assert_same_gradient(got, chain_objective().value_and_gradient())


def test_the_term_pass_runs_once_per_point(monkeypatch):
    # A gradient right after a value at the same phi only contracts what the
    # value call kept; a fresh gradient runs its own term pass once.
    obj = chain_objective()
    phi = np.random.default_rng(10).standard_normal(obj.parameters().size)
    passes = []
    evaluate = Engine._evaluate

    def counted(engine, state):
        passes.append(state)
        return evaluate(engine, state)

    monkeypatch.setattr(Engine, "_evaluate", counted)
    value = obj.value(phi)
    kept = obj.value_and_gradient(phi.copy())
    assert len(passes) == 1
    assert kept.evaluation == value
    fresh = obj.value_and_gradient(phi)
    assert len(passes) == 2
    assert_same_gradient(kept, fresh)


def test_an_engine_holds_at_most_one_state(monkeypatch):
    obj = chain_objective()
    eng = obj.engine
    phi = np.random.default_rng(9).standard_normal(obj.parameters().size)
    assert eng._kept is None
    obj.value(phi)
    kept = weakref.ref(eng._kept[1])
    obj.value_and_gradient(phi)
    assert eng._kept is None  # consumed
    assert kept() is None
    # Any other call drops the kept state before it builds its own.
    alive = []
    init = _State.__init__

    def watched(state, plan, sigmas, q_side):
        alive.append(kept() is not None)
        init(state, plan, sigmas, q_side)

    monkeypatch.setattr(_State, "__init__", watched)
    for call in (obj.value, obj.value_and_gradient):
        obj.value(phi)
        kept = weakref.ref(eng._kept[1])
        call(phi + 1.0)
    assert alive == [False, False, False, False]
    assert eng._kept is None
    with pytest.raises(ValidationError):
        obj.value(np.full(phi.shape, np.nan))
    assert eng._kept is None
    obj.value(phi)
    with pytest.raises(ValidationError, match="shape"):
        obj.value_and_gradient(phi.reshape(1, -1))  # the same bytes
    assert eng._kept is None
