"""Divergence decompositions against brute-force enumeration oracles.

The oracle path below shares nothing with the table machinery: joints,
marginals, conditionals, and expectations are computed with plain Python
dictionaries, loops, math.log, and math.fsum.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divmin.decomp import (
    Report,
    bayesian_future_check,
    decompose_input_side,
    decompose_latent_side,
    energy_entropy,
    expected_free_energy,
    fully_matched_target,
    joint_kl,
    observe,
    past_future_split,
)
from divmin.errors import ValidationError
from divmin.presets import preset
from divmin.systems import (
    ActualSystem,
    ConditionalFactor,
    FactorSpec,
    MarginalMirror,
    RewardFactor,
    TableFactor,
    TargetSpec,
)
from divmin.tables import Role, Table, Variable


# --- oracle helpers (independent path) -------------------------------------------


def oracle_factor(system, name, at):
    f = system.factors[name]
    idx = tuple(at[p] for p in f.parents)
    card = system.variable(name).cardinality
    if f.kind == "fixed":
        return float(f.table[idx + (at[name],)])
    if f.kind == "point-mass":
        sel = int(f.selector[idx]) if f.parents else int(f.selector)
        return 1.0 if at[name] == sel else 0.0
    logits = [float(f.logits[idx + (c,)]) for c in range(card)]
    peak = max(logits)
    weights = [math.exp(v - peak) for v in logits]
    return weights[at[name]] / math.fsum(weights)


def oracle_joint(system):
    names = list(system.names)
    cards = [system.variable(n).cardinality for n in names]
    pmap = {}
    for combo in itertools.product(*(range(c) for c in cards)):
        at = dict(zip(names, combo))
        pmap[combo] = math.prod(oracle_factor(system, n, at) for n in names)
    return names, pmap


def oracle_target(system, target, p_names, pmap):
    names = list(target.scope)
    cards = [system.variable(n).cardinality for n in names]
    wmap = {}
    for combo in itertools.product(*(range(c) for c in cards)):
        at = dict(zip(names, combo))
        w = 1.0
        for f in target.factors:
            if isinstance(f, TableFactor):
                w *= float(f.table[tuple(at[v] for v in f.vars)])
            elif isinstance(f, ConditionalFactor):
                w *= float(f.table[tuple(at[v] for v in (*f.parents, f.child))])
            elif isinstance(f, RewardFactor):
                w *= math.exp(float(f.values[tuple(at[v] for v in f.vars)]))
            elif isinstance(f, MarginalMirror):
                w *= math.exp(
                    olog_cond(p_names, pmap, f.vars, f.given, at)
                )
            else:
                raise AssertionError(f"oracle does not cover {type(f).__name__}")
        wmap[combo] = w
    return names, wmap


def omarg(names, wmap, subset):
    idxs = [names.index(s) for s in subset]
    out = {}
    for combo, w in wmap.items():
        key = tuple(combo[i] for i in idxs)
        out[key] = out.get(key, 0.0) + w
    return out


def olog_cond(names, wmap, targets, conditions, at):
    """ln m(targets | conditions) at a full assignment dict; 0.0 when empty."""
    targets = tuple(targets)
    conditions = tuple(conditions)
    if not targets:
        return 0.0
    num = omarg(names, wmap, targets + conditions)
    den = (
        omarg(names, wmap, conditions)
        if conditions
        else {(): math.fsum(wmap.values())}
    )
    key_n = tuple(at[v] for v in targets + conditions)
    key_d = tuple(at[v] for v in conditions)
    return math.log(num[key_n]) - math.log(den[key_d])


def oexp(names, pmap, fn):
    """E_p[fn(assignment_dict)] by explicit summation."""
    total = math.fsum(pmap.values())
    vals = []
    for combo, p in pmap.items():
        if p > 0.0:
            vals.append(p / total * fn(dict(zip(names, combo))))
    return math.fsum(vals)


# --- shared example ------------------------------------------------------------------


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


def oracle_kl(system, target):
    names, pmap = oracle_joint(system)
    tnames, wmap = oracle_target(system, target, names, pmap)
    z = math.fsum(wmap.values())
    # Marginalize p onto the target scope.
    psub = omarg(names, pmap, tuple(tnames))
    vals = []
    for combo, p in psub.items():
        if p > 0.0:
            vals.append(p * (math.log(p) - math.log(wmap[combo] / z)))
    return math.fsum(vals), math.log(z)


# --- joint divergence ------------------------------------------------------------


def test_joint_kl_matches_oracle():
    system, target = make_xyz()
    got = joint_kl(system, target)
    want, lnz = oracle_kl(system, target)
    assert got.kl_nats == pytest.approx(want, abs=1e-12)
    assert got.log_partition == pytest.approx(lnz, abs=1e-12)
    assert not got.divergent


def test_joint_kl_on_scope_subset_uses_marginal():
    system, _ = make_xyz()
    target = TargetSpec(("x", "y"), [RewardFactor(("y",), np.asarray([0.0, 1.0]))])
    got = joint_kl(system, target)
    want, lnz = oracle_kl(system, target)
    assert got.kl_nats == pytest.approx(want, abs=1e-12)
    assert got.log_partition == pytest.approx(lnz, abs=1e-12)


def test_fully_matched_target_gives_zero_divergence():
    system, _ = make_xyz()
    matched = fully_matched_target(system)
    assert joint_kl(system, matched).kl_nats == pytest.approx(0.0, abs=1e-12)


# --- latent side --------------------------------------------------------------------


def test_latent_side_terms_and_identity():
    system, target = make_xyz()
    rep = decompose_latent_side(system, target)
    names, pmap = oracle_joint(system)
    tnames, wmap = oracle_target(system, target, names, pmap)

    want_pref = oexp(
        names,
        pmap,
        lambda at: olog_cond(names, pmap, ("z",), ("x", "y"), at)
        - olog_cond(tnames, wmap, ("z",), (), at),
    )
    want_bound = oexp(
        names,
        pmap,
        lambda at: olog_cond(tnames, wmap, ("x", "y"), ("z",), at)
        - olog_cond(names, pmap, ("x", "y"), (), at),
    )
    assert rep.terms["latent_pref_kl"] == pytest.approx(want_pref, abs=1e-12)
    assert rep.terms["info_bound"] == pytest.approx(want_bound, abs=1e-12)
    assert rep.relation == "equals"
    assert rep.slack == pytest.approx(0.0, abs=1e-11)
    assert rep.total == pytest.approx(rep.joint_kl, abs=1e-11)


def test_latent_side_with_matched_target_reads_information():
    # With q = p both terms become the information between inputs and code.
    system, _ = make_xyz()
    rep = decompose_latent_side(system, fully_matched_target(system))
    names, pmap = oracle_joint(system)
    mi = oexp(
        names,
        pmap,
        lambda at: olog_cond(names, pmap, ("z",), ("x", "y"), at)
        - olog_cond(names, pmap, ("z",), (), at),
    )
    assert rep.terms["latent_pref_kl"] == pytest.approx(mi, abs=1e-12)
    assert rep.terms["info_bound"] == pytest.approx(mi, abs=1e-12)
    assert rep.joint_kl == pytest.approx(0.0, abs=1e-12)


def test_latent_side_independent_code_degenerates():
    # Independent code: the bound collapses to -KL between input marginals.
    variables = [
        Variable("x", 2, Role.PAST_INPUT),
        Variable("z", 2, Role.LATENT_STATE),
    ]
    factors = [
        FactorSpec.fixed("x", (), [0.3, 0.7]),
        FactorSpec.parameterized("z", (), [0.5, -0.5]),
    ]
    system = ActualSystem(variables, factors)
    target = TargetSpec(
        ("x", "z"),
        [
            TableFactor(("x",), np.asarray([0.5, 0.5])),
            TableFactor(("z",), np.asarray([0.5, 0.5])),
        ],
    )
    rep = decompose_latent_side(system, target)
    want = -(0.3 * math.log(0.3 / 0.5) + 0.7 * math.log(0.7 / 0.5))
    assert rep.terms["info_bound"] == pytest.approx(want, abs=1e-12)
    assert rep.total == pytest.approx(rep.joint_kl, abs=1e-12)


# --- input side -----------------------------------------------------------------------


def test_input_side_terms_and_identity():
    system, target = make_xyz()
    rep = decompose_input_side(system, target)
    names, pmap = oracle_joint(system)
    tnames, wmap = oracle_target(system, target, names, pmap)
    want_pref = oexp(
        names,
        pmap,
        lambda at: olog_cond(names, pmap, ("x", "y"), ("z",), at)
        - olog_cond(tnames, wmap, ("x", "y"), (), at),
    )
    want_bound = oexp(
        names,
        pmap,
        lambda at: olog_cond(tnames, wmap, ("z",), ("x", "y"), at)
        - olog_cond(names, pmap, ("z",), (), at),
    )
    assert rep.terms["input_pref_kl"] == pytest.approx(want_pref, abs=1e-12)
    assert rep.terms["info_bound_latent"] == pytest.approx(want_bound, abs=1e-12)
    assert rep.total == pytest.approx(rep.joint_kl, abs=1e-11)


# --- energy / entropy and free-energy forms ----------------------------------------


def test_energy_entropy_identity():
    system, target = make_xyz()
    rep = energy_entropy(system, target)
    names, pmap = oracle_joint(system)
    tnames, wmap = oracle_target(system, target, names, pmap)
    energy = oexp(
        names, pmap, lambda at: -math.log(wmap[tuple(at[v] for v in tnames)])
    )
    ent = -oexp(names, pmap, lambda at: math.log(pmap[tuple(at[v] for v in names)]))
    assert rep.terms["energy"] == pytest.approx(energy, abs=1e-12)
    assert rep.terms["entropy"] == pytest.approx(ent, abs=1e-12)
    assert rep.lnz_coeff == 1.0
    assert rep.total == pytest.approx(rep.joint_kl, abs=1e-11)


def test_expected_free_energy_identity():
    system, target = make_xyz()
    rep = expected_free_energy(system, target)
    names, pmap = oracle_joint(system)
    tnames, wmap = oracle_target(system, target, names, pmap)
    efe = oexp(
        names,
        pmap,
        lambda at: -olog_cond(tnames, wmap, ("x", "y"), ("z",), at)
        + olog_cond(names, pmap, ("z",), ("x", "y"), at)
        - olog_cond(tnames, wmap, ("z",), (), at),
    )
    h_x = -oexp(names, pmap, lambda at: olog_cond(names, pmap, ("x", "y"), (), at))
    assert rep.terms["efe"] == pytest.approx(efe, abs=1e-12)
    assert rep.terms["input_entropy"] == pytest.approx(h_x, abs=1e-12)
    assert rep.total == pytest.approx(rep.joint_kl, abs=1e-11)


# --- past / future split ------------------------------------------------------------


def test_past_future_split_terms_and_slack():
    p = preset("hmm-filter")
    rep = past_future_split(p.system, p.target)
    names, pmap = oracle_joint(p.system)
    tnames, wmap = oracle_target(p.system, p.target, names, pmap)
    past, future = ("x1", "x2"), ("x3",)
    z = ("z1", "z2", "z3")
    allx = past + future

    def t_past(at):
        return olog_cond(names, pmap, z, past, at) - olog_cond(tnames, wmap, z, (), at)

    def t_repr(at):
        return olog_cond(tnames, wmap, past, z, at) - olog_cond(names, pmap, past, (), at)

    def t_future(at):
        return olog_cond(names, pmap, future, past + z, at) - olog_cond(
            tnames, wmap, future, past, at
        )

    def t_explore(at):
        return olog_cond(tnames, wmap, z, allx, at) - olog_cond(names, pmap, z, past, at)

    assert rep.terms["past_latent_pref"] == pytest.approx(
        oexp(names, pmap, t_past), abs=1e-11
    )
    assert rep.terms["repr_learning"] == pytest.approx(
        oexp(names, pmap, t_repr), abs=1e-11
    )
    assert rep.terms["future_input_pref"] == pytest.approx(
        oexp(names, pmap, t_future), abs=1e-11
    )
    assert rep.terms["exploration"] == pytest.approx(
        oexp(names, pmap, t_explore), abs=1e-11
    )
    assert rep.relation == "lower-bounds-joint"
    assert rep.slack >= -1e-12
    # The slack has a closed form: the expected conditional divergence of the
    # internal variables given the past, between actual and target.
    want_slack = oexp(
        names,
        pmap,
        lambda at: olog_cond(names, pmap, z, past, at)
        - olog_cond(tnames, wmap, z, past, at),
    )
    assert rep.slack == pytest.approx(want_slack, abs=1e-11)


def test_past_future_split_tight_when_past_conditionals_match():
    p = preset("hmm-filter")
    matched = TargetSpec(
        tuple(p.system.names),
        [
            MarginalMirror(("x1", "x2"), ()),
            MarginalMirror(("z1", "z2", "z3"), ("x1", "x2")),
        ],
    )
    rep = past_future_split(p.system, matched)
    assert rep.slack == pytest.approx(0.0, abs=1e-11)


def test_past_future_split_without_internals_is_chain_rule():
    variables = [
        Variable("x1", 2, Role.PAST_INPUT),
        Variable("x2", 2, Role.FUTURE_INPUT),
    ]
    factors = [
        FactorSpec.parameterized("x1", (), [0.2, -0.2]),
        FactorSpec.fixed("x2", ("x1",), [[0.6, 0.4], [0.3, 0.7]]),
    ]
    system = ActualSystem(variables, factors)
    target = TargetSpec(
        ("x1", "x2"), [RewardFactor(("x2",), np.asarray([0.0, 0.5]))]
    )
    rep = past_future_split(system, target)
    assert rep.terms["past_latent_pref"] == 0.0
    assert rep.terms["exploration"] == 0.0
    assert rep.slack == pytest.approx(0.0, abs=1e-12)
    assert rep.total == pytest.approx(rep.joint_kl, abs=1e-12)


def test_past_future_split_with_observed_past():
    p = preset("hmm-filter")
    rep = past_future_split(p.system, p.target, realized=dict(p.options["realized"]))
    assert rep.slack >= -1e-12
    # With the past pinned, its preference terms collapse to point evaluations.
    assert math.isfinite(rep.total)
    base = past_future_split(p.system, p.target)
    assert rep.joint_kl != pytest.approx(base.joint_kl, abs=1e-6)


def test_realization_semantics_differ_for_actions():
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
    target = TargetSpec(("x", "a", "y"), [RewardFactor(("y",), np.asarray([0.0, 1.0]))])
    sub = joint_kl(system, target, realized={"a": 1}, realization="intervene")
    obs = joint_kl(system, target, realized={"a": 1}, realization="condition")
    # Substitution keeps p(x) = (0.3, 0.7); conditioning tilts it toward x = 1,
    # so the two divergences differ.
    assert sub.kl_nats != pytest.approx(obs.kl_nats, abs=1e-6)
    with pytest.raises(ValidationError):
        joint_kl(system, target, realized={"a": 1}, realization="replace")


# --- Bayesian future check -----------------------------------------------------------


def test_bayesian_future_check_identity_on_filter():
    p = preset("hmm-filter")
    rep = bayesian_future_check(p.system, p.target)
    assert rep.relation == "equals"
    assert rep.slack == pytest.approx(0.0, abs=1e-11)
    # The preset's own input chain differs from the model's predictive law.
    assert rep.terms["uncontrolled_future"] > 1e-3
    assert rep.extras["bayesian_satisfied"] == 0.0


def test_bayesian_future_check_constructed_match():
    stay = np.asarray([[0.8, 0.2], [0.35, 0.65]])
    variables = [
        Variable("x1", 2, Role.PAST_INPUT),
        Variable("x2", 2, Role.FUTURE_INPUT),
        Variable("z", 2, Role.LATENT_STATE),
    ]
    factors = [
        FactorSpec.fixed("x1", (), [0.4, 0.6]),
        FactorSpec.fixed("x2", ("x1",), stay),
        FactorSpec.point_mass("z", ("x1",), np.asarray([0, 1])),
    ]
    system = ActualSystem(variables, factors)
    target = TargetSpec(
        ("x1", "x2", "z"), [ConditionalFactor("x2", ("z",), stay)]
    )
    rep = bayesian_future_check(system, target)
    assert rep.terms["uncontrolled_future"] == pytest.approx(0.0, abs=1e-12)
    assert rep.extras["bayesian_satisfied"] == 1.0
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_bayesian_future_check_structure_validation():
    p = preset("hmm-filter")
    # Internal variable conditioned on a future input breaks the filter shape.
    bad = p.system.with_factor(
        FactorSpec.parameterized("z3", ("x3",), np.zeros((2, 2)))
    )
    with pytest.raises(ValidationError, match="internal factor"):
        bayesian_future_check(bad, p.target)
    # Target factors may not couple past and future inputs directly.
    coupled = TargetSpec(
        tuple(p.system.names),
        [ConditionalFactor("x3", ("x1",), np.asarray([[0.5, 0.5], [0.5, 0.5]]))],
    )
    with pytest.raises(ValidationError, match="target factors over future"):
        bayesian_future_check(p.system, coupled)
    # Active systems are out of scope for this split.
    action = preset("chain-mdp")
    with pytest.raises(ValidationError, match="passive"):
        bayesian_future_check(action.system, fully_matched_target(action.system))


def filter_in_order(order):
    """A past input, a belief reading it, and a future input, declared in
    ``order``; the target scope follows the same order."""
    roles = {"x1": Role.PAST_INPUT, "z": Role.LATENT_STATE, "x2": Role.FUTURE_INPUT}
    factors = {
        "x1": FactorSpec.fixed("x1", (), [0.3, 0.7]),
        "z": FactorSpec.parameterized("z", ("x1",), [[0.4, -0.1], [-0.6, 0.2]]),
        "x2": FactorSpec.fixed("x2", ("x1",), [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]),
    }
    cards = {"x1": 2, "z": 2, "x2": 3}
    system = ActualSystem(
        [Variable(n, cards[n], roles[n]) for n in order], [factors[n] for n in order]
    )
    target = TargetSpec(
        tuple(order),
        [
            TableFactor(("x1",), np.asarray([1.2, 0.5])),
            ConditionalFactor("z", ("x1",), np.asarray([[0.9, 0.1], [0.25, 0.75]])),
            ConditionalFactor(
                "x2", ("z",), np.asarray([[0.3, 0.3, 0.4], [0.5, 0.2, 0.3]])
            ),
        ],
    )
    return system, target


@pytest.mark.parametrize("split", [past_future_split, bayesian_future_check])
def test_roles_not_declaration_order_decide_the_time_split(split):
    past_first = split(*filter_in_order(("x1", "z", "x2")))
    future_first = split(*filter_in_order(("x2", "x1", "z")))
    assert future_first.terms.keys() == past_first.terms.keys()
    for name, value in past_first.terms.items():
        assert future_first.terms[name] == pytest.approx(value, abs=1e-12), name
    assert future_first.total == pytest.approx(past_first.total, abs=1e-12)
    assert future_first.joint_kl == pytest.approx(past_first.joint_kl, abs=1e-12)


# --- report plumbing -----------------------------------------------------------------


def test_report_validation_and_serialization():
    system, target = make_xyz()
    rep = decompose_latent_side(system, target)
    d = rep.to_dict()
    assert set(d) == {
        "equation",
        "relation",
        "terms",
        "combo",
        "log_partition",
        "lnz_coeff",
        "total",
        "joint_kl",
        "slack",
        "divergent",
        "extras",
    }
    assert d["equation"] == "info_latent"
    with pytest.raises(ValidationError):
        Report(
            equation="x",
            terms={"a": 1.0},
            combo={"b": 1.0},
            log_partition=0.0,
            lnz_coeff=0.0,
            joint_kl=0.0,
            relation="equals",
            divergent=False,
        )
    with pytest.raises(ValidationError):
        Report(
            equation="x",
            terms={},
            combo={},
            log_partition=0.0,
            lnz_coeff=0.0,
            joint_kl=0.0,
            relation="sideways",
            divergent=False,
        )


def test_divergence_flag_propagates():
    system, _ = make_xyz()
    # A target that forbids z = 1 outright while the system visits it.
    target = TargetSpec(("x", "z", "y"), [TableFactor(("z",), np.asarray([1.0, 0.0]))])
    rep = decompose_latent_side(system, target)
    assert rep.divergent
    assert joint_kl(system, target).divergent


@st.composite
def observed_tables(draw):
    """A positive table over 1-4 variables of 3 or 4 states, with evidence on
    a non-empty subset of them."""
    cards = draw(st.lists(st.integers(3, 4), min_size=1, max_size=4))
    scope = tuple(Variable(f"v{i}", c, Role.LATENT_STATE) for i, c in enumerate(cards))
    weights = draw(st.lists(
        st.floats(0.01, 1.0), min_size=math.prod(cards), max_size=math.prod(cards)
    ))
    probs = np.asarray(weights).reshape(cards)
    names = draw(st.lists(st.sampled_from([v.name for v in scope]), min_size=1, unique=True))
    evidence = {n: draw(st.integers(0, cards[int(n[1:])] - 1)) for n in names}
    return Table(scope, probs / probs.sum()), evidence


@settings(max_examples=60, deadline=None, derandomize=True)
@given(observed_tables())
def test_observe_is_slicing_and_renormalizing(case):
    # observe keeps the full scope; an explicit loop over outcomes keeps
    # those that agree with the evidence and renormalizes them.
    table, evidence = case
    want = np.zeros(table.probs.shape)
    for index in itertools.product(*(range(n) for n in table.probs.shape)):
        if all(index[table.axis(n)] == v for n, v in evidence.items()):
            want[index] = table.probs[index]
    want /= math.fsum(want.ravel())
    got = observe(table, evidence).probs
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
