"""Table operations against hand-derived values and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divmin.errors import CapacityError, NullEvidenceError, ValidationError
from divmin.tables import (
    Role,
    Table,
    UnnormalizedTable,
    Variable,
    _Layout,
    _safe_log,
    condition,
    entropy,
    expected_conditional_kl,
    expected_log,
    kl,
    log_conditional,
    marginalize,
    mutual_information,
    variational_mi_lower_bound,
)


def binary_pair(probs):
    scope = [
        Variable("a", 2, Role.PAST_INPUT),
        Variable("b", 2, Role.LATENT_STATE),
    ]
    return Table(scope, np.asarray(probs, dtype=float))


def bernoulli(p, name="a"):
    return Table([Variable(name, 2, Role.PAST_INPUT)], [1.0 - p, p])


# --- construction ---------------------------------------------------------


@pytest.mark.parametrize("cardinality", [2.5, "2", None, math.inf, 0, 0.0])
def test_a_cardinality_must_be_a_positive_integer(cardinality):
    with pytest.raises(ValidationError, match="needs an integer cardinality >= 1"):
        Variable("x", cardinality, Role.ACTION)


def test_an_integral_cardinality_is_stored_as_an_int():
    for cardinality in (2.0, np.int64(2), np.float64(2.0)):
        stored = Variable("x", cardinality, Role.ACTION).cardinality
        assert stored == 2 and type(stored) is int


@pytest.mark.parametrize("role", ["bogus", None, ["action"]])
def test_an_unknown_role_is_a_validation_error(role):
    with pytest.raises(ValidationError, match="^variable 'x' has role .*, expected one of"):
        Variable("x", 2, role)


def test_a_role_given_by_its_value_is_stored_as_a_role():
    assert Variable("x", 2, "latent-state").role is Role.LATENT_STATE


@pytest.mark.parametrize(
    "call",
    [
        lambda ragged: Table([Variable("a", 2, Role.PAST_INPUT)], ragged),
        lambda ragged: UnnormalizedTable([Variable("a", 2, Role.PAST_INPUT)], ragged),
        lambda ragged: variational_mi_lower_bound(
            binary_pair(np.full((2, 2), 0.25)), ragged, ["a"], ["b"]
        ),
    ],
    ids=["Table", "UnnormalizedTable", "variational_mi_lower_bound"],
)
def test_a_ragged_array_is_rejected(call):
    with pytest.raises(ValidationError, match="must be a rectangular array of numbers$"):
        call([[0.5], [0.5, 0.0]])


def test_table_requires_normalization():
    with pytest.raises(ValidationError):
        binary_pair([[0.1, 0.2], [0.3, 0.3]])


def test_table_rejects_negative_mass():
    with pytest.raises(ValidationError):
        binary_pair([[0.5, 0.6], [-0.1, 0.0]])


def test_table_rejects_duplicate_names():
    v = Variable("a", 2, Role.ACTION)
    with pytest.raises(ValidationError):
        Table([v, v], np.full((2, 2), 0.25))


def test_capacity_cap_enforced():
    scope = [Variable(f"v{i}", 2, Role.LATENT_STATE) for i in range(23)]
    probs = np.zeros((2,) * 23)
    probs[(0,) * 23] = 1.0
    with pytest.raises(CapacityError):
        Table(scope, probs)


def test_unnormalized_table_caches_log_partition():
    t = UnnormalizedTable([Variable("a", 2, Role.ACTION)], [1.0, 3.0])
    assert t.log_partition == pytest.approx(math.log(4.0), abs=1e-15)


def test_unnormalized_table_rejects_zero_mass():
    with pytest.raises(ValidationError):
        UnnormalizedTable([Variable("a", 2, Role.ACTION)], [0.0, 0.0])


def on_scope(values):
    return [Variable("a", len(values), Role.ACTION)], values


@pytest.mark.parametrize("kind", [Table, UnnormalizedTable])
@pytest.mark.parametrize("values", [[math.inf], [math.nan], [-math.inf], [-1.0, math.inf]])
def test_non_finite_entries_are_rejected_before_signs(kind, values):
    with pytest.raises(ValidationError, match="must be finite"):
        kind(*on_scope(values))


@pytest.mark.parametrize("kind", [Table, UnnormalizedTable])
def test_negative_entries_are_rejected(kind):
    with pytest.raises(ValidationError, match="non-negative"):
        kind(*on_scope([-0.5, 1.5]))


@pytest.mark.filterwarnings("error")
def test_finite_weights_whose_sum_overflows_are_rejected():
    # Every entry is finite, but ln Z would read an infinite sum.
    with pytest.raises(ValidationError, match="^target weights must be finite$"):
        UnnormalizedTable(*on_scope([1e308, 1e308]))


def test_safe_log_is_the_two_pass_expression_bit_for_bit():
    tiny = np.nextafter(0.0, 1.0)
    values = np.array(
        [0.0, -0.0, -1.0, -tiny, np.nan, np.inf, -np.inf, tiny, 2.2e-308, 1e-310, 0.5, 1.0, 3.0]
    )
    for arr in (values, values.reshape(13, 1), np.float64(0.25) * np.ones(()), np.zeros(())):
        want = np.where(arr > 0.0, np.log(np.where(arr > 0.0, arr, 1.0)), -np.inf)
        got = _safe_log(arr)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# --- marginalize / condition ----------------------------------------------


def test_marginalize_matches_hand_sum():
    t = binary_pair([[0.1, 0.2], [0.3, 0.4]])
    m = marginalize(t, ["a"])
    assert m.names == ("a",)
    assert np.allclose(m.probs, [0.3, 0.7], atol=1e-15)


def test_marginalize_keeps_scope_order():
    scope = [
        Variable("a", 2, Role.PAST_INPUT),
        Variable("b", 3, Role.LATENT_STATE),
        Variable("c", 2, Role.ACTION),
    ]
    rng = np.random.default_rng(0)
    probs = rng.random((2, 3, 2))
    probs /= probs.sum()
    t = Table(scope, probs)
    m = marginalize(t, ["c", "a"])  # request order must not matter
    assert m.names == ("a", "c")
    assert np.allclose(m.probs, probs.sum(axis=1), atol=1e-15)


def test_marginalize_onto_the_whole_scope_returns_the_table():
    t = binary_pair([[0.1, 0.2], [0.3, 0.4]])
    assert marginalize(t, ["b", "a"]) is t
    m = marginalize(t, ["b"])
    assert not m.probs.flags.writeable


def test_table_copies_its_input_unless_handed_over():
    scope = binary_pair([[0.1, 0.2], [0.3, 0.4]]).scope
    probs = np.asarray([[0.1, 0.2], [0.3, 0.4]])
    copied = Table(scope, probs)
    assert copied.probs is not probs and probs.flags.writeable
    adopted = Table(scope, probs, copy=False)
    assert adopted.probs is probs and not probs.flags.writeable
    with pytest.raises(ValidationError):
        Table(scope, -probs.copy(), copy=False)


def test_marginalize_unknown_name_errors():
    t = binary_pair([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValidationError):
        marginalize(t, ["z"])


def test_condition_renormalizes_slice():
    t = binary_pair([[0.1, 0.2], [0.3, 0.4]])
    c = condition(t, {"a": 1})
    assert c.names == ("b",)
    assert np.allclose(c.probs, [3.0 / 7.0, 4.0 / 7.0], atol=1e-15)


def test_condition_on_null_event_errors():
    t = binary_pair([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(NullEvidenceError):
        condition(t, {"a": 1})


def test_condition_cannot_bind_entire_scope():
    t = binary_pair([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValidationError):
        condition(t, {"a": 0, "b": 0})


# --- entropy ----------------------------------------------------------------


def test_entropy_bernoulli_quarter():
    # -0.25 ln 0.25 - 0.75 ln 0.75, evaluated independently.
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert expected == pytest.approx(0.562335, abs=5e-7)
    assert entropy(bernoulli(0.25)) == pytest.approx(expected, abs=1e-12)


def test_entropy_point_mass_is_zero():
    assert entropy(bernoulli(0.0)) == 0.0


def test_entropy_subset_is_marginal_entropy():
    t = binary_pair([[0.1, 0.2], [0.3, 0.4]])
    assert entropy(t, ["a"]) == pytest.approx(entropy(marginalize(t, ["a"])), abs=1e-15)


# --- kl ---------------------------------------------------------------------


def test_kl_bernoulli_values():
    # 0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75), evaluated independently.
    expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert expected == pytest.approx(0.143841, abs=5e-7)
    r = kl(bernoulli(0.5), bernoulli(0.25))
    assert r.kl_nats == pytest.approx(expected, abs=1e-12)
    assert r.log_partition == 0.0
    assert not r.divergent


def test_kl_self_is_zero():
    p = bernoulli(0.3)
    assert kl(p, p).kl_nats == 0.0


def test_kl_against_unnormalized_reports_log_partition():
    p = bernoulli(0.75)
    q = UnnormalizedTable([Variable("a", 2, Role.PAST_INPUT)], [1.0, 3.0])
    r = kl(p, q)
    # q/Z is exactly (0.25, 0.75) so the KL part is plain Bernoulli KL.
    oracle = 0.25 * math.log(0.25 / 0.25) + 0.75 * math.log(0.75 / 0.75)
    assert r.kl_nats == pytest.approx(
        0.75 * math.log(0.75 / 0.75) + 0.25 * math.log(0.25 / 0.25) + oracle, abs=1e-12
    )
    assert r.log_partition == pytest.approx(math.log(4.0), abs=1e-15)


def test_kl_divergent_flag_keeps_finite_part():
    p = bernoulli(0.5)
    q = bernoulli(0.0)  # q(a=1) = 0 while p(a=1) > 0
    r = kl(p, q)
    assert r.divergent
    assert r.kl_nats == pytest.approx(0.5 * math.log(0.5 / 1.0), abs=1e-12)
    assert math.isinf(r.value)


def test_kl_zero_p_mass_ignores_q():
    p = bernoulli(0.0)
    q = bernoulli(0.0)
    r = kl(p, q)
    assert not r.divergent
    assert r.kl_nats == 0.0


def test_kl_requires_matching_scope():
    with pytest.raises(ValidationError):
        kl(bernoulli(0.5, "a"), bernoulli(0.5, "b"))


def test_expected_conditional_kl_matches_loop_oracle():
    rng = np.random.default_rng(3)
    p_probs = rng.random((2, 3))
    p_probs /= p_probs.sum()
    q_probs = rng.random((2, 3))
    q_probs /= q_probs.sum()
    scope = [Variable("a", 2, Role.PAST_INPUT), Variable("b", 3, Role.ACTION)]
    p, q = Table(scope, p_probs), Table(scope, q_probs)

    oracle = 0.0
    for i in range(2):
        pa = p_probs[i].sum()
        qa = q_probs[i].sum()
        for j in range(3):
            pb = p_probs[i, j] / pa
            qb = q_probs[i, j] / qa
            if pb > 0:
                oracle += p_probs[i, j] * math.log(pb / qb)
    r = expected_conditional_kl(p, q, ["b"], ["a"])
    assert r.kl_nats == pytest.approx(oracle, abs=1e-12)
    assert not r.divergent


@pytest.mark.parametrize("kind", [Table, UnnormalizedTable])
def test_log_conditional_of_no_targets_is_zero_everywhere(kind):
    # b = 1 has no mass, so ln m(b) is -inf there; ln m(() | b) is still ln 1.
    scope = [Variable("a", 2, Role.PAST_INPUT), Variable("b", 2, Role.LATENT_STATE)]
    weights = np.array([[0.25, 0.0], [0.75, 0.0]])
    table = kind(scope, weights if kind is Table else 3.0 * weights)
    out = np.broadcast_to(log_conditional(table, (), ("b",)), (2, 2))
    assert np.array_equal(out, np.zeros((2, 2)))


def test_expected_log_masks_unreached_outcomes_and_flags_reached_ones():
    p = binary_pair([[0.5, 0.25], [0.25, 0.0]])
    finite = np.log([[0.1, 0.2], [0.3, 0.4]])
    value, divergent = expected_log(p, finite)
    expected = 0.5 * math.log(0.1) + 0.25 * math.log(0.2) + 0.25 * math.log(0.3)
    assert value == pytest.approx(expected)
    assert not divergent

    unreached = finite.copy()
    unreached[1, 1] = -math.inf
    assert expected_log(p, unreached) == (value, False)

    reached = finite.copy()
    reached[0, 1] = -math.inf
    value, divergent = expected_log(p, reached)
    assert value == pytest.approx(0.5 * math.log(0.1) + 0.25 * math.log(0.3))
    assert divergent


# --- mutual information ------------------------------------------------------


def test_mi_independent_is_zero():
    t = binary_pair(np.outer([0.3, 0.7], [0.6, 0.4]))
    assert mutual_information(t, ["a"], ["b"]) == pytest.approx(0.0, abs=1e-12)


def test_mi_perfect_correlation_is_ln2():
    t = binary_pair([[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(t, ["a"], ["b"]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_mi_symmetry_and_loop_oracle():
    rng = np.random.default_rng(11)
    probs = rng.random((2, 2))
    probs /= probs.sum()
    t = binary_pair(probs)
    pa = probs.sum(axis=1)
    pb = probs.sum(axis=0)
    oracle = 0.0
    for i in range(2):
        for j in range(2):
            if probs[i, j] > 0:
                oracle += probs[i, j] * math.log(probs[i, j] / (pa[i] * pb[j]))
    assert mutual_information(t, ["a"], ["b"]) == pytest.approx(oracle, abs=1e-12)
    assert mutual_information(t, ["b"], ["a"]) == pytest.approx(oracle, abs=1e-12)


def test_mi_of_point_mass_variable_is_zero():
    # A deterministic variable carries no information about anything.
    t = binary_pair([[0.4, 0.0], [0.6, 0.0]])
    assert mutual_information(t, ["a"], ["b"]) == pytest.approx(0.0, abs=1e-12)
    assert entropy(t, ["b"]) == 0.0


# --- variational MI bound ----------------------------------------------------


def test_variational_bound_tight_at_exact_decoder():
    rng = np.random.default_rng(5)
    probs = rng.random((2, 2))
    probs /= probs.sum()
    t = binary_pair(probs)
    # Exact decoder p(a | b): bound equals the mutual information.
    pb = probs.sum(axis=0)
    dec = (probs / pb[None, :]).T  # indexed (b, a)
    bound = variational_mi_lower_bound(t, dec, ["a"], ["b"])
    assert bound == pytest.approx(mutual_information(t, ["a"], ["b"]), abs=1e-12)


def test_variational_bound_gap_is_expected_conditional_kl():
    rng = np.random.default_rng(9)
    probs = rng.random((2, 2))
    probs /= probs.sum()
    t = binary_pair(probs)
    dec = np.asarray([[0.8, 0.2], [0.35, 0.65]])
    bound = variational_mi_lower_bound(t, dec, ["a"], ["b"])
    mi = mutual_information(t, ["a"], ["b"])
    # gap = E_{p(b)} KL[p(a|b) || dec(a|b)]
    gap = 0.0
    pb = probs.sum(axis=0)
    for j in range(2):
        for i in range(2):
            pab = probs[i, j] / pb[j]
            if pab > 0:
                gap += probs[i, j] * math.log(pab / dec[j, i])
    assert mi - bound == pytest.approx(gap, abs=1e-12)
    assert bound <= mi + 1e-12


def test_variational_bound_is_minus_inf_where_decoder_misses_support():
    t = binary_pair([[0.25, 0.25], [0.25, 0.25]])
    # dec(a=1 | b=0) = 0, yet p(a=1, b=0) > 0.
    dec = np.asarray([[1.0, 0.0], [0.5, 0.5]])
    assert variational_mi_lower_bound(t, dec, ["a"], ["b"]) == -math.inf


def test_variational_bound_validates_decoder_normalization():
    t = binary_pair([[0.25, 0.25], [0.25, 0.25]])
    with pytest.raises(ValidationError):
        variational_mi_lower_bound(t, np.asarray([[0.9, 0.2], [0.5, 0.5]]), ["a"], ["b"])


# --- properties ---------------------------------------------------------------


def random_tables(max_card=3, n_vars=2):
    def build(draw_vals):
        cards, flat = draw_vals
        shape = tuple(cards)
        arr = np.asarray(flat[: int(np.prod(shape))], dtype=float).reshape(shape)
        arr = arr + 1e-9
        arr /= arr.sum()
        scope = [
            Variable(f"v{i}", c, Role.LATENT_STATE if i % 2 else Role.PAST_INPUT)
            for i, c in enumerate(cards)
        ]
        return Table(scope, arr)

    cards = st.lists(st.integers(2, max_card), min_size=n_vars, max_size=n_vars)
    flat = st.lists(st.floats(0.01, 1.0), min_size=max_card**n_vars, max_size=max_card**n_vars)
    return st.tuples(cards, flat).map(build)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_tables(), random_tables())
def test_property_kl_nonnegative_and_zero_iff_equal(p, q):
    if p.probs.shape != q.probs.shape:
        return
    q = Table(p.scope, q.probs)
    r = kl(p, q)
    assert r.kl_nats >= -1e-12
    assert kl(p, p).kl_nats == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_tables())
def test_property_mi_bounded_by_entropies(t):
    names = list(t.names)
    mi = mutual_information(t, [names[0]], [names[1]])
    assert -1e-12 <= mi <= min(entropy(t, [names[0]]), entropy(t, [names[1]])) + 1e-10


@st.composite
def layouts(draw):
    """A scope of 1-5 variables with cardinalities 1-4, and some of its
    names in a random order."""
    cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    scope = tuple(Variable(f"v{i}", c, Role.LATENT_STATE) for i, c in enumerate(cards))
    order = draw(st.permutations([v.name for v in scope]))
    return scope, tuple(order[: draw(st.integers(0, len(scope)))])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(layouts())
def test_property_layout_places_like_a_transpose_and_reshape(case):
    scope, names = case
    card = {v.name: v.cardinality for v in scope}
    arr = np.arange(math.prod(card[n] for n in names), dtype=float)
    arr = arr.reshape([card[n] for n in names])
    order = [v.name for v in scope]
    perm = sorted(range(len(names)), key=lambda i: order.index(names[i]))
    shape = [v.cardinality if v.name in names else 1 for v in scope]
    want = np.transpose(arr, perm).reshape(shape)
    assert np.array_equal(_Layout(names, scope).place(arr), want)
