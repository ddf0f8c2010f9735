import csv
import json
import math
import random
import re
import tempfile
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cumulative_table, dense_numerators, flatten, sample_column
from zecomm import reference
from zecomm.behaviors import make_extremal_box, make_rtilde_box
from zecomm.channels import (
    Channel,
    IndexSpace,
    _sampling_table,
    channel_from_json,
    channel_to_json,
    identity_channel,
    make_channel,
    make_mm,
    make_nm,
    pi_perm,
    tensor_channels,
)
from zecomm.cli import _write_csv_channel
from zecomm.graphs import confusability_graph, zero_error_capacity_oneshot
from zecomm.protocols import (
    best_unassisted_success,
    make_theorem2_protocol,
    make_theorem3_protocol,
    monte_carlo_success,
    per_message_success,
)


# --- reference: the per-entry rule builder -------------------------------------
# Every entry is computed by a callback on (output label, input label), as the
# package built its channels before the integer tables; the tests below compare
# the builders with it entry by entry.

def rule_matrix(input_space, output_space, entry):
    return [[Fraction(entry(o, i)) for o in output_space.labels()] for i in input_space.labels()]


def reference_nm(m):
    omega = Fraction(1, m + 1)

    def o2_of(o1, i1, i2):
        if o1 == 1:
            return i1
        if o1 == 2:
            return i2
        return (i1 + pi_perm(m, o1 - 3, i2)) % m

    def entry(out_label, in_label):
        (o1, o2), (i1, i2) = out_label, in_label
        return omega if o2 == o2_of(o1, i1, i2) else 0

    return rule_matrix(IndexSpace((2, m)), IndexSpace((m + 1, m), offsets=(1, 0)), entry)


def reference_mm(m):
    n_first = m * (m - 1) + 1
    omega = Fraction(1, n_first)

    def o2_of(o1, i1, i2):
        if o1 == 1:
            return i1
        j, shift = divmod(o1 - 2, m - 1)
        flip = 1 if (j != 0 and i1 == j) else 0
        return (i1 + pi_perm(m, shift, i2 ^ flip)) % m

    def entry(out_label, in_label):
        (o1, o2), (i1, i2) = out_label, in_label
        return omega if o2 == o2_of(o1, i1, i2) else 0

    return rule_matrix(IndexSpace((m, 2)), IndexSpace((n_first, m), offsets=(1, 0)), entry)


def reference_tensor(c1, ref1, c2, ref2):
    """Tensor product of channels ``c1``, ``c2`` (alphabets only) whose
    entries are the reference matrices ``ref1``, ``ref2``."""
    def space(s1, s2):
        return IndexSpace(s1.factors + s2.factors, s1.offsets + s2.offsets)

    k_out, k_in = len(c1.output_space.factors), len(c1.input_space.factors)

    def entry(out_label, in_label):
        i1, i2 = flatten(c1.input_space, in_label[:k_in]), flatten(c2.input_space, in_label[k_in:])
        o1, o2 = flatten(c1.output_space, out_label[:k_out]), flatten(c2.output_space, out_label[k_out:])
        return ref1[i1][o1] * ref2[i2][o2]

    return rule_matrix(space(c1.input_space, c2.input_space), space(c1.output_space, c2.output_space), entry)


def table(c):
    return [[c.prob(o, i) for o in range(c.n_outputs)] for i in range(c.n_inputs)]


def prob_of_labels(c, out_label, in_label):
    return c.prob(flatten(c.output_space, out_label), flatten(c.input_space, in_label))


def unflatten(space, flat):
    """The label at flat index ``flat`` of ``space``, the inverse of ``flatten``."""
    label = []
    for factor in reversed(space.factors):
        flat, rem = divmod(flat, factor)
        label.append(rem)
    return tuple(v + off for v, off in zip(reversed(label), space.offsets))


def draw(c, input_flat, seed):
    """One output of ``c`` for ``input_flat``, drawn as Monte-Carlo sampling
    draws a channel output."""
    indices, bounds = _sampling_table(*c.columns[input_flat], c.denominator)
    return indices[bisect_right(bounds, random.Random(seed).getrandbits(64))]


@pytest.mark.parametrize("m", range(2, 13))
def test_nm_matches_rule_reference(m):
    c = make_nm(m)
    assert c.input_space == IndexSpace((2, m))
    assert c.output_space == IndexSpace((m + 1, m), offsets=(1, 0))
    assert table(c) == reference_nm(m)


@pytest.mark.parametrize("m", range(2, 13))
def test_mm_matches_rule_reference(m):
    c = make_mm(m)
    assert c.input_space == IndexSpace((m, 2))
    assert c.output_space == IndexSpace((m * (m - 1) + 1, m), offsets=(1, 0))
    assert table(c) == reference_mm(m)


def test_identity_matches_rule_reference():
    for n in (1, 2, 5):
        space = IndexSpace((n,))
        assert table(identity_channel(n)) == rule_matrix(space, space, lambda o, i: 1 if o == i else 0)


@pytest.mark.parametrize("family, reference_of", [(make_nm, reference_nm), (make_mm, reference_mm)])
def test_tensor_matches_rule_reference(family, reference_of):
    m = 2 if family is make_nm else 3
    c = family(m)
    prod = tensor_channels(c, c)
    assert prod.n_inputs == c.n_inputs**2 and prod.n_outputs == c.n_outputs**2
    assert table(prod) == reference_tensor(c, reference_of(m), c, reference_of(m))


def test_nm_mm_tensor_matches_rule_reference():
    nm3, mm3 = make_nm(3), make_mm(3)
    prod = tensor_channels(nm3, mm3)
    assert prod.n_inputs == 6 * 6 and prod.n_outputs == 12 * 21
    assert table(prod) == reference_tensor(nm3, reference_nm(3), mm3, reference_mm(3))
    assert prod.supports == tuple(tuple(o for o in range(prod.n_outputs) if column[o]) for column in dense_numerators(prod))


def test_index_space_roundtrip():
    space = IndexSpace((4, 3), offsets=(1, 0))
    assert space.size == 12
    for flat in range(space.size):
        assert flatten(space, unflatten(space, flat)) == flat
    assert unflatten(space, 0) == (1, 0)


@pytest.mark.parametrize("factors, offsets", [((4, 1, 3), None), ((1,), (5,)), ((4, 3), (1, 0)),
                                              ((2, 3, 2), (1, 0, 7)), ((), ())],
                         ids=["factor-1", "one-factor-offset", "offsets", "three-offsets", "empty"])
def test_index_space_labels_follow_the_flat_order(factors, offsets):
    space = IndexSpace(factors, offsets)
    assert list(space.labels()) == [unflatten(space, i) for i in range(space.size)]


def test_pi_perm_values_and_bijection():
    assert pi_perm(3, 1, 1) == 2
    assert pi_perm(3, 1, 2) == 1
    for m in range(2, 9):
        for shift in range(m - 1):
            assert pi_perm(m, shift, 0) == 0
            image = {pi_perm(m, shift, i2) for i2 in range(m)}
            assert image == set(range(m))
    with pytest.raises(ValueError):
        pi_perm(3, 2, 0)
    with pytest.raises(ValueError):
        pi_perm(3, 0, 3)


def test_nm3_matches_reference_matrix():
    c = make_nm(3)
    for out_label in c.output_space.labels():
        support = set(map(tuple, reference.NM3_SUPPORT.get(out_label, [])))
        for in_label in c.input_space.labels():
            expect = reference.NM3_WEIGHT if in_label in support else Fraction(0)
            assert prob_of_labels(c, out_label, in_label) == expect


def test_mm3_matches_reference_matrix():
    c = make_mm(3)
    for out_label in c.output_space.labels():
        support = set(map(tuple, reference.MM3_SUPPORT.get(out_label, [])))
        for in_label in c.input_space.labels():
            expect = reference.MM3_WEIGHT if in_label in support else Fraction(0)
            assert prob_of_labels(c, out_label, in_label) == expect


@pytest.mark.parametrize("m", range(2, 9))
def test_nm_column_structure(m):
    c = make_nm(m)
    assert c.n_inputs == 2 * m
    assert c.n_outputs == (m + 1) * m
    for i in range(c.n_inputs):
        nonzero = [v for v in (c.prob(o, i) for o in range(c.n_outputs)) if v]
        assert len(nonzero) == m + 1
        assert all(v == Fraction(1, m + 1) for v in nonzero)


@pytest.mark.parametrize("m", range(2, 7))
def test_mm_column_and_row_structure(m):
    c = make_mm(m)
    n_first = m * (m - 1) + 1
    for i in range(c.n_inputs):
        nonzero = [v for v in (c.prob(o, i) for o in range(c.n_outputs)) if v]
        assert len(nonzero) == n_first
        assert all(v == Fraction(1, n_first) for v in nonzero)
    for o in range(c.n_outputs):
        hitters = [i for i in range(c.n_inputs) if c.prob(o, i)]
        assert len(hitters) == 2


def test_n2_equals_m2_up_to_output_relabeling():
    n2, m2 = make_nm(2), make_mm(2)
    assert n2.n_inputs == m2.n_inputs == 4
    rows_n = sorted(tuple(n2.prob(o, i) for i in range(4)) for o in range(n2.n_outputs))
    rows_m = sorted(tuple(m2.prob(o, i) for i in range(4)) for o in range(m2.n_outputs))
    assert rows_n == rows_m


def test_make_channel_validates():
    space = IndexSpace((2,))
    with pytest.raises(ValueError):
        make_channel([[Fraction(1, 2), Fraction(1, 4)], [0, 1]], space, space)
    c = identity_channel(3)
    assert Channel(c.input_space, c.output_space, c.columns, c.denominator) == c


@pytest.mark.parametrize("column0, refusal", [
    (((0, 1), (1, 0.0)), "non-rational numerator at column 0"),
    (((0, 1), (1, False)), "non-rational numerator at column 0"),
    (((0, 1), (True, 0)), "non-rational numerator at column 0"),
    (((0, 1), (2, -1)), "negative entry at column 0"),
    ([1], "column 0 has wrong length"),
], ids=["float-zero", "bool-zero", "bool-one", "negative", "short"])
def test_dense_channel_refusals(column0, refusal):
    # the constructor checks every numerator given, zeros included; a short
    # dense column is refused by make_channel, the dense builder
    space = IndexSpace((2,))
    with pytest.raises(ValueError, match=f"^invalid channel: {refusal}$"):
        if refusal.endswith("wrong length"):
            make_channel([column0, [0, 1]], space, space)
        else:
            Channel(space, space, [column0, ((1,), (1,))])


def test_dense_channel_reports_every_faulty_column_in_order():
    space = IndexSpace((3,))
    refusal = ("invalid channel: non-rational numerator at column 0; negative entry at column 1; "
               "normalization violated at column 2: sum=1/2")
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        Channel(space, space, [((0, 1), (0.0, 1)), ((0, 1), (2, -1)), ((2,), (Fraction(1, 2),))])
    with pytest.raises(ValueError, match="^invalid channel: column count does not match input space$"):
        Channel(space, space, [((0,), (1,)), ((1,), (1,))])


@pytest.mark.parametrize("columns", [
    [((1, 0), (0, 1)), ((1,), (1,))],
    [((0, 0), (1, 0)), ((1,), (1,))],
    [((0, 2), (1, 0)), ((1,), (1,))],
    [((-1,), (1,)), ((1,), (1,))],
    [((0, 1), (1,)), ((1,), (1,))],
], ids=["decreasing", "repeated", "beyond", "negative", "unpaired"])
def test_sparse_core_refuses_outputs_that_are_not_increasing_and_in_range(columns):
    space = IndexSpace((2,))
    refusal = "invalid channel: column 0 does not give one numerator per output, the outputs increasing in 0..1"
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        Channel(space, space, columns)


def test_sparse_core_checks_the_column_count_and_the_given_numerators():
    space = IndexSpace((2,))
    with pytest.raises(ValueError, match="^invalid channel: column count does not match input space$"):
        Channel(space, space, [((0,), (1,))])
    with pytest.raises(ValueError, match="^invalid channel: non-rational numerator at column 1$"):
        Channel(space, space, [((0,), (1,)), ((1,), (True,))])
    c = Channel(space, space, [((0, 1), (2, 2)), ((1,), (4,))], 4)
    assert c == make_channel([["1/2", "1/2"], [0, 1]], space, space)
    assert c.denominator == 2 and dense_numerators(c) == [[1, 1], [0, 2]] and c.supports == ((0, 1), (1,))


@pytest.mark.parametrize("column0", [(0, 1), ((0,), (1,), ()), "ab", (0, (1,)), ((0.0,), (1,)), ((True,), (1,)),
                                     (("0",), (1,))],
                         ids=["ints", "triple", "string", "int-outputs", "float-output", "bool-output", "str-output"])
def test_sparse_core_refuses_a_column_that_is_not_a_pair_or_has_non_int_outputs(column0):
    space = IndexSpace((2,))
    refusal = "invalid channel: column 0 is not an (outputs, numerators) pair of tuples or lists with int outputs"
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        Channel(space, space, [column0, ((1,), (1,))])


@pytest.mark.parametrize("build, refusal", [
    (lambda: Channel((2,), IndexSpace((2,)), [((0,), (1,)), ((1,), (1,))]),
     "invalid channel: input_space (2,) is not an IndexSpace"),
    (lambda: Channel(IndexSpace((2,)), IndexSpace((2,)), 5), "invalid channel: columns 5 are not a tuple or list"),
    (lambda: IndexSpace([2]), "factors [2] and offsets (0,) must be tuples of ints"),
    (lambda: IndexSpace((2,), [0]), "factors (2,) and offsets [0] must be tuples of ints"),
], ids=["space-not-index-space", "columns-not-a-sequence", "factors-list", "offsets-list"])
def test_constructors_refuse_malformed_arguments_by_name(build, refusal):
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        build()


@pytest.mark.parametrize("build, name, value", [
    (make_nm, "m", True),
    (make_nm, "m", 2.0),
    (make_mm, "m", 3.0),
    (make_mm, "m", "3"),
    (identity_channel, "n", True),
    (identity_channel, "n", 2.0),
], ids=["nm-bool", "nm-float", "mm-float", "mm-string", "identity-bool", "identity-float"])
def test_family_builders_refuse_a_size_that_is_not_an_int(build, name, value):
    # as the box builders do; True would pass for 1 and 2.0 reach the alphabet
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        build(value)


@pytest.mark.parametrize("output_flat, input_flat, refusal", [
    (-1, 0, "channel output index -1 is not an int in 0..11"),
    (12, 0, "channel output index 12 is not an int in 0..11"),
    (True, 0, "channel output index True is not an int in 0..11"),
    (1.0, 0, "channel output index 1.0 is not an int in 0..11"),
    (0, -1, "channel input index -1 is not an int in 0..5"),
    (0, 6, "channel input index 6 is not an int in 0..5"),
    (0, False, "channel input index False is not an int in 0..5"),
], ids=["output-negative", "output-past-end", "output-bool", "output-float", "input-negative", "input-past-end",
        "input-bool"])
def test_prob_refuses_an_index_that_is_not_an_int_in_range(output_flat, input_flat, refusal):
    # Python's negative indexing would read the last output's entry for -1
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        make_nm(3).prob(output_flat, input_flat)


def csv_cells(c) -> list[list[str]]:
    """The probability cells of ``c``'s CSV export, as ``[output][input]``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        _write_csv_channel(c, str(path), channel_to_json(c)["matrix"])
        with open(path, newline="") as fh:
            return [row[1:] for row in list(csv.reader(fh))[1:]]


#: what a channel keeps: its fields and its supports, and no dense view
CHANNEL_FIELDS = {"input_space", "output_space", "columns", "denominator", "supports"}


def test_the_package_never_builds_the_dense_view():
    mm12, nm5 = make_mm(12), make_nm(5)
    for c, scheme, box in ((mm12, make_theorem3_protocol(12), make_rtilde_box(12)),
                           (nm5, make_theorem2_protocol(5), make_extremal_box(5, 5))):
        confusability_graph(c)
        zero_error_capacity_oneshot(c)
        assert per_message_success(c, box, scheme) == [1] * scheme.message_count
        assert monte_carlo_success(c, box, scheme, 50, 1) == (1.0, 0.0)
        best_unassisted_success(c, 2)
        channel_to_json(c)
        csv_cells(c)
    prod = tensor_channels(mm12, nm5)
    assert (nm5.prob(0, 0), nm5.prob(1, 0), nm5.prob(29, 0)) == (Fraction(1, 6), 0, 0)  # one read, no table kept
    for c in (mm12, nm5, prod):
        assert set(vars(c)) == CHANNEL_FIELDS


@st.composite
def sparse_channels(draw, tensor=True):
    """``(c, reference)``: a channel built from random sparse columns over a
    random denominator, or (when ``tensor``) the product of two, and its
    table as ``reference[input][output]`` Fractions, written entry by entry."""
    if tensor and draw(st.booleans()):
        (c1, ref1), (c2, ref2) = draw(sparse_channels(tensor=False)), draw(sparse_channels(tensor=False))
        reference = [[v1 * v2 for v1 in col1 for v2 in col2] for col1 in ref1 for col2 in ref2]
        return tensor_channels(c1, c2), reference
    n_in, n_out, denominator = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 30))
    columns, reference = [], []
    for _ in range(n_in):
        outputs = sorted(draw(st.sets(st.integers(0, n_out - 1), min_size=1)))  # one output now and then
        weights = draw(st.lists(st.integers(1, 5), min_size=len(outputs), max_size=len(outputs)))
        numerators = [Fraction(w * denominator, sum(weights)) for w in weights]
        columns.append((outputs, numerators))
        column = [Fraction(0)] * n_out
        for o, v in zip(outputs, numerators):
            column[o] = v / denominator
        reference.append(column)
    return Channel(IndexSpace((n_in,)), IndexSpace((n_out,)), columns, denominator), reference


@settings(max_examples=150, deadline=None)
@given(sparse_channels())
def test_sparse_reads_match_a_per_entry_dense_reference(case):
    c, reference = case
    text = [[f"{v.numerator}/{v.denominator}" for v in column] for column in reference]
    assert channel_to_json(c)["matrix"] == text
    assert csv_cells(c) == [list(row) for row in zip(*text)]
    assert table(c) == reference
    assert set(vars(c)) == CHANNEL_FIELDS


@st.composite
def random_channels(draw):
    """A channel of small integer weights on up to 8 inputs and outputs, as
    the graph and protocol tests draw them."""
    n_in, n_out = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    columns = [draw(st.lists(st.integers(0, 3), min_size=n_out, max_size=n_out).filter(any)) for _ in range(n_in)]
    return make_channel([[Fraction(w, sum(column)) for w in column] for column in columns],
                        IndexSpace((n_in,)), IndexSpace((n_out,)))


@settings(max_examples=100, deadline=None)
@given(random_channels(), st.integers(2, 10**12))
def test_equal_tables_build_equal_channels_whatever_their_form(c, k):
    same = Channel(c.input_space, c.output_space, c.columns, c.denominator)
    scaled = Channel(c.input_space, c.output_space,
                     [(outputs, [k * w for w in numerators]) for outputs, numerators in c.columns], k * c.denominator)
    with_zeros = Channel(c.input_space, c.output_space,
                         [(list(range(c.n_outputs)), column) for column in dense_numerators(c)], c.denominator)
    dense = make_channel([[f"{w}/{c.denominator}" for w in column] for column in dense_numerators(c)],
                         c.input_space, c.output_space)
    for other in (same, scaled, with_zeros, dense):
        assert other == c and hash(other) == hash(c)
        assert other.columns == c.columns and other.supports == c.supports
    assert all(0 not in numerators for _, numerators in c.columns)
    assert all(support is outputs for support, (outputs, _) in zip(c.supports, c.columns))


def test_make_channel_refuses_a_bool_after_an_equal_int():
    # True == 1 and both hash alike: the parse of the 1 must not be reused for True
    space = IndexSpace((2,))
    with pytest.raises(ValueError, match="^probability True is a bool, not a number$"):
        make_channel([[1, 0], [True, 0]], space, space)
    with pytest.raises(ValueError, match="^probability False is a bool, not a number$"):
        make_channel([[1, 0], [1, False]], space, space)


@pytest.mark.parametrize("make", [make_nm, make_mm])
@pytest.mark.parametrize("m", range(2, 9))
def test_family_json_roundtrip(make, m):
    c = make(m)
    assert channel_from_json(channel_to_json(c)) == c


def test_tensor_json_roundtrip():
    prod = tensor_channels(make_nm(2), make_mm(3))
    again = channel_from_json(json.loads(json.dumps(channel_to_json(prod))))
    assert again == prod and again.supports == prod.supports


def test_tensor_channels():
    eye = identity_channel(2)
    prod = tensor_channels(eye, eye)
    assert prod.n_inputs == prod.n_outputs == 4
    for i in range(4):
        assert prod.prob(i, i) == 1
    double = tensor_channels(make_nm(2), make_nm(2))
    assert prob_of_labels(double, (1, 0, 1, 0), (0, 0, 0, 0)) == Fraction(1, 9)
    assert Channel(double.input_space, double.output_space, double.columns, double.denominator) == double


def test_sample_output_identity_and_determinism():
    eye = identity_channel(8)
    assert draw(eye, 5, seed=123) == 5
    c = make_nm(3)
    draws = [draw(c, 0, seed=s) for s in range(50)]
    assert draws == [draw(c, 0, seed=s) for s in range(50)]
    # literal draws pin the sampler's use of the seeded stream
    assert draws[:20] == [3, 6, 9, 6, 3, 3, 6, 9, 3, 6, 0, 9, 3, 3, 6, 0, 3, 3, 0, 0]
    assert [draw(make_mm(4), 5, seed=s) for s in range(20)] == [
        20, 30, 44, 30, 13, 13, 30, 49, 19, 30, 2, 44, 13, 13, 34, 8, 25, 20, 7, 2]


def test_sample_output_frequencies():
    c = make_nm(3)
    support = set(c.supports[0])
    assert len(support) == 4
    counts = {o: 0 for o in support}
    trials = 4000
    for s in range(trials):
        counts[draw(c, 0, seed=s)] += 1
    for o in support:
        assert abs(counts[o] / trials - 0.25) < 0.03


class FixedBits:
    """A stand-in rng whose every 64-bit draw is ``r``."""

    def __init__(self, r):
        self.r = r

    def getrandbits(self, k):
        return self.r


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**30), min_size=1, max_size=12).filter(any), st.integers(0, 10**30))
def test_threshold_draw_matches_multiply_and_compare(column, shortfall):
    # a column summing to less than its denominator checks the last entry's
    # catch-all bound against the reference's clamp
    denominator = sum(column) + shortfall
    indices, bounds = _sampling_table(range(len(column)), column, denominator)
    reference = cumulative_table(column, denominator)
    keys = {0, 2**64 - 1}
    keys.update(k for bound in bounds if bound != math.inf for k in (bound - 1, bound) if 0 <= k < 2**64)
    for r in keys:
        assert indices[bisect_right(bounds, r)] == sample_column(reference, FixedBits(r))


def test_float_table_past_the_rounded_total_draws_the_last_positive_entry():
    column = [0.1] * 10 + [0.0]
    rounded_total = sum(column)
    assert rounded_total < 1.0
    indices, bounds = _sampling_table(range(len(column)), column)
    for key in (math.nextafter(rounded_total, 1.0), math.nextafter(1.0, 0.0)):
        assert indices[bisect_right(bounds, key)] == 9
    assert _sampling_table(range(2), [0, 0.0]) == ([0], [math.inf])
    assert _sampling_table(range(2), [0, 0], 5) == ([0], [math.inf])


def test_channel_json_roundtrip():
    c = make_mm(3)
    again = channel_from_json(channel_to_json(c))
    assert again == c


# channel_to_json output recorded while channels still carried a mode field
NM2_JSON = (
    '{"inputs": {"factors": [2, 2], "offsets": [0, 0]}, "outputs": {"factors": [3, 2], "offsets": [1, 0]}, '
    '"mode": "rational", "matrix": [["1/3", "0/1", "1/3", "0/1", "1/3", "0/1"], '
    '["1/3", "0/1", "0/1", "1/3", "0/1", "1/3"], ["0/1", "1/3", "1/3", "0/1", "0/1", "1/3"], '
    '["0/1", "1/3", "0/1", "1/3", "1/3", "0/1"]]}'
)


def test_channel_json_matches_recorded_output():
    assert json.dumps(channel_to_json(make_nm(2))) == NM2_JSON
    assert channel_from_json(json.loads(NM2_JSON)) == make_nm(2)


def test_channel_json_refuses_other_modes():
    data = channel_to_json(identity_channel(2))
    data["mode"] = "float"
    data["matrix"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="channel mode 'float'"):
        channel_from_json(data)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 7))
def test_nm_column_stochastic_property(m):
    c = make_nm(m)
    for i in range(c.n_inputs):
        assert sum(c.prob(o, i) for o in range(c.n_outputs)) == 1
