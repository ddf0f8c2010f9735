import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import flatten
from zecomm import reference
from zecomm.channels import (
    IndexSpace,
    _sample_column,
    _sampling_table,
    channel_from_json,
    channel_to_json,
    identity_channel,
    make_channel,
    make_mm,
    make_nm,
    mm_block_anchor,
    mm_block_of,
    pi_hat,
    pi_perm,
    tensor_channels,
    validate_channel,
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
        j = mm_block_of(m, o1)
        shift = o1 - mm_block_anchor(m, j)
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
    return _sample_column(_sampling_table(c.weights[input_flat], c.denominator), random.Random(seed))


@pytest.mark.parametrize("m", range(2, 9))
def test_nm_matches_rule_reference(m):
    c = make_nm(m)
    assert c.input_space == IndexSpace((2, m))
    assert c.output_space == IndexSpace((m + 1, m), offsets=(1, 0))
    assert table(c) == reference_nm(m)


@pytest.mark.parametrize("m", range(2, 7))
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


def test_pi_hat():
    assert pi_hat(3, 0) == 0
    assert pi_hat(3, 1) == 2
    assert pi_hat(5, 3) == 2
    for m in range(2, 8):
        for u in range(m):
            assert (u + pi_hat(m, u)) % m == 0
    with pytest.raises(ValueError):
        pi_hat(3, 3)


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


def test_block_helpers():
    assert mm_block_anchor(3, 0) == 2
    assert mm_block_anchor(3, 2) == 6
    assert mm_block_of(3, 2) == 0
    assert mm_block_of(3, 5) == 1
    assert mm_block_of(3, 7) == 2


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
    assert validate_channel(c) == []


def test_tensor_channels():
    eye = identity_channel(2)
    prod = tensor_channels(eye, eye)
    assert prod.n_inputs == prod.n_outputs == 4
    for i in range(4):
        assert prod.prob(i, i) == 1
    double = tensor_channels(make_nm(2), make_nm(2))
    assert prob_of_labels(double, (1, 0, 1, 0), (0, 0, 0, 0)) == Fraction(1, 9)
    assert validate_channel(double) == []


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
