"""The contract of the package's value types: the literal repr, equality by
the compared fields only, hashing, keyword construction with the field
defaults, refused assignment and deletion, the instance ``vars()`` and
pickling.  ``verify.Check``, the one record that is not a frozen value type,
is a named tuple and has its own tests at the end."""

import pickle

import pytest

from zecomm.behaviors import Behavior, Scenario, make_extremal_box
from zecomm.channels import Channel, IndexSpace, make_mm, make_nm
from zecomm.graphs import (
    ConfusabilityGraph,
    confusability_graph,
    cycle_graph,
    graph_from_edges,
    strong_product,
)
from zecomm.numeric import FLOAT, RATIONAL
from zecomm.protocols import AssistedProtocol
from zecomm.quantum import QuantumModel, make_i3322_model
from zecomm.verify import Check


def _channel(denominator=2):
    return Channel(input_space=IndexSpace((2,)), output_space=IndexSpace((2,)),
                   columns=[((0,), (denominator,)), ((0, 1), (1, denominator - 1))], denominator=denominator)


def _behavior(mode=RATIONAL):
    if mode == RATIONAL:
        return Behavior(scenario=Scenario(1, 1, 2, 1), mode=mode, weights=[[[[1], [1]]]], denominator=2)
    return Behavior(scenario=Scenario(1, 1, 2, 1), mode=mode, weights=[[[[0.5], [0.5]]]])


def _protocol(guess=0):
    return AssistedProtocol(message_count=2, enc_box_input=(0, 1), enc_channel_input={(0, 0): 0},
                            decoder=((None, (guess,)),))


def _quantum(p=1.0):
    return QuantumModel(state=((1,),), alice_meas=((((1,),),),), bob_meas=((((p,),), ((1 - p,),)),))


#: (name, build, build a value that differs in one compared field, repr, vars keys in order)
CASES = [
    ("IndexSpace", lambda: IndexSpace(factors=(2, 3)), lambda: IndexSpace((2, 3), (1, 0)),
     "IndexSpace(factors=(2, 3), offsets=(0, 0))", ["factors", "offsets"]),
    ("Channel", _channel, lambda: _channel(3),
     "Channel(input_space=IndexSpace(factors=(2,), offsets=(0,)), output_space=IndexSpace(factors=(2,), "
     "offsets=(0,)), columns=(((0,), (2,)), ((0, 1), (1, 1))), denominator=2)",
     ["input_space", "output_space", "columns", "denominator", "supports"]),
    ("Scenario", lambda: Scenario(x_card=2, y_card=3, a_card=2, b_card=2), lambda: Scenario(2, 3, 2, 3),
     "Scenario(x_card=2, y_card=3, a_card=2, b_card=2)", ["x_card", "y_card", "a_card", "b_card"]),
    ("Behavior", _behavior, lambda: _behavior(FLOAT),
     "Behavior(scenario=Scenario(x_card=1, y_card=1, a_card=2, b_card=1), mode='rational', "
     "weights=((((1,), (1,)),),), denominator=2)",
     ["scenario", "mode", "weights", "denominator", "alice"]),
    ("ConfusabilityGraph", lambda: ConfusabilityGraph(vertex_count=3, adjacency=(2, 5, 2)),
     lambda: ConfusabilityGraph(3, (2, 5, 2), ("a", "b", "c")),
     "ConfusabilityGraph(vertex_count=3, adjacency=(2, 5, 2), labels=None)",
     ["vertex_count", "adjacency", "labels"]),
    ("AssistedProtocol", _protocol, lambda: _protocol(1),
     "AssistedProtocol(message_count=2, enc_box_input=(0, 1), enc_channel_input={(0, 0): 0}, "
     "decoder=((None, (0,)),))",
     ["message_count", "enc_box_input", "enc_channel_input", "decoder"]),
    ("QuantumModel", _quantum, lambda: _quantum(0.5),
     "QuantumModel(state=(((1+0j),),), alice_meas=(((((1+0j),),),),), "
     "bob_meas=(((((1+0j),),), ((0j,),)),))",
     ["state", "alice_meas", "bob_meas"]),
]
IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("name, build, other, text, keys", CASES, ids=IDS)
def test_repr_lists_the_compared_fields(name, build, other, text, keys):
    assert repr(build()) == text


@pytest.mark.parametrize("name, build, other, text, keys", CASES, ids=IDS)
def test_equal_by_the_compared_fields_and_never_equal_to_another_type(name, build, other, text, keys):
    a, b, c = build(), build(), other()
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    compared = tuple(vars(a)[key] for key in keys if key not in ("supports", "alice"))
    subclassed = object.__new__(type(name, (type(a),), {}))  # same fields, another class
    subclassed.__dict__.update(vars(a))
    for foreign in (compared, subclassed, object(), name, Check(name, "", "", "", "", True, 0.0)):
        assert a != foreign and not a == foreign


@pytest.mark.parametrize("name, build, other, text, keys", CASES, ids=IDS)
def test_equal_values_hash_alike(name, build, other, text, keys):
    if name == "AssistedProtocol":  # its encoder map is a dict
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(build())
    else:
        assert hash(build()) == hash(build())
        assert len({build(), build(), other()}) == 2


def test_keyword_construction_matches_positional_and_fills_the_defaults():
    assert IndexSpace(factors=(2, 3), offsets=(1, 0)) == IndexSpace((2, 3), (1, 0))
    assert IndexSpace((2, 3)).offsets == (0, 0)
    column = [((0, 1), (1, 1))]
    assert Channel(IndexSpace((1,)), IndexSpace((2,)), column, 2) == Channel(
        input_space=IndexSpace((1,)), output_space=IndexSpace((2,)), columns=column, denominator=2)
    assert Channel(IndexSpace((1,)), IndexSpace((2,)), [((1,), (1,))]).denominator == 1
    assert Scenario(x_card=1, y_card=2, a_card=3, b_card=4) == Scenario(1, 2, 3, 4)
    assert Behavior(Scenario(1, 1, 1, 1), RATIONAL, [[[[1]]]]).denominator == 1
    assert _behavior() == Behavior(Scenario(1, 1, 2, 1), RATIONAL, [[[[1], [1]]]], 2)
    assert ConfusabilityGraph(2, (2, 1)).labels is None
    assert ConfusabilityGraph(vertex_count=2, adjacency=(2, 1), labels=(0, 1)) == ConfusabilityGraph(2, (2, 1), (0, 1))
    assert _protocol() == AssistedProtocol(2, (0, 1), {(0, 0): 0}, ((None, (0,)),))
    assert _quantum() == QuantumModel(((1,),), ((((1,),),),), ((((1,),), ((0,),)),))
    with pytest.raises(TypeError):
        Scenario(1, 2, 3)  # no default for a cardinality
    with pytest.raises(TypeError):
        IndexSpace((2,), (0,), "extra")


@pytest.mark.parametrize("name, build, other, text, keys", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(name, build, other, text, keys):
    value = build()
    before = dict(vars(value))
    for key in keys + ["unknown"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{key}'$"):
            setattr(value, key, None)
    for key in keys + ["unknown"]:
        with pytest.raises(AttributeError, match=f"^cannot delete field '{key}'$"):
            delattr(value, key)
    assert vars(value) == before


@pytest.mark.parametrize("name, build, other, text, keys", CASES, ids=IDS)
def test_vars_holds_the_fields_and_the_derived_views(name, build, other, text, keys):
    assert list(vars(build())) == keys


@pytest.mark.parametrize("name, build, other, text, keys", CASES, ids=IDS)
def test_pickling_round_trips(name, build, other, text, keys):
    value = build()
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value) and again == value and vars(again) == vars(value)


def test_graphs_built_without_the_check_equal_constructed_ones():
    nm3, product = confusability_graph(make_nm(3)), strong_product(cycle_graph(5), cycle_graph(3))
    built = [nm3, confusability_graph(make_mm(3)), product, cycle_graph(6),
             graph_from_edges(4, [(0, 1), (2, 1), (3, 0)]), graph_from_edges(0, [])]
    for g in built:
        constructed = ConfusabilityGraph(g.vertex_count, g.adjacency, g.labels)
        assert g == constructed and constructed == g
        assert hash(g) == hash(constructed) and repr(g) == repr(constructed)
        assert list(vars(g)) == list(vars(constructed)) == ["vertex_count", "adjacency", "labels"]
    assert nm3.labels == tuple(make_nm(3).input_space.labels())
    assert graph_from_edges(3, [(0, 1)]) != ConfusabilityGraph(3, (2, 1, 0), (0, 1, 2))


def test_other_package_values_compare_as_the_fields_say():
    assert make_i3322_model() == make_i3322_model()
    assert make_extremal_box(3, 3) == make_extremal_box(3, 3) != make_extremal_box(3, 2)
    assert make_nm(3) == make_nm(3) != make_mm(3)
    assert hash(make_nm(3)) == hash(make_nm(3))


# --- verify.Check: a named tuple, in verify-paper --json field order ---------

CHECK = Check(name="n", provenance="p", expected="e", computed="c", mode="rational", passed=True, elapsed=0.5)
CHECK_FIELDS = ["name", "provenance", "expected", "computed", "mode", "passed", "elapsed"]


def test_check_repr_and_equality():
    assert repr(CHECK) == ("Check(name='n', provenance='p', expected='e', computed='c', mode='rational', "
                           "passed=True, elapsed=0.5)")
    assert Check("n", "p", "e", "c", "rational", True, 0.5) == CHECK
    assert Check("n", "p", "e", "c", "rational", False, 0.5) != CHECK
    assert CHECK != Scenario(1, 1, 1, 1) and CHECK != object()


def test_check_is_an_immutable_hashable_record_in_json_field_order():
    assert list(CHECK._asdict()) == CHECK_FIELDS
    again = Check(*CHECK)
    assert again == CHECK and hash(again) == hash(CHECK)
    for key in CHECK_FIELDS + ["unknown"]:
        with pytest.raises(AttributeError):
            setattr(CHECK, key, None)
    with pytest.raises(AttributeError):
        delattr(CHECK, "name")
    assert pickle.loads(pickle.dumps(CHECK)) == CHECK
