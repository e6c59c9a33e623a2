"""Value classes: construction, repr, equality, hashing, immutability, copying.

Every frozen value class of the package is checked the same way, from one
table: its field names and full positional arguments, the arguments it can
be built from with defaults, a different value, and its pinned ``repr``.
"""

import copy
import pickle

import pytest

from tstd import (
    ChannelDecl,
    ComponentSpec,
    Configuration,
    Direction,
    FeedbackCheck,
    Finding,
    Instance,
    IntervalGuard,
    IntervalPattern,
    Message,
    Network,
    OutputAction,
    Relation,
    Severity,
    StreamPrefix,
    Trace,
    Transition,
    VarDecl,
    VarGuard,
    VarUpdate,
    Wire,
)
from tstd.checks import CausalityProbeResult, SimulationCheckResult
from tstd.model import PatternKind, UpdateOp
from tstd.network import ExternalPort, InstanceKind, Port
from tstd.trace_format import ParseIssue, SourceSpan

A = Message("a")
B1 = Message("b", 1)
PREFIX = StreamPrefix(((A,), ()))
TRACE = Trace({"x": PREFIX}, 2)
GUARD = IntervalGuard("x", IntervalPattern.contains(B1))
TRANS = Transition("s", "t", (GUARD,), (VarGuard("v", Relation.LT, 3),), (OutputAction("y", (A,)),))
SPEC = ComponentSpec(
    "c",
    (ChannelDecl("x", Direction.IN), ChannelDecl("y", Direction.OUT)),
    (VarDecl("v", 0),),
    ("s", "t"),
    "s",
    (TRANS,),
)
INST = Instance("d", InstanceKind.DELAY, None, 2)
WIRE = Wire(ExternalPort("i"), Port("d", "in"))

# name: (class, field names, positional args, args with defaults omitted,
#        a different value, repr of cls(*args))
CASES = {
    "Message": (
        Message, ("tag", "payload"), ("b", 1), ("b",), Message("b", 2), "Message('b:1')",
    ),
    "StreamPrefix": (
        StreamPrefix, ("intervals",), (((A,), ()),), (), StreamPrefix(((),)),
        "StreamPrefix(intervals=((Message('a'),), ()))",
    ),
    "ChannelDecl": (
        ChannelDecl, ("name", "direction"), ("x", Direction.IN), ("x", Direction.IN),
        ChannelDecl("x", Direction.OUT),
        "ChannelDecl(name='x', direction=<Direction.IN: 'in'>)",
    ),
    "VarDecl": (
        VarDecl, ("name", "initial"), ("v", 3), ("v", 3), VarDecl("v", 4),
        "VarDecl(name='v', initial=3)",
    ),
    "IntervalPattern": (
        IntervalPattern, ("kind", "message", "count"), (PatternKind.LEN_GE, None, 2),
        (PatternKind.LEN_GE,), IntervalPattern.len_ge(3),
        "IntervalPattern(kind=<PatternKind.LEN_GE: 'len_ge'>, message=None, count=2)",
    ),
    "IntervalGuard": (
        IntervalGuard, ("channel", "pattern"), ("x", IntervalPattern.contains(B1)),
        ("x", IntervalPattern.contains(B1)), IntervalGuard("x", IntervalPattern.contains(A)),
        "IntervalGuard(channel='x', pattern=IntervalPattern(kind=<PatternKind.CONTAINS:"
        " 'contains'>, message=Message('b:1'), count=None))",
    ),
    "VarGuard": (
        VarGuard, ("var", "relation", "bound"), ("v", Relation.GE, 2), ("v", Relation.GE, 2),
        VarGuard("v", Relation.GT, 2),
        "VarGuard(var='v', relation=<Relation.GE: '>='>, bound=2)",
    ),
    "OutputAction": (
        OutputAction, ("channel", "messages", "source"), ("y", None, "x"), None,
        OutputAction("y", (A,)),
        "OutputAction(channel='y', messages=None, source='x')",
    ),
    "VarUpdate": (
        VarUpdate, ("var", "op", "value"), ("v", UpdateOp.ADD, -1), ("v", UpdateOp.ADD, -1),
        VarUpdate("v", UpdateOp.SET, -1),
        "VarUpdate(var='v', op=<UpdateOp.ADD: 'add'>, value=-1)",
    ),
    "Transition": (
        Transition,
        ("source", "target", "interval_guards", "var_guards", "outputs", "updates"),
        ("s", "t", (), (), (), (VarUpdate("v", UpdateOp.SET, 1),)),
        ("s", "t"),
        Transition("s", "s"),
        "Transition(source='s', target='t', interval_guards=(), var_guards=(), outputs=(),"
        " updates=(VarUpdate(var='v', op=<UpdateOp.SET: 'set'>, value=1),))",
    ),
    "ComponentSpec": (
        ComponentSpec, ("name", "channels", "vars", "states", "initial", "transitions"),
        ("c", (), (), ("s",), "s", ()), ("c", (), (), ("s",), "s", ()),
        ComponentSpec("c", (), (), ("s", "t"), "s", ()),
        "ComponentSpec(name='c', channels=(), vars=(), states=('s',), initial='s',"
        " transitions=())",
    ),
    "Finding": (
        Finding, ("severity", "message", "location"), (Severity.ERROR, "bad", (0, "emit", 1)),
        (Severity.ERROR, "bad"), Finding(Severity.WARNING, "bad", (0, "emit", 1)),
        "Finding(severity=<Severity.ERROR: 'error'>, message='bad', location=(0, 'emit', 1))",
    ),
    "Configuration": (
        Configuration, ("state", "var_env"), ("s", {"v": 1}), ("s", {"v": 1}),
        Configuration("s", {"v": 2}),
        "Configuration(state='s', var_env={'v': 1})",
    ),
    "Trace": (
        Trace, ("channels", "length"), ({"x": PREFIX}, 2), ({"x": PREFIX}, 2),
        Trace({"y": PREFIX}, 2),
        "Trace(channels={'x': StreamPrefix(intervals=((Message('a'),), ()))}, length=2)",
    ),
    "CausalityProbeResult": (
        CausalityProbeResult, ("refuted", "trials", "witness_a", "witness_b", "cut", "channel", "tick"),
        (True, 5, None, None, 1, "y", 1), (True, 5),
        CausalityProbeResult(False, 5),
        "CausalityProbeResult(refuted=True, trials=5, witness_a=None, witness_b=None, cut=1,"
        " channel='y', tick=1)",
    ),
    "SimulationCheckResult": (
        SimulationCheckResult,
        ("agree", "trials", "witness", "channel", "abstraction_a", "abstraction_b"),
        (False, 3, None, "y", (A,), ()), (False, 3), SimulationCheckResult(True, 3),
        "SimulationCheckResult(agree=False, trials=3, witness=None, channel='y',"
        " abstraction_a=(Message('a'),), abstraction_b=())",
    ),
    "SourceSpan": (
        SourceSpan, ("line", "column"), (4, 1), (4, 1), SourceSpan(4, 2),
        "SourceSpan(line=4, column=1)",
    ),
    "ParseIssue": (
        ParseIssue, ("span", "message"), (SourceSpan(4, 1), "oops"), (SourceSpan(4, 1), "oops"),
        ParseIssue(SourceSpan(5, 1), "oops"),
        "ParseIssue(span=SourceSpan(line=4, column=1), message='oops')",
    ),
    "Instance": (
        Instance, ("id", "kind", "spec", "delay"), ("m", InstanceKind.MERGE, None, 0),
        ("m", InstanceKind.MERGE), Instance("d", InstanceKind.DELAY, None, 2),
        "Instance(id='m', kind=<InstanceKind.MERGE: 'merge'>, spec=None, delay=0)",
    ),
    "Port": (
        Port, ("instance", "port"), ("d", "in"), ("d", "in"), Port("d", "out"),
        "Port(instance='d', port='in')",
    ),
    "ExternalPort": (
        ExternalPort, ("name",), ("i",), ("i",), ExternalPort("o"), "ExternalPort(name='i')",
    ),
    "Wire": (
        Wire, ("source", "target"), (Port("d", "out"), ExternalPort("o")),
        (Port("d", "out"), ExternalPort("o")), Wire(Port("d", "out"), ExternalPort("p")),
        "Wire(source=Port(instance='d', port='out'), target=ExternalPort(name='o'))",
    ),
    "Network": (
        Network, ("instances", "wires", "external_in", "external_out"),
        ((INST,), (WIRE,), ("i",), ()), ((INST,), (WIRE,), ("i",), ()),
        Network((INST,), (WIRE,), ("i",), ("o",)),
        "Network(instances=(Instance(id='d', kind=<InstanceKind.DELAY: 'delay'>, spec=None,"
        " delay=2),), wires=(Wire(source=ExternalPort(name='i'), target=Port(instance='d',"
        " port='in')),), external_in=('i',), external_out=())",
    ),
    "FeedbackCheck": (
        FeedbackCheck, ("well_formed", "cycle"), (False, ("a", "b")), (False,),
        FeedbackCheck(False, ("b", "a")),
        "FeedbackCheck(well_formed=False, cycle=('a', 'b'))",
    ),
}

# Values that are compared but not hashed.  A value holding a mapping
# stores it as a read-only dict, so it hashes too.
UNHASHABLE = set()

# Values with nested fields, also checked for deep copies.
NESTED = [SPEC, TRACE, Network((INST,), (WIRE,), ("i",), ()), TRANS, PREFIX]

NAMES = sorted(CASES)


def _make(name):
    cls, _, args, _, _, _ = CASES[name]
    return cls(*args)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_pinned(name):
    assert repr(_make(name)) == CASES[name][5]


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    value, same, other = _make(name), _make(name), CASES[name][4]
    assert value is not same
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != CASES[name][2]  # a tuple of the same fields is not the value
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
        assert len({value, same, other}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_positional_keyword_and_default_construction(name):
    cls, fields, args, short, _, _ = CASES[name]
    value = cls(*args)
    assert cls.__match_args__ == fields
    assert cls(**dict(zip(fields, args))) == value
    assert tuple(getattr(value, f) for f in fields) == args
    if short is not None:
        assert cls(*short) == cls(**dict(zip(fields, short)))
    with pytest.raises(TypeError):
        cls(*args, None)


def test_defaults():
    assert Message("a").payload is None
    assert StreamPrefix().intervals == ()
    assert IntervalPattern(PatternKind.ANY) == IntervalPattern(PatternKind.ANY, None, None)
    assert Transition("s", "t") == Transition("s", "t", (), (), (), ())
    assert Finding(Severity.ERROR, "m").location is None
    assert CausalityProbeResult(False, 1) == CausalityProbeResult(False, 1, None, None, None, None, None)
    assert SimulationCheckResult(True, 1).witness is None
    assert Instance("m", InstanceKind.MERGE).delay == 0
    assert FeedbackCheck(True).cycle == ()


def test_post_init_still_runs():
    with pytest.raises(ValueError, match="invalid message tag"):
        Message("1bad")
    with pytest.raises(ValueError, match="invalid message tag"):
        Message(tag="")
    with pytest.raises(ValueError, match="expected 3"):
        Trace({"x": PREFIX}, 3)
    with pytest.raises(ValueError, match="exactly one"):
        OutputAction("y")
    with pytest.raises(ValueError, match="exactly one"):
        OutputAction("y", (A,), "x")
    t = Transition(
        "s",
        "t",
        interval_guards=(GUARD, IntervalGuard("w", IntervalPattern.any()), IntervalGuard("a", IntervalPattern.empty())),
        var_guards=(VarGuard("w", Relation.EQ, 1), VarGuard("v", Relation.EQ, 1)),
        outputs=(OutputAction("z", ()), OutputAction("y", (A,)), OutputAction("b", source="x")),
        updates=(VarUpdate("w", UpdateOp.SET, 0), VarUpdate("v", UpdateOp.SET, 0)),
    )
    assert [g.channel for g in t.interval_guards] == ["a", "x"]
    assert [g.var for g in t.var_guards] == ["v", "w"]
    assert [o.channel for o in t.outputs] == ["b", "y"]
    assert [u.var for u in t.updates] == ["v", "w"]
    assert isinstance(t.interval_guards, tuple)


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_frozen(name):
    value = _make(name)
    for field in CASES[name][1]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


@pytest.mark.parametrize(
    "mapping",
    [TRACE.channels, Configuration("s", {"v": 1}).var_env],
    ids=["Trace.channels", "Configuration.var_env"],
)
def test_mappings_are_frozen(mapping):
    before = dict(mapping)
    with pytest.raises(TypeError):
        mapping["y"] = 1
    with pytest.raises(TypeError):
        del mapping[next(iter(mapping))]
    with pytest.raises(TypeError):
        mapping |= {"y": 1}
    for change in (
        lambda m: m.clear(),
        lambda m: m.pop(next(iter(m))),
        lambda m: m.popitem(),
        lambda m: m.setdefault("y", 1),
        lambda m: m.update(y=1),
    ):
        with pytest.raises(TypeError):
            change(mapping)
    assert mapping == before


def test_a_mapping_given_to_a_value_is_copied():
    channels, var_env = {"x": PREFIX}, {"v": 1}
    trace, cfg = Trace(channels, 2), Configuration("s", var_env)
    channels["y"] = PREFIX
    var_env["v"] = 2
    assert trace == TRACE and cfg == Configuration("s", {"v": 1})


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trip(name):
    value = _make(name)
    for clone in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(clone) is type(value)
        assert clone == value
        assert repr(clone) == repr(value)
        if name not in UNHASHABLE:
            assert hash(clone) == hash(value)


@pytest.mark.parametrize("value", NESTED, ids=lambda v: type(v).__name__)
def test_nested_values_round_trip(value):
    deep = copy.deepcopy(value)
    assert deep == value
    assert pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)) == value
    assert pickle.loads(pickle.dumps(value, protocol=0)) == value


def test_slotted_values_have_no_instance_dict():
    # Every value class is slotted, so none can carry a hidden cache.
    for name in NAMES:
        assert not hasattr(_make(name), "__dict__"), name
