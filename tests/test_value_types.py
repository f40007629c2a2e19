"""The value semantics of the library's small record types.

The frozen types are namedtuple subclasses and the mutable ones plain
classes; these tests pin what callers may rely on: validation and its
messages, equality and hashing, immutability, defaults and the text forms.
"""

import pytest

from heckekit.basicsets import PRIME_LIMIT, BasicSetResult, DecompMatrix, SpecParams
from heckekit.coxeter import CoxeterType, WeightFunction
from heckekit.fock import ARIKI, FLOTW, CrystalGraph, FockParams, crystal
from heckekit.klcells import CheckResult
from heckekit.schur import InvariantPair

#: one constructor call per frozen type, as a thunk so that each call makes a
#: new object, and one of the type's fields
FROZEN = {
    "CoxeterType": (lambda: CoxeterType("B", 3), "rank"),
    "WeightFunction": (lambda: WeightFunction((1, 2, 2)), "values"),
    "FockParams": (lambda: FockParams(l=3, r=2, u=(0, 1), node_order=ARIKI), "l"),
    "SpecParams": (lambda: SpecParams(char=0, xi_order=4, a=1, b=2), "xi_order"),
    "CheckResult": (lambda: CheckResult("P2", False, (0, 1, 2, 3)), "passed"),
    "InvariantPair": (lambda: InvariantPair(alpha=3, f=2), "f"),
}


@pytest.mark.parametrize("make,field", FROZEN.values(), ids=FROZEN.keys())
class TestFrozenTypes:
    def test_equal_arguments_give_equal_objects_and_hashes(self, make, field):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_works_as_a_dict_key(self, make, field):
        table = {make(): "value"}
        assert table[make()] == "value"
        assert make() in {make()}

    def test_attributes_cannot_be_set(self, make, field):
        obj = make()
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert obj == make()


@pytest.mark.parametrize("make,message", [
    (lambda: CoxeterType("C", 3), "unknown family 'C'"),
    (lambda: CoxeterType("A", 0), "type A needs rank >= 1"),
    (lambda: CoxeterType("B", 1), "type B needs rank >= 2"),
    (lambda: CoxeterType("D", 1), "type D needs rank >= 2"),
    (lambda: CoxeterType("G2", 3), "G2 has rank 2"),
    (lambda: CoxeterType(family="F4", rank=2), "F4 has rank 4"),
    (lambda: FockParams(1, 2, (0, 1)), "l must be at least 2"),
    (lambda: FockParams(3, 0, ()), "r must be at least 1"),
    (lambda: FockParams(3, 2, (0,)), "u must have one entry per component"),
    (lambda: FockParams(3, 1, (0,), "kleshchev"), "unknown node order 'kleshchev'"),
    (lambda: SpecParams(PRIME_LIMIT, 2, 1, 1), f"char must be below {PRIME_LIMIT}"),
    (lambda: SpecParams(4, 2, 1, 1), "char must be 0 or a prime"),
    (lambda: SpecParams(0, 0, 1, 1), "xi_order must be >= 1"),
    (lambda: SpecParams(0, 2, -1, 1), "weights must be nonnegative"),
    (lambda: SpecParams(char=0, xi_order=2, a=1, b=-1), "weights must be nonnegative"),
    (lambda: DecompMatrix(["x"], [0], [[1], [1]]), "row data lengths disagree"),
    (lambda: DecompMatrix(["x"], [0, 1], [[1]]), "row data lengths disagree"),
    (lambda: DecompMatrix(["x"], [0], [[1]], dims=[1, 2]), "row data lengths disagree"),
    (lambda: DecompMatrix([], [], []), "the matrix has no rows"),
    (lambda: DecompMatrix(["x", "y"], [0, 1], [[1, 0], [1]]), "ragged entry rows"),
    (lambda: DecompMatrix(["x", "y"], [0, 1], [[1, 0], [1, 0]]),
     "column 1 has no nonzero entry"),
])
def test_validation_message(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_coxeter_type_text():
    ctype = CoxeterType("B", 3)
    assert repr(ctype) == "CoxeterType(family='B', rank=3)"
    assert str(ctype) == "B3"
    assert str(CoxeterType("G2", 2)) == "G2" and str(CoxeterType("F4", 4)) == "F4"


def test_defaults():
    assert FockParams(l=2, r=1, u=(0,)).node_order == FLOTW
    result = CheckResult("P4", False)
    assert not result and result.witness is None
    assert CheckResult("P4", True)
    assert DecompMatrix(["x"], [0], [[1]]).dims is None
    assert DecompMatrix(["x"], [0], [[1]]).meta is None
    empty = BasicSetResult(False)
    assert (empty.assignment, empty.breve_alpha, empty.witness_column,
            empty.witness_rows) == (None, None, None, None)


def test_crystal_graphs_do_not_share_their_lists():
    params = FockParams(l=2, r=1, u=(0,))
    one, two = CrystalGraph(params), CrystalGraph(params)
    names = ("levels", "ends", "targets", "colours")
    assert set(vars(one)) == {"params", *names}
    for name in names:
        assert getattr(one, name) is not getattr(two, name)
        getattr(one, name).append([0])
    assert all(getattr(two, name) == [] for name in names)


@pytest.mark.parametrize("make,other", [
    (lambda: crystal(FockParams(l=2, r=2, u=(0, 1)), 3),
     lambda: crystal(FockParams(l=2, r=2, u=(0, 1)), 2)),
    (lambda: DecompMatrix(["x", "y"], [0, 1], [[1, 0], [2, 1]], meta={"n": 2}),
     lambda: DecompMatrix(["x", "y"], [0, 1], [[1, 0], [2, 1]])),
    (lambda: BasicSetResult(True, assignment=[0, 1], breve_alpha=[0, 1]),
     lambda: BasicSetResult(False, witness_column=1, witness_rows=[0])),
], ids=["CrystalGraph", "DecompMatrix", "BasicSetResult"])
def test_mutable_types_compare_by_value_and_are_unhashable(make, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other()
    with pytest.raises(TypeError):
        hash(a)
