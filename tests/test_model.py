"""The value types: equality, hashing, repr, immutability and pickling of
the specs, results and factorizations, and the budget's semantics.  Their
validation is tested beside the code that uses them."""

import copy
import pickle

import pytest

from lincong.arith import Factorization, factorize
from lincong.errors import BudgetExceededError, DomainError
from lincong.model import BlockSpec, CongruenceSpec, CountResult, OracleBudget

# For each frozen type: two builders of equal instances, an instance that
# differs in one field, its exact repr, and the name of one field.
FROZEN = [
    (
        lambda: CongruenceSpec(7, (8, -5, 2), 10),
        lambda: CongruenceSpec(7, (1, 2, 2), 3),
        CongruenceSpec(7, (1, 2, 2), 4),
        "CongruenceSpec(n=7, coeffs=(1, 2, 2), b=3)",
        "coeffs",
    ),
    (
        lambda: BlockSpec(7, ((2, 8), (1, 10)), -1),
        lambda: BlockSpec(7, [(2, 1), (1, 3)], 6),
        BlockSpec(7, ((2, 1), (1, 4)), 6),
        "BlockSpec(n=7, blocks=((2, 1), (1, 3)), b=6)",
        "blocks",
    ),
    (
        lambda: CountResult(4, "formula"),
        lambda: CountResult(count=4, method="formula", residual=0.0),
        CountResult(4, "oracle-fallback"),
        "CountResult(count=4, method='formula', residual=0.0)",
        "count",
    ),
    (
        lambda: factorize(12),
        lambda: Factorization(12, ((2, 2), (3, 1))),
        factorize(18),
        "Factorization(n=12, factors=((2, 2), (3, 1)))",
        "factors",
    ),
]
IDS = ["CongruenceSpec", "BlockSpec", "CountResult", "Factorization"]


@pytest.mark.parametrize("make, make_again, other, text, field", FROZEN, ids=IDS)
def test_frozen_equality_and_hash_by_fields(make, make_again, other, text, field):
    x, y = make(), make_again()
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert x != other and not x == other
    assert len({x, y, other}) == 2


@pytest.mark.parametrize("make, make_again, other, text, field", FROZEN, ids=IDS)
def test_frozen_repr(make, make_again, other, text, field):
    assert repr(make()) == text


@pytest.mark.parametrize("make, make_again, other, text, field", FROZEN, ids=IDS)
def test_frozen_fields_cannot_be_assigned(make, make_again, other, text, field):
    x = make()
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, other)
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert getattr(x, field) == before and x == make_again()


@pytest.mark.parametrize("make, make_again, other, text, field", FROZEN, ids=IDS)
def test_frozen_pickle_and_deepcopy_round_trip(make, make_again, other, text, field):
    x = make()
    for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(clone) is type(x)
        assert clone == x and hash(clone) == hash(x) and repr(clone) == text


def test_equality_across_classes():
    spec = CongruenceSpec(5, (1,), 0)
    blocks = BlockSpec(5, ((1, 1),), 0)
    assert spec != blocks and blocks != spec
    assert spec.coeffs == blocks.coeffs and spec.k == blocks.k
    assert spec != (5, (1,), 0)
    assert CountResult(4, "formula") != (4, "formula", 0.0)
    assert factorize(12) != (12, ((2, 2), (3, 1)))
    assert OracleBudget(10) != CountResult(10, "formula")


def test_oracle_budget_semantics():
    assert OracleBudget.max_states == 10**8
    assert OracleBudget().max_states == 10**8 and OracleBudget().used == 0
    assert OracleBudget(10) == OracleBudget(10, 5) and OracleBudget(10) != OracleBudget(11)
    assert OracleBudget(max_states=10, used=5) == OracleBudget(10, 5)
    with pytest.raises(TypeError):
        hash(OracleBudget())
    assert repr(OracleBudget()) == "OracleBudget(max_states=100000000, used=0)"
    assert repr(OracleBudget(10, 5)) == "OracleBudget(max_states=10, used=5)"
    budget = OracleBudget(10)
    budget.charge(4)
    budget.used += 1
    budget.max_states = 20
    assert (budget.max_states, budget.used) == (20, 5)
    for clone in (pickle.loads(pickle.dumps(budget)), copy.deepcopy(budget)):
        assert type(clone) is OracleBudget and clone == budget
        assert (clone.max_states, clone.used) == (20, 5)
    with pytest.raises(DomainError):
        budget.charge(-1)
    with pytest.raises(BudgetExceededError):
        budget.charge(16)
    assert budget.used == 5
    budget.charge(15)
    assert budget.used == 20
