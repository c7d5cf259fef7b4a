"""Domain types shared by the counters and the oracles.

The frozen value types (the specs and CountResult here, and
arith.Factorization) are ``__slots__`` classes on FrozenValue: a frozen
dataclass's equality, hash, repr and pickling by field, without the import
cost of dataclasses that every run would pay.
"""

from __future__ import annotations

from .errors import BudgetExceededError, ConsistencyError, DomainError

# Evaluation-method tags carried by CountResult.
FORMULA = "formula"
ORACLE_FALLBACK = "oracle-fallback"

# The relative tolerance of arith.round_complex_to_int: CountResult's residual bound.
ROUND_TOL = 1e-6

_set = object.__setattr__  # how __init__ sets a field past FrozenValue.__setattr__


class FrozenValue:
    """Fields are the names in ``__slots__``.  Instances of one class with equal
    fields are equal; assigning or deleting a field raises AttributeError."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()  # the fields pass __init__'s checks unchanged


class CongruenceSpec(FrozenValue):
    """An instance a1*x1 + ... + ak*xk = b (mod n); coefficients and target
    are stored reduced into [0, n)."""

    __slots__ = ("n", "coeffs", "b")

    def __init__(self, n: int, coeffs, b: int):
        if n < 1:
            raise DomainError(f"modulus must be >= 1, got {n}")
        coeffs = tuple(int(a) % n for a in coeffs)
        if not coeffs:
            raise DomainError("at least one coefficient is required")
        _set(self, "n", n)
        _set(self, "coeffs", coeffs)
        _set(self, "b", int(b) % n)

    @property
    def k(self) -> int:
        return len(self.coeffs)


class BlockSpec(FrozenValue):
    """Block structure for order-restricted counting: within each block of
    size k_i all variables share the coefficient a_i and must be weakly
    decreasing.  Coefficients and target are reduced into [0, n)."""

    __slots__ = ("n", "blocks", "b")

    def __init__(self, n: int, blocks, b: int):
        if n < 1:
            raise DomainError(f"modulus must be >= 1, got {n}")
        blocks = tuple((int(size), int(coeff) % n) for size, coeff in blocks)
        if not blocks or any(size < 1 for size, _ in blocks):
            raise DomainError("every block needs size >= 1")
        _set(self, "n", n)
        _set(self, "blocks", blocks)
        _set(self, "b", int(b) % n)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(size for size, _ in self.blocks)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(coeff for _, coeff in self.blocks)

    @property
    def k(self) -> int:
        return sum(self.sizes)


class CountResult(FrozenValue):
    """An exact count, the route that produced it (``method``: FORMULA, or
    ORACLE_FALLBACK when square_count enumerates an even modulus), and the
    worst rounding residual of any complex-arithmetic step (0 on exact
    routes)."""

    __slots__ = ("count", "method", "residual")

    def __init__(self, count: int, method: str, residual: float = 0.0):
        if count < 0:
            raise ConsistencyError(f"negative count {count} ({method})")
        if not 0.0 <= residual < ROUND_TOL:
            raise ConsistencyError(f"residual {residual} out of range")
        _set(self, "count", count)
        _set(self, "method", method)
        _set(self, "residual", residual)


class OracleBudget:
    """Budget for the tuples an oracle counts (a "state" each,
    oracles.state_count) and the 2^k subset products per residue of square's
    odd-n counter.  ``charge`` is called before that work starts, so the budget
    can never be exceeded mid-run and failed calls never return partial counts."""

    max_states: int = 10**8  # the default, read by the CLI

    def __init__(self, max_states: int = max_states, used: int = 0):
        self.max_states, self.used = max_states, used

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self.max_states == other.max_states if same else NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"OracleBudget(max_states={self.max_states!r}, used={self.used!r})"

    def charge(self, states: int) -> None:
        if states < 0:
            raise DomainError("a charge cannot be negative")
        if self.used + states > self.max_states:
            left, total = self.max_states - self.used, self.max_states
            raise BudgetExceededError(f"charge of {states} exceeds the {left} left of {total}")
        self.used += states
