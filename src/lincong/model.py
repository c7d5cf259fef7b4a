"""Domain types shared by the counters and the oracles."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceededError, ConsistencyError, DomainError

# Evaluation-method tags carried by CountResult.
FORMULA = "formula"
ORACLE_FALLBACK = "oracle-fallback"


class _Instance:
    """What the two spec classes share: the same instance at another target."""

    def with_target(self, b: int):
        """This instance with target b, reduced into [0, n).  The other
        fields are shared as they are: reduced and checked already."""
        spec = object.__new__(type(self))
        spec.__dict__.update(self.__dict__, b=int(b) % self.n)
        return spec


@dataclass(frozen=True)
class CongruenceSpec(_Instance):
    """An instance a1*x1 + ... + ak*xk = b (mod n); coefficients and target
    are stored reduced into [0, n)."""

    n: int
    coeffs: tuple[int, ...]
    b: int

    def __init__(self, n: int, coeffs, b: int):
        if n < 1:
            raise DomainError(f"modulus must be >= 1, got {n}")
        coeffs = tuple(int(a) % n for a in coeffs)
        if not coeffs:
            raise DomainError("at least one coefficient is required")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "b", int(b) % n)

    @property
    def k(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class BlockSpec(_Instance):
    """Block structure for order-restricted counting: within each block of
    size k_i all variables share the coefficient a_i and must be weakly
    decreasing.  Coefficients and target are reduced into [0, n)."""

    n: int
    blocks: tuple[tuple[int, int], ...]
    b: int

    def __init__(self, n: int, blocks, b: int):
        if n < 1:
            raise DomainError(f"modulus must be >= 1, got {n}")
        blocks = tuple((int(size), int(coeff) % n) for size, coeff in blocks)
        if not blocks or any(size < 1 for size, _ in blocks):
            raise DomainError("every block needs size >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "b", int(b) % n)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(size for size, _ in self.blocks)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(coeff for _, coeff in self.blocks)

    @property
    def k(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True)
class CountResult:
    """An exact count, the route that produced it (``method``: FORMULA, or
    ORACLE_FALLBACK when square_count enumerates an even modulus), and the
    worst rounding residual of any complex-arithmetic step (0 on exact
    routes)."""

    count: int
    method: str
    residual: float = 0.0

    def __post_init__(self):
        if self.count < 0:
            raise ConsistencyError(f"negative count {self.count} ({self.method})")
        if not 0.0 <= self.residual < 1e-6:
            raise ConsistencyError(f"residual {self.residual} out of range")


@dataclass
class OracleBudget:
    """Budget for the oracle histograms, in tuples counted.  ``charge`` is
    called with the number of tuples a restriction admits (a "state" each,
    oracles.state_count) before the histogram is built, so the budget can
    never be exceeded mid-run and failed calls never return partial counts."""

    max_states: int = 10**8
    used: int = field(default=0, compare=False)

    def charge(self, states: int) -> None:
        if states < 0:
            raise DomainError("state count cannot be negative")
        if self.used + states > self.max_states:
            raise BudgetExceededError(
                f"{states} states needed, {self.max_states - self.used} left "
                f"of {self.max_states}"
            )
        self.used += states
