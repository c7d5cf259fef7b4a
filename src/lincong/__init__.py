"""Exact counting of restricted solutions of linear congruences.

Closed-form counters for square-restricted, strictly ordered, block-ordered
and distinct solutions of a1*x1 + ... + ak*xk = b (mod n), built on Ramanujan
sums and the real Gauss sum modulo odd prime powers, together with the
exact histogram oracles that verify them.  count(spec, restriction) is the
counters' front door, as oracle_histogram(spec, restriction) the oracles'.
The package holds only what the counters, the oracles and the CLI call; the
lemmas behind the closed forms are checked against literal sums, and the
oracles against brute force and a generating-function ring, in the test suite.
"""

from .arith import (
    Factorization,
    divisors,
    epsilon,
    euler_phi,
    factorize,
    is_prime,
    jacobi_symbol,
    moebius,
    ramanujan_sum,
    root_of_unity,
    round_complex_to_int,
)
from .characters import gauss_sum_real_prime_power, square_indicator, squares
from .errors import BudgetExceededError, ConsistencyError, DomainError
from .formulas import (
    count,
    distinct_count_equal_coeffs,
    distinct_count_gcd_condition,
    lehmer_count,
    order_blocks_count,
    square_count,
    strict_order_count,
)
from .model import BlockSpec, CongruenceSpec, CountResult, OracleBudget
from .oracles import (
    oracle_count,
    oracle_histogram,
    oracle_solutions,
    state_count,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSpec",
    "BudgetExceededError",
    "CongruenceSpec",
    "ConsistencyError",
    "CountResult",
    "DomainError",
    "Factorization",
    "OracleBudget",
    "count",
    "distinct_count_equal_coeffs",
    "distinct_count_gcd_condition",
    "divisors",
    "epsilon",
    "euler_phi",
    "factorize",
    "gauss_sum_real_prime_power",
    "is_prime",
    "jacobi_symbol",
    "lehmer_count",
    "moebius",
    "oracle_count",
    "oracle_histogram",
    "oracle_solutions",
    "order_blocks_count",
    "ramanujan_sum",
    "root_of_unity",
    "round_complex_to_int",
    "square_count",
    "square_indicator",
    "squares",
    "state_count",
    "strict_order_count",
]
