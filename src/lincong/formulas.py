"""Closed-form counters for restricted solutions of linear congruences.

Each counter returns a CountResult whose count is exact.  The divisor-sum
counters (strict order, distinct with equal coefficients through it, and
blocks whose coefficients share one gcd f with n) run in plain integers;
none takes an exact-rational route.  Each keeps its instance part, the
pairs (d, c_d) that do not read the target, in a small cache, and evaluates
a target as one integer Ramanujan sum, sum c_d*C_d(b/f) / n.  The distinct
counter caches its subset-sum hypothesis check, one pass over the subsets,
per coefficient tuple the same way.  The square counter and the general
block counter accumulate complex roots of unity and round at the end,
recording the rounding residual.

Both float routes share work without changing a float operation: each call
adds the same floats in the same order as the plain sum, so counts,
residuals and errors stay bit for bit the same.  The general block counter
keeps its target-independent work in small caches, one orbit plan per
(n, sizes, coefficients), with integer block weights, and one table of
roots per n.  The square counter shares work within a call only: one table
of terms per prime power, and the products of all coefficient subsets built
by doubling, 2**10 at a time.  It caches nothing across calls.  A table
keyed on the coefficients would not hit when every target comes with fresh
coefficients, and one keyed on the prime power alone would keep serving
terms computed before a patched epsilon or Gauss sum, which the self-test's
mutation check relies on seeing.  Every counter is verified against the
independent oracle histograms in the test suite.

count(spec, restriction) is the front door over oracles.RESTRICTIONS, and
counter(spec, restriction) the same as a function of b, routed once per
instance by one table, _ROUTES: all, square and blocks to their counters;
strict-order, for equal coefficients only, to the divisor sum; distinct
to k! times it for equal coefficients, else to the gcd-condition form.
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import lru_cache
from operator import add

from . import arith, characters, oracles
from .errors import ConsistencyError, DomainError
from .model import (
    FORMULA,
    ORACLE_FALLBACK,
    BlockSpec,
    CongruenceSpec,
    CountResult,
    OracleBudget,
)


def lehmer_count(spec: CongruenceSpec) -> CountResult:
    """Unrestricted solution count: g*n^(k-1) if g | b else 0, where g is the
    gcd of all coefficients and the modulus."""
    g = math.gcd(spec.n, *spec.coeffs)
    if spec.b % g:
        return CountResult(0, FORMULA)
    return CountResult(g * spec.n ** (spec.k - 1), FORMULA)


def _square_term(p: int, ell: int, x: int) -> complex:
    """Sum over even j < ell of C_{p^(ell-j)}(x) plus the real Gauss sum of
    the character mod p^(ell-j) induced by (./p), evaluated at x."""
    acc = 0j
    for j in range(0, ell, 2):
        acc += arith.ramanujan_sum(p ** (ell - j), x)
        acc += characters.gauss_sum_real_prime_power(p, ell - j, x)
    return acc


# Positions whose subset products one chunk of _square_count_prime_power
# builds by doubling: at most 2**10 complex products are live at once.
_CHUNK_BITS = 10


def _square_count_prime_power(
    p: int, ell: int, coeffs: tuple[int, ...], b: int
) -> tuple[int, float]:
    """Square-solution count modulo p^ell as the subset-expanded average

        (1/p^ell) * ( p^ell*[p^ell | b]
                      + sum over nonempty K of 2^(-|K|) * S_K ),

    S_K = sum_m e(-b*m/p^ell) * prod_{i in K} T_i(m) with T_i the per-variable
    combination of Ramanujan and Gauss sums.  The subset sum runs over all
    nonempty K including the full index set.  The m-independent first term is
    taken in closed form to keep float error out of the dominant part.

    T_i(m) depends on a_i*m mod p^ell only, so one table of p^ell terms
    serves every position.  For each m the products
    e(-b*m/p^ell) * T_i1(m) * ... * T_ir(m), i1 < ... < ir, of all subsets
    come by doubling: position i appends each product so far times T_i(m),
    so index mask(K) holds the left-to-right product of K.  The first
    _CHUNK_BITS positions are doubled per m and the subsets of the others
    are taken one chunk at a time, so at most 2**_CHUNK_BITS products are
    live; the S_K go to two flat arrays of doubles.  Each S_K adds its terms
    in increasing m, and the total adds the S_K by size, then in
    itertools.combinations order: the float operations of a loop that
    multiplies every product anew, so the count, the residual and any error
    are bit for bit the same.  Nothing outlives the call (see the module
    docstring).
    """
    mod = p**ell
    k = len(coeffs)
    table = [_square_term(p, ell, x) for x in range(mod)]
    residues = range(1, mod + 1)
    phases = [arith.root_of_unity(-b * m, mod) for m in residues]
    rows = [[table[a * m % mod] for a in coeffs] for m in residues]
    low = min(k, _CHUNK_BITS)
    real = array("d", [0.0]) * (1 << k)
    imag = array("d", [0.0]) * (1 << k)
    for high in range(1 << (k - low)):
        chosen = [i for i in range(low, k) if high >> (i - low) & 1]
        sums = [0j] * (1 << low)
        for phase, row in zip(phases, rows):
            prods = [phase]
            for t in row[:low]:
                prods += [v * t for v in prods]
            for i in chosen:
                t = row[i]
                prods = [v * t for v in prods]
            # plain + in m order; sum() compensates float sums from 3.12 on
            sums = list(map(add, sums, prods))
        start = high << low
        real[start : start + len(sums)] = array("d", [s.real for s in sums])
        imag[start : start + len(sums)] = array("d", [s.imag for s in sums])
    acc = complex(mod if b % mod == 0 else 0)
    bits = [1 << i for i in range(k)]
    for size in range(1, k + 1):
        weight = 0.5**size
        for subset in itertools.combinations(bits, size):
            mask = sum(subset)  # disjoint bits, so the integer sum is the mask
            acc += weight * complex(real[mask], imag[mask])
    value, resid = arith.round_complex_to_int(acc / mod)
    if value < 0:
        raise ConsistencyError(f"negative square count {value} mod {p}^{ell}")
    return value, resid


def square_count(
    spec: CongruenceSpec, budget: OracleBudget | None = None
) -> CountResult:
    """Count solutions whose coordinates are all squares modulo n.

    For odd n the count multiplies over the prime powers of n, each factor
    evaluated by the Ramanujan/Gauss-sum expansion.  The expansion is proved
    for odd n only, so even moduli route to the enumeration oracle and are
    tagged as such.  That fallback is charged to ``budget`` (a default
    OracleBudget when None) and raises BudgetExceededError when it does not
    fit; odd moduli never touch the budget.
    """
    if spec.n % 2 == 0:
        count = oracles.oracle_count(spec, "square", budget)
        return CountResult(count, ORACLE_FALLBACK)
    total = 1
    worst = 0.0
    for p, e in arith.factorize(spec.n).factors:
        value, resid = _square_count_prime_power(p, e, spec.coeffs, spec.b)
        total *= value
        worst = max(worst, resid)
    return CountResult(total, FORMULA, worst)


def _verify_square_witness(spec: CongruenceSpec, witness: tuple[int, ...]) -> bool:
    lhs = sum(a * x for a, x in zip(spec.coeffs, witness)) % spec.n
    if lhs != spec.b:
        return False
    return all(characters.square_indicator(spec.n, x) for x in witness)


def square_solution_exists(
    spec: CongruenceSpec, budget: OracleBudget | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide existence of a square solution, with a witness when one exists.

    For odd n, first tries the sufficient condition per prime power: when the
    target is a unit and some sub-sum s of the coefficients is a unit in the
    same quadratic class ((s/p) = (b/p)), the tuple assigning s^(-1)*b to that
    subset and 0 elsewhere is a square solution mod that prime power; the
    per-prime-power tuples are glued by CRT.  If the condition does not fire
    everywhere, falls back to a budgeted oracle scan.  Returned witnesses are
    always re-verified by substitution, so false positives are impossible.
    """
    n = spec.n
    if n % 2 == 1 and spec.k <= 20:
        partial: list[tuple[int, tuple[int, ...]]] = []
        for p, e in arith.factorize(n).factors:
            mod = p**e
            found = None
            if spec.b % p:
                target_class = arith.jacobi_symbol(spec.b % p, p)
                for size in range(1, spec.k + 1):
                    for subset in itertools.combinations(range(spec.k), size):
                        s = sum(spec.coeffs[i] for i in subset) % mod
                        if s % p == 0:
                            continue
                        if arith.jacobi_symbol(s % p, p) == target_class:
                            val = pow(s, -1, mod) * spec.b % mod
                            found = (mod, tuple(val if i in subset else 0 for i in range(spec.k)))
                            break
                    if found:
                        break
            if found is None:
                partial = []
                break
            partial.append(found)
        if partial:
            witness = []
            for i in range(spec.k):
                residues = [(tup[i], mod) for mod, tup in partial]
                witness.append(_crt(residues, n))
            witness = tuple(witness)
            if _verify_square_witness(spec, witness):
                return True, witness
            raise ConsistencyError(f"constructed witness {witness} failed verification")
    hits = oracles.oracle_solutions(spec, "square", budget, limit=1)
    if not hits:
        return False, None
    witness = hits[0]
    if not _verify_square_witness(spec, witness):
        raise ConsistencyError(f"oracle witness {witness} failed verification")
    return True, witness


def _crt(residues: list[tuple[int, int]], n: int) -> int:
    """Glue (value, modulus) pairs with coprime moduli multiplying to n."""
    x = 0
    for val, mod in residues:
        rest = n // mod
        x += val * rest * pow(rest, -1, mod)
    return x % n


# Sweeps visit every target of one instance in a row, so each cache of
# instance parts keeps two entries.  A divisor-sum entry holds tau(gcd)
# pairs; a block orbit plan or table of roots holds O(n) values (about
# 15 MiB for both at n = 200000), which stay cached after the sweep.
_INSTANCE_CACHE_SIZE = 2


def _ramanujan_total(n: int, f: int, b: int, terms: tuple[tuple[int, int], ...]) -> int:
    """The target part of a divisor-sum counter: [f | b] times
    (sum of c * C_d(b/f) over the pairs (d, c) of ``terms``) / n, where f
    divides n.  The Ramanujan sum takes the reduced target b/f: the inner
    exponential sum collapses onto it, which matters exactly when f > 1."""
    if b % f:
        return 0
    bf = b // f
    total = 0
    for d, c in terms:
        total += c * arith.ramanujan_sum(d, bf)
    value, rem = divmod(total, n)
    if rem:
        raise ConsistencyError(f"divisor sum {total} not divisible by {n}")
    return value


@lru_cache(maxsize=_INSTANCE_CACHE_SIZE)
def _strict_terms(n: int, k: int, f: int) -> tuple[tuple[int, int], ...]:
    """The pairs (d, (-1)^(k + k/d) * f * C(n/d, k/d)) for d | gcd(n/f, k)."""
    return tuple(
        (d, (-1) ** (k + k // d) * f * math.comb(n // d, k // d))
        for d in arith.divisors(math.gcd(n // f, k))
    )


def strict_order_count(n: int, k: int, a: int, b: int) -> CountResult:
    """Count solutions of a*(x1+...+xk) = b (mod n) with x1 > x2 > ... > xk
    on the canonical residues [0, n).

    With f = gcd(a, n), the count is 0 unless f | b, and otherwise equals

        ((-1)^k * f / n) * sum over d | gcd(n/f, k) of
            (-1)^(k/d) * C(n/d, k/d) * C_d(b/f)

    evaluated in all-integer arithmetic, with the terms cached per
    (n, k, f).  The Ramanujan sum takes b/f (checked against enumeration
    across full sweeps).
    """
    if n < 1 or k < 1:
        raise DomainError("strict_order_count needs n >= 1 and k >= 1")
    if k > n:
        return CountResult(0, FORMULA)
    f = math.gcd(a, n)
    return CountResult(_ramanujan_total(n, f, b, _strict_terms(n, k, f)), FORMULA)


def distinct_count_equal_coeffs(n: int, k: int, a: int, b: int) -> CountResult:
    """Count solutions with all coordinates distinct when every coefficient
    equals a: k! times the strictly ordered count, when that is not 0."""
    ordered = strict_order_count(n, k, a, b)
    if not ordered.count:
        return ordered
    return CountResult(math.factorial(k) * ordered.count, ordered.method)


def subset_sum_obstruction(n: int, coeffs) -> tuple[tuple[int, ...], int] | None:
    """The first proper nonempty subset of coefficient positions (smallest
    size first, then lexicographic) whose coefficient sum s has gcd(s, n) > 1,
    as (positions, s); None when the distinct-count hypothesis holds.

    The sums of all 2**k subsets are built by doubling (bit i of a mask is
    position i), and one pass walks the proper subsets in the order above,
    one gcd each, up to the first obstruction; the masks of that walk come
    from a table per k.  The outcome is cached per (n, coefficient tuple).
    """
    return _subset_sum_obstruction(n, tuple(coeffs))


@lru_cache(maxsize=8)  # a verify grid goes through k = 1..k_max at every n
def _subset_walk(k: int) -> tuple[int, ...]:
    """The masks of the proper nonempty subsets of k positions, in walk order."""
    walk = (itertools.combinations(range(k), size) for size in range(1, k))
    return tuple(sum(1 << i for i in subset) for subset in itertools.chain.from_iterable(walk))


@lru_cache(maxsize=_INSTANCE_CACHE_SIZE)
def _subset_sum_obstruction(n: int, coeffs: tuple[int, ...]):
    sums = [0]
    for c in coeffs:
        sums += [s + c for s in sums]
    for mask in _subset_walk(len(coeffs)):
        if math.gcd(sums[mask], n) != 1:
            return tuple(i for i in range(len(coeffs)) if mask >> i & 1), sums[mask]
    return None


def distinct_count_gcd_condition(spec: CongruenceSpec) -> CountResult:
    """Distinct-solution count when every proper nonempty subset of the
    coefficients has sum coprime to n.

    Writing g = gcd(a1+...+ak, n) and F = (n-1)(n-2)...(n-k+1):

        g does not divide b:  (-1)^k (k-1)! + F
        g divides b:          (-1)^(k-1) (k-1)! (g-1) + F

    The subset hypothesis is checked exhaustively (k <= 20 enforced), once
    per coefficient tuple.
    """
    n, k = spec.n, spec.k
    if k > 20:
        raise DomainError(f"subset hypothesis check limited to k <= 20, got {k}")
    obstruction = _subset_sum_obstruction(n, spec.coeffs)
    if obstruction is not None:
        subset, s = obstruction
        raise DomainError(f"subset {subset} has sum {s} with gcd({s}, {n}) > 1")
    if k > n:
        return CountResult(0, FORMULA)
    g = math.gcd(sum(spec.coeffs), n)
    falling = math.perm(n - 1, k - 1)
    fact = math.factorial(k - 1)
    if spec.b % g:
        value = (-fact if k % 2 else fact) + falling
    else:
        value = (fact if k % 2 else -fact) * (g - 1) + falling
    return CountResult(value, FORMULA)


@lru_cache(maxsize=_INSTANCE_CACHE_SIZE)
def _common_block_terms(n: int, sizes: tuple[int, ...], f: int) -> tuple[tuple[int, int], ...]:
    """The terms of the single divisor sum for blocks whose coefficients
    share gcd f with n,

        (f/n) * sum over d | gcd(n/f, k1, ..., kt) of
            prod_i C(n/d + ki/d - 1, ki/d) * C_d(b/f),

    0 when f does not divide b: the pairs (d, f * prod_i C(...)), which
    _ramanujan_total evaluates at b with the reduced target b/f, as for strict
    order.  Each binomial is the paper's n/(n+ki) * C((n+ki)/d, ki/d), with
    the prefactor folded in."""
    return tuple(
        (d, f * math.prod(math.comb(n // d + ki // d - 1, ki // d) for ki in sizes))
        for d in arith.divisors(math.gcd(n // f, *sizes))
    )


@lru_cache(maxsize=_INSTANCE_CACHE_SIZE)
def _block_orbit_plan(
    n: int, sizes: tuple[int, ...], coeffs: tuple[int, ...]
) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """The target-independent part of the mixed-gcd block sum: for each
    divisor tuple (d_1, ..., d_t) with every j_i = k_i*d_i/n integral, in
    itertools.product order, the pair (float(weight), the m in [1, n] with
    gcd(a_i*m, n) = d_i for every i, in increasing order).  The weight is
    the integer prod_i C(d_i + j_i - 1, j_i) >= 1, correctly rounded by
    float().  One pass over m groups each m by its gcd tuple."""
    weights: list[dict[int, int]] = []
    for ki in sizes:
        per_block: dict[int, int] = {}
        for d in arith.divisors(n):
            if (ki * d) % n:
                continue
            j = ki * d // n
            per_block[d] = math.comb(d + j - 1, j)
        weights.append(per_block)
    orbits: dict[tuple[int, ...], list[int]] = {}
    for m in range(1, n + 1):
        orbits.setdefault(tuple(math.gcd(a * m, n) for a in coeffs), []).append(m)
    plan = []
    for combo in itertools.product(*(sorted(w) for w in weights)):
        weight = math.prod(weights[i][d] for i, d in enumerate(combo))
        plan.append((float(weight), tuple(orbits.get(combo, ()))))
    return tuple(plan)


@lru_cache(maxsize=_INSTANCE_CACHE_SIZE)
def _roots_of_unity(n: int) -> tuple[complex, ...]:
    """e(r/n) for r in [0, n), each as arith.root_of_unity computes it."""
    return tuple(arith.root_of_unity(r, n) for r in range(n))


def order_blocks_count(spec: BlockSpec) -> CountResult:
    """Count solutions that are weakly decreasing within each coefficient
    block.

    When all gcd(a_i, n) equal one f, uses the single divisor sum
    (_common_block_terms) in plain integers, its terms built once per
    (n, sizes, f).  Otherwise evaluates the general form: for every divisor
    tuple (d_1, ..., d_t) with integral j_i = k_i*d_i/n, the weight
    prod_i d_i/(d_i+j_i) * C(d_i+j_i, j_i) = prod_i C(d_i+j_i-1, j_i), an
    integer, multiplies the exponential sum over m in [1, n] with
    gcd(a_i*m, n) = d_i for every i, and the total is divided by n and
    rounded with a recorded residual.  Divisor tuples with a fractional j_i
    have weight 0 and are skipped.

    Only the roots e(-b*m/n) depend on the target.  The weights and the m of
    each divisor tuple are built once per (n, sizes, coefficients) and the
    roots once per n, in small caches, so a sweep over the targets of one
    instance pays for them once.  Each call still adds the same floats in
    the same order as a sum rebuilt on every call, so counts, residuals and
    errors do not change.
    """
    n, b = spec.n, spec.b
    sizes, coeffs = spec.sizes, spec.coeffs
    gcds = [math.gcd(a, n) for a in coeffs]
    if len(set(gcds)) == 1:
        f = gcds[0]
        return CountResult(_ramanujan_total(n, f, b, _common_block_terms(n, sizes, f)), FORMULA)
    roots = _roots_of_unity(n)
    acc = 0j
    for weight, orbit in _block_orbit_plan(n, sizes, coeffs):
        expo = 0j
        for m in orbit:
            expo += roots[-b * m % n]
        acc += weight * expo
    value, resid = arith.round_complex_to_int(acc / n)
    if value < 0:
        raise ConsistencyError(f"negative block count {value}")
    return CountResult(value, FORMULA, resid)


# ----------------------------------------------------------------------
# The front door.  Each route reads its counter when it runs, so a patched
# or traced counter is the one called.


def _per_target(counter, spec, max_states=None):
    """counter(spec at b), and an OracleBudget(max_states) when given."""
    if max_states is None:
        return lambda b: counter(spec.with_target(b))
    return lambda b: counter(spec.with_target(b), OracleBudget(max_states))


def _shared(counter, spec, otherwise):
    """counter(n, k, a, b) as a function of b when every coefficient is a,
    else _per_target(otherwise, spec), or DomainError when that is None."""
    n, k, a = spec.n, spec.k, spec.coeffs[0]
    if spec.coeffs.count(a) == k:
        return lambda b: counter(n, k, a, b)
    if otherwise is None:
        raise DomainError("strict order has a closed form for equal coefficients only")
    return _per_target(otherwise, spec)


# restriction -> route(spec, OracleBudget) -> the counter as a function of b
_ROUTES = {
    "all": lambda spec, _: _per_target(lehmer_count, spec),
    "square": lambda spec, budget: _per_target(square_count, spec, budget.max_states),
    "strict-order": lambda spec, _: _shared(strict_order_count, spec, None),
    "distinct": lambda spec, _: _shared(
        distinct_count_equal_coeffs, spec, distinct_count_gcd_condition),
    "blocks": lambda spec, _: _per_target(order_blocks_count, spec),
}


def counter(spec: CongruenceSpec | BlockSpec, restriction: str = "all",
            budget: OracleBudget | None = None):
    """The count of ``spec``'s instance under ``restriction`` as a function
    of the target b.  Square's oracle fallback (even n) charges each target
    to its own OracleBudget of ``budget``'s size."""
    route = _ROUTES.get(restriction)
    if route is None or isinstance(spec, BlockSpec) != (restriction == "blocks"):
        raise DomainError(f"no restriction {restriction!r} for a {type(spec).__name__}")
    return route(spec, budget or OracleBudget())


def count(spec: CongruenceSpec | BlockSpec, restriction: str = "all",
          budget: OracleBudget | None = None) -> CountResult:
    """The exact count of ``spec`` under ``restriction``: counter at spec.b."""
    return counter(spec, restriction, budget)(spec.b)
