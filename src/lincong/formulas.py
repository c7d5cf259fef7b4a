"""Closed-form counters for restricted solutions of linear congruences.

Each counter returns a CountResult with an exact count.  Strict order (and
distinct with equal coefficients) and blocks whose coefficients share one
gcd with n are one integer divisor sum over block weights, _engine, by
two Moebius passes; the square and mixed-gcd block counters round a complex
sum, with its residual.

A count has an instance part, which reads only the modulus, the
coefficients and the divisor structure, and a target part, where b enters.
counter(spec, restriction) is the front door over oracles.RESTRICTIONS: one
table, _ROUTES, sends all, square and blocks to their counters; strict-order,
for equal coefficients only, to the engine; distinct to k! times it for
equal coefficients, else to the gcd-condition form.  The route builds the
instance part once and returns the target part as a function of b, which
holds what it reads.  An exact counter (Lehmer, the engine, the
gcd-condition form) is a table of results by gcd class, _by_class, so a
target is one lookup, as is equal-coefficient distinct's own table of k!
times strict order's.  A float counter holds, per prime power q of an odd n,
the square terms T_i(m) and the roots of unity, the 2^k subset products per
residue charged to the counter's budget before they are built, and the
(value, residual) of each residue b mod q it has been asked at, so a sweep
evaluates each prime power once per residue mod q; or for an even n the
oracle histogram, built and charged there; or the general block
counter's orbit plan, with integer block weights, and roots.  A route
raises its DomainError, BudgetExceededError or (exact) ConsistencyError
when it is built, and a target only the ConsistencyError of a float route.
count(spec, restriction) is the counter at spec.b.

A named counter (lehmer_count, strict_order_count, square_count, ...) is
its instance's counter at b, from the same builder that _ROUTES calls, so
each float loop and the even-n square fallback exist once and a count,
residual or error is bit for bit the same on both paths.  Those builders
keep their last two counters, so a sweep over the targets of one instance
builds it once.  The strict-order route asks its builder at gcd(a, n),
which gives the same table, so the a of one gcd class share one build.
square_count alone builds its counter at every call: a cache keyed on the
prime power alone would keep serving terms computed before a patched
epsilon or Gauss sum, which the self-test's mutation check relies on
seeing.  The subset-sum check keeps its own two entries, for a
check made just before its counter is built.  Every counter is verified
against the independent oracle histograms in the test suite.
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import lru_cache, partial
from operator import add, mul

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


# Counters each cached builder keeps.  An engine counter holds tau(G) results
# by gcd class; a mixed-gcd block counter holds its orbit plan and n roots,
# O(n) values (about 15 MiB at n = 200000), which stay cached after the sweep.
_INSTANCE_CACHE_SIZE = 2


def lehmer_count(spec: CongruenceSpec) -> CountResult:
    """Unrestricted solution count: g*n^(k-1) if g | b else 0, where g is the
    gcd of all coefficients and the modulus."""
    return _lehmer(spec.n, spec.coeffs)(spec.b)


@lru_cache(maxsize=_INSTANCE_CACHE_SIZE)
def _lehmer(n: int, coeffs: tuple[int, ...]):
    g = math.gcd(n, *coeffs)
    return _by_class(g, 1, {1: g * n ** (len(coeffs) - 1)})


def _by_class(f: int, g: int, counts: dict[int, int], miss: int = 0):
    """The exact counter as one lookup: ``miss`` where f does not divide b,
    else the result of class d = gcd(b/f, g), ``counts[d]`` for each d | g."""
    return _lookup(f, g, {d: CountResult(c, FORMULA) for d, c in counts.items()}, miss)


def _lookup(f: int, g: int, results, miss: int = 0):
    """_by_class over a mapping of class d to its CountResult."""
    miss = CountResult(miss, FORMULA)
    return lambda b: miss if b % f else results[math.gcd(b // f, g)]


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


def _square_count_prime_power(p: int, ell: int, coeffs: tuple[int, ...]):
    """Square-solution count modulo p^ell, as a function of b giving
    (count, residual), by the subset-expanded average

        (1/p^ell) * ( p^ell*[p^ell | b]
                      + sum over nonempty K of 2^(-|K|) * S_K ),

    S_K = sum_m e(-b*m/p^ell) * prod_{i in K} T_i(m) with T_i the per-variable
    combination of Ramanujan and Gauss sums.  The subset sum runs over all
    nonempty K including the full index set.  The m-independent first term is
    taken in closed form to keep float error out of the dominant part.

    T_i(m) depends on a_i*m mod p^ell only, so one table of p^ell terms
    serves every position; the rows T_1(m), ..., T_k(m) and the roots
    e(r/p^ell) are built once, before any target.  For each m the products
    e(-b*m/p^ell) * T_i1(m) * ... * T_ir(m), i1 < ... < ir, of all subsets
    come by doubling: position i appends each product so far times T_i(m),
    so index mask(K) holds the left-to-right product of K.  The first
    _CHUNK_BITS positions are doubled per m and the subsets of the others
    are taken one chunk at a time, so at most 2**_CHUNK_BITS products are
    live; the S_K go to two flat arrays of doubles.  Each S_K adds its terms
    in increasing m, and the total adds the S_K by size, then in
    itertools.combinations order: the float operations of a loop that
    multiplies every product anew, so the count, the residual and any error
    are bit for bit the same.
    """
    mod = p**ell
    k = len(coeffs)
    table = [_square_term(p, ell, x) for x in range(mod)]
    roots = [arith.root_of_unity(r, mod) for r in range(mod)]
    residues = range(1, mod + 1)
    rows = [[table[a * m % mod] for a in coeffs] for m in residues]
    low = min(k, _CHUNK_BITS)
    bits = [1 << i for i in range(k)]

    def at(b):
        # root_of_unity reduces its angle first: the floats of e(-b*m/p^ell)
        phases = [roots[-b * m % mod] for m in residues]
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
        for size in range(1, k + 1):
            weight = 0.5**size
            for subset in itertools.combinations(bits, size):
                mask = sum(subset)  # disjoint bits, so the integer sum is the mask
                acc += weight * complex(real[mask], imag[mask])
        value, resid = arith.round_complex_to_int(acc / mod)
        if value < 0:
            raise ConsistencyError(f"negative square count {value} mod {p}^{ell}")
        return value, resid

    return at


def square_count(
    spec: CongruenceSpec, budget: OracleBudget | None = None
) -> CountResult:
    """Count solutions whose coordinates are all squares modulo n: the
    instance's square counter at b.

    For odd n the count multiplies over the prime powers of n, each factor
    evaluated by the Ramanujan/Gauss-sum expansion, whose 2^k subset
    products per residue are charged to ``budget`` (a default OracleBudget
    when None).  The expansion is proved for odd n only, so even moduli
    route to the enumeration oracle and are tagged as such; that fallback is
    charged its histogram's tuples instead.  Either raises
    BudgetExceededError, before the counter is built, when it does not fit.
    """
    return counter(spec, "square", budget)(spec.b)


def _square(spec: CongruenceSpec):
    """The odd-n square count as a function of b, its prime-power parts built
    once.  The part for q = p^e reads b only as -b*m % q and b % q == 0, so
    it runs once per residue r = b mod q and its (value, residual) is kept by
    r: a sweep runs it q times, not n.  A part that raises keeps nothing, so
    every target of its class raises the same error."""
    parts = [(p**e, _square_count_prime_power(p, e, spec.coeffs), {})
             for p, e in arith.factorize(spec.n).factors]

    def at(b):
        total = 1
        worst = 0.0
        for mod, part, seen in parts:
            r = b % mod
            if r not in seen:
                seen[r] = part(r)
            value, resid = seen[r]
            total *= value
            worst = max(worst, resid)
        return CountResult(total, FORMULA, worst)

    return at


def square_solution_exists(
    spec: CongruenceSpec, budget: OracleBudget | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide existence of a square solution, with a witness when one exists.

    A tuple of squares solves the congruence exactly when it does so modulo
    every p^e exactly dividing n, so each prime power is solved alone: by
    _square_witness_by_class for odd p and k <= 20, else (or when no subset
    qualifies) by the first solution the oracle lists, charged to ``budget``
    (a default OracleBudget per listing when None).  The answer is
    (False, None) at the first prime power with no local solution; else the
    local witnesses are glued by CRT and the witness is verified by
    substitution, so a false positive is impossible.
    """
    local_witnesses = []
    for p, e in arith.factorize(spec.n).factors:
        local = CongruenceSpec(p**e, spec.coeffs, spec.b)
        found = _square_witness_by_class(local, p) if p > 2 and spec.k <= 20 else None
        hits = [found] if found else oracles.oracle_solutions(local, "square", budget, limit=1)
        if not hits:
            return False, None
        local_witnesses.append((p**e, hits[0]))
    witness = tuple(_crt([(w[i], mod) for mod, w in local_witnesses], spec.n)
                    for i in range(spec.k))
    lhs = sum(a * x for a, x in zip(spec.coeffs, witness)) % spec.n
    if lhs != spec.b or not all(characters.square_indicator(spec.n, x) for x in witness):
        raise ConsistencyError(f"witness {witness} failed verification")
    return True, witness


def _square_witness_by_class(local: CongruenceSpec, p: int) -> tuple[int, ...] | None:
    """A square solution modulo the odd prime power local.n = p^e when the
    target b is a unit: the first subset of positions (by size, then
    lexicographic) whose coefficient sum s is a unit with (s/p) = (b/p)
    takes the square s^(-1)*b, the other positions 0.  None when b is not a
    unit or no subset qualifies."""
    mod, b, coeffs = local.n, local.b, local.coeffs
    if b % p == 0:
        return None
    target_class = arith.jacobi_symbol(b % p, p)
    for size in range(1, local.k + 1):
        for subset in itertools.combinations(range(local.k), size):
            s = sum(coeffs[i] for i in subset) % mod
            if s % p and arith.jacobi_symbol(s % p, p) == target_class:
                val = pow(s, -1, mod) * b % mod
                return tuple(val if i in subset else 0 for i in range(local.k))
    return None


def _crt(residues: list[tuple[int, int]], n: int) -> int:
    """Glue (value, modulus) pairs with coprime moduli multiplying to n."""
    x = 0
    for val, mod in residues:
        rest = n // mod
        x += val * rest * pow(rest, -1, mod)
    return x % n


def _engine(n: int, blocks: list[tuple[str, int, int]]):
    """The count of ordered blocks modulo n as a function of b, in integers."""
    return _by_class(*_engine_classes(n, blocks))


def _engine_classes(n: int, blocks: list[tuple[str, int, int]]):
    """(f, G, count of each gcd class d | G) for ordered blocks modulo n.

    A block (kind, k, a) is k variables with coefficient a, weakly ("weak")
    or strictly ("strict") decreasing on [0, n).  With f = gcd(n, a_1, ...)
    and t mod n grouped by its order h mod n/f, the count is 0 unless f | b,
    else

        (f/n) * sum over h | n/f of C_h(b/f) * prod_i w_i(n*gcd(a_i/f, h)/h).

    At d = gcd(a*t, n) the weight is the z^k coefficient of the product over
    x in [0, n) of 1/(1 - z*e(a*t*x/n)) = (1 - z^(n/d))^-d for weak, or of
    1 + z*e(a*t*x/n) = (1 - (-z)^(n/d))^d for strict: C(d+j-1, j) or
    (-1)^(j+k)*C(d, j), j = k*d/n, and 0 unless j is an integer.  So h runs
    over the divisors of G = gcd(n/f, k_i*gcd(a_i/f, n/f) for each i), and
    n is never factored.  C_h(b/f) reads b/f only through d = gcd(b/f, G).

    _class_sums gives T(d) = sum over h | G of c_h*C_h(d), c_h = f*prod_i w_i.
    The build raises ConsistencyError unless every T(d) is a nonnegative
    multiple of n and the sum over d | G of (n/f/G)*phi(G/d)*T(d) is
    n*prod_i w_i(n), n times the states (a check of the passes, not of the
    weights).
    """
    f = n  # plain loops: unpacking into math.gcd made small builds 25 % slower
    for _, _, a in blocks:
        f = math.gcd(f, a)
    m = bound = n // f
    reduced = []  # (strict, k, r): gcd(a/f, h) = gcd(r, h) for h | m, r = gcd(a/f, m)
    for kind, k, a in blocks:
        r = math.gcd(a // f, m)
        bound = math.gcd(bound, k * r)
        reduced.append((kind == "strict", k, r))
    classes = arith.divisors(bound)
    table = dict.fromkeys(classes, 0)
    for h in classes:
        c = f
        for strict, k, r in reduced:
            g = math.gcd(r, h)
            if k * g % h:
                break
            d, j = n // h * g, k * g // h
            w = math.comb(d, j) if strict else math.comb(d + j - 1, j)
            c *= -w if strict and (j + k) % 2 else w
        else:
            table[h] = c
    states = table[1] // f  # at h = 1 each weight counts all of its block's tuples
    _class_sums(bound, table)
    total = sum(map(mul, _cofactor_phis(bound), table.values()))
    if m // bound * total != n * states:
        raise ConsistencyError(f"class sums give {m // bound * total} states, not {n * states}")
    for t in table.values():
        if t % n or t < 0:
            raise ConsistencyError(f"divisor sum {t} is not a nonnegative multiple of {n}")
    return f, bound, {d: t // n for d, t in table.items()}


@lru_cache(maxsize=arith.CACHE_SIZE)
def _cofactor_phis(bound: int) -> tuple[int, ...]:
    """phi(G/d) for each d | G = bound, in increasing d."""
    return tuple(arith.euler_phi(bound // d) for d in arith.divisors(bound))


def _class_sums(bound: int, table: dict[int, int]) -> None:
    """Replace table[h] = c_h, h | G = bound, by T(d) = sum over h of c_h*C_h(d).
    As C_h(d) = sum over e | gcd(h, d) of e*mu(h/e), that is one sweep per
    prime of G for D(e) = sum over e | h | G of mu(h/e)*c_h, then one for
    T(d) = sum over e | d of e*D(e)."""
    classes = arith.divisors(bound)
    factors = arith.factorize(bound).factors
    for p, _ in factors:  # increasing e: table[e*p] is not yet updated for p
        for e in classes:
            if bound % (e * p) == 0:
                table[e] -= table[e * p]
    for e in classes:
        table[e] *= e
    for p, _ in factors:  # increasing d: table[d/p] is already updated for p
        for d in classes:
            if d % p == 0:
                table[d] += table[d // p]


def strict_order_count(n: int, k: int, a: int, b: int) -> CountResult:
    """Count solutions of a*(x1+...+xk) = b (mod n) with x1 > ... > xk on the
    residues [0, n): the instance's counter (_strict), one _engine block, at b."""
    if n < 1 or k < 1:
        raise DomainError("strict_order_count needs n >= 1 and k >= 1")
    return _strict(n, k, a)(b)


@lru_cache(maxsize=_INSTANCE_CACHE_SIZE)
def _strict(n: int, k: int, a: int):
    """One strict block of _engine: every weight, so every count, is 0 for k > n."""
    return _engine(n, [("strict", k, a)])


def distinct_count_equal_coeffs(n: int, k: int, a: int, b: int) -> CountResult:
    """Count solutions with all coordinates distinct when every coefficient
    equals a: k! times the strictly ordered count, from the instance's own
    table (_distinct_equal), at b."""
    if n < 1 or k < 1:
        raise DomainError("distinct_count_equal_coeffs needs n >= 1 and k >= 1")
    return _distinct_equal(n, k, a)(b)


@lru_cache(maxsize=_INSTANCE_CACHE_SIZE)
def _distinct_equal(n: int, k: int, a: int):
    """Strict order's class table with each class read as k! times its count."""
    f, g, counts = _engine_classes(n, [("strict", k, a)])
    return _lookup(f, g, _TimesFactorial(k, counts))


class _TimesFactorial(dict):
    """k! times each class count, formed at the class's first lookup, and k!
    at the first nonzero one: a one-target count forms one product."""

    def __init__(self, k: int, counts: dict[int, int]):
        self.k, self.counts, self.factorial = k, counts, None

    def __missing__(self, d: int) -> CountResult:
        count = self.counts[d]
        if count:
            if self.factorial is None:
                self.factorial = math.factorial(self.k)
            count *= self.factorial
        result = self[d] = CountResult(count, FORMULA)
        return result


def subset_sum_obstruction(n: int, coeffs) -> tuple[tuple[int, ...], int] | None:
    """The first proper nonempty subset of coefficient positions (smallest
    size first, then lexicographic) whose coefficient sum s has gcd(s, n) > 1,
    as (positions, s); None when the distinct-count hypothesis holds.

    The sums of all 2**k subsets are built by doubling (bit i of a mask is
    position i), and one pass walks the proper subsets in the order above,
    one gcd each, up to the first obstruction; the masks of that walk come
    from a table per k.  At n = 1 every gcd is 1, so nothing is built.  The
    outcome is cached per (n, coefficient tuple).
    """
    return _subset_sum_obstruction(n, tuple(coeffs))


@lru_cache(maxsize=8)  # a verify grid goes through k = 1..k_max at every n
def _subset_walk(k: int) -> tuple[int, ...]:
    """The masks of the proper nonempty subsets of k positions, in walk order."""
    walk = (itertools.combinations(range(k), size) for size in range(1, k))
    return tuple(sum(1 << i for i in subset) for subset in itertools.chain.from_iterable(walk))


@lru_cache(maxsize=_INSTANCE_CACHE_SIZE)
def _subset_sum_obstruction(n: int, coeffs: tuple[int, ...]):
    if n == 1:
        return None
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
    return _distinct_gcd(spec.n, spec.coeffs)(spec.b)


@lru_cache(maxsize=_INSTANCE_CACHE_SIZE)
def _distinct_gcd(n: int, coeffs: tuple[int, ...]):
    """The counter by whether g = gcd(a1+...+ak, n) divides b; DomainError
    when the subset hypothesis fails or k > 20."""
    k = len(coeffs)
    if k > 20:
        raise DomainError(f"subset hypothesis check limited to k <= 20, got {k}")
    obstruction = _subset_sum_obstruction(n, coeffs)
    if obstruction is not None:
        subset, s = obstruction
        raise DomainError(f"subset {subset} has sum {s} with gcd({s}, {n}) > 1")
    if k > n:
        return _by_class(1, 1, {1: 0})
    g = math.gcd(sum(coeffs), n)
    falling = math.perm(n - 1, k - 1)
    fact = math.factorial(k - 1)
    hit = (fact if k % 2 else -fact) * (g - 1) + falling
    return _by_class(g, 1, {1: hit}, (-fact if k % 2 else fact) + falling)


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


def order_blocks_count(spec: BlockSpec) -> CountResult:
    """Count solutions that are weakly decreasing within each coefficient
    block: the instance's counter (_blocks) at b.

    When all gcd(a_i, n) are equal, the counter is _engine on weak blocks.
    Otherwise, for every divisor tuple (d_1, ..., d_t) with every weak weight
    of _engine nonzero, their product multiplies the float exponential sum
    over m in [1, n] with gcd(a_i*m, n) = d_i for every i; the total is
    divided by n and rounded with a recorded residual.  Only the roots
    e(-b*m/n) depend on the target: the weights, the m of each divisor tuple
    and the roots are built with the counter, and each target adds the same
    floats in the same order as a sum rebuilt at every target would.
    """
    return _blocks(spec.n, spec.blocks)(spec.b)


@lru_cache(maxsize=_INSTANCE_CACHE_SIZE)
def _blocks(n: int, blocks: tuple[tuple[int, int], ...]):
    sizes, coeffs = zip(*blocks)
    if len({math.gcd(a, n) for a in coeffs}) == 1:
        return _engine(n, [("weak", k, a) for k, a in blocks])
    roots = tuple(arith.root_of_unity(r, n) for r in range(n))
    return partial(_orbit_sum, n, roots, _block_orbit_plan(n, sizes, coeffs))


def _orbit_sum(n: int, roots, plan, b: int) -> CountResult:
    """The target part of the mixed-gcd block count."""
    acc = 0j
    for weight, orbit in plan:
        expo = 0j
        for m in orbit:
            expo += roots[-b * m % n]
        acc += weight * expo
    value, resid = arith.round_complex_to_int(acc / n)
    if value < 0:
        raise ConsistencyError(f"negative block count {value}")
    return CountResult(value, FORMULA, resid)


# ----------------------------------------------------------------------
# The front door.  A route builds its counter's instance part, reading the
# builder (_lehmer, _square, _strict, _blocks, ...) by name when it runs, so
# a patched builder is the one used.


def _strict_route(spec: CongruenceSpec, _budget):
    """The strict block's table, keyed on gcd(a, n) for a grid's sake: a
    unit u maps the k-subsets of Z_n onto themselves by S -> u*S, so the
    count depends on a only through that gcd.  _engine_classes builds the
    same table for both, as f = gcd(n, a) and r = gcd(a/f, n/f) = 1.
    strict_order_count keys its table on a itself, so at a unit a (a = 5
    at n = 12) the named counter reads _strict(n, k, 5) and this route
    _strict(n, k, 1): keying the named counter on the gcd would cost one
    math.gcd per call, a visible share of its microsecond-scale call."""
    if len(set(spec.coeffs)) > 1:
        raise DomainError("strict order has a closed form for equal coefficients only")
    return _strict(spec.n, spec.k, math.gcd(spec.coeffs[0], spec.n))


def _distinct_route(spec: CongruenceSpec, _budget):
    """k! times strict order for equal coefficients, else the gcd-condition
    form, whose DomainError (a failed subset-sum hypothesis, or k > 20) is
    raised here, when the counter is built, as strict order's is.  The
    equal-coefficient table stays keyed on a itself, unlike _strict_route's,
    so that distinct_count_equal_coeffs and this route share one cached
    table; a distinct grid holds few equal-coefficient tuples."""
    n, k = spec.n, spec.k
    if len(set(spec.coeffs)) == 1:
        return _distinct_equal(n, k, spec.coeffs[0])
    return _distinct_gcd(n, spec.coeffs)


def _square_route(spec: CongruenceSpec, budget: OracleBudget):
    """_square for odd n, its 2^k subset products per residue of each p^e
    exactly dividing n charged to ``budget`` before any part is built; for
    even n the oracle fallback, its histogram built and charged here.  A
    refused charge leaves the budget unchanged and builds nothing."""
    n = spec.n
    if n % 2 == 0:
        histogram = oracles.oracle_histogram(spec, "square", budget)
        return lambda b: CountResult(histogram[b % n], ORACLE_FALLBACK)
    budget.charge(2**spec.k * sum(p**e for p, e in arith.factorize(n).factors))
    return _square(spec)


# restriction -> route(spec, OracleBudget) -> the counter as a function of b
_ROUTES = {
    "all": lambda spec, _: _lehmer(spec.n, spec.coeffs),
    "square": _square_route,
    "strict-order": _strict_route,
    "distinct": _distinct_route,
    "blocks": lambda spec, _: _blocks(spec.n, spec.blocks),
}


def counter(spec: CongruenceSpec | BlockSpec, restriction: str = "all",
            budget: OracleBudget | None = None):
    """The count of ``spec``'s instance under ``restriction`` as a function
    of the target b.  The work that does not read b is done here, once, and
    so is every refusal: a DomainError (an unknown restriction, or an instance
    outside the route's closed form), an exact route's ConsistencyError, or
    square's BudgetExceededError, whose charge (subset expansion at odd n,
    oracle fallback at even n) goes to ``budget`` (a default OracleBudget when
    None) before any of the counter is built.  A target raises only the
    ConsistencyError of a float route."""
    route = _ROUTES.get(restriction)
    if route is None or isinstance(spec, BlockSpec) != (restriction == "blocks"):
        raise DomainError(f"no restriction {restriction!r} for a {type(spec).__name__}")
    return route(spec, budget or OracleBudget())


def count(spec: CongruenceSpec | BlockSpec, restriction: str = "all",
          budget: OracleBudget | None = None) -> CountResult:
    """The exact count of ``spec`` under ``restriction``: counter at spec.b."""
    return counter(spec, restriction, budget)(spec.b)
