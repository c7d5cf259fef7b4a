"""Dirichlet characters, Gauss sums, the discrete Fourier transform of
periodic functions, and squares modulo n (indicators, profiles, square roots,
and the identities the closed-form counters rely on).

Only two character kinds exist here: the principal character, and the real
character modulo n induced by the Legendre symbol of an odd prime p dividing
n.  These are the only characters any counting formula in the package needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import arith
from .errors import DomainError

PRINCIPAL = "principal"
LEGENDRE = "legendre"


@dataclass(frozen=True)
class DirichletCharacter:
    """A character modulo ``modulus``: principal, or induced by (./p).

    The conductor is 1 for the principal character and p for the induced real
    character (the Legendre symbol mod p is primitive).
    """

    modulus: int
    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.modulus < 1:
            raise DomainError(f"character modulus must be >= 1, got {self.modulus}")
        if self.kind == PRINCIPAL:
            if self.p is not None:
                raise DomainError("principal characters carry no inducing prime")
        elif self.kind == LEGENDRE:
            p = self.p
            if p is None or p % 2 == 0 or not arith.is_prime(p):
                raise DomainError(f"inducing prime must be an odd prime, got {p}")
            if self.modulus % p:
                raise DomainError(f"{p} does not divide modulus {self.modulus}")
        else:
            raise DomainError(f"unknown character kind {self.kind!r}")

    @property
    def conductor(self) -> int:
        return 1 if self.kind == PRINCIPAL else self.p


def principal_character(modulus: int) -> DirichletCharacter:
    return DirichletCharacter(modulus, PRINCIPAL)


def legendre_character(modulus: int, p: int) -> DirichletCharacter:
    return DirichletCharacter(modulus, LEGENDRE, p)


def chi_eval(chi: DirichletCharacter, m: int) -> int:
    """Value of the character at m: zero off the units, else 1 or (m/p)."""
    if math.gcd(m, chi.modulus) != 1:
        return 0
    if chi.kind == PRINCIPAL:
        return 1
    return arith.jacobi_symbol(m % chi.p, chi.p)


def gauss_sum_direct(chi: DirichletCharacter, m: int) -> complex:
    """The literal Gauss sum: sum of chi(x) e(m*x/n) over x in [1, n]."""
    n = chi.modulus
    return sum(
        chi_eval(chi, x) * arith.root_of_unity(m * x, n)
        for x in range(1, n + 1)
        if math.gcd(x, n) == 1
    ) + 0j


def gauss_sum_real_primitive(n: int) -> complex:
    """Gauss's evaluation for a real primitive character of odd squarefree
    modulus n: epsilon_n * sqrt(n)."""
    if n % 2 == 0:
        raise DomainError(f"real primitive Gauss sum needs odd n, got {n}")
    if arith.moebius(n) == 0:
        raise DomainError(f"real primitive Gauss sum needs squarefree n, got {n}")
    return arith.epsilon(n) * math.sqrt(n)


def gauss_sum_closed(chi: DirichletCharacter, m: int) -> complex:
    """Closed form for the Gauss sum of an induced (non-principal) character.

    With conductor q = p and r = n / gcd(n, m): the sum vanishes unless q
    divides r, and otherwise equals
        chi*(m / gcd(n, m)) * mu(r/q) * chi*(r/q) * phi(n)/phi(r) * tau(chi*)
    where chi* is the Legendre symbol mod p and tau(chi*) = epsilon_p*sqrt(p).
    Principal characters are rejected; their Gauss sum is the Ramanujan sum.
    """
    if chi.kind == PRINCIPAL:
        raise DomainError("principal character: use ramanujan_sum instead")
    n, p = chi.modulus, chi.p
    m %= n
    g = math.gcd(m, n)
    r = n // g
    if r % p:
        return 0j
    mu = arith.moebius(r // p)
    if mu == 0:
        return 0j
    chi_r = arith.jacobi_symbol((r // p) % p, p)
    if chi_r == 0:
        return 0j
    chi_m = arith.jacobi_symbol((m // g) % p, p)
    if chi_m == 0:
        return 0j
    scale = arith.euler_phi(n) // arith.euler_phi(r)
    return chi_m * mu * chi_r * scale * gauss_sum_real_primitive(p)


def gauss_sum_real_prime_power(p: int, ell: int, m: int) -> complex:
    """Gauss sum of the real character mod p^ell induced by (./p).

    Nonzero exactly when gcd(m, p^ell) = p^(ell-1), where it equals
    epsilon_p * (u/p) * p^(ell - 1/2) with u = m / p^(ell-1).
    """
    mod = p**ell
    mm = m % mod
    g = math.gcd(mm, mod)
    if g != p ** (ell - 1):
        return 0j
    u = mm // g
    sym = arith.jacobi_symbol(u % p, p)
    return arith.epsilon(p) * sym * p ** (ell - 1) * math.sqrt(p)


@dataclass(frozen=True)
class PeriodicFunction:
    """An n-periodic function given by its values on the canonical residues
    0..n-1 (value at any integer j is values[j mod n])."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise DomainError("periodic function needs period >= 1")

    @property
    def period(self) -> int:
        return len(self.values)

    def __call__(self, j: int):
        return self.values[j % self.period]


def dft(f: PeriodicFunction, b: int) -> complex:
    """Discrete Fourier transform: sum of f(j) e(-b*j/n) over one period."""
    n = f.period
    return sum(f(j) * arith.root_of_unity(-b * j, n) for j in range(n)) + 0j


def idft(fhat: PeriodicFunction, b: int) -> complex:
    """Inverse transform: (1/n) sum of fhat(j) e(b*j/n) over one period."""
    n = fhat.period
    return sum(fhat(j) * arith.root_of_unity(b * j, n) for j in range(n)) / n


def _hensel_lift_sqrt(w: int, u: int, p: int, ell: int) -> int:
    """Lift w with w^2 = u (mod p) to a root mod p^ell (p odd, u a unit)."""
    mod = p
    for _ in range(ell - 1):
        nxt = mod * p
        rem = (w * w - u) % nxt
        # w' = w + t*mod with t = -(rem/mod) / (2w) mod p keeps w'^2 = u.
        t = (-(rem // mod) * pow(2 * w, -1, p)) % p
        w += t * mod
        mod = nxt
    return w % mod


def sqrt_mod_prime_power(a: int, p: int, ell: int) -> frozenset[int]:
    """All y in [0, p^ell) with y^2 = a (mod p^ell), p an odd prime.

    Unit a: solve mod p by scanning, then Hensel-lift.  Non-unit a = p^(2v)*u:
    roots exist iff the valuation is even and u is a residue; the root set is
    {p^v*w + t*p^(ell-v)} over the two lifts w and t in [0, p^v).  a = 0 has
    the p^floor(ell/2) roots divisible by p^ceil(ell/2).
    """
    if p % 2 == 0 or not arith.is_prime(p):
        raise DomainError(f"odd prime required, got {p}")
    if ell < 1:
        raise DomainError(f"exponent must be >= 1, got {ell}")
    mod = p**ell
    a %= mod
    if a == 0:
        half = p ** ((ell + 1) // 2)
        return frozenset(range(0, mod, half))
    v = 0
    u = a
    while u % p == 0:
        u //= p
        v += 1
    if v % 2:
        return frozenset()
    if arith.jacobi_symbol(u % p, p) != 1:
        return frozenset()
    w0 = next(w for w in range(p) if (w * w - u) % p == 0)
    red = ell - v
    w0 = _hensel_lift_sqrt(w0, u, p, red)
    pv = p ** (v // 2)
    stride = p ** (ell - v // 2)
    roots = set()
    for w in (w0, p**red - w0):
        for y in range(pv * w, mod, stride):
            roots.add(y)
    return frozenset(roots)


@lru_cache(maxsize=None)
def square_indicator(n: int, b: int) -> int:
    """1 if b is a square modulo n (not necessarily a unit), else 0.

    Odd n: a residue is a square iff it is one modulo every prime power of n.
    Even n: exhaustive scan (the prime-power machinery here is odd-only).
    """
    if n < 1:
        raise DomainError(f"square_indicator needs n >= 1, got {n}")
    b %= n
    if n == 1:
        return 1
    if n % 2 == 0:
        return 1 if b in square_profile(n).square_set else 0
    for p, e in arith.factorize(n).factors:
        if not sqrt_mod_prime_power(b, p, e):
            return 0
    return 1


@dataclass(frozen=True)
class SquareProfile:
    """The squares modulo n: the set itself, its size s, and the number q of
    quadratic residues (unit squares)."""

    n: int
    square_set: frozenset[int]
    s: int
    q: int


@lru_cache(maxsize=None)
def square_profile(n: int) -> SquareProfile:
    """Enumerate x^2 mod n over a full residue system and tally s and q."""
    if n < 1:
        raise DomainError(f"square_profile needs n >= 1, got {n}")
    sq = frozenset(x * x % n for x in range(n))
    q = sum(1 for x in sq if math.gcd(x, n) == 1)
    return SquareProfile(n, sq, len(sq), q)


def square_decomposition_identity(p: int, ell: int, m: int) -> tuple[complex, complex]:
    """Both sides of the square-indicator decomposition modulo p^ell.

    LHS: sum over x of [x square mod p^ell] e(x*m/p^ell), summed directly.
    RHS: 1 + (1/2) * sum over even j < ell of
         (C_{p^(ell-j)}(m) + Gauss sum of the induced real character),
    evaluated through the closed forms.  Callers assert the two agree.
    """
    mod = p**ell
    lhs = sum(
        arith.root_of_unity(x * m, mod)
        for x in range(mod)
        if square_indicator(mod, x)
    ) + 0j
    rhs = 1 + 0j
    for j in range(0, ell, 2):
        rhs += 0.5 * (
            arith.ramanujan_sum(p ** (ell - j), m)
            + gauss_sum_real_prime_power(p, ell - j, m)
        )
    return lhs, rhs


def product_identity_check(n: int, a: int, m: int) -> float:
    """Max coefficient gap between prod_{j=1..n} (1 - z e(j*a*m/n)) and
    (1 - z^(n/d))^d with d = gcd(a*m, n), both expanded to degree n."""
    if n < 1:
        raise DomainError(f"product_identity_check needs n >= 1, got {n}")
    lhs = [0j] * (n + 1)
    lhs[0] = 1 + 0j
    for j in range(1, n + 1):
        w = arith.root_of_unity(j * a * m, n)
        for t in range(min(j, n), 0, -1):
            lhs[t] = lhs[t] - w * lhs[t - 1]
    d = math.gcd(a * m, n)
    rhs = [0j] * (n + 1)
    q = n // d
    for i in range(d + 1):
        sign = -1 if i % 2 else 1
        rhs[i * q] = sign * math.comb(d, i)
    return max(abs(x - y) for x, y in zip(lhs, rhs))
