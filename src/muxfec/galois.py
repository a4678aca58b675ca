"""Arithmetic in GF(q) and its quadratic extension GF(q^2), q prime.

Elements of GF(q^2) are residues lo + hi*x of GF(q)[x] modulo a monic
irreducible quadratic x^2 + c1*x + c0.  The base field embeds as the
elements with hi = 0.  An element is held as its integer display code
hi*q + lo (also the matrix dump format).  FieldSpec.add, sub and mul are
the single-element API; mul applies FieldSpec.mul_map, the one statement
of the product rule.  The two hot kernels of linalg call none of them per
entry: they multiply lane-packed (lo, hi) coordinates by the entries of
mul_map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981  # least strong pseudoprime to all 13 bases


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 prime bases.

    The answer is exact for every n below PRIME_LIMIT; larger n raise
    ValueError rather than risk accepting a strong pseudoprime.
    """
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality is only decided below {PRIME_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


_Q_BUMP_EVERY = 4


def field_sizes(q: int, attempts: int) -> Iterator[int]:
    """The field size of each of `attempts` randomized draws, from prime q.

    Every few draws q moves to the next prime >= max(q+2, 3q/2): the
    draw-pass probability behaves like exp(-c/q), so the field grows
    geometrically rather than one prime at a time.
    """
    for attempt in range(attempts):
        if attempt > 0 and attempt % _Q_BUMP_EVERY == 0:
            q = next_prime(max(q + 2, q * 3 // 2))
        yield q


def smallest_nonresidue(q: int) -> int:
    """Smallest quadratic non-residue modulo an odd prime q."""
    for r in range(2, q):
        if pow(r, (q - 1) // 2, q) == q - 1:
            return r
    raise ValueError(f"no quadratic non-residue mod {q}")


@dataclass(frozen=True)
class FieldSpec:
    """A prime q together with the quadratic x^2 + c1*x + c0 defining GF(q^2).

    Provides arithmetic on integer display codes hi*q + lo; codes in
    [0, q) are exactly the base-field elements.
    """

    q: int
    c1: int
    c0: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q}")
        if not (0 <= self.c1 < self.q and 0 <= self.c0 < self.q):
            raise ValueError("ext_poly coefficients must be reduced mod q")
        if self.q == 2:
            irreducible = all((x * x + self.c1 * x + self.c0) % 2 for x in (0, 1))
        else:
            # Euler's criterion: a root exists iff the discriminant is a square
            disc = (self.c1 * self.c1 - 4 * self.c0) % self.q
            irreducible = pow(disc, (self.q - 1) // 2, self.q) == self.q - 1
        if not irreducible:
            raise ValueError(
                f"x^2 + {self.c1}x + {self.c0} has a root mod {self.q}; not irreducible"
            )

    @property
    def order(self) -> int:
        return self.q * self.q

    def ext_poly(self) -> tuple[int, int]:
        return (self.c1, self.c0)

    # -- integer-code arithmetic ------------------------------------------

    def code(self, lo: int, hi: int = 0) -> int:
        """Display code of lo + hi*x; lo and hi may be any (unreduced) ints."""
        return (hi % self.q) * self.q + (lo % self.q)

    def mul_map(self, e: int) -> tuple[int, int, int, int]:
        """Multiplication by e as a map on (lo, hi) coordinates.

        e * (a0 + a1*x) = (m00*a0 + m01*a1) + (m10*a0 + m11*a1)*x modulo q,
        for the returned (m00, m01, m10, m11): x^2 = -c1*x - c0 folds the
        a1*e1*x^2 term into both coordinates.
        """
        q = self.q
        e0, e1 = e % q, e // q
        return e0, -self.c0 * e1 % q, e1, (e0 - self.c1 * e1) % q

    def is_base(self, a: int) -> bool:
        return a < self.q

    def add(self, a: int, b: int) -> int:
        q = self.q
        return (a // q + b // q) % q * q + (a + b) % q

    def sub(self, a: int, b: int) -> int:
        q = self.q
        return (a // q - b // q) % q * q + (a - b) % q

    def mul(self, a: int, b: int) -> int:
        q = self.q
        m00, m01, m10, m11 = self.mul_map(a)
        b0, b1 = b % q, b // q
        return (m10 * b0 + m11 * b1) % q * q + (m00 * b0 + m01 * b1) % q

    def inv(self, a: int) -> int:
        """Multiplicative inverse, via the conjugate over the base field.

        For a = a0 + a1*x the conjugate abar = (a0 - a1*c1) - a1*x satisfies
        a*abar = a0^2 - c1*a0*a1 + c0*a1^2 in GF(q), so inv(a) = abar / norm.
        """
        if a == 0:
            raise ValueError("no inverse of zero")
        q = self.q
        if a < q:
            return pow(a, q - 2, q)
        a0, a1 = a % q, a // q
        norm = (a0 * a0 - self.c1 * a0 * a1 + self.c0 * a1 * a1) % q
        ninv = pow(norm, q - 2, q)
        lo = (a0 - a1 * self.c1) * ninv % q
        hi = -a1 * ninv % q
        return hi * q + lo


def field_spec(q: int) -> FieldSpec:
    """Default FieldSpec for prime q.

    Uses x^2 - r with r the smallest quadratic non-residue mod q, so that
    x itself (display code q) is a canonical element outside the base
    field.  q = 2 has no non-residue; x^2 + x + 1 is used there.
    """
    if q == 2:
        return FieldSpec(2, 1, 1)
    r = smallest_nonresidue(q)
    return FieldSpec(q, 0, (-r) % q)
