"""Finite commutative rings as products of local rings Z_{p^s}.

A ring spec string is ``Z<m>`` with 2 <= m <= 2^32, or a product such as
``Z4xZ9`` / ``Z12xZ2``.  Every factor is split into its prime power parts,
all parts are pooled and sorted by (prime, exponent), so ``Z12`` and
``Z4xZ3`` denote the same ring.  Elements are tuples of residues, one per
component, with arithmetic acting componentwise.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    NonCoprimeComponentsError,
    RingMismatchError,
    RingParseError,
)

_FACTOR_RE = re.compile(r"^[Zz]0*(\d+)$")
# factoring is trial division, so factors and primes past this are refused
# before it runs: at most 2^16 divisions each
MAX_FACTOR = 2**32


def _prime_power_parts(m: int) -> list[tuple[int, int]]:
    """Factor m >= 2 into [(prime, exponent), ...] by trial division."""
    parts = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            parts.append((d, e))
        d += 1
    if m > 1:
        parts.append((m, 1))
    return parts


@dataclass(frozen=True, slots=True)
class LocalRing:
    """The local ring Z_{p^s} of prime-power order."""

    prime: int
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 1:
            raise RingParseError(f"exponent must be >= 1, got {self.exponent}")
        p = self.prime
        if p > MAX_FACTOR:
            raise RingParseError(f"prime {p} is above 2^32")
        if _prime_power_parts(p) != [(p, 1)]:
            raise RingParseError(f"{p} is not prime")

    @property
    def order(self) -> int:
        return self.prime**self.exponent

    @property
    def maximal_ideal_order(self) -> int:
        """Order of the maximal ideal (p), i.e. p^(s-1)."""
        return self.prime ** (self.exponent - 1)


@dataclass(frozen=True, slots=True)
class Ring:
    """Product ring R = R_1 x ... x R_l with each R_i = Z_{p_i^{s_i}}.

    Components are kept sorted by (prime, exponent); repeated factors are
    allowed (e.g. Z2 x Z2).
    """

    components: tuple[LocalRing, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise RingParseError("ring needs at least one component")
        ordered = tuple(
            sorted(self.components, key=lambda c: (c.prime, c.exponent))
        )
        object.__setattr__(self, "components", ordered)

    # -- basic descriptors -------------------------------------------------

    @property
    def ell(self) -> int:
        return len(self.components)

    @property
    def order(self) -> int:
        n = 1
        for c in self.components:
            n *= c.order
        return n

    @property
    def unit_count(self) -> int:
        n = 1
        for c in self.components:
            n *= c.order - c.maximal_ideal_order
        return n

    @property
    def is_coprime(self) -> bool:
        """True when component orders are pairwise coprime (distinct primes)."""
        primes = [c.prime for c in self.components]
        return len(primes) == len(set(primes))

    def spec_string(self) -> str:
        return "x".join(f"Z{c.order}" for c in self.components)

    # -- element construction ----------------------------------------------

    def element(self, residues: Iterable[int]) -> "Element":
        parts = tuple(residues)
        if len(parts) != self.ell:
            raise RingParseError(
                f"expected {self.ell} residues, got {len(parts)}"
            )
        for r, c in zip(parts, self.components):
            if isinstance(r, bool) or not isinstance(r, int):
                raise RingParseError(f"residue {r!r} is not an integer")
            if not 0 <= r < c.order:
                raise RingParseError(
                    f"residue {r} out of range for Z{c.order}"
                )
        return Element(self, parts)

    def from_int(self, value: int) -> "Element":
        """Image of an integer under the canonical map Z -> R."""
        return Element(self, tuple(value % c.order for c in self.components))

    @property
    def zero(self) -> "Element":
        return Element(self, (0,) * self.ell)

    def elements(self) -> Iterator["Element"]:
        """All |R| elements, in lexicographic residue order."""
        for parts in itertools.product(*(range(c.order) for c in self.components)):
            yield Element(self, parts)

    # -- integer encoding (coprime components only) --------------------------

    def int_encode(self, a: "Element") -> int:
        """The unique integer in [0, |R|) that ``from_int`` maps to a."""
        if not self.is_coprime:
            raise NonCoprimeComponentsError(
                "component orders are not pairwise coprime"
            )
        x, mod = 0, 1
        for r, c in zip(a.residues, self.components):
            pe = c.order
            # x' == x (mod mod), x' == r (mod pe)
            t = ((r - x) * pow(mod, -1, pe)) % pe
            x += mod * t
            mod *= pe
        return x


@dataclass(frozen=True, slots=True)
class Element:
    """Ring element stored as one residue per component."""

    ring: Ring
    residues: tuple[int, ...]

    def _componentwise(self, other: "Element", op) -> "Element":
        if self.ring != other.ring:
            raise RingMismatchError("elements come from different rings")
        return Element(
            self.ring,
            tuple(
                op(a, b) % c.order
                for a, b, c in zip(self.residues, other.residues, self.ring.components)
            ),
        )

    def __add__(self, other: "Element") -> "Element":
        return self._componentwise(other, operator.add)

    def __sub__(self, other: "Element") -> "Element":
        return self._componentwise(other, operator.sub)

    def __mul__(self, other: "Element") -> "Element":
        return self._componentwise(other, operator.mul)

    def __neg__(self) -> "Element":
        return Element(
            self.ring,
            tuple((-a) % c.order for a, c in zip(self.residues, self.ring.components)),
        )

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.residues)

    def is_unit(self) -> bool:
        """Unit iff every residue is prime to its component's prime."""
        return all(
            r % c.prime != 0 for r, c in zip(self.residues, self.ring.components)
        )


def parse_ring(text: str) -> Ring:
    """Parse a ring spec string like ``Z6`` or ``Z4xZ9`` into a Ring."""
    text = text.strip()
    if not text:
        raise RingParseError("empty ring spec")
    parts: list[LocalRing] = []
    for token in text.split("x"):
        m = _FACTOR_RE.match(token.strip())
        if not m:
            raise RingParseError(f"bad ring factor {token!r}")
        digits = m.group(1)
        # the pattern drops leading zeros, so the digit count bounds the value
        if len(digits) > 10 or int(digits) > MAX_FACTOR:
            raise RingParseError(f"ring factor {token!r} is above 2^32")
        n = int(digits)
        if n < 2:
            raise RingParseError(f"Z{n} is not a valid factor (need m >= 2)")
        parts.extend(LocalRing(p, e) for p, e in _prime_power_parts(n))
    return Ring(tuple(parts))
