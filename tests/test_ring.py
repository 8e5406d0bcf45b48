"""Ring spec parsing, element arithmetic, units, and integer encoding."""

import pytest
from hypothesis import given, strategies as st

from ringspace import (
    LocalRing,
    NonCoprimeComponentsError,
    Ring,
    RingMismatchError,
    RingParseError,
    parse_ring,
)


class TestParse:
    def test_single_prime_power(self, z4):
        assert z4.ell == 1
        assert z4.components[0].prime == 2
        assert z4.components[0].exponent == 2
        assert z4.order == 4

    def test_composite_splits(self, z6):
        assert z6.ell == 2
        assert tuple(c.order for c in z6.components) == (2, 3)
        assert z6.spec_string() == "Z2xZ3"

    def test_z12_equals_z4xz3(self, z12):
        assert z12 == parse_ring("Z4xZ3")
        assert z12 == parse_ring("Z3xZ4")
        assert z12.spec_string() == "Z4xZ3"

    def test_repeated_factor_allowed(self, z2xz2):
        assert tuple(c.order for c in z2xz2.components) == (2, 2)
        assert not z2xz2.is_coprime

    def test_lowercase_accepted(self):
        assert parse_ring("z6") == parse_ring("Z6")

    @pytest.mark.parametrize("bad", ["", "Z", "Z1", "4", "Zx", "Z4x", "Q8", "Z-3"])
    def test_malformed(self, bad):
        with pytest.raises(RingParseError):
            parse_ring(bad)

    def test_factor_above_2_32_refused(self):
        # refused before factoring: trial division of 2^61 - 1 ran for minutes
        assert parse_ring(f"Z{2**32}").components[0].exponent == 32
        assert parse_ring("Z4294967291").order == 4294967291  # largest prime < 2^32
        for spec in [f"Z{2**32 + 1}", "Z2305843009213693951", "Z4xZ" + "9" * 5000]:
            with pytest.raises(RingParseError, match=r"above 2\^32"):
                parse_ring(spec)

    def test_local_ring_prime_above_2_32_refused(self):
        # the constructor shares parse_ring's bound, so it never runs trial
        # division past 2^16 steps; 2^61 - 1 used to run for minutes
        assert LocalRing(4294967291, 1).order == 4294967291
        for p in [2**61 - 1, 2**32 + 15, 10**400]:
            with pytest.raises(RingParseError, match=r"above 2\^32"):
                LocalRing(p, 1)

    @pytest.mark.parametrize("p", [-7, 0, 1, 4, 9, 91, 4294967295])
    def test_local_ring_needs_a_prime(self, p):
        with pytest.raises(RingParseError, match="not prime"):
            LocalRing(p, 1)

    def test_local_ring_needs_a_positive_exponent(self):
        with pytest.raises(RingParseError, match="^exponent must be >= 1, got 0$"):
            LocalRing(2, 0)

    def test_empty_component_tuple_rejected(self):
        with pytest.raises(RingParseError):
            Ring(())


class TestDescriptors:
    def test_orders_and_units(self, z12, z2xz2, z8):
        assert (z12.order, z12.unit_count) == (12, 4)
        assert (z2xz2.order, z2xz2.unit_count) == (4, 1)
        assert (z8.order, z8.unit_count) == (8, 4)

    def test_elements_are_all_distinct(self, z12):
        elems = list(z12.elements())
        assert len(elems) == 12
        assert len(set(elems)) == 12

    def test_unit_count_matches_scan(self):
        for spec in ["Z2", "Z3", "Z4", "Z6", "Z8", "Z9", "Z2xZ2", "Z12"]:
            ring = parse_ring(spec)
            assert sum(1 for e in ring.elements() if e.is_unit()) == ring.unit_count


class TestArithmetic:
    def test_from_int_wraps(self, z6):
        assert z6.from_int(7).residues == (1, 1)
        assert z6.from_int(-1).residues == (1, 2)

    def test_neg_add_sub(self, z12):
        a = z12.from_int(5)
        b = z12.from_int(9)
        assert (a - b) == (a + (-b))
        assert z12.int_encode(a + b) == (5 + 9) % 12

    def test_mixed_ring_operands_rejected(self, z4, z6):
        with pytest.raises(RingMismatchError):
            z4.from_int(1) + z6.from_int(1)

    def test_exhaustive_distributivity_z12(self, z12):
        elems = list(z12.elements())
        for a in elems[:6]:
            for b in elems:
                for c in elems[::3]:
                    assert (a + b) * c == a * c + b * c


class TestUnits:
    def test_every_unit_inverts(self):
        for spec in ["Z4", "Z6", "Z8", "Z9", "Z2xZ2", "Z12"]:
            ring = parse_ring(spec)
            one = ring.from_int(1)
            for e in ring.elements():
                assert e.is_unit() == any(e * f == one for f in ring.elements())

    def test_inverse_of_two_in_z9(self, z9):
        assert z9.from_int(2).is_unit()
        assert z9.from_int(2) * z9.from_int(5) == z9.from_int(1)


class TestIntegerEncoding:
    def test_encode_example(self, z12):
        # x = 3 mod 4 and x = 2 mod 3 forces x = 11
        assert z12.int_encode(z12.element((3, 2))) == 11

    def test_round_trip(self, z12):
        for v in range(-24, 24):
            assert z12.int_encode(z12.from_int(v)) == v % 12

    def test_non_coprime_rejected(self, z2xz2):
        with pytest.raises(NonCoprimeComponentsError):
            z2xz2.int_encode(z2xz2.from_int(1))

    def test_element_validates(self, z6):
        assert z6.int_encode(z6.element((1, 2))) == 5
        with pytest.raises(RingParseError):
            z6.element((1, 3))
        with pytest.raises(RingParseError):
            z6.element((1,))
        for bad in [(True, 0), ("a", 1), (1.5, 0), (None, 0)]:
            with pytest.raises(RingParseError, match="is not an integer"):
                z6.element(bad)


@given(
    spec=st.sampled_from(["Z4", "Z6", "Z9", "Z2xZ2", "Z12"]),
    x=st.integers(min_value=-100, max_value=100),
    y=st.integers(min_value=-100, max_value=100),
)
def test_projection_commutes_with_arithmetic(spec, x, y):
    """Componentwise arithmetic agrees with arithmetic of the projections."""
    ring = parse_ring(spec)
    a, b = ring.from_int(x), ring.from_int(y)
    for op in [lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v]:
        combined = op(a, b)
        for i, comp in enumerate(ring.components):
            lhs = combined.residues[i]
            rhs = op(
                ring.from_int(a.residues[i]), ring.from_int(b.residues[i])
            ).residues[i]
            assert lhs % comp.order == rhs % comp.order


@given(st.integers(min_value=0, max_value=11))
def test_canonical_map_is_ring_homomorphism(v):
    ring = parse_ring("Z12")
    assert ring.from_int(v) * ring.from_int(v) == ring.from_int(v * v)
    assert ring.from_int(v) + ring.from_int(1) == ring.from_int(v + 1)
