"""Product spaces, coarse classes, product interval measures."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import intprob as ip
from intprob.errors import PreconditionError
from intprob.product import flat_measure

from conftest import random_measure


def _factors():
    left = ip.build_space(1, ["a", "b"])
    right = ip.build_space(1, ["c"])
    p_left = ip.ProbabilityMeasure.from_map(
        left, {"a,0": "1/6", "a,1": "1/3", "b,0": "1/3", "b,1": "1/6"}
    )
    p_right = ip.ProbabilityMeasure.from_map(right, {"c,0": "1/4", "c,1": "3/4"})
    return ip.product_space(left, right), p_left, p_right


def _umbrella_product():
    space = ip.build_space(2, ["x0"])
    p = ip.ProbabilityMeasure.uniform(space)
    return ip.product_space(space, space), p


class TestProductSpace:
    def test_flat_structure(self):
        ps, _, _ = _factors()
        assert ps.flat.n == 2
        assert ps.flat.e_labels == ("a*c", "b*c")
        assert ps.flat.omega_size == 8
        assert ps.flat.eventuality_name(1) == "a*c,01"
        assert ps.flat.parse_eventuality("b*c,10") == 6

    def test_flat_bit_order_left_high(self):
        """Flat bits concatenate left bits then right bits."""
        left = ip.build_space(1, ["l"])
        right = ip.build_space(2, ["r"])
        ps = ip.product_space(left, right)
        # left bit 1, right bits 01 -> flat bits 101
        assert ps.flat.eventuality_name(0b101) == "l*r,101"

    def test_size_guard(self):
        big = ip.build_space(3, ["a", "b"])
        with pytest.raises(PreconditionError):
            ip.product_space(big, big)

    def test_w_classes_row_major_partition(self):
        ps, _ = _umbrella_product()
        ws = ps.w_classes
        assert len(ws) == 4
        union = 0
        for w in ws:
            assert len(w) == 4
            assert union & w.mask == 0
            union |= w.mask
        assert union == ps.flat.full_mask
        # row-major: first class pairs left Z1 with right Z1
        assert ws[0].members() == (
            "x0*x0,0000",
            "x0*x0,0011",
            "x0*x0,1100",
            "x0*x0,1111",
        )
        assert ws[1].members() == (
            "x0*x0,0001",
            "x0*x0,0010",
            "x0*x0,1101",
            "x0*x0,1110",
        )

    def test_each_coarse_class_unions_two_native_classes(self):
        ps, _ = _umbrella_product()
        native = ps.flat.z_classes
        for w in ps.w_classes:
            inside = [z for z in native if z.mask & ~w.mask == 0]
            assert len(inside) == 2
            assert inside[0].mask | inside[1].mask == w.mask

    def test_coarse_indecisive_contained_in_native(self):
        ps, p = _umbrella_product()
        flat = ps.flat
        for mask in range(flat.full_mask + 1):
            h = ip.Event(flat, mask)
            coarse = ps.coarse_indecisive(h)
            assert coarse <= ip.indecisive_set(flat, h)

    def test_coarse_indecisive_rejects_foreign_event(self):
        ps, _, _ = _factors()
        with pytest.raises(PreconditionError):
            ps.coarse_indecisive(ip.build_space(1, ["z"]).universe)


def _class_number(bits: str) -> int:
    """The pattern of ``bits``' complementary pair that starts with 0, read as a number."""
    if bits[0] == "1":
        bits = bits.translate(str.maketrans("01", "10"))
    return int(bits, 2)


class TestFlatLayout:
    @pytest.mark.parametrize("labels", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 2)])
    @pytest.mark.parametrize("n_left", [1, 2, 3])
    @pytest.mark.parametrize("n_right", [1, 2, 3])
    def test_matches_definition(self, n_left, n_right, labels):
        """``w_classes``, ``flat_measure`` and ``coarse_indecisive`` rebuilt from the flat names.

        Each flat name ``"l*r,bits"`` splits into its two factor names;
        the coarse classes group by the pair of factor classes, row-major.
        Label counts of 3 and 6 are not powers of two.
        """
        left = ip.build_space(n_left, [f"l{i}" for i in range(labels[0])])
        right = ip.build_space(n_right, [f"r{i}" for i in range(labels[1])])
        ps = ip.ProductSpace(left, right)  # up to 256 points, past product_space's guard
        rng = random.Random(f"{n_left}/{n_right}/{labels}")
        p_left, p_right = random_measure(rng, left), random_measure(rng, right)
        groups: dict[tuple[int, int], int] = {}
        masses = []
        for i, name in enumerate(ps.flat.eventualities()):
            label, bits = name.split(",")
            l_label, r_label = label.split("*")
            l_bits, r_bits = bits[:n_left], bits[n_left:]
            masses.append(
                p_left.values[left.parse_eventuality(f"{l_label},{l_bits}")]
                * p_right.values[right.parse_eventuality(f"{r_label},{r_bits}")]
            )
            key = (_class_number(l_bits), _class_number(r_bits))
            groups[key] = groups.get(key, 0) | 1 << i
        assert [w.mask for w in ps.w_classes] == [groups[key] for key in sorted(groups)]
        assert flat_measure(ps, p_left, p_right).values == tuple(masses)
        for depth in range(20):  # densities from 1/2 down to 1/32
            h = ps.flat.full_mask
            for _ in range(1 + depth % 5):
                h &= rng.getrandbits(ps.flat.omega_size)
            missed = sum(group for group in groups.values() if not group & h)
            assert ps.coarse_indecisive(ip.Event(ps.flat, h)).mask == missed


class TestFlatMeasure:
    def test_values_multiply(self):
        ps, p_left, p_right = _factors()
        mass = flat_measure(ps, p_left, p_right)
        assert mass(ps.flat.event(["a*c,01"])) == Fraction(1, 6) * Fraction(3, 4)
        # left bit is high-order: "b*c,10" = (b,1) x (c,0)
        assert mass(ps.flat.event(["b*c,10"])) == Fraction(1, 6) * Fraction(1, 4)
        assert sum(mass.values) == 1

    def test_marginals_recover_factors(self):
        ps, p_left, p_right = _factors()
        mass = flat_measure(ps, p_left, p_right)
        # left eventuality (a,0): all flat points a*_,0_
        lifted = ps.flat.event(["a*c,00", "a*c,01"])
        assert mass(lifted) == p_left.values[0]
        # right eventuality (c,1): all flat points _*c,_1
        lifted_r = ps.flat.event(["a*c,01", "a*c,11", "b*c,01", "b*c,11"])
        assert mass(lifted_r) == p_right.values[1]

    def test_rejects_mismatched_measures(self):
        ps, p_left, p_right = _factors()
        with pytest.raises(PreconditionError):
            flat_measure(ps, p_right, p_right)


class TestProductInterval:
    def test_umbrella_anchor(self):
        ps, p = _umbrella_product()
        h = ps.flat.event(["x0*x0,1010"])
        assert ip.product_interval(ps, p, p, h) == ip.Interval(
            Fraction(1, 16), Fraction(13, 16)
        )
        assert ip.native_interval(ps, p, p, h) == ip.Interval(
            Fraction(1, 16), Fraction(15, 16)
        )

    def test_product_definition_pointwise(self):
        ps, p_left, p_right = _factors()
        mass = flat_measure(ps, p_left, p_right)
        for mask in range(ps.flat.full_mask + 1):
            h = ip.Event(ps.flat, mask)
            q = ip.product_interval(ps, p_left, p_right, h)
            assert q.lo == mass(h)
            assert q.width == mass(ps.coarse_indecisive(h))

    def test_contained_in_native_everywhere(self):
        ps, p_left, p_right = _factors()
        for mask in range(ps.flat.full_mask + 1):
            h = ip.Event(ps.flat, mask)
            inner = ip.product_interval(ps, p_left, p_right, h)
            outer = ip.native_interval(ps, p_left, p_right, h)
            assert outer.encloses(inner)

    def test_single_coarse_class_collapses_width(self):
        """With n=1 factors there is a single coarse class, so every
        nonempty event has width 0 under the product grading."""
        ps, p_left, p_right = _factors()
        assert len(ps.w_classes) == 1
        for mask in range(1, ps.flat.full_mask + 1):
            assert ip.product_interval(ps, p_left, p_right, ip.Event(ps.flat, mask)).width == 0

    def test_algebraic_identity_spot(self):
        """Q1⊗Q1 of a singleton (ω10, ω10): a² + 1 − (a+b)² = 1 − b² − 2ab."""
        space = ip.build_space(2, ["x0"])
        p = ip.ProbabilityMeasure.from_map(
            space, {"x0,00": "1/5", "x0,01": "3/10", "x0,10": "1/10", "x0,11": "2/5"}
        )
        ps = ip.product_space(space, space)
        h = ps.flat.event(["x0*x0,1010"])
        q = ip.product_interval(ps, p, p, h)
        a = p(space.event(["x0,10"]))
        b = p(space.event(["x0,01"]))
        assert q.lo == a**2
        assert q.hi == a**2 + 1 - (a + b) ** 2
        assert q.hi == 1 - b**2 - 2 * a * b

    def test_native_is_flat_interval_measure(self):
        ps, p_left, p_right = _factors()
        mass = flat_measure(ps, p_left, p_right)
        ones = ip.UncertaintyDegree.ones(ps.flat)
        h = ip.Event(ps.flat, 0b1001)
        assert ip.native_interval(ps, p_left, p_right, h) == ip.interval_measure(
            mass, ones, h
        )

    def test_rejects_foreign_event(self):
        ps, p_left, p_right = _factors()
        with pytest.raises(PreconditionError):
            ip.product_interval(ps, p_left, p_right, ps.left.universe)
