"""Spaces, canonical indexing, incompatibility classes, events."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fractions import Fraction

import intprob as ip
from intprob.errors import ConstraintError, PreconditionError
from intprob.space import check_digits, disjoint_pairs, iter_bits, lattice_edges

from conftest import events, spaces


class TestBuildSpace:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ConstraintError):
            ip.build_space(0, ["x0"])
        with pytest.raises(ConstraintError):
            ip.build_space(-1, ["x0"])

    def test_rejects_bool_n(self):
        with pytest.raises(ConstraintError):
            ip.build_space(True, ["x0"])

    def test_rejects_empty_labels(self):
        with pytest.raises(ConstraintError):
            ip.build_space(2, [])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ConstraintError):
            ip.build_space(2, ["a", "a"])

    def test_rejects_empty_label_string(self):
        with pytest.raises(ConstraintError):
            ip.build_space(2, ["a", ""])

    def test_size_cap(self):
        """At most 2^16 eventualities; n is judged before 2^n is built."""
        assert ip.build_space(16, ["x0"]).omega_size == 1 << 16
        for n, labels in ((17, ["x0"]), (16, ["a", "b"]), (40, ["x0"]), (10**6, ["x0"])):
            with pytest.raises(PreconditionError):
                ip.build_space(n, labels)

    def test_sizes(self):
        space = ip.build_space(3, ["a", "b"])
        assert space.omega_size == 16
        assert space.full_mask == (1 << 16) - 1
        assert len(space.z_classes) == 4


class TestDigitLimit:
    def test_parts_up_to_4300_digits_pass(self):
        check_digits("result", Fraction(10**4300 - 1, 10**4300 - 2))

    @pytest.mark.parametrize(
        "x", [Fraction(10**4300), Fraction(-(10**4300)), Fraction(1, 10**4300)]
    )
    def test_longer_parts_refused(self, x):
        with pytest.raises(PreconditionError):
            check_digits("result", x)


class TestIndexing:
    def test_canonical_order_msb_first(self):
        space = ip.build_space(2, ["a", "b"])
        assert space.eventualities() == (
            "a,00", "a,01", "a,10", "a,11",
            "b,00", "b,01", "b,10", "b,11",
        )
        assert space.index_of("b", "10") == 6
        assert space.eventuality_name(6) == "b,10"

    def test_name_roundtrip(self):
        space = ip.build_space(2, ["a", "b", "c"])
        for i in range(space.omega_size):
            assert space.parse_eventuality(space.eventuality_name(i)) == i

    def test_label_with_comma(self):
        space = ip.build_space(1, ["wet,cold"])
        assert space.parse_eventuality("wet,cold,1") == 1

    def test_unknown_label(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            space.index_of("z", "0")

    def test_bad_bits(self):
        space = ip.build_space(2, ["a"])
        for bits in ("0", "012", "ab", ""):
            with pytest.raises(ConstraintError):
                space.index_of("a", bits)

    def test_missing_comma(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            space.parse_eventuality("a0")

    def test_index_bounds(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            space.eventuality_name(2)
        with pytest.raises(ConstraintError):
            space.eventuality_name(-1)


class TestZClasses:
    def test_umbrella_classes(self):
        space = ip.build_space(2, ["x0"])
        assert [z.render() for z in space.z_classes] == [
            "{x0,00, x0,11}",
            "{x0,01, x0,10}",
        ]

    def test_classes_partition_universe(self, fixture):
        space = fixture.space
        union = 0
        for z in space.z_classes:
            assert union & z.mask == 0
            union |= z.mask
        assert union == space.full_mask

    def test_class_size_is_twice_label_count(self, fixture):
        space = fixture.space
        for z in space.z_classes:
            assert len(z) == 2 * len(space.e_labels)

    def test_classes_pair_complementary_bits(self, fixture):
        space = fixture.space
        block = 1 << space.n
        for z in space.z_classes:
            for i in z:
                e_idx, value = divmod(i, block)
                partner = e_idx * block + (value ^ (block - 1))
                assert partner in z

    def test_ordered_by_representative(self, fixture):
        space = fixture.space
        reps = [min(i % (1 << space.n) for i in z) for z in space.z_classes]
        assert reps == sorted(reps)
        assert all(rep < 1 << (space.n - 1) for rep in reps)


class TestEventAlgebra:
    def test_set_operations(self):
        space = ip.build_space(2, ["x0"])
        h = space.event(["x0,00", "x0,01"])
        k = space.event(["x0,01", "x0,10"])
        assert (h | k).members() == ("x0,00", "x0,01", "x0,10")
        assert (h & k).members() == ("x0,01",)
        assert (h - k).members() == ("x0,00",)
        assert h.complement().members() == ("x0,10", "x0,11")
        assert len(h) == 2 and h
        assert not space.empty
        assert h <= (h | k)
        assert not (h | k) <= h
        assert h.isdisjoint(space.event(["x0,11"]))
        assert 1 in h and 2 not in h
        assert list(h) == [0, 1]

    def test_mask_outside_universe(self):
        space = ip.build_space(1, ["a"])
        with pytest.raises(ConstraintError):
            ip.Event(space, 1 << 2)
        with pytest.raises(ConstraintError):
            ip.Event(space, -1)

    def test_cross_space_operations_rejected(self):
        a = ip.build_space(1, ["a"])
        b = ip.build_space(1, ["b"])
        with pytest.raises(PreconditionError):
            a.universe | b.universe
        with pytest.raises(PreconditionError):
            a.universe.isdisjoint(b.universe)

    def test_render_and_repr(self):
        space = ip.build_space(2, ["x0"])
        h = space.event(["x0,10"])
        assert h.render() == "{x0,10}"
        assert repr(h) == "Event({x0,10})"
        assert space.empty.render() == "{}"

    def test_events_enumerates_all(self):
        space = ip.build_space(1, ["a"])
        masks = [e.mask for e in space.events()]
        assert masks == list(range(4))


class TestIndecisiveAndWeakComplement:
    def test_umbrella_fixture(self):
        space = ip.build_space(2, ["x0"])
        h = space.event(["x0,10"])
        assert ip.indecisive_set(space, h).render() == "{x0,00, x0,11}"
        assert ip.weak_complement(space, h).render() == "{x0,01}"
        assert h.indecisive() == ip.indecisive_set(space, h)
        assert h.weak_complement() == ip.weak_complement(space, h)

    def test_degenerate_events(self, fixture):
        space = fixture.space
        assert ip.indecisive_set(space, space.universe) == space.empty
        assert ip.indecisive_set(space, space.empty) == space.universe
        assert ip.weak_complement(space, space.universe) == space.empty
        assert ip.weak_complement(space, space.empty) == space.empty

    def test_trichotomy_exhaustive(self, fixture):
        space = fixture.space
        for h in space.events():
            ind = ip.indecisive_set(space, h)
            wc = ip.weak_complement(space, h)
            assert h.mask & ind.mask == 0
            assert h.mask & wc.mask == 0
            assert ind.mask & wc.mask == 0
            assert h.mask | ind.mask | wc.mask == space.full_mask

    def test_indecisive_is_union_of_untouched_classes(self, fixture):
        space = fixture.space
        for h in space.events():
            ind = ip.indecisive_set(space, h)
            for z in space.z_classes:
                if z.mask & h.mask:
                    assert z.mask & ind.mask == 0
                else:
                    assert z.mask & ind.mask == z.mask

    @pytest.mark.parametrize("n, labels", [(3, 3), (4, 5), (3, 6), (1, 1 << 15)])
    def test_matches_patterns_index_by_index(self, n, labels):
        """Past the oracle's 12 points and up to ``SPACE_LIMIT``, with label
        counts that are not powers of two: index ``i`` is indecisive exactly
        when neither ``i % 2**n`` nor its complement is a pattern of ``h``."""
        space = ip.build_space(n, [f"e{k}" for k in range(labels)])
        width, size = 1 << n, space.omega_size
        rng = random.Random(f"{n}/{labels}")
        masks = [0, 1, 1 << (size - 1), space.full_mask]
        for depth in range(12):  # densities from 1/2 down to 1/64
            mask = space.full_mask
            for _ in range(1 + depth % 6):
                mask &= rng.getrandbits(size)
            masks.append(mask)
        for mask in masks:
            met = {i % width for i in iter_bits(mask)}
            met |= {p ^ (width - 1) for p in met}
            bits = "".join("0" if i % width in met else "1" for i in reversed(range(size)))
            assert ip.indecisive_set(space, ip.Event(space, mask)).mask == int(bits, 2)

    def test_space_mismatch_rejected(self):
        a = ip.build_space(1, ["a"])
        b = ip.build_space(1, ["b"])
        with pytest.raises(PreconditionError):
            ip.indecisive_set(a, b.universe)

    @given(data=st.data())
    def test_weak_complement_within_complement(self, data):
        space = data.draw(spaces())
        h = data.draw(events(space))
        wc = ip.weak_complement(space, h)
        assert wc <= h.complement()
        assert ip.indecisive_set(space, h) <= h.complement()

    @given(data=st.data())
    def test_monotone_indecisive(self, data):
        """H ⊆ K makes K touch at least the classes H touches."""
        space = data.draw(spaces())
        h = data.draw(events(space))
        k = h | data.draw(events(space))
        assert ip.indecisive_set(space, k) <= ip.indecisive_set(space, h)


class TestIterBits:
    """Small masks are peeled bit by bit and wide ones scanned as text; both agree."""

    @pytest.mark.parametrize("width", [1, 16, 64, 65, 256, 257, 8192])
    def test_matches_reference_in_order(self, width):
        import random

        rng = random.Random(f"iter_bits:{width}")
        full = (1 << width) - 1
        masks = [0, full, 1 << (width - 1)]
        masks += [rng.getrandbits(width) for _ in range(5)]
        masks += [rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)]
        for mask in masks:
            expected = [i for i in range(width) if mask >> i & 1]
            assert list(iter_bits(mask)) == expected


class TestSweepWalks:
    @pytest.mark.parametrize("n", range(9))
    def test_disjoint_pairs_once_each_in_order(self, n):
        pairs = list(disjoint_pairs(n))
        expected = [
            (a, b)
            for a in range(1 << n)
            for b in range(a - 1, 0, -1)  # per a, decreasing b
            if a & b == 0
        ]
        assert pairs == expected
        assert len(pairs) == (3**n - 2 ** (n + 1) + 1) // 2

    @pytest.mark.parametrize("n", range(9))
    def test_lattice_edges_are_single_point_extensions(self, n):
        edges = list(lattice_edges(n))
        expected = [
            (s, s | 1 << x)
            for s in range(1 << n)
            for x in range(n)
            if not s >> x & 1
        ]
        assert edges == expected
        assert len(edges) == n * 2**n // 2


def _mixed_space_calls():
    """Every public entry point that checks spaces, called with one foreign argument."""
    space = ip.build_space(2, ["x0"])
    other = ip.build_space(1, ["a"])
    p = ip.ProbabilityMeasure.uniform(space)
    r = ip.UncertaintyDegree.ones(space)
    h = space.event(["x0,10"])
    foreign = other.universe
    nu = ip.distort(p, ip.power_distortion(2))
    foreign_x = ip.RandomVariable.constant(other, 1)
    ps = ip.product_space(space, space)
    half = Fraction(1, 2)
    return {
        "Event.__and__": lambda: h & foreign,
        "Event.__sub__": lambda: h - foreign,
        "Event.__le__": lambda: h <= foreign,
        "weak_complement": lambda: ip.weak_complement(space, foreign),
        "ProbabilityMeasure.__call__": lambda: p(foreign),
        "uncertainty_variable": lambda: ip.uncertainty_variable(space, foreign, r),
        "capacity_interval": lambda: ip.capacity_interval(nu, r, foreign),
        "capacity_interval_prime": lambda: ip.capacity_interval_prime(nu, r, foreign),
        "ds_conditional": lambda: ip.ds_conditional(nu, foreign, h),
        "ds_conditional_weak": lambda: ip.ds_conditional_weak(nu, h, foreign),
        "effective_weight": lambda: ip.effective_weight(nu, r, h, foreign),
        "uncertainty_weight": lambda: ip.uncertainty_weight(nu, r, foreign, h),
        "capacity_conditional": lambda: ip.capacity_conditional(nu, r, foreign, h),
        "capacity_conditional_prime": lambda: ip.capacity_conditional_prime(
            nu, r, h, foreign
        ),
        "capacity_interval_cdf": lambda: ip.capacity_interval_cdf(nu, r, foreign_x),
        "stratified_cdf_closed_form": lambda: ip.stratified_cdf_closed_form(
            p, [half], foreign_x, half
        ),
        "native_interval": lambda: ip.native_interval(ps, p, p, h),
    }


class TestMixedSpaces:
    @pytest.mark.parametrize("entry", sorted(_mixed_space_calls()))
    def test_rejected(self, entry):
        with pytest.raises(PreconditionError, match="different spaces"):
            _mixed_space_calls()[entry]()
