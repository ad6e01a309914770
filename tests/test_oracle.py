"""Kernel vs. brute-force oracle agreement.

The acceptance suite sweeps every operation exhaustively; this module
keeps a fast representative slice per operation plus the oracle's own
size-guard behaviour, so a disagreement is localized to the right
module long before the acceptance gate runs.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import intprob as ip
from intprob import oracle
from intprob.errors import PreconditionError

from conftest import CONCAVE_BEND, REGISTRY, random_degree, standard_capacities


def _by_name(name):
    return next(f for f in REGISTRY if f.name == name)


def _event_masks(space):
    """All event masks for small spaces, a deterministic sample otherwise."""
    if space.omega_size <= 8:
        return range(space.full_mask + 1)
    masks = set(range(0, space.full_mask + 1, 149))
    masks.update((0, 1, space.full_mask, space.full_mask - 1))
    for z in space.z_classes:
        masks.add(z.mask)
        masks.add(space.full_mask ^ z.mask)
    return sorted(masks)


class TestStructureAgreement:
    def test_eventualities(self, fixture):
        space = fixture.space
        points = oracle.oracle_eventualities(space)
        assert len(points) == space.omega_size
        for idx, (e_idx, bits) in enumerate(points):
            label = space.e_labels[e_idx]
            name = f"{label},{''.join(str(b) for b in bits)}"
            assert space.eventuality_name(idx) == name

    def test_z_classes(self, fixture):
        space = fixture.space
        kernel = [
            [i for i in range(space.omega_size) if (z.mask >> i) & 1]
            for z in space.z_classes
        ]
        assert kernel == oracle.oracle_z_classes(space)

    @pytest.mark.parametrize("labels", [["x0"], ["a", "b"], ["p", "q", "s"]])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_z_classes_every_shape(self, monkeypatch, n, labels):
        """Past the fixtures; the oracle's size guard is lifted for this cheap listing."""
        space = ip.build_space(n, labels)
        monkeypatch.setattr(oracle, "ORACLE_LIMIT", space.omega_size)
        assert [list(z) for z in space.z_classes] == oracle.oracle_z_classes(space)

    def test_indecisive_and_weak_complement(self, fixture):
        space = fixture.space
        for mask in _event_masks(space):
            h = ip.Event(space, mask)
            ind = ip.indecisive_set(space, h)
            wc = ip.weak_complement(space, h)
            assert sorted(ind) == oracle.oracle_indecisive(space, h)
            assert sorted(wc) == oracle.oracle_weak_complement(space, h)


class TestMeasureAgreement:
    def test_expectation_and_marginals(self, fixture):
        p, space = fixture.mass, fixture.space
        r = fixture.degree
        assert ip.expectation(p, ip.RandomVariable(space, r.values)) == (
            oracle.oracle_expectation(p, r.values)
        )
        for bits in {space.eventuality_name(i).split(",")[1] for i in range(4)}:
            assert ip.marginal_mass(p, bits) == oracle.oracle_marginal(p, bits)

    def test_interval_measure(self, fixture):
        p, r, space = fixture.mass, fixture.degree, fixture.space
        for mask in _event_masks(space):
            h = ip.Event(space, mask)
            q = ip.interval_measure(p, r, h)
            assert (q.lo, q.hi) == oracle.oracle_interval(p, r, h)

    def test_uncertainty_variable(self, small_fixture):
        fx = small_fixture
        for mask in _event_masks(fx.space):
            h = ip.Event(fx.space, mask)
            kernel = ip.uncertainty_variable(fx.space, h, fx.degree)
            assert list(kernel.values) == oracle.oracle_uncertainty_values(
                fx.space, h, fx.degree
            )


class TestCapacityAgreement:
    def test_choquet(self, small_fixture):
        fx = small_fixture
        size = fx.space.omega_size
        integrands = [
            fx.degree.values,
            tuple(Fraction(i % 3, 4) for i in range(size)),
            tuple(Fraction(1, 2) for _ in range(size)),
        ]
        for nu in standard_capacities(fx).values():
            for values in integrands:
                g = ip.RandomVariable(fx.space, values)
                assert ip.choquet(nu, g) == oracle.oracle_choquet(nu, g)

    def test_capacity_interval_both_variants(self, small_fixture):
        fx = small_fixture
        capacities = dict(standard_capacities(fx))
        capacities["concave"] = ip.distort(fx.mass, CONCAVE_BEND)
        for nu in capacities.values():
            for mask in _event_masks(fx.space):
                h = ip.Event(fx.space, mask)
                plain = ip.capacity_interval(nu, fx.degree, h)
                prime = ip.capacity_interval_prime(nu, fx.degree, h)
                assert (plain.lo, plain.hi) == oracle.oracle_capacity_interval(
                    nu, fx.degree, h
                )
                assert (prime.lo, prime.hi) == (
                    oracle.oracle_capacity_interval_prime(nu, fx.degree, h)
                )

    def test_belief_and_distortion_tables(self):
        fx = _by_name("umbrella")
        focal = {
            fx.space.event(["x0,00", "x0,11"]): Fraction(1, 2),
            fx.space.universe: Fraction(1, 2),
        }
        assert list(ip.belief_from_mass(fx.space, focal).table) == (
            oracle.oracle_belief_table(fx.space, focal)
        )
        square = ip.power_distortion(2)
        assert list(ip.distort(fx.mass, square).table) == (
            oracle.oracle_distort_table(fx.mass, square)
        )


class TestConditioningAgreement:
    def test_conditional_interval(self, tiny_fixture):
        fx = tiny_fixture
        full = fx.space.full_mask
        for h_mask in range(1, full + 1):
            h = ip.Event(fx.space, h_mask)
            if fx.mass(h) == 0:
                continue
            for a_mask in range(full + 1):
                a = ip.Event(fx.space, a_mask)
                q = ip.conditional_interval(fx.mass, fx.degree, a, h)
                assert (q.lo, q.hi) == oracle.oracle_conditional_interval(
                    fx.mass, fx.degree, a, h
                )

    @pytest.mark.parametrize("name", ["n3", "labeled_n2", "wide12"])
    def test_conditional_interval_random_events(self, name):
        """Seeded events on 8- and 12-point spaces, graded r, both null modes.

        Zero masses let ``P(H)`` vanish while ``H_ind`` carries graded mass.
        """
        space = _by_name(name).space
        rng = random.Random(name)
        degree = random_degree(rng, space)
        weights = [rng.choice((0, 0, 1, 2, 3)) for _ in range(space.omega_size)]
        weights[0] += 1
        p = ip.ProbabilityMeasure(space, [Fraction(w, sum(weights)) for w in weights])
        null_but_graded = 0
        for _ in range(300):
            a = ip.Event(space, rng.getrandbits(space.omega_size))
            h_mask = rng.getrandbits(space.omega_size) & rng.getrandbits(space.omega_size)
            h = ip.Event(space, h_mask)
            p_h, denom = oracle.oracle_interval(p, degree, h)
            null_but_graded += p_h == 0 < denom
            for allow, needed in ((False, p_h), (True, denom)):
                if needed == 0:
                    with pytest.raises(PreconditionError):
                        ip.conditional_interval(
                            p, degree, a, h, allow_null_conditioning=allow
                        )
                    continue
                q = ip.conditional_interval(p, degree, a, h, allow_null_conditioning=allow)
                assert (q.lo, q.hi) == oracle.oracle_conditional_interval(p, degree, a, h)
        assert null_but_graded

    def test_ds_variants(self):
        fx = _by_name("umbrella")
        full = fx.space.full_mask
        for nu in standard_capacities(fx).values():
            for h_mask in range(full + 1):
                h = ip.Event(fx.space, h_mask)
                plain_ok = nu(h.complement()) != 1
                weak_ok = nu(ip.weak_complement(fx.space, h)) != 1
                for a_mask in range(0, full + 1, 3):
                    a = ip.Event(fx.space, a_mask)
                    if plain_ok:
                        assert ip.ds_conditional(nu, a, h) == oracle.oracle_ds(
                            nu, a, h
                        )
                    if weak_ok:
                        assert ip.ds_conditional_weak(nu, a, h) == (
                            oracle.oracle_ds_weak(nu, a, h)
                        )

    def test_weight_functionals(self):
        fx = _by_name("umbrella")
        nu = standard_capacities(fx)["square"]
        full = fx.space.full_mask
        for h_mask in range(full + 1):
            h = ip.Event(fx.space, h_mask)
            for b_mask in range(0, full + 1, 2):
                b = ip.Event(fx.space, b_mask)
                assert ip.effective_weight(nu, fx.degree, h, b) == (
                    oracle.oracle_effective_weight(nu, fx.degree, h, b)
                )
                assert ip.uncertainty_weight(nu, fx.degree, h, b) == (
                    oracle.oracle_uncertainty_weight(nu, fx.degree, h, b)
                )

    def test_capacity_conditional_both_variants(self):
        """Agreement including clamp parity under a sub-additive capacity."""
        fx = _by_name("umbrella")
        capacities = dict(standard_capacities(fx))
        capacities["concave"] = ip.distort(fx.mass, CONCAVE_BEND)
        full = fx.space.full_mask
        for nu in capacities.values():
            for h_mask in range(1, full + 1):
                h = ip.Event(fx.space, h_mask)
                if nu(h) == 0:
                    continue
                for a_mask in range(full + 1):
                    a = ip.Event(fx.space, a_mask)
                    plain = ip.capacity_conditional(nu, fx.degree, a, h)
                    prime = ip.capacity_conditional_prime(nu, fx.degree, a, h)
                    assert (plain.interval.lo, plain.interval.hi) == (
                        oracle.oracle_capacity_conditional(nu, fx.degree, a, h)
                    )
                    assert (prime.interval.lo, prime.interval.hi) == (
                        oracle.oracle_capacity_conditional_prime(
                            nu, fx.degree, a, h
                        )
                    )


class TestDominanceAgreement:
    def test_cdf(self, small_fixture):
        fx = small_fixture
        size = fx.space.omega_size
        x = ip.RandomVariable(
            fx.space, tuple(Fraction(i % 3) for i in range(size))
        )
        cdf = ip.interval_cdf(fx.mass, fx.degree, x)
        breakpoints, segments = oracle.oracle_cdf(fx.mass, fx.degree, x)
        assert list(cdf.breakpoints) == breakpoints
        assert [(s.lo, s.hi) for s in cdf.segments] == segments

    def test_dominates(self, small_fixture):
        fx = small_fixture
        size = fx.space.omega_size
        pairs = [
            (
                tuple(Fraction(i % 2) for i in range(size)),
                tuple(Fraction(i % 3) for i in range(size)),
            ),
            (
                tuple(Fraction(i % 4) for i in range(size)),
                tuple(Fraction(i % 4) for i in range(size)),
            ),
            (
                tuple(Fraction(0) for _ in range(size)),
                tuple(Fraction(i % 2) for i in range(size)),
            ),
        ]
        for xv, yv in pairs:
            x = ip.RandomVariable(fx.space, xv)
            y = ip.RandomVariable(fx.space, yv)
            verdict = ip.dominates(fx.mass, fx.degree, x, y)
            holds, witness = oracle.oracle_dominates(fx.mass, fx.degree, x, y)
            assert verdict.dominates == holds
            assert verdict.witness_t == witness


class TestProductAgreement:
    def test_product_and_native(self):
        left = ip.build_space(1, ["a", "b"])
        right = ip.build_space(1, ["c"])
        ps = ip.product_space(left, right)
        p_left = ip.ProbabilityMeasure.from_map(
            left, {"a,0": "1/6", "a,1": "1/3", "b,0": "1/3", "b,1": "1/6"}
        )
        p_right = ip.ProbabilityMeasure.from_map(right, {"c,0": "1/4", "c,1": "3/4"})
        for mask in range(ps.flat.full_mask + 1):
            h = ip.Event(ps.flat, mask)
            q = ip.product_interval(ps, p_left, p_right, h)
            n = ip.native_interval(ps, p_left, p_right, h)
            assert (q.lo, q.hi) == oracle.oracle_product_interval(
                ps, p_left, p_right, h
            )
            assert (n.lo, n.hi) == oracle.oracle_native_interval(
                ps, p_left, p_right, h
            )


class TestOracleGuards:
    def test_interval_guard(self):
        space = ip.build_space(2, ["a", "b", "c", "d"])
        p = ip.ProbabilityMeasure.uniform(space)
        r = ip.UncertaintyDegree.ones(space)
        with pytest.raises(PreconditionError):
            oracle.oracle_interval(p, r, space.universe)

    def test_product_guard(self):
        space = ip.build_space(2, ["x0"])
        ps = ip.product_space(space, space)
        p = ip.ProbabilityMeasure.uniform(space)
        with pytest.raises(PreconditionError):
            oracle.oracle_product_interval(ps, p, p, ps.flat.universe)

    def test_imports_nothing_from_the_kernel(self):
        """Shared kernel helpers would make kernel/oracle agreement a tautology."""
        tree = ast.parse(Path(oracle.__file__).read_text())
        package_imports = [
            (node.level, node.module)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("intprob"))
        ]
        assert package_imports == [(1, "errors")]
        assert not any(
            alias.name.startswith("intprob")
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        )

    def test_limit_is_twelve(self):
        assert oracle.ORACLE_LIMIT == 12
