"""Half-integer Laurent polynomials and cyclotomic evaluation."""

import math
import random
from fractions import Fraction

import pytest
from helpers_oracles import (
    cyclotomic_power_oracle,
    cyclotomic_product_oracle,
    eval_cyclotomic_oracle,
)

from ribbonpoly.algebra import (
    CyclotomicElement,
    HalfLaurent,
    TagMismatchError,
    _poly_divide_exact,
    cyclotomic_polynomial,
    eval_cyclotomic,
    euler_phi,
    substitute_q_shift,
)


def poly(tag, data):
    return HalfLaurent.from_dict(tag, {2 * k: v for k, v in data.items()})


class TestHalfLaurent:
    def test_ring_identities(self):
        q = HalfLaurent.variable("q")
        one = HalfLaurent.one("q")
        assert (q + one) * (q - one) == poly("q", {2: 1, 0: -1})
        assert (q + one) ** 3 == poly("q", {3: 1, 2: 3, 1: 3, 0: 1})
        # shift counts half-steps: -4 of them divide by q^2.
        assert q * q.shift(-4) == poly("q", {-1: 1}).shift(2)
        assert (q - q).is_zero()

    def test_half_exponents(self):
        root = HalfLaurent.monomial("Q", 1)  # Q^{1/2}
        assert root * root == HalfLaurent.variable("Q")
        assert not root.has_integer_exponents()
        assert root.render() == "Q^{1/2}"

    def test_evaluate(self):
        p = poly("Q", {2: 1, 1: -3, 0: 2})
        assert p.evaluate(4) == Fraction(6)
        assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)
        assert poly("Q", {0: 5}).evaluate(0) == 5

    def test_reflect_swaps_exponents(self):
        p = poly("q", {2: 1, -1: 7})
        assert p.reflect(0) == poly("q", {-2: 1, 1: 7})
        # Reflecting through four half-steps sends exponent k to 2 - k.
        assert p.reflect(4) == poly("q", {0: 1, 3: 7})

    def test_tag_mismatch(self):
        with pytest.raises(TagMismatchError):
            HalfLaurent.variable("q") + HalfLaurent.variable("Q")

    def test_render(self):
        assert poly("Q", {1: -2, 0: 2}).render() == "-2*Q + 2"
        assert poly("q", {1: 1, 0: 1, -1: 1}).render() == "q + 1 + q^-1"
        assert HalfLaurent.zero("Q").render() == "0"
        assert poly("Q", {2: Fraction(1, 3)}).render() == "1/3*Q^2"

    def test_degree_leading(self):
        degree, leading = poly("Q", {3: -2, 0: 5}).degree_leading()
        assert degree == Fraction(3) and leading == -2


class TestSubstituteQShift:
    def test_q_minus_one(self):
        # Q -> q + 2 + q^-1 sends Q - 1 to q + 1 + q^-1.
        image = substitute_q_shift(poly("Q", {1: 1, 0: -1}))
        assert image == poly("q", {1: 1, 0: 1, -1: 1})

    def test_square_root_substitutes_half_powers(self):
        # Q^{1/2} -> q^{1/2} + q^{-1/2}, so Q^{3/2} maps consistently:
        # (q^{1/2} + q^{-1/2})^3 = q^{3/2} + 3q^{1/2} + 3q^{-1/2} + q^{-3/2}.
        image = substitute_q_shift(HalfLaurent.monomial("Q", 3))
        assert image == HalfLaurent.from_dict("q", {3: 1, 1: 3, -1: 3, -3: 1})

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            substitute_q_shift(poly("Q", {-1: 1}))


class TestCyclotomic:
    def test_euler_phi(self):
        assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_cyclotomic_polynomial_degrees(self):
        for n in range(1, 13):
            assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)
        assert tuple(cyclotomic_polynomial(12)) == (1, 0, -1, 0, 1)

    def test_fifth_root_power_sum(self):
        # 1 + z + z^2 + z^3 + z^4 = 0 for a primitive fifth root.
        z = CyclotomicElement.root_power(5, 1)
        acc = CyclotomicElement.one(5)
        for k in range(1, 5):
            acc = acc + z**k
        assert acc.is_zero()

    def test_golden_ratio_relation(self):
        # phi = z + z^9 at z = exp(i pi / 5) satisfies phi^2 = phi + 1.
        phi = CyclotomicElement.root_power(10, 1) + CyclotomicElement.root_power(10, 9)
        assert phi * phi == phi + CyclotomicElement.one(10)

    def test_minus_one(self):
        z = CyclotomicElement.root_power(10, 5)
        assert z == CyclotomicElement.from_rational(10, -1)

    def test_eval_cyclotomic(self):
        # q^2 + q + 1 + q^-1 + q^-2 vanishes at a primitive fifth root.
        p = poly("q", {2: 1, 1: 1, 0: 1, -1: 1, -2: 1})
        assert eval_cyclotomic(p, 5, 1).is_zero()
        two = poly("q", {2: 1, 1: 1, 0: 2, -1: 1, -2: 1})
        assert eval_cyclotomic(two, 5, 1) == CyclotomicElement.one(5)

    def test_eval_matches_per_term_oracle(self):
        # one reduction of the summed root powers against one reduced root
        # power per term, on integer, half and negative exponents
        rng = random.Random(89)
        polys = [HalfLaurent.zero("q")]
        for i in range(10):
            step = 2 if i % 2 else 1
            data = {
                step * rng.randint(-6, 6): Fraction(rng.randint(-7, 7), rng.randint(1, 5))
                for _ in range(rng.randint(1, 6))
            }
            polys.append(HalfLaurent.from_dict("q", data))
        assert any(not p.has_integer_exponents() for p in polys)

        refused = set()

        def outcome(evaluate, *args, **kwargs):
            try:
                return evaluate(*args, **kwargs)
            except ValueError as exc:
                refused.add(str(exc).split(" ")[0])
                return str(exc)

        for p in polys:
            for n in range(-1, 13):
                for k in range(-1, n + 2):
                    allow = n >= 1 and math.gcd(k, n) != 1
                    for flag in {False, allow}:
                        want = outcome(eval_cyclotomic_oracle, p, n, k, allow_nonprimitive=flag)
                        assert outcome(eval_cyclotomic, p, n, k, allow_nonprimitive=flag) == want, (p, n, k)
        assert refused == {"conductor", "power"}

    def test_nonprimitive_power_needs_flag(self):
        p = poly("q", {1: 1})
        with pytest.raises(ValueError):
            eval_cyclotomic(p, 10, 8)
        value = eval_cyclotomic(p, 10, 8, allow_nonprimitive=True)
        assert value == CyclotomicElement.root_power(10, 8)

    def test_exact_division_refuses_a_remainder(self):
        # x^2 - 1 = (x - 1)(x + 1); x^2 + 1 leaves 2, and x over 2x is not integral
        assert _poly_divide_exact([-1, 0, 1], [-1, 1]) == [1, 1]
        with pytest.raises(ValueError, match="inexact"):
            _poly_divide_exact([1, 0, 1], [-1, 1])
        with pytest.raises(ValueError, match="inexact"):
            _poly_divide_exact([0, 1], [0, 2])

    @pytest.mark.parametrize("n", [0, -3])
    def test_conductor_must_be_positive(self, n):
        for build in (
            lambda: CyclotomicElement.zero(n),
            lambda: CyclotomicElement.one(n),
            lambda: CyclotomicElement.root_power(n, 1),
            lambda: CyclotomicElement.from_coeff_list(n, [1, 2]),
            lambda: CyclotomicElement(n, ()),
        ):
            with pytest.raises(ValueError, match="^conductor must be positive$"):
                build()

    @staticmethod
    def random_element(rng, n, rational):
        def coeff():
            if rational and rng.random() < 0.7:
                return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            return Fraction(rng.randint(-9, 9)) if rng.random() < 0.8 else Fraction(0)

        return CyclotomicElement(n, tuple(coeff() for _ in range(euler_phi(n))))

    def test_products_and_powers_match_fraction_oracle(self):
        # integer numerators over one denominator against Fraction arithmetic,
        # with integral and rational coefficients at conductors 1..30
        rng = random.Random(33)
        for n in range(1, 31):
            for rational in (False, True, True):
                a = self.random_element(rng, n, rational)
                b = self.random_element(rng, n, rng.random() < 0.5)
                for got, want in (
                    (a * b, cyclotomic_product_oracle(a, b)),
                    (a * a, cyclotomic_product_oracle(a, a)),
                    (a * CyclotomicElement.zero(n), CyclotomicElement.zero(n)),
                    *((a**k, cyclotomic_power_oracle(a, k)) for k in range(6)),
                ):
                    assert got == want, (n, a, b)
                    assert repr(got) == repr(want)
                    assert all(type(c) is Fraction for c in got.coeffs)

    def test_eval_matches_fraction_oracle(self):
        # primitive and non-primitive powers, half-integer exponents,
        # integral and rational coefficients
        rng = random.Random(34)
        for n in range(1, 31):
            for rational in (False, True):
                step = rng.choice((1, 2))
                data = {
                    step * rng.randint(-8, 8): (
                        Fraction(rng.randint(-7, 7), rng.randint(1, 6)) if rational else rng.randint(-7, 7)
                    )
                    for _ in range(rng.randint(1, 7))
                }
                p = HalfLaurent.from_dict("q", data)
                for k in (1, n - 1, 2, n // 2, rng.randint(-40, 40)):
                    got = eval_cyclotomic(p, n, k, allow_nonprimitive=True)
                    assert got == eval_cyclotomic_oracle(p, n, k, allow_nonprimitive=True), (p, n, k)
                    assert all(type(c) is Fraction for c in got.coeffs)

    def test_rational_detection(self):
        z = CyclotomicElement.root_power(6, 1)
        assert not z.is_rational()
        assert (z**6).is_rational()
