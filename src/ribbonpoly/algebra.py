"""Exact polynomial arithmetic used by every invariant engine.

Three coefficient domains, all with :class:`fractions.Fraction` coefficients
and never floating point:

* :class:`HalfLaurent` -- Laurent polynomials in a single named variable whose
  exponents live on the half-integer lattice.  Exponents are stored doubled
  (as "half-steps": the monomial ``Q^{k/2}`` is stored with key ``k``) so that
  dictionary keys stay integers.
* :class:`KrushkalPoly` -- four-variable polynomials ``X^i Y^j A^k B^l`` with
  integer exponents, used by the four-variable rank polynomial.
* :class:`CyclotomicElement` -- elements of ``Q[x]/Phi_n(x)``, used to
  evaluate Laurent polynomials exactly at roots of unity.  Its products,
  powers and reductions, and :func:`eval_cyclotomic`, compute on integer
  numerators over one common denominator: ``Phi_n`` is monic, so reducing
  modulo it keeps integers integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

NEG_INFINITY = float("-inf")


class TagMismatchError(ValueError):
    """Raised when combining polynomials over different variable names."""


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class HalfLaurent:
    """Laurent polynomial with half-integer exponents in one variable.

    ``terms`` maps doubled exponents to nonzero rational coefficients and is
    kept sorted by decreasing exponent, so equality and hashing are
    structural.
    """

    tag: str
    terms: tuple[tuple[int, Fraction], ...]

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_dict(tag: str, data: Mapping[int, Scalar]) -> "HalfLaurent":
        cleaned = []
        for half_exp, coeff in data.items():
            frac = _as_fraction(coeff)
            if frac != 0:
                cleaned.append((int(half_exp), frac))
        cleaned.sort(key=lambda item: -item[0])
        return HalfLaurent(tag, tuple(cleaned))

    @staticmethod
    def zero(tag: str) -> "HalfLaurent":
        return HalfLaurent(tag, ())

    @staticmethod
    def constant(tag: str, value: Scalar) -> "HalfLaurent":
        return HalfLaurent.from_dict(tag, {0: value})

    @staticmethod
    def one(tag: str) -> "HalfLaurent":
        return HalfLaurent.constant(tag, 1)

    @staticmethod
    def monomial(tag: str, half_exp: int, coeff: Scalar = 1) -> "HalfLaurent":
        """The monomial ``coeff * tag^(half_exp / 2)``."""
        return HalfLaurent.from_dict(tag, {half_exp: coeff})

    @staticmethod
    def variable(tag: str) -> "HalfLaurent":
        return HalfLaurent.monomial(tag, 2)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_leading(self) -> tuple[Union[Fraction, float], Fraction]:
        """Return ``(max exponent, leading coefficient)``.

        The zero polynomial reports degree ``-inf`` with coefficient 0.
        """
        if not self.terms:
            return (NEG_INFINITY, Fraction(0))
        half_exp, coeff = self.terms[0]
        return (Fraction(half_exp, 2), coeff)

    def has_integer_exponents(self) -> bool:
        return all(exp % 2 == 0 for exp, _ in self.terms)

    # -- ring operations ---------------------------------------------------

    def _check_tag(self, other: "HalfLaurent") -> None:
        if self.tag != other.tag:
            raise TagMismatchError(f"cannot combine {self.tag!r} with {other.tag!r}")

    def __add__(self, other: "HalfLaurent") -> "HalfLaurent":
        self._check_tag(other)
        data = dict(self.terms)
        for exp, coeff in other.terms:
            data[exp] = data.get(exp, Fraction(0)) + coeff
        return HalfLaurent.from_dict(self.tag, data)

    def __sub__(self, other: "HalfLaurent") -> "HalfLaurent":
        return self + (-other)

    def __neg__(self) -> "HalfLaurent":
        return HalfLaurent(self.tag, tuple((exp, -coeff) for exp, coeff in self.terms))

    def __mul__(self, other: "HalfLaurent") -> "HalfLaurent":
        self._check_tag(other)
        data: dict[int, Fraction] = {}
        for exp_a, coeff_a in self.terms:
            for exp_b, coeff_b in other.terms:
                key = exp_a + exp_b
                data[key] = data.get(key, Fraction(0)) + coeff_a * coeff_b
        return HalfLaurent.from_dict(self.tag, data)

    def scale(self, value: Scalar) -> "HalfLaurent":
        frac = _as_fraction(value)
        if frac == 0:
            return HalfLaurent.zero(self.tag)
        return HalfLaurent(self.tag, tuple((exp, coeff * frac) for exp, coeff in self.terms))

    def shift(self, half_steps: int) -> "HalfLaurent":
        """Multiply by ``tag^(half_steps / 2)``."""
        return HalfLaurent(self.tag, tuple((exp + half_steps, coeff) for exp, coeff in self.terms))

    def __pow__(self, power: int) -> "HalfLaurent":
        if power < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = HalfLaurent.one(self.tag)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, value: Scalar) -> Fraction:
        """Evaluate at a rational point.  Exponents must be integers.

        Evaluation at 0 requires all exponents to be non-negative.
        """
        point = _as_fraction(value)
        total = Fraction(0)
        for half_exp, coeff in self.terms:
            if half_exp % 2 != 0:
                raise ValueError("cannot evaluate a half-integer exponent at a rational point")
            exp = half_exp // 2
            if point == 0:
                if exp < 0:
                    raise ZeroDivisionError("negative exponent evaluated at 0")
                total += coeff * (1 if exp == 0 else 0)
            else:
                total += coeff * point**exp
        return total

    def reflect(self, half_steps: int) -> "HalfLaurent":
        """Exponent reflection ``p(t) -> t^(half_steps/2) * p(1/t)``."""
        return HalfLaurent.from_dict(
            self.tag, {half_steps - exp: coeff for exp, coeff in self.terms}
        )

    def retag(self, new_tag: str) -> "HalfLaurent":
        return HalfLaurent(new_tag, self.terms)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms by decreasing exponent, rationals as a/b."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for index, (half_exp, coeff) in enumerate(self.terms):
            sign = "-" if coeff < 0 else "+"
            magnitude = -coeff if coeff < 0 else coeff
            body = _render_term(self.tag, half_exp, magnitude)
            if index == 0:
                pieces.append(body if sign == "+" else "-" + body)
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _render_exponent(half_exp: int) -> str:
    if half_exp % 2 == 0:
        return str(half_exp // 2)
    return "{" + f"{half_exp}/2" + "}"


def _render_term(tag: str, half_exp: int, magnitude: Fraction) -> str:
    if half_exp == 0:
        return str(magnitude)
    if half_exp == 2:
        var = tag
    else:
        var = f"{tag}^{_render_exponent(half_exp)}"
    if magnitude == 1:
        return var
    return f"{magnitude}*{var}"


def _add_q_shift(data: dict[int, Scalar], half_exp: int, coeff: Scalar, shift: int = 0) -> None:
    """Add ``coeff * Q^(half_exp/2) * q^(shift/2)`` to ``data``, keyed by half-steps of q.

    ``Q^{1/2} = q^{1/2} + q^{-1/2}`` expands by the binomial theorem; this is
    the one expansion of ``substitute_q_shift`` and ``spatial._q_polynomial``.
    """
    if half_exp < 0:
        raise ValueError("substitution requires non-negative exponents")
    for j in range(half_exp + 1):
        key = shift + half_exp - 2 * j
        data[key] = data.get(key, 0) + coeff * comb(half_exp, j)


def substitute_q_shift(poly: HalfLaurent, new_tag: str = "q") -> HalfLaurent:
    """Substitute ``Q^{1/2} := q^{1/2} + q^{-1/2}`` exactly.

    Integer exponents of course map through ``Q := q + 2 + q^{-1}``; half
    exponents expand by the binomial theorem on the half-step lattice.
    """
    data: dict[int, Fraction] = {}
    for half_exp, coeff in poly.terms:
        _add_q_shift(data, half_exp, coeff)
    return HalfLaurent.from_dict(new_tag, data)


# ---------------------------------------------------------------------------
# Four-variable rank polynomial support.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrushkalPoly:
    """Polynomial in X, Y, A, B with integer exponents and rational coefficients."""

    terms: tuple[tuple[tuple[int, int, int, int], Fraction], ...]

    @staticmethod
    def from_dict(data: Mapping[tuple[int, int, int, int], Scalar]) -> "KrushkalPoly":
        cleaned = []
        for key, coeff in data.items():
            frac = _as_fraction(coeff)
            if frac != 0:
                cleaned.append((tuple(int(part) for part in key), frac))
        cleaned.sort(key=lambda item: item[0], reverse=True)
        return KrushkalPoly(tuple(cleaned))  # type: ignore[arg-type]

    def __add__(self, other: "KrushkalPoly") -> "KrushkalPoly":
        data = dict(self.terms)
        for key, coeff in other.terms:
            data[key] = data.get(key, Fraction(0)) + coeff
        return KrushkalPoly.from_dict(data)

    def render(self) -> str:
        if not self.terms:
            return "0"
        names = ("X", "Y", "A", "B")
        pieces = []
        for index, (exponents, coeff) in enumerate(self.terms):
            parts = []
            for name, exp in zip(names, exponents):
                if exp == 0:
                    continue
                parts.append(name if exp == 1 else f"{name}^{exp}")
            body = "*".join(parts) if parts else ""
            magnitude = -coeff if coeff < 0 else coeff
            if body:
                text = body if magnitude == 1 else f"{magnitude}*{body}"
            else:
                text = str(magnitude)
            sign = "-" if coeff < 0 else "+"
            if index == 0:
                pieces.append(text if sign == "+" else "-" + text)
            else:
                pieces.append(f" {sign} {text}")
        return "".join(pieces)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


# ---------------------------------------------------------------------------
# Cyclotomic arithmetic.
# ---------------------------------------------------------------------------


def euler_phi(n: int) -> int:
    result = n
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            while remaining % p == 0:
                remaining //= p
            result -= result // p
        p += 1
    if remaining > 1:
        result -= result // remaining
    return result


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coeff = num[shift + len(den) - 1]
        lead = den[-1]
        if coeff % lead:
            raise ValueError("inexact polynomial division")
        q = coeff // lead
        out[shift] = q
        if q:
            for i, d in enumerate(den):
                num[shift + i] -= q * d
    if any(num):
        raise ValueError("inexact polynomial division")
    return out


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("conductor must be positive")
    cached = _CYCLOTOMIC_CACHE.get(n)
    if cached is not None:
        return cached
    # x^n - 1 = product of Phi_d over d | n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    result = tuple(poly)
    _CYCLOTOMIC_CACHE[n] = result
    return result


def _reduce_mod_cyclotomic(coeffs: list[int], n: int) -> list[int]:
    """Integer coefficients reduced modulo Phi_n; monic Phi_n keeps them integral."""
    phi = cyclotomic_polynomial(n)
    degree = len(phi) - 1
    # Phi_n is monic: subtract multiples of it from the top down.
    for i in range(len(coeffs) - 1, degree - 1, -1):
        lead = coeffs[i]
        if lead == 0:
            continue
        shift = i - degree
        for j, c in enumerate(phi):
            coeffs[shift + j] -= lead * c
    del coeffs[degree:]
    coeffs += [0] * (degree - len(coeffs))
    return coeffs


def _numerators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over their least common denominator."""
    den = 1
    for c in coeffs:
        if den % c.denominator:
            den = den // gcd(den, c.denominator) * c.denominator
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _times(a: list[int], b: list[int], n: int) -> list[int]:
    """The product of two reduced integer coefficient lists, reduced modulo Phi_n."""
    product = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                product[j] += x * y
    return _reduce_mod_cyclotomic(product, n)


@dataclass(frozen=True)
class CyclotomicElement:
    """An element of Q[x]/Phi_n(x), with x standing for a primitive n-th root.

    ``coeffs`` are ``Fraction``s in the power basis 1, x, ..., x^(phi(n)-1).
    Products, powers and reductions run on integer numerators over one
    common denominator and return to ``Fraction`` at the end.
    """

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.conductor < 1:
            raise ValueError("conductor must be positive")
        expected = euler_phi(self.conductor)
        if len(self.coeffs) != expected:
            raise ValueError(
                f"conductor {self.conductor} needs {expected} coefficients, got {len(self.coeffs)}"
            )

    # -- construction -----------------------------------------------------

    @staticmethod
    def _from_numerators(conductor: int, nums: list[int], den: int) -> "CyclotomicElement":
        """The element sum(nums[i] x^i) / den, reduced modulo Phi_conductor."""
        nums = _reduce_mod_cyclotomic(nums, conductor)
        if den == 1:
            return CyclotomicElement(conductor, tuple(map(Fraction, nums)))
        return CyclotomicElement(conductor, tuple([Fraction(a, den) for a in nums]))

    @staticmethod
    def from_coeff_list(conductor: int, coeffs: Iterable[Scalar]) -> "CyclotomicElement":
        nums, den = _numerators([_as_fraction(c) for c in coeffs])
        return CyclotomicElement._from_numerators(conductor, nums, den)

    @staticmethod
    def zero(conductor: int) -> "CyclotomicElement":
        return CyclotomicElement.from_rational(conductor, 0)

    @staticmethod
    def from_rational(conductor: int, value: Scalar) -> "CyclotomicElement":
        # the degree of Phi_n is phi(n), and cyclotomic_polynomial refuses n < 1
        coeffs = [Fraction(0)] * (len(cyclotomic_polynomial(conductor)) - 1)
        coeffs[0] = _as_fraction(value)
        return CyclotomicElement(conductor, tuple(coeffs))

    @staticmethod
    def one(conductor: int) -> "CyclotomicElement":
        return CyclotomicElement.from_rational(conductor, 1)

    @staticmethod
    def root_power(conductor: int, power: int) -> "CyclotomicElement":
        """The element ``zeta_n^power`` (power may be any integer)."""
        if conductor < 1:
            raise ValueError("conductor must be positive")
        power %= conductor
        return CyclotomicElement._from_numerators(conductor, [0] * power + [1], 1)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "CyclotomicElement") -> None:
        if self.conductor != other.conductor:
            raise ValueError("conductor mismatch; embed into a common conductor first")

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(
            self.conductor, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(
            self.conductor, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.conductor, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        a, da = _numerators(self.coeffs)
        b, db = _numerators(other.coeffs)
        return CyclotomicElement._from_numerators(self.conductor, _times(a, b, self.conductor), da * db)

    def scale(self, value: Scalar) -> "CyclotomicElement":
        frac = _as_fraction(value)
        return CyclotomicElement(self.conductor, tuple(a * frac for a in self.coeffs))

    def __pow__(self, power: int) -> "CyclotomicElement":
        if power < 0:
            raise ValueError("negative powers not supported")
        n = self.conductor
        base, den = _numerators(self.coeffs)
        result = [1] + [0] * (len(base) - 1)
        remaining = power
        while remaining:
            if remaining & 1:
                result = _times(result, base, n)
            remaining >>= 1
            if remaining:
                base = _times(base, base, n)
        return CyclotomicElement._from_numerators(n, result, den**power)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])


def eval_cyclotomic(
    poly: HalfLaurent,
    conductor: int,
    power: int = 1,
    allow_nonprimitive: bool = False,
) -> CyclotomicElement:
    """Evaluate a Laurent polynomial exactly at ``q = zeta_conductor^power``.

    ``power`` must be coprime to ``conductor`` (a primitive root) unless
    ``allow_nonprimitive`` is set.  Half-integer exponents are handled by
    doubling the conductor internally: ``q^{1/2} = zeta_{2n}^{power}``.
    Each coefficient's numerator over the common denominator is added to
    the power of that working root it lands on, and the sum is reduced
    modulo the cyclotomic polynomial once.
    """
    if conductor < 1:
        raise ValueError("conductor must be positive")
    if not allow_nonprimitive and gcd(power, conductor) != 1:
        raise ValueError(
            f"power {power} is not a primitive residue modulo {conductor}; "
            "pass allow_nonprimitive=True for ring evaluation at a non-primitive power"
        )
    has_half = any(exp % 2 != 0 for exp, _ in poly.terms)
    working = 2 * conductor if has_half else conductor
    numerators, den = _numerators([coeff for _, coeff in poly.terms])
    nums = [0] * working
    for (half_exp, _), a in zip(poly.terms, numerators):
        exponent = half_exp * power if has_half else (half_exp // 2) * power
        nums[exponent % working] += a
    return CyclotomicElement._from_numerators(working, nums, den)
