"""Exact algebra of differential polynomials and truncated eps-series.

The symbolic workhorse of the package.  A :class:`Monomial` is a product of
derivatives of a single unknown periodic function f(x); a :class:`DiffPoly`
is a finite rational-coefficient combination of monomials; an
:class:`EpsSeries` is a power series in the small parameter eps = 1/N whose
coefficients are differential polynomials, truncated at a fixed order cap.

All coefficients are exact rationals: every identity checked downstream is
an exact cancellation, so floating point would be useless here.  A DiffPoly
holds int numerators over one positive int denominator in lowest terms, so
the kernels do int arithmetic only and reduce each result with one gcd;
``fractions.Fraction`` is the boundary type, taken by the constructors and
returned by ``terms``, ``coeff`` and ``sorted_terms``.  Every series
coefficient is built in one dict over one common denominator.  All values
are immutable; every operation returns a new value.

Work is not repeated.  Every monomial is interned: each constructor
(including pickle and copy) returns the one instance for its exponents, so
monomial equality is identity and every dict in the kernels hashes and
compares in C.  The derivatives (``Monomial.x_terms``, ``Monomial.partials``)
and products (``Monomial.mul``) of monomials are memoized in module-level
tables keyed by the monomials themselves.  The Taylor shift differentiates
only the triangle that survives truncation, once per series: the triangle
is kept on the (immutable) series, and each shift only sums it with its
weights.  ``dt_along`` forms one product per derivative order instead of one
per monomial factor, and differentiates h only as far as truncation keeps.
``EpsSeries.combine`` sums weighted products of series in one pass per
coefficient, with no intermediate series.  The derivative-order guard reads
the top order of each coefficient once per series and checks every
derivative by arithmetic, since d/dx raises that order by exactly one.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Mapping, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "Monomial",
    "DiffPoly",
    "EpsSeries",
    "DerivativeOrderError",
    "ExactDivisionError",
]


class DerivativeOrderError(ValueError):
    """Raised when an operation would create a derivative above the safety cap."""


class ExactDivisionError(ArithmeticError):
    """Raised when dividing an EpsSeries by eps**k whose low coefficients are nonzero."""


def _as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Monomial:
    """A product f^(k1)^e1 * f^(k2)^e2 * ...  keyed by derivative order.

    Stored as a sorted tuple of (order, exponent) pairs with positive
    exponents; the empty tuple is the constant monomial 1.  Every
    constructor returns the one interned instance for its pairs, so equal
    monomials are the same object: equality is identity and the hash is
    the object's own, both computed in C.
    """

    __slots__ = ("_pairs",)

    def __new__(cls, exponents: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        pairs = []
        for order, exp in items:
            if order < 0:
                raise ValueError("derivative order must be >= 0")
            if exp < 0:
                raise ValueError("exponents must be >= 0")
            if exp:
                pairs.append((int(order), int(exp)))
        pairs.sort()
        return _interned(tuple(pairs))

    def __init__(self, exponents=()):
        """Nothing to do: ``__new__`` returns a finished, interned instance."""

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, hence the interned instance
        return Monomial, (self._pairs,)

    @staticmethod
    def _of_dict(exponents: dict[int, int]) -> "Monomial":
        """Unchecked constructor for internal callers: ``exponents`` maps
        orders >= 0 to exponents >= 1."""
        return _interned(tuple(sorted(exponents.items())))

    @staticmethod
    def one() -> "Monomial":
        return _MONOMIAL_ONE

    @staticmethod
    def f(order: int = 0, exp: int = 1) -> "Monomial":
        """The monomial f^(order) raised to ``exp``."""
        return Monomial([(order, exp)])

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def is_one(self) -> bool:
        return not self._pairs

    def degree(self) -> int:
        return sum(e for _, e in self._pairs)

    def weight(self) -> int:
        """Total derivative-order weight sum(k * e_k)."""
        return sum(k * e for k, e in self._pairs)

    def max_order(self) -> int:
        """Highest derivative order present (-1 for the constant monomial)."""
        return self._pairs[-1][0] if self._pairs else -1

    def mul(self, other: "Monomial") -> "Monomial":
        key = (self, other)
        m = _MUL_MEMO.get(key)
        if m is None:
            d = dict(self._pairs)
            for k, e in other._pairs:
                d[k] = d.get(k, 0) + e
            m = _MUL_MEMO[key] = Monomial._of_dict(d)
        return m

    def partials(self) -> tuple[tuple[int, int, "Monomial"], ...]:
        """d/d f^(k) of this monomial as (k, multiplier, monomial) triples,
        one per factor f^(k)^e: e * f^(k)^(e-1) * rest."""
        out = _PARTIALS_MEMO.get(self)
        if out is None:
            # rest: this monomial with one factor f^(order) taken out
            out = _PARTIALS_MEMO[self] = tuple(
                (order, exp, Monomial._of_dict(
                    {k: e - (k == order) for k, e in self._pairs if k != order or e > 1}))
                for order, exp in self._pairs
            )
        return out

    def x_terms(self) -> tuple[tuple["Monomial", int], ...]:
        """d/dx of this monomial as (monomial, multiplier) pairs, one per
        factor f^(k)^e: e * f^(k)^(e-1) * f^(k+1) * rest."""
        terms = _X_MEMO.get(self)
        if terms is None:
            terms = _X_MEMO[self] = tuple(
                (rest.mul(Monomial._of_dict({order + 1: 1})), exp)
                for order, exp, rest in self.partials()
            )
        return terms

    def sort_key(self):
        """Canonical term order: compare (order, exponent) pairs from the
        highest derivative down.  Used descending for display."""
        return tuple(sorted(self._pairs, reverse=True))

    def __repr__(self) -> str:
        return f"Monomial({list(self._pairs)!r})"

    def __str__(self) -> str:
        if not self._pairs:
            return "1"
        out = []
        for order, exp in self._pairs:
            if order == 0:
                name = "f"
            elif order == 1:
                name = "f'"
            elif order == 2:
                name = "f''"
            else:
                name = f"f({order})"
            out.append(name if exp == 1 else f"{name}^{exp}")
        return " * ".join(out)


def _interned(pairs: tuple[tuple[int, int], ...]) -> Monomial:
    """The one Monomial with these canonical pairs, made on first use."""
    m = _INTERNED.get(pairs)
    if m is None:
        m = _INTERNED[pairs] = object.__new__(Monomial)
        m._pairs = pairs
    return m


# The interning table (pairs -> Monomial) and the memo tables of the monomial
# calculus, keyed by the monomials themselves.  A whole verify of flows 1-4
# plus an extend_R chain leaves a few thousand entries.
_INTERNED: dict[tuple, Monomial] = {}
_MUL_MEMO: dict[tuple[Monomial, Monomial], Monomial] = {}
_X_MEMO: dict[Monomial, tuple[tuple[Monomial, int], ...]] = {}
_PARTIALS_MEMO: dict[Monomial, tuple[tuple[int, int, Monomial], ...]] = {}
_MONOMIAL_ONE = Monomial()


def _poly(num: dict[Monomial, int], den: int) -> "DiffPoly":
    """The polynomial with numerators ``num`` over ``den`` > 0, in lowest
    terms: zero numerators are dropped and one gcd reduces the rest."""
    if 0 in num.values():
        num = {m: c for m, c in num.items() if c}
    if not num:
        return _DIFFPOLY_ZERO
    g = gcd(den, *num.values())
    if g != 1:
        den //= g
        num = {m: c // g for m, c in num.items()}
    out = DiffPoly.__new__(DiffPoly)
    out._num = num
    out._den = den
    return out


def _linear_sum(terms: Iterable[tuple[int | Fraction, "DiffPoly"]]) -> "DiffPoly":
    """Sum of w * p over (w, p) pairs with int or Fraction weights w, built
    in one dict over the lcm of the denominators and reduced once."""
    terms = [(w, p) for w, p in terms if w and p._num]
    if not terms:
        return _DIFFPOLY_ZERO
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    den = lcm(*[w.denominator * p._den for w, p in terms])
    num: dict[Monomial, int] = {}
    get = num.get
    for w, p in terms:
        s = w.numerator * (den // (w.denominator * p._den))
        for m, c in p._num.items():
            num[m] = get(m, 0) + c * s
    return _poly(num, den)


def _product_sum(terms: Iterable[tuple[int, "DiffPoly", "DiffPoly | None"]]) -> "DiffPoly":
    """Sum of w * p * q over (w, p, q) triples with int weights w, where a q
    of None stands for the factor one, accumulated like ``_linear_sum``."""
    terms = [(w, p, q) for w, p, q in terms if w and p._num and (q is None or q._num)]
    if not terms:
        return _DIFFPOLY_ZERO
    den = lcm(*[p._den if q is None else p._den * q._den for _, p, q in terms])
    num: dict[Monomial, int] = {}
    get = num.get
    mul_get = _MUL_MEMO.get
    for w, p, q in terms:
        if q is None:
            s = w * (den // p._den)
            for m, c in p._num.items():
                num[m] = get(m, 0) + c * s
            continue
        s = w * (den // (p._den * q._den))
        q_terms = q._num.items()
        for m1, c1 in p._num.items():
            c1 *= s
            for m2, c2 in q_terms:
                m = mul_get((m1, m2)) or m1.mul(m2)
                num[m] = get(m, 0) + c1 * c2
    return _poly(num, den)


class DiffPoly:
    """Differential polynomial: finite map Monomial -> nonzero rational.

    Stored as ``_num``, Monomial -> nonzero int, over one int ``_den`` > 0
    with gcd(_den, *_num.values()) == 1, so equal polynomials have equal
    fields.  Coefficients enter and leave as ``Fraction``.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Monomial, Fraction] | Iterable[tuple[Monomial, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            c = _as_rational(coeff)
            acc = d.get(mono)
            d[mono] = c if acc is None else acc + c
        d = {m: c for m, c in d.items() if c}
        # over the lcm of lowest-terms denominators no common factor is left
        den = lcm(*[c.denominator for c in d.values()])
        self._num = {m: c.numerator * (den // c.denominator) for m, c in d.items()}
        self._den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return _DIFFPOLY_ZERO

    @staticmethod
    def const(c) -> "DiffPoly":
        return DiffPoly({Monomial.one(): _as_rational(c)})

    @staticmethod
    def f(order: int = 0, exp: int = 1, coeff=1) -> "DiffPoly":
        return DiffPoly({Monomial.f(order, exp): _as_rational(coeff)})

    @staticmethod
    def from_terms(*terms) -> "DiffPoly":
        """Build from (coeff, [(order, exp), ...]) tuples."""
        return DiffPoly([(Monomial(list(pairs)), _as_rational(c)) for c, pairs in terms])

    # -- queries -------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        den = self._den
        return {m: Fraction(c, den) for m, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def coeff(self, mono: Monomial) -> Fraction:
        return Fraction(self._num.get(mono, 0), self._den)

    def max_order(self) -> int:
        return max([m._pairs[-1][0] for m in self._num if m._pairs], default=-1)

    def __len__(self) -> int:
        return len(self._num)

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffPoly) and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return _linear_sum(((1, self), (1, other)))

    def __neg__(self) -> "DiffPoly":
        return _linear_sum(((-1, self),))

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return _linear_sum(((1, self), (-1, other)))

    def __mul__(self, other) -> "DiffPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return _product_sum(((1, self, other),))

    __rmul__ = __mul__

    def scale(self, c) -> "DiffPoly":
        return _linear_sum(((_as_rational(c), self),))

    # -- calculus --------------------------------------------------------

    def x_derive(self) -> "DiffPoly":
        """d/dx as a derivation with d/dx f^(k) = f^(k+1)."""
        num: dict[Monomial, int] = {}
        get = num.get
        x_get = _X_MEMO.get
        for mono, c in self._num.items():
            for m, exp in x_get(mono) or mono.x_terms():
                num[m] = get(m, 0) + c * exp
        return _poly(num, self._den)

    def drop_derivatives(self) -> "DiffPoly":
        """Substitute f' = f'' = ... = 0, keeping the pure-f part."""
        return _poly({m: c for m, c in self._num.items() if m.max_order() <= 0}, self._den)

    def evaluate(self, derivs: Sequence) -> float:
        """Substitute numeric values [f, f', f'', ...] and evaluate in floats.

        Entries may be scalars or equal-shaped numpy arrays (pointwise jets).
        Terms are summed in insertion order; each coefficient is rounded
        once, by int true division, exactly as ``float(Fraction)`` rounds.
        """
        den = self._den
        total = 0.0
        for mono, c in self._num.items():
            val = c / den
            for order, exp in mono.pairs:
                if order >= len(derivs):
                    raise ValueError(
                        f"need derivative of order {order}, got only {len(derivs)} values"
                    )
                val = val * derivs[order] ** exp
            total = total + val
        return total

    # -- display ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key(), reverse=True)

    def leading_term(self) -> tuple[Monomial, Fraction]:
        """``sorted_terms()[0]``, converting only that coefficient."""
        top = max(self._num, key=Monomial.sort_key)
        return top, Fraction(self._num[top], self._den)

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            cs = str(coeff) if coeff > 0 else f"({coeff})"
            if mono.is_one():
                parts.append(cs)
            elif coeff == 1:
                parts.append(str(mono))
            else:
                parts.append(f"{cs} * {mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"DiffPoly<{self}>"


_DIFFPOLY_ZERO = DiffPoly()


class EpsSeries:
    """Power series in eps truncated at ``order_cap``: sum_k coeffs[k] eps^k.

    Operations on series with different caps silently truncate to the smaller
    cap; within a fixed cap all arithmetic is exact.  The maximum derivative
    order any operation may create is 2 * order_cap; beyond that the engine
    raises instead of silently truncating.
    """

    # _triangle: the derivative triangle of ``shift``, filled on first use
    __slots__ = ("_coeffs", "_triangle")

    def __init__(self, coeffs: Sequence[DiffPoly], order_cap: int | None = None):
        coeffs = list(coeffs)
        if order_cap is not None:
            if order_cap < 0:
                raise ValueError("order_cap must be >= 0")
            if len(coeffs) < order_cap + 1:
                coeffs += [_DIFFPOLY_ZERO] * (order_cap + 1 - len(coeffs))
            else:
                coeffs = coeffs[: order_cap + 1]
        if not coeffs:
            raise ValueError("an EpsSeries needs at least the eps^0 coefficient")
        self._coeffs = tuple(coeffs)
        self._triangle: list[Sequence[DiffPoly]] | None = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(cap: int) -> "EpsSeries":
        return EpsSeries([], order_cap=cap)

    @staticmethod
    def const(c, cap: int) -> "EpsSeries":
        return EpsSeries([DiffPoly.const(c)], order_cap=cap)

    @staticmethod
    def of_poly(p: DiffPoly, cap: int, eps_power: int = 0) -> "EpsSeries":
        coeffs = [_DIFFPOLY_ZERO] * (cap + 1)
        if 0 <= eps_power <= cap:
            coeffs[eps_power] = p
        return EpsSeries(coeffs)

    @staticmethod
    def f(cap: int) -> "EpsSeries":
        """The unknown function f as a series (pure eps^0 term)."""
        return EpsSeries.of_poly(DiffPoly.f(), cap)

    # -- queries ------------------------------------------------------------

    @property
    def order_cap(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[DiffPoly, ...]:
        return self._coeffs

    def coeff(self, k: int) -> DiffPoly:
        return self._coeffs[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    def first_nonzero_order(self) -> int | None:
        for k, c in enumerate(self._coeffs):
            if not c.is_zero():
                return k
        return None

    def max_order(self) -> int:
        return max((c.max_order() for c in self._coeffs), default=-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, EpsSeries) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- arithmetic -----------------------------------------------------------

    def _common_cap(self, other: "EpsSeries") -> int:
        return min(self.order_cap, other.order_cap)

    def __add__(self, other: "EpsSeries") -> "EpsSeries":
        if not isinstance(other, EpsSeries):
            return NotImplemented
        cap = self._common_cap(other)
        return EpsSeries([self._coeffs[k] + other._coeffs[k] for k in range(cap + 1)])

    def __sub__(self, other: "EpsSeries") -> "EpsSeries":
        if not isinstance(other, EpsSeries):
            return NotImplemented
        cap = self._common_cap(other)
        return EpsSeries([self._coeffs[k] - other._coeffs[k] for k in range(cap + 1)])

    def __neg__(self) -> "EpsSeries":
        return EpsSeries([-c for c in self._coeffs])

    def __mul__(self, other) -> "EpsSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, EpsSeries):
            return NotImplemented
        return EpsSeries.combine([(1, self, other)])

    __rmul__ = __mul__

    @staticmethod
    def combine(terms: Iterable[tuple[int, "EpsSeries", "EpsSeries | None"]]) -> "EpsSeries":
        """Sum of c * S * T over (c, S, T) triples with int weights c, where a
        T of None stands for the factor one, truncated at the smallest cap.

        Each eps coefficient is one ``_product_sum`` over every pair of
        nonzero coefficients that lands on it: one dict and one reduction per
        coefficient, and no intermediate series.
        """
        terms = list(terms)
        cap = min(x.order_cap for _, s, t in terms for x in (s, t) if x is not None)
        parts: list[list] = [[] for _ in range(cap + 1)]
        for c, s, t in terms:
            a = [(i, p) for i, p in enumerate(s._coeffs[: cap + 1]) if p._num]
            if t is None:
                for i, p in a:
                    parts[i].append((c, p, None))
                continue
            b = [(j, q) for j, q in enumerate(t._coeffs[: cap + 1]) if q._num]
            for i, p in a:
                for j, q in b:
                    if i + j > cap:
                        break
                    parts[i + j].append((c, p, q))
        return EpsSeries([_product_sum(p) for p in parts])

    def scale(self, c) -> "EpsSeries":
        return EpsSeries([p.scale(c) for p in self._coeffs])

    def mul_poly(self, p: DiffPoly) -> "EpsSeries":
        return EpsSeries([c * p for c in self._coeffs])

    def eps_shift(self, k: int) -> "EpsSeries":
        """Multiply by eps^k (k >= 0), truncating at the cap."""
        if k < 0:
            raise ValueError("eps_shift expects k >= 0; use eps_div to lower")
        cap = self.order_cap
        out = [_DIFFPOLY_ZERO] * (cap + 1)
        for i in range(cap + 1 - k):
            out[i + k] = self._coeffs[i]
        return EpsSeries(out)

    def eps_div(self, k: int) -> "EpsSeries":
        """Divide exactly by eps^k.  The dropped low coefficients must vanish.

        The result's cap drops by k: higher coefficients are simply unknown.
        """
        if k == 0:
            return self
        if k < 0 or k > self.order_cap:
            raise ValueError("bad eps power")
        for j in range(k):
            if not self._coeffs[j].is_zero():
                raise ExactDivisionError(
                    f"eps^{j} coefficient is nonzero: {self._coeffs[j]}"
                )
        return EpsSeries(self._coeffs[k:])

    def truncate(self, cap: int) -> "EpsSeries":
        if cap >= self.order_cap:
            return self
        return EpsSeries(self._coeffs[: cap + 1])

    # -- calculus ---------------------------------------------------------------

    def _check_derivative(self, orders: Sequence[int], times: int) -> None:
        """The derivative-order guard on the ``times``-th x-derivative of
        coefficients whose top derivative orders are ``orders``.

        d/dx raises the top order of a non-constant polynomial by exactly one
        (its top monomials have distinct derivatives, each with the new top
        order) and takes a constant to zero, so the guard needs only these
        orders, taken once per series, and scans no derived polynomial.  It
        raises for the first coefficient, in order, that a scan would reject.
        """
        limit = 2 * self.order_cap
        if max(orders, default=-1) + times > limit:
            for order in orders:
                if order >= 0 and order + times > limit:
                    raise DerivativeOrderError(
                        f"derivative order {order + times} exceeds safety cap {limit}"
                    )

    def x_derive(self) -> "EpsSeries":
        self._check_derivative([c.max_order() for c in self._coeffs], 1)
        return EpsSeries([c.x_derive() for c in self._coeffs])

    def shift(self, n: int) -> "EpsSeries":
        """Taylor shift: the series evaluated at x + n*eps.

        Returns sum_{i=0..cap} (n eps)^i / i! * (d/dx)^i of self, truncated.
        Only the triangle that survives truncation is differentiated:
        (d/dx)^i of coefficients 0..cap-i.  It does not depend on n, so it is
        computed once per series and kept; each shift then only sums it with
        the weights n^i / i!.  The derivative-order guard runs on every
        coefficient of the triangle; a coefficient the shift discards is
        never differentiated, so it cannot raise DerivativeOrderError.
        """
        if n == 0:
            return self
        triangle = self._triangle
        if triangle is None:
            cap = self.order_cap
            orders = [c.max_order() for c in self._coeffs]
            level = self._coeffs
            triangle = [level]
            for i in range(1, cap + 1):
                self._check_derivative(orders[: cap + 1 - i], i)
                level = [c.x_derive() for c in level[: cap + 1 - i]]
                triangle.append(level)
            # cached only once every level has passed the guard
            self._triangle = triangle
        parts = [[(1, c)] for c in self._coeffs]
        for i in range(1, len(triangle)):
            w = Fraction(n**i, factorial(i))
            for j, c in enumerate(triangle[i]):
                parts[i + j].append((w, c))
        return EpsSeries([_linear_sum(p) for p in parts])

    def dt_along(self, h: "EpsSeries") -> "EpsSeries":
        """Time derivative induced by df/dt = h.

        Acts as a derivation with dt(f^(k)) = (d/dx)^k h and dt(eps) = 0; in
        particular dt commutes with d/dx.  Coefficient k contributes
        sum over orders r of (d poly_k / d f^(r)) * (d/dx)^r h, shifted by
        eps^k, so (d/dx)^r h is needed, and differentiated and guarded, only
        through eps^(cap-k) for the lowest such k.
        """
        cap = min(self.order_cap, h.order_cap)
        h = h.truncate(cap)
        h_orders = [c.max_order() for c in h._coeffs]
        h_derivs: list[Sequence[DiffPoly]] = [h._coeffs]
        pairs: list[list] = [[] for _ in range(cap + 1)]
        for k in range(cap + 1):
            poly = self._coeffs[k]
            # numerators of d poly / d f^(r) per order r; distinct monomials
            # have distinct partials, so nothing cancels here
            partials: dict[int, dict[Monomial, int]] = {}
            for mono, c in poly._num.items():
                for order, exp, rest in mono.partials():
                    partials.setdefault(order, {})[rest] = c * exp
            for order, num in partials.items():
                while len(h_derivs) <= order:
                    # k only grows, so no later use reaches past eps^(cap-k)
                    h._check_derivative(h_orders[: cap + 1 - k], len(h_derivs))
                    h_derivs.append([c.x_derive() for c in h_derivs[-1][: cap + 1 - k]])
                partial = _poly(num, poly._den)
                hd = h_derivs[order]
                for j in range(cap + 1 - k):
                    pairs[k + j].append((1, hd[j], partial))
        return EpsSeries([_product_sum(p) for p in pairs])

    def drop_derivatives(self) -> "EpsSeries":
        return EpsSeries([c.drop_derivatives() for c in self._coeffs])

    def evaluate(self, derivs: Sequence, eps: float) -> float:
        """Numeric value of the truncated series at a given jet and eps.

        Like DiffPoly.evaluate, jet entries may be scalars or arrays.
        """
        total = 0.0
        for k, c in enumerate(self._coeffs):
            if not c.is_zero():
                total = total + c.evaluate(derivs) * eps**k
        return total

    # -- display ----------------------------------------------------------------

    def render(self) -> str:
        return "\n".join(f"eps^{k} : {c}" for k, c in enumerate(self._coeffs))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        nz = self.first_nonzero_order()
        return f"EpsSeries(cap={self.order_cap}, first_nonzero={nz})"
