"""The sparse core: coefficient maps, their semiring arithmetic, and the
one value protocol of the polynomials built on them.

A polynomial is a dict from exponents to Elements that never holds Zero.
The exponent is an int in one variable (`Poly`) and a pair (i, j) in two
(`BiPoly` and the parser).  Sums and products of nonzero elements are
nonzero, so results keep that invariant with no filtering.  Nothing
mutates a map once it is built, so the wrappers share them freely.  The
guard `record.Frozen` enforces this: assigning or deleting an attribute
raises, so a wrapper holds one map for life, and what it derives from the
map (a `Poly` keeps its canonical form) stays valid.

Sums stay on the Elements: `terms_add` only compares magnitudes and keeps
one of the summands, or makes a ghost copy on a tie, so it creates no new
Fraction.

`scaled` is the one place that clears denominators: it puts the
magnitudes of some maps on one integer scale, the lcm of their
denominators, for the hull of `poly`, the products and powers here, the
elimination of y and the Bezout scan.  A one-term operand of a product
(as in "3*x^2") only shifts exponents and multiplies each coefficient by
its own; the others are convolved on their `scaled` (int, ghost) pairs.
Magnitudes add, ghost absorbs, and two products that land on one
exponent keep the larger, turning ghost on a tie.  Pair exponents are
packed into one int, i * w + j with w past the product's degree in y (a
Kronecker substitution), so one loop serves both kinds.  Each output
coefficient then costs one Fraction.  The scale is taken per product,
never per sum: a sum never needs it, and one scale across a whole text
would make every product of a long sum with many distinct denominators
pay for all of them.

Output keys come in the order in which the nested convolution loop first
meets them, as a product of Elements would list them; a power lists the
keys of its square-and-multiply chain.

`_convolve` and the max-merge `_merged` are the product and the sum of
scaled maps of one scale: `bipoly` eliminates y on them and converts back
once, with `_unscaled`.

`SparsePoly` is the one wrapper over a map, subclassed by `Poly` and
`BiPoly`.  It holds their construction (checking exponents and
coefficients, dropping Zero), equality (same class, same map), hashing
and printing as well as their arithmetic.  A subclass names its exponent
test `_is_key` and `_unit`, the exponent of the constant term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm

from .element import Element, ONE
from .record import Frozen

# Exponent (int or (i, j) pair) -> nonzero coefficient.
Terms = dict


def terms_add(p: Terms, *rest: Terms) -> Terms:
    out = dict(p)
    for q in rest:
        for key, c in q.items():
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
    return out


def terms_mul(p: Terms, *rest: Terms) -> Terms:
    """The product of one or more maps, left to right.

    A one-term operand (as in "3*x^2") only shifts exponents and
    multiplies coefficients; the other operands are multiplied on ints.
    """
    shift = scalar = None
    ops = []
    for q in (p, *rest):
        if len(q) != 1:
            if not q:
                return {}
            ops.append(q)
            continue
        (key, c), = q.items()
        shift = key if shift is None else _shifted(shift, key)
        if c is not ONE:
            scalar = c if scalar is None else scalar * c
    if not ops:
        return {shift: ONE if scalar is None else scalar}
    out = ops[0]
    if len(ops) > 1:
        den, views = scaled(ops)
        w, views = _packed(views, 1)
        out = _unscaled(reduce(_convolve, views), den, w)
    if shift is None:
        return out
    if scalar is None:
        return {_shifted(key, shift): c for key, c in out.items()}
    return {_shifted(key, shift): c * scalar for key, c in out.items()}


def terms_pow(p: Terms, n: int, unit) -> Terms:
    """The n-th power by squaring; a monomial's power is read off directly.

    `unit` is the exponent of the constant term (0 or (0, 0)), for n = 0.
    Supertropical addition is associative and commutative and
    multiplication distributes over it, so this equals n - 1 repeated
    products.
    """
    if n == 0:
        return {unit: ONE}
    if len(p) == 1:
        (key, c), = p.items()
        key = (key[0] * n, key[1] * n) if type(key) is tuple else key * n
        return {key: c if c is ONE else c ** n}
    if n == 1 or not p:
        return p
    den, views = scaled([p])
    w, (q,) = _packed(views, n)
    out = None
    while True:
        if n & 1:
            out = q if out is None else _convolve(out, q)
        n >>= 1
        if not n:
            return _unscaled(out, den, w)
        q = _convolve(q, q)


class SparsePoly(Frozen):
    """A polynomial as one core map, `_coeffs`, never mutated once built."""

    __slots__ = ("_coeffs",)
    _unit = 0  # the exponent of the constant term
    # The test of one exponent: a degree here, a pair in `BiPoly`.
    _is_key = staticmethod(lambda key: type(key) is int and key >= 0)

    def __init__(self, coeffs: Terms | None = None):
        clean: Terms = {}
        is_key = self._is_key
        for key, c in (coeffs or {}).items():
            if not is_key(key):
                raise ValueError(
                    f"bad exponent for {type(self).__name__}: {key!r}")
            if not isinstance(c, Element):
                raise TypeError(f"coefficient of {key!r} is not an "
                                f"Element: {c!r}")
            if not c.is_zero:
                clean[key] = c
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def _of(cls, terms: Terms):
        # Trusted: `terms` is a core map, shared, never mutated.
        out = object.__new__(cls)
        object.__setattr__(out, "_coeffs", terms)
        return out

    def __reduce__(self):
        # Copies and pickles rebuild through the constructor.
        return type(self), (self._coeffs,)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c: Element):
        # Through the constructor, so that a Zero constant is dropped.
        return cls({cls._unit: c})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other):
        return self._of(terms_add(self._coeffs, other._coeffs))

    def __mul__(self, other):
        return self._of(terms_mul(self._coeffs, other._coeffs))

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:
            raise ValueError(f"exponent must be a nonnegative integer: {n!r}")
        return self._of(terms_pow(self._coeffs, n, self._unit))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def __str__(self) -> str:
        parts = []
        for key in sorted(self._coeffs, key=_print_order, reverse=True):
            c = self._coeffs[key]
            i, j = key if type(key) is tuple else (key, 0)
            x = "" if not i else "x" if i == 1 else f"x^{i}"
            y = "" if not j else "y" if j == 1 else f"y^{j}"
            mono = f"{x}*{y}" if x and y else x or y
            if not mono:
                parts.append(str(c))
            else:
                parts.append(mono if c == ONE else f"{c}*{mono}")
        return " + ".join(parts) or "-inf"


def _print_order(key):
    # Terms print by falling total degree, then by falling degree in x.
    return (key[0] + key[1], key[0]) if type(key) is tuple else key


def _shifted(key, by):
    if type(key) is tuple:
        return (key[0] + by[0], key[1] + by[1])
    return key + by


def scaled(maps: list[Terms]) -> tuple[int, list[dict]]:
    """The maps on one integer scale: `den`, the lcm of the denominators
    of all their magnitudes, and each map as key -> (magnitude * den as an
    int, ghost), in the map's order.  The maps hold no Zero."""
    den = lcm(*[c.mag.denominator for p in maps for c in p.values()])
    # One call reads both parts of each ratio: this runs per term.
    return den, [{key: (n * (den // d), c.is_ghost) for key, c in p.items()
                  for n, d in (c.mag.as_integer_ratio(),)} for p in maps]


def _packed(views: list[dict], n: int) -> tuple[int | None, list[dict]]:
    # Pair keys (i, j) packed to i * w + j, w past the degree in y of the
    # n-th power of the product; int keys stay as they are (w is None).
    if type(next(iter(views[0]))) is not tuple:
        return None, views
    w = 1 + n * sum(max(j for _, j in v) for v in views)
    return w, [{i * w + j: mg for (i, j), mg in v.items()} for v in views]


def _unscaled(out: dict, den: int, w: int | None) -> Terms:
    # One Fraction per coefficient.
    if w is not None:
        out = {divmod(key, w): v for key, v in out.items()}
    if den == 1:
        return {key: Element(Fraction(m), g) for key, (m, g) in out.items()}
    return {key: Element(Fraction(m, den), g) for key, (m, g) in out.items()}


def _convolve(p: dict, q: dict) -> dict:
    """The max-plus product of two scaled maps: the one convolution loop."""
    out: dict = {}
    get = out.get
    for k1, (m1, g1) in p.items():
        for k2, (m2, g2) in q.items():
            key = k1 + k2
            m = m1 + m2
            cur = get(key)
            if cur is None or m > cur[0]:
                out[key] = (m, g1 or g2)
            elif m == cur[0]:
                out[key] = (m, True)
    return out


def _merged(p: dict, q: dict) -> dict:
    """The max-plus sum of two scaled maps: the larger magnitude on each
    key, turning ghost on a tie, in the order of `terms_add`."""
    out = dict(p)
    get = out.get
    for key, mg in q.items():
        cur = get(key)
        if cur is None or mg[0] > cur[0]:
            out[key] = mg
        elif mg[0] == cur[0]:
            out[key] = (cur[0], True)
    return out

