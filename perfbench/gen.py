"""Seeded input generator for the benchmark.

Everything here is independent of supertrop, on purpose: a change to the
library (including its own test generator) cannot change what the
benchmark feeds it.  Inputs are emitted as polynomial text or JSON, so the
library only ever sees generated text and parsing is part of the timed
work.  The same seed always gives the same inputs.

The module also carries the benchmark's independent oracles: a max-plus
evaluator with ghost layers, root sets of full polynomials built from their
corner roots, and the closed product formula for the resultant magnitude.

Scalars are ``(mag, ghost)`` pairs with ``mag`` a Fraction, or ``None`` for
-inf.  A one-variable polynomial is a dict ``{degree: scalar}``, a
two-variable one a dict ``{(i, j): scalar}``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

# -- text and JSON --------------------------------------------------------


def scalar_text(s) -> str:
    mag, gh = s
    if mag is None:
        return "-inf"
    return f"{mag}v" if gh else str(mag)


def _monomial_text(c, powers: list[tuple[str, int]]) -> str:
    parts = [v if k == 1 else f"{v}^{k}" for v, k in powers if k]
    if not parts:
        return scalar_text(c)
    if c == (Fraction(0), False):
        return "*".join(parts)
    return "*".join([scalar_text(c)] + parts)


def poly_text(coeffs: dict, rng: Random) -> str:
    items = list(coeffs.items())
    rng.shuffle(items)
    return " + ".join(_monomial_text(c, [("x", i)]) for i, c in items)


def bipoly_text(coeffs: dict, rng: Random) -> str:
    items = list(coeffs.items())
    rng.shuffle(items)
    return " + ".join(_monomial_text(c, [("x", i), ("y", j)])
                      for (i, j), c in items)


def product_text(factors: list[tuple[dict, int]], rng: Random) -> str:
    out = []
    for coeffs, k in factors:
        text = f"({poly_text(coeffs, rng)})"
        out.append(text if k == 1 else f"{text}^{k}")
    return "*".join(out)


def poly_json(coeffs: dict) -> str:
    terms = [{"i": i, "value": str(m), "layer": "ghost" if g else "tangible"}
             for i, (m, g) in sorted(coeffs.items())]
    return json.dumps({"vars": 1, "terms": terms})


# -- oracles ---------------------------------------------------------------


def evaluate(coeffs: dict, a: Fraction):
    """Value at the tangible point a: max over terms, ghost on a tie."""
    best, gh = None, False
    for i, (m, g) in coeffs.items():
        v = m + i * a
        if best is None or v > best:
            best, gh = v, g
        elif v == best:
            gh = True
    return best, gh


def evaluate_product(factors: list[tuple[dict, int]], a: Fraction):
    total, gh = Fraction(0), False
    for coeffs, k in factors:
        m, g = evaluate(coeffs, a)
        total += k * m
        gh = gh or g
    return total, gh


def evaluate2(coeffs: dict, a: Fraction, b: Fraction):
    best, gh = None, False
    for (i, j), (m, g) in coeffs.items():
        v = m + i * a + j * b
        if best is None or v > best:
            best, gh = v, g
        elif v == best:
            gh = True
    return best, gh


def breakpoints(coeffs: dict) -> set[Fraction]:
    """Every point where two monomials of the polynomial take equal values."""
    items = list(coeffs.items())
    out = set()
    for k, (i, (mi, _)) in enumerate(items):
        for j, (mj, _) in items[k + 1:]:
            out.add((mj - mi) / (i - j))
    return out


def probe_points(points: set[Fraction]) -> list[Fraction]:
    """The points, the midpoints between neighbours, and one beyond each end."""
    grid = sorted(points) or [Fraction(0)]
    out = [grid[0] - 1, grid[-1] + 1]
    for a, b in zip(grid, grid[1:]):
        out.append((a + b) / 2)
    return out + grid


def full_coeffs(corners: list[Fraction], flags: list[bool], lead: Fraction) -> dict:
    """Full polynomial with the given nondecreasing corners and slot layers."""
    mags = [lead] * (len(corners) + 1)
    for i in range(len(corners) - 1, -1, -1):
        mags[i] = mags[i + 1] + corners[i]
    return {i: (m, g) for i, (m, g) in enumerate(zip(mags, flags))}


def full_roots(corners: list[Fraction], flags: list[bool]) -> list[tuple]:
    """Closed root intervals of a full polynomial, with None for an infinite end.

    Every corner is a root; a ghost slot makes its whole dominance region
    roots.
    """
    h = len(corners)
    pieces = [(a, a) for a in corners]
    for i, gh in enumerate(flags):
        if gh:
            pieces.append((corners[i - 1] if i else None,
                           corners[i] if i < h else None))
    return pieces


def _inside(x: Fraction, piece: tuple) -> bool:
    lo, hi = piece
    return (lo is None or lo <= x) and (hi is None or x <= hi)


def in_roots(pieces: list[tuple], x: Fraction) -> bool:
    return any(_inside(x, p) for p in pieces)


def roots_meet(p: list[tuple], q: list[tuple]) -> bool:
    for lo1, hi1 in p:
        for lo2, hi2 in q:
            lo = lo2 if lo1 is None else lo1 if lo2 is None else max(lo1, lo2)
            hi = hi2 if hi1 is None else hi1 if hi2 is None else min(hi1, hi2)
            if lo is None or hi is None or lo <= hi:
                return True
    return False


def resultant_mag(f: "FullPair", g: "FullPair") -> Fraction:
    """Magnitude of the resultant by the product formula on the corners."""
    m, n = len(f.corners), len(g.corners)
    out = n * f.lead + m * g.lead
    for a in f.corners:
        for b in g.corners:
            out += max(a, b)
    return out


# -- generators -------------------------------------------------------------


def primes_near(start: int, count: int) -> list[int]:
    out, n = [], start
    while len(out) < count:
        if n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1)):
            out.append(n)
        n += 1
    return out


class FullPair:
    """One side of a resultant pair: corners, slot layers, lead magnitude."""

    __slots__ = ("corners", "flags", "lead", "coeffs", "roots")

    def __init__(self, corners, flags, lead):
        self.corners, self.flags, self.lead = corners, flags, lead
        self.coeffs = full_coeffs(corners, flags, lead)
        self.roots = full_roots(corners, flags)


class Gen:
    """Deterministic supply of benchmark inputs."""

    def __init__(self, seed: int):
        self.rng = Random(seed)

    def mag(self) -> Fraction:
        # Small denominators: halves mostly, some thirds.
        den = 3 if self.rng.random() < 0.25 else 2
        return Fraction(self.rng.randint(-9 * den, 9 * den), den)

    def scalar(self, ghost_p: float = 0.35):
        return self.mag(), self.rng.random() < ghost_p

    def poly(self, deg: int, ghost_p: float = 0.35, const: bool = False) -> dict:
        """Sparse polynomial of exactly the given degree, 60% of slots kept."""
        coeffs = {deg: self.scalar(ghost_p)}
        for i in range(deg):
            if (i == 0 and const) or self.rng.random() < 0.6:
                coeffs[i] = self.scalar(ghost_p)
        return coeffs

    def tangible_poly(self, deg: int) -> dict:
        return self.poly(deg, ghost_p=0.0, const=True)

    def corners(self, count: int, den_primes: list[int] | None = None) -> list[Fraction]:
        """Distinct sorted corners; with primes, one prime denominator each."""
        vals: set[Fraction] = set()
        while len(vals) < count:
            if den_primes:
                p = den_primes[len(vals)]
                vals.add(Fraction(self.rng.randint(-9 * p, 9 * p), p))
            else:
                vals.add(self.mag())
        return sorted(vals)

    def full(self, deg: int, ghost_p: float = 0.3, den_primes=None,
             corners=None) -> FullPair:
        corners = corners or self.corners(deg, den_primes)
        flags = [self.rng.random() < ghost_p for _ in range(deg + 1)]
        return FullPair(corners, flags, self.mag())

    def full_pair(self, deg_f: int, deg_g: int, share: bool,
                  den_primes: list[int] | None = None) -> tuple[FullPair, FullPair]:
        """Two full polynomials that share a tangible root exactly when asked.

        A shared pair gets one common corner.  A disjoint pair is redrawn,
        with fewer ghost slots each time, until the root sets miss.
        """
        if den_primes:
            fp, gp = den_primes[:deg_f], den_primes[deg_f:deg_f + deg_g]
        else:
            fp = gp = None
        ghost_p = 0.3
        while True:
            f = self.full(deg_f, ghost_p, fp)
            g = self.full(deg_g, ghost_p, gp)
            if share:
                common = self.rng.choice(f.corners)
                if common not in g.corners:
                    corners = sorted(g.corners[1:] + [common])
                    g = self.full(deg_g, ghost_p, corners=corners)
                return f, g
            if not roots_meet(f.roots, g.roots):
                return f, g
            ghost_p *= 0.8

    def bipoly(self, total: int, terms: int, ghost_p: float = 0.35) -> dict:
        """Exactly `terms` monomials of total degree <= total, one of them = total."""
        top = self.rng.choice([(i, total - i) for i in range(total + 1)])
        rest = [(i, j) for i in range(total + 1) for j in range(total + 1 - i)
                if (i, j) != top]
        return {k: self.scalar(ghost_p) for k in [top] + self.rng.sample(rest, terms - 1)}


def _ghost_scaled(terms, a: int, b: int) -> bool:
    best, gh = None, False
    for m, i, j, g in terms:
        v = m + i * a + j * b
        if best is None or v > best:
            best, gh = v, g
        elif v == best:
            gh = True
    return gh


def coarse_hits(f: dict, g: dict, step: Fraction) -> int:
    """Common ghost points of a pair on a grid over the window [-10, 10]^2.

    A cheap predictor of how many hits the library's finer grid will find,
    used to draw Bezout pairs of a fixed density mix.  Magnitudes have
    denominator 2 or 3, so everything is scaled by 6 to stay in integers.
    """
    ft = [(int(m * 6), i, j, gh) for (i, j), (m, gh) in f.items()]
    gt = [(int(m * 6), i, j, gh) for (i, j), (m, gh) in g.items()]
    pts = range(-60, 61, int(step * 6))
    return sum(1 for a in pts for b in pts
               if _ghost_scaled(ft, a, b) and _ghost_scaled(gt, a, b))
