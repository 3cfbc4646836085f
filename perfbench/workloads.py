"""The in-process workloads: univariate_mix, resultant_sweep, bezout_grid.

Each workload is a `Workload` of four functions:

* ``build(gen, short, traced)`` draws one pass of requests from the
  seeded generator;
* ``execute(call, req)`` makes the timed calls into supertrop, every one
  through ``call(span_name, fn, *args)`` so that a traced run can wrap it;
* ``respond(req, out)`` turns the result into the response text that is
  digested and compared between passes;
* ``check(req, out, counts)`` runs the independent oracles outside the
  timed region, raises `Mismatch` on a wrong answer and adds the work
  counters the traced run reports.

The package path is set up by run.py before this module is imported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from supertrop import (DEFAULT_WINDOW, Element, ParseError, Poly, ZERO,
                       bezout_report, canonical_full, common_roots_sample,
                       decide, divides_linear, e_equiv, expand,
                       factor_min_ghosts, parse_bipoly, parse_element,
                       parse_poly, poly_from_json, poly_to_json, resultant,
                       resultant_in_second, resultant_nu,
                       resultant_nu_assignment, tangible, tangible_roots,
                       verify_division)

import gen as G


class Mismatch(Exception):
    """An output disagreed with an oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


class Request:
    __slots__ = ("kind", "data", "deg")

    def __init__(self, kind: str, data: dict, deg: int | None = None):
        self.kind, self.data, self.deg = kind, data, deg


@dataclass(frozen=True)
class Workload:
    build: Callable
    execute: Callable
    respond: Callable
    check: Callable
    shape: Callable


def _element(s) -> Element:
    mag, gh = s
    return ZERO if mag is None else Element(mag, gh)


def _as_dict(p: Poly) -> dict:
    return {i: (c.mag, c.is_ghost) for i, c in p.items()}


def _same_function(spec: tuple, p: Poly) -> None:
    """p agrees with the generated polynomial at every probe point."""
    pd = _as_dict(p)
    for a in _probe(spec) + sorted(G.breakpoints(pd)):
        expect(_eval(spec, a) == G.evaluate(pd, a), f"value at {a} differs")


def _eval(spec: tuple, a: Fraction):
    form, body = spec
    return G.evaluate(body, a) if form == "sum" else G.evaluate_product(body, a)


def _probe(spec: tuple) -> list[Fraction]:
    form, body = spec
    if form == "sum":
        return G.probe_points(G.breakpoints(body))
    points: set[Fraction] = set()
    for coeffs, _ in body:
        points |= G.breakpoints(coeffs)
    return G.probe_points(points)


def _bottom_root(spec: tuple) -> bool:
    """Is -inf a root: is the constant term missing or ghost?"""
    form, body = spec
    polys = [body] if form == "sum" else [c for c, _ in body]
    return any(0 not in c or c[0][1] for c in polys)


# -- univariate_mix -----------------------------------------------------------

# Requests of each kind per block of 100; a pass is 12 blocks in a seeded order.
UNI_MIX = [("scalar", 10), ("canon", 15), ("roots", 15), ("factor", 12),
           ("divides", 10), ("verify", 8), ("json", 8), ("equiv", 8),
           ("relprime", 5), ("resultant", 5), ("malformed", 4)]
UNI_BLOCKS, UNI_BLOCKS_SHORT = 12, 1

MALFORMED = ["x^", "(x + 1", "x + + 2", "3//4", "1/0 + x", "x*y + 1", "2 x",
             "x^-1", "x^1/2", "x^2v", "(x + 1))", "x @ 2", "*x", "x^(2)"]
DOMAIN = ["canon", "factor", "divides", "relprime"]


def _scalar_expr(g: G.Gen, depth: int = 0):
    """(text, ast, value) of a random scalar expression."""
    rng = g.rng
    if depth >= 2 or rng.random() < 0.4:
        s = (None, False) if rng.random() < 0.05 else g.scalar()
        text, ast = G.scalar_text(s), ("lit", G.scalar_text(s))
    else:
        op = rng.choice("+*")
        parts = [_scalar_expr(g, depth + 1) for _ in range(rng.randint(2, 4))]
        text = f" {op} ".join(t for t, _, _ in parts)
        ast = ("op", op, [a for _, a, _ in parts])
        s = parts[0][2]
        for _, _, v in parts[1:]:
            s = _sadd(s, v) if op == "+" else _smul(s, v)
        if depth:
            text = f"({text})"
    if rng.random() < 0.2:
        k = rng.randint(0, 3)
        if ast[0] == "op" and not depth:
            text = f"({text})"
        text, ast, s = f"{text}^{k}", ("pow", ast, k), _spow(s, k)
    return text, ast, s


def _sadd(a, b):
    if a[0] is None:
        return b
    if b[0] is None or a[0] > b[0]:
        return a
    if a[0] < b[0]:
        return b
    return a[0], True


def _smul(a, b):
    if a[0] is None or b[0] is None:
        return None, False
    return a[0] + b[0], a[1] or b[1]


def _spow(a, k):
    if k == 0:
        return Fraction(0), False
    return (None, False) if a[0] is None else (a[0] * k, a[1])


def eval_ast(node) -> Element:
    """Evaluate a scalar expression through the Element API."""
    tag = node[0]
    if tag == "lit":
        return Element.parse(node[1])
    if tag == "pow":
        return eval_ast(node[1]) ** node[2]
    vals = [eval_ast(c) for c in node[2]]
    out = vals[0]
    for v in vals[1:]:
        out = out + v if node[1] == "+" else out * v
    return out


def _poly_spec(g: G.Gen, deg: int):
    """Text and spec of a polynomial of the degree; 30% written as a product."""
    rng = g.rng
    if deg >= 2 and rng.random() < 0.3:
        factors, left = [], deg
        while left:
            d = rng.randint(1, min(3, left))
            k = 2 if 2 * d <= left and rng.random() < 0.3 else 1
            factors.append((g.poly(d, const=rng.random() < 0.8), k))
            left -= d * k
        return G.product_text(factors, rng), ("prod", factors)
    coeffs = g.poly(deg)
    return G.poly_text(coeffs, rng), ("sum", coeffs)


def _uni_request(g: G.Gen, kind: str, n: int) -> Request:
    rng = g.rng
    deg = 1 + n % 12
    if kind == "scalar":
        text, ast, value = _scalar_expr(g)
        return Request(kind, {"text": text, "ast": ast, "value": value})
    if kind in ("canon", "roots", "factor"):
        text, spec = _poly_spec(g, deg)
        return Request(kind, {"text": text, "spec": spec})
    if kind == "divides":
        coeffs = g.poly(deg)
        roots = [a for a in G.probe_points(G.breakpoints(coeffs))
                 if G.evaluate(coeffs, a)[1]]
        a = rng.choice(roots) if roots and rng.random() < 0.7 else g.mag()
        return Request(kind, {"text": G.poly_text(coeffs, rng), "a": a,
                              "spec": ("sum", coeffs)})
    if kind == "verify":
        # f = (x + a) * h exactly, so h witnesses the division; raising
        # the lead of h makes q*g exceed f at the top, so it cannot.
        h, a = g.tangible_poly(1 + n % 8), g.mag()
        lin = {1: (Fraction(0), False), 0: (a, False)}
        valid = rng.random() < 0.6
        q = dict(h)
        if not valid:
            top = max(q)
            q[top] = (q[top][0] + Fraction(1, 2), False)
        return Request(kind, {"f": G.product_text([(lin, 1), (h, 1)], rng),
                              "g": G.poly_text(lin, rng),
                              "q": G.poly_text(q, rng), "valid": valid})
    if kind == "json":
        coeffs = g.poly(deg)
        return Request(kind, {"json": G.poly_json(coeffs),
                              "text": G.poly_text(coeffs, rng),
                              "spec": ("sum", coeffs)})
    if kind == "equiv":
        # Adding a term strictly below every coefficient at an interior
        # degree keeps the function; moving the top coefficient changes it.
        coeffs = g.poly(max(deg, 2), const=True)
        other = G.poly_text(coeffs, rng)
        same = rng.random() < 0.5
        if same:
            low = min(m for m, _ in coeffs.values()) - 1 - Fraction(rng.randint(0, 4), 2)
            i = rng.randint(1, max(coeffs) - 1)
            other += f" + {G.scalar_text((low, rng.random() < 0.5))}*x^{i}"
        else:
            changed = dict(coeffs)
            top = max(changed)
            m, gh = changed[top]
            changed[top] = (m + Fraction(1, 2), gh) if rng.random() < 0.5 else (m, not gh)
            other = G.poly_text(changed, rng)
        return Request(kind, {"f": G.poly_text(coeffs, rng), "g": other,
                              "same": same})
    if kind in ("relprime", "resultant"):
        m, k = 1 + n % 5, 1 + (n // 5) % 5
        f, h = g.full_pair(m, k, share=rng.random() < 0.5)
        return Request(kind, _pair_data(g, f, h), deg=m if m == k else None)
    if kind == "malformed":
        if rng.random() < 0.6:
            return Request(kind, {"op": "parse", "text": rng.choice(MALFORMED),
                                  "error": "ParseError"})
        op = rng.choice(DOMAIN)
        text = "-inf" if op in ("canon", "factor") else G.scalar_text(g.scalar())
        return Request(kind, {"op": op, "text": text, "error": "ValueError"})
    raise ValueError(kind)


def _pair_data(g: G.Gen, f: G.FullPair, h: G.FullPair) -> dict:
    return {"f": G.poly_text(f.coeffs, g.rng), "g": G.poly_text(h.coeffs, g.rng),
            "fp": f, "gp": h, "share": G.roots_meet(f.roots, h.roots)}


def uni_build(g: G.Gen, short: bool, traced: bool) -> list[Request]:
    pool = []
    for block in range(UNI_BLOCKS_SHORT if short else UNI_BLOCKS):
        for kind, count in UNI_MIX:
            pool += [_uni_request(g, kind, block * count + k) for k in range(count)]
    g.rng.shuffle(pool)
    return pool


def _parse2(call, d):
    return call("parse.poly", parse_poly, d["f"]), call("parse.poly", parse_poly, d["g"])


def uni_execute(call, req: Request):
    d, kind = req.data, req.kind
    if kind == "scalar":
        return (call("parse.element", parse_element, d["text"]),
                call("element.eval", eval_ast, d["ast"]))
    if kind == "malformed":
        try:
            f = call("parse.poly", parse_poly, d["text"])
            if d["op"] == "canon":
                call("poly.canonical_full", canonical_full, f)
            elif d["op"] == "factor":
                call("factor.factor_min_ghosts", factor_min_ghosts, f)
            elif d["op"] == "divides":
                call("divide.divides_linear", divides_linear, f, Fraction(1))
            elif d["op"] == "relprime":
                call("resultant.decide", decide, f, Poly.linear(1))
        except ParseError:
            return "ParseError"
        except ValueError:
            return "ValueError"
        return "no error"
    if kind == "verify":
        f, g = _parse2(call, d)
        q = call("parse.poly", parse_poly, d["q"])
        return call("divide.verify_division", verify_division, f, g, q)
    if kind == "json":
        f = call("parse.json", poly_from_json, json.loads(d["json"]))
        c = call("poly.canonical_full", canonical_full, f).to_poly()
        return f, c, json.dumps(call("parse.json", poly_to_json, c))
    if kind == "equiv":
        f, g = _parse2(call, d)
        return call("poly.e_equiv", e_equiv, f, g)
    if kind == "relprime":
        f, g = _parse2(call, d)
        return call("resultant.decide", decide, f, g)
    if kind == "resultant":
        f, g = _parse2(call, d)
        return call("resultant.dp", resultant, f, g)
    f = call("parse.poly", parse_poly, d["text"])
    if kind == "canon":
        return f, call("poly.canonical_full", canonical_full, f)
    if kind == "roots":
        return f, call("poly.tangible_roots", tangible_roots, f)
    if kind == "factor":
        fact = call("factor.factor_min_ghosts", factor_min_ghosts, f)
        return f, fact, call("factor.expand", expand, fact)
    if kind == "divides":
        return f, call("divide.divides_linear", divides_linear, f, d["a"])
    raise ValueError(kind)


def uni_respond(req: Request, out) -> str:
    kind = req.kind
    if kind == "scalar":
        return f"{out[0]} {out[1]}"
    if kind in ("malformed", "verify", "equiv", "resultant"):
        return str(out)
    if kind == "json":
        return out[2]
    if kind == "relprime":
        return f"{out.relatively_prime} {out.witness} {out.resultant}"
    if kind == "canon":
        return str(out[1])
    if kind == "roots":
        return f"{out[1]} bottom={out[1].at_bottom}"
    if kind == "factor":
        return f"{out[1]} = {out[2]}"
    if kind == "divides":
        return "no" if out[1] is None else str(out[1].q)
    raise ValueError(kind)


def _check_pair(d: dict, r: Element, what: str) -> None:
    mag = G.resultant_mag(d["fp"], d["gp"])
    expect(r.mag == mag, f"{what}: magnitude {r.mag}, product formula {mag}")
    expect(r.in_ghost_ideal == d["share"],
           f"{what}: ghost={r.in_ghost_ideal} but roots meet={d['share']}")


def _check_decide(d: dict, rep, r: Element | None) -> None:
    _check_pair(d, rep.resultant, "decide")
    expect(rep.relatively_prime == (not d["share"]), "decide: wrong verdict")
    if r is not None:
        expect(rep.resultant == r, "decide and resultant disagree")
    if d["share"]:
        w = rep.witness
        expect(w is not None and G.in_roots(d["fp"].roots, w)
               and G.in_roots(d["gp"].roots, w), f"witness {w} is not a common root")


def uni_check(req: Request, out, counts) -> None:
    d, kind = req.data, req.kind
    if kind == "scalar":
        want = _element(d["value"])
        expect(out[0] == want and out[1] == want, f"scalar {out} != {want}")
    elif kind == "malformed":
        expect(out == d["error"], f"expected {d['error']}, got {out}")
        counts["parse.errors"] += out == "ParseError"
    elif kind == "verify":
        expect(out == d["valid"], f"verify_division gave {out}")
    elif kind == "equiv":
        expect(out == d["same"], f"e_equiv gave {out}")
    elif kind in ("relprime", "resultant"):
        r = out.resultant if kind == "relprime" else out
        if kind == "relprime":
            _check_decide(d, out, None)
        else:
            _check_pair(d, r, "resultant")
        counts["resultant.pairs"] += 1
        counts["resultant.ghost"] += r.in_ghost_ideal
    elif kind == "json":
        f, c, text = out
        expect(parse_poly(d["text"]) == f, "JSON and text inputs parse apart")
        expect(poly_from_json(json.loads(text)) == c, "JSON round trip changed the value")
        _same_function(d["spec"], c)
    else:
        f = out[0]
        expect(parse_poly(str(f)) == f, f"print/parse is not a fixed point: {f}")
        if kind == "canon":
            c = out[1].to_poly()
            expect(canonical_full(c).to_poly() == c, "canonical form is not idempotent")
            _same_function(d["spec"], c)
        elif kind == "roots":
            roots = out[1]
            for a in _probe(d["spec"]):
                expect((a in roots) == _eval(d["spec"], a)[1], f"root set wrong at {a}")
            expect(roots.at_bottom == _bottom_root(d["spec"]), "bottom flag wrong")
        elif kind == "factor":
            expect(e_equiv(out[2], f), "expand(factor(f)) is not e-equivalent to f")
            _same_function(d["spec"], out[2])
        elif kind == "divides":
            w, a = out[1], d["a"]
            root = G.evaluate(d["spec"][1], a)[1]
            counts["divide.attempts"] += 1
            if w is None:
                # A ghost monomial has every point as a root but no witness.
                expect(not root or canonical_full(f).hi == 0, f"no witness at root {a}")
            else:
                counts["divide.witnesses"] += 1
                expect(root, f"witness at non-root {a}")
                expect(w.q.all_tangible() and verify_division(f, Poly.linear(a), w.q),
                       "witness fails verify_division")


def uni_shape(pool: list[Request]) -> dict:
    kinds: dict[str, int] = {}
    degs: dict[int, int] = {}
    ghosts = terms = 0
    for req in pool:
        kinds[req.kind] = kinds.get(req.kind, 0) + 1
        spec = req.data.get("spec")
        if spec:
            polys = [spec[1]] if spec[0] == "sum" else [c for c, _ in spec[1]]
            deg = sum(max(c) * k for c, k in spec[1]) if spec[0] == "prod" else max(spec[1])
            degs[deg] = degs.get(deg, 0) + 1
            for c in polys:
                terms += len(c)
                ghosts += sum(g for _, g in c.values())
    return {"requests": len(pool), "kinds": kinds,
            "degree_histogram": dict(sorted(degs.items())),
            "ghost_share": round(ghosts / max(terms, 1), 3),
            "large_denominator_share": 0.0,
            "malformed_share": round(kinds.get("malformed", 0) / len(pool), 3)}


# -- resultant_sweep ----------------------------------------------------------

# (degree of both sides, pairs per pass, of which with prime denominators
# near 10^6).  Counts fall with degree so that one pass stays near three
# seconds at the seed commit, and the latency percentiles land inside a
# degree class rather than between two.  The 10+10 pair takes about five
# seconds on its own (its DP runs in resultant() and again in decide()), so
# it joins the pass only in traced runs, which report the DP time at every
# degree: with it, a run gets too few passes for each request's median
# across passes to even out single slow passes.
SWEEP = [(4, 8, 2), (5, 8, 2), (6, 10, 2), (7, 8, 1), (8, 4, 1), (9, 2, 0)]
SWEEP_TRACED = [(10, 1, 0)]
SWEEP_SHORT = [(4, 2, 1), (5, 2, 0), (6, 1, 0)]


def assignment_overflows(f: G.FullPair, g: G.FullPair) -> bool:
    """The known int64 defect of resultant_nu_assignment applies to this pair.

    The route scales every coefficient magnitude by the lcm of their
    denominators and stores the results, and a sentinel of size
    span * (m + n) + 1, as int64.
    """
    mags = [m for m, _ in f.coeffs.values()] + [m for m, _ in g.coeffs.values()]
    scale = lcm(*(m.denominator for m in mags))
    span = max(abs(m * scale) for m in mags)
    return span * (len(f.corners) + len(g.corners)) + 1 > 2 ** 63


def sweep_build(g: G.Gen, short: bool, traced: bool) -> list[Request]:
    pool = []
    for deg, count, big in SWEEP_SHORT if short else SWEEP + SWEEP_TRACED * traced:
        shares = [k % 2 == 0 for k in range(count)]
        g.rng.shuffle(shares)
        for k, share in enumerate(shares):
            primes = None
            if k < big:
                primes = G.primes_near(1_000_000 + g.rng.randint(0, 50_000), 2 * deg)
            f, h = g.full_pair(deg, deg, share, primes)
            data = _pair_data(g, f, h)
            data["big"] = primes is not None
            data["overflow"] = assignment_overflows(f, h)
            pool.append(Request("pair", data, deg))
    # Spread each degree class over the pass, so that a slow stretch of the
    # machine does not land on one class only.
    g.rng.shuffle(pool)
    return pool


def sweep_execute(call, req: Request):
    d = req.data
    f, g = _parse2(call, d)
    r = call("resultant.dp", resultant, f, g)
    rep = call("resultant.decide", decide, f, g)
    nu = call("resultant.nu", resultant_nu, f, g)
    try:
        asg = call("resultant.assignment", resultant_nu_assignment, f, g)
    except OverflowError:
        if not d["overflow"]:
            raise
        asg = None
    return r, rep, nu, asg


def sweep_respond(req: Request, out) -> str:
    r, rep, nu, asg = out
    return f"{r}|{rep.relatively_prime}|{rep.witness}|{nu}|{asg or 'overflow'}"


def sweep_check(req: Request, out, counts) -> None:
    d = req.data
    r, rep, nu, asg = out
    _check_pair(d, r, "resultant")
    _check_decide(d, rep, r)
    expect(nu == r.nu(), f"resultant_nu {nu} != nu(DP) {r.nu()}")
    if asg is None:
        counts["resultant.assignment.overflow"] += 1
    else:
        expect(asg == nu, f"resultant_nu_assignment {asg} != resultant_nu {nu}")
    counts["resultant.pairs"] += 1
    counts["resultant.ghost"] += r.in_ghost_ideal
    # resultant() and decide() each run the DP over 2^(m+n) column subsets.
    counts["resultant.dp.states_bound"] += 2 * 2 ** (2 * req.deg)


def sweep_shape(pool: list[Request]) -> dict:
    degs: dict[str, int] = {}
    ghosts = terms = 0
    for req in pool:
        key = f"{req.deg}+{req.deg}"
        degs[key] = degs.get(key, 0) + 1
        for p in (req.data["fp"], req.data["gp"]):
            terms += len(p.flags)
            ghosts += sum(p.flags)
    n = len(pool)
    return {"pairs": n, "degree_histogram": degs,
            "ghost_share": round(ghosts / terms, 3),
            "shared_root_share": round(sum(r.data["share"] for r in pool) / n, 3),
            "large_denominator_share": round(sum(r.data["big"] for r in pool) / n, 3),
            "assignment_overflow_expected": sum(r.data["overflow"] for r in pool),
            "malformed_share": 0.0}


# -- bezout_grid --------------------------------------------------------------

# Cost of a pair grows with its hit count, which ranges over four orders of
# magnitude between random pairs, so a pass holds fixed numbers of pairs from
# three bands and every pair has a fixed number of terms for its degree:
# * curve: tangible coefficients, no common ghost point on the integer grid,
#   degrees cycled; most at step 1/4, a stated share at step 1/8;
# * patch: ghost coefficients whose ghost regions overlap in a patch of
#   90 to 110 common ghost points on the half-integer grid (about 1200 to
#   1700 hits at step 1/4).
# Pairs whose ghost regions cover most of the window (up to 26k hits, about a
# second each) are left out: one of them would outweigh the rest of a pass.
# (band, pairs per pass, step, ghost share)
BEZOUT_BANDS = [("curve", 40, Fraction(1, 4), 0.0), ("curve", 8, Fraction(1, 8), 0.0),
                ("patch", 20, Fraction(1, 4), 0.35)]
BEZOUT_BANDS_SHORT = [("curve", 2, Fraction(1, 4), 0.0), ("curve", 1, Fraction(1, 8), 0.0),
                      ("patch", 1, Fraction(1, 4), 0.35)]
BEZOUT_TERMS = {1: 2, 2: 4, 3: 6}
CURVE_DEGREES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (1, 3), (3, 1), (3, 3)]
PATCH_COARSE = ((18, 34), (90, 110))
DENSE_HITS = 1000


def _grid_points(step: Fraction) -> int:
    xlo, xhi, ylo, yhi = (Fraction(w) for w in DEFAULT_WINDOW)
    return int((xhi - xlo) / step + 1) * int((yhi - ylo) / step + 1)


def _bezout_pair(g: G.Gen, band: str, k: int, ghost_p: float):
    rng = g.rng
    while True:
        if band == "curve":
            df, dg = CURVE_DEGREES[k % len(CURVE_DEGREES)]
        else:
            df, dg = rng.randint(2, 3), rng.randint(2, 3)
        f = g.bipoly(df, BEZOUT_TERMS[df], ghost_p)
        h = g.bipoly(dg, BEZOUT_TERMS[dg], ghost_p)
        coarse = G.coarse_hits(f, h, Fraction(1))
        if band == "curve" and coarse == 0:
            return f, h
        (lo1, hi1), (lo2, hi2) = PATCH_COARSE
        if band == "patch" and lo1 <= coarse <= hi1 and (
                lo2 <= G.coarse_hits(f, h, Fraction(1, 2)) <= hi2):
            return f, h


def bezout_build(g: G.Gen, short: bool, traced: bool) -> list[Request]:
    rng = g.rng
    pool = []
    for band, count, step, ghost_p in BEZOUT_BANDS_SHORT if short else BEZOUT_BANDS:
        for k in range(count):
            f, h = _bezout_pair(g, band, k, ghost_p)
            elim = any(j for _, j in f) and any(j for _, j in h)
            pool.append(Request("pair", {
                "f": G.bipoly_text(f, rng), "g": G.bipoly_text(h, rng),
                "fs": f, "gs": h, "band": band, "step": step, "elim": elim,
                "at": g.mag(),
                "bound": max(i + j for i, j in f) * max(i + j for i, j in h)}))
    rng.shuffle(pool)
    return pool


def bezout_execute(call, req: Request):
    d = req.data
    f = call("parse.bipoly", parse_bipoly, d["f"])
    g = call("parse.bipoly", parse_bipoly, d["g"])
    hits = call("bipoly.scan", common_roots_sample, f, g, DEFAULT_WINDOW, d["step"])
    rep = call("bipoly.report", bezout_report, f, g, DEFAULT_WINDOW, d["step"])
    elim = None
    if d["elim"]:
        at = tangible(d["at"])
        elim = (call("bipoly.elim", resultant_in_second, f, g),
                call("bipoly.specialize", f.specialize_x, at),
                call("bipoly.specialize", g.specialize_x, at))
    return f, g, hits, rep, elim


def bezout_respond(req: Request, out) -> str:
    rep, elim = out[3], out[4]
    text = (f"{len(rep.hits)} {hash(rep.hits)} {rep.component_count} "
            f"{rep.ordinary_count} {rep.bound_holds}")
    return text if elim is None else f"{text} | {elim[0]}"


def bezout_check(req: Request, out, counts) -> None:
    d = req.data
    f, g, hits, rep, elim = out
    expect(tuple(hits) == rep.hits, "common_roots_sample and bezout_report disagree")
    for x, y in rep.hits:
        tx, ty = tangible(x), tangible(y)
        expect(f.evaluate(tx, ty).in_ghost_ideal and g.evaluate(tx, ty).in_ghost_ideal,
               f"hit ({x}, {y}) is not ghost for both")
    for x, y in rep.hits[:200]:
        expect(G.evaluate2(d["fs"], x, y)[1] and G.evaluate2(d["gs"], x, y)[1],
               f"hit ({x}, {y}) is not ghost for the generated pair")
    expect(rep.bound == d["bound"], f"bound {rep.bound} != {d['bound']}")
    expect(rep.bound_holds and rep.ordinary_count <= rep.bound, "Bezout bound broken")
    if elim is not None:
        r, fx, gx = elim
        at = tangible(d["at"])
        expect(r.evaluate(at) == resultant(fx, gx, canonical=False),
               f"specialization at x={d['at']} does not commute with elimination")
    counts["bipoly.pairs"] += 1
    counts["bipoly.grid_points"] += _grid_points(d["step"])
    counts["bipoly.hits"] += len(rep.hits)
    counts["bipoly.ordinary"] += rep.ordinary_count
    counts["bipoly.dense"] += len(rep.hits) >= DENSE_HITS
    counts["bipoly.hit_hist." + _hit_bucket(len(rep.hits))] += 1


def _hit_bucket(n: int) -> str:
    for edge in (0, 100, 1000, 5000):
        if n <= edge:
            return f"<={edge}"
    return ">5000"


def bezout_shape(pool: list[Request]) -> dict:
    n = len(pool)
    degs: dict[str, int] = {}
    bands: dict[str, int] = {}
    ghosts = terms = 0
    for req in pool:
        d = req.data
        key = f"{max(i + j for i, j in d['fs'])}+{max(i + j for i, j in d['gs'])}"
        degs[key] = degs.get(key, 0) + 1
        bands[d["band"]] = bands.get(d["band"], 0) + 1
        for c in (d["fs"], d["gs"]):
            terms += len(c)
            ghosts += sum(gh for _, gh in c.values())
    return {"pairs": n, "degree_histogram": dict(sorted(degs.items())),
            "density_bands": bands,
            "step_1/8_share": round(sum(r.data["step"] == Fraction(1, 8) for r in pool) / n, 3),
            "elimination_share": round(sum(r.data["elim"] for r in pool) / n, 3),
            "ghost_share": round(ghosts / terms, 3),
            "large_denominator_share": 0.0, "malformed_share": 0.0}


WORKLOADS = {
    "univariate_mix": Workload(uni_build, uni_execute, uni_respond, uni_check, uni_shape),
    "resultant_sweep": Workload(sweep_build, sweep_execute, sweep_respond, sweep_check,
                                sweep_shape),
    "bezout_grid": Workload(bezout_build, bezout_execute, bezout_respond, bezout_check,
                            bezout_shape),
}
