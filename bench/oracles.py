"""Correctness oracles computed apart from tuttekit.

Nothing here imports tuttekit.  The references are closed forms, networkx,
brute-force counts made by this module, and the paper's identities between
the outputs of several verbs on one arrangement:

- closed-form chi for braid, BC, D, Shi and Catalan, and the exponential
  generating function of chi for the threshold arrangement;
- networkx.tutte_polynomial for every graphical input (braid(n) is K_n);
- the uniform-matroid closed form for generic(n, d);
- T(1,1) = #bases and T(2,1) = #independent sets of the normals, counted
  here, for inputs without a full closed form;
- M(1,1) = sum |det B| over bases, and brute-force lattice and interior
  points of the zonotope, for full-rank vector configurations; brute-force
  toric point counts;
- chi(q) = (-1)^r q^(d-r) T(1-q, 0);
- coboundary = (Y-1)^r T((X+Y-1)/(Y-1), Y);
- regions = (-1)^d chi(-1), bounded regions = (-1)^r chi(1);
- per rank, the summed Mobius values of `poset` equal the coefficients of chi.
"""

import re
from fractions import Fraction
from itertools import combinations, product
from math import comb

import sympy

from exact import det, independent_counts, rank

X, Y, x, y, q, t = sympy.symbols("X Y x y q t")


# -- parsing tuttekit's text output ---------------------------------------

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(.*)$")


def parse_terms(text):
    """'3*x^2*y - y + 2' -> {(('x', 2), ('y', 1)): 3, (('y', 1),): -1, (): 2}."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    if tokens[0].startswith("-"):
        tokens = ["-", tokens[0][1:]] + tokens[1:]
    else:
        tokens = ["+"] + tokens
    if len(tokens) % 2:
        raise ValueError("malformed polynomial %r" % text)
    terms = {}
    for sign, body in zip(tokens[0::2], tokens[1::2]):
        if sign not in "+-":
            raise ValueError("malformed polynomial %r" % text)
        m = _TERM.match(body)
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        mono = []
        if m.group(2):
            for factor in m.group(2).split("*"):
                name, _, exp = factor.partition("^")
                if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                    raise ValueError("bad factor %r in %r" % (factor, text))
                mono.append((name, int(exp) if exp else 1))
        key = tuple(sorted(mono))
        if key in terms:
            raise ValueError("repeated monomial in %r" % text)
        terms[key] = coeff if sign == "+" else -coeff
    return terms


def to_expr(terms):
    total = sympy.Integer(0)
    for mono, c in terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for name, e in mono:
            term *= sympy.Symbol(name) ** e
        total += term
    return total


def parse_poly(text, gens):
    """Text polynomial -> sympy.Poly in the given generators."""
    return sympy.Poly(to_expr(parse_terms(text)), *gens, domain="QQ")


def parse_record(text):
    """'key = value' lines (invariants, zonotope) -> dict."""
    out = {}
    for line in text.strip().splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError("bad record line %r" % line)
        out[key] = value
    return out


_POSET_LINE = re.compile(r"^rank=(\d+) dim=(-?\d+) mu=(-?\d+) hyperplanes=\[([\d, ]*)\]$")


def parse_poset(text):
    rows = []
    for line in text.strip().splitlines():
        m = _POSET_LINE.match(line)
        if not m:
            raise ValueError("bad poset line %r" % line)
        hs = [int(a) for a in m.group(4).split(",") if a.strip()]
        rows.append((int(m.group(1)), int(m.group(2)), int(m.group(3)), hs))
    return rows


# -- closed forms ----------------------------------------------------------

def chi_closed(tag, n):
    """chi of tuttekit's family constructor with parameter n, or None."""
    if tag == "braid":
        f = sympy.prod([q - i for i in range(n)])
    elif tag == "bc":
        f = sympy.prod([q - (2 * i - 1) for i in range(1, n + 1)])
    elif tag == "dn":
        f = (q - n + 1) * sympy.prod([q - (2 * i - 1) for i in range(1, n)])
    elif tag == "shi":
        f = q * (q - n) ** (n - 1)
    elif tag == "catalan":
        f = q * sympy.prod([q - i for i in range(n + 1, 2 * n)])
    elif tag == "threshold":
        f = threshold_chi(n)
    else:
        return None
    return sympy.Poly(f, q, domain="QQ")


def threshold_chi(n):
    """n! [z^n] (1 + z)(2e^z - 1)^((q-1)/2) (Stanley, Hyperplane
    Arrangements, the threshold arrangement x_i + x_j = 0)."""
    z = sympy.Symbol("z")
    series = sympy.series((1 + z) * (2 * sympy.exp(z) - 1) ** ((q - 1) / 2),
                          z, 0, n + 1).removeO()
    return sympy.expand(sympy.factorial(n) * series.coeff(z, n))


def uniform_tutte(n, d):
    """T of the uniform matroid U_{d,n} from the subset expansion by size."""
    f = sum(comb(n, k) * (x - 1) ** (d - min(k, d)) * (y - 1) ** (k - min(k, d))
            for k in range(n + 1))
    return sympy.Poly(f, x, y, domain="QQ")


def graph_tutte(edges):
    import networkx
    g = networkx.MultiGraph()
    g.add_edges_from(edges)
    return sympy.Poly(networkx.tutte_polynomial(g), x, y, domain="QQ")


def stirling2(n, k):
    return int(sympy.functions.combinatorial.numbers.stirling(n, k))


# -- identities ------------------------------------------------------------

def whitney_chi(T, d, r):
    """chi(q) = (-1)^r q^(d-r) T(1-q, 0)."""
    expr = (-1) ** r * q ** (d - r) * T.as_expr().subs({x: 1 - q, y: 0},
                                                        simultaneous=True)
    return sympy.Poly(sympy.expand(expr), q, domain="QQ")


def tutte_y0_from_chi(chi, d, r):
    """T(x, 0) = (-1)^r chi(1-x) / (1-x)^(d-r), an exact division."""
    num = sympy.Poly(sympy.expand((-1) ** r * chi.as_expr().subs(q, 1 - x)),
                     x, domain="QQ")
    quo, rem = sympy.div(num, sympy.Poly((1 - x) ** (d - r), x, domain="QQ"))
    if not rem.is_zero:
        raise ValueError("chi is not divisible by q^(d-r)")
    return quo


def coboundary_from_tutte(T, r):
    """(Y-1)^r T((X+Y-1)/(Y-1), Y), expanded as sum c_ij (X+Y-1)^i (Y-1)^(r-i) Y^j."""
    total = sympy.Integer(0)
    for (i, j), c in T.terms():
        total += c * (X + Y - 1) ** i * (Y - 1) ** (r - i) * Y ** j
    return sympy.Poly(sympy.expand(total), X, Y, domain="QQ")


def poincare_from_chi(chi, d):
    return sympy.Poly(sympy.expand((-q) ** d * chi.as_expr().subs(q, -1 / q)),
                      q, domain="QQ")


def multivariate_to_tutte(terms, r):
    """q -> (x-1)(y-1), w_e -> y-1 turns q^r Z into (y-1)^r T; return that."""
    grouped = {}
    for mono, c in terms.items():
        a = sum(e for name, e in mono if name == "q")
        s = 0
        for name, e in mono:
            if name != "q":
                if not name.startswith("w_") or e != 1:
                    raise ValueError("multivariate term %r is not multilinear" % (mono,))
                s += 1
        grouped[(a, s)] = grouped.get((a, s), 0) + c
    total = sum(sympy.Rational(c.numerator, c.denominator)
                * (x - 1) ** a * (y - 1) ** (a + s)
                for (a, s), c in grouped.items())
    return sympy.Poly(sympy.expand(total), x, y, domain="QQ")


def toric_from_arithmetic(M, d, r, qv):
    """q^(d-r) (t-1)^r M(1 + q/(t-1), t) as a polynomial in t."""
    total = sympy.Integer(0)
    for (i, j), c in M.terms():
        total += c * (t - 1 + qv) ** i * (t - 1) ** (r - i) * t ** j
    return sympy.Poly(sympy.expand(qv ** (d - r) * total), t, domain="QQ")


# -- brute force for vector configurations --------------------------------

def det_sum(columns, d):
    return sum(abs(det([columns[i] for i in combo]))
               for combo in combinations(range(len(columns)), d))


def _facet_normals(columns, d):
    normals = set()
    for combo in combinations(range(len(columns)), d - 1):
        rows = [columns[i] for i in combo]
        # generalized cross product: cofactors of the (d-1) x d matrix
        u = tuple(int((-1) ** k * det([[r[j] for j in range(d) if j != k]
                                       for r in rows])) for k in range(d))
        if any(u):
            normals.add(u)
    return normals


def zonotope_points(columns, d):
    """(lattice points, interior lattice points) of sum_i [0, v_i], counted
    over the bounding box against every facet slab."""
    slabs = []
    for u in _facet_normals(columns, d):
        dots = [sum(a * b for a, b in zip(u, v)) for v in columns]
        slabs.append((u, sum(min(0, s) for s in dots), sum(max(0, s) for s in dots)))
    box = [range(sum(min(0, v[k]) for v in columns),
                 sum(max(0, v[k]) for v in columns) + 1) for k in range(d)]
    inside = interior = 0
    for pt in product(*box):
        ok = strict = True
        for u, lo, hi in slabs:
            s = sum(a * b for a, b in zip(u, pt))
            if s < lo or s > hi:
                ok = False
                break
            if s == lo or s == hi:
                strict = False
        if ok:
            inside += 1
            interior += strict
    return inside, interior


def toric_counts(columns, d, qv):
    """counts[h] = #points of (F*_P)^d, P = q + 1, on exactly h hypertori."""
    P = qv + 1
    counts = [0] * (len(columns) + 1)
    for pt in product(range(1, P), repeat=d):
        h = 0
        for col in columns:
            val = 1
            for xi, a in zip(pt, col):
                val = val * pow(xi, a, P) % P
            h += val == 1
        counts[h] += 1
    return counts


# -- checking a workload's outputs ----------------------------------------

class Facts:
    """What the oracles know about one subject, computed on first use."""

    def __init__(self, subject):
        self.s = subject
        self._cache = {}

    def _get(self, name, fn):
        if name not in self._cache:
            self._cache[name] = fn()
        return self._cache[name]

    @property
    def d(self):
        return self.s.dim

    @property
    def r(self):
        if self.s.rows is not None:
            return self._get("r", lambda: rank([nm for nm, _ in self.s.rows]))
        return self._get("r", lambda: rank(self.s.columns))

    @property
    def n(self):
        return len(self.s.rows if self.s.rows is not None else self.s.columns)

    def chi(self):
        if self.s.family:
            return self._get("chi", lambda: chi_closed(*self.s.family))
        return None

    def tutte(self):
        if self.s.graph:
            return self._get("T", lambda: graph_tutte(self.s.graph[1]))
        if self.s.generic:
            return self._get("T", lambda: uniform_tutte(*self.s.generic))
        return None

    def independent(self):
        return self._get("ind", lambda: independent_counts(
            [nm for nm, _ in self.s.rows]))

    def distinct_hyperplanes(self):
        def canon(nm, b):
            row = [Fraction(a) for a in list(nm) + [b]]
            lead = next(a for a in row if a)
            return tuple(a / lead for a in row)
        return len({canon(nm, b) for nm, b in self.s.rows})


def _eq(errors, what, got, want):
    if got != want:
        errors.append("%s: got %s, expected %s" % (
            what, _short(got), _short(want)))


def _short(v):
    text = str(v.as_expr() if isinstance(v, sympy.Poly) else v)
    return text if len(text) < 160 else text[:157] + "..."


def check_subject(subject, outputs):
    """outputs: [(verb, job label, stdout)] of the successful jobs on subject.

    Returns a list of error strings, empty when every output is right.
    """
    f = Facts(subject)
    errors = []
    by_verb = {}
    for verb, label, text in outputs:
        by_verb.setdefault(verb, []).append((label, text))

    # Reference T and chi: closed forms first, else another verb's output.
    T_ref, chi_ref = f.tutte(), f.chi()
    tuttes = [(lb, parse_poly(tx, (x, y))) for lb, tx in by_verb.get("tutte", [])]
    chis = [(lb, parse_poly(tx, (q,))) for lb, tx in by_verb.get("char", [])]
    if T_ref is None and tuttes:
        T_ref = tuttes[0][1]
    if chi_ref is None and chis:
        chi_ref = chis[0][1]
    if chi_ref is None and T_ref is not None:
        chi_ref = whitney_chi(T_ref, f.d, f.r)

    for lb, T in tuttes:
        _eq(errors, lb, T, T_ref)
        if chi_ref is not None:
            _eq(errors, lb + " [Whitney chi]", whitney_chi(T, f.d, f.r), chi_ref)
        if subject.rows is not None and (f.tutte() is None):
            ind = f.independent()
            _eq(errors, lb + " [T(1,1) = #bases]",
                T.as_expr().subs({x: 1, y: 1}), ind[f.r] if len(ind) > f.r else 0)
            _eq(errors, lb + " [T(2,1) = #independent sets]",
                T.as_expr().subs({x: 2, y: 1}), sum(ind))
    for lb, chi in chis:
        _eq(errors, lb, chi, chi_ref)

    for lb, tx in by_verb.get("coboundary", []):
        cob = parse_poly(tx, (X, Y))
        if T_ref is not None:
            _eq(errors, lb + " [coboundary transform]", cob,
                coboundary_from_tutte(T_ref, f.r))
        elif chi_ref is not None:
            # cob(q, 0) = q^(r-d) chi(q) with q at X
            want = sympy.Poly(sympy.expand(chi_ref.as_expr().subs(q, X)
                                           / X ** (f.d - f.r)), X, Y, domain="QQ")
            _eq(errors, lb + " [coboundary at Y=0]",
                sympy.Poly(cob.as_expr().subs(Y, 0), X, Y, domain="QQ"), want)

    for lb, tx in by_verb.get("invariants", []):
        _check_invariants(errors, lb, parse_record(tx), f, chi_ref, T_ref)

    for lb, tx in by_verb.get("poset", []):
        _check_poset(errors, lb, parse_poset(tx), f, chi_ref)

    for lb, tx in by_verb.get("multivariate", []):
        got = multivariate_to_tutte(parse_terms(tx), f.r)
        want = sympy.Poly(sympy.expand((y - 1) ** f.r * T_ref.as_expr()), x, y,
                          domain="QQ")
        _eq(errors, lb + " [specialised to (y-1)^r T]", got, want)

    for lb, tx in by_verb.get("check", []):
        bad = [line for line in tx.strip().splitlines() if not line.startswith("ok")]
        if bad or not tx.strip():
            errors.append("%s: %s" % (lb, "; ".join(bad) or "no report"))

    if subject.columns is not None:
        _check_config(errors, by_verb, f)
    return errors


def _check_invariants(errors, lb, rec, f, chi, T):
    want = {"regions": (-1) ** f.d * chi.eval(-1),
            "bounded_regions": (-1) ** f.r * chi.eval(1)}
    for key, value in want.items():
        _eq(errors, "%s [%s]" % (lb, key), sympy.Rational(rec[key]), value)
    _eq(errors, lb + " [complement_size]",
        parse_poly(rec["complement_size"], (q,)), chi)
    _eq(errors, lb + " [poincare]", parse_poly(rec["poincare"], (q,)),
        poincare_from_chi(chi, f.d))
    if T is not None:
        t10 = T.as_expr().subs({x: 1, y: 0})
        b10 = T.coeff_monomial(x)
    else:
        tx0 = tutte_y0_from_chi(chi, f.d, f.r)
        t10 = tx0.eval(1)
        b10 = tx0.coeff_monomial(x)
    _eq(errors, lb + " [general_position_bounded = T(1,0)]",
        sympy.Rational(rec["general_position_bounded"]), t10)
    beta = None if f.n < 2 else b10
    _eq(errors, lb + " [beta]",
        None if rec["beta"] == "None" else sympy.Rational(rec["beta"]), beta)


def _check_poset(errors, lb, rows, f, chi):
    top = max(k for k, _, _, _ in rows)
    mu_sum = [0] * (top + 1)
    flats = [0] * (top + 1)
    for k, dim, mu, hs in rows:
        mu_sum[k] += mu
        flats[k] += 1
        if dim != f.d - k:
            errors.append("%s: flat %s has dim %d at rank %d" % (lb, hs, dim, k))
        if mu == 0 or (mu > 0) != (k % 2 == 0):
            errors.append("%s: mu = %d at rank %d breaks sign alternation"
                          % (lb, mu, k))
    if top != f.r:
        errors.append("%s: top rank %d, expected %d" % (lb, top, f.r))
    want = [chi.coeff_monomial(q ** (f.d - k)) for k in range(top + 1)]
    _eq(errors, lb + " [summed mu per rank = chi coefficients]", mu_sum, want)
    _eq(errors, lb + " [flats at rank 0]", flats[0], 1)
    _eq(errors, lb + " [flats at rank 1]", flats[1], f.distinct_hyperplanes())
    if f.s.family and f.s.family[0] == "braid":
        n = f.s.family[1]
        _eq(errors, lb + " [flats per rank = Stirling S(n, n-k)]", flats,
            [stirling2(n, n - k) for k in range(top + 1)])


def _check_config(errors, by_verb, f):
    cols, d = f.s.columns, f.d
    full = f.r == d
    M = None
    for lb, tx in by_verb.get("arith-tutte", []):
        M = parse_poly(tx, (x, y))
        if full:
            _eq(errors, lb + " [M(1,1) = sum |det B|]",
                M.as_expr().subs({x: 1, y: 1}), det_sum(cols, d))
            lattice, interior = zonotope_points(cols, d)
            _eq(errors, lb + " [M(2,1) = zonotope lattice points]",
                M.as_expr().subs({x: 2, y: 1}), lattice)
            _eq(errors, lb + " [M(0,1) = interior lattice points]",
                M.as_expr().subs({x: 0, y: 1}), interior)
    for lb, tx in by_verb.get("zonotope", []):
        rec = parse_record(tx)
        lattice, interior = zonotope_points(cols, d)
        _eq(errors, lb + " [volume]", sympy.Rational(rec["volume"]), det_sum(cols, d))
        _eq(errors, lb + " [lattice_points]", int(rec["lattice_points"]), lattice)
        _eq(errors, lb + " [interior_points]", int(rec["interior_points"]), interior)
        E = parse_poly(rec["ehrhart"], (q,))
        _eq(errors, lb + " [ehrhart(0)]", E.eval(0), 1)
        _eq(errors, lb + " [ehrhart(1)]", E.eval(1), lattice)
        _eq(errors, lb + " [ehrhart(-1) reciprocity]", (-1) ** d * E.eval(-1), interior)
        _eq(errors, lb + " [ehrhart leading coefficient]",
            E.coeff_monomial(q ** d), det_sum(cols, d))
    for lb, tx in by_verb.get("toric", []):
        qv = int(lb.split("--q ")[1].split()[0])
        got = parse_poly(tx, (t,))
        counts = toric_counts(cols, d, qv)
        want = sympy.Poly(sum(c * t ** h for h, c in enumerate(counts)), t, domain="QQ")
        _eq(errors, lb + " [brute-force torus counts]", got, want)
        if M is not None:
            _eq(errors, lb + " [toric identity with M]", got,
                toric_from_arithmetic(M, d, f.r, qv))
