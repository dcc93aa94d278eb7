"""Tutte polynomial engines and their scalar specializations.

Three structural algorithms compute the same polynomial: the subset
expansion, deletion-contraction, and the basis-activity expansion.  The
fourth route, the finite field method, lives in `finite_field`, and the
flat-lattice coboundary (`IntersectionPoset.coboundary`) in `poset`.  All
engines agree exactly; the test suite asserts this on randomized
arrangements.

All three run on the integer echelon kernel of `linalg`, over Q and F_p
alike, on the augmented rows [normal | offset] of the hyperplanes.  The
subset expansion and the basis-activity expansion run on
`linalg.echelon_walk`, which walks subsets a size at a time on integer
arrays, a block of subsets per step.  The subset expansion walks only the
central independent subsets I: every central subset is one of them plus
some of the rows F(I) that I spans, so it counts them by size and |F(I)|,
with one bincount per block, and its walk's charge has a bound known
before it starts, which routes `auto` (`subset_first`).  The
basis-activity expansion walks the independent subsets and carries every
row's remainder along, with one tag column per basis row, so that at a
basis each remainder shows its fundamental circuit and whether it meets
the basis; the activities of a block of bases are array reductions of
these.  Deletion-contraction recurses on tuples of rows: a contraction is
one elimination step per row, and the leaves are counted by (coloops,
loops).  All three charge their work to a budget.

The exact steps after a walk or a count work on integer coefficient
tables: the size-span table of the subset expansion, the coboundary
transforms in both directions and the Whitney specialisation are binomial
transforms done by one helper (`expand`), and one MultiPoly is built from
the final table.

The scalar invariants are a reading of T alone (`scalar_invariants`): chi
comes from T by Whitney's theorem (`whitney_char`), and the regions, the
bounded regions and the Poincare polynomial from chi.
"""

from collections import Counter
from itertools import islice
from math import comb

import numpy as np

from .errors import DEFAULT_BUDGET, ConsistencyError, charge
from .linalg import contract_rows, echelon_walk, hold_row
from .multipoly import MultiPoly
from .poset import intersection_poset

# The largest bound on the subset walk's charge (`subset_first`) for which
# the subset expansion is the default route; above it T comes from the flat
# lattice's coboundary.
SUBSET_MAX_CHARGE = 1 << 10


class TutteResult:
    """A computed Tutte polynomial with its provenance."""

    __slots__ = ("tutte", "rank", "n_hyperplanes", "engine")

    def __init__(self, tutte, rank, n_hyperplanes, engine):
        self.tutte = tutte
        self.rank = rank
        self.n_hyperplanes = n_hyperplanes
        self.engine = engine

    def __repr__(self):
        return "TutteResult(%s; r=%d, n=%d, engine=%s)" % (
            self.tutte, self.rank, self.n_hyperplanes, self.engine)


class ActivityCertificate:
    """Per-basis activity counts; their monomials sum to the Tutte polynomial."""

    def __init__(self, records):
        self.records = records  # list of (basis tuple, internal, external)

    def polynomial(self):
        """x^i y^e summed over the records: a count of (i, e) pairs."""
        counts = Counter((i, e) for _, i, e in self.records)
        # a term-by-term sum orders y before x if y^e comes before any x^i
        if next((not i for i, e in counts if i or e), False):
            return MultiPoly(("y", "x"), {(e, i): c for (i, e), c in counts.items()})
        return MultiPoly(("x", "y"), counts)


def _signed_binomials(b):
    """Coefficients of (v - 1)^b, lowest power first."""
    return [(-1) ** (b - t) * comb(b, t) for t in range(b + 1)]


def expand(terms):
    """Expand sum of c x^i (x-1)^a y^j (y-1)^b, given as {(i, a, j, b): c},
    into {(i, j): c} by the binomial theorem, one variable at a time."""
    mid = {}
    for (i, a, j, b), c in terms.items():
        if c:
            for s, w in enumerate(_signed_binomials(a)):
                key = (i + s, j, b)
                mid[key] = mid.get(key, 0) + w * c
    out = {}
    for (i, j, b), c in mid.items():
        if c:
            for t, w in enumerate(_signed_binomials(b)):
                key = (i, j + t)
                out[key] = out.get(key, 0) + w * c
    return out


def expand_rank_table(table, r):
    """sum of table[rB][size] (x-1)^(r-rB) (y-1)^(size-rB), expanded.

    table[rB][size] counts (or weighs) subsets by rank and size; the powers
    are expanded by the binomial theorem into one integer term table.
    """
    terms = {(0, r - rb, 0, size - rb): count
             for rb, row in enumerate(table) for size, count in enumerate(row)}
    return MultiPoly(("x", "y"), expand(terms))


def subset_first(arrangement):
    """Whether the subset expansion is the default route: sum_{k <= r+1}
    C(m, k), over the m non-loops, bounds its walk's charge before it runs
    (see `tutte_subset`), and that bound is at most SUBSET_MAX_CHARGE.  It
    is at most 2^m, so every arrangement of at most 10 hyperplanes passes."""
    m = len(arrangement.rows)
    return sum(comb(m, k) for k in range(arrangement.rank + 2)) <= SUBSET_MAX_CHARGE


def tutte_subset(arrangement, budget=DEFAULT_BUDGET):
    """Subset expansion: sum over central B of (x-1)^(r-rB) (y-1)^(|B|-rB).

    A central B splits one way as I + D: I is its greedy basis, the rows
    of B that raise the rank in index order, and D is a subset of F(I), the
    rows outside I that lie in the span of the augmented rows of I before
    them, which keep the common point.  Summed over D, the expansion is
    y^loops times the sum over central independent I of the non-loops of
    (x-1)^(r-|I|) y^|F(I)|.  One walk (`linalg.echelon_walk` with spans)
    counts these I by size and |F(I)| into an integer table, and T is one
    binomial expansion of it.  The walk is charged one unit per candidate
    row and one for the empty set, at most sum_{k <= r+1} C(m, k) over the
    m non-loops.
    """
    r = arrangement.rank
    rows = arrangement.rows
    m = len(rows)
    table = np.zeros((r + 1, m + 1), np.int64)
    for _, size, spans, _ in echelon_walk(rows, arrangement.prime, budget, spans=True):
        table[size] += np.bincount(spans, minlength=m + 1)
    loops = arrangement.n - m
    terms = {(0, r - k, loops + f, 0): c
             for k, row in enumerate(table.tolist()) for f, c in enumerate(row) if c}
    return TutteResult(MultiPoly(("x", "y"), expand(terms)), r, arrangement.n, "subset")


def _dependent(rows, rank, prime):
    """Indices of the rows whose normal lies in the span of the normals
    before it, ascending, by the echelon pass.  Once `rank` rows are
    independent, every later row is dependent."""
    basis = []
    deps = []
    for k, row in enumerate(rows):
        if len(basis) == rank:
            deps += range(k, len(rows))
            break
        if not hold_row(basis, row[:-1], prime):
            deps.append(k)
    return deps


def _xy_poly(counts):
    """The MultiPoly of {(i, j): c} in x and y, declaring only those that
    occur, x first."""
    used = [any(key[k] for key in counts) for k in (0, 1)]
    return MultiPoly(tuple(v for v, u in zip("xy", used) if u),
                     {tuple(e for e, u in zip(key, used) if u): c
                      for key, c in counts.items()})


def tutte_delcon(arrangement, budget=DEFAULT_BUDGET):
    """Deletion-contraction recursion; identical result to the subset expansion.

    A node is a tuple of augmented rows and the number of loops stripped on
    the way to it; a contraction's loops are stripped when it is visited.
    A node splits on its last ordinary row, which is the last row whose
    normal depends on the rows before it: deleted, and contracted by one
    elimination step per row.  Deleting it leaves the dependent rows before
    it as they were, so only a contraction reduces its rows afresh.  A node
    with no ordinary row is a leaf, all coloops, and adds 1 to the count of
    x^coloops y^loops.  Every node is charged to the budget.
    """
    p = arrangement.prime
    rows = arrangement.rows
    counts = Counter()
    nodes = 0
    stack = [(rows, arrangement.n - len(rows), arrangement.rank, None)]
    while stack:
        rows, loops, rank, deps = stack.pop()
        nodes += 1
        charge(nodes, budget, "deletion-contraction needs at least %d recursion nodes")
        if deps is None:
            kept = [row for row in rows if any(row)]
            loops += len(rows) - len(kept)
            rows = kept
            deps = _dependent(rows, rank, p)
        if not deps:
            counts[len(rows), loops] += 1
            continue
        i = deps[-1]
        stack.append((contract_rows(rows, i, p), loops, rank - 1, None))
        stack.append((rows[:i] + rows[i + 1:], loops, rank, deps[:-1]))
    return TutteResult(_xy_poly(counts), arrangement.rank, arrangement.n, "delcon")


def _bases(rows, r, prime, budget):
    """Every basis of the rows' normals, in `combinations` order, with the
    remainders of all rows against it, a block at a time.

    The walk is `linalg.echelon_walk` with r tag columns: at a basis, tag
    k of a remainder is nonzero exactly when the k-th basis row lies in the
    fundamental circuit of that row's normal, and a basis row's remainder
    is the zero row.  Yields (members, central, circuit) arrays: the bases'
    row indices, (bases, r); whether each row's remainder has a zero
    offset, (bases, m); and its nonzero tags, (bases, m, r).  The walk
    charges m row steps per subset it visits to the budget.
    """
    m = len(rows)
    for masks, size, _, rems in echelon_walk(rows, prime, budget, rank=r):
        if size == r:
            members = np.nonzero((masks[:, None] >> np.arange(m)) & 1)[1]
            d = rems.shape[2] - 1 - r       # the offset column; the tags follow
            yield (members.reshape(len(masks), r), rems[:, :, d] == 0,
                   rems[:, :, d + 1:] != 0)


def tutte_activity(arrangement, order=None, budget=DEFAULT_BUDGET):
    """Basis-activity expansion for a fixed linear order on the hyperplanes.

    Bases are the independent central subsets of size and rank r, found by
    `_bases`.  Each non-basis row's remainder against a basis B gives, at
    once, its fundamental circuit (its nonzero tags) and whether it has a
    point in common with B (a zero offset).  h in B is internally active
    when no hyperplane before h has h in its circuit; a non-basis h central
    with B is externally active when it comes before the rest of its circuit,
    and every loop is.  Both are read off a block of bases at once by array
    reductions.  The walk is charged to the budget (see `_bases`).
    Returns the TutteResult plus an ActivityCertificate listing
    (basis, i(B), e(B)).
    """
    n = arrangement.n
    if order is None:
        order = list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the hyperplane indices")
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n)
    r = arrangement.rank
    nl = np.array(arrangement.nonloops(), np.int64)
    npos = pos[nl]
    loops = n - len(nl)
    records = []
    for members, central, circuit in _bases(arrangement.rows, r, arrangement.prime,
                                            budget):
        bpos = npos[members]
        # the first position whose circuit holds each basis row
        first = np.where(circuit, npos[:, None], n).min(axis=1, initial=n)
        internal = (bpos < first).sum(axis=1)
        # a row central with B that comes before the rest of its circuit
        least = np.where(circuit, bpos[:, None, :], n).min(axis=2, initial=n)
        active = circuit.any(axis=2) & central & (npos < least)
        records += zip(map(tuple, nl[members].tolist()), internal.tolist(),
                       (loops + active.sum(axis=1)).tolist())
    cert = ActivityCertificate(records)
    return TutteResult(cert.polynomial(), r, n, "activity"), cert


def char_poly(arrangement, budget=DEFAULT_BUDGET):
    """Characteristic polynomial via the Möbius-weighted sum over flats.

    When the subset expansion is the default route (`subset_first`), the
    Whitney route (-1)^r q^(d-r) T(1-q, 0), with T from it, is also
    computed and must agree, or ConsistencyError is raised.  The budget
    bounds the work and memory of the intersection poset (see
    `intersection_poset`) and the subset walk of the Whitney route.
    """
    chi = intersection_poset(arrangement, budget=budget).char_poly()
    if subset_first(arrangement):
        alt = whitney_char(arrangement, tutte_subset(arrangement, budget).tutte)
        if alt != chi:
            raise ConsistencyError(
                "Mobius and Whitney routes disagree: %s vs %s" % (chi, alt))
    return chi


def whitney_char(arrangement, tutte):
    """chi(q) = (-1)^r q^(d-r) T(1-q, 0), from the y^0 column of T.

    T(1-q, 0) = sum_i t_i0 (-1)^i (q-1)^i, expanded by the binomial theorem.
    """
    r = arrangement.rank
    terms = {(arrangement.dim - r, i, 0, 0): (-1) ** (r + i) * c
             for (i, j), c in tutte.table(("x", "y")).items() if not j}
    return MultiPoly(("q",), {(k,): c for (k, _), c in expand(terms).items()})


def coboundary_transform(tutte, r):
    """Coboundary polynomial (Y-1)^r T((X+Y-1)/(Y-1), Y), expanded.

    Writing T = sum t_ij x^i y^j with i <= r, the term t_ij x^i y^j becomes
    t_ij Y^j (X + (Y-1))^i (Y-1)^(r-i) = sum_a t_ij C(i,a) X^a Y^j (Y-1)^(r-a),
    a binomial transform of T's integer table.
    """
    if tutte.degree("x") > r:
        raise ValueError("x-degree exceeds the stated rank %d" % r)
    terms = {}
    for (i, j), c in tutte.table(("x", "y")).items():
        for a in range(i + 1):
            key = (a, 0, j, r - a)
            terms[key] = terms.get(key, 0) + comb(i, a) * c
    return MultiPoly(("Y", "X"),
                     {(j, a): c for (a, j), c in expand(terms).items()})


def tutte_from_coboundary(cob, r):
    """Inverse transform: T(x,y) = (y-1)^(-r) cob((x-1)(y-1), y), exact.

    The term Y^k X^a becomes (x-1)^a (y-1)^a y^k, and y^k is
    sum_l C(k,l) (y-1)^l.  Once like terms are collected, every nonzero one
    must have a (y-1)-exponent of at least r.
    """
    terms = {}
    for (k, a), c in cob.table(("Y", "X")).items():
        for l in range(k + 1):
            key = (0, a, 0, a + l - r)
            terms[key] = terms.get(key, 0) + comb(k, l) * c
    if any(c for key, c in terms.items() if key[3] < 0):
        raise ValueError("inconsistent coboundary/rank pair: division not exact")
    return MultiPoly(("x", "y"), expand(terms))


def scalar_invariants(arrangement, tutte):
    """The scalar and polynomial specializations of chapter-level interest,
    all read off the Tutte polynomial T.

    Returns a dict with region count a, bounded-region count b, the Poincare
    polynomial of the complex complement, the complement-size polynomial
    chi(q) (by Whitney's theorem, see `whitney_char`), the general-position
    bounded-region count T(1,0), and the beta invariant (reported only for
    n >= 2).
    """
    d = arrangement.dim
    r = arrangement.rank
    chi = whitney_char(arrangement, tutte)
    a = (-1) ** d * chi.evaluate({"q": -1})
    b = (-1) ** r * chi.evaluate({"q": 1})
    # (-q)^d chi(-1/q): coefficient of q^k in chi becomes (-1)^(d-k) q^(d-k)
    poincare = MultiPoly(("q",), {(d - k,): (-1) ** (d - k) * c
                                  for (k,), c in chi.table(("q",)).items()})
    t10 = tutte.evaluate({"x": 1, "y": 0})
    beta = None
    if arrangement.n >= 2:
        b10 = tutte.coeff_of_monomial({"x": 1, "y": 0})
        b01 = tutte.coeff_of_monomial({"x": 0, "y": 1})
        # the x/y coefficient symmetry is a matroid fact; it can fail for
        # non-central arrangements (e.g. x=0, x=1 has T = x + 1)
        if arrangement.is_central() and b10 != b01:
            raise ConsistencyError("beta coefficients x^1y^0 and x^0y^1 differ")
        beta = b10
    return {
        "regions": a,
        "bounded_regions": b,
        "poincare": poincare,
        "complement_size": chi,
        "general_position_bounded": t10,
        "beta": beta,
    }


def validate_chi_shape(chi):
    """Sign-alternation, unimodality, and log-concavity report for chi.

    The coefficient of q^(d-k) must have sign (-1)^k (or vanish); the
    magnitude sequence must be unimodal and log-concave.  Violations are
    returned, not raised: a violation would contradict the theorem and is a
    bug report.  The magnitudes are reported up to the last nonzero one:
    trailing zeros can break neither property, so the walk spans the terms
    of chi (r + 1 of them for an arrangement of rank r), not its degree.
    """
    d = chi.degree("q")
    # (k, the coefficient of q^(d-k)) for the nonzero ones, k ascending
    coeffs = sorted((d - e, c) for (e,), c in chi.table(("q",)).items())
    violations = ["sign of q^%d coefficient" % (d - k)
                  for k, c in coeffs if (c > 0) != (k % 2 == 0)]
    mags = [0] * (coeffs[-1][0] + 1 if coeffs else 0)
    for k, c in coeffs:
        mags[k] = abs(c)
    rising = True
    for j, (a, b) in enumerate(zip(mags, islice(mags, 1, None)), 1):
        if rising and b < a:
            rising = False
        elif not rising and b > a:
            violations.append("unimodality fails at position %d" % j)
            break
    for j, (a, b, c) in enumerate(zip(mags, islice(mags, 1, None),
                                      islice(mags, 2, None)), 1):
        if a * c > b * b:
            violations.append("log-concavity fails at position %d" % j)
    return {"ok": not violations, "violations": violations, "magnitudes": mags}
