import functools
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tuttekit.arrangement import Arrangement
from tuttekit.multipoly import MultiPoly


@pytest.fixture
def bench():
    """The four-plane benchmark: x=0, y=0, x-y=0, z=0 in Q^3.

    Labels t, u, v, w in order; {t, u, v} is the unique dependent triple.
    T = x^3 + x^2 + x*y, chi = q^3 - 4q^2 + 5q - 2.
    """
    return Arrangement(3, [([1, 0, 0], 0), ([0, 1, 0], 0),
                           ([1, -1, 0], 0), ([0, 0, 1], 0)], label="bench")


def profile_polynomial(profile):
    """The point profile as a polynomial in Y: its count of points on
    exactly k hyperplanes is the coefficient of Y^k."""
    return MultiPoly(("Y",), {(k,): c for k, c in enumerate(profile.counts)})


def classify(arr, i):
    """'loop', 'coloop', or 'ordinary' for hyperplane i of arr."""
    if not any(arr.hyperplanes[i]):
        return "loop"
    rest = arr.rank_normals(frozenset(range(arr.n)) - {i})
    return "coloop" if arr.rank == rest + 1 else "ordinary"


def random_arrangement(rng, max_n=7, max_d=4, allow_loops=True):
    """A random small arrangement with integer data, possibly with loops,
    duplicates, and parallel hyperplanes."""
    d = rng.randint(1, max_d)
    n = rng.randint(0, max_n)
    hs = []
    for _ in range(n):
        if allow_loops and rng.random() < 0.08:
            hs.append(([0] * d, 0))
            continue
        if hs and rng.random() < 0.15:
            hs.append(rng.choice(hs))  # duplicate
            continue
        normal = [rng.randint(-3, 3) for _ in range(d)]
        offset = rng.randint(-2, 2)
        if not any(normal):
            offset = 0  # degenerate row becomes a loop
        hs.append((normal, offset))
    return Arrangement(d, hs)


def random_prime_arrangement(rng):
    """A random small arrangement over F_2, F_3 or F_5, possibly with loops."""
    p = rng.choice((2, 3, 5))
    d = rng.randint(1, 3)
    hs = []
    for _ in range(rng.randint(0, 7)):
        normal = [rng.randrange(p) for _ in range(d)]
        hs.append((normal, rng.randrange(p) if any(normal) else 0))
    return Arrangement(d, hs, prime=p)


def random_poly_data(rng, nvars=3, nterms=5, max_exp=3):
    """Random exponent->coefficient dict for MultiPoly construction."""
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return terms


def counts_in_Y(value):
    """A polynomial in Y with integer coefficients as the list
    [c_0, c_1, ...] of its coefficients, as `interpolate_in_X` takes it."""
    table = value.table(("Y",))
    return [table.get((k,), 0) for k in range(value.degree("Y") + 1)]


BENCH = Path(__file__).resolve().parents[1] / "bench"


@functools.cache
def bench_module(name):
    """bench/<name>.py, loaded by path with bench/ on sys.path for its own
    imports, writing no bytecode there."""
    path, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_" + name,
                                                      BENCH / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
    return module


def from_sympy(poly):
    """A sympy.Poly with rational coefficients as a MultiPoly in the names
    of its generators."""
    return MultiPoly([str(g) for g in poly.gens],
                     {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()})


def bench_oracle(name, *args):
    """The sympy.Poly that bench/oracles.py's function `name` gives at args,
    as a MultiPoly: the references computed apart from tuttekit."""
    return from_sympy(getattr(bench_module("oracles"), name)(*args))
