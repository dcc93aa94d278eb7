"""Sparse multivariate polynomials with exact rational coefficients.

MultiPoly is the universal value type of the package: Tutte polynomials,
characteristic polynomials, coboundary polynomials and point-count
identities are all instances.  Coefficients are plain ints; a coefficient
is a ``fractions.Fraction`` only where it is not integral, which no engine's
answer is.  No floating point is used anywhere.  The ring operations serve
the engines' identities and also the tests' generating-function oracles,
whose coefficients are rational.

Terms are kept in a dict mapping exponent tuples to nonzero coefficients.
Printing uses graded lexicographic order (total degree first, then the
exponent vector), highest term first, so output is deterministic.
"""

import re
from fractions import Fraction

from .errors import UnknownVariableError


def _coerce(c):
    """c as an int (a bool or an integral Fraction becomes one), or as a
    non-integral Fraction."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("coefficients must be int or Fraction, got %r" % (c,))


class MultiPoly:
    """A polynomial in named variables with int (or Fraction) coefficients.

    Instances are immutable; all operations return new polynomials.
    """

    __slots__ = ("vars", "terms", "_canon")

    def __init__(self, variables=(), terms=None):
        object.__setattr__(self, "vars", tuple(variables))
        clean = {}
        if terms:
            nv = len(self.vars)
            for exps, coeff in terms.items():
                if type(coeff) is not int:
                    coeff = _coerce(coeff)
                if not coeff:
                    continue
                if type(exps) is not tuple:
                    exps = tuple(exps)
                if len(exps) != nv:
                    raise ValueError("exponent vector length mismatch")
                clean[exps] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c):
        c = _coerce(c)
        if c == 0:
            return cls((), {})
        return cls((), {(): c})

    @classmethod
    def zero(cls):
        return cls((), {})

    @classmethod
    def variable(cls, name):
        return cls((name,), {(1,): 1})

    @classmethod
    def monomial(cls, variables, exps, coeff=1):
        return cls(tuple(variables), {tuple(exps): coeff})

    # -- canonical form / comparison ---------------------------------------

    def canonical(self):
        """Terms keyed by frozensets of (var, exp) pairs; drops unused variables.

        Used for hashing, and for equality across different variable orderings.
        """
        if self._canon is None:
            canon = frozenset(
                (frozenset((v, e) for v, e in zip(self.vars, exps) if e), coeff)
                for exps, coeff in self.terms.items()
            )
            object.__setattr__(self, "_canon", canon)
        return self._canon

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        """The value of a constant polynomial: an int, or a Fraction when it
        is not integral."""
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self)
        return next(iter(self.terms.values()))

    # -- variable bookkeeping ---------------------------------------------

    def _aligned(self, other):
        """Rewrite both polynomials over the union of their variables."""
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        joint = list(self.vars)
        for v in other.vars:
            if v not in joint:
                joint.append(v)
        joint = tuple(joint)
        return joint, self._embed(joint), other._embed(joint)

    def _embed(self, joint):
        pos = {v: i for i, v in enumerate(joint)}
        idx = [pos[v] for v in self.vars]
        out = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(joint)
            for i, e in zip(idx, exps):
                new[i] = e
            out[tuple(new)] = coeff
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        joint, a, b = self._aligned(other)
        out = dict(a)
        for exps, coeff in b.items():
            out[exps] = out.get(exps, 0) + coeff
        return MultiPoly(joint, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
            if other == 0:
                return MultiPoly(self.vars, {})
            return MultiPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        joint, a, b = self._aligned(other)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(joint, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __truediv__(self, other):
        return self * Fraction(1, _coerce(other))

    # -- substitution / evaluation ----------------------------------------

    def substitute(self, mapping):
        """Replace variables by polynomials or scalars; exact.

        Raises UnknownVariableError for names not declared by this polynomial.
        """
        for name in mapping:
            if name not in self.vars:
                raise UnknownVariableError("unknown variable %r" % name)
        subs = {}
        for name, val in mapping.items():
            if isinstance(val, (int, Fraction)):
                val = MultiPoly.const(val)
            subs[name] = val
        result = MultiPoly.zero()
        kept = [v for v in self.vars if v not in subs]
        for exps, coeff in self.terms.items():
            term = MultiPoly.monomial(
                kept, [e for v, e in zip(self.vars, exps) if v not in subs], coeff
            )
            for v, e in zip(self.vars, exps):
                if v in subs and e:
                    term = term * subs[v] ** e
            result = result + term
        return result

    def evaluate(self, assignment):
        """Evaluate at a point of ints or Fractions; every variable that occurs
        must be assigned.  The value is an int when the point's coordinates
        and the coefficients are, else a Fraction."""
        total = 0
        for exps, coeff in self.terms.items():
            val = coeff
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                if v not in assignment:
                    raise UnknownVariableError("no value for variable %r" % v)
                val *= assignment[v] ** e
            total += val
        return total

    # -- structure queries -------------------------------------------------

    def degree(self, var):
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=0)

    def coefficient(self, var, k):
        """The coefficient of var**k, as a polynomial in the remaining variables."""
        if var not in self.vars:
            return self if k == 0 else MultiPoly.zero()
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] == k:
                key = tuple(e for j, e in enumerate(exps) if j != i)
                out[key] = out.get(key, 0) + coeff
        return MultiPoly(rest, out)

    def coeff_of_monomial(self, assignment):
        """Scalar coefficient of the monomial with the given {var: exp} exponents."""
        target = dict(assignment)
        total = 0
        for exps, coeff in self.terms.items():
            ok = True
            for v, e in zip(self.vars, exps):
                if e != target.get(v, 0):
                    ok = False
                    break
            if ok and all(target.get(v, 0) == 0 for v in target if v not in self.vars):
                total += coeff
        return total

    def div_exact_var(self, var, k=1):
        """Exact division by var**k; raises if any term has a smaller exponent."""
        if k == 0:
            return self
        if var not in self.vars:
            if self.is_zero():
                return self
            raise ValueError("not divisible by %s^%d" % (var, k))
        i = self.vars.index(var)
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] < k:
                raise ValueError("not divisible by %s^%d" % (var, k))
            new = list(exps)
            new[i] -= k
            out[tuple(new)] = coeff
        return MultiPoly(self.vars, out)

    def has_integer_coeffs(self):
        return all(type(c) is int for c in self.terms.values())

    def table(self, names):
        """Terms keyed by exponent tuples over `names` (for exact table
        arithmetic); raises ValueError if a variable outside `names` occurs."""
        pos = [names.index(v) if v in names else None for v in self.vars]
        out = {}
        for exps, coeff in self.terms.items():
            key = [0] * len(names)
            for k, e in zip(pos, exps):
                if e and k is None:
                    raise ValueError("%s uses a variable outside %s" % (self, names))
                if e:
                    key[k] = e
            out[tuple(key)] = coeff
        return out

    # -- printing ----------------------------------------------------------

    def _sorted_terms(self):
        """(exps, coeff) pairs, highest first by total degree, then by the
        exponent vector.  A variable that occurs in no term adds the same
        zero to every key, so it cannot change the order."""
        return sorted(self.terms.items(), key=_grlex, reverse=True)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "MultiPoly(%s)" % self.format()

    def format(self, mul="*", pow_="^"):
        if not self.terms:
            return "0"
        names = self.vars
        parts = []
        for exps, coeff in self._sorted_terms():
            factors = [v if e == 1 else "%s%s%d" % (v, pow_, e)
                       for v, e in zip(names, exps) if e]
            if coeff < 0:
                parts.append(" - ")
                coeff = -coeff
            else:
                parts.append(" + ")
            if coeff != 1 or not factors:
                factors.insert(0, str(coeff))
            parts.append(mul.join(factors))
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def to_latex(self):
        # every exponent in braces, so that multi-digit ones set right
        return re.sub(r"\^(\d*)", r"^{\1}", self.format(mul=" "))

    def term_list(self):
        """Terms as [[coeff-string, {var: exp}], ...] in graded-lex order."""
        out = []
        for exps, coeff in self._sorted_terms():
            out.append(
                [str(coeff), {v: e for v, e in zip(self.vars, exps) if e}]
            )
        return out


def _grlex(item):
    exps = item[0]
    return sum(exps), exps
