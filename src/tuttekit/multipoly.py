"""Sparse multivariate polynomials with exact rational coefficients.

MultiPoly is the universal value type of the package: Tutte polynomials,
characteristic polynomials, coboundary polynomials, point-count identities
and generating-function coefficients are all instances.  Coefficients are
``fractions.Fraction``; no floating point is used anywhere.

Terms are kept in a dict mapping exponent tuples to nonzero coefficients.
Printing uses graded lexicographic order (total degree first, then the
exponent vector), highest term first, so output is deterministic.
"""

from fractions import Fraction

from .errors import UnknownVariableError


def _coerce(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("coefficients must be int or Fraction, got %r" % (c,))


class MultiPoly:
    """A polynomial in named variables with Fraction coefficients.

    Instances are immutable; all operations return new polynomials.
    """

    __slots__ = ("vars", "terms", "_canon")

    def __init__(self, variables=(), terms=None):
        object.__setattr__(self, "vars", tuple(variables))
        clean = {}
        if terms:
            nv = len(self.vars)
            for exps, coeff in terms.items():
                coeff = _coerce(coeff)
                if coeff == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != nv:
                    raise ValueError("exponent vector length mismatch")
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
                if clean[exps] == 0:
                    del clean[exps]
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
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def monomial(cls, variables, exps, coeff=1):
        return cls(tuple(variables), {tuple(exps): _coerce(coeff)})

    # -- canonical form / comparison ---------------------------------------

    def canonical(self):
        """Terms keyed by frozensets of (var, exp) pairs; drops unused variables.

        Used for equality and hashing across different variable orderings.
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
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        """The value of a constant polynomial, as a Fraction."""
        if not self.terms:
            return Fraction(0)
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
            out[exps] = out.get(exps, Fraction(0)) + coeff
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
                out[key] = out.get(key, Fraction(0)) + c1 * c2
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
        other = _coerce(other)
        return self * Fraction(1, 1) * Fraction(other.denominator, other.numerator)

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
        """Evaluate at a point; every variable that occurs must be assigned."""
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                if v not in assignment:
                    raise UnknownVariableError("no value for variable %r" % v)
                val *= Fraction(assignment[v]) ** e
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
                out[key] = out.get(key, Fraction(0)) + coeff
        return MultiPoly(rest, out)

    def coeff_of_monomial(self, assignment):
        """Scalar coefficient of the monomial with the given {var: exp} exponents."""
        target = dict(assignment)
        total = Fraction(0)
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
        return all(c.denominator == 1 for c in self.terms.values())

    def table(self, names):
        """Terms keyed by exponent tuples over `names`, integral coefficients
        as int (for exact table arithmetic); raises ValueError if a variable
        outside `names` occurs."""
        pos = [names.index(v) if v in names else None for v in self.vars]
        out = {}
        for exps, coeff in self.terms.items():
            key = [0] * len(names)
            for k, e in zip(pos, exps):
                if e and k is None:
                    raise ValueError("%s uses a variable outside %s" % (self, names))
                if e:
                    key[k] = e
            out[tuple(key)] = coeff.numerator if coeff.denominator == 1 else coeff
        return out

    # -- printing ----------------------------------------------------------

    def _sorted_terms(self):
        used = [i for i, v in enumerate(self.vars) if any(e[i] for e in self.terms)]
        items = []
        for exps, coeff in self.terms.items():
            key = (sum(exps), tuple(exps[i] for i in used))
            items.append((key, exps, coeff))
        items.sort(key=lambda t: t[0], reverse=True)
        return [(e, c) for _, e, c in items]

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "MultiPoly(%s)" % self.format()

    def format(self, mul="*", pow_="^"):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self._sorted_terms():
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append("%s%s%d" % (v, pow_, e))
            mag = abs(coeff)
            if factors and mag == 1:
                body = mul.join(factors)
            elif factors:
                body = mul.join([_fmt_frac(mag)] + factors)
            else:
                body = _fmt_frac(mag)
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def to_latex(self):
        text = self.format(mul=" ", pow_="^")
        # wrap multi-digit exponents in braces
        out = []
        i = 0
        while i < len(text):
            if text[i] == "^":
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                out.append("^{" + text[i + 1 : j] + "}")
                i = j
            else:
                out.append(text[i])
                i += 1
        return "".join(out)

    def term_list(self):
        """Terms as [[coeff-string, {var: exp}], ...] in graded-lex order."""
        out = []
        for exps, coeff in self._sorted_terms():
            out.append(
                [str(coeff), {v: e for v, e in zip(self.vars, exps) if e}]
            )
        return out


def _fmt_frac(f):
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)
