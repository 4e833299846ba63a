"""Exact scalar arithmetic: rationals and table-driven F_q.

The Lie-algebra layer does Gaussian elimination over a field protocol with
two implementations: QQ (RationalField) for Q, and FqConfig for every finite
field, F_p being FqConfig(p).  FqConfig encodes field elements as integers
0..q-1 in the power basis of a deterministically chosen irreducible
polynomial; nested-list tables drive its scalar arithmetic, and its one
numpy table, the product table MUL, feeds the bulk evaluator
law.bulk_hook.  add_scaled is the one sparse-vector sum of the Lie
build, the BCH series and the BCH law compile.
"""

from bisect import bisect
from fractions import Fraction

import numpy as np

# codes of F_q are bytes: key coordinates and entries of the uint8 table MUL
MAX_Q = 256


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RationalField:
    """Field protocol over Fraction scalars."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)

    @staticmethod
    def from_int(n):
        return Fraction(n)

    @staticmethod
    def from_fraction(fr):
        return Fraction(fr)


QQ = RationalField()


def rref(rows, fld):
    """Reduced row echelon form over a field protocol.

    Returns (reduced nonzero rows, pivot column indices); pivot columns are
    strictly increasing and each pivot entry is 1.
    """
    out, pivots = [], []
    for row in rows:
        echelon_insert(out, pivots, row, fld)
    return out, pivots


def echelon_insert(rows, pivots, vec, fld):
    """Add vec to the reduced echelon form (rows, pivots), in place.

    Returns False, changing nothing, when vec lies in the span of the rows.
    """
    vec = reduce_against(vec, rows, pivots, fld)
    lead = next((j for j, c in enumerate(vec) if c != fld.zero), None)
    if lead is None:
        return False
    scale = fld.inv(vec[lead])
    vec = [fld.mul(scale, a) for a in vec]
    rows[:] = [reduce_against(prow, [vec], [lead], fld) for prow in rows]
    pos = bisect(pivots, lead)
    rows.insert(pos, vec)
    pivots.insert(pos, lead)
    return True


def reduce_against(vec, rows, pivots, fld):
    """Subtract the RREF rows to clear the pivot coordinates of vec.

    Only the nonzero entries of a row are visited (the zero of every field
    here is falsy); in a reduced form they sit off the other rows' pivots.
    """
    vec = list(vec)
    for row, pcol in zip(rows, pivots):
        c = vec[pcol]
        if c != fld.zero:
            for j, b in enumerate(row):
                if b:
                    vec[j] = fld.sub(vec[j], fld.mul(c, b))
    return vec


def add_scaled(out, c, vec, fld):
    """out += c * vec on sparse vectors (dicts key -> scalar), in place,
    dropping zeros."""
    add, mul, zero = fld.add, fld.mul, fld.zero
    for k, v in vec.items():
        s = add(out.get(k, zero), mul(c, v))
        if s == zero:
            out.pop(k, None)
        else:
            out[k] = s


def _poly_mul_mod(a, b, modulus, p):
    # coefficient tuples over Z/pZ, reduced mod the monic polynomial
    # x^r + modulus[r-1] x^(r-1) + ... + modulus[0]
    r = len(modulus)
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, r - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i, mi in enumerate(modulus):
                prod[d - r + i] = (prod[d - r + i] - c * mi) % p
    return tuple(prod[:r]) if len(prod) >= r else tuple(prod) + (0,) * (r - len(prod))


def _poly_divides(d, f, p):
    # True iff monic d divides monic f over Z/pZ; coefficient lists low-to-high
    f = list(f)
    while len(f) >= len(d):
        c = f[-1]
        if c:
            shift = len(f) - len(d)
            for i, di in enumerate(d):
                f[shift + i] = (f[shift + i] - c * di) % p
        f.pop()
    return all(c == 0 for c in f)


def _monic_polys(p, deg):
    def rec(k):
        if k == 0:
            yield ()
            return
        for tail in rec(k - 1):
            for c in range(p):
                yield (c,) + tail

    for low in rec(deg):
        yield list(low) + [1]


def smallest_irreducible(p, r):
    """Low coefficients (c_0..c_{r-1}) of the first irreducible monic
    x^r + sum c_i x^i in integer-encoding order of (c_0, c_1, ...)."""
    if r == 1:
        return (0,)
    divisors = [d for deg in range(1, r // 2 + 1) for d in _monic_polys(p, deg)]
    for code in range(p ** r):
        low = []
        c = code
        for _ in range(r):
            low.append(c % p)
            c //= p
        f = low + [1]
        if all(not _poly_divides(d, f, p) for d in divisors):
            return tuple(low)
    raise AssertionError("no irreducible polynomial found")


class FqConfig:
    """F_q = F_p[x]/(f), q = p^r, with elements encoded as ints.

    The element sum a_i x^i is encoded as sum a_i p^i, so codes run over
    0..q-1, the prime subfield is the codes 0..p-1, and the power basis
    v_1 = 1, v_2 = x, ..., v_r = x^(r-1) has codes 1, p, ..., p^(r-1).
    The arithmetic keeps the prime subfield and agrees there with
    arithmetic mod p, so FqConfig(p) is F_p and char is p.
    """

    def __init__(self, p, r=1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if r < 1:
            raise ValueError("r must be >= 1")
        q = p ** r
        if q > MAX_Q:
            raise ValueError(f"q > {MAX_Q} not supported: codes are bytes")
        self.p = self.char = p
        self.r = r
        self.q = q
        self.poly = smallest_irreducible(p, r)
        self.zero = 0
        self.one = 1

        decode = self.decode
        add_rows = [[self.encode(tuple((x + y) % p for x, y in zip(decode(a), decode(b))))
                     for b in range(q)] for a in range(q)]
        mul_rows = [[self.encode(_poly_mul_mod(decode(a), decode(b), self.poly, p))
                     for b in range(q)] for a in range(q)]
        self._add = add_rows
        self._mul = mul_rows
        self._neg = [self.encode(tuple((-x) % p for x in decode(a))) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if mul_rows[a][b] == 1)
        self._inv = inv
        self.MUL = np.array(mul_rows, dtype=np.uint8)

    @classmethod
    def from_q(cls, q):
        """F_q for an integer prime power q up to MAX_Q; ValueError otherwise."""
        if type(q) is int and 2 <= q <= MAX_Q:
            p = next(d for d in range(2, q + 1) if q % d == 0)
            r = 1
            while p ** r < q:
                r += 1
            if p ** r == q:
                return cls(p, r)
        raise ValueError(f"q must be a prime power from 2 to {MAX_Q}, got {q!r}")

    def encode(self, coeffs):
        code = 0
        for i, c in enumerate(coeffs):
            code += (c % self.p) * self.p ** i
        return code

    def decode(self, code):
        out = []
        for _ in range(self.r):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    @property
    def basis(self):
        """Codes of v_1 = 1, v_2, ..., v_r."""
        return [self.p ** i for i in range(self.r)]

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, fr):
        fr = Fraction(fr)
        if fr.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator {fr.denominator} vanishes mod {self.p}")
        num = fr.numerator % self.p
        den_inv = self._inv[fr.denominator % self.p]
        return self._mul[num][den_inv]
