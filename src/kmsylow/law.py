"""Polynomial group laws over F_q on byte keys.

A group is presented to the engine (pgroup) by a GroupOracle over canonical
byte keys: identity, multiplication, inversion, and an optional bulk right
multiplication hook that vectorized callers can supply.  A key's bytes are
its coefficients, so a list of keys of one width is the rows of an
(n, width) uint8 array (key_rows, row_keys).  The bulk hook takes such rows
and a right factor key and returns the product rows.

Both models have a polynomial law: their product and inverse are fixed
polynomial maps over F_q in the key coefficients.  PolynomialMap holds such
a map and is the one scalar evaluator; law_oracle builds the oracle from
the law and the inverse, with bulk_hook, the one bulk evaluator, fed by the
law specialized at each right factor.  The hook specializes once for a run
of blocks times one factor, and skips the terms that read a column that is
zero throughout a block.  Products of row pairs, where both factors vary
per row, go through the same evaluator: the oracle's mul_pairs feeds a
second hook, built on first use, the unspecialized law over the columns of
both blocks side by side.  A key times a block of rows is such a product,
the key repeated as the left block.

Both models also filter their keys by a level per coordinate, and lead_map
is the one leading-term map of such a filtration, the map that the layered
engine of pgroup takes.
"""

from dataclasses import dataclass

import numpy as np

# lane sums are kept below this, so that each reduces mod p by one gather
# from a table of residues (4 KiB a lane)
RESIDUE_SUMS = 2 ** 12


@dataclass(frozen=True)
class GroupOracle:
    identity: bytes
    mul: object  # (key, key) -> key
    inv: object  # key -> key
    mul_many: object = None  # optional: ((n, width) uint8 rows, key) -> rows
    q: int = None  # optional: keys are code vectors over F_q, bytes below q
    # optional: two (n, width) blocks -> the rows of their products, row by row
    mul_pairs: object = None


def key_rows(keys, width):
    """Keys of width bytes as the rows of an (n, width) uint8 array.  A key
    is its row's coefficients, so both models share this codec."""
    return np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), width)


def row_keys(rows):
    """The rows of an (n, width) uint8 array as keys.  Each row is read as
    one void scalar, whose bytes keep trailing zeros (a bytes-string view
    would strip them)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()


def _reduce(a, p):
    """a mod p, in place, for a nonnegative int64 array.  numpy divides by
    a scalar with a multiply and a shift, but takes a remainder with one
    hardware division per entry, so the floor division is cheaper."""
    quotient = a // p
    quotient *= p
    a -= quotient
    return a


def bulk_hook(fq, right_polys):
    """A mul_many hook for keys of codes over F_q = F_p^r: it takes the
    rows of keys k, an (n, width) uint8 array, and a key g, and returns the
    rows of the products k g.  right_polys(g) gives, for each coordinate of
    a product k g, its polynomial in the coordinates of k: a tuple of
    (code, variables) terms, each the code times the product of the
    coordinates named in variables (repeats allowed).  The hook evaluates
    these polynomials on all rows at once.

    The hook keeps its last right factor with that factor's polynomials,
    so consecutive blocks times one factor call right_polys once.  A block
    is read column by column, and a term naming a column that is zero in
    every row of the block is dropped: the plan of what is left is kept
    with the factor, by the columns it was made for, so each set of live
    columns is planned once per factor.  Each distinct monomial left is
    formed once per block, as its prefix monomial times one coordinate
    through the product table of fq.  A term is then one lookup in spread, where spread[c][a] packs
    the F_p digits of c a into lanes of w = 63 // r bits of an int64, so
    that adding packed values adds digits lane by lane with no carry
    between lanes.  Each lane holds lane_terms terms of at most p - 1,
    so that its sum stays below 2^w and RESIDUE_SUMS; a longer sum is
    folded (every lane reduced mod p by division) first.  Each lane of a
    coordinate's sum is then reduced by one gather from a table of
    residues, which also scales it to its digit's place in the code.  A
    coordinate left with no term or with one term of degree at most one
    (a constant c, or c x_v) is written directly: filled with c, a copy of
    column v, or column v through the row of c in the product table."""
    p, q, r = fq.p, fq.q, fq.r
    w = 63 // r
    mask = (1 << w) - 1
    lane_sums = min(mask + 1, RESIDUE_SUMS)
    lane_terms = (lane_sums - 1) // (p - 1)
    shifts = [w * i for i in range(r)]
    packed = np.array(
        [sum(d << s for d, s in zip(fq.decode(a), shifts)) for a in range(q)],
        dtype=np.int64,
    )
    spread = list(packed[fq.MUL])
    packed = packed.tolist()
    # product[a * q + b] is the code of a b
    product = fq.MUL.astype(np.intp).ravel()
    # residues[i][v] is (v mod p) p^i: the code's part from lane i holding v
    residues = [
        np.resize((np.arange(p) * p ** i).astype(np.uint8), lane_sums)
        for i in range(r)
    ]

    def fold(acc):
        # the packed sums with every lane reduced mod p
        out = np.zeros_like(acc)
        for s in shifts:
            out |= _reduce(acc >> s & mask, p) << s
        return out

    def gather(acc, coordinate, lane, digit):
        # the code sum digit_i p^i, one gather per lane into its residues;
        # the top lane needs no mask
        np.right_shift(acc, shifts[-1], out=lane)
        residues[-1].take(lane, out=coordinate, mode="clip")
        for s, residue in zip(shifts[:-1], residues[:-1]):
            np.right_shift(acc, s, out=lane)
            lane &= mask
            residue.take(lane, out=digit, mode="clip")
            coordinate += digit

    def plan(polys, live):
        """How to evaluate polys on a block whose column v is zero in every
        row where live[v] is False: the columns to read as intp, the
        monomials to form, each as (value of its prefix, value of its last
        column) where the values are the columns read and then the
        monomials formed, the coordinates written directly, each as (its
        index, c, variables), and the coordinates summed, each as (its
        index, the packed start of its sum, its summands)."""
        polys = [
            [(c, vs) for c, vs in terms if all(live[v] for v in vs)]
            for terms in polys
        ]
        direct = [len(terms) <= 1 and all(len(vs) <= 1 for _, vs in terms) for terms in polys]
        reads = sorted(
            {v for terms, d in zip(polys, direct) if not d for _, vs in terms for v in vs}
        )
        values = {(v,): i for i, v in enumerate(reads)}
        monomials = []
        writes, sums = [], []
        for i, (terms, d) in enumerate(zip(polys, direct)):
            if d:
                writes.append((i, *(terms[0] if terms else (0, ()))))
                continue
            # the sum starts at the constant terms' total, counted as a term
            constant = 0
            for c, vs in terms:
                if not vs:
                    constant = fq.add(constant, c)
            summands = []
            room = lane_terms - 1
            for c, vs in terms:
                if not vs:
                    continue
                if not room:
                    summands.append(None)  # fold before this term
                    room = lane_terms - 1
                room -= 1
                for k in range(2, len(vs) + 1):
                    if vs[:k] not in values:
                        monomials.append((values[vs[: k - 1]], values[vs[k - 1 : k]]))
                        values[vs[:k]] = len(reads) + len(monomials) - 1
                summands.append((spread[c], values[vs]))
            sums.append((i, packed[constant], summands))
        return reads, monomials, writes, sums

    factor = polys = None
    plans = {}  # the plans for factor, by the live columns they were made for

    def mul_many(rows, g):
        nonlocal factor, polys
        g = bytes(g)
        if g != factor:
            factor, polys = g, right_polys(g)
            plans.clear()
        by_column = np.ascontiguousarray(rows.T)
        live = by_column.any(axis=1)
        compiled = plans.get(live.tobytes())
        if compiled is None:
            compiled = plans[live.tobytes()] = plan(polys, live.tolist())
        reads, monomials, writes, sums = compiled
        # but for the block's columns and the output, every array here
        # holds one coordinate of a block: arrays above the allocator's
        # mmap threshold would raise it when freed, and later blocks would
        # then fragment the heap
        values = [by_column[v].astype(np.intp) for v in reads]
        for prefix, last in monomials:
            values.append(product.take(values[prefix] * q + values[last]))
        out = np.empty((len(polys), len(rows)), dtype=np.uint8)
        for i, c, vs in writes:
            if not vs:
                out[i].fill(c)
            elif c == 1:
                out[i] = by_column[vs[0]]
            else:
                fq.MUL[c].take(by_column[vs[0]], out=out[i])
        acc = np.empty(len(rows), dtype=np.int64)
        term = np.empty_like(acc)
        digit = np.empty(len(rows), dtype=np.uint8)
        for i, start, summands in sums:
            acc.fill(start)
            for summand in summands:
                if summand is None:
                    acc[:] = fold(acc)
                    continue
                table, index = summand
                table.take(values[index], out=term)
                acc += term
            gather(acc, out[i], term, digit)
        return out.T

    return mul_many


class PolynomialMap:
    """A polynomial map over F_q, given for each output coordinate as a
    tuple of (code, x indices, y indices) terms: the code times the
    coordinates of x and y named (repeats allowed).  Calling it evaluates
    the map at x = a, y = b and returns the key of the result.

    Terms are bucketed by their first x index, so a call visits only the
    terms whose first x coordinate is nonzero, and those without one."""

    def __init__(self, fq, terms):
        self.fq = fq
        self.terms = terms
        self._free = []
        buckets = {}
        for k, coordinate in enumerate(terms):
            for c, xs, ys in coordinate:
                if xs:
                    buckets.setdefault(xs[0], []).append((k, c, xs[1:], ys))
                else:
                    self._free.append((k, c, ys))
        self._buckets = [
            buckets.get(i, ()) for i in range(max(buckets, default=-1) + 1)
        ]

    def __call__(self, a, b=()):
        # the tables behind fq.add and fq.mul, indexed without a call per term
        add, mul = self.fq._add, self.fq._mul
        out = [0] * len(self.terms)
        for k, c, ys in self._free:
            for j in ys:
                c = mul[c][b[j]]
            out[k] = add[out[k]][c]
        for v, bucket in zip(a, self._buckets):
            if v:
                times_v = mul[v]
                for k, c, xs, ys in bucket:
                    c = times_v[c]
                    for i in xs:
                        c = mul[c][a[i]]
                    for j in ys:
                        c = mul[c][b[j]]
                    out[k] = add[out[k]][c]
        return bytes(out)

    def at_y(self, g):
        """The map specialized at y = g: for each coordinate, its polynomial
        in x as (code, x indices) terms, for bulk_hook."""
        add, mul = self.fq._add, self.fq._mul
        out = []
        for coordinate in self.terms:
            poly = {}
            for c, xs, ys in coordinate:
                for j in ys:
                    c = mul[c][g[j]]
                if c:
                    poly[xs] = add[poly.get(xs, 0)][c]
            out.append(tuple((c, xs) for xs, c in poly.items() if c))
        return out


def law_oracle(fq, identity, law, inverse):
    """The oracle of a group whose product is the polynomial map law at
    (x, y) = (a, b) and whose inverse is the polynomial map inverse at
    x = a; right multiplication in bulk evaluates law.at_y(g).

    Products of row pairs evaluate the unspecialized law on the columns of
    a beside the columns of b, y coordinate j being column width + j, by a
    second bulk hook whose one right factor is the empty key.  That hook is
    built on the first call, so an oracle asked for no pairs never builds
    it."""
    width = len(identity)
    joint = None

    def mul_pairs(a, b):
        nonlocal joint
        if joint is None:
            polys = [
                tuple((c, xs + tuple(width + j for j in ys)) for c, xs, ys in terms)
                for terms in law.terms
            ]
            joint = bulk_hook(fq, lambda _: polys)
        return joint(np.concatenate((a, b), axis=1), b"")

    return GroupOracle(
        identity, law, inverse, bulk_hook(fq, law.at_y), fq.q, mul_pairs
    )


def lead_map(fq, identity, levels):
    """The leading-term map of the filtration of keys over F_q by the level
    of each coordinate, levels[i] that of coordinate i: a key other than
    the identity goes to (l, the F_p digits of its coordinates of level l
    minus the identity's), l the least level of a coordinate where the key
    differs from the identity, the coordinates in key order.  Identity
    bytes are 0 or 1."""
    at_level = {}
    for at, l in enumerate(levels):
        at_level.setdefault(l, []).append(at)
    # minus[e][c] is the F_p digits of c - e
    minus = [[fq.decode(fq.sub(c, e)) for c in range(fq.q)] for e in (0, 1)]

    def lead(key):
        least = min(l for l, a, e in zip(levels, key, identity) if a != e)
        return least, [
            x for at in at_level[least] for x in minus[identity[at]][key[at]]
        ]

    return lead
