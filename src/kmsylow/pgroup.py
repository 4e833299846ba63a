"""Black-box finite group engine.

Groups come as oracles over canonical byte keys (law.GroupOracle), and
everything here (closures, normal closures, coset counting, the Frattini
index, filtration and Tits-axiom checks) works purely through the oracle,
so the same engine serves coordinate groups and matrix groups.
FrattiniCount is theorem 1's one enumeration in both models: it lists the
Frattini subgroup and counts its cosets, and never lists the group itself.

Enumeration holds its elements as rows of one (n, width) uint8 array,
sized by a known order or doubled when full, through the oracle's bulk
right multiplication: a key of 9 bytes held in a list costs about 56
bytes, its row 9.  A key is made only where a scalar is read, and a
table's elements, its keys, are built on first read.  A pass over a
table, a bulk product or a subtable's filter, reads at most SCAN_BLOCK
rows at a time.  A normal closure of known order, as
FrattiniCount.index lists Phi, streams its last two stages: their rows are
marked a chunk at a time and dropped, and the table decodes rows from its
members if they are read; so does a closure given a reader.

Enumeration uses multiplication only: in a finite group the submonoid
generated by a set is already a subgroup, so inverses never need to be
multiplied in.  A closure adds its generators one at a time, each by one
stage of Dimino's algorithm, which lists each new coset of the subgroup
found so far with one bulk right multiplication, SCAN_BLOCK rows at a
time, from the coset before it times a generator; in a p-group (the
caller passes p) every stage has index p.  subgroup_index runs the same
stages over the right cosets of a subgroup.  A known order over the cap,
of a closure or of FrattiniCount's index, is refused before any product.

Every table answers membership through one structure: `in` for a key and
marked for a block of rows.  A closure keeps the structure it filled
(_membership): codes over the columns in which its members vary, held in
a bitmap, or a set of keys past BITMAP_CODES codes.  Each coset of a
Dimino stage is new, so its rows are marked with no test.  A subtable
answers through the table it was filtered from, so coset probes and the
filtration and Tits checks test a block of bulk products at once.  A
model that also supplies a leading-term map for a central filtration
(law.lead_map) gets exact subgroup orders from the layered engine, which
lists no elements and so has no cap.
"""

from functools import cached_property
from math import log2
from operator import mul

import numpy as np

from .errors import ChainNotNested, EnumerationCapExceeded, NotAFiltration
from .law import key_rows, row_keys

DEFAULT_CAP = 2 ** 21
# rows of one bulk product, and of one block of any pass over a table
SCAN_BLOCK = 4096
# most codes, q^(varying columns), that a closure holds in a bitmap, one bit
# each (64 MiB); past it the members go to a set of keys.  The smallest
# power of two above every code space under DEFAULT_CAP: the largest is
# 17^7, about 2^28.6, for the Frattini subgroup of the (2, 17, 3) Sylow,
# which varies in the 7 columns of level 2 and up
BITMAP_CODES = 2 ** 29


# up to this many rows one scalar product per row beats one bulk call: on
# a 2-vCPU VM a key times the 2, 6 and 8 rows of the Borels of SL_2(F_2),
# SL_2(F_3) and SL_3(F_2) takes 12, 24 and 45 us by scalar products against
# 59, 60 and 94 us in bulk, and times the 108 rows of SL_3(F_3)'s 464 us
# against 86 us
FEW_ROWS = 8


def _blocks(rows):
    """The rows as views of at most SCAN_BLOCK rows each."""
    return [rows[at : at + SCAN_BLOCK] for at in range(0, len(rows), SCAN_BLOCK)]


def _bulk(product, rows):
    """product(rows), past SCAN_BLOCK rows a block at a time into one output."""
    if len(rows) <= SCAN_BLOCK:
        return product(rows)
    out = np.empty(rows.shape, dtype=np.uint8)
    for block, into in zip(_blocks(rows), _blocks(out)):
        into[...] = product(block)
    return out


def _mul_rows(oracle, rows, g):
    """The rows times the key g, as rows: bulk products (_bulk), or a
    product per row for a few rows or an oracle with no bulk hook."""
    if oracle.mul_many is not None and len(rows) > FEW_ROWS:
        return _bulk(lambda block: oracle.mul_many(block, g), rows)
    mul = oracle.mul
    return key_rows([mul(k, g) for k in row_keys(rows)], len(g))


def _left_rows(oracle, key, rows):
    """The key g times the rows, as rows: bulk products of row pairs (_bulk),
    or a product per row for a few rows or an oracle with no mul_pairs."""
    if oracle.mul_pairs is not None and len(rows) > FEW_ROWS:
        g = np.frombuffer(key, dtype=np.uint8)
        return _bulk(lambda b: oracle.mul_pairs(np.broadcast_to(g, b.shape), b), rows)
    mul = oracle.mul
    return key_rows([mul(key, k) for k in row_keys(rows)], len(key))


class FiniteGroupTable:
    """An enumerated subgroup over an oracle, its elements held as rows, an
    (order, width) uint8 array with one key's bytes a row.  elements, the
    keys as a tuple, is built on first read.

    members is its one membership structure: `key in members`, and
    members.marked(rows), a mask, for a block of rows.  A closure passes the
    structure it filled, and subtable one that answers through this table;
    a table given none, as tests build them, marks its rows, which must be
    distinct, in a new one.  A streamed closure passes no rows but its
    order and members: the rows are then decoded from the members on first
    read, in the order of their codes or keys."""

    def __init__(self, oracle, generators, rows, members=None, order=None):
        self.oracle = oracle
        self.generators = tuple(generators)
        if rows is not None:
            self.rows = rows
            order = len(rows)
        self.order = order
        if members is None:
            members = _membership(oracle).mark(rows)
        self.members = members

    @cached_property
    def rows(self):
        return self.members.rows()

    @cached_property
    def elements(self):
        return tuple(row_keys(self.rows))

    def __contains__(self, key):
        return key in self.members

    def subtable(self, predicate, rows=None):
        """The members whose rows pass predicate, a map from (n, width) rows
        to a mask, as a table that lists no generators and answers
        membership through this one: no new structure is filled.  rows, if
        given, hold every member that passes."""
        rows = self.rows if rows is None else rows
        mask = np.empty(len(rows), dtype=bool)
        for block, into in zip(_blocks(rows), _blocks(mask)):
            into[...] = predicate(block)
        return FiniteGroupTable(self.oracle, (), rows[mask], _Filtered(self.members, predicate))


class _Filtered:
    """Membership in the members of a structure whose rows pass predicate,
    a map from (n, width) rows to a mask; a key is a block of one row."""

    def __init__(self, members, predicate):
        self.members, self.predicate = members, predicate

    def marked(self, rows):
        return self.members.marked(rows) & self.predicate(rows)

    def __contains__(self, key):
        return bool(self.marked(key_rows([key], len(key)))[0])


class _KeySet:
    """Membership by a set of the keys themselves, for any key space.  The
    set is held, not subclassed: `in` on a set subclass is about twice as
    slow as on a set."""

    def __init__(self):
        self.set = set()

    def mark(self, rows):
        """Make the rows, none of them a member, members; returns self."""
        self.set.update(row_keys(rows))
        return self

    def marked(self, rows):
        """A mask of the rows that are members."""
        return np.fromiter(map(self.set.__contains__, row_keys(rows)), bool, len(rows))

    def rows(self):
        """The members' rows, the keys in sorted order; a closure's set
        always holds the identity, so it names the width."""
        keys = sorted(self.set)
        return key_rows(keys, len(keys[0]))

    def __contains__(self, key):
        return key in self.set


# BIT[i] is the byte with bit i set
_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)


class _Codes:
    """Membership of keys over F_q by codes over the columns in which the
    members vary, one bit a code.  const is the identity's row; a column
    varies once a member differs from const there.  A code has one base-q
    digit per varying column, in the order the columns began to vary, the
    first least significant: weights[v] is the place value of varying
    column v, and 0 for a fixed column.  A row that differs from const in a
    fixed column is no member, for `in` and for marked.

    bits holds the codes, space = q^(varying columns) of them, while space
    is at most BITMAP_CODES.  A block that varies new columns extends the
    code, each new column the next most significant digit: the members
    held gain the digit const[v].  Where every such digit is 0 their codes
    stay as they are and the bitmap is padded with zero bytes; otherwise
    they are laid out again in a new bitmap.  Past BITMAP_CODES they are
    decoded (rows) into a _KeySet, which mark then returns.
    A block is coded by np.einsum, which casts its uint8 rows to int64 one
    buffer at a time: a matrix product would first copy the whole block at
    8 bytes a cell (576 KiB for SCAN_BLOCK rows of 18 columns), past the
    allocator's mmap threshold.  One key is coded in plain Python, so a
    probe of one key makes no numpy call but the lookup."""

    def __init__(self, q, identity):
        self.q = q
        self.const = np.frombuffer(identity, dtype=np.uint8)
        self.weights = np.zeros(len(identity), dtype=np.int64)
        self.space = 1
        self.bits = np.zeros(1, dtype=np.uint8)
        self._recoded()

    def _recoded(self):
        # the fixed columns; for one key, the weights as ints and the mask
        # of the fixed bytes of the key read as one integer, with const's
        # value there
        self._fixed = np.flatnonzero(self.weights == 0)
        self._weights = self.weights.tolist()
        self._mask = int.from_bytes(bytes(0 if w else 255 for w in self._weights), "big")
        self._const = int.from_bytes(self.const.tobytes(), "big") & self._mask

    def _code(self, rows):
        return np.einsum("ij,j->i", rows, self.weights)

    def _set(self, codes):
        # the codes are distinct and their bits unset, so adding each bit to
        # its byte sets it with no carry: np.add.at has a fast path that
        # np.bitwise_or.at lacks
        np.add.at(self.bits, codes >> 3, _BIT.take(codes & 7))

    def _held(self):
        """The codes of the members, from the set bits."""
        at = np.flatnonzero(self.bits)
        set_bits = np.flatnonzero(np.unpackbits(self.bits[at], bitorder="little"))
        return at[set_bits >> 3] * 8 + (set_bits & 7)

    def mark(self, rows):
        """Make the rows members and return the structure that holds them:
        self, or a _KeySet once the codes pass BITMAP_CODES.  The rows must
        be distinct and none of them a member, as the rows of a new coset
        are, so that each code sets its bit with no test."""
        fixed = self._fixed
        new = fixed[(rows[:, fixed] != self.const[fixed]).any(axis=0)]
        if len(new):
            members = self._vary(new.tolist())
            if members is not self:
                return members.mark(rows)
        self._set(self._code(rows))
        return self

    def rows(self):
        """The members' rows, decoded from their codes in code order."""
        codes = self._held()
        rows = np.repeat(self.const[None], len(codes), axis=0)
        for v, w in enumerate(self._weights):
            if w:
                rows[:, v] = codes // w % self.q
        return rows

    def _vary(self, columns):
        """Code the new columns too, the bitmap padded or the members held
        set again in a new one; past BITMAP_CODES codes, the _KeySet of the
        members instead."""
        if self.space * self.q ** len(columns) > BITMAP_CODES:
            return _KeySet().mark(self.rows())
        digits = self.const[columns].tolist()
        codes = self._held() if any(digits) else None
        for v, digit in zip(columns, digits):
            if codes is not None:
                codes += digit * self.space
            self.weights[v] = self.space
            self.space *= self.q
        held, self.bits = self.bits, np.zeros(-(-self.space // 8), dtype=np.uint8)
        if codes is None:
            self.bits[: len(held)] = held
        else:
            self._set(codes)
        self._recoded()
        return self

    def marked(self, rows):
        """A mask of the rows that are members."""
        fixed = self._fixed
        fits = (rows[:, fixed] == self.const[fixed]).all(axis=1)
        codes = self._code(rows)
        return (self.bits.take(codes >> 3) & _BIT.take(codes & 7) != 0) & fits

    def __contains__(self, key):
        if int.from_bytes(key, "big") & self._mask != self._const:
            return False
        code = sum(map(mul, key, self._weights))
        return bool(self.bits.item(code >> 3) >> (code & 7) & 1)


def _membership(oracle):
    """Codes over the varying columns for keys over F_q (the oracle names
    q); a set of keys otherwise."""
    if oracle.q is None:
        return _KeySet()
    return _Codes(oracle.q, oracle.identity)


class _Closure:
    """Incrementally grown subgroup closure with cap enforcement: the
    elements in the order found, as rows of one array, and their membership
    structure.  p, when given, says that the generators generate a p-group.

    order, when given, is the subgroup's order, at which the array is
    allocated; with none, or past it, a full array doubles (_absorb), and
    table trims it to the rows listed.

    stream, with p and order given, says that the caller reads no rows
    (normal_closure).  Each of the last two stages, of index p from order
    / p^2 and order / p elements, is then streamed when it starts from more
    than one chunk (_stream): the rows are allocated for the first streamed
    stage's H only, and once the last has run the closure holds none.  A
    stage that runs after them all the same, as when the order was wrong,
    first decodes the rows from the members.  visit reads every block of
    new elements."""

    def __init__(self, oracle, cap, p=None, order=None, stream=False, visit=None):
        self.oracle = oracle
        self.cap = cap
        self.p = p
        self.visit = visit or (lambda rows: None)
        # the orders of H from which the last two stages stream, and the
        # generators of the stages streamed so far
        self.stream_at, self.streamed = (), []
        if stream and p is not None and order is not None:
            self.stream_at = [h for h in (order // p ** 2, order // p) if h > SCAN_BLOCK]
            order = self.stream_at[0] if self.stream_at else order
        self.rows = np.empty((order or 1, len(oracle.identity)), dtype=np.uint8)
        self.rows[0] = np.frombuffer(oracle.identity, dtype=np.uint8)
        self.filled = 1  # rows written into self.rows
        self.size = 1
        self.members = _membership(oracle).mark(self.rows[:1])
        self.visit(self.rows[:1])
        self.gens = []
        self.inverses = {}  # key -> its inverse, for the keys commuted

    def _inv(self, key):
        got = self.inverses.get(key)
        if got is None:
            got = self.inverses[key] = self.oracle.inv(key)
        return got

    def _mark(self, block):
        """Mark a block of new elements and count them against the cap.  A
        block that passes the cap is marked before the refusal, but a
        closure that refused is never read again."""
        self.members = self.members.mark(block)
        self.size += len(block)
        if self.size > self.cap:
            raise EnumerationCapExceeded(
                f"closure exceeded the cap of {self.cap} elements"
            )
        self.visit(block)
        return block

    def _absorb(self, chunks, g):
        """Add the products k g of the rows k, a coset with no member yet,
        given in chunks of at most SCAN_BLOCK rows, formed and held a chunk
        at a time.  The rows are distinct and right multiplication is
        injective, so the products are distinct too, and each block is
        marked with no test.

        Returns the new rows, chunk by chunk, where they are held."""
        stored = []
        for chunk in chunks:
            block = self._mark(_mul_rows(self.oracle, chunk, g))
            start, end = self.filled, self.filled + len(block)
            if end > len(self.rows):
                grown = np.empty((max(end, 2 * len(self.rows)), self.rows.shape[1]), np.uint8)
                grown[:start] = self.rows[:start]
                self.rows = grown
            self.rows[start:end] = block
            self.filled = end
            stored.append(self.rows[start:end])
        return stored

    def _listed(self):
        """The members' rows in the order found; after a streamed stage,
        decoded from the members."""
        if self.streamed:
            self.rows, self.streamed = self.members.rows(), []
            self.filled = len(self.rows)
        return self.rows[: self.filled]

    def table(self, generators):
        """The subgroup found, its elements in the order found, with the
        closure's membership structure; after a streamed stage, no rows but
        the order, the number of elements marked."""
        rows = None if self.streamed else self.rows[: self.filled]
        if rows is not None and len(rows) < len(self.rows):
            rows = rows.copy()  # the grown array, trimmed
        self.rows = None
        return FiniteGroupTable(
            self.oracle, generators, rows, members=self.members, order=self.size
        )

    def add(self, g, nesting=0):
        """Add g by one Dimino stage; g already a member costs no product.
        Given p, first add g^p and the commutators of g with every
        generator held, the list growing as it is walked: then g normalizes
        the subgroup H found and g^p lies in H, so g's stage lists p - 1
        cosets H g^i (Holt, Eick and O'Brien, Handbook of Computational
        Group Theory, ch. 8).  In a p-group under the cap each nesting
        level lies deeper in the lower exponent-p central series, so the
        bound of cap.bit_length() levels is never met; past it, as in a
        group that is no p-group, g is added as it is."""
        if g in self.members:
            return
        index_p = self.p is not None and nesting < self.cap.bit_length()
        if index_p:
            mul = self.oracle.mul
            self.add(_power(self.oracle, g, self.p), nesting + 1)
            for s in self.gens:
                # g s g^-1 s^-1, each inverse formed once per closure
                comm = mul(mul(mul(g, s), self._inv(g)), self._inv(s))
                self.add(comm, nesting + 1)
            if g in self.members:
                return
        self.gens.append(g)
        if index_p and self.size in self.stream_at:
            self._stream(g)
        else:
            self._dimino(g)

    def _dimino(self, g):
        """Extend the subgroup H found so far, generated by the earlier
        generators, by g (Dimino's algorithm; G. Butler, Fundamental
        Algorithms for Permutation Groups, LNCS 559, 1991): the new
        subgroup is a union of right cosets H r.  Each representative r
        times each generator s is one scalar product, and when r s is new
        the whole coset H r s is, because right cosets of H are equal or
        disjoint.  Once every such product is a member, the union is closed
        under right multiplication by the generators, so it is the
        subgroup.

        H g is listed as H times g, and H r s as the rows of H r, read
        where _absorb stored them, times s: so every right factor is a
        generator, and in an index-p stage it is g for every coset.  H r
        is new in full, so its rows are held whole and in the order of H
        times r, and the rows of H r s come in the order and the chunks of
        H times r s.  _stream is its twin for the last index-p stages of a
        streaming closure: the same chain of H times g and the same closing
        products, the blocks dropped instead of stored."""
        cosets = {g: self._absorb(_blocks(self._listed()), g)}
        reps = [g]
        for r in reps:
            coset = cosets.pop(r)
            for s in self.gens:
                e = self.oracle.mul(r, s)
                # e in cosets, yet no member, only under a broken law
                if e not in self.members and e not in cosets:
                    cosets[e] = self._absorb(coset, s)
                    reps.append(e)

    def _stream(self, g):
        """The index-p stage of g from H, listed as _dimino lists it but a
        chunk of H at a time (_chunks): the chunk times g, times g again,
        p - 1 times, each block marked and then dropped.  The stage is the
        subgroup H <g> by the index-p construction of add, and Dimino's
        closing condition, each power g^i (i < p) times each generator a
        member, is checked with the scalar products that _dimino forms."""
        for chunk in self._chunks():
            for _ in range(self.p - 1):
                chunk = self._mark(_mul_rows(self.oracle, chunk, g))
        self.streamed.append(g)
        r = g
        for _ in range(self.p - 1):
            products = [self.oracle.mul(r, s) for s in self.gens]
            if not all(map(self.members.__contains__, products)):
                raise ValueError(f"a stage of index {self.p} did not close")
            r = products[-1]

    def _chunks(self):
        """H a chunk at a time: the rows held, times the powers of the
        generator of each stage streamed before, formed again chunk by
        chunk; so a second streamed stage holds only the rows of the
        first's H and forms that H's other elements a second time."""
        chunks = _blocks(self.rows[: self.filled])
        for g in self.streamed:
            chunks = self._powers(chunks, g)
        return chunks

    def _powers(self, chunks, g):
        for chunk in chunks:
            yield chunk
            for _ in range(self.p - 1):
                chunk = _mul_rows(self.oracle, chunk, g)
                yield chunk


def _refuse_known(order, cap, what):
    """Raise before any work when a known table order exceeds the cap."""
    if order is not None and order > cap:
        raise EnumerationCapExceeded(f"{what} {order} exceeds the cap of {cap}")


def _listing(seeds, conjugators, oracle, cap, p, order, what, stream, visit=None):
    """The listing of closure and normal_closure: a known order over the
    cap, named by what, refused first; the seeds, then the conjugates of
    every generator held, added; the table lists the generators added."""
    _refuse_known(order, cap, what)
    state = _Closure(oracle, cap, p, order, stream, visit)
    worklist = [s for s in dict.fromkeys(seeds) if s != oracle.identity]
    for s in worklist:
        state.add(s)
    conjs = [(c, oracle.inv(c)) for c in dict.fromkeys(conjugators)]
    for t in worklist:
        for c, c_inv in conjs:
            x = oracle.mul(oracle.mul(c_inv, t), c)
            if x not in state.members:
                worklist.append(x)
                state.add(x)
    return state.table(tuple(worklist))


def closure(generators, oracle, cap=DEFAULT_CAP, p=None, order=None, visit=None):
    """Subgroup generated by the given keys, its table listing the distinct
    keys but the identity, in a deterministic order, coset by coset
    (_Closure.add).  p, when given, says that the keys generate a p-group,
    whose stages then each have index p.

    order, when known (say from layered_order), is the subgroup's exact
    order; an order over the cap refuses before any multiplication, and
    one under it sizes the closure's rows.  visit, if given, reads every
    block of new elements, the identity first, in the order found, and the
    last two stages stream as in normal_closure.
    """
    stream = visit is not None
    return _listing(generators, (), oracle, cap, p, order, "subgroup order", stream, visit)


def normal_closure(seeds, conjugators, oracle, cap=DEFAULT_CAP, p=None, order=None):
    """Smallest subgroup containing the seeds and invariant under conjugation
    by the conjugators.

    Only the running generator list is conjugated: if every generator's
    conjugate lies in the current closure, the whole closure is conjugation
    invariant (conjugation is an automorphism).  Closure under the given
    conjugators implies closure under their inverses, because an injective
    self-map of a finite set is a bijection.  p, when given, says that the
    seeds and conjugators generate a p-group, as in closure.  A known order
    over the cap refuses before any multiplication, as in closure.

    Given p and the order, the last two stages stream (_Closure): the table
    then holds its order and members, and decodes its rows, in code order,
    only if they are read.  The listing is closure's (_listing).
    """
    return _listing(seeds, conjugators, oracle, cap, p, order, "normal closure order", True)


def _power(oracle, key, n):
    out = key if n else oracle.identity
    for _ in range(n - 1):
        out = oracle.mul(out, key)
    return out


def commutator(oracle, a, b):
    """a b a^-1 b^-1."""
    return oracle.mul(
        oracle.mul(oracle.mul(a, b), oracle.inv(a)), oracle.inv(b)
    )


def generator_commutators(oracle, gens):
    """[a, b] for every pair of generators with a listed before b."""
    return [
        commutator(oracle, a, b) for i, a in enumerate(gens) for b in gens[i + 1 :]
    ]


def _sift(g, rows, lead, mul, identity, p):
    """Reduce g by the sequence rows: level -> [(pivot, vector, powers)].
    Returns None when g reduces to the identity, else (remainder, level,
    its leading vector, pivot).  A level that does not rise once g is
    reduced on it means lead is not a filtration's and is refused."""
    floor = None
    while g != identity:
        level, vec = lead(g)
        if floor is not None and level <= floor:
            raise NotAFiltration(f"level {level} after level {floor} in one sift")
        floor = level
        for pivot, row, powers in rows.get(level, ()):
            e = vec[pivot]
            if e:
                g = mul(g, powers[p - e])
                vec = [(a - e * b) % p for a, b in zip(vec, row)]
        pivot = next((j for j, a in enumerate(vec) if a), None)
        if pivot is not None:
            return g, level, vec, pivot
    return None


def layered_order(generators, oracle, lead, p, conjugators=()):
    """Order of the subgroup the generators generate or, given conjugators,
    of the smallest subgroup holding them that the conjugators normalize,
    found without listing its elements.

    lead(key) maps every key but the identity to (level, vector over F_p)
    for a filtration G = G_1 > G_2 > ... > 1 with [G_l, G] and G_l^p inside
    G_(l+1), each G_l / G_(l+1) elementary abelian with the vector as its
    coordinates.  The subgroup is built as an induced polycyclic sequence
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, ch. 8):
    an element is sifted by the sequence, and a remainder joins it with its
    leading vector reduced and scaled to pivot 1; then the remainder's p-th
    power, its commutators with the sequence and its conjugates are sifted
    in turn.  Once all of these sift to the identity, the words in the
    sequence form the subgroup, of order p^(length).  A sequence longer
    than log_p of the number of keys, or a sift whose level does not rise,
    means lead is not such a map, and is refused with NotAFiltration.
    """
    identity, mul = oracle.identity, oracle.mul
    longest = 8 * len(identity) / log2(p)
    conjs = [(c, oracle.inv(c)) for c in dict.fromkeys(conjugators)]
    rows = {}
    sequence = []
    work = list(generators)
    while work:
        found = _sift(work.pop(), rows, lead, mul, identity, p)
        if found is None:
            continue
        g, level, vec, pivot = found
        scale = pow(vec[pivot], p - 2, p)
        g = _power(oracle, g, scale)
        powers = [identity, g]
        for _ in range(p - 1):
            powers.append(mul(powers[-1], g))
        work.append(powers.pop())
        # g h g^-1 h^-1, each inverse formed once
        g_inv = oracle.inv(g)
        work += [mul(mul(mul(g, h), g_inv), h_inv) for h, h_inv in sequence]
        work += [mul(mul(c_inv, g), c) for c, c_inv in conjs]
        rows.setdefault(level, []).append(
            (pivot, [a * scale % p for a in vec], powers)
        )
        sequence.append((g, g_inv))
        if len(sequence) > longest:
            raise NotAFiltration(f"a sequence of more than {longest:.0f} elements")
    return p ** len(sequence)


def subgroup_index(sub, group_generators, oracle, cap=DEFAULT_CAP, order=None):
    """Number of right cosets of an enumerated subgroup S inside the group
    the given keys generate.  S must lie inside that group, and S's table
    must list generators of S, as every table that closure and
    normal_closure return does; a table of order above 1 that lists none,
    such as one filtered from a larger table by membership, is refused.

    Dimino's algorithm over the cosets of S, with no normality assumed:
    H_i = <S, g_1, ..., g_i> is held as representatives of the cosets of S
    it holds.  A generator g_i in H_(i-1) adds nothing; otherwise H_i is a
    union of right cosets H_(i-1) r, each listed as the representatives of
    H_(i-1) times r in one bulk product.  Each such r times each generator
    s of S and each g_j kept so far is one scalar product e, tested for a
    listed coset of S: first r's own, by e r^-1 in S (which holds whenever
    S is normal and s lies in S), then every listed representative x at
    once, by x e^-1 in S in one bulk product.  Once every such e lies in a
    listed coset, the union is closed under right multiplication by the
    generators of H_i, so it is H_i.

    order, when known, is the order of the generated group; an index
    order / |S| over the cap refuses before any coset is formed.
    """
    if order is not None:
        _refuse_known(order // sub.order, cap, "index")
    if sub.order > 1 and not sub.generators:
        raise ValueError(
            f"subgroup_index needs generators of the subgroup: its table "
            f"of order {sub.order} lists none"
        )
    members = sub.members
    width = len(oracle.identity)
    reps = [oracle.identity]
    gens = list(sub.generators)

    def listed(e, r_inv):
        """True iff e lies in a listed coset, r's (r_inv is r^-1) or any."""
        if oracle.mul(e, r_inv) in members:
            return True
        probes = _mul_rows(oracle, key_rows(reps, width), oracle.inv(e))
        return members.marked(probes).any()

    def list_coset(subgroup, r):
        if len(reps) + len(subgroup) > cap:
            raise EnumerationCapExceeded(f"coset count exceeded the cap of {cap}")
        reps.extend(row_keys(_mul_rows(oracle, subgroup, r)))

    for g in group_generators:
        if listed(g, oracle.identity):
            continue
        gens.append(g)
        subgroup = key_rows(reps, width)
        list_coset(subgroup, g)
        cosets = [g]
        for r in cosets:
            r_inv = oracle.inv(r)
            for s in gens:
                e = oracle.mul(r, s)
                if not listed(e, r_inv):
                    list_coset(subgroup, e)
                    cosets.append(e)
    return len(reps)


def _log_exact(value, base):
    d = 0
    while value > 1:
        if value % base:
            return None
        value //= base
        d += 1
    return d if value == 1 else None


class FrattiniCount:
    """The Frattini subgroup Phi of the p-group G the generators generate,
    counted without listing G.

    Phi = [G, G] G^p is the normal closure of the generator commutators and
    p-th powers, its seeds, formed once: modulo [G, G] the group is
    abelian, so the generators' p-th powers generate its p-th power
    subgroup: frattini_eq_derived, Phi = [G, G], is read from every power
    being the identity.  Given lead, a leading-term map as layered_order
    takes it, order and frattini_order are the exact |G| and |Phi| from the
    layered engine, each computed on first read, and h1_layered is log_p of
    |G| / |Phi|; without it they are None.  index lists Phi and counts its
    right cosets, log_p of the count being the minimal number of generators
    of G (Burnside basis theorem); it sizes both enumerations from the
    layered orders, and refuses a Phi over the cap, or an index over it,
    before Phi is listed.  The count reads Phi's order, members and
    generators only, so Phi's last stages stream (normal_closure) and Phi's
    rows are decoded only if read.
    """

    def __init__(self, generators, oracle, p, lead=None):
        gens = self.generators = list(generators)
        self.oracle, self.p, self.lead = oracle, p, lead
        self.powers = [_power(oracle, g, p) for g in gens]
        self.seeds = generator_commutators(oracle, gens) + self.powers

    def _layered(self, keys, conjugators=()):
        if self.lead is not None:
            return layered_order(keys, self.oracle, self.lead, self.p, conjugators)

    @cached_property
    def order(self):
        return self._layered(self.generators)

    @cached_property
    def frattini_order(self):
        return self._layered(self.seeds, self.generators)

    @property
    def h1_layered(self):
        if self.lead is not None:
            return _log_exact(self.order // self.frattini_order, self.p)

    @property
    def frattini_eq_derived(self):
        return all(x == self.oracle.identity for x in self.powers)

    def index(self, cap=DEFAULT_CAP):
        """Phi as a table and [G : Phi].  An index over the cap is refused
        from the layered orders before Phi is listed, unless normal_closure
        refuses Phi itself first."""
        gens, oracle, phi_order = self.generators, self.oracle, self.frattini_order
        if phi_order is not None and phi_order <= cap:
            _refuse_known(self.order // phi_order, cap, "index")
        phi = normal_closure(self.seeds, gens, oracle, cap=cap, p=self.p, order=phi_order)
        return phi, subgroup_index(phi, gens, oracle, cap=cap, order=self.order)


def _conjugates_inside(oracle, conjugators, K):
    """True iff c x c^-1 lies in the table K for every conjugator c and
    member x of K: the c x of one conjugator are one bulk left product,
    and those times c^-1 one bulk right product."""
    for c in conjugators:
        left = _left_rows(oracle, c, K.rows)
        if not K.members.marked(_mul_rows(oracle, left, oracle.inv(c))).all():
            return False
    return True


def check_filtration_lemma(G, chain, V):
    """Finite chain analog of the elementary refinement lemma.

    chain is K_1 superset ... superset K_n = {1}, each enumerated; V an
    enumerated subgroup.  Reports, for each i, whether K_i lies in V.K_{i+1}
    (tested as: some k' in K_{i+1} has k k'^-1 in V), whether the chain
    members are normal in G, and, when every inclusion holds, whether the
    conclusion K_1 subset of V holds.  The rows of K_i not yet found in
    V.k' are multiplied by k'^-1 in one bulk product per k'.
    """
    oracle = G.oracle
    if len(chain) < 1:
        raise ChainNotNested("chain must contain at least one subgroup")
    for a, b in zip(chain, chain[1:]):
        if not a.members.marked(b.rows).all():
            raise ChainNotNested("chain members are not nested")
    if chain[-1].order != 1 or oracle.identity not in chain[-1]:
        raise ChainNotNested("chain must end at the trivial subgroup")

    normal = [_conjugates_inside(oracle, G.generators, K) for K in chain]

    inclusions = []
    for K, K_next in zip(chain, chain[1:]):
        pending = K.rows
        for kp in K_next.elements:
            if not len(pending):
                break
            inside = V.members.marked(_mul_rows(oracle, pending, oracle.inv(kp)))
            pending = pending[~inside]
        inclusions.append(not len(pending))

    hypothesis = all(inclusions)
    conclusion = bool(V.members.marked(chain[0].rows).all()) if hypothesis else None
    return {
        "normal": normal,
        "inclusions": inclusions,
        "hypothesis_holds": hypothesis,
        "conclusion_holds": conclusion,
    }


def _double_coset(oracle, B, n):
    """B n B as a set of keys: the union of the right cosets B n b, each
    listed as B times n b only when n b is not yet in the union, since
    right cosets of B are equal or disjoint; so each is listed once.  The
    n b are one bulk left product."""
    out = set()
    for x in row_keys(_left_rows(oracle, n, B.rows)):
        if x not in out:
            out.update(row_keys(_mul_rows(oracle, B.rows, x)))
    return out


def verify_tits_axioms(G, B, N, s_reps, cap=DEFAULT_CAP):
    """Check the four building-block axioms for (G, B, N, S).

    Returns booleans T1..T4 plus whether the double cosets BwB partition G.
    T1: B and N generate G and B cap N is normal in N.  T2: the images of
    s_reps generate W = N/(B cap N) and are involutions.  T3: for all s, w:
    s B w lies in BwB union BswB.  T4: no s normalizes B into itself.
    The s_reps lie in N.  W is never formed as a set of cosets: generation
    is one closure, and the double cosets, s B w and s B s are formed by
    bulk left and right products; the torus B cap N is N filtered by B.
    """
    oracle = G.oracle
    T = N.subtable(B.members.marked)

    def within(gens, group):
        # a closure past the group's order, as under a broken law, is None
        try:
            return closure(gens, oracle, cap=min(cap, group.order))
        except EnumerationCapExceeded:
            if group.order > cap:
                raise
            return None

    gen_union = within(B.elements + N.elements, G)
    t1 = (
        gen_union is not None
        and gen_union.order == G.order
        and _conjugates_inside(oracle, N.elements, T)
    )

    # T is normal in N (T1), so the images of s_reps generate W = N/T
    # exactly when T and s_reps generate N
    generated = within(T.elements + tuple(s_reps), N)
    t2 = (
        generated is not None
        and generated.order == N.order
        and bool(N.members.marked(generated.rows).all())
        and all(s not in T and oracle.mul(s, s) in T for s in s_reps)
    )

    # one representative n_w per coset T n, in the order of N
    reps, seen = [], set()
    for n in N.elements:
        if n not in seen:
            reps.append(n)
            seen.update(row_keys(_mul_rows(oracle, T.rows, n)))

    double_cosets = [_double_coset(oracle, B, n_w) for n_w in reps]
    # double cosets are equal or disjoint, so this maps each covered element
    # to the one double coset holding it
    holder = {x: dc for dc in double_cosets for x in dc}

    s_cosets = [(s, _left_rows(oracle, s, B.rows)) for s in s_reps]
    # an s n_w in no listed double coset, as under a broken law, fails T3
    t3 = all(
        set(row_keys(_mul_rows(oracle, s_b, n_w)))
        <= dc | holder.get(oracle.mul(s, n_w), frozenset())
        for s, s_b in s_cosets
        for n_w, dc in zip(reps, double_cosets)
    )
    t4 = all(not B.members.marked(_mul_rows(oracle, s_b, s)).all() for s, s_b in s_cosets)

    union_size = sum(len(dc) for dc in double_cosets)
    covered = G.members.marked(key_rows(list(holder), len(oracle.identity)))
    bruhat = len(holder) == union_size == G.order and bool(covered.all())

    return {"T1": t1, "T2": t2, "T3": t3, "T4": t4, "bruhat_partition": bruhat}
