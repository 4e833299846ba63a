"""Tests for the black-box group engine on synthetic oracles, and for its
bulk evaluator against the scalar one on random polynomial maps and on both
models' laws."""

import dataclasses
import functools
import gc
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from kmsylow import affine, law, pgroup, unipotent
from kmsylow.affine import AffineMatrixGroup, sylow_generators
from kmsylow.errors import ChainNotNested, EnumerationCapExceeded, NotAFiltration
from kmsylow.fields import FqConfig
from kmsylow.gcm import validate_gcm
from kmsylow.law import (
    RESIDUE_SUMS,
    GroupOracle,
    PolynomialMap,
    bulk_hook,
    key_rows,
    row_keys,
)
from kmsylow.pgroup import (
    BITMAP_CODES,
    FEW_ROWS,
    SCAN_BLOCK,
    FiniteGroupTable,
    FrattiniCount,
    _Codes,
    _left_rows,
    check_filtration_lemma,
    closure,
    commutator,
    generator_commutators,
    layered_order,
    normal_closure,
    subgroup_index,
)
from kmsylow.unipotent import UnipotentModel, standard_generators

from breadth_first import breadth_first_closure
from coset_probe import assert_same_index
from derived_series import derived_subgroup, is_perfect
from filtration_scan import assert_filtration_reports_agree
from frattini_stream import recorded_streams, streamed_stages
from membership_paths import path as members_path


def vector_oracle(p, d):
    def mul(a, b):
        return bytes((x + y) % p for x, y in zip(a, b))

    def inv(a):
        return bytes((-x) % p for x in a)

    return GroupOracle(identity=bytes(d), mul=mul, inv=inv)


def cyclic_oracle(n):
    def mul(a, b):
        return bytes([(a[0] + b[0]) % n])

    def inv(a):
        return bytes([(-a[0]) % n])

    return GroupOracle(identity=bytes([0]), mul=mul, inv=inv)


def heisenberg_oracle(p):
    # triples (a, b, c): (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a b')
    def mul(x, y):
        return bytes(
            (
                (x[0] + y[0]) % p,
                (x[1] + y[1]) % p,
                (x[2] + y[2] + x[0] * y[1]) % p,
            )
        )

    def inv(x):
        return bytes(((-x[0]) % p, (-x[1]) % p, (x[0] * x[1] - x[2]) % p))

    return GroupOracle(identity=bytes(3), mul=mul, inv=inv)


def symmetric_oracle():
    # permutations of (0,1,2); mul(a,b) applies a then b
    def mul(a, b):
        return bytes(b[a[i]] for i in range(3))

    def inv(a):
        out = [0] * 3
        for i in range(3):
            out[a[i]] = i
        return bytes(out)

    return GroupOracle(identity=bytes((0, 1, 2)), mul=mul, inv=inv)


def unitriangular_oracle(n, p):
    """UT_n(F_p) with keys the entries above the diagonal, superdiagonal by
    superdiagonal, and the lead map of the superdiagonal filtration."""
    places = [(i, i + d) for d in range(1, n) for i in range(n - d)]

    def matrix(key):
        A = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), a in zip(places, key):
            A[i][j] = a
        return A

    def mul(x, y):
        A, B = matrix(x), matrix(y)
        return bytes(
            sum(A[i][k] * B[k][j] for k in range(i, j + 1)) % p for i, j in places
        )

    # every element has order dividing the least power of p that is >= n
    exponent = p
    while exponent < n:
        exponent *= p

    def inv(x):
        out = x
        for _ in range(exponent - 2):
            out = mul(out, x)
        return out

    def lead(key):
        d = next(places[i][1] - places[i][0] for i, a in enumerate(key) if a)
        return d, [a for (i, j), a in zip(places, key) if j - i == d]

    gens = [bytes(int(k == i) for k in range(len(places))) for i in range(n - 1)]
    return GroupOracle(bytes(len(places)), mul, inv), lead, gens


def test_closure_trivial_and_cyclic():
    oracle = vector_oracle(5, 1)
    assert closure([], oracle).order == 1
    assert closure([bytes([1])], oracle).order == 5


def test_closure_full_vector_group():
    oracle = vector_oracle(3, 2)
    table = closure([bytes((1, 0)), bytes((0, 1))], oracle, p=3)
    assert table.order == 9


def bulk_vector_oracle(p, d, sizes):
    """(Z/p)^d with the scalar product of vector_oracle and a bulk hook that
    records the number of rows of each call in sizes."""
    scalar = vector_oracle(p, d)

    def right_polys(g):
        return [((1, (k,)), (c, ())) if c else ((1, (k,)),) for k, c in enumerate(g)]

    hook = bulk_hook(FqConfig(p), right_polys)

    def mul_many(rows, g):
        sizes.append(len(rows))
        return hook(rows, g)

    return GroupOracle(scalar.identity, scalar.mul, scalar.inv, mul_many)


def test_closure_multiplies_a_block_at_a_time():
    # (Z/3)^10 has cosets larger than a block; the bulk hook never sees
    # more than a block of rows, and the order matches the scalar path
    p, d = 3, 10
    sizes = []
    bulk = bulk_vector_oracle(p, d, sizes)
    gens = [bytes(int(i == j) for j in range(d)) for i in range(d)]
    table = closure(gens, bulk, p=p)
    assert table.order == p ** d
    assert max(sizes) == SCAN_BLOCK
    assert table.elements == closure(gens, vector_oracle(p, d), p=p).elements


def counting_oracle(oracle, products, rows=None):
    """The oracle, counting in products[0] every product it forms, in bulk
    or one at a time, and in rows[0], when given, the bulk ones alone."""
    rows = [0] if rows is None else rows

    def mul(a, b):
        products[0] += 1
        return oracle.mul(a, b)

    def mul_many(block, g):
        products[0] += len(block)
        rows[0] += len(block)
        return oracle.mul_many(block, g)

    return dataclasses.replace(oracle, mul=mul, mul_many=mul_many)


def counting_vector_oracle(p, d, products):
    """bulk_vector_oracle, counting in products[0] every product it forms."""
    return counting_oracle(bulk_vector_oracle(p, d, []), products)


def test_closure_forms_each_element_about_once():
    # each of the 10 unit vectors adds one Dimino stage of index 3, so each
    # element but the identity is formed once, in a coset of the subgroup
    # found; stage i adds 3 + 3 (i - 1) + 2 i scalar products (the
    # generator's cube, its commutators and its two cosets times each
    # generator held), 275 in all, where breadth-first stages would form
    # about 10 * 3^10 products
    p, d = 3, 10
    products = [0]
    oracle = counting_vector_oracle(p, d, products)
    gens = [bytes(int(i == j) for j in range(d)) for i in range(d)]
    assert closure(gens, oracle, p=p).order == p ** d
    assert products[0] < p ** d + 300


# scalar products that a p-group closure below forms at most: its generators'
# p-th powers and commutators, and each coset representative times each
# generator held, which the bulk rows do not count
CLOSURE_SCALAR_PRODUCTS = 600


@pytest.mark.parametrize("m,q,k", [(2, 3, 2), (2, 5, 3), (3, 3, 2), (2, 9, 2)])
def test_sylow_closure_forms_each_element_once(m, q, k):
    # every Dimino stage of a p-group closure has index p, so no element is
    # formed by two bulk products; breadth-first stages formed 1.6 to 4 times
    # |G| bulk rows on these Sylows
    fq = FqConfig.from_q(q)
    products, rows = [0], [0]
    oracle = counting_oracle(AffineMatrixGroup(m, fq, k).oracle(), products, rows)
    table = closure(sylow_generators(m, fq, k), oracle, p=fq.p)
    assert rows[0] <= table.order - 1
    assert products[0] - rows[0] < CLOSURE_SCALAR_PRODUCTS


@pytest.mark.parametrize("m,q,k", [(2, 3, 2), (2, 5, 3), (3, 3, 2), (2, 9, 2)])
def test_a_closure_inverts_each_key_once(m, q, k):
    # a p-group closure commutes each key it adds with every generator held,
    # so a key's inverse is formed once per closure, not once per commutator
    fq = FqConfig.from_q(q)
    plain = AffineMatrixGroup(m, fq, k).oracle()
    inverted = []

    def inv(key):
        inverted.append(key)
        return plain.inv(key)

    gens = sylow_generators(m, fq, k)
    table = closure(gens, dataclasses.replace(plain, inv=inv), p=fq.p)
    assert table.elements == closure(gens, plain, p=fq.p).elements
    assert inverted and len(inverted) == len(set(inverted))


def test_frattini_normal_closure_forms_each_element_once():
    # A1^(1) over F_7 at height 6: Phi has 7^7 elements, each formed once in
    # bulk, where breadth-first stages formed 1.29 times as many rows
    model = UnipotentModel(validate_gcm([[2, -2], [-2, 2]]), FqConfig(7), 6)
    plain, gens = model.oracle(), standard_generators(model)
    seeds = generator_commutators(plain, gens)
    seeds += [pgroup._power(plain, g, 7) for g in gens]
    products, rows = [0], [0]
    phi = normal_closure(seeds, gens, counting_oracle(plain, products, rows), p=7)
    assert phi.order == 7 ** 7
    assert rows[0] <= phi.order - 1
    assert products[0] - rows[0] < CLOSURE_SCALAR_PRODUCTS


def test_a_generator_already_a_member_costs_no_products():
    # a generator that is already a member, given early (the sum of two
    # unit vectors) or late (the sum of all ten, a repeat, the identity),
    # adds no product
    p, d = 3, 10
    units = [bytes(int(i == j) for j in range(d)) for i in range(d)]
    pair, total = bytes([1, 1] + [0] * (d - 2)), bytes([1] * d)
    runs = []
    for gens in (
        units,
        units[:2] + [pair] + units[2:],
        units + [total, units[3], bytes(d)],
    ):
        products = [0]
        table = closure(gens, counting_vector_oracle(p, d, products), p=p)
        runs.append((table.elements, products[0]))
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize(
    "width,path", [(29, "_Codes"), (30, "_KeySet"), (64, "_KeySet")]
)
def test_closures_mark_members_in_a_bitmap_up_to_2_to_the_29_keys(width, path):
    # beyond the bitmap, the members are kept as a set of keys
    assert BITMAP_CODES == 2 ** 29
    oracle = dataclasses.replace(vector_oracle(2, width), q=2)
    ones, top = bytes([1]) * width, bytes(width - 1) + bytes([1])
    table = closure([ones], oracle, p=2)
    assert members_path(table.members) == path
    assert table.elements == (bytes(width), ones)
    assert ones in table and top not in table
    assert not table.members.marked(key_rows([top], width)).any()
    assert table.members.marked(key_rows([top, ones], width)).tolist() == [False, True]


def test_bitmap_codes_are_exact_at_the_limit():
    # columns that begin to vary in one block are digits in column order,
    # the first least significant; 2^29 codes still take the bitmap
    keys = [bytes([1]) * 29, bytes(28) + bytes([1]), bytes([1]) + bytes(28)]
    members = _Codes(2, bytes(29)).mark(key_rows(keys, 29))
    assert members_path(members) == "_Codes" and members.space == 2 ** 29
    assert len(members.bits) == 2 ** 26
    assert members._code(key_rows(keys, 29)).tolist() == [2 ** 29 - 1, 2 ** 28, 1]
    assert all(k in members for k in keys) and bytes(29) not in members
    set_bytes = members.bits[np.flatnonzero(members.bits)]
    assert np.unpackbits(set_bytes).sum() == 3
    members = _Codes(256, bytes(3)).mark(key_rows([bytes([255]) * 3], 3))
    assert members._code(key_rows([bytes([255]) * 3], 3)).tolist() == [2 ** 24 - 1]


def test_closure_is_generator_order_independent():
    oracle = heisenberg_oracle(3)
    gens = [bytes((1, 0, 0)), bytes((0, 1, 0)), bytes((1, 1, 2))]
    rng = random.Random(8)
    reference = set(closure(gens, oracle).elements)
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert set(closure(shuffled, oracle).elements) == reference


def test_closure_cap():
    oracle = vector_oracle(5, 2)
    with pytest.raises(EnumerationCapExceeded):
        closure([bytes((1, 0)), bytes((0, 1))], oracle, cap=10)


def test_known_order_over_the_cap_refuses_before_multiplying():
    def untouchable(*args):
        raise AssertionError("multiplied")

    plain = vector_oracle(5, 2)
    oracle = GroupOracle(plain.identity, untouchable, untouchable, untouchable)
    gens = [bytes((1, 0)), bytes((0, 1))]
    with pytest.raises(EnumerationCapExceeded):
        closure(gens, oracle, cap=24, order=25)
    with pytest.raises(EnumerationCapExceeded):
        normal_closure(gens, gens, oracle, cap=24, order=25)
    line = closure(gens[:1], plain)
    with pytest.raises(EnumerationCapExceeded):
        subgroup_index(line, gens, oracle, cap=4, order=25)
    # at the cap the table is listed
    assert closure(gens, plain, cap=25, order=25).order == 25
    assert normal_closure(gens, gens, plain, cap=25, order=25).order == 25
    assert subgroup_index(line, gens, plain, cap=5, order=25) == 5


def _membership_path(oracle, path, monkeypatch):
    """The oracle, with BITMAP_CODES patched, or q unset, so that closures
    over it mark their members by path: in a code bitmap ("_Codes"), in a
    set of keys decoded from the codes at the first column that varies
    ("decoded"), or in a set of keys from the start ("_KeySet")."""
    if path == "decoded":
        monkeypatch.setattr(pgroup, "BITMAP_CODES", 1)
    if path == "_KeySet":
        return dataclasses.replace(oracle, q=None)
    return oracle


def _structure(path):
    """The type name of the structure that path leaves a closure with."""
    return "_KeySet" if path == "decoded" else path


def _matrix_sylow_case():
    fq = FqConfig(3)
    return AffineMatrixGroup(2, fq, 3).oracle(), sylow_generators(2, fq, 3), 3, []


def _vector_case():
    # (Z/3)^9 has cosets larger than a block; sizes records the rows of
    # each bulk call
    sizes = []
    oracle = dataclasses.replace(bulk_vector_oracle(3, 9, sizes), q=3)
    return oracle, [bytes(int(i == j) for j in range(9)) for i in range(9)], 3, sizes


@pytest.mark.parametrize("path", ["_Codes", "decoded", "_KeySet", "_Filtered"])
def test_marked_agrees_with_in(monkeypatch, path):
    # member rows, non-member rows and an empty block, through each
    # structure a table answers from; a subtable answers through the table
    # it was filtered from, here for the members whose first coordinate is
    # 0.  A table built with no structure marks its rows in a new one
    oracle, gens, p, _ = _vector_case()
    filtered = path == "_Filtered"
    oracle = _membership_path(oracle, "_Codes" if filtered else path, monkeypatch)
    table = closure(gens[:4], oracle, p=p)
    if filtered:
        table = table.subtable(lambda rows: rows[:, 0] == 0)
    assert members_path(table.members) == _structure(path)
    assert table.order == (27 if filtered else 81)
    rng = random.Random(5)
    keys = list(closure(gens[:4], oracle).elements)
    keys += [bytes(rng.randrange(3) for _ in range(9)) for _ in range(200)]
    want = [k in frozenset(table.elements) for k in keys]
    assert 0 < sum(want) < len(keys)
    bare = FiniteGroupTable(oracle, (), table.rows)
    for members in (table.members, bare.members):
        assert [k in members for k in keys] == want
        assert members.marked(key_rows(keys, 9)).tolist() == want
        empty = members.marked(np.zeros((0, 9), dtype=np.uint8))
        assert empty.shape == (0,) and empty.dtype == bool


@pytest.mark.parametrize("path", ["_Codes", "decoded", "_KeySet"])
@pytest.mark.parametrize("case", [_matrix_sylow_case, _vector_case])
@pytest.mark.parametrize("given_p", [True, False])
def test_row_closures_list_and_refuse_as_the_scalar_path(monkeypatch, case, path, given_p):
    # the bulk hook multiplies rows, a block at a time; an oracle with no
    # hook multiplies one key at a time.  Both list the same elements in
    # the same order.  A block is filtered before the cap is checked, so
    # the bound is checked on the whole block's new elements: both fit a
    # cap of the exact order and refuse one below it with one message
    rows_oracle, gens, p, sizes = case()
    rows_oracle = _membership_path(rows_oracle, path, monkeypatch)
    scalar = dataclasses.replace(rows_oracle, mul_many=None)
    p = p if given_p else None
    order = closure(gens, scalar, p=p).order
    table = closure(gens, rows_oracle, cap=order, p=p)
    assert members_path(table.members) == _structure(path)
    assert table.rows.shape == (order, len(rows_oracle.identity))
    assert table.elements == closure(gens, scalar, cap=order, p=p).elements
    assert max(sizes, default=SCAN_BLOCK) == SCAN_BLOCK
    messages = []
    for oracle in (rows_oracle, scalar):
        with pytest.raises(EnumerationCapExceeded) as refused:
            closure(gens, oracle, cap=order - 1, p=p)
        messages.append(str(refused.value))
    assert messages == [f"closure exceeded the cap of {order - 1} elements"] * 2


@pytest.mark.parametrize("make", [closure, normal_closure])
def test_a_closure_given_its_order_never_grows_its_rows(monkeypatch, make):
    # the rows are one array, allocated at the order given, so no coset
    # grows it; with no order it starts at one row and doubles, and the
    # table holds it trimmed to the rows listed, in the same order
    oracle, gens, p, _ = _vector_case()
    lengths = []
    absorb = pgroup._Closure._absorb

    def absorbing(self, chunks, g):
        stored = absorb(self, chunks, g)
        lengths.append(len(self.rows))
        return stored

    monkeypatch.setattr(pgroup._Closure, "_absorb", absorbing)
    args = (gens, oracle) if make is closure else (gens, gens, oracle)
    sized = make(*args, p=p, order=3 ** 9)
    assert len(set(lengths)) == 1
    del lengths[:]
    unsized = make(*args, p=p)
    assert lengths == sorted(lengths) and lengths[0] < lengths[-1]
    assert lengths[-1] > len(unsized.rows) == unsized.order == 3 ** 9
    assert unsized.rows.base is None
    assert sized.elements == unsized.elements


def test_a_column_that_varies_late_keeps_its_constant_digit():
    # SL_2(F_3) is listed from its transvections: its upper corner varies
    # first, and its diagonal, 1 in the identity, only from the second
    # generator's coset on, so the members held then gain the digit 1 in
    # the diagonal's places.  Every key of the space is answered as by a
    # set of the elements, by `in` and by marked
    group, table = affine.enumerate_special_linear(2, FqConfig(3))
    members = table.members
    assert members_path(members) == "_Codes"
    assert members.const.tolist() == [1, 0, 0, 1]
    assert members.weights.tolist() == [3, 1, 9, 27]
    keys = [bytes(k) for k in itertools.product(range(3), repeat=4)]
    want = [k in frozenset(table.elements) for k in keys]
    assert sum(want) == table.order == 24
    assert [k in members for k in keys] == want
    assert members.marked(key_rows(keys, 4)).tolist() == want
    assert np.unpackbits(members.bits).sum() == 24


class _Relaid(_Codes):
    """The code store as it was before padding: every new column lays the
    codes held out again in a new bitmap, whatever its identity digit."""

    def _vary(self, columns):
        codes = self._held()
        for v in columns:
            codes += int(self.const[v]) * self.space
            self.weights[v] = self.space
            self.space *= self.q
        self.bits = np.zeros(-(-self.space // 8), dtype=np.uint8)
        self._set(codes)
        self._recoded()
        return self


@pytest.mark.parametrize("identity", [bytes(6), bytes((0, 0, 1, 0, 0, 0))])
@pytest.mark.parametrize("seed", range(3))
def test_a_padded_store_answers_as_a_relaid_one(monkeypatch, identity, seed):
    # random blocks over F_5 that vary one to three new columns each: a
    # store whose new columns all have identity digit 0 pads its bitmap
    # and decodes nothing; column 2, a diagonal with digit 1, re-lays it
    q, width = 5, len(identity)
    rng = random.Random(seed)
    const = list(identity)
    order = rng.sample(range(width), width)
    keys, blocks, varying = {identity}, [], []
    while order:
        varying += [order.pop() for _ in range(min(len(order), rng.randint(1, 3)))]
        block = set()
        for _ in range(rng.randint(1, 40)):
            row = const[:]
            for v in varying:
                row[v] = rng.randrange(q)
            block.add(bytes(row))
        block -= keys
        keys |= block
        blocks.append(key_rows(sorted(block), width))
    relays = []
    held = _Codes._held

    def counted(store):
        relays.append(store.space)
        return held(store)

    padded, relaid = _Codes(q, identity), _Relaid(q, identity)
    for store in (padded, relaid):
        store.mark(key_rows([identity], width))
    reference = pgroup._KeySet().mark(key_rows(sorted(keys), width))
    monkeypatch.setattr(_Codes, "_held", counted)
    diagonal_varied = False
    for rows in blocks:
        before = len(relays)
        assert padded.mark(rows) is padded
        if identity[2] and not diagonal_varied and (rows[:, 2] != 1).any():
            # the diagonal begins to vary: the one re-lay
            diagonal_varied = True
            assert len(relays) == before + 1
        else:
            assert len(relays) == before
    monkeypatch.undo()
    assert diagonal_varied == bool(identity[2])
    for rows in blocks:
        relaid.mark(rows)
    assert padded.weights.tolist() == relaid.weights.tolist()
    assert np.array_equal(padded.bits, relaid.bits)
    assert np.array_equal(padded._held(), relaid._held())
    probes = [bytes(rng.randrange(q) for _ in range(width)) for _ in range(200)]
    probes += rng.sample(sorted(keys), 50)
    want = [k in reference for k in probes]
    assert [k in padded for k in probes] == [k in relaid for k in probes] == want
    for store in (padded, relaid):
        assert store.marked(key_rows(probes, width)).tolist() == want


def test_a_row_that_differs_in_a_fixed_column_is_no_member():
    # the members of <e_0> in (Z/3)^3 vary in column 0 only, so (1, 1, 0)
    # has the code of e_0 and is refused by its fixed column alone
    oracle = dataclasses.replace(vector_oracle(3, 3), q=3)
    members = closure([bytes((1, 0, 0))], oracle).members
    assert members.weights.tolist() == [1, 0, 0]
    keys = [bytes((1, 0, 0)), bytes((1, 1, 0)), bytes((2, 0, 2)), bytes(3)]
    assert members._code(key_rows(keys, 3)).tolist() == [1, 1, 2, 0]
    assert [k in members for k in keys] == [True, False, False, True]
    assert members.marked(key_rows(keys, 3)).tolist() == [True, False, False, True]


@pytest.mark.parametrize(
    "limit,width,path", [(3 ** 4, 9, "_KeySet"), (BITMAP_CODES, 64, "_KeySet")]
)
def test_members_move_store_in_the_middle_of_a_listing(monkeypatch, limit, width, path):
    # under a bitmap limit of 3^4 codes, (Z/3)^9 moves from the bitmap to a
    # key set at its fifth varying column; over F_2 a last generator of all
    # ones takes the codes past 2^29 at once.  Either lists the elements of
    # the key-set path, in its order, after the bitmap was laid out again
    monkeypatch.setattr(pgroup, "BITMAP_CODES", limit)
    q = 3 if width == 9 else 2
    oracle = dataclasses.replace(vector_oracle(q, width), q=q)
    units = [bytes(int(i == j) for j in range(width)) for i in range(width)]
    gens = units if width == 9 else units[:3] + [bytes([1]) * width]
    stores = []
    vary = pgroup._Codes._vary

    def recorded(members, columns):
        stores.append(members_path(members))
        return vary(members, columns)

    monkeypatch.setattr(pgroup._Codes, "_vary", recorded)
    table = closure(gens, oracle, p=q)
    assert members_path(table.members) == path
    assert stores[0] == "_Codes" and "_Codes" in stores[1:]
    keys = closure(gens, dataclasses.replace(oracle, q=None), p=q)
    assert table.elements == keys.elements
    assert all(k in table for k in keys.elements)
    assert table.members.marked(keys.rows).all()


def test_theorem1_leaves_the_frattini_keys_unbuilt(monkeypatch):
    # theorem 1 reads Phi's order and members only, so neither model builds
    # a key for each of its elements
    tables = []
    index = FrattiniCount.index

    def frattini_kept(count, cap):
        phi, n = index(count, cap)
        tables.append(phi)
        return phi, n

    monkeypatch.setattr(FrattiniCount, "index", frattini_kept)
    report = unipotent.verify_theorem1(validate_gcm([[2, -2], [-2, 2]]), FqConfig(5), 4)
    assert report["group_engine"] == "enumeration" and report["h1_blackbox"] == 2
    sylow = affine.IwahoriSylow(2, FqConfig(3), 3, pgroup.DEFAULT_CAP)
    assert affine.verify_theorem1_affine(sylow)["h1_blackbox"] == 2
    tables.append(sylow.frattini[0])
    for phi in tables:
        assert phi.order > 1
        assert "elements" not in vars(phi)


def test_frattini_listing_peaks_under_32_mib():
    # A1^(1) over F_7 at height 6: Phi holds 7^7 elements of 9 bytes, about
    # 7 MiB as rows; keys with their list slots and the code copies of each
    # block took the peak to 51 MiB
    model = UnipotentModel(validate_gcm([[2, -2], [-2, 2]]), FqConfig(7), 6)
    oracle, gens = model.oracle(), standard_generators(model)
    tracemalloc.start()
    try:
        phi, index = FrattiniCount(gens, oracle, 7).index()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (phi.order, index) == (7 ** 7, 7 ** 2)
    assert peak < 32 * 2 ** 20


def test_a_streamed_frattini_count_holds_under_half_of_phi():
    # the same Phi given its layered order: the last two stages, of index
    # 7, stream from the 7^5 elements before them, a chunk at a time, so
    # the listing never holds all 7^7 rows of 9 bytes
    model = UnipotentModel(validate_gcm([[2, -2], [-2, 2]]), FqConfig(7), 6)
    oracle, gens = model.oracle(), standard_generators(model)
    tracemalloc.start()
    try:
        phi, index = FrattiniCount(gens, oracle, 7, model.lead).index()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (phi.order, index) == (7 ** 7, 7 ** 2)
    assert "rows" not in vars(phi)
    assert peak < phi.order * len(oracle.identity) / 2


def _traced_peak(call):
    """call's result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_codes_mark_a_block_of_18_columns_under_128_kib():
    # SCAN_BLOCK new members over F_3 that vary in all 18 columns: their
    # codes are formed a buffer at a time, where a matrix product first
    # copied the block at 8 bytes a cell (a 608 KiB peak)
    rng = np.random.default_rng(18)
    codes = rng.choice(3 ** 18, 2 * SCAN_BLOCK, replace=False)
    rows = (codes[:, None] // 3 ** np.arange(18) % 3).astype(np.uint8)
    members = _Codes(3, bytes(18)).mark(rows[:SCAN_BLOCK])
    assert members.space == 3 ** 18
    members, peak = _traced_peak(lambda: members.mark(rows[SCAN_BLOCK:]))
    assert members.marked(rows).all()
    assert peak < 128 * 2 ** 10


def test_a_block_of_matrix_products_holds_a_byte_a_row_per_value():
    # SL_2 over F_9[t]/(t^13), keys of 52 bytes, on random rows: the bulk
    # evaluator holds each column and monomial of a block as uint8 codes,
    # where intp values took the peaks of SCAN_BLOCK rows times a key to
    # 2.14 MiB and of SCAN_BLOCK row pairs to 27.2 MiB (0.51 and 4.06 MiB
    # as bytes)
    oracle = AffineMatrixGroup(2, FqConfig(3, 2), 13).oracle()
    rng = np.random.default_rng(9)
    a, b = rng.integers(0, 9, (2, SCAN_BLOCK, len(oracle.identity)), dtype=np.uint8)
    g = row_keys(b[:1])[0]
    # the law specialized at g and both plans made before the peaks
    oracle.mul_many(a, g)
    oracle.mul_pairs(a, b)
    many, many_peak = _traced_peak(lambda: oracle.mul_many(a, g))
    pairs, pairs_peak = _traced_peak(lambda: oracle.mul_pairs(a, b))
    keys, right = row_keys(a), row_keys(b)
    assert row_keys(many) == [oracle.mul(k, g) for k in keys]
    assert row_keys(pairs) == [oracle.mul(x, y) for x, y in zip(keys, right)]
    assert many_peak < 2 ** 20 and pairs_peak < 8 * 2 ** 20


def _vector_seeds_case():
    # (Z/3)^9 as the normal closure of its unit vectors
    oracle, gens, p, _ = _vector_case()
    return oracle, gens, gens, p


def _key_set_seeds_case():
    # the same, its members in a set of keys, which decodes in key order
    oracle, gens, _, p = _vector_seeds_case()
    return dataclasses.replace(oracle, q=None), gens, gens, p


def _frattini_seeds_case():
    # Phi of A1^(1) over F_5 at height 4, from its seeds
    model = UnipotentModel(validate_gcm([[2, -2], [-2, 2]]), FqConfig(5), 4)
    oracle, gens = model.oracle(), standard_generators(model)
    return oracle, FrattiniCount(gens, oracle, 5).seeds, gens, 5


@pytest.mark.parametrize(
    "case", [_vector_seeds_case, _key_set_seeds_case, _frattini_seeds_case]
)
def test_a_stage_after_a_streamed_one_lists_the_exact_subgroup(monkeypatch, case):
    # given the order divided by p, the two stages before the last look
    # last and stream; the last stage then decodes the rows from the
    # members and the table is the whole subgroup, as listed with no order
    oracle, seeds, conjugators, p = case()
    full = normal_closure(seeds, conjugators, oracle, p=p)
    monkeypatch.setattr(pgroup, "SCAN_BLOCK", 16)
    streamed = recorded_streams(monkeypatch)
    table = normal_closure(seeds, conjugators, oracle, p=p, order=full.order // p)
    assert streamed == streamed_stages(full.order // p, p, 16) != []
    assert table.order == full.order == len(table.rows)
    assert set(table.elements) == set(full.elements)
    assert table.members.marked(full.rows).all()
    # the true order streams the last two stages, and the table decodes its
    # rows
    streamed.clear()
    exact = normal_closure(seeds, conjugators, oracle, p=p, order=full.order)
    assert streamed == streamed_stages(full.order, p, 16) and "rows" not in vars(exact)
    assert exact.order == full.order
    assert set(exact.elements) == set(full.elements)


def test_a_streamed_stage_that_does_not_close_is_refused(monkeypatch):
    # a bulk hook that lists (Z/3)^7 + e_8 where the law gives (Z/3)^7 + e_7:
    # the streamed stage of e_7 marks the wrong cosets, and Dimino's
    # closing products e_7 + e_i are not members
    oracle, gens, p, _ = _vector_case()
    hook = oracle.mul_many

    def wrong(rows, g):
        return hook(rows, gens[8] if g == gens[7] else g)

    monkeypatch.setattr(pgroup, "SCAN_BLOCK", 64)
    oracle = dataclasses.replace(oracle, mul_many=wrong)
    with pytest.raises(ValueError, match="did not close"):
        normal_closure(gens[:8], (), oracle, p=p, order=3 ** 8)


def test_normal_closure_of_transposition_in_s3():
    oracle = symmetric_oracle()
    swap = bytes((1, 0, 2))
    cycle = bytes((1, 2, 0))
    plain = closure([swap], oracle)
    assert plain.order == 2
    normal = normal_closure([swap], [swap, cycle], oracle)
    assert normal.order == 6


def test_derived_subgroups():
    oracle = vector_oracle(5, 3)
    table = closure([bytes((1, 0, 0)), bytes((0, 1, 0)), bytes((0, 0, 1))], oracle, p=5)
    assert derived_subgroup(table, 5).order == 1

    h = heisenberg_oracle(5)
    table = closure([bytes((1, 0, 0)), bytes((0, 1, 0))], h, p=5)
    assert table.order == 125
    derived = derived_subgroup(table, 5)
    assert derived.order == 5
    assert set(derived.elements) == {bytes((0, 0, c)) for c in range(5)}

    s3 = symmetric_oracle()
    table = closure([bytes((1, 0, 2)), bytes((1, 2, 0))], s3)
    assert derived_subgroup(table).order == 3


def test_derived_subgroup_is_normal_and_quotient_abelian():
    h = heisenberg_oracle(3)
    gens = [bytes((1, 0, 0)), bytes((0, 1, 0))]
    table = closure(gens, h, p=3)
    derived = derived_subgroup(table, 3)
    for g in table.elements:
        for d in derived.elements:
            assert h.mul(h.mul(g, d), h.inv(g)) in derived
    # commutator of any two elements lands in the derived subgroup
    for a in table.elements:
        for b in table.elements:
            assert commutator(h, a, b) in derived


def test_frattini_dimensions():
    # (|Phi|, [G : Phi]); the index is p to the Frattini quotient dimension
    oracle = vector_oracle(3, 4)
    gens = [bytes([1 if i == j else 0 for j in range(4)]) for i in range(4)]
    phi, index = FrattiniCount(gens, oracle, 3).index()
    assert (phi.order, index) == (1, 3 ** 4)

    count = FrattiniCount([bytes([1])], cyclic_oracle(9), 3)
    phi, index = count.index()
    assert (phi.order, index) == (3, 3)
    assert not count.frattini_eq_derived

    h = heisenberg_oracle(5)
    phi, index = FrattiniCount([bytes((1, 0, 0)), bytes((0, 1, 0))], h, 5).index()
    assert (phi.order, index) == (5, 5 ** 2)


def test_frattini_subgroup_is_derived_when_generator_powers_vanish():
    # every generator of UT_3(F_3) has order 3, so both are the normal
    # closure of the generator commutators; a lower cap refuses either
    oracle, _, gens = unitriangular_oracle(3, 3)
    G = closure(gens, oracle, p=3)
    count = FrattiniCount(gens, oracle, 3)
    phi, index = count.index()
    assert (phi.order, index) == (3, 9)
    assert derived_subgroup(G, 3).elements == phi.elements
    assert count.frattini_eq_derived
    with pytest.raises(EnumerationCapExceeded):
        derived_subgroup(G, 3, cap=2)
    with pytest.raises(EnumerationCapExceeded):
        FrattiniCount(gens, oracle, 3).index(cap=2)


def test_frattini_dimension_is_minimal_generator_count():
    def minimal_generating_size(table):
        for size in range(len(table.elements) + 1):
            for combo in itertools.combinations(table.elements, size):
                if closure(combo, table.oracle).order == table.order:
                    return size
        raise AssertionError("unreachable")

    cases = []
    v32 = vector_oracle(3, 2)
    cases.append(closure([bytes((1, 0)), bytes((0, 1))], v32, p=3))
    cases.append(closure([bytes([1])], cyclic_oracle(9), p=3))
    h3 = heisenberg_oracle(3)
    cases.append(closure([bytes((1, 0, 0)), bytes((0, 1, 0))], h3, p=3))
    for table in cases:
        _, index = FrattiniCount(table.generators, table.oracle, 3).index()
        assert index == 3 ** minimal_generating_size(table)


def test_subgroup_index():
    oracle = vector_oracle(5, 2)
    sub = closure([bytes((1, 0))], oracle)
    assert subgroup_index(sub, [bytes((1, 0)), bytes((0, 1))], oracle) == 5

    h = heisenberg_oracle(3)
    h_gens = [bytes((1, 0, 0)), bytes((0, 1, 0))]
    center = closure([bytes((0, 0, 1))], h)
    assert subgroup_index(center, h_gens, h) == 9
    # a line that is not normal: its conjugates move it off its own coset
    assert assert_same_index(closure(h_gens[:1], h), h_gens, h) == 9

    # right cosets are counted without any normality assumption
    s3 = symmetric_oracle()
    sub = closure([bytes((1, 0, 2))], s3)
    assert subgroup_index(sub, [bytes((1, 0, 2)), bytes((1, 2, 0))], s3) == 3
    assert assert_same_index(sub, [bytes((1, 2, 0)), bytes((1, 0, 2))], s3) == 3


class _Probed:
    """A membership structure that keeps each block of rows tested at once."""

    def __init__(self, members):
        self.members = members
        self.probed = []

    def __contains__(self, key):
        return key in self.members

    def marked(self, rows):
        self.probed.append(rows)
        return self.members.marked(rows)


def test_coset_count_lists_each_coset_once(monkeypatch):
    # A4 at q = 5, H = 4 has 625 Frattini cosets.  Probing every candidate
    # against every representative took 941 426 products; by Dimino stages
    # each coset but the identity's is listed by one product, and the
    # scalar products and probes of representatives times generators stay
    # about index times generators
    a4 = validate_gcm([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    model = UnipotentModel(a4, FqConfig(5), 4)
    gens = standard_generators(model)
    plain = model.oracle()
    # the generators' 5th powers are trivial, so this is the Frattini subgroup
    phi = normal_closure(generator_commutators(plain, gens), gens, plain, p=5)
    assert phi.order == 5 ** 6
    probed = _Probed(phi.members)
    sub = FiniteGroupTable(plain, phi.generators, phi.rows, members=probed)

    bulk_rows = [0]
    real_mul_rows = pgroup._mul_rows

    def counted_mul_rows(oracle, rows, g):
        bulk_rows[0] += len(rows)
        return real_mul_rows(oracle, rows, g)

    monkeypatch.setattr(pgroup, "_mul_rows", counted_mul_rows)
    products = [0]
    assert subgroup_index(sub, gens, counting_oracle(plain, products)) == 625
    listing = bulk_rows[0] - sum(map(len, probed.probed))
    assert listing == 624
    assert products[0] < 2 * 10 ** 4


def test_coset_count_meets_the_cap_without_a_known_order():
    plain = vector_oracle(5, 2)
    gens = [bytes((1, 0)), bytes((0, 1))]
    line = closure(gens[:1], plain)
    with pytest.raises(EnumerationCapExceeded, match="coset count exceeded the cap of 4$"):
        subgroup_index(line, gens, plain, cap=4)
    assert subgroup_index(line, gens, plain, cap=5) == 5


def test_coset_count_needs_the_subgroups_generators():
    # a table filtered by membership lists no generators, so the Dimino
    # stages could not close the union of its cosets under them
    plain = vector_oracle(5, 2)
    gens = [bytes((1, 0)), bytes((0, 1))]
    scanned = FiniteGroupTable(plain, (), closure(gens[:1], plain).rows)
    with pytest.raises(ValueError, match="table of order 5 lists none"):
        subgroup_index(scanned, gens, plain)
    # the trivial subgroup needs none
    trivial = FiniteGroupTable(plain, (), key_rows([plain.identity], 2))
    assert subgroup_index(trivial, gens, plain) == 25


def test_is_perfect():
    trivial = closure([], vector_oracle(2, 1))
    assert is_perfect(trivial)
    z5 = closure([bytes([1])], cyclic_oracle(5), p=5)
    assert not is_perfect(z5, 5)
    h = heisenberg_oracle(3)
    assert not is_perfect(closure([bytes((1, 0, 0)), bytes((0, 1, 0))], h, p=3), 3)


def test_filtration_lemma_positive_cases():
    oracle = vector_oracle(3, 3)
    e1, e2, e3 = bytes((1, 0, 0)), bytes((0, 1, 0)), bytes((0, 0, 1))
    G = closure([e1, e2, e3], oracle, p=3)
    K1 = closure([e2, e3], oracle)
    K2 = closure([e3], oracle)
    K3 = closure([], oracle)

    report = check_filtration_lemma(G, [K1, K2, K3], G)
    assert report["hypothesis_holds"]
    assert report["conclusion_holds"]
    assert all(report["normal"])

    V = closure([e2, e3], oracle)
    report = check_filtration_lemma(G, [K1, K2, K3], V)
    assert report["inclusions"] == [True, True]
    assert report["conclusion_holds"]


def test_filtration_lemma_failing_hypothesis():
    oracle = vector_oracle(3, 2)
    e1, e2 = bytes((1, 0)), bytes((0, 1))
    G = closure([e1, e2], oracle, p=3)
    K1 = closure([e1], oracle)
    K2 = closure([], oracle)
    V = closure([e2], oracle)
    report = check_filtration_lemma(G, [K1, K2], V)
    assert report["inclusions"] == [False]
    assert not report["hypothesis_holds"]
    assert report["conclusion_holds"] is None


def test_filtration_lemma_chain_validation():
    oracle = vector_oracle(3, 2)
    e1, e2 = bytes((1, 0)), bytes((0, 1))
    G = closure([e1, e2], oracle, p=3)
    A = closure([e1], oracle)
    B = closure([e2], oracle)
    with pytest.raises(ChainNotNested):
        check_filtration_lemma(G, [A, B], G)
    with pytest.raises(ChainNotNested):
        check_filtration_lemma(G, [G, A], G)


def _hand_built_chains():
    """(G, chain, V) for each chain built by hand above, one with K_1 in
    V.K_2 but not in V, so that the inclusion test needs more than k' = 1,
    and the chains that are refused."""
    v3 = vector_oracle(3, 3)
    e1, e2, e3 = bytes((1, 0, 0)), bytes((0, 1, 0)), bytes((0, 0, 1))
    G3 = closure([e1, e2, e3], v3, p=3)
    chain3 = [closure([e2, e3], v3), closure([e3], v3), closure([], v3)]
    v2 = vector_oracle(3, 2)
    f1, f2 = bytes((1, 0)), bytes((0, 1))
    G2 = closure([f1, f2], v2, p=3)
    A, B, trivial = closure([f1], v2), closure([f2], v2), closure([], v2)
    return [
        (G3, chain3, G3),
        (G3, chain3, closure([e2, e3], v3)),
        (G3, chain3, closure([e2], v3)),
        (G3, chain3, closure([], v3)),
        (G2, [A, trivial], B),
        (G2, [A, B], G2),
        (G2, [G2, A], G2),
        (G2, [], G2),
    ]


def test_filtration_lemma_agrees_with_the_scalar_scan():
    reports = [assert_filtration_reports_agree(*case) for case in _hand_built_chains()]
    assert reports[2]["inclusions"] == [True, False]
    assert reports[2]["conclusion_holds"] is None
    assert reports[3]["inclusions"] == [False, False]
    assert reports[-3:] == [None] * 3


def test_characteristic_subgroups_under_conjugation():
    # conjugating the generating set must not change derived or Frattini
    h = heisenberg_oracle(5)
    gens = [bytes((1, 0, 0)), bytes((0, 1, 0))]
    table = closure(gens, h, p=5)
    rng = random.Random(17)
    derived_ref = set(derived_subgroup(table, 5).elements)
    frattini_ref = set(FrattiniCount(gens, h, 5).index()[0].elements)
    for _ in range(5):
        c = table.elements[rng.randrange(table.order)]
        conj_gens = [h.mul(h.mul(c, g), h.inv(c)) for g in gens]
        conj_table = closure(conj_gens, h, p=5)
        assert set(conj_table.elements) == set(table.elements)
        assert set(derived_subgroup(conj_table, 5).elements) == derived_ref
        assert set(FrattiniCount(conj_gens, h, 5).index()[0].elements) == frattini_ref


def test_key_rows_and_row_keys_invert_each_other():
    keys = [bytes((i, 2 * i % 7, 255 - i)) for i in range(20)]
    rows = key_rows(keys, 3)
    assert rows.shape == (20, 3) and rows.dtype == np.uint8
    assert rows[5].tolist() == [5, 3, 250]
    assert row_keys(rows) == keys
    assert key_rows([], 3).shape == (0, 3)
    assert row_keys(np.zeros((0, 3), dtype=np.uint8)) == []


def test_row_keys_keep_trailing_zero_bytes():
    # a bytes-string view of the rows would strip the trailing zeros
    keys = [bytes(4), bytes((3, 0, 0, 0)), bytes((0, 7, 1, 0)), bytes((1, 2, 3, 4))]
    assert row_keys(key_rows(keys, 4)) == keys
    assert row_keys(key_rows([bytes(6)], 6)) == [bytes(6)]


EVALUATOR_QS = [2, 3, 4, 5, 7, 8, 9, 11, 25, 27, 81, 243, 256]
# the tables of the largest fields take a second or more to build
field = functools.lru_cache(maxsize=None)(FqConfig.from_q)


def _random_polynomial_map(rng, fq, width, coordinates):
    """Terms of total degree 0 to 4 over variables drawn with repeats from
    a few coordinates of x and y."""
    terms = []
    for _ in range(coordinates):
        coordinate = []
        for _ in range(rng.randrange(12)):
            variables = rng.choices(range(2 * width), k=rng.randrange(5))
            xs = tuple(v for v in variables if v < width)
            ys = tuple(v - width for v in variables if v >= width)
            coordinate.append((rng.randrange(fq.q), xs, ys))
        terms.append(tuple(coordinate))
    return PolynomialMap(fq, tuple(terms))


@pytest.mark.parametrize("q", EVALUATOR_QS)
@pytest.mark.parametrize("n", [1, 9, SCAN_BLOCK + 1])
def test_bulk_hook_equals_the_scalar_evaluator(q, n):
    fq = field(q)
    rng = random.Random(1000 * q + n)
    width = 4
    law = _random_polynomial_map(rng, fq, width, coordinates=5)
    hook = bulk_hook(fq, law.at_y)
    keys = [bytes(rng.randrange(q) for _ in range(width)) for _ in range(n)]
    for _ in range(3):
        g = bytes(rng.randrange(q) for _ in range(width))
        rows = hook(key_rows(keys, width), g)
        # a row per key and a column per coordinate of the map
        assert rows.shape == (n, 5) and rows.dtype == np.uint8
        assert row_keys(rows) == [law(k, g) for k in keys]


@pytest.mark.parametrize("q", EVALUATOR_QS)
@pytest.mark.parametrize("n", [1, 9, SCAN_BLOCK + 1])
def test_bulk_hook_writes_single_term_coordinates_directly(q, n):
    # at y = g each coordinate is zero, a constant, x_v or c x_v: the
    # evaluator writes these without the packed sums
    fq = field(q)
    rng = random.Random(q + 7 * n)
    width = 4
    c = [rng.randrange(2, q) if q > 2 else 1 for _ in range(4)]
    law = PolynomialMap(
        fq,
        (
            (),
            ((c[0], (), ()),),
            ((c[1], (), (2,)),),
            ((1, (3,), ()),),
            ((c[2], (0,), ()),),
            ((c[3], (1,), (2,)),),
        ),
    )
    hook = bulk_hook(fq, law.at_y)
    keys = [bytes(width)]
    keys += [bytes(rng.randrange(q) for _ in range(width)) for _ in range(n - 1)]
    for g in (bytes(width), bytes((1, 0, 1, 0)), bytes((0, 0, q - 1, 0))):
        polys = law.at_y(g)
        assert all(len(poly) <= 1 and len(poly[0][1]) <= 1 for poly in polys if poly)
        assert row_keys(hook(key_rows(keys, width), g)) == [law(k, g) for k in keys]


def test_bulk_hook_folds_long_sums_over_f256():
    # F_256 packs its 8 binary digits into lanes of 7 bits, which overflow
    # after 127 terms; here one coordinate has every x monomial of degree up
    # to 4 in 4 variables (341 terms) with a code whose digits are all 1, so
    # on the all-ones key every lane receives 341 ones
    fq = field(256)
    width = 4
    every = [
        xs for degree in range(5) for xs in itertools.product(range(width), repeat=degree)
    ]
    rng = random.Random(256)
    law = PolynomialMap(
        fq,
        (
            tuple((255, xs, ()) for xs in every),
            tuple((rng.randrange(1, 256), xs, (0,)) for xs in every),
        ),
    )
    g = bytes((1, 2, 3, 4))
    assert all(len(poly) > 127 for poly in law.at_y(g))
    keys = [bytes((1,) * width)]
    keys += [bytes(rng.randrange(256) for _ in range(width)) for _ in range(99)]
    rows = bulk_hook(fq, law.at_y)(key_rows(keys, width), g)
    assert row_keys(rows) == [law(k, g) for k in keys]


def _with_zero_columns(keys, zero):
    """The keys with the coordinates in zero set to 0."""
    return [bytes(0 if i in zero else a for i, a in enumerate(k)) for k in keys]


@pytest.mark.parametrize("q", EVALUATOR_QS)
@pytest.mark.parametrize("n", [1, 9, SCAN_BLOCK + 1])
def test_bulk_hook_drops_the_terms_of_zero_columns_as_the_scalar_evaluator(q, n):
    # blocks with no zero column, some, and all but one, each times two
    # factors and then the first again: the hook keeps one factor's
    # polynomials and one plan of live terms, and both must follow the
    # block and the factor
    fq = field(q)
    rng = random.Random(31 * q + n)
    width = 6
    law = _random_polynomial_map(rng, fq, width, coordinates=6)
    hook = bulk_hook(fq, law.at_y)
    keys = [bytes(rng.randrange(1, q) for _ in range(width)) for _ in range(n)]
    factors = [bytes(rng.randrange(q) for _ in range(width)) for _ in range(2)]
    for zero in [(), (1, 4), (0, 2, 3), tuple(range(1, width))]:
        block = _with_zero_columns(keys, zero)
        for g in factors + factors[:1]:
            rows = hook(key_rows(block, width), g)
            assert row_keys(rows) == [law(k, g) for k in block]


@pytest.mark.parametrize("q", [7, 11, 25, 49])
def test_bulk_hook_folds_lane_sums_before_the_residue_table(q):
    # every x monomial of degree up to 5 in 4 variables is a term (1 365)
    # with a code whose digits are all p - 1, so on the all-ones key every
    # lane would sum to 1 365 (p - 1), past the residue table, and the sum
    # is folded on the way; a coordinate of 40 terms is not
    fq = field(q)
    width = 4
    every = [
        xs for degree in range(6) for xs in itertools.product(range(width), repeat=degree)
    ]
    rng = random.Random(q)
    law = PolynomialMap(
        fq,
        (
            tuple((q - 1, xs, ()) for xs in every),
            tuple((rng.randrange(1, q), xs, (0,)) for xs in every[:40]),
        ),
    )
    g = bytes((1, 2, 3, 4))
    long, short = map(len, law.at_y(g))
    assert long * (fq.p - 1) >= RESIDUE_SUMS > short * (fq.p - 1)
    keys = [bytes((1,) * width)]
    keys += [bytes(rng.randrange(q) for _ in range(width)) for _ in range(99)]
    rows = bulk_hook(fq, law.at_y)(key_rows(keys, width), g)
    assert row_keys(rows) == [law(k, g) for k in keys]


def test_bulk_hook_specializes_once_for_blocks_times_one_factor():
    # k blocks times one factor call right_polys once; a new factor calls
    # it again
    fq = field(7)
    rng = random.Random(7)
    width, k = 4, 3
    law = _random_polynomial_map(rng, fq, width, coordinates=4)
    calls = []

    def right_polys(g):
        calls.append(g)
        return law.at_y(g)

    hook = bulk_hook(fq, right_polys)
    keys = [bytes(rng.randrange(7) for _ in range(width)) for _ in range(k * SCAN_BLOCK)]
    rows = key_rows(keys, width)
    g = bytes((1, 0, 2, 3))
    for start in range(0, len(rows), SCAN_BLOCK):
        hook(rows[start : start + SCAN_BLOCK], g)
    assert calls == [g]
    hook(rows[:SCAN_BLOCK], bytes(width))
    hook(rows[:SCAN_BLOCK], g)
    assert calls == [g, bytes(width), g]


def _pair_blocks(rng, q, width, n, zero_left, zero_right):
    """Two (n, width) blocks of random codes below q, the columns in
    zero_left zero throughout the first and those in zero_right throughout
    the second."""
    return tuple(
        key_rows(_with_zero_columns(
            [bytes(rng.randrange(q) for _ in range(width)) for _ in range(n)], zero
        ), width)
        for zero in (zero_left, zero_right)
    )


def _assert_pairs_equal_scalar_products(oracle, q, n, seed):
    # blocks with no zero column, zero columns on the left side, on the
    # right side and on both, through one oracle, so that the joint hook
    # follows the live columns from block to block
    rng = random.Random(seed)
    width = len(oracle.identity)
    zero = tuple(range(1, width, 2))
    for zero_left, zero_right in [((), ()), (zero, ()), ((), zero), (zero, zero[1:])]:
        a, b = _pair_blocks(rng, q, width, n, zero_left, zero_right)
        want = [oracle.mul(x, y) for x, y in zip(row_keys(a), row_keys(b))]
        rows = oracle.mul_pairs(a, b)
        assert rows.shape == (n, width) and row_keys(rows) == want


@pytest.mark.parametrize("q", EVALUATOR_QS)
@pytest.mark.parametrize("n", [1, 9, SCAN_BLOCK + 1])
def test_row_pairs_of_the_matrix_law_equal_its_scalar_products(q, n):
    oracle = AffineMatrixGroup(2, field(q), 2).oracle()
    _assert_pairs_equal_scalar_products(oracle, q, n, seed=17 * q + n)


@pytest.mark.parametrize("n", [1, 9, SCAN_BLOCK + 1])
def test_row_pairs_of_the_bch_law_equal_its_scalar_products(n):
    _assert_pairs_equal_scalar_products(_bch_oracle(), 5, n, seed=n)


@pytest.mark.parametrize("n", [5, FEW_ROWS + 1, SCAN_BLOCK + 1])
def test_left_products_equal_scalar_products(n):
    # bulk products of row pairs past FEW_ROWS rows, each of at most
    # SCAN_BLOCK rows; one scalar product per row up to it and for an oracle
    # with no mul_pairs
    rng = np.random.default_rng(n)
    oracle = AffineMatrixGroup(2, FqConfig(5), 3).oracle()
    pairs = []
    counted = dataclasses.replace(
        oracle, mul_pairs=lambda a, b: pairs.append(len(a)) or oracle.mul_pairs(a, b)
    )
    rows = rng.integers(0, 5, (n, len(oracle.identity)), dtype=np.uint8)
    key = bytes(rng.integers(0, 5, len(oracle.identity), dtype=np.uint8))
    want = [oracle.mul(key, x) for x in row_keys(rows)]
    for each in (counted, dataclasses.replace(oracle, mul_pairs=None)):
        assert row_keys(_left_rows(each, key, rows)) == want
    assert pairs == ([len(b) for b in pgroup._blocks(rows)] if n > FEW_ROWS else [])


@pytest.mark.parametrize(
    "make_oracle",
    [lambda: AffineMatrixGroup(2, FqConfig(5), 3).oracle(), lambda: _bch_oracle()],
    ids=["matrix", "bch"],
)
def test_bulk_products_past_a_block_equal_one_product(make_oracle):
    # 2.5 blocks: _mul_rows and _left_rows form a bulk product per block of
    # at most SCAN_BLOCK rows, written into one output, which equals the one
    # bulk product of all the rows and the products formed one row at a time
    oracle = make_oracle()
    rng = np.random.default_rng(25)
    n = 5 * SCAN_BLOCK // 2
    rows = rng.integers(0, 5, (n, len(oracle.identity)), dtype=np.uint8)
    g = bytes(rng.integers(0, 5, len(oracle.identity), dtype=np.uint8))
    left = np.broadcast_to(np.frombuffer(g, dtype=np.uint8), rows.shape)
    sizes = []

    def counted(product):
        return lambda a, b: sizes.append(len(a)) or product(a, b)

    hooked = dataclasses.replace(
        oracle, mul_many=counted(oracle.mul_many), mul_pairs=counted(oracle.mul_pairs)
    )
    right = pgroup._mul_rows(hooked, rows, g)
    assert sizes == [SCAN_BLOCK, SCAN_BLOCK, SCAN_BLOCK // 2]
    assert np.array_equal(right, oracle.mul_many(rows, g))
    assert np.array_equal(_left_rows(hooked, g, rows), oracle.mul_pairs(left, rows))
    assert sizes == [SCAN_BLOCK, SCAN_BLOCK, SCAN_BLOCK // 2] * 2
    scalar = dataclasses.replace(oracle, mul_many=None, mul_pairs=None)
    assert np.array_equal(pgroup._mul_rows(scalar, rows, g), right)
    assert row_keys(_left_rows(scalar, g, rows)) == [oracle.mul(g, x) for x in row_keys(rows)]


def test_row_pairs_build_their_hook_on_first_use_only(monkeypatch):
    built = []

    def counting_hook(fq, right_polys):
        built.append(right_polys)
        return bulk_hook(fq, right_polys)

    monkeypatch.setattr(law, "bulk_hook", counting_hook)
    # a BCH oracle runs a closure and is never asked for pairs: its one
    # hook is the right multiplication
    model = UnipotentModel(validate_gcm([[2, -2], [-2, 2]]), FqConfig(5), 4)
    oracle = model.oracle()
    assert closure(standard_generators(model), oracle, p=5).order > 1
    assert len(built) == 1
    # a matrix oracle, built by a new group, builds the joint hook on its
    # first pair product and keeps it for the second
    group = AffineMatrixGroup(2, FqConfig(5), 3)
    oracle = group.oracle()
    assert len(built) == 2
    rows = key_rows([group.elementary(0, 1, 1, 1)] * 9, group.width)
    oracle.mul_pairs(rows, rows)
    oracle.mul_pairs(rows, rows)
    assert len(built) == 3


def test_an_index_p_stage_multiplies_by_its_generator_alone():
    # each coset H g^i is listed from H g^(i-1) times g, so the bulk
    # products of a p-group closure are by its stages' generators, and
    # each stage specializes the law once
    fq = FqConfig(5)
    plain = AffineMatrixGroup(2, fq, 3).oracle()
    factors = []

    def mul_many(rows, g):
        if not factors or factors[-1] != g:
            factors.append(g)
        return plain.mul_many(rows, g)

    oracle = dataclasses.replace(plain, mul_many=mul_many)
    table = closure(sylow_generators(2, fq, 3), oracle, p=5)
    assert table.order == 5 ** 7
    assert len(factors) == len(set(factors)) <= 7


def _dimino_from_the_subgroup(self, g):
    """The reference for _Closure._dimino: every new coset H e listed as
    the rows of H times e, SCAN_BLOCK at a time."""
    subgroup = self._listed()
    chunks = [
        subgroup[start : start + SCAN_BLOCK]
        for start in range(0, len(subgroup), SCAN_BLOCK)
    ]
    self._absorb(chunks, g)
    reps = [g]
    for r in reps:
        for s in self.gens:
            e = self.oracle.mul(r, s)
            if e not in self.members:
                self._absorb(chunks, e)
                reps.append(e)


@pytest.mark.parametrize("given_order", [False, True])
def test_cosets_listed_from_the_coset_before_as_from_the_subgroup(monkeypatch, given_order):
    # the (2, 5, 3) Sylow has cosets of up to 5^6 rows, about four blocks,
    # held in a growing array without an order and in one allocated at it:
    # listing H r s as (H r) s gives the elements of breadth-first
    # enumeration, and the rows, the order and the bulk rows of listing it
    # as H (r s)
    fq = FqConfig(5)
    gens = sylow_generators(2, fq, 3)
    order = 5 ** 7 if given_order else None
    tables, bulk_rows = [], []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(pgroup._Closure, "_dimino", _dimino_from_the_subgroup)
        products, rows = [0], [0]
        oracle = counting_oracle(AffineMatrixGroup(2, fq, 3).oracle(), products, rows)
        tables.append(closure(gens, oracle, p=5, order=order))
        bulk_rows.append(rows[0])
    listed, reference = tables
    assert listed.order == 5 ** 7 and bulk_rows[0] == bulk_rows[1] < 5 ** 7
    assert np.array_equal(listed.rows, reference.rows)
    oracle = AffineMatrixGroup(2, fq, 3).oracle()
    assert set(listed.elements) == set(breadth_first_closure(gens, oracle))


def _bch_oracle():
    return UnipotentModel(validate_gcm([[2, -2], [-2, 2]]), FqConfig(5), 4).oracle()


def _matrix_oracle():
    return AffineMatrixGroup(3, FqConfig.from_q(9), 2).oracle()


@pytest.mark.parametrize("make_oracle", [_bch_oracle, _matrix_oracle])
def test_bulk_multiplication_leaves_no_reference_cycles(make_oracle):
    # a cycle would hold a call's arrays until the collector runs, so the
    # peak memory of an enumeration would grow with the garbage
    oracle = make_oracle()
    rng = random.Random(3)
    width = len(oracle.identity)
    keys = [bytes(rng.randrange(5) for _ in range(width)) for _ in range(300)]
    g = keys.pop()
    rows = key_rows(keys, width)
    gc.collect()
    gc.disable()
    try:
        oracle.mul_many(rows, g)
        assert gc.collect() == 0
    finally:
        gc.enable()


UNITRIANGULAR = [(3, 3), (4, 2), (4, 3), (5, 2)]


def _random_keys(rng, oracle, p, count):
    width = len(oracle.identity)
    return [bytes(rng.randrange(p) for _ in range(width)) for _ in range(count)]


@pytest.mark.parametrize("n,p", UNITRIANGULAR)
def test_layered_order_of_unitriangular_group(n, p):
    oracle, lead, gens = unitriangular_oracle(n, p)
    whole = p ** (n * (n - 1) // 2)
    assert layered_order(gens, oracle, lead, p) == whole
    assert layered_order(gens[::-1], oracle, lead, p) == whole
    assert layered_order([], oracle, lead, p) == 1
    assert layered_order([oracle.identity], oracle, lead, p) == 1
    assert layered_order(gens[:1], oracle, lead, p) == p


@pytest.mark.parametrize("n,p", UNITRIANGULAR)
def test_layered_order_equals_enumeration(n, p):
    # p = 2 has nontrivial squares; repeated and dependent generators must
    # not count twice
    oracle, lead, gens = unitriangular_oracle(n, p)
    rng = random.Random(10 * n + p)
    for size in (1, 2, 3, 3, 4):
        keys = _random_keys(rng, oracle, p, size)
        keys += [oracle.mul(keys[0], keys[-1]), keys[0]]
        assert layered_order(keys, oracle, lead, p) == closure(keys, oracle).order


@pytest.mark.parametrize("n,p", UNITRIANGULAR)
def test_layered_normal_closure_equals_enumeration(n, p):
    oracle, lead, gens = unitriangular_oracle(n, p)
    rng = random.Random(20 * n + p)
    cases = [(gens[:1], gens), (gens[-1:], gens[:1])]
    cases += [
        (_random_keys(rng, oracle, p, 2), _random_keys(rng, oracle, p, 2))
        for _ in range(4)
    ]
    for seeds, conjugators in cases:
        got = layered_order(seeds, oracle, lead, p, conjugators)
        assert got == normal_closure(seeds, conjugators, oracle).order
    # the normal closure of one generator under all of them is more than
    # the group it generates
    assert layered_order(gens[:1], oracle, lead, p, gens) > p


def test_layered_order_refuses_a_sequence_too_long():
    # a new level on every call: each element joins the sequence, and its
    # conjugate, itself, joins again, so the sequence would grow for ever;
    # past log_p of the 256 keys, 3.4 elements, it is refused
    fresh = itertools.count()
    g = bytes([1])
    with pytest.raises(NotAFiltration, match="a sequence of more than 3"):
        layered_order([g], vector_oracle(5, 1), lambda key: (next(fresh), [1]), 5, [g])


def test_layered_order_of_heisenberg_group():
    p = 5
    oracle = heisenberg_oracle(p)

    def lead(key):
        return (1, list(key[:2])) if key[0] or key[1] else (2, [key[2]])

    x, y = bytes((1, 0, 0)), bytes((0, 1, 0))
    assert layered_order([x, y], oracle, lead, p) == p ** 3
    assert layered_order([x], oracle, lead, p, [y]) == p ** 2
    assert layered_order([x, bytes((2, 0, 3))], oracle, lead, p) == p ** 2
