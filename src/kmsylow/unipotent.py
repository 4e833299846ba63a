"""Height-truncated exponential group over F_q.

Elements are byte keys: coefficient vectors over F_q in the graded basis of
a truncated positive Lie algebra.  Multiplication is the BCH series, which
terminates because every bracket of total height above the cutoff vanishes.
The series denominators only involve primes up to the cutoff, so the law is
exact whenever p exceeds the cutoff.

The model runs the series once, over polynomials in the coordinates of both
factors (dicts summed in place by fields.add_scaled), so its group law is a
fixed polynomial map over F_q (law.PolynomialMap).  The inverse is negation,
so the oracle is law.law_oracle on the law and the negation map: a product
is one evaluation of the law, and right multiplication by a fixed element is
the law specialized at that element, which feeds the engine's bulk hook.
"""

from .bch import bch_lyndon_terms
from .errors import (
    CharacteristicTooSmall,
    EnumerationCapExceeded,
    HeightExceedsCutoff,
    NotPositiveRealRoot,
)
from .fields import add_scaled, echelon_insert, rref
from .gcm import GeneralizedCartanMatrix, check_off_diagonal_hypothesis, validate_gcm
from .law import PolynomialMap, law_oracle, lead_map
from .lie import bracket, build_positive_part, standard_factorization
from .pgroup import DEFAULT_CAP, FrattiniCount, _log_exact, closure, layered_order
from .roots import REAL, positive_real_roots_up_to_height, root_status, simple_root


def _poly_mul(f, g, fq):
    """The product of two polynomials over F_q in the coordinate variables,
    each a dict from a sorted tuple of variable indices (with multiplicity)
    to a nonzero code."""
    add, mul = fq.add, fq.mul
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(sorted(m1 + m2))
            s = add(out.get(m, 0), mul(c1, c2))
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


class UnipotentModel:
    """Finite group exp(n) for a truncated Serre-presented positive part n
    over F_q, with byte keys of field codes as elements."""

    def __init__(self, gcm, fq, cutoff):
        if fq.p <= cutoff:
            raise CharacteristicTooSmall(
                f"series denominators need p > {cutoff}, got p = {fq.p}"
            )
        self.gcm = gcm
        self.fq = fq
        self.cutoff = cutoff
        # integer constants mapped into fq, so they lie in its prime subfield
        self.algebra = build_positive_part(gcm, cutoff, fq)
        self.dim = dim = self.algebra.dimension
        self.heights = tuple(self.algebra.height_of(i) for i in range(dim))
        # the height filtration is central with elementary abelian layers,
        # so its leading-term map is the layered engine's
        self.lead = lead_map(fq, bytes(dim), self.heights)
        # the F_p digits of each code
        self._digits = [fq.decode(c) for c in range(fq.q)]
        # series terms as (Lyndon word over {left, right}, coefficient code)
        self._terms = tuple(
            (word, fq.from_fraction(coeff))
            for word, coeff in bch_lyndon_terms(cutoff)
        )
        # the law as polynomials in x = variables 0..dim-1, y = dim..2dim-1
        x = [{(i,): 1} for i in range(dim)]
        y = [{(dim + i,): 1} for i in range(dim)]
        self._law = PolynomialMap(fq, self._split(self._combine(x, y)))

    def _bracket_vec(self, a, b):
        fq = self.fq
        out = [{} for _ in range(self.dim)]
        for (i, j), entries in self.algebra.structure.items():
            if not entries:
                continue
            # a word of weight w is zero below height w, so many factors
            # are empty and their products need not be formed
            term = _poly_mul(a[i], b[j], fq) if a[i] and b[j] else {}
            if a[j] and b[i]:
                add_scaled(term, fq.neg(1), _poly_mul(a[j], b[i], fq), fq)
            if not term:
                continue
            for k, c in entries:
                add_scaled(out[k], c, term, fq)
        return out

    def _word_value(self, word, values):
        got = values.get(word)
        if got is not None:
            return got
        u, v = standard_factorization(word)
        out = self._bracket_vec(
            self._word_value(u, values), self._word_value(v, values)
        )
        values[word] = out
        return out

    def _combine(self, x, y):
        values = {(0,): x, (1,): y}
        out = [{} for _ in range(self.dim)]
        for word, c in self._terms:
            for total, poly in zip(out, self._word_value(word, values)):
                add_scaled(total, c, poly, self.fq)
        return out

    def _split(self, polys):
        """Each polynomial in (x, y) as (code, x indices, y indices) terms."""
        dim = self.dim

        def term(m, c):
            return c, tuple(v for v in m if v < dim), tuple(v - dim for v in m if v >= dim)

        return tuple(tuple(term(m, c) for m, c in sorted(poly.items())) for poly in polys)

    def oracle(self):
        fq = self.fq
        # every series term of length 2 or more vanishes on (x, -x)
        negation = PolynomialMap(
            fq, tuple(((fq.neg(1), (i,), ()),) for i in range(self.dim))
        )
        return law_oracle(fq, bytes(self.dim), self._law, negation)

    def fp_vector(self, key):
        """The F_p digits of every coordinate of a key."""
        return [a for c in key for a in self._digits[c]]

    def bracket_fp(self, x, y):
        """The Lie bracket of two F_p digit vectors, as an F_p digit vector,
        taken on their nonzero coordinates by lie.bracket over the model's F_q."""
        r, encode = self.fq.r, self.fq.encode
        a, b = (
            {i // r: c for i in range(0, len(v), r) if (c := encode(v[i : i + r]))}
            for v in (x, y)
        )
        got = bracket(self.algebra, a, b)
        return self.fp_vector(got.get(k, 0) for k in range(self.dim))


def root_group_element(model, gamma, a):
    """Element with coefficient a on the basis vector of a positive real
    root and zero elsewhere."""
    status = root_status(model.gcm, gamma)
    if status.tag != REAL or not gamma.is_positive():
        raise NotPositiveRealRoot(
            f"{gamma.dense(model.gcm.labels)} is not a positive real root"
        )
    ht = sum(n for _, n in gamma.items)
    if ht > model.cutoff:
        raise HeightExceedsCutoff(
            f"height {ht} exceeds the cutoff {model.cutoff}"
        )
    out = bytearray(model.dim)
    out[model.algebra.by_degree[gamma][0]] = a
    return bytes(out)


def frattini_dimension_linear(model):
    """dim of the group modulo its Frattini subgroup, computed as
    r * dim(n / [n, n]) by ranking the bracket span over F_p: the
    structure constants lie in the prime subfield of model.fq."""
    rows = []
    for entries in model.algebra.structure.values():
        row = [0] * model.dim
        for k, c in entries:
            row[k] = c
        rows.append(row)
    _, pivots = rref(rows, model.fq)
    return model.fq.r * (model.dim - len(pivots))


def standard_generators(model):
    """One element per (simple root, F_q basis vector) pair."""
    out = []
    for s in model.gcm.labels:
        alpha = simple_root(s)
        for code in model.fq.basis:
            out.append(root_group_element(model, alpha, code))
    return out


def _non_simple_real_root_elements(model):
    out = []
    for gamma in sorted(
        positive_real_roots_up_to_height(model.gcm, model.cutoff),
        key=lambda g: (sum(n for _, n in g.items), g.items),
    ):
        if sum(n for _, n in gamma.items) == 1:
            continue
        for code in model.fq.basis:
            out.append(root_group_element(model, gamma, code))
    return out


def _lie_closure(model, seeds, partners=None):
    """F_p digit vectors spanning the smallest subspace that holds the seeds
    and is closed under the bracket with itself or, given partners, with
    their span.  The digits lie in the prime subfield of model.fq, so
    elimination over model.fq is elimination over F_p."""
    members, basis, pivots = [], [], []
    work = list(seeds)
    while work:
        v = work.pop()
        if echelon_insert(basis, pivots, v, model.fq):
            work += [
                model.bracket_fp(v, w)
                for w in (members if partners is None else partners)
            ]
            members.append(v)
    return members


def lazard_orders(model, generators, rhs_generators):
    """Orders of the subgroup the generators generate, of its Frattini
    subgroup and of the subgroup the rhs generators generate, by linear
    algebra alone.

    Since p exceeds the cutoff, which bounds the nilpotency class, the
    Lazard correspondence (Khukhro, p-Automorphisms of Finite p-Groups,
    ch. 9-10) sends the subgroup a set generates to the F_p-Lie subalgebra
    that the logarithms generate (an element's logarithm is its coordinate
    vector), and the derived subgroup to the derived algebra; the group has
    exponent p, so that is also the Frattini subgroup.  A subgroup has
    order p^d, with d the F_p-dimension of its algebra.
    """
    p = model.fq.p
    logs = [model.fp_vector(g) for g in generators]
    algebra = _lie_closure(model, logs)
    brackets = [
        model.bracket_fp(x, y) for i, x in enumerate(logs) for y in logs[i + 1 :]
    ]
    derived = _lie_closure(model, brackets, algebra)
    rhs = _lie_closure(model, [model.fp_vector(g) for g in rhs_generators])
    return p ** len(algebra), p ** len(derived), p ** len(rhs)


def verify_theorem1(gcm, fq, cutoff, cap=DEFAULT_CAP):
    """Frattini-subgroup verification on one truncated instance.

    Reports the first-homology dimension four ways (enumeration, the layered
    engine, bracket-span linear algebra and the predicted value size * r),
    whether the Frattini subgroup equals the derived subgroup (read from
    the standard generators' p-th powers), the orders of both sides of the
    non-simple real-root comparison, and whether the standard generators
    generate the whole group; the orders and generation from the group
    engine named in group_engine, and also by the Lazard correspondence.

    The layered orders are an exact preflight: each enumeration call gets
    the known order of its table and refuses before any multiplication when
    that order is over the cap.  Enumeration lists the Frattini subgroup and
    counts its cosets (pgroup.FrattiniCount, as in the matrix model), so
    the group itself is never listed: h1_blackbox is log_p of the index,
    and the generators generate when |Phi| times the index is |G|.  On a
    refusal h1_blackbox is None and the group fields come from the layered
    engine.
    """
    if not isinstance(gcm, GeneralizedCartanMatrix):
        gcm = validate_gcm(gcm)
    check_off_diagonal_hypothesis(gcm, fq.p)
    model = UnipotentModel(gcm, fq, cutoff)
    oracle = model.oracle()
    p = fq.p
    gens = standard_generators(model)
    rhs_gens = _non_simple_real_root_elements(model)
    full_order = fq.q ** model.dim

    count = FrattiniCount(gens, oracle, p, model.lead)
    order, frattini_order = count.order, count.frattini_order
    rhs_order = layered_order(rhs_gens, oracle, model.lead, p)

    try:
        frattini, index = count.index(cap)
        rhs = closure(rhs_gens, oracle, cap=cap, p=p, order=rhs_order)
    except EnumerationCapExceeded:
        group_engine = "layered"
        generators_generate = order == full_order
        h1_blackbox = None
        lhs_order = frattini_order
    else:
        group_engine = "enumeration"
        generators_generate = frattini.order * index == full_order
        h1_blackbox = _log_exact(index, p)
        lhs_order = frattini.order
        rhs_order = rhs.order

    order_linear, lhs_linear, rhs_linear = lazard_orders(model, gens, rhs_gens)
    return {
        "gcm": [list(row) for row in gcm.rows],
        "q": fq.q,
        "H": cutoff,
        "h1_blackbox": h1_blackbox,
        "h1_layered": count.h1_layered,
        "h1_linear": frattini_dimension_linear(model),
        "h1_predicted": gcm.size * fq.r,
        "frattini_eq_derived": count.frattini_eq_derived,
        "thm_ii_lhs_order": lhs_order,
        "thm_ii_rhs_order": rhs_order,
        "generators_generate": generators_generate,
        "thm_ii_lhs_order_linear": lhs_linear,
        "thm_ii_rhs_order_linear": rhs_linear,
        "generators_generate_linear": order_linear == full_order,
        "group_engine": group_engine,
        "caveat": (
            "finite height-truncated model; group-level claims are checked "
            "in the truncation, not in the full pro-p group"
        ),
    }
