"""Tests for the law module: its one leading-term map against a direct
reading of a height filtration, and its place as a leaf of the package."""

import ast
import random
from pathlib import Path

import pytest

import kmsylow.law as law
from kmsylow.affine import IwahoriSylow, iwahori_level
from kmsylow.fields import FqConfig
from kmsylow.gcm import validate_gcm
from kmsylow.pgroup import DEFAULT_CAP, FrattiniCount
from kmsylow.unipotent import UnipotentModel, standard_generators


def height_lead(fq, heights):
    """The leading-term map of the filtration by the height of each
    coordinate, for keys whose identity is zero, read directly: a key other
    than the identity goes to (the least height of a nonzero coordinate,
    the F_p digits of the coordinates of that height).  The reference for
    law.lead_map."""
    at_height = {}
    for i, h in enumerate(heights):
        at_height.setdefault(h, []).append(i)
    digits = [fq.decode(c) for c in range(fq.q)]

    def lead(key):
        level = min(heights[i] for i, c in enumerate(key) if c)
        return level, [a for i in at_height[level] for a in digits[key[i]]]

    return lead


def _random_keys(rng, fq, identity, n):
    """n random keys over F_q of the identity's width, none the identity."""
    keys = []
    while len(keys) < n:
        key = bytes(rng.randrange(fq.q) for _ in identity)
        if key != identity:
            keys.append(key)
    return keys


def _assert_leads_agree(lead, reference, fq, identity, keys):
    """lead on each key against reference on the key minus the identity."""
    for key in keys:
        shifted = bytes(fq.sub(a, e) for a, e in zip(key, identity))
        assert lead(key) == reference(shifted)


@pytest.mark.parametrize(
    "rows,q,cutoff",
    [([[2, -2], [-2, 2]], 5, 4), ([[2, -3], [-3, 2]], 7, 5), ([[2, -2], [-2, 2]], 25, 4)],
)
def test_lead_map_reads_the_height_filtration_of_the_bch_model(rows, q, cutoff):
    fq = FqConfig.from_q(q)
    model = UnipotentModel(validate_gcm(rows), fq, cutoff)
    identity = bytes(model.dim)
    count = FrattiniCount(standard_generators(model), model.oracle(), fq.p)
    keys = _random_keys(random.Random(q), fq, identity, 300)
    keys += [s for s in count.seeds if s != identity]
    assert len(set(model.heights)) == cutoff
    _assert_leads_agree(model.lead, height_lead(fq, model.heights), fq, identity, keys)


@pytest.mark.parametrize("m,q,k", [(2, 3, 3), (2, 9, 2), (3, 4, 2), (3, 5, 2)])
def test_lead_map_reads_the_level_filtration_of_the_matrix_sylow(m, q, k):
    # identity bytes are 1 on the diagonal's constant terms, so the
    # reference reads the key minus the identity
    fq = FqConfig.from_q(q)
    sylow = IwahoriSylow(m, fq, k, DEFAULT_CAP)
    group = sylow.group
    levels = [
        iwahori_level(m, i, j, d) for i in range(m) for j in range(m) for d in range(k)
    ]
    keys = _random_keys(random.Random(q * k), fq, group.identity, 300)
    keys += [s for s in sylow.count.seeds if s != group.identity]
    assert 1 in group.identity
    _assert_leads_agree(sylow.lead, height_lead(fq, levels), fq, group.identity, keys)


def test_law_imports_no_engine_or_model():
    # the law is a leaf that the engine and the models depend on: of the
    # package it may read only the errors and the fields
    tree = ast.parse(Path(law.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module is None:
                    imported.update(alias.name for alias in node.names)
                else:
                    imported.add(node.module.split(".")[0])
            elif node.module and node.module.split(".")[0] == "kmsylow":
                rest = node.module.split(".")[1:]
                imported.update(rest[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "kmsylow":
                    imported.add(parts[1] if len(parts) > 1 else "kmsylow")
    assert imported <= {"errors", "fields"}
