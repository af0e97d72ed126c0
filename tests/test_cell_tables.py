"""The contract every IBLT-family table inherits from ``CellTable``.

:class:`~repro.iblt.IBLT` (both backends), :class:`~repro.iblt.MultisetIBLT`
and :class:`~repro.iblt.RIBLT` share one cell geometry.  Three promises are
checked here for all of them:

* a ``copy()`` or an ``_empty_clone()`` owns its cells, so mutating it
  never changes the original's payload bytes;
* ``subtract`` raises ``ValueError`` naming the attribute when the two
  tables differ in any single shape attribute;
* ``decode`` succeeds exactly when every count, key and checksum cell
  ends at zero: one nonzero entry in any of those columns fails it.
"""

from __future__ import annotations

import pytest

from repro.hashing import PublicCoins
from repro.iblt import IBLT, RIBLT, MultisetIBLT

COINS = PublicCoins(0xCE11)

KINDS = {
    "iblt-numpy": (IBLT, {"backend": "numpy"}),
    "iblt-python": (IBLT, {"backend": "python"}),
    "multiset": (MultisetIBLT, {}),
    "riblt": (RIBLT, {"dim": 3, "side": 64}),
}


def build(kind: str, **overrides):
    cls, extra = KINDS[kind]
    params = {"label": "contract", "cells": 30, "q": 3, "key_bits": 30, **extra, **overrides}
    return cls(COINS, **params)


def fill(table, keys) -> None:
    for key in keys:
        if isinstance(table, RIBLT):
            table.insert(key, (key % 64, 1, 2))
        else:
            table.insert(key)


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestOwnCells:
    def test_copy_mutation_leaves_original(self, kind):
        table = build(kind)
        fill(table, range(1, 6))
        before = table.to_payload()
        clone = table.copy()
        assert clone.to_payload() == before
        fill(clone, range(100, 104))
        clone.decode()
        assert table.to_payload() == before

    def test_empty_clone_mutation_leaves_original(self, kind):
        table = build(kind)
        fill(table, range(1, 6))
        before = table.to_payload()
        clone = table._empty_clone()
        assert clone.is_empty()
        fill(clone, range(1, 6))
        assert clone.to_payload() == before
        fill(clone, range(100, 104))
        clone.decode()
        assert table.to_payload() == before


MISMATCHES = [
    (kind, attribute, left, right)
    for kind in sorted(KINDS)
    for attribute, left, right in (
        ("m", {"cells": 30}, {"cells": 33}),
        ("q", {"q": 3}, {"q": 5}),  # both m = 30
        ("key_bits", {"key_bits": 30}, {"key_bits": 31}),
        ("label", {"label": "a"}, {"label": "b"}),
    )
] + [
    ("riblt", "dim", {"dim": 3}, {"dim": 4}),
    ("riblt", "side", {"side": 64}, {"side": 65}),
    ("iblt-numpy", "backend", {}, {"backend": "python"}),
]


@pytest.mark.parametrize(
    ("kind", "attribute", "left", "right"),
    MISMATCHES,
    ids=[f"{kind}-{attribute}" for kind, attribute, _, _ in MISMATCHES],
)
def test_subtract_rejects_single_attribute_mismatch(kind, attribute, left, right):
    mine, theirs = build(kind, **left), build(kind, **right)
    differing = [name for name in mine._SHAPE if getattr(mine, name) != getattr(theirs, name)]
    assert differing == [attribute]
    with pytest.raises(ValueError, match=f"incompatible: {attribute} "):
        mine.subtract(theirs)
    assert mine.subtract(build(kind, **left)).is_empty()


@pytest.mark.parametrize("column", [0, 1, 2], ids=["count", "key", "checksum"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_single_cell_residue_fails_decode(kind, column):
    table = build(kind)
    getattr(table, table._CELLS[column])[7] = 1
    assert not table.decode().success


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_all_zero_table_decodes(kind):
    assert build(kind).decode().success


def test_riblt_value_residue_still_succeeds():
    """Values are not part of the rule: their residue is the error the
    EMD analysis charges to the in-bucket matching."""
    table = build("riblt")
    table.value_sum[7][0] = 5
    assert table.decode().success
