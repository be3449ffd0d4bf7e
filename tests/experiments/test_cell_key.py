"""Byte-identity of the precomputed :class:`CellKeyer` against the reference.

``cell_key`` hashes key on-disk caches and store partitions: the
optimized keyer must produce the *same JSON blob bytes*
(hence the same SHA-256) as the reference implementation for every cell,
including adversarial parameter values -- unicode, floats, negative seeds,
tuples, and unhashable values that defeat the params memo.
"""

import hashlib
import json

import pytest

from repro.experiments.grid import (
    Cell,
    CellKeyer,
    cell_key,
    expand_grid,
    keyer_for,
)


def _cell_key_uncached(experiment: str, cell: Cell, version: str = "") -> str:
    """Reference implementation of :func:`cell_key` (no precomputation).

    Kept verbatim as the ground truth: :class:`CellKeyer` must produce
    byte-identical blobs, because these hashes key on-disk caches, campaign
    journals and store partitions.
    """

    payload = {
        "experiment": experiment,
        "params": [[k, repr(v)] for k, v in cell.params],
        "seed": cell.seed,
        "repetition": cell.repetition,
        "version": version,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

TRICKY_PARAMS = [
    (),
    (("alpha", 0.5),),
    (("alpha", 1e-300), ("beta", -0.0), ("gamma", float("inf"))),
    (("name", "café ☃"), ("quote", 'he said "hi"'), ("backslash", "a\\b")),
    (("flag", True), ("none", None), ("n", 10**20)),
    (("tup", (1, 2, "x")), ("nested", (("a", 1),))),
    (("listy", [1, [2, 3]]), ("dicty", {"k": "v"})),  # unhashable: memo bypass
    (("empty", ""), ("newline", "a\nb\tc"),),
]


@pytest.mark.parametrize("params", TRICKY_PARAMS)
@pytest.mark.parametrize("experiment,version", [
    ("figure2", ""),
    ("exp ünicode", "v1.2-deadbeef"),
    ('weird "exp"', "with\nnewline"),
])
def test_keyer_blob_and_key_match_reference(experiment, version, params):
    keyer = CellKeyer(experiment, version)
    for repetition, seed in [(0, 1234), (3, -7), (10**6, 2**63 - 1)]:
        cell = Cell(index=0, repetition=repetition, seed=seed, params=params)
        blob = keyer.blob(cell)
        assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == _cell_key_uncached(
            experiment, cell, version
        )
        assert keyer.key(cell) == _cell_key_uncached(experiment, cell, version)


def test_cell_key_delegates_to_shared_keyer():
    cells = expand_grid({"m": [16, 32], "policy": ["mrt", "wspt"]}, repetitions=3)
    for cell in cells:
        assert cell_key("figure2", cell, "v1") == _cell_key_uncached(
            "figure2", cell, "v1"
        )
    # The keyer instance is shared per (experiment, version) pair.
    assert keyer_for("figure2", "v1") is keyer_for("figure2", "v1")
    assert keyer_for("figure2", "v1") is not keyer_for("figure2", "v2")


def test_params_memo_shared_across_repetitions():
    keyer = CellKeyer("e")
    params = (("a", 1), ("b", 2.5))
    first = Cell(index=0, repetition=0, seed=1, params=params)
    second = Cell(index=1, repetition=1, seed=2, params=params)
    keyer.key(first)
    assert params in keyer._params_json
    assert keyer.key(second) == _cell_key_uncached("e", second)


def test_unhashable_params_skip_memo_but_stay_correct():
    keyer = CellKeyer("e")
    params = (("values", [1, 2, 3]),)
    cell = Cell(index=0, repetition=0, seed=9, params=params)
    assert keyer.key(cell) == _cell_key_uncached("e", cell)
    assert not keyer._params_json  # unhashable value never entered the memo
