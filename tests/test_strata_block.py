"""The block strata estimate equals the per-table reference.

:class:`~repro.iblt.strata.StrataBlock` subtracts a whole stack of
estimators once and peels every stratum table in lockstep.  The oracle
kept here is the estimate as it was computed table by table: one
``subtract`` and one ``decode`` per stratum, scanned from the deepest.
Every case runs twice — on the numpy block peel and on the per-table path
the library takes without numpy (forced here by hiding numpy from
:mod:`repro.iblt.strata`) — and both must equal the oracle.
"""

from __future__ import annotations

import random

import pytest

import repro.iblt.strata as strata
from repro.core.adaptive import AdaptiveReconciler
from repro.core.config import ProtocolConfig
from repro.errors import ConfigError
from repro.iblt.decode import decode
from repro.iblt.hashing import checksum64, hash_with_salt
from repro.iblt.strata import (
    StrataBlock,
    StrataConfig,
    StrataEstimator,
    stack_columns,
)
from repro.iblt.table import IBLT
from repro.net.bits import BitReader

PATHS = ["block", "per-table"]


@pytest.fixture(params=PATHS)
def path(request, monkeypatch):
    if request.param == "per-table":
        monkeypatch.setattr(strata, "_np", None)
    elif strata._np is None:
        pytest.skip("the block peel needs numpy")
    return request.param


# ------------------------------------------------------------------ oracle


def oracle_scan(mine, theirs) -> int:
    """One estimator's estimate, decoding one stratum table at a time."""
    accumulated = 0
    for stratum in range(len(mine) - 1, -1, -1):
        result = decode(mine[stratum].subtract(theirs[stratum]))
        if not result.success:
            if accumulated == 0:
                accumulated = max(1, mine[stratum].config.capacity)
            return max(1, (2 ** (stratum + 1)) * accumulated)
        accumulated += result.difference_size
    return accumulated


def oracle_block(configs, mine, theirs) -> list[int]:
    """Per-estimator oracle over lists of tables laid out like a block."""
    out = []
    for index, config in enumerate(configs):
        window = slice(index * config.strata, (index + 1) * config.strata)
        out.append(oracle_scan(mine[window], theirs[window]))
    return out


def block_estimate(configs, mine, theirs) -> list[int]:
    block = StrataBlock(configs)
    return block.estimate(
        stack_columns([table.rows_arrays() for table in mine]),
        stack_columns([table.rows_arrays() for table in theirs]),
    )


def scalar_hashed_keys(reconciler, points, level):
    """The estimator keys as the scalar reference computes them."""
    mask = (1 << reconciler.adaptive.estimator_key_bits) - 1
    salt = reconciler.config.seed ^ (level * 0x9E3779B9)
    return [
        hash_with_salt(key, salt) & mask
        for key in reconciler.grid.keys_for(points, level)
    ]


def oracle_estimates(reconciler, request, alice_points) -> dict[int, int]:
    """Alice's per-level estimates, parsing and decoding table by table."""
    reader = BitReader(request)
    reader.read_uint(8)
    reader.read_uint(8)
    reader.read_varint()
    out = {}
    for level in reconciler.sampled_levels():
        config = reconciler._estimator_config(level)
        bob = StrataEstimator.read_from(reader, config)
        alice = StrataEstimator(config)
        for key in scalar_hashed_keys(reconciler, alice_points, level):
            alice.insert(key)
        out[level] = oracle_scan(alice.tables, bob.tables)
    reader.expect_end()
    return out


# ----------------------------------------------------------- seeded sweeps


def _noisy_parties(seed: int, n: int, noise: int, k: int, delta: int):
    rng = random.Random(seed)
    alice = [(rng.randrange(delta), rng.randrange(delta)) for _ in range(n)]
    bob = [
        (min(delta - 1, max(0, x + rng.randint(-noise, noise))), y)
        for x, y in alice
    ]
    for index in range(min(k, n)):
        bob[index] = (rng.randrange(delta), rng.randrange(delta))
    return alice, bob


SWEEP = [
    (seed, [200, 1000][seed % 2], [0, 1, 4, 16, 64][seed % 5], [4, 16][seed // 5 % 2])
    for seed in range(12)
]


@pytest.mark.parametrize("seed,n,noise,k", SWEEP)
def test_adaptive_estimates_match_oracle(path, seed, n, noise, k):
    alice, bob = _noisy_parties(seed, n, noise, k, 1 << 14)
    config = ProtocolConfig(delta=1 << 14, dimension=2, k=k, seed=seed)
    reconciler = AdaptiveReconciler(config)
    request = reconciler.bob_request(bob)
    assert reconciler.estimates(request, alice) == oracle_estimates(
        reconciler, request, alice
    )


def test_estimator_sweep_matches_oracle(path):
    """Random estimator pairs, checksums down to 4 bits so false peels and
    ``max_items`` guard trips occur; the sweep must hit both."""
    guard_trips = 0
    false_peels = 0
    for seed in range(120):
        rng = random.Random(seed)
        config = StrataConfig(
            strata=8, cells_per_stratum=9, q=3, key_bits=40,
            checksum_bits=rng.choice([4, 8, 16]), seed=seed,
        )
        common = [rng.getrandbits(40) for _ in range(rng.choice([0, 50, 400]))]
        d = rng.choice([0, 1, 3, 10, 30, 100, 400])
        alice = StrataEstimator(config)
        bob = StrataEstimator(config)
        alice_only = [rng.getrandbits(40) for _ in range(d)]
        alice.insert_all(common + alice_only)
        bob.insert_all(common + [rng.getrandbits(40) for _ in range(d // 2)])
        assert alice.estimate_difference(bob) == oracle_scan(
            alice.tables, bob.tables
        ), seed
        for mine, theirs in zip(alice.tables, bob.tables):
            result = decode(mine.subtract(theirs))
            guard_trips += result.difference_size == 2 * mine.config.cells
            false_peels += result.success and result.difference_size and not set(
                result.alice_keys
            ) <= set(alice_only)
    assert guard_trips > 0
    assert false_peels > 0


# ----------------------------------------------------------- crafted cases

CRAFT = StrataConfig(
    strata=2, cells_per_stratum=9, q=3, key_bits=40, checksum_bits=16, seed=7
)
CRAFT_OTHER = StrataConfig(
    strata=2, cells_per_stratum=9, q=3, key_bits=40, checksum_bits=16, seed=8
)
CONFIGS = (CRAFT, CRAFT_OTHER)


def _tables(configs=CONFIGS):
    return [
        IBLT(config.iblt_config(stratum))
        for config in configs
        for stratum in range(config.strata)
    ]


def _check(mine, theirs, expected=None):
    want = oracle_block(CONFIGS, mine, theirs)
    assert block_estimate(CONFIGS, mine, theirs) == want
    if expected is not None:
        assert want == expected


def test_guard_trip_in_one_table_while_others_peel(path):
    """Stratum 0 of the first estimator holds a phantom pure cell outside
    its key's own cells: every extraction leaves it pure, so the table
    churns until the ``2 × cells`` guard stops it mid-round."""
    mine, theirs = _tables(), _tables()
    phantom_table = mine[0]
    config = phantom_table.config
    phantom = 0x5A5A5A5A5A
    own = set(config.hash_family().indices(phantom))
    cell = min(set(range(config.cells)) - own)
    counts, key_sums, check_sums = (list(column) for column in phantom_table.rows_arrays())
    counts[cell] = 1
    key_sums[cell] = phantom
    check_sums[cell] = checksum64(phantom, config.seed, config.checksum_bits)
    mine[0] = IBLT.from_columns(config, counts, key_sums, check_sums)
    result = decode(mine[0].subtract(theirs[0]))
    assert not result.success
    assert result.difference_size == 2 * config.cells  # the guard tripped
    for index, key in ((1, 11), (1, 12), (2, 13), (3, 14), (3, 15)):
        mine[index].insert(key)
    _check(mine, theirs, expected=[2 * 2, 3])


def test_key_pure_in_several_cells_of_one_table(path):
    """A lone key is pure in all q of its cells in round 1: it must be
    extracted once per table, not once per cell."""
    mine, theirs = _tables(), _tables()
    mine[1].insert(0xABCDE)
    theirs[3].insert(0x12345)
    assert len(mine[1].pure_cells()) == 3
    _check(mine, theirs, expected=[1, 1])


def test_same_key_pure_in_two_tables_is_not_deduped_across_tables(path):
    mine, theirs = _tables(), _tables()
    for index in (0, 1, 2):
        mine[index].insert(0xFEEDBEEF)
    _check(mine, theirs, expected=[2, 1])


def test_sixteen_bit_false_pure_cell(path):
    """Keys a, b (minuend) and c (subtrahend) share cells 2 and 4, and
    their 16-bit checksums collide: both cells read as a pure ``a^b^c``."""
    a, b, c = 0x12345678AB, 0x34F4B01666, 0x1883319131
    mine, theirs = _tables(), _tables()
    mine[0].insert(a)
    mine[0].insert(b)
    theirs[0].insert(c)
    diff = mine[0].subtract(theirs[0])
    phantom = a ^ b ^ c
    assert [diff.cell(index) for index in (2, 4)] == [
        (1, phantom, checksum64(phantom, CRAFT.iblt_config(0).seed, 16))
    ] * 2
    assert {2, 4} <= set(diff.pure_cells())
    mine[1].insert(0x777)
    _check(mine, theirs)


def test_every_stratum_decodes_gives_exact_total(path):
    rng = random.Random(3)
    mine, theirs = _tables(), _tables()
    for table in mine:
        table.insert(rng.getrandbits(40))
    for table in theirs[:2]:
        table.insert(rng.getrandbits(40))
        table.insert(rng.getrandbits(40))
    _check(mine, theirs, expected=[2 + 4, 2])


def test_block_needs_one_shape():
    with pytest.raises(ConfigError, match="share"):
        StrataBlock((CRAFT, StrataConfig(strata=3, cells_per_stratum=9, q=3)))
