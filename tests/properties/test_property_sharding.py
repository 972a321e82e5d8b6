"""Property-based tests for the deterministic sharding scheme.

Three invariants of the streaming pipeline:

* the shard partition covers every object index exactly once;
* per-shard seeds are a pure, stable function of ``(master_seed, shard_id,
  role)`` — independent of execution order and ``PYTHONHASHSEED``;
* streaming flush boundaries never break a trajectory's per-object ordering
  invariant (``t`` strictly increasing per object) in the stored dataset.
"""

from hypothesis import given, settings, strategies as st

from repro.core.streaming import (
    SEED_BITS,
    StreamingWriter,
    auto_shard_count,
    derive_seed,
    plan_shards,
)
from repro.core.types import IndoorLocation, TrajectoryRecord
from repro.storage.repositories import DataWarehouse

seeds = st.integers(min_value=0, max_value=2**63 - 1)


class TestShardPartition:
    @given(count=st.integers(0, 500), shards=st.integers(1, 32), seed=seeds)
    @settings(max_examples=200)
    def test_partition_covers_every_object_exactly_once(self, count, shards, seed):
        plan = plan_shards(count, shards, seed)
        assert len(plan) == shards
        covered = [index for shard in plan for index in shard.indices]
        assert covered == list(range(1, count + 1))

    @given(count=st.integers(0, 500), shards=st.integers(1, 32), seed=seeds)
    @settings(max_examples=100)
    def test_partition_is_balanced_within_one_object(self, count, shards, seed):
        sizes = [shard.object_count for shard in plan_shards(count, shards, seed)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == count

    @given(count=st.integers(1, 10_000))
    def test_auto_shard_count_is_bounded_and_deterministic(self, count):
        shards = auto_shard_count(count)
        assert 1 <= shards <= 8
        assert shards == auto_shard_count(count)


class TestSeedDerivation:
    @given(seed=seeds, shard=st.integers(0, 1000))
    @settings(max_examples=200)
    def test_seeds_are_stable_across_calls(self, seed, shard):
        assert derive_seed(seed, shard) == derive_seed(seed, shard)
        assert 0 <= derive_seed(seed, shard) < 2**SEED_BITS

    @given(seed=seeds, shard=st.integers(0, 1000))
    @settings(max_examples=100)
    def test_seeds_differ_by_shard_and_role(self, seed, shard):
        assert derive_seed(seed, shard) != derive_seed(seed, shard + 1)
        roles = {derive_seed(seed, shard, role) for role in ("objects", "engine", "rssi")}
        assert len(roles) == 3

    @given(seed=seeds, shard=st.integers(0, 1000))
    @settings(max_examples=100)
    def test_plan_embeds_the_derived_seed(self, seed, shard):
        plan = plan_shards(shard + 1, shard + 1, seed)
        assert plan[shard].seed == derive_seed(seed, shard)

    def test_golden_value_pins_the_scheme(self):
        # Changing the derivation silently would break reproducibility of
        # every previously published dataset; this value pins the scheme
        # (blake2b over "master|shard|role", top 63 bits).
        assert derive_seed(0, 0) == derive_seed(0, 0, "shard")
        assert derive_seed(42, 3, "objects") == 6675242879879538560


def _records_for(object_id, times):
    return [
        TrajectoryRecord(
            object_id=object_id,
            location=IndoorLocation("b", 0, partition_id="hall", x=1.0, y=2.0),
            t=t,
        )
        for t in times
    ]


@st.composite
def shard_streams(draw):
    """A shard-style record stream: per object, strictly increasing times,
    streamed trajectory-major (like ``TrajectorySet.all_records`` per shard)."""
    object_count = draw(st.integers(1, 5))
    stream = []
    for index in range(object_count):
        steps = draw(st.lists(st.floats(0.25, 10.0, allow_nan=False), min_size=1, max_size=20))
        times, t = [], 0.0
        for step in steps:
            t += step
            times.append(round(t, 6))
        stream.extend(_records_for(f"obj_{index:04d}", times))
    return stream


class TestFlushBoundaries:
    @given(stream=shard_streams(), flush_every=st.integers(1, 17))
    @settings(max_examples=60, deadline=None)
    def test_flush_boundaries_never_split_per_object_time_order(self, stream, flush_every):
        warehouse = DataWarehouse()
        writer = StreamingWriter(warehouse, flush_every)
        written = writer.write("trajectories", stream)
        assert written == len(stream)
        assert writer.max_pending <= flush_every

        per_object = {}
        # Columns: object_id, t, ... (the stored tuples, in insertion order).
        for object_id, t, *_ in warehouse.backend.table_handle("trajectory").all_rows():
            per_object.setdefault(object_id, []).append(t)
        for object_id, times in per_object.items():
            assert all(a < b for a, b in zip(times, times[1:])), (
                f"{object_id}: stored order is not strictly increasing in t"
            )
