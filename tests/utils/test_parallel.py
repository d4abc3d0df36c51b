"""Unit tests of the sharded-execution toolkit (``repro.utils.parallel``).

The behavioral contracts the multicore layer leans on: worker-count
validation fails loudly at the API boundary, shard slices partition
deterministically, substream keys are pure functions of (seed, k, i), and
``ShardedExecutor.map`` preserves submission order whatever the completion
order.
"""

import threading

import numpy as np
import pytest

from repro.utils.parallel import (
    ShardedExecutor,
    check_workers,
    shard_seed_sequence,
    shard_slices,
)
from repro.utils.validation import ValidationError


class TestCheckWorkers:
    @pytest.mark.parametrize("workers", [1, 2, 7, np.int64(3), np.int32(2)])
    def test_valid_counts_pass_through(self, workers):
        assert check_workers(workers) == int(workers)
        assert isinstance(check_workers(workers), int)

    @pytest.mark.parametrize("workers", [0, -1, -100, np.int64(0)])
    def test_subpositive_counts_rejected(self, workers):
        with pytest.raises(ValidationError, match=">= 1"):
            check_workers(workers)

    @pytest.mark.parametrize(
        "workers", [2.0, 2.5, "2", "two", "auto", None, True, False, [2]]
    )
    def test_non_int_counts_rejected_with_clear_error(self, workers):
        with pytest.raises(ValidationError, match="workers"):
            check_workers(workers)


class TestShardSlices:
    @pytest.mark.parametrize(
        "n_items,workers", [(1, 1), (5, 2), (8, 4), (9, 4), (3, 7), (256, 4)]
    )
    def test_slices_partition_exactly(self, n_items, workers):
        slices = shard_slices(n_items, workers)
        assert len(slices) == min(workers, n_items)
        covered = np.concatenate([np.arange(n_items)[s] for s in slices])
        np.testing.assert_array_equal(covered, np.arange(n_items))

    def test_balanced_within_one_row(self):
        sizes = [s.stop - s.start for s in shard_slices(23, 4)]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # longer shards first

    def test_empty_block_rejected(self):
        with pytest.raises(ValidationError):
            shard_slices(0, 2)


class TestShardSeedSequence:
    def test_pure_function_of_seed_and_key(self):
        root = np.random.SeedSequence(42, spawn_key=(6,))
        a = shard_seed_sequence(root, 4, 1)
        b = shard_seed_sequence(root, 4, 1)
        assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
        draws_a = np.random.default_rng(a).random(8)
        draws_b = np.random.default_rng(b).random(8)
        np.testing.assert_array_equal(draws_a, draws_b)

    def test_worker_counts_never_alias(self):
        root = np.random.SeedSequence(42, spawn_key=(6,))
        keys = {
            shard_seed_sequence(root, k, i).spawn_key
            for k in (1, 2, 3, 4)
            for i in range(k)
        }
        assert len(keys) == 1 + 2 + 3 + 4


class TestShardedExecutor:
    def test_workers_one_runs_inline_on_calling_thread(self):
        idents = ShardedExecutor(1).map(lambda _: threading.get_ident(), range(3))
        assert set(idents) == {threading.get_ident()}

    def test_map_preserves_submission_order(self):
        # Reverse-staggered sleeps: later items complete first, so any
        # completion-order gather would return the list reversed.
        import time

        def job(i):
            time.sleep(0.02 * (4 - i))
            return i

        assert ShardedExecutor(4).map(job, range(4)) == [0, 1, 2, 3]

    def test_threaded_map_runs_off_the_calling_thread(self):
        import time

        def ident(_):
            time.sleep(0.01)  # force overlap so the pool fans out
            return threading.get_ident()

        idents = ShardedExecutor(4).map(ident, range(4))
        assert threading.get_ident() not in idents

    def test_single_item_runs_inline(self):
        assert ShardedExecutor(4).map(lambda _: threading.get_ident(), [0]) == [
            threading.get_ident()
        ]

    def test_invalid_workers_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            ShardedExecutor(0)

    def test_shard_exception_propagates_to_the_caller(self):
        def job(i):
            if i == 2:
                raise ValueError("shard 2 failed")
            return i

        with pytest.raises(ValueError, match="shard 2 failed"):
            ShardedExecutor(4).map(job, range(4))

    def test_accepts_a_one_shot_iterable(self):
        assert ShardedExecutor(2).map(lambda i: i * i, (i for i in range(5))) == [
            0, 1, 4, 9, 16,
        ]
