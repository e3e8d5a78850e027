"""Tests for the persistent worker-process pool."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.parallel.procpool import (
    ProcessPool,
    WorkerCrashError,
    worker_context,
)
from repro.parallel.shm import ShmArena

KERNELS = ("tests.parallel.pool_kernels",)


def make_pool(num_workers=2, **kwargs):
    return ProcessPool(num_workers, kernel_modules=KERNELS, **kwargs)


class TestRun:
    def test_results_sorted_by_index_with_payload_values(self):
        payloads = [{"lo": i * 10, "hi": i * 10 + 10} for i in range(8)]
        with make_pool(2) as pool:
            results = pool.run("t_echo", payloads)
        assert [r.index for r in results] == list(range(8))
        for i, r in enumerate(results):
            lo, hi, wid = r.value
            assert (lo, hi) == (i * 10, i * 10 + 10)
            assert 0 <= wid < 2
            assert r.end >= r.start

    def test_all_workers_participate(self):
        # Sleeping tasks leave the queue non-empty long enough that a
        # one-worker drain of all 16 is effectively impossible.
        with make_pool(2) as pool:
            results = pool.run("t_sleep", [{"seconds": 0.05}] * 16)
        assert {r.worker_id for r in results} == {0, 1}

    def test_empty_payload_list(self):
        with make_pool(2) as pool:
            assert pool.run("t_echo", []) == []

    def test_zero_copy_writes_visible_to_parent(self):
        with ShmArena() as arena:
            out = arena.from_array("out", np.zeros(20, dtype=np.float64))
            with make_pool(2) as pool:
                pool.bind(arena.spec())
                pool.run("t_fill", [
                    {"lo": 0, "hi": 10, "value": 3.0},
                    {"lo": 10, "hi": 20, "value": 5.0},
                ])
                pool.release()
            assert np.all(out[:10] == 3.0)
            assert np.all(out[10:] == 5.0)

    def test_dispatch_deterministic_for_same_seed(self):
        payloads = [{"lo": i, "hi": i + 1} for i in range(6)]
        outs = []
        for _ in range(2):
            with make_pool(1, seed=7) as pool:
                results = pool.run("t_echo", payloads)
                # One worker drains the queue in dispatch order, so the
                # (start-time-ordered) task sequence exposes the seeded
                # permutation.
                outs.append(tuple(
                    r.index for r in sorted(results, key=lambda r: r.start)))
        assert outs[0] == outs[1]


class TestCrashContainment:
    def test_kernel_exception_raises_worker_crash_error(self):
        with make_pool(2) as pool:
            with pytest.raises(WorkerCrashError, match="kaboom"):
                pool.run("t_raise", [{"message": "kaboom"}])
            assert not pool.alive()

    def test_worker_death_raises_instead_of_hanging(self):
        with make_pool(2) as pool:
            with pytest.raises(WorkerCrashError, match="died"):
                pool.run("t_crash", [{}, {}, {}, {}])

    def test_keyboard_interrupt_in_kernel_is_contained(self):
        # BaseException in a worker must surface as a crash token, not
        # kill the worker silently or hang the parent barrier.
        with make_pool(2) as pool:
            with pytest.raises(WorkerCrashError, match="KeyboardInterrupt"):
                pool.run("t_interrupt", [{}])


class TestLifecycle:
    def test_close_idempotent_and_run_after_close_rejected(self):
        pool = make_pool(2)
        pool.run("t_echo", [{"lo": 0, "hi": 1}])
        pool.close()
        pool.close()
        with pytest.raises(ValueError, match="closed"):
            pool.run("t_echo", [{"lo": 0, "hi": 1}])

    def test_close_without_start_is_noop(self):
        make_pool(2).close()

    def test_repeated_bind_release_cycles(self):
        # The control barrier must keep bind/release broadcasts exactly
        # one-per-worker across many cycles (regression: a fast worker
        # once stole its sibling's copy off the shared queue).
        with make_pool(2) as pool:
            for round_no in range(5):
                with ShmArena() as arena:
                    out = arena.from_array(
                        "out", np.zeros(8, dtype=np.float64))
                    pool.bind(arena.spec())
                    pool.run("t_fill", [
                        {"lo": 0, "hi": 4, "value": float(round_no)},
                        {"lo": 4, "hi": 8, "value": float(round_no)},
                    ])
                    pool.release()
                    assert np.all(out == float(round_no))

    def test_rebind_without_release_replaces_arena(self):
        with make_pool(2) as pool:
            with ShmArena() as a1, ShmArena() as a2:
                a1.from_array("out", np.zeros(4, dtype=np.float64))
                out2 = a2.from_array("out", np.zeros(4, dtype=np.float64))
                pool.bind(a1.spec())
                pool.bind(a2.spec())
                pool.run("t_fill", [{"lo": 0, "hi": 4, "value": 9.0}])
                pool.release()
                assert np.all(out2 == 9.0)

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigError):
            ProcessPool(0)

    def test_worker_context_outside_worker_raises(self):
        with pytest.raises(RuntimeError, match="outside a pool worker"):
            worker_context()
