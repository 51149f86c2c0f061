from concurrent.futures import ThreadPoolExecutor

import pytest

from avcount import parallel


class SpyPool(ThreadPoolExecutor):
    """A helper pool that counts the helpers it was asked for."""

    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers, thread_name_prefix="avcount-helper")
        self.submitted = 0

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def cores():
    """force(n) acts as if n cores were usable and returns the spied pool."""
    pools = []

    def force(n):
        parallel._reset(n)
        parallel._pool = SpyPool(max(n - 1, 1))
        pools.append(parallel._pool)
        return parallel._pool

    yield force
    for pool in pools:
        pool.shutdown()
    parallel._reset()
