"""The contract of adskg.memo: keys, LRU order, exceptions, oversize results
and thread safety."""

import sys
import threading
import time

import numpy as np
import pytest

from adskg.memo import Memo, counters, memo


def _counting(name, maxsize=8):
    """A memoized function echoing its arguments (an array when it has none)
    and the list of the arguments it computed."""
    computed = []

    @memo(name, maxsize)
    def fn(*args, **kwargs):
        computed.append(args)
        return np.arange(3.0) if not args else (args, kwargs)

    return fn, computed


def test_keys_tell_apart_float_signs_int_from_float_and_array_dtype_and_shape():
    fn, computed = _counting("test.keys")
    for arg in (0.0, -0.0, 1, 1.0, True, np.float64(1.0)):
        fn(arg)
    # np.float64(1.0) has 1.0's bits; True is a bool, not the int 1
    assert [a for (a,) in computed] == [0.0, -0.0, 1, 1.0, True]
    assert [type(a) for (a,) in computed] == [float, float, int, float, bool]
    computed.clear()
    arrays = [np.arange(4.0), np.arange(4), np.arange(4.0).reshape(2, 2),
              np.arange(4.0)[::-1].copy()]
    for arr in arrays:
        fn(arr)
    assert len(computed) == 4
    assert fn(np.arange(4.0).copy()) is fn(np.arange(4.0))
    assert len(computed) == 4
    fn(x=1.0)
    fn(1.0, x=1.0)
    assert len(computed) == 6
    assert counters("test.keys")["test.keys"] == {"hits": 3, "misses": 11,
                                                  "maxsize": 8, "size": 8}


def test_least_recently_used_is_evicted_first():
    fn, computed = _counting("test.lru", maxsize=3)
    for arg in (1, 2, 3, 1, 4):  # 1 is used again, so 2 is the oldest at 4
        fn(arg)
    computed.clear()
    for arg in (1, 3, 4):
        fn(arg)
    assert computed == []
    fn(2)
    assert computed == [(2,)]
    # storing 2 evicted the oldest, 1
    fn(4)
    fn(1)
    assert computed == [(2,), (1,)]


def test_exceptions_count_as_misses_and_are_never_stored():
    calls = []

    @memo("test.raise", 4)
    def fail(x):
        calls.append(x)
        raise ValueError(x)

    for _ in range(3):
        with pytest.raises(ValueError):
            fail(1)
    assert calls == [1, 1, 1]
    assert counters("test.raise")["test.raise"] == {"hits": 0, "misses": 3,
                                                    "maxsize": 4, "size": 0}


def test_results_are_read_only_with_or_without_an_element_cap():
    fn, _ = _counting("test.frozen")
    assert not fn().flags.writeable


def test_results_are_read_only_and_oversize_ones_not_stored():
    @memo("test.oversize", 4, max_elements=5)
    def table(n):
        return np.arange(float(n)), 2.5

    small, big = table(5), table(6)
    for arr in (small[0], big[0]):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert table(5) is small
    again = table(6)
    assert again is not big and again[0].tobytes() == big[0].tobytes()
    assert counters("test.oversize")["test.oversize"] == {"hits": 1, "misses": 3,
                                                          "maxsize": 4, "size": 1}


def test_a_miss_then_a_put_and_a_put_replaces():
    cache = Memo("test.put", 2)
    assert cache.get("k") is None
    cache.put("k", np.zeros(2))
    longer = cache.put("k", np.zeros(4))
    assert cache.get("k") is longer
    assert cache.counts() == {"hits": 1, "misses": 1, "maxsize": 2, "size": 1}
    cache.clear()
    assert cache.counts() == {"hits": 0, "misses": 0, "maxsize": 2, "size": 0}


def test_threads_on_one_memo_leave_a_consistent_store():
    cache = Memo("test.threads", 2)
    start = threading.Barrier(8)
    errors = []

    def work(seed):
        start.wait()
        try:
            for i in range(1000):
                key = (seed * 7 + i) % 5
                value = cache.get(key)
                if value is None:
                    time.sleep(0)  # releases the GIL between a miss and its put
                    value = cache.put(key, np.full(1, key))
                assert value[0] == key
        except Exception as exc:  # a thread's failure must reach the test
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as finely as the interpreter can
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    counts = cache.counts()
    assert counts["hits"] + counts["misses"] == 8 * 1000
    assert counts["size"] == 2 == len(cache._store)
    for key, value in cache._store.items():
        assert value[0] == key and not value.flags.writeable


def test_the_package_memos_are_registered_under_their_names():
    names = ["radial_table", "lm_labels", "ylm_point", "grid_rule", "theta_table",
             "radial_measure"]
    assert set(names) <= set(counters())
    for counts in counters(*names).values():
        assert list(counts) == ["hits", "misses", "maxsize", "size"]
