"""The package's one memo: a bounded LRU of read-only results that counts
its hits and misses, registered by name for `counters`.

An ndarray argument is keyed by its dtype, shape and bytes, a float by its
bits (0.0 and -0.0 differ), anything else by its type and value (1 and 1.0
differ).  Every lookup counts a hit or a miss; exceptions are never stored.
The arrays of a result (or of a result tuple) are made read-only, and a
result holding an array of more than `max_elements` elements is returned
but not stored.  One lock guards lookup and store, not the computation.
"""

import functools
import struct
import threading
from collections import OrderedDict

import numpy as np

_REGISTRY: dict = {}


def _key(arg):
    if isinstance(arg, np.ndarray):
        return arg.dtype, arg.shape, arg.tobytes()
    if isinstance(arg, float):
        return float, struct.pack("d", arg)
    return type(arg), arg


def key(*args, **kwargs) -> tuple:
    """The memo key of a call on args and kwargs."""
    return tuple(map(_key, args)) + tuple((k, _key(v)) for k, v in kwargs.items())


def _freeze(value) -> int:
    """Mark value's arrays read-only; the element count of its largest."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value.size
    return max(map(_freeze, value), default=0) if isinstance(value, tuple) else 0


class Memo:
    """An LRU of the last `maxsize` results, registered under `name`."""

    def __init__(self, name: str, maxsize: int, max_elements: float = float("inf")):
        self.maxsize, self.max_elements, self.hits, self.misses = maxsize, max_elements, 0, 0
        self._store, self._lock = OrderedDict(), threading.Lock()
        _REGISTRY[name] = self

    def get(self, key):
        """The value under key, or None (a miss) if absent."""
        with self._lock:
            value = self._store.get(key)
            if value is not None:
                self._store.move_to_end(key)
                self.hits += 1
                return value
            self.misses += 1

    def put(self, key, value):
        """value, made read-only and stored under key unless oversize."""
        if _freeze(value) <= self.max_elements:
            with self._lock:
                self._store[key] = value
                self._store.move_to_end(key)
                if len(self._store) > self.maxsize:
                    self._store.popitem(last=False)
        return value

    def clear(self):
        with self._lock:
            self._store.clear()
            self.hits = self.misses = 0

    def counts(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "maxsize": self.maxsize, "size": len(self._store)}


def memo(name: str, maxsize: int, max_elements: float = float("inf")):
    """Memoize a function that never returns None on its arguments as
    passed; the wrapper's `memo` attribute is its Memo."""
    def decorate(fn):
        cache = Memo(name, maxsize, max_elements)

        @functools.wraps(fn)
        def memoized(*args, **kwargs):
            k = key(*args, **kwargs)
            value = cache.get(k)
            return cache.put(k, fn(*args, **kwargs)) if value is None else value

        memoized.memo = cache
        return memoized
    return decorate


def counters(*names) -> dict:
    """Each named memo's counts, or every registered memo's if none is named."""
    return {name: _REGISTRY[name].counts() for name in names or _REGISTRY}
