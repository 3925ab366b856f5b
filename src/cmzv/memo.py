"""The one memo type for what a process keeps from one call to the next.

quad's results, the chain's geometries and step matrices, and reduce's
finished terms are each a Memo: a dict whose values are costly to build and
safe to build again, bounded by the total size of what it holds.  The cap
and each value's size are in units the owner chooses (entries, or array
elements).  A store that would pass the cap empties the memo first, and a
value larger than the cap is never stored, so what a process keeps stays
within the caps whatever it evaluates; an entry the cap dropped is built
again.  A read is one dict read, which is atomic, so it takes no lock; a
store and an emptying take the memo's lock.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable


class Memo:
    """A dict bounded by the sizes of its values (module docstring)."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.entries: dict = {}
        self.held = 0  # the sizes stored since the last emptying: at least what entries hold
        self.get = self.entries.get  # one dict read, no lock; entries is emptied in place, never replaced
        self._lock = threading.RLock()  # put empties the memo through clear

    def put(self, key: Hashable, value: Any, size: int = 1, replaces: Callable[[Any], bool] | None = None) -> None:
        """Store value, of the given size, under key; a value already stored
        under key stays, unless replaces(it) is true.  A store that would
        pass the cap empties the memo first, and a value larger than the cap
        is not stored."""
        if size > self.cap:
            return
        with self._lock:
            old = self.entries.get(key)
            if old is not None and (replaces is None or not replaces(old)):
                return
            if self.held + size > self.cap:
                self.clear()
            self.entries[key] = value
            self.held += size

    def clear(self) -> None:
        """Empty the memo."""
        with self._lock:
            self.entries.clear()
            self.held = 0
