"""The lock table: who holds which mode on which structure node.

Generic over the mode vocabulary (a :class:`CompatibilityMatrix` decides
conflicts) and over the key space, so the same table serves XDGL, Node2PL and
DocLock2PL. Transactions are identified by any hashable id.

The table counts every check/insert/release in ``lock_ops`` — the paper's
"lock management overhead" — which the simulation converts to CPU time.

Hot-path layout: the two indexes share one mode-set object per (key, tx)
pair, the conflict test uses the matrix's precomputed ``conflicts_with``
frozensets (one C-level ``isdisjoint`` per holder), and a live grant counter
makes :meth:`lock_count` O(1) — it is read once per executed operation for
the peak-lock-count statistic.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from ..errors import LockError
from .modes import CompatibilityMatrix
from .requests import LockKey

#: Shared empty result for the granted paths of :meth:`LockTable.try_acquire`
#: (callers only read it; compares equal to ``set()``).
_NO_CONFLICTS: frozenset = frozenset()


class LockTable:
    def __init__(self, matrix: CompatibilityMatrix):
        self.matrix = matrix
        # key -> tx -> set of modes held
        self._held: dict[LockKey, dict[Hashable, set]] = {}
        # tx -> key -> set of modes held (release index). The per-(key, tx)
        # mode set is the *same object* in both indexes.
        self._by_tx: dict[Hashable, dict[LockKey, set]] = {}
        self.lock_ops = 0
        self._grants = 0  # live (key, tx, mode) grant count
        self._conflicts_with = matrix.conflicts_with
        self._modes_cls = matrix.modes

    # -- acquisition ------------------------------------------------------

    def try_acquire(self, key: LockKey, tx: Hashable, mode) -> tuple[set, bool]:
        """Attempt to take ``mode`` on ``key`` for ``tx``.

        Returns ``(conflicts, is_new)``: ``conflicts`` is the set of *other*
        transactions holding an incompatible mode (empty means granted);
        ``is_new`` is True when the grant added a (key, mode) pair ``tx`` did
        not already hold (callers track new pairs to back out one operation).
        """
        self.lock_ops += 1
        if not isinstance(mode, self._modes_cls):
            raise LockError(
                f"{self.matrix.name} table cannot hold {mode!r} "
                f"(expected a {self._modes_cls.__name__})"
            )
        holders = self._held.get(key)
        if holders:
            bad = self._conflicts_with[mode]
            conflicts = {
                other for other, modes in holders.items() if not bad.isdisjoint(modes)
            }
            # Set discard finds ``tx`` by hash and identity: no per-holder
            # ``!=``, which costs a Python-level call for transaction ids.
            conflicts.discard(tx)
            if conflicts:
                return conflicts, False
        by_tx = self._by_tx
        keys = by_tx.get(tx)
        if keys is None:
            keys = by_tx[tx] = {}
        own = keys.get(key)
        if own is None:
            if holders is None:
                holders = self._held[key] = {}
            own = keys[key] = holders[tx] = set()
        elif mode in own:
            return _NO_CONFLICTS, False
        own.add(mode)
        self._grants += 1
        return _NO_CONFLICTS, True

    # -- release -----------------------------------------------------------

    def release_one(self, key: LockKey, tx: Hashable, mode) -> None:
        """Release a single (key, mode) pair (used to back out an operation)."""
        self.lock_ops += 1
        try:
            own = self._by_tx[tx][key]
            own.remove(mode)
        except KeyError:
            raise LockError(f"{tx} does not hold {mode!r} on {key!r}") from None
        self._grants -= 1
        if not own:
            del self._by_tx[tx][key]
            del self._held[key][tx]
            if not self._by_tx[tx]:
                del self._by_tx[tx]
            if not self._held[key]:
                del self._held[key]

    def release_transaction(self, tx: Hashable) -> list[LockKey]:
        """Release everything ``tx`` holds (strict 2PL: at commit/abort only)."""
        held = self._by_tx.pop(tx, None)
        if held is None:
            self.lock_ops += 1
            return []
        keys = list(held)
        self.lock_ops += max(1, len(keys))
        _held = self._held
        released = 0
        for key, modes in held.items():
            released += len(modes)
            holders = _held[key]
            del holders[tx]
            if not holders:
                del _held[key]
        self._grants -= released
        return keys

    # -- inspection ----------------------------------------------------------

    def holders(self, key: LockKey) -> dict[Hashable, frozenset]:
        return {tx: frozenset(modes) for tx, modes in self._held.get(key, {}).items()}

    def held_by(self, tx: Hashable) -> dict[LockKey, frozenset]:
        return {key: frozenset(modes) for key, modes in self._by_tx.get(tx, {}).items()}

    def transactions(self) -> set:
        return set(self._by_tx)

    def lock_count(self) -> int:
        """Total number of (key, tx, mode) grants currently held."""
        return self._grants

    def is_empty(self) -> bool:
        return not self._held

    def check_consistency(self) -> None:
        """Assert the two indexes mirror each other (used by tests)."""
        forward = {
            (key, tx, mode)
            for key, holders in self._held.items()
            for tx, modes in holders.items()
            for mode in modes
        }
        backward = {
            (key, tx, mode)
            for tx, keys in self._by_tx.items()
            for key, modes in keys.items()
            for mode in modes
        }
        if forward != backward:
            raise LockError("lock table indexes diverged")
        if len(forward) != self._grants:
            raise LockError(
                f"grant counter diverged: {self._grants} != {len(forward)}"
            )
