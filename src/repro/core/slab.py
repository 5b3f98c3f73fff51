"""Slab-backed metadata containers for hot control-plane maps.

Per-op metadata on the allocation path used to allocate a fresh tuple or
dict entry per block; at replay scale (millions of allocations across
thousands of tenants) that churn dominates the control plane. These
containers keep metadata in parallel arrays indexed by small integers:

* :class:`Interner` — dense value→id interning, so repeated owner pairs
  (``(job_id, prefix)``) are stored once and referenced by int.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, Optional, TypeVar

H = TypeVar("H", bound=Hashable)


class Interner(Generic[H]):
    """Dense interning: each distinct value gets a stable small int id."""

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: Dict[H, int] = {}
        self._values: List[H] = []

    def intern(self, value: H) -> int:
        """Return the id for ``value``, assigning the next id if new."""
        index = self._ids.get(value)
        if index is None:
            index = len(self._values)
            self._ids[value] = index
            self._values.append(value)
        return index

    def lookup(self, value: H) -> Optional[int]:
        """Return the id for ``value`` without interning it."""
        return self._ids.get(value)

    def value(self, index: int) -> H:
        """Resolve an id back to its value."""
        return self._values[index]

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: object) -> bool:
        return value in self._ids
