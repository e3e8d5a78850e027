"""Consistent-hash ring over partition-store keys.

The fleet places every partition key (``graph_fp:config_fp`` from
:mod:`repro.service.fingerprint`) on a ring of virtual nodes.  Each
shard contributes ``virtual_nodes`` points — blake2b digests of
``"{shard}#{v}"`` — and a key is owned by the first ``replicas``
*distinct* shards clockwise from the key's own point.  blake2b keeps
placement independent of ``PYTHONHASHSEED``; virtual nodes smooth the
per-shard load; and the classic consistent-hashing property holds:
adding one shard to ``N`` moves only ~``K/(N+1)`` of ``K`` keys.

:func:`plan_moves` turns a ring change into an explicit, minimal
key-movement plan — per key, which shards must *fetch* a copy and which
must *drop* theirs — which :meth:`repro.fleet.fleet.PartitionFleet.
rebalance` executes and tests assert the moved-key count of.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ServiceError

__all__ = ["HashRing", "KeyMove", "MovePlan", "plan_moves"]


def _point(label: str) -> int:
    """64-bit ring coordinate of ``label`` (hash-seed independent)."""
    digest = hashlib.blake2b(label.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Virtual-node consistent hashing with a replication factor.

    ``shard_ids`` keep their given order for reporting, but placement
    depends only on the shard *names* (via their hashed points), so two
    rings built from the same set agree regardless of construction
    order or hash randomization.
    """

    def __init__(
        self,
        shard_ids: Sequence[str],
        *,
        virtual_nodes: int = 64,
        replicas: int = 1,
    ) -> None:
        ids = tuple(shard_ids)
        if not ids:
            raise ServiceError("a ring needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ServiceError(f"duplicate shard ids: {sorted(ids)}")
        if virtual_nodes < 1:
            raise ServiceError("virtual_nodes must be >= 1")
        if replicas < 1:
            raise ServiceError("replicas must be >= 1")
        self.shard_ids = ids
        self.virtual_nodes = int(virtual_nodes)
        #: Requested replication factor; effective placement width is
        #: ``min(replicas, len(shard_ids))``.
        self.replicas = int(replicas)
        entries: List[Tuple[int, str]] = []
        for shard in ids:
            for v in range(self.virtual_nodes):
                entries.append((_point(f"{shard}#{v}"), shard))
        # Ties (astronomically unlikely 64-bit collisions) break on the
        # shard id so the walk order is still deterministic.
        entries.sort()
        self._points = [p for p, _ in entries]
        self._owners = [s for _, s in entries]

    @property
    def num_shards(self) -> int:
        return len(self.shard_ids)

    def placement(self, key: str) -> Tuple[str, ...]:
        """The ``min(replicas, num_shards)`` owners of ``key``.

        The first entry is the primary; the rest are the replicas in
        ring-walk order.
        """
        want = min(self.replicas, self.num_shards)
        start = bisect_right(self._points, _point(key)) % len(self._points)
        owners: List[str] = []
        for i in range(len(self._points)):
            shard = self._owners[(start + i) % len(self._points)]
            if shard not in owners:
                owners.append(shard)
                if len(owners) == want:
                    break
        return tuple(owners)

    def primary(self, key: str) -> str:
        return self.placement(key)[0]

    def describe(self) -> dict:
        """Deterministic JSON-ready summary."""
        return {
            "shards": list(self.shard_ids),
            "virtual_nodes": self.virtual_nodes,
            "replicas": self.replicas,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HashRing({self.num_shards} shards, "
                f"{self.virtual_nodes} vnodes, R={self.replicas})")


@dataclass(frozen=True)
class KeyMove:
    """Placement change of one key across a ring change."""

    key: str
    old_placement: Tuple[str, ...]
    new_placement: Tuple[str, ...]
    #: Shards that must obtain a copy (in new placement order).
    fetch: Tuple[str, ...]
    #: Shards that must discard their copy.
    drop: Tuple[str, ...]

    @property
    def primary_moved(self) -> bool:
        return self.old_placement[0] != self.new_placement[0]

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "old": list(self.old_placement),
            "new": list(self.new_placement),
            "fetch": list(self.fetch),
            "drop": list(self.drop),
        }


@dataclass(frozen=True)
class MovePlan:
    """Minimal key-movement plan between two rings.

    Only keys whose owner *set* changed appear in ``moves``; a key both
    rings place identically costs nothing.  ``num_moved`` /
    ``num_primary_moved`` are what the consistent-hashing bound tests
    assert (adding one shard to ``N`` moves ~``K/(N+1)`` primaries).
    """

    moves: Tuple[KeyMove, ...]
    #: Keys whose placement is identical under both rings.
    unchanged: int = 0

    @property
    def num_moved(self) -> int:
        return len(self.moves)

    @property
    def num_primary_moved(self) -> int:
        return sum(1 for m in self.moves if m.primary_moved)

    @property
    def total_keys(self) -> int:
        return self.unchanged + len(self.moves)

    def to_json_dict(self) -> dict:
        return {
            "moves": [m.to_json_dict() for m in self.moves],
            "unchanged": self.unchanged,
            "num_moved": self.num_moved,
            "num_primary_moved": self.num_primary_moved,
        }


def plan_moves(
    old_ring: HashRing, new_ring: HashRing, keys: Iterable[str]
) -> MovePlan:
    """The explicit key-movement plan from ``old_ring`` to ``new_ring``.

    Keys are processed in sorted order so the plan (and everything a
    rebalance derives from it) is deterministic regardless of how the
    key set was collected.
    """
    moves: List[KeyMove] = []
    unchanged = 0
    seen: Dict[str, None] = {}
    for key in sorted(keys):
        if key in seen:
            continue
        seen[key] = None
        old_p = old_ring.placement(key)
        new_p = new_ring.placement(key)
        fetch = tuple(s for s in new_p if s not in old_p)
        drop = tuple(s for s in old_p if s not in new_p)
        if not fetch and not drop:
            unchanged += 1
            continue
        moves.append(KeyMove(key, old_p, new_p, fetch, drop))
    return MovePlan(moves=tuple(moves), unchanged=unchanged)
