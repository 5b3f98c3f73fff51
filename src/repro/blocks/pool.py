"""A pool of memory servers — the data plane's physical capacity.

The controller's block allocator draws from this pool. The pool supports
cluster-capacity scaling (adding/removing servers) which the paper
inherits from Pocket and treats as orthogonal (§3 remark); it is
implemented here for completeness and exercised by tests, but the
experiments hold cluster capacity fixed, as the paper does.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterator, List, Optional, Set

from repro.blocks.block import Block, BlockId
from repro.blocks.server import MemoryServer
from repro.errors import BlockError, CapacityError


class MemoryPool:
    """All memory servers in the cluster, with least-loaded placement."""

    def __init__(self, block_size: int) -> None:
        if block_size <= 0:
            raise BlockError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size
        self._servers: Dict[str, MemoryServer] = {}
        # Block-id → hosting server route table, maintained at server
        # add/remove so per-op resolution is one dict hit instead of a
        # string parse + hosted check on every data-plane access.
        self._block_server: Dict[BlockId, MemoryServer] = {}
        self._next_server = 0
        # Servers scheduled to leave: their resident blocks stay readable
        # and writable while the controller drains them, but no *new*
        # allocations land there.
        self._draining: Set[str] = set()
        # Servers cut off by a (simulated) network partition: unreachable
        # for every block operation until healed.
        self._partitioned: Set[str] = set()

    # ------------------------------------------------------------------
    # Cluster capacity scaling
    # ------------------------------------------------------------------

    def add_server(self, num_blocks: int, server_id: Optional[str] = None) -> str:
        """Attach a new memory server; returns its id."""
        if server_id is None:
            server_id = f"server-{self._next_server}"
            self._next_server += 1
        if server_id in self._servers:
            raise BlockError(f"server {server_id} already in pool")
        server = MemoryServer(server_id, num_blocks, self.block_size)
        self._servers[server_id] = server
        self._register_blocks(server)
        return server_id

    def _register_blocks(self, server: MemoryServer) -> None:
        for block in server._blocks:
            self._block_server[block.block_id] = server

    def _unregister_blocks(self, server: MemoryServer) -> None:
        for block in server._blocks:
            self._block_server.pop(block.block_id, None)

    def remove_server(self, server_id: str) -> None:
        """Detach a server; it must have no allocated blocks."""
        server = self._get_server(server_id)
        if server.allocated_blocks:
            raise BlockError(
                f"server {server_id} still has {server.allocated_blocks} "
                "allocated blocks"
            )
        del self._servers[server_id]
        self._unregister_blocks(server)
        self._draining.discard(server_id)
        self._partitioned.discard(server_id)

    def kill_server(self, server_id: str) -> List[BlockId]:
        """Crash a server: its memory is lost, not drained.

        Payloads of resident blocks are destroyed in place (so any data
        structure still holding them observes the loss) and the server is
        detached regardless of allocation state. Returns the ids of the
        blocks that were allocated at the moment of death — the
        controller uses this list to promote replicas or record loss.
        """
        server = self._get_server(server_id)
        lost = server.wipe()
        del self._servers[server_id]
        self._unregister_blocks(server)
        self._draining.discard(server_id)
        self._partitioned.discard(server_id)
        return lost

    # ------------------------------------------------------------------
    # Membership state: draining and partitions
    # ------------------------------------------------------------------

    def mark_draining(self, server_id: str) -> None:
        """Exclude a server from new allocations while it drains."""
        self._get_server(server_id)
        self._draining.add(server_id)

    def is_draining(self, server_id: str) -> bool:
        return server_id in self._draining

    def partition(self, server_id: str) -> None:
        """Simulate a network partition: the server becomes unreachable."""
        self._get_server(server_id)
        self._partitioned.add(server_id)

    def heal(self, server_id: str) -> None:
        """Heal a simulated partition."""
        self._partitioned.discard(server_id)

    def is_partitioned(self, server_id: str) -> bool:
        return server_id in self._partitioned

    def has_server(self, server_id: str) -> bool:
        return server_id in self._servers

    def draining_servers(self) -> List[str]:
        """Ids of servers currently marked draining (sorted)."""
        return sorted(self._draining)

    def blocks_on(self, server_id: str) -> List[BlockId]:
        """Ids of the blocks currently allocated on a server."""
        server = self._get_server(server_id)
        return [block.block_id for block in server.iter_allocated()]

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, exclude: Optional[Collection[str]] = None) -> Block:
        """Allocate one block from the least-loaded eligible server.

        Draining and partitioned servers never receive new allocations;
        ``exclude`` additionally skips the named servers (chain
        replication uses it to place each replica on a distinct server).
        """
        candidates = [
            s
            for sid, s in self._servers.items()
            if s.free_blocks > 0
            and sid not in self._draining
            and sid not in self._partitioned
            and (exclude is None or sid not in exclude)
        ]
        if not candidates:
            raise CapacityError("memory pool exhausted: no free blocks")
        target = min(
            candidates, key=lambda s: (s.allocated_blocks, s.server_id)
        )
        return target.allocate()

    def reclaim(self, block_id: BlockId) -> None:
        """Return a block to its hosting server's free list."""
        self._server_of(block_id).reclaim(block_id)

    def is_allocated(self, block_id: BlockId) -> bool:
        """Whether a block id is currently allocated (False if unknown)."""
        server = self._block_server.get(block_id)
        if server is None:
            return False
        try:
            slot = server._slot(block_id)
        except BlockError:
            return False
        return bool(server._allocated[slot])

    def iter_allocated_blocks(self) -> Iterator[Block]:
        """Yield every allocated block across all servers."""
        for server in self._servers.values():
            yield from server.iter_allocated()

    def get_block(self, block_id: BlockId) -> Block:
        """Resolve a block id to its :class:`Block`."""
        server = self._server_of(block_id)
        if server.server_id in self._partitioned:
            raise BlockError(
                f"server {server.server_id} is partitioned: "
                f"block {block_id} unreachable"
            )
        return server.get(block_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_servers(self) -> int:
        return len(self._servers)

    @property
    def total_blocks(self) -> int:
        return sum(s.num_blocks for s in self._servers.values())

    @property
    def free_blocks(self) -> int:
        return sum(s.free_blocks for s in self._servers.values())

    @property
    def allocated_blocks(self) -> int:
        return self.total_blocks - self.free_blocks

    @property
    def capacity_bytes(self) -> int:
        return self.total_blocks * self.block_size

    def used_bytes(self) -> int:
        return sum(s.used_bytes() for s in self._servers.values())

    def allocated_bytes(self) -> int:
        return self.allocated_blocks * self.block_size

    def servers(self) -> List[MemoryServer]:
        return list(self._servers.values())

    def _get_server(self, server_id: str) -> MemoryServer:
        try:
            return self._servers[server_id]
        except KeyError:
            raise BlockError(f"no server {server_id} in pool") from None

    def _server_of(self, block_id: BlockId) -> MemoryServer:
        server = self._block_server.get(block_id)
        if server is None:
            raise BlockError(f"no server in pool hosts block {block_id}")
        return server

    def __repr__(self) -> str:
        return (
            f"MemoryPool(servers={self.num_servers}, "
            f"allocated={self.allocated_blocks}/{self.total_blocks})"
        )
