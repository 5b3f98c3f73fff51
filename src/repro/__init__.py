"""Jiffy: elastic far-memory for stateful serverless analytics.

A from-scratch Python reproduction of the EuroSys '22 paper by
Khandelwal, Tang, Agarwal, Akella and Stoica. The public API mirrors the
paper's Table 1:

    >>> from repro import JiffyController, connect, JiffyConfig
    >>> from repro.sim import SimClock
    >>> clock = SimClock()
    >>> controller = JiffyController(JiffyConfig(block_size=1024), clock=clock)
    >>> client = connect(controller, "job-0")
    >>> _ = client.create_addr_prefix("map-0")
    >>> kv = client.init_data_structure("map-0", "kv_store")
    >>> kv.put(b"hello", b"world")
    >>> kv.get(b"hello")
    b'world'

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results of every figure.
"""

from repro.config import (
    GB,
    KB,
    MB,
    JiffyConfig,
    PAPER_CONFIG,
    TEST_CONFIG,
)
from repro.blocks import TieredMemoryPool
from repro.core import (
    AddressHierarchy,
    AddressNode,
    ChainReplicator,
    ClusterAutoscaler,
    ControlPlane,
    JiffyClient,
    JiffyController,
    Listener,
    Notification,
    PrimaryBackupController,
    ShardedController,
    connect,
    make_control_plane,
)
from repro.datastructures import (
    CuckooHashTable,
    DataStructure,
    JiffyFile,
    JiffyKVStore,
    JiffyQueue,
    register_datastructure,
)
from repro.errors import (
    CapacityError,
    DataStructureError,
    JiffyError,
    KeyNotFoundError,
    LeaseExpiredError,
    QueueEmptyError,
    QueueFullError,
)
from repro.sim import SimClock, WallClock
from repro.storage import ExternalStore

__version__ = "1.0.0"

__all__ = [
    "JiffyConfig",
    "PAPER_CONFIG",
    "TEST_CONFIG",
    "KB",
    "MB",
    "GB",
    "ControlPlane",
    "make_control_plane",
    "JiffyController",
    "JiffyClient",
    "ShardedController",
    "ChainReplicator",
    "ClusterAutoscaler",
    "PrimaryBackupController",
    "TieredMemoryPool",
    "connect",
    "AddressHierarchy",
    "AddressNode",
    "Listener",
    "Notification",
    "DataStructure",
    "JiffyFile",
    "JiffyQueue",
    "JiffyKVStore",
    "CuckooHashTable",
    "register_datastructure",
    "SimClock",
    "WallClock",
    "ExternalStore",
    "JiffyError",
    "CapacityError",
    "DataStructureError",
    "KeyNotFoundError",
    "LeaseExpiredError",
    "QueueEmptyError",
    "QueueFullError",
    "__version__",
]
