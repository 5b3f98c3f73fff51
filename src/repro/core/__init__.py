"""Jiffy control plane: the paper's primary contribution.

* :mod:`repro.core.plane` — the transport-agnostic ControlPlane interface
* :mod:`repro.core.hierarchy` — hierarchical addressing (§3.1)
* :mod:`repro.core.lease` — lease-based lifetime management (§3.2)
* :mod:`repro.core.allocator` — block allocator + free list (§4.2.1)
* :mod:`repro.core.metadata` — data-structure partition metadata
* :mod:`repro.core.controller` — the unified control plane (§4.2.1)
* :mod:`repro.core.sharding` — multi-core/multi-server controller scaling
* :mod:`repro.core.client` — the user-facing API of Table 1
* :mod:`repro.core.notifications` — subscription/notification interface
* :mod:`repro.core.replication` — chain replication at block granularity
"""

from repro.core.hierarchy import AddressHierarchy, AddressNode, join_path, split_path
from repro.core.plane import BACKENDS, CONTROL_SURFACE, ControlPlane, OpSpec, make_control_plane
from repro.core.controller import JiffyController
from repro.core.client import JiffyClient, connect
from repro.core.notifications import Listener, Notification, NotificationBroker
from repro.core.sharding import ShardedController
from repro.core.replication import ChainReplicator
from repro.core.autoscale import ClusterAutoscaler
from repro.core.failover import PrimaryBackupController

__all__ = [
    "AddressHierarchy",
    "AddressNode",
    "join_path",
    "split_path",
    "BACKENDS",
    "CONTROL_SURFACE",
    "ControlPlane",
    "OpSpec",
    "make_control_plane",
    "JiffyController",
    "JiffyClient",
    "connect",
    "Listener",
    "Notification",
    "NotificationBroker",
    "ShardedController",
    "ChainReplicator",
    "ClusterAutoscaler",
    "PrimaryBackupController",
]
