"""Per-tenant deterministic seed streams.

Every tenant owns an independent, deterministic RNG stream: request ``k`` of
tenant ``t`` on a server seeded with ``S`` always runs with the seed

    sha256(S, "tenant", t, "request", k)  (truncated to 63 bits)

No allocation ever depends on *other* tenants' traffic, so a tenant's result
sequence is bit-reproducible regardless of how the scheduler interleaves it
with concurrent tenants — the serial-replay oracle of the concurrency test
suite: replay one tenant's requests alone, in per-tenant order, against a
fresh server with the same server seed, and every value must match exactly.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from repro.utils.seeds import stable_seed

__all__ = ["TenantRegistry", "tenant_request_seed"]


def tenant_request_seed(server_seed: int, tenant: str, seq: int) -> int:
    """The seed of request ``seq`` (0-based) in ``tenant``'s stream.

    Pure function of ``(server_seed, tenant, seq)`` — the replay oracle
    computes expected seeds without a server.

    >>> a = tenant_request_seed(0, "alice", 0)
    >>> a == tenant_request_seed(0, "alice", 0)
    True
    >>> len({a, tenant_request_seed(0, "alice", 1),
    ...      tenant_request_seed(0, "bob", 0), tenant_request_seed(1, "alice", 0)})
    4
    """
    return stable_seed(server_seed, "tenant", tenant, "request", seq)


class TenantRegistry:
    """Allocates per-tenant sequence numbers and their deterministic seeds.

    Allocation order *within* a tenant is the server's arrival order for
    that tenant; allocations of different tenants never interact.  Safe to
    call from any thread (the server allocates on its event loop, tests may
    poke it directly).
    """

    def __init__(self, server_seed: int = 0) -> None:
        self.server_seed = int(server_seed)
        self._lock = threading.Lock()
        self._sequences: Dict[str, int] = {}

    def allocate(self, tenant: str) -> Tuple[int, int]:
        """Consume the tenant's next slot: returns ``(seq, seed)``."""
        with self._lock:
            seq = self._sequences.get(tenant, 0)
            self._sequences[tenant] = seq + 1
        return seq, tenant_request_seed(self.server_seed, tenant, seq)

    def snapshot(self) -> Dict[str, int]:
        """Requests allocated so far, per tenant (the ``/stats`` view)."""
        with self._lock:
            return dict(self._sequences)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sequences)
