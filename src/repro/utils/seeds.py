"""Deterministic seeds derived from labels.

The session's per-task seeds, the sweep's per-cell seeds and the server's
per-tenant request seeds all come from :func:`stable_seed`, so each layer
derives a stream the same way.
"""

from __future__ import annotations

import hashlib

__all__ = ["stable_seed"]


def stable_seed(*parts: object) -> int:
    """Deterministic 63-bit seed derived from the string forms of ``parts``.

    The sha256 of the parts joined by ``"\\x1f"``, truncated to 63 bits.
    Stable across processes and Python versions (unlike ``hash``), so sweep
    cells keep their seeds when a grid is extended or records are resumed.

    >>> stable_seed(7, "cell", "ghz_2") == stable_seed(7, "cell", "ghz_2")
    True
    >>> 0 <= stable_seed("a") < 2**63
    True
    """
    digest = hashlib.sha256("\x1f".join(str(part) for part in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)
