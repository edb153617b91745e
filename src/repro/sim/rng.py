"""Named, seeded random streams.

Every stochastic component of a run (each process's step-delay model,
each timer, the crash plan, the workload) draws from its *own* named
stream derived from the run seed.  This has two payoffs:

* **Reproducibility** -- a run is a pure function of ``(config, seed)``.
* **Insensitivity** -- adding a random draw to one component does not
  shift the sequence seen by any other component, so scenarios remain
  comparable across library versions.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, Tuple


def derive_seed(base_seed: int, name: str) -> int:
    """Derive a child seed from ``base_seed`` and a stream ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    processes (unlike ``hash()``, which is salted per interpreter).
    """
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory of independent :class:`random.Random` streams.

    >>> reg = RngRegistry(seed=7)
    >>> a = reg.stream("crash").random()
    >>> b = RngRegistry(seed=7).stream("crash").random()
    >>> a == b
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoised) stream for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = random.Random(derive_seed(self.seed, name))
        return stream

    def per_pid(self, prefix: str) -> "PidStreams":
        """The ``f"{prefix}:{pid}"`` streams, indexable by pid."""
        return PidStreams(self, prefix)

    def per_link(self, prefix: str) -> "LinkStreams":
        """The ``f"{prefix}:{sender}->{receiver}"`` streams, indexable
        by ``(sender, receiver)``."""
        return LinkStreams(self, prefix)


class PidStreams(Dict[Any, random.Random]):
    """``streams[pid]`` is ``registry.stream(f"{prefix}:{pid}")``.

    Per-step consumers (delay models, timers) index this instead of
    formatting the stream name on every draw; a pid's stream is bound on
    first use, so streams are created exactly when they were before.
    """

    def __init__(self, registry: RngRegistry, prefix: str) -> None:
        super().__init__()
        self._registry = registry
        self._prefix = prefix

    def __missing__(self, pid: Any) -> random.Random:
        stream = self[pid] = self._registry.stream(f"{self._prefix}:{pid}")
        return stream


class LinkStreams(PidStreams):
    """``streams[sender, receiver]`` is
    ``registry.stream(f"{prefix}:{sender}->{receiver}")``: the per-link
    streams of the netsim channel models, bound on first use like
    :class:`PidStreams`."""

    def __missing__(self, link: Tuple[int, int]) -> random.Random:
        stream = self[link] = self._registry.stream(f"{self._prefix}:{link[0]}->{link[1]}")
        return stream


__all__ = ["LinkStreams", "PidStreams", "RngRegistry", "derive_seed"]
