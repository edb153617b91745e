"""The time-ordered event queue: a collision-bucketed tuple heap.

The queue is the heart of the simulator, and every experiment bottoms
out in its schedule/fire cycle, so entries are bare tuples rather than
objects::

    (time, seq, kind_id, pid, callback, token)

ordered by ``(time, seq)``.  The monotonically increasing sequence
number makes ordering *stable* -- two events scheduled for the same
instant fire in the order they were scheduled, which keeps runs
deterministic and makes the linearization order of same-time register
operations well defined -- and, because it is unique, tuple comparison
never reaches the non-comparable ``callback`` element.

Storage is *hybrid*: the binary heap holds at most one entry per
distinct timestamp, and every further event scheduled for an
already-pending timestamp lands in that timestamp's FIFO **collision
bucket** (a plain list in ``_buckets``).  Equal-timestamp events are the
common case in batch-shaped workloads -- broadcast deliveries over
fixed-delay links, aligned timer populations -- and the bucket turns
their heap ``O(log n)`` push/pop into two ``O(1)`` list operations while
preserving exact ``(time, seq)`` order: the heap entry is always the
*first* event scheduled for its timestamp, and bucket entries follow in
append (= seq) order.  :class:`EventQueue` is only the storage: the
fused schedulers of :class:`~repro.sim.kernel.Simulator` file entries,
and its run loop drains a timestamp's heap entry and its bucket as one
*batch*.

Two bookkeeping details keep the hybrid exact:

* an *empty* bucket is the shared ``_EMPTY`` marker (no list allocated),
  so unique-timestamp workloads pay one dict hit and nothing else;
* when a run loop stops mid-batch (``stop()``, ``max_events``,
  ``stop_when``), the undrained bucket entries are pushed back into the
  heap *individually* and ``_direct_time`` pins that timestamp to
  heap-direct scheduling, so every event at the interrupted instant --
  restored or newly scheduled -- keeps strict seq order.

``kind_id`` is an interned integer id for the event-kind label
(``"step"``, ``"timer"``, ...): interning happens once per distinct
string, so the hot path never hashes label strings into per-event
records.  ``token`` is ``None`` on the dominant schedule-and-fire path,
where ``callback`` is a zero-argument callable.  Cancellation has one
mechanism, the columnar :class:`EventLane`: a cancellable event's entry
carries the lane in the ``callback`` slot and an *integer* token that
indexes the lane's preallocated payload/generation columns, so arming a
timer allocates no handle object at all.  Cancelling is the O(1)
lazy-cancel trick: the entry stays queued and the run loop skips it as
stale when it comes up.  Every re-armed timer is a lane user -- the
timer service's expirations, the message-passing runtime's named timers
and the register emulation's retransmission timers; netsim message
deliveries are never cancelled, so they take the plain path.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional

#: Shared marker for "timestamp is in the heap with no collisions yet".
#: Falsy and zero-length, so bucket-size arithmetic needs no special
#: case; never mutated.
_EMPTY: tuple = ()

#: Lane tokens pack ``(generation << _SLOT_BITS) | slot``; 32 slot bits
#: bound a lane at ~4e9 *concurrently live* events, far past any run.
_SLOT_BITS = 32
_SLOT_MASK = (1 << _SLOT_BITS) - 1

# ----------------------------------------------------------------------
# Kind interning
# ----------------------------------------------------------------------
_KIND_IDS: dict = {}
_KIND_NAMES: list = []


def intern_kind(kind: str) -> int:
    """Return the stable integer id of an event-kind label.

    Ids are process-global and assigned in first-seen order; they are an
    in-memory optimization only and must never be persisted.
    """
    kid = _KIND_IDS.get(kind)
    if kid is None:
        kid = len(_KIND_NAMES)
        _KIND_IDS[kind] = kid
        _KIND_NAMES.append(kind)
    return kid


def kind_name(kind_id: int) -> str:
    """The label interned as ``kind_id`` (IndexError if never interned)."""
    return _KIND_NAMES[kind_id]


class EventLane:
    """Columnar fast lane for one high-volume cancellable event kind.

    A lane preallocates parallel *columns* -- a payload slot array and a
    per-slot generation counter -- plus a free list of slot indices.
    Scheduling through a lane stores the payload in a free slot and
    returns an integer **token** (generation + slot packed into one
    int); cancelling or firing bumps the slot's generation so any stale
    queue entry still referencing the old token is skipped when popped
    (lazy cancellation without a per-event handle allocation; a kind
    that is never cancelled gains nothing from a lane and takes the
    plain path).

    ``consume`` is the single per-lane delivery function, called with
    the stored payload when a live token fires; when ``consume`` is
    ``None`` the payload itself must be a zero-argument callable and is
    invoked directly (the timer-service pattern, where every armed timer
    carries its own callback).
    """

    __slots__ = ("kind", "kind_id", "_consume", "_payloads", "_gens", "_free")

    def __init__(
        self,
        kind: str,
        consume: Optional[Callable[[Any], None]] = None,
        capacity: int = 32,
    ) -> None:
        if capacity < 1:
            raise ValueError("lane capacity must be positive")
        self.kind = kind
        self.kind_id = intern_kind(kind)
        self._consume = consume
        self._payloads: List[Any] = [None] * capacity
        self._gens: List[int] = [0] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    def acquire(self, payload: Any) -> int:
        """Store ``payload`` in a free slot; return its live token.

        The columns double in place when full, so a lane sized for the
        steady state absorbs bursts without per-event allocation
        afterwards.
        """
        free = self._free
        if not free:
            base = len(self._payloads)
            self._payloads.extend([None] * base)
            self._gens.extend([0] * base)
            free.extend(range(2 * base - 1, base - 1, -1))
        slot = free.pop()
        self._payloads[slot] = payload
        return (self._gens[slot] << _SLOT_BITS) | slot

    def cancel(self, token: int) -> bool:
        """Disarm ``token``; False when it already fired or was cancelled.

        O(1): the queue entry stays queued and dies as *stale* (its
        generation no longer matches) when popped.
        """
        slot = token & _SLOT_MASK
        if self._gens[slot] != token >> _SLOT_BITS:
            return False
        self._gens[slot] += 1
        self._payloads[slot] = None
        self._free.append(slot)
        return True

    def live(self, token: int) -> bool:
        """True while ``token`` is armed (not yet fired or cancelled)."""
        return self._gens[token & _SLOT_MASK] == token >> _SLOT_BITS

    def fire(self, token: int) -> bool:
        """Deliver ``token``'s payload; False when the token is stale.

        Called by the kernel's run loop when a lane entry is popped.
        The slot is released *before* the payload is consumed, so a
        consumer may re-schedule through the lane immediately.
        """
        slot = token & _SLOT_MASK
        gens = self._gens
        if gens[slot] != token >> _SLOT_BITS:
            return False
        payload = self._payloads[slot]
        self._payloads[slot] = None
        gens[slot] += 1
        self._free.append(slot)
        consume = self._consume
        if consume is None:
            payload()
        else:
            consume(payload)
        return True


class EventQueue:
    """The hybrid storage of a :class:`~repro.sim.kernel.Simulator`'s events.

    The heap (``_heap``) holds one entry per distinct pending timestamp;
    collisions append to that timestamp's FIFO bucket in ``_buckets``
    (see the module docstring).  The kernel's fused schedulers and run
    loop are the only readers and writers of these structures, which
    they access directly, friend-style; their identities are stable
    (see :meth:`clear`).
    """

    __slots__ = ("_heap", "_buckets", "_next_seq", "_direct_time")

    def __init__(self) -> None:
        self._heap: list = []
        self._buckets: dict = {}
        self._next_seq = itertools.count().__next__
        # Timestamp forced to heap-direct scheduling after a mid-batch
        # stop (NaN matches nothing, so the common path has no flag).
        self._direct_time = float("nan")

    def __len__(self) -> int:
        return len(self._heap) + sum(map(len, self._buckets.values()))

    def clear(self) -> None:
        """Drop all pending events (in place; the heap list and bucket
        dict identities are stable so the kernel may hold direct
        references to them)."""
        self._heap.clear()
        self._buckets.clear()
        self._direct_time = float("nan")


__all__ = [
    "EventLane",
    "EventQueue",
    "intern_kind",
    "kind_name",
]


# --- kernel-variant rebind (stripped from the compiled build) ---------
# When tools/build_kernel_ext.py has produced repro.sim._ckernel and
# REPRO_KERNEL permits it (see repro.sim.variant), expose the compiled
# classes under the public names; everything above remains the always-
# available pure-Python fallback.  The kind-interning tables must be the
# compiled module's so both variants agree on kind ids.
from repro.sim import variant as _variant

if _variant.want_compiled():
    try:
        from repro.sim import _ckernel as _ckernel
    except Exception as _exc:  # noqa: BLE001 - any import failure -> fallback
        if _variant.requested() == "compiled":
            _variant.mark_python(
                f"REPRO_KERNEL=compiled but repro.sim._ckernel failed to import "
                f"({_exc!r}); pure-Python fallback"
            )
        del _exc
    else:
        EventLane = _ckernel.EventLane  # type: ignore[misc]
        EventQueue = _ckernel.EventQueue  # type: ignore[misc]
        intern_kind = _ckernel.intern_kind
        kind_name = _ckernel.kind_name
        _EMPTY = _ckernel._EMPTY
        _KIND_IDS = _ckernel._KIND_IDS
        _KIND_NAMES = _ckernel._KIND_NAMES
        _variant.mark_compiled()
