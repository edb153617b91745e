"""The time-ordered event queue's entries: bare tuples on one heap.

The queue is the heart of the simulator, and every experiment bottoms
out in its schedule/fire cycle, so entries are bare tuples rather than
objects.  Their layout is a contract::

    (time, seq, kind_id, pid, callback, arg)

ordered by ``(time, seq)``.  ``time`` is a finite-or-infinite, never
NaN, virtual time no earlier than the clock at filing;  ``seq`` comes
from the simulator's one counter, ``Simulator.next_seq``, and is unique,
which makes ordering *stable* -- two events scheduled for the same
instant fire in the order their ``seq`` was drawn, which keeps runs
deterministic and makes the linearization order of same-time register
operations well defined -- and, because it is unique, tuple comparison
never reaches the non-comparable ``callback`` element.  The storage --
one binary heap and its counter -- lives on
:class:`~repro.sim.kernel.Simulator`.  Its checked schedulers file most
entries; three hot producers build the tuple themselves and file it
with ``Simulator.push``: the step loop (:mod:`repro.core.runner`),
message delivery (:mod:`repro.netsim.network`) and the register
emulation's retry wakes, one per wire address
(:mod:`repro.memory.emulated`).  No other module
may (the ``dispatch-raw-push`` lint rule).  This module holds what the
entries carry: the kind-interning table and the columnar
:class:`EventLane`.

``kind_id`` is an interned integer id for the event-kind label
(``"step"``, ``"timer"``, ...): interning happens once per distinct
string, so the hot path never hashes label strings into per-event
records.  ``pid`` is the process (or wire address) the event belongs
to, or ``None``.  ``arg`` is ``None`` on the dominant schedule-and-fire
path, where ``callback`` is a zero-argument callable; any other value
beside a callback that is not a lane is that callback's one argument
(how a netsim delivery hands its message to its handler).  Cancellation
has one mechanism, the columnar :class:`EventLane`: a cancellable
event's entry carries the lane in the ``callback`` slot and an
*integer* token that indexes the lane's preallocated payload/generation
columns, so arming a timer allocates no handle object at all.
Cancelling is the O(1) lazy-cancel trick: the entry stays queued and
the run loop skips it as stale when it comes up.  The lane users are
the timer service's expirations, the message-passing runtime's named
timers and the register emulation's retry wakes -- one per wire
address, carrying both its quorum ops' and its state-sync rounds'
retransmissions; netsim message deliveries are never cancelled, so
they take the one-argument path.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

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
    the stored payload when a live token fires -- the register
    emulation's wake lane passes its wake method, and each payload is
    the wire address (a client process or a replica address running a
    state-sync round) to retransmit for, so arming a retry builds no
    closure.  A consumer that returns
    ``False`` *declines* the event: the run loop counts it as skipped,
    not fired (a retry wake that finds its operation finished or due
    later).  When ``consume`` is ``None`` the
    payload itself must be a zero-argument callable and is invoked
    directly (the timer-service pattern, where every armed timer carries
    its own callback).  A slot holds its payload until the token fires,
    is cancelled, or :meth:`~repro.sim.kernel.Simulator.release` drops
    the queued entry at the end of a run.
    """

    __slots__ = ("kind", "kind_id", "_consume", "_payloads", "_gens", "_free")

    def __init__(
        self,
        kind: str,
        consume: Optional[Callable[[Any], Optional[bool]]] = None,
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
        """Deliver ``token``'s payload; False when the token is stale
        or the consumer declined the event.

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
            return True
        return consume(payload) is not False


__all__ = [
    "EventLane",
    "intern_kind",
]

