"""Message-pattern (time-free) Omega -- the [21, 23] approach.

No timing assumption whatsoever: the algorithm never sets a timeout.
Each process runs query/response rounds:

* broadcast ``QUERY(seq)``; peers answer ``RESPONSE(seq)`` immediately
  (both carry the sender's miss-counter vector, merged by pointwise
  max);
* the first ``n - t - 1`` responses to arrive (plus the querier's
  implicit self-response, giving the paper's ``n - t`` winners) are the
  round's *winning responses*; every other peer's miss counter
  increments;
* the next round starts as soon as the current one closes -- pacing
  comes from message latency alone, so the construction is genuinely
  time-free;
* ``leader() = lexmin(misses[j], j)``.

The behavioural assumption (from [21]) is that some correct process
``p`` responds among the winners of every query issued by some set
``Q`` of ``t + 1`` processes, eventually.  :func:`pattern_friendly_links`
realizes a strong form of it: ``p``'s response latency is strictly
below everyone else's lower bound, so ``p`` is *always* a winner (and
the assumption is incomparable with timeliness: all other links may be
arbitrarily slow, which the model makes them).

Simplification vs [23]: counters gossip inside the queries/responses
themselves rather than through their exact exchange structure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.core.lexmin import lexmin_pair
from repro.netsim.network import ChannelBehavior, Message
from repro.netsim.runtime import MpProcess
from repro.sim.rng import RngRegistry


class _SplitLatencyLinks:
    """No-loss links making one process's query round-trip strictly
    fastest: queries *to* it and responses *from* it beat everyone
    else's lower bound, so its response is always among the winners.
    All other traffic has unbounded-looking delays (spikes) -- only the
    *order* of arrivals is constrained, which is the point of the
    pattern approach."""

    def __init__(self, rng: RngRegistry, fast_sources: Set[int]) -> None:
        self._streams = rng.per_link("link")
        self.fast_sources = frozenset(fast_sources)

    def delivery_delay(self, message: Message) -> Optional[float]:
        stream = self._streams[message.sender, message.receiver]
        fast = (message.sender in self.fast_sources and message.kind == "RESPONSE") or (
            message.receiver in self.fast_sources and message.kind == "QUERY"
        )
        if fast:
            return stream.uniform(0.2, 0.5)
        if stream.random() < 0.1:
            return stream.uniform(10.0, 60.0)  # spike: no bound is safe
        return stream.uniform(0.6, 5.0)


def pattern_friendly_links(rng: RngRegistry, winner: int = 0) -> ChannelBehavior:
    """Channels satisfying the winning-responses assumption for ``winner``."""
    return _SplitLatencyLinks(rng, {winner})


class PatternOmega(MpProcess):
    """Query/response, winning-set Omega (time-free family).

    Config keys:

    ``t`` (default 1)
        Assumed fault bound; a round closes on its first ``n - t``
        winners (querier included).
    """

    display_name = "mp-pattern"

    def __init__(self, pid: int, n: int, config: Dict[str, Any]) -> None:
        super().__init__(pid, n, config)
        self.t: int = int(config.get("t", 1))
        if not 0 < self.t < n:
            raise ValueError("need 0 < t < n")
        #: Merged miss counters.
        self.misses: List[int] = [0] * n
        self.seq = 0
        self._responders: Set[int] = set()
        self._round_open = False

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Open the first query round at process start."""
        self._open_round()

    def _open_round(self) -> None:
        self.seq += 1
        self._responders = {self.pid}  # implicit self-response
        self._round_open = True
        self.broadcast("QUERY", (self.seq, list(self.misses)))

    def _close_round(self) -> None:
        # Everyone who did not respond among the first n - t is missed.
        for j in range(self.n):
            if j not in self._responders:
                self.misses[j] += 1
        self._round_open = False
        self._open_round()

    def on_message(self, message: Message) -> None:
        """Merge gossiped miss counters; answer queries; close the round
        once the first ``n - t`` responders are in."""
        if message.kind == "QUERY":
            seq, counters = message.payload
            self._merge(counters)
            self.send(message.sender, "RESPONSE", (seq, list(self.misses)))
        elif message.kind == "RESPONSE":
            seq, counters = message.payload
            self._merge(counters)
            if not self._round_open or seq != self.seq:
                return  # stale response from an already-closed round
            self._responders.add(message.sender)
            if len(self._responders) >= self.n - self.t:
                self._close_round()

    def _merge(self, counters: List[int]) -> None:
        for k, count in enumerate(counters):
            if count > self.misses[k]:
                self.misses[k] = count

    # ------------------------------------------------------------------
    def peek_leader(self) -> int:
        """The lexicographically minimal ``(miss count, pid)`` process."""
        return lexmin_pair((self.misses[j], j) for j in range(self.n))[1]


__all__ = ["PatternOmega", "pattern_friendly_links"]
