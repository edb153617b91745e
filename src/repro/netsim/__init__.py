"""Message-passing simulation substrate (related-work axis).

The paper's Section 1 situates its contribution against the
message-passing Omega literature: timer-based algorithms over
eventually-timely links (Aguilera et al. [2, 3], Larrea et al. [17])
and the time-free message-pattern approach (Mostefaoui et al. [21,
23]).  To make that comparison executable, this package provides the
network analogue of :mod:`repro.memory`:

* point-to-point channels with pluggable per-link delay behaviour,
  message loss, and the *eventually timely source* property of [2]
  (after some unknown time, one correct process's outgoing links
  deliver within a bound);
* message-passing processes and their per-process runtime (handlers
  for messages and timers) -- message-passing algorithms are reactive,
  so they use handler style rather than the shared-memory package's
  step coroutines, and :class:`~repro.core.runner.Run` executes them
  like any other algorithm;
* full traffic accounting, mirroring the shared-memory access logs, so
  the same censuses (who sends forever, convergence times) apply.

Two subsystems build on top: :mod:`repro.related` (the related-work
Omega algorithms as :class:`MpProcess` subclasses) and
:mod:`repro.memory.emulated` (the ABD-style quorum emulation of the
paper's 1WMR registers, which turns every shared-memory algorithm in
the repo into a message-passing experiment).
"""

from repro.netsim.network import (
    ChannelBehavior,
    EventuallyTimelyLinks,
    FairLossyLinks,
    Message,
    Network,
    RampLinks,
    SynchronousLinks,
    TimelyLinks,
)
from repro.netsim.runtime import MpProcess, MpProcessRuntime

__all__ = [
    "ChannelBehavior",
    "EventuallyTimelyLinks",
    "FairLossyLinks",
    "Message",
    "MpProcess",
    "MpProcessRuntime",
    "Network",
    "RampLinks",
    "SynchronousLinks",
    "TimelyLinks",
]
