"""Timer substrate: assumption AWB2 made executable.

The paper's second assumption constrains only the *realized duration*
``T_R(tau, x)`` of each non-leader timer: there must exist a function
``f_R`` with

* **(f1)** -- beyond some ``(tau_f, x_f)``, ``f_R`` is non-decreasing in
  both arguments;
* **(f2)** -- ``lim_{x -> inf} f_R(tau_f, x) = +inf``;
* **(f3)** -- beyond ``(tau_f, x_f)``, ``T_R(tau, x) >= f_R(tau, x)``.

Crucially ``T_R`` itself may be wild: before ``tau_f`` it can fire
arbitrarily early (false suspicions!), and even afterwards it need not
be monotone -- it only has to *dominate* ``f_R`` (paper Figure 1).

``functions`` is the ``f`` library (plus deliberate violators for
negative tests), ``awb`` the ``T_R`` behaviour models, and ``service``
the kernel-attached timer service the algorithms use.
"""

from repro.timers.awb import (
    AccurateTimer,
    AsymptoticallyWellBehavedTimer,
    CappedTimer,
    TimerBehavior,
)
from repro.timers.functions import (
    AffineF,
    LinearF,
    LogF,
    SqrtF,
    check_f1,
    check_f2_divergence,
    check_f3_domination,
)
from repro.timers.service import TimerService

__all__ = [
    "AccurateTimer",
    "AffineF",
    "AsymptoticallyWellBehavedTimer",
    "CappedTimer",
    "LinearF",
    "LogF",
    "SqrtF",
    "TimerBehavior",
    "TimerService",
    "check_f1",
    "check_f2_divergence",
    "check_f3_domination",
]
