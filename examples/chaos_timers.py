"""Assumption AWB, demonstrated by turning it off and on.

Three runs of Algorithm 1 under an identical asynchrony profile (a slow
but bounded timely process; fast spiky followers), differing only in
the followers' timers:

* chaotic-then-AWB timers (the paper's assumption) -> stabilizes;
* capped timers (AWB2 violated, durations can never grow) -> churns
  forever;
* eventually-monotone timers (the *stronger* traditional assumption the
  paper generalizes) -> stabilizes too.

Run:  python examples/chaos_timers.py
"""

from __future__ import annotations

from repro import WriteEfficientOmega
from repro.analysis.report import format_series, format_table
from repro.analysis.suspicion import cumulative_suspicions
from repro.workloads.scenarios import capped_timers, chaotic_timers, slow_leader_awb


def suspicion_series(result, bucket=250.0):
    """Cumulative suspicion-write counts over time."""
    return cumulative_suspicions(result.memory, result.horizon, bucket=bucket)


def main() -> None:
    rows = []

    print("Run A: AWB timers with a long chaotic prefix (the paper's assumption)")
    scen = chaotic_timers(n=4)
    result_a = scen.run(WriteEfficientOmega, seed=3)
    report_a = result_a.stabilization(margin=scen.margin)
    xs, ys = suspicion_series(result_a)
    print(format_series("cumulative false suspicions", xs, ys))
    rows.append(["chaotic-then-AWB", report_a.holds, report_a.settle_time])

    print("\nRun B: capped timers (AWB2 violated) under a slow timely leader")
    scen_b = capped_timers(n=4)
    result_b = scen_b.run(WriteEfficientOmega, seed=3)
    report_b = result_b.stabilization(margin=scen_b.margin)
    xs, ys = suspicion_series(result_b)
    print(format_series("cumulative false suspicions", xs, ys))
    rows.append(["capped (violator)", report_b.holds, report_b.settle_time])

    print("\nRun C: same asynchrony as B, AWB timers restored")
    scen_c = slow_leader_awb(n=4)
    result_c = scen_c.run(WriteEfficientOmega, seed=3)
    report_c = result_c.stabilization(margin=scen_c.margin)
    xs, ys = suspicion_series(result_c)
    print(format_series("cumulative false suspicions", xs, ys))
    rows.append(["slow leader + AWB", report_c.holds, report_c.settle_time])

    print()
    print(format_table(["timers", "stabilized", "t_stabilize"], rows))
    print(
        "\nReading the curves: under AWB the suspicion counters (and with them"
        "\nthe timeouts) grow until timers out-wait the leader's write period,"
        "\nthen flatten -- Lemma 2 in action.  With capped timers the curve never"
        "\nflattens and no leader sticks."
    )


if __name__ == "__main__":
    main()
