"""Every registry entry runs, not just is named.

``repro run`` drives each scenario factory at a tiny horizon once with
no override, then once per value of each override axis
(:data:`~repro.engine.spec.OVERRIDE_AXES`) and once per link model
(:data:`~repro.memory.emulated.LINK_MODELS`), one axis at a time.  A
case either simulates (exit 0, or 1 for a cell that does not stabilize
or fails its audit in so short a run) or is refused as a usage error:
exit 2 with exactly one ``repro run: error:`` line.  A refusal is
expected exactly where this test's own rule says so, and a traceback,
or argparse rejecting a registry key, fails the case.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import pytest

from repro.cli import main
from repro.engine.spec import OVERRIDE_AXES
from repro.memory.emulated import LINK_MODELS
from repro.workloads.registry import SCENARIO_FACTORIES

HORIZON = 120.0

#: Flags that only configure the emulated backend.
EMULATED_ONLY = ("--consistency", "--membership", "--links")


def _cases() -> Iterator[Tuple[str, Tuple[str, ...]]]:
    for name in SCENARIO_FACTORIES:
        yield name, ()
        for axis, (_noun, vocabulary, _help) in OVERRIDE_AXES.items():
            for value in vocabulary:
                yield name, (f"--{axis}", value)
        for model in LINK_MODELS:
            yield name, ("--links", model)


def _refusal_expected(name: str, override: Tuple[str, ...]) -> bool:
    """An emulated-only flag on a cell that runs shared, or the SAN
    disk forced onto the emulated backend."""
    if not override:
        return False
    scen = SCENARIO_FACTORIES[name](horizon=HORIZON)
    flag, value = override
    if flag in EMULATED_ONLY:
        return scen.memory == "shared"
    return flag == "--memory" and value == "emulated" and scen.make_disk is not None


@pytest.mark.parametrize(
    ("name", "override"),
    list(_cases()),
    ids=lambda case: case if isinstance(case, str) else "=".join(case).lstrip("-") or "own",
)
def test_every_registry_entry_runs(name, override, capsys):
    argv = ["run", "--scenario", name, "--horizon", str(HORIZON), *override]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refused a registry key
        pytest.fail(f"{argv}: the parser refused it (exit {exc.code})")
    err = capsys.readouterr().err
    if _refusal_expected(name, override):
        assert code == 2, f"{argv}: expected a usage error, got exit {code}"
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro run: error: "), err
    else:
        assert code in (0, 1), f"{argv}: exit {code}: {err}"
