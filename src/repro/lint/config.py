"""Scopes, forbidden-call tables, and ratchet surfaces for the linter.

Everything policy-like lives here so the rule modules stay pure
mechanism: which packages the determinism rule patrols, which private
attributes count as the event queue's internals, and which modules are
inside the strict-typing ratchet.

Scoping is by *path suffix*, not by resolved import, so the rules work
identically on the real tree and on the tmp-dir fixture corpora the
lint tests build (a fixture at ``<tmp>/netsim/mod.py`` is held to the
same dispatch contract as ``src/repro/netsim/network.py``).
"""

from __future__ import annotations

from pathlib import Path, PurePosixPath
from typing import Dict, FrozenSet, Tuple

#: Default lint root: the ``repro`` package this module sits inside.
DEFAULT_ROOT = Path(__file__).resolve().parent.parent

# ----------------------------------------------------------------------
# Determinism rule scope
# ----------------------------------------------------------------------
#: Directory names whose modules must be wall-clock/entropy free.  The
#: engine/ package is deliberately absent: it *measures* wall-clock
#: time (process-pool timing), which is observability, not simulation
#: state.  perf/ is listed: it is a front end over the repo benchmark
#: in ``bench/`` (outside the package) and must time nothing itself.
DETERMINISM_PACKAGES: FrozenSet[str] = frozenset(
    {
        "sim",
        "netsim",
        "memory",
        "core",
        "props",
        "analysis",
        "workloads",
        "timers",
        "apps",
        "lint",
        "faults",
        "fuzz",
        "perf",
    }
)

#: Calls that read wall-clock time or ambient entropy.  Any call whose
#: alias-resolved target lands here is nondeterministic by construction.
FORBIDDEN_CALLS: Dict[str, str] = {
    "time.time": "wall-clock read; simulation time must come from the kernel",
    "time.time_ns": "wall-clock read; simulation time must come from the kernel",
    "time.monotonic": "wall-clock read; simulation time must come from the kernel",
    "time.monotonic_ns": "wall-clock read; simulation time must come from the kernel",
    "time.perf_counter": "wall-clock read; only engine/ may time things",
    "time.perf_counter_ns": "wall-clock read; only engine/ may time things",
    "datetime.datetime.now": "wall-clock read; derive times from sim.now",
    "datetime.datetime.utcnow": "wall-clock read; derive times from sim.now",
    "datetime.date.today": "wall-clock read; derive times from sim.now",
    "os.urandom": "ambient entropy; use a seeded RngRegistry stream",
    "secrets.token_bytes": "ambient entropy; use a seeded RngRegistry stream",
    "secrets.token_hex": "ambient entropy; use a seeded RngRegistry stream",
    "uuid.uuid1": "host/time-derived id; use a seeded RngRegistry stream",
    "uuid.uuid4": "ambient entropy; use a seeded RngRegistry stream",
}

#: Module-level ``random.*`` functions (the shared global PRNG).  Seeded
#: ``random.Random`` instances (RngRegistry streams) are the sanctioned
#: alternative and remain allowed.
GLOBAL_RANDOM_FUNCTIONS: FrozenSet[str] = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.gauss",
        "random.expovariate",
        "random.seed",
        "random.getrandbits",
        "random.betavariate",
        "random.triangular",
    }
)

# ----------------------------------------------------------------------
# Dispatch safety scope
# ----------------------------------------------------------------------
#: The event queue's internals, owned by ``Simulator``: only the kernel
#: module may touch these (an entry filed past its checked schedulers
#: could sit in the past or carry a stray lane token).
QUEUE_PRIVATE_ATTRS: FrozenSet[str] = frozenset({"_heap", "_next_seq"})

#: ``Simulator``'s raw-producer entry points: ``push`` files an entry
#: tuple unchecked and ``next_seq`` draws its ``seq``.  A module that
#: files entries itself owns the checks the schedulers make, so only
#: the producers in :data:`RAW_PUSH_PRODUCERS` may name them.
RAW_PUSH_ATTRS: FrozenSet[str] = frozenset({"push", "next_seq"})

#: The modules that file their own heap entries (repo-relative under
#: ``src/``): the step loop, message delivery and the register
#: emulation's retry wakes (one per wire address, for its quorum ops
#: and its state-sync rounds alike).
RAW_PUSH_PRODUCERS: Tuple[str, ...] = (
    "repro/core/runner.py",
    "repro/netsim/network.py",
    "repro/memory/emulated.py",
)

#: Packages whose modules run *inside* dispatch callbacks; they must not
#: reach into queue internals nor re-enter ``Simulator.run``.
HANDLER_PACKAGES: FrozenSet[str] = frozenset(
    {"netsim", "timers", "memory", "props", "apps", "workloads"}
)

# ----------------------------------------------------------------------
# Strict-typing ratchet
# ----------------------------------------------------------------------
#: Repo-relative module paths (posix style, under ``src/``) that are
#: inside the strict-typing ratchet: every function must be fully
#: annotated, and ``tools/typecheck.py`` runs ``mypy --strict`` on them
#: when mypy is available.  Entries may be dropped from this tuple only
#: together with the module itself -- the typed surface only grows.
STRICT_TYPED_MODULES: Tuple[str, ...] = (
    "repro/sim/rng.py",
    "repro/sim/events.py",
    "repro/sim/kernel.py",
    "repro/memory/linearizability.py",
    "repro/memory/membership.py",
    "repro/faults/plan.py",
    "repro/fuzz/genome.py",
    "repro/fuzz/coverage.py",
    "repro/lint/findings.py",
    "repro/lint/config.py",
    "repro/lint/determinism.py",
    "repro/lint/dispatch.py",
    "repro/lint/typing_rules.py",
    "repro/lint/runner.py",
)


def _parts(path: str) -> Tuple[str, ...]:
    """Normalised posix path components of ``path``."""
    return PurePosixPath(path.replace("\\", "/")).parts


def in_determinism_scope(path: str) -> bool:
    """True when the determinism rule patrols ``path``.

    Scope is any module living under one of
    :data:`DETERMINISM_PACKAGES`.
    """
    parts = _parts(path)
    return any(part in DETERMINISM_PACKAGES for part in parts[:-1])


def in_handler_scope(path: str) -> bool:
    """True when ``path`` runs inside dispatch callbacks (and therefore
    must respect the dispatch safety rule)."""
    parts = _parts(path)
    return any(part in HANDLER_PACKAGES for part in parts[:-1])


def is_raw_push_producer(path: str) -> bool:
    """True when ``path`` is one of :data:`RAW_PUSH_PRODUCERS`."""
    posix = "/".join(_parts(path))
    return any(posix.endswith(mod) for mod in RAW_PUSH_PRODUCERS)


def in_strict_typed_surface(path: str) -> bool:
    """True when ``path`` is in the strict-typing ratchet."""
    posix = "/".join(_parts(path))
    return any(posix.endswith(mod) for mod in STRICT_TYPED_MODULES)
