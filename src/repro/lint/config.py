"""Scopes, forbidden-call tables, and ratchet surfaces for the linter.

Everything policy-like lives here so the rule modules stay pure
mechanism: which packages the determinism rule patrols, which modules
are concatenated into the compiled kernel, which private attributes
count as ``EventQueue`` internals, and which modules are inside the
strict-typing ratchet.

Scoping is by *path suffix*, not by resolved import, so the rules work
identically on the real tree and on the tmp-dir fixture corpora the
lint tests build (a fixture at ``<tmp>/sim/events.py`` is held to the
same purity contract as ``src/repro/sim/events.py``).
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
# Kernel purity scope
# ----------------------------------------------------------------------
#: Path suffixes of the modules ``tools/build_kernel_ext.py``
#: concatenates into ``repro.sim._ckernel``.  Order matters for the
#: build but not for linting.
KERNEL_MODULE_SUFFIXES: Tuple[str, ...] = ("sim/events.py", "sim/kernel.py")

#: The marker ``tools/build_kernel_ext.py`` cuts each module at; source
#: below it (the variant-rebind tail) is NOT compiled and is exempt from
#: the purity rules.  Must match ``build_kernel_ext.REBIND_MARKER``.
REBIND_MARKER = "# --- kernel-variant rebind"

#: Imports the concatenated kernel may keep.  ``repro.sim.events`` is
#: allowed because the concatenator strips it (kernel.py importing its
#: sibling); anything else would survive into the .pyx and break the
#: closed compilation unit.
KERNEL_ALLOWED_IMPORTS: FrozenSet[str] = frozenset(
    {"heapq", "itertools", "typing", "__future__", "repro.sim.events"}
)

#: Decorators the Cython-compiled subset supports on kernel classes and
#: functions.  ``@property`` compiles (the committed kernel uses it);
#: anything registering, caching, or wrapping dynamically does not.
KERNEL_ALLOWED_DECORATORS: FrozenSet[str] = frozenset(
    {"property", "staticmethod", "classmethod"}
)

# ----------------------------------------------------------------------
# Batch-dispatch safety scope
# ----------------------------------------------------------------------
#: ``EventQueue`` internals (its ``__slots__``): only the kernel module
#: pair may touch these friend-style.
QUEUE_PRIVATE_ATTRS: FrozenSet[str] = frozenset(
    {"_heap", "_buckets", "_next_seq", "_direct_time"}
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
    "repro/sim/variant.py",
    "repro/sim/rng.py",
    "repro/sim/events.py",
    "repro/sim/kernel.py",
    "repro/memory/backend.py",
    "repro/memory/linearizability.py",
    "repro/memory/membership.py",
    "repro/faults/plan.py",
    "repro/fuzz/genome.py",
    "repro/fuzz/coverage.py",
    "repro/lint/findings.py",
    "repro/lint/config.py",
    "repro/lint/determinism.py",
    "repro/lint/purity.py",
    "repro/lint/registry_rules.py",
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
    :data:`DETERMINISM_PACKAGES`; generated kernel artifacts
    (``_ckernel*``) are excluded -- they mirror already-linted sources.
    """
    parts = _parts(path)
    if not parts or parts[-1].startswith("_ckernel"):
        return False
    return any(part in DETERMINISM_PACKAGES for part in parts[:-1])


def is_kernel_module(path: str) -> bool:
    """True when ``path`` is concatenated into the compiled kernel."""
    posix = "/".join(_parts(path))
    return any(posix.endswith(suffix) for suffix in KERNEL_MODULE_SUFFIXES)


def in_handler_scope(path: str) -> bool:
    """True when ``path`` runs inside dispatch callbacks (and therefore
    must respect the batch-dispatch safety rule)."""
    parts = _parts(path)
    return any(part in HANDLER_PACKAGES for part in parts[:-1])


def in_strict_typed_surface(path: str) -> bool:
    """True when ``path`` is in the strict-typing ratchet."""
    posix = "/".join(_parts(path))
    return any(posix.endswith(mod) for mod in STRICT_TYPED_MODULES)
