"""The paper's ``lex min`` tie-breaking rule.

``leader()`` returns the *least suspected* candidate; ties on the
suspicion count are broken by process identity:

    ``(a, i) < (b, j)  iff  a < b  or  (a = b and i < j)``

which is exactly lexicographic order on ``(count, id)`` pairs -- the
order builtin ``min`` applies to tuples.  Kept in its own module
because the observer, the nWnR variant and the related-work oracles
share it (the paper algorithms' counted ``leader()`` folds the same
comparison into its read scan), and because it is a natural target for
property-based tests.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple


def lexmin_pair(pairs: Iterable[Tuple[int, int]]) -> Tuple[int, int]:
    """Return the lexicographically smallest ``(count, id)`` pair.

    Raises ``ValueError`` on an empty iterable (the algorithms guarantee
    ``i in candidates_i``, so their calls are never empty).
    """
    best = min(pairs, default=None)
    if best is None:
        raise ValueError("lexmin of an empty collection")
    return best


def least_suspected(suspicions: Mapping[int, int]) -> int:
    """The id minimising ``(suspicions[id], id)`` -- the elected leader.

    >>> least_suspected({2: 5, 0: 7, 1: 5})
    1
    """
    count, pid = lexmin_pair((count, pid) for pid, count in suspicions.items())
    return pid


__all__ = ["least_suspected", "lexmin_pair"]
