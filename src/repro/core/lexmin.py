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

from typing import Iterable, Tuple


def lexmin_pair(pairs: Iterable[Tuple[int, int]]) -> Tuple[int, int]:
    """Return the lexicographically smallest ``(count, id)`` pair.

    Raises ``ValueError`` on an empty iterable (the algorithms guarantee
    ``i in candidates_i``, so their calls are never empty).
    """
    best = min(pairs, default=None)
    if best is None:
        raise ValueError("lexmin of an empty collection")
    return best


__all__ = ["lexmin_pair"]
