"""Independent checks on what the program outputs.

* Result oracle: every read's result multiset is replayed against a
  stdlib ``sqlite3`` database built by the same generator, and
  compared with floats rounded (the two engines sum in different
  orders, so the last digits may differ).
* Decision parity: the per-round ``TuningReport.to_dict()`` sequence
  must be identical between runs of one seed, traced or not.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Iterable, List, Sequence, Tuple

#: Significant digits kept when comparing floating-point results.
FLOAT_DIGITS = 9


def normalize_value(value: object) -> object:
    """Numbers compare as rounded floats (an engine may return ``2``
    where another returns ``2.0``); everything else as is."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    rounded = float(f"{float(value):.{FLOAT_DIGITS}g}")
    return rounded + 0.0  # -0.0 and 0.0 compare as one key


def result_multiset(rows: Iterable[Sequence[object]]) -> Counter:
    return Counter(tuple(normalize_value(v) for v in row) for row in rows)


def sqlite_replay(
    generator, statements: Sequence[Tuple[str, bool]]
) -> List[object]:
    """Run ``(sql, is_write)`` pairs on a fresh SQLite copy of the
    generator's database; a read yields its result multiset and a
    write its affected-row count.  Results do not depend on indexes,
    so the copy gets none beyond primary keys."""
    from repro.ports.sqlite import SqliteBackend

    backend = SqliteBackend()
    generator.build(backend, with_defaults=False)
    try:
        out: List[object] = []
        for sql, is_write in statements:
            cursor = backend.conn.execute(sql)
            if is_write:
                out.append(max(cursor.rowcount, 0))
            else:
                out.append(result_multiset(cursor.fetchall()))
        return out
    finally:
        backend.conn.close()


def decisions_digest(reports: Sequence[dict]) -> str:
    """Stable digest of a per-round ``to_dict()`` sequence."""
    blob = json.dumps(list(reports), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def parity_breaks(first: Sequence[dict], second: Sequence[dict]) -> List[str]:
    """Describe every difference between two decision sequences."""
    breaks: List[str] = []
    if len(first) != len(second):
        breaks.append(f"round count {len(first)} != {len(second)}")
    for i, (a, b) in enumerate(zip(first, second)):
        if a != b:
            keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            breaks.append(f"round {i} differs on: {', '.join(map(str, keys))}")
    return breaks
