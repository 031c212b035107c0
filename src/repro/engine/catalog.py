"""System catalog: tables, indexes, and statistics in one registry.

The catalog also implements the *what-if* overlay: a set of
hypothetical index definitions can be layered on (and real indexes
masked off) so the planner sees an alternative index configuration
without anything being built — the hypopg mechanism of Section V.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine.index import (
    Index,
    IndexDef,
    IndexShape,
    hypothetical_shape,
    shape_of_index,
)
from repro.engine.schema import TableSchema
from repro.engine.stats import TableStats
from repro.engine.storage import HeapFile

IndexKey = Tuple[str, Tuple[str, ...]]


@dataclass
class TableEntry:
    """Everything the engine knows about one table."""

    schema: TableSchema
    heap: HeapFile
    stats: TableStats = field(default_factory=TableStats)
    indexes: Dict[IndexKey, Index] = field(default_factory=dict)


class Catalog:
    """Registry of tables, indexes, statistics, and what-if overlays."""

    # cache-keys: fields[_tables] invalidator[bump_version]

    def __init__(self) -> None:
        self._tables: Dict[str, TableEntry] = {}
        self._hypothetical: Dict[IndexKey, IndexDef] = {}
        self._masked: Set[IndexKey] = set()
        # Monotonic data/DDL version. Cached plans and cost estimates
        # embed this in their keys, so any change that can move an
        # estimate (new data, new stats, new real index) invalidates
        # them without a scan. What-if overlays do NOT bump it: the
        # overlay is captured explicitly via index signatures.
        self.version = 0

    def bump_version(self) -> None:
        """Signal that data, stats, or the real index set changed."""
        self.version += 1

    # -- tables ---------------------------------------------------------------

    def add_table(self, schema: TableSchema) -> TableEntry:
        if schema.name in self._tables:
            raise ValueError(f"table {schema.name!r} already exists")
        entry = TableEntry(schema=schema, heap=HeapFile(schema))
        self._tables[schema.name] = entry
        self.bump_version()
        return entry

    def drop_table(self, name: str) -> None:
        self._tables.pop(name)
        self.bump_version()

    def table(self, name: str) -> TableEntry:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return list(self._tables)

    def stats(self, table: str) -> TableStats:
        return self.table(table).stats

    # -- real indexes ------------------------------------------------------------

    def add_index(self, index: Index) -> None:
        entry = self.table(index.definition.table)
        key = index.definition.key
        if key in entry.indexes:
            raise ValueError(f"index on {key} already exists")
        entry.indexes[key] = index
        self.bump_version()

    def drop_index(self, definition: IndexDef) -> Index:
        entry = self.table(definition.table)
        try:
            index = entry.indexes.pop(definition.key)
        except KeyError:
            raise KeyError(f"no such index: {definition}") from None
        self.bump_version()
        return index

    def get_index(self, definition: IndexDef) -> Optional[Index]:
        entry = self._tables.get(definition.table)
        if entry is None:
            return None
        return entry.indexes.get(definition.key)

    def real_indexes(self, table: Optional[str] = None) -> List[Index]:
        if table is not None:
            return list(self.table(table).indexes.values())
        result: List[Index] = []
        for entry in self._tables.values():
            result.extend(entry.indexes.values())
        return result

    def real_index_defs(self) -> List[IndexDef]:
        return [ix.definition for ix in self.real_indexes()]

    # -- what-if overlay -----------------------------------------------------------

    def set_whatif(
        self,
        hypothetical: Iterable[IndexDef] = (),
        masked: Iterable[IndexDef] = (),
    ) -> None:
        """Install a what-if overlay.

        ``hypothetical`` definitions become visible to the planner;
        ``masked`` real indexes become invisible. The executor never
        consults the overlay, so hypothetical indexes can never be
        *used*, only costed.
        """
        self._hypothetical = {d.key: d for d in hypothetical}
        self._masked = {d.key for d in masked}

    def clear_whatif(self) -> None:
        self._hypothetical = {}
        self._masked = set()

    @property
    def whatif_active(self) -> bool:
        return bool(self._hypothetical) or bool(self._masked)

    def visible_index_defs(self, table: str) -> List[IndexDef]:
        """Index definitions the planner may consider for ``table``."""
        entry = self.table(table)
        defs = [
            ix.definition
            for key, ix in entry.indexes.items()
            if key not in self._masked
        ]
        defs.extend(
            d for d in self._hypothetical.values() if d.table == table
        )
        return defs

    def index_signature_of(self, defs: Sequence[IndexDef]) -> Tuple:
        """Signature of an explicit definition subset.

        The planner keys its access-path memo on the subset of visible
        indexes that can actually serve the probe (sargable lead
        column), not the whole visible set — configurations differing
        only in indexes irrelevant to a statement then share entries.
        """
        return tuple(
            sorted((d.key, self.is_materialized(d)) for d in defs)
        )

    def index_shape(self, definition: IndexDef) -> IndexShape:
        """Physical shape for costing — exact if built, estimated if not."""
        real = self.get_index(definition)
        if real is not None and definition.key not in self._masked:
            return shape_of_index(real)
        entry = self.table(definition.table)
        return hypothetical_shape(definition, entry.schema, entry.stats)

    def is_materialized(self, definition: IndexDef) -> bool:
        real = self.get_index(definition)
        return real is not None and definition.key not in self._masked

    # -- sizes -----------------------------------------------------------------------

    def total_index_bytes(self, table: Optional[str] = None) -> int:
        return sum(ix.byte_size for ix in self.real_indexes(table))
