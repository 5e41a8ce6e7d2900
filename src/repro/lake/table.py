"""An Iceberg-shaped lake table: snapshots of immutable files.

Both Iceberg and Delta Lake evolve tables by *adding or deleting whole
data files*; each commit produces a new snapshot.  That property is
exactly what the paper needs for predicate caching over lakes (§4.5):
row groups are addressed by their *ordinal in commit order* — each file
is stamped with the ordinal of its first row group when it commits, and
ordinals are never reused — so addresses never change while the file
lives, a foreign append only ever grows the address space at its end,
and changes are detectable as file-set diffs between snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .format import LakeFile, write_file

__all__ = ["LakeSnapshot", "LakeTable"]


@dataclass(frozen=True)
class LakeSnapshot:
    """One committed version of the table: an immutable file set."""

    snapshot_id: int
    file_ids: Tuple[str, ...]

    def __contains__(self, file_id: str) -> bool:
        return file_id in self.file_ids


class LakeTable:
    """A lake table evolving through append/delete-file commits."""

    def __init__(self, name: str, rows_per_group: int = 1000) -> None:
        self.name = name
        self.rows_per_group = rows_per_group
        self._files: Dict[str, LakeFile] = {}
        # Row-group ordinals handed out so far: the table's "row count"
        # in the predicate cache's address space (monotone, never reused).
        self.groups_committed = 0
        self._snapshots: List[LakeSnapshot] = [LakeSnapshot(0, ())]

    # -- commits -----------------------------------------------------------------

    def append_file(self, data: Mapping[str, Sequence[object]]) -> LakeFile:
        """Commit a new data file (another engine's ingestion)."""
        file = self._write(data)
        self._commit(self.current_snapshot.file_ids + (file.file_id,))
        return file

    def delete_file(self, file_id: str) -> None:
        """Commit a file removal (compaction, GDPR delete, ...)."""
        if file_id not in self.current_snapshot:
            raise KeyError(f"file {file_id!r} not in the current snapshot")
        remaining = tuple(
            f for f in self.current_snapshot.file_ids if f != file_id
        )
        self._commit(remaining)

    def replace_files(
        self,
        removed: Sequence[str],
        data: Mapping[str, Sequence[object]],
    ) -> LakeFile:
        """Compaction: one new file replaces several old ones."""
        for file_id in removed:
            if file_id not in self.current_snapshot:
                raise KeyError(f"file {file_id!r} not in the current snapshot")
        file = self._write(data)
        kept = tuple(
            f for f in self.current_snapshot.file_ids if f not in set(removed)
        )
        self._commit(kept + (file.file_id,))
        return file

    def _write(self, data: Mapping[str, Sequence[object]]) -> LakeFile:
        """Write one data file, named and ordinal-stamped by this table.

        File ids count this table's own files (no process-global state:
        two tables built by the same calls name their files alike).
        """
        file = write_file(
            data,
            rows_per_group=self.rows_per_group,
            file_id=f"file-{len(self._files) + 1:06d}",
            first_ordinal=self.groups_committed,
        )
        self._files[file.file_id] = file
        self.groups_committed += file.num_row_groups
        return file

    def _commit(self, file_ids: Tuple[str, ...]) -> None:
        self._snapshots.append(LakeSnapshot(len(self._snapshots), file_ids))

    # -- reads --------------------------------------------------------------------

    @property
    def current_snapshot(self) -> LakeSnapshot:
        return self._snapshots[-1]

    def snapshot(self, snapshot_id: int) -> LakeSnapshot:
        """Time travel to a historic snapshot."""
        try:
            return self._snapshots[snapshot_id]
        except IndexError:
            raise KeyError(f"no snapshot {snapshot_id}") from None

    @property
    def num_snapshots(self) -> int:
        return len(self._snapshots)

    def file(self, file_id: str) -> LakeFile:
        try:
            return self._files[file_id]
        except KeyError:
            raise KeyError(f"no file {file_id!r} in table {self.name}") from None

    def files(self, snapshot: Optional[LakeSnapshot] = None) -> List[LakeFile]:
        chosen = snapshot if snapshot is not None else self.current_snapshot
        return [self._files[fid] for fid in chosen.file_ids]

    def num_rows(self, snapshot: Optional[LakeSnapshot] = None) -> int:
        return sum(f.num_rows for f in self.files(snapshot))

    def diff(
        self, older: LakeSnapshot, newer: LakeSnapshot
    ) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """(added file ids, removed file ids) between two snapshots."""
        old, new = set(older.file_ids), set(newer.file_ids)
        return frozenset(new - old), frozenset(old - new)
