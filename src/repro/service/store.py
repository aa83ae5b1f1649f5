"""Persistent content-addressed storage for the service deployment.

Two layers:

* :class:`BlobStore` — an immutable blob pool keyed by SHA-256. Blobs
  live in two-level sharded directories (``objects/ab/cd/<hex>``) so no
  single directory grows unboundedly; writes go to a private ``tmp/``
  file that is fsynced and then atomically :func:`os.replace`d into
  place, so a crash mid-write can never leave a partial object under a
  valid name (leftover tmp files are swept on open). Reads verify the
  digest — silent disk corruption surfaces as :class:`StorageError`,
  never as garbage ciphertext — and go through a bounded LRU cache.

* :class:`RecordStore` — the server's view: named, mutable record refs
  (``refs/<quoted-record-id>`` → blob digest) over the blob pool, plus
  the ciphertext-id index ReEncrypt needs, and a bounded memo of
  decoded records keyed by digest. Replacing a record writes
  the new blob, atomically repoints the ref, then garbage-collects the
  old blob once nothing references it. Bulk replacement
  (:meth:`RecordStore.replace_record_bytes_many`) publishes all of a
  batch's repoints AND the new blob bytes as one atomically-renamed
  ``refbatches/<seq>`` pack file instead of per-record blob and ref
  writes; pack files overlay the loose refs at open (their embedded
  blobs served by offset) and are folded back into loose refs and
  loose blobs before any loose-ref mutation. Re-opening an existing
  root rebuilds all indexes from disk.

The on-disk record bytes are exactly
:meth:`repro.system.records.StoredRecord.to_bytes` — the same bytes
the wire carries — so a stored blob is also the served representation.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from urllib.parse import quote, unquote

from repro.errors import ReproError, StorageError
from repro.pairing.group import PairingGroup
from repro.system.records import StoredComponent, StoredRecord


class BlobStore:
    """SHA-256-keyed blob pool: sharded dirs, atomic writes, LRU reads."""

    def __init__(self, root, *, cache_entries: int = 128,
                 cache_bytes: int = 32 * 1024 * 1024):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.tmp_dir = self.root / "tmp"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        # Interrupted writes leave orphans only in tmp/; sweep them.
        for leftover in self.tmp_dir.iterdir():
            leftover.unlink()
        self.cache_entries = max(1, cache_entries)
        self.cache_bytes = cache_bytes
        self._cache = OrderedDict()  # digest -> blob
        self._cache_total = 0
        # Plain-int telemetry (single interpreter lock per += is fine:
        # all store mutations run on the server's one offload thread).
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self._meter = None
        # Blobs living inside refpack files (see RecordStore's bulk
        # replacement): digest -> (pack path, byte offset, length).
        self._packs = {}

    def _path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / digest[2:4] / digest

    # -- cache ------------------------------------------------------------

    def attach_meter(self, meter) -> None:
        """Mirror cache telemetry into a :class:`repro.system.meter.
        Meter` as ``store.cache.{hit,miss,eviction}`` bumps, so the
        server's stats endpoint (and ``client stats``) expose the read
        cache's behaviour under load."""
        self._meter = meter

    def _cache_put(self, digest: str, blob: bytes) -> None:
        if len(blob) > self.cache_bytes:
            return
        if digest in self._cache:
            self._cache.move_to_end(digest)
            return
        self._cache[digest] = blob
        self._cache_total += len(blob)
        while (len(self._cache) > self.cache_entries
               or self._cache_total > self.cache_bytes):
            _, evicted = self._cache.popitem(last=False)
            self._cache_total -= len(evicted)
            self.cache_evictions += 1
            if self._meter is not None:
                self._meter.bump("store.cache.eviction")

    def _cache_drop(self, digest: str) -> None:
        blob = self._cache.pop(digest, None)
        if blob is not None:
            self._cache_total -= len(blob)

    def _note_cache_hit(self) -> None:
        self.cache_hits += 1
        if self._meter is not None:
            self._meter.bump("store.cache.hit")

    def _note_cache_miss(self) -> None:
        self.cache_misses += 1
        if self._meter is not None:
            self._meter.bump("store.cache.miss")

    def cache_stats(self) -> dict:
        return {
            "entries": len(self._cache),
            "bytes": self._cache_total,
            "capacity_entries": self.cache_entries,
            "capacity_bytes": self.cache_bytes,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
        }

    # -- storage ----------------------------------------------------------

    def put(self, blob: bytes, *, force: bool = False) -> str:
        """Store a blob; returns its hex digest. Idempotent.

        ``force`` rewrites the object file even when a file already
        exists under the digest's path — the repair path uses it,
        because the very situation repair fixes is an existing file
        whose bytes no longer match its name.
        """
        digest = hashlib.sha256(blob).hexdigest()
        path = self._path(digest)
        if force or not path.exists():
            fd, tmp_name = tempfile.mkstemp(dir=self.tmp_dir)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                    handle.flush()
                    os.fsync(handle.fileno())
                try:
                    os.replace(tmp_name, path)
                except FileNotFoundError:
                    # First blob in this shard: create the directory
                    # lazily instead of stat-ing it on every put.
                    path.parent.mkdir(parents=True, exist_ok=True)
                    os.replace(tmp_name, path)
            except BaseException:
                if os.path.exists(tmp_name):
                    os.unlink(tmp_name)
                raise
        self._cache_put(digest, blob)
        return digest

    def get(self, digest: str) -> bytes:
        blob = self._cache.get(digest)
        if blob is not None:
            self._cache.move_to_end(digest)
            self._note_cache_hit()
            return blob
        self._note_cache_miss()
        try:
            blob = self._path(digest).read_bytes()
        except FileNotFoundError:
            blob = None
        if blob is not None and hashlib.sha256(blob).hexdigest() != digest:
            # A bad loose copy with a live pack entry is a
            # half-materialized compaction (interrupted before its sync
            # barrier) — the pack it was copied from is authoritative.
            # With no pack entry it is disk corruption.
            if digest in self._packs:
                blob = None
            else:
                raise StorageError(f"blob {digest!r} is corrupted on disk")
        if blob is None:
            blob = self._read_packed(digest)
            if blob is None:
                raise StorageError(f"no blob {digest!r}")
        self._cache_put(digest, blob)
        return blob

    def contains(self, digest: str) -> bool:
        return (digest in self._cache or digest in self._packs
                or self._path(digest).exists())

    def delete(self, digest: str) -> None:
        self._cache_drop(digest)
        # Dropping the pack entry unreferences the packed bytes; the
        # dead span is physically reclaimed when compaction deletes the
        # whole pack file.
        self._packs.pop(digest, None)
        try:
            self._path(digest).unlink()
        except FileNotFoundError:
            pass

    def digests(self) -> list:
        loose = {
            path.name
            for path in self.objects_dir.glob("??/??/*")
            if path.is_file()
        }
        return sorted(loose | set(self._packs))

    # -- packed blobs ------------------------------------------------------

    def register_packed(self, digest: str, path, offset: int,
                        length: int) -> None:
        """Serve ``digest`` from ``length`` bytes at ``offset`` of a
        refpack file (verified against the digest on every read)."""
        self._packs[digest] = (path, offset, length)

    def clear_packed(self) -> None:
        """Forget every pack entry (compaction deletes the pack files
        after materializing the still-referenced blobs loose)."""
        self._packs.clear()

    def _read_packed(self, digest: str):
        entry = self._packs.get(digest)
        if entry is None:
            return None
        path, offset, length = entry
        with open(path, "rb") as handle:
            handle.seek(offset)
            blob = handle.read(length)
        if hashlib.sha256(blob).hexdigest() != digest:
            raise StorageError(f"packed blob {digest!r} is corrupted on disk")
        return blob


_REFPACK_MAGIC = b"refpack1\n"


def _iter_refpack(path: Path):
    """Yield ``(record_id, digest, blob_offset, blob_length)`` per entry.

    Refpack layout (all integers big-endian u32): the magic line, then
    repeated ``id_len | id_utf8 | 64-byte hex digest | blob_len | blob``.
    Entries later in a pack (and in later packs) supersede earlier ones
    for the same record id.
    """
    data = path.read_bytes()
    if not data.startswith(_REFPACK_MAGIC):
        raise StorageError(f"refpack {path.name!r} has a bad header")
    pos = len(_REFPACK_MAGIC)
    end = len(data)
    try:
        while pos < end:
            id_len = int.from_bytes(data[pos:pos + 4], "big")
            pos += 4
            record_id = data[pos:pos + id_len].decode("utf-8")
            pos += id_len
            digest = data[pos:pos + 64].decode("ascii")
            pos += 64
            blob_len = int.from_bytes(data[pos:pos + 4], "big")
            pos += 4
            if pos + blob_len > end:
                raise StorageError(f"refpack {path.name!r} is truncated")
            yield record_id, digest, pos, blob_len
            pos += blob_len
    except (UnicodeDecodeError, IndexError) as exc:
        raise StorageError(f"refpack {path.name!r} is corrupted") from exc


def _atomic_write(directory: Path, path: Path, data: bytes) -> None:
    """tmp-file-then-rename write for small metadata files (refs)."""
    fd, tmp_name = tempfile.mkstemp(dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


class RecordStore:
    """The server's persistent record table over a :class:`BlobStore`.

    Validate at entry, trust on read. Every byte that enters the store
    has had its group elements subgroup-checked once: ``STORE_RECORD``,
    ``REPLACE_COMPONENT`` and ``REPAIR_RECORD`` decode with validation
    before they write (:meth:`put_record_bytes` runs that decode
    itself), and the bulk sweep writes only the server's own ReEncrypt
    output. Reads therefore decode *trusted* (no subgroup checks), and
    only behind :meth:`BlobStore.get`'s SHA-256 check, so rot on disk
    still surfaces as :class:`StorageError`. Each trusted decode is
    memoized by digest — record plus Table II payload size — in an LRU
    bounded by the blob cache's ``cache_entries``; a memo hit is served
    only after the blob read verified those exact bytes. :meth:`check`
    is the audit and re-validates everything from the blob pool.
    """

    def __init__(self, root, group: PairingGroup, *,
                 cache_entries: int = 128,
                 cache_bytes: int = 32 * 1024 * 1024):
        self.root = Path(root)
        self.group = group
        self.blobs = BlobStore(self.root, cache_entries=cache_entries,
                               cache_bytes=cache_bytes)
        self.refs_dir = self.root / "refs"
        self.keys_dir = self.root / "keys"
        self.refbatch_dir = self.root / "refbatches"
        self.refs_dir.mkdir(parents=True, exist_ok=True)
        self.keys_dir.mkdir(parents=True, exist_ok=True)
        self.refbatch_dir.mkdir(parents=True, exist_ok=True)
        self._refs = {}              # record id -> digest
        self._refcounts = {}         # digest -> number of refs pointing at it
        self._ciphertext_index = {}  # ciphertext id -> (record id, name)
        self._pending_collect = []   # old digests awaiting commit_replacements
        self._deferred_unlinks = []  # dead loose blobs awaiting reclamation
        # digest -> (StoredRecord, Table II payload size), trusted decodes.
        self._decoded = OrderedDict()
        self.decode_hits = 0
        self.decode_misses = 0
        self._meter = None
        # Replay order: loose refs first, then refpack files in
        # sequence order — each pack repoints ids whose loose refs are
        # stale (and whose old blobs may already be collected), so the
        # overlay must resolve before anything is decoded. The packs
        # carry their blobs inline; register them so reads resolve.
        refs = {}
        for ref_path in self.refs_dir.iterdir():
            refs[unquote(ref_path.name)] = ref_path.read_text("ascii").strip()
        self._refbatch_files = sorted(self.refbatch_dir.iterdir())
        for batch_path in self._refbatch_files:
            for record_id, digest, offset, length in _iter_refpack(batch_path):
                refs[record_id] = digest
                self.blobs.register_packed(digest, batch_path, offset, length)
        self._refbatch_seq = (
            int(self._refbatch_files[-1].name) + 1
            if self._refbatch_files else 0
        )
        for record_id, digest in refs.items():
            self._set_ref(record_id, digest)
            self._index_record(self._decode(digest))

    def attach_meter(self, meter) -> None:
        """Expose the blob cache's hit/miss/eviction telemetry (see
        :meth:`BlobStore.attach_meter`) and the decode memo's
        ``store.decode.{hit,miss}`` through a shared
        :class:`repro.system.meter.Meter`."""
        self._meter = meter
        self.blobs.attach_meter(meter)

    def cache_stats(self) -> dict:
        return {
            **self.blobs.cache_stats(),
            "decode_entries": len(self._decoded),
            "decode_hits": self.decode_hits,
            "decode_misses": self.decode_misses,
        }

    def _ref_path(self, record_id: str) -> Path:
        return self.refs_dir / quote(record_id, safe="")

    def _read(self, digest: str) -> tuple:
        """``(blob, record, payload size)`` of a stored digest.

        The blob read comes first, always: it is the digest check (and
        the blob cache), so a memo hit never hides a blob that went
        missing or rotted on disk.
        """
        blob = self.blobs.get(digest)
        entry = self._decoded.get(digest)
        if entry is not None:
            self._decoded.move_to_end(digest)
            self.decode_hits += 1
            if self._meter is not None:
                self._meter.bump("store.decode.hit")
        else:
            self.decode_misses += 1
            if self._meter is not None:
                self._meter.bump("store.decode.miss")
            entry = self._remember(digest, StoredRecord.from_bytes(
                self.group, blob, validate=False
            ))
        return (blob, *entry)

    def _decode(self, digest: str) -> StoredRecord:
        return self._read(digest)[1]

    def _remember(self, digest: str, record: StoredRecord) -> tuple:
        """Memoize a record whose bytes are stored under ``digest``."""
        entry = (record, record.payload_size_bytes(self.group))
        self._decoded[digest] = entry
        self._decoded.move_to_end(digest)
        while len(self._decoded) > self.blobs.cache_entries:
            self._decoded.popitem(last=False)
        return entry

    def _index_record(self, record: StoredRecord) -> None:
        for name, component in record.components.items():
            self._ciphertext_index[component.abe_ciphertext.ciphertext_id] = (
                record.record_id, name
            )

    def _unindex_record(self, record: StoredRecord) -> None:
        for component in record.components.values():
            self._ciphertext_index.pop(
                component.abe_ciphertext.ciphertext_id, None
            )

    def _set_ref(self, record_id: str, digest: str) -> None:
        """Point a record id at a digest, keeping the refcounts exact."""
        old = self._refs.get(record_id)
        if old is not None:
            self._refcounts[old] -= 1
            if not self._refcounts[old]:
                del self._refcounts[old]
        self._refs[record_id] = digest
        self._refcounts[digest] = self._refcounts.get(digest, 0) + 1

    def _drop_ref(self, record_id: str) -> None:
        digest = self._refs.pop(record_id)
        self._refcounts[digest] -= 1
        if not self._refcounts[digest]:
            del self._refcounts[digest]

    def _compact_refbatches(self) -> None:
        """Fold live refpack files back into loose refs and blobs.

        Must run before any *loose*-ref mutation: open-time replay is
        loose refs first, then packs, so a fresh loose write (or a
        ref unlink) for an id that a surviving pack file also names
        would be overridden on the next open. For every packed id the
        current blob is materialized as a loose object (atomic rename,
        so a crash never leaves a torn blob under a valid name — and a
        renamed-but-unsynced one is outranked by the still-live pack
        entry, see :meth:`BlobStore.get`) and the loose ref is
        rewritten at the current in-memory digest. One ``os.sync()``
        makes it all durable, then the pack files are removed
        oldest-first — replaying whatever suffix a crash leaves behind
        still converges to this exact state, because later packs carry
        the newer digests and their blobs.
        """
        self._reclaim_dead_blobs()
        if not self._refbatch_files:
            return
        record_ids = set()
        for batch_path in self._refbatch_files:
            for record_id, _, _, _ in _iter_refpack(batch_path):
                record_ids.add(record_id)
        blobs = self.blobs
        tmp_dir = str(blobs.tmp_dir)
        tag = f"compact-{os.getpid()}"
        for index, record_id in enumerate(record_ids):
            digest = self._refs[record_id]
            blob_path = blobs._path(digest)
            if not blob_path.exists():
                tmp_name = os.path.join(tmp_dir, f"{tag}-blob-{index}")
                with open(tmp_name, "wb") as handle:
                    handle.write(blobs.get(digest))
                try:
                    os.replace(tmp_name, blob_path)
                except FileNotFoundError:
                    blob_path.parent.mkdir(parents=True, exist_ok=True)
                    os.replace(tmp_name, blob_path)
            tmp_name = os.path.join(tmp_dir, f"{tag}-{index}")
            with open(tmp_name, "wb") as handle:
                handle.write(digest.encode("ascii"))
            os.replace(tmp_name, self._ref_path(record_id))
        os.sync()
        for batch_path in self._refbatch_files:
            batch_path.unlink()
        self._refbatch_files = []
        blobs.clear_packed()

    def _collect(self, digest: str) -> None:
        """Drop a blob no ref points at any more (O(1) via refcounts —
        a bulk sweep replaces every record, so a scan of ``_refs`` here
        would make revocation quadratic in the store size)."""
        if digest not in self._refcounts:
            self._decoded.pop(digest, None)
            self.blobs.delete(digest)

    # -- records ----------------------------------------------------------

    def put(self, record: StoredRecord, replace: bool = False) -> str:
        """Persist a record; returns the blob digest.

        Ordered for crash safety: the new blob lands first, then the
        ref repoints atomically, and only then is the old blob eligible
        for collection. A crash (or write failure) at any point leaves
        the previous record fully readable — the worst case is an
        orphaned blob that :meth:`gc` reclaims later.
        """
        self._compact_refbatches()
        old_digest = self._refs.get(record.record_id)
        if old_digest is not None and not replace:
            raise StorageError(
                f"record {record.record_id!r} already exists "
                f"(pass replace=True to overwrite)"
            )
        old_record = None if old_digest is None else self._decode(old_digest)
        digest = self.blobs.put(record.to_bytes())
        self._remember(digest, record)
        _atomic_write(self.blobs.tmp_dir, self._ref_path(record.record_id),
                      digest.encode("ascii"))
        self._set_ref(record.record_id, digest)
        if old_record is not None:
            self._unindex_record(old_record)
        self._index_record(record)
        if old_digest is not None and old_digest != digest:
            self._collect(old_digest)
        return digest

    def get(self, record_id: str) -> StoredRecord:
        return self._decode(self.digest(record_id))

    def get_record_bytes_sized(self, record_id: str) -> tuple:
        """``(blob, Table II payload size)`` — the raw-fetch read: the
        digest-verified blob plus the metered size, from the decode
        memo."""
        blob, _, size = self._read(self.digest(record_id))
        return blob, size

    def get_record_bytes(self, record_id: str) -> bytes:
        """The digest-verified raw blob of a record, no element decode.

        The bulk sweep reads records this way and decodes them trusted
        inside a worker — the digest check here is what justifies
        skipping the per-element subgroup checks there.
        """
        return self.blobs.get(self.digest(record_id))

    def digest(self, record_id: str) -> str:
        """The content digest a record's ref points at (no disk read)."""
        digest = self._refs.get(record_id)
        if digest is None:
            raise StorageError(f"no record {record_id!r}")
        return digest

    def verify_record(self, record_id: str) -> bool:
        """Whether the record's blob serves bytes matching its digest.

        ``True`` means this store can hand out digest-verified bytes for
        the record right now (a cached copy counts — the cache is
        digest-addressed, so a hit IS verified). ``False`` means the
        on-disk copy is corrupted or missing: the record needs repair
        from a healthy replica. Unknown record ids raise, they are a
        different failure (the ref itself is gone).
        """
        digest = self.digest(record_id)
        try:
            self.blobs.get(digest)
        except StorageError:
            return False
        return True

    def probe_writable(self) -> bool:
        """Whether the backing filesystem accepts writes right now.

        Writes, fsyncs, and unlinks a probe file in the blob pool's
        ``tmp/`` directory — the same directory every durable write
        stages through — so a ``True`` here means the failure mode that
        degraded the server (full disk, remount read-only, dead device)
        has cleared. Used by the server's read-only *recovery* path;
        never raises.
        """
        probe = self.blobs.tmp_dir / f"probe-{os.getpid()}"
        try:
            with open(probe, "wb") as handle:
                handle.write(b"writable?")
                handle.flush()
                os.fsync(handle.fileno())
            os.unlink(probe)
        except OSError:
            try:
                os.unlink(probe)
            except OSError:
                pass
            return False
        return True

    def put_record_bytes(self, record_id: str, blob: bytes) -> str:
        """Force-put pre-encoded record bytes — the repair write.

        Unlike :meth:`replace_record_bytes_many` the record may be missing
        (a replica that never saw the write) and the blob write is
        forced (the blob file may exist under the right name with the
        wrong bytes — exactly the corruption repair undoes). The bytes
        are fully decoded first, so a repair peddling garbage or group
        elements off the curve is rejected before anything lands on
        disk, and the ciphertext-id index follows the decoded record,
        which also seeds the decode memo. Byte-preserving: the stored
        blob is ``blob`` itself, so replicas repaired from the same
        source stay digest-identical.
        """
        record = StoredRecord.from_bytes(self.group, blob)
        if record.record_id != record_id:
            raise StorageError(
                f"repair bytes encode record {record.record_id!r}, "
                f"not {record_id!r}"
            )
        self._compact_refbatches()
        old_digest = self._refs.get(record_id)
        if old_digest is not None:
            try:
                self._unindex_record(self._decode(old_digest))
            except StorageError:
                # The old blob is the corrupted thing being repaired;
                # its index entries are swept by record id instead.
                stale = [
                    ciphertext_id
                    for ciphertext_id, (owner_record_id, _)
                    in self._ciphertext_index.items()
                    if owner_record_id == record_id
                ]
                for ciphertext_id in stale:
                    del self._ciphertext_index[ciphertext_id]
        digest = self.blobs.put(blob, force=True)
        self._remember(digest, record)
        _atomic_write(self.blobs.tmp_dir, self._ref_path(record_id),
                      digest.encode("ascii"))
        self._set_ref(record_id, digest)
        self._index_record(record)
        if old_digest is not None and old_digest != digest:
            self._collect(old_digest)
        return digest

    def replace_record_bytes_many(self, items, durable: bool = True) -> list:
        """Repoint many existing records as ONE durability group.

        Each ``(record_id, blob)`` pair repoints an existing record at
        pre-encoded bytes with *no* decode of either record. That is
        only valid when the replacement preserves the record's
        ciphertext-id → component mapping, so the index needs no
        maintenance — ReEncrypt does: ids, component names and symmetric
        bodies are invariant under it. Callers that change the mapping
        must use :meth:`put`. The per-record path (:meth:`put` with
        ``replace=True``) pays two fsyncs, a blob file creation and two
        ref metadata ops per record — at sweep scale that is the
        dominant storage cost. Here the whole batch — every repoint
        AND every new blob's bytes — is serialized into ONE refpack
        file (see :func:`_iter_refpack`) that a single ``os.replace``
        publishes under ``refbatches/``. Packs are replayed over the
        loose refs on open (their blobs served by offset through
        :meth:`BlobStore.register_packed`) and folded back into loose
        refs and blobs by :meth:`_compact_refbatches` before any
        loose-ref mutation. The batch is made durable by the single
        ``os.sync()`` barrier in :meth:`commit_replacements` — called
        here when ``durable`` (the default), or deferred by a
        multi-batch caller (the sweep) that commits once after its
        last batch.

        Crash-safety invariants versus the per-record path:

        * refs and blobs publish in ONE atomic rename — there is no
          blob-before-ref ordering to maintain, and a visible pack can
          never name a blob it does not fully contain (a truncated
          rename target is impossible; a crash before the rename
          leaves only a tmp file that open-time sweeping removes);
        * an old blob is only *unlinked* by :meth:`commit_replacements`,
          after the sync barrier has made every repoint that released
          it durable;
        * the whole batch lands atomically, so each record reads back
          at its old or its new bytes, never in between — strictly
          coarser than the per-record path, whose crash mid-loop loses
          a suffix of the repoints.

        What deferral trades away is durable-on-return per batch: until
        the commit runs, an applied batch can be lost (never torn) by a
        crash. Callers that defer must commit before acknowledging the
        work. Returns the new digests in input order.
        """
        items = list(items)
        if not items:
            return []
        # Any unlinks the previous batch's commit deferred are paid
        # here, at the head of the NEXT bulk mutation — reclamation
        # amortizes across sweeps instead of sitting inside each
        # sweep's acknowledgement window.
        self._reclaim_dead_blobs()
        blobs = self.blobs
        new_digests = []
        old_digests = []
        for record_id, blob in items:
            old = self._refs.get(record_id)
            if old is None:
                raise StorageError(f"no record {record_id!r}")
            old_digests.append(old)
        chunks = [_REFPACK_MAGIC]
        offsets = []  # blob byte offset per item, aligned with items
        pos = len(_REFPACK_MAGIC)
        for record_id, blob in items:
            digest = hashlib.sha256(blob).hexdigest()
            new_digests.append(digest)
            encoded_id = record_id.encode("utf-8")
            chunks.append(len(encoded_id).to_bytes(4, "big"))
            chunks.append(encoded_id)
            chunks.append(digest.encode("ascii"))
            chunks.append(len(blob).to_bytes(4, "big"))
            pos += 4 + len(encoded_id) + 64 + 4
            offsets.append(pos)
            chunks.append(blob)
            pos += len(blob)
        tag = f"batch-{os.getpid()}"
        batch_tmp = os.path.join(str(blobs.tmp_dir), f"{tag}-refs")
        batch_path = self.refbatch_dir / f"{self._refbatch_seq:08d}"
        try:
            with open(batch_tmp, "wb") as handle:
                handle.write(b"".join(chunks))
            os.replace(batch_tmp, batch_path)
        except BaseException:
            if os.path.exists(batch_tmp):
                os.unlink(batch_tmp)
            raise
        self._refbatch_seq += 1
        self._refbatch_files.append(batch_path)
        for (record_id, blob), digest, offset in zip(items, new_digests,
                                                     offsets):
            self._set_ref(record_id, digest)
            blobs.register_packed(digest, batch_path, offset, len(blob))
            blobs._cache_put(digest, blob)
        for old, new in zip(old_digests, new_digests):
            if old != new:
                self._pending_collect.append(old)
        if durable:
            self.commit_replacements()
        return new_digests

    def commit_replacements(self) -> None:
        """Make deferred batch replacements durable; then collect.

        One ``os.sync()`` pushes every refpack rename of the deferred
        batches to disk, after which the old blobs those batches
        released are dead (their refs' repoints are durable). Their
        in-memory traces (cache and pack entries) drop here; the loose
        *unlinks* are deferred to :meth:`_reclaim_dead_blobs` at the
        next store mutation, GC or audit — dead-blob removal is
        reclamation, not durability, so it has no business in the
        acknowledgement path of a bulk sweep. A no-op when nothing is
        deferred. If the process dies first, the replaced records are
        still readable at old-or-new bytes; the un-collected old blobs
        are orphans that :meth:`gc` reclaims.
        """
        if not self._pending_collect:
            return
        os.sync()
        pending, self._pending_collect = self._pending_collect, []
        for digest in dict.fromkeys(pending):
            if digest not in self._refcounts:
                self._decoded.pop(digest, None)
                self.blobs._cache_drop(digest)
                self.blobs._packs.pop(digest, None)
                self._deferred_unlinks.append(digest)

    def _reclaim_dead_blobs(self) -> None:
        """Unlink loose blobs whose death :meth:`commit_replacements`
        deferred. Re-checks the refcounts — a digest re-referenced
        since it was scheduled is live again and must survive."""
        if not self._deferred_unlinks:
            return
        pending, self._deferred_unlinks = self._deferred_unlinks, []
        for digest in dict.fromkeys(pending):
            if digest not in self._refcounts:
                self.blobs.delete(digest)

    def delete(self, record_id: str) -> None:
        self._compact_refbatches()
        digest = self._refs.get(record_id)
        if digest is None:
            raise StorageError(f"no record {record_id!r}")
        self._unindex_record(self._decode(digest))
        self._drop_ref(record_id)
        self._ref_path(record_id).unlink(missing_ok=True)
        self._collect(digest)

    def replace_component(self, record_id: str,
                          component: StoredComponent) -> StoredRecord:
        """Swap one component and persist the updated record."""
        updated = self.get(record_id).with_component(component)
        self.put(updated, replace=True)
        return updated

    def record_ids(self) -> list:
        return sorted(self._refs)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._refs

    def __len__(self) -> int:
        return len(self._refs)

    def locate_ciphertext(self, ciphertext_id: str) -> tuple:
        """``(record id, component name)`` holding a ciphertext id."""
        try:
            return self._ciphertext_index[ciphertext_id]
        except KeyError:
            raise StorageError(f"no ciphertext {ciphertext_id!r}") from None

    def ciphertext_ids(self) -> frozenset:
        return frozenset(self._ciphertext_index)

    def storage_bytes(self) -> int:
        """Total stored payload — the Table III 'server' row, measured."""
        return sum(self._read(digest)[2] for digest in self._refs.values())

    # -- crash-recovery auditing ------------------------------------------

    def check(self) -> dict:
        """Audit every on-disk invariant after a crash or reopen.

        Returns a report mapping each invariant to its violations:
        refs whose blob is missing or fails digest verification, blobs
        no ref points at (the residue of a crash between blob write and
        ref repoint, or mid-GC), and ciphertext-index entries that
        disagree with the records on disk. ``report["ok"]`` is True iff
        everything holds. Pending deferred reclamation is flushed
        first — scheduled-but-not-yet-unlinked dead blobs are
        maintenance debt, not crash residue.
        """
        self._reclaim_dead_blobs()
        report = {
            "records": len(self._refs),
            "missing_blobs": [],
            "corrupt_blobs": [],
            "orphan_blobs": [],
            "index_mismatches": [],
        }
        index = {}
        for record_id, digest in sorted(self._refs.items()):
            if not self.blobs.contains(digest):
                report["missing_blobs"].append(record_id)
                continue
            try:
                record = StoredRecord.from_bytes(self.group,
                                                 self.blobs.get(digest))
            except ReproError:
                report["corrupt_blobs"].append(record_id)
                continue
            for name, component in record.components.items():
                index[component.abe_ciphertext.ciphertext_id] = (
                    record_id, name
                )
        if index != self._ciphertext_index:
            report["index_mismatches"] = sorted(
                set(index.items()) ^ set(self._ciphertext_index.items())
            )
        referenced = set(self._refs.values())
        report["orphan_blobs"] = [
            digest for digest in self.blobs.digests()
            if digest not in referenced
        ]
        report["ok"] = not (report["missing_blobs"]
                            or report["corrupt_blobs"]
                            or report["orphan_blobs"]
                            or report["index_mismatches"])
        return report

    def gc(self) -> list:
        """Delete every unreferenced blob; returns the digests removed."""
        self._reclaim_dead_blobs()
        referenced = set(self._refs.values())
        removed = [digest for digest in self.blobs.digests()
                   if digest not in referenced]
        for digest in removed:
            self.blobs.delete(digest)
        return removed

    # -- authority key directory ------------------------------------------

    def put_authority_keys(self, aid: str, blob: bytes) -> None:
        _atomic_write(self.blobs.tmp_dir,
                      self.keys_dir / quote(aid, safe=""), blob)

    def get_authority_keys(self, aid: str) -> bytes:
        try:
            return (self.keys_dir / quote(aid, safe="")).read_bytes()
        except FileNotFoundError:
            raise StorageError(
                f"no published keys for authority {aid!r}"
            ) from None

    def authority_ids(self) -> list:
        return sorted(unquote(path.name) for path in self.keys_dir.iterdir())
