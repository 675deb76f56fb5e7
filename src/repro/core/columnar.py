"""Byte-record kernels: the record hot path of every sorter.

Both sorters move encoded records, not token objects, through scan ->
key-evaluate -> form-runs -> merge -> output.  Keys are engine-normalized
``bytes`` (order- and equality-faithful, :mod:`repro.merge.engine`), records
are spliced from the stored encodings, and sorts are batch argsorts.  The
pieces:

* :func:`argsort_normalized` - prefix argsort with a full-key tie-break
  on equal prefixes, producing exactly the order - including stability -
  of ``list.sort`` over the same keys;
* :func:`fast_path_key` - normalized key bytes straight from an encoded
  key-path record, parsing only the path prefix (merge passes never
  decode tags/attributes/text);
* :func:`record_puller` / :func:`keyed_puller` - block-drain batched run
  reading for the heap and loser-tree merge kernels;
* :func:`form_runs_columnar` / :func:`emit_output_columnar` - fused block
  encode/decode of the token format for the external merge sort scan and
  output phases, covering plain, dictionary-coded, and end-tag-eliminated
  (level-annotated) storage;
* :func:`argsort_groups` / :func:`sort_subtree_records` - NEXSORT's
  in-memory subtree sorts as batch kernels: sibling groups are gathered
  into one prefixed key batch and ordered with a single stable argsort,
  and a popped subtree's raw data-stack records are parsed, sorted, and
  re-serialized by byte splicing without ever materializing tokens;
* :func:`form_subtree_runs` - NEXSORT's external (key-path) subtree
  sort: the popped records spliced into key-path records for run
  formation; the same :func:`emit_output_columnar` writes the sorted
  records back in the run dialect.

**Accounting.**  Every kernel charges what the paper's record-at-a-time
algorithm charges: device accesses are issued in the same per-stream order
at the same consumption points (draining an already-buffered block is free
in the device model), comparison charges use the analytic formulas (counted
mode replays the exact comparison sequence), and token charges are batched
sums of the same per-record units.  ``tests/scalar_reference.json`` holds
the outputs, counters, and phase breakdowns of the retired token-object
implementation, and the accounting-parity suite reproduces every cell.
"""

from __future__ import annotations

import struct
from math import ceil, log2
from typing import Callable, Iterable

try:  # pragma: no cover - exercised via both-backends tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from ..errors import CodecError, RunError, SortSpecError
from ..merge.engine import (
    _normalize_atom,
    argsort_counted,
    dense_ranks,
    embedded_key_of,
    normalize_number,
)
from ..xml.codec import (
    TYPE_END,
    TYPE_POINTER,
    TYPE_START,
    TYPE_TEXT,
    encode_key_atom,
    encode_tag_attrs,
    encode_varint,
    _name_field_end,
    _skip_atom,
    _skip_frame,
    _skip_tag_attrs,
    _skip_varint,
    read_tag_attrs,
    read_varint_fast,
    record_level,
)
from ..xml.tokens import StartTag

_DOUBLE_LE = struct.Struct("<d")
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")

#: Keep the start-key memo bounded on high-cardinality documents.
_MEMO_LIMIT = 1 << 16

#: Single-byte varints, indexed by value.
_VARINT1 = [bytes([value]) for value in range(128)]

#: Bytes of normalized key the numpy argsort packs into its fixed-width
#: prefix array (equal prefixes fall back to a full-key comparison, so
#: the width changes speed, never order).  A multiple of 8, so the
#: prefix matrix views cleanly as big-endian u64 columns.
PREFIX_WIDTH = 24

#: Batches smaller than this sort faster with the pure-Python stable
#: sort (memcmp-based timsort) than with the numpy prefix argsort,
#: whose per-call cost is dominated by building the padded prefix
#: buffer; the vectorized path pulls ahead on merge-pass-sized inputs.
_SMALL_ARGSORT = 1 << 16


def have_numpy() -> bool:
    """True when the vectorized argsort backend is active."""
    return _np is not None


# -- small codec helpers ------------------------------------------------------


def normalized_atom_bytes(atom: tuple) -> bytes:
    """Byte-comparable form of one key atom (engine normalization)."""
    out = bytearray()
    _normalize_atom(out, atom)
    return bytes(out)


def encoded_atom_bytes(atom: tuple) -> bytes:
    """Codec encoding of one key atom (as stored in key-path records)."""
    out = bytearray()
    encode_key_atom(out, atom)
    return bytes(out)


def fast_path_key(record: bytes) -> bytes:
    """Normalized sort key of an encoded key-path record, path-only parse.

    Equivalent to ``normalized_path_key(decode_record(record).sort_key())``
    but skips the tag/attribute/text payload entirely - this is what merge
    passes call per record per pass when keys are not embedded.  Works for
    element and pointer records, with or without a name dictionary (path
    atoms are dictionary-independent).  Varint reads are inlined: this
    runs once per record per merge pass, the hottest loop in the sort.
    Truncated records raise :class:`~repro.errors.CodecError`.
    """
    try:
        byte = record[1]
        pos = 2
        if byte < 0x80:
            depth = byte
        else:
            depth, pos = read_varint_fast(record, 1)
        parts = []
        append = parts.append
        for _ in range(depth):
            kind = record[pos]
            pos += 1
            if kind == 2:  # string atom
                length = record[pos]
                pos += 1
                if length >= 0x80:
                    length, pos = read_varint_fast(record, pos - 1)
                end = pos + length
                raw = record[pos:end]
                pos = end
                if b"\x00" in raw:
                    raw = raw.replace(b"\x00", b"\x00\xff")
                append(b"\x02" + raw + b"\x00")
            elif kind == 1:  # number atom
                append(
                    normalize_number(_DOUBLE_LE.unpack_from(record, pos)[0])
                )
                pos += 8
            elif kind == 0:  # missing atom
                append(b"\x00")
            else:
                raise CodecError(f"unknown key atom kind {kind}")
            position = record[pos]
            pos += 1
            if position >= 0x80:
                position &= 0x7F
                shift = 7
                while True:
                    byte = record[pos]
                    pos += 1
                    position |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
            append(position.to_bytes(8, "big"))
    except (IndexError, struct.error) as exc:
        raise CodecError(f"truncated key-path record: {exc}") from None
    return b"".join(parts)


def batch_path_keys(records: list[bytes]) -> list[bytes]:
    """:func:`fast_path_key` of every record in a drained block."""
    key = fast_path_key
    return [key(record) for record in records]


def batch_embedded_keys(records: list[bytes]) -> list[bytes]:
    """Embedded normalized-key prefixes of a drained block of records."""
    out = []
    append = out.append
    try:
        for record in records:
            length = record[0]
            if length < 0x80:
                append(record[1 : 1 + length])
            else:
                length, pos = read_varint_fast(record, 0)
                append(record[pos : pos + length])
    except IndexError as exc:
        raise CodecError(f"truncated embedded-key record: {exc}") from None
    return out


# -- the prefix argsort ------------------------------------------------------


def _common_prefix_length(keys: list[bytes]) -> int:
    """Length of the byte prefix shared by every key in the batch.

    Stripping it before building the prefix array keeps the fixed-width
    window over the *discriminating* bytes - key paths share their root
    component, which would otherwise waste most of the window.
    """
    if not keys:
        return 0
    prefix = keys[0]
    for key in keys:
        if key.startswith(prefix):
            continue
        limit = min(len(prefix), len(key))
        i = 0
        while i < limit and prefix[i] == key[i]:
            i += 1
        prefix = prefix[:i]
        if not prefix:
            return 0
    return len(prefix)


def _prefix_buffer(keys: list[bytes], strip: int, width: int):
    """The contiguous zero-padded prefix matrix (numpy or bytearray)."""
    end = strip + width
    if _np is None:
        padded = b"".join(
            key[strip:end].ljust(width, b"\x00") for key in keys
        )
        return bytearray(padded)
    # numpy's S-dtype constructor truncates long entries and NUL-pads
    # short ones - exactly the ljust window above, built in C.
    trimmed = [key[strip:end] for key in keys] if strip else keys
    rows = _np.array(trimmed, dtype=f"S{width}")
    return rows.view(_np.uint8).reshape(len(keys), width)


def argsort_normalized(
    keys: list[bytes],
    strip: int | None = None,
    prefix=None,
) -> list[int]:
    """Stable argsort of normalized-key bytes via the prefix matrix.

    With numpy: the zero-padded prefix matrix is viewed as one
    fixed-width bytes (``S<width>``) column and ordered with a single
    stable ``argsort`` - numpy's bytes comparison is memcmp with
    lowest-ranked implicit trailing NULs, exactly the order of the
    zero-padded prefixes; groups of rows with identical padded prefixes
    are then re-ordered by their full keys with a stable Python sort.
    Without numpy
    the whole argsort falls back to a stable sort on the full keys.
    Either way the result equals the order a stable ``list.sort`` of the
    keys produces, which is what keeps run contents bit-identical to the
    paper's record-at-a-time sort.
    """
    n = len(keys)
    if n <= 1:
        return list(range(n))
    if _np is None or (n < _SMALL_ARGSORT and prefix is None):
        # Below a few hundred rows the fixed numpy dispatch overhead
        # (buffer build, argsort setup) loses to a straight stable sort
        # of the bytes keys; the order is identical either way.
        return sorted(range(n), key=keys.__getitem__)
    width = PREFIX_WIDTH
    if strip is None:
        strip = _common_prefix_length(keys)
    if prefix is None:
        prefix = _prefix_buffer(keys, strip, width)
    rows = prefix.view(f"S{width}").ravel()
    order = rows.argsort(kind="stable")
    # Tie-break equal padded prefixes on the full key.  The argsort is
    # stable, so rows inside a tie group arrive in ascending original
    # index; the stable Python sort below therefore preserves input
    # order on fully equal keys, exactly like a plain timsort.
    sorted_rows = rows[order]
    changed = sorted_rows[1:] != sorted_rows[:-1]
    order = order.tolist()
    if not changed.all():
        starts = [0] + [int(i) + 1 for i in _np.flatnonzero(changed)]
        starts.append(n)
        out: list[int] = []
        for begin, end in zip(starts, starts[1:]):
            group = order[begin:end]
            if len(group) > 1:
                group.sort(key=keys.__getitem__)
            out.extend(group)
        return out
    return order


def argsort_keyed_batch(
    batch: list[tuple[bytes, bytes]],
) -> list[tuple[bytes, bytes]]:
    """Sort a run-formation ``(normalized key, payload)`` batch.

    Same order as ``sort_keyed_batch`` (the caller charges
    comparisons); returns a new sorted list.
    """
    keys = [key for key, _payload in batch]
    order = argsort_normalized(keys)
    return [batch[index] for index in order]


#: Sibling groups at least this large get a dedicated argsort call;
#: smaller groups are concatenated into one prefixed batch so a subtree
#: with thousands of small sibling lists pays one sort dispatch, not
#: thousands.
_GROUP_SOLO = 4096


def argsort_groups(groups: list[list[bytes]]) -> list[list[int]]:
    """Per-group stable argsorts of many key lists, batched into one call.

    Semantically ``[argsort_normalized(g) for g in groups]`` - this is
    how NEXSORT's sibling-group sorts run as a batch kernel.  Small
    groups are concatenated with a fixed-width big-endian *group-index
    prefix* and ordered with a single stable :func:`argsort_normalized`:
    the distinct ascending prefixes keep each group's rows contiguous in
    the output (groups never interleave), so slicing the global order
    back apart and rebasing indices recovers every group's local order,
    including stability (equal keys inside a group keep their relative
    input order because the global sort is stable and their prefixed
    keys are adjacent duplicates).
    """
    orders: list[list[int] | None] = [None] * len(groups)
    batch: list[tuple[int, int, int]] = []  # (group index, base, n)
    batch_keys: list[bytes] = []
    base = 0
    for index, keys in enumerate(groups):
        n = len(keys)
        if n <= 1:
            orders[index] = list(range(n))
        elif n >= _GROUP_SOLO:
            orders[index] = argsort_normalized(keys)
        else:
            batch.append((index, base, n))
            batch_keys.extend(keys)
            base += n
    if len(batch) == 1:
        index, _base, _n = batch[0]
        orders[index] = argsort_normalized(batch_keys)
    elif batch:
        pack = _U32.pack
        prefixed: list[bytes] = []
        extend = prefixed.extend
        for slot, (_index, lo, n) in enumerate(batch):
            tag = pack(slot)
            extend([tag + key for key in batch_keys[lo : lo + n]])
        order = argsort_normalized(prefixed)
        for _slot, (index, lo, n) in enumerate(batch):
            orders[index] = [order[lo + i] - lo for i in range(n)]
    return orders


def sort_sibling_groups(
    groups: list[list],
    group_keys: list[list[bytes]],
    stats,
    counted: bool = False,
) -> None:
    """Reorder every sibling list in place by its normalized keys.

    ``group_keys[i]`` holds one order- and equality-faithful key per
    member of ``groups[i]``; all groups are ordered by one
    :func:`argsort_groups` call.  The analytic ``n * ceil(log2 n)``
    comparison charge per group is recorded as one total (charge order
    inside the enclosing subtree-sort span is not observable).

    ``counted=True`` keys each group down to dense ranks via the batched
    order and replays a counted timsort over the rank ints
    (:func:`~repro.merge.engine.argsort_counted`), per group in gather
    order.  The rank lists are order- and equality-isomorphic to the
    keys, so the replay performs - and charges - exactly the comparison
    sequence of a counted sort of the groups, while key derivation and
    the heavy lifting stay batched.
    """
    if not groups:
        return
    orders = argsort_groups(group_keys)
    if counted:
        for children, keys, order in zip(groups, group_keys, orders):
            replay = argsort_counted(dense_ranks(keys, order), stats)
            children[:] = [children[i] for i in replay]
        return
    comparisons = 0
    for children, order in zip(groups, orders):
        children[:] = [children[i] for i in order]
        n = len(children)
        comparisons += n * max(1, ceil(log2(n)))
    stats.record_comparisons(comparisons)


# -- batched run reading ------------------------------------------------------


def record_puller(reader) -> Callable[[], bytes | None]:
    """Record-at-a-time pull over a RunReader with block-drain batching.

    Serves every record of the currently buffered block from one batched
    parse; the record that needs the next block is fetched through
    ``read_record`` so the block load happens at exactly the pull index a
    record-at-a-time reader would issue it - the property merge
    prefetchers, pool eviction order, and interleaved-stream seek
    judgments depend on.
    """
    queue: list[bytes] = []
    index = 0

    def pull() -> bytes | None:
        nonlocal queue, index
        if index >= len(queue):
            queue = reader.read_available_records()
            index = 0
            if not queue:
                return reader.read_record()
        record = queue[index]
        index += 1
        return record

    return pull


def batch_keys_for(key_of) -> Callable[[list[bytes]], list]:
    """The batched form of a merge key function.

    The two key functions the columnar sorter installs have dedicated
    batch kernels; anything else (custom key functions from NEXSORT's
    degeneration mode) is wrapped, which still amortizes the pull
    machinery even though the key calls stay element-wise.
    """
    if key_of is fast_path_key:
        return batch_path_keys
    if key_of is embedded_key_of:
        return batch_embedded_keys

    def generic(records: list[bytes]) -> list:
        return [key_of(record) for record in records]

    return generic


def keyed_puller(reader, batch_keys, sidecar=None) -> Callable[[], tuple | None]:
    """Like :func:`record_puller`, but yields ``(key, record)`` pairs.

    Keys for a drained block are computed in one ``batch_keys`` call -
    this is where the merge passes' per-record key cost collapses into a
    batch kernel.  With a key ``sidecar`` (the run's normalized keys in
    record order, captured when the run was written) keys are not even
    recomputed, just indexed.  Block-load timing is the same as a
    record-at-a-time reader's (see :func:`record_puller`).
    """
    queue: list[bytes] = []
    keys: list = []
    index = 0
    consumed = 0

    if sidecar is not None:

        def pull() -> tuple | None:
            nonlocal queue, index, consumed
            if index >= len(queue):
                queue = reader.read_available_records()
                if not queue:
                    record = reader.read_record()
                    if record is None:
                        return None
                    queue = [record]
                index = 0
            entry = (sidecar[consumed], queue[index])
            index += 1
            consumed += 1
            return entry

        return pull

    def pull() -> tuple | None:
        nonlocal queue, keys, index
        if index >= len(queue):
            queue = reader.read_available_records()
            if not queue:
                record = reader.read_record()
                if record is None:
                    return None
                queue = [record]
            keys = batch_keys(queue)
            index = 0
        entry = (keys[index], queue[index])
        index += 1
        return entry

    return pull


def run_sidecar(store, run, key_of):
    """The run's key sidecar if it is valid for ``key_of``, else None.

    A sidecar holds the normalized key bytes of a run's records in record
    order, captured host-side when the run was written.  It only stands
    in for ``key_of`` when that function *is* one of the two normalized-
    bytes key functions - custom key functions (NEXSORT's degeneration
    merges) have different key semantics and must be evaluated.
    """
    if key_of is not fast_path_key and key_of is not embedded_key_of:
        return None
    keys = store.key_sidecars.get(run.run_id)
    if keys is not None and len(keys) != run.record_count:
        return None
    return keys


def merge_sidecars(store, runs, key_of) -> list[list] | None:
    """Key sidecars for every run of a merge group, or None if any miss."""
    sidecars = []
    for run in runs:
        keys = run_sidecar(store, run, key_of)
        if keys is None:
            return None
        sidecars.append(keys)
    return sidecars


def _replay_order(runs, sidecars):
    """(concatenated keys, merged order, run index per merged record).

    A k-way merge of sorted runs with the heap's ``(key, run index)``
    tie-break is exactly a *stable sort* of the runs' concatenation in
    run order.  The concatenation is a sequence of ``w`` presorted
    ascending runs - timsort's best case: it detects each run and
    galloping-merges them in near-linear memcmp comparisons, which
    measures several times faster here than the prefix argsort (the
    argsort cannot exploit presortedness).
    """
    all_keys: list[bytes] = []
    for keys in sidecars:
        all_keys.extend(keys)
    order = sorted(range(len(all_keys)), key=all_keys.__getitem__)
    counts = [len(keys) for keys in sidecars]
    if _np is not None:
        run_of = _np.repeat(
            _np.arange(len(runs), dtype=_np.int64), counts
        )[_np.asarray(order, dtype=_np.int64)].tolist()
    else:
        ids: list[int] = []
        for index, count in enumerate(counts):
            ids.extend([index] * count)
        run_of = [ids[j] for j in order]
    return all_keys, order, run_of


def _replay_heads(readers):
    """Initial head record of every reader, pulled in index order.

    Matches the heap merge's heapify-time reads: one ``read_record``
    per reader, loading each run's first block in run order.  Returns
    (heads, queues, indices) - the inlined drain state the replay loops
    advance without closure calls.
    """
    heads: list = []
    queues: list = []
    indices: list[int] = []
    for reader in readers:
        queue = reader.read_available_records()
        if queue:
            heads.append(queue[0])
            queues.append(queue)
            indices.append(1)
        else:
            heads.append(reader.read_record())
            queues.append(())
            indices.append(0)
    return heads, queues, indices


def replay_merge(
    store,
    runs,
    readers,
    sidecars,
    comparisons_per_record: int,
    keyed: bool = False,
):
    """Heap-kernel merge pass replayed from precomputed key sidecars.

    With every run's normalized keys already in memory
    (:func:`_replay_order`), the merge just *replays* record pulls in
    the merged order.  No per-record key evaluation, no heap ops.

    Counter parity with the heap merge loop:

    * records are pulled from each run strictly sequentially, and the
      *global* interleaving of pulls across runs is the merged order -
      identical to the heap's, so the shared merge-read stream sees the
      same access sequence (same seq/random judgments, same pool
      evictions, same fault trigger points); each run's next block load
      still fires right after its current record is emitted, exactly
      when the heap would refill;
    * runs are freed at the pull that discovers their exhaustion, never
      at init, matching the heap (empty runs are never freed by either);
    * the analytic ``ceil(log2 w)`` charge per emitted record is flushed
      incrementally on exit, so a device fault or early close mid-merge
      leaves exactly the heap loop's charge total.
    """
    all_keys, order, run_of = _replay_order(runs, sidecars)
    heads, queues, indices = _replay_heads(readers)
    stats = store.device.stats
    free = store.free
    yielded = 0
    try:
        steps = zip(order, run_of) if keyed else run_of
        for step in steps:
            if keyed:
                j, r = step
            else:
                r = step
            record = heads[r]
            if record is None:
                raise RunError(
                    "merge key sidecar out of sync with run contents"
                )
            yielded += 1
            if keyed:
                yield all_keys[j], record
            else:
                yield record
            index = indices[r]
            queue = queues[r]
            if index < len(queue):
                heads[r] = queue[index]
                indices[r] = index + 1
            else:
                reader = readers[r]
                queue = reader.read_available_records()
                if queue:
                    heads[r] = queue[0]
                    queues[r] = queue
                    indices[r] = 1
                else:
                    head = reader.read_record()
                    heads[r] = head
                    if head is None:
                        free(runs[r])
    finally:
        if comparisons_per_record and yielded:
            stats.record_merge_comparisons(
                comparisons_per_record * yielded
            )
    stats.record_tokens(sum(run.record_count for run in runs))


def replay_merge_to_writer(
    store,
    runs,
    readers,
    sidecars,
    comparisons_per_record: int,
    writer,
    chunk_records: int,
) -> list[bytes]:
    """Materialized merge pass, fully replayed into grouped writer calls.

    The no-pool, no-recovery fast path of a materialized heap-kernel
    merge: observationally identical to consuming :func:`replay_merge`
    through ``chunk_records``-sized ``write_records`` groups, minus the
    generator machinery.  Returns the output run's key sidecar (the
    merged key order) - no per-record key collection needed.
    """
    all_keys, order, run_of = _replay_order(runs, sidecars)
    heads, queues, indices = _replay_heads(readers)
    stats = store.device.stats
    free = store.free
    write_records = writer.write_records
    out: list[bytes] = []
    append = out.append
    emitted = 0
    try:
        for r in run_of:
            record = heads[r]
            if record is None:
                raise RunError(
                    "merge key sidecar out of sync with run contents"
                )
            emitted += 1
            append(record)
            if len(out) >= chunk_records:
                write_records(out)
                out = []
                append = out.append
            index = indices[r]
            queue = queues[r]
            if index < len(queue):
                heads[r] = queue[index]
                indices[r] = index + 1
            else:
                reader = readers[r]
                queue = reader.read_available_records()
                if queue:
                    heads[r] = queue[0]
                    queues[r] = queue
                    indices[r] = 1
                else:
                    head = reader.read_record()
                    heads[r] = head
                    if head is None:
                        free(runs[r])
        if out:
            write_records(out)
    finally:
        if comparisons_per_record and emitted:
            stats.record_merge_comparisons(
                comparisons_per_record * emitted
            )
    stats.record_tokens(sum(run.record_count for run in runs))
    return [all_keys[j] for j in order]


# -- fused scan: stored tokens -> key-path records -> run formation -----------


class StartKeyCache:
    """Memoized start-tag key evaluation over raw ``tag+attrs`` bytes.

    The memo key is the encoded tag+attributes slice of the stored start
    token, which is exactly the information a start-computable rule may
    use - so one cache serves every rule shape with the evaluator's exact
    semantics (including numeric coercion and missing-attribute
    fallbacks).  Entries hold the splice pieces the fused scans need,
    never token objects: the normalized key atom (run-formation keys),
    the codec-encoded key atom (annotated starts and key-path records),
    and the encoded name field (an end-tag record's name is exactly the
    tag+attrs prefix, in either name dialect).  Specs whose keys are
    evaluated at end tags use :meth:`rule_pieces_for` instead (one cache
    serves one of the two methods).
    """

    __slots__ = ("spec", "names", "names_coded", "memo")

    def __init__(self, spec, names=None):
        self.spec = spec
        self.names = names
        self.names_coded = names is not None
        self.memo: dict[bytes, tuple] = {}

    def pieces_for(self, tag_attrs: bytes) -> tuple[bytes, bytes, bytes]:
        """(normalized atom, encoded atom, name field) of one start."""
        entry = self.memo.get(tag_attrs)
        if entry is not None:
            return entry
        tag, attrs, _pos = read_tag_attrs(tag_attrs, 0, self.names)
        atom = self.spec.rule_for(tag).key_from_start(
            StartTag(tag, attrs)
        )
        name_field = tag_attrs[
            : _name_field_end(tag_attrs, 0, self.names_coded)
        ]
        entry = (
            normalized_atom_bytes(atom), encoded_atom_bytes(atom), name_field
        )
        if len(self.memo) >= _MEMO_LIMIT:
            self.memo.clear()
        self.memo[tag_attrs] = entry
        return entry

    def rule_pieces_for(self, tag_attrs: bytes) -> tuple:
        """(tag, rule, start-computable key atom or None, end head) of one
        start, for a spec whose keys are evaluated at end tags: what
        :func:`repro.keys.enter_element` takes, plus the element's
        key-carrying end record up to its position - type, flags, name
        and, for a start-computable rule, the encoded key."""
        entry = self.memo.get(tag_attrs)
        if entry is not None:
            return entry
        tag, attrs, _pos = read_tag_attrs(tag_attrs, 0, self.names)
        rule = self.spec.rule_for(tag)
        end_head = b"\x03\x03" + tag_attrs[
            : _name_field_end(tag_attrs, 0, self.names_coded)
        ]
        atom = None
        if rule.start_computable:
            atom = rule.key_from_start(StartTag(tag, attrs))
            end_head += encoded_atom_bytes(atom)
        entry = (tag, rule, atom, end_head)
        if len(self.memo) >= _MEMO_LIMIT:
            self.memo.clear()
        self.memo[tag_attrs] = entry
        return entry


def _normalize_encoded_atom(data: bytes, pos: int) -> tuple[bytes, int]:
    """(normalized key bytes, end offset) of a codec-encoded key atom.

    Same normalization as the merge engine's ``_normalize_atom``, driven
    straight off the encoded bytes (no atom tuple is built).
    """
    kind = data[pos]
    pos += 1
    if kind == 2:
        length = data[pos]
        pos += 1
        if length >= 0x80:
            length, pos = read_varint_fast(data, pos - 1)
        end = pos + length
        raw = data[pos:end]
        if b"\x00" in raw:
            raw = raw.replace(b"\x00", b"\x00\xff")
        return b"\x02" + raw + b"\x00", end
    if kind == 1:
        return (
            normalize_number(_DOUBLE_LE.unpack_from(data, pos)[0]),
            pos + 8,
        )
    if kind == 0:
        return b"\x00", pos
    raise CodecError(f"unknown key atom kind {kind}")


_ELEMENT_HEADS = [b"\x01" + encode_varint(depth) for depth in range(64)]


def _element_head(depth: int) -> bytes:
    if depth < 64:
        return _ELEMENT_HEADS[depth]
    return b"\x01" + encode_varint(depth)


def form_runs_columnar(document, spec, former, device) -> bool:
    """Fused scan of a stored document into run formation.

    One loop replaces ``iter_events -> KeyEvaluator.annotate ->
    records_from_annotated_events -> encode_record``: stored token records
    are drained block-wise, key-path records are assembled by splicing the
    already-encoded tag/attribute/text bytes, and the former receives
    normalized ``bytes`` keys.  Emission order (element end-tag order),
    record bytes, token charges, and input-scan block reads are identical
    to that token pipeline.

    Every storage dialect is covered: plain, dictionary-coded names
    (tag+attrs slices splice verbatim - key-path records use the same
    name encoding), and end-tag-eliminated streams (a dedicated loop
    synthesizes element closes from level transitions with
    ``restore_end_tags``' exact rules).  Returns False, having done
    nothing, only for non-start-computable specs.  Raises the token
    pipeline's own error for streams it rejects (annotated pointers,
    unbalanced nesting).
    """
    if not spec.start_computable:
        return False
    compaction = document.compaction
    names = compaction.names if compaction is not None else None
    if compaction is not None and compaction.eliminate_end_tags:
        return _form_runs_compact(document, spec, former, device, names)
    reader = document.store.open_reader(
        document.handle, category="input_scan"
    )
    read_available = reader.read_available_records
    read_one = reader.read_record
    pieces_for = StartKeyCache(spec, names).pieces_for
    add = former.bulk_adder()
    join = b"".join

    # Per-open-element stacks.  norm/enc hold the *cumulative* path of
    # the open element (parent path + own component), so closing an
    # element never re-derives ancestors.
    norm_stack: list[bytes] = [b""]
    enc_stack: list[bytes] = [b""]
    ta_stack: list[bytes] = []
    text_stack: list = []
    next_pos = 0
    records = 0

    while True:
        # Drain the buffered block in one batched parse; the record that
        # needs the next block goes through read_record so the block
        # load fires at the identical pull index (see record_puller).
        chunk = read_available()
        if not chunk:
            record = read_one()
            if record is None:
                break
            chunk = (record,)
        for record in chunk:
            token_type = record[0]
            if token_type == TYPE_START:
                if record[1]:
                    # Annotated start (rare outside compaction): decode, then
                    # re-encode the bare tag+attrs the record layout needs.
                    token = document.codec.decode(record)
                    tag_attrs = encode_tag_attrs(token.tag, token.attrs, names)
                else:
                    tag_attrs = record[2:]
                pos = next_pos
                next_pos += 1
                norm_atom, enc_atom, _name = pieces_for(tag_attrs)
                if pos < 0x80:
                    pos_varint = _VARINT1[pos]
                else:
                    value = pos
                    encoded = bytearray()
                    while value >= 0x80:
                        encoded.append(value & 0x7F | 0x80)
                        value >>= 7
                    encoded.append(value)
                    pos_varint = bytes(encoded)
                norm_stack.append(
                    norm_stack[-1] + norm_atom + pos.to_bytes(8, "big")
                )
                enc_stack.append(enc_stack[-1] + enc_atom + pos_varint)
                ta_stack.append(tag_attrs)
                text_stack.append(None)
            elif token_type == TYPE_END:
                if not ta_stack:
                    raise CodecError("unbalanced end tag during fused scan")
                tag_attrs = ta_stack.pop()
                text_frame = _text_frame(text_stack.pop())
                norm = norm_stack.pop()
                enc = enc_stack.pop()
                depth = len(ta_stack) + 1
                add(
                    norm,
                    join(
                        (_element_head(depth), enc, tag_attrs, text_frame)
                    ),
                )
                records += 1
            elif token_type == TYPE_TEXT:
                if record[1]:
                    token = document.codec.decode(record)
                    frame = _frame_string(token.text)
                else:
                    frame = record[2:]
                if text_stack:
                    text_stack[-1] = _with_frame(text_stack[-1], frame)
            elif token_type == TYPE_POINTER:
                # Scalar scan rejects pointers too (KeyEvaluator.annotate).
                raise SortSpecError(
                    "unexpected run pointer in a document scan"
                )
            else:
                raise CodecError(f"unknown token type byte {token_type}")
    if ta_stack:
        raise CodecError("unbalanced event stream during fused scan")
    device.stats.record_tokens(records)
    return True


def _form_runs_compact(document, spec, former, device, names) -> bool:
    """Fused scan of an end-tag-eliminated document into run formation.

    The compacted twin of the plain loop in :func:`form_runs_columnar`:
    there are no stored end tags, so element closes are synthesized from
    level transitions with ``restore_end_tags``' exact rules (a start or
    pointer at level ``l`` closes opens at levels ``>= l``; a text at
    level ``l`` closes opens deeper than ``l``; end of stream closes
    everything).  Emission order, record bytes, and token charges match
    the ``restore_end_tags -> annotate -> records -> encode`` pipeline.
    """
    names_coded = names is not None
    reader = document.store.open_reader(
        document.handle, category="input_scan"
    )
    read_available = reader.read_available_records
    read_one = reader.read_record
    pieces_for = StartKeyCache(spec, names).pieces_for
    add = former.bulk_adder()
    join = b"".join

    norm_stack: list[bytes] = [b""]
    enc_stack: list[bytes] = [b""]
    ta_stack: list[bytes] = []
    text_stack: list = []
    open_levels: list[int] = []
    next_pos = 0
    records = 0

    def close_top() -> None:
        nonlocal records
        tag_attrs = ta_stack.pop()
        text_frame = _text_frame(text_stack.pop())
        depth = len(ta_stack) + 1
        norm = norm_stack.pop()
        enc = enc_stack.pop()
        add(norm, join((_element_head(depth), enc, tag_attrs, text_frame)))
        open_levels.pop()
        records += 1

    while True:
        chunk = read_available()
        if not chunk:
            record = read_one()
            if record is None:
                break
            chunk = (record,)
        for record in chunk:
            token_type = record[0]
            if token_type == TYPE_START:
                flags = record[1]
                if flags == 4:  # level-annotated start, the stored form
                    end = _skip_tag_attrs(record, 2, names_coded)
                    tag_attrs = record[2:end]
                    level, _ = read_varint_fast(record, end)
                else:
                    token = document.codec.decode(record)
                    if token.level is None:
                        raise CodecError(
                            "compacted stream contains a start without a level"
                        )
                    tag_attrs = encode_tag_attrs(
                        token.tag, token.attrs, names
                    )
                    level = token.level
                while open_levels and open_levels[-1] >= level:
                    close_top()
                pos = next_pos
                next_pos += 1
                norm_atom, enc_atom, _name = pieces_for(tag_attrs)
                if pos < 0x80:
                    pos_varint = _VARINT1[pos]
                else:
                    value = pos
                    encoded = bytearray()
                    while value >= 0x80:
                        encoded.append(value & 0x7F | 0x80)
                        value >>= 7
                    encoded.append(value)
                    pos_varint = bytes(encoded)
                norm_stack.append(
                    norm_stack[-1] + norm_atom + pos.to_bytes(8, "big")
                )
                enc_stack.append(enc_stack[-1] + enc_atom + pos_varint)
                ta_stack.append(tag_attrs)
                text_stack.append(None)
                open_levels.append(level)
            elif token_type == TYPE_TEXT:
                if record[1] & 4:
                    end = _skip_frame(record, 2)
                    frame = record[2:end]
                    level, _ = read_varint_fast(record, end)
                    while open_levels and open_levels[-1] > level:
                        close_top()
                else:
                    frame = record[2:]
                if text_stack:
                    text_stack[-1] = _with_frame(text_stack[-1], frame)
            elif token_type == TYPE_END:
                raise CodecError(
                    "compacted stream already contains end tags"
                )
            elif token_type == TYPE_POINTER:
                raise SortSpecError(
                    "unexpected run pointer in a document scan"
                )
            else:
                raise CodecError(f"unknown token type byte {token_type}")
    while open_levels:
        close_top()
    device.stats.record_tokens(records)
    return True


def _frame_payload(frame: bytes) -> bytes:
    """Strip the varint length header of a string frame."""
    _, pos = read_varint_fast(frame, 0)
    return frame[pos:]


def _frame_string(text: str) -> bytes:
    encoded = text.encode("utf-8")
    return encode_varint(len(encoded)) + encoded


def _with_frame(pending, frame: bytes):
    """An element's collected text frames (None / one frame / a list of
    frames) with ``frame`` appended."""
    if pending is None:
        return frame
    if type(pending) is list:
        pending.append(frame)
        return pending
    return [pending, frame]


def _text_frame(pending) -> bytes:
    """The one string frame of an element's collected text frames."""
    if pending is None:
        return b"\x00"
    if type(pending) is list:
        joined = b"".join([_frame_payload(frame) for frame in pending])
        return encode_varint(len(joined)) + joined
    return pending


# -- fused internal subtree sorts ----------------------------------------------


class _RawNode:
    """One element (or collapsed pointer) of a subtree, from raw records.

    No token is materialized: ``tag_attrs`` keeps the record's encoded tag+attributes slice
    verbatim (None for pointers), ``body`` keeps a pointer's
    run_id/element_count/payload_bytes varint slice (None for elements),
    ``atom`` the encoded key atom slice (None = missing), and ``texts``
    collects encoded string frames (None / one frame / list of frames).
    """

    __slots__ = ("tag_attrs", "body", "texts", "children", "atom", "pos")

    def __init__(self, tag_attrs, body, atom, pos):
        self.tag_attrs = tag_attrs
        self.body = body
        self.texts = None
        self.children: list[_RawNode] = []
        self.atom = atom
        self.pos = pos


def _attach_raw_text(node: _RawNode, frame: bytes) -> None:
    node.texts = _with_frame(node.texts, frame)


def _attach_raw_node(node, root, stack):
    """Attach a parsed node to its parent, else make it the root; a
    second root is an error."""
    if stack:
        stack[-1].children.append(node)
        return root
    if root is None:
        return node
    raise CodecError("subtree tokens have two roots")


def _raw_pointer(record: bytes) -> tuple[_RawNode, int]:
    """(_RawNode, element_count) of an encoded RunPointer record."""
    flags = record[1]
    pos = _skip_varint(record, 2)  # run_id
    count, pos = read_varint_fast(record, pos)  # element_count
    pos = _skip_varint(record, pos)  # payload_bytes
    body = record[2:pos]
    atom = None
    position = 0
    if flags & 1:
        end = _skip_atom(record, pos)
        atom = record[pos:end]
        pos = end
    if flags & 2:
        position, pos = read_varint_fast(record, pos)
    return _RawNode(None, body, atom, position), count


def _parse_subtree_plain(
    records: list[bytes], names_coded: bool
) -> tuple[_RawNode, int, int]:
    """(root, units, real elements) of a plain-mode record subtree."""
    root: _RawNode | None = None
    stack: list[_RawNode] = []
    units = 0
    real = 0
    for record in records:
        token_type = record[0]
        if token_type == TYPE_START:
            flags = record[1]
            end = _skip_tag_attrs(record, 2, names_coded)
            tag_attrs = record[2:end]
            atom = None
            position = 0
            if flags & 1:
                stop = _skip_atom(record, end)
                atom = record[end:stop]
                end = stop
            if flags & 2:
                position, end = read_varint_fast(record, end)
            node = _RawNode(tag_attrs, None, atom, position)
            root = _attach_raw_node(node, root, stack)
            stack.append(node)
            units += 1
            real += 1
        elif token_type == TYPE_END:
            if not stack:
                raise CodecError("subtree tokens are unbalanced")
            node = stack.pop()
            flags = record[1]
            end = _name_field_end(record, 2, names_coded)
            # End tags may carry the element's key/pos (subtree-evaluated
            # criteria); they override the start's.
            if flags & 1:
                stop = _skip_atom(record, end)
                node.atom = record[end:stop]
                end = stop
            if flags & 2:
                node.pos, end = read_varint_fast(record, end)
        elif token_type == TYPE_TEXT:
            if stack:
                flags = record[1]
                if flags & 4:
                    _attach_raw_text(
                        stack[-1], record[2 : _skip_frame(record, 2)]
                    )
                else:
                    _attach_raw_text(stack[-1], record[2:])
        elif token_type == TYPE_POINTER:
            node, count = _raw_pointer(record)
            root = _attach_raw_node(node, root, stack)
            units += 1
            real += count
        else:
            raise CodecError(f"unknown token type byte {token_type}")
    if stack:
        raise CodecError("subtree tokens are unbalanced")
    if root is None:
        raise CodecError("subtree tokens contain no element")
    return root, units, real


def _parse_subtree_compact(
    records: list[bytes], names_coded: bool
) -> tuple[_RawNode, int, int]:
    """(root, units, real elements) of a compacted-mode record subtree."""
    root: _RawNode | None = None
    stack: list[_RawNode] = []
    levels: list[int] = []
    units = 0
    real = 0
    for record in records:
        token_type = record[0]
        if token_type == TYPE_TEXT:
            flags = record[1]
            if flags & 4:
                end = _skip_frame(record, 2)
                frame = record[2:end]
                level, _ = read_varint_fast(record, end)
                while levels and levels[-1] > level:
                    levels.pop()
                    stack.pop()
            else:
                frame = record[2:]
            if stack:
                _attach_raw_text(stack[-1], frame)
            continue
        if token_type == TYPE_START:
            flags = record[1]
            end = _skip_tag_attrs(record, 2, names_coded)
            tag_attrs = record[2:end]
            atom = None
            position = 0
            if flags & 1:
                stop = _skip_atom(record, end)
                atom = record[end:stop]
                end = stop
            if flags & 2:
                position, end = read_varint_fast(record, end)
            if not flags & 4:
                raise CodecError("compacted token without level")
            level, _ = read_varint_fast(record, end)
            while levels and levels[-1] >= level:
                levels.pop()
                stack.pop()
            node = _RawNode(tag_attrs, None, atom, position)
            root = _attach_raw_node(node, root, stack)
            stack.append(node)
            levels.append(level)
            units += 1
            real += 1
        elif token_type == TYPE_POINTER:
            level = record_level(record, names_coded)
            if level is None:
                raise CodecError("compacted token without level")
            node, count = _raw_pointer(record)
            while levels and levels[-1] >= level:
                levels.pop()
                stack.pop()
            root = _attach_raw_node(node, root, stack)
            units += 1
            real += count
        else:
            raise CodecError(
                f"unexpected token in compact subtree records: "
                f"type byte {token_type}"
            )
    if root is None:
        raise CodecError("subtree tokens contain no element")
    return root, units, real


def sort_raw_tree(
    root: _RawNode,
    sort_levels: int | None,
    stats,
    counted: bool = False,
) -> None:
    """Sort every sibling list of a raw-record subtree, batched.

    One DFS gathers every sibling group to sort (``n > 1``, level within
    ``sort_levels``), group keys are the engine-normalized ``atom +
    8-byte position`` bytes (order- and equality-faithful to the
    ``(key, pos)`` tuple compare), and :func:`sort_sibling_groups`
    orders and charges them all.
    """
    groups: list[list[_RawNode]] = []
    group_keys: list[list[bytes]] = []
    memo: dict[bytes, bytes] = {}
    pack_pos = _U64.pack
    work: list[tuple[_RawNode, int]] = [(root, 1)]
    while work:
        node, level = work.pop()
        children = node.children
        if (sort_levels is None or level <= sort_levels) and len(children) > 1:
            keys = []
            append = keys.append
            for child in children:
                atom = child.atom
                if atom is None:
                    norm = b"\x00"
                else:
                    norm = memo.get(atom)
                    if norm is None:
                        norm, _ = _normalize_encoded_atom(atom, 0)
                        memo[atom] = norm
                append(norm + pack_pos(child.pos))
            groups.append(children)
            group_keys.append(keys)
        for child in children:
            if child.body is None:  # pointers are leaves
                work.append((child, level + 1))
    sort_sibling_groups(groups, group_keys, stats, counted)


def _serialize_raw_tree(
    root: _RawNode, base_level: int, compact: bool, names_coded: bool
) -> list[bytes]:
    """Encoded run records of a sorted raw subtree (annotations stripped).

    Byte-for-byte the encoding of the run's tokens: they carry no keys
    or positions; starts/texts/pointers carry
    levels only in compacted mode; plain mode appends end tags.
    """
    out: list[bytes] = []
    append = out.append
    level_tails: dict[int, bytes] = {}
    work: list = [(root, base_level)]
    while work:
        item = work.pop()
        if type(item) is bytes:  # pre-built end record
            append(item)
            continue
        node, level = item
        if compact:
            tail = level_tails.get(level)
            if tail is None:
                tail = encode_varint(level)
                level_tails[level] = tail
        if node.body is not None:  # pointer
            if compact:
                append(b"\x04\x04" + node.body + tail)
            else:
                append(b"\x04\x00" + node.body)
            continue
        tag_attrs = node.tag_attrs
        if compact:
            append(b"\x01\x04" + tag_attrs + tail)
        else:
            append(b"\x01\x00" + tag_attrs)
        texts = node.texts
        if texts is not None:
            frame = _text_frame(texts)
            if compact:
                append(b"\x02\x04" + frame + tail)
            else:
                append(b"\x02\x00" + frame)
        if not compact:
            work.append(
                b"\x03\x00" + tag_attrs[: _name_field_end(tag_attrs, 0, names_coded)]
            )
        children = node.children
        if children:
            next_level = level + 1
            for child in reversed(children):
                work.append((child, next_level))
    return out


def subtree_root_summary(
    records: list[bytes], compact: bool, names_coded: bool
) -> tuple[bytes | None, int]:
    """(encoded root key atom or None, root position) of a subtree.

    The key the run pointer of a sorted subtree carries: the root's start
    annotations, falling back - in plain mode, when the start's key is
    missing - to the key/pos the final end tag carries (subtree-evaluated
    criteria).
    """
    first = records[0]
    if first[0] != TYPE_START and first[0] != TYPE_POINTER:
        raise CodecError("subtree records do not begin with an element")
    flags = first[1]
    if first[0] == TYPE_POINTER:
        pos = _skip_varint(first, 2)
        pos = _skip_varint(first, pos)
        pos = _skip_varint(first, pos)
    else:
        pos = _skip_tag_attrs(first, 2, names_coded)
    atom = None
    position = 0
    if flags & 1:
        end = _skip_atom(first, pos)
        atom = first[pos:end]
        pos = end
    if flags & 2:
        position, pos = read_varint_fast(first, pos)
    if not compact and (atom is None or atom[0] == 0):
        last = records[-1]
        if last[0] == TYPE_END and last[1] & 1:
            lpos = _name_field_end(last, 2, names_coded)
            lend = _skip_atom(last, lpos)
            atom = last[lpos:lend]
            if last[1] & 2:
                position, _ = read_varint_fast(last, lend)
    return atom, position


def sort_subtree_records(
    records: list[bytes],
    compact: bool,
    names_coded: bool,
    base_level: int,
    sort_levels: int | None,
    stats,
    counted: bool = False,
) -> tuple[list[bytes], int, int]:
    """Fused internal subtree sort over raw encoded data-stack records.

    No token is decoded: records are parsed into a raw node tree by
    field offsets, sibling groups are ordered with one batched
    argsort (:func:`sort_raw_tree`), and output records are spliced from
    the input's own encoded slices.  Returns ``(out_records, units,
    real_elements)``; output bytes, order, and the comparison charge are
    identical to sorting the decoded token tree (``counted=True`` replays
    the counted comparison sequence exactly - see
    :func:`sort_sibling_groups`).
    """
    if compact:
        root, units, real = _parse_subtree_compact(records, names_coded)
    else:
        root, units, real = _parse_subtree_plain(records, names_coded)
    sort_raw_tree(root, sort_levels, stats, counted=counted)
    out = _serialize_raw_tree(root, base_level, compact, names_coded)
    return out, units, real


# -- fused external subtree sorts ---------------------------------------------


def _end_tag_annotations(
    records: list[bytes], names_coded: bool
) -> dict[int, tuple[bytes | None, int | None]]:
    """Keys that plain-mode end tags carry for under-annotated starts.

    Maps the index of every start record lacking its key or position to
    the ``(encoded atom or None, position or None)`` of its end tag -
    where the document scan puts subtree-evaluated keys.  A start's path
    component is needed while its children are still open, so this
    pre-pass runs before key-path records are built.
    """
    fixes: dict[int, tuple[bytes | None, int | None]] = {}
    open_starts: list[int] = []
    for index, record in enumerate(records):
        token_type = record[0]
        if token_type == TYPE_START:
            open_starts.append(index)
        elif token_type == TYPE_END:
            if not open_starts:
                raise CodecError("subtree tokens are unbalanced")
            start = open_starts.pop()
            if records[start][1] & 3 == 3:
                continue
            flags = record[1]
            pos = _name_field_end(record, 2, names_coded)
            atom = position = None
            if flags & 1:
                end = _skip_atom(record, pos)
                atom = record[pos:end]
                pos = end
            if flags & 2:
                position, pos = read_varint_fast(record, pos)
            fixes[start] = (atom, position)
    return fixes


def form_subtree_runs(
    records: list[bytes],
    compact: bool,
    names_coded: bool,
    sort_levels: int | None,
    add,
    charge_tokens,
) -> tuple[int, int]:
    """Feed a popped subtree's key-path records into run formation.

    One pass over the raw data-stack records replaces ``decode ->
    restore_end_tags / move end-tag keys onto starts -> mask keys below
    sort_levels -> records_from_annotated_events -> encode_record``:
    a path component is the start's own encoded ``atom + position``
    slice, run-formation keys are engine-normalized ``bytes``
    (:func:`fast_path_key` of the record), texts are joined as frames,
    and a pointer contributes its run_id/count/payload body verbatim.
    Paths are relative to the subtree root (depth 1).

    Emission order, record bytes and token charges match the token
    pipeline: an element's record is added when the element closes, a
    pointer's where it appears, and ``charge_tokens(1)`` precedes every
    ``add`` (a device fault inside ``add`` leaves the same charge).

    * Plain mode: keys evaluated at end tags (by the document scan) fill in
      starts that lack a key or position, found by one pre-pass.
    * Compacted mode: elements close by ``restore_end_tags``' level rules.
    * ``sort_levels``: the child lists of relative levels ``1 ..
      sort_levels`` are sorted.  A component orders the child list
      above it, so only depths ``2 .. sort_levels + 1`` keep their key;
      the others (the root's, which orders nothing, and everything
      deeper) carry the missing atom ``b"\\x00"``, and their position
      tie-break keeps document order.

    Returns ``(units, real elements)`` of the subtree.  The per-byte
    loops are unchecked; truncated records raise ``IndexError`` (the
    caller converts it to :class:`~repro.errors.CodecError`).
    """
    join = b"".join
    memo: dict[bytes, bytes] = {}
    fixes = None
    norm_stack: list[bytes] = [b""]
    enc_stack: list[bytes] = [b""]
    ta_stack: list[bytes] = []
    text_stack: list = []
    open_levels: list[int] = []
    units = 0
    real = 0

    def close_top() -> None:
        tag_attrs = ta_stack.pop()
        text_frame = _text_frame(text_stack.pop())
        head = _element_head(len(ta_stack) + 1)
        charge_tokens(1)
        record = join((head, enc_stack.pop(), tag_attrs, text_frame))
        add(norm_stack.pop(), record)
        if compact:
            open_levels.pop()

    for index, record in enumerate(records):
        token_type = record[0]
        if token_type == TYPE_TEXT:
            if record[1] & 4:
                end = _skip_frame(record, 2)
                frame = record[2:end]
                if compact:
                    level, _ = read_varint_fast(record, end)
                    while open_levels and open_levels[-1] > level:
                        close_top()
            else:
                frame = record[2:]
            if text_stack:
                text_stack[-1] = _with_frame(text_stack[-1], frame)
            continue
        if token_type == TYPE_END:
            if compact:
                raise CodecError("compacted stream already contains end tags")
            if not ta_stack:
                raise CodecError("subtree tokens are unbalanced")
            close_top()
            continue
        flags = record[1]
        if token_type == TYPE_START:
            body = None
            end = _skip_tag_attrs(record, 2, names_coded)
            tag_attrs = record[2:end]
        elif token_type == TYPE_POINTER:
            end = _skip_varint(record, 2)  # run_id
            count, end = read_varint_fast(record, end)  # element_count
            end = _skip_varint(record, end)  # payload_bytes
            body = record[2:end]
        else:
            raise CodecError(f"unknown token type byte {token_type}")
        # Annotation fields: key atom, position, level (each by flag).
        # With both key and position present, ``record[comp_start:end]``
        # is the encoded path component, unless a fix-up or mask below
        # replaces the atom or position (``spliced = False``).
        comp_start = end
        atom = None
        if flags & 1:
            end = _skip_atom(record, end)
            atom = record[comp_start:end]
        position = None
        if flags & 2:
            position, end = read_varint_fast(record, end)
        spliced = True
        if compact:
            if not flags & 4:
                raise CodecError(
                    "compacted stream contains a start without a level"
                )
            level, _ = read_varint_fast(record, end)
            while open_levels and open_levels[-1] >= level:
                close_top()
        elif flags & 3 != 3 and body is None:
            if fixes is None:
                fixes = _end_tag_annotations(records, names_coded)
            fix = fixes.get(index)
            if fix is not None:
                if fix[0] is not None:
                    atom = fix[0]
                if fix[1] is not None:
                    position = fix[1]
            spliced = False
        depth = len(ta_stack) + 1
        if sort_levels is not None and (
            depth == 1 or depth > sort_levels + 1
        ):
            atom = b"\x00"
            spliced = False
        if atom is None or position is None:
            if body is not None:
                raise CodecError("run pointer without key annotations")
            raise SortSpecError(
                "key-path records need a key and position on every "
                "element of the subtree"
            )
        norm_atom = memo.get(atom)
        if norm_atom is None:
            norm_atom, _ = _normalize_encoded_atom(atom, 0)
            memo[atom] = norm_atom
        if spliced:
            component = record[comp_start:end]
        else:
            component = atom + (
                _VARINT1[position] if position < 0x80
                else encode_varint(position)
            )
        norm = norm_stack[-1] + norm_atom + position.to_bytes(8, "big")
        enc = enc_stack[-1] + component
        units += 1
        if body is not None:
            real += count
            charge_tokens(1)
            add(norm, join((b"\x02" + encode_varint(depth), enc, body)))
            continue
        real += 1
        norm_stack.append(norm)
        enc_stack.append(enc)
        ta_stack.append(tag_attrs)
        text_stack.append(None)
        if compact:
            open_levels.append(level)
    if compact:
        while ta_stack:
            close_top()
    elif ta_stack:
        raise CodecError("subtree tokens are unbalanced")
    return units, real


# -- fused output: sorted records -> stored output tokens ---------------------


def emit_output_columnar(
    stream: Iterable[bytes],
    writer,
    device,
    strip_embedded: bool = False,
    chunk_records: int = 0,
    names_coded: bool = False,
    emit_ends: bool = True,
    base_level: int = 1,
    levels: bool = True,
    charge_tokens: bool = True,
) -> int:
    """Fused output phase: path-sorted records back to stored tokens.

    Turns path-sorted key-path records back into the stored token stream
    by splicing: the output start/text/end/pointer token encodings are
    byte slices of the record plus constant headers, so no token objects,
    string decodes, or re-encodes happen.  Token counts and the emitted
    byte stream are identical to ``tokens_from_sorted_records`` +
    ``codec.encode``.  Returns the number of tokens written.

    ``names_coded`` switches tag/attribute-name parsing to dictionary id
    varints (the spliced slices stay dialect-consistent end to end);
    ``emit_ends=False`` is end-tag-eliminated output - no end records,
    depth tracking only (``tokens_from_sorted_records`` with
    ``emit_end_tags=False``).  Depth-1 records sit at ``base_level``;
    ``levels`` puts the level on starts and pointers (``False`` is the
    plain run dialect of a NEXSORT subtree sort).  Texts never carry one.

    ``chunk_records > 0`` additionally groups writer calls (safe only when
    no buffer pool or recovery context is attached - grouping reorders
    writes relative to the final merge's reads, which a shared pool would
    observe); 0 writes one record's tokens at a time, preserving the
    exact global device-access interleaving.  ``charge_tokens=False``
    leaves the token charge to the caller (the returned count).
    """
    stats = device.stats
    open_tags: list[bytes] = []
    out: list[bytes] = []
    append = out.append
    pending_tokens = 0
    written = 0
    start_head = b"\x01\x04" if levels else b"\x01\x00"
    pointer_head = b"\x04\x04" if levels else b"\x04\x00"

    def flush() -> None:
        nonlocal pending_tokens, written
        if out:
            # write_records frames the payloads synchronously, so the
            # list can be reused (keeps `append` a stable bound method).
            writer.write_records(out)
            if charge_tokens:
                stats.record_tokens(pending_tokens)
            written += pending_tokens
            out.clear()
            pending_tokens = 0

    level_tails: dict[int, bytes] = {}
    for record in stream:
        if strip_embedded:
            length = record[0]
            if length < 0x80:
                record = record[1 + length :]
            else:
                length, pos = read_varint_fast(record, 0)
                record = record[pos + length :]
        record_kind = record[0]
        if record_kind != 1 and record_kind != 2:
            raise CodecError(f"unknown key-path record kind {record_kind}")
        depth = record[1]
        pos = 2
        if depth >= 0x80:
            depth, pos = read_varint_fast(record, 1)
        if depth == 0:
            raise CodecError("key-path record with empty path")
        # Skip the (atom, position) path components; varints inlined -
        # this loop runs once per output element.
        for _ in range(depth):
            kind = record[pos]
            pos += 1
            if kind == 2:
                length = record[pos]
                pos += 1
                if length >= 0x80:
                    length, pos = read_varint_fast(record, pos - 1)
                pos += length
            elif kind == 1:
                pos += 8
            elif kind != 0:
                raise CodecError(f"unknown key atom kind {kind}")
            while record[pos] >= 0x80:
                pos += 1
            pos += 1
        while len(open_tags) >= depth:
            tag = open_tags.pop()
            if emit_ends:
                append(b"\x03\x00" + tag)
                pending_tokens += 1
        if len(open_tags) != depth - 1:
            raise CodecError(
                "key-path records out of order: jumped from depth "
                f"{len(open_tags)} to {depth}"
            )
        # Output starts and pointers carry their absolute level, exactly
        # as tokens_from_sorted_records emits (base level 1 -> level ==
        # depth).
        if levels:
            tail = level_tails.get(depth)
            if tail is None:
                tail = encode_varint(base_level + depth - 1)
                level_tails[depth] = tail
        else:
            tail = b""
        if record_kind == 2:  # pointer: the run_id/count/payload body
            append(pointer_head + record[pos:] + tail)
            pending_tokens += 1
            if not chunk_records or len(out) >= chunk_records:
                flush()
            continue
        tag_start = pos
        if names_coded:
            while record[pos] >= 0x80:  # tag id varint
                pos += 1
            pos += 1
            tag_frame = record[tag_start:pos]
            count = record[pos]
            pos += 1
            if count >= 0x80:
                count, pos = read_varint_fast(record, pos - 1)
            for _ in range(count):
                while record[pos] >= 0x80:  # attr name id varint
                    pos += 1
                pos += 1
                length = record[pos]  # attr value frame
                pos += 1
                if length >= 0x80:
                    length, pos = read_varint_fast(record, pos - 1)
                pos += length
        else:
            length = record[pos]
            pos += 1
            if length >= 0x80:
                length, pos = read_varint_fast(record, pos - 1)
            pos += length
            tag_frame = record[tag_start:pos]
            count = record[pos]
            pos += 1
            if count >= 0x80:
                count, pos = read_varint_fast(record, pos - 1)
            for _ in range(2 * count):
                length = record[pos]
                pos += 1
                if length >= 0x80:
                    length, pos = read_varint_fast(record, pos - 1)
                pos += length
        tag_attrs = record[tag_start:pos]
        text_frame = record[pos:]
        append(start_head + tag_attrs + tail)
        pending_tokens += 1
        if text_frame != b"\x00":
            append(b"\x02\x00" + text_frame)
            pending_tokens += 1
        open_tags.append(tag_frame)

        if chunk_records:
            if len(out) >= chunk_records:
                flush()
        else:
            flush()
    while open_tags:
        tag = open_tags.pop()
        if emit_ends:
            append(b"\x03\x00" + tag)
            pending_tokens += 1
    flush()
    return written
