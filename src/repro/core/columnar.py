"""Byte-record kernels: the record hot path of every sorter.

Both sorters move encoded records, not token objects, through scan ->
key-evaluate -> form-runs -> merge -> output.  Keys are engine-normalized
``bytes`` (order- and equality-faithful, :mod:`repro.merge.engine`), records
are spliced from the stored encodings, and sorts are batch argsorts.  The
pieces:

* :func:`argsort_normalized` - stable argsort of normalized keys, exactly
  the order - including stability - of ``list.sort`` over the same keys;
* :func:`fast_path_key` - normalized key bytes straight from an encoded
  key-path record, parsing only the path prefix (merge passes never
  decode tags/attributes/text);
* :func:`record_puller` / :func:`keyed_puller` - block-drain batched run
  reading for the heap and loser-tree merge kernels;
* :func:`replay_merge` - a heap merge pass replayed from the runs' key
  sidecars, reading, freeing and charging where the heap loop does;
* :func:`form_subtree_runs` - the one key-path formation (paper Table
  1): stored records spliced into key-path records for run formation,
  from merge sort's document scan (a buffered block at a time) and from
  NEXSORT's external subtree sorts (a popped subtree), covering plain,
  dictionary-coded, and end-tag-eliminated (level-annotated) storage;
* :func:`emit_output_columnar` - sorted key-path records spliced back
  into stored tokens, for merge sort's output and NEXSORT's subtree runs;
* :func:`argsort_groups` / :func:`sort_subtree_records` - NEXSORT's
  in-memory subtree sorts as batch kernels: sibling groups are gathered
  with their normalized keys and each ordered by a stable argsort,
  and a popped subtree's raw data-stack records are parsed, sorted, and
  re-serialized by byte splicing without ever materializing tokens.

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
import sys
from itertools import chain, repeat
from math import ceil, log2
from typing import Callable, Iterable

from ..errors import CodecError, RunError, SortSpecError
from ..merge.engine import (
    _normalize_atom,
    argsort_counted,
    dense_ranks,
    normalize_number,
)
from ..xml.codec import (
    TYPE_END,
    TYPE_POINTER,
    TYPE_START,
    TYPE_TEXT,
    encode_key_atom,
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
#: A run record's length header (:mod:`repro.io.runs` framing).
_FRAME_LEN = struct.Struct("<I")

#: Keep the start-key memo bounded on high-cardinality documents.
_MEMO_LIMIT = 1 << 16

#: Single-byte varints, indexed by value.
_VARINT1 = [bytes([value]) for value in range(128)]

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
    passes call per record per pass.  Works for element and pointer
    records, with or without a name dictionary (path atoms are
    dictionary-independent).  Varint reads are inlined: this
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


# -- the argsort --------------------------------------------------------------


def argsort_normalized(keys: list[bytes]) -> list[int]:
    """Stable argsort of normalized-key bytes.

    The result equals the order a stable ``list.sort`` of the keys
    produces, which is what keeps run contents bit-identical to the
    paper's record-at-a-time sort.
    """
    return sorted(range(len(keys)), key=keys.__getitem__)


def argsort_groups(groups: list[list[bytes]]) -> list[list[int]]:
    """Per-group stable argsorts: ``[argsort_normalized(g) for g in groups]``."""
    return [sorted(range(len(keys)), key=keys.__getitem__) for keys in groups]


def sort_sibling_groups(
    groups: list[list],
    group_keys: list[list[bytes]],
    stats,
    counted: bool = False,
) -> None:
    """Reorder every sibling list in place by its normalized keys.

    ``group_keys[i]`` holds one order- and equality-faithful key per
    member of ``groups[i]``; the groups are ordered by
    :func:`argsort_groups`.  The analytic ``n * ceil(log2 n)``
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

    :func:`fast_path_key`, the key function the columnar sorter installs,
    has a dedicated batch kernel; anything else (custom key functions
    from NEXSORT's degeneration mode) is wrapped, which still amortizes
    the pull machinery even though the key calls stay element-wise.
    """
    if key_of is fast_path_key:
        return batch_path_keys

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
    in for ``key_of`` when that function *is* :func:`fast_path_key` -
    custom key functions (NEXSORT's degeneration merges) have different
    key semantics and must be evaluated.
    """
    if key_of is not fast_path_key:
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


def _replay_order(sidecars):
    """(concatenated keys, merged order, run index per concatenated key).

    A k-way merge of sorted runs with the heap's ``(key, run index)``
    tie-break is exactly a *stable sort* of the runs' concatenation in
    run order.  The concatenation is a sequence of ``w`` presorted
    ascending runs - timsort's best case: it detects each run and
    galloping-merges them in near-linear memcmp comparisons.
    """
    all_keys: list[bytes] = []
    run_ids: list[int] = []
    for index, keys in enumerate(sidecars):
        all_keys.extend(keys)
        run_ids.extend([index] * len(keys))
    order = sorted(range(len(all_keys)), key=all_keys.__getitem__)
    return all_keys, order, run_ids


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

    Indistinguishable from the heap merge loop on every counter, the
    simulated clock included:

    * records are pulled from each run strictly sequentially, and the
      *global* interleaving of pulls across runs is the merged order -
      identical to the heap's, so the shared merge-read stream sees the
      same access sequence (same seq/random judgments, same pool
      evictions, same fault trigger points); each run's first block
      loads in run order before the first record, and its next block
      load fires right after its current record is emitted, exactly
      when the heap would refill;
    * runs are freed at the pull that discovers their exhaustion, never
      at init, matching the heap (empty runs are never freed by either);
    * the analytic ``ceil(log2 w)`` comparisons are charged before each
      record is yielded, where the heap loop charges them, so a device
      that reads the CPU clock at every access (a striped device's stall
      time) sees the same clock at every access.
    """
    all_keys, order, run_ids = _replay_order(sidecars)
    # Inlined drain state per run: the head record, its block's parsed
    # records, and the index of the next one.
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
    stats = store.device.stats
    charge = stats.record_merge_comparisons
    free = store.free
    for j in order:
        r = run_ids[j]
        record = heads[r]
        if record is None:
            raise RunError("merge key sidecar out of sync with run contents")
        if comparisons_per_record:
            charge(comparisons_per_record)
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
    stats.record_tokens(sum(run.record_count for run in runs))


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
    the encoded name field (an end-tag record's name is exactly the
    tag+attrs prefix, in either name dialect) and the element's run end
    record.  Specs whose keys are evaluated at end tags use
    :meth:`rule_pieces_for` instead (one cache serves one of the two
    methods).
    """

    __slots__ = ("spec", "names", "names_coded", "memo")

    def __init__(self, spec, names=None):
        self.spec = spec
        self.names = names
        self.names_coded = names is not None
        self.memo: dict[bytes, tuple] = {}

    def pieces_for(
        self, tag_attrs: bytes
    ) -> tuple[bytes, bytes, bytes, bytes]:
        """(normalized atom, encoded atom, name field, run end record) of
        one start: the run end record (``03 00`` and the name field) is
        what a sorted run stores for the element."""
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
            normalized_atom_bytes(atom),
            encoded_atom_bytes(atom),
            name_field,
            b"\x03\x00" + name_field,
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


def _frame_payload(frame: bytes) -> bytes:
    """Strip the varint length header of a string frame."""
    _, pos = read_varint_fast(frame, 0)
    return frame[pos:]


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


def _element_tokens(
    rest: bytes, names_coded: bool, start_head: bytes, frame_start: bool
) -> tuple[bytes, bytes | None, bytes]:
    """(start token, text token or None, end token) of an element whose
    key-path record ends in ``rest``: its tag+attributes, then its text
    frame.  The text and end tokens are framed as a run frames them
    (length header, type/flags head, body); the start token is framed
    too when ``frame_start``, else it is its head and tag+attributes,
    for the caller to append a level to.  Unchecked: a short ``rest``
    raises ``IndexError``."""
    if names_coded:
        pos = 0
        while rest[pos] >= 0x80:  # tag id varint
            pos += 1
        pos += 1
    else:
        length = rest[0]
        pos = 1
        if length >= 0x80:
            length, pos = read_varint_fast(rest, 0)
        pos += length
    tag_end = pos
    count = rest[pos]
    pos += 1
    if count >= 0x80:
        count, pos = read_varint_fast(rest, pos - 1)
    if names_coded:
        for _ in range(count):
            while rest[pos] >= 0x80:  # attr name id varint
                pos += 1
            length = rest[pos + 1]  # attr value frame
            pos += 2
            if length >= 0x80:
                length, pos = read_varint_fast(rest, pos - 1)
            pos += length
    else:
        for _ in range(count + count):
            length = rest[pos]
            pos += 1
            if length >= 0x80:
                length, pos = read_varint_fast(rest, pos - 1)
            pos += length
    start = start_head + rest[:pos]
    if frame_start:
        start = _FRAME_LEN.pack(len(start)) + start
    text_frame = rest[pos:]
    text = None
    if text_frame != b"\x00":
        text = (
            _FRAME_LEN.pack(2 + len(text_frame)) + b"\x02\x00" + text_frame
        )
    end = _FRAME_LEN.pack(2 + tag_end) + b"\x03\x00" + rest[:tag_end]
    return start, text, end


#: Readers of the record grammar that skip bounds checks: a short record
#: makes them raise ``IndexError``.
_UNCHECKED_READERS = frozenset(
    reader.__code__
    for reader in (
        read_varint_fast,
        _skip_varint,
        _skip_frame,
        _skip_tag_attrs,
        _frame_payload,
        _element_tokens,
    )
)


def raised_parsing_records(exc: BaseException, *scans) -> bool:
    """Whether ``exc`` (an ``IndexError`` or ``UnicodeDecodeError``) was
    raised parsing a stored record: in one of the ``scans``' own frames
    (unchecked indexing, a UTF-8 decode) or in an unchecked reader of the
    record grammar.  The scans convert only such an error to
    :class:`~repro.errors.CodecError`; the same error raised anywhere else
    they reach - run formation, subtree sorts, flushes - is a defect and
    keeps its type."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    return code in _UNCHECKED_READERS or any(
        code is scan.__code__ for scan in scans
    )


# -- fused internal subtree sorts ----------------------------------------------


class _RawNode:
    """One element (or collapsed pointer) of a subtree, from raw records.

    No token is materialized: ``tag_attrs`` keeps the record's encoded
    tag+attributes slice verbatim (None for pointers), ``body`` keeps a
    pointer's run_id/element_count/payload_bytes varint slice (None for
    elements), ``atom`` the encoded key atom slice (None = missing),
    ``texts`` collects encoded string frames (None / one frame / list of
    frames) and ``end`` is the element's run end record when the scan
    already had it (None: built from ``tag_attrs``).
    """

    __slots__ = (
        "tag_attrs", "body", "texts", "children", "atom", "pos", "end"
    )

    def __init__(self, tag_attrs, body, atom, pos, end=None):
        self.tag_attrs = tag_attrs
        self.body = body
        self.texts = None
        self.children: list[_RawNode] = []
        self.atom = atom
        self.pos = pos
        self.end = end


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


#: A record's fields for a pre-spliced end tag: it overrides nothing.
END_FIELDS = ()


def _parse_subtree_plain(
    records: list[bytes], names_coded: bool, fields: list | None = None
) -> tuple[_RawNode, int, int]:
    """(root, units, real elements) of a plain-mode record subtree.

    ``fields``, aligned with ``records``, holds what the document scan
    already split out of a record that never left memory: ``(tag+attrs
    end offset, encoded key atom, position, run end record)`` of an
    annotated start, or
    :data:`END_FIELDS` for an end tag that repeats its start's position.
    Records without fields (None) are parsed from their bytes.
    """
    root: _RawNode | None = None
    stack: list[_RawNode] = []
    units = 0
    real = 0
    for record, known in zip(
        records, repeat(None) if fields is None else fields
    ):
        if known is not None:
            if known:
                end, atom, position, end_record = known
                node = _RawNode(
                    record[2:end], None, atom, position, end_record
                )
                root = _attach_raw_node(node, root, stack)
                stack.append(node)
                units += 1
                real += 1
            elif stack:
                stack.pop()
            else:
                raise CodecError("subtree tokens are unbalanced")
            continue
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
            end = node.end
            if end is None:
                end = b"\x03\x00" + tag_attrs[
                    : _name_field_end(tag_attrs, 0, names_coded)
                ]
            work.append(end)
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
    fields: list | None = None,
) -> tuple[list[bytes], int, int]:
    """Fused internal subtree sort over raw encoded data-stack records.

    No token is decoded: records are parsed into a raw node tree by
    field offsets, sibling groups are ordered by stable argsorts
    (:func:`sort_raw_tree`), and output records are spliced from
    the input's own encoded slices.  Returns ``(out_records, units,
    real_elements)``; output bytes, order, and the comparison charge are
    identical to sorting the decoded token tree (``counted=True`` replays
    the counted comparison sequence exactly - see
    :func:`sort_sibling_groups`).  ``fields`` are the plain-mode
    records' per-record fields from the data stack
    (:func:`_parse_subtree_plain`); they change no output.
    """
    if compact:
        root, units, real = _parse_subtree_compact(records, names_coded)
    else:
        root, units, real = _parse_subtree_plain(records, names_coded, fields)
    sort_raw_tree(root, sort_levels, stats, counted=counted)
    out = _serialize_raw_tree(root, base_level, compact, names_coded)
    return out, units, real


# -- fused external subtree sorts ---------------------------------------------


def _end_tag_annotations(
    records: list[bytes], names_coded: bool, first: int = 0
) -> dict[int, tuple[bytes | None, int | None]]:
    """Keys that plain-mode end tags carry for under-annotated starts.

    Maps the index of every start record from ``first`` on that lacks its
    key or position to the ``(encoded atom or None, position or None)``
    of its end tag - where the document scan puts subtree-evaluated keys.
    A start's path component is needed while its children are still
    open, so this pre-pass reads ahead of the formation loop, over
    records it has not consumed yet.  End tags of elements opened before
    ``first`` are skipped: the formation loop checks the balance.
    """
    fixes: dict[int, tuple[bytes | None, int | None]] = {}
    open_starts: list[int] = []
    for index in range(first, len(records)):
        record = records[index]
        token_type = record[0]
        if token_type == TYPE_START:
            open_starts.append(index)
        elif token_type == TYPE_END:
            if not open_starts:
                continue
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


#: Heads of key-path pointer records, by depth.
_POINTER_HEADS = [b"\x02" + encode_varint(depth) for depth in range(64)]

#: Closes every open element of a compacted subtree: the record chained
#: behind its last one.  Compared by identity, so it is no ``bytes``: a
#: stored one-byte record may be the interned ``b"\x00"``.
_SUBTREE_END = bytearray(1)

#: A walked record of the document scan that does not end where its
#: flags say (a field missing, or bytes left over).
_FLAGS_MISMATCH = "stored record's fields do not match its flags"

#: A close floor no element level reaches: the record closes nothing.
_NO_CLOSE = sys.maxsize

#: Entries at which a sort's memo of record splits stops growing, and
#: stops being consulted: past it the document's elements vary too much
#: for lookups to pay.
_SPLIT_MEMO_LIMIT = 1 << 12


def form_subtree_runs(
    chunks: Iterable[list[bytes]],
    compact: bool,
    names_coded: bool,
    sort_levels: int | None,
    former,
    stats,
    start_keys: Callable[[bytes], tuple] | None = None,
) -> tuple[int, int]:
    """Feed stored records into run formation as key-path records.

    The one key-path formation of the package (paper Table 1).  One pass
    over the raw records replaces ``decode -> restore_end_tags / move
    end-tag keys onto starts -> mask keys below sort_levels ->
    records_from_annotated_events -> encode_record``: run-formation keys
    are engine-normalized ``bytes`` (:func:`fast_path_key` of the
    record), texts are joined as frames, and a pointer contributes its
    run_id/count/payload body verbatim.  Paths are relative to the first
    element (depth 1).  ``chunks`` yields lists of records; the next one
    is pulled only once the previous one is formed.  The loop *consumes*
    each chunk: an entry is set to None once it is parsed, so the raw
    records are freed while their key-path records are built.

    Two sources feed it:

    * NEXSORT's external subtree sort (``start_keys=None``) passes a
      popped subtree as one chunk.  A path component is the start's own
      encoded ``atom + position`` slice.  In plain mode, keys evaluated
      at end tags (by the document scan) fill in starts that lack a key
      or position, found by a pre-pass that reads ahead, within the
      chunk, from the first such start.  A plain start as the scan
      pushes it (key and position, no level) is walked once per
      distinct bytes before its position varint; later starts with the
      same bytes look up its tag+attributes, atom and normalized atom.
    * Merge sort's document scan passes the stored document a buffered
      block at a time, and ``start_keys`` is
      :meth:`StartKeyCache.pieces_for`: keys come from the spec,
      positions count starts in document order, and stored key and
      position annotations are skipped.  A walked start or text must
      end at its record's end, else :class:`~repro.errors.CodecError`;
      a run pointer raises :class:`~repro.errors.SortSpecError`.

    A bare start (flag byte 0) is its tag+attributes, unwalked.  In
    compacted mode elements close by ``restore_end_tags``' level rules;
    an end marker chained after the last chunk closes the rest.
    ``sort_levels``: the child lists of relative levels ``1 ..
    sort_levels`` are sorted.  A component orders the child list above
    it, so only depths ``2 .. sort_levels + 1`` keep their key; the
    others (the root's, which orders nothing, and everything deeper)
    carry the missing atom ``b"\\x00"``, and their position tie-break
    keeps document order.

    Emission order and record bytes match the token pipeline: an
    element's record is added to ``former`` (a
    :class:`~repro.merge.engine.RunFormer`) when the element closes, a
    pointer's where it appears.  Records collect while they fit in the
    former's :attr:`~repro.merge.engine.RunFormer.room`; before the add
    that flushes a run, they go over in one
    :meth:`~repro.merge.engine.RunFormer.extend`.  With ``stats``, one
    token per record is charged there too, in one charge that includes
    the flushing record, so every formation write sees the tokens one
    charge-then-add per record would have left, and a device fault
    inside that add leaves the same charge.  ``stats=None`` leaves every
    charge to the caller.

    Returns ``(units, real elements)`` formed.  The per-byte loops are
    unchecked; truncated records raise ``IndexError`` (the caller
    converts it to :class:`~repro.errors.CodecError`).
    """
    join = b"".join
    heads = _ELEMENT_HEADS
    # Normalized key atoms by encoded atom, and the fields of plain
    # starts by the bytes before their position varint.
    memo: dict[bytes, bytes] = {}
    splits: dict[bytes, tuple[bytes, bytes, bytes]] = {}
    splits_get = splits.get
    memoize = not compact and start_keys is None
    fixes = None
    next_pos = 0
    # The innermost open element: its normalized and encoded paths, its
    # tag+attributes slice and its stored level (plain mode: its depth).
    # ``opened`` holds the same four fields of each enclosing element.
    depth = 0
    norm_top = enc_top = ta_top = b""
    level_top = -1
    opened: list[tuple] = []
    texts: dict[int, object] = {}
    units = 0
    real = 0
    # Formed records not handed to the former yet, their payload bytes
    # (``room0 - room``) and their tokens.
    pairs: list[tuple[bytes, bytes]] = []
    room0 = room = former.room
    tokens = 0
    if compact:
        chunks = chain(chunks, ([_SUBTREE_END],))
    for records in chunks:
        for index, record in enumerate(records):
            records[index] = None
            token_type = record[0]
            # ``floor``: open elements whose level is at or above it close
            # before this record opens or attaches anything.
            if token_type == TYPE_START or token_type == TYPE_POINTER:
                flags = record[1]
                body = None
                head = split = None
                if flags == 3 and token_type == TYPE_START and memoize:
                    # A plain start as the scan pushes it: tag+attrs, key
                    # atom, then the position varint last.  Its bytes up to
                    # the position (``head``) recur on every element with
                    # the same tag, attributes and key; the first such start
                    # is walked, the others look their fields up.  A head
                    # that is a prefix of this record parses the same here,
                    # so a hit is exactly what the walk would find.  The
                    # varint is read backwards from the record's last byte.
                    end = len(record)
                    cut = end - 1
                    position = record[cut]
                    if position < 0x80:
                        byte = record[cut - 1]
                        while byte >= 0x80:
                            position = position << 7 | byte & 0x7F
                            cut -= 1
                            byte = record[cut - 1]
                        head = record[:cut]
                        split = splits_get(head)
                        if split is not None:
                            tag_attrs, atom, norm_atom = split
                            comp_start = cut - len(atom)
                if split is None:
                    norm_atom = None
                    if token_type == TYPE_POINTER:
                        if start_keys is not None:
                            raise SortSpecError(
                                "unexpected run pointer in a document scan"
                            )
                        # run_id, element_count, payload_bytes varints.
                        end = 2
                        while record[end] >= 0x80:
                            end += 1
                        count, end = read_varint_fast(record, end + 1)
                        while record[end] >= 0x80:
                            end += 1
                        end += 1
                        body = record[2:end]
                    elif not flags:
                        # A bare start: its tag+attributes, nothing else.
                        end = len(record)
                        tag_attrs = record[2:]
                    else:
                        # Tag and attributes: names are id varints or string
                        # frames, attribute values string frames.
                        if names_coded:
                            end = 2
                            while record[end] >= 0x80:
                                end += 1
                            end += 1
                        else:
                            end = record[2] + 3
                            if end >= 0x83:
                                length, end = read_varint_fast(record, 2)
                                end += length
                        count = record[end]
                        end += 1
                        if count:
                            if count >= 0x80:
                                count, end = read_varint_fast(record, end - 1)
                            if names_coded:
                                for _ in range(count):
                                    while record[end] >= 0x80:
                                        end += 1
                                    length = record[end + 1]
                                    end += 2
                                    if length >= 0x80:
                                        length, end = read_varint_fast(
                                            record, end - 1
                                        )
                                    end += length
                            else:
                                for _ in range(count + count):
                                    length = record[end]
                                    end += 1
                                    if length >= 0x80:
                                        length, end = read_varint_fast(
                                            record, end - 1
                                        )
                                    end += length
                        tag_attrs = record[2:end]
                    # Annotation fields: key atom, position, level (each by
                    # flag).  With both key and position present,
                    # ``record[comp_start:end]`` is the encoded path
                    # component, unless a fix-up or mask below replaces the
                    # atom or position.
                    comp_start = end
                    atom = None
                    if flags & 1:
                        kind = record[end]
                        if kind == 2:
                            end += record[end + 1] + 2
                            if record[comp_start + 1] >= 0x80:
                                length, end = read_varint_fast(
                                    record, comp_start + 1
                                )
                                end += length
                        elif kind == 1:
                            end += 9
                        elif kind:
                            raise CodecError(f"unknown key atom kind {kind}")
                        else:
                            end += 1
                        atom = record[comp_start:end]
                    if head is not None and end == cut:
                        # Too many distinct heads: stop looking them up.
                        memoize = len(splits) < _SPLIT_MEMO_LIMIT
                        norm_atom = memo.get(atom)
                        if norm_atom is None:
                            norm_atom, _ = _normalize_encoded_atom(atom, 0)
                            memo[atom] = norm_atom
                        splits[head] = (tag_attrs, atom, norm_atom)
                    position = None
                    if flags & 2:
                        position = record[end]
                        end += 1
                        if position >= 0x80:
                            byte = record[end]
                            end += 1
                            position = position & 0x7F | (byte & 0x7F) << 7
                            shift = 14
                            while byte >= 0x80:
                                byte = record[end]
                                end += 1
                                position |= (byte & 0x7F) << shift
                                shift += 7
                spliced = True
                if compact:
                    if not flags & 4:
                        raise CodecError(
                            "compacted stream contains a start without a level"
                        )
                    level = record[end]
                    if level >= 0x80:
                        level, _ = read_varint_fast(record, end)
                    floor = level
                else:
                    floor = _NO_CLOSE
                if start_keys is not None:
                    # The document scan: the key from the spec, the
                    # position in document order.
                    if flags:
                        if flags & 4:
                            end = _skip_varint(record, end)
                        if end != len(record):
                            raise CodecError(_FLAGS_MISMATCH)
                    norm_atom, atom, _name, _end = start_keys(tag_attrs)
                    position = next_pos
                    next_pos += 1
                    spliced = False
                elif flags & 3 != 3 and body is None and not compact:
                    if fixes is None:
                        records[index] = record
                        fixes = _end_tag_annotations(
                            records, names_coded, index
                        )
                        records[index] = None
                    fix = fixes.get(index)
                    if fix is not None:
                        if fix[0] is not None:
                            atom = fix[0]
                            norm_atom = None
                        if fix[1] is not None:
                            position = fix[1]
                    spliced = False
            elif token_type == TYPE_END:
                if compact:
                    raise CodecError("compacted stream already contains end tags")
                if not depth:
                    raise CodecError(
                        "unbalanced tokens: an end tag closes no element"
                    )
                floor = level_top
            elif token_type == TYPE_TEXT:
                floor = _NO_CLOSE
                if record[1] & 4:
                    end = record[2] + 3
                    if end >= 0x83:
                        length, end = read_varint_fast(record, 2)
                        end += length
                    frame = record[2:end]
                    if compact:
                        level = record[end]
                        if level >= 0x80:
                            level, _ = read_varint_fast(record, end)
                        floor = level + 1
                    if (
                        start_keys is not None
                        and _skip_varint(record, end) != len(record)
                    ):
                        raise CodecError(_FLAGS_MISMATCH)
                else:
                    frame = record[2:]
            elif record is _SUBTREE_END:
                floor = 0
            else:
                raise CodecError(f"unknown token type byte {token_type}")

            # Close every open element at or above ``floor``: its key-path
            # record is complete.
            while level_top >= floor:
                if texts and depth in texts:
                    text = _text_frame(texts.pop(depth))
                else:
                    text = b"\x00"
                formed = join(
                    (
                        heads[depth] if depth < 64 else _element_head(depth),
                        enc_top,
                        ta_top,
                        text,
                    )
                )
                size = len(formed)
                if size <= room:
                    pairs.append((norm_top, formed))
                    room -= size
                    tokens += 1
                else:
                    if pairs:
                        former.extend(pairs, room0 - room)
                        pairs = []
                    if stats is not None:
                        stats.record_tokens(tokens + 1)
                    tokens = 0
                    former.add(norm_top, formed)
                    room0 = room = former.room
                norm_top, enc_top, ta_top, level_top = opened.pop()
                depth -= 1

            if token_type != TYPE_START and token_type != TYPE_POINTER:
                if token_type == TYPE_TEXT and depth:
                    pending = texts.get(depth)
                    texts[depth] = (
                        frame if pending is None else _with_frame(pending, frame)
                    )
                continue
            child = depth + 1
            if sort_levels is not None and (
                child == 1 or child > sort_levels + 1
            ):
                atom = b"\x00"
                norm_atom = None
                spliced = False
            if atom is None or position is None:
                if body is not None:
                    raise CodecError("run pointer without key annotations")
                raise SortSpecError(
                    "key-path records need a key and position on every "
                    "element of the subtree"
                )
            if norm_atom is None:
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
            norm = norm_top + norm_atom + position.to_bytes(8, "big")
            enc = enc_top + component
            units += 1
            if body is None:
                real += 1
                opened.append((norm_top, enc_top, ta_top, level_top))
                norm_top = norm
                enc_top = enc
                ta_top = tag_attrs
                level_top = level if compact else child
                depth = child
                continue
            real += count
            formed = join(
                (
                    _POINTER_HEADS[child] if child < 64
                    else b"\x02" + encode_varint(child),
                    enc,
                    body,
                )
            )
            size = len(formed)
            if size <= room:
                pairs.append((norm, formed))
                room -= size
                tokens += 1
            else:
                if pairs:
                    former.extend(pairs, room0 - room)
                    pairs = []
                if stats is not None:
                    stats.record_tokens(tokens + 1)
                tokens = 0
                former.add(norm, formed)
                room0 = room = former.room
    if depth:
        raise CodecError("unbalanced tokens: elements left open")
    if pairs:
        former.extend(pairs, room0 - room)
    if tokens and stats is not None:
        stats.record_tokens(tokens)
    return units, real


# -- fused output: sorted records -> stored output tokens ---------------------


def emit_output_columnar(
    stream: Iterable[bytes],
    writer,
    device,
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

    A record's path begins with the path of its parent, the open element
    one level up: those bytes are checked with one ``startswith`` and
    skipped, and only the record's own (last) path component is parsed.
    A record that does not extend its parent's path raises
    :class:`~repro.errors.CodecError`.  Each token is framed as the run
    stores it (length header, type/flags head, body) as it is built, an
    element's end token once, when its start is read; the framed tokens
    go to the writer with :meth:`~repro.io.runs.RunWriter.write_framed`.

    ``names_coded`` switches tag/attribute-name parsing to dictionary id
    varints (the spliced slices stay dialect-consistent end to end);
    ``emit_ends=False`` is end-tag-eliminated output - no end records,
    depth tracking only (``tokens_from_sorted_records`` with
    ``emit_end_tags=False``).  Depth-1 records sit at ``base_level``;
    ``levels`` puts the level on starts and pointers (``False`` is the
    plain run dialect of a NEXSORT subtree sort).  Texts never carry one.

    ``chunk_records=0`` (the default) is block-aligned: tokens collect
    until their framed bytes reach the writer's :attr:`room`
    (:attr:`repro.io.runs.RunWriter.room`), then go over in one call.
    That call performs the device write a record-at-a-time loop would
    have performed at the same record, and each record's tokens are
    charged right after it, so the global device-access order - and the
    ``tokens`` count every access sees - is exactly that of one writer
    call per record.  This mode is safe under a shared buffer pool, a
    recovery context and a striped clock.  ``chunk_records > 0`` instead
    writes every ``chunk_records`` tokens and charges them per call; it
    reorders writes relative to the final merge's reads, so it is for
    callers with no pool or recovery context attached.
    ``charge_tokens=False`` leaves the token charge to the caller (the
    returned count) and keeps no per-record charge bookkeeping.
    """
    stats = device.stats
    record_tokens = stats.record_tokens
    pack = _FRAME_LEN.pack
    join = b"".join
    # Framed tokens not written yet, their framed bytes, and how many of
    # them are charged already (``charge_tokens``).
    out: list[bytes] = []
    append = out.append
    framed = 0
    charged = 0
    written = 0
    room = writer.room
    start_head = b"\x01\x04" if levels else b"\x01\x00"
    pointer_head = b"\x04\x04" if levels else b"\x04\x00"
    # The tokens of text-less elements, by the record bytes they come from.
    splits: dict[bytes, tuple] = {}
    splits_get = splits.get
    memoize = True
    # The open elements: path bytes and framed end token of the innermost
    # (``path_top``, ``end_top``), and of the enclosing ones in ``opened``.
    depth = 0
    path_top = b""
    end_top = b""
    opened: list[tuple[bytes, bytes]] = []
    level_tails: dict[int, bytes] = {}

    def flush() -> None:
        nonlocal framed, charged, written, room
        count = len(out)
        if count:
            writer.write_framed(join(out), count, framed - 4 * count)
            out.clear()
            framed = 0
            room = writer.room
        if charge_tokens:
            record_tokens(count - charged)
            charged = 0
        written += count

    for record in stream:
        record_kind = record[0]
        if record_kind != 1 and record_kind != 2:
            raise CodecError(f"unknown key-path record kind {record_kind}")
        record_depth = record[1]
        pos = 2
        if record_depth >= 0x80:
            record_depth, pos = read_varint_fast(record, 1)
        if record_depth == 0:
            raise CodecError("key-path record with empty path")
        # Close the open elements at or below this record's depth.
        while depth >= record_depth:
            if emit_ends:
                append(end_top)
                framed += len(end_top)
            path_top, end_top = opened.pop()
            depth -= 1
        if depth != record_depth - 1:
            raise CodecError(
                "key-path records out of order: jumped from depth "
                f"{depth} to {record_depth}"
            )
        # The parent's path, then one (atom, position) component.
        if not record.startswith(path_top, pos):
            raise CodecError(
                f"key-path record at depth {record_depth} does not extend "
                "its parent's path"
            )
        path_start = pos
        pos += len(path_top)
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
        elif kind:
            raise CodecError(f"unknown key atom kind {kind}")
        while record[pos] >= 0x80:
            pos += 1
        pos += 1
        # Output starts and pointers carry their absolute level, exactly
        # as tokens_from_sorted_records emits (base level 1 -> level ==
        # depth).
        if levels:
            tail = level_tails.get(record_depth)
            if tail is None:
                tail = encode_varint(base_level + record_depth - 1)
                level_tails[record_depth] = tail
        else:
            tail = b""
        if record_kind == 2:  # pointer: the run_id/count/payload body
            body = record[pos:]
            token = join(
                (pack(2 + len(body) + len(tail)), pointer_head, body, tail)
            )
            append(token)
            framed += len(token)
        else:
            # The element's tag+attributes and text frame: its tokens
            # depend on these bytes alone.  Without a text they recur,
            # so each distinct one is split and framed once.
            rest = record[pos:]
            tokens = splits_get(rest) if memoize else None
            if tokens is None:
                tokens = _element_tokens(
                    rest, names_coded, start_head, not levels
                )
                if memoize and tokens[1] is None:
                    splits[rest] = tokens
                    # Too many distinct ones: stop looking them up.
                    memoize = len(splits) < _SPLIT_MEMO_LIMIT
            start, text, end = tokens
            if levels:
                start = join((pack(len(start) + len(tail)), start, tail))
            append(start)
            framed += len(start)
            if text is not None:
                append(text)
                framed += len(text)
            opened.append((path_top, end_top))
            path_top = record[path_start:pos]
            end_top = end
            depth = record_depth
        # The record's tokens are in ``out``: write, then charge.
        if chunk_records:
            if len(out) >= chunk_records:
                flush()
        elif framed >= room:
            flush()
        elif charge_tokens:
            record_tokens(len(out) - charged)
            charged = len(out)
    while depth:
        if emit_ends:
            append(end_top)
            framed += len(end_top)
        path_top, end_top = opened.pop()
        depth -= 1
    flush()
    return written
