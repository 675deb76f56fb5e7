"""Byte-record kernels: the record hot path of every sorter.

Both sorters move encoded records, not token objects, through scan ->
key-evaluate -> form-runs -> merge -> output.  Keys are engine-normalized
``bytes`` (order- and equality-faithful, :mod:`repro.merge.engine`), records
are spliced from the stored encodings, and sorts are stable sorts over
those keys.  The pieces:

* :func:`argsort_normalized` / :func:`argsort_groups` - stable argsort of
  normalized keys, exactly the order - including stability - of
  ``list.sort`` over the same keys: the reference order every sort here
  keeps;
* :func:`fast_path_key` - normalized key bytes straight from an encoded
  key-path record, parsing only the path prefix (merge passes never
  decode tags/attributes/text);
* :func:`keyed_puller` - ``(key, record)`` pulls over a run's
  block-drained batches for the heap and loser-tree merge kernels;
* :func:`form_subtree_runs` - the one key-path formation (paper Table
  1): stored records spliced into key-path records for run formation,
  from merge sort's document scan (a buffered block at a time) and from
  NEXSORT's external subtree sorts (a popped subtree), covering plain,
  dictionary-coded, and end-tag-eliminated (level-annotated) storage;
* :func:`emit_output_columnar` - sorted key-path records spliced back
  into stored tokens, for merge sort's output and NEXSORT's subtree runs;
* :func:`sort_subtree_records` - NEXSORT's in-memory subtree sort: one
  bottom-up pass over a popped subtree's raw data-stack records that
  sorts each child list as its parent closes and splices the run records
  from the stored bytes, without ever materializing tokens or a tree.

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
from functools import partial
from itertools import chain, islice, repeat
from typing import Callable, Iterable

from ..errors import CodecError, RunError, SortSpecError
from ..io.runs import FRAME_HEADER
from ..merge.engine import _normalize_atom, normalize_number, sort_keyed_batch
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
    paper's record-at-a-time sort.  No sorter calls it: they sort keyed
    records in place (:func:`~repro.merge.engine.sort_keyed_batch`) in
    this same order, which this function states for the tests.
    """
    return sorted(range(len(keys)), key=keys.__getitem__)


def argsort_groups(groups: list[list[bytes]]) -> list[list[int]]:
    """Per-group stable argsorts: ``[argsort_normalized(g) for g in groups]``."""
    return [sorted(range(len(keys)), key=keys.__getitem__) for keys in groups]


# -- batched run reading ------------------------------------------------------


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
    """A pull of ``(key, record)`` pairs over ``reader.batches()``; None
    once the run is drained.

    Keys for a batch are computed in one ``batch_keys`` call - this is
    where the merge passes' per-record key cost collapses into a batch
    kernel.  With a key ``sidecar`` (the run's normalized keys in record
    order, captured when the run was written) keys are not even
    recomputed, just taken in order.  Blocks load at the pull a
    record-at-a-time reader would load them, because
    :meth:`~repro.io.runs.RunReader.batches` does.

    A run that yields more or fewer records than its handle's
    ``record_count`` (a corrupted length header swallows or splits
    records) raises :class:`~repro.errors.RunError`: past the count at
    the batch that overshoots it, short of it at the pull that finds the
    run drained.
    """
    if sidecar is not None:
        keys = iter(sidecar)

        def batch_keys(batch: list[bytes]):
            return islice(keys, len(batch))

    def counted():
        handle = reader.handle
        seen = 0
        for batch in reader.batches():
            seen += len(batch)
            if seen > handle.record_count:
                break
            yield batch
        if seen != handle.record_count:
            found = "more" if seen > handle.record_count else seen
            raise RunError(
                f"run {handle.run_id} holds {handle.record_count} records "
                f"but yields {found}: its framing is corrupt"
            )

    pairs = chain.from_iterable(
        zip(batch_keys(batch), batch) for batch in counted()
    )
    return partial(next, pairs, None)


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


# -- fused scan: stored tokens -> key-path records -> run formation -----------


class StartKeyCache:
    """Memoized start-tag key evaluation over raw ``tag+attrs`` bytes.

    The memo key is the encoded tag+attributes slice of the stored start
    token, which is exactly the information a start-computable rule may
    use - so one cache serves every rule shape with the evaluator's exact
    semantics (including numeric coercion and missing-attribute
    fallbacks).  Entries hold the splice pieces the fused scans need,
    never token objects: the normalized key atom (run-formation and
    sibling-sort keys), the codec-encoded key atom (annotated starts and
    key-path records), the encoded name field (an end-tag record's name
    is exactly the tag+attrs prefix, in either name dialect) and the
    element's run end and start records.  Specs whose keys are evaluated
    at end tags use
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
    ) -> tuple[bytes, bytes, bytes, bytes, bytes]:
        """(normalized atom, encoded atom, name field, run end record, run
        start record) of one start: the run records (``03 00`` and the
        name field, ``01 00`` and the tag+attributes) are what a sorted
        run stores for the element."""
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
            b"\x01\x00" + tag_attrs,
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


#: A record's fields for a pre-spliced end tag: it overrides nothing.
END_FIELDS = ()

#: Closes every open element of a subtree: the record chained behind its
#: last one.  Compared by identity, so it is no ``bytes``: a stored
#: one-byte record may be the interned ``b"\x00"``.
_SUBTREE_END = bytearray(1)

#: A close floor no element level reaches: the record closes nothing.
_NO_CLOSE = sys.maxsize

#: A subtree's records go on after its root element closed.
_TWO_ROOTS = "subtree tokens have two roots"
_TEXT_AFTER_ROOT = "subtree tokens have a text after the root"


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

    One bottom-up pass, for plain and compacted records alike.  Open
    elements sit on a stack.  An element closes at its end record, or in
    compacted mode by ``restore_end_tags``' level rules (a start or
    pointer at its level or above, a text above it, or the end of the
    records).  Then its children, ``(key, records)`` pairs keyed by the
    engine-normalized ``atom + 8-byte position`` (order- and
    equality-faithful to the ``(key, pos)`` tuple compare), are sorted
    stably and charged (:func:`~repro.merge.engine.sort_keyed_batch`, per
    child list of two or more), and its start record, joined text
    frame, children's records and end record become one list for its
    parent.  Only the child lists of relative levels ``1 .. sort_levels``
    are sorted.  An element's key and position come from its start
    record; a plain-mode end record that carries them overrides them
    (subtree-evaluated keys).

    No token is decoded: the run records are the input's own slices with
    annotations stripped - starts, texts and pointers carry the output
    level in compacted mode (the subtree root at ``base_level``), and
    plain mode keeps end records.  ``fields``, aligned with ``records``
    (plain mode only), holds what the document scan already split out of
    a record that never left memory: ``(normalized atom, position, run
    start record, run end record)`` of a start (see
    :meth:`StartKeyCache.pieces_for`), or :data:`END_FIELDS` for an end
    record that repeats its start's position.  Records without fields
    (None) are parsed from their bytes; fields change no output.

    Returns ``(out_records, units, real_elements)``.  An unbalanced
    subtree, one without an element, a second root or a text after the
    root closed, and a compacted start or pointer without a level raise
    :class:`~repro.errors.CodecError`.  The byte walks are unchecked: a
    truncated record raises ``IndexError``.
    """
    pack_pos = _U64.pack
    # Children of depths up to ``sorted_depth`` are sorted, so the keys of
    # depths ``2 .. sorted_depth + 1`` order something.
    sorted_depth = sys.maxsize - 1 if sort_levels is None else sort_levels
    keyed_depth = sorted_depth + 1
    norms: dict[bytes, bytes] = {}
    tails: dict[int, bytes] = {}
    # The innermost open element: its normalized atom, position, output
    # start and end records, collected text frames, children and stored
    # level (plain mode: its depth); ``opened`` holds the same fields of
    # each enclosing element.
    depth = 0
    norm = start = end = text = children = None
    pos = 0
    level_top = -1
    opened: list[tuple] = []
    # Starts and pointers, and the elements pointers stand for beyond one.
    units = folded = 0
    root: list[bytes] | None = None
    known_fields = (
        repeat(None) if fields is None or compact else fields + [None]
    )
    for record, known in zip(records + [_SUBTREE_END], known_fields):
        if known is not None:
            if known:  # a start as the scan pushed it
                if not depth and root is not None:
                    raise CodecError(_TWO_ROOTS)
                opened.append(
                    (norm, pos, start, end, text, children, level_top)
                )
                norm, pos, start, end = known
                text = children = None
                depth += 1
                level_top = depth
                units += 1
                continue
            token_type = TYPE_END
            if not depth:
                raise CodecError("subtree tokens are unbalanced")
            floor = level_top
        else:
            token_type = record[0]
            floor = _NO_CLOSE
            if token_type == TYPE_START or token_type == TYPE_POINTER:
                flags = record[1]
                if token_type == TYPE_START:
                    stop = _skip_tag_attrs(record, 2, names_coded)
                    tag_attrs = record[2:stop]
                else:
                    # run_id, element_count, payload_bytes varints.
                    stop = _skip_varint(record, 2)
                    count, stop = read_varint_fast(record, stop)
                    stop = _skip_varint(record, stop)
                    body = record[2:stop]
                atom = None
                position = 0
                if flags & 1:
                    atom_end = _skip_atom(record, stop)
                    atom = record[stop:atom_end]
                    stop = atom_end
                if flags & 2:
                    position, stop = read_varint_fast(record, stop)
                if compact:
                    if not flags & 4:
                        raise CodecError("compacted token without level")
                    level, _ = read_varint_fast(record, stop)
                    floor = level
            elif token_type == TYPE_TEXT:
                if record[1] & 4:
                    stop = _skip_frame(record, 2)
                    frame = record[2:stop]
                    if compact:
                        level, _ = read_varint_fast(record, stop)
                        floor = level + 1
                else:
                    frame = record[2:]
            elif token_type == TYPE_END and not compact:
                if not depth:
                    raise CodecError("subtree tokens are unbalanced")
                # End tags may carry the element's key/pos
                # (subtree-evaluated criteria); they override the start's.
                flags = record[1]
                if flags & 3:
                    stop = _name_field_end(record, 2, names_coded)
                    if flags & 1:
                        atom_end = _skip_atom(record, stop)
                        norm = _normalized(norms, record[stop:atom_end])
                        stop = atom_end
                    if flags & 2:
                        pos, stop = read_varint_fast(record, stop)
                floor = level_top
            elif record is _SUBTREE_END:
                if depth and not compact:
                    raise CodecError("subtree tokens are unbalanced")
                floor = 0
            elif compact:
                raise CodecError(
                    f"unexpected token in compact subtree records: "
                    f"type byte {token_type}"
                )
            else:
                raise CodecError(f"unknown token type byte {token_type}")

        # Close every open element at or above ``floor``: its children
        # are complete.
        while level_top >= floor:
            if text is None:
                out = [start]
            elif compact:
                tail = _level_tail(tails, base_level + depth - 1)
                out = [start, b"\x02\x04" + _text_frame(text) + tail]
            else:
                out = [start, b"\x02\x00" + _text_frame(text)]
            if children is not None:
                if depth <= sorted_depth and len(children) > 1:
                    sort_keyed_batch(children, stats, counted)
                for child in children:
                    out += child[1]
            if end is not None:
                out.append(end)
            key = norm + pack_pos(pos) if 1 < depth <= keyed_depth else None
            norm, pos, start, end, text, children, level_top = opened.pop()
            depth -= 1
            if not depth:
                root = out
            elif children is None:
                children = [(key, out)]
            else:
                children.append((key, out))

        if token_type == TYPE_END:
            continue
        if token_type == TYPE_START:
            if not depth and root is not None:
                raise CodecError(_TWO_ROOTS)
            opened.append((norm, pos, start, end, text, children, level_top))
            norm = b"\x00" if atom is None else _normalized(norms, atom)
            pos = position
            text = children = None
            depth += 1
            units += 1
            if compact:
                start = b"\x01\x04" + tag_attrs + _level_tail(
                    tails, base_level + depth - 1
                )
                end = None
                level_top = level
            else:
                start = b"\x01\x00" + tag_attrs
                end = b"\x03\x00" + tag_attrs[
                    : _name_field_end(tag_attrs, 0, names_coded)
                ]
                level_top = depth
        elif token_type == TYPE_TEXT:
            if depth:
                text = _with_frame(text, frame)
            elif root is not None:
                raise CodecError(_TEXT_AFTER_ROOT)
        elif token_type == TYPE_POINTER:
            if not depth and root is not None:
                raise CodecError(_TWO_ROOTS)
            units += 1
            folded += count - 1
            if compact:
                out = [
                    b"\x04\x04" + body + _level_tail(tails, base_level + depth)
                ]
            else:
                out = [b"\x04\x00" + body]
            if not depth:
                root = out
                continue
            key = None
            if depth <= sorted_depth:
                key = b"\x00" if atom is None else _normalized(norms, atom)
                key += pack_pos(position)
            if children is None:
                children = [(key, out)]
            else:
                children.append((key, out))
    if root is None:
        raise CodecError("subtree tokens contain no element")
    return root, units, units + folded


def _normalized(norms: dict[bytes, bytes], atom: bytes) -> bytes:
    """The normalized key bytes of an encoded key atom, memoized."""
    norm = norms.get(atom)
    if norm is None:
        norm, _ = _normalize_encoded_atom(atom, 0)
        norms[atom] = norm
    return norm


def _level_tail(tails: dict[int, bytes], level: int) -> bytes:
    """The level varint that ends a compacted run record, memoized."""
    tail = tails.get(level)
    if tail is None:
        tail = tails[level] = encode_varint(level)
    return tail


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

#: A walked record of the document scan that does not end where its
#: flags say (a field missing, or bytes left over).
_FLAGS_MISMATCH = "stored record's fields do not match its flags"

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
    start_keys: StartKeyCache | None = None,
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
      block at a time, and ``start_keys`` is the spec's
      :class:`StartKeyCache` (its memo probed in the loop, then
      :meth:`StartKeyCache.pieces_for`): keys come from the spec,
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
    if start_keys is not None:
        start_memo_get = start_keys.memo.get
        start_pieces_for = start_keys.pieces_for
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
                    norm_atom, atom, _name, _end, _start = start_memo_get(
                        tag_attrs
                    ) or start_pieces_for(tag_attrs)
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
                if token_type == TYPE_TEXT:
                    if depth:
                        pending = texts.get(depth)
                        texts[depth] = (
                            frame if pending is None
                            else _with_frame(pending, frame)
                        )
                    elif units:
                        raise CodecError(_TEXT_AFTER_ROOT)
                continue
            if not depth and units:
                raise CodecError(_TWO_ROOTS)
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
            elif position < 0x80:
                component = atom + _VARINT1[position]
            elif position < 0x4000:
                component = atom + bytes(
                    (position & 0x7F | 0x80, position >> 7)
                )
            else:
                component = atom + encode_varint(position)
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

    Writes are block-aligned: tokens collect until their framed bytes
    reach the writer's :attr:`~repro.io.runs.RunWriter.room`, then go
    over in one call.  That call performs the device write a
    record-at-a-time loop would have performed at the same record, and
    each record's tokens are charged right after it, so the global
    device-access order - and the ``tokens`` count every access sees -
    is exactly that of one writer call per record, under a shared buffer
    pool, a recovery context and a striped clock alike.
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
            writer.write_framed(
                join(out), count, framed - FRAME_HEADER * count
            )
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
        if framed >= room:
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
