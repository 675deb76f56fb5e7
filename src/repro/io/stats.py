"""I/O and CPU accounting for the simulated external-memory environment.

The paper measures algorithms primarily by the *number of I/Os* (Section 4)
and reports wall-clock sort times from a real disk (Section 5).  We reproduce
both views:

* :class:`StatsSnapshot` holds every counter - block accesses split by
  *category* (input scan, data-stack paging, subtree sorts, run reads,
  output...) and by access pattern (sequential vs. random), mirroring the
  cost breakdown in the paper's Lemmas 4.9-4.13 - and defines, once, every
  view derived from them, simulated seconds included.  A snapshot is
  frozen: nothing records into it.
* :class:`IOStats` is the live form of the same counters: a snapshot that
  devices record into, one per device.
* :class:`CostModel` converts those counters into simulated seconds with a
  seek + transfer disk model and a simple CPU model (per-comparison and
  per-token charges), standing in for the authors' 800 MHz Pentium III and
  real disk.  Absolute values are not expected to match the paper; curve
  shapes are.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field, fields


@dataclass(frozen=True)
class CostModel:
    """Simulated hardware cost parameters.

    Attributes:
        seek_seconds: charged for every non-sequential block access.
        transfer_seconds: charged for every block access (data movement).
        compare_seconds: charged per key comparison.
        token_seconds: charged per token parsed/encoded/moved.
        compress_byte_seconds: charged per *raw* byte fed to a run
            compressor (ISSUE 10).
        decompress_byte_seconds: charged per raw byte produced by a run
            decompressor.  Decompression is cheaper than compression for
            every real codec family, hence the asymmetry.
    """

    seek_seconds: float = 8e-3
    transfer_seconds: float = 1e-3
    compare_seconds: float = 2e-6
    token_seconds: float = 1e-6
    compress_byte_seconds: float = 6e-8
    decompress_byte_seconds: float = 3e-8

    def io_seconds(self, sequential: int, random: int) -> float:
        """Simulated time for the given numbers of block accesses."""
        total = sequential + random
        return total * self.transfer_seconds + random * self.seek_seconds

    def access_seconds(self, sequential: bool) -> float:
        """Simulated service time of one block access (seek + transfer)."""
        if sequential:
            return self.transfer_seconds
        return self.transfer_seconds + self.seek_seconds

    def cpu_seconds(self, comparisons: int, tokens: int) -> float:
        """Simulated CPU time for the given operation counts."""
        return comparisons * self.compare_seconds + tokens * self.token_seconds

    def compress_seconds(
        self, compressed_raw: int, decompressed_raw: int
    ) -> float:
        """Simulated CPU time for codec work, in raw bytes each way."""
        return (
            compressed_raw * self.compress_byte_seconds
            + decompressed_raw * self.decompress_byte_seconds
        )


def is_sequential_access(last: int | None, block_id: int) -> bool:
    """The model's sequentiality judgment for a single block access.

    An access is sequential when it immediately follows the stream's last
    accessed block (or starts a fresh stream) - the judgment that decides
    whether :attr:`CostModel.seek_seconds` is charged.  Shared by every
    device implementation so the seek/transfer arithmetic lives in exactly
    one place.
    """
    return last is None or block_id == last + 1


def classify_extent(
    block_ids, last: int | None
) -> tuple[int, int | None]:
    """Judge a vectored access: ``(sequential_count, new_last)``.

    Each block is judged against the one before it in the call (the first
    against ``last``, the stream's previous access), exactly as an
    equivalent loop of single-block accesses would be - so vectored and
    scalar I/O charge identical seek/transfer costs.
    """
    sequential = 0
    for block_id in block_ids:
        if is_sequential_access(last, block_id):
            sequential += 1
        last = block_id
    return sequential, last


@dataclass
class CategoryCounters:
    """Block-access counters for one accounting category.

    ``cache_hits`` / ``cache_misses`` / ``cache_evictions`` are buffer-pool
    counters (:mod:`repro.io.bufferpool`): a hit is a block access served
    from pool memory with no device I/O; a miss went to the device (and is
    therefore also counted in ``reads``/``writes``); an eviction is a block
    displaced from the pool (dirty evictions additionally appear as device
    writes).  Without a pool all three stay zero.
    """

    reads: int = 0
    writes: int = 0
    seq_reads: int = 0
    seq_writes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes


_COUNTERS = tuple(f.name for f in fields(CategoryCounters))


@dataclass
class StatsSnapshot:
    """Counters frozen at one moment, and the simulated seconds they imply.

    Taken from the live :class:`IOStats` by :meth:`IOStats.snapshot`;
    nothing records into a snapshot afterwards.  Two snapshots difference
    (:meth:`minus`) and sum (:meth:`plus`) field by field.  Every derived
    view - block totals, cache totals, simulated seconds - is defined here
    and only here, so the live counters report through the same code.
    """

    by_category: dict[str, CategoryCounters] = field(default_factory=dict)
    comparisons: int = 0
    merge_comparisons: int = 0
    tokens: int = 0
    penalty_seconds: float = 0.0
    # Parallel-disk accounting (repro.io.parallel): per-disk busy seconds
    # and consumer stall seconds.  Both stay empty/zero on a serial device,
    # keeping its serialization bit-identical.
    disk_busy: dict[int, float] = field(default_factory=dict)
    stall_seconds: float = 0.0
    # Run-compression accounting: bytes before/after each way through the
    # codec.  All four stay zero with compression off, keeping
    # uncompressed serialization bit-identical.
    compress_raw_bytes: int = 0
    compress_stored_bytes: int = 0
    decompress_stored_bytes: int = 0
    decompress_raw_bytes: int = 0
    cost_model: CostModel = field(default_factory=CostModel)

    def minus(self, earlier: "StatsSnapshot") -> "StatsSnapshot":
        """Counters accumulated between ``earlier`` and this snapshot.

        Categories and disks whose difference is all zero are dropped.
        """
        return self._combine(earlier, operator.sub, keep_zero=False)

    def plus(self, other: "StatsSnapshot") -> "StatsSnapshot":
        """Componentwise sum of two snapshots (the inverse of `minus`).

        Used to sum sibling span deltas when checking that a parent span's
        delta is fully covered by its children plus its own work.  Every
        category and disk of either operand is kept, all-zero ones too.
        """
        return self._combine(other, operator.add, keep_zero=True)

    def _combine(
        self, other: "StatsSnapshot", op, keep_zero: bool
    ) -> "StatsSnapshot":
        """``op`` applied field by field; shares this ``cost_model``."""
        zero = CategoryCounters()
        categories: dict[str, CategoryCounters] = {}
        for name in {**self.by_category, **other.by_category}:
            mine = self.by_category.get(name, zero)
            theirs = other.by_category.get(name, zero)
            counters = CategoryCounters(*[
                op(getattr(mine, counter), getattr(theirs, counter))
                for counter in _COUNTERS
            ])
            if keep_zero or any(
                getattr(counters, counter) for counter in _COUNTERS
            ):
                categories[name] = counters
        busy: dict[int, float] = {}
        for disk in {**self.disk_busy, **other.disk_busy}:
            seconds = op(
                self.disk_busy.get(disk, 0.0), other.disk_busy.get(disk, 0.0)
            )
            if keep_zero or seconds:
                busy[disk] = seconds
        return StatsSnapshot(
            by_category=categories,
            disk_busy=busy,
            cost_model=self.cost_model,
            **{
                name: op(getattr(self, name), getattr(other, name))
                for name in _SCALARS
            },
        )

    @property
    def total_reads(self) -> int:
        return sum(c.reads for c in self.by_category.values())

    @property
    def total_writes(self) -> int:
        return sum(c.writes for c in self.by_category.values())

    @property
    def total_ios(self) -> int:
        return self.total_reads + self.total_writes

    @property
    def sequential_ios(self) -> int:
        return sum(
            c.seq_reads + c.seq_writes for c in self.by_category.values()
        )

    @property
    def random_ios(self) -> int:
        return self.total_ios - self.sequential_ios

    @property
    def cache_hits(self) -> int:
        return sum(c.cache_hits for c in self.by_category.values())

    @property
    def cache_misses(self) -> int:
        return sum(c.cache_misses for c in self.by_category.values())

    @property
    def cache_evictions(self) -> int:
        return sum(c.cache_evictions for c in self.by_category.values())

    def category_total(self, category: str) -> int:
        counters = self.by_category.get(category)
        return counters.total if counters else 0

    def io_breakdown(self) -> dict[str, int]:
        """Per-category total block accesses (reads + writes)."""
        return {
            name: counters.total
            for name, counters in sorted(self.by_category.items())
        }

    def io_seconds(self) -> float:
        """Simulated disk time for these counters."""
        return self.cost_model.io_seconds(
            self.sequential_ios, self.random_ios
        )

    def cpu_seconds(self) -> float:
        """Simulated CPU time for these counters."""
        return self.cost_model.cpu_seconds(
            self.comparisons, self.tokens
        ) + self.cost_model.compress_seconds(
            self.compress_raw_bytes, self.decompress_raw_bytes
        )

    def elapsed_seconds(self) -> float:
        """Total simulated time (disk + CPU + fault-retry penalties)."""
        return self.io_seconds() + self.cpu_seconds() + self.penalty_seconds

    def model_seconds(self) -> float:
        """Simulated time derived purely from the model counters.

        Excludes retry-backoff penalties (:attr:`penalty_seconds`), so it
        is identical between a fault-free run and a run that succeeded
        after transient-fault retries.
        """
        return self.io_seconds() + self.cpu_seconds()

    def disk_seconds(self) -> float:
        """Busy time of the busiest member disk (= serial io_seconds on D=1).

        On a serial device nothing populates :attr:`disk_busy`, and the
        single disk is busy for exactly :meth:`io_seconds`.
        """
        if not self.disk_busy:
            return self.io_seconds()
        return max(self.disk_busy.values())

    def overlap_seconds(self) -> float:
        """I/O time hidden by disk parallelism: serial io minus max busy."""
        if not self.disk_busy:
            return 0.0
        return max(0.0, self.io_seconds() - self.disk_seconds())

    def disk_utilization(self) -> dict[int, float]:
        """Per-disk busy time as a fraction of the busiest disk's."""
        peak = self.disk_seconds()
        if not self.disk_busy or peak <= 0:
            return {}
        return {
            disk: busy / peak
            for disk, busy in sorted(self.disk_busy.items())
        }

    def counter_totals(self) -> dict:
        """Flat dictionary of every aggregate counter plus simulated times.

        This is the serialization the trace writers and the trace diff tool
        agree on; keys are stable across formats.  ``seconds`` is
        :meth:`model_seconds` - counter-derived and therefore comparable
        across fault-free and recovered runs; retry backoff is reported
        separately as ``penalty_seconds`` (which the diff tool ignores).
        The parallel-disk keys appear only when a striped device recorded
        per-disk busy time, so serial-device traces stay bit-identical to
        pre-striping output.  Likewise the compression byte counters
        appear only when a codec actually ran, so uncompressed traces
        stay bit-identical to pre-compression output.
        """
        totals = {
            "reads": self.total_reads,
            "writes": self.total_writes,
            "total_ios": self.total_ios,
            "sequential_ios": self.sequential_ios,
            "random_ios": self.random_ios,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "comparisons": self.comparisons,
            "merge_comparisons": self.merge_comparisons,
            "tokens": self.tokens,
            "io_seconds": self.io_seconds(),
            "cpu_seconds": self.cpu_seconds(),
            "penalty_seconds": self.penalty_seconds,
            "seconds": self.model_seconds(),
        }
        if self.disk_busy:
            totals["disk_busy"] = {
                str(disk): seconds
                for disk, seconds in sorted(self.disk_busy.items())
            }
            totals["disk_seconds"] = self.disk_seconds()
            totals["overlap_seconds"] = self.overlap_seconds()
            totals["stall_seconds"] = self.stall_seconds
        if (
            self.compress_raw_bytes
            or self.compress_stored_bytes
            or self.decompress_stored_bytes
            or self.decompress_raw_bytes
        ):
            totals["compress_raw_bytes"] = self.compress_raw_bytes
            totals["compress_stored_bytes"] = self.compress_stored_bytes
            totals["decompress_stored_bytes"] = self.decompress_stored_bytes
            totals["decompress_raw_bytes"] = self.decompress_raw_bytes
        return totals


#: Every field that is one number (combined by plain arithmetic).
_SCALARS = tuple(
    f.name
    for f in fields(StatsSnapshot)
    if f.name not in ("by_category", "disk_busy", "cost_model")
)


class IOStats(StatsSnapshot):
    """The live, mutating form of :class:`StatsSnapshot`.

    A single :class:`IOStats` lives on a :class:`~repro.io.device.BlockDevice`
    and is shared by everything using that device; its ``record_*`` methods
    are the only writers of the counters.  Algorithms take snapshots
    (:meth:`snapshot`) before and after a phase and diff them
    (:meth:`since`) to attribute costs, as the paper's analysis does.
    Live stats compare and hash by identity, unlike their snapshots.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, cost_model: CostModel | None = None):
        super().__init__(cost_model=cost_model or CostModel())

    # -- recording -------------------------------------------------------

    def record_reads(
        self, category: str, count: int, sequential_count: int
    ) -> None:
        """Count ``count`` block reads, ``sequential_count`` sequential."""
        counters = self._category(category)
        counters.reads += count
        counters.seq_reads += sequential_count

    def record_writes(
        self, category: str, count: int, sequential_count: int
    ) -> None:
        """Count ``count`` block writes, ``sequential_count`` sequential."""
        counters = self._category(category)
        counters.writes += count
        counters.seq_writes += sequential_count

    def record_cache_hit(self, category: str, count: int = 1) -> None:
        self._category(category).cache_hits += count

    def record_cache_miss(self, category: str, count: int = 1) -> None:
        self._category(category).cache_misses += count

    def record_cache_eviction(self, category: str, count: int = 1) -> None:
        self._category(category).cache_evictions += count

    def record_comparisons(self, count: int) -> None:
        self.comparisons += count

    def record_merge_comparisons(self, count: int) -> None:
        """Comparisons spent inside k-way merges.

        These are ordinary comparisons (they add to :attr:`comparisons` and
        therefore to simulated CPU seconds) that are *additionally* tracked
        under :attr:`merge_comparisons` so reports can show how much of the
        comparison budget the merge phase consumed.
        """
        self.comparisons += count
        self.merge_comparisons += count

    def record_tokens(self, count: int) -> None:
        self.tokens += count

    def record_compression(self, raw_bytes: int, stored_bytes: int) -> None:
        """One codec pass raw -> stored; CPU charged per raw byte."""
        self.compress_raw_bytes += raw_bytes
        self.compress_stored_bytes += stored_bytes

    def record_decompression(self, stored_bytes: int, raw_bytes: int) -> None:
        """One codec pass stored -> raw; CPU charged per raw byte."""
        self.decompress_stored_bytes += stored_bytes
        self.decompress_raw_bytes += raw_bytes

    def record_penalty(self, seconds: float) -> None:
        """Charge simulated wait time that is not modeled I/O or CPU.

        Retry backoff (:mod:`repro.faults`) lands here: it advances the
        simulated clock (:meth:`elapsed_seconds`) without perturbing the
        model-derived counters, so a run that succeeded after retries
        keeps counters bit-identical to a fault-free run.
        """
        if seconds < 0:
            raise ValueError(f"penalty cannot be negative: {seconds}")
        self.penalty_seconds += seconds

    def record_disk_busy(self, disk: int, seconds: float) -> None:
        """Charge service time to one member disk of a striped device."""
        self.disk_busy[disk] = self.disk_busy.get(disk, 0.0) + seconds

    def record_stall(self, seconds: float) -> None:
        """Record time the consumer spent waiting on in-flight I/O.

        Stall is *overlap diagnostics*, not a new cost: the underlying
        seek/transfer charges are already in the per-category counters.
        A fully overlapped pipeline shows near-zero stall; a serial
        consumer stalls for every access's full service time.
        """
        if seconds < 0:
            raise ValueError(f"stall cannot be negative: {seconds}")
        self.stall_seconds += seconds

    def _category(self, category: str) -> CategoryCounters:
        counters = self.by_category.get(category)
        if counters is None:
            counters = CategoryCounters()
            self.by_category[category] = counters
        return counters

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> StatsSnapshot:
        """Freeze the current counters for later differencing.

        Every category is copied, all-zero ones included; the cost model
        is shared.
        """
        return self.plus(_NOTHING)

    def since(self, snapshot: StatsSnapshot) -> StatsSnapshot:
        """Counters accumulated since ``snapshot`` was taken."""
        return self.snapshot().minus(snapshot)

    def delta(self, since: StatsSnapshot) -> StatsSnapshot:
        """Alias of :meth:`since` - the span tracer's primitive.

        ``stats.delta(entry_snapshot)`` is everything that happened inside
        a phase whose entry captured ``entry_snapshot``; the observability
        subsystem (:mod:`repro.obs`) attributes exactly these deltas to
        its spans.
        """
        return self.since(since)

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-category counter dictionary, useful for reports and tests."""
        return {
            name: asdict(counters)
            for name, counters in sorted(self.by_category.items())
        }


_NOTHING = StatsSnapshot()
