"""Embedding tables and the SparseLengthsSum (SLS) operator.

SLS is the operator that distinguishes recommendation models from CNNs and
RNNs (Section II.C): each multi-hot sparse feature is a list of
non-contiguous IDs; every ID selects one row of an embedding table and the
selected rows are summed element-wise into a single dense vector. The paper's
Algorithm 1 is implemented literally in :func:`sls_reference`; the
:class:`SparseLengthsSum` operator uses a vectorized numpy equivalent and is
tested against the reference.

SLS has very low compute intensity (0.25 FLOPs/byte) and a highly irregular
access pattern: its misses are compulsory (low row reuse), giving ~8 MPKI
LLC miss rates versus 0.2 for FC. :meth:`SparseLengthsSum.address_trace`
exposes exactly that pattern to the cache simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .base import MemoryAccess, Operator, OperatorCost, OP_SLS

_FP32 = 4
_ID_BYTES = 8  # sparse IDs are int64


@dataclass(frozen=True)
class SparseBatch:
    """A batch of multi-hot sparse inputs for one embedding table.

    Mirrors the Caffe2 operator's (IDs, Lengths) encoding: ``ids`` is the
    concatenation of every sample's ID list and ``lengths[k]`` is the number
    of IDs belonging to sample ``k``.
    """

    ids: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        if self.ids.ndim != 1 or self.lengths.ndim != 1:
            raise ValueError("ids and lengths must be 1-D arrays")
        if int(self.lengths.sum()) != self.ids.shape[0]:
            raise ValueError(
                f"lengths sum to {int(self.lengths.sum())} but there are "
                f"{self.ids.shape[0]} ids"
            )
        if self.lengths.size and int(self.lengths.min()) < 0:
            raise ValueError("lengths must be non-negative")

    @property
    def batch_size(self) -> int:
        """Number of samples in the batch."""
        return self.lengths.shape[0]

    @property
    def total_lookups(self) -> int:
        """Total number of row gathers the batch requires."""
        return self.ids.shape[0]

    @classmethod
    def from_lists(cls, per_sample_ids: Sequence[Sequence[int]]) -> "SparseBatch":
        """Build a batch from one ID list per sample."""
        lengths = np.array([len(s) for s in per_sample_ids], dtype=np.int64)
        if lengths.sum() == 0:
            ids = np.empty(0, dtype=np.int64)
        else:
            ids = np.concatenate([np.asarray(s, dtype=np.int64) for s in per_sample_ids])
        return cls(ids=ids, lengths=lengths)


class EmbeddingTable:
    """A dense table of ``rows`` x ``dim`` fp32 embedding vectors."""

    def __init__(self, rows: int, dim: int, rng: np.random.Generator | None = None) -> None:
        if rows < 1 or dim < 1:
            raise ValueError("embedding table dimensions must be positive")
        self.rows = rows
        self.dim = dim
        rng = rng or np.random.default_rng(0)
        # Production tables are learned; uniform initialization in a small
        # range is sufficient for inference characterization.
        self.data = rng.uniform(-0.05, 0.05, size=(rows, dim)).astype(np.float32)

    def storage_bytes(self) -> int:
        """Capacity of the table in bytes."""
        return self.rows * self.dim * _FP32


def sls_reference(
    table: np.ndarray, lengths: Sequence[int], ids: Sequence[int]
) -> np.ndarray:
    """Literal transcription of the paper's Algorithm 1 (SLS pseudo-code).

    Used as the correctness oracle for the vectorized operator.
    """
    rows, cols = table.shape
    out = np.zeros((len(lengths), cols), dtype=np.float32)
    current_id = 0
    out_id = 0
    for length in lengths:
        for idx in ids[current_id : current_id + length]:
            emb_vector = table[idx]
            for i in range(cols):
                out[out_id][i] += emb_vector[i]
        out_id += 1
        current_id += length
    return out


class SparseLengthsWeightedSum(Operator):
    """Weighted pooled lookup (Caffe2's SparseLengthsWeightedSum).

    Like SLS, but each sparse ID carries a per-lookup fp32 weight and rows
    are accumulated as ``sum(weight_k * table[id_k])`` — used in production
    when sparse features encode interaction strength (e.g. dwell time)
    rather than mere presence.
    """

    op_type = OP_SLS

    def __init__(
        self, name: str, table: "EmbeddingTable", lookups_per_sample: int
    ) -> None:
        super().__init__(name)
        if lookups_per_sample < 1:
            raise ValueError("lookups_per_sample must be positive")
        self.table = table
        self.lookups_per_sample = lookups_per_sample

    def forward(  # type: ignore[override]
        self, batch: SparseBatch, weights: np.ndarray
    ) -> np.ndarray:
        ids = batch.ids
        weights = np.asarray(weights, dtype=np.float32).reshape(-1)
        if weights.shape[0] != ids.shape[0]:
            raise ValueError(
                f"{self.name}: {ids.shape[0]} ids but {weights.shape[0]} weights"
            )
        if ids.size and (ids.min() < 0 or ids.max() >= self.table.rows):
            raise IndexError(f"{self.name}: sparse ID out of range")
        gathered = self.table.data[ids] * weights[:, None]
        out = np.zeros((batch.batch_size, self.table.dim), dtype=np.float32)
        segment = np.repeat(np.arange(batch.batch_size), batch.lengths)
        np.add.at(out, segment, gathered)
        return out

    def parameter_bytes(self) -> int:
        return self.table.storage_bytes()

    def cost(self, batch_size: int) -> OperatorCost:
        lookups = batch_size * self.lookups_per_sample
        flops = 2 * lookups * self.table.dim  # multiply + accumulate
        bytes_read = lookups * (self.table.dim * _FP32 + _ID_BYTES + _FP32)
        bytes_written = batch_size * self.table.dim * _FP32
        return OperatorCost(flops=flops, bytes_read=bytes_read, bytes_written=bytes_written)


class SparseLengthsSum(Operator):
    """Pooled embedding lookup over one table (Caffe2's SparseLengthsSum).

    ``forward`` takes a :class:`SparseBatch` and returns a dense
    ``(batch, dim)`` array in which row ``k`` is the element-wise sum of the
    embedding rows selected by sample ``k``'s IDs.
    """

    op_type = OP_SLS

    def __init__(
        self, name: str, table: EmbeddingTable, lookups_per_sample: int
    ) -> None:
        super().__init__(name)
        if lookups_per_sample < 1:
            raise ValueError("lookups_per_sample must be positive")
        self.table = table
        self.lookups_per_sample = lookups_per_sample

    def forward(self, batch: SparseBatch) -> np.ndarray:  # type: ignore[override]
        ids = batch.ids
        if ids.size and (ids.min() < 0 or ids.max() >= self.table.rows):
            raise IndexError(
                f"{self.name}: sparse ID out of range [0, {self.table.rows})"
            )
        gathered = self.table.data[ids]
        out = np.zeros((batch.batch_size, self.table.dim), dtype=np.float32)
        segment = np.repeat(np.arange(batch.batch_size), batch.lengths)
        np.add.at(out, segment, gathered)
        return out

    def parameter_bytes(self) -> int:
        return self.table.storage_bytes()

    def cost(self, batch_size: int) -> OperatorCost:
        lookups = batch_size * self.lookups_per_sample
        flops = lookups * self.table.dim  # element-wise accumulation only
        bytes_read = lookups * self.table.dim * _FP32 + lookups * _ID_BYTES
        bytes_written = batch_size * self.table.dim * _FP32
        return OperatorCost(flops=flops, bytes_read=bytes_read, bytes_written=bytes_written)

    # ------------------------------------------------------------ traces

    def address_trace(
        self, batch_size: int, rng: np.random.Generator | None = None
    ) -> Iterator[MemoryAccess]:
        """Random-row gather trace: one row-sized read per lookup.

        With no trace provided the rows are drawn uniformly, matching the
        paper's observation that production lookups have low reuse
        (compulsory-miss dominated).
        """
        rng = rng or np.random.default_rng(0)
        rows = rng.integers(
            0, self.table.rows, size=batch_size * self.lookups_per_sample
        )
        yield from self.trace_for_rows(rows)

    def trace_for_rows(self, rows: np.ndarray) -> Iterator[MemoryAccess]:
        """Trace for a concrete sequence of looked-up rows (trace-driven
        cache studies, Figure 14)."""
        row_bytes = self.table.dim * _FP32
        for row in rows:
            yield MemoryAccess(address=int(row) * row_bytes, size=row_bytes)

    def line_trace_for_rows(
        self, rows: np.ndarray, line_bytes: int = 64
    ) -> np.ndarray:
        """Cache-line indices touched by a lookup trace, as one int64 array.

        Array counterpart of :meth:`trace_for_rows` for the vectorized
        replay engine (``CacheHierarchy.access_lines``): the concatenation
        of every row read's spanned lines, in trace order, with no
        per-lookup object churn. Bit-identical to expanding the
        :class:`MemoryAccess` stream through ``lines_spanned``.
        """
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        row_bytes = self.table.dim * _FP32
        addresses = rows * row_bytes
        first = addresses // line_bytes
        last = (addresses + row_bytes - 1) // line_bytes
        counts = last - first + 1
        if counts.size == 0:
            return np.empty(0, dtype=np.int64)
        total = int(counts.sum())
        bases = np.repeat(np.cumsum(counts) - counts, counts)
        return np.repeat(first, counts) + np.arange(total, dtype=np.int64) - bases
