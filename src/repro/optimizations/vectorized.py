"""Vectorized timestamp kernels over the compiled position plans.

:class:`VectorizedEdgeIndexedPolicy` is a drop-in
:class:`~repro.core.timestamp.EdgeIndexedPolicy` whose hot-path kernels
-- ``advance_delta``, ``merge_delta``, and whole-queue readiness
(``ready_many``) -- run as numpy array operations over the flat counter
tuples instead of Python loops.  On dense share graphs a single merge
walks hundreds of counters; the element-wise max, the changed-position
collection, and the incremental wire-size delta all collapse into a
handful of array expressions.

Byte-identity contract
----------------------
Every kernel here must produce *exactly* the result of the scalar base
class: the same :class:`~repro.core.timestamp.Timestamp` values (tuples
of Python ints, so hashing/equality interoperate), the same changed-key
frozensets, and the same memoized wire sizes.  The differential oracle
tests run the vectorized policy against the verbatim legacy policy and
require byte-identical histories and timestamps; only wall-clock may
change.

Fallback
--------
When numpy is not importable (:data:`HAVE_NUMPY` is ``False``) every
method delegates to the scalar base class, so constructing this policy
is always safe; the ``fast`` optional extra (``pip install -e .[fast]``)
provides numpy.  Foreign timestamp indexes (not produced by this
policy) also take the scalar path -- they only occur in deliberately
crippled experiment policies.

Each :class:`Timestamp` lazily caches its ``int64`` ndarray view on the
``_np`` slot, so a timestamp shared across recipients or queue scans is
converted once.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.core.edge_index import EdgeIndex
from repro.core.timestamp import EdgeIndexedPolicy, Timestamp, TimestampPolicy
from repro.types import Edge, RegisterName, ReplicaId

try:  # pragma: no cover - exercised both ways across CI environments
    import numpy
except ImportError:  # pragma: no cover
    numpy = None  # type: ignore[assignment]

_np: Any = numpy

#: True when the numpy-backed kernels are active; otherwise every method
#: of :class:`VectorizedEdgeIndexedPolicy` delegates to the scalar base.
HAVE_NUMPY: bool = _np is not None


def _varint_sizes(arr: Any) -> Any:
    """Per-element LEB128 varint sizes of a non-negative int64 array.

    Exact threshold sums (never floating-point logs): size(v) is one
    plus the number of 7-bit boundaries v reaches.  Agrees with
    :func:`repro.wire.varint.uvarint_size` for the full int64 range.
    """
    sizes = _np.ones(arr.shape, dtype=_np.int64)
    for shift in range(7, 63, 7):
        sizes += arr >= (1 << shift)
    return sizes


def _as_array(ts: Timestamp) -> Any:
    """The timestamp's cached int64 ndarray view (built on first use)."""
    arr = ts._np
    if arr is None:
        arr = _np.array(ts._values, dtype=_np.int64)
        ts._np = arr
    return arr


class VectorizedEdgeIndexedPolicy(EdgeIndexedPolicy):
    """The paper's algorithm with numpy-vectorized hot-path kernels.

    Construction, validation, and the scalar position plans are inherited
    unchanged; this class additionally compiles the plans into index
    arrays and overrides the delta kernels.  See the module docstring for
    the byte-identity and fallback contracts.
    """

    def _build_plans(self) -> None:
        super()._build_plans()
        # Vector plans mirror the scalar ones, keyed the same way but
        # holding intp index arrays ready for fancy indexing.
        self._vmerge_plans: Dict[EdgeIndex, Tuple[Any, Any]] = {}
        self._vready_plans: Dict[
            Tuple[ReplicaId, EdgeIndex],
            Tuple[Optional[int], Optional[int], Optional[Tuple[Any, Any]]],
        ] = {}
        self._vbumps: Dict[RegisterName, Tuple[Any, FrozenSet[Edge]]] = {}
        # Run plans: ready plan + merge plan fused for merge_run (None =
        # the run kernel cannot serve this sender/index pair).
        self._vrun_plans: Dict[
            Tuple[ReplicaId, EdgeIndex],
            Optional[Tuple[int, int, Optional[Tuple[Any, Any]]]],
        ] = {}

    def _vmerge_plan(self, sender_index: EdgeIndex) -> Tuple[Any, Any]:
        plan = self._vmerge_plans.get(sender_index)
        if plan is None:
            pairs = self._merge_plan(sender_index)
            own_idx = _np.fromiter(
                (p for p, _ in pairs), dtype=_np.intp, count=len(pairs)
            )
            snd_idx = _np.fromiter(
                (s for _, s in pairs), dtype=_np.intp, count=len(pairs)
            )
            plan = self._vmerge_plans[sender_index] = (own_idx, snd_idx)
        return plan

    def _vready_plan(
        self, sender: ReplicaId, sender_index: EdgeIndex
    ) -> Tuple[Optional[int], Optional[int], Optional[Tuple[Any, Any]]]:
        key = (sender, sender_index)
        plan = self._vready_plans.get(key)
        if plan is None:
            own_pos, sender_pos, third = self._ready_plan(sender, sender_index)
            vthird: Optional[Tuple[Any, Any]] = None
            if third:
                vthird = (
                    _np.fromiter(
                        (p for p, _ in third), dtype=_np.intp, count=len(third)
                    ),
                    _np.fromiter(
                        (s for _, s in third), dtype=_np.intp, count=len(third)
                    ),
                )
            plan = self._vready_plans[key] = (own_pos, sender_pos, vthird)
        return plan

    def _vrun_plan(
        self, sender: ReplicaId, sender_index: EdgeIndex
    ) -> Optional[Tuple[int, int, Optional[Tuple[Any, Any]]]]:
        """Fused ready+merge plan for :meth:`merge_run`, or ``None``.

        ``None`` marks a (sender, index) pair the run kernel cannot
        serve: the sender edge is untracked locally (no exact gap check)
        or a third-party pair reads an own counter outside the merge
        plan (cannot happen for well-formed share graphs; guarded
        defensively, because the run kernel folds each third-party
        pair's *sender column* as the contribution stream to the paired
        own counter -- sound only when the merge plan actually copies
        that column into that counter).
        """
        key = (sender, sender_index)
        if key in self._vrun_plans:
            return self._vrun_plans[key]
        plan: Optional[Tuple[int, int, Optional[Tuple[Any, Any]]]]
        own_pos, sender_pos, third = self._ready_plan(sender, sender_index)
        if own_pos is None or sender_pos is None:
            plan = None
        else:
            vthird: Optional[Tuple[Any, Any]] = None
            if third:
                merged = dict(self._merge_plan(sender_index))
                if any(merged.get(p) != s for p, s in third):
                    self._vrun_plans[key] = None
                    return None
                vthird = (
                    _np.fromiter(
                        (p for p, _ in third), dtype=_np.intp, count=len(third)
                    ),
                    _np.fromiter(
                        (s for _, s in third), dtype=_np.intp, count=len(third)
                    ),
                )
            plan = (own_pos, sender_pos, vthird)
        self._vrun_plans[key] = plan
        return plan

    def prewarm(self, peers: Mapping[ReplicaId, TimestampPolicy]) -> None:
        """Compile every neighbour's merge/ready/run plans at wiring time.

        Plan compilation is deterministic and depends only on the edge
        indexes, so running it when the system is wired moves the
        first-frame compilation stalls off the message hot path.  Peers
        that are not edge-indexed policies carry no edge index and are
        skipped; peers not passed simply compile lazily as before.
        """
        if _np is None:
            return
        for sender, peer in peers.items():
            if isinstance(peer, EdgeIndexedPolicy):
                eindex = peer._eindex
                self._vmerge_plan(eindex)
                self._vready_plan(sender, eindex)
                self._vrun_plan(sender, eindex)

    def _vbump(
        self, register: RegisterName
    ) -> Optional[Tuple[Any, FrozenSet[Edge]]]:
        entry = self._vbumps.get(register)
        if entry is None:
            positions = self._bumps.get(register)
            if not positions:
                return None
            order = self._eindex.order
            entry = self._vbumps[register] = (
                _np.array(positions, dtype=_np.intp),
                frozenset(order[p] for p in positions),
            )
        return entry

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def advance_delta(
        self, ts: Timestamp, register: RegisterName
    ) -> Tuple[Timestamp, Optional[FrozenSet[Edge]]]:
        if _np is None or ts._eindex is not self._eindex:
            return super().advance_delta(ts, register)
        entry = self._vbump(register)
        if entry is None:
            return ts, frozenset()
        positions, changed_keys = entry
        arr = _as_array(ts)
        out = arr.copy()
        out[positions] += 1
        new_ts = Timestamp.from_array(self._eindex, out.tolist())
        new_ts._np = out
        if ts._wire_size is not None:
            new_vals = out[positions]
            old_vals = arr[positions]
            size = ts._wire_size
            # Counters below 128 encode in one byte either way; only
            # compute exact varint sizes when a boundary is in play.
            if bool((new_vals >= 128).any()):
                size += int(
                    (_varint_sizes(new_vals) - _varint_sizes(old_vals)).sum()
                )
            new_ts._wire_size = size
        return new_ts, changed_keys

    def merge_delta(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> Tuple[Timestamp, Optional[FrozenSet[Edge]]]:
        if _np is None or ts._eindex is not self._eindex:
            return super().merge_delta(ts, sender, sender_ts)
        own_idx, snd_idx = self._vmerge_plan(sender_ts._eindex)
        own = _as_array(ts)
        snd = _as_array(sender_ts)
        own_sel = own[own_idx]
        snd_sel = snd[snd_idx]
        mask = snd_sel > own_sel
        if not mask.any():
            return ts, frozenset()
        raised = own_idx[mask]
        new_vals = snd_sel[mask]
        out = own.copy()
        out[raised] = new_vals
        new_ts = Timestamp.from_array(self._eindex, out.tolist())
        new_ts._np = out
        if ts._wire_size is not None:
            old_vals = own_sel[mask]
            size = ts._wire_size
            if bool((new_vals >= 128).any() or (old_vals >= 128).any()):
                size += int(
                    (_varint_sizes(new_vals) - _varint_sizes(old_vals)).sum()
                )
            new_ts._wire_size = size
        order = self._eindex.order
        return new_ts, frozenset(order[p] for p in raised.tolist())

    def merge_run(
        self,
        ts: Timestamp,
        sender: ReplicaId,
        sender_timestamps: Sequence[Timestamp],
    ) -> Optional[Tuple[Timestamp, Optional[FrozenSet[Edge]]]]:
        """Fold a consecutively-ready frame into one merged timestamp.

        Given the timestamps of a whole batch frame from ``sender``,
        verify -- in a handful of matrix comparisons -- that applying
        the members *in frame order against an empty pending buffer*
        satisfies predicate ``J`` at every step: the sender-edge column
        must rise by exactly one per member starting from the local
        counter, and each member's third-party dependencies must be
        dominated by the local counters *as of the previous member*
        (a running column-max over the mapped sender contributions).
        On success return the post-frame timestamp -- the element-wise
        max over the whole frame, identical to folding ``merge`` member
        by member because max is associative -- plus the union of raised
        keys.  Return ``None`` when the run is not provably ready in
        order (stale/gapped/blocked members, foreign indexes, no numpy):
        the delivery engine then falls back to the generic
        enqueue-and-drain path, which handles every case.

        The caller (``ProtocolCore.remote_batch``) only invokes this
        with an empty pending buffer, so no interleaved apply from
        another sender could have been scheduled between members.
        """
        k = len(sender_timestamps)
        if k == 0 or _np is None or ts._eindex is not self._eindex:
            return None
        sender_index = sender_timestamps[0]._eindex
        for other in sender_timestamps:
            if other._eindex is not sender_index:
                return None
        plan = self._vrun_plan(sender, sender_index)
        if plan is None:
            return None
        own_pos, sender_pos, vthird = plan
        own = _as_array(ts)
        matrix = _np.stack([_as_array(t) for t in sender_timestamps])
        # Exact sender-edge gap for the whole run in one comparison: the
        # sender column must be own+1, own+2, ..., own+k.
        expected = own[own_pos] + 1 + _np.arange(k, dtype=_np.int64)
        if not bool((matrix[:, sender_pos] == expected).all()):
            return None
        if vthird is not None:
            third_own, third_snd = vthird
            base = own[third_own]
            tcol = matrix[:, third_snd]
            if k == 1:
                if not bool((base >= tcol[0]).all()):
                    return None
            else:
                # prev[j] = own counters after members < j have merged =
                # max(base, running column-max of their contributions);
                # each third pair's sender column *is* its contribution
                # stream (validated at plan-build time).
                run = _np.maximum.accumulate(tcol, axis=0)
                prev = _np.empty_like(run)
                prev[0] = base
                _np.maximum(base, run[:-1], out=prev[1:])
                if not bool((prev >= tcol).all()):
                    return None
        own_idx, snd_idx = self._vmerge_plan(sender_index)
        colmax = matrix.max(axis=0) if k > 1 else matrix[0]
        final = colmax[snd_idx]
        own_sel = own[own_idx]
        mask = final > own_sel
        raised = own_idx[mask]
        new_vals = final[mask]
        out = own.copy()
        out[raised] = new_vals
        new_ts = Timestamp.from_array(self._eindex, out.tolist())
        new_ts._np = out
        if ts._wire_size is not None:
            old_vals = own_sel[mask]
            size = ts._wire_size
            if bool((new_vals >= 128).any() or (old_vals >= 128).any()):
                size += int(
                    (_varint_sizes(new_vals) - _varint_sizes(old_vals)).sum()
                )
            new_ts._wire_size = size
        order = self._eindex.order
        return new_ts, frozenset(order[p] for p in raised.tolist())

    def blocked_many(
        self,
        ts: Timestamp,
        sender: ReplicaId,
        sender_timestamps: Sequence[Timestamp],
    ) -> bool:
        """True when provably no member satisfies ``J`` at any frontier
        between the current timestamp and ``ts`` (inclusive).

        Monotonicity argument: counters only grow, third-party dominance
        is monotone in the local counters, and the exact sender-edge gap
        ``own + 1 == seq`` requires ``own`` to pass through ``seq - 1``
        on its way up.  So a member that could become ready at *some*
        intermediate frontier must have ``seq <= ts[edge] + 1`` and its
        third-party dependencies dominated by ``ts``; members failing
        either test under ``ts`` are unreachable at every frontier below
        it.  ``False`` means "cannot prove", never "ready".
        """
        if (
            not sender_timestamps
            or _np is None
            or ts._eindex is not self._eindex
        ):
            return False
        sender_index = sender_timestamps[0]._eindex
        for other in sender_timestamps:
            if other._eindex is not sender_index:
                return False
        own_pos, sender_pos, vthird = self._vready_plan(sender, sender_index)
        if own_pos is None or sender_pos is None:
            return False
        own = _as_array(ts)
        matrix = _np.stack([_as_array(t) for t in sender_timestamps])
        possible = matrix[:, sender_pos] <= own[own_pos] + 1
        if vthird is not None:
            own_i, snd_i = vthird
            possible &= (own[own_i] >= matrix[:, snd_i]).all(axis=1)
        return not bool(possible.any())

    def ready_many(
        self,
        ts: Timestamp,
        sender: ReplicaId,
        sender_timestamps: Sequence[Timestamp],
    ) -> Optional[int]:
        """Index of the first queue entry satisfying ``J``, else ``None``.

        The whole per-sender pending queue is checked in one matrix
        comparison: stack the senders' counter arrays, test the exact
        sender-edge gap column-wise, and fold the third-party dominance
        checks with a broadcast ``>=``.  The *first* ready index is
        returned so the delivery engine's arrival-order semantics are
        preserved exactly.
        """
        if not sender_timestamps:
            return None
        if _np is None or ts._eindex is not self._eindex:
            return self._ready_many_scalar(ts, sender, sender_timestamps)
        sender_index = sender_timestamps[0]._eindex
        for other in sender_timestamps:
            if other._eindex is not sender_index:
                # Heterogeneous sender indexes (crippled-policy runs):
                # no single plan applies, fall back to scalar checks.
                return self._ready_many_scalar(ts, sender, sender_timestamps)
        own_pos, sender_pos, vthird = self._vready_plan(sender, sender_index)
        matrix = _np.stack([_as_array(t) for t in sender_timestamps])
        own = _as_array(ts)
        if own_pos is not None and sender_pos is not None:
            ok = matrix[:, sender_pos] == own[own_pos] + 1
        else:
            ok = _np.ones(len(sender_timestamps), dtype=bool)
        if vthird is not None:
            own_i, snd_i = vthird
            ok &= (own[own_i] >= matrix[:, snd_i]).all(axis=1)
        hits = _np.flatnonzero(ok)
        return int(hits[0]) if hits.size else None

    #: The base class's arrival-order scan over the scalar predicate.
    _ready_many_scalar = TimestampPolicy.ready_many

    def __repr__(self) -> str:
        kernels = "numpy" if HAVE_NUMPY else "scalar-fallback"
        return (
            f"VectorizedEdgeIndexedPolicy(replica={self.replica_id!r}, "
            f"|E_i|={len(self.edges)}, kernels={kernels})"
        )


__all__ = [
    "HAVE_NUMPY",
    "VectorizedEdgeIndexedPolicy",
]
