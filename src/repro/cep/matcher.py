"""NFA runtime for sequence pattern matching.

The :class:`NFAMatcher` consumes tuples and maintains a set of *runs* —
partial matches, each remembering which step of the compiled pattern it has
reached and when each step was matched.  Semantics follow the paper's match
operator:

* a tuple that satisfies the predicate of a run's next step advances that
  run (each tuple advances a given run by at most one step),
* a tuple that satisfies the first step's predicate additionally starts a
  new run, so a gesture may begin at any time ("skip till next match"),
* ``within`` constraints bound the time between the first and last event of
  the corresponding sequence group; runs that can no longer satisfy a
  constraint are pruned,
* ``select first`` reports a single detection when several runs complete on
  the same tuple; ``select all`` reports all of them,
* ``consume all`` clears every run once a detection fires, so the same
  movement is not reported twice; ``consume none`` keeps partial matches.

Partitioning
------------
A shared sensor space carries the movements of several users at once: every
Kinect tuple declares the ``player`` id that performed it.
``MatcherConfig.partition_field`` (default ``"player"``) keys the run table
by that field, so a run started by one player's tuples can only ever be
advanced, pruned, completed or consumed by tuples of the same player —
matching on N interleaved users behaves exactly like N isolated matchers.
``max_active_runs`` and ``run_ttl_seconds`` apply per partition,
``consume all`` clears only the completing player's runs, and a completed
:class:`Detection` carries the partition value so applications know *who*
gestured.  Tuples missing the field share one partition (key ``None``);
``partition_field=None`` restores the single global run table.  Partitions
hold state only while they have live runs, so idle players cost nothing.

Fast path
---------
Each step predicate is lowered to one generated Python function at
construction time (``Expression.compile``); set
``MatcherConfig.compile_predicates=False`` to fall back to the interpreted
``Expression.evaluate`` walk (the two paths produce identical detections —
the benchmark suite asserts it).  Run
bookkeeping is O(1): runs are removed by *identity* with a swap-pop on the
run table, never by value equality.  Tuples from streams that appear
nowhere in the pattern short-circuit before any predicate is evaluated.

Batched path
------------
:meth:`NFAMatcher.process_batch` feeds a whole chunk of tuples (sharing one
prune window) through the matcher: expired runs are pruned once at the
batch boundary instead of per tuple, while ``within`` constraints are still
enforced exactly on every advancement.  Expired runs that linger mid-batch
cannot change the outcome: advancement past an expired constraint is
rejected when the constraint's span ends, TTL-governed patterns fall back
to per-tuple pruning, and hitting the run cap lazily evicts expired runs
before suppressing a new one — so with monotone timestamps the batched
detections are identical to the per-tuple path's.

Run-cap semantics
-----------------
``max_active_runs`` bounds *partial* matches only.  A tuple completing an
existing run always reports, and a single-step pattern — whose matches
never occupy a run slot — fires even when the table is full; only the start
of a new multi-step run is suppressed at the cap.  ``select``/``consume``
policies apply to the completions of one tuple as usual: ``select first``
reports the oldest completed run, and ``consume all`` clears the completing
partition's run table, including runs started by that same tuple.

The matcher also exposes the live progress information (how far the best
partial match has advanced) that the paper's testing phase visualises to
help users understand why a movement was not detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cep.expressions import (
    CompiledExpression,
    CompiledPredicateCache,
    Expression,
)
from repro.cep.nfa import CompiledPattern
from repro.cep.query import ConsumePolicy, SelectPolicy
from repro.cep.tuples import DEFAULT_PARTITION_FIELD
from repro.cep.udf import FunctionRegistry, default_functions

#: Run-table key used when ``partition_field`` is ``None``: all tuples share
#: one partition, which is exactly the pre-partitioning behaviour.
_UNPARTITIONED = object()

#: Tuples processed between idle-partition sweeps.  Pruning only ever runs
#: against a partition's own tuples, so runs of a player who stopped
#: streaming need this periodic sweep to be reclaimed.
_IDLE_SWEEP_TUPLES = 512


@dataclass
class MatcherConfig:
    """Tuning knobs of the NFA runtime.

    Attributes
    ----------
    max_active_runs:
        Upper bound on simultaneously tracked partial matches *per
        partition*.  A user holding the start pose produces one matching
        tuple per frame; the bound keeps state (and per-tuple cost) constant
        without letting one player's noisy stream starve the others.  When
        the bound is reached no new runs are started in that partition until
        existing ones advance, finish or are pruned.  Completions are never
        suppressed: single-step patterns detect even at the cap because they
        need no run slot.
    run_ttl_seconds:
        Optional hard lifetime for a partial match, applied only while a
        run sits at a step that no ``within`` constraint covers (in
        particular: every step of a pattern with no ``within`` at all).
        Runs inside a constraint window are governed by that constraint
        alone, so long-window patterns are never cut short by the TTL.
        ``None`` disables the TTL.
    store_matched_tuples:
        Whether detections keep the full matched tuples (useful for
        debugging and the Fig. 5 style visual feedback) or only timestamps.
    timestamp_field:
        Tuple field carrying the event time in seconds.
    compile_predicates:
        Lower each step predicate to a generated function at deploy time
        (default).  When false the matcher interprets the expression AST
        per tuple — slower, but byte-identical in behaviour; kept for A/B
        benchmarking.
    partition_field:
        Tuple field that keys the run table (default ``"player"``, the
        Kinect player id).  Runs advance, prune and consume strictly within
        their own partition, so interleaved multi-user streams detect
        exactly like isolated single-user streams.  Tuples missing the field
        fall into one shared partition; ``None`` disables partitioning
        entirely (one global run table, the pre-partitioning semantics).
        Every stream of a pattern must agree on the field: a run started by
        a player-stamped tuple can only be advanced by tuples carrying the
        same value, so a query mixing streams *with* and *without* the
        field should be deployed with ``partition_field=None``.
    partition_idle_seconds:
        Drop all partial matches of a partition whose newest run activity is
        older than this (measured against the stream's latest event time).
        A player who left the scene mid-gesture otherwise parks runs — and
        stale :meth:`NFAMatcher.furthest_step` feedback — forever, since
        pruning only ever runs against a partition's own tuples.  Pick it
        far above every ``within`` window (players between gestures hold no
        runs at all, so eviction only ever hits abandoned mid-gesture
        state).  ``None`` disables the sweep; unpartitioned matchers never
        sweep (the seed's single-table lifetime rules apply unchanged).
    """

    max_active_runs: int = 256
    run_ttl_seconds: Optional[float] = 10.0
    store_matched_tuples: bool = True
    timestamp_field: str = "ts"
    compile_predicates: bool = True
    partition_field: Optional[str] = DEFAULT_PARTITION_FIELD
    partition_idle_seconds: Optional[float] = 30.0


@dataclass
class Detection:
    """A completed pattern match.

    ``partition`` is the value of the matcher's partition field shared by
    every tuple of the match (the player id on the default configuration);
    ``None`` when the matcher runs unpartitioned or the tuples carried no
    partition field.
    """

    output: str
    query_name: str
    timestamp: float
    start_timestamp: float
    step_timestamps: Tuple[float, ...]
    matched: Optional[Tuple[Mapping[str, Any], ...]] = None
    partition: Any = None

    @property
    def duration(self) -> float:
        """Seconds between the first and the last matched event."""
        return self.timestamp - self.start_timestamp

    def to_state(self) -> Dict[str, Any]:
        """A JSON-serialisable copy (snapshot / event-log format)."""
        return {
            "output": self.output,
            "query_name": self.query_name,
            "timestamp": self.timestamp,
            "start_timestamp": self.start_timestamp,
            "step_timestamps": list(self.step_timestamps),
            "matched": None
            if self.matched is None
            else [dict(record) for record in self.matched],
            "partition": self.partition,
        }

    @staticmethod
    def from_state(state: Mapping[str, Any]) -> "Detection":
        """Rebuild a detection from a :meth:`to_state` copy."""
        matched = state.get("matched")
        return Detection(
            output=str(state["output"]),
            query_name=str(state["query_name"]),
            timestamp=float(state["timestamp"]),
            start_timestamp=float(state["start_timestamp"]),
            step_timestamps=tuple(float(t) for t in state["step_timestamps"]),
            matched=None
            if matched is None
            else tuple(dict(record) for record in matched),
            partition=state.get("partition"),
        )

    def __repr__(self) -> str:
        who = f", player={self.partition!r}" if self.partition is not None else ""
        return (
            f"Detection(output={self.output!r}, t={self.timestamp:.3f}, "
            f"duration={self.duration:.3f}s{who})"
        )


@dataclass(eq=False)
class _Run:
    """One partial match.

    ``eq=False`` keeps identity comparison/hashing: two runs started by
    different users in the same frame carry identical field values, and run
    removal must never confuse them.  ``index`` is the run's slot in the
    matcher's run table, maintained by the swap-pop removal.
    """

    next_step: int
    start_timestamp: float
    step_timestamps: List[float] = field(default_factory=list)
    matched: List[Mapping[str, Any]] = field(default_factory=list)
    sequence_number: int = 0
    index: int = -1

    def progress(self, total_steps: int) -> float:
        return self.next_step / total_steps


@dataclass
class MatcherStats:
    """Counters exposed for the optimisation / throughput benchmarks.

    ``predicate_evaluations`` counts the comparisons actually evaluated: a
    step's predicate is judged at most once per tuple per partition (every
    run waiting at that step shares the verdict), and each judgement adds
    the step's comparison count.  It is a cost figure, so it is the one
    counter that may change when the matcher gets cheaper; all others
    describe behaviour and repeat exactly.

    ``runs_evicted`` counts idle-partition sweep reclamations only; those
    runs are *also* counted in ``runs_pruned`` (the historical aggregate),
    so ``runs_pruned`` keeps its old meaning of "runs discarded for any
    expiry reason".  ``gate_rejections`` counts tuples that arrived on the
    pattern's first stream but failed the first-step predicate — they
    never touched run state, which is exactly what the vectorized-kernel
    work needs to size its gating win.
    """

    tuples_processed: int = 0
    predicate_evaluations: int = 0
    gate_rejections: int = 0
    runs_started: int = 0
    runs_advanced: int = 0
    runs_completed: int = 0
    runs_pruned: int = 0
    runs_evicted: int = 0
    runs_suppressed: int = 0
    detections: int = 0

    def reset(self) -> None:
        self.tuples_processed = 0
        self.predicate_evaluations = 0
        self.gate_rejections = 0
        self.runs_started = 0
        self.runs_advanced = 0
        self.runs_completed = 0
        self.runs_pruned = 0
        self.runs_evicted = 0
        self.runs_suppressed = 0
        self.detections = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-number copy, keyed like the ``/metrics`` query families."""
        return {
            "tuples_processed": self.tuples_processed,
            "predicate_evaluations": self.predicate_evaluations,
            "gate_rejections": self.gate_rejections,
            "runs_started": self.runs_started,
            "runs_advanced": self.runs_advanced,
            "runs_completed": self.runs_completed,
            "runs_pruned": self.runs_pruned,
            "runs_evicted": self.runs_evicted,
            "runs_suppressed": self.runs_suppressed,
            "detections": self.detections,
        }


class NFAMatcher:
    """Evaluates one compiled gesture pattern against a tuple stream.

    Parameters
    ----------
    pattern:
        The flattened NFA description.
    output / query_name:
        Detection labels.
    functions:
        UDF registry predicates are resolved against.
    config:
        Runtime knobs; see :class:`MatcherConfig`.
    compile_cache:
        Optional engine-wide :class:`CompiledPredicateCache` so identical
        predicates across deployed queries share one generated function.
    """

    def __init__(
        self,
        pattern: CompiledPattern,
        output: str,
        query_name: str = "",
        functions: Optional[FunctionRegistry] = None,
        config: Optional[MatcherConfig] = None,
        compile_cache: Optional[CompiledPredicateCache] = None,
    ) -> None:
        self.pattern = pattern
        self.output = output
        self.query_name = query_name or output
        self.functions = functions or default_functions()
        self.config = config or MatcherConfig()
        self.stats = MatcherStats()
        # Run tables keyed by partition value (player id).  Entries exist
        # only while a partition has live runs, so idle players cost nothing.
        self._partitions: Dict[Any, List[_Run]] = {}
        self._partition_field = self.config.partition_field
        self._run_counter = 0
        self._tuples_since_sweep = 0

        steps = pattern.steps
        self._length = len(steps)
        self._step_streams: Tuple[str, ...] = tuple(step.stream for step in steps)
        self._step_costs: Tuple[int, ...] = tuple(
            step.predicate.predicate_count() or 1 for step in steps
        )
        if self.config.compile_predicates:
            if compile_cache is not None:
                predicates = tuple(compile_cache.compile(step.predicate) for step in steps)
            else:
                predicates = tuple(step.predicate.compile(self.functions) for step in steps)
        else:
            predicates = tuple(self._interpreted(step.predicate) for step in steps)
        self._step_predicates: Tuple[CompiledExpression, ...] = predicates
        self._first_stream = self._step_streams[0]
        self._first_predicate = predicates[0]
        self._relevant_streams = frozenset(self._step_streams)
        # Per-step constraint tables so the hot path never rebuilds lists.
        self._constraints_ending: Tuple[Tuple[Any, ...], ...] = tuple(
            tuple(pattern.constraints_ending_at(i)) for i in range(self._length)
        )
        self._constraints_covering: Tuple[Tuple[Any, ...], ...] = tuple(
            tuple(pattern.constraints_covering(i)) for i in range(self._length)
        )
        self._has_constraints = bool(pattern.constraints)
        # Active runs sit at positions 0..length-2; when any of those is not
        # covered by a constraint, the TTL can govern and batch processing
        # must prune per tuple to stay equivalent to the per-tuple path.
        self._ttl_can_apply = any(
            not self._constraints_covering[i] for i in range(max(self._length - 1, 0))
        )

    # -- introspection -------------------------------------------------------------

    @property
    def active_runs(self) -> int:
        """Number of partial matches currently tracked, over all partitions."""
        return sum(len(runs) for runs in self._partitions.values())

    @property
    def active_partitions(self) -> int:
        """Number of partitions (players) with at least one partial match."""
        return len(self._partitions)

    def partition_keys(self) -> List[Any]:
        """Partition values that currently hold partial matches."""
        return [
            None if key is _UNPARTITIONED else key for key in self._partitions
        ]

    def furthest_step(self, partition: Any = _UNPARTITIONED) -> int:
        """Index of the furthest step any partial match has reached.

        This is the "how far did my movement get" feedback of the testing
        phase: 0 means no pose has been matched yet, ``len(steps)`` would be
        a full match (which is reported as a detection instead).  Pass
        ``partition`` to restrict the answer to one player; the default
        looks across all partitions.
        """
        if partition is _UNPARTITIONED and self._partition_field is not None:
            tables: Sequence[List[_Run]] = list(self._partitions.values())
        else:
            key = partition if self._partition_field is not None else _UNPARTITIONED
            runs = self._partitions.get(key)
            tables = [runs] if runs else []
        best = 0
        for runs in tables:
            for run in runs:
                if run.next_step > best:
                    best = run.next_step
        return best

    def progress(self, partition: Any = _UNPARTITIONED) -> float:
        """Furthest progress as a fraction of the pattern length."""
        return self.furthest_step(partition) / self.pattern.length

    def reset(self) -> None:
        """Discard all partial matches (used when a query is redeployed)."""
        self._partitions.clear()

    # -- state capture / restore --------------------------------------------------------

    def capture_state(self) -> Dict[str, Any]:
        """Snapshot the full run state as a JSON-serialisable dictionary.

        Everything the matcher would need to continue *exactly* where it
        is: the per-partition run tables (step positions, timestamps and
        matched tuples by value, never by object identity), the run
        sequence counter (detection ordering under ``select first/last``
        depends on it), the idle-sweep phase, and the stats counters.
        Restoring the captured state into a matcher compiled from the same
        query text makes every subsequent detection byte-identical to an
        uninterrupted run — the recovery tests assert it on the
        interpreted, compiled and batched paths.

        Raises
        ------
        repro.errors.SerializationError
            If a partition key is not a JSON value (the default ``player``
            ids — ints, floats, strings — always are).
        """
        partitions = []
        for key, runs in self._partitions.items():
            if key is _UNPARTITIONED:
                encoded_key: Dict[str, Any] = {"unpartitioned": True}
            else:
                if key is not None and not isinstance(key, (str, int, float, bool)):
                    from repro.errors import SerializationError

                    raise SerializationError(
                        f"partition key {key!r} of query "
                        f"'{self.query_name}' is not JSON-serialisable; "
                        f"snapshots require scalar partition values"
                    )
                encoded_key = {"value": key}
            partitions.append(
                {
                    "key": encoded_key,
                    "runs": [
                        {
                            "next_step": run.next_step,
                            "start_timestamp": run.start_timestamp,
                            "step_timestamps": list(run.step_timestamps),
                            "matched": [dict(record) for record in run.matched],
                            "sequence_number": run.sequence_number,
                        }
                        for run in runs
                    ],
                }
            )
        stats = self.stats
        return {
            "kind": "nfa-matcher",
            "query_name": self.query_name,
            "run_counter": self._run_counter,
            "tuples_since_sweep": self._tuples_since_sweep,
            "stats": {
                "tuples_processed": stats.tuples_processed,
                "predicate_evaluations": stats.predicate_evaluations,
                "gate_rejections": stats.gate_rejections,
                "runs_started": stats.runs_started,
                "runs_advanced": stats.runs_advanced,
                "runs_completed": stats.runs_completed,
                "runs_pruned": stats.runs_pruned,
                "runs_evicted": stats.runs_evicted,
                "runs_suppressed": stats.runs_suppressed,
                "detections": stats.detections,
            },
            "partitions": partitions,
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Replace the run state with a :meth:`capture_state` snapshot.

        The matcher must have been built from the same pattern the
        snapshot was taken from (recovery redeploys the captured query
        text before restoring); predicates, constraints and configuration
        are *not* part of the state.
        """
        if state.get("kind") != "nfa-matcher":
            from repro.errors import SerializationError

            raise SerializationError(
                f"cannot restore query '{self.query_name}' from a "
                f"{state.get('kind')!r} state blob"
            )
        partitions: Dict[Any, List[_Run]] = {}
        for entry in state["partitions"]:
            encoded_key = entry["key"]
            key = _UNPARTITIONED if encoded_key.get("unpartitioned") else encoded_key["value"]
            runs: List[_Run] = []
            for run_state in entry["runs"]:
                run = _Run(
                    next_step=int(run_state["next_step"]),
                    start_timestamp=float(run_state["start_timestamp"]),
                    step_timestamps=[float(t) for t in run_state["step_timestamps"]],
                    matched=[dict(record) for record in run_state["matched"]],
                    sequence_number=int(run_state["sequence_number"]),
                    index=len(runs),
                )
                runs.append(run)
            if runs:
                partitions[key] = runs
        self._partitions = partitions
        self._run_counter = int(state["run_counter"])
        self._tuples_since_sweep = int(state["tuples_since_sweep"])
        stats_state = state.get("stats")
        if stats_state:
            self.stats.tuples_processed = int(stats_state["tuples_processed"])
            self.stats.predicate_evaluations = int(stats_state["predicate_evaluations"])
            self.stats.runs_started = int(stats_state["runs_started"])
            self.stats.runs_pruned = int(stats_state["runs_pruned"])
            self.stats.runs_suppressed = int(stats_state["runs_suppressed"])
            self.stats.detections = int(stats_state["detections"])
            # Counters added after PR 5's snapshot format: default to zero
            # so snapshots written by older builds still restore.
            self.stats.gate_rejections = int(stats_state.get("gate_rejections", 0))
            self.stats.runs_advanced = int(stats_state.get("runs_advanced", 0))
            self.stats.runs_completed = int(stats_state.get("runs_completed", 0))
            self.stats.runs_evicted = int(stats_state.get("runs_evicted", 0))

    # -- matching -----------------------------------------------------------------------

    def process(
        self,
        record: Mapping[str, Any],
        stream: str,
        timestamp: Optional[float] = None,
    ) -> List[Detection]:
        """Feed one tuple; return the detections it completed (possibly none).

        Parameters
        ----------
        record:
            The tuple.
        stream:
            Name of the stream the tuple arrived on; tuples from streams
            that appear nowhere in the pattern short-circuit immediately.
        timestamp:
            Event time; defaults to the tuple's timestamp field.
        """
        self.stats.tuples_processed += 1
        if stream not in self._relevant_streams:
            return []
        if timestamp is None:
            timestamp = float(record.get(self.config.timestamp_field, 0.0))
        key = self._partition_key(record)
        runs = self._partitions.get(key)
        if runs:
            self._prune(runs, timestamp)
        detections: List[Detection] = []
        self._process_tuple(record, stream, timestamp, key, detections)
        self._maybe_sweep(1, timestamp)
        return detections

    def process_many(
        self,
        records: Sequence[Mapping[str, Any]],
        stream: str,
    ) -> List[Detection]:
        """Feed a whole recording tuple-at-a-time; return all detections."""
        detections: List[Detection] = []
        for record in records:
            detections.extend(self.process(record, stream))
        return detections

    def process_batch(
        self,
        records: Sequence[Mapping[str, Any]],
        stream: str,
        timestamps: Optional[Sequence[float]] = None,
    ) -> List[Detection]:
        """Feed a chunk of tuples sharing one prune window.

        Expired runs are pruned once per partition, when the batch first
        touches that partition, instead of per tuple; ``within`` constraints
        are still enforced exactly whenever a run advances.  When the TTL
        can govern a run (some step is not covered by any constraint and
        ``run_ttl_seconds`` is set) pruning falls back to per tuple, and
        reaching the run cap mid-batch lazily evicts expired runs before
        suppressing a new one — so with monotone timestamps this produces
        the same detections as calling :meth:`process` per tuple (the
        batched benchmarks assert it, single- and multi-user).

        Parameters
        ----------
        records:
            The chunk, in arrival order.
        stream:
            Stream all tuples of the chunk arrived on.
        timestamps:
            Optional pre-extracted event times, parallel to ``records``;
            defaults to each tuple's timestamp field.
        """
        self.stats.tuples_processed += len(records)
        if not records or stream not in self._relevant_streams:
            return []
        if timestamps is None:
            timestamp_field = self.config.timestamp_field
            timestamps = [float(r.get(timestamp_field, 0.0)) for r in records]
        detections: List[Detection] = []
        if self._ttl_can_apply and self.config.run_ttl_seconds is not None:
            # TTL expiry is not re-checked on advancement (unlike within
            # constraints), so only per-tuple pruning keeps equivalence.
            for record, timestamp in zip(records, timestamps):
                key = self._partition_key(record)
                runs = self._partitions.get(key)
                if runs:
                    self._prune(runs, timestamp)
                self._process_tuple(record, stream, timestamp, key, detections)
            self._maybe_sweep(len(records), timestamps[-1])
            return detections
        pruned: set = set()
        for record, timestamp in zip(records, timestamps):
            key = self._partition_key(record)
            if key not in pruned:
                pruned.add(key)
                runs = self._partitions.get(key)
                if runs:
                    self._prune(runs, timestamp)
            self._process_tuple(record, stream, timestamp, key, detections)
        self._maybe_sweep(len(records), timestamps[-1])
        return detections

    # -- internals -----------------------------------------------------------------------

    def _interpreted(self, predicate: Expression) -> CompiledExpression:
        """Wrap ``predicate`` in the interpreted evaluation path."""
        functions = self.functions

        def evaluate(record: Mapping[str, Any]) -> bool:
            return bool(predicate.evaluate(record, functions))

        return evaluate

    def _partition_key(self, record: Mapping[str, Any]) -> Any:
        """Run-table key of a tuple (``_UNPARTITIONED`` when partitioning is off)."""
        if self._partition_field is None:
            return _UNPARTITIONED
        return record.get(self._partition_field)

    def _process_tuple(
        self,
        record: Mapping[str, Any],
        stream: str,
        timestamp: float,
        key: Any,
        detections: List[Detection],
    ) -> None:
        """Advance runs / start a run for one tuple; append its detections.

        Only the tuple's own partition is touched: other players' runs are
        invisible to this tuple.
        """
        stats = self.stats
        partitions = self._partitions
        runs = partitions.get(key)
        completed: List[_Run] = []

        # Advance existing runs (each run by at most one step per tuple).
        # Runs of a partition crowd onto few steps, so each step's predicate
        # is judged at most once per tuple and the verdict shared.
        if runs:
            step_streams = self._step_streams
            step_predicates = self._step_predicates
            step_costs = self._step_costs
            store_tuples = self.config.store_matched_tuples
            verdicts: List[Optional[bool]] = [None] * self._length
            for run in list(runs):
                index = run.next_step
                if step_streams[index] != stream:
                    continue
                verdict = verdicts[index]
                if verdict is None:
                    stats.predicate_evaluations += step_costs[index]
                    verdict = verdicts[index] = bool(step_predicates[index](record))
                if not verdict:
                    continue
                if not self._satisfies_constraints(run, timestamp):
                    self._remove_run(runs, run)
                    stats.runs_pruned += 1
                    continue
                run.next_step = index + 1
                run.step_timestamps.append(timestamp)
                stats.runs_advanced += 1
                if store_tuples:
                    run.matched.append(dict(record))
                if run.next_step >= self._length:
                    completed.append(run)
                    self._remove_run(runs, run)

        # Possibly start a new run from this tuple.
        if stream == self._first_stream:
            stats.predicate_evaluations += self._step_costs[0]
            if not self._first_predicate(record):
                stats.gate_rejections += 1
            else:
                if self._length == 1:
                    # A single-step match never occupies a run slot, so the
                    # run cap must not suppress it.
                    completed.append(self._new_run(record, timestamp))
                else:
                    if runs is None:
                        runs = partitions.setdefault(key, [])
                    if (
                        len(runs) >= self.config.max_active_runs
                        and not self._evict_expired(runs, timestamp)
                    ):
                        stats.runs_suppressed += 1
                    else:
                        run = self._new_run(record, timestamp)
                        run.index = len(runs)
                        runs.append(run)

        if completed:
            stats.runs_completed += len(completed)
            detections.extend(self._report(key, completed, timestamp))
        # Drop emptied partitions so the table only tracks live players.
        if runs is not None and not runs:
            partitions.pop(key, None)

    def _new_run(self, record: Mapping[str, Any], timestamp: float) -> _Run:
        run = _Run(
            next_step=1,
            start_timestamp=timestamp,
            step_timestamps=[timestamp],
            matched=[dict(record)] if self.config.store_matched_tuples else [],
            sequence_number=self._run_counter,
        )
        self._run_counter += 1
        self.stats.runs_started += 1
        return run

    def _maybe_sweep(self, count: int, now: float) -> None:
        """Periodically drop partitions of players who stopped streaming.

        A partition is only ever pruned by its own tuples, so a player who
        leaves the scene mid-gesture would park runs (and stale progress
        feedback) forever.  Every ``_IDLE_SWEEP_TUPLES`` tuples, partitions
        whose newest run activity lags the stream's event time by more than
        ``partition_idle_seconds`` are reclaimed.  Unpartitioned matchers
        never sweep — the single table keeps the seed's lifetime rules.
        """
        self._tuples_since_sweep += count
        if self._tuples_since_sweep < _IDLE_SWEEP_TUPLES:
            return
        self._tuples_since_sweep = 0
        idle = self.config.partition_idle_seconds
        if idle is None or self._partition_field is None:
            return
        stale = [
            key
            for key, runs in self._partitions.items()
            if now - max(run.step_timestamps[-1] for run in runs) > idle
        ]
        for key in stale:
            reclaimed = len(self._partitions.pop(key))
            self.stats.runs_pruned += reclaimed
            self.stats.runs_evicted += reclaimed

    def _evict_expired(self, runs: List[_Run], timestamp: float) -> bool:
        """At the run cap, prune expired runs; return whether a slot freed up.

        The batched path prunes once per chunk, so expired runs may still
        occupy slots mid-batch; evicting them lazily here keeps cap
        behaviour identical to the per-tuple path (which prunes before
        every tuple).  On the per-tuple path this re-prune is a no-op.
        """
        self._prune(runs, timestamp)
        return len(runs) < self.config.max_active_runs

    def _satisfies_constraints(self, run: _Run, timestamp: float) -> bool:
        """Check the ``within`` constraints that end at the step being entered."""
        # Explicit loop, not all(...): runs once per candidate tuple per run.
        for constraint in self._constraints_ending[run.next_step]:  # noqa: SIM110
            if timestamp - run.step_timestamps[constraint.first] > constraint.seconds:
                return False
        return True

    def _prune(self, runs: List[_Run], timestamp: float) -> None:
        """Drop one partition's runs that can no longer complete in time.

        A run inside a ``within`` constraint window is pruned by that
        constraint alone; the TTL fallback applies only while a run sits at
        a step no constraint covers (see :class:`MatcherConfig`), so
        long-window patterns are never cut short while runs at uncovered
        steps still cannot accumulate forever.  Pruning happens with the
        partition's own event time, never another player's, so interleaving
        cannot change when a run expires.
        """
        ttl = self.config.run_ttl_seconds
        if not self._has_constraints and ttl is None:
            return
        covering = self._constraints_covering
        expired: List[_Run] = []
        for run in runs:
            constraints = covering[run.next_step - 1]
            for constraint in constraints:
                if timestamp - run.step_timestamps[constraint.first] > constraint.seconds:
                    expired.append(run)
                    break
            else:
                if (
                    not constraints
                    and ttl is not None
                    and timestamp - run.start_timestamp > ttl
                ):
                    expired.append(run)
        # Emptied partitions are dropped by _process_tuple's cleanup (pruning
        # is always followed by processing a tuple of the same partition);
        # popping here would orphan the list _process_tuple still appends to.
        for run in expired:
            self._remove_run(runs, run)
        self.stats.runs_pruned += len(expired)

    def _remove_run(self, runs: List[_Run], run: _Run) -> None:
        """O(1) removal by identity: swap the last run into the freed slot."""
        index = run.index
        if index < 0 or index >= len(runs) or runs[index] is not run:
            return  # already removed (e.g. cleared by consume all)
        last = runs.pop()
        if last is not run:
            runs[index] = last
            last.index = index
        run.index = -1

    def _report(
        self, key: Any, completed: List[_Run], timestamp: float
    ) -> List[Detection]:
        completed.sort(key=lambda run: run.sequence_number)
        if self.pattern.select is SelectPolicy.FIRST:
            selected = [completed[0]]
        elif self.pattern.select is SelectPolicy.LAST:
            selected = [completed[-1]]
        else:
            selected = completed

        partition = None if key is _UNPARTITIONED else key
        detections = [
            Detection(
                output=self.output,
                query_name=self.query_name,
                timestamp=timestamp,
                start_timestamp=run.start_timestamp,
                step_timestamps=tuple(run.step_timestamps),
                matched=tuple(run.matched) if self.config.store_matched_tuples else None,
                partition=partition,
            )
            for run in selected
        ]
        self.stats.detections += len(detections)

        if self.pattern.consume is ConsumePolicy.ALL:
            # Consumption is per player: only the completing partition's
            # partial matches are discarded.
            runs = self._partitions.get(key)
            if runs:
                for run in runs:
                    run.index = -1
                runs.clear()
        return detections
