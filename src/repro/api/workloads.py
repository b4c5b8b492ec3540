"""Workload adapters: one contract between workload domains and engines.

Each adapter wraps one of the paper's application domains (DNA motif
search, bitmap databases, network intrusion detection, graph BFS,
bit-parallel string matching, sequential pattern mining) and presents it
through the surfaces the engines consume:

* **MVP surface** -- ``mvp_geometry()`` + ``run_mvp`` /
  ``run_mvp_batched`` lower the workload to macro-instruction programs
  (or drive the processor directly, as BFS does);
* **AP surface** -- ``build_automaton()`` + ``streams()`` +
  ``check_ap()`` compile the workload to a homogeneous automaton and
  score the traces against an exact software golden reference;
* **analog MVM surface** -- ``mvm_layers()`` supplies the weight
  matrices the ``analog_mvm`` engine maps to crossbar tiles, and
  ``run_analog_window()`` drives a window's evaluation through its
  per-item fabrics as one :class:`~repro.mvm.analog.
  AnalogAcceleratorGroup` (one item is a group of one), scoring each
  item against the workload's float reference into an
  :class:`~repro.mvm.accuracy.AccuracySummary`;
* **arch surface** -- ``arch_workload()`` summarizes the domain as the
  Fig. 4 offload mix.

``engines`` declares which execution engines a domain supports; asking
an unsupported combination raises :class:`ScenarioError` naming both
sides.  Every adapter is a pure function of its
:class:`~repro.api.spec.ScenarioSpec` (all randomness flows from
``spec.seed``), so facade results are reproducible and the golden
checks (``outputs["checks_passed"]``) are deterministic.

**Entropy derivation and batch windows.**  ``spec.seed`` is the single
entropy root.  Adapters never share one sequentially-drawn generator
across artifacts; instead every artifact draws from its own child
stream derived via :class:`numpy.random.SeedSequence` spawn keys:

* batch-wide artifacts (query sets, rule sets, pattern sets) use
  ``shared_rng(stream)``;
* per-item artifacts (tables, references, payloads, texts,
  transactions) use ``item_rng(index)``, keyed by the item's *absolute*
  batch index.

Because item ``i``'s data depends only on ``(spec.seed, i)``, an
adapter constructed over a batch *window* -- ``adapter_for(spec,
engine, window=(offset, count))`` -- generates exactly the slice
``[offset, offset + count)`` of the full batch's data.  That is the
contract the sharded executor (:mod:`repro.parallel`) is built on:
``workers=N`` runs N windowed adapters whose concatenated results are
bit-identical to the ``workers=1`` run.
"""

from __future__ import annotations

import math
import string
import threading
from collections import OrderedDict
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.registry import WORKLOADS
from repro.api.spec import ScenarioSpec
from repro.arch.params import WorkloadParameters
from repro.automata.homogeneous import HomogeneousAutomaton, homogenize
from repro.automata.regex import compile_automaton
from repro.automata.symbols import Alphabet
from repro.mvm.accuracy import AccuracySummary
from repro.mvm.analog import AnalogAcceleratorGroup
from repro.mvp.isa import Instruction
from repro.workloads.database import evaluate_query, lower_query
from repro.workloads.datamining import (
    ITEM_ALPHABET,
    contains_in_order,
    generate_patterns,
    generate_transaction,
    pattern_to_regex,
)
from repro.workloads.mlp import blob_means, sample_blobs, train_mlp
from repro.workloads.temporal import (
    correlation_scores,
    make_correlated_processes,
    top_k_mask,
)
from repro.workloads import (
    BitmapIndex,
    MultiPatternMatcher,
    bfs_levels_golden,
    adjacency_bits,
    generate_payload,
    generate_ruleset,
    make_motif_dataset,
    motif_nfa,
    mvp_bfs,
    random_graph,
    random_query,
    random_table,
)
from repro.workloads.networking import PAYLOAD_ALPHABET

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.automata.generic_ap import APTrace
    from repro.mvp import BatchedMVPProcessor, MVPProcessor

__all__ = [
    "ScenarioError",
    "WorkloadAdapter",
    "adapter_for",
    "merge_outputs",
]

#: Alphabet for the string-matching domain (literal lowercase patterns).
_TEXT_ALPHABET = Alphabet(string.ascii_lowercase)
#: Its letters as an array: ``rng.choice`` draws the same letters from
#: it as from the list it would otherwise convert on every call.
_TEXT_LETTERS = np.array(list(string.ascii_lowercase))

#: Spawn-key axes under ``spec.seed`` (see the module docstring): axis 0
#: holds the batch-wide shared streams, axis 1 the per-item streams.
_SHARED_AXIS = 0
_ITEM_AXIS = 1


class ScenarioError(ValueError):
    """A spec combines registered pieces in an unsupported way."""


def merge_outputs(
    shard_outputs: list[dict[str, Any]],
    item_keys: frozenset[str] = frozenset(),
    sum_keys: frozenset[str] = frozenset(),
) -> dict[str, Any]:
    """Merge per-shard output dicts into the whole-batch outputs.

    The item axis cannot be inferred from values -- a one-item shard's
    ``accepted == [False]`` looks exactly like a batch-wide constant --
    so each adapter *declares* how its keys merge and this function
    applies the declaration per key (all shards must share one key set):

    * ``checks_passed`` -- logical AND (every shard's golden check);
    * ``item_keys`` -- per-item lists, concatenated in shard order;
    * ``sum_keys`` -- roll-up tallies: numbers (or dicts of numbers,
      recursively) summed across shards;
    * everything else must be a batch-wide artifact -- equal in every
      shard (pattern lists, rule counts, the motif string) -- and is
      kept as-is.

    A key that fits none of these raises :class:`ScenarioError` naming
    it, so a new output shape fails loudly instead of merging wrongly;
    adapters with bespoke shapes override ``merge_shard_outputs`` (as
    the database adapter does for its query-major nesting).
    """
    if not shard_outputs:
        raise ValueError("need at least one shard output")
    first_keys = list(shard_outputs[0])
    for outputs in shard_outputs[1:]:
        if set(outputs) != set(first_keys):
            raise ScenarioError(
                "shard outputs disagree on keys: "
                f"{sorted(set(outputs) ^ set(first_keys))}"
            )
    if len(shard_outputs) == 1:
        return dict(shard_outputs[0])
    merged = {}
    for key in first_keys:
        values = [s[key] for s in shard_outputs]
        if key == "checks_passed":
            merged[key] = all(bool(v) for v in values)
        elif key in item_keys:
            if not all(isinstance(v, (list, tuple)) for v in values):
                raise ScenarioError(
                    f"shard output {key!r} is declared per-item but is "
                    "not a list in every shard"
                )
            merged[key] = [item for v in values for item in v]
        elif key in sum_keys:
            merged[key] = _sum_values(key, values)
        else:
            merged[key] = _require_equal(key, values)
    return merged


def _sum_values(key: str, values: list[Any]) -> Any:
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           for v in values):
        return sum(values)
    if all(isinstance(v, dict) for v in values):
        keys = list(values[0])
        if any(set(v) != set(keys) for v in values[1:]):
            raise ScenarioError(
                f"cannot sum shard output {key!r}: nested dicts "
                "disagree on keys"
            )
        return {k: _sum_values(k, [v[k] for v in values]) for k in keys}
    raise ScenarioError(
        f"cannot sum shard output {key!r}: values are neither numbers "
        "nor dicts of numbers"
    )


def _require_equal(key: str, values: list[Any]) -> Any:
    from repro.api.result import jsonify

    canon = [jsonify(v) for v in values]
    if all(c == canon[0] for c in canon[1:]):
        return values[0]
    raise ScenarioError(
        f"cannot merge shard output {key!r}: expected a batch-wide "
        "value equal in every shard (declare it in item_output_keys "
        "or sum_output_keys if it carries the item axis)"
    )


class WorkloadAdapter:
    """Base adapter: shared plumbing plus the unsupported-surface errors.

    Args:
        spec: the scenario being run; all sizes and randomness derive
            from it.
        window: optional ``(offset, count)`` batch window.  The adapter
            then generates (and checks) only items ``offset`` through
            ``offset + count - 1`` of the full batch -- the same data
            those items carry in a whole-batch adapter.  Default: the
            full batch.
    """

    #: Registry name (set by subclasses).
    name = ""
    #: One-line summary shown by ``repro list workloads``.
    description = ""
    #: Engine names this workload can serve.
    engines: frozenset[str] = frozenset()
    #: Whether AP runs re-arm start states each symbol (pattern search).
    unanchored = True
    #: Share of this domain's operations the MVP system can offload.
    arch_accelerated_fraction = 0.7
    #: Output keys carrying the item axis (one entry per batch item);
    #: shard merges concatenate these in batch order.
    item_output_keys: frozenset[str] = frozenset()
    #: Output keys that are roll-up tallies; shard merges sum these.
    sum_output_keys: frozenset[str] = frozenset()

    def __init__(
        self,
        spec: ScenarioSpec,
        window: tuple[int, int] | None = None,
    ) -> None:
        self.spec = spec
        if window is None:
            window = (0, spec.batch)
        offset, count = window
        if not (isinstance(offset, int) and isinstance(count, int)) \
                or offset < 0 or count < 1 \
                or offset + count > spec.batch:
            raise ScenarioError(
                f"window {window!r} does not fit batch {spec.batch} "
                "(need 0 <= offset, 1 <= count, offset + count <= batch)"
            )
        self.window = (offset, count)
        #: Absolute batch indices this adapter instantiates.
        self.batch_indices = tuple(range(offset, offset + count))

    @property
    def window_batch(self) -> int:
        """Items in this adapter's window (== ``spec.batch`` unwindowed)."""
        return len(self.batch_indices)

    # -- entropy derivation ------------------------------------------------------

    def seed_sequence(self, *key: int) -> np.random.SeedSequence:
        """A child entropy stream of ``spec.seed`` at spawn key ``key``.

        ``SeedSequence(seed, spawn_key=(k,))`` is exactly the k-th child
        ``SeedSequence(seed).spawn()`` would produce, so derived streams
        are stable regardless of how many siblings exist or in which
        order they are instantiated.
        """
        return np.random.SeedSequence(self.spec.seed, spawn_key=key)

    def shared_rng(self, stream: int = 0) -> np.random.Generator:
        """Generator for a batch-wide artifact (same in every window)."""
        return np.random.default_rng(
            self.seed_sequence(_SHARED_AXIS, stream))

    def item_rng(self, index: int) -> np.random.Generator:
        """Generator for batch item ``index`` (absolute, window-free).

        Every per-item artifact draws from its own child stream, so an
        item's data is a pure function of ``(spec.seed, index)`` --
        never of the batch size, the window, or sibling items.
        """
        if not 0 <= index < self.spec.batch:
            raise ScenarioError(
                f"item index {index} out of range [0, {self.spec.batch})"
            )
        return np.random.default_rng(
            self.seed_sequence(_ITEM_AXIS, index))

    # -- shard merging -----------------------------------------------------------

    def merge_shard_outputs(
        self, shard_outputs: list[dict[str, Any]]
    ) -> dict[str, Any]:
        """Merge windowed-run outputs (shard order) into batch outputs.

        The default applies :func:`merge_outputs` under this adapter's
        ``item_output_keys`` / ``sum_output_keys`` declarations;
        adapters whose outputs nest the item axis differently override
        this.
        """
        return merge_outputs(shard_outputs,
                             item_keys=self.item_output_keys,
                             sum_keys=self.sum_output_keys)

    def require_engine(self, engine: str) -> None:
        """Fail fast when ``engine`` cannot serve this workload."""
        if engine not in self.engines:
            supported = ", ".join(sorted(self.engines))
            raise ScenarioError(
                f"workload {self.name!r} does not support engine "
                f"{engine!r} (supported: {supported})"
            )

    def surface_params(self, engine: str) -> frozenset[str]:
        """``spec.params`` keys the ``engine`` surface of this workload
        actually reads.

        Engines reject params neither this nor their own
        ``engine_params`` recognize, so a typoed knob -- or a knob that
        only another surface would honour -- fails loudly instead of
        silently running with defaults.
        """
        if engine == "arch_model":
            return frozenset({"accelerated_fraction"})
        return frozenset()

    # -- MVP surface -------------------------------------------------------------

    def mvp_geometry(self) -> tuple[int, int]:
        """(rows, cols) of the crossbar an MVP engine must build.

        ``rows`` already includes the processor's reserved all-ones
        constant row, so ``Crossbar(*adapter.mvp_geometry())`` is the
        correct construction -- no headroom arithmetic at call sites.
        """
        raise ScenarioError(
            f"workload {self.name!r} has no MVP lowering"
        )

    def mvp_programs(self) -> list[list[Instruction]]:
        """The lowered MVP programs the batched engine executes."""
        raise ScenarioError(
            f"workload {self.name!r} has no batched MVP lowering"
        )

    def run_mvp(self, processor: "MVPProcessor") -> dict[str, Any]:
        """Execute on a single-item MVP; returns the outputs dict."""
        raise ScenarioError(
            f"workload {self.name!r} has no MVP lowering"
        )

    def run_mvp_batched(
        self, processor: "BatchedMVPProcessor"
    ) -> dict[str, Any]:
        """Execute on a batched MVP; returns the outputs dict."""
        raise ScenarioError(
            f"workload {self.name!r} has no batched MVP lowering"
        )

    # -- AP surface --------------------------------------------------------------

    def build_automaton(self) -> HomogeneousAutomaton:
        """The homogeneous automaton the AP engine configures."""
        raise ScenarioError(
            f"workload {self.name!r} has no automaton form"
        )

    def streams(self) -> list[str]:
        """Input symbol streams (one per batch item)."""
        raise ScenarioError(
            f"workload {self.name!r} has no automaton form"
        )

    def check_ap(self, traces: list["APTrace"]) -> dict[str, Any]:
        """Score AP traces against the golden reference; outputs dict."""
        raise ScenarioError(
            f"workload {self.name!r} has no automaton form"
        )

    # -- analog MVM surface ------------------------------------------------------

    def mvm_layers(self, index: int) -> list[np.ndarray]:
        """Float weight matrices, in application order, for the
        ``analog_mvm`` engine to map onto crossbar tiles.

        Args:
            index: absolute batch index (workloads whose matrices are
                batch-wide, like a shared trained model, ignore it).
        """
        raise ScenarioError(
            f"workload {self.name!r} has no analog MVM form"
        )

    def run_analog_window(
        self, indexes, accelerators
    ) -> list[tuple[dict[str, Any], AccuracySummary]]:
        """Run a window of items through their per-item fabrics.

        The ``analog_mvm`` engine's one analog entry point.  The
        window's accelerators run as one
        :class:`~repro.mvm.analog.AnalogAcceleratorGroup`, a 1-item
        window as a group of one, and each item's outputs, accuracy
        and ledger are bit-identical whatever window it runs in, so
        window composition (and hence sharding) never changes results.

        Args:
            indexes: absolute batch indexes, in window order.
            accelerators: the matching per-item
                :class:`~repro.mvm.analog.AnalogAccelerator` objects.

        Returns:
            One ``(outputs, accuracy)`` pair per item, in window order:
            a per-item outputs dict (item-axis keys as one-entry lists,
            mergeable by ``merge_shard_outputs``) and the item's
            :class:`~repro.mvm.accuracy.AccuracySummary`.
        """
        raise ScenarioError(
            f"workload {self.name!r} has no analog MVM form"
        )

    # -- arch surface ------------------------------------------------------------

    def arch_workload(self) -> WorkloadParameters:
        """The Fig. 4 offload mix this domain presents."""
        fraction = float(self.spec.params.get(
            "accelerated_fraction", self.arch_accelerated_fraction
        ))
        return WorkloadParameters(accelerated_fraction=fraction)


def adapter_for(
    spec: ScenarioSpec,
    engine: str,
    window: tuple[int, int] | None = None,
) -> WorkloadAdapter:
    """Instantiate the adapter for ``spec`` and check engine support.

    Args:
        spec: the scenario.
        engine: the engine surface that will drive the adapter.
        window: optional ``(offset, count)`` batch window for sharded
            execution (see :class:`WorkloadAdapter`).
    """
    adapter_cls = WORKLOADS.get(spec.workload)
    adapter = adapter_cls(spec, window=window)
    adapter.require_engine(engine)
    return adapter


# ---------------------------------------------------------------------------
# database: bitmap-index CNF queries -> bulk AND/OR (MVP)
# ---------------------------------------------------------------------------


@WORKLOADS.register("database")
class DatabaseAdapter(WorkloadAdapter):
    """Bitmap-index analytics: CNF queries as in-memory AND/OR/POPCOUNT.

    ``size`` is the table row count (= crossbar columns), ``items`` the
    number of queries, ``batch`` the number of independent tables served
    by one batched run (same query plan, per-item bitmap data).
    """

    name = "database"
    description = ("bitmap-index CNF analytics as in-memory "
                   "AND/OR/POPCOUNT")
    engines = frozenset({"mvp", "mvp_batched", "arch_model"})
    arch_accelerated_fraction = 0.9

    _CARDINALITIES = [8, 5, 4]

    @cached_property
    def _queries(self) -> list:
        """Batch-wide query set: one shared child stream, window-free."""
        rng = self.shared_rng(0)
        return [
            random_query(rng, self._CARDINALITIES, n_terms=2)
            for _ in range(self.spec.items)
        ]

    @cached_property
    def _columns(self) -> np.ndarray:
        """The window's tables as one column-major (window, columns,
        size) int8 stack.

        ``_columns[k].T`` is the table :func:`random_table` draws from
        item ``batch_indices[k]``'s own stream, as a lone table would
        be (every cardinality fits int8).  Column-major, each bitmap
        compare reads contiguous values.
        """
        columns = np.empty(
            (self.window_batch, len(self._CARDINALITIES), self.spec.size),
            dtype=np.int8)
        for k, index in enumerate(self.batch_indices):
            columns[k] = random_table(
                self.item_rng(index), self.spec.size, self._CARDINALITIES).T
        return columns

    @cached_property
    def _indexes(self) -> list[BitmapIndex]:
        """One :class:`BitmapIndex` per windowed item, over its table in
        the stack (a view: no bitmap is built until asked for)."""
        return [BitmapIndex(columns.T) for columns in self._columns]

    def _bitmaps(self, column: int, value: int) -> np.ndarray:
        """(window, size) row masks of one equality predicate: one
        compare over the whole stack."""
        return self._columns[:, column] == value

    def _lower(self, query) -> tuple[list[Instruction], int]:
        """Lower one query via the shared legacy row-allocation scheme.

        Both paths run :func:`repro.workloads.database.lower_query` --
        the function behind ``BitmapIndex.to_mvp_program`` -- so facade
        programs are instruction-identical to the legacy lowering; with
        batch > 1 each VLOAD payload stacks the window's bitmaps.
        """
        if self.window_batch == 1:
            return self._indexes[0].to_mvp_program(query)
        return lower_query(query, self._bitmaps)

    @cached_property
    def _programs(self) -> list[tuple[list[Instruction], int]]:
        return [self._lower(q) for q in self._queries]

    def mvp_programs(self) -> list[list[Instruction]]:
        """The lowered macro-instruction programs, one per query.

        Public so benches and equivalence tests can execute exactly the
        facade's programs on the processors directly.
        """
        return [program for program, _ in self._programs]

    def mvp_geometry(self) -> tuple[int, int]:
        rows = max(rows_used for _, rows_used in self._programs)
        return rows + 1, self.spec.size  # + the reserved ones row

    def _golden_counts(self) -> list[list[int]]:
        """``counts[query][item]``: each query's CNF evaluated once over
        the stacked bitmaps of the whole window."""
        shape = (self.window_batch, self.spec.size)
        return [
            evaluate_query(query, self._bitmaps, shape).sum(axis=1).tolist()
            for query in self._queries
        ]

    def run_mvp(self, processor: "MVPProcessor") -> dict[str, Any]:
        counts = []
        for program in self.mvp_programs():
            counts.append(int(processor.execute(program)[-1]))
        golden = [per_item[0] for per_item in self._golden_counts()]
        return {
            "counts": counts,
            "golden_counts": golden,
            "checks_passed": counts == golden,
        }

    def run_mvp_batched(
        self, processor: "BatchedMVPProcessor"
    ) -> dict[str, Any]:
        counts = []
        for program in self.mvp_programs():
            per_item = processor.execute(program)[-1]
            counts.append([int(c) for c in per_item])
        golden = self._golden_counts()
        return {
            "counts": counts,
            "golden_counts": golden,
            "checks_passed": counts == golden,
        }

    def merge_shard_outputs(
        self, shard_outputs: list[dict[str, Any]]
    ) -> dict[str, Any]:
        """Batched outputs are query-major (``counts[query][item]``), so
        the generic list-concat policy would splice along the wrong
        axis; concatenate the per-item inner lists query by query."""
        merged: dict[str, Any] = {}
        for key in ("counts", "golden_counts"):
            if key in shard_outputs[0]:
                merged[key] = [
                    [c for chunk in per_query for c in chunk]
                    for per_query in zip(*(s[key] for s in shard_outputs))
                ]
        rest = [
            {k: v for k, v in s.items() if k not in merged}
            for s in shard_outputs
        ]
        merged.update(merge_outputs(rest,
                                    item_keys=self.item_output_keys,
                                    sum_keys=self.sum_output_keys))
        return merged


# ---------------------------------------------------------------------------
# graph: frontier BFS, one scouting OR per level (MVP)
# ---------------------------------------------------------------------------


@WORKLOADS.register("graph")
class GraphAdapter(WorkloadAdapter):
    """Frontier BFS on the MVP: each level is one multi-row scouting OR.

    ``size`` is the vertex count; the expected out-degree comes from
    ``params["avg_degree"]`` (default 3.0; a finite number >= 0).  BFS
    drives the processor interactively (data-dependent frontiers), so
    there is no batched lowering.
    """

    name = "graph"
    description = "frontier BFS, one multi-row scouting OR per level"
    engines = frozenset({"mvp", "arch_model"})
    arch_accelerated_fraction = 0.8

    def surface_params(self, engine: str) -> frozenset[str]:
        if engine == "mvp":
            return frozenset({"avg_degree"})
        return super().surface_params(engine)

    @cached_property
    def _graph(self):
        if self.spec.size < 2:
            raise ScenarioError(
                f"graph size {self.spec.size} is below the 2 vertices a "
                "BFS graph needs"
            )
        raw = self.spec.params.get("avg_degree", 3.0)
        try:
            degree = float(raw)
        except (TypeError, ValueError):
            degree = math.nan
        if not (math.isfinite(degree) and degree >= 0):
            raise ScenarioError(
                f"graph avg_degree {raw!r} is not a finite number >= 0")
        return random_graph(self.shared_rng(0), self.spec.size, degree)

    def mvp_geometry(self) -> tuple[int, int]:
        return self.spec.size + 1, self.spec.size  # + the reserved ones row

    def run_mvp(self, processor: "MVPProcessor") -> dict[str, Any]:
        adjacency = adjacency_bits(self._graph)
        result = mvp_bfs(processor, adjacency, source=0)
        golden = bfs_levels_golden(self._graph, 0)
        return {
            "levels": {int(v): int(l) for v, l in result.levels.items()},
            "frontier_sizes": list(result.frontier_sizes),
            "reached": len(result.levels),
            "checks_passed": result.levels == golden,
        }


# ---------------------------------------------------------------------------
# dna: IUPAC motif search (AP)
# ---------------------------------------------------------------------------


@WORKLOADS.register("dna")
class DnaAdapter(WorkloadAdapter):
    """Degenerate-motif search over synthetic references (AP pipeline).

    ``size`` is the reference length, ``items`` the planted copies per
    reference, ``batch`` the number of independent references (input
    streams).  The motif defaults to the TATA-box consensus and can be
    overridden via ``params["motif"]``.
    """

    name = "dna"
    description = ("IUPAC degenerate-motif search over synthetic "
                   "references")
    engines = frozenset({"rram_ap", "arch_model"})
    unanchored = True
    arch_accelerated_fraction = 0.85
    item_output_keys = frozenset({"match_counts", "accepted"})

    def surface_params(self, engine: str) -> frozenset[str]:
        if engine == "rram_ap":
            return frozenset({"motif"})
        return super().surface_params(engine)

    @property
    def motif(self) -> str:
        return str(self.spec.params.get("motif", "TATAWR"))

    @cached_property
    def _datasets(self):
        try:
            return [
                make_motif_dataset(
                    self.item_rng(i), self.spec.size, self.motif,
                    self.spec.items
                )
                for i in self.batch_indices
            ]
        except ValueError as exc:
            raise ScenarioError(
                f"dna reference size {self.spec.size} cannot hold "
                f"{self.spec.items} plant(s) of motif {self.motif!r}: {exc}"
            ) from exc

    def build_automaton(self) -> HomogeneousAutomaton:
        return homogenize(motif_nfa(self.motif))

    def streams(self) -> list[str]:
        return [d.sequence for d in self._datasets]

    def check_ap(self, traces: list["APTrace"]) -> dict[str, Any]:
        match_counts = [len(t.match_ends) for t in traces]
        missed = [
            sorted(set(d.planted_ends) - set(t.match_ends))
            for d, t in zip(self._datasets, traces)
        ]
        return {
            "motif": self.motif,
            "match_counts": match_counts,
            "planted_per_stream": self.spec.items,
            "checks_passed": all(not m for m in missed),
        }


# ---------------------------------------------------------------------------
# networking: IDS signature scanning (AP)
# ---------------------------------------------------------------------------


@WORKLOADS.register("networking")
class NetworkingAdapter(WorkloadAdapter):
    """Deep packet inspection: a merged signature set scans payloads.

    ``size`` is the payload length, ``items`` the rule-set size,
    ``batch`` the number of packet streams; stream ``k`` carries one
    planted attack from rule ``k mod items``.
    """

    name = "networking"
    description = ("deep packet inspection against a merged IDS "
                   "signature set")
    engines = frozenset({"rram_ap", "arch_model"})
    unanchored = True
    arch_accelerated_fraction = 0.75
    item_output_keys = frozenset({
        "alerts_per_stream", "planted_detected", "accepted",
    })

    @cached_property
    def _rules(self):
        return generate_ruleset(self.shared_rng(0), self.spec.items)

    @cached_property
    def _payloads(self) -> list[tuple[str, int]]:
        """(payload, planted match end) per windowed stream."""
        payloads = []
        for k in self.batch_indices:
            rule = self._rules[k % len(self._rules)]
            room = self.spec.size - len(rule.example)
            if room < 0:
                raise ScenarioError(
                    f"networking payload size {self.spec.size} cannot hold "
                    f"rule example of length {len(rule.example)}"
                )
            # One child stream per stream index: placement and filler
            # depend only on (seed, k), never on sibling streams.
            rng = self.item_rng(k)
            # Offsets 0..room inclusive are all valid placements (room
            # itself plants the attack flush against the stream end).
            offset = int(rng.integers(0, room + 1))
            payload = generate_payload(
                rng, self.spec.size, [(rule, offset)]
            )
            payloads.append((payload, offset + len(rule.example)))
        return payloads

    def build_automaton(self) -> HomogeneousAutomaton:
        return compile_automaton([rule.pattern for rule in self._rules],
                                 PAYLOAD_ALPHABET)

    def streams(self) -> list[str]:
        return [payload for payload, _ in self._payloads]

    def check_ap(self, traces: list["APTrace"]) -> dict[str, Any]:
        detected = [
            end in t.match_ends
            for (_, end), t in zip(self._payloads, traces)
        ]
        return {
            "rules": len(self._rules),
            "alerts_per_stream": [len(t.match_ends) for t in traces],
            "planted_detected": detected,
            "checks_passed": all(detected),
        }


# ---------------------------------------------------------------------------
# strings: multi-pattern literal matching (AP vs Shift-And golden)
# ---------------------------------------------------------------------------


@WORKLOADS.register("strings")
class StringsAdapter(WorkloadAdapter):
    """Multi-pattern exact matching, scored against Shift-And.

    ``size`` is the text length, ``items`` the number of literal
    patterns, ``batch`` the number of texts.  Every pattern is planted
    once per text; the AP's unanchored match ends must equal the union
    of the Shift-And matchers' end positions exactly.
    """

    name = "strings"
    description = ("multi-pattern literal matching scored against "
                   "Shift-And")
    engines = frozenset({"rram_ap", "arch_model"})
    unanchored = True
    arch_accelerated_fraction = 0.8
    item_output_keys = frozenset({"match_counts", "accepted"})

    @cached_property
    def _patterns(self) -> list[str]:
        rng = self.shared_rng(0)
        patterns = set()
        while len(patterns) < self.spec.items:
            length = int(rng.integers(3, 7))
            patterns.add(
                "".join(rng.choice(_TEXT_LETTERS, size=length).tolist()))
        return sorted(patterns)

    @cached_property
    def _texts(self) -> list[str]:
        longest = max(len(p) for p in self._patterns)
        if self.spec.size < longest + 1:
            raise ScenarioError(
                f"strings text size {self.spec.size} is shorter than the "
                f"longest pattern ({longest})"
            )
        texts = []
        for i in self.batch_indices:
            rng = self.item_rng(i)
            text = rng.choice(_TEXT_LETTERS, size=self.spec.size).tolist()
            for pattern in self._patterns:
                start = int(rng.integers(
                    0, self.spec.size - len(pattern) + 1
                ))
                text[start:start + len(pattern)] = list(pattern)
            texts.append("".join(text))
        return texts

    def build_automaton(self) -> HomogeneousAutomaton:
        return compile_automaton(self._patterns, _TEXT_ALPHABET)

    def streams(self) -> list[str]:
        return self._texts

    def check_ap(self, traces: list["APTrace"]) -> dict[str, Any]:
        matcher = MultiPatternMatcher(self._patterns)
        ok = True
        match_counts = []
        for text, trace in zip(self._texts, traces):
            golden_ends = set()
            for result in matcher.find_all(text):
                golden_ends.update(result.end_positions)
            ok = ok and set(trace.match_ends) == golden_ends
            match_counts.append(len(trace.match_ends))
        return {
            "patterns": self._patterns,
            "match_counts": match_counts,
            "checks_passed": ok,
        }


# ---------------------------------------------------------------------------
# datamining: sequential pattern mining (AP, anchored containment)
# ---------------------------------------------------------------------------


#: Items per candidate pattern in the datamining domain.
_PATTERN_LENGTH = 3


@WORKLOADS.register("datamining")
class DataminingAdapter(WorkloadAdapter):
    """Sequential pattern mining: ordered containment per transaction.

    ``size`` is the transaction length, ``items`` the candidate-pattern
    count, ``batch`` the number of transactions (input streams).  The
    merged containment automaton accepts (anchored) iff *any* candidate
    is a subsequence; per-pattern golden supports are also reported.
    """

    name = "datamining"
    description = ("sequential pattern mining by anchored ordered "
                   "containment")
    engines = frozenset({"rram_ap", "arch_model"})
    unanchored = False
    arch_accelerated_fraction = 0.7
    item_output_keys = frozenset({"accepted"})
    sum_output_keys = frozenset({"matched_sequences", "golden_supports"})

    @cached_property
    def _patterns(self) -> tuple[str, ...]:
        return generate_patterns(self.shared_rng(0), self.spec.items,
                                 pattern_length=_PATTERN_LENGTH)

    @cached_property
    def _sequences(self) -> list[str]:
        # A supported pattern is embedded at distinct positions, so every
        # transaction must hold one whole pattern.
        if self.spec.size < _PATTERN_LENGTH:
            raise ScenarioError(
                f"datamining transaction size {self.spec.size} is shorter "
                f"than a pattern ({_PATTERN_LENGTH} items)"
            )
        return [
            generate_transaction(self.item_rng(i), self._patterns,
                                 self.spec.size)
            for i in self.batch_indices
        ]

    def build_automaton(self) -> HomogeneousAutomaton:
        return compile_automaton(
            [pattern_to_regex(p) for p in self._patterns], ITEM_ALPHABET)

    def streams(self) -> list[str]:
        return list(self._sequences)

    def check_ap(self, traces: list["APTrace"]) -> dict[str, Any]:
        # One containment pass feeds both the per-sequence golden (any
        # pattern contained) and the per-pattern support counts.
        contained = {
            p: [contains_in_order(p, seq) for seq in self._sequences]
            for p in self._patterns
        }
        golden = [
            any(contained[p][k] for p in self._patterns)
            for k in range(len(self._sequences))
        ]
        accepted = [t.accepted for t in traces]
        supports = {p: sum(flags) for p, flags in contained.items()}
        return {
            "patterns": list(self._patterns),
            "matched_sequences": int(sum(accepted)),
            "golden_supports": supports,
            "checks_passed": accepted == golden,
        }


# ---------------------------------------------------------------------------
# mlp_inference: synthetic-blob MLP classification (analog MVM)
# ---------------------------------------------------------------------------


#: Cross-run cache of trained MLP models, holding the
#: ``_MLP_MODEL_CACHE_SIZE`` most recently used keys.  ``train_mlp`` is
#: a pure function of the key below (every draw flows from
#: ``spec.seed``'s derived streams), so sweep cells and repeated runs
#: that share a seed share one training pass, while a long-lived worker
#: serving fresh seeds stops growing; cached weight arrays are
#: write-protected.
_MLP_MODEL_CACHE: OrderedDict[tuple, Any] = OrderedDict()
_MLP_MODEL_CACHE_SIZE = 8
_MLP_MODEL_LOCK = threading.Lock()


@WORKLOADS.register("mlp_inference")
class MLPInferenceAdapter(WorkloadAdapter):
    """MLP classification through the analog MVM fabric.

    A two-layer bias-free MLP is trained deterministically on seeded
    Gaussian blobs (batch-wide: one model shared by every item), then
    each batch item evaluates its own test sample through the analog
    pipeline.  ``size`` is the test samples per item, ``items`` the
    hidden-layer width, ``batch`` the number of independent test sets.

    Per item the adapter reports three prediction scores: against the
    true labels (task accuracy), against the float model's predictions
    (reference agreement -- quantization and device loss isolated from
    the model's own errors), and -- as ``checks_passed`` -- agreement
    with the digitally-quantized reference: an ideal fabric must
    reproduce its logits bit-for-bit, a nonideal one its predictions.
    """

    name = "mlp_inference"
    description = ("synthetic-blob MLP classification through the "
                   "analog MVM pipeline")
    engines = frozenset({"analog_mvm", "arch_model"})
    arch_accelerated_fraction = 0.9
    item_output_keys = frozenset({
        "analog_accuracy", "float_accuracy", "agreement",
        "tile_saturations",
    })

    _FEATURES = 8
    _CLASSES = 3
    _TRAIN_SAMPLES = 96
    _SPREAD = 0.12

    @property
    def hidden(self) -> int:
        """Hidden-layer width (``spec.items``, floored at 6).

        The floor keeps the shared float model trainable: narrower
        layers can strand the seeded GD on dead ReLU units, and a
        reference model that cannot classify would make the accuracy
        axis meaningless.
        """
        return max(6, self.spec.items)

    @cached_property
    def _means(self) -> np.ndarray:
        """Batch-wide class centers (shared stream 0)."""
        return blob_means(self.shared_rng(0), self._CLASSES,
                          self._FEATURES)

    @cached_property
    def _model(self):
        """The batch-wide trained float model (shared stream 1),
        memoized across adapter instances (see _MLP_MODEL_CACHE)."""
        key = (self.spec.seed, self.hidden, self._CLASSES,
               self._FEATURES, self._TRAIN_SAMPLES, self._SPREAD)
        with _MLP_MODEL_LOCK:
            model = _MLP_MODEL_CACHE.get(key)
            if model is None:
                model = train_mlp(self.shared_rng(1), self._means,
                                  hidden=self.hidden,
                                  n_train=self._TRAIN_SAMPLES,
                                  spread=self._SPREAD)
                model.w1.setflags(write=False)
                model.w2.setflags(write=False)
                _MLP_MODEL_CACHE[key] = model
                if len(_MLP_MODEL_CACHE) > _MLP_MODEL_CACHE_SIZE:
                    _MLP_MODEL_CACHE.popitem(last=False)
            else:
                _MLP_MODEL_CACHE.move_to_end(key)
        return model

    def _testset(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Item ``index``'s labelled test samples (item stream)."""
        return sample_blobs(self.item_rng(index), self._means,
                            self.spec.size, self._SPREAD)

    def mvm_layers(self, index: int) -> list[np.ndarray]:
        return self._model.layers

    def run_analog_window(self, indexes, accelerators):
        """Every item's evaluation in grouped dispatches.

        All items share the trained model, so their accelerators share
        tile geometry; the whole window's samples stack along the
        member axis and each layer pass is a single kernel call (4
        dispatches per window).
        """
        testsets = [self._testset(index) for index in indexes]
        samples = np.stack([s for s, _ in testsets])
        group = AnalogAcceleratorGroup(accelerators)
        hidden = np.maximum(group.matvec_batch(0, samples), 0.0)
        analog_logits = group.matvec_batch(1, hidden)
        ref_hidden = np.maximum(
            group.reference_matvec_batch(0, samples), 0.0)
        reference_logits = group.reference_matvec_batch(1, ref_hidden)
        return [
            self._score_item(accelerator, testsets[k][0],
                             testsets[k][1], analog_logits[k],
                             reference_logits[k])
            for k, accelerator in enumerate(accelerators)
        ]

    def _score_item(self, accelerator, samples, labels, analog_logits,
                    reference_logits):
        """Score one item's analog logits against its references.

        The golden check: on an ideal fabric the analog logits must
        equal the digital reference's bit for bit; under nonidealities
        only their predictions must agree.
        """
        float_logits = self._model.forward(samples)
        float_pred = np.argmax(float_logits, axis=1)
        analog_pred = np.argmax(analog_logits, axis=1)
        total = len(labels)
        correct = int((analog_pred == labels).sum())
        matched = int((analog_pred == float_pred).sum())
        summary = AccuracySummary(
            correct=correct,
            matched=matched,
            total=total,
            max_abs_error=float(
                np.abs(analog_logits - float_logits).max()),
            adc_saturations=accelerator.adc_saturations,
            adc_conversions=accelerator.adc_conversions,
        )
        outputs = {
            "classes": self._CLASSES,
            "hidden": self.hidden,
            "analog_accuracy": [correct / total],
            "float_accuracy": [float((float_pred == labels).mean())],
            "agreement": [matched / total],
            "tile_saturations": [list(accelerator.tile_saturations)],
            "checks_passed": bool(
                np.array_equal(analog_logits, reference_logits)
                if self.spec.nonideality.is_default()
                else (analog_pred
                      == np.argmax(reference_logits, axis=1)).all()),
        }
        return outputs, summary


# ---------------------------------------------------------------------------
# temporal_correlation: correlated-process detection (analog MVM)
# ---------------------------------------------------------------------------


@WORKLOADS.register("temporal_correlation")
class TemporalCorrelationAdapter(WorkloadAdapter):
    """Sebastian-style temporal-correlation detection on the MVM fabric.

    Each batch item is one independent realization of N binary
    processes, a hidden subset of which follows a shared latent event
    stream.  The item's event history is programmed into the crossbar
    tiles and a single analog matvec against the population-activity
    vector scores every process; the top-k scores are classified as
    correlated.  ``size`` is the time steps, ``items`` scales the
    process count (``4 * items``), ``batch`` the realizations;
    ``params["correlation"]`` / ``params["event_rate"]`` tune the
    statistics.
    """

    name = "temporal_correlation"
    description = ("correlated-process detection: one analog matvec "
                   "ranks every process")
    engines = frozenset({"analog_mvm", "arch_model"})
    arch_accelerated_fraction = 0.85
    item_output_keys = frozenset({
        "detection_accuracy", "agreement", "tile_saturations",
    })

    def surface_params(self, engine: str) -> frozenset[str]:
        if engine == "analog_mvm":
            return frozenset({"correlation", "event_rate"})
        return super().surface_params(engine)

    @property
    def processes(self) -> int:
        return 4 * self.spec.items

    @property
    def n_correlated(self) -> int:
        return max(2, self.processes // 4)

    @cached_property
    def _dataset_cache(self) -> dict:
        return {}

    def _dataset(self, index: int):
        """Item ``index``'s realization (cached; pure in (seed, index))."""
        if index not in self._dataset_cache:
            self._dataset_cache[index] = make_correlated_processes(
                self.item_rng(index), self.spec.size, self.processes,
                self.n_correlated,
                event_rate=float(
                    self.spec.params.get("event_rate", 0.15)),
                correlation=float(
                    self.spec.params.get("correlation", 0.75)),
            )
        return self._dataset_cache[index]

    @cached_property
    def _layer_cache(self) -> dict:
        return {}

    def mvm_layers(self, index: int) -> list[np.ndarray]:
        # One layer: the (processes, steps) history matrix, so the
        # matvec against the activity vector scores every process.
        # Built once per item: the engine prepares it, then maps it.
        if index not in self._layer_cache:
            self._layer_cache[index] = [
                self._dataset(index).events.T.astype(float)]
        return self._layer_cache[index]

    def run_analog_window(self, indexes, accelerators):
        """One grouped dispatch scores every item.

        Items map different event histories (different weights and tile
        scales) but identical matrix shapes, so their single-matvec
        evaluations run along the member axis: the window costs two
        kernel calls (analog + reference).
        """
        datasets = [self._dataset(index) for index in indexes]
        activity = np.stack([
            d.events.sum(axis=1).astype(float) for d in datasets
        ])[:, None, :]
        group = AnalogAcceleratorGroup(accelerators)
        analog_scores = group.matvec_batch(0, activity)[:, 0, :]
        reference_scores = group.reference_matvec_batch(
            0, activity)[:, 0, :]
        return [
            self._score_item(accelerator, datasets[k],
                             analog_scores[k], reference_scores[k])
            for k, accelerator in enumerate(accelerators)
        ]

    def _score_item(self, accelerator, dataset, analog_scores,
                    reference_scores):
        """Score one item's analog process ranking.

        The golden check: on an ideal fabric the analog scores must
        equal the digital reference's bit for bit; under nonidealities
        only their top-k sets must agree.
        """
        float_scores = correlation_scores(dataset.events)
        k = dataset.n_correlated
        analog_mask = top_k_mask(analog_scores, k)
        float_mask = top_k_mask(float_scores, k)
        reference_mask = top_k_mask(reference_scores, k)
        total = dataset.processes
        correct = int((analog_mask == dataset.correlated).sum())
        matched = int((analog_mask == float_mask).sum())
        summary = AccuracySummary(
            correct=correct,
            matched=matched,
            total=total,
            max_abs_error=float(
                np.abs(analog_scores - float_scores).max()),
            adc_saturations=accelerator.adc_saturations,
            adc_conversions=accelerator.adc_conversions,
        )
        outputs = {
            "processes": total,
            "planted_correlated": k,
            "detection_accuracy": [correct / total],
            "agreement": [matched / total],
            "tile_saturations": [list(accelerator.tile_saturations)],
            "checks_passed": bool(
                np.array_equal(analog_scores, reference_scores)
                if self.spec.nonideality.is_default()
                else (analog_mask == reference_mask).all()),
        }
        return outputs, summary
