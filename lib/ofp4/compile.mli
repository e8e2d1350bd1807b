(** The p4c-of analog: compile a mini-P4 program plus its installed
    table entries into an OpenFlow flow pipeline.

    {!compile} is the FDD backend: each physical table's rank-sorted
    entries (and [If] control flow with trivial branches) fold into one
    hash-consed forwarding decision diagram ({!Fdd}), and flows are
    extracted with shadowed-path elimination and per-disjointness-group
    priorities.  [If] with larger branches becomes a condition table
    whose rows [Goto] the branch region.  Ingress tables occupy
    [0, egress_start); egress tables follow and run once per replicated
    copy ({!Eval}).

    {!compile_naive} is the historical per-entry translator — one flow
    per entry, no conditionals — kept as the flow-count/compile-time
    reference and for the old linear-pipeline semantics tests.

    One documented semantic difference: a dropped packet stops at the
    dropping table instead of traversing the rest of the pipeline, so
    digests after a drop are not emitted (forwarding verdicts agree —
    drops are sticky). *)

exception Unsupported of string

val table_sequence : P4.Program.control -> string list
(** The linear table application order of a control.
    @raise Unsupported on conditional control flow. *)

val compile : P4.Switch.t -> Openflow.t
(** FDD-based compilation of the switch's program and current entries.
    Supports [If] conditions over header validity, field = constant,
    and boolean connectives.  Emits no flow for fully-shadowed entries
    and uses one priority level per disjointness group.
    @raise Unsupported on out-of-scope programs. *)

val compile_naive : P4.Switch.t -> Openflow.t
(** Per-entry translation: every entry becomes a flow at a priority
    derived from its position in the [Entry.rank_compare] order (the
    old [1 + priority + lpm_length] scheme collided ranks across the
    two dimensions), plus a priority-0 miss flow per table.
    @raise Unsupported on conditional control flow. *)

val fold_flows : P4.Switch.t -> init:'a -> f:('a -> Openflow.flow -> 'a) -> 'a
(** Streaming variant of {!compile}: folds [f] over the flows of each
    physical table in emission order without materialising a row list —
    extraction walks each plan diagram twice (once to count rows and
    groups, once to emit), so a 10^6-entry table compiles in memory
    bounded by the diagram, not the flow count.  The flow sequence is
    identical to {!compile}'s.
    @raise Unsupported on out-of-scope programs. *)

val render : P4.Switch.t -> (int * string) list
(** [(table_id, text)] per physical table of a from-scratch compile,
    spelled out as {!State.render} spells its diagrams: the oracle that
    a patched state's diagrams are compared against. *)

(** Incremental compilation state: keeps each physical table's decision
    diagram and extracted flows alive between recompiles so that entry
    churn patches the diagram and emits flow {i deltas} instead of
    recompiling from scratch.  Single-LPM tables — the common FIB shape
    — keep one ordered map per prefix length, whose slots hold each
    canonical test's entries with their cached rows and emitted flow:
    priorities, shadowing and the suffix merge are read off the
    buckets, so a delta costs O(log n) per entry plus the flows whose
    output changes (a prefix length appearing mid-table re-prioritises
    every finer row), and the diagram spine is rebuilt only when read.
    Other tables refold from a maintained entry mirror.  {!compile}
    remains the from-scratch oracle the differential tests compare
    against. *)
module State : sig
  type t

  val create : ?compact_threshold:int -> P4.Switch.t -> t
  (** Snapshot the switch's program and current entries.  The state
      mirrors entries internally from then on: feed churn through
      {!apply_delta}; mutating the switch directly desynchronises it.
      [compact_threshold] (default [1_000_000]) bounds the manager's
      interned node count; exceeding it after a delta triggers
      {!Fdd.compact} plus a decision-table sweep.
      @raise Unsupported on out-of-scope programs. *)

  val apply_delta :
    t -> (string * (P4.Entry.t * int) list) list -> Openflow.flow_delta
  (** Apply Z-set-shaped churn — per logical table, [(entry, weight)]
      with positive weights as inserts and negative as deletes, using
      the switch's replace-by-match insert semantics — and return the
      flow delta against the previous state.  Removing an absent entry
      is a no-op, like [Switch.delete_entry].
      @raise Invalid_argument on an unknown table name. *)

  val flows : t -> Openflow.t
  (** The full current pipeline; equal (up to [dump]) to what
      {!compile} produces from the same entries. *)

  val diagrams : t -> (int * Fdd.t) list
  (** [(table_id, diagram)] per physical table, for differential
      comparison against a from-scratch compile. *)

  val render : t -> (int * string) list
  (** [(table_id, text)] per physical table, with every leaf spelled
      out as its decision (table entry, default, pass, jump).  Unlike
      {!diagrams}' raw leaves — whose interned ids depend on first-use
      order — renderings are byte-comparable across states, so two
      states over the same entries render identically iff their
      diagrams are semantically identical. *)

  val node_count : t -> int
  (** Nodes interned in the state's diagram manager. *)

  val compactions : t -> int
  (** Times the compaction threshold has been hit. *)

  val swept : t -> int
  (** Total nodes reclaimed across all compactions. *)
end
