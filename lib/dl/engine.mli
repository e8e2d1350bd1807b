(** The incremental evaluation engine.

    The engine maintains the contents of every relation of a DL program
    and updates them {e incrementally} when inputs change: a transaction
    carries a batch of input insertions and deletions, and [commit]
    returns the exact set-level deltas of the computed relations —
    touching an amount of state proportional to the change rather than
    to the database.

    Algorithms (see the implementation for details): counting-based
    incremental view maintenance for non-recursive strata; semi-naive
    iteration for insertions and DRed (over-delete / re-derive) for
    deletions in recursive strata; projection-based maintenance for
    negation; per-group multisets for [group_by] aggregates. *)

exception Error of string

type t
(** An engine instance: the materialised state of one program. *)

val create : ?planner:bool -> ?use_indexes:bool -> Ast.program -> t
(** Type-check, stratify and materialise [program] (its facts are
    evaluated immediately).  [planner] (default [true]) enables greedy
    selectivity-based join ordering; [use_indexes] (default [true])
    enables per-join-key hash indexes.  Both switches change
    performance only, never results.  An engine, like the [Row] intern
    table it uses, belongs to one domain.
    @raise Error if the program does not type-check or stratify. *)

(** {1 Transactions} *)

type txn

val transaction : t -> txn
(** Open a transaction.  Only one may be open at a time.
    @raise Error if one is already open. *)

val insert : txn -> string -> Row.t -> unit
(** Stage an insertion into an input relation.  Validates the target
    relation's role, arity and column types.
    @raise Error on any mismatch. *)

val delete : txn -> string -> Row.t -> unit
(** Stage a deletion; same validation as {!insert}. *)

val rollback : txn -> unit
(** Abandon the transaction (nothing was applied yet). *)

val commit : txn -> (string * Zset.t) list
(** Apply the staged updates and propagate through all strata.  Returns
    the set-level delta of every relation whose visible contents
    changed (inputs included), sorted by relation name.  Inserting a
    present row or deleting an absent one is a no-op; an insert and a
    delete of the same row in one transaction cancel.

    If propagation raises (e.g. a rule body evaluates [1 / 0]), the
    stores may hold some strata updated and others not; the engine is
    {e poisoned} and every subsequent read, query or transaction raises
    {!Error} until a fresh engine is built.  The commit path records
    per-stratum propagation timings and delta sizes into the [dl.*]
    metrics of {!Obs} when collection is enabled. *)

val apply : t -> (string * Row.t * bool) list -> (string * Zset.t) list
(** One-shot convenience: open, stage [(rel, row, insert?)] updates,
    commit. *)

val output_deltas : t -> (string * Zset.t) list -> (string * Zset.t) list
(** Restrict a delta list to the program's [output] relations. *)

(** {1 Inspection} *)

val relation_rows : t -> string -> Row.t list
(** Current visible contents of a relation (unordered). *)

val relations : t -> string list
(** All declared relation names, in declaration order. *)

val relation_zset : t -> string -> Zset.t
val relation_cardinal : t -> string -> int

val query : t -> string -> positions:int list -> key:Value.t list -> Row.t list
(** Indexed point query: rows whose columns at [positions] equal [key].
    Positions may arrive in any order and may repeat: the constraint
    list is normalised (sorted by position, duplicates collapsed), and
    duplicate positions constrained to conflicting values make the
    query unsatisfiable and return [[]].  Builds and maintains the
    index on first use, so repeated queries cost O(result).  When the
    engine was created with [use_indexes:false], queries fall back to a
    scan instead of installing (and forever maintaining) an index per
    distinct constraint set.
    @raise Error if [positions] and [key] differ in length or a
    position is outside the relation's arity. *)

val footprint : t -> int
(** Total stored tuples including index duplication and aggregate
    state — the memory proxy used by the RAM-overhead experiments. *)
