(** The OVSDB database engine: row storage, atomic transactions with
    the RFC 7047 operation set, unique-index and referential-integrity
    enforcement, and monitors that stream per-transaction change
    batches to subscribers — the mechanism the Nerpa controller relies
    on for management-plane synchronisation. *)

type row = (string * Datum.t) list
(** A stored row: every schema column present, in schema order. *)

exception Db_error of string

(** {1 Conditions and mutations} *)

type cond_op = Eq | Ne | Lt | Gt | Le | Ge | Includes | Excludes

type condition = { ccolumn : string; cop : cond_op; carg : Datum.t }
(** A predicate over one column; the pseudo-column ["_uuid"] addresses
    the row identifier. *)

type mutator = MAdd | MSub | MMul | MDiv | MInsert | MDelete

type mutation = { mcolumn : string; mop : mutator; marg : Datum.t }

type op =
  | Insert of { table : string; row : (string * Datum.t) list; uuid : Uuid.t option }
      (** omitted columns take their type's default; [uuid] is
          generated when [None] *)
  | Select of { table : string; where : condition list; columns : string list option }
  | Update of { table : string; where : condition list; row : (string * Datum.t) list }
  | Mutate of { table : string; where : condition list; mutations : mutation list }
  | Delete of { table : string; where : condition list }
  | Abort  (** force the transaction to fail *)

type op_result =
  | RInserted of Uuid.t
  | RRows of (Uuid.t * row) list
  | RCount of int
  | RAborted

(** {1 Monitors} *)

type row_update = { before : row option; after : row option }
(** [before = None]: insertion; [after = None]: deletion; both present:
    modification. *)

type table_updates = (string * (Uuid.t * row_update) list) list
(** One committed transaction's changes, grouped by table. *)

(** Which update kinds a monitor receives (RFC 7047 "select"). *)
type select = {
  s_initial : bool;  (** deliver current contents on registration *)
  s_insert : bool;
  s_delete : bool;
  s_modify : bool;
}

val select_all : select

type monitor

(** {1 The database} *)

type t = { schema : Schema.t; tables : (string, table_data) Hashtbl.t;
           mutable monitors : monitor list; mutable next_monitor : int;
           mutable txn_count : int }

and table_data

val create : Schema.t -> t
(** @raise Db_error if the schema does not validate. *)

val row_count : t -> string -> int
val get_row : t -> string -> Uuid.t -> row option
val iter_rows : t -> string -> (Uuid.t -> row -> unit) -> unit
val fold_rows : t -> string -> (Uuid.t -> row -> 'a -> 'a) -> 'a -> 'a

val column_value : row -> string -> Datum.t
(** @raise Db_error if the column is absent. *)

val matching_rows : t -> string -> condition list -> (Uuid.t * row) list
(** The rows satisfying every condition, as [Select] sees them.  When
    the [==] conditions pin [_uuid] or every column of a unique index,
    the row is looked up rather than scanned for. *)

val scan_rows : t -> string -> condition list -> (Uuid.t * row) list
(** The same rows by a full scan: the oracle for {!matching_rows}. *)

val transact : t -> op list -> (op_result list, string) result
(** Execute the operations atomically: on any error (type or range
    violation, unique-index collision, dangling reference, [Abort])
    every operation is rolled back.  On success, monitors receive the
    batched changes. *)

val transact_exn : t -> op list -> op_result list
(** @raise Db_error instead of returning [Error]. *)

(** {1 Monitor API} *)

val add_monitor :
  ?select:select -> t -> (string * string list option) list -> monitor
(** Register a monitor over tables (with optional column filters).
    With [s_initial] (the default) the current contents are queued
    immediately as a batch of insertions; thereafter one batch arrives
    per committed transaction, filtered to the selected update kinds. *)

val poll : monitor -> table_updates list
(** Drain the queued batches, oldest first. *)

val cancel_monitor : t -> monitor -> unit

val snapshot : t -> table_updates
(** The database's current contents as one batch of insertions over
    every schema table — the payload of a monitor resync: a client that
    lost monitor batches diffs this against its own inputs and applies
    the correction as a single transaction. *)

(** {1 Convenience} *)

val eq : string -> Datum.t -> condition
val insert : ?uuid:Uuid.t -> t -> string -> (string * Datum.t) list -> (Uuid.t, string) result
val insert_exn : ?uuid:Uuid.t -> t -> string -> (string * Datum.t) list -> Uuid.t
