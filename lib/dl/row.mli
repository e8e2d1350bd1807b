(** Rows (facts) of a relation: fixed-arity vectors of values,
    hash-consed so equality is physical and the hash is cached.

    Construct rows only via {!intern} / {!of_list} / {!project}; the
    record is private so the intern table stays canonical.  The value
    array passed to {!intern} (and the one returned by {!values}) is
    owned by the row — callers must not mutate it afterwards.

    Interning is single-domain: the intern table and the id counter are
    global and unsynchronised, so every row must be interned (and every
    engine run) from the same domain. *)

type t = private { values : Value.t array; hash : int; mutable id : int }

val intern : Value.t array -> t
(** Canonical row for this value vector.  O(arity) on a miss, a hash
    probe on a hit.  Does not copy the array. *)

val of_list : Value.t list -> t

val values : t -> Value.t array
(** The underlying vector. Do not mutate. *)

val get : t -> int -> Value.t
val arity : t -> int

val id : t -> int
(** Intern id: unique among live rows, assigned in intern order. *)

val compare : t -> t -> int
(** Structural (value) order — stable across runs, unlike {!id}. *)

val equal : t -> t -> bool
(** Physical equality; equivalent to structural equality for interned
    rows. *)

val hash : t -> int
(** Cached structural hash. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val project : t -> int array -> t
(** [project r positions] extracts (and interns) the sub-row at the
    given column positions (used as an index key). *)

module Ord : sig
  type nonrec t = t

  val compare : t -> t -> int
end

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module Tbl : Hashtbl.S with type key = t
(** Hash table over physical equality and the cached hash. *)
