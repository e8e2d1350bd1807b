(** Hash-consed forwarding decision diagrams.

    An FDD is a binary decision diagram whose internal nodes test
    [field land mask = value] against a packet and whose leaves are
    small non-negative integers ("decisions") interned by the caller
    (Compile maps them to table entries, control-flow jumps, or
    booleans).  Exact, LPM and ternary matches all lower to mask
    tests, so one node shape covers every match kind.

    Diagrams are ordered: along any root-to-leaf path the tests
    strictly increase under {!test_compare} (the manager's field order
    first, then descending mask popcount so longer prefixes are tested
    before shorter ones on the same field).  Nodes are hash-consed in
    the manager, so equal subtrees are physically shared and have
    stable ids usable as memo keys.

    [union] is "prefer left": it implements the first-defined-wins
    semantics of a rank-sorted entry list folded over the distinguished
    {!undef} leaf.  Both [union] and [bind] peel the lo spine
    iteratively, so diagrams with 10^5-long priority chains do not
    overflow the OCaml stack. *)

type test = {
  tfield : string;  (** canonical field name, e.g. ["ipv4.dst"] or ["valid.vlan"] *)
  tmask : int64;    (** non-zero; tested bits *)
  tvalue : int64;   (** canonical: [tvalue land tmask = tvalue] *)
}

type t = private
  | Leaf of int  (** decision id, [>= 0]; [0] is {!undef} *)
  | Node of { id : int; test : test; hi : t; lo : t }
      (** [hi] when the test holds, [lo] otherwise *)

type manager

(** [create ~order ()] makes a fresh manager. [order f] ranks field
    [f]; smaller ranks are tested nearer the root. Distinct fields
    with equal ranks are ordered by name. *)
val create : order:(string -> int) -> unit -> manager

(** The "no decision yet" leaf: [leaf 0]. Union treats it as the
    identity on the left. *)
val undef : t

(** [leaf v] for [v >= 0]. Raises [Invalid_argument] on negatives. *)
val leaf : int -> t

(** Smart constructor: canonicalises [tvalue], collapses [hi == lo],
    and hash-conses. The caller must respect the manager's order
    (tests strictly increase toward the leaves); [union] and [bind]
    preserve it. *)
val node : manager -> test -> t -> t -> t

(** Total order on tests under the manager's field order: field rank,
    then mask popcount descending (more-specific first), then mask,
    then value. *)
val test_compare : manager -> test -> test -> int

(** Number of set bits: a prefix mask's prefix length. *)
val popcount : int64 -> int

(** Unique id of a diagram: node ids are [>= 0], a leaf [v] maps to
    [-(v+1)]. Stable across the manager's lifetime. *)
val id : t -> int

(** [union m a b] prefers [a] wherever [a] is not {!undef}. Memoised
    on (id, id) pairs in the manager. *)
val union : manager -> t -> t -> t

(** Balanced left-to-right fold of {!union} over the list (empty list
    yields {!undef}). Pass diagrams in rank order, highest first. *)
val union_all : manager -> t list -> t

(** [bind m t f] replaces every leaf [v] of [t] by the diagram [f v],
    hash-consing the result. Used to graft branch diagrams onto a
    condition diagram. The result is only guaranteed ordered when each
    [f v] sits below [t]'s deepest test; extraction does not require
    global order, so Compile may also use it to flip boolean leaves. *)
val bind : manager -> t -> (int -> t) -> t

(** Number of distinct internal nodes reachable from [t]. *)
val size : t -> int

(** Nodes currently interned in the manager, reachable or not. *)
val node_count : manager -> int

(** Entries currently held in the union memo table. *)
val memo_count : manager -> int

(** [compact m ~roots] clears the union memo and sweeps every interned
    node not reachable from [roots], returning the number swept.
    Diagrams reachable from [roots] stay valid (node ids are never
    reused); any other diagram previously built in [m] must not be
    used afterwards — re-interning one of its nodes would mint a fresh
    physical node, breaking id-based memoisation against the stale
    copy. Called by long-lived incremental compilation state between
    recompiles. *)
val compact : manager -> roots:t list -> int

(** Structural equality — same tests and leaf decisions in the same
    shape — valid across managers (physical ids are ignored).  Used by
    differential tests to compare incrementally patched diagrams with
    from-scratch compilations. *)
val equal : t -> t -> bool

(** Distinct decision ids appearing in [t]'s leaves (including
    {!undef} if reachable), ascending. *)
val leaves : t -> int list

val test_to_string : test -> string
val to_string : t -> string
