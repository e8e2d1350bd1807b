(* A row (fact) of a relation: a fixed-arity vector of values,
   hash-consed in a global weak table.

   Interning gives three things the hot path depends on:
   - equality is physical ([==]) — no structural array walks;
   - the structural hash is computed once at intern time and cached;
   - every live row has a unique intern [id], so weight maps (Z-sets)
     can be keyed by int instead of by value vector.

   The weak table means rows are collected once nothing outside the
   table references them; a later re-intern of the same value vector
   yields a fresh id.  That is sound because ids only need to be
   canonical among *live* rows: any structure keyed by id also holds
   the row itself (keeping it alive), and the weak table guarantees at
   most one live row per value vector at any time.

   The table and the id counter are plain mutable state: interning
   belongs to one domain, like the engines that use it. *)

type t = { values : Value.t array; hash : int; mutable id : int }

let values r = r.values
let get r i = r.values.(i)
let arity r = Array.length r.values
let id r = r.id

let hash_values (values : Value.t array) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 values

module WeakSet = Weak.Make (struct
  type nonrec t = t

  let equal a b =
    a == b || (a.hash = b.hash && Value.compare_arrays a.values b.values = 0)

  let hash r = r.hash
end)

(* The table is split by hash into [shard_count] independent weak sets.
   Nothing locks them; the split is kept because it is measurably
   faster.  Against one unsharded weak set, on the end-to-end benchmark
   (perfbench, 8 alternating pairs of 25 s runs on a 2-core host),
   fib_churn's change p50 was 5.8% lower with the shards (in 8 of 8
   pairs) and its remap p50 8.7% lower (7 of 8); the unsharded set
   saved heap instead (peak 7.5% lower on fib_churn, 29% on
   snvs_socket). *)
let shard_count = 64 (* power of two: shard = hash land (shard_count-1) *)
let tables = Array.init shard_count (fun _ -> WeakSet.create 256)
let next_id = ref 0

(* The probe record doubles as the interned row on a miss, so interning
   allocates exactly one record.  [id] is set before the row is
   published to the table, and never mutated afterwards. *)
let find_or_add tbl probe =
  match WeakSet.find_opt tbl probe with
  | Some r -> r
  | None ->
    probe.id <- !next_id;
    incr next_id;
    WeakSet.add tbl probe;
    probe

let intern (values : Value.t array) : t =
  let probe = { values; hash = hash_values values; id = -1 } in
  find_or_add tables.(probe.hash land (shard_count - 1)) probe

let of_list vs = intern (Array.of_list vs)

let equal (a : t) (b : t) = a == b
let hash (r : t) = r.hash

(* Structural order (not intern-id order): callers sort rows for
   deterministic output, so the order must not depend on allocation
   history. *)
let compare (a : t) (b : t) =
  if a == b then 0 else Value.compare_arrays a.values b.values

let pp fmt (r : t) =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_seq
       ~pp_sep:(fun f () -> Format.pp_print_string f ", ") Value.pp)
    (Array.to_seq r.values)

let to_string r = Format.asprintf "%a" pp r

(** [project r positions] extracts (and interns) the sub-row at the
    given column positions, used as an index key. *)
let project (r : t) (positions : int array) : t =
  intern (Array.map (fun i -> r.values.(i)) positions)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Hash = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Tbl = Hashtbl.Make (Hash)
