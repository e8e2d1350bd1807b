(* Mutable storage for one relation: the set of visible rows, their
   derivation counts, and hash indexes (arrangements) over column
   subsets.

   For input relations a visible row always has count 1.  For computed
   relations in non-recursive strata the count is the number of
   derivations (counting-based incremental view maintenance); a row is
   visible iff its count is positive.  Relations in recursive strata use
   set semantics and keep all counts at 1.

   Invariants (relied on by Engine):
   - [counts] holds exactly the visible rows, each with count > 0.
   - Every index in [indexes] covers exactly the visible rows: index
     maintenance happens on visibility transitions (count 0 -> positive
     and positive -> 0), never on mere count changes.
   - Index positions are ascending, duplicate-free and within the
     relation's arity, so add/remove/lookup all project the same
     canonical key.
   - No store or index is mutated while one of its buckets is being
     iterated: Engine accumulates derived deltas and applies them after
     the joins that produced them have finished reading. *)

(* A bucket holds the visible rows sharing one index key.  Small
   buckets are plain arrays with swap-remove (cheap and compact — most
   buckets of a near-unique key hold one row, and exp_lb measures live
   heap); buckets that outgrow [promote_threshold] are promoted to a
   hashtable so removal stays O(1) instead of O(bucket). *)
type bucket = {
  mutable arr : Row.t array; (* first [len] slots live; unused iff promoted *)
  mutable len : int;
  mutable tbl : unit Row.Tbl.t option;
}

let promote_threshold = 16

type index = {
  positions : int array; (* column positions forming the key *)
  table : bucket Row.Tbl.t; (* key sub-row -> visible rows *)
}

type t = {
  decl : Ast.rel_decl;
  counts : int Row.Tbl.t; (* visible rows -> derivation count > 0 *)
  mutable indexes : index list;
  by_positions : (int list, index) Hashtbl.t; (* canonical positions -> index *)
}

let create (decl : Ast.rel_decl) =
  { decl;
    counts = Row.Tbl.create 64;
    indexes = [];
    by_positions = Hashtbl.create 4 }

let name t = t.decl.rname
let arity t = Ast.arity t.decl
let mem t row = Row.Tbl.mem t.counts row

let count t row =
  match Row.Tbl.find_opt t.counts row with Some c -> c | None -> 0

let cardinal t = Row.Tbl.length t.counts
let iter f t = Row.Tbl.iter (fun row _ -> f row) t.counts
let fold f t acc = Row.Tbl.fold (fun row _ acc -> f row acc) t.counts acc
let rows t = Row.Tbl.fold (fun row _ acc -> row :: acc) t.counts []

let to_zset t : Zset.t =
  Row.Tbl.fold (fun row _ z -> Zset.add z row 1) t.counts Zset.empty

(* ------------------------------------------------------------------ *)
(* Buckets                                                             *)
(* ------------------------------------------------------------------ *)

let bucket_singleton row = { arr = Array.make 4 row; len = 1; tbl = None }

let bucket_add b row =
  match b.tbl with
  | Some tbl -> Row.Tbl.replace tbl row ()
  | None ->
    if b.len >= promote_threshold then begin
      let tbl = Row.Tbl.create (4 * b.len) in
      for i = 0 to b.len - 1 do
        Row.Tbl.replace tbl b.arr.(i) ()
      done;
      Row.Tbl.replace tbl row ();
      b.tbl <- Some tbl;
      b.arr <- [||];
      b.len <- 0
    end
    else begin
      if b.len = Array.length b.arr then begin
        let grown = Array.make (2 * b.len) row in
        Array.blit b.arr 0 grown 0 b.len;
        b.arr <- grown
      end;
      b.arr.(b.len) <- row;
      b.len <- b.len + 1
    end

(* Swap-remove; returns [true] when the bucket became empty (caller
   drops the key).  The vacated slot is overwritten with a live row so
   the array holds no stale reference that would pin a dead row in the
   intern table. *)
let bucket_remove b row =
  match b.tbl with
  | Some tbl ->
    Row.Tbl.remove tbl row;
    Row.Tbl.length tbl = 0
  | None ->
    let i = ref 0 in
    while !i < b.len && not (Row.equal b.arr.(!i) row) do
      incr i
    done;
    if !i < b.len then begin
      b.len <- b.len - 1;
      b.arr.(!i) <- b.arr.(b.len);
      if b.len > 0 then b.arr.(b.len) <- b.arr.(0)
    end;
    b.len = 0

let bucket_iter f b =
  match b.tbl with
  | Some tbl -> Row.Tbl.iter (fun row () -> f row) tbl
  | None ->
    for i = 0 to b.len - 1 do
      f b.arr.(i)
    done

let bucket_count b =
  match b.tbl with Some tbl -> Row.Tbl.length tbl | None -> b.len

let bucket_to_list b =
  match b.tbl with
  | Some tbl -> Row.Tbl.fold (fun row () acc -> row :: acc) tbl []
  | None -> Array.to_list (Array.sub b.arr 0 b.len)

(* ------------------------------------------------------------------ *)
(* Index maintenance                                                   *)
(* ------------------------------------------------------------------ *)

let index_add idx row =
  let key = Row.project row idx.positions in
  match Row.Tbl.find_opt idx.table key with
  | Some bucket -> bucket_add bucket row
  | None -> Row.Tbl.add idx.table key (bucket_singleton row)

let index_remove idx row =
  let key = Row.project row idx.positions in
  match Row.Tbl.find_opt idx.table key with
  | Some bucket -> if bucket_remove bucket row then Row.Tbl.remove idx.table key
  | None -> ()

(* Visibility transitions: update every index when a row appears or
   disappears from the visible set. *)
let on_appear t row = List.iter (fun idx -> index_add idx row) t.indexes
let on_disappear t row = List.iter (fun idx -> index_remove idx row) t.indexes

(** [add_derivations t row dcount] adds [dcount] to the derivation count
    of [row] and returns the visibility change: [+1] if the row became
    visible, [-1] if it disappeared, [0] otherwise. *)
let add_derivations t row dcount =
  if dcount = 0 then 0
  else
    let old_count = count t row in
    let new_count = old_count + dcount in
    if new_count < 0 then
      invalid_arg
        (Printf.sprintf "Store.add_derivations: negative count for %s%s"
           (name t) (Row.to_string row));
    if new_count = 0 then begin
      Row.Tbl.remove t.counts row;
      if old_count > 0 then begin on_disappear t row; -1 end else 0
    end
    else begin
      Row.Tbl.replace t.counts row new_count;
      if old_count = 0 then begin on_appear t row; 1 end else 0
    end

(** [apply_derivations t delta] applies a whole Z-set of derivation
    count changes in one sweep: counts first (collecting visibility
    transitions), then each index updated once over the transition
    lists.  Returns the visibility delta (+1 appeared / -1
    disappeared). *)
let apply_derivations t (delta : Zset.t) : Zset.t =
  let appeared = ref [] and disappeared = ref [] in
  Zset.iter
    (fun row dcount ->
      let old_count = count t row in
      let new_count = old_count + dcount in
      if new_count < 0 then
        invalid_arg
          (Printf.sprintf "Store.apply_derivations: negative count for %s%s"
             (name t) (Row.to_string row));
      if new_count = 0 then begin
        Row.Tbl.remove t.counts row;
        if old_count > 0 then disappeared := row :: !disappeared
      end
      else begin
        Row.Tbl.replace t.counts row new_count;
        if old_count = 0 then appeared := row :: !appeared
      end)
    delta;
  List.iter
    (fun idx ->
      List.iter (fun row -> index_remove idx row) !disappeared;
      List.iter (fun row -> index_add idx row) !appeared)
    t.indexes;
  let z =
    List.fold_left (fun z row -> Zset.add z row 1) Zset.empty !appeared
  in
  List.fold_left (fun z row -> Zset.add z row (-1)) z !disappeared

(** Set-semantics insertion; returns [true] if the row was new. *)
let set_insert t row =
  if mem t row then false
  else begin
    Row.Tbl.replace t.counts row 1;
    on_appear t row;
    true
  end

(** Set-semantics removal; returns [true] if the row was present. *)
let set_remove t row =
  if mem t row then begin
    Row.Tbl.remove t.counts row;
    on_disappear t row;
    true
  end
  else false

(** [apply_set_batch t ops] applies set-semantics operations ([true] =
    insert, [false] = delete; at most one op per row) and returns the
    visibility delta.  Like {!apply_derivations}, each index is
    maintained in one sweep over the transitions rather than per
    operation. *)
let apply_set_batch t (ops : (Row.t * bool) list) : Zset.t =
  let appeared = ref [] and disappeared = ref [] in
  List.iter
    (fun (row, ins) ->
      if ins then begin
        if not (mem t row) then begin
          Row.Tbl.replace t.counts row 1;
          appeared := row :: !appeared
        end
      end
      else if mem t row then begin
        Row.Tbl.remove t.counts row;
        disappeared := row :: !disappeared
      end)
    ops;
  List.iter
    (fun idx ->
      List.iter (fun row -> index_remove idx row) !disappeared;
      List.iter (fun row -> index_add idx row) !appeared)
    t.indexes;
  let z =
    List.fold_left (fun z row -> Zset.add z row 1) Zset.empty !appeared
  in
  List.fold_left (fun z row -> Zset.add z row (-1)) z !disappeared

let m_index_builds = Obs.Counter.create "dl.store.index_builds"

(** [ensure_index t positions] finds or builds the index (arrangement)
    keyed on the given column positions (sorted ascending and
    deduplicated for canonicalisation).  Indexes are deduplicated
    across all callers — rules sharing a key shape share the
    arrangement.
    @raise Invalid_argument if a position is outside the relation's
    arity — projecting such a key would either crash or silently build
    an index that can never match a lookup. *)
let ensure_index t (positions : int array) : index =
  let arity = Ast.arity t.decl in
  Array.iter
    (fun p ->
      if p < 0 || p >= arity then
        invalid_arg
          (Printf.sprintf
             "Store.ensure_index: position %d out of range for %s (arity %d)"
             p (name t) arity))
    positions;
  let canonical = List.sort_uniq Int.compare (Array.to_list positions) in
  match Hashtbl.find_opt t.by_positions canonical with
  | Some idx -> idx
  | None ->
    Obs.Counter.incr m_index_builds;
    let idx =
      { positions = Array.of_list canonical; table = Row.Tbl.create 64 }
    in
    iter (fun row -> index_add idx row) t;
    t.indexes <- idx :: t.indexes;
    Hashtbl.add t.by_positions canonical idx;
    idx

(** Visible rows whose projection on [idx.positions] equals [key]. *)
let index_lookup idx (key : Row.t) : Row.t list =
  match Row.Tbl.find_opt idx.table key with
  | Some b -> bucket_to_list b
  | None -> []

(** Allocation-free variants for the join inner loop. *)
let index_iter idx (key : Row.t) f =
  match Row.Tbl.find_opt idx.table key with
  | Some b -> bucket_iter f b
  | None -> ()

let index_count idx (key : Row.t) =
  match Row.Tbl.find_opt idx.table key with
  | Some b -> bucket_count b
  | None -> 0

(** Rough memory footprint in stored rows, counting index duplication;
    used by the RAM-overhead experiment. *)
let footprint t = cardinal t * (1 + List.length t.indexes)
