(* The incremental evaluation engine.

   The engine maintains the contents of every relation of a DL program
   and updates them *incrementally* when inputs change: a transaction
   carries a set of input insertions and deletions, and [commit] returns
   the exact set-level deltas of the computed relations, after touching
   an amount of state proportional to the change rather than to the
   database.

   Algorithms:
   - non-recursive strata use counting-based incremental view
     maintenance: the delta of a rule is the standard semi-naive
     expansion sum_i join(new_1..new_{i-1}, delta_i, old_{i+1}..old_k),
     and per-row derivation counts turn multiset deltas into set-level
     visibility changes (supports deletions exactly);
   - negated literals drive deltas through their *projection*: the
     existence status of each binding of the non-wildcard positions,
     with the sign flipped;
   - group_by aggregates maintain one multiset per group and re-emit
     [-old_result +new_result] for touched groups;
   - recursive strata use set semantics: semi-naive iteration for
     insertions and DRed (over-delete, then re-derive) for deletions. *)

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type version = Old | New

(* Per-aggregate-rule state: group key row -> multiset of aggregated
   values (value -> multiplicity > 0). *)
type group = { mutable elems : int Value.Map.t }

type stratum_c = {
  info : Stratify.stratum;
  crules : Compile.crule list;
  reads : string list;       (* relations read by rule bodies *)
  hist : Obs.Histogram.t;    (* per-stratum propagation time (us) *)
}

type t = {
  program : Ast.program;
  strata : stratum_c array;
  rels : (string, Store.t) Hashtbl.t;
  agg_state : (int, group Row.Tbl.t) Hashtbl.t;
  (* Arrangement cache: (atom id, bound-position bitmask) -> the shared
     store index that probe uses.  Seeded at [create] by walking every
     rule's textual execution orders, extended lazily for signatures
     only the runtime planner produces. *)
  arr_cache : (int * int, Store.index) Hashtbl.t;
  mutable txn_open : bool;
  (* A commit that raises mid-propagation leaves the stores with some
     strata applied and others not; the engine is poisoned so every
     later operation fails loudly instead of reading half-updated
     state. *)
  mutable poisoned : bool;
  (* ablation switches, used by the design-choice benchmarks: *)
  planner : bool;       (* greedy selectivity-based join ordering *)
  use_indexes : bool;   (* per-join-key hash indexes (else full scans) *)
}

(* Observability (metric names are a public contract, see README).
   The registry is process-global, so engines of different programs
   aggregate into the same metrics. *)
let m_commits = Obs.Counter.create "dl.commit.count"
let m_input_rows = Obs.Counter.create "dl.commit.input_rows"
let m_output_rows = Obs.Counter.create "dl.commit.output_rows"
let h_commit = Obs.Histogram.create ~unit_:"us" "dl.commit"

let check_live eng =
  if eng.poisoned then
    error
      "engine poisoned: an earlier commit failed mid-propagation and the \
       relation stores may be inconsistent; rebuild the engine"

type txn = {
  eng : t;
  mutable ops : (string * Row.t * bool) list;  (* rel, row, is_insert; reversed *)
  mutable committed : bool;
}

let store eng name =
  match Hashtbl.find_opt eng.rels name with
  | Some s -> s
  | None -> error "unknown relation %s" name

(* ------------------------------------------------------------------ *)
(* Version-aware access                                                *)
(* ------------------------------------------------------------------ *)

(* [changed] maps a relation name to its accumulated set-level delta in
   the current transaction.  The store always holds the newest state, so
   the old state is reconstructed as (new - delta). *)

type changed = (string, Zset.t ref) Hashtbl.t

let get_delta (changed : changed) rel : Zset.t =
  match Hashtbl.find_opt changed rel with Some z -> !z | None -> Zset.empty

let record_delta (changed : changed) rel row w =
  if w <> 0 then begin
    match Hashtbl.find_opt changed rel with
    | Some z -> z := Zset.add !z row w
    | None -> Hashtbl.add changed rel (ref (Zset.singleton row w))
  end

(* Match [row] against the pattern array, binding fresh slots (recorded
   on [trail]) and checking constants and already-bound slots.  Returns
   true on success; on failure the caller must still unwind [trail]. *)
let match_pattern (pats : Compile.cpat array) (row : Row.t)
    (env : Value.t array) (bound : bool array) (trail : int list ref) : bool =
  let n = Array.length pats in
  let rec go i =
    if i >= n then true
    else
      match pats.(i) with
      | Compile.CWildP -> go (i + 1)
      | Compile.CConstP c -> Value.equal c (Row.get row i) && go (i + 1)
      | Compile.CSlot s ->
        if bound.(s) then Value.equal env.(s) (Row.get row i) && go (i + 1)
        else begin
          env.(s) <- Row.get row i;
          bound.(s) <- true;
          trail := s :: !trail;
          go (i + 1)
        end
  in
  go 0

let unwind (bound : bool array) (trail : int list ref) (upto : int list) =
  let rec go l =
    if l != upto then
      match l with
      | [] -> ()
      | s :: rest ->
        bound.(s) <- false;
        go rest
  in
  go !trail;
  trail := upto

(* ------------------------------------------------------------------ *)
(* Arrangements                                                        *)
(* ------------------------------------------------------------------ *)

(* An arrangement is a store index keyed by the columns an atom probe
   has bound: constants always, slots when the current partial binding
   fixes them.  The signature of a probe is the bitmask of those
   positions; per (atom, mask) the index is resolved once and memoised
   in [eng.arr_cache], so the hot join loop does a single int-pair
   hash lookup instead of collecting/sorting positions and searching
   the store's index list on every probe. *)

(* Bitmasks only work below the word size; atoms wider than this take
   an uncached slow path (and never arise in practice). *)
let max_mask_arity = 60

let atom_mask (a : Compile.catom) (bound : bool array) =
  let mask = ref 0 in
  Array.iteri
    (fun i pat ->
      match pat with
      | Compile.CConstP _ -> mask := !mask lor (1 lsl i)
      | Compile.CSlot s when bound.(s) -> mask := !mask lor (1 lsl i)
      | Compile.CSlot _ | Compile.CWildP -> ())
    a.pats;
  !mask

let index_for_mask eng (a : Compile.catom) (mask : int) : Store.index =
  let key = (a.Compile.aid, mask) in
  match Hashtbl.find_opt eng.arr_cache key with
  | Some idx -> idx
  | None ->
    let positions = ref [] in
    for i = Array.length a.pats - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then positions := i :: !positions
    done;
    let idx =
      Store.ensure_index (store eng a.crel) (Array.of_list !positions)
    in
    Hashtbl.add eng.arr_cache key idx;
    idx

(* Resolve the arrangement and interned key for an atom probe under the
   current binding. *)
let atom_index eng (a : Compile.catom) (env : Value.t array)
    (bound : bool array) : Store.index * Row.t =
  let idx =
    if Array.length a.pats <= max_mask_arity then
      let mask = if eng.use_indexes then atom_mask a bound else 0 in
      index_for_mask eng a mask
    else begin
      (* uncached slow path for very wide atoms *)
      let key_positions = ref [] in
      if eng.use_indexes then
        Array.iteri
          (fun i pat ->
            match pat with
            | Compile.CConstP _ -> key_positions := i :: !key_positions
            | Compile.CSlot s when bound.(s) ->
              key_positions := i :: !key_positions
            | Compile.CSlot _ | Compile.CWildP -> ())
          a.pats;
      Store.ensure_index (store eng a.crel)
        (Array.of_list (List.rev !key_positions))
    end
  in
  let key =
    Row.intern
      (Array.map
         (fun p ->
           match a.pats.(p) with
           | Compile.CConstP c -> c
           | Compile.CSlot s -> env.(s)
           | Compile.CWildP -> assert false)
         idx.positions)
  in
  (idx, key)

(* Iterate the rows of [rel] matching the atom pattern under the current
   partial binding, in the requested version.  [f] is called with the
   environment extended; bindings are undone afterwards.

   Buckets are iterated live (no snapshot): sound because no engine
   path mutates a store while joins are reading it — derived deltas
   are accumulated and applied only after the joins that produced them
   finish (see the Store invariants). *)
let iter_atom_matches eng (changed : changed) ~version (a : Compile.catom)
    (env : Value.t array) (bound : bool array) (trail : int list ref)
    (f : unit -> unit) =
  let idx, key = atom_index eng a env bound in
  let delta = get_delta changed a.crel in
  let try_row row =
    let saved = !trail in
    if match_pattern a.pats row env bound trail then f ();
    unwind bound trail saved
  in
  match version with
  | New -> Store.index_iter idx key try_row
  | Old ->
    Store.index_iter idx key (fun row ->
        if Zset.weight delta row <= 0 then try_row row);
    (* Rows deleted this transaction are absent from the index. *)
    Zset.iter (fun row w -> if w < 0 then try_row row) delta

(* Existence test used by negated literals: is there any row matching
   the (fully bound apart from wildcards) pattern? *)
exception Found

let exists_match eng changed ~version (a : Compile.catom) env bound trail =
  try
    iter_atom_matches eng changed ~version a env bound trail (fun () ->
        raise Found);
    false
  with Found -> true

(* ------------------------------------------------------------------ *)
(* Rule body solving                                                   *)
(* ------------------------------------------------------------------ *)

(* Expression slot dependencies, for deciding when a literal is ready. *)
let rec expr_slots acc (e : Compile.cexpr) =
  match e with
  | Compile.CVar s -> s :: acc
  | Compile.CConst _ -> acc
  | Compile.CCall (_, args) | Compile.CTuple args ->
    Array.fold_left expr_slots acc args
  | Compile.CIf (c, t, e) -> expr_slots (expr_slots (expr_slots acc c) t) e

let all_bound (bound : bool array) slots = List.for_all (fun s -> bound.(s)) slots

(* Estimated result size of matching an atom under the current binding:
   the size of its index bucket (plus the txn delta size for old
   versions — an over-estimate is fine, this is only a planner). *)
let atom_estimate eng changed ~version (a : Compile.catom) env bound : int =
  let idx, key = atom_index eng a env bound in
  let base = Store.index_count idx key in
  match version with
  | New -> base
  | Old -> base + Zset.cardinal (get_delta changed a.crel)

(* Solve the remaining body literals with greedy selectivity-based
   planning: conditions and assignments run as soon as their inputs are
   bound; among atoms, the one with the smallest estimated match count
   goes first.  Reordering is sound because each literal carries its own
   version and the body denotes a product of constraints; assignments
   against already-bound slots degrade to equality checks.  [emit] is
   called once per completed binding. *)
let rec solve eng changed (crule : Compile.crule)
    (remaining : (int * version) list) (env : Value.t array)
    (bound : bool array) (trail : int list ref) (emit : unit -> unit) =
  match remaining with
  | [] -> emit ()
  | [ (lit_idx, version) ] ->
    (* singleton fast path: nothing to plan *)
    exec_literal eng changed crule lit_idx version [] env bound trail emit
  | _ ->
    (* Pick the next literal. *)
    let position_of item =
      let rec go i = function
        | [] -> i
        | x :: rest -> if x == item then i else go (i + 1) rest
      in
      go 0 remaining
    in
    let ready_score ((lit_idx, version) as item) =
      ignore version;
      let selectivity a v =
        if eng.planner then atom_estimate eng changed ~version:v a env bound
        else position_of item
      in
      match crule.body.(lit_idx) with
      | Compile.CCond e ->
        if all_bound bound (expr_slots [] e) then Some (-3) else None
      | Compile.CAssign (_, e) ->
        if all_bound bound (expr_slots [] e) then Some (-2) else None
      | Compile.CFlat (_, e) ->
        if all_bound bound (expr_slots [] e) then Some 2 else None
      | Compile.CNeg a ->
        let slots =
          Array.to_list a.pats
          |> List.filter_map (function
               | Compile.CSlot s -> Some s
               | Compile.CConstP _ | Compile.CWildP -> None)
        in
        if all_bound bound slots then Some (-1) else None
      | Compile.CAtom a -> Some (selectivity a version)
    in
    let best =
      List.fold_left
        (fun best item ->
          match ready_score item with
          | None -> best
          | Some score ->
            (* with the planner disabled, fall back to textual order *)
            let score = if eng.planner then score else position_of item in
            (match best with
            | Some (_, s) when s <= score -> best
            | _ -> Some (item, score)))
        None remaining
    in
    (match best with
    | None ->
      (* No literal is ready — impossible for type-checked rules, since
         the original left-to-right order is always executable. *)
      error "rule %s: no evaluable literal (planner bug)"
        (Format.asprintf "%a" Ast.pp_rule crule.source)
    | Some (((lit_idx, version) as chosen), _) ->
      let rest = List.filter (fun item -> item != chosen) remaining in
      exec_literal eng changed crule lit_idx version rest env bound trail emit)

and exec_literal eng changed (crule : Compile.crule) lit_idx version rest env
    bound trail emit =
  let continue () = solve eng changed crule rest env bound trail emit in
  match crule.body.(lit_idx) with
  | Compile.CAtom a ->
    iter_atom_matches eng changed ~version a env bound trail continue
  | Compile.CNeg a ->
    if not (exists_match eng changed ~version a env bound trail) then
      continue ()
  | Compile.CCond e ->
    if Value.as_bool (Compile.eval_expr env e) then continue ()
  | Compile.CAssign (s, e) ->
    let v = Compile.eval_expr env e in
    if bound.(s) then begin
      if Value.equal env.(s) v then continue ()
    end
    else begin
      env.(s) <- v;
      bound.(s) <- true;
      let saved = !trail in
      trail := s :: !trail;
      continue ();
      unwind bound trail saved
    end
  | Compile.CFlat (s, e) ->
    let elems = Value.as_vec (Compile.eval_expr env e) in
    if bound.(s) then
      (* Pre-bound by a driver: one continuation per equal occurrence. *)
      List.iter (fun v -> if Value.equal env.(s) v then continue ()) elems
    else
      List.iter
        (fun v ->
          env.(s) <- v;
          bound.(s) <- true;
          let saved = !trail in
          trail := s :: !trail;
          continue ();
          unwind bound trail saved)
        elems

(* Evaluation order when driving from body literal [i]: literals before
   [i] read the new state, literals after read the old state. *)
let order_for_driver (crule : Compile.crule) (i : int) : (int * version) array
    =
  let k = Array.length crule.body in
  Array.init (k - 1) (fun j ->
      if j < i then (j, New) else (j + 1, Old))

let order_full (crule : Compile.crule) : (int * version) array =
  Array.init (Array.length crule.body) (fun j -> (j, New))

(* Values produced by the rule for the current environment. *)
let head_row (crule : Compile.crule) (env : Value.t array) : Row.t =
  Row.intern (Array.map (Compile.eval_expr env) crule.head_exprs)

(* The "pre-aggregation row" of an aggregate rule: group-by values
   followed by the aggregated expression's value. *)
let pre_agg_row (cagg : Compile.cagg) (env : Value.t array) : Row.t =
  let n = Array.length cagg.cagg_by in
  Row.intern
    (Array.init (n + 1) (fun i ->
         if i < n then env.(cagg.cagg_by.(i))
         else Compile.eval_expr env cagg.cagg_expr))

(* Drive rule [crule] from a delta on body literal [i].  For every
   completed derivation, [emit row weight] is called, where [row] is
   produced by [mk_row] and [weight] already accounts for the driver's
   weight and, for negated drivers, the flipped sign of the projection's
   existence change. *)
let drive ?(all_new = false) eng changed (crule : Compile.crule) (i : int)
    (delta : Zset.t) ~(mk_row : Value.t array -> Row.t)
    (emit : Row.t -> int -> unit) =
  if not (Zset.is_empty delta) then begin
    (* [all_new] is used inside recursive strata, where every literal
       must read the current (partially updated) state of the fixpoint;
       the mixed old/new order is only correct for the telescoped sum
       over external deltas. *)
    let order =
      Array.to_list
        (if all_new then
           Array.map (fun (j, _) -> (j, New)) (order_for_driver crule i)
         else order_for_driver crule i)
    in
    match crule.body.(i) with
    | Compile.CAtom a ->
      Zset.iter
        (fun row w ->
          let env = Array.make crule.nslots (Value.VBool false) in
          let bound = Array.make crule.nslots false in
          let trail = ref [] in
          if match_pattern a.pats row env bound trail then
            solve eng changed crule order env bound trail (fun () ->
                emit (mk_row env) w))
        delta
    | Compile.CNeg a ->
      (* The negation depends only on the projection of the relation on
         the non-wildcard positions of the pattern.  Compute, for every
         candidate binding touched by the delta, whether its existence
         status changed, and drive with the flipped sign. *)
      let seen = Row.Tbl.create 16 in
      Zset.iter
        (fun row _w ->
          let env = Array.make crule.nslots (Value.VBool false) in
          let bound = Array.make crule.nslots false in
          let trail = ref [] in
          if match_pattern a.pats row env bound trail then begin
            (* Canonical key: slot values in pattern order. *)
            let slots =
              Array.to_list a.pats
              |> List.filter_map (function
                   | Compile.CSlot s -> Some s
                   | Compile.CConstP _ | Compile.CWildP -> None)
            in
            let key = Row.of_list (List.map (fun s -> env.(s)) slots) in
            if not (Row.Tbl.mem seen key) then begin
              Row.Tbl.replace seen key ();
              (* Here all of the pattern's slots are bound, so the two
                 existence tests reuse the same environment. *)
              let ex_old = exists_match eng changed ~version:Old a env bound trail in
              let ex_new = exists_match eng changed ~version:New a env bound trail in
              let dw =
                match ex_old, ex_new with
                | false, true -> -1     (* appeared: derivations lost *)
                | true, false -> 1      (* disappeared: derivations gained *)
                | _ -> 0
              in
              if dw <> 0 then
                solve eng changed crule order env bound trail (fun () ->
                    emit (mk_row env) dw)
            end
          end;
          unwind bound trail [])
        delta
    | Compile.CCond _ | Compile.CAssign _ | Compile.CFlat _ ->
      assert false (* only atoms are drivers *)
  end

(* Full (from-scratch) evaluation of a rule against the current state. *)
let eval_full eng changed (crule : Compile.crule)
    ~(mk_row : Value.t array -> Row.t) (emit : Row.t -> int -> unit) =
  let env = Array.make (max 1 crule.nslots) (Value.VBool false) in
  let bound = Array.make (max 1 crule.nslots) false in
  let trail = ref [] in
  solve eng changed crule (Array.to_list (order_full crule)) env bound trail
    (fun () -> emit (mk_row env) 1)

(* ------------------------------------------------------------------ *)
(* Aggregate rules                                                     *)
(* ------------------------------------------------------------------ *)

let agg_groups eng (crule : Compile.crule) : group Row.Tbl.t =
  match Hashtbl.find_opt eng.agg_state crule.rule_id with
  | Some tbl -> tbl
  | None ->
    let tbl = Row.Tbl.create 16 in
    Hashtbl.add eng.agg_state crule.rule_id tbl;
    tbl

let agg_result (cagg : Compile.cagg) (g : group) : Value.t option =
  if Value.Map.is_empty g.elems then None
  else Some (Builtins.agg_eval cagg.cagg_func (Value.Map.bindings g.elems))

(* Head row of an aggregate rule for a given group key and result. *)
let agg_head_row (crule : Compile.crule) (cagg : Compile.cagg) (key : Row.t)
    (result : Value.t) : Row.t =
  let env = Array.make crule.nslots (Value.VBool false) in
  Array.iteri (fun i s -> env.(s) <- Row.get key i) cagg.cagg_by;
  env.(cagg.cagg_out) <- result;
  head_row crule env

(* Process an aggregate rule: compute the delta of the pre-aggregation
   multiset, update per-group state, and emit head derivation deltas. *)
let eval_agg_rule eng changed (crule : Compile.crule) (cagg : Compile.cagg)
    ~(drivers : (int * Zset.t) list) (emit : Row.t -> int -> unit) =
  let pre_delta = ref Zset.empty in
  List.iter
    (fun (i, delta) ->
      drive eng changed crule i delta
        ~mk_row:(fun env -> pre_agg_row cagg env)
        (fun row w -> pre_delta := Zset.add !pre_delta row w))
    drivers;
  if not (Zset.is_empty !pre_delta) then begin
    let nby = Array.length cagg.cagg_by in
    (* Group the pre-aggregation delta by key. *)
    let by_key : int Value.Map.t ref Row.Tbl.t = Row.Tbl.create 16 in
    let by_pos = Array.init nby (fun i -> i) in
    Zset.iter
      (fun row w ->
        let key = Row.project row by_pos in
        let v = Row.get row nby in
        let m =
          match Row.Tbl.find_opt by_key key with
          | Some m -> m
          | None ->
            let m = ref Value.Map.empty in
            Row.Tbl.add by_key key m;
            m
        in
        m :=
          Value.Map.update v
            (function
              | None -> Some w
              | Some w' -> if w + w' = 0 then None else Some (w + w'))
            !m)
      !pre_delta;
    let groups = agg_groups eng crule in
    Row.Tbl.iter
      (fun key delta_elems ->
        let g =
          match Row.Tbl.find_opt groups key with
          | Some g -> g
          | None ->
            let g = { elems = Value.Map.empty } in
            Row.Tbl.add groups key g;
            g
        in
        let old_result = agg_result cagg g in
        Value.Map.iter
          (fun v w ->
            g.elems <-
              Value.Map.update v
                (function
                  | None ->
                    if w < 0 then
                      error "aggregate group under-run in rule %s"
                        (Format.asprintf "%a" Ast.pp_rule crule.source);
                    if w = 0 then None else Some w
                  | Some w' ->
                    let n = w + w' in
                    if n < 0 then
                      error "aggregate group under-run in rule %s"
                        (Format.asprintf "%a" Ast.pp_rule crule.source);
                    if n = 0 then None else Some n)
                g.elems)
          !delta_elems;
        let new_result = agg_result cagg g in
        if Value.Map.is_empty g.elems then Row.Tbl.remove groups key;
        (match old_result, new_result with
        | Some o, Some n when Value.equal o n -> ()
        | _ ->
          (match old_result with
          | Some o -> emit (agg_head_row crule cagg key o) (-1)
          | None -> ());
          (match new_result with
          | Some n -> emit (agg_head_row crule cagg key n) 1
          | None -> ())))
      by_key
  end

(* ------------------------------------------------------------------ *)
(* Non-recursive strata                                                *)
(* ------------------------------------------------------------------ *)

(* Drivers of a rule that have pending deltas. *)
let active_drivers (changed : changed) (crule : Compile.crule) :
    (int * Zset.t) list =
  List.filter_map
    (fun (i, rel, _neg) ->
      let d = get_delta changed rel in
      if Zset.is_empty d then None else Some (i, d))
    (Compile.driver_positions crule)

(* A non-recursive stratum in two phases.  First the joins read the
   stores and [changed] and accumulate the head relation's
   derivation-count delta; no store is mutated while its buckets are
   being iterated.  Then the delta is applied as one batch — counts
   updated in one pass, every index maintained in one sweep over the
   visibility transitions — and the visibility delta becomes the
   stratum's set-level output delta. *)
let process_nonrecursive eng (changed : changed) (sc : stratum_c) ~init =
  let head_delta = ref Zset.empty in
  let emit row w = head_delta := Zset.add !head_delta row w in
  List.iter
    (fun (crule : Compile.crule) ->
      match crule.agg with
      | Some cagg ->
        let drivers = active_drivers changed crule in
        if drivers <> [] then
          eval_agg_rule eng changed crule cagg ~drivers emit
      | None ->
        if init && Array.length crule.body = 0 then
          (* A fact: fires exactly once, at initialisation. *)
          eval_full eng changed crule ~mk_row:(head_row crule) emit
        else
          List.iter
            (fun (i, delta) ->
              drive eng changed crule i delta ~mk_row:(head_row crule) emit)
            (active_drivers changed crule))
    sc.crules;
  match sc.info.relations with
  | [ rel_name ] ->
    let st = store eng rel_name in
    let vis = Store.apply_derivations st !head_delta in
    if not (Zset.is_empty vis) then begin
      match Hashtbl.find_opt changed rel_name with
      | Some z -> z := Zset.union !z vis
      | None -> Hashtbl.add changed rel_name (ref vis)
    end
  | _ -> assert false (* non-recursive strata have exactly one relation *)

(* ------------------------------------------------------------------ *)
(* Recursive strata: semi-naive insertion + DRed deletion              *)
(* ------------------------------------------------------------------ *)

(* Can this rule's head be inverted for the re-derivation query?  Yes
   when every head argument is a variable or a constant. *)
let invertible_head (crule : Compile.crule) =
  Array.for_all
    (function Compile.CVar _ | Compile.CConst _ -> true | _ -> false)
    crule.head_exprs

(* Is [fact] derivable in one step by [crule] against the current state? *)
let rederivable eng changed (crule : Compile.crule) (fact : Row.t) : bool =
  let env = Array.make (max 1 crule.nslots) (Value.VBool false) in
  let bound = Array.make (max 1 crule.nslots) false in
  let trail = ref [] in
  let ok = ref true in
  if invertible_head crule then begin
    Array.iteri
      (fun i e ->
        match e with
        | Compile.CConst c ->
          if not (Value.equal c (Row.get fact i)) then ok := false
        | Compile.CVar s ->
          if bound.(s) then begin
            if not (Value.equal env.(s) (Row.get fact i)) then ok := false
          end
          else begin
            env.(s) <- Row.get fact i;
            bound.(s) <- true
          end
        | _ -> assert false)
      crule.head_exprs;
    !ok
    &&
    try
      solve eng changed crule (Array.to_list (order_full crule)) env bound
        trail (fun () -> raise Found);
      false
    with Found -> true
  end
  else begin
    (* Fallback: enumerate the rule and compare heads. *)
    try
      solve eng changed crule (Array.to_list (order_full crule)) env bound
        trail (fun () ->
          if Row.equal (head_row crule env) fact then raise Found);
      false
    with Found -> true
  end

let process_recursive eng (changed : changed) (sc : stratum_c) ~init =
  let in_scc rel = List.mem rel sc.info.relations in
  (* Rules indexed by head relation, and the SCC driver positions. *)
  let scc_drivers crule =
    List.filter (fun (_, rel, neg) -> in_scc rel && not neg)
      (Compile.driver_positions crule)
  in
  (* Phase 0: contributions from outside the stratum (and facts). *)
  let pos_seed = ref [] and neg_seed = ref [] in
  let emit_seed crule row w =
    if w > 0 then pos_seed := (crule.Compile.head_rel, row) :: !pos_seed
    else if w < 0 then neg_seed := (crule.Compile.head_rel, row) :: !neg_seed
  in
  List.iter
    (fun (crule : Compile.crule) ->
      if init && Array.length crule.body = 0 then
        eval_full eng changed crule ~mk_row:(head_row crule) (fun row w ->
            emit_seed crule row w)
      else
        List.iter
          (fun (i, rel, _neg) ->
            if not (in_scc rel) then
              let delta = get_delta changed rel in
              drive eng changed crule i delta ~mk_row:(head_row crule)
                (fun row w -> emit_seed crule row w))
          (Compile.driver_positions crule))
    sc.crules;
  (* Phase 1: DRed.  Over-delete the closure of the lost facts, then
     re-derive survivors. *)
  let marked : (string, unit Row.Tbl.t) Hashtbl.t = Hashtbl.create 4 in
  let marked_tbl rel =
    match Hashtbl.find_opt marked rel with
    | Some tbl -> tbl
    | None ->
      let tbl = Row.Tbl.create 16 in
      Hashtbl.add marked rel tbl;
      tbl
  in
  let is_marked rel row = Row.Tbl.mem (marked_tbl rel) row in
  let mark rel row = Row.Tbl.replace (marked_tbl rel) row () in
  let del_frontier = ref [] in
  List.iter
    (fun (rel, row) ->
      let st = store eng rel in
      if Store.mem st row && not (is_marked rel row) then begin
        mark rel row;
        del_frontier := (rel, row) :: !del_frontier
      end)
    !neg_seed;
  while !del_frontier <> [] do
    let frontier = !del_frontier in
    del_frontier := [];
    (* Group the frontier by relation for driving. *)
    let by_rel = Hashtbl.create 4 in
    List.iter
      (fun (rel, row) ->
        let z = try Hashtbl.find by_rel rel with Not_found -> Zset.empty in
        Hashtbl.replace by_rel rel (Zset.add z row 1))
      frontier;
    List.iter
      (fun (crule : Compile.crule) ->
        List.iter
          (fun (i, rel, _) ->
            match Hashtbl.find_opt by_rel rel with
            | None -> ()
            | Some delta ->
              drive ~all_new:true eng changed crule i delta
                ~mk_row:(head_row crule)
                (fun row _w ->
                  let hrel = crule.head_rel in
                  let st = store eng hrel in
                  if Store.mem st row && not (is_marked hrel row) then begin
                    mark hrel row;
                    del_frontier := (hrel, row) :: !del_frontier
                  end))
          (scc_drivers crule))
      sc.crules
  done;
  (* Physically remove the over-deleted facts. *)
  Hashtbl.iter
    (fun rel tbl ->
      let st = store eng rel in
      Row.Tbl.iter
        (fun row () ->
          if Store.set_remove st row then record_delta changed rel row (-1))
        tbl)
    marked;
  (* Re-derivation: a removed fact comes back if some rule still derives
     it in one step from the remaining state. *)
  let ins_frontier = ref [] in
  Hashtbl.iter
    (fun rel tbl ->
      Row.Tbl.iter
        (fun row () ->
          let derivable =
            List.exists
              (fun (crule : Compile.crule) ->
                String.equal crule.head_rel rel
                && Array.length crule.body > 0
                && rederivable eng changed crule row)
              sc.crules
          in
          if derivable then ins_frontier := (rel, row) :: !ins_frontier)
        tbl)
    marked;
  (* Phase 2: insertions — external seeds plus re-derived facts,
     propagated to a fixpoint semi-naively.  A positive seed was
     computed before the deletion phase ran, so it may have become
     stale (its supporting SCC facts may just have been deleted);
     re-verify one-step derivability against the current state.  Seeds
     that only become derivable via other seeds are recovered by the
     semi-naive propagation below. *)
  List.iter
    (fun (rel, row) ->
      let st = store eng rel in
      if
        (not (Store.mem st row))
        && List.exists
             (fun (crule : Compile.crule) ->
               String.equal crule.Compile.head_rel rel
               && rederivable eng changed crule row)
             sc.crules
      then ins_frontier := (rel, row) :: !ins_frontier)
    !pos_seed;
  (* Deduplicate the initial frontier. *)
  let rec loop frontier =
    (* Insert the frontier first so that derivations combining two new
       facts see both. *)
    let inserted =
      List.filter
        (fun (rel, row) ->
          let st = store eng rel in
          if Store.set_insert st row then begin
            record_delta changed rel row 1;
            true
          end
          else false)
        frontier
    in
    if inserted <> [] then begin
      let by_rel = Hashtbl.create 4 in
      List.iter
        (fun (rel, row) ->
          let z = try Hashtbl.find by_rel rel with Not_found -> Zset.empty in
          Hashtbl.replace by_rel rel (Zset.add z row 1))
        inserted;
      let next = ref [] in
      List.iter
        (fun (crule : Compile.crule) ->
          List.iter
            (fun (i, rel, _) ->
              match Hashtbl.find_opt by_rel rel with
              | None -> ()
              | Some delta ->
                drive ~all_new:true eng changed crule i delta
                  ~mk_row:(head_row crule)
                  (fun row w ->
                    if w > 0 then begin
                      let st = store eng crule.head_rel in
                      if not (Store.mem st row) then
                        next := (crule.head_rel, row) :: !next
                    end))
            (scc_drivers crule))
        sc.crules;
      if !next <> [] then loop !next
    end
  in
  loop !ins_frontier

(* ------------------------------------------------------------------ *)
(* Engine construction and transactions                                *)
(* ------------------------------------------------------------------ *)

(* Versioned evaluation inside recursive strata always uses [New]; the
   drive of seeds uses mixed versions, which is consistent because SCC
   relations have no delta yet at seeding time. *)

(* Arrangement pre-planning: walk every rule's textual execution orders
   (full evaluation; one order per driver, with the driver's slots
   pre-bound; re-derivation, with head slots pre-bound) and build the
   index each atom probe would use.  This hoists arrangement
   construction out of the first commits, dedupes arrangements across
   rules and strata through Store's canonical-positions table, and
   seeds the (atom, mask) memo cache.  The greedy runtime planner can
   still produce novel probe signatures under unusual data
   distributions; those extend the cache lazily via [atom_index]. *)
let preplan_arrangements eng =
  let register (a : Compile.catom) bound =
    if Array.length a.pats <= max_mask_arity then
      ignore (index_for_mask eng a (atom_mask a bound))
  in
  let bind_atom_slots (a : Compile.catom) bound =
    Array.iter
      (function Compile.CSlot s -> bound.(s) <- true | _ -> ())
      a.pats
  in
  Array.iter
    (fun sc ->
      List.iter
        (fun (crule : Compile.crule) ->
          let n = Array.length crule.body in
          let nslots = max 1 crule.nslots in
          let sim bound order =
            List.iter
              (fun j ->
                match crule.body.(j) with
                | Compile.CAtom a ->
                  register a bound;
                  bind_atom_slots a bound
                | Compile.CNeg a ->
                  (* negation probes only run once all their slots are
                     bound *)
                  register a (Array.make nslots true)
                | Compile.CCond _ -> ()
                | Compile.CAssign (s, _) | Compile.CFlat (s, _) ->
                  bound.(s) <- true)
              order
          in
          let full = List.init n Fun.id in
          sim (Array.make nslots false) full;
          List.iter
            (fun (i, _, _) ->
              let b = Array.make nslots false in
              (match crule.body.(i) with
              | Compile.CAtom a | Compile.CNeg a -> bind_atom_slots a b
              | Compile.CCond _ | Compile.CAssign _ | Compile.CFlat _ -> ());
              sim b (List.filter (fun j -> j <> i) full))
            (Compile.driver_positions crule);
          (* re-derivation probes (DRed): head slots bound, full body *)
          let b = Array.make nslots false in
          Array.iter
            (function Compile.CVar s -> b.(s) <- true | _ -> ())
            crule.head_exprs;
          sim b full)
        sc.crules)
    eng.strata

let create ?(planner = true) ?(use_indexes = true) (program : Ast.program) : t =
  (match Typecheck.check_program program with
  | Ok () -> ()
  | Error errs -> error "type errors:\n%s" (String.concat "\n" errs));
  let strata_info =
    try Stratify.stratify program
    with Stratify.Unstratifiable msg -> error "unstratifiable program: %s" msg
  in
  let rule_id = ref 0 in
  let compiled = Hashtbl.create 64 in
  List.iter
    (fun rule ->
      let cr = Compile.compile_rule ~rule_id:!rule_id rule in
      incr rule_id;
      Hashtbl.add compiled rule cr)
    program.rules;
  let strata =
    Array.of_list
      (List.mapi
         (fun i (info : Stratify.stratum) ->
           let crules = List.map (Hashtbl.find compiled) info.rules in
           let reads =
             List.concat_map
               (fun rule ->
                 List.map fst (Ast.body_dependencies rule))
               info.rules
             |> List.sort_uniq String.compare
           in
           let hist =
             Obs.Histogram.create ~unit_:"us"
               (Printf.sprintf "dl.commit.stratum.%d" i)
           in
           { info; crules; reads; hist })
         strata_info)
  in
  let rels = Hashtbl.create 64 in
  List.iter
    (fun (d : Ast.rel_decl) -> Hashtbl.add rels d.rname (Store.create d))
    program.decls;
  let eng =
    { program; strata; rels; agg_state = Hashtbl.create 16;
      arr_cache = Hashtbl.create 64;
      txn_open = false; poisoned = false; planner; use_indexes }
  in
  (* Build the program's arrangements up front, while the stores are
     still empty. *)
  if use_indexes then preplan_arrangements eng;
  (* Initialisation transaction: fire the program's facts. *)
  let changed : changed = Hashtbl.create 16 in
  Array.iter
    (fun sc ->
      if sc.info.recursive then process_recursive eng changed sc ~init:true
      else process_nonrecursive eng changed sc ~init:true)
    eng.strata;
  eng

let relation_rows eng name : Row.t list =
  check_live eng;
  Store.rows (store eng name)

let relations eng : string list =
  List.map (fun (d : Ast.rel_decl) -> d.rname) eng.program.Ast.decls

(** Indexed point query: rows of [name] whose columns at [positions]
    equal [key].  Positions are normalised (sorted, deduplicated);
    duplicate positions constrained to conflicting values make the
    query unsatisfiable and return [].  Builds and maintains the index
    on first use, so repeated queries are O(result). *)
let query eng name ~(positions : int list) ~(key : Value.t list) : Row.t list =
  check_live eng;
  let st = store eng name in
  let arity = Store.arity st in
  if List.length positions <> List.length key then
    error "query %s: %d positions but %d key values" name
      (List.length positions) (List.length key);
  List.iter
    (fun p ->
      if p < 0 || p >= arity then
        error "query %s: position %d out of range (arity %d)" name p arity)
    positions;
  (* Normalise the (position, value) constraints: sort by position and
     collapse duplicates.  The previous implementation handed the raw
     list straight to the index, silently assuming ascending
     duplicate-free positions (and crashing or answering from a wrong
     bucket otherwise). *)
  let pairs =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.combine positions key)
  in
  let exception Unsat in
  match
    let rec dedup = function
      | ([] | [ _ ]) as l -> l
      | (p1, v1) :: ((p2, v2) :: _ as rest) when p1 = p2 ->
        if Value.equal v1 v2 then dedup rest else raise Unsat
      | pv :: rest -> pv :: dedup rest
    in
    dedup pairs
  with
  | exception Unsat -> []
  | pairs ->
    if eng.use_indexes then
      let idx = Store.ensure_index st (Array.of_list (List.map fst pairs)) in
      Store.index_lookup idx (Row.of_list (List.map snd pairs))
    else
      (* With indexes disabled, answer one-shot queries by scanning
         instead of permanently installing (and forever maintaining) an
         index per distinct constraint set. *)
      Store.fold
        (fun row acc ->
          if
            List.for_all
              (fun (p, v) -> Value.equal (Row.get row p) v)
              pairs
          then row :: acc
          else acc)
        st []

let relation_zset eng name : Zset.t =
  check_live eng;
  Store.to_zset (store eng name)

let relation_cardinal eng name : int =
  check_live eng;
  Store.cardinal (store eng name)

(** Total stored tuples, including index duplication and aggregate
    state — the "RAM" proxy used by the memory experiments. *)
let footprint eng =
  let rels =
    Hashtbl.fold (fun _ st acc -> acc + Store.footprint st) eng.rels 0
  in
  let aggs =
    Hashtbl.fold
      (fun _ tbl acc ->
        Row.Tbl.fold
          (fun _ g acc -> acc + 1 + Value.Map.cardinal g.elems)
          tbl acc)
      eng.agg_state 0
  in
  rels + aggs

let transaction eng : txn =
  check_live eng;
  if eng.txn_open then error "a transaction is already open";
  eng.txn_open <- true;
  { eng; ops = []; committed = false }

let check_input (eng : t) rel (row : Row.t) =
  match Ast.find_decl eng.program rel with
  | None -> error "unknown relation %s" rel
  | Some d ->
    if d.role <> Ast.Input then
      error "%s is not an input relation" rel;
    if Row.arity row <> Ast.arity d then
      error "%s: arity mismatch (expected %d, got %d)" rel (Ast.arity d)
        (Row.arity row);
    List.iteri
      (fun i (cname, ty) ->
        if not (Dtype.check ty (Row.get row i)) then
          error "%s.%s: value %s does not have type %s" rel cname
            (Value.to_string (Row.get row i)) (Dtype.to_string ty))
      d.cols

let insert txn rel row =
  check_input txn.eng rel row;
  txn.ops <- (rel, row, true) :: txn.ops

let delete txn rel row =
  check_input txn.eng rel row;
  txn.ops <- (rel, row, false) :: txn.ops

let rollback txn =
  txn.eng.txn_open <- false;
  txn.committed <- true

let stratum_active (changed : changed) (sc : stratum_c) =
  sc.crules <> []
  && List.exists
       (fun r -> not (Zset.is_empty (get_delta changed r)))
       sc.reads

(* Propagate a transaction's input deltas through the strata in
   dependency order. *)
let propagate eng (changed : changed) =
  Array.iter
    (fun sc ->
      if stratum_active changed sc then
        Obs.Histogram.time sc.hist @@ fun () ->
        if sc.info.recursive then process_recursive eng changed sc ~init:false
        else process_nonrecursive eng changed sc ~init:false)
    eng.strata

(** Commit the transaction.  Returns the set-level delta of every
    relation whose contents changed (inputs included). *)
let commit (txn : txn) : (string * Zset.t) list =
  if txn.committed then error "transaction already committed";
  let eng = txn.eng in
  check_live eng;
  txn.committed <- true;
  eng.txn_open <- false;
  Obs.Counter.incr m_commits;
  Obs.Histogram.time h_commit @@ fun () ->
  let changed : changed = Hashtbl.create 16 in
  (* An exception between the first store mutation and the end of the
     last stratum leaves the engine half-updated; poison it so later
     calls raise clearly instead of returning inconsistent answers. *)
  (try
     (* Net effect of the input operations.  Under set semantics the
        in-order result per row depends only on the *last* op staged
        for it (insert -> present, delete -> absent), so the ops are
        collapsed to one per (relation, row) and applied as a single
        batch per relation — one index-maintenance sweep per store
        instead of one per operation. *)
     let staged : (string, bool Row.Tbl.t) Hashtbl.t = Hashtbl.create 8 in
     List.iter
       (fun (rel, row, is_insert) ->
         let tbl =
           match Hashtbl.find_opt staged rel with
           | Some t -> t
           | None ->
             let t = Row.Tbl.create 32 in
             Hashtbl.add staged rel t;
             t
         in
         Row.Tbl.replace tbl row is_insert)
       (List.rev txn.ops);
     Hashtbl.iter
       (fun rel tbl ->
         let ops = Row.Tbl.fold (fun row ins acc -> (row, ins) :: acc) tbl [] in
         let vis = Store.apply_set_batch (store eng rel) ops in
         if not (Zset.is_empty vis) then begin
           match Hashtbl.find_opt changed rel with
           | Some z -> z := Zset.union !z vis
           | None -> Hashtbl.add changed rel (ref vis)
         end)
       staged;
     if Obs.enabled () then
       Obs.Counter.add m_input_rows
         (Hashtbl.fold (fun _ z acc -> acc + Zset.cardinal !z) changed 0);
     propagate eng changed
   with e ->
     eng.poisoned <- true;
     raise e);
  let deltas =
    Hashtbl.fold
      (fun rel z acc -> if Zset.is_empty !z then acc else (rel, !z) :: acc)
      changed []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  if Obs.enabled () then
    Obs.Counter.add m_output_rows
      (List.fold_left (fun acc (_, z) -> acc + Zset.cardinal z) 0 deltas);
  deltas

(** Deltas restricted to the program's output relations. *)
let output_deltas eng (deltas : (string * Zset.t) list) =
  List.filter
    (fun (rel, _) ->
      match Ast.find_decl eng.program rel with
      | Some d -> d.role = Ast.Output
      | None -> false)
    deltas

(** One-shot convenience: apply a batch of updates.  [updates] maps a
    relation to (row, insert?) pairs. *)
let apply eng (updates : (string * Row.t * bool) list) :
    (string * Zset.t) list =
  let txn = transaction eng in
  List.iter
    (fun (rel, row, ins) -> if ins then insert txn rel row else delete txn rel row)
    updates;
  commit txn
