(* The p4c-of analog: compile a mini-P4 program plus its current table
   entries into an OpenFlow flow pipeline.

   Two backends share the action translator:

   - [compile] (the default) builds one forwarding decision diagram per
     physical table — folding a table's rank-sorted entries, and [If]
     control flow whose branches are trivial, into a single ordered
     diagram — then extracts flows from the diagram.  Extraction prunes
     paths whose tests are implied or contradicted by the accumulated
     match, so fully-shadowed entries emit nothing, and assigns
     priorities per disjointness group rather than per rule.  [If]
     with non-trivial branches becomes a condition table whose rows
     [Goto] the branch's first table.

   - [compile_naive] is the historical per-entry translator: one flow
     per entry in rank order, no conditionals.  It is kept as the
     reference point for flow-count and compile-time comparisons.

   Actions compile as:

     Forward e    -> set reg.egress_spec/reg.has_dest
     Multicast e  -> set reg.mcast_grp
     Drop         -> set reg.dropped (no goto)
     EmitDigest d -> controller(d)
     Assign       -> set_field / copy_field / add (width-masked like the
                     interpreter's write_ref)
     SetValid     -> push_vlan (vlan header only), SetInvalid -> pop_vlan

   Expressions resolve to constants when the match path pins every bit
   they read (an FDD row knows the matched field values); otherwise a
   field-to-field [CopyField] or increment [AddConst] is emitted, and
   anything richer is [Unsupported].

   One documented semantic difference survives from the old compiler: a
   dropped packet stops at the dropping table instead of traversing the
   rest of the pipeline, so digests/counters after a drop are not
   emitted.  Forwarding verdicts agree because drops are sticky. *)

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

module SM = Map.Make (String)

(* The linear sequence of tables applied by a control. *)
let rec table_sequence (c : P4.Program.control) : string list =
  match c with
  | P4.Program.Nop -> []
  | P4.Program.Seq (a, b) -> table_sequence a @ table_sequence b
  | P4.Program.ApplyTable t -> [ t ]
  | P4.Program.If _ -> unsupported "conditional control flow"

let ref_name (r : P4.Program.fref) =
  match r with
  | P4.Program.Field (h, f) -> h ^ "." ^ f
  | P4.Program.Meta m -> "meta." ^ m

let valid_field h = "valid." ^ h

let mask_w w v =
  if w >= 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L w) 1L)

let full_mask w = if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let ref_width_exn prog r =
  match P4.Program.ref_width prog r with
  | Ok w -> w
  | Error e -> unsupported "%s" e

let find_table_exn prog tname =
  match P4.Program.find_table prog tname with
  | Some t -> t
  | None -> unsupported "unknown table %s" tname

(* ---------------- action translation ---------------- *)

(* [env] is what the match path pins: field name -> (mask, value) with
   value canonical under the mask.  A field read resolves to a constant
   only when the path pins its full width. *)
type env = (int64 * int64) SM.t

let binop_value (op : P4.Program.binop) va vb =
  let bool_of c = if c then 1L else 0L in
  match op with
  | P4.Program.Add -> Int64.add va vb
  | P4.Program.Sub -> Int64.sub va vb
  | P4.Program.And -> Int64.logand va vb
  | P4.Program.Or -> Int64.logor va vb
  | P4.Program.Xor -> Int64.logxor va vb
  | P4.Program.Shl -> Int64.shift_left va (Int64.to_int vb)
  | P4.Program.Shr -> Int64.shift_right_logical va (Int64.to_int vb)
  | P4.Program.Eq -> bool_of (Int64.equal va vb)
  | P4.Program.Ne -> bool_of (not (Int64.equal va vb))
  | P4.Program.Lt -> bool_of (Int64.unsigned_compare va vb < 0)
  | P4.Program.Gt -> bool_of (Int64.unsigned_compare va vb > 0)
  | P4.Program.Le -> bool_of (Int64.unsigned_compare va vb <= 0)
  | P4.Program.Ge -> bool_of (Int64.unsigned_compare va vb >= 0)
  | P4.Program.BoolAnd -> bool_of ((not (Int64.equal va 0L)) && not (Int64.equal vb 0L))
  | P4.Program.BoolOr -> bool_of ((not (Int64.equal va 0L)) || not (Int64.equal vb 0L))

(* Constant-fold an action expression exactly as the interpreter's
   [eval] would compute it, using parameter values, path-pinned fields,
   and writes earlier in the same action body ([written] maps a field to
   [Some c] after a constant write, [None] after an opaque one). *)
let rec expr_value ~prog ~params ~(env : env) ~written ~validity
    (e : P4.Program.expr) : int64 option =
  let recur = expr_value ~prog ~params ~env ~written ~validity in
  match e with
  | P4.Program.EConst (w, v) -> Some (mask_w w v)
  | P4.Program.EParam p -> (
    match List.assoc_opt p params with
    | Some v -> Some v
    | None -> unsupported "unbound parameter %s" p)
  | P4.Program.ERef r -> (
    let name = ref_name r in
    match Hashtbl.find_opt written name with
    | Some (Some c) -> Some c
    | Some None -> None
    | None ->
      let fm = full_mask (ref_width_exn prog r) in
      (match SM.find_opt name env with
      | Some (m, v) when Int64.equal (Int64.logand fm (Int64.lognot m)) 0L ->
        Some (Int64.logand v fm)
      | _ -> None))
  | P4.Program.EValid h -> (
    match Hashtbl.find_opt validity h with
    | Some b -> Some (if b then 1L else 0L)
    | None -> (
      match SM.find_opt (valid_field h) env with
      | Some (m, v) when Int64.equal (Int64.logand m 1L) 1L ->
        Some (Int64.logand v 1L)
      | _ -> None))
  | P4.Program.ENot e ->
    Option.map (fun v -> if Int64.equal v 0L then 1L else 0L) (recur e)
  | P4.Program.EBin (op, a, b) -> (
    match (recur a, recur b) with
    | Some va, Some vb -> Some (binop_value op va vb)
    | _ -> None)

(* Compile one P4 action invocation into OpenFlow actions.  [env] pins
   match-path field values (empty for the naive backend). *)
let compile_action_body ~(prog : P4.Program.t) ~(env : env) ~(aname : string)
    ~(args : int64 list) ~(next : int option) : Openflow.action list =
  let action =
    match P4.Program.find_action prog aname with
    | Some a -> a
    | None -> unsupported "unknown action %s" aname
  in
  let params = List.map2 (fun (n, w) v -> (n, mask_w w v)) action.params args in
  let written : (string, int64 option) Hashtbl.t = Hashtbl.create 8 in
  let validity : (string, bool) Hashtbl.t = Hashtbl.create 4 in
  let acts = ref [] in
  let dropped = ref false in
  let emit a = acts := a :: !acts in
  let value e = expr_value ~prog ~params ~env ~written ~validity e in
  (* forwarding state writes: constant if resolvable, else a field copy *)
  let emit_store ~what reg e =
    match value e with
    | Some v -> emit (Openflow.SetField (reg, v))
    | None -> (
      match e with
      | P4.Program.ERef r -> emit (Openflow.CopyField (reg, ref_name r))
      | _ -> unsupported "%s expression is neither constant nor a field" what)
  in
  List.iter
    (fun prim ->
      match prim with
      | P4.Program.Forward e ->
        emit_store ~what:"forward" Openflow.reg_egress e;
        emit (Openflow.SetField (Openflow.reg_has_dest, 1L))
      | P4.Program.Multicast e -> emit_store ~what:"multicast" Openflow.reg_mcast e
      | P4.Program.Drop -> dropped := true
      | P4.Program.EmitDigest d -> emit (Openflow.ToController d)
      | P4.Program.Assign (P4.Program.Meta "egress_spec", e) ->
        (* writing egress_spec is how v1model programs unicast, so it
           must also arm has_dest; write_ref masks to 16 bits *)
        (match value e with
        | Some v -> emit (Openflow.SetField (Openflow.reg_egress, mask_w 16 v))
        | None -> (
          match e with
          | P4.Program.ERef r ->
            emit (Openflow.CopyField (Openflow.reg_egress, ref_name r));
            emit (Openflow.AddConst (Openflow.reg_egress, 0L, 16))
          | _ -> unsupported "egress_spec expression"));
        emit (Openflow.SetField (Openflow.reg_has_dest, 1L))
      | P4.Program.Assign (P4.Program.Meta "mcast_grp", e) ->
        (match value e with
        | Some v -> emit (Openflow.SetField (Openflow.reg_mcast, mask_w 16 v))
        | None -> (
          match e with
          | P4.Program.ERef r ->
            emit (Openflow.CopyField (Openflow.reg_mcast, ref_name r));
            emit (Openflow.AddConst (Openflow.reg_mcast, 0L, 16))
          | _ -> unsupported "mcast_grp expression"))
      | P4.Program.Assign (r, e) -> (
        let name = ref_name r in
        let w = ref_width_exn prog r in
        match value e with
        | Some v ->
          let v = mask_w w v in
          emit (Openflow.SetField (name, v));
          Hashtbl.replace written name (Some v)
        | None -> (
          let opaque () = Hashtbl.replace written name None in
          match e with
          | P4.Program.ERef s ->
            emit (Openflow.CopyField (name, ref_name s));
            opaque ()
          | P4.Program.EBin (P4.Program.Add, P4.Program.ERef s, k)
            when value k <> None ->
            let kv = Option.get (value k) in
            if not (String.equal (ref_name s) name) then
              emit (Openflow.CopyField (name, ref_name s));
            emit (Openflow.AddConst (name, kv, w));
            opaque ()
          | P4.Program.EBin (P4.Program.Add, k, P4.Program.ERef s)
            when value k <> None ->
            let kv = Option.get (value k) in
            if not (String.equal (ref_name s) name) then
              emit (Openflow.CopyField (name, ref_name s));
            emit (Openflow.AddConst (name, kv, w));
            opaque ()
          | P4.Program.EBin (P4.Program.Sub, P4.Program.ERef s, k)
            when value k <> None ->
            let kv = Option.get (value k) in
            if not (String.equal (ref_name s) name) then
              emit (Openflow.CopyField (name, ref_name s));
            emit (Openflow.AddConst (name, Int64.neg kv, w));
            opaque ()
          | _ -> unsupported "assignment to %s is not compilable" name))
      | P4.Program.SetValid "vlan" ->
        emit Openflow.PushVlan;
        Hashtbl.replace validity "vlan" true
      | P4.Program.SetInvalid "vlan" ->
        emit Openflow.PopVlan;
        Hashtbl.replace validity "vlan" false
      | P4.Program.SetValid h | P4.Program.SetInvalid h ->
        unsupported "header stack op on %s" h
      | P4.Program.CloneTo e -> (
        (* mirroring compiles to an extra output *)
        match value e with
        | Some v -> emit (Openflow.Output v)
        | None -> unsupported "clone port must be constant")
      | P4.Program.Count _ -> () (* counters are implicit per-flow in OF *)
      | P4.Program.RegWrite _ | P4.Program.RegRead _ ->
        unsupported "stateful registers")
    action.body;
  let base = List.rev !acts in
  if !dropped then base @ [ Openflow.SetField (Openflow.reg_dropped, 1L) ]
  else match next with Some t -> base @ [ Openflow.Goto t ] | None -> base

(* ---------------- the naive per-entry backend ---------------- *)

let compile_match (prog : P4.Program.t) (tbl : P4.Program.table)
    (matches : P4.Entry.match_value list) : Openflow.field_match list =
  List.concat
    (List.map2
       (fun (k : P4.Program.key) mv ->
         let width = ref_width_exn prog k.kref in
         let name = ref_name k.kref in
         match mv with
         | P4.Entry.MExact v -> [ { Openflow.mfield = name; mvalue = v; mmask = None } ]
         | P4.Entry.MLpm (v, len) ->
           [ { Openflow.mfield = name; mvalue = v;
               mmask = Some (P4.Entry.mask_of_prefix ~width ~prefix_len:len) } ]
         | P4.Entry.MTernary (v, m) ->
           [ { Openflow.mfield = name; mvalue = v; mmask = Some m } ]
         | P4.Entry.MAny -> [])
       tbl.keys matches)

(** The historical translator: one flow per entry, tables in application
    order, no conditionals.  Flow priorities are the entry's position in
    the rank order ([Entry.rank_compare]), not a sum of priority and LPM
    length — summing the two dimensions let an exact entry at priority N
    collide with an LPM /N entry, inverting winners. *)
let compile_naive (sw : P4.Switch.t) : Openflow.t =
  let prog = sw.P4.Switch.program in
  let egress_seq = table_sequence prog.egress in
  let sequence = table_sequence prog.ingress @ egress_seq in
  let out = Openflow.create () in
  let n = List.length sequence in
  List.iteri
    (fun idx tname ->
      let tbl = find_table_exn prog tname in
      let next = if idx + 1 < n then Some (idx + 1) else None in
      let entries = P4.Switch.table_entries_ranked sw tname in
      let count = List.length entries in
      List.iteri
        (fun i (e : P4.Entry.t) ->
          Openflow.add_flow out
            {
              Openflow.table_id = idx;
              priority = count - i;
              matches = compile_match prog tbl e.matches;
              actions =
                compile_action_body ~prog ~env:SM.empty ~aname:e.action
                  ~args:e.args ~next;
              cookie = Printf.sprintf "%s/%s" tname e.action;
            })
        entries;
      (* table-miss flow: the default action at priority 0 *)
      let dname, dargs = tbl.default_action in
      Openflow.add_flow out
        {
          Openflow.table_id = idx;
          priority = 0;
          matches = [];
          actions =
            compile_action_body ~prog ~env:SM.empty ~aname:dname ~args:dargs
              ~next;
          cookie = Printf.sprintf "%s/default:%s" tname dname;
        })
    sequence;
  out.n_tables <- max out.n_tables n;
  (if egress_seq <> [] then
     out.egress_start <- Some (n - List.length egress_seq));
  out

(* ---------------- the FDD backend ---------------- *)

(* What a diagram leaf means.  Ids are interned per compilation; id 0 is
   [Fdd.undef] ("no entry matched along this path" — emits nothing). *)
type decision =
  | Dentry of string * P4.Entry.t option  (* table, entry; None = default *)
  | Dpass                                 (* continue to the next table *)
  | Djump of int option                   (* goto a specific table / end *)
  | Dbool of bool                         (* condition outcome (internal) *)

type ctx = {
  prog : P4.Program.t;
  sw : P4.Switch.t;
  m : Fdd.manager;
  dec_ids : (decision, int) Hashtbl.t;
  dec_arr : (int, decision) Hashtbl.t;
  mutable next_dec : int;
}

let dec_id ctx d =
  match Hashtbl.find_opt ctx.dec_ids d with
  | Some i -> i
  | None ->
    let i = ctx.next_dec in
    ctx.next_dec <- i + 1;
    Hashtbl.add ctx.dec_ids d i;
    Hashtbl.add ctx.dec_arr i d;
    i

let dec_of ctx i = Hashtbl.find ctx.dec_arr i

(* Control linearization: a control is a list of items, each either a
   table or a conditional over two item lists. *)
type item =
  | ITable of P4.Program.table
  | ICond of P4.Program.expr * item list * item list

let rec items_of prog (c : P4.Program.control) : item list =
  match c with
  | P4.Program.Nop -> []
  | P4.Program.Seq (a, b) -> items_of prog a @ items_of prog b
  | P4.Program.ApplyTable t -> [ ITable (find_table_exn prog t) ]
  | P4.Program.If (c, a, b) -> [ ICond (c, items_of prog a, items_of prog b) ]

(* A conditional whose branches are at most one table folds into that
   table's diagram; anything larger needs its own condition table. *)
let is_simple = function [] | [ ITable _ ] -> true | _ -> false

let rec item_size = function
  | ITable _ -> 1
  | ICond (_, a, b) ->
    if is_simple a && is_simple b then 1 else 1 + n_phys a + n_phys b

and n_phys items = List.fold_left (fun acc it -> acc + item_size it) 0 items

(* Variable order: first syntactic appearance across the pipeline —
   condition fields and key columns in the order control flow reads
   them.  Fields never mentioned rank last (ties break on the name
   inside [Fdd.test_compare]). *)
let rec cond_fields (e : P4.Program.expr) acc =
  match e with
  | P4.Program.EValid h -> valid_field h :: acc
  | P4.Program.ERef r -> ref_name r :: acc
  | P4.Program.ENot e -> cond_fields e acc
  | P4.Program.EBin (_, a, b) -> cond_fields a (cond_fields b acc)
  | P4.Program.EConst _ | P4.Program.EParam _ -> acc

let field_order (stages : item list list) : string -> int =
  let rank : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let n = ref 0 in
  let note f =
    if not (Hashtbl.mem rank f) then begin
      Hashtbl.add rank f !n;
      incr n
    end
  in
  let rec go items =
    List.iter
      (fun it ->
        match it with
        | ITable t ->
          List.iter (fun (k : P4.Program.key) -> note (ref_name k.kref)) t.keys
        | ICond (c, a, b) ->
          List.iter note (List.rev (cond_fields c []));
          go a;
          go b)
      items
  in
  List.iter go stages;
  fun f -> match Hashtbl.find_opt rank f with Some r -> r | None -> max_int

(* One table entry as a diagram: the conjunction of its match tests
   (sorted into the manager's order) over the entry's decision leaf,
   with [undef] on every test's miss side. *)
let entry_tests ctx (schema : (P4.Program.fref * P4.Program.match_kind * int) list)
    (e : P4.Entry.t) : Fdd.test list =
  let tests =
    List.concat
      (List.map2
         (fun (kref, _kind, width) mv ->
           let name = ref_name kref in
           match mv with
           | P4.Entry.MExact v ->
             [ { Fdd.tfield = name; tmask = full_mask width;
                 tvalue = mask_w width v } ]
           | P4.Entry.MLpm (v, len) ->
             let m = P4.Entry.mask_of_prefix ~width ~prefix_len:len in
             if Int64.equal m 0L then []
             else
               (* canonical under the mask: tests that differ only in
                  masked-out bits are the same test, and the LPM fold
                  order relies on equal tests comparing equal *)
               [ { Fdd.tfield = name; tmask = m; tvalue = Int64.logand v m } ]
           | P4.Entry.MTernary (v, m) ->
             if Int64.equal m 0L then []
             else [ { Fdd.tfield = name; tmask = m; tvalue = Int64.logand v m } ]
           | P4.Entry.MAny -> [])
         schema e.matches)
  in
  List.sort (Fdd.test_compare ctx.m) tests

let entry_fdd ctx schema tname (e : P4.Entry.t) : Fdd.t =
  let lf = Fdd.leaf (dec_id ctx (Dentry (tname, Some e))) in
  List.fold_right
    (fun t acc -> Fdd.node ctx.m t acc Fdd.undef)
    (entry_tests ctx schema e) lf

(* A whole table: union of its entries in rank order (first-defined
   wins) with the default action as the final catch-all.

   Single-LPM-key tables get a dedicated build order.  Pairwise
   [union_all] is quadratic there: whenever the right spine's test
   sorts first, union rebuilds the entire remaining left spine over the
   right entry's decision leaf, so a 10^5-route table never finishes.
   But for one LPM key the prefer-left order is free to change between
   entries whose tests cannot both hold: same-mask tests with distinct
   values are mutually exclusive, and when a finer and a coarser prefix
   both match, the finer entry outranks the coarser one under
   [Entry.rank_compare] regardless of priority (total prefix length
   dominates).  So entries may be folded coarsest-prefix-first,
   descending value within a prefix length, losers before winners on
   identical tests — an order in which every union prepends at the
   accumulator's root in O(1), giving an O(n log n) table build. *)
let table_schema_exn ctx (tbl : P4.Program.table) =
  match P4.Program.table_key_schema ctx.prog tbl with
  | Ok s -> s
  | Error e -> unsupported "%s" e

(* Does the table take the sorted single-LPM build (and, in [State],
   the per-prefix-length buckets)? *)
let is_single_lpm (tbl : P4.Program.table) =
  match tbl.keys with
  | [ { P4.Program.kind = P4.Program.Lpm; _ } ] -> true
  | _ -> false

(* The single-LPM key of an entry: [None] for /0 (tests nothing).
   Only meaningful for {!is_single_lpm} tables. *)
let lpm_key ctx schema (e : P4.Entry.t) : Fdd.test option =
  match entry_tests ctx schema e with
  | [] -> None
  | [ t ] -> Some t
  | _ -> assert false

(* Fold order of the sorted single-LPM build: coarsest prefix first,
   losers before winners on equal tests, /0 entries ahead of every real
   prefix.  Total: zero only for same-match entries. *)
let lpm_fold_order ctx (ta, ea) (tb, eb) =
  match (ta, tb) with
  | None, None -> P4.Entry.rank_compare ea eb
  | None, _ -> -1
  | _, None -> 1
  | Some a, Some b ->
    let c = Fdd.test_compare ctx.m a b in
    if c <> 0 then -c else P4.Entry.rank_compare ea eb

(* Prepend one entry of a sorted single-LPM fold onto the accumulator:
   exactly [Fdd.union (entry_fdd e) acc], specialised to the shapes the
   fold order guarantees (the new test is no coarser than the root, so
   the union either replaces an equal root test's hi leaf or wraps the
   whole accumulator).  O(1) instead of a spine walk. *)
let lpm_push ctx (t : Fdd.test option) (lf : Fdd.t) (acc : Fdd.t) : Fdd.t =
  match t with
  | None -> lf
  | Some t -> (
    match acc with
    | Fdd.Node nb when Fdd.test_compare ctx.m t nb.test = 0 ->
      Fdd.node ctx.m t lf nb.lo
    | _ -> Fdd.node ctx.m t lf acc)

let table_fdd_of_entries ctx (tbl : P4.Program.table) schema
    (entries : P4.Entry.t list) : Fdd.t =
  let dflt = Fdd.leaf (dec_id ctx (Dentry (tbl.tname, None))) in
  if is_single_lpm tbl then
    let keyed = List.map (fun e -> (lpm_key ctx schema e, e)) entries in
    List.fold_left
      (fun acc (_, e) -> Fdd.union ctx.m (entry_fdd ctx schema tbl.tname e) acc)
      dflt
      (List.sort (lpm_fold_order ctx) keyed)
  else
    let fdds = List.map (entry_fdd ctx schema tbl.tname) entries in
    Fdd.union_all ctx.m (fdds @ [ dflt ])

let table_fdd ctx (tbl : P4.Program.table) : Fdd.t =
  table_fdd_of_entries ctx tbl (table_schema_exn ctx tbl)
    (P4.Switch.table_entries_ranked ctx.sw tbl.tname)

let bool_leaf ctx b = Fdd.leaf (dec_id ctx (Dbool b))

let is_true ctx v =
  match dec_of ctx v with Dbool b -> b | _ -> assert false

(* A condition as a diagram with boolean leaves.  Supported shapes:
   header validity, field = constant (and negations), boolean
   connectives, constants. *)
let rec cond_fdd ctx (e : P4.Program.expr) : Fdd.t =
  let lt = bool_leaf ctx true and lf = bool_leaf ctx false in
  let mk test = Fdd.node ctx.m test lt lf in
  match e with
  | P4.Program.EConst (_, v) -> if Int64.equal v 0L then lf else lt
  | P4.Program.EValid h ->
    mk { Fdd.tfield = valid_field h; tmask = 1L; tvalue = 1L }
  | P4.Program.ENot e -> negate ctx (cond_fdd ctx e)
  | P4.Program.EBin (P4.Program.Eq, P4.Program.ERef r, P4.Program.EConst (_, v))
  | P4.Program.EBin (P4.Program.Eq, P4.Program.EConst (_, v), P4.Program.ERef r)
    ->
    let w = ref_width_exn ctx.prog r in
    mk { Fdd.tfield = ref_name r; tmask = full_mask w; tvalue = mask_w w v }
  | P4.Program.EBin (P4.Program.Ne, a, b) ->
    negate ctx (cond_fdd ctx (P4.Program.EBin (P4.Program.Eq, a, b)))
  | P4.Program.EBin (P4.Program.BoolAnd, a, b) ->
    Fdd.bind ctx.m (cond_fdd ctx a) (fun v ->
        if is_true ctx v then cond_fdd ctx b else lf)
  | P4.Program.EBin (P4.Program.BoolOr, a, b) ->
    Fdd.bind ctx.m (cond_fdd ctx a) (fun v ->
        if is_true ctx v then lt else cond_fdd ctx b)
  | _ -> unsupported "condition not expressible as field tests"

and negate ctx d =
  Fdd.bind ctx.m d (fun v -> bool_leaf ctx (not (is_true ctx v)))

(* ---------------- physical-table layout ---------------- *)

(* Each physical table gets a diagram and the id of its successor;
   [None] means fall off the end of the region.  Conditionals with
   non-trivial branches embed their successors in [Djump] leaves. *)
let rec layout ctx plans items ~first ~next_after =
  match items with
  | [] -> ()
  | it :: rest ->
    let sz = item_size it in
    let next = if rest = [] then next_after else Some (first + sz) in
    (match it with
    | ITable tbl -> plans := (first, table_fdd ctx tbl, next) :: !plans
    | ICond (cond, a, b) when is_simple a && is_simple b ->
      let branch = function
        | [] -> Fdd.leaf (dec_id ctx Dpass)
        | [ ITable tbl ] -> table_fdd ctx tbl
        | _ -> assert false
      in
      let fa = branch a and fb = branch b in
      let f =
        Fdd.bind ctx.m (cond_fdd ctx cond) (fun v ->
            if is_true ctx v then fa else fb)
      in
      plans := (first, f, next) :: !plans
    | ICond (cond, a, b) ->
      let a_start = first + 1 in
      let b_start = a_start + n_phys a in
      let target items' start = if items' = [] then next else Some start in
      let ja = Fdd.leaf (dec_id ctx (Djump (target a a_start))) in
      let jb = Fdd.leaf (dec_id ctx (Djump (target b b_start))) in
      let f =
        Fdd.bind ctx.m (cond_fdd ctx cond) (fun v ->
            if is_true ctx v then ja else jb)
      in
      plans := (first, f, None) :: !plans;
      layout ctx plans a ~first:a_start ~next_after:next;
      layout ctx plans b ~first:b_start ~next_after:next);
    layout ctx plans rest ~first:(first + sz) ~next_after

(* ---------------- flow extraction ---------------- *)

(* Walk the diagram hi-before-lo (so more-specific rows come out first),
   accumulating per-field (mask, value) constraints.  A test fully
   implied by the accumulated match takes only its hi branch; a
   contradicted one only its lo branch — this is where shadowed entries
   disappear.  The lo branch records no negative information: it relies
   on the hi rows outranking it, which row order guarantees. *)
let implied (env : env) (t : Fdd.test) : [ `True | `False | `Open ] =
  match SM.find_opt t.tfield env with
  | None -> `Open
  | Some (am, av) ->
    let overlap = Int64.logand am t.tmask in
    if not (Int64.equal (Int64.logand (Int64.logxor av t.tvalue) overlap) 0L)
    then `False
    else if Int64.equal (Int64.logand t.tmask (Int64.lognot am)) 0L then `True
    else `Open

let env_add (env : env) (t : Fdd.test) : env =
  let am, av =
    Option.value ~default:(0L, 0L) (SM.find_opt t.tfield env)
  in
  SM.add t.tfield (Int64.logor am t.tmask, Int64.logor av t.tvalue) env

(* Walk the diagram's rows in extraction order (hi before lo), calling
   [k env v] per non-undef leaf.  O(path depth) transient state. *)
let iter_rows (fdd : Fdd.t) (k : env -> int -> unit) : unit =
  let stack = ref [ (fdd, SM.empty) ] in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | (t, env) :: rest -> (
      stack := rest;
      match t with
      | Fdd.Leaf v -> if v <> 0 then k env v
      | Fdd.Node n -> (
        match implied env n.test with
        | `True -> stack := (n.hi, env) :: !stack
        | `False -> stack := (n.lo, env) :: !stack
        | `Open ->
          stack := (n.hi, env_add env n.test) :: (n.lo, env) :: !stack))
  done

(* One extracted row as flow ingredients: match list, action list,
   provenance cookie. *)
let row_payload ctx ~table_id ~next (env : env) (v : int) :
    Openflow.field_match list * Openflow.action list * string =
  let matches =
    SM.fold
      (fun f (m, v) acc ->
        { Openflow.mfield = f; mvalue = v; mmask = Some m } :: acc)
      env []
    |> List.rev
  in
  let actions, cookie =
    match dec_of ctx v with
    | Dpass ->
      ( (match next with Some t -> [ Openflow.Goto t ] | None -> []),
        Printf.sprintf "ctl%d/pass" table_id )
    | Djump tgt ->
      ( (match tgt with Some t -> [ Openflow.Goto t ] | None -> []),
        Printf.sprintf "ctl%d/branch:%s" table_id
          (match tgt with Some t -> string_of_int t | None -> "end") )
    | Dbool _ ->
      unsupported "internal: boolean decision escaped condition folding"
    | Dentry (tname, dentry) ->
      let aname, args =
        match dentry with
        | Some (e : P4.Entry.t) -> (e.action, e.args)
        | None -> (find_table_exn ctx.prog tname).default_action
      in
      let cookie =
        match dentry with
        | Some e -> Printf.sprintf "%s/%s" tname e.action
        | None -> Printf.sprintf "%s/default:%s" tname aname
      in
      (compile_action_body ~prog:ctx.prog ~env ~aname ~args ~next, cookie)
  in
  (matches, actions, cookie)

(* Priority minimisation: consecutive rows share a priority when they
   are pairwise disjoint, witnessed by a shared discriminator — a
   (field, mask) they all match with pairwise-distinct values.  The
   number of priority levels is the number of groups, not rules.
   Returns a stateful per-row classifier yielding the group index. *)
let group_tracker () : Openflow.field_match list -> int =
  let cur_disc : (string * int64 * (int64, unit) Hashtbl.t) option ref =
    ref None
  in
  let group_idx = ref (-1) in
  fun matches ->
    let joined =
      match !cur_disc with
      | None -> false
      | Some (f, m, seen) -> (
        match
          List.find_opt
            (fun (fm : Openflow.field_match) ->
              String.equal fm.mfield f
              &&
              match fm.mmask with
              | Some mm -> Int64.equal mm m
              | None -> false)
            matches
        with
        | Some fm when not (Hashtbl.mem seen fm.mvalue) ->
          Hashtbl.add seen fm.mvalue ();
          true
        | _ -> false)
    in
    if not joined then begin
      incr group_idx;
      match matches with
      | { Openflow.mfield; mvalue; mmask = Some m } :: _ ->
        let seen = Hashtbl.create 8 in
        Hashtbl.add seen mvalue ();
        cur_disc := Some (mfield, m, seen)
      | _ -> cur_disc := None
    end;
    !group_idx

let extract_plan ctx ~table_id ~next (fdd : Fdd.t)
    ~(emit : Openflow.flow -> unit) : unit =
  let rows = ref [] in
  iter_rows fdd (fun env v -> rows := (env, v) :: !rows);
  let rows = List.rev !rows in
  let compiled = List.map (fun (env, v) -> row_payload ctx ~table_id ~next env v) rows in
  let track = group_tracker () in
  let last_group = ref (-1) in
  let with_groups =
    List.map
      (fun (matches, actions, cookie) ->
        let g = track matches in
        last_group := g;
        (matches, actions, cookie, g))
      compiled
  in
  let n_groups = !last_group + 1 in
  (* Suffix merge: extraction specialises the table default per lo-path
     (e.g. [port=1 -> default] above the catch-all default row).  A row
     is redundant when every row below it — including the empty-match
     catch-all that ends every table — performs the identical action
     list: any packet it matched falls through to an equivalent row.
     One backward pass keeps this linear in the row count. *)
  let arr = Array.of_list with_groups in
  let n = Array.length arr in
  let keep = Array.make n true in
  if n > 0 then begin
    let _, last_actions, _, _ = arr.(n - 1) in
    let uniform = ref true in
    for i = n - 2 downto 0 do
      let _, actions, _, _ = arr.(i) in
      if !uniform && actions = last_actions then keep.(i) <- false
      else uniform := false
    done
  end;
  Array.iteri
    (fun i (matches, actions, cookie, g) ->
      if keep.(i) then
        emit
          {
            Openflow.table_id;
            priority = n_groups - 1 - g;
            matches;
            actions;
            cookie;
          })
    arr

(* The streaming twin of [extract_plan]: identical output, bounded
   memory.  Pass A walks the rows once computing the three global facts
   extraction needs — row count, group count, and the start of the
   trailing equal-actions run (the suffix merge drops everything in
   that run but its last row) — keeping only the previous row's action
   list live.  Pass B re-walks and emits.  Rows are compiled twice;
   nothing proportional to the row count is ever materialised. *)
let extract_plan_stream ctx ~table_id ~next (fdd : Fdd.t)
    ~(emit : Openflow.flow -> unit) : unit =
  let track = group_tracker () in
  let n_rows = ref 0 in
  let last_group = ref (-1) in
  let run_start = ref 0 in
  let prev_actions = ref None in
  iter_rows fdd (fun env v ->
      let matches, actions, _ = row_payload ctx ~table_id ~next env v in
      last_group := track matches;
      (match !prev_actions with
      | Some pa when pa = actions -> ()
      | _ -> run_start := !n_rows);
      prev_actions := Some actions;
      incr n_rows);
  let n = !n_rows in
  let n_groups = !last_group + 1 in
  let tail_start = !run_start in
  let track = group_tracker () in
  let i = ref 0 in
  iter_rows fdd (fun env v ->
      let matches, actions, cookie = row_payload ctx ~table_id ~next env v in
      let g = track matches in
      if !i < tail_start || !i = n - 1 then
        emit
          {
            Openflow.table_id;
            priority = n_groups - 1 - g;
            matches;
            actions;
            cookie;
          };
      incr i)

(** Compile [sw]'s program and installed entries through forwarding
    decision diagrams: per-table entry folding with shadowed-path
    elimination, [If] support (trivial branches fold into one physical
    table, larger ones become condition tables with [Goto] rows), and
    priorities assigned per disjointness group.  Ingress tables occupy
    [0, egress_start); egress tables follow and are run once per
    replicated copy by {!Eval}. *)
let prepare (sw : P4.Switch.t) =
  let prog = sw.P4.Switch.program in
  let ing = items_of prog prog.ingress in
  let eg = items_of prog prog.egress in
  let order = field_order [ ing; eg ] in
  let ctx =
    {
      prog;
      sw;
      m = Fdd.create ~order ();
      dec_ids = Hashtbl.create 64;
      dec_arr = Hashtbl.create 64;
      next_dec = 1;
    }
  in
  (ctx, ing, eg)

(* Every physical table's diagram and successor, by table id, with the
   ingress and egress table counts. *)
let plans (sw : P4.Switch.t) =
  let ctx, ing, eg = prepare sw in
  let n_ing = n_phys ing in
  let plans = ref [] in
  layout ctx plans ing ~first:0 ~next_after:None;
  layout ctx plans eg ~first:n_ing ~next_after:None;
  (ctx, n_ing, n_phys eg, List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !plans)

let compile (sw : P4.Switch.t) : Openflow.t =
  let ctx, n_ing, n_eg, plans = plans sw in
  let out = Openflow.create () in
  List.iter
    (fun (tid, fdd, next) ->
      extract_plan ctx ~table_id:tid ~next fdd ~emit:(Openflow.add_flow out))
    plans;
  out.n_tables <- max out.n_tables (n_ing + n_eg);
  if n_eg > 0 then out.egress_start <- Some n_ing;
  out

(** Fold over the compiled flows without materialising them: diagrams
    are built as in {!compile}, then extracted via the two-pass
    streaming path, so a 10^6-entry table compiles in memory bounded by
    the diagram itself (rows are never collected).  Flow order and
    content are identical to {!compile}. *)
let fold_flows (sw : P4.Switch.t) ~(init : 'a) ~(f : 'a -> Openflow.flow -> 'a)
    : 'a =
  let ctx, _, _, plans = plans sw in
  let acc = ref init in
  List.iter
    (fun (tid, fdd, next) ->
      extract_plan_stream ctx ~table_id:tid ~next fdd
        ~emit:(fun fl -> acc := f !acc fl))
    plans;
  !acc

(* Leaf decision ids are interned in first-use order, so they differ
   between a long-lived state and a fresh compile of the same entries.
   Rendering spells each leaf out as its decision, giving a
   representation that is byte-comparable across states. *)
let decision_label ctx (v : int) : string =
  if v = 0 then "undef"
  else
    match dec_of ctx v with
    | Dpass -> "pass"
    | Djump (Some t) -> Printf.sprintf "jump:%d" t
    | Djump None -> "jump:end"
    | Dbool b -> Printf.sprintf "bool:%b" b
    | Dentry (tname, Some e) ->
      Printf.sprintf "%s:%s" tname (P4.Entry.to_string e)
    | Dentry (tname, None) -> Printf.sprintf "%s:default" tname

let render_diagram ctx (fdd : Fdd.t) : string =
  let buf = Buffer.create 256 in
  (* explicit stack: lo spines are as long as the entry count *)
  let stack = ref [ (fdd, 0) ] in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | (t, depth) :: rest -> (
      stack := rest;
      let indent = String.make (2 * depth) ' ' in
      match t with
      | Fdd.Leaf v ->
        Buffer.add_string buf
          (Printf.sprintf "%s[%s]\n" indent (decision_label ctx v))
      | Fdd.Node n ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s?\n" indent (Fdd.test_to_string n.test));
        stack := (n.hi, depth + 1) :: (n.lo, depth + 1) :: !stack)
  done;
  Buffer.contents buf

let render (sw : P4.Switch.t) : (int * string) list =
  let ctx, _, _, plans = plans sw in
  List.map (fun (tid, fdd, _) -> (tid, render_diagram ctx fdd)) plans

(* ---------------- incremental compilation state ---------------- *)

module State = struct
  (* Masked values of one prefix length, in extraction order. *)
  module VM = Map.Make (struct
    type t = int64

    let compare = Int64.unsigned_compare
  end)

  module VS = Set.Make (struct
    type t = int64

    let compare = Int64.unsigned_compare
  end)

  (* One entry of a single-LPM plan with its extracted row, cached across
     recompiles.  Content depends only on the entry and the plan's
     successor. *)
  type lrow = {
    lr_entry : P4.Entry.t;
    lr_test : Fdd.test option;  (* None = /0 *)
    lr_matches : Openflow.field_match list;
    lr_actions : Openflow.action list;
    lr_cookie : string;
    lr_leaf : Fdd.t;  (* interned decision leaf, so spine rebuilds skip
                         the structural re-hash of the entry *)
  }

  (* The entries sharing one canonical test, winner first: equal-test
     shadowing is settled here, and only the winner reaches the diagram
     or the flow table.  [s_flow] is the flow the slot emits ([None]
     while its row is merged into the bottom row). *)
  type slot = { mutable s_rows : lrow list; mutable s_flow : Openflow.flow option }

  (* One prefix length: its slots keyed by masked value, and the values
     whose winner's actions differ from the bottom row's — the rows the
     suffix merge can never drop. *)
  type bucket = { mutable b_slots : slot VM.t; mutable b_diff : VS.t }

  (* Incremental state of a single-LPM plan.  Fold order sorts by mask
     popcount first, so the disjointness groups of extraction are exactly
     the non-empty buckets: a row's priority is the number of non-empty
     buckets coarser than it (the bottom row, alone at priority 0, counts
     as one), and rows extract finest bucket first, ascending value
     within a bucket.  The suffix merge drops every row after the
     coarsest one whose actions differ from the bottom row's (the
     "break").  The bottom row is the winning /0 entry, else the table
     default.  The diagram spine is only rebuilt when read. *)
  type lstate = {
    l_tname : string;
    l_schema : (P4.Program.fref * P4.Program.match_kind * int) list;
    l_tid : int;
    l_next : int option;
    l_dflt : lrow;
    l_zero : slot;  (* /0 entries; emits the bottom row *)
    l_buckets : bucket array;  (* index = prefix length; 0 unused *)
    mutable l_stale : bool;  (* the plan diagram lags the buckets *)
  }

  type pkind =
    | Plpm of lstate  (* the plan diagram is exactly this LPM table *)
    | Pdyn of (unit -> Fdd.t)  (* refold from the current entry mirror *)
    | Pstatic  (* condition jump table: entries never reach it *)

  type plan = {
    p_id : int;
    p_next : int option;
    p_kind : pkind;
    mutable p_fdd : Fdd.t;
    mutable p_flows : Openflow.flow list;
        (* extraction order; unused for Plpm (slots hold their flows) *)
  }

  (* Canonical mirror of one table's installed entries in rank order,
     maintained under the same replace-by-match semantics as
     [P4.Switch.insert_entry]/[delete_entry]. *)
  type eholder = {
    eh_tbl : P4.Program.table;
    eh_schema : (P4.Program.fref * P4.Program.match_kind * int) list;
    mutable eh_ranked : P4.Entry.t list;
  }

  type t = {
    st_ctx : ctx;
    st_plans : plan array;  (* indexed by physical table id *)
    st_holders : (string, eholder) Hashtbl.t;
    st_members : (string, int list) Hashtbl.t;  (* table -> plan ids *)
    st_nphys : int;
    st_egress : int option;
    st_threshold : int;
    mutable st_compactions : int;
    mutable st_swept : int;
  }

  let mk_lrow ctx ~tname ~next (t : Fdd.test option) (e : P4.Entry.t) : lrow =
    let env =
      match t with
      | None -> SM.empty
      | Some t -> SM.singleton t.Fdd.tfield (t.Fdd.tmask, t.Fdd.tvalue)
    in
    {
      lr_entry = e;
      lr_test = t;
      lr_matches =
        (match t with
        | None -> []
        | Some t ->
          [ { Openflow.mfield = t.Fdd.tfield; mvalue = t.Fdd.tvalue;
              mmask = Some t.Fdd.tmask } ]);
      lr_actions =
        compile_action_body ~prog:ctx.prog ~env ~aname:e.action ~args:e.args
          ~next;
      lr_cookie = Printf.sprintf "%s/%s" tname e.action;
      lr_leaf = Fdd.leaf (dec_id ctx (Dentry (tname, Some e)));
    }

  let mk_dflt_row ctx (tbl : P4.Program.table) ~next : lrow =
    let aname, args = tbl.default_action in
    {
      (* never compared: the default sits in no slot *)
      lr_entry = { P4.Entry.matches = []; priority = 0; action = aname; args };
      lr_test = None;
      lr_matches = [];
      lr_actions =
        compile_action_body ~prog:ctx.prog ~env:SM.empty ~aname ~args ~next;
      lr_cookie = Printf.sprintf "%s/default:%s" tbl.tname aname;
      lr_leaf = Fdd.leaf (dec_id ctx (Dentry (tbl.tname, None)));
    }

  let bottom ls = match ls.l_zero.s_rows with r :: _ -> r | [] -> ls.l_dflt

  let find ls len v =
    if len = 0 then Some ls.l_zero else VM.find_opt v ls.l_buckets.(len).b_slots

  (* Priority of each prefix length's rows. *)
  let priorities ls =
    let p = Array.make (Array.length ls.l_buckets) 0 and n = ref 1 in
    for len = 1 to Array.length ls.l_buckets - 1 do
      p.(len) <- !n;
      if not (VM.is_empty ls.l_buckets.(len).b_slots) then incr n
    done;
    p

  (* Positions in extraction order: [Some (len, value)] for a slot, and
     [None] before every row. *)
  let pos_le a b =
    match (a, b) with
    | None, _ -> true
    | Some _, None -> false
    | Some (l1, v1), Some (l2, v2) ->
      l1 > l2 || (l1 = l2 && Int64.unsigned_compare v1 v2 <= 0)

  (* The last row, in extraction order, that the suffix merge keeps
     above the bottom row. *)
  let break ls =
    let rec go len =
      if len >= Array.length ls.l_buckets then None
      else
        let b = ls.l_buckets.(len) in
        if VS.is_empty b.b_diff then go (len + 1)
        else Some (len, VS.max_elt b.b_diff)
    in
    go 1

  (* [f len v slot] for every slot strictly after [lo] and at or before
     [hi] in extraction order. *)
  let iter_between ls lo hi f =
    match hi with
    | None -> ()
    | Some (hl, _) ->
      let top =
        match lo with Some (ll, _) -> ll | None -> Array.length ls.l_buckets - 1
      in
      for len = top downto hl do
        let slots = ls.l_buckets.(len).b_slots in
        let seq =
          match lo with
          | Some (ll, lv) when ll = len -> VM.to_seq_from lv slots
          | _ -> VM.to_seq slots
        in
        Seq.iter
          (fun (v, s) -> if not (pos_le (Some (len, v)) lo) then f len v s)
          (Seq.take_while (fun (v, _) -> pos_le (Some (len, v)) hi) seq)
      done

  (* Apply one op to its slot, recording the slot's flow before the
     transaction's first touch.  Ops run in transaction order — a remove
     after an add of the same match wins, exactly as on the switch — and
     removing an absent entry is a no-op, like [Switch.delete_entry]. *)
  let apply_op ctx ls touched ((e : P4.Entry.t), w) =
    if w <> 0 then begin
      let t = lpm_key ctx ls.l_schema e in
      let len, v =
        match t with
        | None -> (0, 0L)
        | Some t -> (Fdd.popcount t.Fdd.tmask, t.Fdd.tvalue)
      in
      let s = find ls len v in
      if not (Hashtbl.mem touched (len, v)) then
        Hashtbl.add touched (len, v) (Option.bind s (fun s -> s.s_flow));
      let rest =
        match s with
        | None -> []
        | Some s ->
          List.filter (fun r -> not (P4.Entry.same_match r.lr_entry e)) s.s_rows
      in
      let rows =
        if w < 0 then rest
        else
          let r = mk_lrow ctx ~tname:ls.l_tname ~next:ls.l_next t e in
          let rec ins = function
            | x :: tl when P4.Entry.rank_compare e x.lr_entry < 0 -> x :: ins tl
            | l -> r :: l
          in
          ins rest
      in
      let b = ls.l_buckets.(len) in
      match (s, rows) with
      | Some _, [] when len > 0 -> b.b_slots <- VM.remove v b.b_slots
      | Some s, _ -> s.s_rows <- rows
      | None, [] -> ()
      | None, _ -> b.b_slots <- VM.add v { s_rows = rows; s_flow = None } b.b_slots
    end

  (* Apply a transaction and emit its flow delta.  Rows whose flow may
     change: the touched slots; every row of a prefix length whose
     priority moved (a length appearing or vanishing shifts every finer
     one); the rows between the old and new break, which toggle between
     emitted and merged; and, when the bottom row's actions change, every
     row, since the break is re-derived from scratch.  The bottom row
     always emits, so while it has no flow nothing has been derived yet
     and every row is too. *)
  let lpm_apply ctx ls ops : Openflow.flow_delta =
    let fresh = ls.l_zero.s_flow = None in
    let prios0 = priorities ls and brk0 = break ls in
    let bot0 = (bottom ls).lr_actions in
    let touched = Hashtbl.create 8 in
    List.iter (apply_op ctx ls touched) ops;
    if ops <> [] then ls.l_stale <- true;
    let bot = (bottom ls).lr_actions in
    let differs s =
      match s.s_rows with r :: _ -> r.lr_actions <> bot | [] -> false
    in
    let visit len v s =
      if not (Hashtbl.mem touched (len, v)) then
        Hashtbl.add touched (len, v) s.s_flow
    in
    let full = fresh || bot <> bot0 in
    if full then begin
      visit 0 0L ls.l_zero;
      Array.iteri
        (fun len b ->
          b.b_diff <-
            VM.fold
              (fun v s acc -> if differs s then VS.add v acc else acc)
              b.b_slots VS.empty;
          VM.iter (visit len) b.b_slots)
        ls.l_buckets
    end
    else
      Hashtbl.iter
        (fun (len, v) _ ->
          if len > 0 then
            let b = ls.l_buckets.(len) in
            b.b_diff <-
              (match VM.find_opt v b.b_slots with
              | Some s when differs s -> VS.add v b.b_diff
              | _ -> VS.remove v b.b_diff))
        touched;
    let prios = priorities ls and brk = break ls in
    if not full then begin
      Array.iteri
        (fun len b ->
          if prios.(len) <> prios0.(len) then VM.iter (visit len) b.b_slots)
        ls.l_buckets;
      if pos_le brk0 brk then iter_between ls brk0 brk visit
      else iter_between ls brk brk0 visit
    end;
    let keys =
      Hashtbl.fold (fun k old acc -> (k, old) :: acc) touched []
      |> List.sort (fun (a, _) (b, _) ->
             if a = b then 0 else if pos_le (Some a) (Some b) then -1 else 1)
    in
    let adds = ref [] and mods = ref [] and dels = ref [] in
    List.iter
      (fun ((len, v), old) ->
        let s = find ls len v in
        let winner =
          match s with
          | Some _ when len = 0 -> Some (bottom ls)
          | Some { s_rows = r :: _; _ } when pos_le (Some (len, v)) brk -> Some r
          | _ -> None
        in
        let nf =
          match (winner, old) with
          | None, _ -> None
          | Some r, Some f
            when f.Openflow.priority = prios.(len)
                 && f.Openflow.actions = r.lr_actions
                 && String.equal f.Openflow.cookie r.lr_cookie ->
            old
          | Some r, _ ->
            Some
              {
                Openflow.table_id = ls.l_tid;
                priority = prios.(len);
                matches = r.lr_matches;
                actions = r.lr_actions;
                cookie = r.lr_cookie;
              }
        in
        Option.iter (fun s -> s.s_flow <- nf) s;
        match (old, nf) with
        | None, None -> ()
        | None, Some f -> adds := f :: !adds
        | Some f, None -> dels := f :: !dels
        | Some f, Some g -> if f != g then mods := (f, g) :: !mods)
      keys;
    { Openflow.fd_add = List.rev !adds; fd_mod = List.rev !mods;
      fd_del = List.rev !dels }

  (* The plan diagram, folded in fold order — coarsest bucket first,
     descending value — over the bottom row's leaf. *)
  let force_spine ctx (p : plan) (ls : lstate) =
    if ls.l_stale then begin
      let acc = ref (bottom ls).lr_leaf in
      Array.iter
        (fun b ->
          Seq.iter
            (fun (_, s) ->
              match s.s_rows with
              | r :: _ -> acc := lpm_push ctx r.lr_test r.lr_leaf !acc
              | [] -> ())
            (VM.to_rev_seq b.b_slots))
        ls.l_buckets;
      p.p_fdd <- !acc;
      ls.l_stale <- false
    end

  let rebuild_plan st (p : plan) : Openflow.flow_delta =
    match p.p_kind with
    | Plpm _ | Pstatic -> assert false
    | Pdyn rebuild ->
      let fdd = rebuild () in
      p.p_fdd <- fdd;
      let acc = ref [] in
      extract_plan st.st_ctx ~table_id:p.p_id ~next:p.p_next fdd
        ~emit:(fun f -> acc := f :: !acc);
      let nf = List.rev !acc in
      let d = Openflow.diff ~old_flows:p.p_flows ~new_flows:nf in
      p.p_flows <- nf;
      d

  let holder_remove (h : eholder) (e : P4.Entry.t) =
    h.eh_ranked <-
      List.filter (fun x -> not (P4.Entry.same_match x e)) h.eh_ranked

  let holder_insert (h : eholder) (e : P4.Entry.t) =
    let rest =
      List.filter (fun x -> not (P4.Entry.same_match x e)) h.eh_ranked
    in
    let rec ins = function
      | [] -> [ e ]
      | x :: tl ->
        if P4.Entry.rank_compare e x > 0 then e :: x :: tl else x :: ins tl
    in
    h.eh_ranked <- ins rest

  let holder ctx holders (tbl : P4.Program.table) =
    match Hashtbl.find_opt holders tbl.P4.Program.tname with
    | Some h -> h
    | None ->
      let h =
        {
          eh_tbl = tbl;
          eh_schema = table_schema_exn ctx tbl;
          eh_ranked = P4.Switch.table_entries_ranked ctx.sw tbl.tname;
        }
      in
      Hashtbl.add holders tbl.tname h;
      h

  let member members tname pid =
    let cur = Option.value ~default:[] (Hashtbl.find_opt members tname) in
    Hashtbl.replace members tname (cur @ [ pid ])

  (* Mirror of [layout]: same physical table numbering, but each plan
     records how to recompute its diagram from the entry mirrors. *)
  let rec layout_plans ctx holders members plans items ~first ~next_after =
    match items with
    | [] -> ()
    | it :: rest ->
      let sz = item_size it in
      let next = if rest = [] then next_after else Some (first + sz) in
      (match it with
      | ITable tbl when is_single_lpm tbl ->
        let h = holder ctx holders tbl in
        let width = match h.eh_schema with [ (_, _, w) ] -> w | _ -> assert false in
        let ls =
          {
            l_tname = tbl.tname;
            l_schema = h.eh_schema;
            l_tid = first;
            l_next = next;
            l_dflt = mk_dflt_row ctx tbl ~next;
            l_zero = { s_rows = []; s_flow = None };
            l_buckets =
              Array.init (width + 1) (fun _ -> { b_slots = VM.empty; b_diff = VS.empty });
            l_stale = true;
          }
        in
        (* installs every row's flow; the delta — all adds — is the
           full table and is discarded *)
        ignore (lpm_apply ctx ls (List.map (fun e -> (e, 1)) h.eh_ranked));
        plans :=
          { p_id = first; p_next = next; p_kind = Plpm ls; p_fdd = Fdd.undef;
            p_flows = [] }
          :: !plans;
        member members tbl.tname first
      | ITable tbl ->
        let h = holder ctx holders tbl in
        let rebuild () =
          table_fdd_of_entries ctx h.eh_tbl h.eh_schema h.eh_ranked
        in
        plans :=
          { p_id = first; p_next = next; p_kind = Pdyn rebuild;
            p_fdd = rebuild (); p_flows = [] }
          :: !plans;
        member members tbl.tname first
      | ICond (cond, a, b) when is_simple a && is_simple b ->
        let branch = function
          | [] -> (None, fun () -> Fdd.leaf (dec_id ctx Dpass))
          | [ ITable tbl ] ->
            let h = holder ctx holders tbl in
            ( Some tbl.P4.Program.tname,
              fun () ->
                table_fdd_of_entries ctx h.eh_tbl h.eh_schema h.eh_ranked )
          | _ -> assert false
        in
        let na, fa = branch a and nb, fb = branch b in
        let rebuild () =
          let da = fa () and db = fb () in
          Fdd.bind ctx.m (cond_fdd ctx cond) (fun v ->
              if is_true ctx v then da else db)
        in
        plans :=
          { p_id = first; p_next = next; p_kind = Pdyn rebuild;
            p_fdd = rebuild (); p_flows = [] }
          :: !plans;
        Option.iter (fun tn -> member members tn first) na;
        Option.iter (fun tn -> member members tn first) nb
      | ICond (cond, a, b) ->
        let a_start = first + 1 in
        let b_start = a_start + n_phys a in
        let target items' start = if items' = [] then next else Some start in
        let ja = Fdd.leaf (dec_id ctx (Djump (target a a_start))) in
        let jb = Fdd.leaf (dec_id ctx (Djump (target b b_start))) in
        let f =
          Fdd.bind ctx.m (cond_fdd ctx cond) (fun v ->
              if is_true ctx v then ja else jb)
        in
        plans :=
          { p_id = first; p_next = None; p_kind = Pstatic; p_fdd = f;
            p_flows = [] }
          :: !plans;
        layout_plans ctx holders members plans a ~first:a_start
          ~next_after:next;
        layout_plans ctx holders members plans b ~first:b_start
          ~next_after:next);
      layout_plans ctx holders members plans rest ~first:(first + sz)
        ~next_after

  let create ?(compact_threshold = 1_000_000) (sw : P4.Switch.t) : t =
    let ctx, ing, eg = prepare sw in
    let n_ing = n_phys ing and n_eg = n_phys eg in
    let holders = Hashtbl.create 8 in
    let members = Hashtbl.create 8 in
    let plans = ref [] in
    layout_plans ctx holders members plans ing ~first:0 ~next_after:None;
    layout_plans ctx holders members plans eg ~first:n_ing ~next_after:None;
    let plan_arr =
      Array.of_list
        (List.sort (fun a b -> Int.compare a.p_id b.p_id) !plans)
    in
    Array.iter
      (fun p ->
        match p.p_kind with
        | Plpm _ -> ()
        | Pdyn _ | Pstatic ->
          let acc = ref [] in
          extract_plan ctx ~table_id:p.p_id ~next:p.p_next p.p_fdd
            ~emit:(fun f -> acc := f :: !acc);
          p.p_flows <- List.rev !acc)
      plan_arr;
    {
      st_ctx = ctx;
      st_plans = plan_arr;
      st_holders = holders;
      st_members = members;
      st_nphys = n_ing + n_eg;
      st_egress = (if n_eg > 0 then Some n_ing else None);
      st_threshold = compact_threshold;
      st_compactions = 0;
      st_swept = 0;
    }

  let node_count st = Fdd.node_count st.st_ctx.m
  let compactions st = st.st_compactions
  let swept st = st.st_swept

  let force_spines (st : t) =
    Array.iter
      (fun p ->
        match p.p_kind with
        | Plpm ls -> force_spine st.st_ctx p ls
        | Pdyn _ | Pstatic -> ())
      st.st_plans

  let compact_now (st : t) =
    (* roots must reflect the current entries, not a stale spine, so
       the sweep keeps exactly the live diagram *)
    force_spines st;
    let roots =
      Array.to_list (Array.map (fun p -> p.p_fdd) st.st_plans)
    in
    st.st_swept <- st.st_swept + Fdd.compact st.st_ctx.m ~roots;
    (* sweep decisions unreachable from any live leaf; every cached
       row's leaf must survive, including rows a /0 entry or an
       equal-test winner hides from the diagram *)
    let live = Hashtbl.create 256 in
    List.iter
      (fun r -> List.iter (fun v -> Hashtbl.replace live v ()) (Fdd.leaves r))
      roots;
    let keep (r : lrow) =
      match r.lr_leaf with Fdd.Leaf v -> Hashtbl.replace live v () | Fdd.Node _ -> ()
    in
    let keep_slot s = List.iter keep s.s_rows in
    Array.iter
      (fun p ->
        match p.p_kind with
        | Plpm ls ->
          keep ls.l_dflt;
          keep_slot ls.l_zero;
          Array.iter (fun b -> VM.iter (fun _ s -> keep_slot s) b.b_slots) ls.l_buckets
        | Pdyn _ | Pstatic -> ())
      st.st_plans;
    let dead =
      Hashtbl.fold
        (fun d i acc -> if Hashtbl.mem live i then acc else (d, i) :: acc)
        st.st_ctx.dec_ids []
    in
    List.iter
      (fun (d, i) ->
        Hashtbl.remove st.st_ctx.dec_ids d;
        Hashtbl.remove st.st_ctx.dec_arr i)
      dead;
    st.st_compactions <- st.st_compactions + 1

  let maybe_compact st =
    if Fdd.node_count st.st_ctx.m > st.st_threshold then compact_now st

  let apply_delta (st : t)
      (deltas : (string * (P4.Entry.t * int) list) list) :
      Openflow.flow_delta =
    let out = ref Openflow.delta_empty in
    let dirty = Hashtbl.create 4 in
    List.iter
      (fun (tname, ops) ->
        if ops <> [] then begin
          let h =
            match Hashtbl.find_opt st.st_holders tname with
            | Some h -> h
            | None -> invalid_arg ("Compile.State: unknown table " ^ tname)
          in
          let pids =
            Option.value ~default:[] (Hashtbl.find_opt st.st_members tname)
          in
          (* the ranked mirror only feeds [Pdyn] refolds; [Plpm] plans
             keep their own buckets, so a pure-LPM table skips
             the O(entries) list maintenance entirely.  Ops run in
             transaction order: a remove after an add of the same match
             wins, exactly as on the switch. *)
          if
            List.exists
              (fun pid ->
                match st.st_plans.(pid).p_kind with
                | Pdyn _ -> true
                | Plpm _ | Pstatic -> false)
              pids
          then
            List.iter
              (fun (e, w) ->
                if w < 0 then holder_remove h e
                else if w > 0 then holder_insert h e)
              ops;
          List.iter
            (fun pid ->
              let p = st.st_plans.(pid) in
              match p.p_kind with
              | Plpm ls ->
                out :=
                  Openflow.delta_union !out (lpm_apply st.st_ctx ls ops)
              | Pdyn _ -> Hashtbl.replace dirty pid ()
              | Pstatic -> ())
            pids
        end)
      deltas;
    let pids =
      Hashtbl.fold (fun pid () acc -> pid :: acc) dirty []
      |> List.sort Int.compare
    in
    List.iter
      (fun pid ->
        out := Openflow.delta_union !out (rebuild_plan st st.st_plans.(pid)))
      pids;
    maybe_compact st;
    !out

  let flows (st : t) : Openflow.t =
    let out = Openflow.create () in
    Array.iter
      (fun p ->
        match p.p_kind with
        | Plpm ls ->
          (* emit in extraction order so dumps are byte-stable against
             from-scratch compilation *)
          let emit s = Option.iter (Openflow.add_flow out) s.s_flow in
          for len = Array.length ls.l_buckets - 1 downto 1 do
            VM.iter (fun _ s -> emit s) ls.l_buckets.(len).b_slots
          done;
          emit ls.l_zero
        | Pdyn _ | Pstatic -> List.iter (Openflow.add_flow out) p.p_flows)
      st.st_plans;
    out.Openflow.n_tables <- max out.Openflow.n_tables st.st_nphys;
    out.Openflow.egress_start <- st.st_egress;
    out

  let diagrams (st : t) : (int * Fdd.t) list =
    force_spines st;
    Array.to_list (Array.map (fun p -> (p.p_id, p.p_fdd)) st.st_plans)

  let render (st : t) : (int * string) list =
    force_spines st;
    Array.to_list
      (Array.map (fun p -> (p.p_id, render_diagram st.st_ctx p.p_fdd))
         st.st_plans)
end
