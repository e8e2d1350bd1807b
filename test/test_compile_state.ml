(* Tests for incremental FDD recompilation (PR 9):
   - Openflow flow-delta algebra: diff, pair_modifies, apply_delta;
   - Compile.State differentials: after scripted and QCheck-random
     entry churn the patched diagrams are structurally identical to a
     from-scratch compile, the flow set dumps byte-identically, and
     replaying the emitted deltas over the previous pipeline
     reconstructs the new one (checked by dump and by Eval probes);
   - a FIB-shaped single-LPM differential (~500 routes over /0–/32,
     diagrams also checked against [Compile.render]) and exact delta
     sizes for a new finest and a new mid-table prefix length;
   - manager compaction keeps the interned node count bounded across
     10^4 churn transactions without changing results;
   - fold_flows streams the exact flow sequence compile materialises;
   - Switch.process_many agrees with per-packet process;
   - Controller.attach_flow_programmer pushes deltas through sync and
     reconciliation that replay to the from-scratch pipeline. *)

open Ofp4

let mk = Test_fdd.mk
let churn_prog = Test_fdd.churn_prog

let dump_of_state st = Openflow.dump (Compile.State.flows st)

(* A deep copy of a pipeline, so delta replay does not alias the
   original's mutable flow list. *)
let copy_pipeline (p : Openflow.t) : Openflow.t =
  { Openflow.flows = p.Openflow.flows; n_tables = p.Openflow.n_tables;
    egress_start = p.Openflow.egress_start }

let check_dump what expected actual =
  if not (String.equal expected actual) then
    Alcotest.failf "%s: pipeline dump mismatch\n--- expected ---\n%s\n--- actual ---\n%s"
      what expected actual

(* Order-insensitive dump comparison: [dump]'s sort is stable on
   (table, priority), so equal-priority flows keep insertion order —
   fine within one pipeline, but a mirror patched by delta replay
   inserts in delta order.  Same-priority flows in a group have
   disjoint matches, so line-multiset equality is the right oracle. *)
let check_dump_canon what expected actual =
  let canon d = List.sort compare (String.split_on_char '\n' d) in
  if canon expected <> canon actual then
    Alcotest.failf "%s: pipeline dump mismatch\n--- expected ---\n%s\n--- actual ---\n%s"
      what expected actual

(* The from-scratch oracle: State.flows must dump identically to
   Compile.compile of the live switch, the diagrams must be
   structurally equal to a fresh State's, and [mirror] (the previous
   pipeline patched by the emitted deltas) must match too. *)
let check_state ~what sw st (mirror : Openflow.t) =
  let scratch = Openflow.dump (Compile.compile sw) in
  check_dump (what ^ " (state vs compile)") scratch (dump_of_state st);
  check_dump_canon (what ^ " (delta replay vs compile)") scratch
    (Openflow.dump mirror);
  let fresh = Compile.State.create sw in
  List.iter2
    (fun (tid, inc) (tid', scr) ->
      Alcotest.(check int) (what ^ ": plan ids align") tid tid';
      if not (String.equal inc scr) then
        Alcotest.failf
          "%s: diagram for table %d diverged from scratch\n--- incremental ---\n%s\n--- scratch ---\n%s"
          what tid inc scr)
    (Compile.State.render st)
    (Compile.State.render fresh)

(* ------------------------------------------------------------------ *)
(* Flow-delta algebra                                                  *)
(* ------------------------------------------------------------------ *)

let fl ?(table = 0) ?(prio = 1) ?(cookie = "t/a") matches actions =
  { Openflow.table_id = table; priority = prio; matches; actions; cookie }

let fm field value =
  { Openflow.mfield = field; mvalue = value; mmask = Some (-1L) }

let test_diff_pairs_modifies () =
  let f1 = fl [ fm "a" 1L ] [ Openflow.Output 1L ] in
  let f2 = fl [ fm "a" 2L ] [ Openflow.Output 2L ] in
  let f2' = fl [ fm "a" 2L ] [ Openflow.Output 9L ] in
  let f3 = fl [ fm "a" 3L ] [ Openflow.Output 3L ] in
  let f4 = fl [ fm "a" 4L ] [ Openflow.Output 4L ] in
  let d =
    Openflow.diff ~old_flows:[ f1; f2; f3 ] ~new_flows:[ f1; f2'; f4 ]
  in
  Alcotest.(check int) "adds" 1 (List.length d.Openflow.fd_add);
  Alcotest.(check int) "mods" 1 (List.length d.Openflow.fd_mod);
  Alcotest.(check int) "dels" 1 (List.length d.Openflow.fd_del);
  Alcotest.(check bool) "f4 added" true (List.mem f4 d.Openflow.fd_add);
  Alcotest.(check bool) "f3 deleted" true (List.mem f3 d.Openflow.fd_del);
  Alcotest.(check bool) "f2 modified" true
    (d.Openflow.fd_mod = [ (f2, f2') ]);
  Alcotest.(check int) "delta size" 3 (Openflow.delta_size d);
  (* identical sides diff to nothing, duplicates count as a multiset *)
  let d0 = Openflow.diff ~old_flows:[ f1; f1 ] ~new_flows:[ f1; f1 ] in
  Alcotest.(check int) "no change" 0 (Openflow.delta_size d0);
  let d1 = Openflow.diff ~old_flows:[ f1; f1 ] ~new_flows:[ f1 ] in
  Alcotest.(check int) "multiset del" 1 (List.length d1.Openflow.fd_del)

let test_apply_delta () =
  let f1 = fl [ fm "a" 1L ] [ Openflow.Output 1L ] in
  let f2 = fl [ fm "a" 2L ] [ Openflow.Output 2L ] in
  let f2' = fl [ fm "a" 2L ] [ Openflow.Output 9L ] in
  let f3 = fl [ fm "a" 3L ] [ Openflow.Output 3L ] in
  let prog = Openflow.create () in
  Openflow.add_flow prog f1;
  Openflow.add_flow prog f2;
  let d =
    Openflow.diff ~old_flows:prog.Openflow.flows ~new_flows:[ f2'; f3 ]
  in
  Openflow.apply_delta prog d;
  let target = Openflow.create () in
  Openflow.add_flow target f2';
  Openflow.add_flow target f3;
  check_dump_canon "apply_delta" (Openflow.dump target) (Openflow.dump prog);
  (* deleting a flow that is not installed is a hard error *)
  Alcotest.check_raises "absent delete rejected"
    (Invalid_argument "Openflow.apply_delta: flow to delete not present: 0")
    (fun () ->
      Openflow.apply_delta prog
        { Openflow.fd_add = []; fd_mod = []; fd_del = [ f1 ] })

(* ------------------------------------------------------------------ *)
(* Scripted State differential                                         *)
(* ------------------------------------------------------------------ *)

let acl_e ?(prio = 0) v m port =
  mk
    ~matches:[ P4.Entry.MTernary (v, m) ]
    ~prio ~action:"forward"
    ~args:[ Int64.of_int port ]
    ()

let route_e ?(prio = 0) prefix len port =
  mk
    ~matches:[ P4.Entry.MLpm (prefix, len) ]
    ~prio ~action:"forward"
    ~args:[ Int64.of_int port ]
    ()

(* Apply one churn transaction to the live switch and to the State,
   replay the emitted delta onto [mirror], and run the oracle. *)
let churn_step ~what sw st mirror (ops : (string * (P4.Entry.t * int) list) list)
    =
  List.iter
    (fun (tname, tops) ->
      List.iter
        (fun ((e : P4.Entry.t), w) ->
          if w < 0 then P4.Switch.delete_entry sw tname e
          else P4.Switch.insert_entry sw tname e)
        tops)
    ops;
  let d = Compile.State.apply_delta st ops in
  Openflow.apply_delta mirror d;
  check_state ~what sw st mirror;
  d

let test_state_scripted () =
  let sw = P4.Switch.create churn_prog in
  P4.Switch.insert_entry sw "routes" (route_e 0x0A000000L 8 1);
  P4.Switch.insert_entry sw "routes" (route_e 0x0A010000L 16 2);
  P4.Switch.insert_entry sw "acl" (acl_e 0x05L 0xFFL 3);
  let st = Compile.State.create sw in
  let mirror = copy_pipeline (Compile.State.flows st) in
  check_state ~what:"initial" sw st mirror;
  let step what ops = ignore (churn_step ~what sw st mirror ops) in
  (* insert a finer route: splices above the /16 *)
  step "insert /24" [ ("routes", [ (route_e 0x0A010200L 24 3, 1) ]) ];
  (* insert a coarser route: splices near the bottom of the spine *)
  step "insert /4" [ ("routes", [ (route_e 0x00000000L 4 4, 1) ]) ];
  (* a default-hiding catch-all *)
  step "insert /0" [ ("routes", [ (route_e 0L 0 5, 1) ]) ];
  (* same-match replace: action args change in place *)
  step "replace /16" [ ("routes", [ (route_e 0x0A010000L 16 9, 1) ]) ];
  (* equal canonical test, different raw value: shadowing inside a rank
     run, not a replace *)
  step "shadow /8" [ ("routes", [ (route_e ~prio:1 0x0A000001L 8 7, 1) ]) ];
  (* remove in the middle, remove an absent entry (silent no-op) *)
  step "remove /24 + absent"
    [ ("routes",
       [ (route_e 0x0A010200L 24 3, -1); (route_e 0x0B000000L 8 9, -1) ]) ];
  (* remove the catch-all: the hidden table default resurfaces *)
  step "remove /0" [ ("routes", [ (route_e 0L 0 5, -1) ]) ];
  (* ternary table churn goes through the refold path *)
  step "acl churn"
    [ ("acl",
       [ (acl_e 0x05L 0xFFL 3, -1); (acl_e ~prio:2 0x0500L 0xFF00L 4, 1);
         (acl_e 0L 0L 1, 1) ]) ];
  (* one transaction touching both tables *)
  step "cross-table"
    [ ("routes", [ (route_e 0x0AFF0000L 16 6, 1) ]);
      ("acl", [ (acl_e 0L 0L 1, -1) ]) ];
  (* empty the LPM table entirely *)
  step "drain routes"
    [ ("routes",
       [ (route_e ~prio:1 0x0A000001L 8 7, -1); (route_e 0x0A000000L 8 1, -1);
         (route_e 0x0A010000L 16 9, -1); (route_e 0x00000000L 4 4, -1);
         (route_e 0x0AFF0000L 16 6, -1) ]) ];
  Alcotest.check_raises "unknown table rejected"
    (Invalid_argument "Compile.State: unknown table nosuch") (fun () ->
      ignore (Compile.State.apply_delta st [ ("nosuch", [ (acl_e 0L 0L 1, 1) ]) ]))

(* A multi-op transaction on a ternary table always takes the refold
   fallback — the in-place fast path is LPM-only — so pin that the
   refolded diagrams stay byte-identical to a from-scratch State and
   that the emitted delta replays exactly, under one 2-op transaction
   (delete + insert on the same table). *)
let test_ternary_refold_two_op () =
  let sw = P4.Switch.create churn_prog in
  P4.Switch.insert_entry sw "acl" (acl_e ~prio:3 0x0500L 0xFF00L 2);
  P4.Switch.insert_entry sw "acl" (acl_e ~prio:1 0x05L 0xFFL 3);
  P4.Switch.insert_entry sw "acl" (acl_e 0L 0L 1);
  let st = Compile.State.create sw in
  let mirror = copy_pipeline (Compile.State.flows st) in
  check_state ~what:"seeded acl" sw st mirror;
  ignore
    (churn_step ~what:"ternary 2-op refold" sw st mirror
       [ ("acl",
          [ (acl_e ~prio:1 0x05L 0xFFL 3, -1);
            (acl_e ~prio:2 0x0005L 0x00FFL 4, 1) ]) ]);
  let fresh = Compile.State.create sw in
  List.iter2
    (fun (tid, inc) (tid', scr) ->
      Alcotest.(check int) "plan ids align" tid tid';
      Alcotest.(check string)
        (Printf.sprintf "table %d diagram byte-identical" tid)
        scr inc)
    (Compile.State.render st)
    (Compile.State.render fresh)

(* Single-entry churn on a mid-sized FIB emits a small delta, not a
   table rewrite: the incremental path patches rather than recompiles. *)
let test_state_delta_is_small () =
  let sw = P4.Switch.create churn_prog in
  for i = 0 to 999 do
    P4.Switch.insert_entry sw "routes"
      (route_e (Int64.of_int (0x0A000000 lor (i lsl 8))) 24 ((i mod 4) + 1))
  done;
  let st = Compile.State.create sw in
  let mirror = copy_pipeline (Compile.State.flows st) in
  let e = route_e 0x0B000000L 24 2 in
  let d = churn_step ~what:"fib add" sw st mirror [ ("routes", [ (e, 1) ]) ] in
  Alcotest.(check bool)
    (Printf.sprintf "insert delta small (%d)" (Openflow.delta_size d))
    true
    (Openflow.delta_size d <= 4);
  let d =
    churn_step ~what:"fib del" sw st mirror [ ("routes", [ (e, -1) ]) ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "delete delta small (%d)" (Openflow.delta_size d))
    true
    (Openflow.delta_size d <= 4)

(* ------------------------------------------------------------------ *)
(* QCheck churn lockstep                                               *)
(* ------------------------------------------------------------------ *)

let gen_op =
  QCheck2.Gen.(
    let gen_acl =
      let* v = oneofl [ 0x05L; 0x0500L; 0x05000000L; 0xDEAD0000L; 0L ] in
      let* m = oneofl [ 0L; 0xFFL; 0xFF00L; 0xFFFF0000L; -1L ] in
      let* prio = int_range 0 3 in
      let* port = int_range 1 4 in
      return ("acl", acl_e ~prio v m port)
    in
    let gen_route =
      let* base = int_range 0 2 in
      let* sub = int_range 0 3 in
      let* len = oneofl [ 0; 4; 8; 16; 24; 32 ] in
      let* prio = int_range 0 2 in
      let* port = int_range 1 4 in
      let prefix =
        Int64.logor
          (Int64.shift_left (Int64.of_int (10 + base)) 24)
          (Int64.shift_left (Int64.of_int sub) 16)
      in
      return ("routes", route_e ~prio prefix len port)
    in
    let* tbl_e = oneof [ gen_acl; gen_route ] in
    let* remove = frequency [ (2, return false); (1, return true) ] in
    return (tbl_e, remove))

let prop_state_churn_differential =
  QCheck2.Test.make ~count:30
    ~name:"incremental state matches from-scratch compile under churn"
    QCheck2.Gen.(list_size (int_range 1 10) (list_size (int_range 1 4) gen_op))
    (fun txns ->
      let sw = P4.Switch.create churn_prog in
      let st = Compile.State.create sw in
      let mirror = copy_pipeline (Compile.State.flows st) in
      List.iter
        (fun txn ->
          (* removals name a previously generated entry only by shape;
             removing an absent one must be a no-op on both sides *)
          let ops =
            List.fold_left
              (fun acc ((tname, e), remove) ->
                let w = if remove then -1 else 1 in
                match List.assoc_opt tname acc with
                | Some tops ->
                  (tname, tops @ [ (e, w) ]) :: List.remove_assoc tname acc
                | None -> (tname, [ (e, w) ]) :: acc)
              [] txn
          in
          ignore (churn_step ~what:"qcheck churn" sw st mirror ops))
        txns;
      (* behavioural check: the incremental pipeline forwards like the
         interpreter switch *)
      let ev = Eval.of_switch sw (Compile.State.flows st) in
      List.for_all
        (fun (src, dst) ->
          Test_fdd.sorted_outs
            (P4.Switch.process sw ~in_port:5
               (P4.Stdhdrs.udp_packet ~eth_dst:1L ~eth_src:2L ~ip_src:src
                  ~ip_dst:dst ~src_port:1L ~dst_port:2L ~payload:""))
          = Test_fdd.sorted_outs
              (Eval.process ev ~in_port:5
                 (P4.Stdhdrs.udp_packet ~eth_dst:1L ~eth_src:2L ~ip_src:src
                    ~ip_dst:dst ~src_port:1L ~dst_port:2L ~payload:"")))
        [
          (0x05L, 0x0A000001L); (0x0500L, 0x0A030001L);
          (0xDEAD0001L, 0x0B0000FFL); (0x12345678L, 0x0C000001L);
        ])

(* ------------------------------------------------------------------ *)
(* Compaction boundedness                                              *)
(* ------------------------------------------------------------------ *)

let test_compaction_bounded () =
  let sw = P4.Switch.create churn_prog in
  for i = 0 to 199 do
    P4.Switch.insert_entry sw "routes"
      (route_e (Int64.of_int (0x0A000000 lor (i lsl 8))) 24 ((i mod 4) + 1))
  done;
  let threshold = 3_000 in
  let st = Compile.State.create ~compact_threshold:threshold sw in
  (* 10^4 churn transactions with periodic diagram reads: deltas alone
     only mark the spine dirty, but every read re-unions the stale
     suffix and allocates fresh nodes, so without compaction the
     manager would intern hundreds of thousands of nodes *)
  for i = 0 to 9_999 do
    let e =
      route_e (Int64.of_int (0x0B000000 lor ((i mod 256) lsl 8))) 24 2
    in
    let w = if i mod 2 = 0 then 1 else -1 in
    (if w > 0 then P4.Switch.insert_entry sw "routes" e
     else P4.Switch.delete_entry sw "routes" e);
    ignore (Compile.State.apply_delta st [ ("routes", [ (e, w) ]) ]);
    if i mod 10 = 0 then ignore (Compile.State.diagrams st)
  done;
  Alcotest.(check bool) "compaction ran" true (Compile.State.compactions st > 0);
  Alcotest.(check bool) "nodes swept" true (Compile.State.swept st > 0);
  let nodes = Compile.State.node_count st in
  Alcotest.(check bool)
    (Printf.sprintf "node count bounded (%d <= %d)" nodes threshold)
    true (nodes <= threshold);
  (* and compaction changed nothing observable *)
  check_dump "post-compaction state"
    (Openflow.dump (Compile.compile sw))
    (dump_of_state st)

(* ------------------------------------------------------------------ *)
(* Streaming extraction                                                *)
(* ------------------------------------------------------------------ *)

(* churn_prog with the routes table widened past its 1024-entry cap so
   the streaming test can install a large FIB *)
let big_prog : P4.Program.t =
  { churn_prog with
    P4.Program.tables =
      List.map
        (fun (t : P4.Program.table) ->
          if String.equal t.P4.Program.tname "routes" then
            { t with P4.Program.size = 8192 }
          else t)
        churn_prog.P4.Program.tables }

let test_fold_flows_streaming () =
  let sw = P4.Switch.create big_prog in
  P4.Switch.insert_entry sw "acl" (acl_e ~prio:1 0x05L 0xFFL 3);
  P4.Switch.insert_entry sw "acl" (acl_e 0L 0L 1);
  for i = 0 to 4_999 do
    P4.Switch.insert_entry sw "routes"
      (route_e
         (Int64.of_int ((0x0A000000 lor (i lsl 8)) land 0xFFFFFFFF))
         ((i mod 3 * 8) + 8)
         ((i mod 4) + 1))
  done;
  let materialised = Compile.compile sw in
  let streamed = List.rev (Compile.fold_flows sw ~init:[] ~f:(fun acc f -> f :: acc)) in
  (* identical sequence, not just identical sets: compile's flow list is
     newest-first, so emission order is its reverse *)
  Alcotest.(check int) "flow count"
    (Openflow.flow_count materialised)
    (List.length streamed);
  List.iter2
    (fun (a : Openflow.flow) b ->
      if a <> b then
        Alcotest.failf "streamed flow differs:\n%s\n%s"
          (Openflow.flow_to_string a) (Openflow.flow_to_string b))
    (List.rev materialised.Openflow.flows)
    streamed

(* ------------------------------------------------------------------ *)
(* FIB-shaped single-LPM differential                                  *)
(* ------------------------------------------------------------------ *)

(* One route of a FIB: mostly /16–/24, with host routes, coarse routes
   and /0 entries.  Values come from a small pool and keep raw bits
   below the prefix, so entries with equal canonical tests are common.
   Routes coarser than /16 mostly drop: they merge into the drop
   default, and the few that forward mark where the merged tail
   starts. *)
let fib_route r =
  let len =
    match Random.State.int r 20 with
    | 0 -> 0
    | 1 | 2 | 3 | 4 -> 1 + Random.State.int r 15
    | 5 -> 32
    | 6 -> 25 + Random.State.int r 7
    | _ -> 16 + Random.State.int r 9
  in
  let prefix =
    Int64.of_int
      (((10 + Random.State.int r 2) lsl 24)
      lor (Random.State.int r 4 lsl 16)
      lor (Random.State.int r 64 lsl 8)
      lor Random.State.int r 4)
  in
  let drop = Random.State.int r 10 < if len < 16 then 9 else 1 in
  mk
    ~matches:[ P4.Entry.MLpm (prefix, len) ]
    ~prio:(Random.State.int r 3)
    ~action:(if drop then "drop" else "forward")
    ~args:(if drop then [] else [ Int64.of_int (1 + Random.State.int r 4) ])
    ()

type fib_op =
  | Fadd of int  (* a fresh route drawn from this seed *)
  | Fdel of int  (* the live entry at this index *)
  | Fdel_coarse of int  (* the live route coarser than /16 at this index *)
  | Fflip of int  (* one of those, replaced by one with the other action *)
  | Fprio of int * int  (* the live entry at this index, at this priority *)
  | Fremap of int * int  (* every route to port p deleted, reinserted to q *)
  | Fzero of bool * bool  (* add (or remove) a /0 entry that drops (or not) *)

(* Ops resolve against the entries live at the start of the
   transaction, so a transaction may delete one entry twice (the second
   time a no-op). *)
let fib_ops sw ops =
  let live = Array.of_list (P4.Switch.table_entries sw "routes") in
  let nth i = live.(i mod Array.length live) in
  let port p = [ Int64.of_int p ] in
  let coarse =
    match List.filter (fun e -> P4.Entry.lpm_length e < 16) (Array.to_list live) with
    | [] -> live
    | l -> Array.of_list l
  in
  let coarse i = coarse.(i mod Array.length coarse) in
  List.concat_map
    (function
      | Fadd seed -> [ (fib_route (Random.State.make [| seed |]), 1) ]
      | (Fdel _ | Fdel_coarse _ | Fflip _ | Fprio _) when live = [||] -> []
      | Fdel i -> [ (nth i, -1) ]
      | Fdel_coarse i -> [ (coarse i, -1) ]
      | Fflip i ->
        let e = coarse i in
        let flipped =
          if e.action = "drop" then { e with action = "forward"; args = port 2 }
          else { e with action = "drop"; args = [] }
        in
        [ (flipped, 1) ]
      | Fprio (i, p) -> [ ({ (nth i) with P4.Entry.priority = p }, 1) ]
      | Fremap (p, q) ->
        let moved =
          List.filter
            (fun (e : P4.Entry.t) -> e.action = "forward" && e.args = port p)
            (Array.to_list live)
        in
        List.map (fun e -> (e, -1)) moved
        @ List.map (fun e -> ({ e with P4.Entry.args = port q }, 1)) moved
      | Fzero (add, drop) ->
        let e =
          mk ~matches:[ P4.Entry.MLpm (0L, 0) ] ~prio:0
            ~action:(if drop then "drop" else "forward")
            ~args:(if drop then [] else port 3)
            ()
        in
        [ (e, if add then 1 else -1) ])
    ops

let gen_fib_op =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun s -> Fadd s) int);
        (3, map (fun i -> Fdel i) nat);
        (2, map (fun i -> Fdel_coarse i) nat);
        (2, map (fun i -> Fflip i) nat);
        (2, map2 (fun i p -> Fprio (i, p)) nat (int_range 0 3));
        (1, map2 (fun p q -> Fremap (p, q)) (int_range 1 4) (int_range 1 4));
        (1, map2 (fun a d -> Fzero (a, d)) bool bool) ])

(* [churn_step], with the state's diagrams also rendered against a
   from-scratch compile's. *)
let fib_step ~what sw st mirror ops =
  let d = churn_step ~what sw st mirror [ ("routes", ops) ] in
  List.iter2
    (fun (tid, inc) (_, scr) ->
      if not (String.equal inc scr) then
        Alcotest.failf "%s: diagram for table %d diverged from compile\n%s\n---\n%s"
          what tid inc scr)
    (Compile.State.render st) (Compile.render sw);
  d

(* ~500-route tables over /0–/32: after every transaction — single ops
   and remap-style batches — the patched state, the delta-replayed
   mirror and the rendered diagrams equal a from-scratch compile. *)
let prop_fib_differential =
  QCheck2.Test.make ~count:20
    ~name:"FIB-shaped single-LPM state matches from-scratch compile"
    QCheck2.Gen.(
      no_shrink
        (pair int
           (list_size (int_range 5 12) (list_size (int_range 1 4) gen_fib_op))))
    (fun (seed, txns) ->
      let sw = P4.Switch.create big_prog in
      let r = Random.State.make [| seed |] in
      for _ = 1 to 500 do
        P4.Switch.insert_entry sw "routes" (fib_route r)
      done;
      let st = Compile.State.create sw in
      let mirror = copy_pipeline (Compile.State.flows st) in
      check_state ~what:"fib initial" sw st mirror;
      List.iter
        (fun ops -> ignore (fib_step ~what:"fib churn" sw st mirror (fib_ops sw ops)))
        txns;
      true)

(* Exact delta sizes on a full forwarding table with every prefix length
   /16–/24 but /20: a new finest length touches no other row, while a
   length appearing mid-table re-prioritises every row finer than it. *)
let test_fib_delta_sizes () =
  let sw = P4.Switch.create big_prog in
  List.iter
    (fun len ->
      for i = 0 to 19 do
        P4.Switch.insert_entry sw "routes"
          (route_e
             (Int64.logor 0x0A000000L (Int64.of_int (i lsl (32 - len))))
             len ((i mod 4) + 1))
      done)
    [ 16; 17; 18; 19; 21; 22; 23; 24 ];
  let st = Compile.State.create sw in
  let mirror = copy_pipeline (Compile.State.flows st) in
  let step what e w expect =
    let d = fib_step ~what sw st mirror [ (e, w) ] in
    Alcotest.(check (triple int int int))
      (what ^ ": adds, modifies, deletes") expect
      ( List.length d.Openflow.fd_add,
        List.length d.Openflow.fd_mod,
        List.length d.Openflow.fd_del )
  in
  let host = route_e 0x0A000001L 32 1 in
  step "first /32 in" host 1 (1, 0, 0);
  step "first /32 out" host (-1) (0, 0, 1);
  let finer =
    List.length
      (List.filter
         (fun (f : Openflow.flow) ->
           match f.Openflow.matches with
           | [ { Openflow.mmask = Some m; _ } ] -> Fdd.popcount m > 20
           | _ -> false)
         (Compile.State.flows st).Openflow.flows)
  in
  Alcotest.(check int) "emitted rows finer than /20" 80 finer;
  let r20 = route_e 0x0A0F0000L 20 2 in
  step "first /20 in" r20 1 (1, finer, 0);
  step "last /20 out" r20 (-1) (0, finer, 1)

(* ------------------------------------------------------------------ *)
(* Batched packet processing                                           *)
(* ------------------------------------------------------------------ *)

let test_process_many () =
  let sw = P4.Switch.create churn_prog in
  P4.Switch.insert_entry sw "acl" (acl_e ~prio:1 0x05L 0xFFL 2);
  P4.Switch.insert_entry sw "routes" (route_e 0x0A000000L 8 1);
  P4.Switch.insert_entry sw "routes" (route_e 0x0A010000L 16 3);
  let r = Random.State.make [| 77 |] in
  let jobs =
    List.init 64 (fun _ ->
        let src = if Random.State.bool r then 0x05L else 0x1234L in
        let dst =
          Int64.of_int
            (((10 + Random.State.int r 2) lsl 24)
            lor (Random.State.int r 3 lsl 16)
            lor Random.State.int r 256)
        in
        ( 1 + Random.State.int r 4,
          P4.Stdhdrs.udp_packet ~eth_dst:1L ~eth_src:2L ~ip_src:src ~ip_dst:dst
            ~src_port:1L ~dst_port:2L ~payload:"x" ))
  in
  let batched = P4.Switch.process_many sw jobs in
  List.iter2
    (fun (in_port, pkt) outs ->
      Alcotest.(check (list (pair int string)))
        "batched = per-packet"
        (Test_fdd.sorted_outs (P4.Switch.process sw ~in_port pkt))
        (Test_fdd.sorted_outs outs))
    jobs batched

(* ------------------------------------------------------------------ *)
(* Controller flow programmer                                          *)
(* ------------------------------------------------------------------ *)

let test_controller_flow_programmer () =
  let d = L3router.deploy () in
  let psw = L3router.switch d "r0" in
  let pushes = ref [] in
  Nerpa.Controller.attach_flow_programmer d.L3router.controller "r0" psw
    ~push:(fun delta -> pushes := delta :: !pushes);
  let mirror =
    copy_pipeline
      (Option.get (Nerpa.Controller.flow_pipeline d.L3router.controller "r0"))
  in
  L3router.add_route d ~prefix:0x0A000000L ~plen:8 ~nexthop:0x0A000001L;
  L3router.add_neighbor d ~ip:0x0A000001L ~mac:0xAAL ~port:1;
  ignore (L3router.sync d);
  L3router.add_route d ~prefix:0x0A010000L ~plen:16 ~nexthop:0x0A000001L;
  ignore (L3router.sync d);
  L3router.del_route d ~prefix:0x0A010000L ~plen:16;
  ignore (L3router.sync d);
  Alcotest.(check bool) "deltas were pushed" true (List.length !pushes >= 3);
  List.iter (Openflow.apply_delta mirror) (List.rev !pushes);
  let scratch = Openflow.dump (Compile.compile psw) in
  check_dump "controller mirror" scratch (Openflow.dump mirror);
  check_dump "controller pipeline" scratch
    (Openflow.dump
       (Option.get (Nerpa.Controller.flow_pipeline d.L3router.controller "r0")))

let tests =
  [
    Alcotest.test_case "flow diff pairs modifies" `Quick
      test_diff_pairs_modifies;
    Alcotest.test_case "flow delta application" `Quick test_apply_delta;
    Alcotest.test_case "incremental state (scripted churn)" `Quick
      test_state_scripted;
    Alcotest.test_case "ternary 2-op refold is byte-identical" `Quick
      test_ternary_refold_two_op;
    Alcotest.test_case "single-entry churn emits small deltas" `Quick
      test_state_delta_is_small;
    Alcotest.test_case "compaction bounds the manager" `Quick
      test_compaction_bounded;
    Alcotest.test_case "fold_flows streams compile's flows" `Quick
      test_fold_flows_streaming;
    Alcotest.test_case "process_many agrees with process" `Quick
      test_process_many;
    Alcotest.test_case "controller pushes flow deltas" `Quick
      test_controller_flow_programmer;
    Alcotest.test_case "FIB delta sizes are exact" `Quick
      test_fib_delta_sizes;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_state_churn_differential; prop_fib_differential ]
