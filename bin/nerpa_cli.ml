(* nerpa_cli — command-line front end to the stack.

     nerpa_cli check PROGRAM.dl           type-check and show strata
     nerpa_cli run PROGRAM.dl SCRIPT      execute a transaction script
     nerpa_cli codegen                    print the DL schema generated
                                          from the snvs OVSDB + P4 planes
     nerpa_cli stats [--json]             run the snvs demo workload and
                                          print the metric registry (or,
                                          with --endpoint/--shard-map,
                                          aggregate a live cluster's)
     nerpa_cli faultsim [--seeds N]       run the snvs workload over
                                          seeded faulty links and check
                                          convergence against a
                                          fault-free run
     nerpa_cli serve --shard K            host one shard's daemon
     nerpa_cli cluster --shards N         in-process N-shard fleet,
                                          checked byte-for-byte against
                                          the 1-controller baseline

   serve/connect/faultsim/stats share one flag spelling:
   --endpoint in-process|wire|dir:PATH|tcp:HOST:PORT, --codec
   json|binary, --shard-map FILE (with --shard K selecting this
   process's shard).

   Script syntax, one command per line ('#' comments):
     + Rel(const, const, ...)    stage an insertion
     - Rel(const, const, ...)    stage a deletion
     commit                      commit the transaction, print deltas
     dump Rel                    print a relation's contents *)

open Dl

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------------- check ---------------- *)

let cmd_check file =
  let src = read_file file in
  match Parser.parse_program src with
  | Error msg ->
    Printf.eprintf "parse error: %s\n" msg;
    exit 1
  | Ok program -> (
    match Typecheck.check_program program with
    | Error errs ->
      List.iter (fun e -> Printf.eprintf "error: %s\n" e) errs;
      exit 1
    | Ok () -> (
      match Stratify.stratify program with
      | exception Stratify.Unstratifiable msg ->
        Printf.eprintf "error: unstratifiable: %s\n" msg;
        exit 1
      | strata ->
        Printf.printf "%s: %d relations, %d rules, %d strata\n" file
          (List.length program.Ast.decls)
          (List.length program.Ast.rules)
          (List.length strata);
        Format.printf "%a" Stratify.pp strata;
        List.iter
          (fun w -> Printf.printf "warning: %s\n" w)
          (Typecheck.lint program);
        exit 0))

(* ---------------- run ---------------- *)

type script_cmd =
  | Update of bool * string * Row.t
  | Commit
  | Dump of string

let parse_script_line line : script_cmd option =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else if line = "commit" then Some Commit
  else if String.length line > 5 && String.sub line 0 5 = "dump " then
    Some (Dump (String.trim (String.sub line 5 (String.length line - 5))))
  else begin
    let sign, rest =
      match line.[0] with
      | '+' -> (true, String.sub line 1 (String.length line - 1))
      | '-' -> (false, String.sub line 1 (String.length line - 1))
      | _ -> failwith (Printf.sprintf "bad script line: %s" line)
    in
    (* Reuse the DL front end: parse "Rel(...)" as a fact. *)
    match Parser.parse_program (rest ^ ".") with
    | Ok { Ast.rules = [ { head; body = [] } ]; _ } ->
      let row =
        Row.intern
          (Array.map
             (function
               | Ast.EConst c -> c
               | Ast.ECall ("neg", [ Ast.EConst (Value.VInt v) ]) ->
                 Value.VInt (Int64.neg v)
               | _ -> failwith "script rows must be constants")
             head.Ast.hargs)
      in
      Some (Update (sign, head.Ast.hrel, row))
    | Ok _ | Error _ -> failwith (Printf.sprintf "bad script line: %s" line)
  end

let coerce_row (program : Ast.program) rel (row : Row.t) : Row.t =
  match Ast.find_decl program rel with
  | None -> row
  | Some d ->
    let tys = Array.of_list (List.map snd d.cols) in
    if Array.length tys <> Row.arity row then row
    else
      Row.intern
        (Array.mapi
           (fun i v ->
             match tys.(i), v with
             | Dtype.TBit w, Value.VInt x -> Value.bit w x
             | _ -> v)
           (Row.values row))

let cmd_run file script =
  let program =
    match Parser.parse_program (read_file file) with
    | Ok p -> p
    | Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 1
  in
  let engine =
    try Engine.create program
    with Engine.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  let lines = String.split_on_char '\n' (read_file script) in
  let txn = ref None in
  let ensure_txn () =
    match !txn with
    | Some t -> t
    | None ->
      let t = Engine.transaction engine in
      txn := Some t;
      t
  in
  List.iteri
    (fun lineno line ->
      match parse_script_line line with
      | None -> ()
      | Some cmd -> (
        try
          match cmd with
          | Update (ins, rel, row) ->
            let row = coerce_row program rel row in
            if ins then Engine.insert (ensure_txn ()) rel row
            else Engine.delete (ensure_txn ()) rel row
          | Commit ->
            let t = ensure_txn () in
            txn := None;
            let deltas = Engine.commit t in
            Printf.printf "commit:\n";
            if deltas = [] then print_endline "  (no changes)"
            else
              List.iter
                (fun (rel, dz) ->
                  Zset.iter
                    (fun r w ->
                      Printf.printf "  %s %s%s\n"
                        (if w > 0 then "+" else "-")
                        rel (Row.to_string r))
                    dz)
                deltas
          | Dump rel ->
            Printf.printf "%s:\n" rel;
            List.iter
              (fun r -> Printf.printf "  %s\n" (Row.to_string r))
              (List.sort Row.compare (Engine.relation_rows engine rel))
        with
        | Failure msg | Engine.Error msg ->
          Printf.eprintf "script line %d: %s\n" (lineno + 1) msg;
          exit 1))
    lines;
  (match !txn with
  | Some t -> ignore (Engine.commit t)
  | None -> ());
  exit 0

(* ---------------- codegen ---------------- *)

let cmd_codegen () =
  let g = Nerpa.Codegen.generate ~schema:Snvs.schema ~p4:Snvs.p4 in
  print_endline "// relations generated from the snvs OVSDB schema and P4 program";
  print_endline (Nerpa.Codegen.decls_text g);
  exit 0

(* ---------------- shared cluster/endpoint flags ---------------- *)

(* The one --endpoint spelling every subcommand accepts: the two
   in-process plane flavours, or a socket location in the same
   dir:/tcp: syntax shard-map lines use. *)
type ep_spec =
  | Ep_in_process
  | Ep_wire
  | Ep_loc of Nerpa.Shard_map.location

let ep_spec_of_string = function
  | "in-process" -> Ok Ep_in_process
  | "wire" -> Ok Ep_wire
  | s -> Result.map (fun l -> Ep_loc l) (Nerpa.Shard_map.location_of_string s)

let ep_spec_to_string = function
  | Ep_in_process -> "in-process"
  | Ep_wire -> "wire"
  | Ep_loc l -> Nerpa.Shard_map.location_to_string l

let load_map file =
  match Nerpa.Shard_map.parse (read_file file) with
  | Ok m -> m
  | Error e ->
    Printf.eprintf "error: %s: %s\n" file e;
    exit 2

(* The cluster a command operates on: an explicit --shard-map, or a
   synthesized single-shard map at the --endpoint socket location.
   [clustered] tells the two apart — a lone daemon hosts no exchange
   store, a mapped one always does. *)
let resolve_cluster ~shard_map ~endpoint ~switches =
  match shard_map with
  | Some file -> (load_map file, true)
  | None -> (
    match endpoint with
    | Ep_loc loc -> (Nerpa.Shard_map.create ~locations:[ loc ] ~switches, false)
    | (Ep_in_process | Ep_wire) as e ->
      Printf.eprintf
        "error: this command needs a socket endpoint (dir:PATH or \
         tcp:HOST:PORT), not %s, or a --shard-map\n"
        (ep_spec_to_string e);
      exit 2)

let check_shard map shard =
  if shard < 0 || shard >= Nerpa.Shard_map.nshards map then begin
    Printf.eprintf "error: no shard %d in the map (%d shards)\n" shard
      (Nerpa.Shard_map.nshards map);
    exit 2
  end

(* ---------------- stats ---------------- *)

(* Aggregate a live cluster's metric registries: Get_stats against
   every shard daemon's exchange store (or the lone daemon's
   management socket), summing the integer counters. *)
let cmd_stats_remote json endpoint shard_map codec auth =
  let map, clustered =
    resolve_cluster ~shard_map ~endpoint ~switches:[ "snvs0" ]
  in
  let nshards = Nerpa.Shard_map.nshards map in
  let addr k =
    if clustered then Nerpa.Shard_map.xrel_addr map k
    else Nerpa.Shard_map.mgmt_addr map
  in
  let fetch k =
    let l = Nerpa.Links.socket_mgmt ~codec ?auth ~addr:(addr k) () in
    match Transport.send l Nerpa.Links.Get_stats with
    | Ok (Nerpa.Links.Stats s) -> (k, Some s)
    | Ok _ | Error _ -> (k, None)
  in
  let shards = List.init nshards fetch in
  let totals : (string, int64) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, s) ->
      match s with
      | None -> ()
      | Some s -> (
        match Ovsdb.Json.of_string s with
        | Ovsdb.Json.Obj kvs ->
          List.iter
            (fun (name, v) ->
              match v with
              | Ovsdb.Json.Int n ->
                let prev =
                  Option.value ~default:0L (Hashtbl.find_opt totals name)
                in
                Hashtbl.replace totals name (Int64.add prev n)
              | _ -> ())
            kvs
        | _ -> ()
        | exception Ovsdb.Json.Parse_error _ -> ()))
    shards;
  let sorted_totals =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])
  in
  let ok = List.for_all (fun (_, s) -> s <> None) shards in
  if json then begin
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\"shards\":{";
    List.iteri
      (fun i (k, s) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "\"%d\":%s" k
             (match s with Some s -> s | None -> "null")))
      shards;
    Buffer.add_string b "},\"total\":{";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "%S:%Ld" name v))
      sorted_totals;
    Buffer.add_string b "}}";
    print_endline (Buffer.contents b)
  end
  else begin
    List.iter
      (fun (k, s) ->
        Printf.printf "shard %d (%s): %s\n" k
          (Nerpa.Shard_map.location_to_string
             (Nerpa.Shard_map.location map (if clustered then k else 0)))
          (match s with Some _ -> "ok" | None -> "unreachable"))
      shards;
    print_endline "total:";
    List.iter
      (fun (name, v) -> Printf.printf "  %-40s %Ld\n" name v)
      sorted_totals
  end;
  exit (if ok then 0 else 1)

(* Exercise every plane of the snvs deployment — OVSDB transactions,
   DL commits, P4Runtime writes, packet processing with MAC-learning
   digests — then print the Obs registry they populated. *)
let cmd_stats json endpoint shard_map codec auth =
  (match (shard_map, endpoint) with
  | Some _, _ | None, Ep_loc _ ->
    cmd_stats_remote json endpoint shard_map codec auth
  | None, (Ep_in_process | Ep_wire) -> ());
  Obs.reset ();
  let d =
    Snvs.deploy
      ~endpoint:
        (match endpoint with
        | Ep_wire -> Nerpa.Endpoint.wire
        | _ -> Nerpa.Endpoint.in_process)
      ()
  in
  ignore (Snvs.add_port d ~name:"h1" ~port:1 ~mode:"access" ~tag:10 ~trunks:[]);
  ignore (Snvs.add_port d ~name:"h2" ~port:2 ~mode:"access" ~tag:10 ~trunks:[]);
  ignore (Snvs.add_port d ~name:"h3" ~port:3 ~mode:"access" ~tag:20 ~trunks:[]);
  ignore
    (Snvs.add_port d ~name:"up" ~port:4 ~mode:"trunk" ~tag:0 ~trunks:[ 10; 20 ]);
  ignore (Nerpa.Controller.sync d.controller);
  let mac = P4.Stdhdrs.mac_of_string in
  let h1 = mac "02:00:00:00:00:01" and h2 = mac "02:00:00:00:00:02" in
  let bcast = mac "ff:ff:ff:ff:ff:ff" in
  let frame ~dst ~src =
    P4.Stdhdrs.ethernet_frame ~dst ~src ~ethertype:0x0800L ~payload:"payload"
  in
  (* Broadcast, learn, then unicast both ways. *)
  ignore (P4.Switch.process d.switch ~in_port:1 (frame ~dst:bcast ~src:h1));
  ignore (Nerpa.Controller.sync d.controller);
  ignore (P4.Switch.process d.switch ~in_port:2 (frame ~dst:h1 ~src:h2));
  ignore (Nerpa.Controller.sync d.controller);
  ignore (P4.Switch.process d.switch ~in_port:1 (frame ~dst:h2 ~src:h1));
  (* An ACL deny and the packet it drops. *)
  ignore
    (Snvs.add_acl d ~priority:10 ~src:h1 ~src_mask:0xFFFFFFFFFFFFL ~dst:h2
       ~dst_mask:0xFFFFFFFFFFFFL ~allow:false);
  ignore (Nerpa.Controller.sync d.controller);
  ignore (P4.Switch.process d.switch ~in_port:1 (frame ~dst:h2 ~src:h1));
  if json then print_endline (Obs.render_json ())
  else print_string (Obs.render_table ());
  exit 0

(* ---------------- faultsim ---------------- *)

(* The snvs MAC-learning workload over fault-injecting links: for each
   seed, run config churn + learning traffic through a lossy serialized
   P4Runtime link (drops, duplicates, delays, disconnects, plus one
   forced mid-run disconnect), then heal, reconcile, and compare the
   switch's final forwarding state byte-for-byte against a fault-free
   run of the same workload. *)

let fs_bcast = P4.Stdhdrs.mac_of_string "ff:ff:ff:ff:ff:ff"
let fs_a = P4.Stdhdrs.mac_of_string "00:00:00:00:00:0a"
let fs_b = P4.Stdhdrs.mac_of_string "00:00:00:00:00:0b"
let fs_c = P4.Stdhdrs.mac_of_string "00:00:00:00:00:0c"

let fs_dump (sw : P4.Switch.t) =
  let srv = P4runtime.attach sw in
  let info = P4runtime.info srv in
  let entries =
    List.concat_map
      (fun ti -> P4runtime.read_table srv ~table_id:ti.P4.P4info.table_id)
      info.P4.P4info.tables
  in
  let groups =
    List.map
      (fun (g, ps) -> (g, List.sort Int64.compare ps))
      (P4runtime.multicast_groups srv)
  in
  P4runtime.Wire.encode_response
    (P4runtime.Wire.Table (List.sort compare entries))
  ^ P4runtime.Wire.encode_response (P4runtime.Wire.Groups groups)

let fs_in_vlan_id =
  lazy
    (let info = P4.P4info.of_program Snvs.p4 in
     (List.find
        (fun ti -> ti.P4.P4info.table_name = "in_vlan")
        info.P4.P4info.tables)
       .P4.P4info.table_id)

(* feed a frame only once the ingress port is admitted (a host keeps
   talking until it is); each retry syncs, which also ticks a downed
   link toward reconnection *)
let fs_feed (d : Snvs.deployment) ~port src =
  let ready () =
    let srv = P4runtime.attach d.switch in
    List.exists
      (fun e ->
        match e.P4runtime.matches with
        | P4runtime.FmExact p :: _ -> p = Int64.of_int port
        | _ -> false)
      (P4runtime.read_table srv ~table_id:(Lazy.force fs_in_vlan_id))
  in
  let n = ref 100 in
  while (not (ready ())) && !n > 0 do
    decr n;
    ignore (Nerpa.Controller.sync d.controller)
  done;
  ignore
    (P4.Switch.process d.switch ~in_port:port
       (P4.Stdhdrs.ethernet_frame ~dst:fs_bcast ~src ~ethertype:0x1234L
          ~payload:"x"))

let fs_workload (d : Snvs.deployment) ~mid =
  List.iter
    (fun (name, port, mode, tag, trunks) ->
      ignore (Snvs.add_port d ~name ~port ~mode ~tag ~trunks))
    [ ("p1", 1, "access", 10, []); ("p2", 2, "access", 10, []);
      ("p3", 3, "access", 20, []); ("p4", 4, "trunk", 0, [ 10; 20 ]) ];
  ignore (Nerpa.Controller.sync d.controller);
  fs_feed d ~port:1 fs_a;
  ignore (Nerpa.Controller.sync d.controller);
  fs_feed d ~port:2 fs_b;
  ignore (Nerpa.Controller.sync d.controller);
  mid ();
  (* a config change that can land while the link is down: repaired by
     reconciliation on reconnect *)
  ignore
    (Snvs.add_acl d ~priority:10 ~src:fs_a ~src_mask:0xFFFFFFFFFFFFL
       ~dst:fs_b ~dst_mask:0xFFFFFFFFFFFFL ~allow:false);
  ignore (Nerpa.Controller.sync d.controller);
  fs_feed d ~port:3 fs_c;
  ignore (Nerpa.Controller.sync d.controller);
  (* MAC mobility: A moves to port 2 *)
  fs_feed d ~port:2 fs_a;
  ignore (Nerpa.Controller.sync d.controller)

let fs_converge (d : Snvs.deployment) ctls =
  (* [heal] keeps the fault schedule armed; end-of-run convergence wants
     quiet links, so silence injection explicitly first *)
  List.iter (fun ctl -> Transport.set_faults_enabled ctl false) ctls;
  List.iter Transport.heal ctls;
  (* a healed management link may have lost batches to delayed polls
     without a visible error: force one resync *)
  Nerpa.Controller.mark_mgmt_dirty d.controller;
  ignore (Nerpa.Controller.sync d.controller);
  fs_feed d ~port:2 fs_a;
  fs_feed d ~port:2 fs_b;
  fs_feed d ~port:3 fs_c;
  ignore (Nerpa.Controller.sync d.controller);
  Nerpa.Controller.reconcile d.controller "snvs0";
  fs_dump d.switch

let serve_add_port db ~name ~port ~mode ~tag ~trunks =
  ignore
    (Ovsdb.Db.insert_exn db "Port"
       [
         ("name", Ovsdb.Datum.string name);
         ("port", Ovsdb.Datum.integer (Int64.of_int port));
         ("mode", Ovsdb.Datum.string mode);
         ("tag", Ovsdb.Datum.integer (Int64.of_int tag));
         ("trunks",
          Ovsdb.Datum.set
            (List.map (fun v -> Ovsdb.Atom.Integer (Int64.of_int v)) trunks));
       ])

(* ---------------- cluster demo / differential ---------------- *)

(* The sharded-vs-single differential at the heart of PR 10's
   correctness bar: run the identical config churn + learning traffic
   through (a) one controller owning every switch and (b) an N-shard
   in-process fleet exchanging digest-learned relations, optionally
   killing and restarting one shard mid-churn, then require every
   switch's forwarding state and every engine relation to be
   byte-identical. *)

let cluster_mac ~sw ~port =
  P4.Stdhdrs.mac_of_string (Printf.sprintf "02:00:00:00:%02x:%02x" sw port)

let cluster_switch_names n = List.init n (Printf.sprintf "sw%02d")

let cluster_churn_ports db =
  List.iter
    (fun (name, port, mode, tag, trunks) ->
      serve_add_port db ~name ~port ~mode ~tag ~trunks)
    [ ("p1", 1, "access", 10, []); ("p2", 2, "access", 10, []);
      ("p3", 3, "access", 20, []); ("p4", 4, "trunk", 0, [ 10; 20 ]) ]

let cluster_churn_acl db =
  ignore
    (Ovsdb.Db.insert_exn db "Acl"
       [
         ("priority", Ovsdb.Datum.integer 10L);
         ("src", Ovsdb.Datum.integer (cluster_mac ~sw:0 ~port:1));
         ("src_mask", Ovsdb.Datum.integer 0xFFFFFFFFFFFFL);
         ("dst", Ovsdb.Datum.integer (cluster_mac ~sw:0 ~port:2));
         ("dst_mask", Ovsdb.Datum.integer 0xFFFFFFFFFFFFL);
         ("allow", Ovsdb.Datum.boolean false);
       ])

(* feed one learning frame once the ingress port is admitted; [sync]
   drives whichever control plane (single controller or whole fleet)
   is under test *)
let cluster_feed ~sync ~switch ~name ~port src =
  let ready () =
    let srv = P4runtime.attach (switch name) in
    List.exists
      (fun e ->
        match e.P4runtime.matches with
        | P4runtime.FmExact p :: _ -> p = Int64.of_int port
        | _ -> false)
      (P4runtime.read_table srv ~table_id:(Lazy.force fs_in_vlan_id))
  in
  let n = ref 100 in
  while (not (ready ())) && !n > 0 do
    decr n;
    sync ()
  done;
  ignore
    (P4.Switch.process (switch name) ~in_port:port
       (P4.Stdhdrs.ethernet_frame ~dst:fs_bcast ~src ~ethertype:0x1234L
          ~payload:"x"))

(* every switch learns a host on ports 1 and 2 (sources unique per
   switch so the exchanged [learned_mac] rows never collide) *)
let cluster_traffic ~sync ~switch names =
  List.iteri
    (fun i name ->
      cluster_feed ~sync ~switch ~name ~port:1 (cluster_mac ~sw:i ~port:1);
      sync ();
      cluster_feed ~sync ~switch ~name ~port:2 (cluster_mac ~sw:i ~port:2);
      sync ())
    names

(* MAC mobility across the exchange: switch 0's port-1 host reappears
   on port 2, so every shard must LWW-displace the old binding *)
let cluster_mobility ~sync ~switch names =
  cluster_feed ~sync ~switch ~name:(List.hd names) ~port:2
    (cluster_mac ~sw:0 ~port:1);
  sync ()

let run_cluster_demo ~nshards ~names ~kill_restart () : bool =
  (* (a) the 1-controller baseline *)
  let bdb = Ovsdb.Db.create Snvs.schema in
  let bsw = List.map (fun n -> (n, P4.Switch.create ~name:n Snvs.p4)) names in
  let bctl =
    Nerpa.Controller.create ~digest_replace:Snvs.digest_replace ~db:bdb
      ~p4:Snvs.p4 ~rules:Snvs.rules ~switches:bsw ()
  in
  let bsync () = ignore (Nerpa.Controller.sync bctl) in
  let bswitch name = List.assoc name bsw in
  cluster_churn_ports bdb;
  bsync ();
  cluster_traffic ~sync:bsync ~switch:bswitch names;
  cluster_churn_acl bdb;
  bsync ();
  cluster_traffic ~sync:bsync ~switch:bswitch names;
  cluster_mobility ~sync:bsync ~switch:bswitch names;
  bsync ();
  (* (b) the sharded fleet over the same shared database contents *)
  let db = Ovsdb.Db.create Snvs.schema in
  let cl =
    Nerpa.Cluster.create_local ~digest_replace:Snvs.digest_replace ~nshards
      ~db ~p4:Snvs.p4 ~rules:Snvs.rules ~switch_names:names ()
  in
  let csync () = ignore (Nerpa.Cluster.sync_all cl) in
  let cswitch name = Nerpa.Cluster.switch cl name in
  cluster_churn_ports db;
  csync ();
  cluster_traffic ~sync:csync ~switch:cswitch names;
  if kill_restart then begin
    let victim = nshards - 1 in
    Nerpa.Cluster.kill cl victim;
    (* config lands while the shard is dead; survivors keep going *)
    cluster_churn_acl db;
    csync ();
    Nerpa.Cluster.restart cl victim;
    csync ()
  end
  else begin
    cluster_churn_acl db;
    csync ()
  end;
  (* re-offer all traffic: a restarted shard's switches re-learn *)
  cluster_traffic ~sync:csync ~switch:cswitch names;
  cluster_mobility ~sync:csync ~switch:cswitch names;
  csync ();
  (* the differential proper *)
  let ok = ref true in
  List.iter
    (fun name ->
      let ctl = Nerpa.Cluster.controller cl (Nerpa.Cluster.owner cl name) in
      if
        not
          (String.equal
             (Nerpa.Controller.dump_switch ctl name)
             (Nerpa.Controller.dump_switch bctl name))
      then begin
        ok := false;
        Printf.printf "  switch %s diverged from the baseline\n" name
      end)
    names;
  (* OVSDB-backed input relations carry [_uuid] columns drawn from a
     process-global counter, so two databases in one process can never
     agree on them — require those identical across shards (they share
     one database) and everything else identical to the baseline too *)
  let ovsdb_rel rel =
    List.exists
      (fun (tbl : Ovsdb.Schema.table) -> tbl.Ovsdb.Schema.tname = rel)
      Snvs.schema.Ovsdb.Schema.tables
  in
  List.iter
    (fun rel ->
      let reference = ref None in
      for k = 0 to nshards - 1 do
        if Nerpa.Cluster.alive cl k then begin
          let d =
            Nerpa.Controller.relation_dump (Nerpa.Cluster.controller cl k) rel
          in
          (match !reference with
          | None -> reference := Some d
          | Some r ->
            if d <> r then begin
              ok := false;
              Printf.printf "  relation %s diverged across shards (shard %d)\n"
                rel k
            end);
          if (not (ovsdb_rel rel)) && d <> Nerpa.Controller.relation_dump bctl rel
          then begin
            ok := false;
            Printf.printf "  relation %s diverged on shard %d\n" rel k
          end
        end
      done)
    (Nerpa.Controller.relations bctl);
  !ok

let cmd_faultsim nseeds mgmt_faults endpoint shard_map codec =
  ignore codec;
  (* faults are injected on in-process links; a socket endpoint has
     real loss instead of a seeded schedule *)
  let base_endpoint =
    match endpoint with
    | Ep_wire ->
      Nerpa.Endpoint.planes ~mgmt:Nerpa.Endpoint.plane_in_process
        ~p4_of:(fun _ -> Nerpa.Endpoint.plane_wire)
    | Ep_in_process -> Nerpa.Endpoint.in_process
    | Ep_loc _ ->
      Printf.eprintf
        "error: faultsim runs in-process; --endpoint must be in-process or \
         wire\n";
      exit 2
  in
  let baseline =
    let d = Snvs.deploy () in
    fs_workload d ~mid:(fun () -> ());
    fs_converge d []
  in
  Printf.printf "%-6s %6s %6s %6s %6s %11s %12s %8s  %s\n" "seed" "drops"
    "dups" "delays" "disc" "reconciles" "corrections" "resyncs" "converged";
  let injected () =
    Obs.counter_value "transport.faults.drops"
    + Obs.counter_value "transport.faults.duplicates"
    + Obs.counter_value "transport.faults.delays"
  in
  let all_ok = ref true in
  for i = 1 to nseeds do
    let seed = 100 + (i * 37) in
    Obs.reset ();
    let endpoint =
      let ep = Nerpa.Endpoint.faulty_p4 ~seed base_endpoint in
      if mgmt_faults then Nerpa.Endpoint.faulty_mgmt ~seed:(seed + 1) ep
      else ep
    in
    let d = Snvs.deploy ~endpoint () in
    let ctl = Option.get (Nerpa.Controller.p4_ctl d.controller "snvs0") in
    let ctls =
      ctl :: Option.to_list (Nerpa.Controller.mgmt_ctl d.controller)
    in
    (* mid-run: a hard disconnect immediately healed.  [heal] must
       leave the fault schedule armed (a past bug silently disabled it),
       so the injection counters have to keep climbing afterwards. *)
    let at_heal = ref 0 in
    fs_workload d ~mid:(fun () ->
        Transport.force_disconnect ctl ~down_for:5 ();
        Transport.heal ctl;
        at_heal := injected ());
    let heal_armed = injected () > !at_heal in
    let dump = fs_converge d ctls in
    let ok = String.equal dump baseline && heal_armed in
    if not ok then all_ok := false;
    Printf.printf "%-6d %6d %6d %6d %6d %11d %12d %8d  %s%s\n" seed
      (Obs.counter_value "transport.faults.drops")
      (Obs.counter_value "transport.faults.duplicates")
      (Obs.counter_value "transport.faults.delays")
      (Obs.counter_value "transport.faults.disconnects")
      (Obs.counter_value "nerpa.reconcile.count")
      (Obs.counter_value "nerpa.reconcile.corrections")
      (Obs.counter_value "nerpa.resync.count")
      (if String.equal dump baseline then "yes" else "NO")
      (if heal_armed then "" else " (faults silent after heal!)")
  done;
  (match shard_map with
  | None -> ()
  | Some file ->
    (* the sharded fault leg: an in-process fleet with the map's
       topology, one shard killed and restarted mid-churn, checked
       byte-for-byte against the 1-controller baseline *)
    let m = load_map file in
    let ok =
      run_cluster_demo
        ~nshards:(Nerpa.Shard_map.nshards m)
        ~names:(Nerpa.Shard_map.switches m) ~kill_restart:true ()
    in
    Printf.printf "cluster kill/restart (%d shards, %d switches): %s\n"
      (Nerpa.Shard_map.nshards m)
      (List.length (Nerpa.Shard_map.switches m))
      (if ok then "converged" else "DIVERGED");
    if not ok then all_ok := false);
  exit (if !all_ok then 0 else 1)

(* ---------------- serve / connect ---------------- *)

(* The real client/server split: [serve] hosts the snvs database and
   switch behind Unix-domain sockets; [connect] drives them from
   another process.  Together they are the smoke test for the socket
   transport (CI runs serve in the background and connect against it). *)

(* Inject a learning frame once a connected controller has admitted the
   ingress port (installed its in_vlan entry) — the serve-side
   equivalent of a host retrying until the network lets it talk. *)
let serve_feed server switch ~port src ~timeout_s =
  let admitted () =
    Server.with_lock server (fun () ->
        let srv = P4runtime.attach switch in
        List.exists
          (fun e ->
            match e.P4runtime.matches with
            | P4runtime.FmExact p :: _ -> p = Int64.of_int port
            | _ -> false)
          (P4runtime.read_table srv ~table_id:(Lazy.force fs_in_vlan_id)))
  in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    if admitted () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.02;
      wait ()
    end
  in
  let ok = wait () in
  if ok then
    Server.with_lock server (fun () ->
        ignore
          (P4.Switch.process switch ~in_port:port
             (P4.Stdhdrs.ethernet_frame ~dst:fs_bcast ~src ~ethertype:0x1234L
                ~payload:"x")));
  ok

let cmd_serve endpoint shard_map shard codec auth secs workload =
  ignore codec;
  (* the daemon answers every client in the client's own frame codec *)
  let map, clustered =
    resolve_cluster ~shard_map ~endpoint ~switches:[ "snvs0" ]
  in
  check_shard map shard;
  let names = Nerpa.Shard_map.switches_of map shard in
  let switches =
    List.map (fun n -> (n, P4.Switch.create ~name:n Snvs.p4)) names
  in
  (* the shared management database lives with shard 0; every mapped
     shard hosts an exchange store of its own *)
  let db = if shard = 0 then Some (Ovsdb.Db.create Snvs.schema) else None in
  let xdb = if clustered then Some (Nerpa.Xrel.create_db ()) else None in
  let dir, tcp =
    match Nerpa.Shard_map.location map shard with
    | Nerpa.Shard_map.Dir d -> (d, None)
    | Nerpa.Shard_map.Tcp (h, p) -> (Filename.get_temp_dir_name (), Some (h, p))
  in
  let server = Server.create ?db ?xdb ?auth ?tcp ~switches ~dir () in
  Server.start server;
  Printf.printf "serving shard %d/%d (%s%s) at %s%s\n%!" shard
    (Nerpa.Shard_map.nshards map)
    (match db with Some _ -> "db + " | None -> "")
    (String.concat ", " names)
    (Nerpa.Shard_map.location_to_string (Nerpa.Shard_map.location map shard))
    (match secs with
    | Some s -> Printf.sprintf " for %gs" s
    | None -> "");
  if workload then begin
    (* the administrator's config churn, applied while clients may be
       connected, plus learning traffic once ports are admitted.
       Sources are unique per switch, as in the cluster demo, so a
       sharded fleet exchanges disjoint learned rows. *)
    (match db with
    | Some db -> Server.with_lock server (fun () -> cluster_churn_ports db)
    | None -> ());
    let fleet = Nerpa.Shard_map.switches map in
    List.iter
      (fun (name, sw) ->
        let i = Option.get (List.find_index (String.equal name) fleet) in
        ignore
          (serve_feed server sw ~port:1 (cluster_mac ~sw:i ~port:1)
             ~timeout_s:30.);
        ignore
          (serve_feed server sw ~port:2 (cluster_mac ~sw:i ~port:2)
             ~timeout_s:30.);
        ignore
          (serve_feed server sw ~port:3 (cluster_mac ~sw:i ~port:3)
             ~timeout_s:30.))
      switches
  end;
  (match secs with
  | Some s -> Unix.sleepf s
  | None ->
    while true do
      Unix.sleep 3600
    done);
  Server.stop server;
  exit 0

let cmd_connect endpoint shard_map shard codec auth rounds settle min_txns
    dump =
  let map, clustered =
    resolve_cluster ~shard_map ~endpoint ~switches:[ "snvs0" ]
  in
  check_shard map shard;
  let names = Nerpa.Shard_map.switches_of map shard in
  if names = [] then begin
    Printf.eprintf "error: shard %d owns no switches\n" shard;
    exit 2
  end;
  let ep = Nerpa.Cluster.shard_endpoint ~codec ?auth map ~shard in
  let exchange =
    (* a lone un-mapped daemon hosts no exchange store *)
    if clustered then Some (Nerpa.Cluster.shard_exchange ~codec ?auth map ~shard)
    else None
  in
  let c = Snvs.connect ~switch_names:names ?exchange ~endpoint:ep () in
  let quiet = ref 0 and r = ref 0 in
  while !quiet < settle && !r < rounds do
    incr r;
    let n = Nerpa.Controller.sync c in
    if n = 0 then incr quiet else quiet := 0;
    Unix.sleepf 0.05
  done;
  let st = Nerpa.Controller.stats c in
  Printf.printf "shard=%d rounds=%d txns=%d entries=%d digests=%d groups=%d\n"
    shard !r st.Nerpa.Controller.txns st.entries_written st.digests_consumed
    st.groups_updated;
  List.iter
    (fun name ->
      match Nerpa.Controller.dump_switch c name with
      | s -> if dump then print_string s
      | exception Nerpa.Controller.Controller_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1)
    names;
  if st.txns < min_txns then begin
    Printf.eprintf "error: only %d txns committed (expected >= %d) — was the \
                    server reachable?\n"
      st.txns min_txns;
    exit 1
  end;
  exit 0

(* ---------------- cluster ---------------- *)

let cmd_cluster shards switches kill_restart shard_map =
  let nshards, names =
    match shard_map with
    | Some file ->
      let m = load_map file in
      (Nerpa.Shard_map.nshards m, Nerpa.Shard_map.switches m)
    | None -> (shards, cluster_switch_names switches)
  in
  if nshards < 1 || names = [] then begin
    Printf.eprintf "error: need at least 1 shard and 1 switch\n";
    exit 2
  end;
  let ok = run_cluster_demo ~nshards ~names ~kill_restart () in
  Printf.printf
    "cluster: %d shards x %d switches%s: %s (exchange: %d publishes, %d rows \
     out, %d rows in, %d resyncs)\n"
    nshards (List.length names)
    (if kill_restart then " with kill/restart" else "")
    (if ok then "converged byte-identically" else "DIVERGED")
    (Obs.counter_value "nerpa.exchange.publishes")
    (Obs.counter_value "nerpa.exchange.rows_published")
    (Obs.counter_value "nerpa.exchange.rows_applied")
    (Obs.counter_value "nerpa.exchange.resyncs")
  ;
  exit (if ok then 0 else 1)

(* ---------------- cmdliner wiring ---------------- *)

open Cmdliner

let file_arg n doc = Arg.(required & pos n (some file) None & info [] ~doc)

(* the uniform cluster flags (serve/connect/faultsim/stats) *)

let ep_conv =
  let parse s =
    match ep_spec_of_string s with
    | Ok e -> Ok e
    | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf e -> Format.pp_print_string ppf (ep_spec_to_string e))

let codec_conv =
  let parse = function
    | "json" -> Ok Transport.Json
    | "binary" -> Ok Transport.Binary
    | s -> Error (`Msg (Printf.sprintf "unknown codec %S (json or binary)" s))
  in
  let print ppf c =
    Format.pp_print_string ppf
      (match c with Transport.Json -> "json" | Transport.Binary -> "binary")
  in
  Arg.conv (parse, print)

let endpoint_arg default =
  Arg.(
    value
    & opt ep_conv default
    & info [ "endpoint" ] ~docv:"EP"
        ~doc:
          "where the planes live: $(b,in-process), $(b,wire) (in-process \
           through serialized bytes), $(b,dir:PATH) (Unix-domain sockets) or \
           $(b,tcp:HOST:PORT)")

let codec_arg =
  Arg.(
    value
    & opt codec_conv Transport.Binary
    & info [ "codec" ] ~docv:"CODEC"
        ~doc:
          "preferred wire codec for socket endpoints, $(b,binary) or \
           $(b,json); binary negotiates down to json against a pre-codec \
           server")

let shard_map_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "shard-map" ] ~docv:"FILE"
        ~doc:
          "cluster shard map (the Nerpa.Shard_map text form); overrides \
           $(b,--endpoint)")

let shard_arg =
  Arg.(
    value & opt int 0
    & info [ "shard" ] ~docv:"K" ~doc:"this process's shard id in the map")

let auth_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "auth" ] ~docv:"SECRET"
        ~doc:"shared secret demanded by the connection handshake")

let check_cmd =
  let doc = "type-check a DL program and report its strata" in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(const cmd_check $ file_arg 0 "the .dl program")

let run_cmd =
  let doc = "run a transaction script against a DL program" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const cmd_run $ file_arg 0 "the .dl program" $ file_arg 1 "the script file")

let codegen_cmd =
  let doc = "print the control-plane schema generated from the snvs planes" in
  Cmd.v (Cmd.info "codegen" ~doc) Term.(const cmd_codegen $ const ())

let stats_cmd =
  let doc =
    "run the snvs demo workload and print the observability registry"
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"print one line of JSON")
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const cmd_stats $ json
      $ endpoint_arg Ep_in_process
      $ shard_map_arg $ codec_arg $ auth_arg)

let faultsim_cmd =
  let doc =
    "run the snvs workload over seeded faulty links and check that every \
     run converges to the fault-free switch state"
  in
  let seeds =
    Arg.(
      value & opt int 5
      & info [ "seeds" ] ~doc:"number of seeded fault schedules to run")
  in
  let mgmt_faults =
    Arg.(
      value & flag
      & info [ "mgmt-faults" ]
          ~doc:
            "also inject faults on the management (OVSDB monitor) link, \
             exercising the monitor-resync repair path")
  in
  Cmd.v (Cmd.info "faultsim" ~doc)
    Term.(
      const cmd_faultsim $ seeds $ mgmt_faults
      $ endpoint_arg Ep_wire
      $ shard_map_arg $ codec_arg)

let serve_cmd =
  let doc =
    "host one shard's daemon — the snvs database (shard 0), the shard's \
     switches and (in a cluster) its exchange store — behind Unix-domain or \
     TCP listeners"
  in
  let for_ =
    Arg.(
      value & opt (some float) None
      & info [ "for" ] ~docv:"SECS" ~doc:"serve for this long, then exit \
                                          (default: forever)")
  in
  let workload =
    Arg.(
      value & flag
      & info [ "workload" ]
          ~doc:
            "apply the snvs config workload to the hosted database and \
             inject learning traffic once a connected controller admits \
             the ports")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const cmd_serve
      $ endpoint_arg (Ep_loc (Nerpa.Shard_map.Dir "/tmp/nerpa"))
      $ shard_map_arg $ shard_arg $ codec_arg $ auth_arg $ for_ $ workload)

let connect_cmd =
  let doc =
    "drive one shard's controller against nerpa_cli serve daemons over \
     sockets (with --shard-map, subscribing to every peer shard's exchange \
     store)"
  in
  let rounds =
    Arg.(
      value & opt int 200
      & info [ "rounds" ] ~doc:"maximum sync rounds before giving up")
  in
  let settle =
    Arg.(
      value & opt int 10
      & info [ "settle" ]
          ~doc:"consecutive quiescent rounds that count as converged")
  in
  let min_txns =
    Arg.(
      value & opt int 0
      & info [ "min-txns" ]
          ~doc:"fail unless at least this many transactions were committed")
  in
  let dump =
    Arg.(
      value & flag
      & info [ "dump" ] ~doc:"print the switch's final forwarding state")
  in
  Cmd.v (Cmd.info "connect" ~doc)
    Term.(
      const cmd_connect
      $ endpoint_arg (Ep_loc (Nerpa.Shard_map.Dir "/tmp/nerpa"))
      $ shard_map_arg $ shard_arg $ codec_arg $ auth_arg $ rounds $ settle
      $ min_txns $ dump)

let cluster_cmd =
  let doc =
    "run an in-process N-shard fleet over the snvs planes and check it \
     converges byte-identically to the 1-controller baseline"
  in
  let shards =
    Arg.(
      value & opt int 3 & info [ "shards" ] ~docv:"N" ~doc:"number of shards")
  in
  let switches =
    Arg.(
      value & opt int 4
      & info [ "switches" ] ~docv:"M" ~doc:"number of switches in the fleet")
  in
  let kill_restart =
    Arg.(
      value & flag
      & info [ "kill-restart" ]
          ~doc:"kill and restart one shard mid-churn before converging")
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(
      const cmd_cluster $ shards $ switches $ kill_restart $ shard_map_arg)

let () =
  let doc = "Nerpa full-stack SDN tooling" in
  let info = Cmd.info "nerpa_cli" ~doc ~version:"1.0.0" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ check_cmd; run_cmd; codegen_cmd; stats_cmd; faultsim_cmd;
            serve_cmd; connect_cmd; cluster_cmd ]))
