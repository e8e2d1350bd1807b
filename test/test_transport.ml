(* Tests for the plane-transport layer and the failure-handling driver:
   wire codec round-trips, deterministic fault injection, P4Runtime
   digest retransmission semantics, the controller's step core, per-
   controller stats, reconnect reconciliation, the seeded
   fault-injection convergence runs (final switch state must be
   byte-identical to a fault-free run), and a 16-switch fleet with one
   link cut mid-run. *)

let mac = P4.Stdhdrs.mac_of_string
let bcast = mac "ff:ff:ff:ff:ff:ff"

let frame ~dst ~src =
  P4.Stdhdrs.ethernet_frame ~dst ~src ~ethertype:0x1234L ~payload:"data"

let sync d = ignore (Nerpa.Controller.sync d.Snvs.controller)

let feed (d : Snvs.deployment) ~port src =
  ignore (P4.Switch.process d.switch ~in_port:port (frame ~dst:bcast ~src))

let add_ports d =
  ignore (Snvs.add_port d ~name:"p1" ~port:1 ~mode:"access" ~tag:10 ~trunks:[]);
  ignore (Snvs.add_port d ~name:"p2" ~port:2 ~mode:"access" ~tag:10 ~trunks:[]);
  ignore (Snvs.add_port d ~name:"p3" ~port:3 ~mode:"access" ~tag:20 ~trunks:[]);
  ignore
    (Snvs.add_port d ~name:"p4" ~port:4 ~mode:"trunk" ~tag:0 ~trunks:[ 10; 20 ])

(* ---------------- transport primitives ---------------- *)

let test_direct_and_wire () =
  let echo = Transport.direct (fun x -> x * 2) in
  Alcotest.(check bool) "direct send" true (Transport.send echo 21 = Ok 42);
  Alcotest.(check bool) "direct connected" true
    (Transport.status echo = Transport.Connected);
  Alcotest.(check int) "no events" 0 (List.length (Transport.events echo));
  (* a wire link round-trips through strings; a poisoned codec surfaces
     as a transient error, not an exception *)
  let ok =
    Transport.wire ~encode_req:string_of_int
      ~decode_req:(fun s -> Ok (int_of_string s))
      ~encode_resp:string_of_int
      ~decode_resp:(fun s -> Ok (int_of_string s))
      (fun x -> x + 1)
  in
  Alcotest.(check bool) "wire send" true (Transport.send ok 41 = Ok 42);
  let bad =
    Transport.wire ~encode_req:string_of_int
      ~decode_req:(fun s -> Ok (int_of_string s))
      ~encode_resp:string_of_int
      ~decode_resp:(fun _ -> Error "corrupt")
      (fun x -> x + 1)
  in
  match Transport.send bad 1 with
  | Error (Transport.Transient (Transport.Codec msg)) ->
    Alcotest.(check bool) "decoder message kept" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "codec failure should be Transient Codec"

(* The stable error labels double as compact test tags. *)
let tag = function
  | Ok v -> Printf.sprintf "ok:%d" v
  | Error e -> Transport.error_to_string e

let test_faulty_determinism () =
  let run seed =
    let link, _ctl =
      Transport.faulty ~seed (Transport.direct (fun x -> x))
    in
    List.init 200 (fun i -> tag (Transport.send link i))
  in
  Alcotest.(check (list string)) "same seed, same schedule" (run 7) (run 7);
  let faults = List.filter (fun t -> String.sub t 0 3 <> "ok:") (run 7) in
  Alcotest.(check bool) "faults actually fire" true (List.length faults > 0);
  Alcotest.(check bool) "different seeds diverge" true (run 7 <> run 8)

let test_faulty_disconnect_heal () =
  let link, ctl =
    Transport.faulty ~seed:1 ~faults:Transport.no_faults
      (Transport.direct (fun x -> x))
  in
  Alcotest.(check bool) "starts clean" true (Transport.send link 1 = Ok 1);
  Transport.force_disconnect ctl ~down_for:3 ();
  Alcotest.(check bool) "down" true
    (Transport.status link = Transport.Disconnected);
  Alcotest.(check bool) "edge reported" true
    (Transport.events link = [ Transport.Disconnected ]);
  (* every send attempt while down counts toward the reconnect *)
  Alcotest.(check string) "closed 1" "closed/down" (tag (Transport.send link 2));
  Alcotest.(check string) "closed 2" "closed/down" (tag (Transport.send link 3));
  Alcotest.(check string) "closed 3" "closed/down" (tag (Transport.send link 4));
  Alcotest.(check bool) "back up" true (Transport.send link 5 = Ok 5);
  Alcotest.(check bool) "reconnect edge" true
    (Transport.events link = [ Transport.Connected ]);
  (* heal reconnects immediately *)
  Transport.force_disconnect ctl ~down_for:100 ();
  Transport.heal ctl;
  Alcotest.(check bool) "healed" true (Transport.send link 6 = Ok 6)

(* Regression: [heal] used to flip the whole fault schedule off as a
   side effect, so any workload that force-disconnected and healed ran
   fault-free for the rest of its life.  Injection must stay armed
   across a heal; only [set_faults_enabled] silences it. *)
let test_heal_keeps_faults_armed () =
  let faults =
    { Transport.drop = 1.0; duplicate = 0.; delay = 0.; disconnect = 0. }
  in
  let link, ctl =
    Transport.faulty ~seed:3 ~faults (Transport.direct (fun x -> x))
  in
  Alcotest.(check string) "drops before" "transient/injected-drop"
    (tag (Transport.send link 1));
  Transport.force_disconnect ctl ~down_for:50 ();
  Transport.heal ctl;
  Alcotest.(check string) "still drops after heal" "transient/injected-drop"
    (tag (Transport.send link 2));
  Transport.set_faults_enabled ctl false;
  Alcotest.(check bool) "quiet only when asked" true
    (Transport.send link 3 = Ok 3)

(* [send_many] on the in-process flavours degrades to serial sends:
   same results, same handler call order. *)
let test_send_many_order () =
  let seen = ref [] in
  let link =
    Transport.direct (fun x ->
        seen := x :: !seen;
        x + 100)
  in
  (match Transport.send_many link [ 1; 2; 3 ] with
  | [ Ok 101; Ok 102; Ok 103 ] -> ()
  | _ -> Alcotest.fail "send_many results mismatch");
  Alcotest.(check (list int)) "request order preserved" [ 1; 2; 3 ]
    (List.rev !seen);
  Alcotest.(check (list pass)) "empty batch" [] (Transport.send_many link [])

(* ---------------- wire codecs ---------------- *)

let sample_entry =
  {
    P4runtime.table_id = 3;
    matches =
      [ P4runtime.FmExact 5L; P4runtime.FmLpm (0xFF00L, 8);
        P4runtime.FmTernary (7L, 0x0FL); P4runtime.FmOptional (Some 9L);
        P4runtime.FmOptional None ];
    priority = 11;
    action_id = 2;
    action_args = [ 42L; -1L ];
  }

let test_p4_wire_codec () =
  let reqs =
    [ P4runtime.Wire.Write
        [ P4runtime.insert sample_entry; P4runtime.delete sample_entry;
          P4runtime.set_multicast ~group:10L ~ports:[ 1L; 2L ] ];
      P4runtime.Wire.Read_table 3; P4runtime.Wire.Read_groups;
      P4runtime.Wire.Poll_digests; P4runtime.Wire.Ack 7 ]
  in
  List.iter
    (fun r ->
      match P4runtime.Wire.(decode_request (encode_request r)) with
      | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
      | Error e -> Alcotest.failf "request decode failed: %s" e)
    reqs;
  let resps =
    [ P4runtime.Wire.Write_reply (Ok ());
      P4runtime.Wire.Write_reply (Error "duplicate entry");
      P4runtime.Wire.Table [ sample_entry ];
      P4runtime.Wire.Groups [ (10L, [ 1L; 2L ]); (20L, []) ];
      P4runtime.Wire.Digests
        [ { P4runtime.digest_id = 1; list_id = 4; entries = [ [ 1L; 2L ] ] } ];
      P4runtime.Wire.Acked; P4runtime.Wire.Error_reply "boom" ]
  in
  List.iter
    (fun r ->
      match P4runtime.Wire.(decode_response (encode_response r)) with
      | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
      | Error e -> Alcotest.failf "response decode failed: %s" e)
    resps;
  (* malformed input is an Error, not an exception *)
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (P4runtime.Wire.decode_request "not json"));
  Alcotest.(check bool) "unknown op rejected" true
    (Result.is_error (P4runtime.Wire.decode_request "{\"op\":\"nope\"}"))

let test_mgmt_wire_link () =
  let db = Ovsdb.Db.create Snvs.schema in
  let mon =
    Ovsdb.Db.add_monitor db
      (List.map
         (fun (t : Ovsdb.Schema.table) -> (t.tname, None))
         Snvs.schema.tables)
  in
  let link = Nerpa.Links.wire_mgmt db mon in
  ignore
    (Ovsdb.Db.insert_exn db "Port"
       [ ("name", Ovsdb.Datum.string "p1");
         ("port", Ovsdb.Datum.integer 1L);
         ("mode", Ovsdb.Datum.string "access");
         ("tag", Ovsdb.Datum.integer 10L);
         ("trunks", Ovsdb.Datum.set []) ]);
  match Transport.send link Nerpa.Links.Poll_monitor with
  | Ok (Nerpa.Links.Batches batches) ->
    let rows =
      List.concat_map (fun b -> try List.assoc "Port" b with Not_found -> [])
        batches
    in
    Alcotest.(check int) "row survives the wire" 1 (List.length rows);
    let _, upd = List.hd rows in
    let row = Option.get upd.Ovsdb.Db.after in
    Alcotest.(check bool) "column intact" true
      (List.assoc "name" row = Ovsdb.Datum.string "p1");
    (* drained: the next poll is empty *)
    (match Transport.send link Nerpa.Links.Poll_monitor with
    | Ok (Nerpa.Links.Batches []) -> ()
    | _ -> Alcotest.fail "expected empty second poll")
  | Ok (Nerpa.Links.Snapshot _) -> Alcotest.fail "poll answered with snapshot"
  | Ok _ -> Alcotest.fail "unexpected poll response"
  | Error _ -> Alcotest.fail "wire mgmt poll failed"

let test_wire_p4_deployment () =
  (* the full snvs stack over serialized-bytes links behaves exactly
     like the direct one *)
  let wire_msgs0 = Obs.counter_value "transport.wire.msgs" in
  let d = Snvs.deploy ~endpoint:Nerpa.Endpoint.wire () in
  add_ports d;
  sync d;
  feed d ~port:1 (mac "00:00:00:00:00:0a");
  sync d;
  Alcotest.(check int) "dmac learned over the wire" 1
    (P4.Switch.entry_count d.switch "dmac");
  Alcotest.(check bool) "flood group programmed" true
    (P4.Switch.mcast_group d.switch 10L <> None);
  Alcotest.(check bool) "wire messages counted" true
    (Obs.counter_value "transport.wire.msgs" > wire_msgs0)

(* ---------------- digest retransmission (P4Runtime server) --------- *)

let test_digest_retransmission () =
  let d = Snvs.deploy () in
  add_ports d;
  sync d;
  (* our own server on the same switch: the deployment's controller is
     not synced again, so it never consumes these digests *)
  let srv = P4runtime.attach d.switch in
  feed d ~port:1 (mac "00:00:00:00:00:0a");
  let l1 = P4runtime.stream_digests srv in
  Alcotest.(check int) "one list drained" 1 (List.length l1);
  let dl = List.hd l1 in
  (* unacked: the same list is redelivered *)
  let l2 = P4runtime.stream_digests srv in
  Alcotest.(check bool) "redelivered identically" true (l2 = [ dl ]);
  (* a new digest while unacked: old list first, new appended *)
  feed d ~port:2 (mac "00:00:00:00:00:0b");
  let l3 = P4runtime.stream_digests srv in
  Alcotest.(check int) "redelivered + new" 2 (List.length l3);
  Alcotest.(check bool) "oldest first" true (List.hd l3 = dl);
  let dl2 = List.nth l3 1 in
  Alcotest.(check bool) "fresh id" true
    (dl2.P4runtime.list_id > dl.P4runtime.list_id);
  (* ack releases exactly that list *)
  P4runtime.ack_digest_list srv ~list_id:dl.P4runtime.list_id;
  Alcotest.(check bool) "only the unacked one remains" true
    (P4runtime.stream_digests srv = [ dl2 ]);
  (* ack is idempotent *)
  P4runtime.ack_digest_list srv ~list_id:dl.P4runtime.list_id;
  P4runtime.ack_digest_list srv ~list_id:dl2.P4runtime.list_id;
  P4runtime.ack_digest_list srv ~list_id:dl2.P4runtime.list_id;
  Alcotest.(check bool) "queue empty after acks" true
    (P4runtime.stream_digests srv = [])

(* ---------------- the step core ---------------- *)

let learned_rows d =
  Dl.Engine.relation_rows (Nerpa.Controller.engine d.Snvs.controller)
    "LearnedMac"

let learned_mac_digest_id () =
  let info = P4.P4info.of_program Snvs.p4 in
  (Option.get (P4.P4info.find_digest info "learned_mac")).P4.P4info.digest_id

let test_step_dedup_applies_once () =
  let d = Snvs.deploy () in
  add_ports d;
  sync d;
  let did = learned_mac_digest_id () in
  (* learned_mac fields are (port, vlan, mac) *)
  let dl =
    { P4runtime.digest_id = did; list_id = 42; entries = [ [ 1L; 10L; 0xAAL ] ] }
  in
  let dups0 = Obs.counter_value "nerpa.digest.duplicates" in
  let cmds1 =
    Nerpa.Controller.step d.controller
      (Nerpa.Controller.Step.Digest_lists ("snvs0", [ dl ]))
  in
  Alcotest.(check int) "row applied" 1 (List.length (learned_rows d));
  Alcotest.(check bool) "writes + ack commanded" true
    (List.exists
       (function Nerpa.Controller.Step.Write _ -> true | _ -> false)
       cmds1
    && List.mem (Nerpa.Controller.Step.Ack ("snvs0", 42)) cmds1);
  (* the same list redelivered: re-acked, applied exactly once *)
  let cmds2 =
    Nerpa.Controller.step d.controller
      (Nerpa.Controller.Step.Digest_lists ("snvs0", [ dl ]))
  in
  Alcotest.(check bool) "only a re-ack" true
    (cmds2 = [ Nerpa.Controller.Step.Ack ("snvs0", 42) ]);
  Alcotest.(check int) "still one row" 1 (List.length (learned_rows d));
  Alcotest.(check int) "duplicate counted" (dups0 + 1)
    (Obs.counter_value "nerpa.digest.duplicates")

(* A switch that restarts empty gets a fresh P4Runtime server, which
   numbers its digest lists from 0 again.  Once the controller's ack of
   a list is answered, the switch never redelivers it, so a later list
   reusing that id carries new data and must be applied, not dropped as
   a duplicate. *)
let test_acked_list_id_reused () =
  let d = Snvs.deploy () in
  add_ports d;
  sync d;
  (* the switch's first digest list (id 0) is applied and acked *)
  feed d ~port:1 (mac "00:00:00:00:00:0a");
  sync d;
  Alcotest.(check int) "first MAC learned" 1 (List.length (learned_rows d));
  let dups0 = Obs.counter_value "nerpa.digest.duplicates" in
  (* the restarted switch's first list reuses id 0 *)
  let dl =
    {
      P4runtime.digest_id = learned_mac_digest_id ();
      list_id = 0;
      entries = [ [ 2L; 10L; 0xBL ] ];
    }
  in
  let cmds =
    Nerpa.Controller.step d.controller
      (Nerpa.Controller.Step.Digest_lists ("snvs0", [ dl ]))
  in
  Alcotest.(check int) "new MAC learned" 2 (List.length (learned_rows d));
  Alcotest.(check bool) "writes + ack commanded" true
    (List.exists
       (function Nerpa.Controller.Step.Write _ -> true | _ -> false)
       cmds
    && List.mem (Nerpa.Controller.Step.Ack ("snvs0", 0)) cmds);
  Alcotest.(check int) "not counted as a duplicate" dups0
    (Obs.counter_value "nerpa.digest.duplicates")

(* Only an answered ack releases a list id: a list whose ack was never
   sent stays in the dedup set while other lists are acked around it,
   so its redelivery is re-acked, not applied twice. *)
let test_unacked_list_id_deduped () =
  let d = Snvs.deploy () in
  add_ports d;
  sync d;
  let dl =
    {
      P4runtime.digest_id = learned_mac_digest_id ();
      list_id = 7;
      entries = [ [ 1L; 10L; 0xAAL ] ];
    }
  in
  (* applied through the core; the returned ack is never executed *)
  ignore
    (Nerpa.Controller.step d.controller
       (Nerpa.Controller.Step.Digest_lists ("snvs0", [ dl ])));
  (* the switch's own list 0 is applied and acked meanwhile *)
  feed d ~port:2 (mac "00:00:00:00:00:0b");
  sync d;
  Alcotest.(check int) "both MACs learned" 2 (List.length (learned_rows d));
  let dups0 = Obs.counter_value "nerpa.digest.duplicates" in
  let cmds =
    Nerpa.Controller.step d.controller
      (Nerpa.Controller.Step.Digest_lists ("snvs0", [ dl ]))
  in
  Alcotest.(check bool) "only a re-ack" true
    (cmds = [ Nerpa.Controller.Step.Ack ("snvs0", 7) ]);
  Alcotest.(check int) "still two rows" 2 (List.length (learned_rows d));
  Alcotest.(check int) "duplicate counted" (dups0 + 1)
    (Obs.counter_value "nerpa.digest.duplicates")

let test_step_is_transport_free () =
  let d = Snvs.deploy () in
  (* a monitor batch handed straight to the step core commits the
     transaction and *returns* the write batch instead of sending it *)
  let uuid =
    Ovsdb.Db.insert_exn d.db "Port"
      [ ("name", Ovsdb.Datum.string "p1");
        ("port", Ovsdb.Datum.integer 1L);
        ("mode", Ovsdb.Datum.string "access");
        ("tag", Ovsdb.Datum.integer 10L);
        ("trunks", Ovsdb.Datum.set []) ]
  in
  let row = Option.get (Ovsdb.Db.get_row d.db "Port" uuid) in
  let batch =
    [ ("Port", [ (uuid, { Ovsdb.Db.before = None; after = Some row }) ]) ]
  in
  let cmds =
    Nerpa.Controller.step d.controller
      (Nerpa.Controller.Step.Monitor_batch batch)
  in
  let writes =
    List.concat_map
      (function Nerpa.Controller.Step.Write (_, us) -> us | _ -> [])
      cmds
  in
  Alcotest.(check bool) "write batch returned" true (writes <> []);
  Alcotest.(check int) "switch untouched by the core" 0
    (P4.Switch.entry_count d.switch "in_vlan");
  (* executing the returned batch (here: by hand) applies it *)
  let srv = P4runtime.attach d.switch in
  (match P4runtime.write srv writes with
  | Ok () -> ()
  | Error e -> Alcotest.failf "returned batch rejected: %s" e);
  Alcotest.(check bool) "applied by the driver" true
    (P4.Switch.entry_count d.switch "in_vlan" > 0);
  (* switch-up events request reconciliation *)
  let cmds =
    Nerpa.Controller.step d.controller
      (Nerpa.Controller.Step.Switch_up "snvs0")
  in
  Alcotest.(check bool) "reconcile on reconnect" true
    (cmds = [ Nerpa.Controller.Step.Reconcile "snvs0" ])

(* ---------------- per-controller stats ---------------- *)

let test_per_controller_stats () =
  let d1 = Snvs.deploy () in
  add_ports d1;
  sync d1;
  let d2 = Snvs.deploy () in
  let s1 = Nerpa.Controller.stats d1.controller in
  let s2 = Nerpa.Controller.stats d2.controller in
  Alcotest.(check bool) "first controller worked" true
    (s1.Nerpa.Controller.txns > 0 && s1.Nerpa.Controller.entries_written > 0);
  Alcotest.(check int) "second controller idle: txns" 0
    s2.Nerpa.Controller.txns;
  Alcotest.(check int) "second controller idle: entries" 0
    s2.Nerpa.Controller.entries_written;
  (* work on the second does not move the first *)
  ignore
    (Snvs.add_port d2 ~name:"q1" ~port:1 ~mode:"access" ~tag:10 ~trunks:[]);
  sync d2;
  let s1' = Nerpa.Controller.stats d1.controller in
  Alcotest.(check bool) "first unchanged" true (s1 = s1');
  Alcotest.(check bool) "second counted its own" true
    ((Nerpa.Controller.stats d2.controller).Nerpa.Controller.txns > 0);
  (* stats are independent of Obs collection *)
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled true)
    (fun () ->
      Obs.set_enabled false;
      ignore
        (Snvs.add_port d2 ~name:"q2" ~port:2 ~mode:"access" ~tag:10 ~trunks:[]);
      sync d2;
      Alcotest.(check bool) "counts survive disabled collection" true
        ((Nerpa.Controller.stats d2.controller).Nerpa.Controller.entries_written
        > s2.Nerpa.Controller.entries_written))

(* [entries_written] counts every table entry a switch accepted,
   inserts and deletes alike: configuring four ports from empty writes
   exactly the entries the switch then holds, and removing them all
   writes each of those entries once more. *)
let test_entries_written_exact () =
  let d = Snvs.deploy () in
  let tables =
    List.map
      (fun ti -> ti.P4.P4info.table_name)
      (P4.P4info.of_program Snvs.p4).P4.P4info.tables
  in
  let held () =
    List.fold_left (fun n tbl -> n + P4.Switch.entry_count d.switch tbl) 0 tables
  in
  let written () =
    (Nerpa.Controller.stats d.controller).Nerpa.Controller.entries_written
  in
  let held0 = held () in
  add_ports d;
  sync d;
  let peak = held () in
  Alcotest.(check bool) "ports programmed entries" true (peak > held0);
  Alcotest.(check int) "inserts counted" (peak - held0) (written ());
  List.iter (fun name -> Snvs.del_port d ~name) [ "p1"; "p2"; "p3"; "p4" ];
  sync d;
  Alcotest.(check int) "back to the unconfigured switch" held0 (held ());
  Alcotest.(check int) "deletes counted" (2 * (peak - held0)) (written ())

(* ---------------- reconnect reconciliation ---------------- *)

let deploy_faulty ~seed ~faults () =
  let d =
    Snvs.deploy
      ~endpoint:
        (Nerpa.Endpoint.faulty_p4 ~seed ~faults
           (Nerpa.Endpoint.planes ~mgmt:Nerpa.Endpoint.plane_in_process
              ~p4_of:(fun _ -> Nerpa.Endpoint.plane_wire)))
      ()
  in
  (d, Option.get (Nerpa.Controller.p4_ctl d.controller "snvs0"))

let test_reconcile_after_reconnect () =
  let d, ctl = deploy_faulty ~seed:1 ~faults:Transport.no_faults () in
  ignore (Snvs.add_port d ~name:"p1" ~port:1 ~mode:"access" ~tag:10 ~trunks:[]);
  ignore (Snvs.add_port d ~name:"p2" ~port:2 ~mode:"access" ~tag:10 ~trunks:[]);
  sync d;
  Alcotest.(check int) "two ports configured" 2
    (P4.Switch.entry_count d.switch "in_vlan");
  let rec0 = Obs.counter_value "nerpa.reconcile.count" in
  let corr0 = Obs.counter_value "nerpa.reconcile.corrections" in
  (* the switch goes away; a management change lands while it is down *)
  Transport.force_disconnect ctl ~down_for:2 ();
  ignore (Snvs.add_port d ~name:"p3" ~port:3 ~mode:"access" ~tag:20 ~trunks:[]);
  sync d;
  (* the missed write was repaired by reconciliation on reconnect *)
  Alcotest.(check int) "third port present after reconnect" 3
    (P4.Switch.entry_count d.switch "in_vlan");
  Alcotest.(check bool) "reconcile ran" true
    (Obs.counter_value "nerpa.reconcile.count" > rec0);
  Alcotest.(check bool) "corrections written" true
    (Obs.counter_value "nerpa.reconcile.corrections" > corr0)

(* ---------------- fault-injection convergence ---------------- *)

(* Canonical byte dump of a switch's forwarding state: every table's
   entries (sorted) in the wire encoding, plus the multicast groups. *)
let dump_switch (sw : P4.Switch.t) : string =
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
  ^ "\n"
  ^ P4runtime.Wire.encode_response (P4runtime.Wire.Groups groups)

let host_a = mac "00:00:00:00:00:0a"
let host_b = mac "00:00:00:00:00:0b"
let host_c = mac "00:00:00:00:00:0c"

let in_vlan_id =
  lazy
    (let info = P4.P4info.of_program Snvs.p4 in
     let ti =
       List.find
         (fun ti -> ti.P4.P4info.table_name = "in_vlan")
         info.P4.P4info.tables
     in
     ti.P4.P4info.table_id)

let port_ready (d : Snvs.deployment) port =
  let srv = P4runtime.attach d.switch in
  List.exists
    (fun e ->
      match e.P4runtime.matches with
      | P4runtime.FmExact p :: _ -> p = Int64.of_int port
      | _ -> false)
    (P4runtime.read_table srv ~table_id:(Lazy.force in_vlan_id))

(* A frame sent before the port's [in_vlan] entry lands is classified
   on vlan 0 and learned there — state that depends on the fault
   schedule, never on the workload.  Real hosts keep talking until
   admitted; model that by feeding only once the port is programmed
   (each retry runs a sync, which also ticks a downed link toward
   reconnect and reconciliation). *)
let feed_ready (d : Snvs.deployment) ~port src =
  let rec wait n =
    if not (port_ready d port) then begin
      if n = 0 then Alcotest.fail "port never programmed";
      sync d;
      wait (n - 1)
    end
  in
  wait 100;
  feed d ~port src

(* The snvs MAC-learning workload: configuration churn interleaved with
   learning traffic and a MAC moving between ports.  [mid] runs between
   two learning phases — the fault schedules use it to force a
   disconnect while state is in flight. *)
let run_workload ?(mid = fun () -> ()) (d : Snvs.deployment) =
  add_ports d;
  sync d;
  feed_ready d ~port:1 host_a;
  sync d;
  feed_ready d ~port:2 host_b;
  sync d;
  mid ();
  feed_ready d ~port:3 host_c;
  sync d;
  ignore
    (Snvs.add_acl d ~priority:10 ~src:host_a ~src_mask:0xFFFFFFFFFFFFL
       ~dst:host_b ~dst_mask:0xFFFFFFFFFFFFL ~allow:false);
  sync d;
  (* MAC mobility: A moves from port 1 to port 2 *)
  feed_ready d ~port:2 host_a;
  sync d;
  ignore (Snvs.add_mirror d ~name:"m1" ~select_port:1 ~output_port:9);
  sync d

(* End-of-run convergence: silence the fault schedule, heal the links,
   let reconciliation repair the switch, and replay each host's current
   location once (a learning lost to a dropped digest recurs; an
   already-learned MAC is silent).  [heal] itself no longer disables
   injection — a healed link keeps faulting — so quiescence is asked
   for explicitly. *)
let converge (d : Snvs.deployment) (ctls : Transport.ctl list) =
  List.iter (fun ctl -> Transport.set_faults_enabled ctl false) ctls;
  List.iter Transport.heal ctls;
  sync d;
  feed_ready d ~port:2 host_a;
  feed_ready d ~port:2 host_b;
  feed_ready d ~port:3 host_c;
  sync d;
  Nerpa.Controller.reconcile d.controller "snvs0";
  dump_switch d.switch

let test_fault_injection_convergence () =
  (* the reference: the same workload over fault-free links *)
  let baseline =
    let d = Snvs.deploy () in
    run_workload d;
    converge d []
  in
  Alcotest.(check bool) "baseline has state" true
    (String.length baseline > 100);
  let faults =
    { Transport.drop = 0.15; duplicate = 0.12; delay = 0.10; disconnect = 0.05 }
  in
  let rec0 = Obs.counter_value "nerpa.reconcile.count" in
  let drops0 = Obs.counter_value "transport.faults.drops" in
  let disc0 = Obs.counter_value "transport.faults.disconnects" in
  List.iter
    (fun seed ->
      let d, ctl = deploy_faulty ~seed ~faults () in
      (* a mid-run hard disconnect on top of the random schedule *)
      run_workload ~mid:(fun () -> Transport.force_disconnect ctl ~down_for:6 ()) d;
      let dump = converge d [ ctl ] in
      Alcotest.(check string)
        (Printf.sprintf "seed %d converges to the fault-free state" seed)
        baseline dump)
    [ 11; 22; 33; 44; 55; 66; 77 ];
  Alcotest.(check bool) "reconciliation exercised" true
    (Obs.counter_value "nerpa.reconcile.count" > rec0);
  Alcotest.(check bool) "drops injected" true
    (Obs.counter_value "transport.faults.drops" > drops0);
  Alcotest.(check bool) "disconnects injected" true
    (Obs.counter_value "transport.faults.disconnects" > disc0)

(* ---------------- monitor resync ---------------- *)

let test_resync_snapshot () =
  let db = Ovsdb.Db.create Snvs.schema in
  let mon =
    Ovsdb.Db.add_monitor db
      (List.map
         (fun (t : Ovsdb.Schema.table) -> (t.tname, None))
         Snvs.schema.tables)
  in
  let link = Nerpa.Links.wire_mgmt db mon in
  ignore
    (Ovsdb.Db.insert_exn db "Port"
       [ ("name", Ovsdb.Datum.string "p1");
         ("port", Ovsdb.Datum.integer 1L);
         ("mode", Ovsdb.Datum.string "access");
         ("tag", Ovsdb.Datum.integer 10L);
         ("trunks", Ovsdb.Datum.set []) ]);
  match Transport.send link Nerpa.Links.Resync with
  | Ok (Nerpa.Links.Snapshot snap) ->
    Alcotest.(check int) "snapshot carries the row" 1
      (List.length (List.assoc "Port" snap));
    (* the queued batch was subsumed: a poll after resync is empty *)
    (match Transport.send link Nerpa.Links.Poll_monitor with
    | Ok (Nerpa.Links.Batches []) -> ()
    | _ -> Alcotest.fail "monitor should be drained by resync")
  | _ -> Alcotest.fail "resync should answer with a snapshot"

let deploy_faulty_mgmt ~seed ~faults () =
  let d =
    Snvs.deploy
      ~endpoint:
        (Nerpa.Endpoint.faulty_mgmt ~seed ~faults
           (Nerpa.Endpoint.planes ~mgmt:Nerpa.Endpoint.plane_wire
              ~p4_of:(fun _ -> Nerpa.Endpoint.plane_in_process)))
      ()
  in
  (d, Option.get (Nerpa.Controller.mgmt_ctl d.controller))

(* The resync differential: the same workload over a lossy management
   link — dropped and delayed monitor polls (delayed polls drain the
   monitor when replayed: true batch loss) plus a forced mid-stream
   disconnect — must end with switch state byte-identical to the
   fault-free run, and with *every* database row present in the engine:
   the old driver skipped failed polls and silently lost those
   transactions. *)
let test_mgmt_resync_differential () =
  let baseline =
    let d = Snvs.deploy () in
    run_workload d;
    converge d []
  in
  let faults =
    { Transport.drop = 0.15; duplicate = 0.10; delay = 0.15; disconnect = 0.05 }
  in
  let resync0 = Obs.counter_value "nerpa.resync.count" in
  List.iter
    (fun seed ->
      let d, ctl = deploy_faulty_mgmt ~seed ~faults () in
      (* kill the monitor stream mid-run: config landing while the link
         is down queues at the monitor; delayed replays lose it *)
      run_workload
        ~mid:(fun () -> Transport.force_disconnect ctl ~down_for:4 ())
        d;
      Transport.set_faults_enabled ctl false;
      Transport.heal ctl;
      (* a heal delivers still-delayed polls whose responses are
         discarded — loss with no error; nudge the driver exactly as a
         reconnect edge would *)
      Nerpa.Controller.mark_mgmt_dirty d.controller;
      sync d;
      feed_ready d ~port:2 host_a;
      feed_ready d ~port:2 host_b;
      feed_ready d ~port:3 host_c;
      sync d;
      Nerpa.Controller.reconcile d.controller "snvs0";
      Alcotest.(check string)
        (Printf.sprintf "mgmt seed %d converges to the fault-free state" seed)
        baseline (dump_switch d.switch);
      (* no transaction silently dropped: every management-plane row
         reached the engine despite the lost monitor batches *)
      let e = Nerpa.Controller.engine d.controller in
      List.iter
        (fun tbl ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d: all %s rows present" seed tbl)
            (Ovsdb.Db.row_count d.db tbl)
            (List.length (Dl.Engine.relation_rows e tbl)))
        [ "Port"; "Acl"; "Mirror"; "Vlan" ])
    [ 5; 17; 29 ];
  Alcotest.(check bool) "resync exercised" true
    (Obs.counter_value "nerpa.resync.count" > resync0)

(* ---------------- a fleet with one link cut mid-run ---------------- *)

let fleet_size = 16
let victim_name = "sw07"

(* Feed one broadcast frame into [sw] once its ingress port is admitted
   (syncing while we wait, like a host that keeps talking). *)
let fleet_feed controller (sw : P4.Switch.t) ~port src =
  let ready () =
    let srv = P4runtime.attach sw in
    List.exists
      (fun e ->
        match e.P4runtime.matches with
        | P4runtime.FmExact p :: _ -> p = Int64.of_int port
        | _ -> false)
      (P4runtime.read_table srv ~table_id:(Lazy.force in_vlan_id))
  in
  let fuel = ref 100 in
  while (not (ready ())) && !fuel > 0 do
    decr fuel;
    ignore (Nerpa.Controller.sync controller)
  done;
  ignore (P4.Switch.process sw ~in_port:port (frame ~dst:bcast ~src))

(* Run the fleet workload and return every switch's final dump.  With
   [fault], the victim's link is cut after the first round of config
   and stays down for the rest of the run. *)
let run_fleet ~fault () =
  let db = Ovsdb.Db.create Snvs.schema in
  let switches =
    List.init fleet_size (fun i ->
        let name = Printf.sprintf "sw%02d" i in
        (name, P4.Switch.create ~name Snvs.p4))
  in
  let endpoint =
    (* only the victim's P4Runtime link is faulty (wire + injection);
       the rest of the fleet stays on direct links *)
    Nerpa.Endpoint.planes ~mgmt:Nerpa.Endpoint.plane_in_process
      ~p4_of:(fun name ->
        if fault && String.equal name victim_name then
          Nerpa.Endpoint.Faulty
            {
              seed = 11;
              faults = Some Transport.no_faults;
              inner = Nerpa.Endpoint.Wire;
            }
        else Nerpa.Endpoint.In_process)
  in
  let controller =
    Nerpa.Controller.create ~digest_replace:Snvs.digest_replace ~endpoint ~db
      ~p4:Snvs.p4 ~rules:Snvs.rules ~switches ()
  in
  let add_port ~name ~port ~mode ~tag ~trunks =
    ignore
      (Ovsdb.Db.insert_exn db "Port"
         [
           ("name", Ovsdb.Datum.string name);
           ("port", Ovsdb.Datum.integer (Int64.of_int port));
           ("mode", Ovsdb.Datum.string mode);
           ("tag", Ovsdb.Datum.integer (Int64.of_int tag));
           ( "trunks",
             Ovsdb.Datum.set
               (List.map
                  (fun v -> Ovsdb.Atom.Integer (Int64.of_int v))
                  trunks) );
         ])
  in
  add_port ~name:"p1" ~port:1 ~mode:"access" ~tag:10 ~trunks:[];
  add_port ~name:"p2" ~port:2 ~mode:"access" ~tag:10 ~trunks:[];
  add_port ~name:"p3" ~port:3 ~mode:"access" ~tag:20 ~trunks:[];
  add_port ~name:"p4" ~port:4 ~mode:"trunk" ~tag:0 ~trunks:[ 10; 20 ];
  ignore (Nerpa.Controller.sync controller);
  fleet_feed controller (snd (List.nth switches 2)) ~port:1 host_a;
  ignore (Nerpa.Controller.sync controller);
  if fault then
    Transport.force_disconnect
      (Option.get (Nerpa.Controller.p4_ctl controller victim_name))
      ~down_for:1_000_000 ();
  (* Config and digests the victim misses while down. *)
  add_port ~name:"p5" ~port:5 ~mode:"access" ~tag:20 ~trunks:[];
  ignore (Nerpa.Controller.sync controller);
  fleet_feed controller (snd (List.nth switches 4)) ~port:2 host_b;
  ignore (Nerpa.Controller.sync controller);
  List.map (fun (name, sw) -> (name, dump_switch sw)) switches

(* A 16-switch fleet with one link force-disconnected mid-run: the sync
   loop must not stall on the dead link, and the other 15 switches must
   end byte-identical to a fault-free run. *)
let test_fleet_fault () =
  let baseline = run_fleet ~fault:false () in
  let dumps = run_fleet ~fault:true () in
  List.iter2
    (fun (name, want) (name', got) ->
      Alcotest.(check string) "fleet order" name name';
      if not (String.equal name victim_name) then
        if not (String.equal want got) then
          Alcotest.failf "switch %s diverged from the fault-free baseline" name)
    baseline dumps;
  (* The cut must actually have bitten: the victim missed the updates
     that landed while its link was down. *)
  Alcotest.(check bool)
    "victim state differs from fault-free run" false
    (String.equal (List.assoc victim_name baseline)
       (List.assoc victim_name dumps))

let tests =
  [
    Alcotest.test_case "direct and wire links" `Quick test_direct_and_wire;
    Alcotest.test_case "faulty determinism" `Quick test_faulty_determinism;
    Alcotest.test_case "faulty disconnect and heal" `Quick
      test_faulty_disconnect_heal;
    Alcotest.test_case "heal keeps faults armed" `Quick
      test_heal_keeps_faults_armed;
    Alcotest.test_case "send_many order and results" `Quick
      test_send_many_order;
    Alcotest.test_case "p4runtime wire codec" `Quick test_p4_wire_codec;
    Alcotest.test_case "mgmt wire link" `Quick test_mgmt_wire_link;
    Alcotest.test_case "snvs over wire links" `Quick test_wire_p4_deployment;
    Alcotest.test_case "digest retransmission" `Quick
      test_digest_retransmission;
    Alcotest.test_case "digest dedup applies once" `Quick
      test_step_dedup_applies_once;
    Alcotest.test_case "acked digest list id reused after restart" `Quick
      test_acked_list_id_reused;
    Alcotest.test_case "unacked digest list id stays deduplicated" `Quick
      test_unacked_list_id_deduped;
    Alcotest.test_case "step core is transport-free" `Quick
      test_step_is_transport_free;
    Alcotest.test_case "per-controller stats" `Quick test_per_controller_stats;
    Alcotest.test_case "entries_written counts inserts and deletes" `Quick
      test_entries_written_exact;
    Alcotest.test_case "reconcile after reconnect" `Quick
      test_reconcile_after_reconnect;
    Alcotest.test_case "fault-injection convergence" `Quick
      test_fault_injection_convergence;
    Alcotest.test_case "resync snapshot subsumes the monitor" `Quick
      test_resync_snapshot;
    Alcotest.test_case "mgmt resync differential" `Quick
      test_mgmt_resync_differential;
    Alcotest.test_case "16-switch fleet, one link cut mid-run" `Quick
      test_fleet_fault;
  ]
