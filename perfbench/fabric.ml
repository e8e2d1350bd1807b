(* fabric_3shard: Snvs on an in-process 3-shard cluster, 24 switches
   and 1024 ports over 16 VLANs with trunks.  Management churn, MAC
   learning and mobility, trunk remaps and rotating shard restarts: Dl
   fan-out across switches, the digest loop, the Xrel exchange and bulk
   resync.  It bypasses Transport and Ofp4. *)

open Meter

let n_switches = 24
let nshards = 3
let n_ports = 1024
let n_hosts = 512
let n_fixed = 64
(* unrecorded changes and host moves before the first timed step; the
   heap is read after them *)
let warmup_ops = 500
let setup_reps = 5
let remap_events = 60
let recover_events = 24

let switch_names = List.init n_switches (Printf.sprintf "f%02d")
let ports = Netgen.ports ~vlans:16 ~trunk_every:32 ~n:n_ports ()
let trunks = List.filter (fun (p : Netgen.port_plan) -> p.pp_mode = "trunk") ports

let sync_all r cl =
  attempt r "sync_all" (fun () -> span "nerpa.sync" (fun () -> Nerpa.Cluster.sync_all cl))
  |> Option.is_some

let transact r f = attempt r "transact" (fun () -> span "ovsdb.transact" f) |> Option.is_some

let frame r cl log (op : Snvs_ops.op) =
  log := op :: !log;
  match op with
  | Frame { sw; _ } ->
    attempt r "frame" (fun () ->
        span "p4.process" (fun () -> Snvs_ops.inject (Nerpa.Cluster.switch cl sw) op))
    |> Option.is_some
  | _ -> false

(* Cold start: the base config loaded into the management database one
   transaction per port, then an empty 3-shard fleet converging on it. *)
let setup r =
  let db = Ovsdb.Db.create Snvs.schema in
  span "ovsdb.load" (fun () ->
      List.iter (fun p -> ignore (transact r (fun () -> Snvs_ops.insert_port db p))) ports);
  let cl =
    Nerpa.Cluster.create_local ~digest_replace:Snvs.digest_replace ~nshards ~db
      ~p4:Snvs.p4 ~rules:Snvs.rules ~switch_names ()
  in
  ignore (sync_all r cl);
  (db, cl)

let run (r : run) =
  Obs.set_enabled r.trace;
  let db, cl =
    cold_starts r ~reps:setup_reps (fun i ->
        let x = setup r in
        if i = 1 then begin
          set r "dl.index_builds" "count" (float_of_int (counter "dl.store.index_builds"));
          set r "ovsdb.load_s" "s" (Samples.sum (Trace.samples "ovsdb.load") /. 1e6)
        end;
        x)
  in
  Obs.reset ();
  let log = ref [] in
  (* change: one Netgen config change, committed and synced fleet-wide *)
  let change, change_done =
    Layers.change_slice r ~budget:(0.4 *. r.seconds) ~min:1000 ~max:(Snvs_ops.max_changes - warmup_ops)
      ~warmup:warmup_ops (fun i ->
        let c = Snvs_ops.change ~base:n_ports ~seed:r.seed i in
        let t0 = now () in
        Snvs_ops.log_change log i;
        let ok = transact r (fun () -> Snvs_ops.apply_change db c) && sync_all r cl in
        if ok then Some (us_since t0) else None)
  in
  (* learn: a host's frame enters a switch at a new port, and its dmac
     entry reaches every switch of every shard.  The warm-up learns
     every host once; the samples are moves. *)
  let hosts = Snvs_ops.make_hosts ports ~movers:n_hosts (n_hosts + n_fixed) in
  let names = Array.of_list switch_names in
  let rl = rng r.seed 2 in
  let learn =
    slice "learn" ~budget:(0.25 *. r.seconds) ~min:1000 ~warmup:(n_hosts + n_fixed + warmup_ops) (fun i ->
        let h = if i < n_hosts + n_fixed then i else Random.State.int rl n_hosts in
        let op = Snvs_ops.move rl hosts names h in
        Trace.new_change ();
        let t0 = now () in
        let ok = frame r cl log op && sync_all r cl in
        if ok then Some (us_since t0) else None)
  in
  (* remap: a trunk drops half its VLANs and gets them back, each
     synced: every VLAN entry and flood group through it, on every
     switch, twice.  Timed as one event, so the median sits in one mode. *)
  let trunk_arr = Array.of_list trunks in
  let set_trunks name vlans =
    log := Snvs_ops.Trunks { name; vlans } :: !log;
    transact r (fun () -> Snvs_ops.set_trunks db name vlans) && sync_all r cl
  in
  let remap =
    slice "remap" ~budget:0. ~min:remap_events ~max:remap_events ~warmup:1 (fun i ->
        let t = trunk_arr.(i mod Array.length trunk_arr) in
        let half = List.filteri (fun j _ -> j mod 2 = 0) t.pp_trunks in
        Trace.new_change ();
        let t0 = now () in
        let ok =
          set_trunks t.pp_name half && set_trunks t.pp_name t.pp_trunks
        in
        if ok then Some (us_since t0 /. 1e3) else None)
  in
  (* packets on one converged switch, once the hosts are learned *)
  let sw = Nerpa.Cluster.switch cl "f00" in
  let rp = rng r.seed 3 in
  let uni = lazy (Snvs_ops.unicast_jobs rp hosts 4096) in
  let fwd, _ =
    Pkts.slice "fwd" sw (fun () -> Array.map (fun (p, f, _) -> (p, f)) (Lazy.force uni)) ~budget:(0.1 *. r.seconds)
  in
  let flood, flood_out = Pkts.slice "flood" sw (fun () -> Snvs_ops.flood_jobs rp hosts 4096) ~budget:(0.1 *. r.seconds) in
  interleave r ~after_warmup:(fun () -> record_heap r) [ learn; change; remap; fwd; flood ];
  change_done ();
  set r "learn_p50_us" "us" (Samples.pct learn.samples 0.5);
  set r "learn_p90_us" "us" (Samples.pct learn.samples 0.9);
  set r "xrel.rows_applied_per_learn" "count"
    (per (float_of_int (counter "nerpa.exchange.rows_applied")) (Samples.count learn.samples + n_hosts + n_fixed + warmup_ops));
  set r "remap_p50_ms" "ms" (Samples.median remap.samples);
  set r "fwd_pps" "1/s" (Samples.median fwd.samples);
  set r "flood_pps" "1/s" (Samples.median flood.samples);
  set r "p4.pkt_ns" "ns" (1e9 /. Samples.median fwd.samples);
  set r "p4.out_per_in" "1" (flood_out ());
  Array.iteri
    (fun i (in_port, f, want) ->
      if i < 256 then
        check r "known unicast leaves on the destination's port"
          (List.mem want (List.map fst (P4.Switch.process sw ~in_port f))))
    (Lazy.force uni);
  (* recover: rotating shard kill, restart, the fleet reconverged.
     After every writing phase: a restarted controller leaves its
     predecessor's monitor on the database, which then queues every
     later transaction. *)
  let xres0 = counter "nerpa.exchange.resyncs" in
  let recover =
    slice "recover" ~budget:0. ~min:recover_events ~max:recover_events (fun i ->
        let k = i mod nshards in
        Gc.compact ();
        let t0 = now () in
        Nerpa.Cluster.kill cl k;
        span "cluster.restart" (fun () -> Nerpa.Cluster.restart cl k);
        let ok = span "cluster.resync" (fun () -> sync_all r cl) in
        if ok then Some (us_since t0 /. 1e3) else None)
  in
  interleave r [ recover ];
  set r "recover_ms" "ms" (Samples.median recover.samples);
  set r "cluster.restart_ms" "ms" (Samples.median (Trace.samples "cluster.restart") /. 1e3);
  set r "cluster.resync_ms" "ms" (Samples.median (Trace.samples "cluster.resync") /. 1e3);
  set r "xrel.resyncs_per_recover" "count"
    (per (float_of_int (counter "nerpa.exchange.resyncs" - xres0)) recover_events);
  set r "nerpa.retries" "count" (float_of_int (counter "nerpa.retry.count"));
  set r "nerpa.reconciles" "count" (float_of_int (counter "nerpa.reconcile.count"));
  (* output check: the restarted shards' switches re-learn every host at
     its last place; then every switch equals a one-controller replay *)
  Array.iteri
    (fun h loc ->
      match loc with
      | Some (sw, port) ->
        ignore (frame r cl log (Frame { sw; port; mac = Snvs_ops.host_mac h }));
        ignore (sync_all r cl)
      | None -> ())
    hosts.loc;
  let want = Snvs_ops.replay ~switch_names ~ports ~seed:r.seed (List.rev !log) in
  List.iter
    (fun (name, dump) ->
      let ctl = Nerpa.Cluster.controller cl (Nerpa.Cluster.owner cl name) in
      check r (name ^ " equals the one-controller replay")
        (String.equal dump (Nerpa.Controller.dump_switch ctl name)))
    want
