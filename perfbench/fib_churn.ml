(* fib_churn: L3router in one process, two switches with a flow
   programmer each, a 10^4-route FIB over 128 next hops.  It loads the
   management plane hard (one OVSDB transaction per route, [where]
   scans on withdraw), patches Ofp4 diagrams on every change and runs
   the LPM matcher; it bypasses digests, Xrel and Transport. *)

open Meter

let n_routes = 10_000
let n_nexthops = 128
let n_hosts = 64
let switch_names = [ "r0"; "r1" ]
let setup_reps = 3
let recover_events = 20
let remap_events = 24

let nh_ip k = Int64.of_int (0xAC100000 + k)
let host_ip h = Int64.of_int (0xAC110000 + h)
let host_mac h = Int64.of_int (0x026600000000 + h)
let port_of k = 1 + (k mod 16)

(* ---------------- the seeded FIB and its model ---------------- *)

type model = {
  base : (int64 * int) array;  (* the flapped routes: (prefix, plen) *)
  nh_of : (int64 * int, int64) Hashtbl.t;  (* every route -> next hop *)
  neigh : (int64, int64 * int) Hashtbl.t;  (* resolved next hops *)
}

let mask plen =
  if plen = 0 then 0L
  else Int64.logand 0xFFFFFFFFL (Int64.shift_left 0xFFFFFFFFL (32 - plen))

(* Prefix lengths in per mille, after the shape of the global IPv4 BGP
   table in the public prefix-length reports (the CIDR Report, and
   G. Huston's yearly "BGP in <year>" reports): /24 is the bulk, /22 and
   /23 come next, and nothing is longer than /24.  The shares are
   rounded and were not re-checked against the reports' data, so they
   are an assumption, not a measured FIB.  The few routes shorter than
   /16 are counted as /24. *)
let plen_mix =
  [ (16, 14); (17, 7); (18, 10); (19, 25); (20, 40); (21, 50); (22, 125); (23, 95); (24, 634) ]

let pick_plen r =
  let rec go x = function
    | [ (plen, _) ] -> plen
    | (plen, w) :: rest -> if x < w then plen else go (x - w) rest
    | [] -> assert false
  in
  go (Random.State.int r 1000) plen_mix

(* Routes lie in 10.0.0.0/8 and each picks its next hop uniformly;
   both are assumptions too. *)
let gen_model seed : model =
  let r = rng seed 1 in
  let nh_of = Hashtbl.create (2 * n_routes) in
  let base = ref [] in
  while Hashtbl.length nh_of < n_routes do
    let plen = pick_plen r in
    let addr = Int64.of_int (0x0A000000 lor Random.State.int r 0xFFFFFF) in
    let key = (Int64.logand addr (mask plen), plen) in
    if not (Hashtbl.mem nh_of key) then begin
      Hashtbl.replace nh_of key (nh_ip (1 + Random.State.int r n_nexthops));
      base := key :: !base
    end
  done;
  for h = 1 to n_hosts do
    Hashtbl.replace nh_of (host_ip h, 32) (host_ip h)
  done;
  let neigh = Hashtbl.create 256 in
  for k = 1 to n_nexthops do
    Hashtbl.replace neigh (nh_ip k)
      (Int64.of_int (0x020000000000 + (k lsl 8)), port_of k)
  done;
  { base = Array.of_list (List.rev !base); nh_of; neigh }

(* The model's forwarding decision: the longest resolved prefix. *)
let lpm (m : model) (dst : int64) : (int64 * int) option =
  let rec go plen =
    if plen < 0 then None
    else
      match Hashtbl.find_opt m.nh_of (Int64.logand dst (mask plen), plen) with
      | Some nh when Hashtbl.mem m.neigh nh -> Some (Hashtbl.find m.neigh nh)
      | _ -> go (plen - 1)
  in
  go 32

(* ---------------- the deployment ---------------- *)

type dep = {
  d : L3router.deployment;
  (* flow deltas pushed since the last fold, per switch *)
  pending : (string, Ofp4.Openflow.flow_delta list) Hashtbl.t;
  (* the push-fed pipeline: a multiset of flow lines per switch *)
  mirror : (string, (string, int) Hashtbl.t) Hashtbl.t;
}

let bump tbl k n =
  let v = n + Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  if v = 0 then Hashtbl.remove tbl k else Hashtbl.replace tbl k v

let fold_pending (dp : dep) =
  Hashtbl.iter
    (fun name ds ->
      let mir = Hashtbl.find dp.mirror name in
      List.iter
        (fun (fd : Ofp4.Openflow.flow_delta) ->
          let s = Ofp4.Openflow.flow_to_string in
          List.iter (fun f -> bump mir (s f) (-1)) fd.fd_del;
          List.iter (fun (o, n) -> bump mir (s o) (-1); bump mir (s n) 1) fd.fd_mod;
          List.iter (fun f -> bump mir (s f) 1) fd.fd_add)
        (List.rev ds))
    dp.pending;
  Hashtbl.reset dp.pending;
  List.iter (fun n -> Hashtbl.replace dp.pending n []) switch_names

let attach (dp : dep) =
  List.iter
    (fun name ->
      Hashtbl.replace dp.pending name [];
      span "ofp4.attach" (fun () ->
          Nerpa.Controller.attach_flow_programmer dp.d.controller name
            (L3router.switch dp.d name) ~push:(fun fd ->
              Hashtbl.replace dp.pending name (fd :: Hashtbl.find dp.pending name)));
      let mir = Hashtbl.create 4096 in
      (match Nerpa.Controller.flow_pipeline dp.d.controller name with
      | Some p ->
        List.iter
          (fun f -> bump mir (Ofp4.Openflow.flow_to_string f) 1)
          p.Ofp4.Openflow.flows
      | None -> ());
      Hashtbl.replace dp.mirror name mir)
    switch_names

let sync r (dp : dep) =
  attempt r "sync" (fun () ->
      span "nerpa.sync" (fun () -> Nerpa.Controller.sync dp.d.controller))
  |> Option.is_some

let txn r what f = attempt r what (fun () -> span "ovsdb.transact" f) |> Option.is_some

(* Cold start: empty controller and switches, one OVSDB transaction per
   neighbor and per route (the way [L3router.add_route] loads), one
   sync, then a flow programmer on each switch. *)
let setup r (m : model) : dep =
  let d = L3router.deploy ~switch_names () in
  let dp = { d; pending = Hashtbl.create 2; mirror = Hashtbl.create 2 } in
  span "ovsdb.load" (fun () ->
      Hashtbl.iter
        (fun ip (mac, port) ->
          ignore
            (txn r "add_neighbor" (fun () -> L3router.add_neighbor d ~ip ~mac ~port)))
        m.neigh;
      Hashtbl.iter
        (fun (prefix, plen) nexthop ->
          ignore
            (txn r "add_route" (fun () -> L3router.add_route d ~prefix ~plen ~nexthop)))
        m.nh_of);
  ignore (sync r dp);
  attach dp;
  dp

let restart r (dp : dep) : dep =
  let switches =
    List.map (fun n -> (n, P4.Switch.create ~name:n L3router.p4)) switch_names
  in
  let controller =
    span "cluster.restart" (fun () ->
        Nerpa.Controller.create ~db:dp.d.db ~p4:L3router.p4 ~rules:L3router.rules
          ~switches ())
  in
  let dp' =
    { d = { dp.d with switches; controller };
      pending = Hashtbl.create 2; mirror = Hashtbl.create 2 }
  in
  ignore (span "cluster.resync" (fun () -> sync r dp'));
  attach dp';
  dp'

let set_neighbor r (dp : dep) ~ip ~mac ~port =
  txn r "update_neighbor" (fun () ->
      match
        Ovsdb.Db.transact dp.d.db
          [ Ovsdb.Db.Update
              { table = "Neighbor";
                where = [ Ovsdb.Db.eq "ip" (Ovsdb.Datum.integer ip) ];
                row =
                  [ ("mac", Ovsdb.Datum.integer mac);
                    ("port", Ovsdb.Datum.integer (Int64.of_int port)) ] } ]
      with
      | Ok _ -> ()
      | Error e -> failwith e)

(* ---------------- packets ---------------- *)

let frame ~dst =
  let p =
    P4.Stdhdrs.udp_packet ~eth_dst:0x0200000000aaL ~eth_src:0x0200000000bbL
      ~ip_src:0x0A000001L ~ip_dst:dst ~src_port:7L ~dst_port:53L
      ~payload:(String.make 18 'p')
  in
  (* TTL 64: the header leaves it 0, which ttl_check drops *)
  P4.Packet.set_bits p ~bit_offset:((14 * 8) + 64) ~width:8 64L;
  p

let unicast_frames (m : model) seed n =
  let r = rng seed 7 in
  let resolved =
    Array.of_list
      (Hashtbl.fold
         (fun (p, l) nh acc -> if Hashtbl.mem m.neigh nh then (p, l) :: acc else acc)
         m.nh_of [])
  in
  Array.sort compare resolved;
  Array.init n (fun _ ->
      let p, l = resolved.(Random.State.int r (Array.length resolved)) in
      let host = Int64.logand (Int64.of_int (Random.State.bits r)) (Int64.lognot (mask l)) in
      let dst = Int64.logor p (Int64.logand host 0xFFFFFFFFL) in
      (dst, frame ~dst))

(* Frames no route covers: the router's only non-unicast path, the LPM
   miss to the default drop. *)
let miss_frames seed n =
  let r = rng seed 8 in
  Array.init n (fun _ ->
      let dst = Int64.of_int (0xC0000200 lor Random.State.int r 256) in
      (dst, frame ~dst))

let dmac_of (p : P4.Packet.t) = P4.Packet.get_bits p ~bit_offset:0 ~width:48

(* ---------------- the workload ---------------- *)

(* Each switch's push-fed pipeline, and the programmer's own, equal a
   from-scratch compile of the switch. *)
let check_pipelines r (dp : dep) =
  fold_pending dp;
  let lines d = List.sort compare (String.split_on_char '\n' d) in
  List.iter
    (fun name ->
      let scratch = lines (Ofp4.Openflow.dump (Ofp4.Compile.compile (L3router.switch dp.d name))) in
      let mirror =
        Hashtbl.fold (fun l n acc -> List.init n (fun _ -> l) @ acc) (Hashtbl.find dp.mirror name) []
      in
      check r (name ^ ": push-fed pipeline = from-scratch compile") (List.sort compare mirror = scratch);
      check r (name ^ ": programmer pipeline = from-scratch compile")
        (match Nerpa.Controller.flow_pipeline dp.d.controller name with
        | Some p -> lines (Ofp4.Openflow.dump p) = scratch
        | None -> false))
    switch_names

let run (r : run) =
  let m = gen_model r.seed in
  Obs.set_enabled r.trace;
  let dp =
    cold_starts r ~reps:setup_reps (fun i ->
        let x = setup r m in
        if i = 1 then begin
          set r "dl.index_builds" "count" (float_of_int (counter "dl.store.index_builds"));
          set r "ovsdb.load_s" "s" (Samples.sum (Trace.samples "ovsdb.load") /. 1e6);
          set r "ofp4.attach_s" "s" (Samples.sum (Trace.samples "ofp4.attach") /. 1e6)
        end;
        x)
  in
  let dp = ref dp in
  Obs.reset ();
  let r0 () = L3router.switch !dp.d "r0" in
  (* a replica fed the same entry deltas, for ofp4.patch_us *)
  let replica =
    if not r.trace then None
    else begin
      let sw = P4.Switch.create ~name:"replica" L3router.p4 in
      List.iter (P4.Switch.insert_entry sw "routes") (P4.Switch.table_entries (r0 ()) "routes");
      Some (Ofp4.Compile.State.create sw)
    end
  in
  let patch delta =
    Option.iter
      (fun st ->
        ignore (span "ofp4.apply_delta" (fun () -> Ofp4.Compile.State.apply_delta st [ ("routes", delta) ])))
      replica
  in
  let entry_of (prefix, plen) =
    P4.Switch.find_same_match (r0 ()) "routes"
      { P4.Entry.matches = [ P4.Entry.MLpm (prefix, plen) ]; priority = 0; action = "route_to"; args = [] }
  in
  (* change: one route flap, withdraw and re-announce, each synced *)
  let rc = rng r.seed 2 in
  let change, change_done =
    Layers.change_slice r ~budget:(0.25 *. r.seconds) ~min:1000 ~max:max_int ~warmup:50 (fun _ ->
        let prefix, plen = m.base.(Random.State.int rc (Array.length m.base)) in
        let nexthop = Hashtbl.find m.nh_of (prefix, plen) in
        let old = if !Trace.on then entry_of (prefix, plen) else None in
        let t0 = now () in
        let ok =
          txn r "del_route" (fun () -> L3router.del_route !dp.d ~prefix ~plen)
          && sync r !dp
          && txn r "add_route" (fun () -> L3router.add_route !dp.d ~prefix ~plen ~nexthop)
          && sync r !dp
        in
        let us = us_since t0 in
        Option.iter (fun e -> patch [ (e, -1) ]; patch [ (e, 1) ]) old;
        fold_pending !dp;
        if ok then Some us else None)
  in
  (* learn: a next hop's neighbor entry is learned (ARP), resolving its
     /32 host route on both switches, and aged out again, each synced.
     Timed as one sample, so no percentile sits between the modes of
     learns and age-outs. *)
  let learn =
    slice "learn" ~budget:(0.15 *. r.seconds) ~min:1000 ~warmup:20 (fun i ->
        let h = 1 + (i mod n_hosts) in
        let ip = host_ip h and mac = host_mac h and port = port_of h in
        Trace.new_change ();
        let t0 = now () in
        let ok =
          txn r "add_neighbor" (fun () -> L3router.add_neighbor !dp.d ~ip ~mac ~port)
          && sync r !dp
          && txn r "del_neighbor" (fun () -> L3router.del_neighbor !dp.d ~ip)
          && sync r !dp
        in
        let us = us_since t0 in
        fold_pending !dp;
        if ok then Some us else None)
  in
  (* remap: one next hop moves (new MAC and port), rewriting every route
     through it *)
  let rm = rng r.seed 3 in
  let remap =
    slice "remap" ~budget:0. ~min:remap_events ~max:remap_events ~warmup:1 (fun _ ->
        let k = 1 + Random.State.int rm n_nexthops in
        let ip = nh_ip k in
        let mac0, port0 = Hashtbl.find m.neigh ip in
        let mac = Int64.add mac0 1L and port = 1 + (port0 mod 16) in
        let routes = Hashtbl.fold (fun key nh acc -> if nh = ip then key :: acc else acc) m.nh_of [] in
        let olds = if r.trace then List.filter_map entry_of routes else [] in
        Trace.new_change ();
        let t0 = now () in
        let ok = set_neighbor r !dp ~ip ~mac ~port && sync r !dp in
        let ms = us_since t0 /. 1e3 in
        Hashtbl.replace m.neigh ip (mac, port);
        if r.trace then
          patch (List.map (fun e -> (e, -1)) olds @ List.map (fun e -> (e, 1)) (List.filter_map entry_of routes));
        fold_pending !dp;
        if ok then Some ms else None)
  in
  (* packets on the converged r0: routed unicast, and frames the FIB
     misses *)
  let uni = unicast_frames m r.seed 4096 and miss = miss_frames r.seed 4096 in
  let on_port1 frames () = Array.map (fun (_, f) -> (1, f)) frames in
  let fwd, fwd_out = Pkts.slice "fwd" (r0 ()) (on_port1 uni) ~budget:(0.12 *. r.seconds) in
  let flood, _ = Pkts.slice "flood" (r0 ()) (on_port1 miss) ~budget:(0.08 *. r.seconds) in
  interleave r ~after_warmup:(fun () -> record_heap r) [ change; learn; remap; fwd; flood ];
  change_done ();
  set r "learn_p50_us" "us" (Samples.pct learn.samples 0.5);
  set r "learn_p90_us" "us" (Samples.pct learn.samples 0.9);
  set r "remap_p50_ms" "ms" (Samples.median remap.samples);
  set r "fwd_pps" "1/s" (Samples.median fwd.samples);
  set r "flood_pps" "1/s" (Samples.median flood.samples);
  set r "p4.pkt_ns" "ns" (1e9 /. Samples.median fwd.samples);
  set r "p4.out_per_in" "1" (fwd_out ());
  check_pipelines r !dp;
  (* recover: the router restarts (controller and switches empty, the
     OVSDB server intact) and reconverges with its flow pipelines.
     After every writing phase: a restarted controller leaves its
     predecessor's monitor on the database, which then queues every
     later transaction. *)
  let recover =
    slice "recover" ~budget:0. ~min:recover_events ~max:recover_events (fun _ ->
        Gc.compact ();
        let t0 = now () in
        let dp' = restart r !dp in
        let ms = us_since t0 /. 1e3 in
        dp := dp';
        Some ms)
  in
  interleave r [ recover ];
  set r "recover_ms" "ms" (Samples.median recover.samples);
  set r "cluster.restart_ms" "ms" (Samples.median (Trace.samples "cluster.restart") /. 1e3);
  set r "cluster.resync_ms" "ms" (Samples.median (Trace.samples "cluster.resync") /. 1e3);
  set r "nerpa.retries" "count" (float_of_int (counter "nerpa.retry.count"));
  set r "nerpa.reconciles" "count" (float_of_int (counter "nerpa.reconcile.count"));
  check_pipelines r !dp;
  (* sampled packets leave on the FIB's LPM next hop with its MAC *)
  Array.iteri
    (fun i (dst, p) ->
      if i mod 4 = 0 then begin
        let got = List.map (fun (port, q) -> (port, dmac_of q)) (P4.Switch.process (r0 ()) ~in_port:1 p) in
        let want = match lpm m dst with Some (mac, port) -> [ (port, mac) ] | None -> [] in
        check r (Printf.sprintf "LPM next hop of %Lx" dst) (got = want)
      end)
    (Array.append (Array.sub uni 0 1024) (Array.sub miss 0 64))
