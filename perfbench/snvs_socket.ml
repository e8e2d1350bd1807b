(* snvs_socket: Snvs with one switch whose database and switch live in
   a forked daemon ([lib/server]); the controller reaches both over
   Unix-domain sockets with the binary codec (two connections).  The
   config is small (128 ports), so per-message cost dominates: the
   Transport / Server / Binc / pipelining path, with little Dl work.
   It bypasses Ofp4 and Xrel.

   The benchmark commands the daemon over a pipe, one line per
   command, and waits for its one-line answer: every config change,
   frame and restart starts in the daemon, as it would at a real
   management or data plane. *)

open Meter

let n_ports = 128
let n_hosts = 128
let n_fixed = 32
(* unrecorded changes and host moves before the first timed step; the
   heap is read after them *)
let warmup_ops = 500
let setup_reps = 9
let remap_events = 100
let recover_events = 60
let switch_name = "snvs0"

let ports = Netgen.ports ~vlans:16 ~trunk_every:16 ~n:n_ports ()
let trunks = List.filter (fun (p : Netgen.port_plan) -> p.pp_mode = "trunk") ports

(* ---------------- the daemon (child process) ---------------- *)

let daemon ~seed ~dir (cmd : in_channel) (reply : out_channel) =
  let db = Ovsdb.Db.create Snvs.schema in
  let sw = P4.Switch.create ~name:switch_name Snvs.p4 in
  let srv = Server.create ~db ~switches:[ (switch_name, sw) ] ~dir () in
  Server.start srv;
  let answer s = output_string reply (s ^ "\n"); flush reply in
  let timed f =
    let t0 = now () in
    Server.with_lock srv f;
    Printf.sprintf "ok %.0f" (ns_since t0)
  in
  let pkts = Hashtbl.create 2 in
  let rec loop () =
    match String.split_on_char ' ' (input_line cmd) with
    | [ "quit" ] -> Server.stop srv
    | words ->
      (try
         answer
           (match words with
           | [ "ping" ] -> "ok"
           | [ "load" ] -> timed (fun () -> List.iter (Snvs_ops.insert_port db) ports)
           | [ "chg"; i ] ->
             let c = Snvs_ops.change ~base:n_ports ~seed (int_of_string i) in
             timed (fun () -> Snvs_ops.apply_change db c)
           | [ "trunks"; name; vs ] ->
             let vlans = List.map int_of_string (String.split_on_char ',' vs) in
             timed (fun () -> Snvs_ops.set_trunks db name vlans)
           | [ "frame"; port; mac ] ->
             timed (fun () ->
                 Snvs_ops.inject sw
                   (Snvs_ops.Frame { sw = switch_name; port = int_of_string port; mac = Int64.of_string mac }))
           | [ "restart" ] ->
             (* every connection drops and the daemon listens anew,
                its database and switch intact *)
             Server.stop srv;
             Server.start srv;
             "ok"
           | "jobs" :: name :: jobs ->
             let jobs =
               List.map
                 (fun j ->
                   match String.split_on_char ',' j with
                   | [ p; s; d ] ->
                     (int_of_string p, Snvs_ops.frame ~src:(Int64.of_string s) ~dst:(Int64.of_string d))
                   | _ -> failwith "bad job")
                 jobs
             in
             Hashtbl.replace pkts name (Pkts.create (Array.of_list jobs));
             "ok"
           | [ "chunk"; name ] ->
             let t = Hashtbl.find pkts name in
             let pps = Server.with_lock srv (fun () -> Pkts.chunk t sw) in
             Printf.sprintf "ok %.17g %.17g" pps (Pkts.out_per_in t)
           | [ "conns" ] -> Printf.sprintf "ok %d" (Server.live_conns srv)
           | [ "ctr"; name ] -> Printf.sprintf "ok %d" (Obs.counter_value name)
           | _ -> "err unknown command")
       with e -> answer ("err " ^ Printexc.to_string e));
      loop ()
  in
  loop ()

(* ---------------- the parent's handle ---------------- *)

type daemon = { pid : int; cmd : out_channel; reply : in_channel }

let live : daemon list ref = ref []

let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try output_string d.cmd "quit\n"; flush d.cmd with Sys_error _ -> ());
    ignore (Unix.waitpid [] d.pid);
    close_out_noerr d.cmd;
    close_in_noerr d.reply
  end

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid))
        !live)

let spawn ~seed ~dir ~trace : daemon =
  let c_in, c_out = Unix.pipe ~cloexec:true () in
  let r_in, r_out = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close c_out;
    Unix.close r_in;
    Obs.set_enabled trace;
    (try daemon ~seed ~dir (Unix.in_channel_of_descr c_in) (Unix.out_channel_of_descr r_out)
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close c_in;
    Unix.close r_out;
    let d = { pid; cmd = Unix.out_channel_of_descr c_out; reply = Unix.in_channel_of_descr r_in } in
    live := d :: !live;
    d

(* One command; the answer's fields after "ok". *)
let ask d line =
  output_string d.cmd (line ^ "\n");
  flush d.cmd;
  match String.split_on_char ' ' (input_line d.reply) with
  | "ok" :: rest -> rest
  | _ :: rest -> failwith (String.concat " " rest)
  | [] -> failwith "empty answer"

(* A command that changes the daemon's state: the pipe time outside the
   daemon's own timing is bench.pipe, the daemon-timed part is the
   layer the command calls (noted as its span). *)
let command ~layer d line =
  let t0 = now () in
  let fields = ask d line in
  let total = us_since t0 in
  (match fields with
  | ns :: _ ->
    let inner = float_of_string ns /. 1e3 in
    Trace.note layer inner;
    Trace.note "bench.pipe" (total -. inner)
  | [] -> Trace.note "bench.pipe" total)

let run (r : run) =
  (try Unix.mkdir ".bench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir rep = Printf.sprintf ".bench_out/sock-%d-%d" (Unix.getpid ()) rep in
  Obs.set_enabled r.trace;
  (* setup_s: daemon start, base config loaded in it one transaction
     per port, a controller connecting and converging; the median of
     [setup_reps], the last deployment kept *)
  let d, c =
    cold_starts r ~reps:setup_reps ~release:(fun (d, _) -> stop d) (fun rep ->
        let d = spawn ~seed:r.seed ~dir:(dir rep) ~trace:r.trace in
        let c =
          attempt r "setup" (fun () ->
              ignore (ask d "ping");
              span "ovsdb.load" (fun () -> ignore (ask d "load"));
              let c =
                Snvs.connect ~switch_names:[ switch_name ]
                  ~endpoint:(Nerpa.Endpoint.sockets ~codec:Transport.Binary ~dir:(dir rep) ())
                  ()
              in
              ignore (span "nerpa.sync" (fun () -> Nerpa.Controller.sync c));
              c)
        in
        if rep = 1 then begin
          set r "dl.index_builds" "count" (float_of_int (counter "dl.store.index_builds"));
          set r "ovsdb.load_s" "s" (Samples.sum (Trace.samples "ovsdb.load") /. 1e6)
        end;
        match c with Some c -> (d, c) | None -> failwith "setup failed")
  in
  Obs.reset ();
  let log = ref [] in
  let sync () =
    attempt r "sync" (fun () -> span "nerpa.sync" (fun () -> Nerpa.Controller.sync c))
    |> Option.is_some
  in
  let cmd ~layer line = attempt r line (fun () -> command ~layer d line) |> Option.is_some in
  let remote name = int_of_string (List.hd (ask d ("ctr " ^ name))) in
  let change, change_done =
    Layers.change_slice r ~remote ~budget:(0.35 *. r.seconds) ~min:1000 ~max:(Snvs_ops.max_changes - warmup_ops)
      ~warmup:warmup_ops (fun i ->
        Snvs_ops.log_change log i;
        let t0 = now () in
        let ok = cmd ~layer:"ovsdb.transact" (Printf.sprintf "chg %d" i) && sync () in
        if ok then Some (us_since t0) else None)
  in
  (* learn: a host's frame enters the daemon's switch at a new port, and
     its dmac entry is installed over the socket.  The warm-up learns
     every host once; the samples are moves. *)
  let hosts = Snvs_ops.make_hosts ports ~movers:n_hosts (n_hosts + n_fixed) in
  let rl = rng r.seed 2 in
  let learn =
    slice "learn" ~budget:(0.25 *. r.seconds) ~min:1000 ~warmup:(n_hosts + n_fixed + warmup_ops) (fun i ->
        let h = if i < n_hosts + n_fixed then i else Random.State.int rl n_hosts in
        let op = Snvs_ops.move rl hosts [| switch_name |] h in
        log := op :: !log;
        match op with
        | Frame { port; mac; _ } ->
          Trace.new_change ();
          let t0 = now () in
          let ok = cmd ~layer:"p4.process" (Printf.sprintf "frame %d %Ld" port mac) && sync () in
          if ok then Some (us_since t0) else None
        | _ -> None)
  in
  (* remap: a trunk drops half its VLANs and gets them back, each
     synced, timed as one event so the median sits in one mode *)
  let trunk_arr = Array.of_list trunks in
  let set_trunks name vlans =
    log := Snvs_ops.Trunks { name; vlans } :: !log;
    cmd ~layer:"ovsdb.transact"
      (Printf.sprintf "trunks %s %s" name (String.concat "," (List.map string_of_int vlans)))
    && sync ()
  in
  let remap =
    slice "remap" ~budget:0. ~min:remap_events ~max:remap_events ~warmup:1 (fun i ->
        let t = trunk_arr.(i mod Array.length trunk_arr) in
        Trace.new_change ();
        let t0 = now () in
        let ok =
          set_trunks t.pp_name (List.filteri (fun j _ -> j mod 2 = 0) t.pp_trunks)
          && set_trunks t.pp_name t.pp_trunks
        in
        if ok then Some (us_since t0 /. 1e3) else None)
  in
  (* recover: the daemon drops every connection and listens anew; the
     controller notices at its next sync, then reconnects, resyncs the
     database and reconciles the switch.  Synced until both of its
     connections are back (at most 5 syncs). *)
  let conns () = int_of_string (List.hd (ask d "conns")) in
  let recover =
    slice "recover" ~budget:0. ~min:recover_events ~max:recover_events ~warmup:1 (fun _ ->
        let t0 = now () in
        let ok =
          span "cluster.restart" (fun () -> attempt r "restart" (fun () -> ask d "restart"))
          |> Option.is_some
          && span "cluster.resync" (fun () ->
                 let rec go n = sync () && (conns () = 2 || (n > 1 && go (n - 1))) in
                 go 5)
        in
        let ms = us_since t0 /. 1e3 in
        check r "the controller reconnected to the restarted daemon" ok;
        if ok then Some ms else None)
  in
  (* packets, in the daemon, on its converged switch *)
  let rp = rng r.seed 3 in
  let jobs name (js : (int * P4.Packet.t) array) =
    ignore
      (ask d
         (String.concat " "
            ("jobs" :: name
            :: Array.to_list
                 (Array.map
                    (fun (p, f) ->
                      Printf.sprintf "%d,%Ld,%Ld" p
                        (P4.Packet.get_bits f ~bit_offset:48 ~width:48)
                        (P4.Packet.get_bits f ~bit_offset:0 ~width:48))
                    js))))
  in
  (* the job sets need located hosts: sent at the first chunk, after
     the learn warm-up that [interleave] runs first *)
  let out_per_in = ref 0. in
  let chunk name make =
    let sent = ref false in
    fun _ ->
      if not !sent then begin
        jobs name (make ());
        sent := true
      end;
      match attempt r "chunk" (fun () -> ask d ("chunk " ^ name)) with
      | Some [ pps; opi ] ->
        if name = "flood" then out_per_in := float_of_string opi;
        Some (float_of_string pps)
      | _ -> None
  in
  let fwd =
    slice "fwd" ~rate:true ~budget:(0.1 *. r.seconds) ~min:20 ~warmup:1
      (chunk "fwd" (fun () -> Array.map (fun (p, f, _) -> (p, f)) (Snvs_ops.unicast_jobs rp hosts 512)))
  in
  let flood =
    slice "flood" ~rate:true ~budget:(0.1 *. r.seconds) ~min:20 ~warmup:1
      (chunk "flood" (fun () -> Snvs_ops.flood_jobs rp hosts 512))
  in
  interleave r ~after_warmup:(fun () -> record_heap r) [ learn; change; remap; recover; fwd; flood ];
  change_done ();
  set r "learn_p50_us" "us" (Samples.pct learn.samples 0.5);
  set r "learn_p90_us" "us" (Samples.pct learn.samples 0.9);
  set r "remap_p50_ms" "ms" (Samples.median remap.samples);
  set r "recover_ms" "ms" (Samples.median recover.samples);
  set r "cluster.restart_ms" "ms" (Samples.median (Trace.samples "cluster.restart") /. 1e3);
  set r "cluster.resync_ms" "ms" (Samples.median (Trace.samples "cluster.resync") /. 1e3);
  set r "nerpa.retries" "count" (float_of_int (counter "nerpa.retry.count"));
  set r "nerpa.reconciles" "count" (float_of_int (counter "nerpa.reconcile.count"));
  set r "fwd_pps" "1/s" (Samples.median fwd.samples);
  set r "flood_pps" "1/s" (Samples.median flood.samples);
  set r "p4.pkt_ns" "ns" (1e9 /. Samples.median fwd.samples);
  set r "p4.out_per_in" "1" !out_per_in;
  (* the controller idle: the benchmark's own socket and pipe round trips *)
  let link =
    Nerpa.Links.socket_mgmt ~codec:Transport.Binary
      ~addr:(Transport.Unix_path (Nerpa.Endpoint.mgmt_socket_path ~dir:(dir setup_reps)))
      ()
  in
  let rtts = Samples.create () and pipes = Samples.create () in
  for _ = 1 to 2000 do
    let t0 = now () in
    (match Transport.send link Nerpa.Links.Poll_monitor with
    | Ok _ -> Samples.add rtts (us_since t0)
    | Error e -> fail r ("rtt: " ^ Transport.error_message e));
    let t0 = now () in
    ignore (ask d "ping");
    Samples.add pipes (us_since t0)
  done;
  set r "transport.rtt_us" "us" (Samples.median rtts);
  set r "bench.pipe_rtt_us" "us" (Samples.median pipes);
  (* output check: the daemon's switch equals the same operations run
     in process *)
  let want = Snvs_ops.replay ~switch_names:[ switch_name ] ~ports ~seed:r.seed (List.rev !log) in
  List.iter
    (fun (name, dump) ->
      check r (name ^ " equals the in-process replay")
        (match attempt r "dump" (fun () -> Nerpa.Controller.dump_switch c name) with
        | Some got -> String.equal dump got
        | None -> false))
    want;
  stop d;
  for rep = 1 to setup_reps do
    try Unix.rmdir (dir rep) with Unix.Unix_error _ -> ()
  done
