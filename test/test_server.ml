(* Tests for the client/server split: the socket frame codec (pure —
   always run) and the live Unix-socket stack (gated behind
   NERPA_SOCKET_TESTS=1 for sandboxed CI): serve/connect convergence in
   one process, frame corruption tolerated by the server, and the
   two-process kill/restart differential of the acceptance criteria. *)

module F = Transport.Frame

let socket_tests_enabled =
  match Sys.getenv_opt "NERPA_SOCKET_TESTS" with
  | Some "1" | Some "true" | Some "yes" -> true
  | _ -> false

let gated name speed f =
  Alcotest.test_case name speed (fun () ->
      if socket_tests_enabled then f ()
      else Alcotest.skip ())

(* ---------------- frame codec (pure) ---------------- *)

let test_frame_roundtrip () =
  List.iter
    (fun (plane, codec, req_id, payload) ->
      let s = F.encode ~plane ~codec ~req_id payload in
      Alcotest.(check int) "framed length" (F.header_len + String.length payload)
        (String.length s);
      match F.decode s with
      | Ok (p, c, id, body) ->
        Alcotest.(check bool) "plane round-trips" true (p = plane);
        Alcotest.(check bool) "codec round-trips" true (c = codec);
        Alcotest.(check int) "req_id round-trips" req_id id;
        Alcotest.(check string) "payload round-trips" payload body
      | Error _ -> Alcotest.fail "well-formed frame rejected")
    [
      (F.Mgmt, Transport.Json, 0, "");
      (F.P4, Transport.Json, 1, "x");
      (F.Mgmt, Transport.Binary, 0x7FFFFFFF, String.make 4096 'z');
      (F.P4, Transport.Binary, 42, "{\"op\":\"poll_digests\"}");
    ];
  (* a JSON-codec frame is byte-identical to the pre-codec protocol:
     byte 5 carries only the plane nibble *)
  let s = F.encode ~plane:F.P4 ~codec:Transport.Json ~req_id:3 "x" in
  Alcotest.(check int) "json frame leaves codec nibble zero" 0
    (Char.code s.[5] lsr 4)

let reason_of = function Ok _ -> "ok" | Error r -> Transport.reason_label r

let test_frame_rejects_corruption () =
  let good = F.encode ~plane:F.Mgmt ~codec:Transport.Binary ~req_id:7 "payload" in
  (* truncation at every prefix length: always Truncated, never a
     wrong parse *)
  for k = 0 to String.length good - 1 do
    Alcotest.(check string)
      (Printf.sprintf "truncated at %d" k)
      "truncated"
      (reason_of (F.decode (String.sub good 0 k)))
  done;
  (* corrupt magic *)
  let bad_magic = "XRPA" ^ String.sub good 4 (String.length good - 4) in
  Alcotest.(check string) "bad magic" "bad-magic" (reason_of (F.decode bad_magic));
  (* wrong protocol version *)
  let bad_version = Bytes.of_string good in
  Bytes.set bad_version 4 (Char.chr 99);
  Alcotest.(check string) "version mismatch" "version-mismatch"
    (reason_of (F.decode (Bytes.to_string bad_version)));
  (* bad plane tag (low nibble of byte 5) *)
  let bad_plane = Bytes.of_string good in
  Bytes.set bad_plane 5 (Char.chr 0x1E);
  Alcotest.(check string) "bad plane" "protocol"
    (reason_of (F.decode (Bytes.to_string bad_plane)));
  (* bad codec tag (high nibble of byte 5) *)
  let bad_codec = Bytes.of_string good in
  Bytes.set bad_codec 5 (Char.chr 0x21);
  Alcotest.(check string) "bad codec" "protocol"
    (reason_of (F.decode (Bytes.to_string bad_codec)));
  (* over-declared length *)
  let oversize = Bytes.of_string good in
  Bytes.set_int32_be oversize 10 0x7F000000l;
  Alcotest.(check string) "oversize" "oversize"
    (reason_of (F.decode (Bytes.to_string oversize)))

let test_error_labels_stable () =
  (* the metric-label contract: finite, stable strings *)
  List.iter
    (fun (err, label) ->
      Alcotest.(check string) label label (Transport.error_to_string err))
    [
      (Transport.Closed Transport.Refused, "closed/refused");
      (Transport.Closed Transport.Eof, "closed/eof");
      (Transport.Closed Transport.Truncated, "closed/truncated");
      (Transport.Closed Transport.Bad_magic, "closed/bad-magic");
      (Transport.Closed (Transport.Version_mismatch (1, 9)),
       "closed/version-mismatch");
      (Transport.Closed (Transport.Oversize 99), "closed/oversize");
      (Transport.Transient (Transport.Codec "boom"), "transient/codec");
      (Transport.Closed (Transport.Io "x"), "closed/io");
      (Transport.Transient (Transport.Injected "drop"),
       "transient/injected-drop");
      (Transport.Closed Transport.Down, "closed/down");
      (Transport.Closed (Transport.Protocol "p"), "closed/protocol");
    ];
  (* messages keep the payload the labels drop *)
  Alcotest.(check bool) "message carries versions" true
    (let m =
       Transport.error_message (Transport.Closed (Transport.Version_mismatch (1, 9)))
     in
     String.length m > String.length "closed/version-mismatch")

(* ---------------- live socket stack (gated) ---------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "nerpa-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let add_port db ~name ~port ~mode ~tag ~trunks =
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

let ports =
  [ ("p1", 1, "access", 10, []); ("p2", 2, "access", 10, []);
    ("p3", 3, "access", 20, []); ("p4", 4, "trunk", 0, [ 10; 20 ]) ]

let add_acl db =
  ignore
    (Ovsdb.Db.insert_exn db "Acl"
       [
         ("priority", Ovsdb.Datum.integer 10L);
         ("src", Ovsdb.Datum.integer 0xAL);
         ("src_mask", Ovsdb.Datum.integer 0xFFFFFFFFFFFFL);
         ("dst", Ovsdb.Datum.integer 0xBL);
         ("dst_mask", Ovsdb.Datum.integer 0xFFFFFFFFFFFFL);
         ("allow", Ovsdb.Datum.boolean false);
       ])

let host_a = P4.Stdhdrs.mac_of_string "00:00:00:00:00:0a"

let learning_frame src =
  P4.Stdhdrs.ethernet_frame
    ~dst:(P4.Stdhdrs.mac_of_string "ff:ff:ff:ff:ff:ff")
    ~src ~ethertype:0x1234L ~payload:"x"

(* The in-process fault-free reference for the convergence tests:
   deploy directly, apply the same config (raw row inserts, identical
   to what the server-side tests use), dump through the same
   link-level oracle. *)
let baseline_dump ~with_acl ~with_traffic () =
  let d = Snvs.deploy () in
  List.iter
    (fun (name, port, mode, tag, trunks) ->
      add_port d.Snvs.db ~name ~port ~mode ~tag ~trunks)
    ports;
  if with_acl then add_acl d.Snvs.db;
  ignore (Nerpa.Controller.sync d.controller);
  if with_traffic then begin
    ignore (P4.Switch.process d.switch ~in_port:1 (learning_frame host_a));
    ignore (Nerpa.Controller.sync d.controller)
  end;
  ignore (Nerpa.Controller.sync d.controller);
  Nerpa.Controller.dump_switch d.controller "snvs0"

let sync_until ?(timeout_s = 30.) (c : Nerpa.Controller.t) (pred : unit -> bool)
    ~(what : string) : unit =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      (try ignore (Nerpa.Controller.sync c)
       with Nerpa.Controller.Controller_error _ -> ());
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let dump_or_empty c name =
  try Nerpa.Controller.dump_switch c name
  with Nerpa.Controller.Controller_error _ -> ""

(* serve + connect inside one process: server handler threads, client
   controller on the main thread, all planes over real sockets.  Run
   once per wire codec — the converged dump must not depend on how the
   bytes travelled. *)
let test_serve_connect_convergence ~codec () =
  let dir = fresh_dir () in
  let db = Ovsdb.Db.create Snvs.schema in
  let switch = P4.Switch.create ~name:"snvs0" Snvs.p4 in
  let server = Server.create ~db ~switches:[ ("snvs0", switch) ] ~dir () in
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let sconn0 = Obs.counter_value "transport.socket.connects" in
  let c = Snvs.connect ~endpoint:(Nerpa.Endpoint.sockets ~codec ~dir ()) () in
  (* config applied server-side, under the server's lock *)
  Server.with_lock server (fun () ->
      List.iter
        (fun (name, port, mode, tag, trunks) ->
          add_port db ~name ~port ~mode ~tag ~trunks)
        ports;
      add_acl db);
  let want = baseline_dump ~with_acl:true ~with_traffic:false () in
  sync_until c ~what:"socket deployment to converge" (fun () ->
      String.equal (dump_or_empty c "snvs0") want);
  Alcotest.(check bool) "socket connects counted" true
    (Obs.counter_value "transport.socket.connects" > sconn0)

(* A client speaking garbage must lose only its own connection: the
   listener and other clients keep working. *)
let test_corrupt_frame_tolerated () =
  let dir = fresh_dir () in
  let db = Ovsdb.Db.create Snvs.schema in
  let server = Server.create ~db ~dir () in
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let path = Nerpa.Endpoint.mgmt_socket_path ~dir in
  let raw () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  (* garbage magic: the server closes the connection *)
  let fd = raw () in
  ignore (Unix.write_substring fd "garbage-not-a-frame-at-all" 0 26);
  Alcotest.(check string) "garbage conn closed" "eof"
    (match F.read_frame fd with
    | Error r -> Transport.reason_label r
    | Ok _ -> "ok");
  Unix.close fd;
  (* oversize declared length: closed too, without reading 2 GiB *)
  let fd = raw () in
  let hdr =
    Bytes.of_string (F.encode ~plane:F.Mgmt ~codec:Transport.Json ~req_id:1 "")
  in
  Bytes.set_int32_be hdr 10 0x7F000000l;
  ignore (Unix.write fd hdr 0 (Bytes.length hdr));
  Alcotest.(check string) "oversize conn closed" "eof"
    (match F.read_frame fd with
    | Error r -> Transport.reason_label r
    | Ok _ -> "ok");
  Unix.close fd;
  (* a well-behaved client still gets answers *)
  let link = Nerpa.Links.socket_mgmt ~addr:(Transport.Unix_path path) () in
  (match Transport.send link Nerpa.Links.Poll_monitor with
  | Ok (Nerpa.Links.Batches _) -> ()
  | Ok _ -> Alcotest.fail "unexpected response"
  | Error e ->
    Alcotest.failf "server died after corrupt frames: %s"
      (Transport.error_message e));
  (* a frame claiming another protocol version: the server closes
     rather than guessing *)
  let fd = raw () in
  let hdr =
    Bytes.of_string (F.encode ~plane:F.Mgmt ~codec:Transport.Json ~req_id:1 "")
  in
  Bytes.set hdr 4 (Char.chr 9);
  ignore (Unix.write fd hdr 0 (Bytes.length hdr));
  Alcotest.(check string) "version-mismatch conn closed" "eof"
    (match F.read_frame fd with
    | Error r -> Transport.reason_label r
    | Ok _ -> "ok");
  Unix.close fd

(* ---------------- codec negotiation fallback ---------------- *)

let really_read fd n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then Some b
    else
      match Unix.read fd b off (n - off) with
      | 0 -> None
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* A pre-codec-era management server: it validates byte 5 of the header
   as a bare plane tag (1 or 2, nothing else) and closes the connection
   on anything it does not recognise — exactly what the PR5 protocol
   did.  A binary-preferring client must fall back to JSON against it
   and still get answers. *)
let json_only_server lfd (conns : Unix.file_descr list ref) : unit =
  let rec accept_loop () =
    match Unix.accept lfd with
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
      conns := fd :: !conns;
      let rec serve () =
        match really_read fd F.header_len with
        | None -> ()
        | Some hdr ->
          let b5 = Char.code (Bytes.get hdr 5) in
          if
            Bytes.sub_string hdr 0 4 = "NRPA"
            && Char.code (Bytes.get hdr 4) = 1
            && (b5 = 1 || b5 = 2)
          then begin
            let req_id = Int32.to_int (Bytes.get_int32_be hdr 6) in
            let len = Int32.to_int (Bytes.get_int32_be hdr 10) in
            match really_read fd len with
            | None -> ()
            | Some payload ->
              (match
                 Nerpa.Links.decode_mgmt_request (Bytes.to_string payload)
               with
              | Ok Nerpa.Links.Poll_monitor ->
                (match
                   F.write_frame fd ~plane:F.Mgmt ~codec:Transport.Json
                     ~req_id
                     (Nerpa.Links.encode_mgmt_response
                        (Nerpa.Links.Batches []))
                 with
                | Ok () -> serve ()
                | Error _ -> ())
              | _ -> ())
          end
      in
      serve ();
      (* signal end-of-stream but leave the fd open: the test's finally
         owns closing (avoids shutting down a reused descriptor) *)
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      accept_loop ()
  in
  accept_loop ()

let test_codec_negotiation_fallback () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "old.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 4;
  let conns = ref [] in
  let th = Thread.create (fun () -> json_only_server lfd conns) () in
  Fun.protect
    ~finally:(fun () ->
      (* wake the thread wherever it blocks: the listener for accept,
         every accepted connection for its frame read *)
      (try Unix.shutdown lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      List.iter
        (fun fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        !conns;
      Thread.join th;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !conns;
      try Unix.close lfd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* client prefers Binary; the old peer closes on the unknown nibble;
     the client must retry the same request in JSON, transparently *)
  let link = Nerpa.Links.socket_mgmt ~codec:Transport.Binary ~addr:(Transport.Unix_path path) () in
  (match Transport.send link Nerpa.Links.Poll_monitor with
  | Ok (Nerpa.Links.Batches []) -> ()
  | Ok _ -> Alcotest.fail "unexpected response from json-only server"
  | Error e ->
    Alcotest.failf "negotiation fallback failed: %s"
      (Transport.error_message e));
  (* the downgrade is sticky: later requests keep working *)
  match Transport.send link Nerpa.Links.Poll_monitor with
  | Ok (Nerpa.Links.Batches []) -> ()
  | Ok _ -> Alcotest.fail "unexpected response after downgrade"
  | Error e ->
    Alcotest.failf "post-downgrade request failed: %s"
      (Transport.error_message e)

(* ---------------- request pipelining over a socket ---------------- *)

(* [send_many] over a live socket: more requests than the in-flight
   window (32), with Poll/Resync interleaved so a response matched to
   the wrong request is detectable by its constructor. *)
let test_socket_pipelining ~codec () =
  let dir = fresh_dir () in
  let db = Ovsdb.Db.create Snvs.schema in
  let server = Server.create ~db ~dir () in
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let path = Nerpa.Endpoint.mgmt_socket_path ~dir in
  let link = Nerpa.Links.socket_mgmt ~codec ~addr:(Transport.Unix_path path) () in
  let n = 80 in
  let reqs =
    List.init n (fun i ->
        if i mod 3 = 0 then Nerpa.Links.Resync else Nerpa.Links.Poll_monitor)
  in
  let results = Transport.send_many link reqs in
  Alcotest.(check int) "one result per request" n (List.length results);
  List.iteri
    (fun i r ->
      match (i mod 3 = 0, r) with
      | true, Ok (Nerpa.Links.Snapshot _) | false, Ok (Nerpa.Links.Batches _)
        ->
        ()
      | _, Error e ->
        Alcotest.failf "pipelined request %d failed: %s" i
          (Transport.error_message e)
      | _, Ok _ ->
        Alcotest.failf "response %d matched to the wrong request" i)
    results

(* ---------------- server resource tracking ---------------- *)

(* The stop/conns/threads bug sweep: handler threads must self-reap,
   [stop] must clear its connection list, and a second [stop] must be
   a harmless no-op (the old code shut down stale — possibly reused —
   fds again). *)
let test_server_stop_reaps () =
  let dir = fresh_dir () in
  let db = Ovsdb.Db.create Snvs.schema in
  let server = Server.create ~db ~dir () in
  Server.start server;
  let base_threads = Server.live_threads server in
  let path = Nerpa.Endpoint.mgmt_socket_path ~dir in
  let links =
    List.init 3 (fun _ -> Nerpa.Links.socket_mgmt ~addr:(Transport.Unix_path path) ())
  in
  List.iter
    (fun l ->
      match Transport.send l Nerpa.Links.Poll_monitor with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "poll failed: %s" (Transport.error_message e))
    links;
  Alcotest.(check int) "three live connections" 3 (Server.live_conns server);
  Alcotest.(check int) "one handler thread per connection"
    (base_threads + 3) (Server.live_threads server);
  Server.stop server;
  Alcotest.(check int) "stop leaves no connections" 0
    (Server.live_conns server);
  Alcotest.(check int) "stop leaves no threads" 0
    (Server.live_threads server);
  (* double stop: nothing tracked, nothing to break *)
  Server.stop server;
  Alcotest.(check int) "double stop still clean" 0 (Server.live_conns server)

(* A switch that restarts empty numbers its digest lists from 0 again.
   The controller stays up across the restart, so its digest dedup must
   not hold the ids of lists the old switch already had acked: a new
   source MAC on the restarted switch has to be learned.  The database
   outlives the switch, as an external OVSDB server would. *)
let test_switch_restart_keeps_learning () =
  let dir = fresh_dir () in
  let db = Ovsdb.Db.create Snvs.schema in
  let serve () =
    let switch = P4.Switch.create ~name:"snvs0" Snvs.p4 in
    let server = Server.create ~db ~switches:[ ("snvs0", switch) ] ~dir () in
    Server.start server;
    (server, switch)
  in
  let server1, switch1 = serve () in
  let server2 = ref None in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server1;
      Option.iter Server.stop !server2)
  @@ fun () ->
  let c = Snvs.connect ~endpoint:(Nerpa.Endpoint.sockets ~dir ()) () in
  let learned () =
    List.length
      (Dl.Engine.relation_rows (Nerpa.Controller.engine c) "LearnedMac")
  in
  let admitted server switch port =
    Server.with_lock server (fun () ->
        let srv = P4runtime.attach switch in
        List.exists
          (fun ti ->
            ti.P4.P4info.table_name = "in_vlan"
            && List.exists
                 (fun e ->
                   match e.P4runtime.matches with
                   | P4runtime.FmExact p :: _ -> p = Int64.of_int port
                   | _ -> false)
                 (P4runtime.read_table srv ~table_id:ti.P4.P4info.table_id))
          (P4runtime.info srv).P4.P4info.tables)
  in
  let learn server switch ~port src ~want =
    sync_until c
      ~what:(Printf.sprintf "port %d admitted" port)
      (fun () -> admitted server switch port);
    Server.with_lock server (fun () ->
        ignore (P4.Switch.process switch ~in_port:port (learning_frame src)));
    sync_until c ~timeout_s:10.
      ~what:(Printf.sprintf "%d learned MACs" want)
      (fun () -> learned () = want)
  in
  Server.with_lock server1 (fun () ->
      List.iter
        (fun (name, port, mode, tag, trunks) ->
          add_port db ~name ~port ~mode ~tag ~trunks)
        ports);
  learn server1 switch1 ~port:1 host_a ~want:1;
  (* the switch restarts empty behind the same socket *)
  Server.stop server1;
  (try ignore (Nerpa.Controller.sync c)
   with Nerpa.Controller.Controller_error _ -> ());
  let server, switch2 = serve () in
  server2 := Some server;
  learn server switch2 ~port:2 (P4.Stdhdrs.mac_of_string "00:00:00:00:00:0b")
    ~want:2

(* ---------------- the two-process acceptance test ---------------- *)

(* Child-process body: host a fresh db + switch under [dir], apply
   [ports] (and optionally the acl), inject one learning frame from
   host A on port 1 once a controller admits it, then sleep until
   killed.  Runs in a re-exec'd copy of the test binary (see the
   [NERPA_SERVER_CHILD] hook below) — [Unix.fork] is off-limits once
   earlier suites have spawned domains and threads. *)
let child_main ~dir ~with_acl ~with_traffic : unit =
  let db = Ovsdb.Db.create Snvs.schema in
  let switch = P4.Switch.create ~name:"snvs0" Snvs.p4 in
  let server = Server.create ~db ~switches:[ ("snvs0", switch) ] ~dir () in
  Server.start server;
  Server.with_lock server (fun () ->
      List.iter
        (fun (name, port, mode, tag, trunks) ->
          add_port db ~name ~port ~mode ~tag ~trunks)
        ports;
      if with_acl then add_acl db);
  if with_traffic then begin
    let info = P4.P4info.of_program Snvs.p4 in
    let in_vlan =
      (List.find
         (fun ti -> ti.P4.P4info.table_name = "in_vlan")
         info.P4.P4info.tables)
        .P4.P4info.table_id
    in
    let admitted () =
      Server.with_lock server (fun () ->
          let srv = P4runtime.attach switch in
          List.exists
            (fun e ->
              match e.P4runtime.matches with
              | P4runtime.FmExact p :: _ -> p = 1L
              | _ -> false)
            (P4runtime.read_table srv ~table_id:in_vlan))
    in
    let deadline = Unix.gettimeofday () +. 30. in
    while (not (admitted ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.02
    done;
    Server.with_lock server (fun () ->
        ignore (P4.Switch.process switch ~in_port:1 (learning_frame host_a)))
  end;
  while true do
    Unix.sleep 3600
  done

(* When the test binary starts with NERPA_SERVER_CHILD="dir|acl|traffic"
   in its environment it becomes the server process instead of running
   the suites; this module initializer runs before Alcotest's main. *)
let () =
  match Sys.getenv_opt "NERPA_SERVER_CHILD" with
  | None -> ()
  | Some spec ->
    (match String.split_on_char '|' spec with
    | [ dir; acl; traffic ] ->
      (try
         child_main ~dir ~with_acl:(bool_of_string acl)
           ~with_traffic:(bool_of_string traffic)
       with _ -> exit 1);
      exit 0
    | _ -> exit 2)

let spawn_server ~dir ~with_acl ~with_traffic () : int =
  let spec = Printf.sprintf "%s|%b|%b" dir with_acl with_traffic in
  let env =
    Array.append (Unix.environment ()) [| "NERPA_SERVER_CHILD=" ^ spec |]
  in
  Unix.create_process_env Sys.executable_name
    [| Sys.executable_name |]
    env Unix.stdin Unix.stdout Unix.stderr

(* The acceptance criteria end to end: a controller in this process
   drives OVSDB + a switch served from a child process, the child is
   SIGKILLed mid-run and replaced (fresh db, fresh switch, same
   config), and the final switch state must be byte-identical to the
   in-process fault-free run — config via monitor resync, learned MACs
   via digests and reconnect reconciliation. *)
let test_two_process_kill_restart () =
  let dir = fresh_dir () in
  let baseline = baseline_dump ~with_acl:true ~with_traffic:true () in
  let pid1 = spawn_server ~dir ~with_acl:false ~with_traffic:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid1 Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid1) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let c = Snvs.connect ~endpoint:(Nerpa.Endpoint.sockets ~dir ()) () in
  (* phase 1: converge against the first server, consuming the digest
     the child injects once port 1 is admitted *)
  sync_until c ~what:"first server's config and digest" (fun () ->
      Dl.Engine.relation_rows (Nerpa.Controller.engine c) "LearnedMac" <> []);
  (* hard kill mid-run *)
  Unix.kill pid1 Sys.sigkill;
  ignore (Unix.waitpid [] pid1);
  (* a couple of syncs observe the outage (failed polls, Closed links) *)
  (try ignore (Nerpa.Controller.sync c)
   with Nerpa.Controller.Controller_error _ -> ());
  (* restart: fresh db (new row uuids!), empty switch, full config *)
  let pid2 = spawn_server ~dir ~with_acl:true ~with_traffic:false () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid2) with Unix.Unix_error _ -> ())
  @@ fun () ->
  sync_until c ~what:"post-restart convergence" (fun () ->
      String.equal (dump_or_empty c "snvs0") baseline);
  (* the engine kept every management row across the restart *)
  Alcotest.(check int) "all ports present" (List.length ports)
    (List.length
       (Dl.Engine.relation_rows (Nerpa.Controller.engine c) "Port"));
  Alcotest.(check int) "acl present" 1
    (List.length (Dl.Engine.relation_rows (Nerpa.Controller.engine c) "Acl"))

let tests =
  [
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame rejects corruption" `Quick
      test_frame_rejects_corruption;
    Alcotest.test_case "error labels stable" `Quick test_error_labels_stable;
    gated "serve/connect convergence (sockets, binary)" `Slow
      (test_serve_connect_convergence ~codec:Transport.Binary);
    gated "serve/connect convergence (sockets, json)" `Slow
      (test_serve_connect_convergence ~codec:Transport.Json);
    gated "corrupt frame tolerated by server" `Slow
      test_corrupt_frame_tolerated;
    gated "codec negotiation falls back to json" `Slow
      test_codec_negotiation_fallback;
    gated "socket pipelining (binary)" `Slow
      (test_socket_pipelining ~codec:Transport.Binary);
    gated "socket pipelining (json)" `Slow
      (test_socket_pipelining ~codec:Transport.Json);
    gated "stop reaps connections and threads" `Slow test_server_stop_reaps;
    gated "two-process kill/restart differential" `Slow
      test_two_process_kill_restart;
    gated "switch restarted empty keeps learning" `Slow
      test_switch_restart_keeps_learning;
  ]
