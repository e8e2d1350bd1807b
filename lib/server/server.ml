(* The Nerpa daemon: hosts an OVSDB database and/or a fleet of P4
   switches behind Unix-domain listening sockets, speaking the
   {!Transport.Frame} protocol toward controller processes.

   One listening socket per hosted entity — the management plane at
   [Endpoint.mgmt_socket_path], one P4Runtime socket per switch at
   [Endpoint.p4_socket_path] — each with its own accept loop.  Every
   accepted connection gets a handler thread: each handler spends its
   life blocked in [read]/[write], which is what threads are for.

   Dispatch into the database and the switches is serialized by one
   server-wide lock: the hosted objects are the same single-threaded
   structures the in-process deployment uses, and the lock gives every
   request the atomicity the direct call had.  [with_lock] exposes the
   same lock to the hosting process (e.g. a workload generator applying
   transactions while controllers are connected).

   A malformed frame or payload closes the offending connection only;
   the listeners and every other connection keep running.  Each
   management connection owns a private monitor (registered on accept,
   cancelled on close), so one client's polls never consume another's
   batches — and a reconnecting controller finds a fresh monitor whose
   initial batch, or a [Resync] snapshot, rebuilds its state. *)

let m_accepts = Obs.Counter.create "server.accepts"
let m_requests = Obs.Counter.create "server.requests"
let m_conn_errors = Obs.Counter.create "server.conn_errors"

type t = {
  dir : string;
  db : Ovsdb.Db.t option;
  xdb : Ovsdb.Db.t option;  (* this shard's exchange store *)
  auth : string option;  (* shared secret demanded of every connection *)
  tcp : (string * int) option;  (* bind TCP (host, base port) instead of dir *)
  switches : (string * P4runtime.server) list;
  lock : Mutex.t;
  mutable running : bool;
  mutable listeners : Unix.file_descr list;
  mutable conns : Unix.file_descr list;
  mutable threads : Thread.t list;
  state_lock : Mutex.t;  (* guards the mutable lists + [running] *)
}

let create ?db ?xdb ?auth ?tcp ?(switches = []) ~dir () : t =
  {
    dir;
    db;
    xdb;
    auth;
    tcp;
    switches = List.map (fun (n, sw) -> (n, P4runtime.attach sw)) switches;
    lock = Mutex.create ();
    running = false;
    listeners = [];
    conns = [];
    threads = [];
    state_lock = Mutex.create ();
  }

let with_lock (t : t) (f : unit -> 'a) : 'a = Mutex.protect t.lock f

let socket_dir (t : t) = t.dir

let track_conn t fd =
  Mutex.protect t.state_lock (fun () -> t.conns <- fd :: t.conns)

let untrack_conn t fd =
  Mutex.protect t.state_lock (fun () ->
      t.conns <- List.filter (fun c -> c != fd) t.conns)

(* Handler threads remove themselves from [t.threads] as they exit, so
   the list tracks only live threads instead of growing by one entry
   per connection for the server's lifetime. *)
let untrack_thread t th =
  let id = Thread.id th in
  Mutex.protect t.state_lock (fun () ->
      t.threads <- List.filter (fun th' -> Thread.id th' <> id) t.threads)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Live-resource counts, for tests and operational introspection. *)
let live_conns t = Mutex.protect t.state_lock (fun () -> List.length t.conns)

let live_threads t =
  Mutex.protect t.state_lock (fun () -> List.length t.threads)

(* ---------------- per-connection handlers ---------------- *)

(* Generic request/response loop over one connection: read a frame,
   check the plane tag, decode with the frame's codec, dispatch under
   the server lock, write the framed response with the request's id
   and codec.  Answering in the request's codec is the whole server
   side of codec negotiation — it is stateless per frame, so one
   connection may freely mix JSON and binary requests.  Any failure —
   including a corrupt or oversize frame — ends this connection and
   nothing else. *)
let serve_conn (t : t) ~(plane : Transport.Frame.plane)
    ~(decode : Transport.codec -> string -> ('req, string) result)
    ~(encode : Transport.codec -> 'resp -> string)
    ~(handle : 'req -> 'resp) (fd : Unix.file_descr) : unit =
  let rd = Transport.Frame.reader fd in
  let rec loop () =
    match Transport.Frame.read_frame_buf rd with
    | Error _ -> Obs.Counter.incr m_conn_errors
    | Ok (got_plane, _, _, _) when got_plane <> plane ->
      Obs.Counter.incr m_conn_errors
    | Ok (_, codec, req_id, payload) -> (
      match decode codec payload with
      | Error _ -> Obs.Counter.incr m_conn_errors
      | Ok req ->
        Obs.Counter.incr m_requests;
        let resp = with_lock t (fun () -> handle req) in
        (match
           Transport.Frame.write_frame fd ~plane ~codec ~req_id
             (encode codec resp)
         with
        | Ok () -> loop ()
        | Error _ -> Obs.Counter.incr m_conn_errors))
  in
  loop ()

let serve_mgmt (t : t) (db : Ovsdb.Db.t) (fd : Unix.file_descr) : unit =
  let mon =
    with_lock t (fun () ->
        Ovsdb.Db.add_monitor db
          (List.map
             (fun (tbl : Ovsdb.Schema.table) -> (tbl.tname, None))
             db.Ovsdb.Db.schema.tables))
  in
  Fun.protect
    ~finally:(fun () ->
      with_lock t (fun () -> Ovsdb.Db.cancel_monitor db mon))
    (fun () ->
      serve_conn t ~plane:Transport.Frame.Mgmt
        ~decode:Nerpa.Links.decode_mgmt_request_c
        ~encode:Nerpa.Links.encode_mgmt_response_c
        ~handle:(Nerpa.Links.mgmt_handler db mon) fd)

let serve_p4 (t : t) (srv : P4runtime.server) (fd : Unix.file_descr) : unit =
  serve_conn t ~plane:Transport.Frame.P4
    ~decode:Nerpa.Links.decode_p4_request_c
    ~encode:Nerpa.Links.encode_p4_response_c
    ~handle:(P4runtime.Wire.dispatch srv) fd

(* ---------------- accept loops ---------------- *)

let accept_loop (t : t) (lfd : Unix.file_descr)
    (handler : Unix.file_descr -> unit) : unit =
  let rec loop () =
    match Unix.accept lfd with
    | fd, _ when not (Mutex.protect t.state_lock (fun () -> t.running)) ->
      (* raced with [stop]: nothing tracks this connection any more *)
      close_quiet fd
    | fd, _ ->
      Obs.Counter.incr m_accepts;
      track_conn t fd;
      let th =
        Thread.create
          (fun () ->
            (try handler fd with _ -> Obs.Counter.incr m_conn_errors);
            untrack_conn t fd;
            close_quiet fd;
            untrack_thread t (Thread.self ()))
          ()
      in
      Mutex.protect t.state_lock (fun () -> t.threads <- th :: t.threads);
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (_, _, _) ->
      (* listener closed by [stop] (or fatally broken): end the loop *)
      ()
  in
  loop ()

let listen_on (path : string) : Unix.file_descr =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 16;
  lfd

let listen_on_tcp (host : string) (port : int) : Unix.file_descr =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> failwith ("server: cannot resolve host " ^ host))
  in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (addr, port));
  Unix.listen lfd 16;
  lfd

let ignore_sigpipe =
  lazy
    (if Sys.os_type = "Unix" then
       Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

(* When a shared secret is configured, every accepted connection must
   pass the handshake before its first request; a failure closes just
   that connection.  The handshake's raw frame reads consume exactly
   their own bytes, so the handler's buffered reader starts clean. *)
let guard (t : t) handler fd =
  match t.auth with
  | None -> handler fd
  | Some secret -> (
    match Transport.server_handshake ~secret fd with
    | Ok () -> handler fd
    | Error _ -> Obs.Counter.incr m_conn_errors)

let start (t : t) : unit =
  Lazy.force ignore_sigpipe;
  if t.tcp = None && not (Sys.file_exists t.dir) then Unix.mkdir t.dir 0o755;
  Mutex.protect t.state_lock (fun () -> t.running <- true);
  let spawn lfd handler =
    Mutex.protect t.state_lock (fun () ->
        t.listeners <- lfd :: t.listeners);
    let th = Thread.create (fun () -> accept_loop t lfd (guard t handler)) () in
    Mutex.protect t.state_lock (fun () -> t.threads <- th :: t.threads)
  in
  match t.tcp with
  | Some (host, base) ->
    (* port layout mirrors {!Nerpa.Shard_map}: [base] management,
       [base+1] exchange store, [base+2+k] the k-th hosted switch —
       callers must pass [switches] in the shard's fleet order *)
    (match t.db with
    | Some db -> spawn (listen_on_tcp host base) (serve_mgmt t db)
    | None -> ());
    (match t.xdb with
    | Some xdb -> spawn (listen_on_tcp host (base + 1)) (serve_mgmt t xdb)
    | None -> ());
    List.iteri
      (fun k (_, srv) -> spawn (listen_on_tcp host (base + 2 + k)) (serve_p4 t srv))
      t.switches
  | None ->
    (match t.db with
    | Some db ->
      spawn
        (listen_on (Nerpa.Endpoint.mgmt_socket_path ~dir:t.dir))
        (serve_mgmt t db)
    | None -> ());
    (match t.xdb with
    | Some xdb ->
      spawn
        (listen_on (Nerpa.Endpoint.xrel_socket_path ~dir:t.dir))
        (serve_mgmt t xdb)
    | None -> ());
    List.iter
      (fun (name, srv) ->
        spawn
          (listen_on (Nerpa.Endpoint.p4_socket_path ~dir:t.dir name))
          (serve_p4 t srv))
      t.switches

let stop (t : t) : unit =
  let listeners, conns, threads =
    Mutex.protect t.state_lock (fun () ->
        t.running <- false;
        let l = t.listeners and c = t.conns and th = t.threads in
        t.listeners <- [];
        (* Clear [conns] too: leaving the captured fds in place made a
           second [stop] shut down stale descriptors that the kernel
           may since have reused for something else entirely. *)
        t.conns <- [];
        t.threads <- [];
        (l, c, th))
  in
  (* [shutdown] (not just [close]) on the listeners: closing an fd does
     not wake a thread blocked in [accept], shutting the socket down
     does — the accept fails and the loop exits. *)
  List.iter
    (fun fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      close_quiet fd)
    listeners;
  (* Shut the open connections down so blocked reads return EOF and the
     handler threads exit; they close their own fds. *)
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter Thread.join threads;
  if t.tcp = None then begin
    (match t.db with
    | Some _ ->
      (try Unix.unlink (Nerpa.Endpoint.mgmt_socket_path ~dir:t.dir)
       with Unix.Unix_error _ -> ())
    | None -> ());
    (match t.xdb with
    | Some _ ->
      (try Unix.unlink (Nerpa.Endpoint.xrel_socket_path ~dir:t.dir)
       with Unix.Unix_error _ -> ())
    | None -> ());
    List.iter
      (fun (name, _) ->
        try Unix.unlink (Nerpa.Endpoint.p4_socket_path ~dir:t.dir name)
        with Unix.Unix_error _ -> ())
      t.switches
  end
