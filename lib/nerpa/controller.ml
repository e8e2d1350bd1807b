(* The Nerpa controller: the state-synchronisation loop tying the three
   planes together (Fig. 4 of the paper).

   Since the transport refactor the controller is split in two:

   - a *step core* ({!Step}, {!step}): consumes one plane event
     (monitor batch, digest lists, switch up/down) and returns the
     commands to execute (write batches, digest acks, reconciliations).
     It commits DL transactions but performs no transport I/O, so its
     decisions are testable without any link in place;
   - a *driver loop* ({!sync}): polls the links, feeds events to the
     step core, and executes its commands — owning every
     failure-handling policy: bounded retry with exponential backoff on
     transient write errors, digest-redelivery dedup by [list_id], and
     full state reconciliation when a switch reconnects (dump via
     P4Runtime reads, diff against the engine's outputs, emit
     corrective deletes/inserts).

   Responsibilities carried over from the pre-transport controller:
   convert monitor batches into DL transactions; translate output
   deltas into atomic P4Runtime write batches (deletes first, so that
   re-keyed entries modify cleanly); drain data-plane digests and feed
   them back as DL insertions until quiescence; maintain multicast
   group membership from the MulticastGroup relation. *)

open Dl

exception Controller_error of string

let error fmt = Format.kasprintf (fun s -> raise (Controller_error s)) fmt

type stats = {
  txns : int;             (* DL transactions committed *)
  entries_written : int;  (* table entries inserted/deleted *)
  digests_consumed : int;
  groups_updated : int;
}

(* Observability (metric names are a public contract, see README).
   These aggregate across controllers sharing the process; the [stats]
   accessor reports this controller's own counts. *)
let m_txns = Obs.Counter.create "nerpa.txns"
let m_entries = Obs.Counter.create "nerpa.entries_written"
let m_digests = Obs.Counter.create "nerpa.digests_consumed"
let m_groups = Obs.Counter.create "nerpa.groups_updated"
let m_syncs = Obs.Counter.create "nerpa.sync.count"
let m_iterations = Obs.Counter.create "nerpa.sync.iterations"
let m_monitor_batches = Obs.Counter.create "nerpa.sync.monitor_batches"
let m_digest_lists = Obs.Counter.create "nerpa.sync.digest_lists"
let m_dup_digests = Obs.Counter.create "nerpa.digest.duplicates"
let m_retries = Obs.Counter.create "nerpa.retry.count"
let m_retry_gaveup = Obs.Counter.create "nerpa.retry.gaveup"
let m_reconciles = Obs.Counter.create "nerpa.reconcile.count"
let m_corrections = Obs.Counter.create "nerpa.reconcile.corrections"
let m_resyncs = Obs.Counter.create "nerpa.resync.count"
let m_resync_corr = Obs.Counter.create "nerpa.resync.corrections"
let m_flow_deltas = Obs.Counter.create "nerpa.flow.deltas"
let m_flow_rules = Obs.Counter.create "nerpa.flow.rules"
let m_flow_resyncs = Obs.Counter.create "nerpa.flow.resyncs"
let m_xpublishes = Obs.Counter.create "nerpa.exchange.publishes"
let m_xrows_out = Obs.Counter.create "nerpa.exchange.rows_published"
let m_xrows_in = Obs.Counter.create "nerpa.exchange.rows_applied"
let m_xresyncs = Obs.Counter.create "nerpa.exchange.resyncs"
let h_sync = Obs.Histogram.create ~unit_:"us" "nerpa.sync"
let h_write_batch = Obs.Histogram.create ~unit_:"entries" "nerpa.write_batch"
let h_backoff = Obs.Histogram.create ~unit_:"us" "nerpa.retry.backoff_us"
let h_reconcile = Obs.Histogram.create ~unit_:"us" "nerpa.reconcile"

module IntSet = Set.Make (Int)

(* An attached incremental flow compiler for one switch: every write
   batch the driver knows the switch applied is mirrored into the
   {!Ofp4.Compile.State} as a Z-set delta, and the resulting flow-rule
   delta is handed to [fp_push].  When a write outcome is ambiguous
   (the paths that mark the switch dirty) the programmer goes stale and
   the next successful reconciliation rebuilds the state from the local
   switch object, pushing the diff wholesale. *)
type flow_programmer = {
  fp_switch : P4.Switch.t;
  mutable fp_state : Ofp4.Compile.State.t;
  fp_push : Ofp4.Openflow.flow_delta -> unit;
  mutable fp_stale : bool;
}

(* Per-switch connection state owned by the driver. *)
type sw = {
  sw_name : string;
  sw_link : Links.p4_link;
  sw_info : P4.P4info.t;
  mutable sw_up : bool;
  mutable sw_dirty : bool;
      (* true when this switch may have missed or misapplied writes
         (link failure, retry exhaustion): schedule a reconcile *)
  mutable sw_seen : IntSet.t;
      (* digest list_ids applied but not yet acked: a redelivery of one
         of these is re-acked, not re-applied.  An id leaves the set
         once the switch answers its ack, as an acked list is never
         redelivered — and a switch restarted empty numbers its lists
         from 0 again. *)
  mutable sw_fp : flow_programmer option;
}

(* Every path that marks a switch dirty also invalidates its flow
   programmer: the delta feed only stays truthful while each applied
   batch was observed applied. *)
let mark_dirty (sw : sw) : unit =
  sw.sw_dirty <- true;
  match sw.sw_fp with Some fp -> fp.fp_stale <- true | None -> ()

let feed_flow_programmer (sw : sw) (updates : P4runtime.update list) : unit =
  match sw.sw_fp with
  | None -> ()
  | Some fp when fp.fp_stale -> () (* resynced wholesale on reconcile *)
  | Some fp ->
    let tbl : (string, (P4.Entry.t * int) list) Hashtbl.t = Hashtbl.create 4 in
    let order = ref [] in
    List.iter
      (fun (u : P4runtime.update) ->
        match u.entity with
        | P4runtime.MulticastGroupEntry _ -> ()
        | P4runtime.TableEntry te ->
          let table, entry = P4runtime.to_entry sw.sw_info te in
          let w =
            match u.utype with
            | P4runtime.Delete -> -1
            | P4runtime.Insert | P4runtime.Modify -> 1
          in
          (match Hashtbl.find_opt tbl table with
          | None ->
            order := table :: !order;
            Hashtbl.add tbl table [ (entry, w) ]
          | Some ops -> Hashtbl.replace tbl table ((entry, w) :: ops)))
      updates;
    if !order <> [] then begin
      let deltas =
        List.rev_map (fun tn -> (tn, List.rev (Hashtbl.find tbl tn))) !order
      in
      let d = Ofp4.Compile.State.apply_delta fp.fp_state deltas in
      let n = Ofp4.Openflow.delta_size d in
      if n > 0 then begin
        Obs.Counter.incr m_flow_deltas;
        Obs.Counter.add m_flow_rules n;
        fp.fp_push d
      end
    end

let resync_flow_programmer (sw : sw) : unit =
  match sw.sw_fp with
  | None -> ()
  | Some fp when not fp.fp_stale -> ()
  | Some fp ->
    Obs.Counter.incr m_flow_resyncs;
    let st = Ofp4.Compile.State.create fp.fp_switch in
    let d =
      Ofp4.Openflow.diff
        ~old_flows:(Ofp4.Compile.State.flows fp.fp_state).Ofp4.Openflow.flows
        ~new_flows:(Ofp4.Compile.State.flows st).Ofp4.Openflow.flows
    in
    fp.fp_state <- st;
    fp.fp_stale <- false;
    let n = Ofp4.Openflow.delta_size d in
    if n > 0 then begin
      Obs.Counter.incr m_flow_deltas;
      Obs.Counter.add m_flow_rules n;
      fp.fp_push d
    end

(* ---------------- cross-shard exchange state ---------------- *)

(* A sharded fleet exchanges its data-plane-learned relations (the
   digest-fed inputs) through per-shard exchange stores ({!Xrel}):
   each controller publishes its own contributions to its own shard's
   store and subscribes to every peer's store over the ordinary
   monitor machinery, so the exchange inherits the codec, pipelining
   and resync semantics of the management plane.  [exchange] is the
   wiring — built by [Cluster] (socket links derived from a shard
   map, or direct links in the in-process harness). *)
type exchange = {
  ex_shard : int;  (* this controller's shard id *)
  ex_publish : Links.mgmt_link;  (* own shard's exchange store *)
  ex_peers : (int * Links.mgmt_link) list;  (* peer stores, by shard *)
}

(* A mirrored claim: one row some peer's store publishes.  [xm_active]
   is whether the row currently contributes to the engine — a fresher
   learn for the same key suppresses a claim without dropping it (the
   peer's store still holds the row), which is what stops a later
   snapshot resync from resurrecting displaced state. *)
type xclaim = { xm_row : Row.t; mutable xm_active : bool }

type xstate = {
  xc : exchange;
  x_rels : (string, unit) Hashtbl.t;  (* exchanged relation names *)
  x_local : (string * string, Row.t) Hashtbl.t;
      (* (rel, row text): this shard's own published contributions *)
  x_mirror : (int * string * string, xclaim) Hashtbl.t;
      (* (peer shard, rel, row text): what each peer's store holds *)
  mutable x_queue : (string * string * int) list;
      (* publish deltas not yet flushed, newest first *)
  mutable x_pub_dirty : bool;
      (* full reset-publish needed (startup, or a publish-link
         reconnect: the store may be fresh, or hold stale rows of a
         previous incarnation) *)
  x_peer_dirty : (int, bool) Hashtbl.t;  (* peer needs a snapshot resync *)
}

type t = {
  mgmt : Links.mgmt_link;
  mgmt_ctl : Transport.ctl option;
      (* fault-injection handle when the endpoint wraps the management
         plane in [Faulty] *)
  mutable mgmt_dirty : bool;
      (* true when monitor batches may have been lost (poll failure or a
         reconnect edge): resync before trusting the next poll *)
  p4_ctls : (string * Transport.ctl) list;
  engine : Engine.t;
  program : Ast.program;
  mappings : Codegen.mapping list;
  input_rel_of_table : (string * Ast.rel_decl) list; (* OVSDB table -> decl *)
  digest_rel_of_name : (string * Ast.rel_decl) list; (* digest name -> decl *)
  exchange : xstate option;  (* cross-shard exchange, when clustered *)
  sws : sw list;
  (* digest relation -> key column indices for last-writer-wins
     replacement (e.g. MAC mobility: a newly learned (vlan, mac)
     retracts the previous port binding) *)
  digest_replace : (string * int list) list;
  max_iterations : int;
  retry_limit : int;
  (* per-controller counts; [sync]'s return value and [stats] must not
     depend on whether Obs collection is enabled *)
  mutable ntxns : int;
  mutable nentries : int;
  mutable ndigests : int;
  mutable ngroups : int;
  (* deltas committed during the current sync iteration, for the
     quiescence diagnostic *)
  mutable iter_deltas : (string * Zset.t) list;
}

(* ---------------- the step core ---------------- *)

module Step = struct
  type event =
    | Monitor_batch of Ovsdb.Db.table_updates
    | Digest_lists of string * P4runtime.digest_list list
    | Switch_up of string
    | Switch_down of string

  type command =
    | Write of string * P4runtime.update list
    | Ack of string * int
    | Reconcile of string
end

let find_sw (t : t) name : sw =
  match List.find_opt (fun s -> String.equal s.sw_name name) t.sws with
  | Some s -> s
  | None -> error "unknown switch %s" name

(* Accumulate commit deltas per relation as Z-set unions, instead of
   concatenating per-commit delta lists (which grew quadratically over
   a sync's feedback iterations). *)
let merge_deltas (acc : (string * Zset.t) list) (ds : (string * Zset.t) list) :
    (string * Zset.t) list =
  List.fold_left
    (fun acc (rel, z) ->
      match List.assoc_opt rel acc with
      | Some z0 -> (rel, Zset.union z0 z) :: List.remove_assoc rel acc
      | None -> (rel, z) :: acc)
    acc ds

(* Record one commit's digest-relation deltas for cross-shard
   publication.  +row: a genuinely new local learn (an insert the
   engine absorbed silently never shows up in commit deltas) — claim
   it and queue its publication.  -row: a last-writer-wins
   displacement; when the victim was our own claim, queue its
   retraction toward the fleet; when it was a peer's, suppress that
   claim (see [xclaim]). *)
let exchange_capture (t : t) (deltas : (string * Zset.t) list) : unit =
  match t.exchange with
  | None -> ()
  | Some xs ->
    List.iter
      (fun (rel, dz) ->
        if Hashtbl.mem xs.x_rels rel then
          Zset.iter
            (fun row w ->
              let text = Xrel.row_text row in
              if w > 0 then begin
                if not (Hashtbl.mem xs.x_local (rel, text)) then begin
                  Hashtbl.replace xs.x_local (rel, text) row;
                  xs.x_queue <- (rel, text, 1) :: xs.x_queue
                end
              end
              else if Hashtbl.mem xs.x_local (rel, text) then begin
                Hashtbl.remove xs.x_local (rel, text);
                xs.x_queue <- (rel, text, -1) :: xs.x_queue
              end
              else
                List.iter
                  (fun (s, _) ->
                    match Hashtbl.find_opt xs.x_mirror (s, rel, text) with
                    | Some c -> c.xm_active <- false
                    | None -> ())
                  xs.xc.ex_peers)
            dz)
      deltas

(* Translate one commit's deltas into per-switch write batches.
   Deletions first so that an entry whose action arguments changed is
   removed before its replacement is inserted. *)
let write_commands (t : t) (deltas : (string * Zset.t) list) :
    Step.command list =
  let outputs = Engine.output_deltas t.engine deltas in
  if outputs = [] then []
  else begin
    (* Multicast groups: recompute the membership of touched groups from
       the engine's full relation contents. *)
    let mcast_updates =
      match List.assoc_opt "MulticastGroup" outputs with
      | None -> []
      | Some dz ->
        let touched =
          Zset.fold
            (fun row _ acc ->
              let g = Bridge.as_bit_value (Row.get row 0) in
              if List.mem g acc then acc else g :: acc)
            dz []
        in
        List.map
          (fun g ->
            let ports =
              List.map
                (fun row -> Bridge.as_bit_value (Row.get row 1))
                (Engine.query t.engine "MulticastGroup" ~positions:[ 0 ]
                   ~key:[ Value.bit 16 g ])
            in
            Obs.Counter.incr m_groups;
            t.ngroups <- t.ngroups + 1;
            P4runtime.set_multicast ~group:g ~ports:(List.sort Int64.compare ports))
          touched
    in
    List.filter_map
      (fun sw ->
        let dels = ref [] and inss = ref [] in
        List.iter
          (fun (rel, dz) ->
            match
              List.find_opt
                (fun (m : Codegen.mapping) -> m.rel_name = rel)
                t.mappings
            with
            | None -> () (* MulticastGroup handled above *)
            | Some m ->
              Zset.iter
                (fun row w ->
                  let entry = Bridge.entry_of_row sw.sw_info m row in
                  if w > 0 then inss := P4runtime.insert entry :: !inss
                  else dels := P4runtime.delete entry :: !dels)
                dz)
          outputs;
        let updates = List.rev !dels @ List.rev !inss @ mcast_updates in
        if updates = [] then None else Some (Step.Write (sw.sw_name, updates)))
      t.sws
  end

(* ---------------- management plane -> engine ---------------- *)

let step_monitor_batch (t : t) (batch : Ovsdb.Db.table_updates) :
    Step.command list =
  let txn = Engine.transaction t.engine in
  List.iter
    (fun (table, rows) ->
      match List.assoc_opt table t.input_rel_of_table with
      | None -> ()
      | Some decl ->
        List.iter
          (fun (uuid, (upd : Ovsdb.Db.row_update)) ->
            (match upd.before with
            | Some row ->
              Engine.delete txn decl.Ast.rname (Bridge.row_of_ovsdb decl uuid row)
            | None -> ());
            match upd.after with
            | Some row ->
              Engine.insert txn decl.Ast.rname (Bridge.row_of_ovsdb decl uuid row)
            | None -> ())
          rows)
    batch;
  let deltas = Engine.commit txn in
  t.ntxns <- t.ntxns + 1;
  Obs.Counter.incr m_txns;
  t.iter_deltas <- merge_deltas t.iter_deltas deltas;
  write_commands t deltas

(* ---------------- data plane -> engine (feedback loop) -------------- *)

let step_digest_lists (t : t) (sw : sw)
    (dls : P4runtime.digest_list list) : Step.command list =
  let info = sw.sw_info in
  List.concat_map
    (fun (dl : P4runtime.digest_list) ->
      let dinfo =
        match P4.P4info.find_digest_by_id info dl.digest_id with
        | Some d -> d
        | None -> error "unknown digest id %d" dl.digest_id
      in
      if IntSet.mem dl.list_id sw.sw_seen then begin
        (* a redelivered list we already applied: just re-ack *)
        Obs.Counter.incr m_dup_digests;
        [ Step.Ack (sw.sw_name, dl.list_id) ]
      end
      else begin
        sw.sw_seen <- IntSet.add dl.list_id sw.sw_seen;
        Obs.Counter.incr m_digest_lists;
        match List.assoc_opt dinfo.digest_name t.digest_rel_of_name with
        | None -> [ Step.Ack (sw.sw_name, dl.list_id) ]
        | Some decl ->
          let txn = Engine.transaction t.engine in
          let replace_keys = List.assoc_opt decl.Ast.rname t.digest_replace in
          (* rows inserted earlier in this same transaction, by key:
             the engine query below only sees committed state, so
             intra-batch replacements must be tracked here (one list
             can carry both A@1 and A@2 when polls were delayed) *)
          let pending = ref [] in
          List.iter
            (fun values ->
              let row = Bridge.row_of_digest decl values in
              (match replace_keys with
              | None -> ()
              | Some idxs ->
                let key = List.map (Row.get row) idxs in
                (* last-writer-wins: retract rows agreeing on the keys.
                   The indexed query touches only rows sharing the key,
                   not the whole relation. *)
                List.iter
                  (fun old ->
                    if not (Row.equal old row) then
                      Engine.delete txn decl.Ast.rname old)
                  (Engine.query t.engine decl.Ast.rname ~positions:idxs
                     ~key);
                (match List.assoc_opt key !pending with
                | Some prev when not (Row.equal prev row) ->
                  Engine.delete txn decl.Ast.rname prev
                | _ -> ());
                pending := (key, row) :: List.remove_assoc key !pending);
              Engine.insert txn decl.Ast.rname row;
              Obs.Counter.incr m_digests;
              t.ndigests <- t.ndigests + 1)
            dl.entries;
          let deltas = Engine.commit txn in
          t.ntxns <- t.ntxns + 1;
          Obs.Counter.incr m_txns;
          t.iter_deltas <- merge_deltas t.iter_deltas deltas;
          exchange_capture t deltas;
          write_commands t deltas @ [ Step.Ack (sw.sw_name, dl.list_id) ]
      end)
    dls

(** Process one plane event and return the commands to execute.  The
    step core commits DL transactions and updates controller state but
    performs no transport I/O — every interaction with a peer is
    returned as a {!Step.command} for the driver (or a test harness) to
    execute. *)
let step (t : t) (ev : Step.event) : Step.command list =
  match ev with
  | Step.Monitor_batch batch -> step_monitor_batch t batch
  | Step.Digest_lists (name, dls) -> step_digest_lists t (find_sw t name) dls
  | Step.Switch_down name ->
    let sw = find_sw t name in
    sw.sw_up <- false;
    []
  | Step.Switch_up name ->
    let sw = find_sw t name in
    sw.sw_up <- true;
    (* the switch may have missed writes (or lost state) while away:
       always resynchronise *)
    mark_dirty sw;
    [ Step.Reconcile name ]

(* ---------------- driver: command execution ---------------- *)

(* Send a write batch with bounded retry on transient failures.  The
   backoff is recorded (it would be a sleep on a real channel; the
   in-process links fail deterministically, so waiting adds nothing).
   On a first-attempt rejection the switch state is known-unchanged and
   the error is surfaced; after a transient the same rejection can be
   our own retry colliding with a partially applied batch, so the
   switch is marked dirty for reconciliation instead. *)
(* [first_result], when given, is the already-received outcome of
   attempt 0 — the pipelined batch path sends the Write as part of a
   [send_many] and hands the response here, so retries and rejection
   handling stay identical to the serial path. *)
let write_with_retry ?first_result (t : t) (sw : sw)
    (updates : P4runtime.update list) : unit =
  Obs.Histogram.observe h_write_batch (float_of_int (List.length updates));
  let nentries =
    List.length
      (List.filter
         (fun (u : P4runtime.update) ->
           match u.entity with
           | P4runtime.TableEntry _ -> true
           | P4runtime.MulticastGroupEntry _ -> false)
         updates)
  in
  let rec attempt result n backoff_us =
    let result =
      match result with
      | Some r -> r
      | None -> Transport.send sw.sw_link (P4runtime.Wire.Write updates)
    in
    match result with
    | Ok (P4runtime.Wire.Write_reply (Ok ())) ->
      Obs.Counter.add m_entries nentries;
      t.nentries <- t.nentries + nentries;
      feed_flow_programmer sw updates
    | Ok (P4runtime.Wire.Write_reply (Error msg))
    | Ok (P4runtime.Wire.Error_reply msg) ->
      if n = 0 then error "switch %s rejected updates: %s" sw.sw_name msg
      else mark_dirty sw
    | Ok _ -> error "switch %s: protocol mismatch on write" sw.sw_name
    | Error (Transport.Closed _) ->
      (* link down: the reconnect reconciliation will catch it up *)
      mark_dirty sw
    | Error (Transport.Transient _) ->
      if n + 1 >= t.retry_limit then begin
        Obs.Counter.incr m_retry_gaveup;
        mark_dirty sw
      end
      else begin
        Obs.Counter.incr m_retries;
        Obs.Histogram.observe h_backoff backoff_us;
        attempt None (n + 1) (backoff_us *. 2.)
      end
  in
  attempt first_result 0 100.

(* ---------------- driver: reconnect reconciliation ---------------- *)

exception Recon_fail of string

(* Reconcile a switch against the engine: dump its tables and multicast
   groups over the link, diff them against what the mappings say should
   be installed, and write corrective deletes/inserts.  Any link
   failure aborts the attempt and leaves the switch dirty; the next
   sync retries. *)
let reconcile_sw (t : t) (sw : sw) : unit =
  Obs.Counter.incr m_reconciles;
  Obs.Histogram.time h_reconcile @@ fun () ->
  let send req =
    match Transport.send sw.sw_link req with
    | Ok (P4runtime.Wire.Error_reply msg) -> raise (Recon_fail msg)
    | Ok resp -> resp
    | Error e -> raise (Recon_fail (Transport.error_to_string e))
  in
  match
    (* One pipelined batch covers the whole dump: every table read plus
       the group read go out before the first response is awaited. *)
    let read_results =
      let reqs =
        List.map
          (fun (ti : P4.P4info.table_info) ->
            P4runtime.Wire.Read_table ti.table_id)
          sw.sw_info.tables
        @ [ P4runtime.Wire.Read_groups ]
      in
      List.map
        (function
          | Ok (P4runtime.Wire.Error_reply msg) -> raise (Recon_fail msg)
          | Ok resp -> resp
          | Error e -> raise (Recon_fail (Transport.error_to_string e)))
        (Transport.send_many sw.sw_link reqs)
    in
    let actual_entries, actual_groups =
      match List.rev read_results with
      | P4runtime.Wire.Groups gs :: tables_rev ->
        let entries =
          List.concat_map
            (function
              | P4runtime.Wire.Table es -> es
              | _ -> raise (Recon_fail "protocol mismatch on read_table"))
            (List.rev tables_rev)
        in
        (entries, List.map (fun (g, ps) -> (g, List.sort Int64.compare ps)) gs)
      | _ -> raise (Recon_fail "protocol mismatch on read_groups")
    in
    let desired_entries =
      List.concat_map
        (fun (m : Codegen.mapping) ->
          List.map
            (Bridge.entry_of_row sw.sw_info m)
            (Engine.relation_rows t.engine m.rel_name))
        t.mappings
    in
    let desired_groups =
      match Ast.find_decl t.program "MulticastGroup" with
      | None -> []
      | Some _ ->
        List.fold_left
          (fun acc row ->
            let g = Bridge.as_bit_value (Row.get row 0) in
            let p = Bridge.as_bit_value (Row.get row 1) in
            match List.assoc_opt g acc with
            | Some ps -> (g, p :: ps) :: List.remove_assoc g acc
            | None -> (g, [ p ]) :: acc)
          []
          (Engine.relation_rows t.engine "MulticastGroup")
        |> List.map (fun (g, ps) -> (g, List.sort Int64.compare ps))
    in
    let dels =
      List.filter (fun e -> not (List.mem e desired_entries)) actual_entries
    in
    let inss =
      List.filter (fun e -> not (List.mem e actual_entries)) desired_entries
    in
    let group_fixes =
      List.filter_map
        (fun (g, ports) ->
          if List.assoc_opt g actual_groups = Some ports then None
          else Some (P4runtime.set_multicast ~group:g ~ports))
        desired_groups
      @ List.filter_map
          (fun (g, _) ->
            if List.mem_assoc g desired_groups then None
            else Some (P4runtime.set_multicast ~group:g ~ports:[]))
          actual_groups
    in
    let updates =
      List.map P4runtime.delete dels
      @ List.map P4runtime.insert inss
      @ group_fixes
    in
    if updates <> [] then begin
      Obs.Counter.add m_corrections (List.length updates);
      match send (P4runtime.Wire.Write updates) with
      | P4runtime.Wire.Write_reply (Ok ()) -> feed_flow_programmer sw updates
      | P4runtime.Wire.Write_reply (Error msg) -> raise (Recon_fail msg)
      | _ -> raise (Recon_fail "protocol mismatch on write")
    end
  with
  | () ->
    sw.sw_dirty <- false;
    (* the switch now holds exactly the engine's desired entries, so a
       stale programmer can rebuild from the local switch object *)
    resync_flow_programmer sw
  | exception Recon_fail _ ->
    (* transient: stay dirty, retried at the next sync *)
    mark_dirty sw

(* Consume the switch's answer to an ack.  Once acked, a list is never
   redelivered, so its id leaves the dedup set.  A lost ack leaves the
   list unacked: it will be redelivered and the dedup layer re-acks
   it. *)
let handle_ack_result (sw : sw) list_id result =
  match result with
  | Ok P4runtime.Wire.Acked -> sw.sw_seen <- IntSet.remove list_id sw.sw_seen
  | Ok (P4runtime.Wire.Error_reply msg) ->
    error "switch %s: ack failed: %s" sw.sw_name msg
  | Ok _ -> error "switch %s: protocol mismatch on ack" sw.sw_name
  | Error _ -> ()

let exec_command (t : t) (cmd : Step.command) : unit =
  match cmd with
  | Step.Write (name, updates) -> write_with_retry t (find_sw t name) updates
  | Step.Ack (name, list_id) ->
    let sw = find_sw t name in
    handle_ack_result sw list_id
      (Transport.send sw.sw_link (P4runtime.Wire.Ack list_id))
  | Step.Reconcile name -> reconcile_sw t (find_sw t name)

(* Execute one switch's commands in order.  Runs of consecutive
   Write/Ack commands go over the link as one pipelined batch
   ({!Transport.send_many}); a [Reconcile] breaks the run because it
   issues its own reads and writes.  Per-command semantics match the
   serial path: each Write's first-attempt response feeds
   {!write_with_retry}, and acks tolerate link failure. *)
let req_of_cmd = function
  | Step.Write (_, updates) -> P4runtime.Wire.Write updates
  | Step.Ack (_, list_id) -> P4runtime.Wire.Ack list_id
  | Step.Reconcile _ -> assert false

(* Consume one pipelined result against the command that produced it,
   with the serial path's semantics. *)
let handle_batch_result (t : t) (sw : sw) cmd result =
  match cmd with
  | Step.Write (_, updates) -> write_with_retry ~first_result:result t sw updates
  | Step.Ack (_, list_id) -> handle_ack_result sw list_id result
  | Step.Reconcile _ -> assert false

let exec_sw_cmds (t : t) (cmds : Step.command list) : unit =
  let flush = function
    | [] -> ()
    | [ cmd ] -> exec_command t cmd
    | run ->
      let sw =
        match run with
        | (Step.Write (n, _) | Step.Ack (n, _)) :: _ -> find_sw t n
        | _ -> assert false
      in
      List.iter2
        (handle_batch_result t sw)
        run
        (Transport.send_many sw.sw_link (List.map req_of_cmd run))
  in
  let rec go run = function
    | [] -> flush (List.rev run)
    | (Step.Reconcile _ as cmd) :: rest ->
      flush (List.rev run);
      exec_command t cmd;
      go [] rest
    | cmd :: rest -> go (cmd :: run) rest
  in
  go [] cmds

(* Execute one switch's commands, then poll its digests — the poll
   rides the final pipelined batch, so an iteration that wrote to a
   switch pays no extra round trip for its digest poll.  A trailing
   [Reconcile] (or an empty command list) leaves the poll as its own
   single-request exchange. *)
let exec_sw_cmds_polling (t : t) (sw : sw) (cmds : Step.command list) :
    (P4runtime.Wire.response, Transport.error) result =
  (* split at the last Reconcile: the prefix runs as usual, the
     trailing Write/Ack run shares its batch with the poll *)
  let tail_run, prefix =
    let rec take acc = function
      | ((Step.Write _ | Step.Ack _) as c) :: rest -> take (c :: acc) rest
      | rest -> (acc, List.rev rest)
    in
    take [] (List.rev cmds)
  in
  exec_sw_cmds t prefix;
  let reqs = List.map req_of_cmd tail_run @ [ P4runtime.Wire.Poll_digests ] in
  let rec split_last acc = function
    | [ last ] -> (List.rev acc, last)
    | r :: rest -> split_last (r :: acc) rest
    | [] -> assert false
  in
  let cmd_results, poll =
    split_last [] (Transport.send_many sw.sw_link reqs)
  in
  List.iter2 (handle_batch_result t sw) tail_run cmd_results;
  poll

(* Execute a step's commands one switch at a time, in the order each
   switch first appears, keeping each switch's own command order: a
   switch's consecutive writes and acks then share one pipelined
   batch. *)
let exec_commands t cmds =
  match cmds with
  | [] -> ()
  | [ cmd ] -> exec_command t cmd
  | cmds ->
    let sw_of = function
      | Step.Write (n, _) | Step.Ack (n, _) | Step.Reconcile n -> n
    in
    (* Group by switch, keeping first-appearance switch order and
       per-switch command order. *)
    let order = ref [] and by_sw = Hashtbl.create 8 in
    List.iter
      (fun cmd ->
        let name = sw_of cmd in
        match Hashtbl.find_opt by_sw name with
        | Some r -> r := cmd :: !r
        | None ->
          order := name :: !order;
          Hashtbl.add by_sw name (ref [ cmd ]))
      cmds;
    List.iter
      (fun name -> exec_sw_cmds t (List.rev !(Hashtbl.find by_sw name)))
      (List.rev !order)

(* ---------------- driver: monitor resync ---------------- *)

(* Apply a management-plane snapshot: for every OVSDB-backed input
   relation, diff the snapshot's rows against the engine's current
   contents and commit the correction as ONE transaction.  Digest-fed
   input relations are untouched — they are data-plane state, not
   database contents.  Only a non-empty correction counts as a
   transaction (so a clean resync leaves [sync]'s quiescence
   undisturbed). *)
let apply_resync (t : t) (snap : Ovsdb.Db.table_updates) : unit =
  let txn = Engine.transaction t.engine in
  let ncorr = ref 0 in
  List.iter
    (fun (table, decl) ->
      let want =
        match List.assoc_opt table snap with
        | None -> []
        | Some rows ->
          List.filter_map
            (fun (uuid, (upd : Ovsdb.Db.row_update)) ->
              Option.map (Bridge.row_of_ovsdb decl uuid) upd.after)
            rows
      in
      let have = Engine.relation_rows t.engine decl.Ast.rname in
      List.iter
        (fun row ->
          if not (List.exists (Row.equal row) want) then begin
            incr ncorr;
            Engine.delete txn decl.Ast.rname row
          end)
        have;
      List.iter
        (fun row ->
          if not (List.exists (Row.equal row) have) then begin
            incr ncorr;
            Engine.insert txn decl.Ast.rname row
          end)
        want)
    t.input_rel_of_table;
  let deltas = Engine.commit txn in
  Obs.Counter.add m_resync_corr !ncorr;
  if deltas <> [] then begin
    t.ntxns <- t.ntxns + 1;
    Obs.Counter.incr m_txns;
    t.iter_deltas <- merge_deltas t.iter_deltas deltas;
    exec_commands t (write_commands t deltas)
  end

(* Re-request the database's full state and correct the engine's inputs
   (the ROADMAP's monitor resync).  On success the link's pending
   connectivity edges are discarded: the snapshot was taken over the
   fresh connection, so the reconnect it may have raised is already
   accounted for.  On failure the link stays dirty and the next
   iteration (or sync) retries. *)
let mgmt_resync (t : t) : unit =
  Obs.Counter.incr m_resyncs;
  match Transport.send t.mgmt Links.Resync with
  | Ok (Links.Snapshot snap) ->
    ignore (Transport.events t.mgmt);
    apply_resync t snap;
    t.mgmt_dirty <- false
  | Ok _ -> error "management link: protocol mismatch on resync"
  | Error _ -> ()

(* ---------------- driver: cross-shard exchange ---------------- *)

(* Apply signed (shard, rel, row text, ±1) exchange deltas to the
   engine as one transaction.  An insert is the freshest information
   about its key, so it displaces whatever same-key rows the engine
   holds — retracting our own claim toward the fleet, suppressing a
   peer's.  A retraction removes the row only when the retracting
   peer's claim is the one the engine is actually carrying. *)
let exchange_apply (t : t) (xs : xstate)
    (deltas : (int * string * string * int) list) : unit =
  let deltas =
    List.filter (fun (_, rel, _, _) -> Hashtbl.mem xs.x_rels rel) deltas
  in
  if deltas <> [] then begin
    let txn = Engine.transaction t.engine in
    (* same-key rows inserted earlier in this same transaction: the
       engine query below only sees committed state *)
    let fresh = Hashtbl.create 8 in
    let displace rel row old =
      if not (Row.equal old row) then begin
        Engine.delete txn rel old;
        let otext = Xrel.row_text old in
        if Hashtbl.mem xs.x_local (rel, otext) then begin
          Hashtbl.remove xs.x_local (rel, otext);
          xs.x_queue <- (rel, otext, -1) :: xs.x_queue
        end
        else
          List.iter
            (fun (s, _) ->
              match Hashtbl.find_opt xs.x_mirror (s, rel, otext) with
              | Some c -> c.xm_active <- false
              | None -> ())
            xs.xc.ex_peers
      end
    in
    List.iter
      (fun (shard, rel, text, w) ->
        let row =
          try Xrel.row_of_text t.program rel text
          with Failure msg -> error "exchange: %s" msg
        in
        if w > 0 then begin
          (match List.assoc_opt rel t.digest_replace with
          | None -> ()
          | Some idxs ->
            let key = List.map (Row.get row) idxs in
            List.iter (displace rel row)
              (Engine.query t.engine rel ~positions:idxs ~key);
            (match Hashtbl.find_opt fresh (rel, key) with
            | Some prev -> displace rel row prev
            | None -> ());
            Hashtbl.replace fresh (rel, key) row);
          Engine.insert txn rel row;
          Obs.Counter.incr m_xrows_in;
          Hashtbl.replace xs.x_mirror (shard, rel, text)
            { xm_row = row; xm_active = true }
        end
        else
          match Hashtbl.find_opt xs.x_mirror (shard, rel, text) with
          | None -> ()
          | Some c ->
            Hashtbl.remove xs.x_mirror (shard, rel, text);
            if c.xm_active && not (Hashtbl.mem xs.x_local (rel, text)) then
              Engine.delete txn rel row)
      deltas;
    let ds = Engine.commit txn in
    if ds <> [] then begin
      t.ntxns <- t.ntxns + 1;
      Obs.Counter.incr m_txns;
      t.iter_deltas <- merge_deltas t.iter_deltas ds;
      exec_commands t (write_commands t ds)
    end
  end

(* Full snapshot resync against one peer's store (first contact, and
   any reconnect edge): diff the snapshot against the mirror and apply
   only the difference.  A row present on both sides is untouched —
   in particular a suppressed claim is not re-applied, so state we
   deliberately displaced cannot resurrect through a resync. *)
let exchange_resync (t : t) (xs : xstate) (shard : int)
    (link : Links.mgmt_link) : unit =
  Obs.Counter.incr m_xresyncs;
  match Transport.send link Links.Resync with
  | Ok (Links.Snapshot snap) ->
    ignore (Transport.events link);
    let present = Hashtbl.create 64 in
    List.iter
      (fun (s, rel, text, w) ->
        if s = shard && w > 0 then Hashtbl.replace present (rel, text) ())
      (Xrel.deltas_of_updates snap);
    let gone =
      Hashtbl.fold
        (fun (s, rel, text) _ acc ->
          if s = shard && not (Hashtbl.mem present (rel, text)) then
            (s, rel, text, -1) :: acc
          else acc)
        xs.x_mirror []
    in
    let fresh =
      Hashtbl.fold
        (fun (rel, text) () acc ->
          if Hashtbl.mem xs.x_mirror (shard, rel, text) then acc
          else (shard, rel, text, 1) :: acc)
        present []
    in
    exchange_apply t xs (gone @ fresh);
    Hashtbl.replace xs.x_peer_dirty shard false
  | Ok _ -> error "exchange link: protocol mismatch on resync"
  | Error _ -> () (* stays dirty; retried next iteration *)

(* Push queued publications to our own shard's store.  A reconnect
   edge on the publish link escalates to a reset-publish of the full
   local contribution set: the store may be a freshly restarted
   daemon's (our incremental deltas would be meaningless there) or may
   still hold a previous incarnation's rows, which the reset clears —
   stale state cannot survive a controller restart. *)
let flush_publish (xs : xstate) : unit =
  if List.mem Transport.Connected (Transport.events xs.xc.ex_publish) then
    xs.x_pub_dirty <- true;
  if xs.x_pub_dirty || xs.x_queue <> [] then begin
    let reset = xs.x_pub_dirty in
    let deltas =
      if reset then
        Hashtbl.fold
          (fun (rel, text) _ acc -> (rel, text, 1) :: acc)
          xs.x_local []
      else List.rev xs.x_queue
    in
    let order = ref [] and by_rel = Hashtbl.create 4 in
    List.iter
      (fun (rel, text, w) ->
        match Hashtbl.find_opt by_rel rel with
        | Some r -> r := (text, w) :: !r
        | None ->
          order := rel :: !order;
          Hashtbl.add by_rel rel (ref [ (text, w) ]))
      deltas;
    let pub_rows =
      List.rev_map (fun rel -> (rel, List.rev !(Hashtbl.find by_rel rel))) !order
    in
    match
      Transport.send xs.xc.ex_publish
        (Links.Publish
           { Links.pub_shard = xs.xc.ex_shard; pub_reset = reset; pub_rows })
    with
    | Ok Links.Pub_ok ->
      Obs.Counter.incr m_xpublishes;
      Obs.Counter.add m_xrows_out (List.length deltas);
      xs.x_queue <- [];
      (* if this send itself reconnected, an incremental publish may
         have landed on a fresh store: reset on the next flush *)
      xs.x_pub_dirty <-
        (not reset)
        && List.mem Transport.Connected (Transport.events xs.xc.ex_publish)
    | Ok _ -> error "exchange link: protocol mismatch on publish"
    | Error _ -> () (* queue kept; retried next iteration *)
  end

(* One exchange round, run every sync iteration: ingest every peer
   (incremental poll, or snapshot resync on first contact and after
   any reconnect edge), then flush our own queued publications. *)
let exchange_step (t : t) : unit =
  match t.exchange with
  | None -> ()
  | Some xs ->
    List.iter
      (fun (shard, link) ->
        if List.mem Transport.Connected (Transport.events link) then
          Hashtbl.replace xs.x_peer_dirty shard true;
        if Hashtbl.find_opt xs.x_peer_dirty shard = Some true then
          exchange_resync t xs shard link
        else
          match Transport.send link Links.Poll_monitor with
          | Ok (Links.Batches bs) ->
            if List.mem Transport.Connected (Transport.events link) then begin
              (* the poll straddled a reconnect: distrust it *)
              Hashtbl.replace xs.x_peer_dirty shard true;
              exchange_resync t xs shard link
            end
            else
              List.iter
                (fun b ->
                  exchange_apply t xs
                    (List.filter
                       (fun (s, _, _, _) -> s = shard)
                       (Xrel.deltas_of_updates b)))
                bs
          | Ok _ -> error "exchange link: protocol mismatch on poll"
          | Error _ -> Hashtbl.replace xs.x_peer_dirty shard true)
      xs.xc.ex_peers;
    flush_publish xs

(* ---------------- construction ---------------- *)

(* Generate + parse + assemble the program and resolve the relation
   maps — everything [create] and [connect] share. *)
let prepare ~(schema : Ovsdb.Schema.t) ~(p4 : P4.Program.t)
    ~(rules : string) ~digest_replace () =
  let generated = Codegen.generate ~schema ~p4 in
  let user =
    match Parser.parse_program rules with
    | Ok p -> p
    | Error msg -> error "rules do not parse: %s" msg
  in
  let program = Codegen.assemble generated user in
  let engine = Engine.create program in
  let input_rel_of_table =
    List.map
      (fun (t : Ovsdb.Schema.table) ->
        match Ast.find_decl program (Codegen.camel t.tname) with
        | Some d -> (t.tname, d)
        | None -> error "missing generated relation for table %s" t.tname)
      schema.tables
  in
  let digest_rel_of_name =
    List.map
      (fun (dname, rname) ->
        match Ast.find_decl program rname with
        | Some d -> (dname, d)
        | None -> error "missing generated relation for digest %s" dname)
      generated.digest_rels
  in
  let digest_replace =
    List.map
      (fun (dname, key_cols) ->
        match List.assoc_opt dname digest_rel_of_name with
        | None -> error "digest_replace: unknown digest %s" dname
        | Some decl ->
          let index_of c =
            let rec go i = function
              | [] -> error "digest_replace: %s has no column %s" dname c
              | (name, _) :: rest -> if String.equal name c then i else go (i + 1) rest
            in
            go 0 decl.Ast.cols
          in
          (decl.Ast.rname, List.map index_of key_cols))
      digest_replace
  in
  (program, engine, generated.Codegen.mappings, input_rel_of_table,
   digest_rel_of_name, digest_replace)

(* Resolve an {!Endpoint.transport} into a management link.  [local]
   lazily creates the in-process monitor, so a fully remote endpoint
   never registers one. *)
let resolve_mgmt (tr : Endpoint.transport)
    ~(local : (Ovsdb.Db.t * Ovsdb.Db.monitor) Lazy.t option) :
    Links.mgmt_link * Transport.ctl option =
  let rec go = function
    | Endpoint.In_process -> (
      match local with
      | Some l ->
        let db, mon = Lazy.force l in
        (Links.direct_mgmt db mon, None)
      | None ->
        error "endpoint: In_process management plane needs a local database")
    | Endpoint.Wire -> (
      match local with
      | Some l ->
        let db, mon = Lazy.force l in
        (Links.wire_mgmt db mon, None)
      | None -> error "endpoint: Wire management plane needs a local database")
    | Endpoint.Socket { addr; codec; auth } ->
      (Links.socket_mgmt ~codec ?auth ~addr (), None)
    | Endpoint.Faulty { seed; faults; inner } ->
      let link, _inner_ctl = go inner in
      let link, ctl = Transport.faulty ~seed ?faults link in
      (link, Some ctl)
  in
  go tr

let resolve_p4 (tr : Endpoint.transport) ~(name : string)
    ~(local : P4runtime.server option) :
    Links.p4_link * Transport.ctl option =
  let rec go = function
    | Endpoint.In_process -> (
      match local with
      | Some srv -> (Links.direct_p4 srv, None)
      | None ->
        error "endpoint: In_process plane for switch %s needs a local switch"
          name)
    | Endpoint.Wire -> (
      match local with
      | Some srv -> (Links.wire_p4 srv, None)
      | None ->
        error "endpoint: Wire plane for switch %s needs a local switch" name)
    | Endpoint.Socket { addr; codec; auth } ->
      (Links.socket_p4 ~codec ?auth ~addr (), None)
    | Endpoint.Faulty { seed; faults; inner } ->
      let link, _inner_ctl = go inner in
      let link, ctl = Transport.faulty ~seed ?faults link in
      (link, Some ctl)
  in
  go tr

let check_limits ~max_iterations ~retry_limit =
  if max_iterations <= 0 then
    error "max_iterations must be positive (got %d)" max_iterations;
  if retry_limit <= 0 then
    error "retry_limit must be positive (got %d)" retry_limit

(* Initial exchange bookkeeping: every digest-fed input relation is
   exchanged; every peer starts dirty (first contact is a snapshot
   resync) and the first publish resets, clearing any rows a previous
   incarnation of this shard left in the store. *)
let make_xstate (exchange : exchange option) digest_rel_of_name :
    xstate option =
  Option.map
    (fun xc ->
      let x_rels = Hashtbl.create 4 in
      List.iter
        (fun (_, (d : Ast.rel_decl)) -> Hashtbl.replace x_rels d.Ast.rname ())
        digest_rel_of_name;
      let x_peer_dirty = Hashtbl.create 4 in
      List.iter (fun (s, _) -> Hashtbl.replace x_peer_dirty s true) xc.ex_peers;
      {
        xc;
        x_rels;
        x_local = Hashtbl.create 64;
        x_mirror = Hashtbl.create 64;
        x_queue = [];
        x_pub_dirty = true;
        x_peer_dirty;
      })
    exchange

(** Build a controller around in-process plane objects.  [rules] is the
    user-written DL program text (rules plus optional internal relation
    declarations); everything else is generated.  [endpoint] names each
    plane's transport (default {!Endpoint.in_process}); [exchange]
    attaches the controller to a sharded fleet's cross-shard relation
    exchange.  [max_iterations] bounds the digest feedback loop in
    {!sync}. *)
let create ?(digest_replace = []) ?(max_iterations = 1000) ?(retry_limit = 8)
    ?(endpoint = Endpoint.in_process) ?exchange
    ~(db : Ovsdb.Db.t) ~(p4 : P4.Program.t)
    ~(rules : string) ~(switches : (string * P4.Switch.t) list) () : t =
  check_limits ~max_iterations ~retry_limit;
  let ep = Endpoint.planes_exn endpoint in
  let schema = db.Ovsdb.Db.schema in
  let program, engine, mappings, input_rel_of_table, digest_rel_of_name,
      digest_replace =
    prepare ~schema ~p4 ~rules ~digest_replace ()
  in
  let local_mgmt =
    lazy
      ( db,
        Ovsdb.Db.add_monitor db
          (List.map
             (fun (t : Ovsdb.Schema.table) -> (t.tname, None))
             schema.tables) )
  in
  let mgmt, mgmt_ctl =
    resolve_mgmt ep.Endpoint.mgmt ~local:(Some local_mgmt)
  in
  let p4_ctls = ref [] in
  let sws =
    List.map
      (fun (n, sw) ->
        let srv = P4runtime.attach sw in
        let link, ctl =
          resolve_p4 (ep.Endpoint.p4_of n) ~name:n ~local:(Some srv)
        in
        (match ctl with
        | Some c -> p4_ctls := (n, c) :: !p4_ctls
        | None -> ());
        {
          sw_name = n;
          sw_link = link;
          sw_info = P4runtime.info srv;
          sw_up = true;
          sw_dirty = false;
          sw_seen = IntSet.empty;
          sw_fp = None;
        })
      switches
  in
  {
    mgmt;
    mgmt_ctl;
    mgmt_dirty = false;
    p4_ctls = !p4_ctls;
    engine;
    program;
    mappings;
    input_rel_of_table;
    digest_rel_of_name;
    exchange = make_xstate exchange digest_rel_of_name;
    sws;
    digest_replace;
    max_iterations;
    retry_limit;
    ntxns = 0;
    nentries = 0;
    ndigests = 0;
    ngroups = 0;
    iter_deltas = [];
  }

(** Build a controller whose planes all live in {e another} process:
    every transport in [endpoint] must bottom out in a socket.  The
    database schema and P4 program are passed explicitly (the peer's
    copies must match — the codecs fail loudly on drift); switch
    identities are just names resolved through [endpoint.p4_of].  The
    controller starts dirty on the management plane, so the first
    {!sync} resyncs against the server's state rather than assuming an
    empty database. *)
let connect ?(digest_replace = []) ?(max_iterations = 1000)
    ?(retry_limit = 8) ?exchange ~(endpoint : Endpoint.t)
    ~(schema : Ovsdb.Schema.t) ~(p4 : P4.Program.t) ~(rules : string)
    ~(switch_names : string list) () : t =
  check_limits ~max_iterations ~retry_limit;
  let ep = Endpoint.planes_exn endpoint in
  if not (Endpoint.is_remote ep.Endpoint.mgmt) then
    error "connect: management transport %s is not a socket"
      (Endpoint.transport_to_string ep.Endpoint.mgmt);
  List.iter
    (fun n ->
      if not (Endpoint.is_remote (ep.Endpoint.p4_of n)) then
        error "connect: transport %s for switch %s is not a socket"
          (Endpoint.transport_to_string (ep.Endpoint.p4_of n))
          n)
    switch_names;
  let program, engine, mappings, input_rel_of_table, digest_rel_of_name,
      digest_replace =
    prepare ~schema ~p4 ~rules ~digest_replace ()
  in
  let mgmt, mgmt_ctl = resolve_mgmt ep.Endpoint.mgmt ~local:None in
  let sw_info = P4.P4info.of_program p4 in
  let p4_ctls = ref [] in
  let sws =
    List.map
      (fun n ->
        let link, ctl = resolve_p4 (ep.Endpoint.p4_of n) ~name:n ~local:None in
        (match ctl with
        | Some c -> p4_ctls := (n, c) :: !p4_ctls
        | None -> ());
        {
          sw_name = n;
          sw_link = link;
          sw_info;
          sw_up = true;
          sw_dirty = true;  (* unknown remote state: reconcile first *)
          sw_seen = IntSet.empty;
          sw_fp = None;
        })
      switch_names
  in
  {
    mgmt;
    mgmt_ctl;
    mgmt_dirty = true;  (* unknown remote state: resync first *)
    p4_ctls = !p4_ctls;
    engine;
    program;
    mappings;
    input_rel_of_table;
    digest_rel_of_name;
    exchange = make_xstate exchange digest_rel_of_name;
    sws;
    digest_replace;
    max_iterations;
    retry_limit;
    ntxns = 0;
    nentries = 0;
    ndigests = 0;
    ngroups = 0;
    iter_deltas = [];
  }

(* ---------------- the synchronisation loop ---------------- *)

let drain_connectivity (t : t) : unit =
  List.iter
    (fun sw ->
      List.iter
        (fun e ->
          let ev =
            match e with
            | Transport.Connected -> Step.Switch_up sw.sw_name
            | Transport.Disconnected -> Step.Switch_down sw.sw_name
          in
          exec_commands t (step t ev))
        (Transport.events sw.sw_link))
    t.sws

(** Process all pending management-plane changes and data-plane digests
    until the system is quiescent.  Returns the number of DL
    transactions committed during this call. *)
let sync (t : t) : int =
  Obs.Counter.incr m_syncs;
  Obs.Histogram.time h_sync @@ fun () ->
  let before = t.ntxns in
  (* Digest polling drains per sync: every switch is polled in the
     first iteration (and a poll rides free on any iteration where the
     switch received commands), then re-polled only while its previous
     poll kept returning digests.  An empty — or failed — poll means
     nothing is queued at the switch, so the quiescence check rests on
     the management poll alone; a digest arriving mid-sync is simply
     picked up by the next sync, as any digest raised after the last
     poll always was. *)
  let want_poll : (string, bool) Hashtbl.t = Hashtbl.create 8 in
  (* Monitor polls pair up: each management round trip carries two
     pipelined [Poll_monitor]s, the first consumed by this iteration,
     the second stashed for the next.  Sound because the engine never
     writes to the management database — processing an iteration
     cannot create new monitor batches, so the stashed (slightly
     earlier) response only narrows the window in which a concurrent
     external transaction lands in this sync instead of the next, a
     race inherent to any polling cadence.  The stash is discarded
     whenever the link is marked dirty: a resync supersedes it. *)
  let stashed_poll = ref None in
  let poll_monitor () =
    match !stashed_poll with
    | Some r ->
      stashed_poll := None;
      r
    | None -> (
      match
        Transport.send_many t.mgmt [ Links.Poll_monitor; Links.Poll_monitor ]
      with
      | [ r1; r2 ] ->
        stashed_poll := Some r2;
        r1
      | _ -> error "management link: bad pipelined poll arity")
  in
  let rec loop fuel =
    if fuel = 0 then begin
      let changing =
        match t.iter_deltas with
        | [] -> "(no relation deltas recorded)"
        | l ->
          String.concat ", "
            (List.map
               (fun (rel, z) ->
                 Printf.sprintf "%s (%d rows)" rel (Zset.cardinal z))
               l)
      in
      error
        "sync did not quiesce after %d iterations (feedback loop?); \
         still changing in the last iteration: %s"
        t.max_iterations changing
    end;
    Obs.Counter.incr m_iterations;
    t.iter_deltas <- [];
    let txns0 = t.ntxns in
    drain_connectivity t;
    (* Management plane.  A reconnect edge or a failed poll means
       monitor batches may have been lost; rather than skipping (which
       silently dropped configuration), mark the link dirty and repair
       by resync.  A poll that itself reconnected is also untrusted:
       its response straddles two monitors, so discard it and resync. *)
    if List.mem Transport.Connected (Transport.events t.mgmt) then
      t.mgmt_dirty <- true;
    if t.mgmt_dirty then begin
      stashed_poll := None;
      mgmt_resync t
    end;
    let batches =
      if t.mgmt_dirty then []
      else
        match poll_monitor () with
        | Ok (Links.Batches bs) ->
          if List.mem Transport.Connected (Transport.events t.mgmt) then begin
            t.mgmt_dirty <- true;
            stashed_poll := None;
            mgmt_resync t;
            []
          end
          else bs
        | Ok _ -> error "management link: protocol mismatch on poll"
        | Error _ ->
          t.mgmt_dirty <- true;
          stashed_poll := None;
          mgmt_resync t;
          []
    in
    Obs.Counter.add m_monitor_batches (List.length batches);
    (* Step every batch first — [step] reads only the engine and the
       batch, never switch state, so the steps can run back-to-back —
       then execute the accumulated commands per switch with this
       iteration's digest poll appended to each switch's final
       pipelined batch: writes and poll share one round trip.  Every
       switch is polled, even one currently down (on an in-process
       faulty link each attempt advances the reconnect clock, and a
       down link just answers [Closed]), and the responses then feed
       the step core in fixed switch order. *)
    let cmds =
      List.concat_map (fun batch -> step t (Step.Monitor_batch batch)) batches
    in
    let by_sw = Hashtbl.create 8 in
    List.iter
      (fun cmd ->
        let name =
          match cmd with
          | Step.Write (n, _) | Step.Ack (n, _) | Step.Reconcile n -> n
        in
        match Hashtbl.find_opt by_sw name with
        | Some r -> r := cmd :: !r
        | None -> Hashtbl.add by_sw name (ref [ cmd ]))
      cmds;
    let sws = Array.of_list t.sws in
    let polls =
      Array.map
        (fun sw ->
          let cmds =
            match Hashtbl.find_opt by_sw sw.sw_name with
            | Some r -> List.rev !r
            | None -> []
          in
          let wanted =
            match Hashtbl.find_opt want_poll sw.sw_name with
            | Some b -> b
            | None -> true (* first iteration: always poll *)
          in
          if cmds = [] && not wanted then None
          else Some (exec_sw_cmds_polling t sw cmds))
        sws
    in
    Array.iteri
      (fun i result ->
        let sw = sws.(i) in
        match result with
        | None -> () (* drained in an earlier iteration *)
        | Some result -> (
          Hashtbl.replace want_poll sw.sw_name
            (match result with
            | Ok (P4runtime.Wire.Digests (_ :: _)) -> true
            | _ -> false);
          match result with
          | Ok (P4runtime.Wire.Digests []) -> ()
          | Ok (P4runtime.Wire.Digests dls) ->
            exec_commands t (step t (Step.Digest_lists (sw.sw_name, dls)))
          | Ok (P4runtime.Wire.Error_reply msg) ->
            error "switch %s: digest poll failed: %s" sw.sw_name msg
          | Ok _ ->
            error "switch %s: protocol mismatch on digest poll" sw.sw_name
          | Error _ -> () (* digests stay queued at the switch *)))
      polls;
    (* Cross-shard exchange: publish what this iteration learned,
       ingest what the peers learned.  Applied peer rows commit
       transactions, so the quiescence check keeps iterating until
       the fleet's inputs stop moving. *)
    exchange_step t;
    if t.ntxns > txns0 then loop (fuel - 1)
  in
  loop t.max_iterations;
  (* Edges raised by the last round of polls (e.g. a reconnect observed
     by the final digest poll) would otherwise wait for the next sync. *)
  drain_connectivity t;
  List.iter
    (fun sw -> if sw.sw_up && sw.sw_dirty then reconcile_sw t sw)
    t.sws;
  t.ntxns - before

(** Force a full reconciliation of one switch (by name). *)
let reconcile (t : t) (name : string) : unit = reconcile_sw t (find_sw t name)

(* ---------------- incremental flow programming ---------------- *)

let attach_flow_programmer (t : t) (name : string) (psw : P4.Switch.t)
    ~(push : Ofp4.Openflow.flow_delta -> unit) : unit =
  let sw = find_sw t name in
  sw.sw_fp <-
    Some
      {
        fp_switch = psw;
        fp_state = Ofp4.Compile.State.create psw;
        fp_push = push;
        fp_stale = false;
      }

let flow_pipeline (t : t) (name : string) : Ofp4.Openflow.t option =
  match (find_sw t name).sw_fp with
  | None -> None
  | Some fp -> Some (Ofp4.Compile.State.flows fp.fp_state)

(** Force a management-plane resync on the next sync. *)
let mark_mgmt_dirty (t : t) : unit = t.mgmt_dirty <- true

(** Fault-injection handles, when the endpoint wrapped a plane in
    [Faulty]. *)
let mgmt_ctl (t : t) : Transport.ctl option = t.mgmt_ctl
let p4_ctl (t : t) (name : string) : Transport.ctl option =
  List.assoc_opt name t.p4_ctls

(** Canonical byte dump of one switch's forwarding state, read over its
    link: every table's entries (sorted) in the wire encoding, plus the
    multicast groups.  Byte-comparable across processes and transports
    — the convergence tests' equality oracle.
    @raise Controller_error on a link failure. *)
let dump_switch (t : t) (name : string) : string =
  let sw = find_sw t name in
  (* Pipeline every read of the dump in one batch; the dump text itself
     stays in the JSON encoding so it is byte-comparable regardless of
     which wire codec carried the reads. *)
  let read_results =
    let reqs =
      List.map
        (fun (ti : P4.P4info.table_info) ->
          P4runtime.Wire.Read_table ti.table_id)
        sw.sw_info.tables
      @ [ P4runtime.Wire.Read_groups ]
    in
    List.map
      (function
        | Ok (P4runtime.Wire.Error_reply msg) -> error "dump %s: %s" name msg
        | Ok resp -> resp
        | Error e -> error "dump %s: %s" name (Transport.error_message e))
      (Transport.send_many sw.sw_link reqs)
  in
  let entries, groups =
    match List.rev read_results with
    | P4runtime.Wire.Groups gs :: tables_rev ->
      let entries =
        List.concat_map
          (function
            | P4runtime.Wire.Table es -> es
            | _ -> error "dump %s: protocol mismatch on read_table" name)
          (List.rev tables_rev)
      in
      ( entries,
        List.sort compare
          (List.map (fun (g, ps) -> (g, List.sort Int64.compare ps)) gs) )
    | _ -> error "dump %s: protocol mismatch on read_groups" name
  in
  P4runtime.Wire.encode_response
    (P4runtime.Wire.Table (List.sort compare entries))
  ^ "\n"
  ^ P4runtime.Wire.encode_response (P4runtime.Wire.Groups groups)

(** Direct access to the engine, for inspection in tests and examples. *)
let engine (t : t) = t.engine

(** Canonical text dump of one engine relation, sorted — the
    cross-shard convergence tests' per-relation equality oracle. *)
let relations (t : t) : string list = Engine.relations t.engine

let relation_dump (t : t) (rel : string) : string list =
  List.sort String.compare
    (List.map Row.to_string (Engine.relation_rows t.engine rel))

(** This controller's own counts (independent of the process-global Obs
    registry and of whether collection is enabled). *)
let stats (t : t) =
  {
    txns = t.ntxns;
    entries_written = t.nentries;
    digests_consumed = t.ndigests;
    groups_updated = t.ngroups;
  }

(** Pre-flight report: output relations no rule writes and digest
    relations no rule reads — usually authoring mistakes. *)
let preflight (t : t) : string list =
  let written rel =
    List.exists (fun (r : Ast.rule) -> String.equal r.head.hrel rel)
      t.program.rules
  in
  let read rel =
    List.exists
      (fun (r : Ast.rule) ->
        List.exists (fun (dep, _) -> String.equal dep rel)
          (Ast.body_dependencies r))
      t.program.rules
  in
  List.filter_map
    (fun (d : Ast.rel_decl) ->
      match d.role with
      | Ast.Output
        when (not (written d.rname))
             && not
                  (List.exists
                     (fun (m : Codegen.mapping) ->
                       String.equal m.rel_name d.rname && m.is_default)
                     t.mappings) ->
        Some (Printf.sprintf "output relation %s has no rules" d.rname)
      | Ast.Input
        when List.exists (fun (_, dd) -> dd == d) t.digest_rel_of_name
             && not (read d.rname) ->
        Some (Printf.sprintf "digest relation %s is never read" d.rname)
      | _ -> None)
    t.program.decls
