(* The config-change slice every workload shares, and the per-layer
   figures read around it.

   Untraced, a step only times one change.  Traced, every other change
   runs with Obs and spans off (the baseline of trace.overhead_ratio);
   the others run traced, and around each the benchmark reads the
   spans' layer times, the dl.commit time Obs recorded inside it, and
   the Obs counters of the processes involved. *)

open Meter

let local_counters =
  [ "dl.commit.count"; "dl.commit.output_rows"; "nerpa.sync.iterations";
    "nerpa.entries_written"; "nerpa.flow.rules"; "transport.socket.msgs";
    "transport.socket.bytes" ]

(* [remote] reads a counter of the process that hosts the database and
   the switches, when that is not this one. *)
let remote_counters = [ "ovsdb.monitor.batches"; "server.requests" ]

(* The slice, and the function that sets its metrics once it ran. *)
let change_slice r ?remote ~budget ~min ~max ~warmup (f : int -> float option) :
    slice * (unit -> unit) =
  let remote = Option.value remote ~default:counter in
  let base = Samples.create () in
  let txns = Samples.create () and syncs = Samples.create () and patches = Samples.create () in
  let selfs = Samples.create () and covers = Samples.create () in
  let sums = Hashtbl.create 16 and words_used = ref 0. and traced = ref 0 in
  let add name d = Hashtbl.replace sums name (d + Option.value ~default:0 (Hashtbl.find_opt sums name)) in
  let step i =
    if (not r.trace) || i < warmup then f i
    else if i mod 2 = 0 then begin
      Obs.set_enabled false;
      Trace.on := false;
      let res = f i in
      Obs.set_enabled true;
      Trace.on := true;
      Option.iter (Samples.add base) res;
      None
    end
    else begin
      Trace.new_change ();
      let c0 = List.map counter local_counters and rc0 = List.map remote remote_counters in
      let dl0 = hist_sum "dl.commit" and w0 = words () in
      let res = f i in
      let dl = hist_sum "dl.commit" -. dl0 and w = words () -. w0 in
      let rc1 = List.map remote remote_counters in
      (match res with
      | Some us ->
        incr traced;
        words_used := !words_used +. w;
        List.iter2 (fun n c -> add n (counter n - c)) local_counters c0;
        List.iter2 (fun (n, c) c' -> add n (c' - c)) (List.combine remote_counters rc0) rc1;
        let t = Trace.in_change in
        let txn = t "ovsdb.transact" and sync = t "nerpa.sync" and patch = t "ofp4.apply_delta" in
        Samples.add txns txn;
        Samples.add syncs sync;
        Samples.add patches patch;
        Samples.add selfs (sync -. dl -. patch);
        Samples.add covers ((txn +. sync +. t "bench.pipe") /. us)
      | None -> ());
      res
    end
  in
  let s = slice "change" ~budget ~min ~max ~warmup step in
  let finish () =
    if not r.trace then begin
      set r "change_p50_us" "us" (Samples.pct s.samples 0.5);
      set r "change_p90_us" "us" (Samples.pct s.samples 0.9)
    end
    else begin
      let pc name = per (float_of_int (Option.value ~default:0 (Hashtbl.find_opt sums name))) !traced in
      set r "ovsdb.txn_us" "us" (Samples.median txns);
      set r "ovsdb.batches_per_change" "count" (pc "ovsdb.monitor.batches");
      set r "server.requests_per_change" "count" (pc "server.requests");
      set r "dl.commit_us" "us" (hist_pct "dl.commit" 0.5);
      set r "dl.commit_p90_us" "us" (hist_pct "dl.commit" 0.9);
      set r "dl.commits_per_change" "count" (pc "dl.commit.count");
      set r "dl.rows_out_per_change" "count" (pc "dl.commit.output_rows");
      set r "nerpa.sync_us" "us" (Samples.median syncs);
      set r "nerpa.sync_self_us" "us" (Samples.median selfs);
      set r "nerpa.iterations_per_change" "count" (pc "nerpa.sync.iterations");
      set r "nerpa.entries_per_change" "count" (pc "nerpa.entries_written");
      set r "ofp4.patch_us" "us" (Samples.median patches);
      set r "ofp4.rules_per_change" "count" (pc "nerpa.flow.rules");
      set r "transport.msgs_per_change" "count" (pc "transport.socket.msgs");
      set r "transport.bytes_per_change" "B" (pc "transport.socket.bytes");
      set r "gc.words_per_change" "words" (per !words_used !traced);
      set r "trace.overhead_ratio" "1" (Samples.median s.raw /. Samples.median base);
      set r "trace.cover_ratio" "1" (Samples.median covers)
    end
  in
  (s, finish)
