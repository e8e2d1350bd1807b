(* The measurement kit shared by every workload: the monotonic clock,
   sample sets, closed-loop phases, spans around the benchmark's calls
   into each layer, Obs reads, and the run record the result line is
   printed from. *)

let now () : int64 = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)
let us_since t0 = ns_since t0 /. 1e3

(* ---------------- sample sets ---------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let sum t = Array.fold_left ( +. ) 0. (Array.sub t.a 0 t.n)

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s

  (* nearest rank, the same definition Obs uses *)
  let pct t p = Obs.Histogram.percentile_of_sorted (sorted t) p
  let median t = pct t 0.5
end

(* ---------------- the run record ---------------- *)

type run = {
  seed : int;
  seconds : float;
  trace : bool;
  t_start : int64;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (* one line per failure, to stderr *)
  metrics : (string, float * string) Hashtbl.t;
}

let create_run ~seed ~seconds ~trace =
  { seed; seconds; trace; t_start = now (); attempted = 0; failed = 0;
    notes = []; metrics = Hashtbl.create 64 }

let set r name unit_ v = Hashtbl.replace r.metrics name (v, unit_)

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.notes < 20 then r.notes <- msg :: r.notes

(* One counted operation: an exception is a failed operation, never a
   crashed run. *)
let attempt r what f =
  r.attempted <- r.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    fail r (Printf.sprintf "%s: %s" what (Printexc.to_string e));
    None

(* One counted output check. *)
let check r what ok =
  r.attempted <- r.attempted + 1;
  if not ok then fail r ("check failed: " ^ what)

let elapsed_s r = ns_since r.t_start /. 1e9

(* Every run must end well inside the 180 s limit whatever the host:
   slices stop taking samples past this point, and a slice left short
   of its minimum counts as a failed check. *)
let hard_limit_s = 120.

(* ---------------- phases ---------------- *)

(* Fixed GC parameters, so allocation-heavy phases see the same minor
   heap on every run. *)
let fix_gc () =
  Gc.set
    { (Gc.get ()) with
      minor_heap_size = 1 lsl 20;
      space_overhead = 120 }

(* ---------------- host speed ---------------- *)

(* The host's speed drifts by tens of percent over seconds (other
   tenants share its cores), and a fixed kernel's timing drifts with it.
   So every timed sample is scaled to a reference speed: right before
   it, [calibrate] times a fixed kernel, and the sample is multiplied by
   [nominal_us] over the kernel's time (a rate by the inverse).  The
   kernel hashes, allocates and builds a list, as the stack does: a
   kernel that only computes tracked the packet and restart paths
   worse.  [nominal_us] is about its time on the 2-core host the bounds
   were set on, so values read as microseconds there; the raw values go
   to standard error. *)
let nominal_us = 4200.

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 20000 do
    Hashtbl.replace h (i * 7919 mod 4096) (string_of_int i)
  done;
  let l = ref [] in
  for i = 0 to 20000 do
    l := i :: !l
  done;
  List.length !l + Hashtbl.length h

let calibrations = Samples.create ()

let calibrate () =
  let xs = Samples.create () in
  for _ = 1 to 5 do
    (* an empty minor heap: the kernel's garbage never reaches the
       major heap, so the program's heap size does not move it *)
    Gc.minor ();
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    Samples.add xs (us_since t0)
  done;
  let c = Samples.median xs in
  Samples.add calibrations c;
  c

let scale_time c x = x *. nominal_us /. c
let scale_rate c x = x *. c /. nominal_us

let summary name ~n ~secs (raw : Samples.t) (s : Samples.t) =
  let q = Samples.pct s and rq = Samples.pct raw in
  Printf.eprintf "perfbench: %-8s n=%-6d %6.2fs  p10=%.4g p50=%.4g p90=%.4g max=%.4g  (raw p50=%.4g p90=%.4g)\n%!"
    name n secs (q 0.1) (q 0.5) (q 0.9) (q 1.) (rq 0.5) (rq 0.9)

(* setup_s: [reps] cold starts, each after a compaction and a
   calibration, timed and scaled; the median is the metric and the last
   start's result is kept.  [release] drops a start's result before the
   next one, untimed. *)
let cold_starts r ~reps ?(release = ignore) (f : int -> 'a) : 'a =
  let s = Samples.create () and raw = Samples.create () in
  let t_all = now () in
  let last = ref None in
  for i = 1 to reps do
    Option.iter release !last;
    last := None;
    Gc.compact ();
    Obs.reset ();
    let c = calibrate () in
    let t0 = now () in
    let x = f i in
    let secs = ns_since t0 /. 1e9 in
    Samples.add raw secs;
    Samples.add s (scale_time c secs);
    last := Some x
  done;
  summary "setup" ~n:reps ~secs:(ns_since t_all /. 1e9) raw s;
  set r "setup_s" "s" (Samples.median s);
  Option.get !last

(* Interleaved phases.  The host's speed drifts over seconds, so a
   phase run in one block measures whatever the host did in that block;
   spreading every phase over [rounds] rounds of the run makes each
   metric sample the whole run instead.  Each slice calibrates the host
   speed before its turn in each round and scales its samples by it.
   [after_warmup] runs once every slice has taken its warm-up steps and
   before the first round: a fixed amount of work, where figures that
   would grow with the number of timed steps are read. *)
type slice = {
  name : string;
  budget : float;  (* seconds over the whole run *)
  smin : int;  (* samples at least, over the whole run *)
  smax : int;
  warmup : int;  (* unrecorded steps before the first round *)
  step : int -> float option;  (* step [i]; [None]: no sample *)
  rate : bool;  (* samples are rates, not times *)
  samples : Samples.t;  (* scaled *)
  raw : Samples.t;
  mutable i : int;
}

let slice ?(max = max_int) ?(warmup = 0) ?(rate = false) name ~budget ~min step =
  { name; budget; smin = min; smax = max; warmup; step; rate; samples = Samples.create ();
    raw = Samples.create (); i = 0 }

let rounds = 20

let interleave ?(after_warmup = ignore) r (slices : slice list) =
  Gc.compact ();
  List.iter
    (fun s ->
      for _ = 1 to s.warmup do
        ignore (s.step s.i);
        s.i <- s.i + 1
      done)
    slices;
  after_warmup ();
  let spent = Hashtbl.create 8 in
  for k = 1 to rounds do
    List.iter
      (fun s ->
        let c = calibrate () in
        let t0 = now () in
        let want = s.smin * k / rounds in
        let secs = s.budget /. float_of_int rounds in
        while
          Samples.count s.samples < s.smax
          && (ns_since t0 /. 1e9 < secs || Samples.count s.samples < want)
          && elapsed_s r < hard_limit_s
        do
          (match s.step s.i with
          | Some x ->
            Samples.add s.raw x;
            Samples.add s.samples ((if s.rate then scale_rate else scale_time) c x)
          | None -> ());
          s.i <- s.i + 1
        done;
        Hashtbl.replace spent s.name
          (ns_since t0 /. 1e9 +. Option.value ~default:0. (Hashtbl.find_opt spent s.name)))
      slices
  done;
  List.iter
    (fun s ->
      let n = Samples.count s.samples in
      summary s.name ~n ~secs:(Hashtbl.find spent s.name) s.raw s.samples;
      check r (Printf.sprintf "%s took %d samples, at least %d" s.name n s.smin) (n >= s.smin))
    slices

(* ---------------- spans ---------------- *)

(* Spans around the benchmark's own calls into each layer.  Off in the
   measuring runs, where [span] is a plain call; in the traced run every
   span is kept in memory (name, start, end, parent, change id) and its
   duration is also summed per change, so a change's layer times can be
   subtracted from each other. *)
module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;
    change : int;
    t0 : int64;
    t1 : int64;
  }

  let on = ref false
  let spans : span list ref = ref []
  let nspans = ref 0
  let next_id = ref 1
  let parent = ref 0
  let change = ref 0
  let per_change : (string, float) Hashtbl.t = Hashtbl.create 16
  let by_name : (string, Samples.t) Hashtbl.t = Hashtbl.create 16
  let max_kept = 200_000

  let add_time name us =
    Hashtbl.replace per_change name
      (us +. Option.value ~default:0. (Hashtbl.find_opt per_change name));
    let s =
      match Hashtbl.find_opt by_name name with
      | Some s -> s
      | None ->
        let s = Samples.create () in
        Hashtbl.replace by_name name s;
        s
    in
    Samples.add s us

  let record name id par t0 t1 =
    if !nspans < max_kept then begin
      spans := { id; name; parent = par; change = !change; t0; t1 } :: !spans;
      incr nspans
    end;
    add_time name (Int64.to_float (Int64.sub t1 t0) /. 1e3)

  let span name f =
    if not !on then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let par = !parent in
      parent := id;
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          let t1 = now () in
          parent := par;
          record name id par t0 t1)
        f
    end

  (* Start a new change: a fresh id and empty per-change sums. *)
  let new_change () =
    incr change;
    Hashtbl.reset per_change

  (* A layer time measured outside this process (the daemon's own
     timing of its OVSDB transaction), kept like a span's duration. *)
  let note name us = if !on then add_time name us

  let in_change name =
    Option.value ~default:0. (Hashtbl.find_opt per_change name)

  let samples name =
    match Hashtbl.find_opt by_name name with
    | Some s -> s
    | None -> Samples.create ()

  (* The per-layer table and the spans, written when the run ends. *)
  let write path ~(table : Ovsdb.Json.t) =
    let int i = Ovsdb.Json.Int (Int64.of_int i) in
    let span_json s =
      Ovsdb.Json.Obj
        [ ("id", int s.id); ("name", String s.name); ("parent", int s.parent);
          ("change", int s.change); ("start_ns", Int s.t0); ("end_ns", Int s.t1) ]
    in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc
          (Ovsdb.Json.to_string
             (Obj [ ("per_layer", table); ("spans", List (List.rev_map span_json !spans)) ])))
end

let span = Trace.span

(* ---------------- Obs reads ---------------- *)

let counter = Obs.counter_value

let hist_sum name =
  match Obs.find_histogram name with Some h -> Obs.Histogram.sum h | None -> 0.

let hist_pct name p =
  match Obs.find_histogram name with
  | Some h -> Obs.Histogram.percentile h p
  | None -> 0.

(* Words allocated so far by this process. *)
let words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* heap_peak_mb: the process's peak major heap so far.  Read it after
   fixed-count work only (setup and warm-ups): after a time-bounded
   slice it would grow with how many steps the slice fit. *)
let record_heap r =
  let s = Gc.quick_stat () in
  set r "heap_peak_mb" "MB" (float_of_int (s.top_heap_words * (Sys.word_size / 8)) /. 1048576.)

let per x n = if n <= 0 then 0. else x /. float_of_int n

(* Seeded generator for the benchmark's own inputs. *)
let rng seed tag = Random.State.make [| seed; tag |]
