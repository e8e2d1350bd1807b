(* The benchmark's entry point: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is the result:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}} with
   the end-to-end metrics of BENCHMARK.json when untraced and its
   per-layer metrics when traced.  The traced run also writes its spans
   and per-layer table to .bench_out/.  Workloads and metrics are
   described in DESIGN.md. *)

open Meter

let workloads =
  [ ("fib_churn", Fib_churn.run); ("fabric_3shard", Fabric.run);
    ("snvs_socket", Snvs_socket.run) ]

(* (name, unit) of each metric in one list of BENCHMARK.json *)
let metrics_of key =
  let json = Ovsdb.Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  List.map
    (fun m ->
      let field f = Ovsdb.Json.to_string_exn (Option.get (Ovsdb.Json.member f m)) in
      (field "name", field "unit"))
    (Ovsdb.Json.to_list_exn (Option.get (Ovsdb.Json.member key json)))

let usage () =
  prerr_endline
    ("usage: main.exe --workload "
    ^ String.concat "|" (List.map fst workloads)
    ^ " --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec args = function
    | "--workload" :: w :: rest -> workload := w; args rest
    | "--seed" :: n :: rest -> seed := int_of_string n; args rest
    | "--seconds" :: n :: rest -> seconds := float_of_string n; args rest
    | "--trace" :: n :: rest -> trace := n = "1"; args rest
    | [] -> ()
    | _ -> usage ()
  in
  (try args (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run_workload =
    match List.assoc_opt !workload workloads with Some f -> f | None -> usage ()
  in
  let wanted = metrics_of (if !trace then "per_layer" else "end_to_end") in
  fix_gc ();
  Obs.set_enabled false;
  Trace.on := !trace;
  let r = create_run ~seed:!seed ~seconds:!seconds ~trace:!trace in
  (try run_workload r
   with e -> fail r ("workload aborted: " ^ Printexc.to_string e));
  if !trace then begin
    List.iter
      (fun (name, _) ->
        if String.starts_with ~prefix:"loc." name then
          set r name "lines" (float_of_int (Loc.count (String.sub name 4 (String.length name - 4)))))
      wanted;
    set r "fail_ratio" "1" (per (float_of_int r.failed) r.attempted)
  end;
  (* a per-layer metric the workload has no layer for reads 0; an
     end-to-end metric is never 0, so a 0 there is a lost measurement *)
  let value name =
    match Hashtbl.find_opt r.metrics name with
    | Some (v, _) when Float.is_finite v && (!trace || v > 0.) -> v
    | Some (v, _) -> fail r (Printf.sprintf "%s reads %g" name v); 0.
    | None when !trace -> 0.
    | None -> fail r (name ^ " was not measured"); 0.
  in
  let table =
    Ovsdb.Json.Obj
      (List.map
         (fun (n, u) -> (n, Ovsdb.Json.Obj [ ("value", Float (value n)); ("unit", String u) ]))
         wanted)
  in
  List.iter (fun m -> prerr_endline ("perfbench: " ^ m)) (List.rev r.notes);
  Printf.eprintf "perfbench: calibration kernel p10=%.4g p50=%.4g p90=%.4g us (nominal %g)\n"
    (Samples.pct calibrations 0.1) (Samples.median calibrations)
    (Samples.pct calibrations 0.9) nominal_us;
  if !trace then begin
    (try Unix.mkdir ".bench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Trace.write (Printf.sprintf ".bench_out/trace-%s-%d.json" !workload !seed) ~table
  end;
  print_endline
    (Ovsdb.Json.to_string
       (Obj
          [ ("correct", Bool (r.failed = 0)); ("attempted", Int (Int64.of_int (max 1 r.attempted)));
            ("failed", Int (Int64.of_int r.failed)); ("metrics", table) ]))
