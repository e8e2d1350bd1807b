(* Unit tests for the observability subsystem: nearest-rank percentile
   correctness against known quantiles, registry behaviour, the global
   kill switch, and the JSON rendering. *)

let check_float msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

(* ---------------- percentile_of_sorted ---------------- *)

let test_percentile_known_quantiles () =
  (* 1..100: nearest-rank pN is exactly N *)
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50 of 1..100" 50.0 (Obs.Histogram.percentile_of_sorted a 0.50);
  check_float "p90 of 1..100" 90.0 (Obs.Histogram.percentile_of_sorted a 0.90);
  check_float "p99 of 1..100" 99.0 (Obs.Histogram.percentile_of_sorted a 0.99);
  check_float "p100 of 1..100" 100.0 (Obs.Histogram.percentile_of_sorted a 1.0);
  (* p=0 clamps to the first rank *)
  check_float "p0 of 1..100" 1.0 (Obs.Histogram.percentile_of_sorted a 0.0)

let test_percentile_small_samples () =
  (* The bug the shared implementation fixes: floor(p*n) indexing gave
     p50 of [1.; 2.] = 2.; nearest rank ceil(0.5 * 2) = 1 gives 1. *)
  check_float "p50 of [1;2]" 1.0
    (Obs.Histogram.percentile_of_sorted [| 1.0; 2.0 |] 0.50);
  check_float "p51 of [1;2]" 2.0
    (Obs.Histogram.percentile_of_sorted [| 1.0; 2.0 |] 0.51);
  check_float "p50 of [7]" 7.0 (Obs.Histogram.percentile_of_sorted [| 7.0 |] 0.5);
  check_float "p50 of [1;2;3]" 2.0
    (Obs.Histogram.percentile_of_sorted [| 1.0; 2.0; 3.0 |] 0.50);
  check_float "empty" 0.0 (Obs.Histogram.percentile_of_sorted [||] 0.5)

let test_histogram_stats () =
  Obs.reset ();
  let h = Obs.Histogram.create ~unit_:"us" "test.hist.stats" in
  for i = 1 to 100 do
    Obs.Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Obs.Histogram.count h);
  check_float "sum" 5050.0 (Obs.Histogram.sum h);
  check_float "mean" 50.5 (Obs.Histogram.mean h);
  check_float "min" 1.0 (Obs.Histogram.min_value h);
  check_float "max" 100.0 (Obs.Histogram.max_value h);
  check_float "p50" 50.0 (Obs.Histogram.percentile h 0.50);
  check_float "p99" 99.0 (Obs.Histogram.percentile h 0.99)

(* ---------------- counters, gauges, registry ---------------- *)

let test_counter_and_registry () =
  Obs.reset ();
  let c = Obs.Counter.create "test.counter" in
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "value" 5 (Obs.Counter.value c);
  Alcotest.(check int) "by name" 5 (Obs.counter_value "test.counter");
  Alcotest.(check int) "absent name" 0 (Obs.counter_value "test.no.such");
  (* find-or-create returns the same underlying counter *)
  let c' = Obs.Counter.create "test.counter" in
  Obs.Counter.incr c';
  Alcotest.(check int) "shared" 6 (Obs.Counter.value c);
  (* name collisions across kinds are rejected *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Obs: test.counter is registered as a counter, not a histogram")
    (fun () -> ignore (Obs.Histogram.create "test.counter"));
  let g = Obs.Gauge.create "test.gauge" in
  Obs.Gauge.set g 2.5;
  check_float "gauge" 2.5 (Obs.gauge_value "test.gauge")

let test_kill_switch () =
  Obs.reset ();
  let c = Obs.Counter.create "test.gated.counter" in
  let h = Obs.Histogram.create "test.gated.hist" in
  Obs.set_enabled false;
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  Obs.Histogram.observe h 1.0;
  let r = Obs.span "test.gated.span" (fun () -> 42) in
  Obs.set_enabled true;
  Alcotest.(check int) "span still runs f" 42 r;
  Alcotest.(check int) "counter gated" 0 (Obs.Counter.value c);
  Alcotest.(check int) "hist gated" 0 (Obs.Histogram.count h);
  Alcotest.(check int) "gated span not recorded" 0
    (Obs.counter_value "test.gated.span");
  (* re-enabled: everything records again *)
  Obs.Counter.incr c;
  ignore (Obs.span "test.enabled.span" (fun () -> ()));
  Alcotest.(check int) "counter live" 1 (Obs.Counter.value c);
  (match Obs.find_histogram "test.enabled.span" with
  | Some h -> Alcotest.(check int) "span recorded" 1 (Obs.Histogram.count h)
  | None -> Alcotest.fail "span histogram not registered")

let test_span_records_on_raise () =
  Obs.reset ();
  (try Obs.span "test.raising.span" (fun () -> failwith "boom")
   with Failure _ -> ());
  match Obs.find_histogram "test.raising.span" with
  | Some h ->
    Alcotest.(check int) "recorded despite raise" 1 (Obs.Histogram.count h)
  | None -> Alcotest.fail "span histogram not registered"

let test_reset () =
  let c = Obs.Counter.create "test.reset.counter" in
  let h = Obs.Histogram.create "test.reset.hist" in
  Obs.Counter.add c 7;
  Obs.Histogram.observe h 3.0;
  Obs.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Obs.Counter.value c);
  Alcotest.(check int) "hist zeroed" 0 (Obs.Histogram.count h);
  check_float "hist max zeroed" 0.0 (Obs.Histogram.max_value h);
  (* handles stay usable after reset *)
  Obs.Counter.incr c;
  Alcotest.(check int) "counter live after reset" 1 (Obs.Counter.value c)

let test_render_json () =
  Obs.reset ();
  let c = Obs.Counter.create "test.json.counter" in
  Obs.Counter.add c 3;
  let h = Obs.Histogram.create "test.json.hist" in
  Obs.Histogram.observe h 2.0;
  let s = Obs.render_json () in
  Alcotest.(check bool) "one line" false (String.contains s '\n');
  Alcotest.(check bool) "object" true
    (String.length s >= 2 && s.[0] = '{' && s.[String.length s - 1] = '}');
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter value" true
    (contains "\"test.json.counter\":3");
  Alcotest.(check bool) "hist object" true (contains "\"count\":1");
  Alcotest.(check bool) "no inf/nan leakage" false
    (contains "inf" || contains "nan")

(* Server handler threads record into the shared registry, so
   recording must stay exact under concurrency: several domains hammer
   one counter and one histogram. *)
let test_counter_hammer () =
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
  let c = Obs.Counter.create "test.obs.counter_hammer" in
  let base = Obs.Counter.value c in
  let n_domains = 4 and per_domain = 100_000 in
  let domains =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Counter.incr c
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int)
    "exact count after 4 domains x 100k increments"
    (base + (n_domains * per_domain))
    (Obs.Counter.value c)

let test_histogram_hammer () =
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
  let h = Obs.Histogram.create "test.obs.hist_hammer" in
  let n_domains = 4 and per_domain = 25_000 in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Histogram.observe h (float_of_int ((d * per_domain) + i))
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int)
    "exact observation count"
    (n_domains * per_domain)
    (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "exact min" 1.0 (Obs.Histogram.min_value h);
  Alcotest.(check (float 0.0))
    "exact max"
    (float_of_int (n_domains * per_domain))
    (Obs.Histogram.max_value h);
  (* A percentile query racing nothing must see a coherent snapshot. *)
  Alcotest.(check bool)
    "median within observed range" true
    (let p50 = Obs.Histogram.percentile h 50.0 in
     p50 >= 1.0 && p50 <= float_of_int (n_domains * per_domain))

let tests =
  [
    Alcotest.test_case "percentile: known quantiles" `Quick
      test_percentile_known_quantiles;
    Alcotest.test_case "percentile: small samples" `Quick
      test_percentile_small_samples;
    Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
    Alcotest.test_case "counter + registry" `Quick test_counter_and_registry;
    Alcotest.test_case "kill switch" `Quick test_kill_switch;
    Alcotest.test_case "span records on raise" `Quick
      test_span_records_on_raise;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "render_json" `Quick test_render_json;
    Alcotest.test_case "4-domain counter hammer is exact" `Quick
      test_counter_hammer;
    Alcotest.test_case "4-domain histogram hammer is exact" `Quick
      test_histogram_hammer;
  ]
