(* Unit tests for Dl.Value, Dl.Dtype and Dl.Row interning. *)

open Dl

let v_testable = Alcotest.testable Value.pp Value.equal

let test_bit_masking () =
  Alcotest.check v_testable "mask to width" (Value.bit 4 0x5L) (Value.bit 4 0xF5L);
  Alcotest.check v_testable "width 64 unchanged"
    (Value.VBit (64, -1L)) (Value.bit 64 (-1L));
  Alcotest.check_raises "width 0 rejected"
    (Invalid_argument "Value.bit: width out of range") (fun () ->
      ignore (Value.bit 0 1L))

let test_compare_total_order () =
  let values =
    [ Value.VBool false; Value.VBool true; Value.of_int 1; Value.bit 8 3L;
      Value.of_string "a"; Value.VTuple [| Value.of_int 1 |];
      Value.VOption None; Value.VOption (Some (Value.of_int 1));
      Value.VVec [ Value.of_int 2 ]; Value.VMap [ (Value.of_int 1, Value.of_int 2) ] ]
  in
  (* Reflexivity and antisymmetry on a cross product. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          Alcotest.(check bool) "antisymmetric" true (c1 = -c2 || (c1 = 0 && c2 = 0)))
        values;
      Alcotest.(check int) "reflexive" 0 (Value.compare a a))
    values

let test_compare_int_vs_bit () =
  (* Ints and bit vectors are distinct values even with equal payloads. *)
  Alcotest.(check bool) "int <> bit" false
    (Value.equal (Value.of_int 5) (Value.bit 8 5L));
  Alcotest.(check bool) "bit widths distinguish" false
    (Value.equal (Value.bit 8 5L) (Value.bit 9 5L))

let test_map_ops () =
  let m =
    Value.map_insert (Value.of_int 2) (Value.of_string "b")
      (Value.map_insert (Value.of_int 1) (Value.of_string "a") [])
  in
  Alcotest.check v_testable "find existing"
    (Value.of_string "a")
    (Option.get (Value.map_find (Value.of_int 1) m));
  Alcotest.(check bool) "find missing" true
    (Value.map_find (Value.of_int 3) m = None);
  let m' = Value.map_insert (Value.of_int 1) (Value.of_string "z") m in
  Alcotest.check v_testable "overwrite"
    (Value.of_string "z")
    (Option.get (Value.map_find (Value.of_int 1) m'));
  Alcotest.(check int) "overwrite keeps size" 2 (List.length m');
  Alcotest.(check int) "remove" 1
    (List.length (Value.map_remove (Value.of_int 1) m'))

let test_map_sorted_invariant () =
  let m =
    List.fold_left
      (fun m i -> Value.map_insert (Value.of_int i) (Value.of_int (i * 10)) m)
      [] [ 5; 1; 3; 2; 4 ]
  in
  let keys = List.map (fun (k, _) -> k) m in
  Alcotest.(check bool) "keys sorted" true
    (List.sort Value.compare keys = keys)

let test_pp_roundtrippable_forms () =
  Alcotest.(check string) "bit" "12'd255" (Value.to_string (Value.bit 12 255L));
  Alcotest.(check string) "tuple" "(1, true)"
    (Value.to_string (Value.VTuple [| Value.of_int 1; Value.VBool true |]));
  Alcotest.(check string) "string quoted" "\"x\\\"y\""
    (Value.to_string (Value.of_string "x\"y"))

let test_dtype_check () =
  let open Dtype in
  Alcotest.(check bool) "bit width match" true (check (TBit 4) (Value.bit 4 1L));
  Alcotest.(check bool) "bit width mismatch" false (check (TBit 4) (Value.bit 5 1L));
  Alcotest.(check bool) "tuple" true
    (check (TTuple [ TInt; TBool ])
       (Value.VTuple [| Value.of_int 1; Value.VBool true |]));
  Alcotest.(check bool) "tuple arity" false
    (check (TTuple [ TInt ]) (Value.VTuple [| Value.of_int 1; Value.VBool true |]));
  Alcotest.(check bool) "vec elements" false
    (check (TVec TInt) (Value.VVec [ Value.of_int 1; Value.VBool true ]));
  Alcotest.(check bool) "option none always fits" true
    (check (TOption TString) (Value.VOption None))

let test_dtype_default () =
  let open Dtype in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Format.asprintf "default inhabits %a" pp t)
        true
        (check t (default t)))
    [ TBool; TInt; TBit 7; TString; TTuple [ TInt; TBool ]; TOption TInt;
      TVec TString; TMap (TInt, TBool) ]

let test_dtype_unify () =
  let open Dtype in
  Alcotest.(check bool) "any unifies" true
    (unify (TVec TAny) (TVec TInt) = Some (TVec TInt));
  Alcotest.(check bool) "mismatch fails" true (unify TInt TBool = None);
  Alcotest.(check bool) "bit widths" true (unify (TBit 3) (TBit 4) = None)

(* ---------------- rows: hash-consed interning ---------------- *)

let vi = Value.of_int
let vs = Value.of_string

let test_row_intern_canonical () =
  let a = Row.intern [| vi 1; vs "x" |] in
  let b = Row.of_list [ vi 1; vs "x" ] in
  Alcotest.(check bool) "equal values intern to one row" true (a == b);
  Alcotest.(check int) "one id" (Row.id a) (Row.id b);
  Alcotest.(check bool) "Row.equal" true (Row.equal a b);
  Alcotest.(check int) "cached hash" (Row.hash a) (Row.hash b);
  let c = Row.intern [| vi 1; vs "y" |] in
  Alcotest.(check bool) "distinct values, distinct rows" false (a == c);
  Alcotest.(check bool) "distinct ids" true (Row.id a <> Row.id c);
  Alcotest.(check bool) "structural order" true (Row.compare a c < 0);
  let wide = Row.intern [| vi 7; vs "x"; vi 1 |] in
  Alcotest.(check bool) "project interns its sub-row" true
    (Row.project wide [| 2; 1 |] == a)

(* Thousands of rows land in every shard of the intern table: each
   live row keeps a unique id, and re-interning finds the same row. *)
let test_row_ids_unique () =
  let n = 5000 in
  let key i = [| vi i; vs (string_of_int (i mod 7)) |] in
  let rows = Array.init n (fun i -> Row.intern (key i)) in
  let ids = Hashtbl.create n in
  Array.iter
    (fun r ->
      if Hashtbl.mem ids (Row.id r) then
        Alcotest.failf "id %d given to two live rows" (Row.id r);
      Hashtbl.add ids (Row.id r) ())
    rows;
  Array.iteri
    (fun i r ->
      if not (Row.intern (key i) == r) then
        Alcotest.failf "row %d not canonical on re-intern" i)
    rows;
  Alcotest.(check int) "one id per row" n (Hashtbl.length ids)

(* The intern table is weak: rows nothing else holds may be collected,
   but a live row survives a major collection as the canonical row for
   its values, and rows interned after it never take its id. *)
let test_row_gc_reintern () =
  let key i = [| vi i; vs "garbage" |] in
  let live = Row.intern [| vi 424242; vs "live" |] in
  let live_id = Row.id live in
  for i = 0 to 9999 do
    ignore (Row.intern (key i))
  done;
  Gc.full_major ();
  Alcotest.(check bool) "a live row survives collection" true
    (Row.intern [| vi 424242; vs "live" |] == live);
  Alcotest.(check int) "with its id" live_id (Row.id live);
  let fresh = Array.init 10000 (fun i -> Row.intern (key i)) in
  Array.iteri
    (fun i r ->
      if Row.id r = live_id then
        Alcotest.failf "re-interned row %d took the live row's id" i;
      if not (Row.intern (key i) == r) then
        Alcotest.failf "re-interned row %d not canonical" i)
    fresh

let tests =
  [
    Alcotest.test_case "bit masking" `Quick test_bit_masking;
    Alcotest.test_case "total order" `Quick test_compare_total_order;
    Alcotest.test_case "int vs bit" `Quick test_compare_int_vs_bit;
    Alcotest.test_case "map operations" `Quick test_map_ops;
    Alcotest.test_case "map sorted invariant" `Quick test_map_sorted_invariant;
    Alcotest.test_case "pretty printing" `Quick test_pp_roundtrippable_forms;
    Alcotest.test_case "dtype check" `Quick test_dtype_check;
    Alcotest.test_case "dtype default" `Quick test_dtype_default;
    Alcotest.test_case "dtype unify" `Quick test_dtype_unify;
    Alcotest.test_case "row interning is canonical" `Quick
      test_row_intern_canonical;
    Alcotest.test_case "row ids unique among live rows" `Quick
      test_row_ids_unique;
    Alcotest.test_case "live rows survive collection" `Quick
      test_row_gc_reintern;
  ]
