(* Unit tests for the OVSDB substrate: datum codec, schema validation,
   transactions, constraints, monitors, and the JSON-RPC layer. *)

open Ovsdb

let datum_testable = Alcotest.testable Datum.pp Datum.equal

(* A small schema used throughout: ports with VLANs plus a stats table. *)
let port_schema =
  Schema.make ~name:"TestDB" ~version:"1.0.0"
    [
      Schema.table "Port"
        ~indexes:[ [ "name" ] ]
        [
          Schema.column "name" (Otype.scalar Otype.AString);
          Schema.column "vlan"
            (Otype.
               {
                 key = base ~min_int:(Some 0L) ~max_int:(Some 4095L) AInteger;
                 value = None;
                 min = 1;
                 max = Limit 1;
               });
          Schema.column "trunk" (Otype.set (Otype.base Otype.AInteger));
          Schema.column "options"
            (Otype.map (Otype.base Otype.AString) (Otype.base Otype.AString));
          Schema.column "kind" (Otype.string_enum [ "access"; "trunk" ]);
        ];
      Schema.table "Mirror"
        [
          Schema.column "name" (Otype.scalar Otype.AString);
          Schema.column "port"
            Otype.
              {
                key = base ~ref_table:(Some "Port") AUuid;
                value = None;
                min = 0;
                max = Limit 1;
              };
        ];
    ]

let mk_port ?(vlan = 10L) ?(kind = "access") name =
  [
    ("name", Datum.string name);
    ("vlan", Datum.integer vlan);
    ("kind", Datum.string kind);
  ]

(* ---------------- datum ---------------- *)

let test_datum_canonicalisation () =
  let a = Datum.set [ Atom.Integer 3L; Atom.Integer 1L; Atom.Integer 3L ] in
  let b = Datum.set [ Atom.Integer 1L; Atom.Integer 3L ] in
  Alcotest.check datum_testable "sets canonicalise" b a;
  let m1 = Datum.map [ (Atom.String "b", Atom.Integer 2L); (Atom.String "a", Atom.Integer 1L) ] in
  (match m1 with
  | Datum.Map ((Atom.String "a", _) :: _) -> ()
  | _ -> Alcotest.fail "map not sorted");
  Alcotest.(check bool) "scalar accessor" true
    (Datum.as_integer (Datum.integer 7L) = Some 7L);
  Alcotest.(check bool) "scalar accessor fails on set" true
    (Datum.as_integer (Datum.set [ Atom.Integer 1L; Atom.Integer 2L ]) = None)

let test_datum_json_roundtrip () =
  let samples =
    [
      Datum.integer 5L;
      Datum.string "x";
      Datum.boolean true;
      Datum.real 2.5;
      Datum.uuid (Uuid.fresh ());
      Datum.set [ Atom.Integer 1L; Atom.Integer 2L ];
      Datum.empty_set;
      Datum.map [ (Atom.String "k", Atom.String "v") ];
      Datum.empty_map;
    ]
  in
  List.iter
    (fun d ->
      match Datum.of_json (Json.of_string (Json.to_string (Datum.to_json d))) with
      | Ok d' -> Alcotest.check datum_testable (Datum.to_string d) d d'
      | Error e -> Alcotest.fail e)
    samples

let test_otype_check () =
  let vlan_ty =
    Otype.
      {
        key = base ~min_int:(Some 0L) ~max_int:(Some 4095L) AInteger;
        value = None;
        min = 1;
        max = Limit 1;
      }
  in
  Alcotest.(check bool) "in range" true
    (Otype.check vlan_ty (Datum.integer 100L) = Ok ());
  Alcotest.(check bool) "above range" true
    (Result.is_error (Otype.check vlan_ty (Datum.integer 5000L)));
  Alcotest.(check bool) "wrong type" true
    (Result.is_error (Otype.check vlan_ty (Datum.string "x")));
  Alcotest.(check bool) "missing scalar" true
    (Result.is_error (Otype.check vlan_ty Datum.empty_set));
  let enum_ty = Otype.string_enum [ "a"; "b" ] in
  Alcotest.(check bool) "enum ok" true (Otype.check enum_ty (Datum.string "a") = Ok ());
  Alcotest.(check bool) "enum bad" true
    (Result.is_error (Otype.check enum_ty (Datum.string "z")));
  let bounded = Otype.set ~max:(Otype.Limit 2) (Otype.base Otype.AInteger) in
  Alcotest.(check bool) "cardinality" true
    (Result.is_error
       (Otype.check bounded
          (Datum.set [ Atom.Integer 1L; Atom.Integer 2L; Atom.Integer 3L ])))

(* ---------------- schema ---------------- *)

let test_schema_validation () =
  Alcotest.(check bool) "good schema" true (Schema.validate port_schema = Ok ());
  let dup =
    Schema.make ~name:"D" ~version:"1"
      [ Schema.table "T" [ Schema.column "a" (Otype.scalar Otype.AInteger) ];
        Schema.table "T" [ Schema.column "a" (Otype.scalar Otype.AInteger) ] ]
  in
  Alcotest.(check bool) "duplicate table" true (Result.is_error (Schema.validate dup));
  let bad_index =
    Schema.make ~name:"D" ~version:"1"
      [ Schema.table "T" ~indexes:[ [ "nope" ] ]
          [ Schema.column "a" (Otype.scalar Otype.AInteger) ] ]
  in
  Alcotest.(check bool) "bad index" true
    (Result.is_error (Schema.validate bad_index));
  let bad_ref =
    Schema.make ~name:"D" ~version:"1"
      [ Schema.table "T"
          [ Schema.column "r"
              Otype.
                { key = base ~ref_table:(Some "Missing") AUuid;
                  value = None; min = 0; max = Limit 1 } ] ]
  in
  Alcotest.(check bool) "bad ref" true (Result.is_error (Schema.validate bad_ref))

(* ---------------- transactions ---------------- *)

let test_insert_select () =
  let db = Db.create port_schema in
  let u1 = Db.insert_exn db "Port" (mk_port "p1") in
  let _u2 = Db.insert_exn db "Port" (mk_port ~vlan:20L "p2") in
  Alcotest.(check int) "two rows" 2 (Db.row_count db "Port");
  let row = Option.get (Db.get_row db "Port" u1) in
  Alcotest.check datum_testable "stored name" (Datum.string "p1")
    (Db.column_value row "name");
  Alcotest.check datum_testable "default trunk" Datum.empty_set
    (Db.column_value row "trunk");
  (* select with condition *)
  match Db.transact_exn db [ Db.Select { table = "Port"; where = [ Db.eq "vlan" (Datum.integer 20L) ]; columns = Some [ "name" ] } ] with
  | [ Db.RRows [ (_, row) ] ] ->
    Alcotest.check datum_testable "selected" (Datum.string "p2")
      (Db.column_value row "name");
    Alcotest.(check int) "projected" 1 (List.length row)
  | _ -> Alcotest.fail "unexpected select result"

let test_atomicity () =
  let db = Db.create port_schema in
  (* Second op violates the vlan range: the whole txn must roll back. *)
  let result =
    Db.transact db
      [
        Db.Insert { table = "Port"; row = mk_port "a"; uuid = None };
        Db.Insert { table = "Port"; row = mk_port ~vlan:9999L "b"; uuid = None };
      ]
  in
  Alcotest.(check bool) "txn failed" true (Result.is_error result);
  Alcotest.(check int) "nothing committed" 0 (Db.row_count db "Port")

let test_unique_index () =
  let db = Db.create port_schema in
  ignore (Db.insert_exn db "Port" (mk_port "p1"));
  (match Db.insert db "Port" (mk_port "p1") with
  | Error msg ->
    Alcotest.(check bool) "mentions index" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "duplicate name accepted");
  Alcotest.(check int) "only one row" 1 (Db.row_count db "Port");
  (* Updating into a collision must also fail and roll back. *)
  ignore (Db.insert_exn db "Port" (mk_port "p2"));
  let r =
    Db.transact db
      [ Db.Update { table = "Port";
                    where = [ Db.eq "name" (Datum.string "p2") ];
                    row = [ ("name", Datum.string "p1") ] } ]
  in
  Alcotest.(check bool) "update collision rejected" true (Result.is_error r)

let test_update_and_mutate () =
  let db = Db.create port_schema in
  ignore (Db.insert_exn db "Port" (mk_port "p1"));
  (match
     Db.transact_exn db
       [ Db.Update { table = "Port";
                     where = [ Db.eq "name" (Datum.string "p1") ];
                     row = [ ("vlan", Datum.integer 42L) ] } ]
   with
  | [ Db.RCount 1 ] -> ()
  | _ -> Alcotest.fail "update count");
  (* Mutations: arithmetic and set insertion. *)
  ignore
    (Db.transact_exn db
       [ Db.Mutate { table = "Port";
                     where = [];
                     mutations =
                       [ { Db.mcolumn = "vlan"; mop = Db.MAdd; marg = Datum.integer 1L };
                         { Db.mcolumn = "trunk"; mop = Db.MInsert;
                           marg = Datum.set [ Atom.Integer 5L; Atom.Integer 7L ] } ] } ]);
  let _, row = List.hd (Db.fold_rows db "Port" (fun u r acc -> (u, r) :: acc) []) in
  Alcotest.check datum_testable "vlan mutated" (Datum.integer 43L)
    (Db.column_value row "vlan");
  Alcotest.check datum_testable "trunk extended"
    (Datum.set [ Atom.Integer 5L; Atom.Integer 7L ])
    (Db.column_value row "trunk");
  (* Mutation overflowing the constraint rolls back. *)
  let r =
    Db.transact db
      [ Db.Mutate { table = "Port"; where = [];
                    mutations = [ { Db.mcolumn = "vlan"; mop = Db.MAdd;
                                    marg = Datum.integer 100000L } ] } ]
  in
  Alcotest.(check bool) "constraint after mutation" true (Result.is_error r);
  Alcotest.check datum_testable "rolled back" (Datum.integer 43L)
    (Db.column_value
       (snd (List.hd (Db.fold_rows db "Port" (fun u r acc -> (u, r) :: acc) [])))
       "vlan")

let test_delete_and_conditions () =
  let db = Db.create port_schema in
  ignore (Db.insert_exn db "Port" (mk_port ~vlan:1L "a"));
  ignore (Db.insert_exn db "Port" (mk_port ~vlan:2L "b"));
  ignore (Db.insert_exn db "Port" (mk_port ~vlan:3L "c"));
  (match
     Db.transact_exn db
       [ Db.Delete { table = "Port";
                     where = [ { Db.ccolumn = "vlan"; cop = Db.Le;
                                 carg = Datum.integer 2L } ] } ]
   with
  | [ Db.RCount 2 ] -> ()
  | _ -> Alcotest.fail "delete count");
  Alcotest.(check int) "one left" 1 (Db.row_count db "Port")

let test_immutable_column () =
  let schema =
    Schema.make ~name:"D" ~version:"1"
      [ Schema.table "T"
          [ Schema.column ~mutable_:false "fixed" (Otype.scalar Otype.AString);
            Schema.column "free" (Otype.scalar Otype.AString) ] ]
  in
  let db = Db.create schema in
  ignore (Db.insert_exn db "T" [ ("fixed", Datum.string "x") ]);
  let r =
    Db.transact db
      [ Db.Update { table = "T"; where = []; row = [ ("fixed", Datum.string "y") ] } ]
  in
  Alcotest.(check bool) "immutable rejected" true (Result.is_error r)

let test_referential_integrity () =
  let db = Db.create port_schema in
  let missing = Uuid.fresh () in
  let r =
    Db.transact db
      [ Db.Insert { table = "Mirror";
                    row = [ ("name", Datum.string "m");
                            ("port", Datum.uuid missing) ];
                    uuid = None } ]
  in
  Alcotest.(check bool) "dangling ref rejected" true (Result.is_error r);
  let port = Db.insert_exn db "Port" (mk_port "p") in
  let r =
    Db.transact db
      [ Db.Insert { table = "Mirror";
                    row = [ ("name", Datum.string "m");
                            ("port", Datum.uuid port) ];
                    uuid = None } ]
  in
  Alcotest.(check bool) "valid ref accepted" true (Result.is_ok r)

(* ---------------- monitors ---------------- *)

let test_monitor_stream () =
  let db = Db.create port_schema in
  ignore (Db.insert_exn db "Port" (mk_port "pre"));
  let mon = Db.add_monitor db [ ("Port", None) ] in
  (* initial snapshot *)
  (match Db.poll mon with
  | [ [ ("Port", [ (_, { Db.before = None; after = Some _ }) ]) ] ] -> ()
  | batches -> Alcotest.failf "unexpected initial batch (%d)" (List.length batches));
  (* one batch per transaction, batching multiple ops *)
  ignore
    (Db.transact_exn db
       [ Db.Insert { table = "Port"; row = mk_port "a"; uuid = None };
         Db.Insert { table = "Port"; row = mk_port "b"; uuid = None } ]);
  ignore
    (Db.transact_exn db
       [ Db.Update { table = "Port";
                     where = [ Db.eq "name" (Datum.string "a") ];
                     row = [ ("vlan", Datum.integer 99L) ] } ]);
  (match Db.poll mon with
  | [ batch1; batch2 ] ->
    (match batch1 with
    | [ ("Port", rows) ] -> Alcotest.(check int) "two inserts batched" 2 (List.length rows)
    | _ -> Alcotest.fail "batch1 shape");
    (match batch2 with
    | [ ("Port", [ (_, { Db.before = Some old_row; after = Some new_row }) ]) ] ->
      Alcotest.check datum_testable "old value" (Datum.integer 10L)
        (Db.column_value old_row "vlan");
      Alcotest.check datum_testable "new value" (Datum.integer 99L)
        (Db.column_value new_row "vlan")
    | _ -> Alcotest.fail "batch2 shape")
  | batches -> Alcotest.failf "expected 2 batches, got %d" (List.length batches));
  Alcotest.(check int) "queue drained" 0 (List.length (Db.poll mon));
  (* failed transactions produce no updates *)
  ignore
    (Db.transact db
       [ Db.Insert { table = "Port"; row = mk_port ~vlan:9999L "x"; uuid = None } ]);
  Alcotest.(check int) "no updates from failed txn" 0 (List.length (Db.poll mon));
  (* deletes appear with before-only *)
  ignore
    (Db.transact_exn db
       [ Db.Delete { table = "Port"; where = [ Db.eq "name" (Datum.string "b") ] } ]);
  (match Db.poll mon with
  | [ [ ("Port", [ (_, { Db.before = Some _; after = None }) ]) ] ] -> ()
  | _ -> Alcotest.fail "delete batch shape");
  Db.cancel_monitor db mon;
  ignore (Db.transact_exn db [ Db.Insert { table = "Port"; row = mk_port "z"; uuid = None } ]);
  Alcotest.(check int) "cancelled monitor silent" 0 (List.length (Db.poll mon))

let test_monitor_select_flags () =
  let db = Db.create port_schema in
  ignore (Db.insert_exn db "Port" (mk_port "pre"));
  (* inserts only, no initial snapshot *)
  let mon =
    Db.add_monitor
      ~select:{ Db.s_initial = false; s_insert = true; s_delete = false;
                s_modify = false }
      db [ ("Port", None) ]
  in
  Alcotest.(check int) "no initial batch" 0 (List.length (Db.poll mon));
  ignore (Db.insert_exn db "Port" (mk_port "a"));
  Alcotest.(check int) "insert delivered" 1 (List.length (Db.poll mon));
  ignore
    (Db.transact_exn db
       [ Db.Update { table = "Port";
                     where = [ Db.eq "name" (Datum.string "a") ];
                     row = [ ("vlan", Datum.integer 42L) ] } ]);
  Alcotest.(check int) "modify suppressed" 0 (List.length (Db.poll mon));
  ignore
    (Db.transact_exn db
       [ Db.Delete { table = "Port"; where = [ Db.eq "name" (Datum.string "a") ] } ]);
  Alcotest.(check int) "delete suppressed" 0 (List.length (Db.poll mon));
  (* deletes only *)
  let mon2 =
    Db.add_monitor
      ~select:{ Db.s_initial = false; s_insert = false; s_delete = true;
                s_modify = false }
      db [ ("Port", None) ]
  in
  ignore (Db.insert_exn db "Port" (mk_port "b"));
  ignore
    (Db.transact_exn db
       [ Db.Delete { table = "Port"; where = [ Db.eq "name" (Datum.string "b") ] } ]);
  match Db.poll mon2 with
  | [ [ ("Port", [ (_, { Db.before = Some _; after = None }) ]) ] ] -> ()
  | batches -> Alcotest.failf "expected only the delete, got %d batches"
                 (List.length batches)

let test_monitor_column_filter () =
  let db = Db.create port_schema in
  let mon = Db.add_monitor db [ ("Port", Some [ "name" ]) ] in
  ignore (Db.insert_exn db "Port" (mk_port "a"));
  match Db.poll mon with
  | [ [ ("Port", [ (_, { Db.after = Some row; _ }) ]) ] ] ->
    Alcotest.(check int) "only filtered column" 1 (List.length row);
    Alcotest.(check bool) "it is name" true (List.mem_assoc "name" row)
  | _ -> Alcotest.fail "unexpected batch"

(* ---------------- JSON-RPC ---------------- *)

let test_rpc_end_to_end () =
  let db = Db.create port_schema in
  let srv = Rpc.serve db in
  (* get_schema *)
  let resp = Rpc.handle srv (Rpc.request ~id:1 ~meth:"get_schema" ~params:(Json.List [ Json.String "TestDB" ])) in
  let j = Json.of_string resp in
  (match Json.member "result" j with
  | Some (Json.Obj fields) ->
    Alcotest.(check bool) "schema has tables" true (List.mem_assoc "tables" fields)
  | _ -> Alcotest.fail "get_schema failed");
  (* monitor, then transact over the wire, then poll notifications *)
  let mon_req = Rpc.monitor_request ~id:2 ~db:"TestDB" ~mon_id:"m1" [ ("Port", None) ] in
  ignore (Rpc.handle srv mon_req);
  let txn_req =
    Rpc.transact_request ~id:3 ~db:"TestDB"
      [ Rpc.insert_op ~table:"Port" (mk_port "wire-port") ]
  in
  let resp = Json.of_string (Rpc.handle srv txn_req) in
  (match Json.member "result" resp with
  | Some (Json.List [ Json.Obj fields ]) ->
    Alcotest.(check bool) "insert returned uuid" true (List.mem_assoc "uuid" fields)
  | _ -> Alcotest.fail "transact failed");
  (match Rpc.poll_notifications srv "m1" with
  | [ update ] ->
    let j = Json.of_string update in
    (match Json.member "method" j with
    | Some (Json.String "update") -> ()
    | _ -> Alcotest.fail "not an update notification")
  | l -> Alcotest.failf "expected 1 notification, got %d" (List.length l));
  (* named-uuid: a mirror referencing a port inserted in the same txn *)
  let txn_req =
    Rpc.transact_request ~id:4 ~db:"TestDB"
      [
        Rpc.insert_op ~uuid_name:"p" ~table:"Port" (mk_port "p9");
        Json.Obj
          [ ("op", Json.String "insert");
            ("table", Json.String "Mirror");
            ("row",
             Json.Obj
               [ ("name", Json.String "m9");
                 ("port", Json.List [ Json.String "named-uuid"; Json.String "p" ]) ]) ];
      ]
  in
  let resp = Json.of_string (Rpc.handle srv txn_req) in
  (match Json.member "result" resp with
  | Some (Json.List [ _; Json.Obj fields ]) ->
    Alcotest.(check bool) "mirror inserted" true (List.mem_assoc "uuid" fields)
  | _ -> Alcotest.fail "named-uuid transact failed");
  Alcotest.(check int) "mirror row exists" 1 (Db.row_count db "Mirror");
  (* error paths *)
  let resp = Json.of_string (Rpc.handle srv {|{"id": 5, "method": "nope", "params": []}|}) in
  (match Json.member "error" resp with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "unknown method must error");
  let resp = Json.of_string (Rpc.handle srv "not json at all") in
  match Json.member "error" resp with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "bad json must error"

let test_rpc_monitor_select () =
  let db = Db.create port_schema in
  let srv = Rpc.serve db in
  ignore (Db.insert_exn db "Port" (mk_port "pre"));
  (* a monitor asking for deletes only, no initial contents *)
  let req =
    {|{"id": 1, "method": "monitor", "params": ["TestDB", "sel", {"Port": {"select": {"initial": false, "insert": false, "delete": true, "modify": false}}}]}|}
  in
  let resp = Json.of_string (Rpc.handle srv req) in
  (match Json.member "result" resp with
  | Some (Json.Obj []) -> ()
  | Some j -> Alcotest.failf "expected empty initial contents, got %s" (Json.to_string j)
  | None -> Alcotest.fail "monitor failed");
  ignore (Db.insert_exn db "Port" (mk_port "a"));
  Alcotest.(check int) "insert suppressed" 0
    (List.length (Rpc.poll_notifications srv "sel"));
  ignore
    (Db.transact_exn db
       [ Db.Delete { table = "Port"; where = [ Db.eq "name" (Datum.string "a") ] } ]);
  Alcotest.(check int) "delete delivered" 1
    (List.length (Rpc.poll_notifications srv "sel"))

(* ---------------- index-backed where ---------------- *)

let idx_schema =
  Schema.make ~name:"Idx" ~version:"1.0.0"
    [
      Schema.table "T"
        ~indexes:[ [ "a" ]; [ "b"; "c" ] ]
        [
          Schema.column "a" (Otype.scalar Otype.AInteger);
          Schema.column "b" (Otype.scalar Otype.AString);
          Schema.column "c" (Otype.scalar Otype.AInteger);
          Schema.column "d" (Otype.scalar Otype.AInteger);
        ];
    ]

let idx_row (a, b, c, d) =
  [ ("a", Datum.integer (Int64.of_int a)); ("b", Datum.string b);
    ("c", Datum.integer (Int64.of_int c)); ("d", Datum.integer (Int64.of_int d)) ]

(* A failed update must not leave the new key of an earlier index
   behind: the key stays free for other rows, and a lookup on it finds
   nothing. *)
let test_failed_update_leaves_no_key () =
  let db = Db.create idx_schema in
  ignore (Db.insert_exn db "T" (idx_row (1, "x", 1, 0)));
  ignore (Db.insert_exn db "T" (idx_row (2, "y", 2, 0)));
  (match
     Db.transact db
       [ Db.Update
           { table = "T"; where = [ Db.eq "a" (Datum.integer 1L) ];
             row = [ ("a", Datum.integer 9L); ("b", Datum.string "y");
                     ("c", Datum.integer 2L) ] } ]
   with
  | Ok _ -> Alcotest.fail "(b, c) collision accepted"
  | Error _ -> ());
  Alcotest.(check int) "no row under the rolled-back key" 0
    (List.length (Db.matching_rows db "T" [ Db.eq "a" (Datum.integer 9L) ]));
  match Db.insert db "T" (idx_row (9, "z", 3, 0)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rolled-back key still held: %s" e

type idx_cond = Cpin of string * int | Cuuid of int | Cord of Db.cond_op * string * int

let gen_idx_cond =
  QCheck2.Gen.(
    frequency
      [ (4, map2 (fun c k -> Cpin (c, k)) (oneofl [ "a"; "b"; "c"; "d" ]) (int_range 0 12));
        (1, map (fun i -> Cuuid i) (int_range 0 20));
        (2, map3 (fun op c k -> Cord (op, c, k))
              (oneofl Db.[ Ne; Lt; Gt; Le; Ge ]) (oneofl [ "a"; "c"; "d" ]) (int_range 0 12)) ])

(* Random tables — with updates and deletes, some failing on an index,
   between queries — and random where-lists: index lookup and scan
   return the same rows, whether the [==] conditions cover an index,
   part of one, [_uuid], or nothing, with other conditions alongside. *)
let prop_index_where =
  let gen_row = QCheck2.Gen.(quad (int_range 0 12) (oneofl [ "x"; "y"; "z" ]) (int_range 0 3) (int_range 0 3)) in
  QCheck2.Test.make ~count:200 ~name:"index-backed where = full scan"
    QCheck2.Gen.(
      triple (list_size (int_range 0 15) gen_row)
        (list_size (int_range 0 6) (pair (int_range 0 12) gen_row))
        (list_size (int_range 1 8) (list_size (int_range 0 4) gen_idx_cond)))
    (fun (rows, changes, wheres) ->
      let db = Db.create idx_schema in
      List.iter (fun r -> ignore (Db.insert db "T" (idx_row r))) rows;
      let same () =
        let uuids =
          Array.of_list (List.sort compare (Db.fold_rows db "T" (fun u _ acc -> u :: acc) []))
        in
        let cond = function
          | Cpin (("b" as c), k) -> Db.eq c (Datum.string [| "x"; "y"; "z" |].(k mod 3))
          | Cpin (c, k) -> Db.eq c (Datum.integer (Int64.of_int k))
          | Cuuid i ->
            Db.eq "_uuid"
              (Datum.uuid (if i < Array.length uuids then uuids.(i) else Uuid.fresh ()))
          | Cord (op, c, k) -> { Db.ccolumn = c; cop = op; carg = Datum.integer (Int64.of_int k) }
        in
        List.for_all
          (fun w ->
            let w = List.map cond w in
            List.sort compare (Db.matching_rows db "T" w)
            = List.sort compare (Db.scan_rows db "T" w))
          wheres
      in
      same ()
      && List.for_all
           (fun (a, ((a', _, _, _) as r)) ->
             let where = [ Db.eq "a" (Datum.integer (Int64.of_int a)) ] in
             ignore
               (Db.transact db
                  (if a' mod 4 = 0 then [ Db.Delete { table = "T"; where } ]
                   else [ Db.Update { table = "T"; where; row = idx_row r } ]));
             same ())
           changes)

let tests =
  [
    Alcotest.test_case "datum canonicalisation" `Quick test_datum_canonicalisation;
    Alcotest.test_case "datum json roundtrip" `Quick test_datum_json_roundtrip;
    Alcotest.test_case "otype checking" `Quick test_otype_check;
    Alcotest.test_case "schema validation" `Quick test_schema_validation;
    Alcotest.test_case "insert and select" `Quick test_insert_select;
    Alcotest.test_case "atomicity" `Quick test_atomicity;
    Alcotest.test_case "unique index" `Quick test_unique_index;
    Alcotest.test_case "update and mutate" `Quick test_update_and_mutate;
    Alcotest.test_case "delete and conditions" `Quick test_delete_and_conditions;
    Alcotest.test_case "immutable column" `Quick test_immutable_column;
    Alcotest.test_case "referential integrity" `Quick test_referential_integrity;
    Alcotest.test_case "monitor stream" `Quick test_monitor_stream;
    Alcotest.test_case "monitor select flags" `Quick test_monitor_select_flags;
    Alcotest.test_case "monitor column filter" `Quick test_monitor_column_filter;
    Alcotest.test_case "json-rpc end to end" `Quick test_rpc_end_to_end;
    Alcotest.test_case "json-rpc monitor select" `Quick test_rpc_monitor_select;
    Alcotest.test_case "failed update leaves no index key" `Quick
      test_failed_update_leaves_no_key;
    QCheck_alcotest.to_alcotest prop_index_where;
  ]
