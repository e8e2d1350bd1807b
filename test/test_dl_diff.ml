(* Long-horizon differential test: the optimised incremental engine is
   driven through >=1000 random transactions (inserts, deletes and
   re-inserts over a tiny universe, so collisions are frequent) and
   after every commit both the visible relations AND the reported
   output deltas are checked against [Naive], the from-scratch
   reference evaluator.  The program exercises a recursive stratum
   (reachability), joins, negation and a group_by aggregate, so the
   counting, semi-naive/DRed and aggregate paths are all covered.  A
   second, non-recursive program stacks joins, negation, unions and an
   aggregate several rules deep, so each commit propagates through a
   chain of dependent rules in one pass. *)

open Dl

let program =
  Parser.parse_program_exn
    {|
    input relation Edge(x: int, y: int)
    input relation Root(x: int)
    output relation Reach(x: int)
    Reach(x) :- Root(x).
    Reach(y) :- Reach(x), Edge(x, y).
    output relation Pair(x: int, z: int)
    Pair(x, z) :- Edge(x, y), Edge(y, z).
    output relation Unreached(x: int)
    Unreached(y) :- Edge(_, y), not Reach(y).
    output relation Deg(x: int, n: int)
    Deg(x, n) :- Edge(x, y), var n = count(y) group_by (x).
    |}

let rels = [ ("Edge", 2); ("Root", 1) ]
let universe = 6

let layered_program =
  Parser.parse_program_exn
    {|
    input relation E(x: int, y: int)
    input relation L(x: int)
    output relation A(x: int, y: int)
    A(x, y) :- E(x, y), L(x).
    output relation B(x: int)
    B(y) :- E(_, y), not L(y).
    output relation C(x: int, z: int)
    C(x, z) :- A(x, y), E(y, z).
    output relation D(x: int)
    D(x) :- C(x, _), not B(x).
    output relation U(x: int)
    U(x) :- A(x, _).
    U(x) :- B(x).
    U(z) :- C(_, z), L(z).
    output relation F(x: int, n: int)
    F(x, n) :- C(x, z), var n = count(z) group_by (x).
    output relation G(x: int)
    G(x) :- U(x), not D(x).
    |}

let layered_rels = [ ("E", 2); ("L", 1) ]

let row_of rng arity =
  Row.of_list
    (List.init arity (fun _ -> Value.of_int (Random.State.int rng universe)))

(* Visible rows of [rel] in the naive oracle database. *)
let oracle_rows db rel = Naive.get db rel

(* The delta we expect the engine to report for [rel]: +1 for every row
   visible now but not before, -1 for every row visible before but not
   now. *)
let expected_delta before after =
  let appeared = Row.Set.diff after before in
  let disappeared = Row.Set.diff before after in
  Row.Set.fold
    (fun r z -> Zset.add z r (-1))
    disappeared
    (Row.Set.fold (fun r z -> Zset.add z r 1) appeared Zset.empty)

(* Drive [program] through [n_txns] random transactions over the input
   relations [rels] and check every commit against [Naive]. *)
let differential ~program ~rels ~seed ~n_txns =
  let rng = Random.State.make [| seed |] in
  let eng = Engine.create program in
  let current : (string, Row.Set.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun (r, _) -> Hashtbl.replace current r Row.Set.empty) rels;
  let all_rels = List.map (fun (d : Ast.rel_decl) -> d.rname) program.Ast.decls in
  (* Oracle snapshot of every relation before the first transaction. *)
  let snapshot db =
    List.map (fun r -> (r, oracle_rows db r)) all_rels
  in
  let inputs () =
    Hashtbl.fold (fun rel s acc -> (rel, Row.Set.elements s) :: acc) current []
  in
  let before = ref (snapshot (Naive.run program (inputs ()))) in
  for txn_i = 1 to n_txns do
    let txn = Engine.transaction eng in
    let n_ops = 1 + Random.State.int rng 5 in
    for _ = 1 to n_ops do
      let rel, arity = List.nth rels (Random.State.int rng (List.length rels)) in
      let row = row_of rng arity in
      let ins = Random.State.bool rng in
      if ins then Engine.insert txn rel row else Engine.delete txn rel row;
      let s = Hashtbl.find current rel in
      Hashtbl.replace current rel
        (if ins then Row.Set.add row s else Row.Set.remove row s)
    done;
    let deltas = Engine.commit txn in
    let oracle = Naive.run program (inputs ()) in
    let after = snapshot oracle in
    List.iter
      (fun rel ->
        let prev = List.assoc rel !before in
        let next = List.assoc rel after in
        (* 1. Visible relation contents match the oracle. *)
        let expected = List.sort Row.compare (Row.Set.elements next) in
        let actual = List.sort Row.compare (Engine.relation_rows eng rel) in
        if not (List.equal Row.equal expected actual) then
          Alcotest.failf "txn %d: relation %s diverged (%d vs %d rows)" txn_i
            rel (List.length expected) (List.length actual);
        (* 2. The reported delta is exactly the visibility diff. *)
        let want = expected_delta prev next in
        let got =
          match List.assoc_opt rel deltas with
          | Some z -> z
          | None -> Zset.empty
        in
        if not (Zset.equal want got) then
          Alcotest.failf "txn %d: delta for %s diverged: want %s got %s" txn_i
            rel (Format.asprintf "%a" Zset.pp want)
            (Format.asprintf "%a" Zset.pp got))
      all_rels;
    before := after
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d transactions, engine = naive oracle" n_txns)
    true true

let test_differential () =
  differential ~program ~rels ~seed:0xd1ff ~n_txns:1200

let test_layered_differential () =
  differential ~program:layered_program ~rels:layered_rels ~seed:0x1a7e
    ~n_txns:600

let tests =
  [
    Alcotest.test_case "1200-txn differential vs naive" `Quick test_differential;
    Alcotest.test_case "600-txn layered differential vs naive" `Quick
      test_layered_differential;
  ]
