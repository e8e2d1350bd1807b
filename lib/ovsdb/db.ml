(* The OVSDB database engine: row storage, atomic transactions with the
   RFC 7047 operation set (insert / select / update / mutate / delete),
   unique-index and referential-integrity enforcement, and monitors that
   stream per-transaction change batches to subscribers — the mechanism
   the Nerpa controller relies on for management-plane synchronisation. *)

type row = (string * Datum.t) list (* every schema column present, sorted *)

exception Db_error of string

let error fmt = Format.kasprintf (fun s -> raise (Db_error s)) fmt

(* Observability (metric names are a public contract, see README). *)
let m_txn_count = Obs.Counter.create "ovsdb.txn.count"
let m_txn_failed = Obs.Counter.create "ovsdb.txn.failed"
let m_monitor_batches = Obs.Counter.create "ovsdb.monitor.batches"
let h_txn = Obs.Histogram.create ~unit_:"us" "ovsdb.txn"

(* ---------------- conditions and mutations ---------------- *)

type cond_op = Eq | Ne | Lt | Gt | Le | Ge | Includes | Excludes

type condition = { ccolumn : string; cop : cond_op; carg : Datum.t }

type mutator = MAdd | MSub | MMul | MDiv | MInsert | MDelete

type mutation = { mcolumn : string; mop : mutator; marg : Datum.t }

type op =
  | Insert of { table : string; row : (string * Datum.t) list; uuid : Uuid.t option }
  | Select of { table : string; where : condition list; columns : string list option }
  | Update of { table : string; where : condition list; row : (string * Datum.t) list }
  | Mutate of { table : string; where : condition list; mutations : mutation list }
  | Delete of { table : string; where : condition list }
  | Abort

type op_result =
  | RInserted of Uuid.t
  | RRows of (Uuid.t * row) list
  | RCount of int
  | RAborted

(* ---------------- monitors ---------------- *)

type row_update = { before : row option; after : row option }

(** One transaction's worth of changes, per table. *)
type table_updates = (string * (Uuid.t * row_update) list) list

(* Which update kinds a monitor wants (RFC 7047 "select"). *)
type select = {
  s_initial : bool;
  s_insert : bool;
  s_delete : bool;
  s_modify : bool;
}

let select_all = { s_initial = true; s_insert = true; s_delete = true; s_modify = true }

type monitor = {
  mon_id : int;
  mon_tables : (string * string list option) list; (* table, column filter *)
  mon_select : select;
  mutable queue : table_updates list;              (* oldest first *)
}

(* ---------------- database ---------------- *)

type table_data = {
  rows : (Uuid.t, row) Hashtbl.t;
  (* one hashtable per unique index: key datums -> uuid *)
  uniques : (string list * (Datum.t list, Uuid.t) Hashtbl.t) list;
}

type t = {
  schema : Schema.t;
  tables : (string, table_data) Hashtbl.t;
  mutable monitors : monitor list;
  mutable next_monitor : int;
  mutable txn_count : int;
}

let create (schema : Schema.t) : t =
  (match Schema.validate schema with
  | Ok () -> ()
  | Error errs -> error "invalid schema: %s" (String.concat "; " errs));
  let tables = Hashtbl.create 16 in
  List.iter
    (fun (tbl : Schema.table) ->
      Hashtbl.add tables tbl.tname
        {
          rows = Hashtbl.create 64;
          uniques = List.map (fun ix -> (ix, Hashtbl.create 64)) tbl.indexes;
        })
    schema.tables;
  { schema; tables; monitors = []; next_monitor = 0; txn_count = 0 }

let table_schema db name =
  match Schema.find_table db.schema name with
  | Some t -> t
  | None -> error "no table %s" name

let table_data db name =
  match Hashtbl.find_opt db.tables name with
  | Some t -> t
  | None -> error "no table %s" name

let row_count db name = Hashtbl.length (table_data db name).rows
let get_row db table uuid = Hashtbl.find_opt (table_data db table).rows uuid

let iter_rows db table f =
  Hashtbl.iter (fun uuid row -> f uuid row) (table_data db table).rows

let fold_rows db table f acc =
  Hashtbl.fold (fun uuid row acc -> f uuid row acc) (table_data db table).rows acc

let column_value (row : row) (column : string) : Datum.t =
  match List.assoc_opt column row with
  | Some d -> d
  | None -> error "row has no column %s" column

(* ---------------- condition evaluation ---------------- *)

let scalar_compare (a : Datum.t) (b : Datum.t) : int option =
  match Datum.as_scalar a, Datum.as_scalar b with
  | Some (Atom.Integer x), Some (Atom.Integer y) -> Some (Int64.compare x y)
  | Some (Atom.Real x), Some (Atom.Real y) -> Some (Float.compare x y)
  | Some (Atom.String x), Some (Atom.String y) -> Some (String.compare x y)
  | _ -> None

let eval_condition (uuid : Uuid.t) (row : row) (c : condition) : bool =
  let actual =
    if String.equal c.ccolumn "_uuid" then Datum.uuid uuid
    else column_value row c.ccolumn
  in
  match c.cop with
  | Eq -> Datum.equal actual c.carg
  | Ne -> not (Datum.equal actual c.carg)
  | Lt | Gt | Le | Ge -> (
    match scalar_compare actual c.carg with
    | None -> error "ordered comparison on non-scalar column %s" c.ccolumn
    | Some cmp -> (
      match c.cop with
      | Lt -> cmp < 0
      | Gt -> cmp > 0
      | Le -> cmp <= 0
      | Ge -> cmp >= 0
      | Eq | Ne | Includes | Excludes -> assert false))
  | Includes -> (
    (* every element of the argument is present in the column *)
    match c.carg, actual with
    | Datum.Set want, Datum.Set have ->
      List.for_all (fun a -> List.exists (Atom.equal a) have) want
    | Datum.Map want, Datum.Map have ->
      List.for_all
        (fun (k, v) ->
          List.exists (fun (k', v') -> Atom.equal k k' && Atom.equal v v') have)
        want
    | _ -> false)
  | Excludes -> (
    match c.carg, actual with
    | Datum.Set want, Datum.Set have ->
      List.for_all (fun a -> not (List.exists (Atom.equal a) have)) want
    | Datum.Map want, Datum.Map have ->
      List.for_all
        (fun (k, v) ->
          not
            (List.exists (fun (k', v') -> Atom.equal k k' && Atom.equal v v') have))
        want
    | _ -> true)

let scan_rows db table (where : condition list) : (Uuid.t * row) list =
  fold_rows db table
    (fun uuid row acc ->
      if List.for_all (eval_condition uuid row) where then (uuid, row) :: acc
      else acc)
    []

(* A [where] whose [==] conditions pin [_uuid], or every column of a
   unique index, names at most one row: look it up, then check every
   condition against it.  Any other [where] scans. *)
let matching_rows db table (where : condition list) : (Uuid.t * row) list =
  let data = table_data db table in
  let pinned c =
    List.find_map
      (fun w -> if w.cop = Eq && String.equal w.ccolumn c then Some w.carg else None)
      where
  in
  let lookup (index, tbl) =
    let key = List.filter_map pinned index in
    if List.compare_lengths key index = 0 then Some (Hashtbl.find_opt tbl key)
    else None
  in
  let candidate =
    match pinned "_uuid" with
    | Some d -> Some (Datum.as_uuid d)
    | None -> List.find_map lookup data.uniques
  in
  match candidate with
  | None -> scan_rows db table where
  | Some None -> []
  | Some (Some uuid) -> (
    match Hashtbl.find_opt data.rows uuid with
    | Some row when List.for_all (eval_condition uuid row) where -> [ (uuid, row) ]
    | _ -> [])

(* ---------------- mutators ---------------- *)

let apply_mutation (tbl : Schema.table) (row : row) (m : mutation) : row =
  let col =
    match Schema.find_column tbl m.mcolumn with
    | Some c -> c
    | None -> error "%s: no column %s" tbl.tname m.mcolumn
  in
  if not col.mutable_ then error "%s.%s is immutable" tbl.tname m.mcolumn;
  let current = column_value row m.mcolumn in
  let arith f_int f_real =
    match current, Datum.as_scalar m.marg with
    | Datum.Set atoms, Some (Atom.Integer y) ->
      Datum.Set
        (List.map
           (function
             | Atom.Integer x -> Atom.Integer (f_int x y)
             | a -> error "arithmetic mutation on non-integer %s" (Atom.to_string a))
           atoms)
    | Datum.Set atoms, Some (Atom.Real y) ->
      Datum.Set
        (List.map
           (function
             | Atom.Real x -> Atom.Real (f_real x y)
             | a -> error "arithmetic mutation on non-real %s" (Atom.to_string a))
           atoms)
    | _ -> error "bad arithmetic mutation on %s" m.mcolumn
  in
  let updated =
    match m.mop with
    | MAdd -> arith Int64.add ( +. )
    | MSub -> arith Int64.sub ( -. )
    | MMul -> arith Int64.mul ( *. )
    | MDiv ->
      arith
        (fun x y -> if y = 0L then error "division by zero" else Int64.div x y)
        (fun x y -> x /. y)
    | MInsert -> (
      match current, m.marg with
      | Datum.Set have, Datum.Set add ->
        Datum.set (have @ add)
      | Datum.Map have, Datum.Map add ->
        (* insert does not overwrite existing keys *)
        let keep (k, _) = not (List.exists (fun (k', _) -> Atom.equal k k') have) in
        Datum.map (have @ List.filter keep add)
      | _ -> error "insert mutation type mismatch on %s" m.mcolumn)
    | MDelete -> (
      match current, m.marg with
      | Datum.Set have, Datum.Set del ->
        Datum.Set (List.filter (fun a -> not (List.exists (Atom.equal a) del)) have)
      | Datum.Map have, Datum.Map del ->
        Datum.Map
          (List.filter
             (fun (k, v) ->
               not
                 (List.exists
                    (fun (k', v') -> Atom.equal k k' && Atom.equal v v')
                    del))
             have)
      | Datum.Map have, Datum.Set keys ->
        (* deleting by key set *)
        Datum.Map
          (List.filter
             (fun (k, _) -> not (List.exists (Atom.equal k) keys))
             have)
      | _ -> error "delete mutation type mismatch on %s" m.mcolumn)
  in
  (match Otype.check col.ctype updated with
  | Ok () -> ()
  | Error msg -> error "%s.%s: %s" tbl.tname m.mcolumn msg);
  List.map
    (fun (c, d) -> if String.equal c m.mcolumn then (c, updated) else (c, d))
    row

(* ---------------- transactions ---------------- *)

(* Undo log entry: the state of (table, uuid) when first touched. *)
type undo = (string * Uuid.t * row option) list ref

let unique_key (index : string list) (row : row) : Datum.t list =
  List.map (fun c -> column_value row c) index

let index_remove db table (uuid : Uuid.t) (row : row) =
  let data = table_data db table in
  List.iter
    (fun (index, tbl) ->
      let key = unique_key index row in
      match Hashtbl.find_opt tbl key with
      | Some u when Uuid.equal u uuid -> Hashtbl.remove tbl key
      | _ -> ())
    data.uniques

(* Every index is checked before any is written, so a violation leaves
   no stale key behind for lookups to find. *)
let index_add db table (uuid : Uuid.t) (row : row) =
  let data = table_data db table in
  List.iter
    (fun (index, tbl) ->
      match Hashtbl.find_opt tbl (unique_key index row) with
      | Some other when not (Uuid.equal other uuid) ->
        error "%s: unique index (%s) violated" table (String.concat ", " index)
      | _ -> ())
    data.uniques;
  List.iter
    (fun (index, tbl) -> Hashtbl.replace tbl (unique_key index row) uuid)
    data.uniques

(* Record the pre-image of a row the first time the transaction touches
   it. *)
let remember (undo : undo) db table uuid =
  if
    not
      (List.exists
         (fun (t, u, _) -> String.equal t table && Uuid.equal u uuid)
         !undo)
  then undo := (table, uuid, get_row db table uuid) :: !undo

let put_row db table uuid row =
  let data = table_data db table in
  (match Hashtbl.find_opt data.rows uuid with
  | Some old -> index_remove db table uuid old
  | None -> ());
  index_add db table uuid row;
  Hashtbl.replace data.rows uuid row

let remove_row db table uuid =
  let data = table_data db table in
  match Hashtbl.find_opt data.rows uuid with
  | Some old ->
    index_remove db table uuid old;
    Hashtbl.remove data.rows uuid
  | None -> ()

(* Build a full row from user-supplied columns plus defaults, checking
   types and unknown columns. *)
let complete_row db table (supplied : (string * Datum.t) list) : row =
  let tbl = table_schema db table in
  List.iter
    (fun (c, _) ->
      if Schema.find_column tbl c = None then error "%s: no column %s" table c)
    supplied;
  List.map
    (fun (col : Schema.column) ->
      match List.assoc_opt col.cname supplied with
      | Some d -> (
        match Otype.check col.ctype d with
        | Ok () -> (col.cname, d)
        | Error msg -> error "%s.%s: %s" table col.cname msg)
      | None -> (col.cname, Otype.default col.ctype))
    tbl.columns

(* Referential integrity: every uuid stored in a refTable column of the
   row must identify an existing row of the referenced table. *)
let check_references db table (row : row) =
  let tbl = table_schema db table in
  List.iter
    (fun (col : Schema.column) ->
      match col.ctype.Otype.key.ref_table with
      | None -> ()
      | Some target ->
        let atoms =
          match column_value row col.cname with
          | Datum.Set atoms -> atoms
          | Datum.Map pairs -> List.map fst pairs
        in
        List.iter
          (function
            | Atom.Uuid u ->
              if get_row db target u = None then
                error "%s.%s: dangling reference %s to table %s" table col.cname
                  (Uuid.to_string u) target
            | _ -> ())
          atoms)
    tbl.columns

let exec_op db (undo : undo) (op : op) : op_result =
  match op with
  | Insert { table; row; uuid } ->
    let tbl = table_schema db table in
    ignore tbl;
    let uuid = match uuid with Some u -> u | None -> Uuid.fresh () in
    if get_row db table uuid <> None then
      error "%s: duplicate row uuid %s" table (Uuid.to_string uuid);
    let full = complete_row db table row in
    remember undo db table uuid;
    put_row db table uuid full;
    RInserted uuid
  | Select { table; where; columns } ->
    let rows = matching_rows db table where in
    let project (uuid, row) =
      match columns with
      | None -> (uuid, row)
      | Some cols ->
        (uuid, List.filter (fun (c, _) -> List.mem c cols) row)
    in
    RRows (List.map project rows)
  | Update { table; where; row = assignments } ->
    let tbl = table_schema db table in
    List.iter
      (fun (c, d) ->
        match Schema.find_column tbl c with
        | None -> error "%s: no column %s" table c
        | Some col ->
          if not col.mutable_ then error "%s.%s is immutable" table c;
          (match Otype.check col.ctype d with
          | Ok () -> ()
          | Error msg -> error "%s.%s: %s" table c msg))
      assignments;
    let victims = matching_rows db table where in
    List.iter
      (fun (uuid, row) ->
        remember undo db table uuid;
        let row' =
          List.map
            (fun (c, d) ->
              match List.assoc_opt c assignments with
              | Some d' -> (c, d')
              | None -> (c, d))
            row
        in
        put_row db table uuid row')
      victims;
    RCount (List.length victims)
  | Mutate { table; where; mutations } ->
    let tbl = table_schema db table in
    let victims = matching_rows db table where in
    List.iter
      (fun (uuid, row) ->
        remember undo db table uuid;
        let row' = List.fold_left (apply_mutation tbl) row mutations in
        put_row db table uuid row')
      victims;
    RCount (List.length victims)
  | Delete { table; where } ->
    let victims = matching_rows db table where in
    List.iter
      (fun (uuid, _) ->
        remember undo db table uuid;
        remove_row db table uuid)
      victims;
    RCount (List.length victims)
  | Abort -> error "aborted by request"

let rollback db (undo : undo) =
  List.iter
    (fun (table, uuid, old) ->
      match old with
      | Some row -> put_row db table uuid row
      | None -> remove_row db table uuid)
    !undo

(* Deliver the transaction's changes to every monitor. *)
let notify_monitors db (undo : undo) =
  if db.monitors <> [] && !undo <> [] then begin
    let changes =
      List.filter_map
        (fun (table, uuid, before) ->
          let after = get_row db table uuid in
          match before, after with
          | None, None -> None
          | Some b, Some a when b = a -> None (* touched but unchanged *)
          | _ -> Some (table, uuid, { before; after }))
        !undo
    in
    if changes <> [] then
      List.iter
        (fun mon ->
          let wanted (upd : row_update) =
            match upd.before, upd.after with
            | None, Some _ -> mon.mon_select.s_insert
            | Some _, None -> mon.mon_select.s_delete
            | Some _, Some _ -> mon.mon_select.s_modify
            | None, None -> false
          in
          let relevant =
            List.filter_map
              (fun (mtable, cols) ->
                let rows =
                  List.filter_map
                    (fun (table, uuid, upd) ->
                      if String.equal table mtable && wanted upd then
                        let filter r =
                          match cols with
                          | None -> r
                          | Some cs -> List.filter (fun (c, _) -> List.mem c cs) r
                        in
                        Some
                          ( uuid,
                            {
                              before = Option.map filter upd.before;
                              after = Option.map filter upd.after;
                            } )
                      else None)
                    changes
                in
                if rows = [] then None else Some (mtable, rows))
              mon.mon_tables
          in
          if relevant <> [] then begin
            Obs.Counter.incr m_monitor_batches;
            mon.queue <- mon.queue @ [ relevant ]
          end)
        db.monitors
  end

(** Execute [ops] atomically.  On error every op is rolled back and
    [Error message] is returned; on success the per-op results are
    returned and monitors are notified with the batched changes. *)
let transact (db : t) (ops : op list) : (op_result list, string) result =
  Obs.Histogram.time h_txn @@ fun () ->
  let undo : undo = ref [] in
  match List.map (exec_op db undo) ops with
  | results ->
    (* Post-conditions checked at commit: referential integrity of every
       touched row that still exists. *)
    (try
       List.iter
         (fun (table, uuid, _) ->
           match get_row db table uuid with
           | Some row -> check_references db table row
           | None -> ())
         !undo;
       db.txn_count <- db.txn_count + 1;
       Obs.Counter.incr m_txn_count;
       notify_monitors db undo;
       Ok results
     with Db_error msg ->
       rollback db undo;
       Obs.Counter.incr m_txn_failed;
       Error msg)
  | exception Db_error msg ->
    rollback db undo;
    Obs.Counter.incr m_txn_failed;
    Error msg

let transact_exn db ops =
  match transact db ops with
  | Ok results -> results
  | Error msg -> error "%s" msg

(* ---------------- monitor API ---------------- *)

(** Register a monitor over [tables] (with optional column filters).
    The current contents are delivered immediately as an initial batch
    of inserts, followed by one batch per committed transaction. *)
let add_monitor ?(select = select_all) (db : t)
    (tables : (string * string list option) list) : monitor =
  List.iter (fun (tname, _) -> ignore (table_schema db tname)) tables;
  let mon =
    { mon_id = db.next_monitor; mon_tables = tables; mon_select = select;
      queue = [] }
  in
  db.next_monitor <- db.next_monitor + 1;
  if select.s_initial then begin
    let initial =
      List.filter_map
        (fun (tname, cols) ->
          let rows =
            fold_rows db tname
              (fun uuid row acc ->
                let filter r =
                  match cols with
                  | None -> r
                  | Some cs -> List.filter (fun (c, _) -> List.mem c cs) r
                in
                (uuid, { before = None; after = Some (filter row) }) :: acc)
              []
          in
          if rows = [] then None else Some (tname, rows))
        tables
    in
    if initial <> [] then mon.queue <- [ initial ]
  end;
  db.monitors <- mon :: db.monitors;
  mon

(** Drain the monitor's queued batches (oldest first). *)
let poll (mon : monitor) : table_updates list =
  let batches = mon.queue in
  mon.queue <- [];
  batches

let cancel_monitor (db : t) (mon : monitor) =
  db.monitors <- List.filter (fun m -> m.mon_id <> mon.mon_id) db.monitors

(** Current contents of every schema table as one batch of insertions —
    the payload of a monitor resync (see Nerpa's driver). *)
let snapshot (db : t) : table_updates =
  List.map
    (fun (tbl : Schema.table) ->
      let rows =
        fold_rows db tbl.tname
          (fun uuid row acc ->
            (uuid, { before = None; after = Some row }) :: acc)
          []
      in
      (tbl.tname, rows))
    db.schema.tables

(* ---------------- convenience helpers ---------------- *)

let eq column datum = { ccolumn = column; cop = Eq; carg = datum }

let insert ?uuid db table row =
  match transact db [ Insert { table; row; uuid } ] with
  | Ok [ RInserted u ] -> Ok u
  | Ok _ -> assert false
  | Error e -> Error e

let insert_exn ?uuid db table row =
  match insert ?uuid db table row with
  | Ok u -> u
  | Error e -> error "%s" e
