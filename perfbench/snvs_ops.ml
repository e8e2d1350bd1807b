(* What the two snvs workloads share: the base port plan, the operations
   they apply (config changes, trunk remaps, host frames), the host
   model behind MAC learning and mobility, and the one-controller
   in-process replay their final switch dumps are checked against. *)

let bcast = 0xFFFFFFFFFFFFL

let transact db ops =
  match Ovsdb.Db.transact db ops with Ok _ -> () | Error e -> failwith e

let vlan_set vs =
  Ovsdb.Datum.set (List.map (fun v -> Ovsdb.Atom.Integer (Int64.of_int v)) vs)

let insert_port db (p : Netgen.port_plan) =
  ignore
    (Ovsdb.Db.insert_exn db "Port"
       [ ("name", Ovsdb.Datum.string p.pp_name);
         ("port", Ovsdb.Datum.integer (Int64.of_int p.pp_port));
         ("mode", Ovsdb.Datum.string p.pp_mode);
         ("tag", Ovsdb.Datum.integer (Int64.of_int p.pp_tag));
         ("trunks", vlan_set p.pp_trunks) ])

type op =
  | Changes of int * int
      (** changes [a..b] of {!change}'s sequence, in order; kept as a
          range so the log stays small *)
  | Trunks of { name : string; vlans : int list }
      (** a trunk's VLAN set is rewritten *)
  | Frame of { sw : string; port : int; mac : int64 }
      (** a broadcast frame from [mac] enters switch [sw] on [port] *)

(* The [i]-th config change: the Netgen change kinds in a fixed cycle
   that leaves the tables as it found them (add a port, add an ACL, move
   the mirror, delete the ACL, delete the port), with parameters drawn
   from [seed] and the cycle number.  [Netgen.change_stream] picks kinds
   at random, so its port and ACL tables random-walk, grow by about the
   square root of the changes made, and make the cost of a change drift
   with the seed and the run length. *)
let change ~base ~seed i : Netgen.change =
  let k = i / 5 in
  let r = Random.State.make [| seed; k |] in
  let name = Printf.sprintf "xport%d" k in
  let tag = 10 + Random.State.int r 16 in
  let src = Int64.of_int (Random.State.int r 1000) and dst = Int64.of_int (Random.State.int r 1000) in
  let allow = Random.State.bool r in
  let select_port = 1 + Random.State.int r base and output_port = 1 + Random.State.int r base in
  match i mod 5 with
  | 0 -> AddPort { pp_name = name; pp_port = base + 1 + k; pp_mode = "access"; pp_tag = tag; pp_trunks = [] }
  | 1 -> AddAcl { prio = 1000 + k; src; dst; allow }
  | 2 -> SetMirror { select_port; output_port }
  | 3 -> DelAcl (1000 + k)
  | _ -> DelPort name

(* Changes stay below this many, so every new port's number fits the
   16-bit port field. *)
let max_changes = 5 * 60_000

let log_change (log : op list ref) i =
  match !log with
  | Changes (a, b) :: rest when b = i - 1 -> log := Changes (a, i) :: rest
  | l -> log := Changes (i, i) :: l

(* A Netgen change as one OVSDB transaction, as [bench/main.ml] applies
   them. *)
let apply_change db = function
  | Netgen.AddPort p -> insert_port db p
  | DelPort name ->
    transact db
      [ Ovsdb.Db.Delete
          { table = "Port"; where = [ Ovsdb.Db.eq "name" (Ovsdb.Datum.string name) ] } ]
  | AddAcl { prio; src; dst; allow } ->
    ignore
      (Ovsdb.Db.insert_exn db "Acl"
         [ ("priority", Ovsdb.Datum.integer (Int64.of_int prio));
           ("src", Ovsdb.Datum.integer src); ("src_mask", Ovsdb.Datum.integer (-1L));
           ("dst", Ovsdb.Datum.integer dst); ("dst_mask", Ovsdb.Datum.integer (-1L));
           ("allow", Ovsdb.Datum.boolean allow) ])
  | DelAcl prio ->
    transact db
      [ Ovsdb.Db.Delete
          { table = "Acl";
            where = [ Ovsdb.Db.eq "priority" (Ovsdb.Datum.integer (Int64.of_int prio)) ] } ]
  | SetMirror { select_port; output_port } ->
    transact db
      [ Ovsdb.Db.Delete { table = "Mirror"; where = [] };
        Ovsdb.Db.Insert
          { table = "Mirror";
            row =
              [ ("name", Ovsdb.Datum.string "m");
                ("select_port", Ovsdb.Datum.integer (Int64.of_int select_port));
                ("output_port", Ovsdb.Datum.integer (Int64.of_int output_port)) ];
            uuid = None } ]

let set_trunks db name vlans =
  transact db
    [ Ovsdb.Db.Update
        { table = "Port";
          where = [ Ovsdb.Db.eq "name" (Ovsdb.Datum.string name) ];
          row = [ ("trunks", vlan_set vlans) ] } ]

let frame ~src ~dst = P4.Stdhdrs.ethernet_frame ~dst ~src ~ethertype:0x1234L ~payload:"x"

let inject sw = function
  | Frame { port; mac; _ } -> ignore (P4.Switch.process sw ~in_port:port (frame ~src:mac ~dst:bcast))
  | _ -> invalid_arg "inject: not a frame"

(* ---------------- hosts ---------------- *)

(* Each host keeps its VLAN and moves between that VLAN's access ports
   on any switch, so the learned tables stay one entry per host.  Hosts
   from [movers] on never move: packets are sent between them, so a
   packet never comes from a port its source has left (which would
   raise a digest and move the host). *)
type hosts = {
  movers : int;
  vlan_ports : (int, int array) Hashtbl.t;
  vlan_of : int array;
  loc : (string * int) option array;
}

let host_mac h = Int64.of_int (0x021000000000 + h)

let make_hosts (ports : Netgen.port_plan list) ~movers n =
  let vlan_ports = Hashtbl.create 16 in
  List.iter
    (fun (p : Netgen.port_plan) ->
      if p.pp_mode = "access" then
        Hashtbl.replace vlan_ports p.pp_tag
          (p.pp_port :: Option.value ~default:[] (Hashtbl.find_opt vlan_ports p.pp_tag)))
    ports;
  let vlan_ports =
    Hashtbl.fold (fun v ps acc -> (v, Array.of_list (List.sort compare ps)) :: acc) vlan_ports []
    |> List.sort compare |> List.to_seq |> Hashtbl.of_seq
  in
  let vlans = Array.of_list (List.sort compare (List.of_seq (Hashtbl.to_seq_keys vlan_ports))) in
  { movers; vlan_ports; vlan_of = Array.init n (fun h -> vlans.(h mod Array.length vlans));
    loc = Array.make n None }

(* Host [h] appears somewhere new: a frame op, and its location moves. *)
let move rng (hs : hosts) (switches : string array) h =
  let ports = Hashtbl.find hs.vlan_ports hs.vlan_of.(h) in
  let rec pick () =
    let sw = switches.(Random.State.int rng (Array.length switches)) in
    let port = ports.(Random.State.int rng (Array.length ports)) in
    if hs.loc.(h) = Some (sw, port) then pick () else (sw, port)
  in
  let sw, port = pick () in
  hs.loc.(h) <- Some (sw, port);
  Frame { sw; port; mac = host_mac h }

(* The located hosts that never move, with their ports. *)
let fixed (hs : hosts) =
  List.filter_map
    (fun h -> Option.map (fun (_, p) -> (h, p)) hs.loc.(h))
    (List.init (Array.length hs.loc - hs.movers) (fun i -> hs.movers + i))
  |> Array.of_list

(* Known-unicast jobs for one switch: (in_port, frame, expected out
   port) from a fixed host to another of its VLAN on a different port. *)
let unicast_jobs rng (hs : hosts) n =
  let located = fixed hs in
  let rec one () =
    let a, pa = located.(Random.State.int rng (Array.length located)) in
    let b, pb = located.(Random.State.int rng (Array.length located)) in
    if a = b || pa = pb || hs.vlan_of.(a) <> hs.vlan_of.(b) then one ()
    else (pa, frame ~src:(host_mac a) ~dst:(host_mac b), pb)
  in
  Array.init n (fun _ -> one ())

let flood_jobs rng (hs : hosts) n =
  let located = fixed hs in
  Array.init n (fun _ ->
      let a, pa = located.(Random.State.int rng (Array.length located)) in
      (pa, frame ~src:(host_mac a) ~dst:bcast))

(* ---------------- the one-controller replay ---------------- *)

(* The same base and operations through one in-process controller over
   the same switch names; config runs between frames are applied in one
   sync, which reaches the same state.  Returns the per-switch dumps. *)
let replay ~switch_names ~ports ~seed (log : op list) : (string * string) list =
  let base = List.length ports in
  let db = Ovsdb.Db.create Snvs.schema in
  List.iter (insert_port db) ports;
  let switches = List.map (fun n -> (n, P4.Switch.create ~name:n Snvs.p4)) switch_names in
  let c =
    Nerpa.Controller.create ~digest_replace:Snvs.digest_replace ~db ~p4:Snvs.p4
      ~rules:Snvs.rules ~switches ()
  in
  let sync () = ignore (Nerpa.Controller.sync c) in
  sync ();
  let dirty = ref false in
  List.iter
    (function
      | Frame { sw; _ } as f ->
        if !dirty then sync ();
        dirty := false;
        inject (List.assoc sw switches) f;
        sync ()
      | Changes (a, b) ->
        for i = a to b do
          apply_change db (change ~base ~seed i)
        done;
        dirty := true
      | Trunks { name; vlans } ->
        set_trunks db name vlans;
        dirty := true)
    log;
  sync ();
  List.map (fun n -> (n, Nerpa.Controller.dump_switch c n)) switch_names
