(** snvs — the "simple network virtual switch" of §4.3 of the paper:
    VLANs (access/trunk with admission control), MAC learning through
    data-plane digests, per-VLAN flooding via multicast groups, port
    mirroring, and a ternary MAC ACL.

    The three artefacts a Nerpa programmer writes are exposed here:
    the OVSDB {!schema}, the mini-P4 program {!p4}, and the DL control
    {!rules}.  Everything else is generated. *)

val schema : Ovsdb.Schema.t
(** Five management tables: Switch, Port, Mirror, Acl, Vlan. *)

val p4 : P4.Program.t
(** The data plane: strip/in_vlan/acl/mirror/smac/dmac ingress tables
    and the out_vlan egress tagger, plus the [learned_mac] digest. *)

val rules : string
(** The hand-written control-plane rules (DL source text). *)

val digest_replace : (string * string list) list
(** The MAC-mobility digest-replacement configuration
    ([learned_mac] keyed by (vlan, mac)) that {!deploy} and {!connect}
    install — exposed for harnesses that build controllers over the
    snvs planes directly (fleet baselines, {!Nerpa.Cluster}). *)

(** {1 Deployment} *)

type deployment = {
  db : Ovsdb.Db.t;
  switch : P4.Switch.t;
  controller : Nerpa.Controller.t;
}

val deploy :
  ?switch_name:string ->
  ?max_iterations:int ->
  ?endpoint:Nerpa.Endpoint.t ->
  ?exchange:Nerpa.Controller.exchange ->
  unit ->
  deployment
(** A ready-to-run single-switch deployment with MAC-mobility digest
    replacement configured.  [max_iterations], [endpoint] and
    [exchange] are passed through to {!Nerpa.Controller.create}
    (feedback-loop bound, plane-transport choice, cross-shard
    exchange attachment). *)

val connect :
  ?switch_names:string list ->
  ?max_iterations:int ->
  ?exchange:Nerpa.Controller.exchange ->
  endpoint:Nerpa.Endpoint.t ->
  unit ->
  Nerpa.Controller.t
(** An snvs controller whose database and switches (default
    [["snvs0"]]) live in another process, reached through [endpoint]
    (socket transports; see {!Nerpa.Controller.connect}).  Digest
    replacement is configured as in {!deploy}. *)

val add_port :
  deployment ->
  name:string ->
  port:int ->
  mode:string ->
  tag:int ->
  trunks:int list ->
  Ovsdb.Uuid.t
(** Insert a Port row ([mode] is ["access"] or ["trunk"]); call
    [Nerpa.Controller.sync] afterwards. *)

val del_port : deployment -> name:string -> unit

val add_mirror :
  deployment -> name:string -> select_port:int -> output_port:int -> Ovsdb.Uuid.t

val add_acl :
  deployment ->
  priority:int ->
  src:int64 ->
  src_mask:int64 ->
  dst:int64 ->
  dst_mask:int64 ->
  allow:bool ->
  Ovsdb.Uuid.t

val set_vlan_flood : deployment -> vlan:int -> flood:bool -> unit

(** {1 The §4.3 LoC inventory} *)

type loc_inventory = {
  rules_loc : int;
  generated_loc : int;
  p4_loc : int;
  ovsdb_tables : int;
  glue_loc : int;
}

val count_lines : string -> int
(** Non-empty, non-comment lines of a source string. *)

val loc_inventory : unit -> loc_inventory
