(** The Nerpa controller: the state-synchronisation loop tying the
    three planes together (Fig. 4 of the paper).

    The controller is split into a {e step core} and a {e driver}.
    The step core ({!Step}, {!step}) turns one plane event into the
    commands to execute; it commits DL transactions but performs no
    transport I/O.  The driver ({!sync}) polls the {!Links}, feeds
    events to the core and executes its commands, owning every
    failure-handling policy: bounded retry with exponential backoff on
    transient write errors, digest-redelivery dedup by [list_id], and
    full reconciliation when a switch reconnects (dump its tables over
    the link, diff against the engine's outputs, write corrective
    deletes/inserts — observable via the [nerpa.reconcile.*] metrics). *)

exception Controller_error of string

type stats = {
  txns : int;             (** DL transactions committed *)
  entries_written : int;  (** table entries inserted/deleted *)
  digests_consumed : int;
  groups_updated : int;
}
(** An immutable snapshot of {e this} controller's counts, independent
    of the process-global {!Obs} registry (the [nerpa.*] metrics
    aggregate across controllers and read zero while collection is
    disabled; these do neither). *)

type t

(** Attachment to a sharded fleet's cross-shard relation exchange: the
    controller publishes its data-plane-learned (digest-fed) relations
    to its own shard's {!Xrel} store over [ex_publish] and subscribes
    to every peer shard's store over [ex_peers] — ordinary management
    links speaking {!Links.Publish} / [Poll_monitor] / [Resync], built
    by [Cluster] from a {!Shard_map} (socket links) or directly (the
    in-process harness). *)
type exchange = {
  ex_shard : int;  (** this controller's shard id *)
  ex_publish : Links.mgmt_link;  (** own shard's exchange store *)
  ex_peers : (int * Links.mgmt_link) list;  (** peer stores, by shard *)
}

val create :
  ?digest_replace:(string * string list) list ->
  ?max_iterations:int ->
  ?retry_limit:int ->
  ?endpoint:Endpoint.t ->
  ?exchange:exchange ->
  db:Ovsdb.Db.t ->
  p4:P4.Program.t ->
  rules:string ->
  switches:(string * P4.Switch.t) list ->
  unit ->
  t
(** Build a controller around in-process plane objects: generate the
    relation schema from [db]'s schema and [p4], parse the user [rules]
    text, create the engine, subscribe a monitor (only when a plane
    needs one), and attach a P4Runtime server to every switch (all run
    the same program, as in the paper's prototype).

    [digest_replace] gives last-writer-wins semantics to digest
    relations: [(digest, key_columns)] makes a newly inserted digest
    row retract previous rows agreeing on the key columns — e.g. MAC
    mobility, where a (vlan, mac) binding moves between ports.

    [max_iterations] (default [1000]) bounds the {!sync} feedback loop:
    the number of poll-commit-push iterations allowed before sync gives
    up and reports the still-changing relations.

    [retry_limit] (default [8]) bounds the write retries on a transient
    link failure before the switch is marked for reconciliation.

    [endpoint] (default {!Endpoint.in_process}) names each plane's
    transport; [Faulty] layers expose their {!Transport.ctl} via
    {!mgmt_ctl} / {!p4_ctl}.  A cluster endpoint is rejected — derive
    one shard's planes via [Cluster.connect_shard].

    [exchange] attaches the controller to a sharded fleet: each
    {!sync} iteration publishes newly learned digest rows to the own
    shard's store and ingests the peers' (with a snapshot resync on
    first contact and after any reconnect edge), feeding them into the
    engine as input deltas under the same last-writer-wins
    [digest_replace] policy as local digests.
    @raise Controller_error on parse errors, schema mismatches, a
    non-positive [max_iterations]/[retry_limit], or an [endpoint] plane
    that bottoms out in a socket-less transport with no local object. *)

val connect :
  ?digest_replace:(string * string list) list ->
  ?max_iterations:int ->
  ?retry_limit:int ->
  ?exchange:exchange ->
  endpoint:Endpoint.t ->
  schema:Ovsdb.Schema.t ->
  p4:P4.Program.t ->
  rules:string ->
  switch_names:string list ->
  unit ->
  t
(** Build a controller whose planes all live in {e another} process —
    typically one hosting them via [nerpa_cli serve] / [lib/server].
    Every transport in [endpoint] must bottom out in a [Socket]; the
    database schema and P4 program are this process's copies (drift
    fails loudly in the codecs), and switches are identified by name
    only.  The controller starts with every plane marked dirty, so the
    first {!sync} resyncs the management plane against the server's
    database and reconciles every switch rather than assuming empty
    peers.
    @raise Controller_error as {!create}, or if a transport is not
    socket-backed. *)

(** Events consumed and commands produced by the pure step core. *)
module Step : sig
  type event =
    | Monitor_batch of Ovsdb.Db.table_updates
    | Digest_lists of string * P4runtime.digest_list list
        (** digest lists received from the named switch (possibly
            redelivered — the core dedups by [list_id]) *)
    | Switch_up of string
    | Switch_down of string

  type command =
    | Write of string * P4runtime.update list
        (** send this batch to the named switch (atomic) *)
    | Ack of string * int  (** acknowledge a digest list *)
    | Reconcile of string  (** resynchronise the named switch's state *)
end

val step : t -> Step.event -> Step.command list
(** Process one plane event and return the commands to execute.  The
    core commits DL transactions and updates controller-local state but
    performs no transport I/O, so its decisions are testable without
    any link in place.  {!sync} is a thin loop around this function.
    @raise Controller_error on events naming unknown switches or
    digests. *)

val sync : t -> int
(** Process all pending management-plane changes and data-plane digests
    until quiescent; returns the number of DL transactions committed.
    Transient write failures are retried (bounded by [retry_limit]);
    switches whose links failed are reconciled when they reconnect.
    @raise Controller_error if a switch rejects a fresh batch outright,
    or if the feedback loop is still producing changes after
    [max_iterations] iterations — the error message reports the fuel
    spent and the names and delta cardinalities of the relations that
    were still changing in the last iteration. *)

val reconcile : t -> string -> unit
(** Force a full reconciliation of one switch (by name): dump its
    tables and multicast groups over the link, diff against the
    engine's outputs, and write corrective deletes/inserts.  A link
    failure leaves the switch marked dirty; the next {!sync} retries.
    @raise Controller_error on an unknown switch name. *)

val attach_flow_programmer :
  t -> string -> P4.Switch.t -> push:(Ofp4.Openflow.flow_delta -> unit) -> unit
(** Attach an incremental flow compiler ({!Ofp4.Compile.State}) to the
    named switch: from now on, every write batch the driver observes the
    switch apply — sync batches and reconciliation corrections alike —
    is mirrored into the state as a Z-set delta, and the resulting
    OpenFlow rule delta is handed to [push].  The state snapshots the
    switch's current entries at attach time; callers wanting the initial
    full pipeline read it via {!flow_pipeline}.  When a write outcome is
    ambiguous (the paths that schedule reconciliation) the feed pauses
    and the next successful reconciliation rebuilds the state from the
    switch object, pushing the catch-up as one delta — so [push] always
    converges to the switch's true compiled pipeline.  Requires the
    in-process switch object, i.e. a {!create}d controller, not a
    {!connect}ed one.
    @raise Controller_error on an unknown switch name. *)

val flow_pipeline : t -> string -> Ofp4.Openflow.t option
(** The attached flow programmer's current full pipeline, or [None]
    when no programmer is attached.
    @raise Controller_error on an unknown switch name. *)

val mark_mgmt_dirty : t -> unit
(** Force a management-plane resync (snapshot + diff + one corrective
    transaction) at the start of the next {!sync} — what the driver
    does itself after a reconnect edge or a failed poll. *)

val mgmt_ctl : t -> Transport.ctl option
(** The fault-injection handle of the management link, when the
    endpoint wrapped it in [Faulty]. *)

val p4_ctl : t -> string -> Transport.ctl option
(** The fault-injection handle of the named switch's link, when the
    endpoint wrapped it in [Faulty]. *)

val dump_switch : t -> string -> string
(** Canonical byte dump of one switch's forwarding state, read over its
    link: every table's entries (sorted) in the wire encoding plus the
    multicast groups (sorted).  Byte-comparable across processes and
    transports — the convergence tests' equality oracle.
    @raise Controller_error on an unknown switch or a link failure. *)

val engine : t -> Dl.Engine.t
(** The underlying engine, for inspection. *)

val relations : t -> string list
(** Every relation of the generated program, in declaration order. *)

val relation_dump : t -> string -> string list
(** Canonical text dump of one engine relation, sorted — the
    cross-shard convergence tests' per-relation equality oracle. *)

val stats : t -> stats
(** This controller's own counts (see {!type-stats}). *)

val preflight : t -> string list
(** Authoring lint: output relations no rule writes (except those bound
    to a table's default action) and digest relations no rule reads. *)
