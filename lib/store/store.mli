(** Durable state store: write-ahead journal + periodic snapshots.

    One store persists one component's state under a name prefix on a
    simulated disk: [<name>.journal] holds framed event records,
    [<name>.snapshot] the last compacted state. Snapshots are written to
    [<name>.snapshot.tmp], fsynced, atomically renamed over the old
    snapshot, and only then is the journal truncated — so every crash
    point leaves either the old snapshot with the full journal or the
    new snapshot with a (possibly still untruncated) journal, never a
    half-written snapshot. Recovery is snapshot entries + journal
    records; rebuilders must treat re-seen records as idempotent, which
    covers the rename-before-truncate crash window.

    Metrics (when built with an observer): [store_appends_total{file}],
    [store_bytes{file}], [store_fsyncs_total], [store_fsync_seconds],
    [store_snapshots_total], [store_torn_writes_total],
    [store_lost_tail_bytes_total]. *)

type t

val create :
  ?obs:Grid_obs.Obs.t ->
  ?snapshot_every:int ->
  disk:Grid_sim.Disk.t ->
  name:string ->
  unit ->
  t
(** [snapshot_every n] compacts after every [n] journal appends once a
    snapshot source is installed; omitted means journal-only (no
    compaction). The journal fsyncs after every append. Raises
    [Invalid_argument] when [n <= 0]. *)

val disk : t -> Grid_sim.Disk.t
val journal_file : t -> string
val snapshot_file : t -> string

val set_snapshot_source : t -> (unit -> string list) -> unit
(** Install the state serializer: called at compaction time to produce
    one record per live entity. *)

val append : t -> string -> unit
(** Journal one event record; may trigger compaction per
    [snapshot_every]. *)

val appends : t -> int
val snapshots_taken : t -> int
val journal_bytes : t -> int

val snapshot_now : t -> unit
(** Force a compaction (no-op without a snapshot source). *)

val crash : t -> unit
(** Crash the underlying disk: unsynced tails are lost or torn per the
    disk's fault profile. State in memory is untouched — pair with the
    owner dropping its tables and calling {!recover}. *)

(** {1 Recovery} *)

type recovery = {
  snapshot_records : string list;  (** state entries from the snapshot *)
  journal_records : string list;  (** events since that snapshot *)
  dropped_bytes : int;  (** corrupt/torn tail bytes discarded, both files *)
  tmp_discarded : bool;  (** an unfinished snapshot attempt was removed *)
}

val recover : t -> recovery
(** Read back everything that survived. Discards a leftover
    [.snapshot.tmp], replays the snapshot then the journal, drops
    corrupt tails cleanly, and re-arms the store's snapshot counter so
    subsequent appends continue compacting. Counted under
    [recovery_replayed_records_total]. *)

(** {1 Verification} *)

type check = {
  check_file : string;
  check_records : int;
  check_bytes : int;
  check_dropped : int;
  check_corruption : Journal.corruption option;
}

val verify : t -> check list
(** Scan both files end to end without mutating anything. *)

val pp_check : check Fmt.t
