(* Journal + snapshot store with compaction.

   The snapshot file reuses the journal's framing: record 0 is a meta
   record (kind=snapshot-meta, seq, count), followed by one state record
   per entity. Compaction order — write tmp, fsync tmp, rename, truncate
   journal — is what gives the crash-window guarantees documented in the
   interface. *)

type t = {
  disk : Grid_sim.Disk.t;
  name : string;
  obs : Grid_obs.Obs.t;
  journal : Journal.t;
  snapshot_every : int option;
  mutable snapshot_source : (unit -> string list) option;
  mutable appends_since_snapshot : int;
  mutable snapshot_seq : int;
  mutable snapshots_taken : int;
}

let journal_file_of name = name ^ ".journal"
let snapshot_file_of name = name ^ ".snapshot"
let tmp_file_of name = name ^ ".snapshot.tmp"

let observe_disk ~obs disk =
  if Grid_obs.Obs.enabled obs then
    Grid_sim.Disk.on_event disk (fun event ->
        let fault kind file detail =
          Grid_obs.Obs.emit obs ~layer:"disk" "disk.fault"
            ([ ("event", kind); ("file", file) ] @ detail)
        in
        match event with
        | Grid_sim.Disk.Synced { latency; _ } ->
          Grid_obs.Obs.incr obs "store_fsyncs_total";
          Grid_obs.Obs.observe obs "store_fsync_seconds" latency
        | Grid_sim.Disk.Torn { file; lost; _ } ->
          Grid_obs.Obs.incr obs ~labels:[ ("file", file) ] "store_torn_writes_total";
          Grid_obs.Obs.incr obs ~by:(float_of_int lost) "store_lost_tail_bytes_total";
          fault "torn" file [ ("lost", string_of_int lost) ]
        | Grid_sim.Disk.Truncated { file; lost } ->
          Grid_obs.Obs.incr obs ~labels:[ ("file", file) ] "store_truncated_tails_total";
          Grid_obs.Obs.incr obs ~by:(float_of_int lost) "store_lost_tail_bytes_total";
          fault "truncated" file [ ("lost", string_of_int lost) ]
        | Grid_sim.Disk.Corrupted { file; _ } ->
          Grid_obs.Obs.incr obs ~labels:[ ("file", file) ] "store_corruptions_total";
          fault "corrupted" file [])

let create ?(obs = Grid_obs.Obs.noop) ?snapshot_every ~disk ~name () =
  (match snapshot_every with
  | Some n when n <= 0 -> invalid_arg "Store: snapshot_every must be positive"
  | Some _ | None -> ());
  observe_disk ~obs disk;
  { disk;
    name;
    obs;
    journal = Journal.create ~disk ~file:(journal_file_of name) ();
    snapshot_every;
    snapshot_source = None;
    appends_since_snapshot = 0;
    snapshot_seq = 0;
    snapshots_taken = 0 }

let disk t = t.disk
let journal_file t = journal_file_of t.name
let snapshot_file t = snapshot_file_of t.name
let appends t = Journal.appends t.journal
let snapshots_taken t = t.snapshots_taken
let journal_bytes t = Journal.bytes t.journal

let set_snapshot_source t f = t.snapshot_source <- Some f

let set_size_gauges t =
  if Grid_obs.Obs.enabled t.obs then begin
    let gauge file =
      Grid_obs.Obs.set_gauge t.obs ~labels:[ ("file", file) ] "store_bytes"
        (float_of_int (Grid_sim.Disk.size t.disk ~file))
    in
    gauge (journal_file t);
    gauge (snapshot_file t)
  end

let meta_record ~seq ~count =
  Codec.encode
    [ ("kind", "snapshot-meta");
      ("seq", string_of_int seq);
      ("count", string_of_int count) ]

let write_snapshot t source =
  let entries = source () in
  let tmp = tmp_file_of t.name in
  Grid_sim.Disk.delete t.disk ~file:tmp;
  t.snapshot_seq <- t.snapshot_seq + 1;
  Grid_sim.Disk.append t.disk ~file:tmp
    (Journal.frame (meta_record ~seq:t.snapshot_seq ~count:(List.length entries)));
  List.iter (fun entry -> Grid_sim.Disk.append t.disk ~file:tmp (Journal.frame entry)) entries;
  ignore (Grid_sim.Disk.sync t.disk ~file:tmp);
  Grid_sim.Disk.rename t.disk ~src:tmp ~dst:(snapshot_file t);
  Grid_sim.Disk.truncate t.disk ~file:(journal_file t);
  t.appends_since_snapshot <- 0;
  t.snapshots_taken <- t.snapshots_taken + 1;
  if Grid_obs.Obs.enabled t.obs then begin
    Grid_obs.Obs.incr t.obs "store_snapshots_total";
    Grid_obs.Obs.set_gauge t.obs "store_snapshot_records" (float_of_int (List.length entries))
  end;
  set_size_gauges t

let snapshot_now t =
  match t.snapshot_source with None -> () | Some source -> write_snapshot t source

let append t payload =
  Journal.append t.journal payload;
  t.appends_since_snapshot <- t.appends_since_snapshot + 1;
  if Grid_obs.Obs.enabled t.obs then
    Grid_obs.Obs.incr t.obs ~labels:[ ("file", journal_file t) ] "store_appends_total";
  (match (t.snapshot_every, t.snapshot_source) with
  | Some every, Some source when t.appends_since_snapshot >= every ->
    write_snapshot t source
  | _ -> ());
  set_size_gauges t

let crash t = Grid_sim.Disk.crash t.disk

(* --- Recovery ---------------------------------------------------------- *)

type recovery = {
  snapshot_records : string list;
  journal_records : string list;
  dropped_bytes : int;
  tmp_discarded : bool;
}

let recover t =
  let tmp = tmp_file_of t.name in
  let tmp_discarded = Grid_sim.Disk.exists t.disk ~file:tmp in
  if tmp_discarded then Grid_sim.Disk.delete t.disk ~file:tmp;
  let snap = Journal.replay ~disk:t.disk ~file:(snapshot_file t) in
  let seq, snapshot_records =
    match snap.Journal.records with
    | meta :: entries -> begin
      let fields = Codec.decode meta in
      match (Codec.field fields "kind", Codec.field fields "seq") with
      | Some "snapshot-meta", Some seq ->
        ((match int_of_string_opt seq with Some s -> s | None -> 0), entries)
      | _ ->
        (* No meta record: treat the whole file as state entries. *)
        (0, meta :: entries)
    end
    | [] -> (0, [])
  in
  let jr = Journal.replay ~disk:t.disk ~file:(journal_file t) in
  t.snapshot_seq <- max t.snapshot_seq seq;
  t.appends_since_snapshot <- List.length jr.Journal.records;
  let replayed = List.length snapshot_records + List.length jr.Journal.records in
  if Grid_obs.Obs.enabled t.obs then begin
    Grid_obs.Obs.incr t.obs ~by:(float_of_int replayed) "recovery_replayed_records_total";
    Grid_obs.Obs.incr t.obs
      ~by:(float_of_int (snap.Journal.dropped_bytes + jr.Journal.dropped_bytes))
      "recovery_dropped_bytes_total"
  end;
  { snapshot_records;
    journal_records = jr.Journal.records;
    dropped_bytes = snap.Journal.dropped_bytes + jr.Journal.dropped_bytes;
    tmp_discarded }

(* --- Verification ------------------------------------------------------ *)

type check = {
  check_file : string;
  check_records : int;
  check_bytes : int;
  check_dropped : int;
  check_corruption : Journal.corruption option;
}

let verify t =
  List.map
    (fun file ->
      let r = Journal.replay ~disk:t.disk ~file in
      { check_file = file;
        check_records = List.length r.Journal.records;
        check_bytes = Grid_sim.Disk.size t.disk ~file;
        check_dropped = r.Journal.dropped_bytes;
        check_corruption = r.Journal.corruption })
    [ journal_file t; snapshot_file t ]

let pp_check ppf c =
  Fmt.pf ppf "%s: %d records, %d bytes%s" c.check_file c.check_records c.check_bytes
    (match c.check_corruption with
    | None -> ", intact"
    | Some why ->
      Printf.sprintf ", %d bytes dropped (%s)" c.check_dropped
        (Journal.corruption_to_string why))
