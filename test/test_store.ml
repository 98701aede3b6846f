(* Crash-safety suite for the durable job-manager store: journal framing
   under truncated tails, torn final records and bit rot; the snapshot
   rename-before-truncate crash window; replay idempotence; and the
   headline recovery invariant — a restarted job manager answers the
   same management decisions as one that never crashed, including the
   third-party jobtag-authorized cancel and default-deny.

   Every randomized check also runs under pinned seeds so `dune runtest`
   is deterministic. *)

open Core

let disk ?faults ?(seed = 4242) () = Sim.Disk.create ?faults ~seed ()

let torn_always =
  Sim.Disk.Faults.profile ~torn_write:1.0 ()

(* --- Journal framing under corruption --------------------------------- *)

(* A partial final frame (the classic truncated tail): replay keeps the
   complete prefix and drops the half-written record cleanly. *)
let test_truncated_tail () =
  let d = disk () in
  let j = Store.Journal.create ~disk:d ~file:"t.journal" () in
  List.iter (Store.Journal.append j) [ "alpha"; "beta"; "gamma" ];
  let frame = Store.Journal.frame "delta" in
  Sim.Disk.append d ~file:"t.journal" (String.sub frame 0 (String.length frame - 3));
  ignore (Sim.Disk.sync d ~file:"t.journal");
  let r = Store.Journal.replay ~disk:d ~file:"t.journal" in
  Alcotest.(check (list string)) "prefix survives" [ "alpha"; "beta"; "gamma" ] r.Store.Journal.records;
  Alcotest.(check bool) "tail dropped" true (r.Store.Journal.dropped_bytes > 0);
  (match r.Store.Journal.corruption with
  | Some (Store.Journal.Truncated_frame _) -> ()
  | c ->
    Alcotest.failf "expected Truncated_frame, got %s"
      (match c with
      | None -> "clean tail"
      | Some c -> Store.Journal.corruption_to_string c))

(* A crash with torn_write=1.0 keeps a proper prefix of the unsynced
   final record: the synced records replay bit-exact, the torn one is
   dropped — never half-applied. *)
let test_torn_final_record () =
  List.iter
    (fun seed ->
      let d = disk ~faults:torn_always ~seed () in
      let j = Store.Journal.create ~sync:Store.Journal.Manual ~disk:d ~file:"t.journal" () in
      List.iter (Store.Journal.append j) [ "alpha"; "beta" ];
      Store.Journal.sync j;
      Store.Journal.append j "unsynced-final-record";
      Sim.Disk.crash d;
      let r = Store.Journal.replay ~disk:d ~file:"t.journal" in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: synced prefix survives" seed)
        [ "alpha"; "beta" ] r.Store.Journal.records;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: torn record dropped or vanished" seed)
        true
        (r.Store.Journal.dropped_bytes > 0 || r.Store.Journal.corruption = None))
    [ 1; 7; 42; 1000003 ]

(* Bit rot inside an interior record: everything before the flipped byte
   replays, the damaged record and everything after are dropped. *)
let test_bit_rot_checksum () =
  let d = disk () in
  let j = Store.Journal.create ~disk:d ~file:"t.journal" () in
  List.iter (Store.Journal.append j) [ "first"; "second"; "third" ];
  let first_len = String.length (Store.Journal.frame "first") in
  (* Flip a byte inside the *second* record's payload. *)
  Sim.Disk.corrupt d ~file:"t.journal" ~at:(first_len + 14);
  let r = Store.Journal.replay ~disk:d ~file:"t.journal" in
  Alcotest.(check (list string)) "clean prefix" [ "first" ] r.Store.Journal.records;
  (match r.Store.Journal.corruption with
  | Some (Store.Journal.Checksum_mismatch { offset }) ->
    Alcotest.(check int) "fails at record 2" first_len offset
  | c ->
    Alcotest.failf "expected Checksum_mismatch, got %s"
      (match c with
      | None -> "clean tail"
      | Some c -> Store.Journal.corruption_to_string c))

let test_replay_idempotent () =
  let d = disk ~faults:torn_always ~seed:99 () in
  let j = Store.Journal.create ~sync:Store.Journal.Manual ~disk:d ~file:"t.journal" () in
  List.iter (Store.Journal.append j) [ "a"; "b"; "c" ];
  Store.Journal.sync j;
  Store.Journal.append j "torn";
  Sim.Disk.crash d;
  let r1 = Store.Journal.replay ~disk:d ~file:"t.journal" in
  let r2 = Store.Journal.replay ~disk:d ~file:"t.journal" in
  Alcotest.(check (list string)) "same records" r1.Store.Journal.records r2.Store.Journal.records;
  Alcotest.(check int) "same valid bytes" r1.Store.Journal.valid_bytes r2.Store.Journal.valid_bytes;
  Alcotest.(check int) "same dropped bytes" r1.Store.Journal.dropped_bytes r2.Store.Journal.dropped_bytes

(* The frame check's two CRCs against published values: the CRC-32C
   vectors of RFC 3720 B.4, and the "123456789" check value of each
   polynomial. *)
let test_crc_vectors () =
  let check name input ?ieee castagnoli =
    let c, i = Store.Crc.both input in
    Alcotest.(check int) (name ^ ": CRC-32C") castagnoli c;
    Option.iter (fun ieee -> Alcotest.(check int) (name ^ ": CRC-32") ieee i) ieee
  in
  check "32 x 0x00" (String.make 32 '\x00') 0x8A9136AA;
  check "32 x 0xFF" (String.make 32 '\xff') 0x62A8AB43;
  check "bytes 0..31" (String.init 32 Char.chr) 0x46DD794E;
  check "bytes 31..0" (String.init 32 (fun i -> Char.chr (31 - i))) 0x113FDB5C;
  check "123456789" "123456789" ~ieee:0xCBF43926 0xE3069283;
  let header = String.sub (Store.Journal.frame "123456789") 5 8 in
  Alcotest.(check string) "frame stores masked CRC-32C, then CRC-32"
    (Printf.sprintf "%08x%08x" (Store.Crc.mask 0xE3069283) 0xCBF43926)
    (Grid_crypto.Hex.encode header)

(* Flipping any one byte of a journal never replays a changed record:
   replay keeps exactly the frames before the damaged one and reports a
   typed corruption at that frame's offset. *)
let qcheck_byte_flip_never_replays_changed =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 2 8) (string_size (int_range 0 60)))
        nat (int_range 1 255))
  in
  QCheck.Test.make ~name:"one flipped byte: clean prefix, typed corruption" ~count:500
    (QCheck.make
       ~print:(fun (payloads, at, x) ->
         Printf.sprintf "%d records, byte %d xor 0x%02x" (List.length payloads) at x)
       gen)
    (fun (payloads, at, x) ->
      let frames = List.map Store.Journal.frame payloads in
      let bytes = Bytes.of_string (String.concat "" frames) in
      let at = at mod Bytes.length bytes in
      Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor x));
      let d = disk () in
      Sim.Disk.append d ~file:"t.journal" (Bytes.to_string bytes);
      ignore (Sim.Disk.sync d ~file:"t.journal");
      let r = Store.Journal.replay ~disk:d ~file:"t.journal" in
      (* The damaged frame's index and start offset. *)
      let rec locate k start = function
        | f :: rest ->
          if at < start + String.length f then (k, start)
          else locate (k + 1) (start + String.length f) rest
        | [] -> assert false
      in
      let k, start = locate 0 0 frames in
      let offset =
        match r.Store.Journal.corruption with
        | Some
            ( Store.Journal.Truncated_frame { offset }
            | Store.Journal.Checksum_mismatch { offset }
            | Store.Journal.Bad_magic { offset } ) -> offset
        | None -> -1
      in
      r.Store.Journal.records = List.filteri (fun i _ -> i < k) payloads
      && offset = start && r.Store.Journal.valid_bytes = start)

(* --- Snapshot crash windows ------------------------------------------- *)

(* Crash mid-snapshot: a leftover [.snapshot.tmp] (possibly garbage) must
   be discarded, and recovery falls back to the previous snapshot plus
   the untruncated journal. *)
let test_crash_during_snapshot_fallback () =
  let d = disk () in
  let s = Store.Store.create ~disk:d ~name:"jm" () in
  let live = ref [] in
  Store.Store.set_snapshot_source s (fun () -> List.rev !live);
  let add r =
    live := r :: !live;
    Store.Store.append s r
  in
  List.iter add [ "one"; "two" ];
  Store.Store.snapshot_now s;
  List.iter add [ "three"; "four" ];
  (* A half-written snapshot attempt that never reached the rename. *)
  Sim.Disk.append d ~file:(Store.Store.snapshot_file s ^ ".tmp") "garbage-partial-snapshot";
  Store.Store.crash s;
  let r = Store.Store.recover s in
  Alcotest.(check bool) "tmp discarded" true r.Store.Store.tmp_discarded;
  Alcotest.(check bool) "tmp gone from disk" false
    (Sim.Disk.exists d ~file:(Store.Store.snapshot_file s ^ ".tmp"));
  Alcotest.(check (list string)) "old snapshot intact" [ "one"; "two" ]
    r.Store.Store.snapshot_records;
  Alcotest.(check (list string)) "journal since snapshot" [ "three"; "four" ]
    r.Store.Store.journal_records

(* Compaction keeps the recover-time view equal to the full history:
   snapshot records followed by post-snapshot journal records. *)
let test_snapshot_compaction_roundtrip () =
  let d = disk () in
  let s = Store.Store.create ~snapshot_every:3 ~disk:d ~name:"jm" () in
  let live = ref [] in
  Store.Store.set_snapshot_source s (fun () -> List.rev !live);
  let all = List.init 10 (fun i -> Printf.sprintf "record-%02d" i) in
  List.iter
    (fun r ->
      live := r :: !live;
      Store.Store.append s r)
    all;
  Alcotest.(check bool) "compaction happened" true (Store.Store.snapshots_taken s > 0);
  Store.Store.crash s;
  let r = Store.Store.recover s in
  Alcotest.(check (list string)) "snapshot + journal = history" all
    (r.Store.Store.snapshot_records @ r.Store.Store.journal_records);
  Alcotest.(check (list (pair string string))) "verify clean" []
    (List.filter_map
       (fun c ->
         Option.map
           (fun corruption -> (c.Store.Store.check_file, Store.Journal.corruption_to_string corruption))
           c.Store.Store.check_corruption)
       (Store.Store.verify s))

(* Property: for any payload set and snapshot interval, what recovery
   reads back (snapshot entries then journal records) is exactly the
   append history, in order — compaction never loses or reorders. *)
let qcheck_store_preserves_history =
  QCheck.Test.make ~name:"recover returns full append history" ~count:60
    QCheck.(triple small_int (int_range 1 5) (small_list (string_of_size Gen.small_nat)))
    (fun (seed, snapshot_every, payloads) ->
      let d = disk ~seed:(seed + 1) () in
      let s = Store.Store.create ~snapshot_every ~disk:d ~name:"jm" () in
      let live = ref [] in
      Store.Store.set_snapshot_source s (fun () -> List.rev !live);
      List.iter
        (fun r ->
          live := r :: !live;
          Store.Store.append s r)
        payloads;
      Store.Store.crash s;
      let r = Store.Store.recover s in
      r.Store.Store.snapshot_records @ r.Store.Store.journal_records = payloads)

(* --- Job-table recovery equals the live table ------------------------- *)

let table resource =
  List.map
    (fun jmi ->
      ( Gram.Job_manager.contact jmi,
        Gsi.Dn.to_string (Gram.Job_manager.owner jmi),
        Gram.Job_manager.jobtag jmi,
        Gram.Job_manager.account jmi ))
    (Gram.Resource.jobs resource)
  |> List.sort compare

let workload_profiles (w : Fusion.world) =
  [ { Workload.identity = Gram.Client.identity w.Fusion.bo;
      rsl_templates =
        [ "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=30)" ];
      weight = 1 };
    { Workload.identity = Gram.Client.identity w.Fusion.kate;
      rsl_templates =
        [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=60)" ];
      weight = 1 } ]

let recovered_table_matches_live ~jobs ~seed ~snapshot_every =
  let w = Fusion.build ~nodes:8 ~cpus_per_node:8 ~store:true ?snapshot_every () in
  ignore
    (Workload.run
       ~engine:(Testbed.engine w.Fusion.testbed)
       ~resource:w.Fusion.resource ~profiles:(workload_profiles w)
       { Workload.default_config with Workload.job_count = jobs; arrival_rate = 15.0; seed });
  let before = table w.Fusion.resource in
  Gram.Resource.crash w.Fusion.resource;
  Alcotest.(check int) "crash empties the job table" 0
    (List.length (Gram.Resource.jobs w.Fusion.resource));
  let summary = Gram.Resource.recover w.Fusion.resource in
  let after = table w.Fusion.resource in
  (before = after, before, after, summary)

let test_recovery_rebuilds_job_table () =
  List.iter
    (fun (jobs, seed, snapshot_every) ->
      let equal, before, _, summary = recovered_table_matches_live ~jobs ~seed ~snapshot_every in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d seed=%d: recovered table = live table" jobs seed)
        true equal;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d seed=%d: all jobs restored" jobs seed)
        (List.length before) summary.Gram.Resource.jobs_restored;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d seed=%d: no decode failures" jobs seed)
        0 summary.Gram.Resource.decode_failures)
    [ (12, 3, None); (25, 7, Some 5); (40, 42, Some 8) ]

let qcheck_recovery_equals_live_table =
  QCheck.Test.make ~name:"replay(snapshot+journal) = live job table" ~count:8
    QCheck.(pair (int_range 1 20) (int_range 0 1000))
    (fun (jobs, seed) ->
      let snapshot_every = if seed mod 2 = 0 then Some ((seed mod 6) + 2) else None in
      let equal, _, _, _ = recovered_table_matches_live ~jobs ~seed ~snapshot_every in
      equal)

(* --- Decision equivalence across a crash ------------------------------ *)

(* The paper's Section 4.2 requirement, end to end: every management
   decision a restarted job manager makes — owner cancel, third-party
   cancel authorized by a jobtag clause, admin status read, unknown job,
   and the default-deny for a requester with no grant — is identical to
   the uncrashed run. Pinned seeds; the worlds are rebuilt from scratch
   for each arm so nothing leaks between them. *)
let scripted_decisions ~crash =
  let w = Fusion.build ~store:true ~snapshot_every:4 () in
  let submit client rsl =
    match Gram.Client.submit_sync client ~rsl with
    | Ok r -> Some r.Gram.Protocol.job_contact
    | Error _ -> None
  in
  let kate_job =
    submit w.Fusion.kate
      "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=100000)"
  in
  let bo_job =
    submit w.Fusion.bo
      "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=100000)"
  in
  if crash then begin
    Gram.Resource.crash w.Fusion.resource;
    let s = Gram.Resource.recover w.Fusion.resource in
    Alcotest.(check int) "both live jobs restored" 2 s.Gram.Resource.jobs_restored
  end;
  let manage client contact action =
    match contact with
    | None -> "no-job"
    | Some contact -> begin
      match Gram.Client.manage_sync client ~contact action with
      | Ok _ -> "ok"
      | Error e -> Gram.Protocol.management_error_to_string e
    end
  in
  [ manage w.Fusion.bo kate_job Gram.Protocol.Cancel;  (* default-deny: no grant *)
    manage w.Fusion.kate bo_job Gram.Protocol.Status;  (* admin tag grant *)
    manage w.Fusion.vo_admin (Some "jmi-none") Gram.Protocol.Cancel;  (* unknown job *)
    manage w.Fusion.vo_admin kate_job Gram.Protocol.Cancel;  (* third-party jobtag ok *)
    manage w.Fusion.bo bo_job Gram.Protocol.Cancel ]  (* owner ok *)

let test_decision_equivalence_after_crash () =
  let uncrashed = scripted_decisions ~crash:false in
  let recovered = scripted_decisions ~crash:true in
  Alcotest.(check (list string)) "decision sequences identical" uncrashed recovered;
  (* The sequence itself is part of the contract: a silently-permitted
     bo->kate cancel or a lost jobtag grant would still be "equal" if
     both arms regressed together. *)
  Alcotest.(check bool) "bo -> kate cancel denied" true
    (String.length (List.nth uncrashed 0) > 2
    && not (String.equal (List.nth uncrashed 0) "ok"));
  Alcotest.(check string) "kate admin status ok" "ok" (List.nth uncrashed 1);
  Alcotest.(check bool) "unknown job refused" true
    (not (String.equal (List.nth uncrashed 2) "ok"));
  Alcotest.(check string) "vo_admin third-party cancel ok" "ok" (List.nth uncrashed 3);
  Alcotest.(check string) "owner cancel ok" "ok" (List.nth uncrashed 4)

(* Recovery journals into the audit trail and bumps the metrics. *)
let test_recovery_observable () =
  let w = Fusion.build ~store:true () in
  ignore
    (Gram.Client.submit_sync w.Fusion.kate
       ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=100000)");
  Gram.Resource.crash w.Fusion.resource;
  ignore (Gram.Resource.recover w.Fusion.resource);
  let recovery_records =
    Audit.Audit.by_kind (Gram.Resource.audit w.Fusion.resource) Audit.Audit.Recovery
  in
  Alcotest.(check int) "crash + recovery audited" 2 (List.length recovery_records);
  let metrics = Obs.Obs.metrics (Gram.Resource.obs w.Fusion.resource) in
  let counter ?labels name = Obs.Metrics.counter_value metrics ?labels name in
  Alcotest.(check bool) "crash counted" true
    (counter ~labels:[ ("resource", "fusion-site") ] "resource_crashes_total" >= 1.0);
  Alcotest.(check bool) "recovery counted" true
    (counter ~labels:[ ("resource", "fusion-site") ] "resource_recoveries_total" >= 1.0);
  let journal_file =
    match Gram.Resource.store w.Fusion.resource with
    | Some store -> Store.Store.journal_file store
    | None -> Alcotest.fail "world built without a store"
  in
  Alcotest.(check bool) "appends counted" true
    (counter ~labels:[ ("file", journal_file) ] "store_appends_total" >= 1.0)

(* --- Persist codec ----------------------------------------------------- *)

let roundtrip event =
  match Gram.Persist.decode (Gram.Persist.encode event) with
  | Ok e -> e
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_persist_roundtrip () =
  let owner = Gsi.Dn.parse "/O=Grid/O=Demo/CN=Alice Doe" in
  let entry =
    { Gram.Persist.contact = "jmi-000042";
      owner;
      account = "alice";
      jobtag = Some "NFC";
      rsl = "&(executable=TRANSP)(count=4)";
      rsl_fingerprint = String.make 64 'a';
      policy_epoch = Some 3;
      limits =
        { Accounts.Sandbox.max_cpus = Some 4;
          max_memory_mb = None;
          max_walltime = Some 3600.0;
          allowed_directories = [ "/sandbox/test" ];
          allowed_executables = [ "TRANSP"; "a=b,c" ] };
      lrm_job = Some "lrm-7";
      created_at = 12.5 }
  in
  (match roundtrip (Gram.Persist.Job_created entry) with
  | Gram.Persist.Job_created e ->
    Alcotest.(check string) "contact" entry.Gram.Persist.contact e.Gram.Persist.contact;
    Alcotest.(check bool) "owner" true (Gsi.Dn.equal owner e.Gram.Persist.owner);
    Alcotest.(check (option string)) "jobtag" (Some "NFC") e.Gram.Persist.jobtag;
    Alcotest.(check (option int)) "epoch" (Some 3) e.Gram.Persist.policy_epoch;
    Alcotest.(check (list string)) "executables with separators" [ "TRANSP"; "a=b,c" ]
      e.Gram.Persist.limits.Accounts.Sandbox.allowed_executables
  | _ -> Alcotest.fail "wrong constructor");
  (match
     roundtrip
       (Gram.Persist.Management
          { contact = "jmi-000042"; requester = owner; action = "cancel";
            outcome = "denied"; at = 99.0 })
   with
  | Gram.Persist.Management { outcome; _ } ->
    Alcotest.(check string) "outcome" "denied" outcome
  | _ -> Alcotest.fail "wrong constructor");
  match Gram.Persist.decode "kind=nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus kind must not decode"

(* Rebuild is idempotent under the rename-before-truncate window: the
   same creation records seen in both snapshot and journal collapse to
   one entry per contact. *)
let test_rebuild_idempotent () =
  let owner = Gsi.Dn.parse "/O=Grid/O=Demo/CN=Alice" in
  let entry contact =
    Gram.Persist.encode
      (Gram.Persist.Job_created
         { Gram.Persist.contact;
           owner;
           account = "alice";
           jobtag = None;
           rsl = "&(executable=simulate)";
           rsl_fingerprint = String.make 64 '0';
           policy_epoch = None;
           limits = Accounts.Sandbox.unrestricted;
           lrm_job = None;
           created_at = 0.0 })
  in
  let records = [ entry "jmi-1"; entry "jmi-2" ] in
  let r = Gram.Persist.rebuild ~snapshot:records ~journal:records in
  Alcotest.(check int) "deduplicated by contact" 2 (List.length r.Gram.Persist.entries);
  Alcotest.(check int) "all records decoded" 4 r.Gram.Persist.events;
  Alcotest.(check int) "no failures" 0 r.Gram.Persist.decode_failures;
  Alcotest.(check (list string)) "creation order kept" [ "jmi-1"; "jmi-2" ]
    (List.map (fun (e : Gram.Persist.job_entry) -> e.Gram.Persist.contact) r.Gram.Persist.entries)

let () =
  Alcotest.run "grid_store"
    [ ( "journal",
        [ Alcotest.test_case "truncated tail" `Quick test_truncated_tail;
          Alcotest.test_case "torn final record" `Quick test_torn_final_record;
          Alcotest.test_case "bit rot checksum" `Quick test_bit_rot_checksum;
          Alcotest.test_case "replay idempotent" `Quick test_replay_idempotent;
          Alcotest.test_case "crc vectors" `Quick test_crc_vectors;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 3720 |])
            qcheck_byte_flip_never_replays_changed ] );
      ( "snapshot",
        [ Alcotest.test_case "crash during snapshot falls back" `Quick
            test_crash_during_snapshot_fallback;
          Alcotest.test_case "compaction roundtrip" `Quick test_snapshot_compaction_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_store_preserves_history ] );
      ( "recovery",
        [ Alcotest.test_case "rebuilds job table" `Quick test_recovery_rebuilds_job_table;
          QCheck_alcotest.to_alcotest qcheck_recovery_equals_live_table;
          Alcotest.test_case "decision equivalence after crash" `Quick
            test_decision_equivalence_after_crash;
          Alcotest.test_case "recovery observable" `Quick test_recovery_observable ] );
      ( "persist",
        [ Alcotest.test_case "codec roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "rebuild idempotent" `Quick test_rebuild_idempotent ] ) ]
