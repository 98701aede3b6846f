(* Safety monitor: watch a live request path through the wide-event bus
   and catch an enforcement bug the moment it produces a wrong permit.

   Run with: dune exec examples/safety_monitor.exe

   Every layer of the stack (gatekeeper, job manager, PEP, cache, store)
   emits correlated wide events. The online monitor subscribes to the bus
   and checks each event against the paper's enforcement invariants:
   default-deny, no stale-epoch decisions, no expired/revoked
   credentials authorizing work, crash-recovery equivalence, and
   fail-closed degradation never upgrading to a permit.

   The demo runs the same requests twice: once against a correct PEP
   (zero violations), then against a deliberately mis-wired PEP that
   flips one denial into a permit — which the monitor reports with the
   full correlated event chain of the offending request. *)

open Core

let policy_text =
  {|&/O=Grid/O=Demo: (action = start)(jobtag != NULL)
/O=Grid/O=Demo/CN=Alice: &(action = start)(executable = simulate)(count < 8)|}

let run ~sabotage =
  let tb = Testbed.create () in
  let alice = Testbed.add_user tb "/O=Grid/O=Demo/CN=Alice" in
  let obs = Testbed.obs tb in

  (* The flat-file PEP over the demo policy, optionally mis-wired so that
     denials come back as permits — the bug class "default deny" exists
     to rule out. *)
  let sources =
    [ Policy.Combine.source ~name:"demo" (Policy.Parse.parse policy_text) ]
  in
  let pep = Callout.File_pep.Compiled.(batch (create ~obs sources)) in
  let callout q =
    match Callout.Callout.Batch.check pep q with
    | Error (Callout.Callout.Denied _) when sabotage -> Ok ()
    | decision -> decision
  in

  (* The monitor needs a policy oracle to judge permits: here the
     uncompiled reference evaluator over the same sources, independent of
     the PEP's compiled index (the soak campaigns keep one per epoch). *)
  let oracle (e : Obs.Event.t) =
    match
      ( Obs.Event.attr e "subject",
        Option.bind (Obs.Event.attr e "action") Policy.Types.Action.of_string )
    with
    | Some subject, Some action ->
      let request =
        { Policy.Types.subject = Gsi.Dn.parse subject;
          action;
          job = Option.map Rsl.Parser.parse_clause_exn (Obs.Event.attr e "rsl");
          jobowner = Option.map Gsi.Dn.parse (Obs.Event.attr e "jobowner");
          jobtag = Obs.Event.attr e "jobtag" }
      in
      Some (Policy.Combine.is_permit (Policy.Combine.evaluate sources request))
    | _ -> None
  in
  let monitor = Obs.Monitor.create ~oracle (Obs.Obs.events obs) in

  let resource =
    Testbed.make_resource tb
      ~gridmap:(Gsi.Gridmap.parse {|"/O=Grid/O=Demo/CN=Alice" alice|})
      ~backend:(Custom callout)
  in
  let client = Testbed.client tb ~user:alice ~resource in

  (* Two requests: one the policy permits, one it denies (count over the
     limit). Under sabotage the denial comes back as a permit — a wrong
     answer no reply-path check would notice. *)
  List.iter
    (fun rsl ->
      match Gram.Client.submit_sync client ~rsl with
      | Ok r -> Printf.printf "  accepted: %s\n" r.Gram.Protocol.job_contact
      | Error e ->
        Printf.printf "  refused:  %s\n" (Gram.Protocol.submit_error_to_string e))
    [ "&(executable=simulate)(count=4)(jobtag=TEAM)(simduration=10)";
      "&(executable=simulate)(count=32)(jobtag=TEAM)(simduration=10)" ];
  Testbed.run tb;
  Obs.Monitor.flush monitor;
  Fmt.pr "%a@." Obs.Monitor.pp monitor

let () =
  print_endline "=== correct PEP ===";
  run ~sabotage:false;
  print_newline ();
  print_endline "=== sabotaged PEP (denials flipped to permits) ===";
  run ~sabotage:true
