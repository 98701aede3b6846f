(* Decision digests: one line per simulate configuration, each an MD5
   (Stdlib [Digest]) over the resource's ordered audit trail rendered
   with [Audit.pp_record], plus its journal bytes when the resource has
   a durable store. A fleet configuration prints one digest per member,
   in member order.

   The printed totals of [gridctl simulate] stay equal when a denial
   changes its reason or two decisions swap places; these digests do
   not. The configurations repeat those of the simulate goldens in this
   directory, built the way [gridctl simulate] builds them. *)

open Core

let light_faults =
  Sim.Network.Faults.profile ~drop:0.01 ~duplicate:0.005 ~delay_probability:0.05
    ~max_extra_delay:0.02 ()

let digest_resource resource =
  let buf = Buffer.create 65536 in
  List.iter
    (fun r -> Buffer.add_string buf (Fmt.str "%a\n" Audit.Audit.pp_record r))
    (Audit.Audit.records (Gram.Resource.audit resource));
  (match Gram.Resource.store resource with
  | None -> ()
  | Some store ->
    Option.iter (Buffer.add_string buf)
      (Sim.Disk.read (Store.Store.disk store) ~file:(Store.Store.journal_file store)));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* gridctl simulate -j 300 --faults light --tokens pull *)
let single_site () =
  let seed = 42 in
  let w =
    Fusion.build ~nodes:8 ~cpus_per_node:8 ~faults:light_faults ~request_timeout:0.25
      ~sts:Sts.Validator.Pull ()
  in
  let identity c = Gram.Client.identity c in
  let profiles =
    [ { Workload.identity = identity w.Fusion.bo;
        rsl_templates =
          [ "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=40)";
            "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=4)";
            "&(executable=test1)(directory=/sandbox/test)" ];
        weight = 3 };
      { Workload.identity = identity w.Fusion.kate;
        rsl_templates =
          [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=120)" ];
        weight = 2 } ]
  in
  ignore
    (Workload.run ?sts:w.Fusion.sts ~engine:(Testbed.engine w.Fusion.testbed)
       ~resource:w.Fusion.resource ~profiles
       { Workload.default_config with Workload.job_count = 300; seed });
  [ digest_resource w.Fusion.resource ]

(* gridctl simulate --resources 3 -j 300 --pep rebac --batch 4 --population 500 *)
let fleet () =
  let seed = 42 in
  let pop = Population.create ~seed:(seed + 7) ~size:500 in
  let w =
    Fusion.build ~backend:`Rebac ~nodes:8 ~cpus_per_node:8 ~fleet:3 ~population:pop
      ~broker_seed:seed ()
  in
  let fleet = Option.get w.Fusion.fleet in
  ignore
    (Workload.run_population ?sts:w.Fusion.sts ~fleet ~population:pop
       ~ca:(Testbed.ca w.Fusion.testbed)
       { Workload.default_population_config with
         Workload.pop_job_count = 300;
         pop_seed = seed;
         pop_management_batch = 4 });
  List.map (fun m -> digest_resource (Fleet.member_resource m)) (Fleet.members fleet)

let () =
  List.iter
    (fun (name, run) -> Printf.printf "%s %s\n" name (String.concat " " (run ())))
    [ ("simulate -j 300 --faults light --tokens pull", single_site);
      ("simulate --resources 3 -j 300 --pep rebac --batch 4 --population 500", fleet) ]
