(* Differential tests for the compiled policy index (Compile) against the
   reference evaluator (Eval): on random policies and requests the two
   must agree on the decision AND the reason — same denial constructor,
   same violated constraint, same clause count. Seeds are pinned so a
   failure reproduces byte-for-byte.

   The generators deliberately cover the paper's whole vocabulary:
   grant + requirement statements, wildcard (short-prefix and empty)
   subject patterns, NULL and self values, numeric bounds (including
   unparsable ones), duplicate [=] bindings, and start requests that
   omit count. *)

open Grid_policy

let dn = Grid_gsi.Dn.parse

let start ~who ~rsl =
  Types.start_request ~subject:(dn who) ~job:(Grid_rsl.Parser.parse_clause_exn rsl)

let manage ~who ~action ~owner ~tag =
  Types.management_request ~subject:(dn who) ~action ~jobowner:(dn owner) ~jobtag:tag

(* Every QCheck test in this file runs under a pinned seed, overridable
   via QCHECK_SEED for exploratory CI laps; QCHECK_COUNT scales the
   differential volume. A bad override fails loudly. *)
let env_int name =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> Some n
    | None -> Printf.ksprintf failwith "%s must be an integer, got %S" name s)

let override_seed = env_int "QCHECK_SEED"
let count ~default = match env_int "QCHECK_COUNT" with Some n -> n | None -> default

let pinned test =
  let seeds = match override_seed with Some s -> [| s |] | None -> [| 0x5EED; 421 |] in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make seeds) test

(* --- Generators ------------------------------------------------------------ *)

(* A small shared vocabulary with subject prefixes of depth 0..3 so
   wildcard buckets, group buckets and per-user buckets all get hit, and
   values colliding often enough that permits actually happen. *)

let pattern_pool =
  [ "/O=G"; "/O=G/OU=u1"; "/O=G/OU=u1/CN=a"; "/O=G/OU=u1/CN=b"; "/O=G/OU=u2/CN=c";
    "/O=H/CN=d" ]

let subject_pool = [ "/O=G/OU=u1/CN=a"; "/O=G/OU=u1/CN=b"; "/O=G/OU=u2/CN=c"; "/O=H/CN=d"; "/O=G" ]

let gen_policy : Types.t QCheck.Gen.t =
  QCheck.Gen.(
    let subject_pattern =
      frequency
        [ (8, map dn (oneofl pattern_pool));
          (* the empty pattern: prefix of every subject *)
          (1, return []) ]
    in
    let attr =
      oneofl [ "executable"; "count"; "jobtag"; "queue"; "jobowner"; "action"; "memory" ]
    in
    let cvalue =
      frequency
        [ ( 10,
            map
              (fun s -> Types.Str s)
              (oneofl
                 [ "x"; "y"; "2"; "5"; "start"; "cancel"; "information";
                   "/O=G/OU=u1/CN=a"; "nan"; "notanumber" ]) );
          (2, return Types.Self);
          (2, return Types.Null) ]
    in
    let constr =
      let* attribute = attr in
      let* op = oneofl Grid_rsl.Ast.[ Eq; Neq; Lt; Le; Gt; Ge ] in
      let* values = list_size (int_range 1 3) cvalue in
      return { Types.attribute; op; values }
    in
    let clause = list_size (int_range 1 4) constr in
    let statement =
      let* kind = frequency [ (3, return Types.Grant); (1, return Types.Requirement) ] in
      let* subject_pattern = subject_pattern in
      let* clauses = list_size (int_range 1 3) clause in
      return { Types.kind; subject_pattern; clauses }
    in
    list_size (int_range 0 8) statement)

let gen_request : Types.request QCheck.Gen.t =
  QCheck.Gen.(
    let* who = oneofl subject_pool in
    let* is_start = bool in
    if is_start then
      let* exe = oneofl [ "x"; "y"; "z" ] in
      let* count =
        oneofl
          [ ""; "(count=2)"; "(count=5)"; "(count=bad)"; "(count=2)(count=2)";
            "(count=2)(count=5)" ]
      in
      let* tag = oneofl [ ""; "(jobtag=x)"; "(jobtag=y)" ] in
      let* queue = oneofl [ ""; "(queue=x)"; "(queue=x)(queue=y)" ] in
      let* owner_binding = oneofl [ ""; {|(jobowner="/O=G/OU=u1/CN=a")|} ] in
      return
        (start ~who
           ~rsl:(Printf.sprintf "&(executable=%s)%s%s%s%s" exe count tag queue owner_binding))
    else
      let* owner = oneofl subject_pool in
      let* action = oneofl Types.Action.[ Cancel; Information; Signal ] in
      let* tag = oneofl [ None; Some "x"; Some "y" ] in
      return (manage ~who ~action ~owner ~tag))

let arb_pair =
  QCheck.make
    QCheck.Gen.(pair gen_policy gen_request)
    ~print:(fun (p, r) ->
      Printf.sprintf "POLICY:\n%s\nREQUEST: %s" (Types.to_string p)
        (Fmt.to_to_string Types.pp_request r))

(* --- Differential properties ----------------------------------------------- *)

let qcheck_compile_agrees_with_reference =
  (* The headline property: decision and reason, structurally equal, on
     2000 policy/request pairs. *)
  QCheck.Test.make ~name:"Compile.eval = Eval.evaluate (decision and reason)" ~count:(count ~default:2000)
    arb_pair
    (fun (policy, request) ->
      Compile.eval (Compile.compile policy) request = Eval.evaluate policy request)

let qcheck_compiled_is_reusable =
  (* One compilation answers many requests: no hidden per-eval state. *)
  QCheck.Test.make ~name:"compiled policy is reusable across requests" ~count:(count ~default:300)
    (QCheck.make
       QCheck.Gen.(pair gen_policy (list_size (int_range 1 5) gen_request))
       ~print:(fun (p, _) -> Types.to_string p))
    (fun (policy, requests) ->
      let compiled = Compile.compile policy in
      List.for_all
        (fun r ->
          Compile.eval compiled r = Eval.evaluate policy r
          && Compile.eval compiled r = Compile.eval compiled r)
        requests)

let qcheck_combine_compiled_agrees =
  (* Conjunctive combination through compiled sources, a batch at a
     time: same decision, same denying source, same reason, in request
     order. *)
  QCheck.Test.make ~name:"Combine.evaluate_compiled_many = Combine.evaluate"
    ~count:(count ~default:500)
    (QCheck.make
       QCheck.Gen.(triple gen_policy gen_policy (list_size (int_range 1 8) gen_request))
       ~print:(fun (p1, p2, rs) ->
         Printf.sprintf "OWNER:\n%s\nVO:\n%s\nREQUESTS: %s" (Types.to_string p1)
           (Types.to_string p2)
           (String.concat "; " (List.map (Fmt.to_to_string Types.pp_request) rs))))
    (fun (p1, p2, requests) ->
      let sources =
        [ Combine.source ~name:"owner" p1; Combine.source ~name:"vo" p2 ]
      in
      Combine.evaluate_compiled_many (Combine.compile_sources sources)
        (Array.of_list requests)
      = Array.of_list (List.map (Combine.evaluate sources) requests))

let query_of_request (r : Types.request) : Grid_callout.Callout.query =
  { Grid_callout.Callout.requester = r.Types.subject;
    requester_credential = None;
    job_owner = r.Types.jobowner;
    action = r.Types.action;
    job_id = (if r.Types.action = Types.Action.Start then Some "job-1" else None);
    rsl = r.Types.job;
    jobtag = r.Types.jobtag }

let qcheck_file_pep_compiled_agrees =
  (* End-to-end through the PEP: the compiled callout and the reference
     callout answer identically, denial messages included. *)
  QCheck.Test.make ~name:"File_pep.of_sources = File_pep.reference" ~count:(count ~default:500)
    (QCheck.make
       QCheck.Gen.(triple gen_policy gen_policy gen_request)
       ~print:(fun (p1, p2, r) ->
         Printf.sprintf "OWNER:\n%s\nVO:\n%s\nREQUEST: %s" (Types.to_string p1)
           (Types.to_string p2)
           (Fmt.to_to_string Types.pp_request r)))
    (fun (p1, p2, request) ->
      let sources =
        [ Combine.source ~name:"owner" p1; Combine.source ~name:"vo" p2 ]
      in
      let compiled = Grid_callout.File_pep.of_sources sources in
      let reference = Grid_callout.File_pep.reference sources in
      let q = query_of_request request in
      compiled q = reference q)

(* --- Epoch and store -------------------------------------------------------- *)

let fig3_sources () =
  [ Combine.source ~name:"figure3" (Figure3.get ()) ]

let test_epoch_monotonic () =
  let p = Figure3.get () in
  let c1 = Compile.compile p in
  let c2 = Compile.compile p in
  let c3 = Compile.compile [] in
  Alcotest.(check bool) "second compile has larger epoch" true
    (Compile.epoch c2 > Compile.epoch c1);
  Alcotest.(check bool) "empty policy still draws a fresh epoch" true
    (Compile.epoch c3 > Compile.epoch c2)

let test_store_reload_bumps_epoch () =
  let store = Compile.Store.create (Figure3.get ()) in
  let e1 = Compile.Store.epoch store in
  Compile.Store.reload store (Parse.parse "/O=G: &(action = cancel)");
  let e2 = Compile.Store.epoch store in
  Alcotest.(check bool) "reload bumps epoch" true (e2 > e1);
  (* and the store now answers for the new policy *)
  let r = manage ~who:"/O=G/CN=a" ~action:Types.Action.Cancel ~owner:"/O=G/CN=a" ~tag:None in
  Alcotest.(check bool) "post-reload decision" true
    (Eval.is_permit (Compile.Store.eval store r))

let test_compiled_pep_reload_bumps_epoch () =
  let pep = Grid_callout.File_pep.Compiled.create (fig3_sources ()) in
  let e1 = Grid_callout.File_pep.Compiled.epoch pep in
  Grid_callout.File_pep.Compiled.reload pep (fig3_sources ());
  let e2 = Grid_callout.File_pep.Compiled.epoch pep in
  Alcotest.(check bool) "PEP reload bumps epoch" true (e2 > e1);
  Grid_callout.File_pep.Compiled.reload pep [];
  let e3 = Grid_callout.File_pep.Compiled.epoch pep in
  Alcotest.(check bool) "reload to empty still bumps epoch" true (e3 > e2)

(* --- Index structure -------------------------------------------------------- *)

let test_wildcard_bucket_applies () =
  (* An empty subject pattern prefixes every DN: the compiled index must
     surface it for any requester. *)
  let policy =
    [ { Types.kind = Types.Grant;
        subject_pattern = [];
        clauses = [ [ { Types.attribute = "action"; op = Grid_rsl.Ast.Eq;
                        values = [ Types.Str "cancel" ] } ] ] } ]
  in
  let compiled = Compile.compile policy in
  let r = manage ~who:"/O=Anywhere/CN=anyone" ~action:Types.Action.Cancel
      ~owner:"/O=Anywhere/CN=anyone" ~tag:None
  in
  Alcotest.(check bool) "wildcard grant permits" true
    (Eval.is_permit (Compile.eval compiled r));
  Alcotest.(check bool) "agrees with reference" true
    (Compile.eval compiled r = Eval.evaluate policy r)

let test_statement_order_preserved () =
  (* Two requirement statements both violated: the reference reports the
     first in policy order, so the index's order-restoring merge must
     too. The statements sit in different buckets (group vs user). *)
  let policy =
    Parse.parse
      {|&/O=G: (action = cancel)(jobtag = never1)
&/O=G/CN=a: (action = cancel)(jobtag = never2)|}
  in
  let compiled = Compile.compile policy in
  let r = manage ~who:"/O=G/CN=a" ~action:Types.Action.Cancel ~owner:"/O=G/CN=a"
      ~tag:(Some "t")
  in
  let reference = Eval.evaluate policy r in
  Alcotest.(check string) "same first-violation report"
    (Eval.decision_to_string reference)
    (Eval.decision_to_string (Compile.eval compiled r));
  (match reference with
  | Eval.Deny (Eval.Requirement_violated { subject_pattern; _ }) ->
    Alcotest.(check string) "reference reports the group statement" "/O=G"
      (Grid_gsi.Dn.to_string subject_pattern)
  | _ -> Alcotest.fail "expected a requirement violation")

let test_figure3_scenarios_agree () =
  (* The paper's own narrated decisions, through the compiled path. *)
  let policy = Figure3.get () in
  let compiled = Compile.compile policy in
  let requests =
    [ start ~who:Figure3.bo_liu ~rsl:"&(executable=test1)(jobtag=ADS)(count=3)";
      start ~who:Figure3.bo_liu ~rsl:"&(executable=test1)(jobtag=ADS)(count=7)";
      start ~who:Figure3.kate_keahey ~rsl:"&(executable=TRANSP)(jobtag=NFC)";
      manage ~who:Figure3.kate_keahey ~action:Types.Action.Cancel ~owner:Figure3.bo_liu
        ~tag:(Some "NFC");
      manage ~who:Figure3.bo_liu ~action:Types.Action.Cancel ~owner:Figure3.kate_keahey
        ~tag:(Some "NFC") ]
  in
  List.iter
    (fun r ->
      Alcotest.(check string)
        (Fmt.to_to_string Types.pp_request r)
        (Eval.decision_to_string (Eval.evaluate policy r))
        (Eval.decision_to_string (Compile.eval compiled r)))
    requests

(* --- Bucket-key edge cases ------------------------------------------------- *)

(* [Dn.t] is a concrete rdn list, so hand-built DNs can carry bytes the
   parser never produces — '/', '=', control bytes, multi-byte UTF-8 —
   and the index's bucket keys must still agree with the structural
   [Dn.is_prefix] reference. These pinned a real divergence: the keys
   used to join components with '\x00'/'\x01' separators, so an rdn
   value embedding those bytes could alias a longer pattern's bucket
   (e.g. subject [a=b\x00c\x01d] probed the bucket of pattern [a=b,
   c=d]) until the encoding moved to length prefixes. *)

let rdn attr value = { Grid_gsi.Dn.attr; value }

let cancel_grant pattern =
  [ { Types.kind = Types.Grant;
      subject_pattern = pattern;
      clauses = [ [ { Types.attribute = "action"; op = Grid_rsl.Ast.Eq;
                      values = [ Types.Str "cancel" ] } ] ] } ]

(* With a single (action = cancel) grant, the decision on a cancel
   request is Permit iff the statement applies — so an applicability
   divergence is visible as a decision flip. *)
let check_agreement what pattern subject =
  let policy = cancel_grant pattern in
  let r =
    Types.management_request ~subject ~action:Types.Action.Cancel ~jobowner:subject
      ~jobtag:None
  in
  let reference = Eval.evaluate policy r in
  Alcotest.(check bool) (what ^ ": reference applies iff structural prefix")
    (Types.statement_applies (List.hd policy) ~subject)
    (Eval.is_permit reference);
  Alcotest.(check string) (what ^ ": compiled agrees")
    (Eval.decision_to_string reference)
    (Eval.decision_to_string (Compile.eval (Compile.compile policy) r))

let test_control_byte_values_do_not_alias_buckets () =
  (* one rdn whose value embeds the old separators vs the two-rdn
     pattern with the same byte image — both directions *)
  check_agreement "subject aliases deeper pattern"
    [ rdn "a" "b"; rdn "c" "d" ]
    [ rdn "a" "b\x00c\x01d" ];
  check_agreement "pattern aliases deeper subject"
    [ rdn "a" "b\x00c\x01d" ]
    [ rdn "a" "b"; rdn "c" "d" ];
  (* attr/value boundary shift within one rdn *)
  check_agreement "attr/value boundary"
    [ rdn "a\x01b" "c" ]
    [ rdn "a" "b\x01c" ]

let test_empty_component_subjects () =
  check_agreement "empty rdn matches itself" [ rdn "" "" ] [ rdn "" ""; rdn "CN" "a" ];
  check_agreement "empty value is not a wildcard" [ rdn "O" "" ] [ rdn "O" "G" ];
  check_agreement "empty pattern prefixes empty subject" [] [];
  check_agreement "empty vs attr-only shift" [ rdn "a" "" ] [ rdn "" "a" ]

let test_slash_prefix_overlap () =
  (* a '/' inside a value is data, not structure: "O=G/OU=u1" as one
     component must not act as the two-component prefix *)
  check_agreement "slash in pattern value" [ rdn "O" "G/OU=u1" ] (dn "/O=G/OU=u1/CN=a");
  check_agreement "slash in subject value" (dn "/O=G/OU=u1") [ rdn "O" "G/OU=u1/CN=a" ];
  check_agreement "equals in value" [ rdn "O" "G=H" ] [ rdn "O" "G"; rdn "" "H" ]

let test_unicode_dn_components () =
  let grp = [ rdn "O" "Grüße"; rdn "OU" "日本" ] in
  check_agreement "unicode prefix applies" grp (grp @ [ rdn "CN" "ß" ]);
  check_agreement "unicode mismatch refused" grp [ rdn "O" "Grüße"; rdn "OU" "中国" ];
  (* a byte-truncated copy (cutting a multi-byte rune in half) is a
     different value, not a prefix *)
  check_agreement "truncated rune is not a prefix"
    [ rdn "O" (String.sub "Grüße" 0 3) ]
    [ rdn "O" "Grüße" ]

let qcheck_handbuilt_dns_agree =
  (* The property behind the pinned cases: over rdn components drawn
     from an adversarial byte pool (old separators, '/', '=', unicode,
     empties), compiled applicability = structural applicability. *)
  let gen_rdn =
    QCheck.Gen.(
      let* attr = oneofl [ ""; "O"; "a"; "a\x01b"; "Grüße" ] in
      let* value = oneofl [ ""; "G"; "b"; "b\x00c"; "b\x01c"; "G/OU=u1"; "G=H"; "日本" ] in
      return { Grid_gsi.Dn.attr; value })
  in
  let gen_dn = QCheck.Gen.(list_size (int_range 0 3) gen_rdn) in
  QCheck.Test.make ~name:"hand-built DNs: compiled = reference" ~count:(count ~default:1000)
    (QCheck.make
       QCheck.Gen.(pair gen_dn gen_dn)
       ~print:(fun (p, s) ->
         Printf.sprintf "PATTERN: %S SUBJECT: %S" (Grid_gsi.Dn.to_string p)
           (Grid_gsi.Dn.to_string s)))
    (fun (pattern, subject) ->
      let policy = cancel_grant pattern in
      let r =
        Types.management_request ~subject ~action:Types.Action.Cancel ~jobowner:subject
          ~jobtag:None
      in
      Compile.eval (Compile.compile policy) r = Eval.evaluate policy r)

let () =
  Alcotest.run "grid_policy_compile"
    [ ( "differential",
        [ pinned qcheck_compile_agrees_with_reference;
          pinned qcheck_compiled_is_reusable;
          pinned qcheck_combine_compiled_agrees;
          pinned qcheck_file_pep_compiled_agrees ] );
      ( "epoch",
        [ Alcotest.test_case "compile epoch is monotonic" `Quick test_epoch_monotonic;
          Alcotest.test_case "store reload bumps epoch" `Quick
            test_store_reload_bumps_epoch;
          Alcotest.test_case "compiled PEP reload bumps epoch" `Quick
            test_compiled_pep_reload_bumps_epoch ] );
      ( "index",
        [ Alcotest.test_case "wildcard bucket applies to all" `Quick
            test_wildcard_bucket_applies;
          Alcotest.test_case "statement order preserved across buckets" `Quick
            test_statement_order_preserved;
          Alcotest.test_case "figure 3 scenarios agree" `Quick
            test_figure3_scenarios_agree ] );
      ( "edge-cases",
        [ Alcotest.test_case "control bytes do not alias buckets" `Quick
            test_control_byte_values_do_not_alias_buckets;
          Alcotest.test_case "empty components" `Quick test_empty_component_subjects;
          Alcotest.test_case "'/'-prefix overlap" `Quick test_slash_prefix_overlap;
          Alcotest.test_case "unicode components" `Quick test_unicode_dn_components;
          pinned qcheck_handbuilt_dns_agree ] ) ]
