(* Tests for grid_vo: membership, profiles, jobtags, policy compilation. *)

open Grid_vo

let dn = Grid_gsi.Dn.parse

let org = "/O=Grid/O=Fusion"
let alice = org ^ "/CN=Alice"
let bob = org ^ "/CN=Bob"

let make_vo () =
  let vo = Vo.create ~member_prefix:org "fusion" in
  Vo.add_profile vo
    (Profile.make "developers"
       ~start_rules:
         [ Profile.start_rule ~directory:"/sandbox" ~jobtag:"DEV" ~max_count:4
             [ "test1"; "test2" ] ]);
  Vo.add_profile vo
    (Profile.make "admins" ~manage_tags:[ "DEV"; "PROD" ]
       ~start_rules:[ Profile.start_rule ~jobtag:"PROD" [ "TRANSP" ] ]);
  Vo.add_member vo ~dn:alice ~groups:[ "developers" ];
  Vo.add_member vo ~dn:bob ~groups:[ "developers"; "admins" ];
  vo

let test_membership () =
  let vo = make_vo () in
  Alcotest.(check bool) "alice member" true (Vo.is_member vo (dn alice));
  Alcotest.(check bool) "stranger not" false (Vo.is_member vo (dn "/O=Grid/CN=X"));
  Alcotest.(check (list string)) "alice groups" [ "developers" ] (Vo.groups_of vo (dn alice));
  Alcotest.(check bool) "bob is admin" true (Vo.in_group vo (dn bob) "admins");
  Alcotest.(check bool) "alice is not admin" false (Vo.in_group vo (dn alice) "admins")

let test_duplicate_member_rejected () =
  let vo = make_vo () in
  Alcotest.(check bool) "raises" true
    (try
       Vo.add_member vo ~dn:alice ~groups:[];
       false
     with Invalid_argument _ -> true)

let test_remove_member () =
  let vo = make_vo () in
  Vo.remove_member vo ~dn:(dn alice);
  Alcotest.(check bool) "gone" false (Vo.is_member vo (dn alice))

let test_jobtags () =
  let vo = make_vo () in
  Vo.register_jobtag vo "DEV";
  Vo.register_jobtag vo "DEV";
  Vo.register_jobtag vo "PROD";
  Alcotest.(check (list string)) "idempotent registration" [ "DEV"; "PROD" ] (Vo.jobtags vo)

let eval policy request = Grid_policy.Eval.is_permit (Grid_policy.Eval.evaluate policy request)

let start ~who ~rsl =
  Grid_policy.Types.start_request ~subject:(dn who)
    ~job:(Grid_rsl.Parser.parse_clause_exn rsl)

let manage ~who ~action ~owner ~tag =
  Grid_policy.Types.management_request ~subject:(dn who) ~action ~jobowner:(dn owner)
    ~jobtag:tag

let test_compiled_policy_grants () =
  let vo = make_vo () in
  let policy = Vo.compile_policy vo in
  Alcotest.(check bool) "alice starts test1" true
    (eval policy (start ~who:alice ~rsl:"&(executable=test1)(directory=/sandbox)(jobtag=DEV)(count=2)"));
  Alcotest.(check bool) "alice blocked on count" false
    (eval policy (start ~who:alice ~rsl:"&(executable=test1)(directory=/sandbox)(jobtag=DEV)(count=4)"));
  Alcotest.(check bool) "alice cannot run TRANSP" false
    (eval policy (start ~who:alice ~rsl:"&(executable=TRANSP)(jobtag=PROD)"));
  Alcotest.(check bool) "bob (admin) runs TRANSP" true
    (eval policy (start ~who:bob ~rsl:"&(executable=TRANSP)(jobtag=PROD)"))

let test_compiled_policy_management () =
  let vo = make_vo () in
  let policy = Vo.compile_policy vo in
  Alcotest.(check bool) "admin cancels DEV job" true
    (eval policy
       (manage ~who:bob ~action:Grid_policy.Types.Action.Cancel ~owner:alice
          ~tag:(Some "DEV")));
  Alcotest.(check bool) "developer cannot cancel others" false
    (eval policy
       (manage ~who:alice ~action:Grid_policy.Types.Action.Cancel ~owner:bob
          ~tag:(Some "PROD")));
  Alcotest.(check bool) "developer manages own job (self rule)" true
    (eval policy
       (manage ~who:alice ~action:Grid_policy.Types.Action.Cancel ~owner:alice
          ~tag:(Some "DEV")))

let test_may_manage_own_disabled () =
  let vo = Vo.create "strict" in
  Vo.add_profile vo
    (Profile.make "workers" ~may_manage_own:false
       ~start_rules:[ Profile.start_rule [ "x" ] ]);
  Vo.add_member vo ~dn:alice ~groups:[ "workers" ];
  let policy = Vo.compile_policy vo in
  Alcotest.(check bool) "own-management withheld" false
    (eval policy
       (manage ~who:alice ~action:Grid_policy.Types.Action.Cancel ~owner:alice ~tag:None))

let test_jobtag_requirement_compiled () =
  let vo = make_vo () in
  Vo.require_jobtag vo;
  let policy = Vo.compile_policy vo in
  Alcotest.(check bool) "untagged start denied" false
    (eval policy (start ~who:alice ~rsl:"&(executable=test1)(directory=/sandbox)"));
  match Grid_policy.Eval.evaluate policy
          (start ~who:alice ~rsl:"&(executable=test1)(directory=/sandbox)") with
  | Grid_policy.Eval.Deny (Grid_policy.Eval.Requirement_violated _) -> ()
  | d -> Alcotest.failf "expected requirement violation, got %s"
           (Grid_policy.Eval.decision_to_string d)

let test_compiled_policy_parses_back () =
  (* The compiled policy must be expressible in the concrete syntax. *)
  let vo = make_vo () in
  Vo.require_jobtag vo;
  let text = Grid_policy.Types.to_string (Vo.compile_policy vo) in
  match Grid_policy.Parse.parse_result text with
  | Ok policy' ->
    Alcotest.(check int) "same statement count"
      (List.length (Vo.compile_policy vo))
      (List.length policy')
  | Error m -> Alcotest.failf "compiled policy unparseable: %s" m

let test_unknown_group_profile_ignored () =
  let vo = Vo.create "v" in
  Vo.add_member vo ~dn:alice ~groups:[ "ghost-group" ];
  Alcotest.(check int) "no grants for unprofiled group" 0
    (List.length (Vo.compile_policy vo))

let () =
  Alcotest.run "grid_vo"
    [ ( "membership",
        [ Alcotest.test_case "membership" `Quick test_membership;
          Alcotest.test_case "duplicates rejected" `Quick test_duplicate_member_rejected;
          Alcotest.test_case "remove" `Quick test_remove_member;
          Alcotest.test_case "jobtags" `Quick test_jobtags ] );
      ( "policy-compilation",
        [ Alcotest.test_case "grants" `Quick test_compiled_policy_grants;
          Alcotest.test_case "management" `Quick test_compiled_policy_management;
          Alcotest.test_case "own-management toggle" `Quick test_may_manage_own_disabled;
          Alcotest.test_case "jobtag requirement" `Quick test_jobtag_requirement_compiled;
          Alcotest.test_case "parses back" `Quick test_compiled_policy_parses_back;
          Alcotest.test_case "unprofiled group" `Quick test_unknown_group_profile_ignored ] ) ]
