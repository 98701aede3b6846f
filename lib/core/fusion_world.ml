(* The National Fusion Collaboratory cast and policies, shared by the
   [Core.Fusion] builder, the workload generator and the soak campaigns:
   one VO with developer/analyst/admin groups, the Figure 3 members, and
   the resource-owner + VO policy sources the flat-file PEP compiles. *)

let organization = Grid_policy.Figure3.organization
let bo_liu = Grid_policy.Figure3.bo_liu
let kate_keahey = Grid_policy.Figure3.kate_keahey
let admin = organization ^ "/CN=VO Admin"
let outsider = "/O=Grid/O=Globus/OU=cs.wisc.edu/CN=Outsider"

let build_vo () =
  let vo = Grid_vo.Vo.create ~member_prefix:organization "fusion-vo" in
  Grid_vo.Vo.register_jobtag vo "NFC";
  Grid_vo.Vo.register_jobtag vo "ADS";
  Grid_vo.Vo.register_jobtag vo "DEMO";
  Grid_vo.Vo.require_jobtag vo;
  Grid_vo.Vo.add_profile vo
    (Grid_vo.Profile.make "developers"
       ~start_rules:
         [ Grid_vo.Profile.start_rule ~directory:"/sandbox/test" ~jobtag:"ADS"
             ~max_count:4 [ "test1"; "test2"; "compiler"; "debugger" ] ]);
  Grid_vo.Vo.add_profile vo
    (Grid_vo.Profile.make "analysts"
       ~start_rules:
         [ Grid_vo.Profile.start_rule ~directory:"/sandbox/test" ~jobtag:"NFC"
             [ "TRANSP" ] ]);
  Grid_vo.Vo.add_profile vo
    (Grid_vo.Profile.make "admins" ~manage_tags:[ "NFC"; "ADS"; "DEMO" ]
       ~start_rules:
         [ Grid_vo.Profile.start_rule ~directory:"/sandbox/test" ~jobtag:"DEMO"
             [ "TRANSP"; "demo" ] ]);
  Grid_vo.Vo.add_member vo ~dn:bo_liu ~groups:[ "developers" ];
  Grid_vo.Vo.add_member vo ~dn:kate_keahey ~groups:[ "analysts"; "admins" ];
  Grid_vo.Vo.add_member vo ~dn:admin ~groups:[ "admins" ];
  vo

let resource_owner_policy () =
  Grid_policy.Parse.parse
    {|# resource owner: fusion VO members may compute, but never on the
# reserved queue; management is open to policy (the VO decides details).
/O=Grid/O=Globus/OU=mcs.anl.gov: &(action = start)(queue != reserved)
/O=Grid/O=Globus/OU=mcs.anl.gov: &(action = cancel) &(action = information) &(action = signal)|}

let policy_sources vo =
  [ Grid_policy.Combine.source ~name:"resource-owner" (resource_owner_policy ());
    Grid_vo.Vo.policy_source vo ]

let gridmap_text =
  Printf.sprintf "%S bliu\n%S keahey\n%S voadmin\n" bo_liu kate_keahey admin
