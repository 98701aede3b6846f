(* Tests for grid_accounts: dynamic account pool, sandbox limits, the
   gatekeeper-side account mapper. *)

open Grid_accounts

let dn = Grid_gsi.Dn.parse

let setup () = Grid_util.Ids.reset ()

(* --- Pool ----------------------------------------------------------------- *)

let test_pool_acquire_release () =
  setup ();
  let pool = Pool.create ~size:2 ~lease_lifetime:100.0 () in
  let a = Result.get_ok (Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=A")) in
  let b = Result.get_ok (Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=B")) in
  Alcotest.(check bool) "distinct accounts" false (a.Pool.account = b.Pool.account);
  Alcotest.(check int) "both leased" 2 (Pool.in_use pool ~now:0.0);
  (match Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=C") with
  | Error (Pool.Pool_exhausted { size = 2 }) -> ()
  | _ -> Alcotest.fail "exhaustion not reported");
  ignore (Result.get_ok (Pool.release pool ~lease_id:a.Pool.lease_id));
  match Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=C") with
  | Ok lease -> Alcotest.(check string) "recycled" a.Pool.account lease.Pool.account
  | Error _ -> Alcotest.fail "released account not reusable"

let test_pool_same_holder_same_account () =
  setup ();
  let pool = Pool.create ~size:4 ~lease_lifetime:100.0 () in
  let holder = dn "/O=Grid/CN=A" in
  let l1 = Result.get_ok (Pool.acquire pool ~now:0.0 ~holder) in
  let l2 = Result.get_ok (Pool.acquire pool ~now:10.0 ~holder) in
  Alcotest.(check string) "same account on reuse" l1.Pool.account l2.Pool.account;
  Alcotest.(check int) "one lease only" 1 (Pool.in_use pool ~now:10.0);
  let stats = Pool.stats pool in
  Alcotest.(check int) "grants" 1 stats.Pool.total_grants;
  Alcotest.(check int) "reuses" 1 stats.Pool.total_reuses

let test_pool_lease_renewal_extends () =
  setup ();
  let pool = Pool.create ~size:1 ~lease_lifetime:100.0 () in
  let holder = dn "/O=Grid/CN=A" in
  ignore (Result.get_ok (Pool.acquire pool ~now:0.0 ~holder));
  (* Renew at t=90: lease now runs to 190. *)
  ignore (Result.get_ok (Pool.acquire pool ~now:90.0 ~holder));
  Alcotest.(check int) "still live at 150" 1 (Pool.in_use pool ~now:150.0);
  Alcotest.(check int) "expired at 200" 0 (Pool.in_use pool ~now:200.0)

let test_pool_expiry_reclaims () =
  setup ();
  let pool = Pool.create ~size:1 ~lease_lifetime:50.0 () in
  ignore (Result.get_ok (Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=A")));
  (match Pool.acquire pool ~now:10.0 ~holder:(dn "/O=Grid/CN=B") with
  | Error (Pool.Pool_exhausted _) -> ()
  | _ -> Alcotest.fail "pool should be exhausted");
  (* After expiry, B can lease the reclaimed account. *)
  match Pool.acquire pool ~now:60.0 ~holder:(dn "/O=Grid/CN=B") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "expired lease not reclaimed"

let test_pool_holder_of () =
  setup ();
  let pool = Pool.create ~prefix:"nfc" ~size:2 ~lease_lifetime:100.0 () in
  let lease = Result.get_ok (Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=A")) in
  (match Pool.holder_of pool ~account:lease.Pool.account ~now:1.0 with
  | Some h -> Alcotest.(check string) "holder" "/O=Grid/CN=A" (Grid_gsi.Dn.to_string h)
  | None -> Alcotest.fail "holder not found");
  Alcotest.(check (option string)) "free account has no holder" None
    (Option.map Grid_gsi.Dn.to_string (Pool.holder_of pool ~account:"nfc001" ~now:1.0))

let test_pool_release_unknown () =
  setup ();
  let pool = Pool.create ~size:1 ~lease_lifetime:10.0 () in
  match Pool.release pool ~lease_id:"lease-999999" with
  | Error (Pool.Unknown_lease _) -> ()
  | _ -> Alcotest.fail "unknown lease released"

let qcheck_pool_never_double_allocates =
  QCheck.Test.make ~name:"pool never double-allocates an account" ~count:100
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 20)))
    (fun (size, holders) ->
      Grid_util.Ids.reset ();
      let pool = Pool.create ~size ~lease_lifetime:1000.0 () in
      let leases =
        List.filter_map
          (fun i ->
            match
              Pool.acquire pool ~now:0.0 ~holder:(dn (Printf.sprintf "/O=G/CN=u%d" i))
            with
            | Ok l -> Some l
            | Error _ -> None)
          holders
      in
      (* distinct holders must hold distinct accounts *)
      let by_holder = List.sort_uniq compare
          (List.map (fun l -> (Grid_gsi.Dn.to_string l.Pool.holder, l.Pool.account)) leases) in
      let accounts = List.map snd by_holder in
      List.length (List.sort_uniq compare accounts) = List.length accounts)

(* --- Pool against its list-based reference ------------------------------------ *)

(* The pool as first written: one list of leases, scanned by every call.
   Slow, but obviously right; the indexed pool must answer as it does. *)
module Reference = struct
  type lease = {
    lease_id : string;
    account : string;
    holder : Grid_gsi.Dn.t;
    granted_at : float;
    mutable expires_at : float;
  }

  type t = {
    accounts : string list;
    lease_lifetime : float;
    mutable leases : lease list;
    mutable grants : int;
    mutable reuses : int;
    mutable exhaustions : int;
  }

  let create ~size ~lease_lifetime =
    { accounts = List.init size (Printf.sprintf "grid%03d");
      lease_lifetime;
      leases = [];
      grants = 0;
      reuses = 0;
      exhaustions = 0 }

  let live_leases t ~now = List.filter (fun l -> now <= l.expires_at) t.leases

  let expire t ~now =
    let before = List.length t.leases in
    t.leases <- live_leases t ~now;
    before - List.length t.leases

  let acquire t ~now ~holder =
    ignore (expire t ~now);
    match List.find_opt (fun l -> Grid_gsi.Dn.equal l.holder holder) t.leases with
    | Some lease ->
      lease.expires_at <- now +. t.lease_lifetime;
      t.reuses <- t.reuses + 1;
      Ok lease
    | None -> begin
      let in_use = List.map (fun l -> l.account) t.leases in
      match List.find_opt (fun a -> not (List.mem a in_use)) t.accounts with
      | None ->
        t.exhaustions <- t.exhaustions + 1;
        Error (List.length t.accounts)
      | Some account ->
        let lease =
          { lease_id = Grid_util.Ids.lease ();
            account;
            holder;
            granted_at = now;
            expires_at = now +. t.lease_lifetime }
        in
        t.grants <- t.grants + 1;
        t.leases <- lease :: t.leases;
        Ok lease
    end

  let release t ~lease_id =
    if List.exists (fun l -> l.lease_id = lease_id) t.leases then begin
      t.leases <- List.filter (fun l -> l.lease_id <> lease_id) t.leases;
      true
    end
    else false

  let holder_of t ~account ~now =
    List.find_opt (fun l -> l.account = account) (live_leases t ~now)
    |> Option.map (fun l -> l.holder)

  let in_use t ~now = List.length (live_leases t ~now)
end

type pool_op =
  | Acquire of int               (* holder index *)
  | Release of int               (* index into the lease ids granted so far *)
  | Release_unknown
  | Advance of float
  | Expire
  | Holder_of of string
  | Counts
  | Stats

let pool_lifetime = 10.0

let pp_pool_op = function
  | Acquire h -> Printf.sprintf "acquire u%d" h
  | Release i -> Printf.sprintf "release #%d" i
  | Release_unknown -> "release unknown"
  | Advance d -> Printf.sprintf "advance %g" d
  | Expire -> "expire"
  | Holder_of a -> "holder_of " ^ a
  | Counts -> "counts"
  | Stats -> "stats"

let gen_pool_op =
  let open QCheck.Gen in
  frequency
    [ (6, map (fun h -> Acquire h) (int_range 0 6));
      (2, map (fun i -> Release i) (int_range 0 15));
      (1, return Release_unknown);
      (* Steps inside, at and past the lease lifetime, and one back: the
         pool takes any [now], not only a non-decreasing one. *)
      (3,
       map (fun d -> Advance d)
         (oneofl [ 0.0; 1.0; 4.5; pool_lifetime; pool_lifetime +. 0.5; -4.5 ]));
      (1, return Expire);
      (2,
       map
         (fun i -> Holder_of (if i < 0 then "grid" ^ string_of_int (-i) else Printf.sprintf "grid%03d" i))
         (int_range (-3) 6));
      (2, return Counts);
      (1, return Stats) ]

(* Population DNs share a long prefix; only the last component differs. *)
let pool_holder h =
  dn (Printf.sprintf "/O=Grid/O=Globus/OU=mcs.anl.gov/OU=Population/OU=Members/CN=u%d" h)

(* Replay [ops] against one implementation, rendering every answer. *)
let replay ~acquire ~release ~expire ~holder_of ~in_use ~available ~stats ops =
  Grid_util.Ids.reset ();
  let now = ref 0.0 and granted = ref [||] in
  List.map
    (fun op ->
      let answer =
        match op with
        | Acquire h -> begin
          match acquire ~now:!now ~holder:(pool_holder h) with
          | Ok (id, account, holder, granted_at, expires_at) ->
            if not (Array.mem id !granted) then granted := Array.append !granted [| id |];
            Printf.sprintf "%s %s %s %g %g" id account (Grid_gsi.Dn.to_string holder)
              granted_at expires_at
          | Error size -> Printf.sprintf "exhausted %d" size
        end
        | Release i ->
          let id =
            if Array.length !granted = 0 then "lease-000000"
            else !granted.(i mod Array.length !granted)
          in
          Printf.sprintf "%s %b" id (release ~lease_id:id)
        | Release_unknown -> string_of_bool (release ~lease_id:"lease-999999")
        | Advance d ->
          now := !now +. d;
          Printf.sprintf "now %g" !now
        | Expire -> string_of_int (expire ~now:!now)
        | Holder_of account ->
          Option.fold ~none:"none" ~some:Grid_gsi.Dn.to_string (holder_of ~account ~now:!now)
        | Counts -> Printf.sprintf "%d/%d" (in_use ~now:!now) (available ~now:!now)
        | Stats ->
          let g, r, e = stats () in
          Printf.sprintf "%d %d %d" g r e
      in
      pp_pool_op op ^ " -> " ^ answer)
    ops

let env_int name =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> Some n
    | None -> Printf.ksprintf failwith "%s must be an integer, got %S" name s)

let qcheck_pool_matches_reference =
  QCheck.Test.make ~name:"pool answers as the list-based reference"
    ~count:(Option.value ~default:500 (env_int "QCHECK_COUNT"))
    QCheck.(
      make
        ~print:(fun (size, ops) ->
          Printf.sprintf "size %d: %s" size (String.concat "; " (List.map pp_pool_op ops)))
        Gen.(pair (int_range 1 5) (list_size (int_range 0 80) gen_pool_op)))
    (fun (size, ops) ->
      let expected =
        let r = Reference.create ~size ~lease_lifetime:pool_lifetime in
        replay ops
          ~acquire:(fun ~now ~holder ->
            Result.map
              (fun (l : Reference.lease) ->
                (l.lease_id, l.account, l.holder, l.granted_at, l.expires_at))
              (Reference.acquire r ~now ~holder))
          ~release:(Reference.release r) ~expire:(Reference.expire r)
          ~holder_of:(Reference.holder_of r) ~in_use:(Reference.in_use r)
          ~available:(fun ~now -> size - Reference.in_use r ~now)
          ~stats:(fun () -> (r.grants, r.reuses, r.exhaustions))
      in
      let actual =
        let p = Pool.create ~size ~lease_lifetime:pool_lifetime () in
        replay ops
          ~acquire:(fun ~now ~holder ->
            match Pool.acquire p ~now ~holder with
            | Ok l -> Ok (l.Pool.lease_id, l.account, l.holder, l.granted_at, l.expires_at)
            | Error (Pool.Pool_exhausted { size }) -> Error size
            | Error (Pool.Unknown_lease _) -> Error (-1))
          ~release:(fun ~lease_id -> Result.is_ok (Pool.release p ~lease_id))
          ~expire:(Pool.expire p) ~holder_of:(Pool.holder_of p) ~in_use:(Pool.in_use p)
          ~available:(Pool.available p)
          ~stats:(fun () ->
            let s = Pool.stats p in
            (s.Pool.total_grants, s.total_reuses, s.total_exhaustions))
      in
      if expected = actual then true
      else
        QCheck.Test.fail_reportf "reference:\n  %s\npool:\n  %s"
          (String.concat "\n  " expected) (String.concat "\n  " actual))

(* Pinned seed; QCHECK_SEED replaces it and QCHECK_COUNT the count, as in
   test_rebac. *)
let pinned test =
  let seeds = match env_int "QCHECK_SEED" with Some s -> [| s |] | None -> [| 0x5EED; 613 |] in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make seeds) test

(* --- Sandbox ---------------------------------------------------------------- *)

let job rsl = Result.get_ok (Grid_rsl.Job.of_string rsl)

let test_sandbox_unrestricted () =
  Alcotest.(check bool) "anything goes" true
    (Sandbox.permits Sandbox.unrestricted (job "&(executable=/bin/rm)(count=999)"))

let test_sandbox_cpu_limit () =
  let limits = { Sandbox.unrestricted with Sandbox.max_cpus = Some 4 } in
  Alcotest.(check bool) "within" true (Sandbox.permits limits (job "&(executable=x)(count=4)"));
  match Sandbox.check limits (job "&(executable=x)(count=5)") with
  | [ Sandbox.Cpus_exceeded { requested = 5; limit = 4 } ] -> ()
  | _ -> Alcotest.fail "cpu violation not reported"

let test_sandbox_memory_and_walltime () =
  let limits =
    { Sandbox.unrestricted with
      Sandbox.max_memory_mb = Some 512;
      Sandbox.max_walltime = Some 3600.0 }
  in
  Alcotest.(check bool) "within" true
    (Sandbox.permits limits (job "&(executable=x)(maxmemory=512)(maxwalltime=60)"));
  Alcotest.(check int) "two violations" 2
    (List.length (Sandbox.check limits (job "&(executable=x)(maxmemory=1024)(maxwalltime=61)")))

let test_sandbox_paths () =
  Alcotest.(check bool) "exact" true (Sandbox.path_within ~root:"/sandbox/test" "/sandbox/test");
  Alcotest.(check bool) "child" true
    (Sandbox.path_within ~root:"/sandbox/test" "/sandbox/test/sub");
  Alcotest.(check bool) "sibling prefix is not containment" false
    (Sandbox.path_within ~root:"/sandbox/test" "/sandbox/testing");
  let limits = { Sandbox.unrestricted with Sandbox.allowed_directories = [ "/sandbox/test" ] } in
  Alcotest.(check bool) "inside" true
    (Sandbox.permits limits (job "&(executable=x)(directory=/sandbox/test/run1)"));
  match Sandbox.check limits (job "&(executable=x)(directory=/home)") with
  | [ Sandbox.Directory_forbidden "/home" ] -> ()
  | _ -> Alcotest.fail "directory violation not reported"

let test_sandbox_executables () =
  let limits = { Sandbox.unrestricted with Sandbox.allowed_executables = [ "TRANSP" ] } in
  Alcotest.(check bool) "allowed" true (Sandbox.permits limits (job "&(executable=TRANSP)"));
  match Sandbox.check limits (job "&(executable=sh)") with
  | [ Sandbox.Executable_forbidden "sh" ] -> ()
  | _ -> Alcotest.fail "executable violation not reported"

(* --- Mapper ------------------------------------------------------------------- *)

let gridmap = Grid_gsi.Gridmap.parse "\"/O=Grid/CN=Static User\" statica\n"

let test_mapper_static_first () =
  setup ();
  let pool = Pool.create ~size:2 ~lease_lifetime:100.0 () in
  let mapper = Mapper.create ~pool gridmap in
  match Mapper.resolve mapper ~now:0.0 (dn "/O=Grid/CN=Static User") with
  | Ok { Mapper.account = "statica"; source = `Static; _ } -> ()
  | _ -> Alcotest.fail "static mapping not preferred"

let test_mapper_dynamic_fallback () =
  setup ();
  let pool = Pool.create ~size:2 ~lease_lifetime:100.0 () in
  let mapper = Mapper.create ~pool gridmap in
  match Mapper.resolve mapper ~now:0.0 (dn "/O=Grid/CN=Visitor") with
  | Ok ({ Mapper.source = `Dynamic _; _ } as mapping) ->
    Alcotest.(check bool) "pool account" true
      (Grid_util.Strings.starts_with ~prefix:"grid" mapping.Mapper.account);
    Mapper.release mapper mapping;
    Alcotest.(check int) "released" 0 (Pool.in_use pool ~now:0.0)
  | _ -> Alcotest.fail "dynamic fallback failed"

let test_mapper_no_account () =
  setup ();
  let mapper = Mapper.create gridmap in
  match Mapper.resolve mapper ~now:0.0 (dn "/O=Grid/CN=Visitor") with
  | Error (Mapper.No_local_account _) -> ()
  | _ -> Alcotest.fail "unmapped visitor accepted without pool"

let test_mapper_limits_attached () =
  setup ();
  let static_limits _ = { Sandbox.unrestricted with Sandbox.max_cpus = Some 2 } in
  let dynamic_limits = { Sandbox.unrestricted with Sandbox.max_cpus = Some 1 } in
  let pool = Pool.create ~size:1 ~lease_lifetime:10.0 () in
  let mapper = Mapper.create ~pool ~static_limits ~dynamic_limits gridmap in
  let static_map = Result.get_ok (Mapper.resolve mapper ~now:0.0 (dn "/O=Grid/CN=Static User")) in
  Alcotest.(check (option int)) "static limits" (Some 2)
    static_map.Mapper.limits.Sandbox.max_cpus;
  let dynamic_map = Result.get_ok (Mapper.resolve mapper ~now:0.0 (dn "/O=Grid/CN=Visitor")) in
  Alcotest.(check (option int)) "dynamic limits" (Some 1)
    dynamic_map.Mapper.limits.Sandbox.max_cpus

(* --- Sandbox derivation (policy-derived enforcement) ------------------------- *)

let constraints_of rsl =
  List.map
    (fun (r : Grid_rsl.Ast.relation) ->
      { Grid_policy.Types.attribute = r.attribute;
        op = r.op;
        values =
          List.map
            (function
              | Grid_rsl.Ast.Literal s -> Grid_policy.Types.Str s
              | Grid_rsl.Ast.Variable _ | Grid_rsl.Ast.Binding _ -> assert false)
            r.values })
    (Grid_rsl.Parser.parse_clause_exn rsl)

let test_sandbox_intersect () =
  let a =
    { Sandbox.unrestricted with
      Sandbox.max_cpus = Some 8;
      Sandbox.allowed_executables = [ "a"; "b" ] }
  in
  let b =
    { Sandbox.unrestricted with
      Sandbox.max_cpus = Some 4;
      Sandbox.max_walltime = Some 60.0;
      Sandbox.allowed_executables = [ "b"; "c" ] }
  in
  let i = Sandbox.intersect a b in
  Alcotest.(check (option int)) "min cpus" (Some 4) i.Sandbox.max_cpus;
  Alcotest.(check (option (float 1e-9))) "walltime adopted" (Some 60.0) i.Sandbox.max_walltime;
  Alcotest.(check (list string)) "executables intersected" [ "b" ] i.Sandbox.allowed_executables;
  (* Disjoint allow-lists permit nothing (not everything). *)
  let c = { Sandbox.unrestricted with Sandbox.allowed_executables = [ "x" ] } in
  let d = { Sandbox.unrestricted with Sandbox.allowed_executables = [ "y" ] } in
  let disjoint = Sandbox.intersect c d in
  Alcotest.(check bool) "disjoint permits nothing" false
    (Sandbox.permits disjoint (job "&(executable=x)"));
  (* Unrestricted is the identity. *)
  let id = Sandbox.intersect a Sandbox.unrestricted in
  Alcotest.(check (option int)) "identity cpus" (Some 8) id.Sandbox.max_cpus;
  Alcotest.(check (list string)) "identity exes" [ "a"; "b" ] id.Sandbox.allowed_executables

let test_sandbox_of_policy_clause () =
  let clause =
    constraints_of
      "&(action=start)(executable=test1 test2)(directory=/sandbox/test)(jobtag=ADS)(count < 4)(maxmemory <= 512)(maxwalltime <= 2)"
  in
  let limits = Sandbox.of_policy_clause clause in
  Alcotest.(check (list string)) "executables" [ "test1"; "test2" ]
    limits.Sandbox.allowed_executables;
  Alcotest.(check (list string)) "directories" [ "/sandbox/test" ]
    limits.Sandbox.allowed_directories;
  Alcotest.(check (option int)) "count < 4 gives cap 3" (Some 3) limits.Sandbox.max_cpus;
  Alcotest.(check (option int)) "memory" (Some 512) limits.Sandbox.max_memory_mb;
  Alcotest.(check (option (float 1e-9))) "walltime minutes to seconds" (Some 120.0)
    limits.Sandbox.max_walltime

let test_sandbox_of_policy_clause_ignores_unenforceable () =
  let clause = constraints_of "&(action=start)(jobowner != NULL)(queue != reserved)(count > 2)" in
  let limits = Sandbox.of_policy_clause clause in
  Alcotest.(check (option int)) "lower bounds not enforceable as caps" None
    limits.Sandbox.max_cpus;
  Alcotest.(check (list string)) "no allow-lists" [] limits.Sandbox.allowed_executables

(* --- Allocations ---------------------------------------------------------------- *)

let test_allocation_lifecycle () =
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"/O=Grid/O=Fusion" ~budget:1000.0;
  Alcotest.(check (option (float 1e-9))) "full budget" (Some 1000.0)
    (Allocation.balance bank ~party:"/O=Grid/O=Fusion");
  let r = Result.get_ok (Allocation.reserve bank ~party:"/O=Grid/O=Fusion" ~amount:600.0) in
  Alcotest.(check (option (float 1e-9))) "reservation held" (Some 400.0)
    (Allocation.balance bank ~party:"/O=Grid/O=Fusion");
  Allocation.settle r ~actual:250.0;
  Alcotest.(check (option (float 1e-9))) "refund after settle" (Some 750.0)
    (Allocation.balance bank ~party:"/O=Grid/O=Fusion");
  Alcotest.(check (option (float 1e-9))) "charge recorded" (Some 250.0)
    (Allocation.charged bank ~party:"/O=Grid/O=Fusion")

let test_allocation_refusal () =
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"/O=Grid" ~budget:100.0;
  (match Allocation.reserve bank ~party:"/O=Grid" ~amount:101.0 with
  | Error (Allocation.Insufficient_allocation { requested = 101.0; available = 100.0; _ }) -> ()
  | _ -> Alcotest.fail "over-budget reservation accepted");
  (match Allocation.reserve bank ~party:"/O=Nobody" ~amount:1.0 with
  | Error (Allocation.Unknown_party _) -> ()
  | _ -> Alcotest.fail "unknown party accepted");
  Alcotest.(check int) "refusals counted" 2 (Allocation.refusals bank)

let test_allocation_settle_idempotent () =
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"p" ~budget:100.0;
  let r = Result.get_ok (Allocation.reserve bank ~party:"p" ~amount:50.0) in
  Allocation.settle r ~actual:10.0;
  Allocation.settle r ~actual:10.0;
  Alcotest.(check (option (float 1e-9))) "charged once" (Some 10.0)
    (Allocation.charged bank ~party:"p")

let test_allocation_cancel () =
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"p" ~budget:100.0;
  let r = Result.get_ok (Allocation.reserve bank ~party:"p" ~amount:50.0) in
  Allocation.cancel r;
  Alcotest.(check (option (float 1e-9))) "nothing charged" (Some 0.0)
    (Allocation.charged bank ~party:"p");
  Alcotest.(check (option (float 1e-9))) "all returned" (Some 100.0)
    (Allocation.balance bank ~party:"p")

let test_allocation_overrun_still_charged () =
  (* Walltime accounting is authoritative: usage beyond the reservation is
     charged anyway (the LRM kill already bounds it). *)
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"p" ~budget:100.0;
  let r = Result.get_ok (Allocation.reserve bank ~party:"p" ~amount:10.0) in
  Allocation.settle r ~actual:30.0;
  Alcotest.(check (option (float 1e-9))) "overrun charged" (Some 30.0)
    (Allocation.charged bank ~party:"p")

let test_allocation_prefix_party () =
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"/O=Grid" ~budget:10.0;
  Allocation.open_account bank ~party:"/O=Grid/O=Fusion" ~budget:10.0;
  Alcotest.(check (option string)) "longest prefix wins" (Some "/O=Grid/O=Fusion")
    (Allocation.prefix_party_of bank (dn "/O=Grid/O=Fusion/CN=Kate"));
  Alcotest.(check (option string)) "shorter prefix fallback" (Some "/O=Grid")
    (Allocation.prefix_party_of bank (dn "/O=Grid/O=Other/CN=X"));
  Alcotest.(check (option string)) "no party" None
    (Allocation.prefix_party_of bank (dn "/O=Elsewhere/CN=Y"))

let test_allocation_invalid_args () =
  let bank = Allocation.create () in
  Alcotest.(check bool) "negative budget raises" true
    (try
       Allocation.open_account bank ~party:"p" ~budget:(-1.0);
       false
     with Invalid_argument _ -> true);
  Allocation.open_account bank ~party:"p" ~budget:1.0;
  Alcotest.(check bool) "duplicate raises" true
    (try
       Allocation.open_account bank ~party:"p" ~budget:1.0;
       false
     with Invalid_argument _ -> true)

let qcheck_allocation_never_negative =
  QCheck.Test.make ~name:"allocation balance never exceeds budget nor goes negative"
    ~count:200
    QCheck.(small_list (pair (int_range 1 50) (int_range 0 60)))
    (fun ops ->
      let bank = Allocation.create () in
      Allocation.open_account bank ~party:"p" ~budget:100.0;
      List.iter
        (fun (amount, actual) ->
          match Allocation.reserve bank ~party:"p" ~amount:(float_of_int amount) with
          | Ok r -> Allocation.settle r ~actual:(float_of_int actual)
          | Error _ -> ())
        ops;
      match Allocation.balance bank ~party:"p" with
      | Some b -> b <= 100.0 +. 1e-9
      | None -> false)

let () =
  Alcotest.run "grid_accounts"
    [ ( "pool",
        [ Alcotest.test_case "acquire/release" `Quick test_pool_acquire_release;
          Alcotest.test_case "holder stickiness" `Quick test_pool_same_holder_same_account;
          Alcotest.test_case "renewal extends" `Quick test_pool_lease_renewal_extends;
          Alcotest.test_case "expiry reclaims" `Quick test_pool_expiry_reclaims;
          Alcotest.test_case "holder_of" `Quick test_pool_holder_of;
          Alcotest.test_case "release unknown" `Quick test_pool_release_unknown;
          QCheck_alcotest.to_alcotest qcheck_pool_never_double_allocates;
          pinned qcheck_pool_matches_reference ] );
      ( "sandbox",
        [ Alcotest.test_case "unrestricted" `Quick test_sandbox_unrestricted;
          Alcotest.test_case "cpu limit" `Quick test_sandbox_cpu_limit;
          Alcotest.test_case "memory+walltime" `Quick test_sandbox_memory_and_walltime;
          Alcotest.test_case "paths" `Quick test_sandbox_paths;
          Alcotest.test_case "executables" `Quick test_sandbox_executables;
          Alcotest.test_case "intersect" `Quick test_sandbox_intersect;
          Alcotest.test_case "of_policy_clause" `Quick test_sandbox_of_policy_clause;
          Alcotest.test_case "unenforceable ignored" `Quick
            test_sandbox_of_policy_clause_ignores_unenforceable ] );
      ( "mapper",
        [ Alcotest.test_case "static first" `Quick test_mapper_static_first;
          Alcotest.test_case "dynamic fallback" `Quick test_mapper_dynamic_fallback;
          Alcotest.test_case "no account" `Quick test_mapper_no_account;
          Alcotest.test_case "limits attached" `Quick test_mapper_limits_attached ] );
      ( "allocation",
        [ Alcotest.test_case "lifecycle" `Quick test_allocation_lifecycle;
          Alcotest.test_case "refusal" `Quick test_allocation_refusal;
          Alcotest.test_case "settle idempotent" `Quick test_allocation_settle_idempotent;
          Alcotest.test_case "cancel" `Quick test_allocation_cancel;
          Alcotest.test_case "overrun charged" `Quick test_allocation_overrun_still_charged;
          Alcotest.test_case "prefix party" `Quick test_allocation_prefix_party;
          Alcotest.test_case "invalid args" `Quick test_allocation_invalid_args;
          QCheck_alcotest.to_alcotest qcheck_allocation_never_negative ] ) ]
