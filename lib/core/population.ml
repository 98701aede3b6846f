(* Population-scale subject synthesis.

   The fleet workload needs 10^5-10^6 distinct DNs without materializing
   per-user state: a synthesizer holds only the seed, the population
   size and a churn generation counter, and derives everything else —
   DN, group, credentials, RSL templates — on demand from the rank of a
   user. Activity is zipfian: a handful of head users dominate the
   stream while the long tail keeps the subject space far larger than
   any hot cache.

   Policy stays O(groups), not O(members): every synthesized DN lives
   under its group's DN prefix, and the policy language matches subjects
   by prefix ([Types.statement_applies]), so three grant statements
   cover the entire population — the shape the VOMS paper's
   group-membership attributes compile down to here. *)

type group = {
  name : string;
  jobtag : string;
  templates : string array; (* RSL bodies; simduration appended by callers *)
}

let groups =
  [| { name = "developers";
       jobtag = "POPDEV";
       templates =
         [| "&(executable=sweep)(directory=/sandbox/pop)(jobtag=POPDEV)(count=2)";
            "&(executable=filter)(directory=/sandbox/pop)(jobtag=POPDEV)";
            "&(executable=compile)(directory=/sandbox/pop)(jobtag=POPDEV)(count=3)" |] };
     { name = "analysts";
       jobtag = "POPANA";
       templates =
         [| "&(executable=TRANSP)(directory=/sandbox/pop)(jobtag=POPANA)(count=4)";
            "&(executable=TRANSP)(directory=/sandbox/pop)(jobtag=POPANA)" |] };
     { name = "admins";
       jobtag = "POPADM";
       templates =
         [| "&(executable=demo)(directory=/sandbox/pop)(jobtag=POPADM)";
            "&(executable=audit)(directory=/sandbox/pop)(jobtag=POPADM)" |] } |]

type t = {
  size : int;
  tag : string;      (* seed-derived community tag baked into every DN *)
  ln_bound : float;  (* log (size + 1), precomputed for the sampler *)
  mutable generation : int;
}

(* SplitMix64 finalizer: the tag must differ across seeds but be stable
   for one, so two populations never share a subject space by accident. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed ~size =
  if size < 1 then invalid_arg "Population.create: size must be positive";
  { size;
    tag = Printf.sprintf "%08Lx" (Int64.logand (mix (Int64.of_int seed)) 0xffffffffL);
    ln_bound = log (float_of_int (size + 1));
    generation = 0 }

let size t = t.size
let churn t = t.generation <- t.generation + 1

(* Group assignment is a pure function of the rank so it never needs
   storing: 60% developers, 30% analysts, 10% admins, interleaved so the
   zipf head covers all three groups. *)
let group_of_rank rank =
  let slot = rank mod 10 in
  if slot < 6 then groups.(0) else if slot < 9 then groups.(1) else groups.(2)

let organization t = Printf.sprintf "/O=Grid/O=Pop-%s" t.tag

let group_prefix t (g : group) = Printf.sprintf "/O=Grid/O=Pop-%s/OU=%s" t.tag g.name

let dn t rank =
  if rank < 0 || rank >= t.size then invalid_arg "Population.dn: rank out of range";
  Printf.sprintf "/O=Grid/O=Pop-%s/OU=%s/CN=u%06d" t.tag (group_of_rank rank).name rank

let jobtag _t rank = (group_of_rank rank).jobtag

(* Zipf(s=1) rank via the continuous inverse CDF: the density 1/(r+1)
   integrates to ln(r+1), so rank = floor(exp(u * ln(N+1))) - 1 draws
   rank k with probability ~ ln((k+2)/(k+1)) ~ 1/(k+1). O(1) time and
   space — no harmonic table, which would be O(population) resident. *)
let sample t rng =
  let u = Grid_util.Rng.float rng 1.0 in
  let r = int_of_float (exp (u *. t.ln_bound)) - 1 in
  if r < 0 then 0 else if r >= t.size then t.size - 1 else r

let template _t rng rank =
  let g = group_of_rank rank in
  g.templates.(Grid_util.Rng.int rng (Array.length g.templates))

(* The first admin rank: the synthetic counterpart of the VO admin the
   fusion cast uses for third-party (jobtag) management. *)
let admin_rank t = if t.size > 9 then 9 else t.size - 1

let identity t ~ca ~now rank =
  Grid_gsi.Identity.create ~ca ~now (dn t rank)

(* --- Policy -------------------------------------------------------------

   Three prefix-addressed grant statements (plus a jobtag requirement on
   the community root) govern the whole population. The clauses are the
   same shapes [Grid_vo.Profile] compiles, but granted to the group
   prefix rather than expanded per member.

   Group/role churn: each [churn] bump regenerates the sources with the
   generation folded in — developers' count ceiling breathes (4 <-> 6),
   analysts gain a sanctioned post-processing executable on odd
   generations, and admins pick up the developers' tag only on even
   generations. Reloading a resource's PEP from [sources] mid-flight
   therefore changes live answers, which is exactly what the epoch
   machinery and decision caches must absorb. *)

let profile_for t (g : group) =
  let generation = t.generation in
  match g.name with
  | "developers" ->
    Grid_vo.Profile.make "developers"
      ~start_rules:
        [ Grid_vo.Profile.start_rule ~directory:"/sandbox/pop" ~jobtag:"POPDEV"
            ~max_count:(if generation land 1 = 0 then 4 else 6)
            [ "sweep"; "filter"; "compile" ] ]
  | "analysts" ->
    Grid_vo.Profile.make "analysts"
      ~start_rules:
        [ Grid_vo.Profile.start_rule ~directory:"/sandbox/pop" ~jobtag:"POPANA"
            ~max_count:5
            (if generation land 1 = 1 then [ "TRANSP"; "postproc" ] else [ "TRANSP" ]) ]
  | _ ->
    Grid_vo.Profile.make "admins"
      ~manage_tags:
        (if generation land 1 = 0 then [ "POPDEV"; "POPANA"; "POPADM" ]
         else [ "POPANA"; "POPADM" ])
      ~start_rules:
        [ Grid_vo.Profile.start_rule ~directory:"/sandbox/pop" ~jobtag:"POPADM"
            [ "demo"; "audit" ] ]

let policy t : Grid_policy.Types.t =
  let requirement =
    { Grid_policy.Types.kind = Grid_policy.Types.Requirement;
      subject_pattern = Grid_gsi.Dn.parse (organization t);
      clauses =
        [ [ { Grid_policy.Types.attribute = "action";
              op = Grid_rsl.Ast.Eq;
              values = [ Grid_policy.Types.Str "start" ] };
            { Grid_policy.Types.attribute = "jobtag";
              op = Grid_rsl.Ast.Neq;
              values = [ Grid_policy.Types.Null ] } ] ] }
  in
  requirement
  :: (Array.to_list groups
     |> List.map (fun g ->
            { Grid_policy.Types.kind = Grid_policy.Types.Grant;
              subject_pattern = Grid_gsi.Dn.parse (group_prefix t g);
              clauses = Grid_vo.Profile.to_clauses (profile_for t g) }))

(* What a resource owner says about a guest community: its members may
   compute off the reserved queue, and management stays open for the
   community's own policy to settle. Combination is conjunctive with
   per-source default-deny, so a resource admitting the population must
   append these statements to its owner policy — a source that never
   mentions the community's prefix denies it wholesale. *)
let owner_policy t : Grid_policy.Types.t =
  let subject_pattern = Grid_gsi.Dn.parse (organization t) in
  let action_is v =
    { Grid_policy.Types.attribute = "action";
      op = Grid_rsl.Ast.Eq;
      values = [ Grid_policy.Types.Str v ] }
  in
  [ { Grid_policy.Types.kind = Grid_policy.Types.Grant;
      subject_pattern;
      clauses =
        [ [ action_is "start";
            { Grid_policy.Types.attribute = "queue";
              op = Grid_rsl.Ast.Neq;
              values = [ Grid_policy.Types.Str "reserved" ] } ] ] };
    { Grid_policy.Types.kind = Grid_policy.Types.Grant;
      subject_pattern;
      clauses =
        [ [ action_is "cancel" ]; [ action_is "information" ]; [ action_is "signal" ] ] } ]
