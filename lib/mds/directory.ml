(* The information service (GT2's MDS stand-in).

   Section 4 lists "resource monitoring and discovery (MDS)" among the
   Globus Toolkit's mechanisms. This directory plays the GIIS role:
   resources register static descriptions and publish dynamic status;
   consumers (users, the {!Broker}) query it. Entries go stale when not
   republished within the TTL — queries can ask for fresh entries only,
   the standard MDS hygiene. *)

type static_info = {
  resource_name : string;
  site : string;                  (* administrative domain label *)
  total_cpus : int;
  queues : string list;
}

type status = {
  free_cpus : int;
  running_jobs : int;
  pending_jobs : int;
  published_at : Grid_sim.Clock.time;
}

type entry = {
  info : static_info;
  mutable latest : status option;
}

type t = {
  engine : Grid_sim.Engine.t;
  ttl : Grid_sim.Clock.time;
  entries : (string, entry) Hashtbl.t;
}

let create ?(ttl = 60.0) engine = { engine; ttl; entries = Hashtbl.create 16 }

let engine t = t.engine

let register t (info : static_info) =
  if Hashtbl.mem t.entries info.resource_name then
    invalid_arg ("Directory.register: duplicate resource " ^ info.resource_name);
  Hashtbl.replace t.entries info.resource_name { info; latest = None }

(* Administrative removal (decommissioning, or a provider detaching):
   the entry disappears immediately — unlike TTL staleness, not even
   [~fresh_only:false] queries see it again until re-registration. A
   no-op for unknown names, so churny detach paths need no guard. *)
let deregister t resource_name = Hashtbl.remove t.entries resource_name

let publish t ~resource_name status =
  match Hashtbl.find_opt t.entries resource_name with
  | None -> invalid_arg ("Directory.publish: unregistered resource " ^ resource_name)
  | Some entry -> entry.latest <- Some status

let fresh t (entry : entry) =
  match entry.latest with
  | None -> false
  | Some s -> Grid_sim.Engine.now t.engine -. s.published_at <= t.ttl

let lookup t resource_name = Hashtbl.find_opt t.entries resource_name

let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []

(* Query with optional filters; [fresh_only] drops entries whose last
   publication is older than the TTL. Results are sorted by free
   capacity, fullest-first consumers can reverse. *)
let query ?(fresh_only = true) ?min_free_cpus ?queue ?site t =
  entries t
  |> List.filter (fun e ->
         ((not fresh_only) || fresh t e)
         && (match site with None -> true | Some s -> e.info.site = s)
         && (match queue with None -> true | Some q -> List.mem q e.info.queues)
         &&
         match (min_free_cpus, e.latest) with
         | None, _ -> true
         | Some _, None -> false
         | Some n, Some st -> st.free_cpus >= n)
  |> List.sort (fun a b ->
         match (a.latest, b.latest) with
         | Some x, Some y -> compare y.free_cpus x.free_cpus
         | Some _, None -> -1
         | None, Some _ -> 1
         | None, None -> compare a.info.resource_name b.info.resource_name)

let pp_entry now ppf (e : entry) =
  match e.latest with
  | None ->
    Fmt.pf ppf "%-14s %-10s %3d cpus  (never published)" e.info.resource_name e.info.site
      e.info.total_cpus
  | Some s ->
    Fmt.pf ppf "%-14s %-10s %3d cpus  %3d free  %2d running  %2d pending  (age %.0fs)"
      e.info.resource_name e.info.site e.info.total_cpus s.free_cpus s.running_jobs
      s.pending_jobs (now -. s.published_at)
