(** The information service (GT2 MDS stand-in): resource registration,
    status publication with TTL-based staleness, filtered queries. *)

type static_info = {
  resource_name : string;
  site : string;
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

type t

val create : ?ttl:Grid_sim.Clock.time -> Grid_sim.Engine.t -> t
(** Default TTL 60 simulated seconds. *)

val engine : t -> Grid_sim.Engine.t

val register : t -> static_info -> unit
(** Raises [Invalid_argument] on duplicate registration. *)

val deregister : t -> string -> unit
(** Remove a resource entirely (decommissioning): it no longer appears
    in any query or lookup until re-registered. No-op when unknown. *)

val publish : t -> resource_name:string -> status -> unit
(** Raises [Invalid_argument] for unregistered resources. *)

val lookup : t -> string -> entry option

val query :
  ?fresh_only:bool ->
  ?min_free_cpus:int ->
  ?queue:string ->
  ?site:string ->
  t ->
  entry list
(** Filtered entries, most free capacity first. [fresh_only] defaults to
    [true]. *)

val pp_entry : Grid_sim.Clock.time -> entry Fmt.t
