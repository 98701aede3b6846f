(** Local resource manager: a PBS/LSF stand-in over the simulation engine.

    Nodes with CPUs, priority queues, and the management operations the
    GRAM Job Manager needs (submit, cancel, suspend, resume, priority
    signal, query). Walltime budgets are consumed while running and
    enforced by killing the job. *)

type node

type queue_config = {
  queue_name : string;
  priority : int;
  max_walltime : float option;
}

type state =
  | Pending
  | Running
  | Suspended
  | Completed
  | Cancelled
  | Killed of string

val state_to_string : state -> string

val is_terminal : state -> bool
(** [Completed], [Cancelled] or [Killed]: the job will not change again. *)

type spec = {
  cpus : int;
  duration : float;
  walltime_limit : float option;
  queue : string option;
}

type job = private {
  id : string;
  spec : spec;
  queue : queue_config;
  submitted_at : Grid_sim.Clock.time;
  mutable priority : int;
  mutable state : state;
  mutable remaining : float;
  mutable walltime_used : float;
  mutable started_at : Grid_sim.Clock.time;
  mutable allocation : (node * int) list;
  mutable generation : int;
  mutable arrival : int;
}

type event =
  | State_changed of { job : job; from_state : state }

type t

type error =
  | Unknown_queue of string
  | Too_many_cpus of { requested : int; capacity : int }
  | Unknown_job of string
  | Invalid_transition of { job : string; state : state; operation : string }

val error_to_string : error -> string

val default_queues : queue_config list
(** "batch" (priority 0, no cap) and "priority" (priority 10, 2 h cap). *)

val create :
  ?obs:Grid_obs.Obs.t ->
  ?queues:queue_config list ->
  nodes:int ->
  cpus_per_node:int ->
  Grid_sim.Engine.t ->
  t
(** The first queue is the default. Raises [Invalid_argument] on an empty
    cluster or queue list. [obs] feeds submission/terminal-state counters
    ([lrm_submissions_total], [lrm_jobs_total]), queue-wait and walltime
    histograms, and CPU occupancy gauges. *)

val capacity : t -> int
val queue_names : t -> string list
val free_cpus : t -> int
val cpus_in_use : t -> int

val on_event : t -> (event -> unit) -> unit
(** Observe every job state change, for as long as the LRM lives. Meant
    for per-resource listeners such as a journal bridge; use {!watch} for
    one job, or every state change pays for every job ever watched. *)

val watch : t -> string -> (event -> unit) -> unit
(** [watch t id f]: call [f] on each state change of job [id] until, and
    including, its terminal state, after which [f] is dropped. A job
    that is unknown or already terminal is not watched. Each state change
    calls the job's watchers before the {!on_event} listeners, each
    group newest first; callbacks registered during a dispatch are first
    called on the next state change. *)

val submit : t -> spec -> (string, error) result
(** Queue a job; returns its id. Scheduling happens immediately and on
    every capacity change. *)

val cancel : t -> string -> (string, error) result
val suspend : t -> string -> (string, error) result
val resume : t -> string -> (string, error) result
val set_priority : t -> string -> int -> (string, error) result

type status = {
  job_state : state;
  job_remaining : float;
}

val query : t -> string -> (status, error) result

val jobs : t -> job list
val running_jobs : t -> job list
val pending_jobs : t -> job list

val invariant_holds : t -> bool
(** No node over-allocated; allocation bookkeeping consistent. *)
