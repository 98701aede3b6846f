(** Simulated stable storage with injectable faults.

    The storage analogue of {!Network}: named append-only files split
    into a durable region and a volatile (unsynced) tail, a seeded fault
    stream independent of the data written, and listeners so chaos runs
    are measurable. A {!crash} discards the volatile tail of every file —
    either entirely (truncated tail) or, with the profile's
    [torn_write] probability, keeping a random prefix (torn final
    record), the two corruption modes a write-ahead journal must survive.

    Fsync latency is sampled per {!sync} from the fault stream and
    accumulated; the simulation engine is not blocked (everything inside
    a resource happens within one simulation event), but the sampled
    latencies are reported through {!on_event} so the store layer can
    feed them into latency histograms and the recovery benchmark can
    charge them against recovery time. *)

module Faults : sig
  type profile = {
    torn_write : float;
    (** probability that a crash keeps a partial prefix of the unsynced
        tail instead of dropping it whole *)
    fsync_latency : Clock.time;  (** base latency charged per fsync *)
    fsync_jitter : Clock.time;  (** extra latency ~ U[0, fsync_jitter) *)
  }

  val profile :
    ?torn_write:float ->
    ?fsync_latency:Clock.time ->
    ?fsync_jitter:Clock.time ->
    unit ->
    profile
  (** Validates ranges; raises [Invalid_argument] on a [torn_write]
      outside [0, 1] or negative latencies. *)
end

type event =
  | Synced of { file : string; latency : Clock.time; bytes : int }
      (** a sync made [bytes] volatile bytes durable *)
  | Torn of { file : string; kept : int; lost : int }
      (** crash kept a torn prefix of the unsynced tail *)
  | Truncated of { file : string; lost : int }
      (** crash dropped the whole unsynced tail *)
  | Corrupted of { file : string; at : int }
      (** a byte was flipped in place (bit rot, via {!corrupt}) *)

type t

val create : ?faults:Faults.profile -> ?seed:int -> unit -> t
(** Fault sampling draws from its own stream seeded by [seed], so the
    bytes written never influence which crash outcome is drawn. *)

val on_event : t -> (event -> unit) -> unit

(** {1 File operations} *)

val append : t -> file:string -> string -> unit
(** Append bytes to the volatile tail (creating the file if needed). *)

val sync : t -> file:string -> Clock.time
(** Make the file's volatile tail durable; returns the sampled fsync
    latency (0 when nothing was pending). Unknown files sync vacuously. *)

val read : t -> file:string -> string option
(** Durable content followed by the volatile tail — what a reader sees
    while the process is alive. [None] if the file does not exist. *)

val size : t -> file:string -> int
(** Total bytes (durable + volatile); 0 for missing files. *)

val exists : t -> file:string -> bool
val delete : t -> file:string -> unit

val truncate : t -> file:string -> unit
(** Reset the file to empty (durable and volatile), keeping it existing.
    Models [O_TRUNC] + sync: the truncation itself is durable. *)

val rename : t -> src:string -> dst:string -> unit
(** Atomic whole-file rename, replacing [dst]; the renamed content is
    the durable region only — callers must {!sync} first (matching the
    POSIX pattern: write tmp, fsync tmp, rename). The volatile tail of
    [src] is discarded. Raises [Invalid_argument] when [src] does not
    exist. *)

val corrupt : t -> file:string -> at:int -> unit
(** Flip one durable byte in place: the bit-rot injector used by
    crash-safety tests. Out-of-range offsets are ignored. *)

(** {1 Crash} *)

val crash : t -> unit
(** Lose the volatile tail of every file. Per file with a non-empty
    tail, with probability [torn_write] a uniformly-drawn proper prefix
    survives into the durable region (torn write); otherwise the tail
    vanishes (truncated tail). Durable bytes are never touched. *)

(** {1 Counters} *)
