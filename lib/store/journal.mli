(** Append-only, checksummed write-ahead journal over {!Grid_sim.Disk}.

    Record framing: a one-byte magic, a 4-byte big-endian payload
    length, an 8-byte check (the payload's masked CRC-32C and its
    CRC-32, see {!Crc}), then the payload. Replay scans from the start
    and stops cleanly at the first frame that does not verify — a
    truncated header, a short payload
    (truncated tail), a checksum mismatch (torn write or bit rot) or a
    bad magic byte — dropping that frame and everything after it. A
    record is therefore either replayed bit-exact or not at all. *)

type sync_policy =
  | Every_append  (** fsync after each record: nothing is ever lost *)
  | Manual  (** callers fsync explicitly; crashes may lose the tail *)

type t

val create : ?sync:sync_policy -> disk:Grid_sim.Disk.t -> file:string -> unit -> t
(** [sync] defaults to [Every_append]. Creating a journal never touches
    existing bytes — append continues after whatever is already there. *)

val append : t -> string -> unit
(** Frame, checksum and write one payload, fsyncing per the policy.
    Raises [Invalid_argument] on payloads over 16 MiB; replay treats a
    longer length field as corruption. *)

val sync : t -> unit
val appends : t -> int
val bytes : t -> int
(** Current journal size in bytes (durable + unsynced). *)

(** {1 Replay} *)

type corruption =
  | Truncated_frame of { offset : int }
      (** fewer bytes than a header, or payload shorter than its length *)
  | Checksum_mismatch of { offset : int }
  | Bad_magic of { offset : int }

val corruption_to_string : corruption -> string

type replay = {
  records : string list;  (** verified payloads, append order *)
  valid_bytes : int;  (** prefix length that replayed cleanly *)
  dropped_bytes : int;  (** bytes after [valid_bytes] *)
  corruption : corruption option;
      (** why the scan stopped early; [None] on a clean tail *)
}

val replay : disk:Grid_sim.Disk.t -> file:string -> replay
(** Replay a journal file. A missing file replays as empty. Idempotent:
    replaying twice yields identical results. *)

val frame : string -> string
(** The on-disk bytes for one payload — exposed for tests that build
    corrupt journals by hand. *)
