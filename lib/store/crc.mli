(** CRC-32C (Castagnoli, RFC 3720) and CRC-32 (IEEE 802.3), the journal's
    frame checks. Values are in [0, 2{^32}). *)

val both : string -> int * int
(** [(crc32c, crc32)] of the string, from one pass over its bytes. *)

val mask : int -> int
(** The masked form of a CRC-32C that the journal stores (as LevelDB). *)
