(** Field codec for journal payloads.

    A payload is a flat [key=value] record: fields separated by tabs,
    keys and values percent-escaped so tabs, newlines and the separators
    themselves round-trip. Order-preserving, duplicate keys allowed
    (first wins on lookup). Self-describing and greppable — `gridctl
    journal show` prints payloads verbatim. *)

val encode : (string * string) list -> string
val decode : string -> (string * string) list

val field : (string * string) list -> string -> string option
val require : (string * string) list -> string -> (string, string) result
(** [Error] names the missing key. *)

val encode_list : string list -> string
(** Comma-joined with per-item escaping; embeddable as one field value. *)

val decode_list : string -> string list
(** [decode_list ""] is [[]]. *)
