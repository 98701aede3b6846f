(** Injective flat wire encoding for lists of arbitrary byte strings.

    Joining fields with a separator character is not injective once a
    field can contain that character — a capability whose holder DN
    carries an embedded newline must not decode as a different
    capability. Each part is length-prefixed ([<len>.<bytes>]), so the
    encoding is unambiguous whatever the bytes are, and
    [decode (encode parts) = Some parts] for every part list. The
    decision-cache key builder uses the same scheme; the QCheck
    round-trip suites in [test_callout] and [test_cas] pin both. *)

val encode : string list -> string
(** Concatenated length-prefixed parts. Injective: distinct part lists
    (including lists differing only in how bytes split across parts)
    encode to distinct strings. *)

val decode : string -> string list option
(** Parse a string produced by {!encode} back into its parts; [None] on
    any malformed or trailing input. *)
