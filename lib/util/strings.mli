(** String helpers shared by the RSL/policy/config parsers. *)

val is_space : char -> bool

val strip : string -> string
(** Remove leading and trailing whitespace. *)

val starts_with : prefix:string -> string -> bool

val split_whitespace : string -> string list
(** Split on runs of whitespace, dropping empty tokens. *)

val strip_comment : string -> string
(** Remove a ['#'] comment, respecting double-quoted regions. *)

val config_lines : string -> (int * string) list
(** Lines of a config text that remain after comment/blank stripping, each
    paired with its 1-based line number. *)

val concat_map : string -> ('a -> string) -> 'a list -> string
