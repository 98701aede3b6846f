(** The grid-mapfile: GT2's ACL + DN-to-account mapping. *)

type entry = { dn : Dn.t; accounts : string list }
type t

exception Parse_error of { line : int; message : string }

val parse : string -> t
(** Parse mapfile text: lines of ["DN" account[,account...]], [#] comments.
    Raises {!Parse_error}. *)

val empty : t

val add : t -> dn:Dn.t -> account:string -> t

val lookup : t -> Dn.t -> string option
(** Primary account for a DN (the first one listed). *)

val mem : t -> Dn.t -> bool
(** The Gatekeeper's coarse-grain authorization check. *)

val entries : t -> entry list

val to_text : t -> string
(** Render back to mapfile syntax (round-trips through {!parse}). *)
