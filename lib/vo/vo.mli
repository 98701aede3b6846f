(** The Virtual Organization: membership, group profiles, jobtag registry,
    and compilation into a VO policy for resource-side PEPs. *)

type member = {
  dn : Grid_gsi.Dn.t;
  groups : string list;
}

type t

val create : ?member_prefix:string -> string -> t
(** [create ~member_prefix name]: [member_prefix] is the DN prefix covering
    all members, enabling VO-wide requirement statements. *)

val name : t -> string

val add_member : t -> dn:string -> groups:string list -> unit
(** Raises [Invalid_argument] on duplicate membership. *)

val remove_member : t -> dn:Grid_gsi.Dn.t -> unit
val is_member : t -> Grid_gsi.Dn.t -> bool
val groups_of : t -> Grid_gsi.Dn.t -> string list
val in_group : t -> Grid_gsi.Dn.t -> string -> bool

val add_profile : t -> Profile.t -> unit
(** Raises [Invalid_argument] on a duplicate group profile. *)

val register_jobtag : t -> string -> unit
(** Statically register a jobtag (idempotent). *)

val jobtags : t -> string list

val require_jobtag : t -> unit
(** Require every member start request to carry a jobtag (compiles to the
    Figure 3 requirement statement; needs [member_prefix]). *)

val compile_policy : t -> Grid_policy.Types.t
(** Requirements first, then per-member grants from group profiles. *)

val policy_source : t -> Grid_policy.Combine.source
