(** Coarse-grained cpu-second allocations per party (paper Section 2):
    reserve at admission, settle against actual usage at completion. *)

type account

type reservation

type t

type error =
  | Unknown_party of string
  | Insufficient_allocation of { party : string; requested : float; available : float }

val error_to_string : error -> string

val create : unit -> t

val open_account : t -> party:string -> budget:float -> unit
(** [budget] in cpu-seconds. Raises [Invalid_argument] on negative
    budgets or duplicate parties. *)

val balance : t -> party:string -> float option
(** Budget minus charges minus outstanding reservations. *)

val charged : t -> party:string -> float option

val refusals : t -> int
(** Admissions refused for allocation reasons. *)

val reserve : t -> party:string -> amount:float -> (reservation, error) result

val settle : reservation -> actual:float -> unit
(** Release the reservation and charge actual usage. Idempotent. *)

val cancel : reservation -> unit
(** [settle ~actual:0.0]. *)

val prefix_party_of : t -> Grid_gsi.Dn.t -> string option
(** Longest registered party that is a string prefix of the DN. *)

type enforcement = {
  bank : t;
  party_of : Grid_gsi.Dn.t -> string option;
}

val enforcement : t -> enforcement
(** Maps identities to parties by {!prefix_party_of}. *)
