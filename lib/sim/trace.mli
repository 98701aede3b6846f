(** Interaction traces: timestamped component-to-component arrows.

    Used to regenerate the interaction diagrams of the paper's Figures 1
    and 2 and to assert, in tests, that a flow really passed through a
    given component (e.g. "the PEP callout ran before job submission"). *)

type entry = {
  at : Clock.time;
  source : string;
  target : string;
  label : string;
}

type t

val create : unit -> t
val record : t -> at:Clock.time -> source:string -> target:string -> string -> unit

val entries : t -> entry list
(** In chronological (recording) order. *)

val pp : t Fmt.t

val count : t -> label:string -> int
(** O(1). *)
