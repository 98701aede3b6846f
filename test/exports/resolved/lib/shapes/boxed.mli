val sides : int
(** Only reached through a [(module Shapes.Boxed)] pack. *)
