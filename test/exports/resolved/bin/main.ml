module Keys = Map.Make (Shapes.Key)

module type SIDES = sig
  val sides : int
end

let boxed = (module Shapes.Boxed : SIDES)

let () =
  let module R = Shapes.Square in
  let c = Shapes.Circle.make 1.0 in
  let round = match Shapes.Circle.kind c with Shapes.Circle.Round -> 1 | Oval -> 0 in
  let (module B) = boxed in
  let keys = Keys.add 1 "one" Keys.empty in
  Printf.printf "%f %d %f %d %d\n"
    (Shapes.Circle.area c) round (R.side 4.0) B.sides (Keys.cardinal keys);
  print_float Shapes.Scale.(double 1.0)
