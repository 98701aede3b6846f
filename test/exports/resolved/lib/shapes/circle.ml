type kind = Round | Oval
type t = { radius : float; label : string }

let make ?(label = "circle") radius = { radius; label }
let area c = 3.14159 *. c.radius *. c.radius
let kind _ = Round
