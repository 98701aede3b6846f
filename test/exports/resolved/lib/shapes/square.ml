let area s = s *. s
let side a = sqrt a
