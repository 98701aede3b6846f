let double x = 2. *. x
let half x = x /. 2.
