let sides = 4
