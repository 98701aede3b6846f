let () = print_endline (Knob.make ~label:"dial" ())
