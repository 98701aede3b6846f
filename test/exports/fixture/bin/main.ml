let () = print_int Demo.fixture_called
