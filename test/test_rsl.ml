(* Tests for grid_rsl: lexer, parser, printer round-trip, job view. *)

open Grid_rsl

let parse = Parser.parse
let clause s = Parser.parse_clause_exn s

(* --- Parsing ----------------------------------------------------------- *)

let test_parse_simple () =
  match parse "&(executable=/bin/test1)(count=4)" with
  | Ast.Single [ r1; r2 ] ->
    Alcotest.(check string) "attr 1" "executable" r1.Ast.attribute;
    Alcotest.(check bool) "value 1" true (r1.Ast.values = [ Ast.Literal "/bin/test1" ]);
    Alcotest.(check string) "attr 2" "count" r2.Ast.attribute
  | _ -> Alcotest.fail "wrong shape"

let test_parse_without_ampersand () =
  match parse "(action = start)(jobtag != NULL)" with
  | Ast.Single [ r1; r2 ] ->
    Alcotest.(check string) "attr" "action" r1.Ast.attribute;
    Alcotest.(check bool) "neq" true (r2.Ast.op = Ast.Neq)
  | _ -> Alcotest.fail "wrong shape"

let test_parse_operators () =
  match parse "&(a=1)(b!=2)(c<3)(d>4)(e<=5)(f>=6)" with
  | Ast.Single rs ->
    let ops = List.map (fun (r : Ast.relation) -> r.op) rs in
    Alcotest.(check bool) "all operators" true
      (ops = [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Gt; Ast.Le; Ast.Ge ])
  | _ -> Alcotest.fail "wrong shape"

let test_parse_quoted_values () =
  match parse {|&(arguments="-v" "input file.dat")(stdout="out put")|} with
  | Ast.Single [ args; out ] ->
    Alcotest.(check bool) "two argument values" true
      (args.Ast.values = [ Ast.Literal "-v"; Ast.Literal "input file.dat" ]);
    Alcotest.(check bool) "spaced value" true (out.Ast.values = [ Ast.Literal "out put" ])
  | _ -> Alcotest.fail "wrong shape"

let test_parse_escaped_quote () =
  match parse {|&(note="say ""hi""")|} with
  | Ast.Single [ r ] ->
    Alcotest.(check bool) "doubled quote" true (r.Ast.values = [ Ast.Literal {|say "hi"|} ])
  | _ -> Alcotest.fail "wrong shape"

let test_parse_variables () =
  match parse "&(directory=$(HOME))(executable=$(HOME) run)" with
  | Ast.Single [ d; e ] ->
    Alcotest.(check bool) "variable" true (d.Ast.values = [ Ast.Variable "HOME" ]);
    Alcotest.(check bool) "mixed" true
      (e.Ast.values = [ Ast.Variable "HOME"; Ast.Literal "run" ])
  | _ -> Alcotest.fail "wrong shape"

let test_parse_multirequest () =
  match parse "+(&(executable=a))(&(executable=b)(count=2))" with
  | Ast.Multi [ [ _ ]; [ _; _ ] ] -> ()
  | _ -> Alcotest.fail "wrong shape"

let test_parse_attribute_case_insensitive () =
  match parse "&(ExecutAble=/bin/x)(COUNT=2)" with
  | Ast.Single [ r1; r2 ] ->
    Alcotest.(check string) "lowered" "executable" r1.Ast.attribute;
    Alcotest.(check string) "lowered" "count" r2.Ast.attribute
  | _ -> Alcotest.fail "wrong shape"

let test_parse_whitespace_tolerant () =
  match parse "  &  ( executable  =  /bin/x )\n ( count = 2 ) " with
  | Ast.Single [ _; _ ] -> ()
  | _ -> Alcotest.fail "wrong shape"

let test_parse_errors () =
  let bad s =
    match Parser.parse_result s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  bad "";
  bad "&";
  bad "&()";
  bad "&(executable)";
  bad "&(executable=)";
  bad "&(executable=/bin/x";
  bad "&(=x)";
  bad "&(a=1) trailing";
  bad "+";
  bad "+(&(a=1)";
  bad {|&(a="unterminated)|};
  bad "&(a ! b)";
  bad "&(a=$(V)"

let test_parse_clause_exn_rejects_multi () =
  Alcotest.(check bool) "multirequest rejected" true
    (try
       ignore (Parser.parse_clause_exn "+(&(a=1))");
       false
     with Parser.Error _ -> true)

(* --- Printing ----------------------------------------------------------- *)

let test_print_quotes_when_needed () =
  let c =
    [ { Ast.attribute = "arguments";
        op = Ast.Eq;
        values = [ Ast.Literal "simple"; Ast.Literal "has space"; Ast.Literal "" ] } ]
  in
  Alcotest.(check string) "printer quotes"
    {|&(arguments = simple "has space" "")|}
    (Ast.clause_to_string c)

let test_print_parse_roundtrip_fixed () =
  let inputs =
    [ "&(executable = /sandbox/test/test1)(count = 4)";
      "&(action = start)(jobtag != NULL)";
      {|&(arguments = "-x" "a b")(maxwalltime = 30)|};
      "+(&(executable = a))(&(executable = b))" ]
  in
  List.iter
    (fun s ->
      let once = parse s in
      let again = parse (Ast.to_string once) in
      Alcotest.(check bool) (Printf.sprintf "roundtrip %s" s) true (Ast.equal once again))
    inputs

(* --- Job view ------------------------------------------------------------ *)

let test_job_basic () =
  match Job.of_string "&(executable=/bin/sim)(directory=/sandbox)(count=4)(jobtag=NFC)" with
  | Ok j ->
    Alcotest.(check string) "exe" "/bin/sim" j.Job.executable;
    Alcotest.(check (option string)) "dir" (Some "/sandbox") j.Job.directory;
    Alcotest.(check int) "count" 4 j.Job.count;
    Alcotest.(check (option string)) "jobtag" (Some "NFC") j.Job.jobtag
  | Error e -> Alcotest.failf "unexpected: %s" (Job.error_to_string e)

let test_job_defaults () =
  match Job.of_string "&(executable=/bin/x)" with
  | Ok j ->
    Alcotest.(check int) "count default" 1 j.Job.count;
    Alcotest.(check (list string)) "no args" [] j.Job.arguments;
    Alcotest.(check (option string)) "no jobtag" None j.Job.jobtag
  | Error e -> Alcotest.failf "unexpected: %s" (Job.error_to_string e)

let test_job_missing_executable () =
  match Job.of_string "&(count=2)" with
  | Error (Job.Missing_attribute "executable") -> ()
  | _ -> Alcotest.fail "missing executable not reported"

let test_job_bad_count () =
  (match Job.of_string "&(executable=/bin/x)(count=abc)" with
  | Error (Job.Not_an_integer _) -> ()
  | _ -> Alcotest.fail "bad count not reported");
  match Job.of_string "&(executable=/bin/x)(count=0)" with
  | Error (Job.Bad_value _) -> ()
  | _ -> Alcotest.fail "zero count not reported"

let test_job_walltime_memory () =
  match Job.of_string "&(executable=/bin/x)(maxwalltime=90.5)(maxmemory=512)" with
  | Ok j ->
    Alcotest.(check (option (float 1e-9))) "walltime" (Some 90.5) j.Job.max_wall_time;
    Alcotest.(check (option int)) "memory" (Some 512) j.Job.max_memory
  | Error e -> Alcotest.failf "unexpected: %s" (Job.error_to_string e)

let test_job_environment_substitution () =
  match
    Job.of_string ~environment:[ ("HOME", "/home/kate") ] "&(executable=$(HOME)/bin/x)"
  with
  | Error (Job.Bad_value _) ->
    (* "$(HOME)/bin/x" lexes as variable then atom: two values for a
       single-valued attribute — rejected. *)
    ()
  | Ok _ -> Alcotest.fail "juxtaposed values accepted for executable"
  | Error e -> Alcotest.failf "wrong error: %s" (Job.error_to_string e)

let test_job_environment_whole_value () =
  match Job.of_string ~environment:[ ("EXE", "/bin/x") ] "&(executable=$(EXE))(count=2)" with
  | Ok j -> Alcotest.(check string) "substituted" "/bin/x" j.Job.executable
  | Error e -> Alcotest.failf "unexpected: %s" (Job.error_to_string e)

let test_job_unbound_variable () =
  match Job.of_string "&(executable=$(NOPE))" with
  | Error (Job.Unbound_variable "NOPE") -> ()
  | _ -> Alcotest.fail "unbound variable not reported"

let test_rsl_substitution () =
  (* GT2's (rsl_substitution = (NAME value)...) defines variables for the
     rest of the request. *)
  match
    Job.of_string
      {|&(rsl_substitution = (EXE /sandbox/transp) (TAG NFC))(executable=$(EXE))(jobtag=$(TAG))(count=2)|}
  with
  | Ok j ->
    Alcotest.(check string) "substituted exe" "/sandbox/transp" j.Job.executable;
    Alcotest.(check (option string)) "substituted tag" (Some "NFC") j.Job.jobtag
  | Error e -> Alcotest.failf "unexpected: %s" (Job.error_to_string e)

let test_rsl_substitution_precedence () =
  (* In-request bindings shadow caller-supplied environment. *)
  match
    Job.of_string ~environment:[ ("EXE", "/caller") ]
      "&(rsl_substitution = (EXE /request))(executable=$(EXE))"
  with
  | Ok j -> Alcotest.(check string) "request wins" "/request" j.Job.executable
  | Error e -> Alcotest.failf "unexpected: %s" (Job.error_to_string e)

let test_binding_roundtrip_and_errors () =
  (* Printer round-trip for bindings. *)
  let text = {|&(rsl_substitution = (HOME "/home/k k") (TAG NFC))(executable=$(HOME))|} in
  let once = parse text in
  Alcotest.(check bool) "roundtrip" true (Ast.equal once (parse (Ast.to_string once)));
  (* Bindings outside rsl_substitution are rejected by the job view. *)
  (match Job.of_string "&(executable = (A b))" with
  | Error (Job.Bad_value _) -> ()
  | _ -> Alcotest.fail "stray binding accepted");
  (* Malformed binding syntax. *)
  List.iter
    (fun s ->
      match Parser.parse_result s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "&(rsl_substitution = (ONLYNAME))";
      "&(rsl_substitution = (A b c))";
      "&(rsl_substitution = (A b)" ]

let test_job_multirequest_rejected () =
  match Job.of_string "+(&(executable=/bin/x))" with
  | Error Job.Unsupported_multirequest -> ()
  | _ -> Alcotest.fail "multirequest not rejected"

(* --- Properties ----------------------------------------------------------- *)

let gen_clause : Ast.clause QCheck.Gen.t =
  QCheck.Gen.(
    let attr = oneofl [ "executable"; "directory"; "count"; "jobtag"; "arguments"; "queue" ] in
    let value =
      oneof
        [ map (fun s -> Ast.Literal s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
          map (fun s -> Ast.Literal ("with space " ^ s))
            (string_size ~gen:(char_range 'a' 'z') (int_range 1 4));
          map (fun s -> Ast.Variable (String.uppercase_ascii s))
            (string_size ~gen:(char_range 'a' 'z') (int_range 1 5)) ]
    in
    let op = oneofl [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Gt; Ast.Le; Ast.Ge ] in
    let relation =
      map3 (fun a o vs -> { Ast.attribute = a; op = o; values = vs })
        attr op (list_size (int_range 1 3) value)
    in
    list_size (int_range 1 6) relation)

let arb_clause =
  QCheck.make gen_clause ~print:Ast.clause_to_string

let qcheck_parser_never_crashes =
  (* Fuzz: arbitrary input either parses or raises the typed error. *)
  QCheck.Test.make ~name:"parser never crashes" ~count:1000
    QCheck.(string_gen QCheck.Gen.printable)
    (fun s -> match Parser.parse_result s with Ok _ | Error _ -> true)

let qcheck_job_view_never_crashes =
  QCheck.Test.make ~name:"job view never crashes" ~count:1000
    QCheck.(string_gen QCheck.Gen.printable)
    (fun s -> match Job.of_string s with Ok _ | Error _ -> true)

let qcheck_rsl_like_fuzz =
  (* Structured fuzz: near-miss RSL built from metacharacter soup. *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (oneofl [ "&"; "("; ")"; "="; "!="; "<"; ">"; "\""; "$("; "a"; "count"; "4"; " "; "+" ])
      |> map (String.concat ""))
  in
  QCheck.Test.make ~name:"metacharacter soup never crashes" ~count:1000
    (QCheck.make gen ~print:(fun s -> s))
    (fun s -> match Parser.parse_result s with Ok _ | Error _ -> true)

let qcheck_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip" ~count:500 arb_clause (fun c ->
      match Parser.parse_result (Ast.clause_to_string c) with
      | Ok (Ast.Single c') -> Ast.clause_equal c c'
      | Ok (Ast.Multi _) | Error _ -> false)

(* Full-AST round-trip: every value form the printer can emit — literals
   over the atom-safe alphabet, literals that force quoting (embedded
   spaces), substitution variables and [(NAME value)] bindings — must
   survive [parse (print clause)] structurally intact. Quoted literals
   deliberately avoid double-quote and backslash characters: the printer
   and lexer disagree on escape syntax for those (OCaml-style vs doubled
   quotes), which is an acknowledged printer limitation, not a parser
   bug. *)
let gen_full_clause : Ast.clause QCheck.Gen.t =
  QCheck.Gen.(
    let safe_char =
      oneof
        [ char_range 'a' 'z'; char_range '0' '9';
          oneofl [ '_'; '.'; '/'; '-' ] ]
    in
    let atom = string_size ~gen:safe_char (int_range 1 10) in
    let spaced =
      map2 (fun a b -> a ^ " " ^ b) atom
        (string_size ~gen:safe_char (int_range 0 6))
    in
    let name = map String.uppercase_ascii (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)) in
    let value =
      frequency
        [ (4, map (fun s -> Ast.Literal s) atom);
          (2, map (fun s -> Ast.Literal s) spaced);
          (2, map (fun n -> Ast.Variable n) name);
          (1, map2 (fun n v -> Ast.Binding (n, v)) name (oneof [ atom; spaced ])) ]
    in
    let attr =
      oneofl
        [ "executable"; "directory"; "count"; "jobtag"; "arguments"; "queue";
          "rsl_substitution"; "environment"; "maxwalltime" ]
    in
    let op = oneofl [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Gt; Ast.Le; Ast.Ge ] in
    let relation =
      map3 (fun a o vs -> { Ast.attribute = a; op = o; values = vs })
        attr op (list_size (int_range 1 3) value)
    in
    list_size (int_range 1 5) relation)

let qcheck_full_roundtrip =
  QCheck.Test.make ~name:"full-AST print/parse round-trip" ~count:1000
    (QCheck.make gen_full_clause ~print:Ast.clause_to_string)
    (fun c ->
      match Parser.parse_result (Ast.clause_to_string c) with
      | Ok (Ast.Single c') -> Ast.clause_equal c c'
      | Ok (Ast.Multi _) | Error _ -> false)

let qcheck_multirequest_roundtrip =
  QCheck.Test.make ~name:"multirequest round-trip" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 4) gen_clause)
       ~print:(fun cs -> Ast.to_string (Ast.Multi cs)))
    (fun cs ->
      match Parser.parse_result (Ast.to_string (Ast.Multi cs)) with
      | Ok spec -> Ast.equal (Ast.Multi cs) spec
      | Error _ -> false)

let () =
  ignore clause;
  Alcotest.run "grid_rsl"
    [ ( "parser",
        [ Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "implicit conjunction" `Quick test_parse_without_ampersand;
          Alcotest.test_case "operators" `Quick test_parse_operators;
          Alcotest.test_case "quoted values" `Quick test_parse_quoted_values;
          Alcotest.test_case "escaped quote" `Quick test_parse_escaped_quote;
          Alcotest.test_case "variables" `Quick test_parse_variables;
          Alcotest.test_case "multirequest" `Quick test_parse_multirequest;
          Alcotest.test_case "case-insensitive attributes" `Quick
            test_parse_attribute_case_insensitive;
          Alcotest.test_case "whitespace tolerant" `Quick test_parse_whitespace_tolerant;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "clause_exn rejects multi" `Quick
            test_parse_clause_exn_rejects_multi ] );
      ( "printer",
        [ Alcotest.test_case "quotes when needed" `Quick test_print_quotes_when_needed;
          Alcotest.test_case "fixed round-trips" `Quick test_print_parse_roundtrip_fixed;
          QCheck_alcotest.to_alcotest qcheck_print_parse_roundtrip;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x5EED; 1103 |])
            qcheck_full_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_multirequest_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_parser_never_crashes;
          QCheck_alcotest.to_alcotest qcheck_job_view_never_crashes;
          QCheck_alcotest.to_alcotest qcheck_rsl_like_fuzz ] );
      ( "job",
        [ Alcotest.test_case "basic" `Quick test_job_basic;
          Alcotest.test_case "defaults" `Quick test_job_defaults;
          Alcotest.test_case "missing executable" `Quick test_job_missing_executable;
          Alcotest.test_case "bad count" `Quick test_job_bad_count;
          Alcotest.test_case "walltime/memory" `Quick test_job_walltime_memory;
          Alcotest.test_case "juxtaposed values rejected" `Quick
            test_job_environment_substitution;
          Alcotest.test_case "variable substitution" `Quick test_job_environment_whole_value;
          Alcotest.test_case "unbound variable" `Quick test_job_unbound_variable;
          Alcotest.test_case "multirequest rejected" `Quick test_job_multirequest_rejected;
          Alcotest.test_case "rsl_substitution" `Quick test_rsl_substitution;
          Alcotest.test_case "substitution precedence" `Quick test_rsl_substitution_precedence;
          Alcotest.test_case "binding round-trip + errors" `Quick
            test_binding_roundtrip_and_errors ] ) ]
