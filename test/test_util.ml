(* Tests for grid_util: ids, rng, strings, retry policies. *)

open Grid_util

let test_ids_fresh_unique () =
  Ids.reset ();
  let a = Ids.fresh "x" and b = Ids.fresh "x" in
  Alcotest.(check bool) "distinct" false (String.equal a b);
  Alcotest.(check string) "prefix" "x-000001" a

let test_ids_reset () =
  Ids.reset ();
  let a = Ids.fresh "job" in
  Ids.reset ();
  let b = Ids.fresh "job" in
  Alcotest.(check string) "reset restores counter" a b

let test_ids_kinds () =
  Ids.reset ();
  Alcotest.(check bool) "job prefix" true (Strings.starts_with ~prefix:"job-" (Ids.job ()));
  Alcotest.(check bool) "lease prefix" true (Strings.starts_with ~prefix:"lease-" (Ids.lease ()));
  Alcotest.(check bool) "req prefix" true (Strings.starts_with ~prefix:"req-" (Ids.request ()));
  Alcotest.(check bool) "jmi prefix" true (Strings.starts_with ~prefix:"jmi-" (Ids.contact ()))

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let sa = List.init 20 (fun _ -> Rng.int a 1000000) in
  let sb = List.init 20 (fun _ -> Rng.int b 1000000) in
  Alcotest.(check bool) "different streams" false (sa = sb)

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_invalid_bound () =
  let r = Rng.create ~seed:7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_pick () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 50 do
    let v = Rng.pick r [ 1; 2; 3 ] in
    Alcotest.(check bool) "picked member" true (List.mem v [ 1; 2; 3 ])
  done

let test_strings_strip () =
  Alcotest.(check string) "strips both ends" "abc" (Strings.strip "  abc\t\n");
  Alcotest.(check string) "all space" "" (Strings.strip "   ");
  Alcotest.(check string) "empty" "" (Strings.strip "")

let test_strings_starts_with () =
  Alcotest.(check bool) "yes" true (Strings.starts_with ~prefix:"ab" "abc");
  Alcotest.(check bool) "no" false (Strings.starts_with ~prefix:"b" "abc");
  Alcotest.(check bool) "empty prefix" true (Strings.starts_with ~prefix:"" "abc");
  Alcotest.(check bool) "longer prefix" false (Strings.starts_with ~prefix:"abcd" "abc")

let test_strings_strip_comment () =
  Alcotest.(check string) "plain" "a b " (Strings.strip_comment "a b # c");
  Alcotest.(check string) "quoted hash survives" {|"a#b" c|}
    (Strings.strip_comment {|"a#b" c|});
  Alcotest.(check string) "no comment" "abc" (Strings.strip_comment "abc")

let test_strings_config_lines () =
  let text = "# header\n\n  line one # trailing\nline two\n   \n" in
  Alcotest.(check (list (pair int string)))
    "numbered non-blank lines"
    [ (3, "line one"); (4, "line two") ]
    (Strings.config_lines text)

let test_strings_split_whitespace () =
  Alcotest.(check (list string)) "mixed separators" [ "a"; "b"; "c" ]
    (Strings.split_whitespace " a\tb  \n c ")

let qcheck_strip_idempotent =
  QCheck.Test.make ~name:"strip idempotent" ~count:500 QCheck.string (fun s ->
      Strings.strip (Strings.strip s) = Strings.strip s)

(* --- Retry policy properties ------------------------------------------- *)

(* A small policy generator: positive backoffs, growth >= 1, jitter in
   [0, 1] — the region real configurations live in. *)
let retry_policy_gen =
  QCheck.Gen.(
    map
      (fun (attempts, (initial, (mult, (cap, jitter)))) ->
        Retry.policy ~max_attempts:attempts
          ~initial_backoff:(0.001 +. (initial *. 0.5))
          ~backoff_multiplier:(1.0 +. (mult *. 3.0))
          ~max_backoff:(0.5 +. (cap *. 10.0))
          ~jitter ())
      (pair (int_range 1 10)
         (pair (float_bound_inclusive 1.0)
            (pair (float_bound_inclusive 1.0)
               (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))))))

let retry_policy_arb =
  QCheck.make retry_policy_gen ~print:(fun (p : Retry.policy) ->
      Printf.sprintf
        "{max_attempts=%d; initial=%g; mult=%g; cap=%g; jitter=%g}"
        p.Retry.max_attempts p.Retry.initial_backoff p.Retry.backoff_multiplier
        p.Retry.max_backoff p.Retry.jitter)

let unjittered (p : Retry.policy) ~attempt =
  Float.min p.Retry.max_backoff
    (p.Retry.initial_backoff
    *. (p.Retry.backoff_multiplier ** float_of_int (attempt - 1)))

(* Jittered delays stay inside [base*(1-j), base*(1+j)]. *)
let qcheck_backoff_within_jitter_bounds =
  QCheck.Test.make ~name:"backoff within jitter bounds" ~count:300
    QCheck.(triple retry_policy_arb small_int (int_range 1 12))
    (fun (p, seed, attempt) ->
      let rng = Rng.create ~seed in
      let base = unjittered p ~attempt in
      let b = Retry.backoff p ~rng ~attempt in
      let lo = base *. (1.0 -. p.Retry.jitter) in
      let hi = base *. (1.0 +. p.Retry.jitter) in
      b >= lo -. 1e-12 && b <= hi +. 1e-12)

(* With jitter off, the schedule is non-decreasing until it hits the cap
   and never exceeds it. *)
let qcheck_backoff_monotone_before_cap =
  QCheck.Test.make ~name:"backoff monotone before cap (jitter=0)" ~count:300
    QCheck.(pair retry_policy_arb small_int)
    (fun (p, seed) ->
      let p = { p with Retry.jitter = 0.0 } in
      let rng = Rng.create ~seed in
      let delays =
        List.init 12 (fun i -> Retry.backoff p ~rng ~attempt:(i + 1))
      in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-12 && monotone rest
        | _ -> true
      in
      monotone delays
      && List.for_all (fun d -> d <= p.Retry.max_backoff +. 1e-12) delays)

(* [next] never schedules a retry that would start at or past the
   deadline, and never retries once attempts are exhausted. *)
let qcheck_next_respects_deadline =
  QCheck.Test.make ~name:"next never overshoots the deadline" ~count:500
    QCheck.(
      quad retry_policy_arb small_int (int_range 1 12)
        (pair (float_bound_inclusive 100.0) (float_bound_inclusive 30.0)))
    (fun (p, seed, attempt, (now, headroom)) ->
      let rng = Rng.create ~seed in
      let deadline = now +. headroom in
      match Retry.next p ~rng ~now ~deadline:(Some deadline) ~attempt with
      | Retry.Give_up _ -> true
      | Retry.Retry_after delay ->
        attempt < p.Retry.max_attempts && delay >= 0.0 && now +. delay < deadline)

let () =
  Alcotest.run "grid_util"
    [ ( "ids",
        [ Alcotest.test_case "fresh unique" `Quick test_ids_fresh_unique;
          Alcotest.test_case "reset" `Quick test_ids_reset;
          Alcotest.test_case "kinds" `Quick test_ids_kinds ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "invalid bound" `Quick test_rng_invalid_bound;
          Alcotest.test_case "pick" `Quick test_rng_pick ] );
      ( "strings",
        [ Alcotest.test_case "strip" `Quick test_strings_strip;
          Alcotest.test_case "starts_with" `Quick test_strings_starts_with;
          Alcotest.test_case "strip_comment" `Quick test_strings_strip_comment;
          Alcotest.test_case "config_lines" `Quick test_strings_config_lines;
          Alcotest.test_case "split_whitespace" `Quick test_strings_split_whitespace;
          QCheck_alcotest.to_alcotest qcheck_strip_idempotent ] );
      ( "retry",
        [ QCheck_alcotest.to_alcotest qcheck_backoff_within_jitter_bounds;
          QCheck_alcotest.to_alcotest qcheck_backoff_monotone_before_cap;
          QCheck_alcotest.to_alcotest qcheck_next_respects_deadline ] ) ]
