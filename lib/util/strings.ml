(* Small string utilities shared by the parsers and config readers. *)

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n'

let strip s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && is_space s.[!i] do incr i done;
  let j = ref (n - 1) in
  while !j >= !i && is_space s.[!j] do decr j done;
  String.sub s !i (!j - !i + 1)

let starts_with ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let split_whitespace s =
  String.split_on_char ' ' (String.map (fun c -> if is_space c then ' ' else c) s)
  |> List.filter (fun t -> t <> "")

(* Strip a trailing comment introduced by [#] outside of any quotes. *)
let strip_comment line =
  let buf = Buffer.create (String.length line) in
  let in_quote = ref false in
  (try
     String.iter
       (fun c ->
         if c = '"' then in_quote := not !in_quote;
         if c = '#' && not !in_quote then raise Exit;
         Buffer.add_char buf c)
       line
   with Exit -> ());
  Buffer.contents buf

let lines s = String.split_on_char '\n' s

(* Non-comment, non-blank lines of a config text, with line numbers
   (1-based) preserved for error reporting. *)
let config_lines text =
  lines text
  |> List.mapi (fun i line -> (i + 1, strip (strip_comment line)))
  |> List.filter (fun (_, line) -> line <> "")

let concat_map sep f xs = String.concat sep (List.map f xs)
