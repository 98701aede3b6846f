(* Exported-surface check.

   Reads every [val] declared in the .mli files under a library root and
   fails when a name has no whole-word occurrence in any .ml or .mli
   outside its own module (the .ml/.mli pair that declares it) under the
   scanned roots, unless the allowlist names it.

   OCaml's unused-value warning (32) cannot see an exported value, so an
   export nothing calls hides its body and every private helper behind it
   from the compiler. This check closes that gap.

   Matching is by word, not by resolved identifier: a name such as
   [create] used by any other module keeps every [create] alive. That is
   conservative by design: the check can miss a dead export, but it never
   flags one that is used.

   Usage:
     check_exports -lib DIR [-allow FILE] [-skip DIR]... ROOT...

   [-skip] leaves a directory out of the scan (the checker's own, whose
   source would otherwise count as a reference).

   Prints each unreferenced export as [Lib.Module.value], one per line,
   and exits 1 when there is any; exits 0 otherwise. *)

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every identifier-shaped word of [s], in order. *)
let words s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident_char s.[i] then begin
      let j = ref i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      go !j (String.sub s i (!j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* All .ml and .mli files below [root], skipping build and hidden
   directories. *)
let rec source_files ~skip root =
  if List.mem root skip then []
  else if Sys.is_directory root then
    Sys.readdir root |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           if entry = "_build" || entry.[0] = '.' then []
           else source_files ~skip (Filename.concat root entry))
  else if Filename.check_suffix root ".ml" || Filename.check_suffix root ".mli" then
    [ root ]
  else []

(* A file's module: its path without the extension, so foo.ml and
   foo.mli in one directory share it. *)
let module_key path = Filename.remove_extension path

(* The [val] names an interface declares, including those of nested
   signatures: every line that starts with [val ] followed by an
   identifier. Operators such as [val ( >>= )] are skipped. *)
let declared_vals text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if not (String.starts_with ~prefix:"val " line) then None
         else
           let rest = String.trim (String.sub line 4 (String.length line - 4)) in
           match words rest with
           | name :: _ when is_ident_char rest.[0] -> Some name
           | _ -> None)

let capitalize_path lib_root path =
  (* lib/rebac/tuple.mli -> Rebac.Tuple; lib/lrm/lrm.mli -> Lrm *)
  let rel =
    let prefix = lib_root ^ Filename.dir_sep in
    let p = module_key path in
    if String.starts_with ~prefix p then
      String.sub p (String.length prefix) (String.length p - String.length prefix)
    else p
  in
  let parts = String.split_on_char '/' rel |> List.map String.capitalize_ascii in
  let rec dedup = function
    | a :: (b :: _ as rest) when a = b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  String.concat "." (dedup parts)

(* The allowlist: one entry per line, [Lib.Module.value — reason]; the
   first word-run up to whitespace is the entry, blank lines and lines
   starting with '#' are skipped. *)
let read_allow path =
  read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | Some i -> Some (String.sub line 0 i)
           | None -> Some line)

let () =
  let lib = ref "" and allow = ref None and skip = ref [] and roots = ref [] in
  Arg.parse
    [ ("-lib", Arg.Set_string lib, "DIR library root whose .mli exports are checked");
      ("-allow", Arg.String (fun f -> allow := Some f), "FILE allowlist of kept exports");
      ("-skip", Arg.String (fun d -> skip := d :: !skip), "DIR directory left out of the scan") ]
    (fun r -> roots := r :: !roots)
    "check_exports -lib DIR [-allow FILE] [-skip DIR]... ROOT...";
  if !lib = "" then (prerr_endline "check_exports: -lib is required"; exit 2);
  let roots = List.rev !roots in
  let roots = if List.mem !lib roots then roots else !lib :: roots in
  let files = List.sort_uniq compare (List.concat_map (source_files ~skip:!skip) roots) in
  (* word -> modules whose files contain it *)
  let seen : (string, string list) Hashtbl.t = Hashtbl.create 65536 in
  List.iter
    (fun path ->
      let key = module_key path in
      List.iter
        (fun w ->
          match Hashtbl.find_opt seen w with
          | Some (k :: _) when k = key -> ()
          | Some ks -> Hashtbl.replace seen w (key :: ks)
          | None -> Hashtbl.replace seen w [ key ])
        (words (read_file path)))
    files;
  let allowed = match !allow with Some f -> read_allow f | None -> [] in
  let unreferenced =
    source_files ~skip:[] !lib
    |> List.filter (fun p -> Filename.check_suffix p ".mli")
    |> List.concat_map (fun mli ->
           let key = module_key mli in
           declared_vals (read_file mli)
           |> List.sort_uniq compare
           |> List.filter_map (fun name ->
                  let users = Option.value (Hashtbl.find_opt seen name) ~default:[] in
                  if List.exists (fun k -> k <> key) users then None
                  else
                    let qualified = capitalize_path !lib mli ^ "." ^ name in
                    if List.mem qualified allowed then None else Some qualified))
  in
  List.iter print_endline unreferenced;
  if unreferenced <> [] then begin
    Printf.eprintf
      "check_exports: %d export(s) referenced by no other module; delete them, or \
       list them in the allowlist with a reason\n"
      (List.length unreferenced);
    exit 1
  end
