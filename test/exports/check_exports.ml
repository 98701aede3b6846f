(* Exported-surface check, by resolved identifier.

   Reads the typed trees (.cmt, .cmti) that dune writes for every unit
   under the scanned roots and reports four kinds of item exported by
   the units under the library root — declared in the unit's .mli, or,
   for a .ml without one, in the signature the compiler inferred for
   it:

   - a [val], including one in a nested submodule, that no other
     compilation unit uses;
   - a variant constructor that nothing builds;
   - a record field that nothing reads;
   - an optional argument that no application passes.

   OCaml's unused-value warning (32) cannot see an exported value, so an
   export nothing calls hides its body and every private helper behind it
   from the compiler. This check closes that gap.

   What counts as a use:
   - A value use is a [Texp_ident] (or a [let*] operator) whose path,
     once resolved, names the export. Paths are resolved through every
     [module X = P] alias: the top-level ones of every unit (dune's
     library wrappers and [Core]'s re-exports among them), local ones and
     [let module] ones. A local identifier is qualified with the path of
     the module that binds it.
   - Binding an alias and opening a module ([open], [let open], [M.()])
     are not uses.
   - A module passed to a functor, packed as a first-class module,
     included or constrained by a module type is used whole: every value
     and optional argument below it counts as used.
   - A constructor is built by a [Texp_construct]; a field is read by a
     [Texp_field] or a record pattern. Building a record, [{ r with ... }]
     and assigning a mutable field read nothing. Type equations
     ([type t = M.t = ...]) make both names one type.
   - An optional argument is passed when an application of the function
     supplies it. The compiler fills an omitted one with a ghost-located
     [None], which does not count; an explicit [?x:None] does. A function
     referenced without being applied keeps all its labels.

   Uses from any unit count for constructors, fields and labels; a val
   must be used from a unit other than its own.

   The walk is written against OCaml 5.1's [Typedtree] (its matches on
   [Path.t], [module_expr_desc] and [arg_label] are exhaustive), and
   test/exports/dune builds this checker only under OCaml 5.1, so
   another compiler fails the build instead of passing the check
   silently.

   Usage:
     check_exports -lib DIR [-allow FILE] [-skip DIR]... ROOT...

   Every .cmt and .cmti below the roots (in dune's hidden object
   directories included) is read; [-skip] leaves a directory out (the
   checker's own, whose fixtures would otherwise count as users).

   Prints each reported item, sorted, one per line, as
   [Lib.Module.value], [Lib.Module.value ?label], [Lib.Module.type.Field]
   or [Lib.Module.type.Constructor], and exits 1 when there is any;
   exits 0 otherwise. The allowlist holds one [Name — reason] per line;
   an entry that names nothing reported is an error too. *)

open Typedtree

let dotted = String.concat "."

(* ---- What one unit contributes, with paths as written ---- *)

(* Per unit: local identifiers (by unique name) to their qualified path,
   or, for a local module alias, to the path it stands for. *)
type unit_ctx = { modname : string; names : (string, string list) Hashtbl.t }

(* Top-level (and nested) [module X = P], qualified: "Unit.X" -> P. *)
let aliases : (string, string list) Hashtbl.t = Hashtbl.create 1024

type value_use = { path : string list; user : string; labels : string list option }
(* [labels = None]: referenced without being applied, keeps every label. *)

let value_uses = ref []
let whole_uses = ref [] (* (module path, user) *)
let built = ref [] (* (type path, constructor) *)
let read = ref [] (* (type path, field) *)
let type_eqs = ref [] (* (type, the type it equals) *)

let rec lexical ctx (p : Path.t) =
  match p with
  | Pident id ->
      if Ident.global id then [ Ident.name id ]
      else (
        match Hashtbl.find_opt ctx.names (Ident.unique_name id) with
        | Some q -> q
        | None -> [ ctx.modname; Ident.name id ])
  | Pdot (p, s) -> lexical ctx p @ [ s ]
  | Papply (f, _) -> lexical ctx f
  | Pextra_ty (p, _) -> lexical ctx p

let type_path ctx ty =
  match Types.get_desc ty with Tconstr (p, _, _) -> Some (lexical ctx p) | _ -> None

let rec peel me =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> peel me
  | Tmod_ident (p, _) -> Some p
  | Tmod_structure _ | Tmod_functor _ | Tmod_apply _ | Tmod_apply_unit _ | Tmod_unpack _ ->
      None

let use_whole ctx me =
  Option.iter (fun p -> whole_uses := (lexical ctx p, ctx.modname) :: !whole_uses) (peel me)

let record_type_eq ctx prefix (decl : Types.type_declaration) name =
  match decl.type_manifest with
  | Some ty -> (
      match type_path ctx ty with
      | Some target -> type_eqs := (prefix @ [ name ], target) :: !type_eqs
      | None -> ())
  | None -> ()

(* First walk: bind every module, value and type the unit declares to
   its qualified path, and record module aliases and type equations.
   [prefix] is the path of the enclosing module. *)
let binder ctx =
  let prefix = ref [ ctx.modname ] in
  let bind id path = Hashtbl.replace ctx.names (Ident.unique_name id) path in
  let in_module name f =
    let saved = !prefix in
    prefix := saved @ [ name ];
    f ();
    prefix := saved
  in
  let open Tast_iterator in
  let module_binding it mb =
    match mb.mb_id with
    | None -> default_iterator.module_binding it mb
    | Some id ->
        let name = Ident.name id in
        let path = !prefix @ [ name ] in
        bind id path;
        (match mb.mb_expr.mod_desc with
        | Tmod_ident (p, _) -> Hashtbl.replace aliases (dotted path) (lexical ctx p)
        | _ -> ());
        in_module name (fun () -> default_iterator.module_binding it mb)
  in
  let module_declaration it md =
    match md.md_id with
    | None -> default_iterator.module_declaration it md
    | Some id ->
        let name = Ident.name id in
        let path = !prefix @ [ name ] in
        bind id path;
        (match md.md_type.mty_desc with
        | Tmty_alias (p, _) -> Hashtbl.replace aliases (dotted path) (lexical ctx p)
        | _ -> ());
        in_module name (fun () -> default_iterator.module_declaration it md)
  in
  let value_binding it vb =
    List.iter (fun id -> bind id (!prefix @ [ Ident.name id ])) (pat_bound_idents vb.vb_pat);
    default_iterator.value_binding it vb
  in
  (* A recursive group is bound whole before its equations resolve. *)
  let type_declarations it ((_, decls) as group) =
    List.iter (fun td -> bind td.typ_id (!prefix @ [ Ident.name td.typ_id ])) decls;
    List.iter (fun td -> record_type_eq ctx !prefix td.typ_type (Ident.name td.typ_id)) decls;
    default_iterator.type_declarations it group
  in
  let expr it e =
    (match e.exp_desc with
    | Texp_letmodule (Some id, _, _, { mod_desc = Tmod_ident (p, _); _ }, _) ->
        bind id (lexical ctx p)
    | _ -> ());
    default_iterator.expr it e
  in
  { default_iterator with module_binding; module_declaration; value_binding; type_declarations; expr }

let is_ghost_none (e : expression) =
  e.exp_loc.loc_ghost
  && match e.exp_desc with Texp_construct (_, { cstr_name = "None"; _ }, []) -> true | _ -> false

(* Second walk: the uses. *)
let user ctx =
  let open Tast_iterator in
  let use p labels = value_uses := { path = lexical ctx p; user = ctx.modname; labels } :: !value_uses in
  let field (ld : Types.label_description) =
    Option.iter (fun t -> read := (t, ld.lbl_name) :: !read) (type_path ctx ld.lbl_res)
  in
  let expr it e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        let passed =
          List.filter_map
            (fun ((label : Asttypes.arg_label), arg) ->
              match (label, arg) with
              | Optional l, Some a when not (is_ghost_none a) -> Some l
              | Optional _, _ | Labelled _, _ | Nolabel, _ -> None)
            args
        in
        use p (Some passed);
        List.iter (fun (_, arg) -> Option.iter (it.expr it) arg) args
    | _ ->
        (match e.exp_desc with
        | Texp_ident (p, _, _) -> use p None
        | Texp_construct (_, cd, _) ->
            Option.iter (fun t -> built := (t, cd.cstr_name) :: !built) (type_path ctx cd.cstr_res)
        | Texp_field (_, _, ld) -> field ld
        | Texp_letop { let_; ands; _ } -> List.iter (fun b -> use b.bop_op_path None) (let_ :: ands)
        | Texp_pack me -> use_whole ctx me
        | _ -> ());
        default_iterator.expr it e
  in
  let pat : type k. iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_record (fields, _) -> List.iter (fun (_, ld, _) -> field ld) fields
    | _ -> ());
    default_iterator.pat it p
  in
  let module_expr it me =
    (match me.mod_desc with
    | Tmod_apply (_, arg, _) -> use_whole ctx arg
    | Tmod_constraint (inner, _, _, _) -> use_whole ctx inner
    | Tmod_ident _ | Tmod_structure _ | Tmod_functor _ | Tmod_apply_unit _ | Tmod_unpack _ -> ());
    default_iterator.module_expr it me
  in
  let structure_item it item =
    (match item.str_desc with Tstr_include incl -> use_whole ctx incl.incl_mod | _ -> ());
    default_iterator.structure_item it item
  in
  { default_iterator with expr; pat; module_expr; structure_item }

(* ---- Exported items, from the library's .cmti files, or from the
   inferred signature in the .cmt of a unit without an .mli ---- *)

type kind =
  | Val of string list (* its optional labels *)
  | Constructor
  | Field

type item = {
  kind : kind;
  path : string list;  (* the val's own path; the type's for constructors and fields *)
  name : string;
  owner : string;  (* the declaring unit *)
  display : string;
}

let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Tarrow (_, _, ret, _) -> optional_labels ret
  | Tpoly (ty, _) -> optional_labels ty
  | _ -> []

let rec exported ~owner ~display prefix (sg : signature) =
  List.concat_map
    (fun item ->
      let shown rest = dotted (display :: rest) in
      match item.sig_desc with
      | Tsig_value vd ->
          let name = vd.val_name.txt in
          [ { kind = Val (optional_labels vd.val_val.val_type); path = prefix @ [ name ]; name; owner;
              display = shown (List.tl prefix @ [ name ]) } ]
      | Tsig_type (_, decls) ->
          List.concat_map
            (fun td ->
              let ty = prefix @ [ td.typ_name.txt ] in
              let mk kind name = { kind; path = ty; name; owner; display = shown (List.tl ty @ [ name ]) } in
              match td.typ_kind with
              | Ttype_variant cds -> List.map (fun cd -> mk Constructor cd.cd_name.txt) cds
              | Ttype_record lds -> List.map (fun ld -> mk Field ld.ld_name.txt) lds
              | Ttype_abstract | Ttype_open -> [])
            decls
      | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          exported ~owner ~display (prefix @ [ Ident.name id ]) sg
      | _ -> [])
    sg.sig_items

(* The same items, read from an inferred signature. *)
let rec inferred ~owner ~display prefix (sg : Types.signature) =
  List.concat_map
    (fun (item : Types.signature_item) ->
      let shown rest = dotted (display :: rest) in
      match item with
      | Sig_value (id, vd, Exported) ->
          let name = Ident.name id in
          [ { kind = Val (optional_labels vd.val_type); path = prefix @ [ name ]; name; owner;
              display = shown (List.tl prefix @ [ name ]) } ]
      | Sig_type (id, decl, _, Exported) -> (
          let ty = prefix @ [ Ident.name id ] in
          let mk kind name = { kind; path = ty; name; owner; display = shown (List.tl ty @ [ name ]) } in
          match decl.type_kind with
          | Type_variant (cds, _) ->
              List.map (fun (cd : Types.constructor_declaration) -> mk Constructor (Ident.name cd.cd_id)) cds
          | Type_record (lds, _) ->
              List.map (fun (ld : Types.label_declaration) -> mk Field (Ident.name ld.ld_id)) lds
          | Type_abstract | Type_open -> [])
      | Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, Exported) ->
          inferred ~owner ~display (prefix @ [ Ident.name id ]) sg
      | Sig_value _ | Sig_type _ | Sig_module _ | Sig_typext _ | Sig_modtype _ | Sig_class _
      | Sig_class_type _ ->
          [])
    sg

(* ---- Files ---- *)

let rec typed_trees ~skip dir =
  if List.mem dir skip then []
  else if Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry -> typed_trees ~skip (Filename.concat dir entry))
  else if Filename.check_suffix dir ".cmt" || Filename.check_suffix dir ".cmti" then [ dir ]
  else []

(* lib/util/.grid_util.objs/byte/grid_util__Ids.cmti with source ids.mli
   -> Util.Ids; lib/lrm/... lrm.mli -> Lrm. *)
let display_name ~lib cmti source =
  let src_dir = Filename.dirname (Filename.dirname (Filename.dirname cmti)) in
  let rel =
    let prefix = lib ^ Filename.dir_sep in
    if String.starts_with ~prefix src_dir then
      String.sub src_dir (String.length prefix) (String.length src_dir - String.length prefix)
    else ""
  in
  let parts =
    (if rel = "" then [] else String.split_on_char '/' rel)
    @ [ Filename.remove_extension (Filename.basename source) ]
    |> List.map String.capitalize_ascii
  in
  let rec dedup = function
    | a :: (b :: _ as rest) when a = b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dotted (dedup parts)

(* The allowlist: one [Name — reason] per line; blank lines and lines
   starting with '#' are skipped. *)
let read_allow path =
  let sep = " \xe2\x80\x94 " in
  let find line =
    let n = String.length sep in
    let rec go i =
      if i + n > String.length line then None
      else if String.sub line i n = sep then Some i
      else go (i + 1)
    in
    go 0
  in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match find line with
           | Some i when i + String.length sep < String.length line ->
               Some (String.trim (String.sub line 0 i))
           | _ ->
               Printf.eprintf "check_exports: allowlist entry without a reason: %s\n" line;
               exit 2)

let () =
  let lib = ref "" and allow = ref None and skip = ref [] and roots = ref [] in
  Arg.parse
    [ ("-lib", Arg.Set_string lib, "DIR library root whose .mli exports are checked");
      ("-allow", Arg.String (fun f -> allow := Some f), "FILE allowlist of kept items");
      ("-skip", Arg.String (fun d -> skip := d :: !skip), "DIR directory left out of the scan") ]
    (fun r -> roots := r :: !roots)
    "check_exports -lib DIR [-allow FILE] [-skip DIR]... ROOT...";
  if !lib = "" then (prerr_endline "check_exports: -lib is required"; exit 2);
  let roots = List.rev !roots in
  let roots = if List.mem !lib roots then roots else !lib :: roots in
  let files = List.sort_uniq compare (List.concat_map (typed_trees ~skip:!skip) roots) in
  let lib_prefix = !lib ^ Filename.dir_sep in
  let items =
    List.concat_map
      (fun file ->
        let cmt = Cmt_format.read_cmt file in
        let ctx = { modname = cmt.cmt_modname; names = Hashtbl.create 256 } in
        let walk (it : Tast_iterator.iterator) =
          match cmt.cmt_annots with
          | Implementation str -> it.structure it str
          | Interface sg -> it.signature it sg
          | Packed _ | Partial_implementation _ | Partial_interface _ -> ()
        in
        walk (binder ctx);
        walk (user ctx);
        let in_lib = String.starts_with ~prefix:lib_prefix file in
        match (cmt.cmt_annots, cmt.cmt_sourcefile) with
        | Interface sg, Some source when in_lib && Filename.check_suffix source ".mli" ->
            exported ~owner:ctx.modname ~display:(display_name ~lib:!lib file source)
              [ ctx.modname ] sg
        | Implementation str, Some source
          when in_lib
               && Filename.check_suffix source ".ml"
               && not (Sys.file_exists (Filename.remove_extension file ^ ".cmti")) ->
            inferred ~owner:ctx.modname ~display:(display_name ~lib:!lib file source)
              [ ctx.modname ] str.str_type
        | _ -> [])
      files
  in
  (* Resolve a path through the module aliases, shortest prefix first,
     until no prefix is an alias. *)
  let rec expand path =
    let rec go n =
      if n > List.length path then path
      else
        let prefix = List.filteri (fun i _ -> i < n) path in
        match Hashtbl.find_opt aliases (dotted prefix) with
        | Some target when target <> prefix ->
            expand (target @ List.filteri (fun i _ -> i >= n) path)
        | _ -> go (n + 1)
    in
    go 1
  in
  (* Type equations: union-find over resolved type paths. *)
  let parent = Hashtbl.create 1024 in
  let rec find t =
    match Hashtbl.find_opt parent t with Some p when p <> t -> find p | _ -> t
  in
  List.iter
    (fun (a, b) ->
      let a = find (dotted (expand a)) and b = find (dotted (expand b)) in
      if a <> b then Hashtbl.replace parent a b)
    !type_eqs;
  let member_key ty name = find (dotted (expand ty)) ^ "#" ^ name in
  let built_set = Hashtbl.create 4096 and read_set = Hashtbl.create 4096 in
  List.iter (fun (ty, c) -> Hashtbl.replace built_set (member_key ty c) ()) !built;
  List.iter (fun (ty, f) -> Hashtbl.replace read_set (member_key ty f) ()) !read;
  (* value path -> uses *)
  let uses = Hashtbl.create 65536 in
  List.iter (fun (u : value_use) -> Hashtbl.add uses (dotted (expand u.path)) u) !value_uses;
  let wholes = Hashtbl.create 1024 in
  List.iter (fun (m, user) -> Hashtbl.add wholes (dotted (expand m)) user) !whole_uses;
  (* users of the whole of any enclosing module of [path] *)
  let whole_users path =
    List.concat
      (List.init (List.length path - 1) (fun i ->
           Hashtbl.find_all wholes (dotted (List.filteri (fun j _ -> j <= i) path))))
  in
  let reported =
    List.concat_map
      (fun it ->
        match it.kind with
        | Val labels ->
            let key = dotted it.path in
            let direct = Hashtbl.find_all uses key in
            let wholes = whole_users it.path in
            let used =
              List.exists (fun (u : value_use) -> u.user <> it.owner) direct
              || List.exists (fun w -> w <> it.owner) wholes
            in
            let passed l =
              wholes <> []
              || List.exists
                   (fun (u : value_use) -> match u.labels with Some ls -> List.mem l ls | None -> true)
                   direct
            in
            (if used then [] else [ it.display ])
            @ List.filter_map
                (fun l -> if passed l then None else Some (it.display ^ " ?" ^ l))
                (List.sort_uniq compare labels)
        | Constructor ->
            if Hashtbl.mem built_set (member_key it.path it.name) then [] else [ it.display ]
        | Field -> if Hashtbl.mem read_set (member_key it.path it.name) then [] else [ it.display ])
      items
    |> List.sort_uniq compare
  in
  let allowed = match !allow with Some f -> read_allow f | None -> [] in
  let stale = List.filter (fun a -> not (List.mem a reported)) allowed in
  let failing = List.filter (fun r -> not (List.mem r allowed)) reported in
  List.iter print_endline failing;
  List.iter (Printf.printf "stale allowlist entry: %s\n") stale;
  if failing <> [] || stale <> [] then begin
    if failing <> [] then
      Printf.eprintf
        "check_exports: %d item(s) unused: a val no other unit uses, a constructor nothing \
         builds, a field nothing reads or an optional argument no caller passes; delete or \
         unexport them, or list them in the allowlist with a reason\n"
        (List.length failing);
    if stale <> [] then
      Printf.eprintf "check_exports: %d allowlist entr(ies) name nothing reported; remove them\n"
        (List.length stale);
    exit 1
  end
