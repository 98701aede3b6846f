(* Runtime-configurable callout loading.

   The paper configures callouts through a file naming, per abstract
   callout type, the dynamic library implementing it and the symbol inside
   that library, loaded with GNU Libtool's dlopen. We model a dynamic
   library as a named bag of symbols registered in-process: the
   registration seam, name resolution, and the misconfiguration failure
   modes (unknown library, unknown symbol, unconfigured type) are
   preserved exactly. *)

type symbol_table = (string, Callout.t) Hashtbl.t

type t = { libraries : (string, symbol_table) Hashtbl.t }

let create () = { libraries = Hashtbl.create 8 }

let register t ~library ~symbol callout =
  let table =
    match Hashtbl.find_opt t.libraries library with
    | Some table -> table
    | None ->
      let table = Hashtbl.create 4 in
      Hashtbl.replace t.libraries library table;
      table
  in
  Hashtbl.replace table symbol callout

let lookup t ~library ~symbol =
  match Hashtbl.find_opt t.libraries library with
  | None -> Error (Callout.Bad_configuration (Printf.sprintf "cannot load library %S" library))
  | Some table -> begin
    match Hashtbl.find_opt table symbol with
    | None ->
      Error
        (Callout.Bad_configuration
           (Printf.sprintf "library %S defines no symbol %S" library symbol))
    | Some callout -> Ok callout
  end
