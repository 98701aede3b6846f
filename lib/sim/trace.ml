(* Interaction traces.

   The Figure 1/2 reproductions print "who sent what to whom when" arrows;
   components record those arrows here. A trace is an ordered list of
   events, each a timestamped (source, target, label) triple.

   [find]/[count] are hot in tests and workload assertions, so entries are
   indexed by label as they are recorded: both are served from the index
   ([count] in O(1)) instead of re-reversing the whole trace per query. *)

type entry = {
  at : Clock.time;
  source : string;
  target : string;
  label : string;
}

type t = {
  mutable entries : entry list;              (* reverse order *)
  mutable length : int;
  by_label : (string, entry list ref * int ref) Hashtbl.t;
}

let create () = { entries = []; length = 0; by_label = Hashtbl.create 32 }

let record t ~at ~source ~target label =
  let e = { at; source; target; label } in
  t.entries <- e :: t.entries;
  t.length <- t.length + 1;
  match Hashtbl.find_opt t.by_label label with
  | Some (entries, count) ->
    entries := e :: !entries;
    incr count
  | None -> Hashtbl.replace t.by_label label (ref [ e ], ref 1)

let entries t = List.rev t.entries

let pp_entry ppf e =
  Fmt.pf ppf "%8.3fs  %-14s -> %-14s  %s" e.at e.source e.target e.label

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_entry) (entries t)

let count t ~label =
  match Hashtbl.find_opt t.by_label label with
  | Some (_, count) -> !count
  | None -> 0
