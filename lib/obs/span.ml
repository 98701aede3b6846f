(* Span tracing.

   Spans are stored in reverse start order with a per-name index built
   lazily only by [find] callers — the hot path (enter/exit) is a list
   cons and a stack push/pop. Retention is capped: a long workload keeps
   the first [max_spans] spans (deterministic: the prefix of the run) and
   counts the rest as dropped. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  started_at : Grid_sim.Clock.time;
  mutable ended_at : Grid_sim.Clock.time option;
  mutable attrs : (string * string) list;
}

type t = {
  mutable stored : span list;  (* reverse start order *)
  mutable stored_count : int;
  mutable next_id : int;
  mutable stack : span list;   (* innermost first *)
  mutable dropped : int;
  max_spans : int;
}

let create ?(max_spans = 100_000) () =
  { stored = []; stored_count = 0; next_id = 0; stack = []; dropped = 0; max_spans }

let null =
  { id = -1; name = "(null)"; parent = None; started_at = 0.0; ended_at = Some 0.0;
    attrs = [] }

let mk t ~at ~parent ?(attrs = []) name =
  let id = t.next_id in
  t.next_id <- id + 1;
  let span = { id; name; parent; started_at = at; ended_at = None; attrs } in
  if t.stored_count < t.max_spans then begin
    t.stored <- span :: t.stored;
    t.stored_count <- t.stored_count + 1
  end
  else t.dropped <- t.dropped + 1;
  span

let current_parent t = match t.stack with [] -> None | s :: _ -> Some s.id

let enter t ~at ?attrs name =
  let span = mk t ~at ~parent:(current_parent t) ?attrs name in
  t.stack <- span :: t.stack;
  span

let exit t span ~at =
  (* Pop everything down to and including [span]; deeper spans left open by
     a non-local exit are closed at the same instant. *)
  let rec pop = function
    | [] -> []
    | s :: rest ->
      if s.ended_at = None then s.ended_at <- Some at;
      if s == span then rest else pop rest
  in
  if List.memq span t.stack then t.stack <- pop t.stack
  else if span.ended_at = None then span.ended_at <- Some at

let in_scope t span f =
  t.stack <- span :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      t.stack <- (match t.stack with s :: rest when s == span -> rest | stack -> stack))
    f

let start t ~at ?attrs name = mk t ~at ~parent:(current_parent t) ?attrs name

let finish span ~at = if span.ended_at = None then span.ended_at <- Some at

let set_attr span k v = span.attrs <- (k, v) :: List.remove_assoc k span.attrs

let duration span =
  match span.ended_at with Some e -> Some (e -. span.started_at) | None -> None

let spans t = List.rev t.stored
let find t ~name = List.filter (fun s -> String.equal s.name name) (spans t)
let roots t = List.filter (fun s -> s.parent = None) (spans t)
let children t span = List.filter (fun s -> s.parent = Some span.id) (spans t)
let depth t = List.length t.stack
let dropped t = t.dropped

type stage = {
  stage_count : int;
  stage_total : float;
  stage_max : float;
}

let summarize t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match duration s with
      | None -> ()
      | Some d ->
        let st =
          match Hashtbl.find_opt table s.name with
          | Some st -> st
          | None -> { stage_count = 0; stage_total = 0.0; stage_max = 0.0 }
        in
        Hashtbl.replace table s.name
          { stage_count = st.stage_count + 1;
            stage_total = st.stage_total +. d;
            stage_max = Float.max st.stage_max d })
    (spans t);
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name st acc -> (name, st) :: acc) table [])

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
    Fmt.pf ppf " [%s]"
      (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (List.rev attrs)))

let pp_span ppf s =
  match s.ended_at with
  | Some e ->
    Fmt.pf ppf "%8.3fs  %s (%.3fs)%a" s.started_at s.name (e -. s.started_at) pp_attrs
      s.attrs
  | None -> Fmt.pf ppf "%8.3fs  %s (open)%a" s.started_at s.name pp_attrs s.attrs

(* Chrome trace_event JSON ("X" complete events): one object per closed
   span, timestamps and durations in microseconds of simulated time.
   Open spans are skipped — the exporter runs after the engine drained,
   so anything still open is the outermost scaffolding. Attributes land
   in [args]; the parent id too, since complete events carry no explicit
   hierarchy. Loadable in chrome://tracing and Perfetto. *)
let to_chrome_json t =
  let buf = Buffer.create 4096 in
  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun s ->
      match s.ended_at with
      | None -> ()
      | Some ended ->
        if not !first then Buffer.add_char buf ',';
        first := false;
        let args =
          ("span_id", string_of_int s.id)
          :: (match s.parent with
             | Some p -> [ ("parent_id", string_of_int p) ]
             | None -> [])
          @ List.rev s.attrs
        in
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"grid\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":1,\"args\":{%s}}"
             (escape s.name)
             (s.started_at *. 1e6)
             ((ended -. s.started_at) *. 1e6)
             (String.concat ","
                (List.map
                   (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v))
                   args))))
    (spans t);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let pp ppf t =
  (* Index children once: rendering is O(n) over the stored forest. *)
  let by_parent = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.replace by_parent p (s :: (Option.value (Hashtbl.find_opt by_parent p) ~default:[]))
      | None -> ())
    t.stored (* reverse order, so the consing restores start order *);
  let rec render indent s =
    Fmt.pf ppf "%s%a@," indent pp_span s;
    List.iter (render (indent ^ "  "))
      (Option.value (Hashtbl.find_opt by_parent s.id) ~default:[])
  in
  Fmt.pf ppf "@[<v>";
  List.iter (render "") (roots t);
  if t.dropped > 0 then Fmt.pf ppf "(+%d spans dropped at retention cap)@," t.dropped;
  Fmt.pf ppf "@]"
