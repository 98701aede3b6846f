(* Network latency model with fault injection.

   Grid components exchange messages through [send], which delivers the
   handler after a latency drawn from a simple model: a base one-way latency
   plus uniform jitter, both configurable. A zero-latency model is available
   for microbenchmarks where only CPU cost matters.

   On top of the latency model sits a fault layer: per-message drop,
   duplicate-delivery, and extra-delay sampling, per-link partitions, and a
   scriptable fault schedule on the sim clock. Fault sampling draws from its
   own seeded stream, independent of the latency stream, so the sequence of
   latencies assigned to delivered messages is identical whether or not
   faults are enabled — latency-sensitive traces stay stable when chaos is
   switched on. *)

module Faults = struct
  type profile = {
    drop : float;  (* probability a message is silently dropped *)
    duplicate : float;  (* probability a message is delivered twice *)
    delay_probability : float;  (* probability of extra delay *)
    max_extra_delay : Clock.time;  (* extra delay ~ U[0, max_extra_delay) *)
  }

  let none = { drop = 0.0; duplicate = 0.0; delay_probability = 0.0; max_extra_delay = 0.0 }

  let check p name =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Network.Faults: %s must be a probability, got %g" name p)

  let profile ?(drop = 0.0) ?(duplicate = 0.0) ?(delay_probability = 0.0)
      ?(max_extra_delay = 0.0) () =
    check drop "drop";
    check duplicate "duplicate";
    check delay_probability "delay_probability";
    if max_extra_delay < 0.0 then
      invalid_arg "Network.Faults: max_extra_delay must be non-negative";
    { drop; duplicate; delay_probability; max_extra_delay }
end

type fault_event =
  | Dropped of string
  | Duplicated of string
  | Delayed of string * Clock.time
  | Partitioned of string

type t = {
  engine : Engine.t;
  base_latency : Clock.time;
  jitter : Clock.time;
  rng : Grid_util.Rng.t;  (* latency stream *)
  fault_rng : Grid_util.Rng.t;  (* fault stream — independent of [rng] *)
  mutable faults : Faults.profile;
  partitions : (string, unit) Hashtbl.t;
  mutable listeners : (fault_event -> unit) list;
  mutable messages_sent : int;
  mutable messages_dropped : int;
  mutable messages_duplicated : int;
  mutable messages_delayed : int;
}

let create ?(base_latency = 0.005) ?(jitter = 0.002) ?(seed = 7) ?(faults = Faults.none)
    ?fault_seed engine =
  (* A distinct default derivation keeps the two streams decorrelated even
     when the caller only supplies [seed]. *)
  let fault_seed = match fault_seed with Some s -> s | None -> seed * 2654435761 + 1 in
  { engine; base_latency; jitter;
    rng = Grid_util.Rng.create ~seed;
    fault_rng = Grid_util.Rng.create ~seed:fault_seed;
    faults; partitions = Hashtbl.create 4; listeners = [];
    messages_sent = 0; messages_dropped = 0; messages_duplicated = 0; messages_delayed = 0 }

let latency t =
  if t.jitter = 0.0 then t.base_latency
  else t.base_latency +. Grid_util.Rng.float t.rng t.jitter

let set_faults t profile = t.faults <- profile

let partition t ~link = Hashtbl.replace t.partitions link ()
let heal t ~link = Hashtbl.remove t.partitions link
let partitioned t ~link = Hashtbl.mem t.partitions link

let on_fault t f = t.listeners <- f :: t.listeners

let notify t event = List.iter (fun f -> f event) (List.rev t.listeners)

(* Install a fault profile at a future sim time. *)
let script t ~at profile =
  Engine.schedule_at t.engine at (fun () -> set_faults t profile)

let apply_schedule t schedule =
  List.iter (fun (at, profile) -> script t ~at profile) schedule

let send ?(link = "default") t deliver =
  t.messages_sent <- t.messages_sent + 1;
  (* Always draw the latency first, from the latency stream, even when the
     message ends up dropped: delivered messages then see the same latency
     sequence regardless of the fault configuration. *)
  let base = latency t in
  if Hashtbl.mem t.partitions link then begin
    t.messages_dropped <- t.messages_dropped + 1;
    notify t (Partitioned link)
  end
  else begin
    let f = t.faults in
    (* Short-circuit on zero probabilities so a fault-free network never
       advances the fault stream. *)
    let dropped = f.Faults.drop > 0.0 && Grid_util.Rng.float t.fault_rng 1.0 < f.Faults.drop in
    if dropped then begin
      t.messages_dropped <- t.messages_dropped + 1;
      notify t (Dropped link)
    end
    else begin
      let extra =
        if
          f.Faults.delay_probability > 0.0
          && Grid_util.Rng.float t.fault_rng 1.0 < f.Faults.delay_probability
        then Grid_util.Rng.float t.fault_rng f.Faults.max_extra_delay
        else 0.0
      in
      if extra > 0.0 then begin
        t.messages_delayed <- t.messages_delayed + 1;
        notify t (Delayed (link, extra))
      end;
      Engine.schedule_after t.engine (base +. extra) deliver;
      if
        f.Faults.duplicate > 0.0
        && Grid_util.Rng.float t.fault_rng 1.0 < f.Faults.duplicate
      then begin
        t.messages_duplicated <- t.messages_duplicated + 1;
        notify t (Duplicated link);
        (* The duplicate takes its own (fault-stream) latency so it arrives
           at a different time than the original. *)
        let dup_latency =
          t.base_latency
          +. Grid_util.Rng.float t.fault_rng (t.jitter +. f.Faults.max_extra_delay)
        in
        Engine.schedule_after t.engine (base +. dup_latency) deliver
      end
    end
  end

let messages_sent t = t.messages_sent
let messages_dropped t = t.messages_dropped
let messages_duplicated t = t.messages_duplicated
let messages_delayed t = t.messages_delayed
