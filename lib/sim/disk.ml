(* Simulated stable storage with injectable faults.

   Mirrors Network's structure: a seeded fault stream independent of the
   payload traffic, a profile that can be swapped at runtime, and
   listeners bridging injected faults into whatever registry the caller
   observes with. Files are a pair of byte buffers — durable and
   volatile — and a crash is simply "the volatile half is (mostly)
   gone". *)

module Faults = struct
  type profile = {
    torn_write : float;
    fsync_latency : Clock.time;
    fsync_jitter : Clock.time;
  }

  let none = { torn_write = 0.0; fsync_latency = 0.0; fsync_jitter = 0.0 }

  let profile ?(torn_write = 0.0) ?(fsync_latency = 0.0) ?(fsync_jitter = 0.0) () =
    if torn_write < 0.0 || torn_write > 1.0 then
      invalid_arg
        (Printf.sprintf "Disk.Faults: torn_write must be a probability, got %g" torn_write);
    if fsync_latency < 0.0 || fsync_jitter < 0.0 then
      invalid_arg "Disk.Faults: fsync latencies must be non-negative";
    { torn_write; fsync_latency; fsync_jitter }
end

type event =
  | Synced of { file : string; latency : Clock.time; bytes : int }
  | Torn of { file : string; kept : int; lost : int }
  | Truncated of { file : string; lost : int }
  | Corrupted of { file : string; at : int }

type file = {
  mutable durable : Buffer.t;
  volatile : Buffer.t;
}

type t = {
  files : (string, file) Hashtbl.t;
  fault_rng : Grid_util.Rng.t;
  faults : Faults.profile;
  mutable listeners : (event -> unit) list;
}

let create ?(faults = Faults.none) ?(seed = 4242) () =
  { files = Hashtbl.create 8;
    fault_rng = Grid_util.Rng.create ~seed;
    faults;
    listeners = [] }

let on_event t f = t.listeners <- f :: t.listeners
let notify t event = List.iter (fun f -> f event) (List.rev t.listeners)

let find t file = Hashtbl.find_opt t.files file

let find_or_create t file =
  match find t file with
  | Some f -> f
  | None ->
    let f = { durable = Buffer.create 256; volatile = Buffer.create 256 } in
    Hashtbl.replace t.files file f;
    f

let append t ~file bytes =
  let f = find_or_create t file in
  Buffer.add_string f.volatile bytes

let sample_fsync_latency t =
  let p = t.faults in
  if p.Faults.fsync_jitter = 0.0 then p.Faults.fsync_latency
  else p.Faults.fsync_latency +. Grid_util.Rng.float t.fault_rng p.Faults.fsync_jitter

let sync t ~file =
  match find t file with
  | None -> 0.0
  | Some f ->
    let pending = Buffer.length f.volatile in
    let latency = sample_fsync_latency t in
    if pending > 0 then begin
      Buffer.add_buffer f.durable f.volatile;
      Buffer.clear f.volatile
    end;
    notify t (Synced { file; latency; bytes = pending });
    latency

let read t ~file =
  match find t file with
  | None -> None
  | Some f -> Some (Buffer.contents f.durable ^ Buffer.contents f.volatile)

let size t ~file =
  match find t file with
  | None -> 0
  | Some f -> Buffer.length f.durable + Buffer.length f.volatile

let exists t ~file = Hashtbl.mem t.files file
let delete t ~file = Hashtbl.remove t.files file

let truncate t ~file =
  let f = find_or_create t file in
  Buffer.clear f.durable;
  Buffer.clear f.volatile

let rename t ~src ~dst =
  match find t src with
  | None -> invalid_arg (Printf.sprintf "Disk.rename: no such file %s" src)
  | Some f ->
    Hashtbl.remove t.files src;
    Buffer.clear f.volatile;
    Hashtbl.replace t.files dst f

let corrupt t ~file ~at =
  match find t file with
  | None -> ()
  | Some f ->
    let contents = Buffer.contents f.durable in
    if at >= 0 && at < String.length contents then begin
      let b = Bytes.of_string contents in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
      let fresh = Buffer.create (Bytes.length b) in
      Buffer.add_bytes fresh b;
      f.durable <- fresh;
      notify t (Corrupted { file; at })
    end

let crash t =
  (* Deterministic iteration order so the fault stream is consumed
     reproducibly regardless of hashtable layout. *)
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.files []) in
  List.iter
    (fun file ->
      let f = Hashtbl.find t.files file in
      let pending = Buffer.length f.volatile in
      if pending > 0 then begin
        let p = t.faults in
        let torn =
          p.Faults.torn_write > 0.0
          && Grid_util.Rng.float t.fault_rng 1.0 < p.Faults.torn_write
        in
        if torn then begin
          (* A proper prefix: at least one byte lost, possibly all but one
             kept — the classic torn sector. *)
          let kept = Grid_util.Rng.int t.fault_rng pending in
          Buffer.add_string f.durable (Buffer.sub f.volatile 0 kept);
          Buffer.clear f.volatile;
          notify t (Torn { file; kept; lost = pending - kept })
        end
        else begin
          Buffer.clear f.volatile;
          notify t (Truncated { file; lost = pending })
        end
      end)
    names
