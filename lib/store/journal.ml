(* Checksummed record framing over the simulated disk.

   Frame layout: magic 0xA7, 4-byte big-endian payload length, 8-byte
   checksum (SHA-256 prefix of the payload), payload. 13 bytes of
   header per record. *)

let magic = '\xa7'
let header_bytes = 13
let checksum_bytes = 8
let max_record_bytes = 16 * 1024 * 1024

type sync_policy =
  | Every_append
  | Manual

type t = {
  disk : Grid_sim.Disk.t;
  file : string;
  sync_policy : sync_policy;
  mutable appends : int;
}

let create ?(sync = Every_append) ~disk ~file () =
  { disk; file; sync_policy = sync; appends = 0 }

let appends t = t.appends
let bytes t = Grid_sim.Disk.size t.disk ~file:t.file

let checksum payload = String.sub (Grid_crypto.Sha256.digest payload) 0 checksum_bytes

let frame payload =
  let len = String.length payload in
  let buf = Buffer.create (header_bytes + len) in
  Buffer.add_char buf magic;
  Buffer.add_char buf (Char.chr ((len lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((len lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((len lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (len land 0xff));
  Buffer.add_string buf (checksum payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let sync t = ignore (Grid_sim.Disk.sync t.disk ~file:t.file)

let append t payload =
  if String.length payload > max_record_bytes then
    invalid_arg
      (Printf.sprintf "Journal.append: payload of %d bytes exceeds the %d-byte bound"
         (String.length payload) max_record_bytes);
  Grid_sim.Disk.append t.disk ~file:t.file (frame payload);
  t.appends <- t.appends + 1;
  match t.sync_policy with Every_append -> sync t | Manual -> ()

(* --- Replay ------------------------------------------------------------ *)

type corruption =
  | Truncated_frame of { offset : int }
  | Checksum_mismatch of { offset : int }
  | Bad_magic of { offset : int }

let corruption_to_string = function
  | Truncated_frame { offset } -> Printf.sprintf "truncated frame at byte %d" offset
  | Checksum_mismatch { offset } -> Printf.sprintf "checksum mismatch at byte %d" offset
  | Bad_magic { offset } -> Printf.sprintf "bad magic at byte %d" offset

type replay = {
  records : string list;
  valid_bytes : int;
  dropped_bytes : int;
  corruption : corruption option;
}

let replay ~disk ~file =
  match Grid_sim.Disk.read disk ~file with
  | None -> { records = []; valid_bytes = 0; dropped_bytes = 0; corruption = None }
  | Some data ->
    let total = String.length data in
    let records = ref [] in
    let offset = ref 0 in
    let stop = ref None in
    let finished = ref false in
    while not !finished do
      let at = !offset in
      if at = total then finished := true
      else if total - at < header_bytes then begin
        stop := Some (Truncated_frame { offset = at });
        finished := true
      end
      else if data.[at] <> magic then begin
        stop := Some (Bad_magic { offset = at });
        finished := true
      end
      else begin
        let len =
          (Char.code data.[at + 1] lsl 24)
          lor (Char.code data.[at + 2] lsl 16)
          lor (Char.code data.[at + 3] lsl 8)
          lor Char.code data.[at + 4]
        in
        if len > max_record_bytes then begin
          (* An absurd length is corruption, not a huge record. *)
          stop := Some (Checksum_mismatch { offset = at });
          finished := true
        end
        else if total - at - header_bytes < len then begin
          stop := Some (Truncated_frame { offset = at });
          finished := true
        end
        else begin
          let stored = String.sub data (at + 5) checksum_bytes in
          let payload = String.sub data (at + header_bytes) len in
          if not (String.equal stored (checksum payload)) then begin
            stop := Some (Checksum_mismatch { offset = at });
            finished := true
          end
          else begin
            records := payload :: !records;
            offset := at + header_bytes + len
          end
        end
      end
    done;
    { records = List.rev !records;
      valid_bytes = !offset;
      dropped_bytes = total - !offset;
      corruption = !stop }
