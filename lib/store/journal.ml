(* Checksummed record framing over the simulated disk.

   Frame layout: magic 0xA7, 4-byte big-endian payload length, 8-byte
   check (masked CRC-32C, then CRC-32, of the payload, each 4 bytes
   big-endian), payload. 13 bytes of header per record. The check guards
   against torn writes and bit rot, not against an adversary: two CRCs of
   independent polynomials give 64 bits of check, and each alone catches
   every burst error of up to 32 bits. *)

let magic = '\xa7'
let header_bytes = 13
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

let set32 b off v =
  Bytes.set_uint16_be b off (v lsr 16);
  Bytes.set_uint16_be b (off + 2) (v land 0xffff)

let get32 s off = (String.get_uint16_be s off lsl 16) lor String.get_uint16_be s (off + 2)

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  let c, i = Crc.both payload in
  Bytes.set b 0 magic;
  set32 b 1 len;
  set32 b 5 (Crc.mask c);
  set32 b 9 i;
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

(* Does the check stored in the header at [at] match [payload]? *)
let checks data ~at payload =
  let c, i = Crc.both payload in
  get32 data (at + 5) = Crc.mask c && get32 data (at + 9) = i

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
        let len = get32 data (at + 1) in
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
          let payload = String.sub data (at + header_bytes) len in
          if not (checks data ~at payload) then begin
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
