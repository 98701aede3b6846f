(* CRC-32C (Castagnoli) and CRC-32 (IEEE 802.3), table-driven, reflected,
   on native ints. Both are computed in one pass over the bytes. *)

let table poly =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let castagnoli = table 0x82f63b78
let ieee = table 0xedb88320

let both s =
  let c = ref 0xffffffff and i = ref 0xffffffff in
  for k = 0 to String.length s - 1 do
    let b = Char.code (String.unsafe_get s k) in
    c := Array.unsafe_get castagnoli ((!c lxor b) land 0xff) lxor (!c lsr 8);
    i := Array.unsafe_get ieee ((!i lxor b) land 0xff) lxor (!i lsr 8)
  done;
  (!c lxor 0xffffffff, !i lxor 0xffffffff)

(* LevelDB's mask for a stored CRC: rotate right by 15 and add a constant,
   so a CRC over bytes that themselves embed stored CRCs stays well
   distributed. *)
let mask crc = ((((crc lsr 15) lor (crc lsl 17)) land 0xffffffff) + 0xa282ead8) land 0xffffffff
