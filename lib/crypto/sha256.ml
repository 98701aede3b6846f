(* SHA-256 (FIPS 180-4), implemented from scratch.

   The project depends on no crypto library, and the GSI substrate
   needs a real digest for certificate fingerprints and HMAC signatures.
   Words are native ints masked to 32 bits, so a compression allocates
   nothing. Whole blocks are compressed straight from the caller's string;
   only a tail shorter than a block is copied into the context. *)

type t = string (* 32 raw bytes *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let block_size = 64
let mask = 0xffffffff

(* The rotations below read a doubled word, [x lor (x lsl 32)]: its bits
   [n .. n + 31] are [x] rotated right by [n]. A native int's 63 bits hold
   them for every distance up to 31, which covers SHA-256's. *)
let[@inline] double x = x lor (x lsl 32)
let[@inline] get32 s i = (String.get_uint16_be s i lsl 16) lor String.get_uint16_be s (i + 2)

(* The incremental context: the chaining value [h], the 16-word rolling
   message schedule [w], and the partial block not yet compressed. *)
type ctx = {
  h : int array;
  w : int array;
  block : Bytes.t;
  mutable pending : int; (* bytes held in [block] *)
  mutable length : int;  (* bytes fed so far *)
}

(* One compression of the 64-byte block at [s.[off]] into [h]. *)
let compress h w s off =
  for t = 0 to 15 do
    w.(t) <- get32 s (off + (4 * t))
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let wt =
      if t < 16 then w.(t)
      else begin
        let w15 = w.((t - 15) land 15) and w2 = w.((t - 2) land 15) in
        let d15 = double w15 and d2 = double w2 in
        let s0 = ((d15 lsr 7) lxor (d15 lsr 18) lxor (w15 lsr 3)) land mask in
        let s1 = ((d2 lsr 17) lxor (d2 lsr 19) lxor (w2 lsr 10)) land mask in
        let v = (w.(t land 15) + s0 + w.((t - 7) land 15) + s1) land mask in
        w.(t land 15) <- v;
        v
      end
    in
    let e' = !e in
    let de = double e' in
    let s1 = ((de lsr 6) lxor (de lsr 11) lxor (de lsr 25)) land mask in
    let ch = (e' land !f) lxor (lnot e' land !g) in
    let t1 = !hh + s1 + ch + k.(t) + wt in
    let a' = !a in
    let da = double a' in
    let s0 = ((da lsr 2) lxor (da lsr 13) lxor (da lsr 22)) land mask in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    hh := !g; g := !f; f := e'; e := (!d + t1) land mask;
    d := !c; c := !b; b := a'; a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask; h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask; h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask; h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask; h.(7) <- (h.(7) + !hh) land mask

let make h ~length =
  { h; w = Array.make 16 0; block = Bytes.create block_size; pending = 0; length }

let init () = make (Array.copy iv) ~length:0

let feed ctx s =
  let n = String.length s in
  let pos = ref 0 in
  if ctx.pending > 0 then begin
    let take = min n (block_size - ctx.pending) in
    Bytes.blit_string s 0 ctx.block ctx.pending take;
    ctx.pending <- ctx.pending + take;
    pos := take;
    if ctx.pending = block_size then begin
      compress ctx.h ctx.w (Bytes.unsafe_to_string ctx.block) 0;
      ctx.pending <- 0
    end
  end;
  while n - !pos >= block_size do
    compress ctx.h ctx.w s !pos;
    pos := !pos + block_size
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.block 0 (n - !pos);
    ctx.pending <- n - !pos
  end;
  ctx.length <- ctx.length + n

(* Big-endian bytes of the eight chaining words. *)
let words_to_string h =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_uint16_be out (4 * i) (h.(i) lsr 16);
    Bytes.set_uint16_be out ((4 * i) + 2) (h.(i) land 0xffff)
  done;
  Bytes.unsafe_to_string out

let finish ctx =
  (* Padding: 0x80, zeros, then the 8-byte big-endian bit length, which
     spills into a second block when fewer than 9 bytes remain. *)
  let block = ctx.block and p = ctx.pending in
  Bytes.set block p '\x80';
  Bytes.fill block (p + 1) (block_size - p - 1) '\000';
  if p >= block_size - 8 then begin
    compress ctx.h ctx.w (Bytes.unsafe_to_string block) 0;
    Bytes.fill block 0 block_size '\000'
  end;
  let bits = ctx.length * 8 in
  for i = 0 to 7 do
    Bytes.set block (block_size - 1 - i) (Char.unsafe_chr ((bits lsr (8 * i)) land 0xff))
  done;
  compress ctx.h ctx.w (Bytes.unsafe_to_string block) 0;
  ctx.pending <- 0;
  words_to_string ctx.h

let midstate ctx =
  if ctx.pending <> 0 then invalid_arg "Sha256.midstate: not on a block boundary";
  words_to_string ctx.h

let resume s ~off ~blocks =
  make (Array.init 8 (fun i -> get32 s (off + (4 * i)))) ~length:(blocks * block_size)

let digest msg =
  let ctx = init () in
  feed ctx msg;
  finish ctx

let to_hex (d : t) = Hex.encode d
let digest_hex msg = to_hex (digest msg)
