(* HMAC-SHA-256 (RFC 2104).

   The key's two padded blocks are hashed once, by [prepare]; what a MAC
   then needs of the key is the chaining value after each block. *)

let block_size = 64

type key = string (* inner midstate ^ outer midstate, 64 bytes *)

let prepare raw =
  let raw = if String.length raw > block_size then Sha256.digest raw else raw in
  let n = String.length raw in
  let pad byte =
    let ctx = Sha256.init () in
    Sha256.feed ctx
      (String.init block_size (fun i ->
           Char.unsafe_chr ((if i < n then Char.code raw.[i] else 0) lxor byte)));
    Sha256.midstate ctx
  in
  pad 0x36 ^ pad 0x5c

let mac (key : key) msg =
  let inner = Sha256.resume key ~off:0 ~blocks:1 in
  Sha256.feed inner msg;
  let outer = Sha256.resume key ~off:32 ~blocks:1 in
  Sha256.feed outer (Sha256.finish inner);
  Sha256.finish outer

let sha256 ~key msg = mac (prepare key) msg

let sha256_hex ~key msg = Hex.encode (sha256 ~key msg)

(* Constant-time comparison; MACs must not be compared with [=] lest a
   timing side channel leak prefix matches. The simulator has no real
   adversary, but the code path should model the production discipline. *)
let equal a b =
  String.length a = String.length b
  &&
  let diff = ref 0 in
  for i = 0 to String.length a - 1 do
    diff := !diff lor (Char.code (String.unsafe_get a i) lxor Char.code (String.unsafe_get b i))
  done;
  !diff = 0

let verify ~key ~mac msg = equal mac (sha256 ~key msg)
