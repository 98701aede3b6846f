(* Consistency tokens ("zookies", after Zanzibar's cookie-like tokens).

   A zookie names a snapshot of the authorization state as a pair: the
   *policy epoch* the tuple store was compiled under (the same
   process-global counter every compiled PEP draws from, so tokens stay
   comparable with policy reloads) and the store *revision* within that
   epoch (bumped by every tuple write or delete). Tokens order
   lexicographically on (epoch, revision); a reload compiles a fresh
   store under a strictly larger epoch, so tokens remain monotonic
   across policy churn.

   The textual form carries a short content digest so a corrupted or
   hand-edited token is rejected instead of silently naming the wrong
   snapshot. The digest is integrity, not secrecy: tokens are not
   capabilities. *)

type t = {
  epoch : int;
  revision : int;
}

let make ~epoch ~revision =
  if epoch < 0 || revision < 0 then invalid_arg "Zookie.make: negative component";
  { epoch; revision }

let epoch t = t.epoch
let revision t = t.revision

let compare a b =
  match Int.compare a.epoch b.epoch with
  | 0 -> Int.compare a.revision b.revision
  | c -> c

let equal a b = compare a b = 0
let newer_than a b = compare a b > 0

(* FNV-1a, truncated to 8 hex digits: cheap, stable, dependency-free. *)
let digest_of ~epoch ~revision =
  let fnv_prime = 0x100000001b3L and basis = 0xcbf29ce484222325L in
  let body = Printf.sprintf "zookie:%d:%d" epoch revision in
  let h = ref basis in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    body;
  Printf.sprintf "%08Lx" (Int64.logand !h 0xffffffffL)

let to_string t =
  Printf.sprintf "zk:%d:%d:%s" t.epoch t.revision (digest_of ~epoch:t.epoch ~revision:t.revision)

let of_string s =
  match String.split_on_char ':' s with
  | [ "zk"; e; r; digest ] -> begin
    match (int_of_string_opt e, int_of_string_opt r) with
    | Some epoch, Some revision when epoch >= 0 && revision >= 0 ->
      if String.equal digest (digest_of ~epoch ~revision) then Ok { epoch; revision }
      else Error (Printf.sprintf "zookie %S: digest mismatch" s)
    | _ -> Error (Printf.sprintf "zookie %S: bad components" s)
  end
  | _ -> Error (Printf.sprintf "zookie %S: expected zk:<epoch>:<revision>:<digest>" s)
