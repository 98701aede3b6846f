(* Mutual authentication.

   Models the GSI handshake that precedes every GRAM exchange: the verifier
   issues a fresh challenge, the peer presents a credential bound to that
   challenge, and the verifier validates the chain. The result is a
   security context carrying the authenticated grid identity, which the
   Gatekeeper and Job Manager consult for all subsequent authorization. *)

type context = { peer : Dn.t (* authenticated effective grid identity *) }

type error =
  | Credential_error of Credential.error
  | Challenge_mismatch

let error_to_string = function
  | Credential_error e -> "authentication failed: " ^ Credential.error_to_string e
  | Challenge_mismatch -> "authentication failed: challenge mismatch"

let challenge_counter = ref 0

let fresh_challenge () =
  incr challenge_counter;
  Printf.sprintf "challenge-%06d" !challenge_counter

let authenticate ~(trust : Ca.Trust_store.store) ~now ~challenge (credential : Credential.t)
    =
  if not (String.equal credential.Credential.challenge challenge) then
    Error Challenge_mismatch
  else
    match Credential.validate credential ~trust ~now with
    | Error e -> Error (Credential_error e)
    | Ok peer -> Ok { peer }
