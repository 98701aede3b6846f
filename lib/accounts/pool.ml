(* Dynamic accounts (Section 6.1).

   "Dynamic Accounts are accounts created and configured on the fly by a
   resource management facility[, enabling it] to run jobs ... for users
   that do not have an account on that system." The pool hands out leases
   on a fixed set of template accounts; a lease binds an account to one
   grid identity for a limited time, is renewed on reuse, and is reclaimed
   on release or expiry. A holder that already has a live lease gets the
   same account back — account state (files, quotas) stays coherent within
   a session.

   Per-call cost does not depend on how long the pool has been running.
   Leases are indexed by account slot (an array), by holder and by lease
   id. The lowest-numbered free account is the smallest released slot
   below the high-water mark [fresh], or [fresh] itself; slots at or above
   [fresh] have never been leased. Leases are also threaded through a
   doubly-linked list over slots, ordered by [expires_at], whose head is
   the earliest expiry: the sweep stops there, so it costs nothing while
   [now] is at or before that expiry and O(1) per lease it collects.
   Under a non-decreasing clock a grant or renewal joins the tail
   directly. Account names are rendered when a lease is granted. *)

type lease = {
  lease_id : string;
  account : string;
  holder : Grid_gsi.Dn.t;
  granted_at : Grid_sim.Clock.time;
  mutable expires_at : Grid_sim.Clock.time;
}

module Holders = Hashtbl.Make (Grid_gsi.Dn)

module Slots = Set.Make (Int)

type t = {
  prefix : string;
  size : int;
  lease_lifetime : Grid_sim.Clock.time;
  leases : lease option array;     (* by account slot *)
  holders : int Holders.t;         (* holder -> slot *)
  ids : (string, int) Hashtbl.t;   (* lease id -> slot *)
  (* Expiry order over slots; index [size] is the sentinel. *)
  prev : int array;
  next : int array;
  mutable live : int;              (* leases held, expired or not *)
  mutable fresh : int;
  mutable released : Slots.t;      (* free slots below [fresh] *)
  mutable grants : int;
  mutable reuses : int;
  mutable exhaustions : int;
}

type error =
  | Pool_exhausted of { size : int }
  | Unknown_lease of string

let error_to_string = function
  | Pool_exhausted { size } ->
    Printf.sprintf "dynamic account pool exhausted (%d accounts, all leased)" size
  | Unknown_lease id -> "unknown lease: " ^ id

let create ?(prefix = "grid") ~size ~lease_lifetime () =
  if size <= 0 then invalid_arg "Pool.create: size must be positive";
  { prefix;
    size;
    lease_lifetime;
    leases = Array.make size None;
    holders = Holders.create 64;
    ids = Hashtbl.create 64;
    prev = Array.make (size + 1) size;
    next = Array.make (size + 1) size;
    live = 0;
    fresh = 0;
    released = Slots.empty;
    grants = 0;
    reuses = 0;
    exhaustions = 0 }

let lease_at t slot =
  match t.leases.(slot) with
  | Some lease -> lease
  | None -> invalid_arg "Pool: empty slot in an index"

let expired ~now lease = not (now <= lease.expires_at)

let unlink t slot =
  let p = t.prev.(slot) and n = t.next.(slot) in
  t.next.(p) <- n;
  t.prev.(n) <- p

(* Insert after the last lease that expires no later, walking back from
   the tail: no step at all when the clock has not gone backwards. *)
let link t slot =
  let expires_at = (lease_at t slot).expires_at in
  let rec place p =
    if p <> t.size && (lease_at t p).expires_at > expires_at then place t.prev.(p) else p
  in
  let p = place t.prev.(t.size) in
  let n = t.next.(p) in
  t.prev.(slot) <- p;
  t.next.(slot) <- n;
  t.next.(p) <- slot;
  t.prev.(n) <- slot

let remove t slot =
  let lease = lease_at t slot in
  unlink t slot;
  t.leases.(slot) <- None;
  Holders.remove t.holders lease.holder;
  Hashtbl.remove t.ids lease.lease_id;
  t.released <- Slots.add slot t.released;
  t.live <- t.live - 1

(* Number of leases expired at [now]; they form the head of the list. *)
let count_expired t ~now =
  let rec go slot n =
    if slot <> t.size && expired ~now (lease_at t slot) then go t.next.(slot) (n + 1) else n
  in
  go t.next.(t.size) 0

(* Reclaim expired leases; returns how many were collected. *)
let expire t ~now =
  let rec sweep n =
    let head = t.next.(t.size) in
    if head <> t.size && expired ~now (lease_at t head) then begin
      remove t head;
      sweep (n + 1)
    end
    else n
  in
  sweep 0

let free_slot t =
  match Slots.min_elt_opt t.released with
  | Some slot ->
    t.released <- Slots.remove slot t.released;
    Some slot
  | None when t.fresh < t.size ->
    t.fresh <- t.fresh + 1;
    Some (t.fresh - 1)
  | None -> None

let acquire t ~now ~holder =
  ignore (expire t ~now);
  match Holders.find_opt t.holders holder with
  | Some slot ->
    (* Renew rather than double-allocate. *)
    let lease = lease_at t slot in
    lease.expires_at <- Grid_sim.Clock.add now t.lease_lifetime;
    unlink t slot;
    link t slot;
    t.reuses <- t.reuses + 1;
    Ok lease
  | None -> begin
    match free_slot t with
    | None ->
      t.exhaustions <- t.exhaustions + 1;
      Error (Pool_exhausted { size = t.size })
    | Some slot ->
      let lease =
        { lease_id = Grid_util.Ids.lease ();
          account = Printf.sprintf "%s%03d" t.prefix slot;
          holder;
          granted_at = now;
          expires_at = Grid_sim.Clock.add now t.lease_lifetime }
      in
      t.leases.(slot) <- Some lease;
      Holders.replace t.holders holder slot;
      Hashtbl.replace t.ids lease.lease_id slot;
      link t slot;
      t.live <- t.live + 1;
      t.grants <- t.grants + 1;
      Ok lease
  end

let release t ~lease_id =
  match Hashtbl.find_opt t.ids lease_id with
  | Some slot ->
    remove t slot;
    Ok ()
  | None -> Error (Unknown_lease lease_id)

(* An account name carries its slot; the leased name must match exactly
   ("grid7" is not "grid007"). *)
let holder_of t ~account ~now =
  let p = String.length t.prefix in
  if not (String.starts_with ~prefix:t.prefix account) then None
  else
    match int_of_string_opt (String.sub account p (String.length account - p)) with
    | Some slot when slot >= 0 && slot < t.size -> begin
      match t.leases.(slot) with
      | Some lease when String.equal lease.account account && not (expired ~now lease) ->
        Some lease.holder
      | Some _ | None -> None
    end
    | Some _ | None -> None

let size t = t.size
let in_use t ~now = t.live - count_expired t ~now
let available t ~now = size t - in_use t ~now

type stats = { total_grants : int; total_reuses : int; total_exhaustions : int }

let stats t =
  { total_grants = t.grants; total_reuses = t.reuses; total_exhaustions = t.exhaustions }
