(* Coarse-grained resource allocations.

   Section 2: "the resource providers think of the allocation in a
   coarse-grained manner: they are concerned about how many resources the
   VO can use as a whole, but they are not concerned about how allocation
   is used inside the VO."

   A bank tracks cpu-second budgets per party (typically one per VO).
   Admission reserves the job's worst-case demand (cpus x walltime
   estimate); completion settles the reservation against actual usage,
   refunding the difference. Jobs whose worst case does not fit the
   remaining budget are refused — the provider-side guarantee that makes
   outsourcing the fine-grained decisions to the VO safe. *)

type account = {
  party : string;
  budget : float; (* cpu-seconds *)
  mutable charged : float;
  mutable reserved : float;
}

type reservation = {
  reservation_id : string;
  account : account;
  amount : float;
  mutable settled : bool;
}

type t = {
  accounts : (string, account) Hashtbl.t;
  mutable refusals : int;
}

type error =
  | Unknown_party of string
  | Insufficient_allocation of { party : string; requested : float; available : float }

let error_to_string = function
  | Unknown_party p -> "no allocation for party: " ^ p
  | Insufficient_allocation { party; requested; available } ->
    Printf.sprintf "allocation of %s exhausted: %.0f cpu-s requested, %.0f available" party
      requested available

let create () = { accounts = Hashtbl.create 8; refusals = 0 }

let open_account t ~party ~budget =
  if budget < 0.0 then invalid_arg "Allocation.open_account: negative budget";
  if Hashtbl.mem t.accounts party then
    invalid_arg ("Allocation.open_account: duplicate party " ^ party);
  Hashtbl.replace t.accounts party { party; budget; charged = 0.0; reserved = 0.0 }

let available account = account.budget -. account.charged -. account.reserved

let balance t ~party =
  Option.map (fun a -> available a) (Hashtbl.find_opt t.accounts party)

let charged t ~party =
  Option.map (fun a -> a.charged) (Hashtbl.find_opt t.accounts party)

let refusals t = t.refusals

let reserve t ~party ~amount =
  match Hashtbl.find_opt t.accounts party with
  | None ->
    t.refusals <- t.refusals + 1;
    Error (Unknown_party party)
  | Some account ->
    if amount > available account then begin
      t.refusals <- t.refusals + 1;
      Error
        (Insufficient_allocation
           { party; requested = amount; available = available account })
    end
    else begin
      account.reserved <- account.reserved +. amount;
      Ok
        { reservation_id = Grid_util.Ids.fresh "rsv"; account; amount; settled = false }
    end

(* Settle against actual usage. Usage beyond the reservation is still
   charged (walltime accounting is authoritative); idempotent. *)
let settle (r : reservation) ~actual =
  if not r.settled then begin
    r.settled <- true;
    r.account.reserved <- Float.max 0.0 (r.account.reserved -. r.amount);
    r.account.charged <- r.account.charged +. Float.max 0.0 actual
  end

let cancel (r : reservation) = settle r ~actual:0.0

(* How the gatekeeper maps a grid identity to a paying party: typically
   the longest registered DN-prefix (the VO's organization). *)
let prefix_party_of t dn =
  let dn_string = Grid_gsi.Dn.to_string dn in
  Hashtbl.fold
    (fun party _ best ->
      if Grid_util.Strings.starts_with ~prefix:party dn_string then
        match best with
        | Some b when String.length b >= String.length party -> best
        | Some _ | None -> Some party
      else best)
    t.accounts None

(** What GRAM needs to enforce allocations: the bank plus the
    identity-to-party mapping. *)
type enforcement = {
  bank : t;
  party_of : Grid_gsi.Dn.t -> string option;
}

let enforcement bank = { bank; party_of = prefix_party_of bank }
