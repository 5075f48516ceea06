type target =
  | Segment of { base : int; len : int }
  | Endpoint of { tile : int; endpoint : int }

type handle = int

type error =
  | Invalid_handle
  | Revoked
  | Rights_exceeded
  | Not_grantable
  | Bounds
  | Wrong_type

let error_to_string = function
  | Invalid_handle -> "invalid handle"
  | Revoked -> "revoked"
  | Rights_exceeded -> "rights exceeded"
  | Not_grantable -> "not grantable"
  | Bounds -> "out of bounds"
  | Wrong_type -> "wrong capability type"

type entry = {
  target : target;
  rights : Rights.t;
  mutable revoked : bool;
  mutable children : child list;
}

and child = Child : t * int * int -> child  (* (store, slot, generation) *)

and t = {
  tile : int;
  cap_capacity : int;
  entries : entry option array;
  gens : int array;
  mutable live_count : int;
  mutable free_slots : int list;
}

let create ?(capacity = 256) ~tile () =
  assert (capacity >= 1 && capacity <= 0xFFFF);
  {
    tile;
    cap_capacity = capacity;
    entries = Array.make capacity None;
    gens = Array.make capacity 0;
    live_count = 0;
    free_slots = List.init capacity (fun i -> i);
  }

let tile t = t.tile
let live t = t.live_count
let capacity t = t.cap_capacity

(* Handles pack (generation, slot) so stale references to reused slots are
   caught: the generation bumps on every revocation. *)
let encode ~slot ~gen = (gen lsl 16) lor slot
let decode_slot h = h land 0xFFFF
let decode_gen h = h lsr 16

(* The entry a live handle names, read in place, so the per-message
   checks build nothing; a dead handle raises its [lookup] error. *)
exception Dead of error

let entry t h =
  let slot = decode_slot h in
  if slot < 0 || slot >= t.cap_capacity || t.gens.(slot) <> decode_gen h then
    raise_notrace (Dead Invalid_handle);
  match t.entries.(slot) with
  | None -> raise_notrace (Dead Invalid_handle)
  | Some e -> if e.revoked then raise_notrace (Dead Revoked) else e

let lookup t h =
  match entry t h with
  | e -> Ok (decode_slot h, e)
  | exception Dead err -> Error err

let insert t target rights =
  match t.free_slots with
  | [] -> Error Invalid_handle
  | slot :: rest ->
    t.free_slots <- rest;
    t.entries.(slot) <- Some { target; rights; revoked = false; children = [] };
    t.live_count <- t.live_count + 1;
    Ok (slot, encode ~slot ~gen:t.gens.(slot))

let mint t target rights =
  match insert t target rights with Ok (_, h) -> Ok h | Error e -> Error e

let narrow_target parent_target rights sub =
  match (parent_target, sub) with
  | Segment { base; len }, Some (off, sublen) ->
    if off < 0 || sublen < 0 || off + sublen > len then Error Bounds
    else Ok (Segment { base = base + off; len = sublen }, rights)
  | (Segment _ as tg), None -> Ok (tg, rights)
  | Endpoint _, Some _ -> Error Wrong_type
  | (Endpoint _ as tg), None -> Ok (tg, rights)

let derive_into t_src t_dst ~parent ~rights ~sub =
  match lookup t_src parent with
  | Error e -> Error e
  | Ok (_, pe) ->
    if not pe.rights.Rights.grant then Error Not_grantable
    else if not (Rights.subset rights pe.rights) then Error Rights_exceeded
    else
      match narrow_target pe.target rights sub with
      | Error e -> Error e
      | Ok (tg, rt) ->
        match insert t_dst tg rt with
        | Error e -> Error e
        | Ok (slot, h) ->
          pe.children <- Child (t_dst, slot, t_dst.gens.(slot)) :: pe.children;
          Ok h

let derive t ~parent ~rights ?sub () = derive_into t t ~parent ~rights ~sub
let grant ~src ~dst ~parent ~rights = derive_into src dst ~parent ~rights ~sub:None

let free_slot t slot =
  t.entries.(slot) <- None;
  t.gens.(slot) <- t.gens.(slot) + 1;
  t.live_count <- t.live_count - 1;
  t.free_slots <- slot :: t.free_slots

let rec revoke_entry store slot =
  match store.entries.(slot) with
  | None -> 0
  | Some e ->
    let revoke_child acc (Child (s, sl, gen)) =
      (* Skip children whose slot was already freed and reused. *)
      if s.gens.(sl) = gen then acc + revoke_entry s sl else acc
    in
    let n_children = List.fold_left revoke_child 0 e.children in
    e.revoked <- true;
    free_slot store slot;
    n_children + 1

let revoke t h =
  match lookup t h with
  | Error e -> Error e
  | Ok (slot, _) -> Ok (revoke_entry t slot)

let revoke_all t =
  let n = ref 0 in
  for slot = 0 to t.cap_capacity - 1 do
    if t.entries.(slot) <> None then n := !n + revoke_entry t slot
  done;
  !n

let inspect t h =
  match lookup t h with Error e -> Error e | Ok (_, e) -> Ok (e.target, e.rights)

let check_send t h ~tile ~endpoint =
  match entry t h with
  | exception Dead err -> Error err
  | e ->
    (match e.target with
    | Endpoint ep ->
      if ep.tile = tile && ep.endpoint = endpoint then
        if e.rights.Rights.write then Ok () else Error Rights_exceeded
      else Error Bounds
    | Segment _ -> Error Wrong_type)

let check_mem t h ~addr ~len ~write =
  match entry t h with
  | exception Dead err -> Error err
  | e ->
    (match e.target with
    | Segment { base; len = slen } ->
      if len < 0 || addr < base || addr + len > base + slen then Error Bounds
      else if write && not e.rights.Rights.write then Error Rights_exceeded
      else if (not write) && not e.rights.Rights.read then Error Rights_exceeded
      else Ok ()
    | Endpoint _ -> Error Wrong_type)
