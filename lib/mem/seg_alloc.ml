type policy = First_fit | Best_fit

type block = { base : int; len : int }

type t = {
  region_base : int;
  region_size : int;
  policy : policy;
  mutable free_list : block list;  (* sorted by base, coalesced *)
  allocated : (int, int) Hashtbl.t;  (* base -> len *)
  mutable used : int;
}

let create ~base ~size policy =
  assert (size > 0);
  {
    region_base = base;
    region_size = size;
    policy;
    free_list = [ { base; len = size } ];
    allocated = Hashtbl.create 64;
    used = 0;
  }

let round_up v align = (v + align - 1) / align * align

(* Carve [n] bytes aligned to [align] out of free block [b]; returns
   (alloc_base, remaining blocks from b) or None if it does not fit. *)
let carve b n align =
  let abase = round_up b.base align in
  let waste = abase - b.base in
  if waste + n > b.len then None
  else
    let before = if waste > 0 then [ { base = b.base; len = waste } ] else [] in
    let after_len = b.len - waste - n in
    let after =
      if after_len > 0 then [ { base = abase + n; len = after_len } ] else []
    in
    Some (abase, before @ after)

let alloc t ?(align = 64) n =
  assert (align > 0);
  let n = max 1 n in
  let fits b = carve b n align <> None in
  let chosen =
    match t.policy with
    | First_fit -> List.find_opt fits t.free_list
    | Best_fit ->
      List.fold_left
        (fun best b ->
          if not (fits b) then best
          else
            match best with
            | Some bb when bb.len <= b.len -> best
            | _ -> Some b)
        None t.free_list
  in
  match chosen with
  | None -> Error `Out_of_memory
  | Some b ->
    (match carve b n align with
    | None -> assert false
    | Some (abase, remnants) ->
      let rec replace = function
        | [] -> assert false
        | x :: rest when x.base = b.base -> remnants @ rest
        | x :: rest -> x :: replace rest
      in
      t.free_list <- replace t.free_list;
      Hashtbl.replace t.allocated abase n;
      t.used <- t.used + n;
      Ok abase)

let insert_coalesced t blk =
  (* Insert keeping base order, then merge with neighbours. *)
  let rec ins = function
    | [] -> [ blk ]
    | x :: rest when blk.base < x.base -> blk :: x :: rest
    | x :: rest -> x :: ins rest
  in
  let rec merge = function
    | a :: b :: rest when a.base + a.len = b.base ->
      merge ({ base = a.base; len = a.len + b.len } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  t.free_list <- merge (ins t.free_list)

let free t base =
  match Hashtbl.find_opt t.allocated base with
  | None -> invalid_arg (Printf.sprintf "Seg_alloc.free: %#x not allocated" base)
  | Some len ->
    Hashtbl.remove t.allocated base;
    t.used <- t.used - len;
    insert_coalesced t { base; len }

let used_bytes t = t.used

(* Free bytes include alignment waste still sitting in the free list. *)
let free_bytes t = List.fold_left (fun a b -> a + b.len) 0 t.free_list
let largest_free t = List.fold_left (fun a b -> max a b.len) 0 t.free_list
let free_block_count t = List.length t.free_list

let check_invariants t =
  (* Sorted, coalesced, within region. *)
  let rec check_list = function
    | a :: b :: rest ->
      (* Strictly separated: adjacent blocks must have been coalesced. *)
      assert (a.base + a.len < b.base);
      check_list (b :: rest)
    | [ a ] ->
      assert (a.base >= t.region_base);
      assert (a.base + a.len <= t.region_base + t.region_size)
    | [] -> ()
  in
  check_list t.free_list;
  List.iter
    (fun b ->
      assert (b.len > 0);
      assert (b.base >= t.region_base && b.base + b.len <= t.region_base + t.region_size))
    t.free_list;
  (* No allocation overlaps any free block. *)
  Hashtbl.iter
    (fun abase alen ->
      List.iter
        (fun b -> assert (abase + alen <= b.base || b.base + b.len <= abase))
        t.free_list)
    t.allocated
