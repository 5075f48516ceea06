(* Consistent-hash ring over board ids, plus a round-robin spreader.

   Pure data structures — no simulation state — so shard placement is a
   deterministic function of the board set and the key. *)

(* SplitMix-style finalizer (constants truncated to OCaml's 63-bit
   ints); native-int arithmetic wraps, and we mask to non-negative at
   the end. *)
let mix z =
  let z = z + 0x1E3779B97F4A7C15 in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

(* FNV-1a over the key bytes (offset basis truncated to 63 bits), with
   the mix finalizer on top: raw FNV leaves near-identical keys — "k001"
   vs "k002" — in one narrow band of the ring, which collapses the whole
   keyspace onto one board. *)
let hash_key s =
  let h = ref 0x0BF29CE484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001B3) s;
  mix !h

type t = {
  vnodes : int;
  mutable points : (int * int) array;  (* (hash, board), sorted by hash *)
}

let create ?(vnodes = 64) () =
  assert (vnodes > 0);
  { vnodes; points = [||] }

let point_hash ~board ~vnode = mix ((board * 0x1000003) + vnode)

let boards t =
  Array.to_list t.points |> List.map snd |> List.sort_uniq compare

let member t board = Array.exists (fun (_, b) -> b = board) t.points

let add t board =
  if not (member t board) then begin
    let fresh =
      Array.init t.vnodes (fun v -> (point_hash ~board ~vnode:v, board))
    in
    let all = Array.append t.points fresh in
    Array.sort compare all;
    t.points <- all
  end

let remove t board =
  t.points <- Array.of_seq (Seq.filter (fun (_, b) -> b <> board)
                              (Array.to_seq t.points))


(* First ring point at or after the key's hash, wrapping. *)
let lookup t key =
  let n = Array.length t.points in
  if n = 0 then None
  else begin
    let h = hash_key key in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
    done;
    let idx = if !lo = n then 0 else !lo in
    Some (snd t.points.(idx))
  end

(* ------------------------------------------------------------------ *)

module Rr = struct
  type t = { mutable live : int list; mutable k : int }

  let create boards = { live = List.sort_uniq compare boards; k = 0 }

  let add t board =
    if not (List.mem board t.live) then
      t.live <- List.sort_uniq compare (board :: t.live)

  let remove t board = t.live <- List.filter (fun b -> b <> board) t.live
  let live t = t.live

  let next t =
    match t.live with
    | [] -> None
    | l ->
      let b = List.nth l (t.k mod List.length l) in
      t.k <- t.k + 1;
      Some b
end
