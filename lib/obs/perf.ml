(* Hardware-style performance-counter block: a fixed bank of saturating
   64-bit counters with architected slot numbers, one block per tile
   monitor and one per NoC router. The fixed layout is what makes the
   counters readable in-band: the stat service ships a block over the
   fabric as plain bytes and any reader decodes it positionally, exactly
   like reading a memory-mapped counter page out of real silicon. *)

type t = int array

(* Architected slot numbers — the wire format. Extend only by appending
   (readers index positionally). *)
let flits = 0
let busy = 1
let credit_stalls = 2
let occ_peak = 3
let msgs_in = 4
let msgs_out = 5
let syscalls = 6
let denials = 7
let drops = 8
let nacks = 9
let faults = 10
let heartbeats = 11
let n_counters = 12

let names =
  [|
    "flits";
    "busy";
    "credit_stalls";
    "occ_peak";
    "msgs_in";
    "msgs_out";
    "syscalls";
    "denials";
    "drops";
    "nacks";
    "faults";
    "heartbeats";
  |]

let name i = names.(i)

let create () = Array.make n_counters 0
let read t i = t.(i)
let incr t i = Array.unsafe_set t i (Array.unsafe_get t i + 1)
let add t i n = t.(i) <- t.(i) + n
let set_max t i (v : int) = if v > Array.unsafe_get t i then Array.unsafe_set t i v

(* Watermark slots aggregate by max, event counters by sum — so a board
   summary is itself a well-formed block. *)
let merge_into ~src ~dst =
  for i = 0 to n_counters - 1 do
    if i = occ_peak then set_max dst i src.(i) else dst.(i) <- dst.(i) + src.(i)
  done

(* In-band wire format: n_counters big-endian u64 words, no header (the
   request that asked for the block knows what it asked for). *)
let encoded_size = n_counters * 8

let encode t =
  let b = Bytes.create encoded_size in
  Array.iteri (fun i v -> Bytes.set_int64_be b (i * 8) (Int64.of_int v)) t;
  b

let decode b =
  if Bytes.length b <> encoded_size then None
  else
    Some
      (Array.init n_counters (fun i -> Int64.to_int (Bytes.get_int64_be b (i * 8))))
