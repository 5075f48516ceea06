(* The 64-bit state lives unboxed in an 8-byte buffer: a mutable int64
   field would box a fresh Int64 on every draw. With [mix] and [bits64]
   inlined, the draws below keep every intermediate in registers. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer: two xor-shift-multiply rounds. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

let split t = of_state (bits64 t)

let int t bound =
  assert (bound > 0);
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let[@inline] float t =
  (* 53 high bits -> uniform double in [0,1). *)
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L
let chance t p = float t < p

let exponential t ~mean =
  let u = 1.0 -. float t in
  -.mean *. log u

(* Zipf via the Gray et al. quick method used in YCSB: precompute zeta
   lazily per (n, theta) pair and cache it. The cache is shared across
   sims, so it is mutex-guarded: sims may run on parallel domains and a
   bare Hashtbl would race. The cached value is a pure function of the
   key, so contention only costs time, never determinism. *)
let zeta_cache : (int * float, float) Hashtbl.t = Hashtbl.create 7
let zeta_lock = Mutex.create ()

let zeta n theta =
  Mutex.lock zeta_lock;
  let z =
    match Hashtbl.find_opt zeta_cache (n, theta) with
    | Some z -> z
    | None ->
      let z = ref 0.0 in
      for i = 1 to n do
        z := !z +. (1.0 /. Float.pow (float_of_int i) theta)
      done;
      Hashtbl.replace zeta_cache (n, theta) !z;
      !z
  in
  Mutex.unlock zeta_lock;
  z

let zipf t ~n ~theta =
  assert (n > 0);
  if theta <= 0.0 then int t n
  else begin
    let zetan = zeta n theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta 2 theta /. zetan))
    in
    let u = float t in
    let uz = u *. zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 theta then 1
    else
      let v = float_of_int n *. Float.pow ((eta *. u) -. eta +. 1.0) alpha in
      let k = int_of_float v in
      if k >= n then n - 1 else if k < 0 then 0 else k
  end

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (int t 256))
  done;
  b

let bytes_compressible t n ~redundancy =
  let b = Bytes.create n in
  (* Emit runs: with probability [redundancy], repeat the previous byte;
     otherwise draw a fresh byte from a narrowed alphabet. *)
  let alphabet =
    min 256 (max 2 (int_of_float (256.0 *. (1.0 -. redundancy)) + 2))
  in
  let prev = ref (Char.chr (int t alphabet)) in
  for i = 0 to n - 1 do
    if not (chance t redundancy) then prev := Char.chr (int t alphabet);
    Bytes.set b i !prev
  done;
  b
