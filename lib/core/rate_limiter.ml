(* The float state lives in its own all-float record, which OCaml stores
   flat: writing [level] stores the float in place instead of boxing a
   fresh one on every refill and take. *)
type bucket = { rate : float; burst : float; mutable level : float }

type t = {
  b : bucket;
  mutable last : int;
  mutable stalls : int;
  limited : bool;
}

let create ~rate ~burst =
  assert (rate > 0.0 && burst >= 1);
  let burst = float_of_int burst in
  { b = { rate; burst; level = burst }; last = 0; stalls = 0; limited = true }

let unlimited () =
  { b = { rate = 0.0; burst = 0.0; level = 0.0 }; last = 0; stalls = 0;
    limited = false }

(* [burst] is at least 1.0, so this is [Float.min burst level], NaN
   included, without the call that would box both arguments. *)
let advance t ~now =
  if t.limited && now > t.last then begin
    let b = t.b in
    let level = b.level +. (b.rate *. float_of_int (now - t.last)) in
    b.level <- (if level > b.burst then b.burst else level);
    t.last <- now
  end

let try_take t n =
  if not t.limited then true
  else begin
    let b = t.b in
    let need = float_of_int n in
    if b.level >= need then begin
      b.level <- b.level -. need;
      true
    end
    else begin
      t.stalls <- t.stalls + 1;
      false
    end
  end

let would_admit t n = (not t.limited) || t.b.level >= float_of_int n

let take t n = if t.limited then t.b.level <- t.b.level -. float_of_int n

let stalled_msgs t = t.stalls
