type t = {
  rate : float;
  burst : float;
  mutable level : float;
  mutable last : int;
  mutable stalls : int;
  limited : bool;
}

let create ~rate ~burst =
  assert (rate > 0.0 && burst >= 1);
  let burst = float_of_int burst in
  { rate; burst; level = burst; last = 0; stalls = 0; limited = true }

let unlimited () =
  { rate = 0.0; burst = 0.0; level = 0.0; last = 0; stalls = 0; limited = false }

let advance t ~now =
  if t.limited && now > t.last then begin
    let dt = float_of_int (now - t.last) in
    t.level <- Float.min t.burst (t.level +. (t.rate *. dt));
    t.last <- now
  end

let try_take t n =
  if not t.limited then true
  else begin
    let need = float_of_int n in
    if t.level >= need then begin
      t.level <- t.level -. need;
      true
    end
    else begin
      t.stalls <- t.stalls + 1;
      false
    end
  end

let would_admit t n = (not t.limited) || t.level >= float_of_int n

let take t n = if t.limited then t.level <- t.level -. float_of_int n

let stalled_msgs t = t.stalls
