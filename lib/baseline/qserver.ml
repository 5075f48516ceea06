module Sim = Apiary_engine.Sim

type t = {
  sim : Sim.t;
  free_at : int array;  (* per server *)
  mutable busy : int;
  mutable done_ : int;
}

let create sim ~servers =
  assert (servers > 0);
  { sim; free_at = Array.make servers 0; busy = 0; done_ = 0 }

let submit t ~cycles cb =
  assert (cycles >= 0);
  let now = Sim.now t.sim in
  (* Earliest-free server. *)
  let best = ref 0 in
  for i = 1 to Array.length t.free_at - 1 do
    if t.free_at.(i) < t.free_at.(!best) then best := i
  done;
  let start = max now t.free_at.(!best) in
  let finish = start + cycles in
  t.free_at.(!best) <- finish;
  t.busy <- t.busy + cycles;
  Sim.after t.sim (max 1 (finish - now)) (fun () ->
      t.done_ <- t.done_ + 1;
      cb ())

let busy_cycles t = t.busy
let completed t = t.done_
