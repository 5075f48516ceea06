module Rng = Apiary_engine.Rng
module Sim = Apiary_engine.Sim

type pattern =
  | Uniform
  | Hotspot of Coord.t * float
  | Transpose
  | Bit_complement
  | Neighbor

let pattern_to_string = function
  | Uniform -> "uniform"
  | Hotspot (c, f) -> Printf.sprintf "hotspot%s@%.2f" (Coord.to_string c) f
  | Transpose -> "transpose"
  | Bit_complement -> "bit-complement"
  | Neighbor -> "neighbor"

let uniform_dst rng ~cols ~rows ~(src : Coord.t) =
  let n = cols * rows in
  let rec draw () =
    let i = Rng.int rng n in
    let c = Coord.of_index ~cols i in
    if Coord.equal c src then draw () else c
  in
  if n <= 1 then src else draw ()

let destination rng pattern ~cols ~rows ~(src : Coord.t) =
  match pattern with
  | Uniform -> uniform_dst rng ~cols ~rows ~src
  | Hotspot (hot, frac) ->
    if (not (Coord.equal src hot)) && Rng.chance rng frac then hot
    else uniform_dst rng ~cols ~rows ~src
  | Transpose ->
    let c = Coord.make (src.y mod cols) (src.x mod rows) in
    c
  | Bit_complement -> Coord.make (cols - 1 - src.x) (rows - 1 - src.y)
  | Neighbor -> Coord.make ((src.x + 1) mod cols) src.y

type pending = { at : int; psrc : Coord.t; pdst : Coord.t }

type gen = {
  mutable running : bool;
  mutable offered : int;
  pending : pending Queue.t;  (* scanned-ahead injections, ascending [at] *)
}

(* How many future cycles one tick may pre-draw while hunting for the
   next injection. Bounds the work per executed cycle; a dry scan parks
   the generator with [Idle_until] at the scan frontier and resumes
   there. *)
let scan_bound = 1024

let start mesh ~rng ~pattern ~rate ~payload_bytes ?(cls = 0) ~payload () =
  assert (rate >= 0.0 && rate <= 1.0);
  let g = { running = true; offered = 0; pending = Queue.create () } in
  let cfg = Mesh.config mesh in
  let tiles = Array.of_list (Mesh.coords mesh) in
  let sim = Mesh.sim mesh in
  (* The generator consumes entropy for every simulated cycle, so it
     cannot simply park: skipping a cycle's draws would shift the RNG
     stream and change every subsequent injection. Instead it draws the
     per-cycle/per-tile stream *ahead* — in exactly the order the flat
     per-cycle loop drew it — buffers the injections it finds, and
     reports an honest [Idle_until] for the next one. [drawn_upto] is
     the first cycle whose draws have not happened yet (-1 until the
     first tick pins it to the tick's cycle, matching the cycle the flat
     scheduler would first have run us). *)
  let drawn_upto = ref (-1) in
  let draw_cycle c =
    Array.iter
      (fun src ->
        if Rng.chance rng rate then begin
          let dst =
            destination rng pattern ~cols:cfg.Mesh.cols ~rows:cfg.Mesh.rows ~src
          in
          if not (Coord.equal dst src) then
            Queue.add { at = c; psrc = src; pdst = dst } g.pending
        end)
      tiles
  in
  let inject p =
    g.offered <- g.offered + 1;
    Mesh.send mesh ~src:p.psrc ~dst:p.pdst ~cls ~payload_bytes payload
  in
  let tick () =
    if not g.running then Sim.Idle
    else begin
      let now = Sim.now sim in
      if !drawn_upto < 0 then drawn_upto := now;
      (* Inject everything due, scanning forward (a cycle at a time, so
         same-cycle finds inject immediately) until a future injection
         or the scan bound stops us. *)
      let progress = ref true in
      while !progress do
        progress := false;
        while
          (not (Queue.is_empty g.pending))
          && (Queue.peek g.pending).at <= now
        do
          inject (Queue.pop g.pending)
        done;
        if Queue.is_empty g.pending && !drawn_upto <= now + scan_bound then begin
          draw_cycle !drawn_upto;
          incr drawn_upto;
          progress := true
        end
      done;
      if Queue.is_empty g.pending then Sim.Idle_until !drawn_upto
      else Sim.Idle_until (Queue.peek g.pending).at
    end
  in
  Sim.add_clocked ~name:"noc.traffic" sim tick;
  g

let stop_gen g =
  g.running <- false;
  (* Pre-drawn injections that have not fired yet die with the
     generator: the flat per-cycle generator injected nothing after
     stop either. *)
  Queue.clear g.pending

let offered g = g.offered
