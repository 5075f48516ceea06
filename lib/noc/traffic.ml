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

(* Allocates only the coordinate it returns. *)
let rec uniform_draw rng ~cols ~n ~(src : Coord.t) =
  let i = Rng.int rng n in
  if i mod cols = src.x && i / cols = src.y then uniform_draw rng ~cols ~n ~src
  else Coord.of_index ~cols i

let uniform_dst rng ~cols ~rows ~src =
  let n = cols * rows in
  if n <= 1 then src else uniform_draw rng ~cols ~n ~src

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

type gen = {
  mutable running : bool;
  mutable offered : int;
  (* The scanned-ahead cycle [at]'s injections: (source, destination)
     tile index pairs, consumed from [next] up to [n_pending]. The scan
     draws a cycle only once the last one is used up, so one pair per
     tile is room enough. *)
  mutable at : int;
  pending : int array;
  mutable n_pending : int;
  mutable next : int;
}

let is_empty g = g.next = g.n_pending

(* How many future cycles one tick may pre-draw while hunting for the
   next injection. Bounds the work per executed cycle; a dry scan parks
   the generator with [Idle_until] at the scan frontier and resumes
   there. *)
let scan_bound = 1024

let start mesh ~rng ~pattern ~rate ~payload_bytes ?cls ~payload () =
  assert (rate >= 0.0 && rate <= 1.0);
  let cfg = Mesh.config mesh in
  let cols = cfg.Mesh.cols and rows = cfg.Mesh.rows in
  let tiles = Array.of_list (Mesh.coords mesh) in
  let g =
    {
      running = true;
      offered = 0;
      at = 0;
      pending = Array.make (2 * Array.length tiles) 0;
      n_pending = 0;
      next = 0;
    }
  in
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
    g.at <- c;
    g.n_pending <- 0;
    g.next <- 0;
    for i = 0 to Array.length tiles - 1 do
      let src = tiles.(i) in
      if Rng.chance rng rate then begin
        let dst = destination rng pattern ~cols ~rows ~src in
        if not (Coord.equal dst src) then begin
          assert (Mesh.in_bounds mesh dst);
          g.pending.(g.n_pending) <- i;
          g.pending.(g.n_pending + 1) <- Coord.to_index ~cols dst;
          g.n_pending <- g.n_pending + 2
        end
      end
    done
  in
  let inject () =
    let src = tiles.(g.pending.(g.next)) and dst = tiles.(g.pending.(g.next + 1)) in
    g.next <- g.next + 2;
    g.offered <- g.offered + 1;
    Mesh.send mesh ~src ~dst ?cls ~payload_bytes payload
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
        while (not (is_empty g)) && g.at <= now do
          inject ()
        done;
        if is_empty g && !drawn_upto <= now + scan_bound then begin
          draw_cycle !drawn_upto;
          incr drawn_upto;
          progress := true
        end
      done;
      if is_empty g then Sim.Idle_until !drawn_upto
      else Sim.Idle_until g.at
    end
  in
  Sim.add_clocked ~name:"noc.traffic" sim tick;
  g

let stop_gen g =
  g.running <- false;
  (* Pre-drawn injections that have not fired yet die with the
     generator: the flat per-cycle generator injected nothing after
     stop either. *)
  g.next <- g.n_pending

let offered g = g.offered
