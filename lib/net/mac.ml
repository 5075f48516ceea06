module Sim = Apiary_engine.Sim

module Teng = struct
  type t = {
    sim : Sim.t;
    link : Link.t;
    side : Link.side;
    mutable is_ready : bool;
    mutable resetting : bool;
    mutable rx : Frame.t -> unit;
    mutable drops : int;
  }

  let create sim link side =
    let t =
      { sim; link; side; is_ready = false; resetting = false;
        rx = (fun _ -> ()); drops = 0 }
    in
    Link.on_recv link side (fun f -> if t.is_ready then t.rx f);
    t

  let reset t =
    t.is_ready <- false;
    t.resetting <- true;
    Sim.after t.sim 50 (fun () ->
        t.resetting <- false;
        t.is_ready <- true)

  let ready t = t.is_ready
  let tx_busy t = Link.busy_until t.link t.side > Sim.now t.sim

  let submit t f =
    if not t.is_ready then begin
      t.drops <- t.drops + 1;
      false
    end
    else if tx_busy t then false
    else begin
      Link.send t.link ~from:t.side f;
      true
    end

  let set_rx t f = t.rx <- f
  let dropped_tx t = t.drops
end

module Hundredg = struct
  let ring_size = 32
  let reset_hold = 100

  type t = {
    sim : Sim.t;
    link : Link.t;
    side : Link.side;
    ring : Frame.t Queue.t;
    mutable is_ready : bool;
    mutable reset_asserted_at : int option;
    mutable rx : Frame.t -> unit;
    mutable drops : int;
    mutable draining : bool;
  }

  let create sim link side =
    let t =
      { sim; link; side; ring = Queue.create (); is_ready = false;
        reset_asserted_at = None; rx = (fun _ -> ()); drops = 0; draining = false }
    in
    Link.on_recv link side (fun f -> if t.is_ready then t.rx f);
    t

  let assert_reset t =
    t.is_ready <- false;
    Queue.clear t.ring;
    t.reset_asserted_at <- Some (Sim.now t.sim)

  let release_reset t =
    match t.reset_asserted_at with
    | Some at when Sim.now t.sim - at >= reset_hold ->
      t.reset_asserted_at <- None;
      t.is_ready <- true
    | Some _ | None ->
      (* Reset sequence violated: the core stays down. *)
      t.reset_asserted_at <- None;
      t.is_ready <- false

  let ready t = t.is_ready

  (* Drain the descriptor ring as the link transmitter frees up. *)
  let rec drain t =
    if (not t.draining) && not (Queue.is_empty t.ring) then begin
      t.draining <- true;
      let gap = max 1 (Link.busy_until t.link t.side - Sim.now t.sim) in
      Sim.after t.sim gap (fun () ->
          t.draining <- false;
          (match Queue.take_opt t.ring with
          | Some f when t.is_ready -> Link.send t.link ~from:t.side f
          | Some _ | None -> ());
          drain t)
    end

  let post_tx t f =
    if not t.is_ready then begin
      t.drops <- t.drops + 1;
      false
    end
    else if Queue.length t.ring >= ring_size then false
    else begin
      Queue.add f t.ring;
      drain t;
      true
    end

  let ring_occupancy t = Queue.length t.ring
  let set_rx_irq t f = t.rx <- f
  let dropped_tx t = t.drops
end

type generation = Gen_10g | Gen_100g

type impl = I10 of Teng.t | I100 of Hundredg.t

type t = { gen : generation; impl : impl; sim : Sim.t }

let create sim gen link side =
  match gen with
  | Gen_10g ->
    let m = Teng.create sim link side in
    Teng.reset m;
    { gen; impl = I10 m; sim }
  | Gen_100g ->
    let m = Hundredg.create sim link side in
    Hundredg.assert_reset m;
    Sim.after sim (Hundredg.reset_hold + 1) (fun () -> Hundredg.release_reset m);
    { gen; impl = I100 m; sim }

(* The adapter retries the 10G core's single-frame interface so callers
   get queue semantics on both generations. *)
let rec send_10g sim m f attempts =
  if Teng.submit m f then true
  else if attempts <= 0 then false
  else begin
    Sim.after sim 8 (fun () -> ignore (send_10g sim m f (attempts - 1)));
    true
  end

let send t f =
  match t.impl with
  | I10 m -> send_10g t.sim m f 64
  | I100 m -> Hundredg.post_tx m f

let set_rx t cb =
  match t.impl with
  | I10 m -> Teng.set_rx m cb
  | I100 m -> Hundredg.set_rx_irq m cb

let ready t =
  match t.impl with I10 m -> Teng.ready m | I100 m -> Hundredg.ready m

let generation t = t.gen
