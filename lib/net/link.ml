module Sim = Apiary_engine.Sim

type side = A | B

let flip = function A -> B | B -> A

(* Per-direction state. Every field is owned by exactly one side's
   execution context so a split link (sides on different Par_sim
   partitions) stays race-free: [busy_until]/[corrupt_next] are
   written only on the sending side's thread, [rx_dropped] only on
   the thread that runs this side's deliveries. *)
type dir = {
  sim : Sim.t;  (* the sending side's simulator *)
  post : time:int -> (unit -> unit) -> unit;  (* schedules on the RECEIVER *)
  mutable busy_until : int;
  mutable corrupt_next : bool;
  mutable rx_dropped : int;  (* frames dropped on delivery TO this side *)
}

type t = {
  bw : float;
  prop : int;
  a : dir;
  b : dir;
  mutable rx_a : Frame.t -> unit;
  mutable rx_b : Frame.t -> unit;
}

let mk ~sim_a ~sim_b ~post_to_a ~post_to_b ~bytes_per_cycle ~prop_cycles =
  assert (bytes_per_cycle > 0.0 && prop_cycles >= 0);
  {
    bw = bytes_per_cycle;
    prop = prop_cycles;
    a = { sim = sim_a; post = post_to_b; busy_until = 0; corrupt_next = false;
          rx_dropped = 0 };
    b = { sim = sim_b; post = post_to_a; busy_until = 0; corrupt_next = false;
          rx_dropped = 0 };
    rx_a = (fun _ -> ());
    rx_b = (fun _ -> ());
  }

let create sim ~bytes_per_cycle ~prop_cycles =
  let post ~time fn = Sim.at sim time fn in
  mk ~sim_a:sim ~sim_b:sim ~post_to_a:post ~post_to_b:post ~bytes_per_cycle
    ~prop_cycles

let create_split ~sim_a ~sim_b ~post_to_a ~post_to_b ~bytes_per_cycle
    ~prop_cycles =
  mk ~sim_a ~sim_b ~post_to_a ~post_to_b ~bytes_per_cycle ~prop_cycles

let dir_of t = function A -> t.a | B -> t.b

let on_recv t side f =
  match side with A -> t.rx_a <- f | B -> t.rx_b <- f

let busy_until t side = (dir_of t side).busy_until
let set_corrupt_next t ~from = (dir_of t from).corrupt_next <- true
let frames_dropped t = t.a.rx_dropped + t.b.rx_dropped

let send t ~from frame =
  let d = dir_of t from in
  let size = Frame.wire_size frame in
  let now = Sim.now d.sim in
  let start = max now d.busy_until in
  let ser = max 1 (int_of_float (ceil (float_of_int size /. t.bw))) in
  d.busy_until <- start + ser;
  let deliver_at = start + ser + t.prop in
  if d.corrupt_next then begin
    (* Fault injection takes the real wire path: serialize, flip one
       payload bit, and let the receiver's FCS check reject it. *)
    d.corrupt_next <- false;
    let rd = dir_of t (flip from) in
    let wire = Frame.serialize frame in
    let pos = 16 in
    Bytes.set wire pos (Char.chr (Char.code (Bytes.get wire pos) lxor 0x01));
    let rx =
      match from with A -> (fun f -> t.rx_b f) | B -> (fun f -> t.rx_a f)
    in
    d.post ~time:deliver_at (fun () ->
        match Frame.parse wire with
        | Ok f -> rx f
        | Error _ -> rd.rx_dropped <- rd.rx_dropped + 1)
  end
  else
    (* Clean frames skip the serialize/parse round trip: {!Frame.parse}
       of a well-formed wire image reproduces the frame value exactly
       (payload length restored from the header, padding stripped), and
       frames are read-only downstream, so delivering the value is
       observationally identical and allocation-free. *)
    match from with
    | A -> d.post ~time:deliver_at (fun () -> t.rx_b frame)
    | B -> d.post ~time:deliver_at (fun () -> t.rx_a frame)
