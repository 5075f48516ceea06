module Fifo = Apiary_engine.Fifo
module Sim = Apiary_engine.Sim
module Span = Apiary_obs.Span
module Perf = Apiary_obs.Perf

type 'a chan = {
  buf : 'a Packet.Flit.t Fifo.t;
  mutable on_pop : unit -> unit;
  occ : int ref;  (* owner's aggregate occupancy counter (staged + committed) *)
}

let make_chan ?(counter = ref 0) sim ~depth name =
  { buf = Fifo.create sim ~capacity:depth name; on_pop = (fun () -> ()); occ = counter }

let chan_push c f =
  if Fifo.push c.buf f then begin
    incr c.occ;
    true
  end
  else false

let chan_push_exn c f =
  if not (chan_push c f) then
    failwith (Printf.sprintf "Router.chan_push_exn: %s full" (Fifo.name c.buf))

let chan_pop_exn c =
  let f = Fifo.pop_exn c.buf in
  decr c.occ;
  c.on_pop ();
  f

let chan_pop c =
  if Fifo.is_empty c.buf then None else Some (chan_pop_exn c)

type 'a output = {
  mutable dest : 'a chan option;  (* downstream channel; None = unwired *)
  mutable credits : int;
  mutable owner : int;  (* owning input slot mid-packet; -1 = free *)
}

type 'a t = {
  sim : Sim.t;
  coord : Coord.t;
  vcs : int;
  routing : Routing.t;
  qos : bool;
  mutable obs_board : int;  (* board id for Span events; -1 = unassigned *)
  mutable obs_track : int;  (* tile index used as the Span track *)
  inputs : 'a chan array array;  (* [port][vc] *)
  outputs : 'a output array array;  (* [port][vc] *)
  (* Per input slot: allocated output port (-1 = unallocated) and output
     vc — two int arrays rather than an option-of-pair table so the
     per-flit routing path allocates nothing. *)
  alloc_op : int array;
  alloc_ov : int array;
  rr : int array;  (* rotating arbitration pointer per output port *)
  port_used : bool array;  (* input port crossbar slot used this cycle *)
  in_occ : int ref;  (* flits staged or buffered across all input channels *)
  (* Per-cycle scratch. Each occupied slot has at most one output port it
     can want this cycle (its allocation, or its head flit's route), so we
     classify slots into per-output-port candidate lists once per tick and
     arbitration scans only its own list. *)
  cand : int array array;  (* [output port] -> candidate slots *)
  n_cand : int array;
  slot_cls : int array;  (* head flit's class per slot (QoS priority key) *)
  slot_ov : int array;  (* requested output vc per slot *)
  slot_p : int array;  (* slot -> input port index (avoids hot-path div) *)
  slot_v : int array;  (* slot -> input vc *)
  perf : Perf.t;  (* per-router counter block (readable in-band) *)
  mutable handle : Sim.handle;  (* our ticker in the activity-set scheduler *)
}

let coord t = t.coord
let handle t = t.handle
let vcs t = t.vcs
let input_chan t p v = t.inputs.(Port.index p).(v)

let set_obs t ~board ~track =
  t.obs_board <- board;
  t.obs_track <- track

let input_occupancy t = !(t.in_occ)

let connect t ~port ~vc ~dest ~credits =
  let o = t.outputs.(Port.index port).(vc) in
  o.dest <- Some dest;
  o.credits <- credits

let credit t ~port ~vc =
  let o = t.outputs.(Port.index port).(vc) in
  o.credits <- o.credits + 1

let perf t = t.perf
let flits_routed t = Perf.read t.perf Perf.flits
let busy_cycles t = Perf.read t.perf Perf.busy

let clamp_cls t cls = if cls >= t.vcs then t.vcs - 1 else if cls < 0 then 0 else cls

(* Classify every input slot with a committed flit into the candidate
   list of the one output port it can want this cycle: its allocated
   output mid-packet, or its head flit's routing decision. Output-side
   conditions (owner, credits, wiring) are checked at arbitration time,
   when that port's state is current. Classification happens before any
   routing, so the recorded class/output-vc stay valid for every slot
   whose input port has not been used (route_one marks used ports, which
   arbitration re-checks and skips). *)
let classify t =
  Array.fill t.n_cand 0 Port.count 0;
  let push_cand t slot op_i cls ov =
    t.slot_cls.(slot) <- cls;
    t.slot_ov.(slot) <- ov;
    t.cand.(op_i).(t.n_cand.(op_i)) <- slot;
    t.n_cand.(op_i) <- t.n_cand.(op_i) + 1
  in
  for p = 0 to Port.count - 1 do
    let row = t.inputs.(p) in
    for v = 0 to t.vcs - 1 do
      let buf = row.(v).buf in
      if not (Fifo.is_empty buf) then begin
        let flit = Fifo.peek_exn buf in
        let slot = (p * t.vcs) + v in
        let op_i = Array.unsafe_get t.alloc_op slot in
        if op_i >= 0 then
          push_cand t slot op_i flit.pkt.cls (Array.unsafe_get t.alloc_ov slot)
        else if Packet.Flit.is_head flit then begin
          let want = Routing.next_port t.routing ~at:t.coord ~dst:flit.pkt.dst in
          push_cand t slot (Port.index want) flit.pkt.cls
            (clamp_cls t flit.pkt.cls)
        end
        (* body flit with no allocation: blocked this cycle *)
      end
    done
  done

(* Find the input slot that should win output port [op] this cycle among
   its classified candidates. Returns the slot index, or -1 when no
   candidate is admissible. Candidate keys are distinct, so the winner is
   the same one the full slot scan would pick. Allocation-free: the
   winner's flit is re-peeked by [route_one]. *)
let arbitrate t op =
  let op_i = Port.index op in
  let nslots = Port.count * t.vcs in
  let best = ref (-1) in
  let best_key = ref min_int in
  let cand = t.cand.(op_i) in
  for k = 0 to t.n_cand.(op_i) - 1 do
    let slot = Array.unsafe_get cand k in
    let p = Array.unsafe_get t.slot_p slot in
    if not (Array.unsafe_get t.port_used p) then begin
      let ov = Array.unsafe_get t.slot_ov slot in
      let o = t.outputs.(op_i).(ov) in
      (* A candidate that only the dry credit counter holds back is a
         credit stall — the per-cycle backpressure count the perf block
         exposes. The check order preserves admissibility exactly. *)
      let admissible =
        if Array.unsafe_get t.alloc_op slot >= 0 then
          if o.credits > 0 then true
          else begin
            Perf.incr t.perf Perf.credit_stalls;
            false
          end
        else if o.owner < 0 && o.dest <> None then
          if o.credits > 0 then true
          else begin
            Perf.incr t.perf Perf.credit_stalls;
            false
          end
        else false
      in
      if admissible then begin
        (* Priority key: class when QoS is on, then rotating order.
           [slot - rr] is in (-nslots, nslots), so one conditional add
           replaces the mod. *)
        let rot = slot - t.rr.(op_i) in
        let rot = if rot < 0 then rot + nslots else rot in
        let key =
          if t.qos then (Array.unsafe_get t.slot_cls slot * nslots * 2) - rot
          else -rot
        in
        if !best < 0 || key > !best_key then begin
          best := slot;
          best_key := key
        end
      end
    end
  done;
  !best

let route_one t op =
  let slot = arbitrate t op in
  if slot < 0 then false
  else begin
    let op_i = Port.index op in
    let p = t.slot_p.(slot) and v = t.slot_v.(slot) in
    let ov = t.slot_ov.(slot) in
    let o = t.outputs.(op_i).(ov) in
    let flit = chan_pop_exn t.inputs.(p).(v) in
    if Packet.Flit.is_head flit then begin
      t.alloc_op.(slot) <- op_i;
      t.alloc_ov.(slot) <- ov;
      o.owner <- slot;
      if Span.on () then begin
        (* One span per head flit per router: from the cycle the head
           last advanced (injection or upstream hop) to now, i.e. this
           hop's serialization + queueing wait. *)
        let pkt = flit.pkt in
        let now = Sim.now t.sim in
        Span.complete ~board:t.obs_board ~corr:pkt.Packet.corr
          ~args:
            [
              ("at", Coord.to_string t.coord);
              ("out", Port.to_string Port.all_arr.(op_i));
            ]
          ~cat:"noc" ~name:"hop" ~track:t.obs_track
          ~ts:pkt.Packet.hop_ts
          ~dur:(now - pkt.Packet.hop_ts)
          ();
        Packet.set_hop_ts pkt now
      end
    end;
    (match o.dest with
    | Some d -> chan_push_exn d flit
    | None -> assert false);
    o.credits <- o.credits - 1;
    if Packet.Flit.is_tail flit then begin
      t.alloc_op.(slot) <- -1;
      o.owner <- -1
    end;
    t.port_used.(p) <- true;
    t.rr.(op_i) <- ((p * t.vcs) + v + 1) mod (Port.count * t.vcs);
    Perf.incr t.perf Perf.flits;
    true
  end

let tick t =
  (* Quiescent router: no flit staged or buffered in any input channel,
     so arbitration over every output port would come up empty. *)
  if !(t.in_occ) = 0 then Sim.Idle
  else begin
    (* Occupancy watermark: sampled only on executed cycles, but the
       fast-forward contract guarantees occupancy is 0 throughout any
       skipped stretch, so the watermark is identical across engine
       modes. *)
    Perf.set_max t.perf Perf.occ_peak !(t.in_occ);
    Array.fill t.port_used 0 Port.count false;
    classify t;
    let moved = ref false in
    for pi = 0 to Port.count - 1 do
      if t.n_cand.(pi) > 0 && route_one t Port.all_arr.(pi) then moved := true
    done;
    if !moved then Perf.incr t.perf Perf.busy;
    if !(t.in_occ) = 0 then Sim.Idle else Sim.Busy
  end

let create sim ~coord ~vcs ~depth ~routing ~qos =
  assert (vcs >= 1);
  assert (depth >= 1);
  let in_occ = ref 0 in
  let mk_inputs p =
    Array.init vcs (fun v ->
        make_chan ~counter:in_occ sim ~depth
          (Printf.sprintf "r%s.in.%s.%d" (Coord.to_string coord)
             (Port.to_string Port.all_arr.(p))
             v))
  in
  let t =
    {
      sim;
      coord;
      vcs;
      routing;
      qos;
      obs_board = -1;
      obs_track = 0;
      inputs = Array.init Port.count mk_inputs;
      outputs =
        Array.init Port.count (fun _ ->
            Array.init vcs (fun _ -> { dest = None; credits = 0; owner = -1 }));
      alloc_op = Array.make (Port.count * vcs) (-1);
      alloc_ov = Array.make (Port.count * vcs) 0;
      rr = Array.make Port.count 0;
      port_used = Array.make Port.count false;
      in_occ;
      cand = Array.init Port.count (fun _ -> Array.make (Port.count * vcs) 0);
      n_cand = Array.make Port.count 0;
      slot_cls = Array.make (Port.count * vcs) 0;
      slot_ov = Array.make (Port.count * vcs) 0;
      slot_p = Array.init (Port.count * vcs) (fun s -> s / vcs);
      slot_v = Array.init (Port.count * vcs) (fun s -> s mod vcs);
      perf = Perf.create ();
      handle = Sim.no_handle;
    }
  in
  let h = Sim.add_clocked_h ~name:"noc.router" sim (fun () -> tick t) in
  t.handle <- h;
  (* Any flit arrival — a neighbour's staged push committing — re-arms
     the router out of its parked state. *)
  Array.iter
    (fun row -> Array.iter (fun c -> Fifo.set_owner c.buf h) row)
    t.inputs;
  t
