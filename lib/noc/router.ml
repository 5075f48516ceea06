module Sim = Apiary_engine.Sim
module Span = Apiary_obs.Span
module Perf = Apiary_obs.Perf

(* The fabric shares the router's compilation unit so the router's
   per-slot reads of it inline. *)
module Fabric = struct
  let head_bit = 1
  let tail_bit = 2
  let[@inline] slot f = f lsr 2
  let[@inline] is_head f = f land head_bit <> 0
  let[@inline] is_tail f = f land tail_bit <> 0

  type 'a t = {
    sim : Sim.t;
    cols : int;
    tiles : int;
    coords : Coord.t array;  (* tile -> coordinate *)
    vcs : int;
    depth : int;
    (* Channel [c]'s ring is [ram.(c lsl shift) ..], [1 lsl shift >= depth]
       entries, addressed by free-running counters masked to the ring:
       [rd] flits popped, [vis] flits published, [wr] flits pushed. Flits
       [rd, vis) are visible to the consumer; [vis, wr) are this cycle's
       staged pushes, written in place. *)
    shift : int;
    mask : int;
    ram : int array;
    rd : int array;
    vis : int array;
    wr : int array;
    credits : int array;  (* credit register of the output feeding [c] *)
    owner : int array;  (* channel -> owner *)
    occ : int array;  (* owner -> flits staged or buffered in its channels *)
    handles : Sim.handle array;  (* owner -> ticker re-armed on publish *)
    (* This cycle's channels with staged pushes, and popped channels whose
       credit returns at the commit. A channel is pushed and popped at most
       once a cycle, so each list fits one entry per channel. *)
    dirty : int array;
    mutable n_dirty : int;
    returns : int array;
    mutable n_returns : int;
    mutable marked : bool;
    mutable commit : unit -> unit;
    (* Packet table, one slot per packet between send and tail ejection.
       [pkts] starts empty and grows on demand, seeded by the packet that
       needs the room. [next] links the free slots. *)
    mutable pkts : 'a Packet.t array;
    mutable dst_x : int array;
    mutable dst_y : int array;
    mutable cls : int array;
    mutable nflits : int array;
    mutable next : int array;
    mutable free_head : int;  (* -1 = no free slot *)
  }

  let input_chan t ~tile ~port ~vc = (((tile * Port.count) + port) * t.vcs) + vc
  let eject_chan t ~tile ~vc = (t.tiles * Port.count * t.vcs) + (tile * t.vcs) + vc

  let chan_name t c =
    let at tile = Coord.to_string t.coords.(tile) in
    let n_in = t.tiles * Port.count * t.vcs in
    if c < n_in then
      Printf.sprintf "r%s.in.%s.%d"
        (at (c / (Port.count * t.vcs)))
        (Port.to_string (Port.of_index (c / t.vcs mod Port.count)))
        (c mod t.vcs)
    else Printf.sprintf "nic%s.ej.%d" (at ((c - n_in) / t.vcs)) ((c - n_in) mod t.vcs)

  (* Publish staged flits, apply credit returns and re-arm the owners of
     published channels: the mesh's one commit of the cycle. *)
  let commit t () =
    t.marked <- false;
    for k = 0 to t.n_dirty - 1 do
      let c = t.dirty.(k) in
      t.vis.(c) <- t.wr.(c);
      Sim.rearm t.sim t.handles.(t.owner.(c))
    done;
    t.n_dirty <- 0;
    for k = 0 to t.n_returns - 1 do
      let c = t.returns.(k) in
      t.credits.(c) <- t.credits.(c) + 1
    done;
    t.n_returns <- 0

  let create sim ~cols ~rows ~vcs ~depth =
    assert (cols >= 1 && rows >= 1 && vcs >= 1 && depth >= 1);
    let tiles = cols * rows in
    let n_in = tiles * Port.count * vcs in
    let nchan = n_in + (tiles * vcs) in
    let shift = ref 0 in
    while 1 lsl !shift < depth do
      incr shift
    done;
    let t =
      {
        sim;
        cols;
        tiles;
        coords = Array.init tiles (Coord.of_index ~cols);
        vcs;
        depth;
        shift = !shift;
        mask = (1 lsl !shift) - 1;
        ram = Array.make (nchan lsl !shift) 0;
        rd = Array.make nchan 0;
        vis = Array.make nchan 0;
        wr = Array.make nchan 0;
        credits = Array.make nchan depth;
        owner =
          Array.init nchan (fun c ->
              if c < n_in then c / (Port.count * vcs) else tiles + ((c - n_in) / vcs));
        occ = Array.make (2 * tiles) 0;
        handles = Array.make (2 * tiles) Sim.no_handle;
        dirty = Array.make nchan 0;
        n_dirty = 0;
        returns = Array.make nchan 0;
        n_returns = 0;
        marked = false;
        commit = (fun () -> ());
        pkts = [||];
        dst_x = [||];
        dst_y = [||];
        cls = [||];
        nflits = [||];
        next = [||];
        free_head = -1;
      }
    in
    t.commit <- commit t;
    t

  let coord t tile = t.coords.(tile)
  (* Owner ids: router [tile] is [tile], its NIC [tiles + tile]. *)
  let nic_owner t tile = t.tiles + tile
  let set_handle t owner h = t.handles.(owner) <- h
  let[@inline] occupancy t owner = t.occ.(owner)

  let mark t =
    if not t.marked then begin
      t.marked <- true;
      Sim.mark_dirty t.sim t.commit
    end

  let[@inline] head t c =
    let r = t.rd.(c) in
    if r = t.vis.(c) then -1 else t.ram.((c lsl t.shift) lor (r land t.mask))

  let[@inline] is_full t c = t.wr.(c) - t.rd.(c) >= t.depth
  let[@inline] credits t c = t.credits.(c)

  let push t c f =
    let w = t.wr.(c) in
    if w - t.rd.(c) >= t.depth then
      failwith (Printf.sprintf "Fabric.push: %s full" (chan_name t c));
    t.ram.((c lsl t.shift) lor (w land t.mask)) <- f;
    t.wr.(c) <- w + 1;
    t.credits.(c) <- t.credits.(c) - 1;
    let o = t.owner.(c) in
    t.occ.(o) <- t.occ.(o) + 1;
    if w = t.vis.(c) then begin
      t.dirty.(t.n_dirty) <- c;
      t.n_dirty <- t.n_dirty + 1;
      mark t
    end

  let pop t c =
    let r = t.rd.(c) in
    if r = t.vis.(c) then invalid_arg "Fabric.pop: no published flit";
    t.rd.(c) <- r + 1;
    let o = t.owner.(c) in
    t.occ.(o) <- t.occ.(o) - 1;
    t.returns.(t.n_returns) <- c;
    t.n_returns <- t.n_returns + 1;
    mark t

  (* Double the table, chaining the new slots into the (empty) free list
     lowest first. *)
  let grow t (p : 'a Packet.t) =
    let n = Array.length t.pkts in
    let size = max 16 (2 * n) in
    let extend a = Array.append a (Array.make (size - n) 0) in
    t.pkts <- Array.append t.pkts (Array.make (size - n) p);
    t.dst_x <- extend t.dst_x;
    t.dst_y <- extend t.dst_y;
    t.cls <- extend t.cls;
    t.nflits <- extend t.nflits;
    t.next <-
      Array.append t.next
        (Array.init (size - n) (fun i -> if n + i + 1 < size then n + i + 1 else -1));
    t.free_head <- n

  let alloc t (p : 'a Packet.t) =
    if t.free_head < 0 then grow t p;
    let s = t.free_head in
    t.free_head <- t.next.(s);
    t.pkts.(s) <- p;
    t.dst_x.(s) <- p.dst.x;
    t.dst_y.(s) <- p.dst.y;
    t.cls.(s) <- p.cls;
    t.nflits.(s) <- p.size_flits;
    s

  let free t s =
    t.next.(s) <- t.free_head;
    t.free_head <- s

  let inject t c ~slot ~idx =
    if is_full t c then false
    else begin
      push t c
        ((slot lsl 2)
        lor (if idx = 0 then head_bit else 0)
        lor (if idx = t.nflits.(slot) - 1 then tail_bit else 0));
      true
    end

  let eject t c =
    let f = head t c in
    if f < 0 then -1
    else begin
      pop t c;
      if is_tail f then slot f else -1
    end

  let[@inline] packet t s = t.pkts.(s)
  let[@inline] dst_x t s = t.dst_x.(s)
  let[@inline] dst_y t s = t.dst_y.(s)
  let[@inline] cls t s = t.cls.(s)
end

type 'a t = {
  sim : Sim.t;
  fab : 'a Fabric.t;
  tile : int;
  coord : Coord.t;
  vcs : int;
  routing : Routing.t;
  qos : bool;
  mutable obs_board : int;  (* board id for Span events; -1 = unassigned *)
  mutable obs_track : int;  (* tile index used as the Span track *)
  (* Input slot [s] = [port * vcs + vc] is fabric channel [in_base + s]. *)
  in_base : int;
  (* Per output [port * vcs + vc]: the downstream channel (-1 = unwired)
     and the input slot that owns it mid-packet (-1 = free). *)
  out_dest : int array;
  out_owner : int array;
  (* Per input slot: allocated output port (-1 = unallocated) and output
     vc. *)
  alloc_op : int array;
  alloc_ov : int array;
  rr : int array;  (* rotating arbitration pointer per output port *)
  port_used : bool array;  (* input port crossbar slot used this cycle *)
  (* Per-cycle scratch. Each occupied slot has at most one output port it
     can want this cycle (its allocation, or its head flit's route), so we
     classify slots into per-output-port candidate lists once per tick and
     arbitration scans only its own list. *)
  cand : int array array;  (* [output port] -> candidate slots *)
  n_cand : int array;
  slot_cls : int array;  (* head flit's class per slot (QoS priority key) *)
  slot_ov : int array;  (* requested output vc per slot *)
  slot_p : int array;  (* slot -> input port index (avoids hot-path div) *)
  perf : Perf.t;  (* per-router counter block (readable in-band) *)
  mutable stalls : int;  (* this tick's credit stalls, added to [perf] at its end *)
  hop_args : (string * string) list array;  (* per output port: hop span args *)
  mutable handle : Sim.handle;  (* our ticker in the activity-set scheduler *)
}

let coord t = t.coord
let handle t = t.handle
let vcs t = t.vcs

let set_obs t ~board ~track =
  t.obs_board <- board;
  t.obs_track <- track

let input_occupancy t = Fabric.occupancy t.fab t.tile

let connect t ~port ~vc ~dest = t.out_dest.((Port.index port * t.vcs) + vc) <- dest

let perf t = t.perf
let flits_routed t = Perf.read t.perf Perf.flits
let busy_cycles t = Perf.read t.perf Perf.busy

let clamp_cls t cls = if cls >= t.vcs then t.vcs - 1 else if cls < 0 then 0 else cls

let push_cand t slot op_i cls ov =
  t.slot_cls.(slot) <- cls;
  t.slot_ov.(slot) <- ov;
  t.cand.(op_i).(t.n_cand.(op_i)) <- slot;
  t.n_cand.(op_i) <- t.n_cand.(op_i) + 1

(* Classify every input slot with a published flit into the candidate
   list of the one output port it can want this cycle: its allocated
   output mid-packet, or its head flit's routing decision. Output-side
   conditions (owner, credits, wiring) are checked at arbitration time,
   when that port's state is current. Classification happens before any
   routing, so the recorded class/output-vc stay valid for every slot
   whose input port has not been used (route_one marks used ports, which
   arbitration re-checks and skips). *)
let classify t =
  for op_i = 0 to Port.count - 1 do
    t.n_cand.(op_i) <- 0;
    t.port_used.(op_i) <- false
  done;
  for slot = 0 to (Port.count * t.vcs) - 1 do
    let flit = Fabric.head t.fab (t.in_base + slot) in
    if flit >= 0 then begin
      let pslot = Fabric.slot flit in
      let op_i = Array.unsafe_get t.alloc_op slot in
      if op_i >= 0 then
        push_cand t slot op_i (Fabric.cls t.fab pslot) (Array.unsafe_get t.alloc_ov slot)
      else if Fabric.is_head flit then begin
        let cls = Fabric.cls t.fab pslot in
        let want =
          Routing.next_index t.routing ~x:t.coord.x ~y:t.coord.y
            ~dx:(Fabric.dst_x t.fab pslot) ~dy:(Fabric.dst_y t.fab pslot)
        in
        push_cand t slot want cls (clamp_cls t cls)
      end
      (* body flit with no allocation: blocked this cycle *)
    end
  done

(* Find the input slot that should win output port [op_i] this cycle
   among its classified candidates. Returns the slot index, or -1 when no
   candidate is admissible. Candidate keys are distinct, so the winner is
   the same one the full slot scan would pick. *)
let arbitrate t op_i =
  let nslots = Port.count * t.vcs in
  let best = ref (-1) in
  let best_key = ref min_int in
  let cand = t.cand.(op_i) in
  for k = 0 to t.n_cand.(op_i) - 1 do
    let slot = Array.unsafe_get cand k in
    let p = Array.unsafe_get t.slot_p slot in
    if not (Array.unsafe_get t.port_used p) then begin
      let o = (op_i * t.vcs) + Array.unsafe_get t.slot_ov slot in
      (* A candidate that only the dry credit counter holds back is a
         credit stall — the per-cycle backpressure count the perf block
         exposes. The check order preserves admissibility exactly. *)
      let admissible =
        if Array.unsafe_get t.alloc_op slot >= 0 then
          if Fabric.credits t.fab t.out_dest.(o) > 0 then true
          else begin
            t.stalls <- t.stalls + 1;
            false
          end
        else if t.out_owner.(o) < 0 && t.out_dest.(o) >= 0 then
          if Fabric.credits t.fab t.out_dest.(o) > 0 then true
          else begin
            t.stalls <- t.stalls + 1;
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

let route_one t op_i =
  let slot = arbitrate t op_i in
  if slot < 0 then false
  else begin
    let o = (op_i * t.vcs) + t.slot_ov.(slot) in
    let c = t.in_base + slot in
    let flit = Fabric.head t.fab c in
    Fabric.pop t.fab c;
    if Fabric.is_head flit then begin
      t.alloc_op.(slot) <- op_i;
      t.alloc_ov.(slot) <- t.slot_ov.(slot);
      t.out_owner.(o) <- slot;
      if Span.on () then begin
        (* One span per head flit per router: from the cycle the head
           last advanced (injection or upstream hop) to now, i.e. this
           hop's serialization + queueing wait. *)
        let pkt = Fabric.packet t.fab (Fabric.slot flit) in
        let now = Sim.now t.sim in
        Span.complete ~board:t.obs_board ~corr:pkt.Packet.corr ~args:t.hop_args.(op_i)
          ~cat:"noc" ~name:"hop" ~track:t.obs_track
          ~ts:pkt.Packet.hop_ts
          ~dur:(now - pkt.Packet.hop_ts)
          ();
        Packet.set_hop_ts pkt now
      end
    end;
    Fabric.push t.fab t.out_dest.(o) flit;
    if Fabric.is_tail flit then begin
      t.alloc_op.(slot) <- -1;
      t.out_owner.(o) <- -1
    end;
    t.port_used.(t.slot_p.(slot)) <- true;
    t.rr.(op_i) <- (if slot + 1 = Port.count * t.vcs then 0 else slot + 1);
    true
  end

let tick t =
  (* Quiescent router: no flit staged or buffered in any input channel,
     so arbitration over every output port would come up empty. *)
  let occ = input_occupancy t in
  if occ = 0 then Sim.Idle
  else begin
    (* Occupancy watermark: sampled only on executed cycles, but the
       fast-forward contract guarantees occupancy is 0 throughout any
       skipped stretch, so the watermark is identical across engine
       modes. *)
    Perf.set_max t.perf Perf.occ_peak occ;
    classify t;
    let moved = ref 0 in
    for op_i = 0 to Port.count - 1 do
      if t.n_cand.(op_i) > 0 && route_one t op_i then incr moved
    done;
    (* The tick's counts land in the perf block together; no reader runs
       inside a tick, so this is the same block a per-event update
       gives. *)
    if !moved > 0 then begin
      Perf.add t.perf Perf.flits !moved;
      Perf.incr t.perf Perf.busy
    end;
    if t.stalls > 0 then begin
      Perf.add t.perf Perf.credit_stalls t.stalls;
      t.stalls <- 0
    end;
    if input_occupancy t = 0 then Sim.Idle else Sim.Busy
  end

let create sim fab ~tile ~routing ~qos =
  let vcs = fab.Fabric.vcs and coord = Fabric.coord fab tile in
  let nslots = Port.count * vcs in
  let t =
    {
      sim;
      fab;
      tile;
      coord;
      vcs;
      routing;
      qos;
      obs_board = -1;
      obs_track = 0;
      in_base = Fabric.input_chan fab ~tile ~port:0 ~vc:0;
      out_dest = Array.make nslots (-1);
      out_owner = Array.make nslots (-1);
      alloc_op = Array.make nslots (-1);
      alloc_ov = Array.make nslots 0;
      rr = Array.make Port.count 0;
      port_used = Array.make Port.count false;
      cand = Array.init Port.count (fun _ -> Array.make nslots 0);
      n_cand = Array.make Port.count 0;
      slot_cls = Array.make nslots 0;
      slot_ov = Array.make nslots 0;
      slot_p = Array.init nslots (fun s -> s / vcs);
      perf = Perf.create ();
      stalls = 0;
      hop_args =
        (let at = ("at", Coord.to_string coord) in
         Array.init Port.count (fun op ->
             [ at; ("out", Port.to_string (Port.of_index op)) ]));
      handle = Sim.no_handle;
    }
  in
  let h = Sim.add_clocked_h ~name:"noc.router" sim (fun () -> tick t) in
  t.handle <- h;
  (* Any flit arrival — a neighbour's staged push publishing — re-arms
     the router out of its parked state. *)
  Fabric.set_handle fab tile h;
  t
