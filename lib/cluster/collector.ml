(* Rack telemetry collector: the pull-together half of the in-band
   telemetry plane, and the rack's one management receiver. One NIC on
   the ToR switch receives the sequence-numbered batches every board's
   push agent ships over its own uplink, and reassembles the streams
   into the central pipeline: counter / gauge / histogram deltas land
   in the global Registry under [collected.*] names, span completions
   feed per-bucket Exemplar stores (metric→trace links) and a
   re-exportable Chrome trace, service outcomes and load/alarm records
   fan out to subscribers (the scheduler), and every accepted batch is
   a heartbeat for [Cluster.report_alive] (the watchdog).

   Accounting is conservation-exact per board: the agent counts what it
   emitted, dropped (bounded-queue, oldest first) and sent; cumulative
   counts in every batch header let the collector compute wire loss
   from sequence gaps exactly, so

     emitted = delivered + dropped(agent) + lost(wire) + in-flight

   closes to the record even under deliberate congestion — the identity
   E16's CI gate asserts.

   Everything here runs on the rack simulator (engine member 0):
   batches from the board members arrive through the same
   deterministic boundary merge as RPC frames, so the collector's
   exports are byte-identical between Seq and [APIARY_PAR=boards]. *)

module Sim = Apiary_engine.Sim
module Stats = Apiary_engine.Stats
module Mac = Apiary_net.Mac
module Frame = Apiary_net.Frame
module Board = Apiary_apps.Board
module Obs = Apiary_obs
module Agent = Apiary_obs.Agent
module Wire = Apiary_obs.Agent.Wire

(* Per-board stream reassembly state. *)
type stream = {
  st_board : int;
  mutable next_seq : int;  (* expected next batch sequence number *)
  mutable batches : int;
  mutable delivered : int;  (* records decoded out of delivered batches *)
  mutable lost_batches : int;
  mutable lost_records : int;  (* from cumulative header counts: exact *)
  mutable agent_dropped : int;  (* latest cum_dropped seen in a header *)
  mutable last_agent_ts : int;  (* agent-side cycle of the last records *)
  mutable last_rx : int;  (* collector-side cycle of the last batch *)
  mutable decode_errors : int;
}

type outcome = {
  o_service : string;
  o_dur : int;
  o_ok : bool;
  o_corr : int;  (* cross-wire req_id when present, else span corr *)
}

type t = {
  sim : Sim.t;
  cluster : Cluster.t;
  mac : Mac.t;
  my_mac : int;
  streams : stream array;
  agents : Agent.t array;
  exemplars : (string, Obs.Exemplar.t) Hashtbl.t;
  mutable spans : Obs.Span.event list;  (* newest first *)
  mutable n_spans : int;
  span_cap : int;
  mutable spans_dropped : int;
  mutable rx_frames : int;
  mutable on_outcome : (now:int -> outcome -> unit) list;
  mutable on_record : (board:int -> Wire.record -> unit) list;
}

let exemplar_for t name =
  match Hashtbl.find_opt t.exemplars name with
  | Some e -> e
  | None ->
    let e = Obs.Exemplar.create name in
    Hashtbl.add t.exemplars name e;
    e

(* Collected instruments live in the global Registry under a
   [collected.b<id>.] prefix: same names the board publishes locally,
   one namespace over, so an end-of-run metrics export shows the
   board-local truth and what survived the wire side by side. *)
let collected_name board name = Printf.sprintf "collected.b%d.%s" board name

let span_metric (s : Obs.Span.event) =
  match List.assoc_opt "service" s.args with
  | Some svc -> Printf.sprintf "collected.svc.%s.latency" svc
  | None -> Printf.sprintf "collected.%s.%s.dur" s.cat s.name

let span_corr (s : Obs.Span.event) =
  match List.assoc_opt "req_id" s.args with
  | Some r -> ( match int_of_string_opt r with Some v -> v | None -> s.corr)
  | None -> s.corr

let span_ok (s : Obs.Span.event) =
  match List.assoc_opt "status" s.args with
  | Some st -> st = "ok"
  | None -> true

let apply_record t ~board ~now = function
  | Wire.Counter_delta (name, d) ->
    Stats.Counter.add (Obs.Registry.counter (collected_name board name)) d
  | Wire.Gauge_value (name, v) ->
    Stats.Gauge.set (Obs.Registry.gauge (collected_name board name)) v
  | Wire.Hist_delta (name, deltas) ->
    let h = Obs.Registry.histogram (collected_name board name) in
    List.iter
      (fun (bucket, d) ->
        Stats.Histogram.record_n h (Stats.Histogram.bucket_value bucket) d)
      deltas
  | Wire.Span_done s ->
    if t.n_spans >= t.span_cap then t.spans_dropped <- t.spans_dropped + 1
    else begin
      t.spans <- s :: t.spans;
      t.n_spans <- t.n_spans + 1
    end;
    let metric = span_metric s in
    let corr = span_corr s in
    if corr <> 0 then
      Obs.Exemplar.observe (exemplar_for t metric) ~corr ~value:s.dur ~ts:s.ts;
    (match List.assoc_opt "service" s.args with
    | Some svc ->
      let o = { o_service = svc; o_dur = s.dur; o_ok = span_ok s; o_corr = corr } in
      List.iter (fun f -> f ~now o) t.on_outcome
    | None -> ())
  | (Wire.Load _ | Wire.Alarm _) as r ->
    (* no registry twin: subscribers only *)
    List.iter (fun f -> f ~board r) t.on_record

let handle_frame t (f : Frame.t) =
  if f.Frame.dst <> t.my_mac || f.Frame.ethertype <> Frame.ethertype_telem then
    ()
  else begin
    t.rx_frames <- t.rx_frames + 1;
    match Wire.decode_batch f.Frame.payload with
    | None ->
      (* Can't even read the board id; charge board 0's stream so the
         error is at least visible somewhere. *)
      t.streams.(0).decode_errors <- t.streams.(0).decode_errors + 1
    | Some b when b.Wire.b_board < Array.length t.streams ->
      let st = t.streams.(b.Wire.b_board) in
      if b.Wire.b_seq < st.next_seq then
        (* Stale duplicate — cannot happen on this FIFO fabric, but a
           decoder must not corrupt its accounting if it does. *)
        st.decode_errors <- st.decode_errors + 1
      else begin
        if b.Wire.b_seq > st.next_seq then
          st.lost_batches <- st.lost_batches + (b.Wire.b_seq - st.next_seq);
        (* Exact wire loss: the header says how many records were ever
           sent before this batch; we know how many we decoded. FIFO
           delivery makes the difference precisely the records that
           died with the lost frames. *)
        st.lost_records <- b.Wire.b_cum_records - st.delivered;
        st.next_seq <- b.Wire.b_seq + 1;
        st.batches <- st.batches + 1;
        st.agent_dropped <- b.Wire.b_cum_dropped;
        (* Staleness is the age of the freshest records, not beats. *)
        if b.Wire.b_records <> [] then st.last_agent_ts <- b.Wire.b_ts;
        let now = Sim.now t.sim in
        st.last_rx <- now;
        Cluster.report_alive t.cluster ~board:b.Wire.b_board;
        List.iter
          (fun r ->
            st.delivered <- st.delivered + 1;
            apply_record t ~board:b.Wire.b_board ~now r)
          b.Wire.b_records
      end
    | Some _ -> t.streams.(0).decode_errors <- t.streams.(0).decode_errors + 1
  end

(* Every board can flush concurrently into this one port, so the
   collector NIC is a 100G port like the board uplinks — a 10G client
   port backs up whenever more than two agents tick together. *)
let create ?agent_period ?agent_queue ?agent_batch_bytes
    ?(agent_max_frames = 2) ?agent_until ?(span_cap = 65_536) cluster =
  let mac, my_mac = Cluster.add_client ~gbps:100.0 cluster in
  let n = Cluster.n_boards cluster in
  let sim = Cluster.sim cluster in
  let streams =
    Array.init n (fun st_board ->
        {
          st_board;
          next_seq = 1;
          batches = 0;
          delivered = 0;
          lost_batches = 0;
          lost_records = 0;
          agent_dropped = 0;
          last_agent_ts = 0;
          last_rx = 0;
          decode_errors = 0;
        })
  in
  let agents =
    Array.of_list
      (List.mapi
         (fun i nd ->
           let bmac = (Node.board nd).Board.fpga_mac in
           let src = Node.mac_addr nd in
           (* The agent shares the board's workload NIC: a batch that
              doesn't fit the descriptor ring waits (send = false),
              never preempts a reply. *)
           let send payload =
             Mac.send bmac
               (Frame.make ~dst:my_mac ~src ~ethertype:Frame.ethertype_telem
                  payload)
           in
           Agent.create ?period:agent_period ?queue_cap:agent_queue
             ?batch_bytes:agent_batch_bytes ~max_frames:agent_max_frames
             ?until:agent_until ~sim:(Node.sim nd) ~board:i
             ~prefix:(Printf.sprintf "b%d." i)
             ~send ())
         (Cluster.nodes cluster))
  in
  let t =
    {
      sim;
      cluster;
      mac;
      my_mac;
      streams;
      agents;
      exemplars = Hashtbl.create 8;
      spans = [];
      n_spans = 0;
      span_cap;
      spans_dropped = 0;
      rx_frames = 0;
      on_outcome = [];
      on_record = [];
    }
  in
  Mac.set_rx mac (fun f -> handle_frame t f);
  (* Teach the ToR our port before the first batch needs delivering: a
     self-addressed frame makes the switch learn our source port, and is
     then discarded (its destination is behind the port it arrived on). *)
  Sim.after sim 1 (fun () ->
      ignore
        (Mac.send t.mac
           (Frame.make ~dst:my_mac ~src:my_mac ~ethertype:Frame.ethertype_telem
              (Bytes.of_string "teach"))));
  t

let detach t = Array.iter Agent.detach t.agents
let agent t board = t.agents.(board)
let on_service_outcome t f = t.on_outcome <- t.on_outcome @ [ f ]
let on_record t f = t.on_record <- t.on_record @ [ f ]
let rx_frames t = t.rx_frames
let delivered t ~board = t.streams.(board).delivered
let lost_batches t ~board = t.streams.(board).lost_batches
let lost_records_detected t ~board = t.streams.(board).lost_records

let staleness t ~board ~now =
  let st = t.streams.(board) in
  if st.batches = 0 then now else now - st.last_agent_ts

(* Collected spans as a Chrome trace, via the standard exporter, in
   arrival order: the export's tie-breaker at equal start cycles. *)
let trace_json_string t =
  Obs.Export.chrome_trace_string ~dropped:t.spans_dropped (List.rev t.spans)

(* ------------------------------------------------------------------ *)
(* Conservation accounting.

   Per board, combining the agent's own books with the stream state:

     emitted  = delivered + dropped_agent + lost_wire + in_flight

   where [lost_wire = sent - delivered] is exact once the fabric has
   drained (and is cross-checked against the header-derived
   [lost_wire_detected], which lags only when the trailing batches
   themselves died), and [in_flight] is what still sits in the agent's
   queue plus anything sent but neither delivered nor yet provably
   lost. At quiesce the wire is empty and in_flight = queued. *)

let conservation_json_string t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"boards\":[";
  Array.iteri
    (fun i st ->
      if i > 0 then Buffer.add_char b ',';
      let a = t.agents.(i) in
      let emitted = Agent.emitted a in
      let dropped_agent = Agent.dropped a in
      let queued = Agent.queued a in
      let sent = Agent.sent_records a in
      let lost_wire = sent - st.delivered in
      Buffer.add_string b
        (Printf.sprintf
           "{\"board\":%d,\"emitted\":%d,\"delivered\":%d,\"dropped_agent\":%d,\"lost_wire\":%d,\"lost_wire_detected\":%d,\"in_flight\":%d,\"sent_records\":%d,\"sent_batches\":%d,\"sent_bytes\":%d,\"batches\":%d,\"lost_batches\":%d,\"backpressure\":%d,\"decode_errors\":%d,\"last_agent_ts\":%d,\"last_rx\":%d}"
           i emitted st.delivered dropped_agent lost_wire st.lost_records
           queued sent (Agent.sent_batches a) (Agent.sent_bytes a) st.batches
           st.lost_batches (Agent.backpressure a) st.decode_errors
           st.last_agent_ts st.last_rx))
    t.streams;
  Buffer.add_string b "]}";
  Buffer.contents b

let exemplars_json_string t =
  let names =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.exemplars [])
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"metrics\":[";
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char b ',';
      Obs.Exemplar.buf_add b (Hashtbl.find t.exemplars name))
    names;
  Buffer.add_string b "]}";
  Buffer.contents b
