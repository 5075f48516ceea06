(* Per-board telemetry agent: the push half of the in-band telemetry
   plane. Each board runs one agent on its own simulator; every
   [period] cycles it harvests the board's Registry instruments
   ([b<id>.*] samplers only — never another board's) into counter /
   gauge / histogram-bucket deltas, folds in the span completions its
   [Span.set_sink] tap delivered since the last tick, and flushes the
   backlog as sequence-numbered batches through a [send] callback the
   cluster layer wires to the board's own NIC — telemetry shares the
   uplink with the workload and is accounted for, not assumed free.

   It is the board's only management sender: load reports and alarms
   are [push]ed records, and any batch's arrival is a heartbeat.

   The queue is bounded: when the uplink is congested (send keeps
   returning false) or the harvest outruns the wire, the oldest records
   are dropped first — fresh telemetry about a struggling board beats a
   complete history of its past — and every drop is counted into the
   cumulative header fields so the collector's conservation check
   (emitted = delivered + dropped + in-flight) stays exact even when
   the drop notification itself rides a later batch.

   This module deliberately knows nothing about frames or MACs (the net
   layer depends on obs, not vice versa): [send] takes the encoded
   batch payload and returns false on device backpressure, in which
   case the records stay queued for the next tick. *)

module Sim = Apiary_engine.Sim
module Stats = Apiary_engine.Stats

(* ------------------------------------------------------------------ *)
(* Wire format *)

module Wire = struct
  (* Batch payload, big-endian throughout:

     header (17 bytes):
       magic "TB" | board u8 | seq u32 | ts u32
       | cum_records u32 (records sent in all PRIOR batches)
       | cum_dropped u32 (records dropped at the agent so far)
       | n_records u16

     then [n_records] records, each [u16 length | kind u8 | body]:
       kind 1  counter delta:  name | delta u32
       kind 2  gauge value:    name | float bits u64
       kind 3  histogram:      name | n u16 | (bucket u16, delta u32)*n
       kind 4  span done:      name | cat | corr u32 | track u16
                               | ts u32 | dur u32
                               | n_args u8 | (key, val)*n_args
       kind 5  load report:    msgs u32 | n u8 | tile msgs u16*n
       kind 6  health alarm:   kind u8 | tile u8

     where strings are [u8 length | bytes] (truncated to 255). The
     per-record length prefix lets a decoder skip kinds it does not
     know. Cumulative counts in every header are what make loss
     accounting exact under gaps: whatever batches die on the wire, the
     next surviving header tells the collector how many records were
     ever sent and dropped before it. *)

  let magic = "TB"
  let header_bytes = 17

  type record =
    | Counter_delta of string * int
    | Gauge_value of string * float
    | Hist_delta of string * (int * int) list
    | Span_done of Span.event
    | Load of { msgs : int; tile_msgs : int array }
    | Alarm of { kind : int; tile : int }

  type batch = {
    b_board : int;
    b_seq : int;  (** 1-based batch sequence number *)
    b_ts : int;  (** harvest/flush cycle at the agent *)
    b_cum_records : int;  (** records sent in batches before this one *)
    b_cum_dropped : int;  (** records drop-oldest'd at the agent so far *)
    b_records : record list;
  }

  let add_u8 b v = Buffer.add_uint8 b (v land 0xff)
  let add_u16 b v = Buffer.add_uint16_be b (v land 0xffff)
  let add_u32 b v = Buffer.add_int32_be b (Int32.of_int v)

  let add_str b s =
    let s = if String.length s > 255 then String.sub s 0 255 else s in
    add_u8 b (String.length s);
    Buffer.add_string b s

  let encode_record r =
    let b = Buffer.create 64 in
    (match r with
    | Counter_delta (name, d) ->
      add_u8 b 1;
      add_str b name;
      add_u32 b d
    | Gauge_value (name, v) ->
      add_u8 b 2;
      add_str b name;
      Buffer.add_int64_be b (Int64.bits_of_float v)
    | Hist_delta (name, deltas) ->
      add_u8 b 3;
      add_str b name;
      add_u16 b (List.length deltas);
      List.iter
        (fun (bucket, d) ->
          add_u16 b bucket;
          add_u32 b d)
        deltas
    | Span_done ev ->
      add_u8 b 4;
      add_str b ev.Span.name;
      add_str b ev.cat;
      add_u32 b ev.corr;
      add_u16 b ev.track;
      add_u32 b ev.ts;
      add_u32 b ev.dur;
      let args =
        if List.length ev.args > 255 then List.filteri (fun i _ -> i < 255) ev.args
        else ev.args
      in
      add_u8 b (List.length args);
      List.iter
        (fun (k, v) ->
          add_str b k;
          add_str b v)
        args
    | Load { msgs; tile_msgs } ->
      add_u8 b 5;
      add_u32 b msgs;
      let n = min 255 (Array.length tile_msgs) in
      add_u8 b n;
      for i = 0 to n - 1 do
        add_u16 b (min 0xffff (max 0 tile_msgs.(i)))
      done
    | Alarm { kind; tile } ->
      add_u8 b 6;
      add_u8 b kind;
      add_u8 b tile);
    let body = Buffer.contents b in
    let out = Buffer.create (String.length body + 2) in
    add_u16 out (String.length body);
    Buffer.add_string out body;
    Buffer.contents out

  let encode_batch ~board ~seq ~ts ~cum_records ~cum_dropped encoded_records =
    let b = Buffer.create 256 in
    Buffer.add_string b magic;
    add_u8 b board;
    add_u32 b seq;
    add_u32 b ts;
    add_u32 b cum_records;
    add_u32 b cum_dropped;
    add_u16 b (List.length encoded_records);
    List.iter (Buffer.add_string b) encoded_records;
    Buffer.to_bytes b

  (* Decoding: total (returns None on any truncation); unknown record
     kinds are skipped via the length prefix, not errors. *)

  exception Truncated

  let get_u8 p off =
    if !off + 1 > Bytes.length p then raise Truncated;
    let v = Bytes.get_uint8 p !off in
    off := !off + 1;
    v

  let get_u16 p off =
    if !off + 2 > Bytes.length p then raise Truncated;
    let v = Bytes.get_uint16_be p !off in
    off := !off + 2;
    v

  let get_u32 p off =
    if !off + 4 > Bytes.length p then raise Truncated;
    let v = Int32.to_int (Bytes.get_int32_be p !off) land 0xffffffff in
    off := !off + 4;
    v

  let get_str p off =
    let n = get_u8 p off in
    if !off + n > Bytes.length p then raise Truncated;
    let s = Bytes.sub_string p !off n in
    off := !off + n;
    s

  (* A span's board is not on the wire: it is the batch header's. *)
  let decode_record ~board p off =
    let len = get_u16 p off in
    if !off + len > Bytes.length p then raise Truncated;
    let stop = !off + len in
    let r =
      match get_u8 p off with
      | 1 ->
        let name = get_str p off in
        Some (Counter_delta (name, get_u32 p off))
      | 2 ->
        let name = get_str p off in
        if !off + 8 > Bytes.length p then raise Truncated;
        let bits = Bytes.get_int64_be p !off in
        off := !off + 8;
        Some (Gauge_value (name, Int64.float_of_bits bits))
      | 3 ->
        let name = get_str p off in
        let n = get_u16 p off in
        let deltas =
          List.init n (fun _ ->
              let bucket = get_u16 p off in
              (bucket, get_u32 p off))
        in
        Some (Hist_delta (name, deltas))
      | 4 ->
        let name = get_str p off in
        let cat = get_str p off in
        let corr = get_u32 p off in
        let track = get_u16 p off in
        let ts = get_u32 p off in
        let dur = get_u32 p off in
        let n = get_u8 p off in
        let args =
          List.init n (fun _ ->
              let k = get_str p off in
              (k, get_str p off))
        in
        Some
          (Span_done
             { Span.name; cat; corr; board; track; ts; dur; ph = Span.Dur; args })
      | 5 ->
        let msgs = get_u32 p off in
        let n = get_u8 p off in
        Some (Load { msgs; tile_msgs = Array.init n (fun _ -> get_u16 p off) })
      | 6 ->
        let kind = get_u8 p off in
        Some (Alarm { kind; tile = get_u8 p off })
      | _ -> None (* unknown kind: skip via the length prefix *)
    in
    off := stop;
    r

  let decode_batch p =
    if Bytes.length p < header_bytes || Bytes.sub_string p 0 2 <> magic then
      None
    else
      try
        let off = ref 2 in
        let b_board = get_u8 p off in
        let b_seq = get_u32 p off in
        let b_ts = get_u32 p off in
        let b_cum_records = get_u32 p off in
        let b_cum_dropped = get_u32 p off in
        let n = get_u16 p off in
        let records = ref [] in
        for _ = 1 to n do
          match decode_record ~board:b_board p off with
          | Some r -> records := r :: !records
          | None -> ()
        done;
        Some
          {
            b_board;
            b_seq;
            b_ts;
            b_cum_records;
            b_cum_dropped;
            b_records = List.rev !records;
          }
      with Truncated -> None
end

(* ------------------------------------------------------------------ *)
(* Bounded record queue: a ring deque so a failed flush leaves records
   at the front (retry next tick) and overflow drops from the front
   (oldest first). *)

type dq = {
  buf : string array;
  dq_cap : int;
  mutable head : int;
  mutable len : int;
}

let dq_create cap = { buf = Array.make cap ""; dq_cap = cap; head = 0; len = 0 }
let dq_get q i = q.buf.((q.head + i) mod q.dq_cap)

let dq_drop_front q n =
  let n = min n q.len in
  q.head <- (q.head + n) mod q.dq_cap;
  q.len <- q.len - n

(* Returns the number of old records evicted to make room (0 or 1). *)
let dq_push q s =
  let evicted = if q.len = q.dq_cap then (dq_drop_front q 1; 1) else 0 in
  q.buf.((q.head + q.len) mod q.dq_cap) <- s;
  q.len <- q.len + 1;
  evicted

(* ------------------------------------------------------------------ *)

type t = {
  board : int;
  prefix : string;
  batch_bytes : int;
  max_frames : int;
  send : bytes -> bool;
  q : dq;
  (* last-harvest state for delta computation *)
  last_counter : (string, int) Hashtbl.t;
  last_gauge : (string, float) Hashtbl.t;
  last_hist : (string, int array) Hashtbl.t;
  (* accounting *)
  mutable seq : int;
  mutable emitted : int;
  mutable dropped : int;
  mutable sent_records : int;
  mutable sent_batches : int;
  mutable sent_bytes : int;
  mutable backpressure : int;
  mutable beat_mark : int;  (* sent_batches as of the previous beat *)
  mutable detached : bool;
}

let default_period = 2_000
let default_queue = 1_024
let default_batch_bytes = 1_200
let heartbeat_period = 500

let enqueue t encoded =
  t.emitted <- t.emitted + 1;
  t.dropped <- t.dropped + dq_push t.q encoded

let on_span t (ev : Span.event) =
  (* Runs under the span recorder's lock, on the domain that completed
     the span — only touch this agent's own state, never Span. *)
  if not t.detached then enqueue t (Wire.encode_record (Wire.Span_done ev))

let harvest t =
  (* snapshot_prefix runs only this board's samplers and returns names
     sorted, so the record order inside a harvest is deterministic. *)
  List.iter
    (fun (name, inst) ->
      match inst with
      | Registry.Counter c ->
        let v = Stats.Counter.value c in
        let last = Option.value ~default:0 (Hashtbl.find_opt t.last_counter name) in
        if v <> last then begin
          Hashtbl.replace t.last_counter name v;
          enqueue t (Wire.encode_record (Wire.Counter_delta (name, v - last)))
        end
      | Registry.Gauge g ->
        let v = Stats.Gauge.value g in
        let changed =
          match Hashtbl.find_opt t.last_gauge name with
          | Some last -> v <> last
          | None -> true
        in
        if changed then begin
          Hashtbl.replace t.last_gauge name v;
          enqueue t (Wire.encode_record (Wire.Gauge_value (name, v)))
        end
      | Registry.Histogram h ->
        let last =
          match Hashtbl.find_opt t.last_hist name with
          | Some a -> a
          | None ->
            let a = Array.make Stats.Histogram.bucket_count 0 in
            Hashtbl.add t.last_hist name a;
            a
        in
        let deltas =
          List.filter_map
            (fun (bucket, count) ->
              let d = count - last.(bucket) in
              if d > 0 then begin
                last.(bucket) <- count;
                Some (bucket, d)
              end
              else None)
            (Stats.Histogram.nonzero_buckets h)
        in
        if deltas <> [] then
          enqueue t (Wire.encode_record (Wire.Hist_delta (name, deltas))))
    (Registry.snapshot_prefix t.prefix)

(* The one send path: a batch of [n] encoded records (none for a
   heartbeat) stamped with the next sequence number and the cumulative
   books. *)
let send_batch t ~now ~n records =
  let payload =
    Wire.encode_batch ~board:t.board ~seq:(t.seq + 1) ~ts:now
      ~cum_records:t.sent_records ~cum_dropped:t.dropped records
  in
  let ok = t.send payload in
  if ok then begin
    t.seq <- t.seq + 1;
    t.sent_records <- t.sent_records + n;
    t.sent_batches <- t.sent_batches + 1;
    t.sent_bytes <- t.sent_bytes + Bytes.length payload
  end
  else t.backpressure <- t.backpressure + 1;
  ok

let flush t ~now =
  let frames = ref 0 in
  while !frames < t.max_frames && t.q.len > 0 do
    (* Fill one batch from the queue front without consuming, so a
       backpressured send retries the same records next tick. *)
    let budget = t.batch_bytes - Wire.header_bytes in
    let taken = ref 0 and bytes = ref 0 and records = ref [] in
    while
      !taken < t.q.len
      && !taken < 0xffff
      && !bytes + String.length (dq_get t.q !taken) <= budget
    do
      let r = dq_get t.q !taken in
      bytes := !bytes + String.length r;
      records := r :: !records;
      incr taken
    done;
    if !taken = 0 then begin
      (* A single record larger than the batch budget can never ship:
         drop it rather than wedging the queue forever. *)
      dq_drop_front t.q 1;
      t.dropped <- t.dropped + 1
    end
    else if send_batch t ~now ~n:!taken (List.rev !records) then begin
      dq_drop_front t.q !taken;
      incr frames
    end
    else frames := t.max_frames (* device is full; retry next tick *)
  done

let tick t ~now =
  if not t.detached then begin
    harvest t;
    flush t ~now
  end

let push t ~now r =
  if not t.detached then begin
    enqueue t (Wire.encode_record r);
    flush t ~now
  end

(* The heartbeat: any batch proves the board alive, so a beat ships a
   header-only batch only when nothing went out since the previous
   beat. A refused beat is skipped (counted as backpressure). *)
let beat t ~now =
  if not t.detached then begin
    if t.sent_batches = t.beat_mark then ignore (send_batch t ~now ~n:0 []);
    t.beat_mark <- t.sent_batches
  end

let create ?(period = default_period) ?(queue_cap = default_queue)
    ?(batch_bytes = default_batch_bytes) ?(max_frames = 2) ?(until = max_int)
    ~sim ~board ~prefix ~send () =
  if period <= 0 then invalid_arg "Agent.create: period must be positive";
  if queue_cap <= 0 then invalid_arg "Agent.create: queue_cap must be positive";
  if batch_bytes <= Wire.header_bytes + 8 then
    invalid_arg "Agent.create: batch_bytes too small for a header";
  let t =
    {
      board;
      prefix;
      batch_bytes;
      max_frames;
      send;
      q = dq_create queue_cap;
      last_counter = Hashtbl.create 32;
      last_gauge = Hashtbl.create 32;
      last_hist = Hashtbl.create 8;
      seq = 0;
      emitted = 0;
      dropped = 0;
      sent_records = 0;
      sent_batches = 0;
      sent_bytes = 0;
      backpressure = 0;
      beat_mark = 0;
      detached = false;
    }
  in
  Span.set_sink ~board (fun ev -> on_span t ev);
  (* Ticks and beats are staggered by board id so the ToR never sees a
     synchronized burst of telemetry from every board at once. *)
  Sim.every sim ~start:(period + board) period (fun () ->
      (* [until] quiesces the uplink before a run's end so conservation
         can be read with the wire provably empty: whatever the agent
         still holds then is exactly "in flight". *)
      if Sim.now sim <= until then tick t ~now:(Sim.now sim));
  (* Beats ignore [until]: the rack watchdog must keep hearing a board
     whose telemetry has gone quiet. *)
  Sim.every sim ~start:(heartbeat_period + board) heartbeat_period (fun () ->
      beat t ~now:(Sim.now sim));
  t

let detach t =
  t.detached <- true;
  Span.clear_sink ~board:t.board

let emitted t = t.emitted
let dropped t = t.dropped
let queued t = t.q.len
let sent_records t = t.sent_records
let sent_batches t = t.sent_batches
let sent_bytes t = t.sent_bytes
let backpressure t = t.backpressure
