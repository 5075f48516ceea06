module Sim = Apiary_engine.Sim

type config = {
  channels : int;
  banks_per_channel : int;
  row_bytes : int;
  t_cas : int;
  t_rcd : int;
  t_rp : int;
  bus_bytes_per_cycle : int;
  queue_depth : int;
}

let default_config =
  {
    channels = 1;
    banks_per_channel = 8;
    row_bytes = 2048;
    t_cas = 8;
    t_rcd = 8;
    t_rp = 8;
    bus_bytes_per_cycle = 16;
    queue_depth = 16;
  }

type req = {
  addr : int;
  len : int;
  kind : kind;
}

and kind = Read of (bytes -> unit) | Write of bytes * (unit -> unit)

type bank = {
  mutable open_row : int;  (* -1 = none *)
  mutable busy : bool;
  queue : req Queue.t;
}

type channel = { banks : bank array; mutable bus_free_at : int }

(* Demand paging: a run writes little of a board's DRAM, so a page is
   allocated on its first write. Pages never written share the
   [absent] sentinel and read as zeros. *)
let page_bits = 12
let page_bytes = 1 lsl page_bits
let absent = Bytes.empty

type t = {
  sim : Sim.t;
  cfg : config;
  size : int;
  pages : Bytes.t array;
  chans : channel array;
  mutable n_row_hits : int;
  mutable n_row_misses : int;
  mutable n_bytes : int;
}

let create sim cfg ~size_bytes =
  assert (size_bytes > 0);
  {
    sim;
    cfg;
    size = size_bytes;
    pages = Array.make ((size_bytes + page_bytes - 1) lsr page_bits) absent;
    chans =
      Array.init cfg.channels (fun _ ->
          {
            banks =
              Array.init cfg.banks_per_channel (fun _ ->
                  { open_row = -1; busy = false; queue = Queue.create () });
            bus_free_at = 0;
          });
    n_row_hits = 0;
    n_row_misses = 0;
    n_bytes = 0;
  }

let size t = t.size
let config t = t.cfg
let row_hits t = t.n_row_hits
let row_misses t = t.n_row_misses
let bytes_transferred t = t.n_bytes

(* Address mapping: row-interleaved across banks, banks interleaved across
   channels, so sequential streams hit open rows within a bank. *)
let locate t addr =
  let row_global = addr / t.cfg.row_bytes in
  let chan_i = row_global mod t.cfg.channels in
  let bank_i = row_global / t.cfg.channels mod t.cfg.banks_per_channel in
  let row = row_global / t.cfg.channels / t.cfg.banks_per_channel in
  (t.chans.(chan_i), t.chans.(chan_i).banks.(bank_i), row)

let check t addr len =
  if not (addr >= 0 && len >= 0 && addr + len <= t.size) then
    invalid_arg "Dram: access out of physical range"

(* Split the [len] bytes at [addr] into page-bounded chunks: call
   [f page page_off buf_off n] for each. *)
let rec chunks addr off len f =
  if off < len then begin
    let po = addr land (page_bytes - 1) in
    let n = min (len - off) (page_bytes - po) in
    f (addr lsr page_bits) po off n;
    chunks (addr + n) (off + n) len f
  end

let load t addr len =
  let b = Bytes.create len in
  chunks addr 0 len (fun pi po off n ->
      let p = t.pages.(pi) in
      if p == absent then Bytes.fill b off n '\000' else Bytes.blit p po b off n);
  b

let store t addr b =
  chunks addr 0 (Bytes.length b) (fun pi po off n ->
      if t.pages.(pi) == absent then t.pages.(pi) <- Bytes.make page_bytes '\000';
      Bytes.blit b off t.pages.(pi) po n)

let perform t r =
  match r.kind with
  | Read cb ->
    t.n_bytes <- t.n_bytes + r.len;
    cb (load t r.addr r.len)
  | Write (b, cb) ->
    t.n_bytes <- t.n_bytes + Bytes.length b;
    store t r.addr b;
    cb ()

(* Serve the head of a bank's queue; reschedules itself until empty. *)
let rec kick t chan bank =
  if (not bank.busy) && not (Queue.is_empty bank.queue) then begin
    let r = Queue.take bank.queue in
    let _, _, row = locate t r.addr in
    let access =
      if bank.open_row = row then begin
        t.n_row_hits <- t.n_row_hits + 1;
        t.cfg.t_cas
      end
      else begin
        t.n_row_misses <- t.n_row_misses + 1;
        bank.open_row <- row;
        t.cfg.t_rp + t.cfg.t_rcd + t.cfg.t_cas
      end
    in
    let now = Sim.now t.sim in
    let transfer =
      (r.len + t.cfg.bus_bytes_per_cycle - 1) / t.cfg.bus_bytes_per_cycle
    in
    let transfer = max 1 transfer in
    (* The data burst needs the channel bus after the access latency. *)
    let burst_start = max (now + access) chan.bus_free_at in
    let done_at = burst_start + transfer in
    chan.bus_free_at <- done_at;
    bank.busy <- true;
    Sim.at t.sim done_at (fun () ->
        bank.busy <- false;
        perform t r;
        kick t chan bank)
  end

let submit t r =
  check t r.addr r.len;
  let chan, bank, _ = locate t r.addr in
  if Queue.length bank.queue >= t.cfg.queue_depth then false
  else begin
    Queue.add r bank.queue;
    kick t chan bank;
    true
  end

let read t ~addr ~len cb = submit t { addr; len; kind = Read cb }
let write t ~addr b cb = submit t { addr; len = Bytes.length b; kind = Write (b, cb) }

let peek t ~addr ~len =
  check t addr len;
  load t addr len

let poke t ~addr b =
  check t addr (Bytes.length b);
  store t addr b
