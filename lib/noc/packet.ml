type 'a t = {
  src : Coord.t;
  dst : Coord.t;
  cls : int;
  size_flits : int;
  payload : 'a;
  injected_at : int;
  corr : int;
  mutable hop_ts : int;
}

let make ~src ~dst ~cls ~size_flits ~corr ~payload ~now =
  assert (size_flits >= 1);
  assert (cls >= 0);
  { src; dst; cls; size_flits; payload; injected_at = now; corr; hop_ts = now }

let set_hop_ts p ts = p.hop_ts <- ts

let flits_for ~flit_bytes ~payload_bytes =
  assert (flit_bytes > 0);
  assert (payload_bytes >= 0);
  (* The head flit carries the header; payload bytes ride in body flits. *)
  1 + ((payload_bytes + flit_bytes - 1) / flit_bytes)

let hops p = Coord.hops p.src p.dst
