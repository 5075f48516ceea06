module Counter = struct
  type t = { name : string; mutable v : int }

  let create name = { name; v = 0 }
  let name c = c.name
  let incr c = c.v <- c.v + 1
  let add c n = c.v <- c.v + n
  let value c = c.v
  let reset c = c.v <- 0
end

module Gauge = struct
  type t = {
    name : string;
    mutable v : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create name = { name; v = 0.0; mn = infinity; mx = neg_infinity }
  let name g = g.name

  let set g x =
    g.v <- x;
    if x < g.mn then g.mn <- x;
    if x > g.mx then g.mx <- x

  let value g = g.v
  let min g = g.mn
  let max g = g.mx

  let reset g =
    g.v <- 0.0;
    g.mn <- infinity;
    g.mx <- neg_infinity
end

module Histogram = struct
  (* Buckets: for each power of two [e] we keep [sub] linear sub-buckets,
     giving relative error <= 1/sub within a bucket. *)
  let sub = 32
  let nbuckets = 64 * sub

  type t = {
    name : string;
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    (* One cell, so the float stays unboxed and [record] allocates
       nothing. *)
    sumsq : float array;
    mutable max_v : int;
    mutable min_v : int;
  }

  let create name =
    {
      name;
      buckets = Array.make nbuckets 0;
      count = 0;
      sum = 0;
      sumsq = [| 0.0 |];
      max_v = 0;
      min_v = max_int;
    }

  let name h = h.name

  (* For v >= sub: values in [2^e, 2^(e+1)) (e >= 5) are split into [sub]
     linear sub-buckets of width 2^(e-5). *)
  let index_of v =
    if v < sub then v
    else begin
      let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1) in
      let e = msb v 0 in
      let off = (v lsr (e - 5)) land (sub - 1) in
      let i = sub + ((e - 5) * sub) + off in
      if i >= nbuckets then nbuckets - 1 else i
    end

  (* Representative value (midpoint) of bucket [i]: inverse of [index_of]. *)
  let value_of i =
    if i < sub then i
    else begin
      let k = i - sub in
      let e = (k / sub) + 5 in
      let off = k mod sub in
      (1 lsl e) + (off lsl (e - 5)) + (1 lsl (e - 6))
    end

  (* Public aliases: exemplar stores key their samples by the same
     bucket grid so a retained sample provably lands in the bucket the
     percentile math reads from. *)
  let bucket_of v = index_of (if v < 0 then 0 else v)
  let bucket_value = value_of
  let bucket_count = nbuckets

  (* Occupied buckets, ascending — what a telemetry agent diffs between
     harvests to ship distribution deltas instead of raw samples. *)
  let nonzero_buckets h =
    let out = ref [] in
    for i = nbuckets - 1 downto 0 do
      if h.buckets.(i) > 0 then out := (i, h.buckets.(i)) :: !out
    done;
    !out

  let record_n h v n =
    let v = if v < 0 then 0 else v in
    h.buckets.(index_of v) <- h.buckets.(index_of v) + n;
    h.count <- h.count + n;
    h.sum <- h.sum + (v * n);
    h.sumsq.(0) <- h.sumsq.(0) +. (float_of_int v *. float_of_int v *. float_of_int n);
    if v > h.max_v then h.max_v <- v;
    if v < h.min_v then h.min_v <- v

  let record h v = record_n h v 1
  let count h = h.count

  (* Samples at or below [v], at bucket resolution: a sample recorded as
     [x <= v] always counts, one in [v]'s own bucket counts too (<= 3%
     relative slack, same as [percentile]'s). SLO-attainment arithmetic
     ("what fraction of requests beat the target") wants this cumulative
     read, which percentiles can only bracket. *)
  let count_le h v =
    if h.count = 0 then 0
    else if v >= h.max_v then h.count
    else begin
      let top = index_of (if v < 0 then 0 else v) in
      let acc = ref 0 in
      for i = 0 to top do
        acc := !acc + h.buckets.(i)
      done;
      !acc
    end
  let sum h = h.sum
  let mean h = if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count
  let max_value h = h.max_v
  let min_value h = h.min_v

  let percentile h p =
    if h.count = 0 then 0
    else begin
      let target =
        let t = int_of_float (ceil (p /. 100.0 *. float_of_int h.count)) in
        if t < 1 then 1 else if t > h.count then h.count else t
      in
      let rec loop i acc =
        if i >= nbuckets then h.max_v
        else begin
          let acc = acc + h.buckets.(i) in
          if acc >= target then
            if i = index_of h.max_v then h.max_v else value_of i
          else loop (i + 1) acc
        end
      in
      loop 0 0
    end

  let stddev h =
    if h.count < 2 then 0.0
    else begin
      let n = float_of_int h.count in
      let m = mean h in
      let var = (h.sumsq.(0) /. n) -. (m *. m) in
      if var < 0.0 then 0.0 else sqrt var
    end

  let reset h =
    Array.fill h.buckets 0 nbuckets 0;
    h.count <- 0;
    h.sum <- 0;
    h.sumsq.(0) <- 0.0;
    h.max_v <- 0;
    h.min_v <- max_int

  let merge_into ~src ~dst =
    for i = 0 to nbuckets - 1 do
      dst.buckets.(i) <- dst.buckets.(i) + src.buckets.(i)
    done;
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum + src.sum;
    dst.sumsq.(0) <- dst.sumsq.(0) +. src.sumsq.(0);
    if src.max_v > dst.max_v then dst.max_v <- src.max_v;
    if src.min_v < dst.min_v then dst.min_v <- src.min_v
end

module Series = struct
  type t = {
    name : string;
    interval : int;
    tbl : (int, float ref) Hashtbl.t;
  }

  let create name ~interval =
    assert (interval > 0);
    { name; interval; tbl = Hashtbl.create 64 }

  let record s ~now v =
    let b = now / s.interval * s.interval in
    match Hashtbl.find_opt s.tbl b with
    | Some r -> r := !r +. v
    | None -> Hashtbl.replace s.tbl b (ref v)

  let buckets s =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end
