module Stats = Apiary_engine.Stats

(* One retained sample per histogram bucket, latest-wins. The store
   shares [Stats.Histogram]'s log-bucket grid, so the exemplar shown
   next to a p99 is guaranteed to live in the bucket the percentile was
   computed from — the metric→trace link is exact at bucket resolution,
   not a nearest-neighbour guess. *)

type sample = { x_corr : int; x_value : int; x_ts : int }

type t = { name : string; slots : sample option array }

let create name = { name; slots = Array.make Stats.Histogram.bucket_count None }

let observe t ~corr ~value ~ts =
  let value = max 0 value in
  t.slots.(Stats.Histogram.bucket_of value) <-
    Some { x_corr = corr; x_value = value; x_ts = ts }

let to_list t =
  let out = ref [] in
  for i = Array.length t.slots - 1 downto 0 do
    match t.slots.(i) with
    | Some s -> out := (i, s) :: !out
    | None -> ()
  done;
  !out

let buf_add b t =
  Buffer.add_string b "{\"name\":";
  Export.buf_add_json_string b t.name;
  Buffer.add_string b ",\"exemplars\":[";
  List.iteri
    (fun i (bucket, s) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"bucket\":%d,\"bucket_value\":%d,\"corr\":%d,\"value\":%d,\"ts\":%d}"
           bucket
           (Stats.Histogram.bucket_value bucket)
           s.x_corr s.x_value s.x_ts))
    (to_list t);
  Buffer.add_string b "]}"
