(* Bechamel microbenchmarks: per-operation cost of the OS primitives and
   codecs — one Test.make per primitive, all grouped into one run. *)

module Rng = Apiary_engine.Rng
module Stats = Apiary_engine.Stats
module Checksum = Apiary_engine.Checksum
module Sim = Apiary_engine.Sim
module Store = Apiary_cap.Store
module Rights = Apiary_cap.Rights
module Seg_alloc = Apiary_mem.Seg_alloc
module Page_alloc = Apiary_mem.Page_alloc
module Message = Apiary_core.Message
module Wire = Apiary_core.Wire
module Codec = Apiary_accel.Codec
module Kv = Apiary_accel.Kv
module Mesh = Apiary_noc.Mesh
open Bechamel

let data_1k = Rng.bytes_compressible (Rng.create ~seed:1) 1024 ~redundancy:0.7

let msg =
  Message.make
    ~src:{ Message.tile = 1; ep = 1 }
    ~dst:{ Message.tile = 14; ep = 1 }
    ~kind:(Message.Data { opcode = 7 })
    ~corr:42 ~is_reply:false ~cls:0 ~payload:(Bytes.create 256) ~now:1000

let msg_wire = Wire.encode msg

let bench_cap_check () =
  let s = Store.create ~tile:0 () in
  let h =
    match Store.mint s (Store.Segment { base = 0; len = 1 lsl 20 }) Rights.full with
    | Ok h -> h
    | Error _ -> assert false
  in
  Staged.stage (fun () ->
      ignore (Store.check_mem s h ~addr:4096 ~len:64 ~write:true))

let bench_cap_derive () =
  let s = Store.create ~capacity:4096 ~tile:0 () in
  let root =
    match Store.mint s (Store.Segment { base = 0; len = 1 lsl 20 }) Rights.full with
    | Ok h -> h
    | Error _ -> assert false
  in
  Staged.stage (fun () ->
      match Store.derive s ~parent:root ~rights:Rights.ro ~sub:(64, 128) () with
      | Ok h -> ignore (Store.revoke s h)
      | Error _ -> ())

let bench_seg_alloc () =
  let a = Seg_alloc.create ~base:0 ~size:(1 lsl 24) Seg_alloc.First_fit in
  Staged.stage (fun () ->
      match Seg_alloc.alloc a 4096 with
      | Ok b -> Seg_alloc.free a b
      | Error _ -> ())

let bench_page_translate () =
  let pa = Page_alloc.create ~base:0 ~size:(1 lsl 22) ~page_bytes:4096 in
  let sp = Page_alloc.Space.create pa ~tlb_entries:64 ~walk_cycles:20 in
  let v = Result.get_ok (Page_alloc.Space.map sp (1 lsl 20)) in
  let i = ref 0 in
  Staged.stage (fun () ->
      i := (!i + 4096) land ((1 lsl 20) - 1);
      ignore (Page_alloc.Space.translate sp (v + !i)))

let bench_wire_encode () = Staged.stage (fun () -> ignore (Wire.encode msg))
let bench_wire_decode () = Staged.stage (fun () -> ignore (Wire.decode msg_wire))
let bench_crc32 () = Staged.stage (fun () -> ignore (Checksum.crc32 data_1k))
let bench_lz () = Staged.stage (fun () -> ignore (Codec.lz_encode data_1k))

let bench_video () =
  Staged.stage (fun () -> ignore (Codec.video_encode ~q:2 ~width:64 data_1k))

let bench_kv_codec () =
  let req = Kv.Proto.encode_req (Kv.Proto.Put ("key", Bytes.create 128)) in
  Staged.stage (fun () -> ignore (Kv.Proto.decode_req req))

let bench_hist_record () =
  let h = Stats.Histogram.create "b" in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      Stats.Histogram.record h (!i land 0xFFFF))

let bench_mesh_cycle () =
  (* One full simulator cycle of an idle 4x4 mesh: 16 routers + NICs. *)
  let sim = Sim.create () in
  let _mesh : int Mesh.t = Mesh.create sim Mesh.default_config in
  Staged.stage (fun () -> Sim.step sim)

let tests =
  Test.make_grouped ~name:"apiary" ~fmt:"%s %s"
    [
      Test.make ~name:"monitor mem-cap check" (bench_cap_check ());
      Test.make ~name:"cap derive+revoke" (bench_cap_derive ());
      Test.make ~name:"segment alloc+free 4k" (bench_seg_alloc ());
      Test.make ~name:"page translate (tlb)" (bench_page_translate ());
      Test.make ~name:"wire encode 256B" (bench_wire_encode ());
      Test.make ~name:"wire decode 256B" (bench_wire_decode ());
      Test.make ~name:"crc32 1KiB" (bench_crc32 ());
      Test.make ~name:"lz encode 1KiB" (bench_lz ());
      Test.make ~name:"video encode 1KiB" (bench_video ());
      Test.make ~name:"kv decode request" (bench_kv_codec ());
      Test.make ~name:"histogram record" (bench_hist_record ());
      Test.make ~name:"idle 4x4 mesh cycle" (bench_mesh_cycle ());
    ]

let run () =
  Bench_util.header "MICRO" "per-operation cost of OS primitives (host ns/op)";
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> ())
    results;
  let rows = List.sort compare !rows in
  Bench_util.table
    [ "primitive"; "ns/op" ]
    (List.map (fun (n, e) -> [ n; Printf.sprintf "%.1f" e ]) rows)
