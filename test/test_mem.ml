(* Tests for the memory subsystem: DRAM timing/data integrity, segment
   allocator invariants, fragmentation accounting, and the paged baseline
   with its TLB. *)

module Sim = Apiary_engine.Sim
module Rng = Apiary_engine.Rng
module Dram = Apiary_mem.Dram
module Seg_alloc = Apiary_mem.Seg_alloc
module Page_alloc = Apiary_mem.Page_alloc

(* ------------------------------------------------------------------ *)
(* DRAM *)

let mk_dram ?(size = 1 lsl 20) sim = Dram.create sim ~size_bytes:size

let test_dram_write_read_roundtrip () =
  let sim = Sim.create () in
  let d = mk_dram sim in
  let payload = Bytes.of_string "hello, apiary!" in
  let got = ref None in
  let ok =
    Dram.write d ~addr:4096 payload (fun () ->
        ignore (Dram.read d ~addr:4096 ~len:(Bytes.length payload) (fun b -> got := Some b)))
  in
  Alcotest.(check bool) "accepted" true ok;
  Sim.run_for sim 200;
  match !got with
  | None -> Alcotest.fail "read never completed"
  | Some b -> Alcotest.(check string) "data" "hello, apiary!" (Bytes.to_string b)

let test_dram_latency_row_hit_vs_miss () =
  let sim = Sim.create () in
  let d = mk_dram sim in
  let t_done = ref (-1) in
  ignore (Dram.read d ~addr:0 ~len:16 (fun _ -> t_done := Sim.now sim));
  Sim.run_for sim 100;
  let first = !t_done in
  (* Same row again: must be faster (row hit). *)
  let t2 = ref (-1) in
  let start = Sim.now sim in
  ignore (Dram.read d ~addr:64 ~len:16 (fun _ -> t2 := Sim.now sim));
  Sim.run_for sim 100;
  let second = !t2 - start in
  Alcotest.(check bool)
    (Printf.sprintf "hit (%d) faster than miss (%d)" second first)
    true (second < first);
  (* A 16-byte burst takes one bus cycle after the access. *)
  Alcotest.(check int) "miss: precharge + activate + CAS + burst"
    (Dram.t_rp + Dram.t_rcd + Dram.t_cas + 1) first;
  Alcotest.(check int) "hit: CAS + burst" (Dram.t_cas + 1) second;
  Alcotest.(check int) "one hit" 1 (Dram.row_hits d);
  Alcotest.(check int) "one miss" 1 (Dram.row_misses d)

let test_dram_queue_full () =
  let sim = Sim.create () in
  let d = mk_dram sim in
  (* Saturate one bank's queue with same-row requests. *)
  let accepted = ref 0 in
  for _ = 1 to 40 do
    if Dram.read d ~addr:0 ~len:16 (fun _ -> ()) then incr accepted
  done;
  Alcotest.(check bool) "some rejected" true (!accepted < 40);
  Alcotest.(check int) "one in service plus a full queue"
    (Dram.queue_depth + 1) !accepted;
  (* After draining, submissions are accepted again. *)
  Sim.run_for sim 2000;
  Alcotest.(check bool) "accepted after drain" true
    (Dram.read d ~addr:0 ~len:16 (fun _ -> ()))

let test_dram_parallel_banks_faster_than_one () =
  let run addrs =
    let sim = Sim.create () in
    let d = mk_dram sim in
    let remaining = ref (List.length addrs) in
    List.iter
      (fun a -> ignore (Dram.read d ~addr:a ~len:16 (fun _ -> decr remaining)))
      addrs;
    let t0 = Sim.now sim in
    Sim.run_for sim 10_000;
    ignore t0;
    Alcotest.(check int) "all done" 0 !remaining;
    (Dram.row_hits d, Dram.row_misses d)
  in
  (* 8 requests to 8 different banks vs 8 to one bank: bank-parallel case
     has 8 misses (one per bank) but overlaps them. *)
  let row = Dram.row_bytes in
  let _ = run (List.init 8 (fun i -> i * row)) in
  let hits_same, _ = run (List.init 8 (fun _ -> 0)) in
  Alcotest.(check bool) "same-bank run hits rows" true (hits_same >= 6)

let test_dram_oob_raises () =
  let sim = Sim.create () in
  let d = mk_dram ~size:4096 sim in
  Alcotest.check_raises "oob" (Invalid_argument "Dram: access out of physical range")
    (fun () -> ignore (Dram.read d ~addr:4000 ~len:200 (fun _ -> ())))

let test_dram_poke_peek () =
  let sim = Sim.create () in
  let d = mk_dram sim in
  Dram.poke d ~addr:100 (Bytes.of_string "xyz");
  Alcotest.(check string) "peek" "xyz" (Bytes.to_string (Dram.peek d ~addr:100 ~len:3))

(* A bad range must raise at the call: a queued request with a
   negative length would otherwise fail inside a later event callback,
   far from the caller. *)
let test_dram_negative_len_rejected () =
  let sim = Sim.create () in
  let d = mk_dram ~size:4096 sim in
  let oob = Invalid_argument "Dram: access out of physical range" in
  Alcotest.check_raises "read" oob (fun () ->
      ignore (Dram.read d ~addr:0 ~len:(-1) (fun _ -> ())));
  Alcotest.(check int) "nothing queued" 0 (Sim.pending_events sim);
  Alcotest.check_raises "peek" oob (fun () -> ignore (Dram.peek d ~addr:8 ~len:(-1)));
  Alcotest.check_raises "negative addr" oob (fun () ->
      ignore (Dram.write d ~addr:(-1) (Bytes.make 4 'x') (fun () -> ())));
  Alcotest.check_raises "poke past end" oob (fun () ->
      Dram.poke d ~addr:4094 (Bytes.make 4 'x'));
  Alcotest.(check int) "still nothing queued" 0 (Sim.pending_events sim);
  Alcotest.(check int) "no bytes counted" 0 (Dram.bytes_transferred d)

(* The sparse store must be indistinguishable from one flat zeroed
   array: random backdoor and timed accesses, with spans that cross
   page boundaries, over a size that ends mid-page. Bytes never written
   read as zero. *)
type dram_op =
  | Poke of int * int * int  (* addr, len, fill seed *)
  | Peek of int * int
  | Write of int * int * int
  | Read of int * int

let dram_op_gen =
  QCheck.Gen.(
    let span = pair nat (int_bound 9000) in
    frequency
      [
        (3, map2 (fun (a, l) s -> Poke (a, l, s)) span nat);
        (3, map (fun (a, l) -> Peek (a, l)) span);
        (2, map2 (fun (a, l) s -> Write (a, l, s)) span nat);
        (2, map (fun (a, l) -> Read (a, l)) span);
      ])

let show_dram_op = function
  | Poke (a, l, s) -> Printf.sprintf "poke %d+%d #%d" a l s
  | Peek (a, l) -> Printf.sprintf "peek %d+%d" a l
  | Write (a, l, s) -> Printf.sprintf "write %d+%d #%d" a l s
  | Read (a, l) -> Printf.sprintf "read %d+%d" a l

let prop_dram_sparse_matches_flat =
  QCheck.Test.make ~name:"sparse dram matches a flat byte array" ~count:200
    QCheck.(
      make
        ~print:(fun ((pages, tail), ops) ->
          Printf.sprintf "size %d: %s" ((pages * 4096) + tail)
            (String.concat "; " (List.map show_dram_op ops)))
        Gen.(pair (pair (int_bound 4) (int_range 1 4095)) (list_size (int_bound 40) dram_op_gen)))
    (fun ((pages, tail), ops) ->
      let size = (pages * 4096) + tail in
      let sim = Sim.create () in
      let d = mk_dram ~size sim in
      let flat = Bytes.make size '\000' in
      (* Clamp a generated span into [0, size]. *)
      let clamp a l =
        let a = a mod size in
        (a, min l (size - a))
      in
      let data l seed = Rng.bytes (Rng.create ~seed) l in
      let timed submit =
        let fired = ref false in
        assert (submit (fun () -> fired := true));
        Sim.run_for sim 1000;
        !fired
      in
      List.for_all
        (fun op ->
          match op with
          | Poke (a, l, seed) ->
            let a, l = clamp a l in
            let b = data l seed in
            Dram.poke d ~addr:a b;
            Bytes.blit b 0 flat a l;
            true
          | Peek (a, l) ->
            let a, l = clamp a l in
            Bytes.equal (Dram.peek d ~addr:a ~len:l) (Bytes.sub flat a l)
          | Write (a, l, seed) ->
            let a, l = clamp a l in
            let b = data l seed in
            Bytes.blit b 0 flat a l;
            timed (fun k -> Dram.write d ~addr:a b k)
          | Read (a, l) ->
            let a, l = clamp a l in
            let got = ref Bytes.empty in
            timed (fun k -> Dram.read d ~addr:a ~len:l (fun b -> got := b; k ()))
            && Bytes.equal !got (Bytes.sub flat a l))
        ops
      && Bytes.equal (Dram.peek d ~addr:0 ~len:size) flat)

(* Building a board must not pay for DRAM it never touches: the default
   64 MiB array costs only its page table until something is written. *)
let test_dram_kernel_footprint () =
  let module Kernel = Apiary_core.Kernel in
  let before = (Gc.quick_stat ()).Gc.heap_words in
  let sim = Sim.create () in
  let k = Kernel.create sim Kernel.default_config in
  let grown = (Gc.quick_stat ()).Gc.heap_words - before in
  ignore (Sys.opaque_identity k);
  let limit = 1 lsl 20 / (Sys.word_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "heap grew %d words (limit %d)" grown limit)
    true (grown < limit)

(* ------------------------------------------------------------------ *)
(* Segment allocator *)

let test_seg_alloc_basic () =
  let a = Seg_alloc.create ~base:0 ~size:4096 Seg_alloc.First_fit in
  let b1 = Result.get_ok (Seg_alloc.alloc a 100) in
  let b2 = Result.get_ok (Seg_alloc.alloc a 200) in
  Alcotest.(check bool) "disjoint" true (b2 >= b1 + 100);
  Alcotest.(check int) "used" 300 (Seg_alloc.used_bytes a);
  Seg_alloc.check_invariants a

let test_seg_alloc_alignment () =
  let a = Seg_alloc.create ~base:0 ~size:4096 Seg_alloc.First_fit in
  let b = Result.get_ok (Seg_alloc.alloc a ~align:256 10) in
  Alcotest.(check int) "aligned" 0 (b mod 256)

let test_seg_alloc_oom () =
  let a = Seg_alloc.create ~base:0 ~size:1024 Seg_alloc.First_fit in
  ignore (Result.get_ok (Seg_alloc.alloc a ~align:1 1000));
  (match Seg_alloc.alloc a ~align:1 100 with
  | Error `Out_of_memory -> ()
  | Ok _ -> Alcotest.fail "expected OOM")

let test_seg_alloc_free_coalesce () =
  let a = Seg_alloc.create ~base:0 ~size:4096 Seg_alloc.First_fit in
  let b1 = Result.get_ok (Seg_alloc.alloc a ~align:1 1024) in
  let b2 = Result.get_ok (Seg_alloc.alloc a ~align:1 1024) in
  let b3 = Result.get_ok (Seg_alloc.alloc a ~align:1 1024) in
  Seg_alloc.free a b1;
  Seg_alloc.free a b3;
  Seg_alloc.free a b2;
  Seg_alloc.check_invariants a;
  Alcotest.(check int) "fully coalesced" 1 (Seg_alloc.free_block_count a);
  Alcotest.(check int) "all free" 4096 (Seg_alloc.free_bytes a);
  (* Whole region allocatable again. *)
  ignore (Result.get_ok (Seg_alloc.alloc a ~align:1 4096))

let test_seg_alloc_double_free_rejected () =
  let a = Seg_alloc.create ~base:0 ~size:4096 Seg_alloc.First_fit in
  let b = Result.get_ok (Seg_alloc.alloc a 64) in
  Seg_alloc.free a b;
  (try
     Seg_alloc.free a b;
     Alcotest.fail "double free accepted"
   with Invalid_argument _ -> ())

let test_seg_alloc_best_fit_reduces_stranding () =
  (* Carve holes of 1000 (low address) then 100: a 90-byte request takes
     the 100 hole under best-fit, preserving the 1000 hole for a later big
     request, while first-fit chews the big hole and strands the layout. *)
  let mk policy =
    let a = Seg_alloc.create ~base:0 ~size:8192 policy in
    let h1000 = Result.get_ok (Seg_alloc.alloc a ~align:1 1000) in
    let g1 = Result.get_ok (Seg_alloc.alloc a ~align:1 64) in
    let h100 = Result.get_ok (Seg_alloc.alloc a ~align:1 100) in
    let g2 = Result.get_ok (Seg_alloc.alloc a ~align:1 (8192 - 100 - 64 - 1000)) in
    ignore (g1, g2);
    Seg_alloc.free a h100;
    Seg_alloc.free a h1000;
    a
  in
  let bf = mk Seg_alloc.Best_fit in
  ignore (Result.get_ok (Seg_alloc.alloc bf ~align:1 90));
  (match Seg_alloc.alloc bf ~align:1 950 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "best-fit should keep the big hole");
  let ff = mk Seg_alloc.First_fit in
  ignore (Result.get_ok (Seg_alloc.alloc ff ~align:1 90));
  (match Seg_alloc.alloc ff ~align:1 950 with
  | Error `Out_of_memory -> ()  (* first-fit strands the big hole *)
  | Ok _ -> Alcotest.fail "expected first-fit stranding in this layout")

let prop_seg_alloc_random_ops =
  (* Random alloc/free interleavings keep invariants and never hand out
     overlapping segments. *)
  QCheck.Test.make ~name:"random alloc/free keeps invariants" ~count:60
    QCheck.(list (pair bool (int_range 1 512)))
    (fun ops ->
      let a = Seg_alloc.create ~base:0 ~size:65536 Seg_alloc.First_fit in
      let live = ref [] in
      let check_no_overlap () =
        let sorted = List.sort compare !live in
        let rec ok = function
          | (b1, l1) :: ((b2, _) :: _ as rest) -> b1 + l1 <= b2 && ok rest
          | _ -> true
        in
        ok sorted
      in
      List.iter
        (fun (do_alloc, n) ->
          if do_alloc || !live = [] then begin
            match Seg_alloc.alloc a n with
            | Ok b -> live := (b, n) :: !live
            | Error `Out_of_memory -> ()
          end
          else begin
            match !live with
            | (b, _) :: rest ->
              Seg_alloc.free a b;
              live := rest
            | [] -> ()
          end;
          Seg_alloc.check_invariants a)
        ops;
      check_no_overlap ())

(* ------------------------------------------------------------------ *)
(* Paged baseline *)

let test_page_map_translate () =
  let pa = Page_alloc.create ~base:0x10000 ~size:(64 * 4096) ~page_bytes:4096 in
  let sp = Page_alloc.Space.create pa ~tlb_entries:8 ~walk_cycles:20 in
  let v = Result.get_ok (Page_alloc.Space.map sp 10000) in
  (* First touch misses the TLB, second hits. *)
  let _, c1 = Result.get_ok (Page_alloc.Space.translate sp v) in
  let _, c2 = Result.get_ok (Page_alloc.Space.translate sp v) in
  Alcotest.(check int) "miss cost" 20 c1;
  Alcotest.(check int) "hit cost" 1 c2;
  Alcotest.(check int) "hits" 1 (Page_alloc.Space.tlb_hits sp)

let test_page_internal_fragmentation () =
  let pa = Page_alloc.create ~base:0 ~size:(64 * 4096) ~page_bytes:4096 in
  let sp = Page_alloc.Space.create pa ~tlb_entries:8 ~walk_cycles:20 in
  ignore (Result.get_ok (Page_alloc.Space.map sp 1));
  Alcotest.(check int) "waste = page - 1" 4095 (Page_alloc.Space.internal_fragmentation sp)

let test_page_fault_on_unmapped () =
  let pa = Page_alloc.create ~base:0 ~size:(16 * 4096) ~page_bytes:4096 in
  let sp = Page_alloc.Space.create pa ~tlb_entries:4 ~walk_cycles:20 in
  (match Page_alloc.Space.translate sp 0 with
  | Error `Fault -> ()
  | Ok _ -> Alcotest.fail "expected fault")

let test_page_unmap_releases_frames () =
  let pa = Page_alloc.create ~base:0 ~size:(4 * 4096) ~page_bytes:4096 in
  let sp = Page_alloc.Space.create pa ~tlb_entries:4 ~walk_cycles:20 in
  let v = Result.get_ok (Page_alloc.Space.map sp (4 * 4096)) in
  Alcotest.(check int) "no frames left" 0 (Page_alloc.free_frames pa);
  (match Page_alloc.Space.map sp 1 with
  | Error `Out_of_memory -> ()
  | Ok _ -> Alcotest.fail "expected OOM");
  Page_alloc.Space.unmap sp ~vbase:v ~len:(4 * 4096);
  Alcotest.(check int) "frames back" 4 (Page_alloc.free_frames pa);
  ignore (Result.get_ok (Page_alloc.Space.map sp 1))

let test_page_tlb_eviction () =
  let pa = Page_alloc.create ~base:0 ~size:(64 * 4096) ~page_bytes:4096 in
  let sp = Page_alloc.Space.create pa ~tlb_entries:2 ~walk_cycles:20 in
  let v1 = Result.get_ok (Page_alloc.Space.map sp 4096) in
  let v2 = Result.get_ok (Page_alloc.Space.map sp 4096) in
  let v3 = Result.get_ok (Page_alloc.Space.map sp 4096) in
  ignore (Result.get_ok (Page_alloc.Space.translate sp v1));
  ignore (Result.get_ok (Page_alloc.Space.translate sp v2));
  ignore (Result.get_ok (Page_alloc.Space.translate sp v3));  (* evicts v1 *)
  let _, c = Result.get_ok (Page_alloc.Space.translate sp v1) in
  Alcotest.(check int) "v1 evicted, walk again" 20 c

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "mem"
    [
      ( "dram",
        [
          Alcotest.test_case "roundtrip" `Quick test_dram_write_read_roundtrip;
          Alcotest.test_case "row hit vs miss" `Quick test_dram_latency_row_hit_vs_miss;
          Alcotest.test_case "queue full" `Quick test_dram_queue_full;
          Alcotest.test_case "bank behaviour" `Quick test_dram_parallel_banks_faster_than_one;
          Alcotest.test_case "oob" `Quick test_dram_oob_raises;
          Alcotest.test_case "poke/peek" `Quick test_dram_poke_peek;
          Alcotest.test_case "negative length rejected" `Quick
            test_dram_negative_len_rejected;
          Alcotest.test_case "kernel footprint" `Quick test_dram_kernel_footprint;
          qc prop_dram_sparse_matches_flat;
        ] );
      ( "seg_alloc",
        [
          Alcotest.test_case "basic" `Quick test_seg_alloc_basic;
          Alcotest.test_case "alignment" `Quick test_seg_alloc_alignment;
          Alcotest.test_case "oom" `Quick test_seg_alloc_oom;
          Alcotest.test_case "free+coalesce" `Quick test_seg_alloc_free_coalesce;
          Alcotest.test_case "double free" `Quick test_seg_alloc_double_free_rejected;
          Alcotest.test_case "best-fit vs first-fit" `Quick test_seg_alloc_best_fit_reduces_stranding;
          qc prop_seg_alloc_random_ops;
        ] );
      ( "pages",
        [
          Alcotest.test_case "map+translate" `Quick test_page_map_translate;
          Alcotest.test_case "internal frag" `Quick test_page_internal_fragmentation;
          Alcotest.test_case "fault" `Quick test_page_fault_on_unmapped;
          Alcotest.test_case "unmap releases" `Quick test_page_unmap_releases_frames;
          Alcotest.test_case "tlb eviction" `Quick test_page_tlb_eviction;
        ] );
    ]
