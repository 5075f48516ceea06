(* Integration tests for the Apiary core: wire codec, boot/naming,
   connections, data RPC, the memory service with capability enforcement,
   rate limiting, fail-stop fault handling (a Health stuck alarm is the
   one hang signal; fail-stopping on it is a subscriber's policy),
   monitor parking, tile restart, partial reconfiguration, and tracing. *)

module Sim = Apiary_engine.Sim
module Stats = Apiary_engine.Stats
module Rights = Apiary_cap.Rights
module Message = Apiary_core.Message
module Wire = Apiary_core.Wire
module Monitor = Apiary_core.Monitor
module Shell = Apiary_core.Shell
module Kernel = Apiary_core.Kernel
module Health = Apiary_core.Health
module Flight = Apiary_obs.Flight
module Span = Apiary_obs.Span
module Rate_limiter = Apiary_core.Rate_limiter
module Mesh = Apiary_noc.Mesh

(* ------------------------------------------------------------------ *)
(* Helpers *)

let mk_kernel ?(enforce = true) ?(rate = 1000.0) ?(burst = 100_000)
    ?check_latency ?monitor_overrides () =
  let sim = Sim.create () in
  let check_latency =
    Option.value ~default:Monitor.default_config.Monitor.check_latency check_latency
  in
  let cfg =
    {
      Kernel.default_config with
      Kernel.monitor =
        {
          Monitor.default_config with
          Monitor.enforce;
          rate;
          burst;
          check_latency;
        };
      monitor_overrides = Option.value ~default:[] monitor_overrides;
      dram_bytes = 1 lsl 20;
    }
  in
  (sim, Kernel.create sim cfg)

let echo_behavior ?(cost = 0) ?on_tick name =
  Shell.behavior name ?on_tick
    ~on_boot:(fun sh -> Shell.register_service sh name)
    ~on_message:(fun sh msg ->
      match msg.Message.kind with
      | Message.Data { opcode } ->
        if cost > 0 then Shell.busy sh cost;
        Shell.respond sh msg ~opcode msg.Message.payload
      | _ -> ())

let idle_behavior name = Shell.behavior name

(* Run a function on a client tile after services have had time to boot
   and register. *)
let with_client kernel ~tile f =
  Kernel.install kernel ~tile
    (Shell.behavior "client" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) 300 (fun () -> f sh)))

let b = Bytes.of_string

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let arbitrary_message =
  let open QCheck.Gen in
  let addr = map2 (fun t e -> { Message.tile = t; ep = e }) (int_bound 100) (int_bound 3) in
  let name = map (fun n -> "svc" ^ string_of_int n) (int_bound 30) in
  let control =
    oneof
      [
        map (fun name -> Message.Register { name }) name;
        return Message.Register_ok;
        map (fun name -> Message.Lookup { name }) name;
        map2 (fun name result -> Message.Lookup_reply { name; result }) name (option addr);
        return Message.Connect_req;
        map2 (fun cap r -> Message.Connect_ok { cap; rate_millis = r; burst = r / 4 }) (int_bound 0xFFFF) (int_bound 100_000);
        map (fun n -> Message.Connect_denied { reason = "r" ^ string_of_int n }) (int_bound 9);
        map (fun bytes -> Message.Alloc_req { bytes }) (int_bound 100_000);
        map2 (fun cap base -> Message.Alloc_ok { cap; base; bytes = 64 }) (int_bound 0xFFFF) (int_bound 100_000);
        map (fun n -> Message.Alloc_denied { reason = "r" ^ string_of_int n }) (int_bound 9);
        map (fun base -> Message.Free_req { base }) (int_bound 100_000);
        return Message.Free_ok;
        map2 (fun addr len -> Message.Mem_read_req { addr; len }) (int_bound 100_000) (int_bound 4096);
        map (fun addr -> Message.Mem_write_req { addr }) (int_bound 100_000);
        return Message.Mem_read_ok;
        return Message.Mem_write_ok;
        map (fun n -> Message.Mem_denied { reason = "r" ^ string_of_int n }) (int_bound 9);
        map (fun n -> Message.Nack { reason = "r" ^ string_of_int n }) (int_bound 9);
      ]
  in
  let kind =
    oneof [ map (fun opcode -> Message.Data { opcode }) (int_bound 1000); map (fun c -> Message.Control c) control ]
  in
  let gen =
    map
      (fun (src, dst, kind, corr, is_reply, cls, payload, at) ->
        Message.make ~src ~dst ~kind ~corr ~is_reply ~cls
          ~payload:(Bytes.of_string payload) ~now:at ())
      (tup8 addr addr kind (int_bound 100_000) bool (int_bound 3)
         (string_size (int_bound 200)) (int_bound 1_000_000))
  in
  QCheck.make gen

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire encode/decode roundtrip" ~count:500 arbitrary_message
    (fun m -> match Wire.decode (Wire.encode m) with Ok m' -> m' = m | Error _ -> false)

let prop_wire_rejects_truncation =
  QCheck.Test.make ~name:"wire rejects truncated input" ~count:200 arbitrary_message
    (fun m ->
      let e = Wire.encode m in
      if Bytes.length e < 2 then true
      else
        match Wire.decode (Bytes.sub e 0 (Bytes.length e / 2)) with
        | Error _ -> true
        | Ok _ -> false)

let test_wire_garbage () =
  (match Wire.decode (b "\xff\xff\xff") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded garbage");
  match Wire.decode (Bytes.make 64 '\xff') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded garbage 64"

let test_message_size () =
  let m =
    Message.make
      ~src:{ Message.tile = 0; ep = 1 }
      ~dst:{ Message.tile = 1; ep = 1 }
      ~kind:(Message.Data { opcode = 7 })
      ~payload:(Bytes.create 100) ~now:0 ()
  in
  Alcotest.(check int) "size" (Message.header_bytes + 100) (Message.size_bytes m)

(* ------------------------------------------------------------------ *)
(* Rate limiter unit *)

let test_rate_limiter_refill () =
  let rl = Rate_limiter.create ~rate:2.0 ~burst:10 in
  Alcotest.(check bool) "burst available" true (Rate_limiter.try_take rl 10);
  Alcotest.(check bool) "empty now" false (Rate_limiter.try_take rl 1);
  Rate_limiter.advance rl ~now:5;
  (* 5 cycles * 2/cycle = 10 tokens *)
  Alcotest.(check bool) "refilled" true (Rate_limiter.try_take rl 10)

let test_rate_limiter_burst_cap () =
  let rl = Rate_limiter.create ~rate:1.0 ~burst:4 in
  Rate_limiter.advance rl ~now:1000;
  Alcotest.(check bool) "capped at burst" false (Rate_limiter.try_take rl 5);
  Alcotest.(check bool) "burst ok" true (Rate_limiter.try_take rl 4)

let test_rate_limiter_unlimited () =
  let rl = Rate_limiter.unlimited () in
  Alcotest.(check bool) "always admits" true (Rate_limiter.try_take rl 1_000_000)

(* ------------------------------------------------------------------ *)
(* Naming + connection + RPC *)

let test_register_lookup () =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1 (echo_behavior "echo");
  let found = ref None in
  with_client k ~tile:2 (fun sh ->
      Shell.lookup sh "echo" (fun r -> found := r));
  Sim.run_for sim 2000;
  match !found with
  | Some a -> Alcotest.(check int) "resolves to tile 1" 1 a.Message.tile
  | None -> Alcotest.fail "lookup failed"

let test_lookup_unknown () =
  let sim, k = mk_kernel () in
  let result = ref (Some { Message.tile = 9; ep = 9 }) in
  with_client k ~tile:2 (fun sh -> Shell.lookup sh "ghost" (fun r -> result := r));
  Sim.run_for sim 2000;
  Alcotest.(check bool) "unknown -> None" true (!result = None)

let test_echo_rpc () =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1 (echo_behavior "echo");
  let reply = ref None in
  with_client k ~tile:6 (fun sh ->
      Shell.connect sh ~service:"echo" (fun r ->
          match r with
          | Error e -> Alcotest.failf "connect: %s" (Shell.rpc_error_to_string e)
          | Ok conn ->
            Shell.request sh conn ~opcode:42 (b "hello") (fun r ->
                match r with
                | Ok m -> reply := Some (Bytes.to_string m.Message.payload)
                | Error e -> Alcotest.failf "rpc: %s" (Shell.rpc_error_to_string e))));
  Sim.run_for sim 5000;
  Alcotest.(check (option string)) "echoed" (Some "hello") !reply

let test_connect_unknown_service () =
  let sim, k = mk_kernel () in
  let got = ref None in
  with_client k ~tile:2 (fun sh ->
      Shell.connect sh ~service:"ghost" (fun r ->
          match r with Error (Denied _) -> got := Some true | _ -> got := Some false));
  Sim.run_for sim 2000;
  Alcotest.(check (option bool)) "denied" (Some true) !got

let test_connect_policy_refusal () =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1
    (Shell.behavior "picky"
       ~on_boot:(fun sh ->
         Shell.set_connect_policy sh (fun _ -> false);
         Shell.register_service sh "picky"));
  let got = ref None in
  with_client k ~tile:2 (fun sh ->
      Shell.connect sh ~service:"picky" (fun r ->
          match r with
          | Error (Denied reason) -> got := Some reason
          | _ -> got := Some "unexpected"));
  Sim.run_for sim 3000;
  Alcotest.(check (option string)) "policy refused" (Some "refused by policy") !got

let test_rpc_latency_positive_and_scales () =
  (* RPC across 1 hop vs across the diagonal: farther peer -> larger
     round-trip. *)
  let run client server =
    let sim, k = mk_kernel () in
    Kernel.install k ~tile:server (echo_behavior "echo");
    let t0 = ref 0 and dt = ref None in
    with_client k ~tile:client (fun sh ->
        Shell.connect sh ~service:"echo" (fun r ->
            match r with
            | Error _ -> ()
            | Ok conn ->
              t0 := Shell.now sh;
              Shell.request sh conn ~opcode:0 (b "x") (fun _ ->
                  dt := Some (Shell.now sh - !t0))));
    Sim.run_for sim 8000;
    match !dt with Some d -> d | None -> Alcotest.fail "rpc never completed"
  in
  let near = run 1 2 in
  let far = run 1 14 in
  Alcotest.(check bool) "positive" true (near > 0);
  Alcotest.(check bool)
    (Printf.sprintf "far (%d) > near (%d)" far near)
    true (far > near)

let test_reply_window_single_use () =
  (* A malicious server responding twice: the second reply must be denied
     by its monitor (no reply window left). *)
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1
    (Shell.behavior "doubler"
       ~on_boot:(fun sh -> Shell.register_service sh "doubler")
       ~on_message:(fun sh msg ->
         Shell.respond sh msg ~opcode:1 (b "first");
         Shell.respond sh msg ~opcode:1 (b "second")));
  let replies = ref 0 in
  with_client k ~tile:2 (fun sh ->
      Shell.connect sh ~service:"doubler" (fun r ->
          match r with
          | Error _ -> ()
          | Ok conn ->
            Shell.request sh conn ~opcode:0 (b "q") (fun r ->
                if Result.is_ok r then incr replies)));
  Sim.run_for sim 5000;
  Alcotest.(check int) "exactly one reply got through" 1 !replies;
  Alcotest.(check bool) "second was denied" true (Monitor.denied (Kernel.monitor k 1) >= 1)

(* ------------------------------------------------------------------ *)
(* Memory service *)

let test_alloc_write_read () =
  let sim, k = mk_kernel () in
  let readback = ref None in
  with_client k ~tile:3 (fun sh ->
      Shell.alloc sh ~bytes:256 (fun r ->
          match r with
          | Error e -> Alcotest.failf "alloc: %s" (Shell.rpc_error_to_string e)
          | Ok h ->
            Shell.write_mem sh h ~off:16 (b "segment data") (fun r ->
                match r with
                | Error e -> Alcotest.failf "write: %s" (Shell.rpc_error_to_string e)
                | Ok () ->
                  Shell.read_mem sh h ~off:16 ~len:12 (fun r ->
                      match r with
                      | Ok data -> readback := Some (Bytes.to_string data)
                      | Error e ->
                        Alcotest.failf "read: %s" (Shell.rpc_error_to_string e)))));
  Sim.run_for sim 10_000;
  Alcotest.(check (option string)) "roundtrip" (Some "segment data") !readback

let test_mem_oob_denied_locally () =
  let sim, k = mk_kernel () in
  let got = ref None in
  with_client k ~tile:3 (fun sh ->
      Shell.alloc sh ~bytes:64 (fun r ->
          match r with
          | Error _ -> ()
          | Ok h ->
            Shell.read_mem sh h ~off:32 ~len:64 (fun r ->
                match r with
                | Error (Denied reason) -> got := Some reason
                | _ -> got := Some "unexpected")));
  Sim.run_for sim 10_000;
  (match !got with
  | Some reason ->
    Alcotest.(check bool) "bounds denial" true
      (String.length reason > 0 && String.sub reason 0 7 = "mem cap")
  | None -> Alcotest.fail "no result");
  Alcotest.(check bool) "denied counted" true (Monitor.denied (Kernel.monitor k 3) >= 1)

let test_free_revokes_cap () =
  let sim, k = mk_kernel () in
  let got = ref None in
  with_client k ~tile:3 (fun sh ->
      Shell.alloc sh ~bytes:64 (fun r ->
          match r with
          | Error _ -> ()
          | Ok h ->
            Shell.free sh h (fun r ->
                match r with
                | Error _ -> ()
                | Ok () ->
                  Shell.read_mem sh h ~off:0 ~len:8 (fun r ->
                      match r with
                      | Error (Denied _) -> got := Some true
                      | _ -> got := Some false))));
  Sim.run_for sim 10_000;
  Alcotest.(check (option bool)) "stale cap denied" (Some true) !got

let test_alloc_oom () =
  let sim, k = mk_kernel () in
  let got = ref None in
  with_client k ~tile:3 (fun sh ->
      Shell.alloc sh ~bytes:(1 lsl 21) (* > 1 MiB region *) (fun r ->
          match r with
          | Error (Denied reason) -> got := Some reason
          | _ -> got := Some "unexpected"));
  Sim.run_for sim 10_000;
  Alcotest.(check (option string)) "oom" (Some "out of memory") !got

let test_free_not_owner () =
  let sim, k = mk_kernel () in
  let base_ref = ref None in
  with_client k ~tile:3 (fun sh ->
      Shell.alloc sh ~bytes:64 (fun r ->
          match r with Ok h -> base_ref := Some h | Error _ -> ()));
  let got = ref None in
  with_client k ~tile:4 (fun sh ->
      Sim.after (Shell.sim sh) 1500 (fun () ->
          match !base_ref with
          | None -> ()
          | Some h ->
            (* Tile 4 forges a free for tile 3's segment. It has no cap,
               but Free_req only needs the base — ownership is checked by
               the service. *)
            Shell.free sh { h with mcap = 0 } (fun r ->
                match r with
                | Error (Denied reason) -> got := Some reason
                | _ -> got := Some "unexpected")));
  Sim.run_for sim 15_000;
  Alcotest.(check (option string)) "not owner" (Some "not the owner") !got

let test_grant_mem_shared_read () =
  let sim, k = mk_kernel () in
  let producer_handle = ref None in
  let consumer_got = ref None in
  Kernel.install k ~tile:5
    (Shell.behavior "consumer"
       ~on_boot:(fun sh -> Shell.register_service sh "consumer")
       ~on_message:(fun sh msg ->
         match msg.Message.kind with
         | Message.Data { opcode = 77 } ->
           (* Payload carries the granted cap handle. *)
           let h = int_of_string (Bytes.to_string msg.Message.payload) in
           (match Shell.mem_handle_of_grant sh h with
           | None -> consumer_got := Some "bad handle"
           | Some mh ->
             Shell.read_mem sh mh ~off:0 ~len:6 (fun r ->
                 match r with
                 | Ok data -> consumer_got := Some (Bytes.to_string data)
                 | Error e -> consumer_got := Some (Shell.rpc_error_to_string e)))
         | _ -> ()));
  with_client k ~tile:3 (fun sh ->
      Shell.alloc sh ~bytes:64 (fun r ->
          match r with
          | Error _ -> ()
          | Ok h ->
            producer_handle := Some h;
            Shell.write_mem sh h ~off:0 (b "shared") (fun _ ->
                Shell.connect sh ~service:"consumer" (fun r ->
                    match r with
                    | Error _ -> ()
                    | Ok conn ->
                      (match Shell.grant_mem sh h ~to_tile:5 ~rights:Rights.ro with
                      | Ok gh ->
                        Shell.send_data sh conn ~opcode:77 (b (string_of_int gh))
                      | Error _ -> ())))));
  Sim.run_for sim 15_000;
  Alcotest.(check (option string)) "consumer read shared data" (Some "shared")
    !consumer_got

(* ------------------------------------------------------------------ *)
(* Enforcement: raw sends, flooding *)

let test_raw_send_denied_when_enforced () =
  let sim, k = mk_kernel ~enforce:true () in
  let victim_got = ref 0 in
  Kernel.install k ~tile:1
    (Shell.behavior "victim" ~on_message:(fun _ msg ->
         match msg.Message.kind with Message.Data _ -> incr victim_got | _ -> ()));
  with_client k ~tile:2 (fun sh ->
      Shell.send_raw sh ~dst:{ Message.tile = 1; ep = 1 } ~opcode:1 (b "attack"));
  Sim.run_for sim 3000;
  Alcotest.(check int) "nothing delivered" 0 !victim_got;
  Alcotest.(check bool) "denied" true (Monitor.denied (Kernel.monitor k 2) >= 1)

let test_raw_send_passes_without_enforcement () =
  let sim, k = mk_kernel ~enforce:false () in
  let victim_got = ref 0 in
  Kernel.install k ~tile:1
    (Shell.behavior "victim" ~on_message:(fun _ msg ->
         match msg.Message.kind with Message.Data _ -> incr victim_got | _ -> ()));
  with_client k ~tile:2 (fun sh ->
      Shell.send_raw sh ~dst:{ Message.tile = 1; ep = 1 } ~opcode:1 (b "attack"));
  Sim.run_for sim 3000;
  Alcotest.(check int) "delivered without monitor" 1 !victim_got

let test_rate_limit_caps_flood () =
  (* A tile flooding 1 msg/cycle over a legitimate connection, against a
     0.2 flits/cycle budget, must be throttled to ~0.1 msg/cycle
     (2 flits per message) with the excess dropped at the egress queue. *)
  let sim, k = mk_kernel ~rate:0.2 ~burst:8 () in
  Kernel.install k ~tile:1
    (Shell.behavior "sink" ~on_boot:(fun sh -> Shell.register_service sh "sink"));
  Kernel.install k ~tile:2
    (Shell.behavior "flooder" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) 300 (fun () ->
             Shell.connect sh ~service:"sink" (fun r ->
                 match r with
                 | Error _ -> ()
                 | Ok conn ->
                   Sim.add_clocked (Shell.sim sh) (fun () ->
                       Shell.send_data sh conn ~opcode:0 (b "x");
                       Sim.Busy)))));
  Sim.run_for sim 10_000;
  let out = Monitor.msgs_out (Kernel.monitor k 2) in
  let dropped = Monitor.dropped (Kernel.monitor k 2) in
  (* Each message is 17 B = 3 flits; ~9.6k flooding cycles * 0.2
     flits/cycle / 3 flits/msg ~ 640 msgs. *)
  Alcotest.(check bool)
    (Printf.sprintf "flood throttled: out=%d dropped=%d" out dropped)
    true
    (out <= 720 && out >= 550 && dropped > 5000);
  Alcotest.(check bool) "rate stalls recorded" true
    (Monitor.rate_stalls (Kernel.monitor k 2) > 0)

(* ------------------------------------------------------------------ *)
(* Fail-stop *)

let test_fault_nacks_peers () =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1 (echo_behavior "echo");
  let errors = ref [] in
  let conn_ref = ref None in
  with_client k ~tile:2 (fun sh ->
      Shell.connect sh ~service:"echo" (fun r ->
          match r with Ok c -> conn_ref := Some (sh, c) | Error _ -> ()));
  Sim.after sim 2000 (fun () -> Monitor.fault (Kernel.monitor k 1) "injected");
  Sim.after sim 2500 (fun () ->
      match !conn_ref with
      | None -> ()
      | Some (sh, conn) ->
        Shell.request sh conn ~opcode:0 (b "are you there") (fun r ->
            match r with
            | Error e -> errors := Shell.rpc_error_to_string e :: !errors
            | Ok _ -> errors := "unexpected reply" :: !errors));
  Sim.run_for sim 30_000;
  match !errors with
  | [ e ] ->
    (* Either the egress cap check fails (cap was revoked at fault) or
       the draining monitor NACKs. Both are acceptable fail-fast paths;
       with cap revocation the denial comes first. *)
    Alcotest.(check bool)
      (Printf.sprintf "fail fast (%s)" e)
      true
      (String.length e >= 6 && (String.sub e 0 6 = "denied" || String.sub e 0 6 = "nacked"))
  | other -> Alcotest.failf "expected one error, got %d" (List.length other)

let test_fault_isolates_other_app () =
  (* Tile 1 faults; an unrelated pair (3 -> 4) keeps working. *)
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1 (echo_behavior "doomed");
  Kernel.install k ~tile:4 (echo_behavior "healthy");
  let ok_replies = ref 0 in
  with_client k ~tile:3 (fun sh ->
      Shell.connect sh ~service:"healthy" (fun r ->
          match r with
          | Error _ -> ()
          | Ok conn ->
            Sim.every (Shell.sim sh) 100 (fun () ->
                Shell.request sh conn ~opcode:0 (b "hi") (fun r ->
                    if Result.is_ok r then incr ok_replies))));
  Sim.after sim 3000 (fun () -> Monitor.fault (Kernel.monitor k 1) "injected");
  Sim.run_for sim 20_000;
  Alcotest.(check bool)
    (Printf.sprintf "healthy app unaffected (%d replies)" !ok_replies)
    true (!ok_replies > 100);
  Alcotest.(check (list (pair int string))) "fault recorded"
    [ (1, "injected") ] (Kernel.faults k)

(* Health is the board's one hang detector: a subscriber that fail-stops
   every stuck tile turns its alarm into the ordinary fault path. *)
let test_stuck_alarm_fail_stops () =
  let sim, k = mk_kernel () in
  let h = Health.create k in
  Health.on_alarm h (function
    | Health.Stuck_tile { tile; _ } -> Monitor.fault (Kernel.monitor k tile) "stuck"
    | Health.Congested_router _ -> ());
  Kernel.install k ~tile:1
    (Shell.behavior "hanger"
       ~on_boot:(fun sh -> Shell.register_service sh "hanger")
       ~on_message:(fun sh _ -> Shell.busy sh 1_000_000));
  with_client k ~tile:2 (fun sh ->
      Shell.connect sh ~service:"hanger" (fun r ->
          match r with
          | Error _ -> ()
          | Ok conn ->
            (* Two messages: handling the first hangs the accelerator, the
               second then sits in the queue and misses the deadline. *)
            Shell.send_data sh conn ~opcode:0 (b "first");
            Shell.send_data sh conn ~opcode:0 (b "second")));
  Sim.run_for sim 10_000;
  Alcotest.(check string) "hung tile fail-stopped" "draining(stuck)"
    (Monitor.state_to_string (Monitor.state (Kernel.monitor k 1)));
  Alcotest.(check (list (pair int string))) "one fault" [ (1, "stuck") ]
    (Kernel.faults k)

(* A tile serving a slow request has nothing to do until [busy_until],
   so its monitor parks instead of ticking through the service time. A
   no-op [on_tick] keeps it ticking every cycle; replies must land on
   the same cycles either way. *)
let test_serving_monitor_parks () =
  let run ~ticking =
    let sim, k = mk_kernel () in
    let on_tick = if ticking then Some (fun _ -> ()) else None in
    Kernel.install k ~tile:1 (echo_behavior ~cost:300 ?on_tick "slow");
    let replies = ref [] in
    with_client k ~tile:2 (fun sh ->
        Shell.connect sh ~service:"slow" (fun r ->
            match r with
            | Error _ -> ()
            | Ok conn ->
              (* Two request chains, so one request always queues behind
                 the one being served. *)
              let rec go n =
                if n > 0 then
                  Shell.request sh conn ~opcode:1 (b "ping") (fun _ ->
                      replies := Shell.now sh :: !replies;
                      go (n - 1))
              in
              go 3;
              go 3));
    Sim.run_for sim 10_000;
    (List.rev !replies, fst (Sim.tick_counts sim))
  in
  let parked, parked_ticks = run ~ticking:false in
  let ticking, ticking_ticks = run ~ticking:true in
  Alcotest.(check int) "all replies" 6 (List.length parked);
  Alcotest.(check (list int)) "same reply cycles" ticking parked;
  Alcotest.(check bool)
    (Printf.sprintf "service time not ticked (%d vs %d ticks)" parked_ticks
       ticking_ticks)
    true
    (parked_ticks + 1_000 < ticking_ticks)

(* The parking rule over generated loads: 1-3 echo servers with service
   costs of 0-500 cycles, and 1-3 clients, each a chain of 1-5 requests
   of growing size to one server from a random start cycle. A no-op
   [on_tick] on every server keeps its monitor ticking every cycle; each
   client must see the same (cycle, ok) log and the board the same
   message count either way, and parking may only save ticker calls. *)
let park_gen =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 3) (int_range 0 500))
      (list_size (int_range 1 3)
         (triple (int_range 0 2) (int_range 1 5) (int_range 0 3_999))))

let run_park_case ~ticking (costs, clients) =
  let sim, k = mk_kernel () in
  let on_tick = if ticking then Some (fun _ -> ()) else None in
  List.iteri
    (fun i cost ->
      Kernel.install k ~tile:(1 + i)
        (echo_behavior ~cost ?on_tick (Printf.sprintf "srv%d" i)))
    costs;
  let logs =
    List.mapi
      (fun j (srv, n, start) ->
        let log = ref [] in
        let note sh ok = log := (Shell.now sh, ok) :: !log in
        let service = Printf.sprintf "srv%d" (srv mod List.length costs) in
        Kernel.install k ~tile:(12 + j)
          (Shell.behavior "client" ~on_boot:(fun sh ->
               Sim.after (Shell.sim sh) start (fun () ->
                   Shell.connect sh ~service (function
                     | Error _ -> note sh false
                     | Ok conn ->
                       let rec go i =
                         if i <= n then
                           Shell.request sh conn ~opcode:1
                             (Bytes.make (16 * i) 'r') (fun r ->
                               note sh (Result.is_ok r);
                               go (i + 1))
                       in
                       go 1))));
        log)
      clients
  in
  Sim.run_for sim 20_000;
  ( List.map (fun log -> List.rev !log) logs,
    Kernel.total_msgs k,
    fst (Sim.tick_counts sim) )

let prop_serving_monitors_park =
  QCheck.Test.make ~name:"serving monitors park exactly like ticking ones"
    ~count:60
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) (list (triple int int int)))
       park_gen)
    (fun case ->
      let parked, msgs, parked_ticks = run_park_case ~ticking:false case in
      let ticking, ticking_msgs, ticking_ticks = run_park_case ~ticking:true case in
      parked = ticking && msgs = ticking_msgs
      && parked_ticks <= ticking_ticks
      && List.exists (List.exists snd) parked)

let test_explicit_raise_fault () =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1
    (Shell.behavior "buggy" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) 100 (fun () ->
             Shell.raise_fault sh "assertion failed")));
  Sim.run_for sim 1000;
  match Kernel.faults k with
  | [ (1, reason) ] ->
    Alcotest.(check string) "reason" "accelerator fault: assertion failed" reason
  | _ -> Alcotest.fail "fault not recorded"

(* ------------------------------------------------------------------ *)
(* Reconfiguration *)

let test_reconfigure_swaps_service () =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1 (echo_behavior "v1");
  let done_at = ref 0 in
  Sim.after sim 2000 (fun () ->
      Kernel.reconfigure k ~tile:1 ~bitstream_bytes:80_000 (echo_behavior "v2")
        ~on_done:(fun () -> done_at := Sim.now sim));
  let v1 = ref None and v2 = ref None in
  Sim.after sim 30_000 (fun () ->
      let m = Kernel.monitor k 9 in
      Monitor.lookup m "v1" (fun r -> v1 := Some r);
      Monitor.lookup m "v2" (fun r -> v2 := Some r));
  Kernel.install k ~tile:9 (idle_behavior "prober");
  Sim.run_for sim 40_000;
  Alcotest.(check bool) "PR took ~10k cycles" true (!done_at >= 2000 + 9000);
  Alcotest.(check bool) "old name gone" true (!v1 = Some None);
  (match !v2 with
  | Some (Some a) -> Alcotest.(check int) "new name registered" 1 a.Message.tile
  | _ -> Alcotest.fail "v2 not registered")

let test_offline_tile_drops_traffic () =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1 (echo_behavior "echo");
  let conn_ref = ref None in
  with_client k ~tile:2 (fun sh ->
      Shell.connect sh ~service:"echo" (fun r ->
          match r with Ok c -> conn_ref := Some (sh, c) | Error _ -> ()));
  Sim.after sim 2000 (fun () -> Monitor.set_offline (Kernel.monitor k 1));
  let err = ref None in
  Sim.after sim 2500 (fun () ->
      match !conn_ref with
      | None -> ()
      | Some (sh, conn) ->
        Shell.request sh conn ~opcode:0 (b "?") (fun r ->
            match r with
            | Error e -> err := Some (Shell.rpc_error_to_string e)
            | Ok _ -> err := Some "unexpected"));
  Sim.run_for sim 40_000;
  (* Cap revoked at offline -> denied locally; or timeout. *)
  match !err with
  | Some e ->
    Alcotest.(check bool) (Printf.sprintf "no reply (%s)" e) true (e <> "unexpected")
  | None -> Alcotest.fail "request never resolved"

(* ------------------------------------------------------------------ *)
(* Per-class egress queues + per-connection rate limits *)

let test_egress_classes_avoid_self_hol () =
  (* A tile sends a train of bulk 4 KiB class-0 messages and then one
     small class-1 message. With one egress FIFO the priority message
     waits behind the train; with per-class queues it jumps it. *)
  let arrival ~classes =
    let sim = Sim.create () in
    let cfg =
      {
        Kernel.default_config with
        Kernel.monitor =
          {
            Monitor.default_config with
            Monitor.rate = 4.0;
            burst = 512;
            egress_classes = classes;
          };
        dram_bytes = 1 lsl 20;
      }
    in
    let k = Kernel.create sim cfg in
    Kernel.install k ~tile:1 (idle_behavior "sink");
    let got_priority_at = ref 0 in
    Kernel.install k ~tile:1
      (Shell.behavior "sink" ~on_boot:(fun sh -> Shell.register_service sh "sink")
         ~on_message:(fun sh msg ->
           match msg.Message.kind with
           | Message.Data { opcode = 9 } -> got_priority_at := Shell.now sh
           | _ -> ()));
    with_client k ~tile:2 (fun sh ->
        Shell.connect sh ~service:"sink" (fun r ->
            match r with
            | Error _ -> ()
            | Ok conn ->
              for _ = 1 to 8 do
                Shell.send_data sh conn ~opcode:1 ~cls:0 (Bytes.create 4096)
              done;
              Shell.send_data sh conn ~opcode:9 ~cls:1 (b "now!")));
    Sim.run_for sim 30_000;
    !got_priority_at
  in
  let hol = arrival ~classes:1 in
  let fast = arrival ~classes:2 in
  (* Both include ~340 cycles of connect setup; the priority message
     itself is delayed by the bulk train only in the single-FIFO case. *)
  Alcotest.(check bool)
    (Printf.sprintf "per-class %d << single FIFO %d" fast hol)
    true
    (fast > 0 && hol > 0 && fast + 300 < hol)

let test_per_connection_rate_limit () =
  (* The victim grants the attacker only 0.5 flits/cycle; the attacker's
     simultaneous class-1 traffic to an open service is unaffected. *)
  let sim, k = mk_kernel () in
  (* Override tile 2 with two egress classes and a generous tile bucket so
     only the per-connection bucket binds. *)
  let sim, k =
    ignore (sim, k);
    let sim = Sim.create () in
    let cfg =
      {
        Kernel.default_config with
        Kernel.monitor =
          {
            Monitor.default_config with
            Monitor.rate = 1000.0;
            burst = 100_000;
            egress_classes = 2;
          };
        dram_bytes = 1 lsl 20;
      }
    in
    (sim, Kernel.create sim cfg)
  in
  Kernel.install k ~tile:1
    (Shell.behavior "victim" ~on_boot:(fun sh ->
         Shell.set_grant_policy sh (fun _ ->
             Shell.Accept_limited { rate = 0.5; burst = 16 });
         Shell.register_service sh "victim"));
  let open_count = ref 0 in
  Kernel.install k ~tile:4
    (Shell.behavior "open"
       ~on_boot:(fun sh -> Shell.register_service sh "open")
       ~on_message:(fun _ m ->
         match m.Message.kind with Message.Data _ -> incr open_count | _ -> ()));
  with_client k ~tile:2 (fun sh ->
      Shell.connect sh ~service:"victim" (fun r ->
          match r with
          | Error _ -> ()
          | Ok vconn ->
            Shell.connect sh ~service:"open" (fun r ->
                match r with
                | Error _ -> ()
                | Ok oconn ->
                  Sim.add_clocked (Shell.sim sh) (fun () ->
                      (* Flood the limited victim on class 0... *)
                      Shell.send_data sh vconn ~opcode:1 ~cls:0 (b "flood!");
                      (* ...while talking to the open service on class 1
                         every 50 cycles. *)
                      if Shell.now sh mod 50 = 0 then
                        Shell.send_data sh oconn ~opcode:2 ~cls:1 (b "legit");
                      Sim.Busy))));
  Sim.run_for sim 20_000;
  let attacker = Kernel.monitor k 2 in
  let out = Monitor.msgs_out attacker in
  (* Victim flood: 22-byte messages = 3 flits at 0.5 flits/cycle ->
     ~0.17 msg/cycle -> <= ~3800 over the active window, NOT ~19k. *)
  Alcotest.(check bool)
    (Printf.sprintf "flood throttled by conn bucket (out=%d)" out)
    true
    (out < 5_000);
  Alcotest.(check bool)
    (Printf.sprintf "legit flow unaffected (%d)" !open_count)
    true
    (!open_count > 300)

let test_unlimited_grant_has_no_bucket () =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1 (echo_behavior "echo");
  let done_ = ref 0 in
  with_client k ~tile:2 (fun sh ->
      Shell.connect sh ~service:"echo" (fun r ->
          match r with
          | Error _ -> ()
          | Ok conn ->
            for _ = 1 to 20 do
              Shell.request sh conn ~opcode:1 (b "x") (fun r ->
                  if Result.is_ok r then incr done_)
            done));
  Sim.run_for sim 10_000;
  Alcotest.(check int) "all through" 20 !done_

(* ------------------------------------------------------------------ *)
(* Monitor & kernel edge cases *)

let test_egress_overflow_drops_and_notifies () =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1 (echo_behavior "echo");
  let errors = ref 0 in
  with_client k ~tile:2 (fun sh ->
      Shell.set_on_error sh (fun _ -> incr errors);
      Shell.connect sh ~service:"echo" (fun r ->
          match r with
          | Error _ -> ()
          | Ok conn ->
            (* Egress queue depth is 64; a burst of 200 in one event must
               drop the excess. *)
            for _ = 1 to 200 do
              Shell.send_data sh conn ~opcode:1 (b "x")
            done));
  Sim.run_for sim 10_000;
  let m = Kernel.monitor k 2 in
  Alcotest.(check bool)
    (Printf.sprintf "dropped %d" (Monitor.dropped m))
    true
    (Monitor.dropped m >= 130);
  Alcotest.(check bool) "error callback fired" true (!errors >= 130)

let test_connect_to_draining_tile_fails_fast () =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1 (echo_behavior "echo");
  Sim.after sim 2_000 (fun () -> Monitor.fault (Kernel.monitor k 1) "dead");
  let got = ref None in
  Kernel.install k ~tile:2
    (Shell.behavior "late" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) 3_000 (fun () ->
             Shell.connect sh ~service:"echo" (fun r ->
                 match r with
                 | Error e -> got := Some (Shell.rpc_error_to_string e)
                 | Ok _ -> got := Some "connected"))));
  Sim.run_for sim 30_000;
  (* The kernel unregistered the dead tile's names, so lookup fails. *)
  match !got with
  | Some e -> Alcotest.(check bool) ("fails: " ^ e) true (e <> "connected")
  | None -> Alcotest.fail "connect never resolved"

let test_install_on_service_tile_rejected () =
  let _, k = mk_kernel () in
  (try
     Kernel.install k ~tile:(Kernel.name_tile k) (idle_behavior "nope");
     Alcotest.fail "installed over the name service"
   with Invalid_argument _ -> ())

let test_user_tiles_excludes_services () =
  let _, k = mk_kernel () in
  let tiles = Kernel.user_tiles k in
  Alcotest.(check bool) "no name tile" true (not (List.mem (Kernel.name_tile k) tiles));
  Alcotest.(check bool) "no mem tile" true (not (List.mem (Kernel.mem_tile k) tiles));
  Alcotest.(check int) "count" 14 (List.length tiles)

(* The memory service sits on the mesh's last tile whatever the mesh's
   shape: on 3x2 that is tile 5, which serves an allocation and refuses
   an install. *)
let test_mem_tile_last_on_non_square () =
  let sim = Sim.create () in
  let mesh = { Mesh.default_config with Mesh.cols = 3; rows = 2 } in
  let k =
    Kernel.create sim { Kernel.default_config with Kernel.mesh; dram_bytes = 1 lsl 20 }
  in
  Alcotest.(check int) "mem tile" 5 (Kernel.mem_tile k);
  Alcotest.(check (list int)) "user tiles" [ 1; 2; 3; 4 ] (Kernel.user_tiles k);
  Alcotest.check_raises "install over the memory service"
    (Invalid_argument "Kernel.install: tile 5 hosts an OS service") (fun () ->
      Kernel.install k ~tile:5 (idle_behavior "nope"));
  let got = ref None in
  with_client k ~tile:1 (fun sh ->
      Shell.alloc sh ~bytes:64 (fun r -> got := Some (Result.is_ok r)));
  Sim.run_for sim 10_000;
  Alcotest.(check (option bool)) "alloc granted" (Some true) !got;
  Alcotest.(check bool) "by tile 5" true (Monitor.msgs_in (Kernel.monitor k 5) > 0)

let test_grant_mem_requires_grant_right () =
  (* A tile that received a read-only (non-grantable) segment cannot
     re-grant it. *)
  let sim, k = mk_kernel () in
  let result = ref None in
  with_client k ~tile:3 (fun sh ->
      Shell.alloc sh ~bytes:64 (fun r ->
          match r with
          | Error _ -> ()
          | Ok h ->
            (* First grant to tile 4 read-only (no grant bit). *)
            (match Shell.grant_mem sh h ~to_tile:4 ~rights:Rights.ro with
            | Error _ -> ()
            | Ok h4 ->
              (* Tile 4 now tries to re-grant to tile 5. *)
              let m4 = Kernel.monitor k 4 in
              (match Monitor.mem_handle_of_grant m4 h4 with
              | None -> ()
              | Some mh4 ->
                result :=
                  Some (Monitor.grant_mem m4 mh4 ~to_tile:5 ~rights:Rights.ro)))));
  Sim.run_for sim 10_000;
  match !result with
  | Some (Error Apiary_cap.Store.Not_grantable) -> ()
  | Some (Ok _) -> Alcotest.fail "re-grant of non-grantable cap succeeded"
  | Some (Error e) ->
    Alcotest.failf "unexpected error: %s" (Apiary_cap.Store.error_to_string e)
  | None -> Alcotest.fail "grant flow did not run"

(* A fail-stopped tile refuses work until [Kernel.restart_tile] reboots
   its slot; a fresh connection then reaches the new behavior. *)
let test_restart_revives () =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:1 (echo_behavior "victim");
  let client = ref None and conn = ref None and ok = ref [] in
  Kernel.install k ~tile:2
    (Shell.behavior "client" ~on_boot:(fun sh -> client := Some sh));
  let request () =
    match (!client, !conn) with
    | Some sh, Some c ->
      Shell.request sh c ~opcode:0 (b "hi") (fun r -> ok := Result.is_ok r :: !ok)
    | _ -> Alcotest.fail "client not connected"
  in
  let connect_and_request () =
    match !client with
    | None -> Alcotest.fail "client not booted"
    | Some sh ->
      Shell.connect sh ~service:"victim" (function
        | Error e -> Alcotest.failf "connect: %s" (Shell.rpc_error_to_string e)
        | Ok c ->
          conn := Some c;
          request ())
  in
  Sim.at sim 1_000 connect_and_request;
  Sim.at sim 4_000 (fun () -> Monitor.fault (Kernel.monitor k 1) "crash");
  Sim.at sim 6_000 request;
  Sim.at sim 10_000 (fun () ->
      Kernel.restart_tile k ~tile:1 (echo_behavior "victim"));
  Sim.at sim 12_000 connect_and_request;
  Sim.run_for sim 20_000;
  Alcotest.(check (list bool)) "served, refused while down, served after restart"
    [ true; false; true ] (List.rev !ok)

let test_busy_accumulates () =
  (* Two busy calls in one handler extend, not overwrite. *)
  let sim, k = mk_kernel () in
  let served_at = ref [] in
  Kernel.install k ~tile:1
    (Shell.behavior "slow"
       ~on_boot:(fun sh -> Shell.register_service sh "slow")
       ~on_message:(fun sh msg ->
         Shell.busy sh 100;
         Shell.busy sh 100;
         served_at := Shell.now sh :: !served_at;
         Shell.respond sh msg ~opcode:1 Bytes.empty));
  let replies = ref [] in
  with_client k ~tile:2 (fun sh ->
      Shell.connect sh ~service:"slow" (fun r ->
          match r with
          | Error _ -> ()
          | Ok conn ->
            Shell.request sh conn ~opcode:1 Bytes.empty (fun _ ->
                replies := Shell.now sh :: !replies;
                Shell.request sh conn ~opcode:1 Bytes.empty (fun _ ->
                    replies := Shell.now sh :: !replies))));
  Sim.run_for sim 10_000;
  match List.rev !replies with
  | [ r1; r2 ] ->
    (* Second request waits out the first's 200-cycle busy window. *)
    Alcotest.(check bool)
      (Printf.sprintf "second (%d) >= first (%d) + 200" r2 r1)
      true
      (r2 - r1 >= 200)
  | _ -> Alcotest.fail "expected two replies"

let prop_wire_fuzz_never_crashes =
  QCheck.Test.make ~name:"wire decode never raises on fuzz" ~count:500
    QCheck.(string_of_size Gen.(int_range 0 100))
    (fun junk ->
      match Wire.decode (Bytes.of_string junk) with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Monitor events in the board flight ring *)

let test_trace_records_flow () =
  let sim, k = mk_kernel () in
  Flight.set_enabled (Kernel.flight k) true;
  Kernel.install k ~tile:1 (echo_behavior "echo");
  with_client k ~tile:2 (fun sh ->
      Shell.connect sh ~service:"echo" (fun r ->
          match r with
          | Ok conn -> Shell.request sh conn ~opcode:9 (b "traced") (fun _ -> ())
          | Error _ -> ()));
  Sim.run_for sim 5000;
  let evs = Flight.entries (Kernel.flight k) in
  Alcotest.(check bool) "all monitor admits" true
    (evs <> []
    && List.for_all
         (fun (e : Span.event) -> e.Span.cat = "monitor" && e.Span.name = "admit")
         evs);
  (* The client's lookup, connect and request, each under its own corr. *)
  let corrs_t2 =
    List.filter_map
      (fun (e : Span.event) -> if e.Span.track = 2 then Some e.Span.corr else None)
      evs
  in
  Alcotest.(check (list int)) "tile 2 admits" [ 1; 2; 3 ] corrs_t2;
  Alcotest.(check bool) "echo reply admitted" true
    (List.exists (fun (e : Span.event) -> e.Span.track = 1 && e.Span.corr = 3) evs)

(* Every way a monitor drops an inbound message, and a shell note, is one
   flight-ring entry naming what happened. *)
let test_flight_drop_sites_and_notes () =
  let _, k = mk_kernel () in
  Flight.set_enabled (Kernel.flight k) true;
  let msg ~dst ?(is_reply = false) corr =
    Message.make ~src:{ Message.tile = 9; ep = Message.app_ep }
      ~dst:{ Message.tile = dst; ep = Message.app_ep }
      ~kind:(Message.Data { opcode = 1 }) ~corr ~is_reply ~now:0 ()
  in
  Monitor.ingress (Kernel.monitor k 3) (msg ~dst:3 ~is_reply:true 71);
  Monitor.fault (Kernel.monitor k 4) "boom";
  Monitor.ingress (Kernel.monitor k 4) (msg ~dst:4 72);
  Monitor.set_offline (Kernel.monitor k 5);
  Monitor.ingress (Kernel.monitor k 5) (msg ~dst:5 73);
  Shell.log (Kernel.monitor k 6) "hello";
  let got =
    List.filter_map
      (fun (e : Span.event) ->
        if e.Span.name = "drop" || e.Span.name = "note" then
          Some ((e.Span.track, e.Span.name, e.Span.corr), e.Span.args)
        else None)
      (Flight.entries (Kernel.flight k))
  in
  Alcotest.(check (list (pair (triple int string int) (list (pair string string)))))
    "one entry per site"
    [
      ((3, "drop", 71), [ ("reason", "unsolicited reply") ]);
      ((4, "drop", 72), [ ("reason", "draining") ]);
      ((5, "drop", 73), [ ("reason", "offline") ]);
      ((6, "note", 0), [ ("msg", "hello") ]);
    ]
    got

let test_monitor_added_latency_enforce_vs_off () =
  (* Enforcing monitor with a 2-cycle check pipeline vs a raw pass-through
     (no checks, no added pipeline): E1's latency overhead comparison. *)
  let run enforce =
    let check_latency = if enforce then 2 else 0 in
    let sim, k = mk_kernel ~enforce ~check_latency () in
    Kernel.install k ~tile:1 (echo_behavior "echo");
    with_client k ~tile:2 (fun sh ->
        Shell.connect sh ~service:"echo" (fun r ->
            match r with
            | Ok conn ->
              Sim.every (Shell.sim sh) 50 (fun () ->
                  Shell.request sh conn ~opcode:0 (b "m") (fun _ -> ()))
            | Error _ -> ()));
    Sim.run_for sim 10_000;
    Stats.Histogram.mean (Monitor.added_latency (Kernel.monitor k 2))
  in
  let on = run true and off = run false in
  Alcotest.(check bool)
    (Printf.sprintf "enforce %.1f > off %.1f" on off)
    true (on > off)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "core"
    [
      ( "wire",
        [
          qc prop_wire_roundtrip;
          qc prop_wire_rejects_truncation;
          Alcotest.test_case "garbage" `Quick test_wire_garbage;
          Alcotest.test_case "size" `Quick test_message_size;
        ] );
      ( "rate_limiter",
        [
          Alcotest.test_case "refill" `Quick test_rate_limiter_refill;
          Alcotest.test_case "burst cap" `Quick test_rate_limiter_burst_cap;
          Alcotest.test_case "unlimited" `Quick test_rate_limiter_unlimited;
        ] );
      ( "naming",
        [
          Alcotest.test_case "register+lookup" `Quick test_register_lookup;
          Alcotest.test_case "unknown" `Quick test_lookup_unknown;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "echo rpc" `Quick test_echo_rpc;
          Alcotest.test_case "connect unknown" `Quick test_connect_unknown_service;
          Alcotest.test_case "connect policy" `Quick test_connect_policy_refusal;
          Alcotest.test_case "latency scales" `Quick test_rpc_latency_positive_and_scales;
          Alcotest.test_case "reply window" `Quick test_reply_window_single_use;
        ] );
      ( "memory",
        [
          Alcotest.test_case "alloc/write/read" `Quick test_alloc_write_read;
          Alcotest.test_case "oob denied" `Quick test_mem_oob_denied_locally;
          Alcotest.test_case "free revokes" `Quick test_free_revokes_cap;
          Alcotest.test_case "oom" `Quick test_alloc_oom;
          Alcotest.test_case "free not owner" `Quick test_free_not_owner;
          Alcotest.test_case "grant shared read" `Quick test_grant_mem_shared_read;
        ] );
      ( "enforcement",
        [
          Alcotest.test_case "raw send denied" `Quick test_raw_send_denied_when_enforced;
          Alcotest.test_case "raw send w/o monitor" `Quick test_raw_send_passes_without_enforcement;
          Alcotest.test_case "flood capped" `Quick test_rate_limit_caps_flood;
        ] );
      ( "fault",
        [
          Alcotest.test_case "nacks peers" `Quick test_fault_nacks_peers;
          Alcotest.test_case "isolates other app" `Quick test_fault_isolates_other_app;
          Alcotest.test_case "stuck alarm fail-stops" `Quick
            test_stuck_alarm_fail_stops;
          Alcotest.test_case "serving monitor parks" `Quick
            test_serving_monitor_parks;
          qc prop_serving_monitors_park;
          Alcotest.test_case "raise_fault" `Quick test_explicit_raise_fault;
        ] );
      ( "conn_policing",
        [
          Alcotest.test_case "per-class egress" `Quick test_egress_classes_avoid_self_hol;
          Alcotest.test_case "per-conn rate" `Quick test_per_connection_rate_limit;
          Alcotest.test_case "unlimited grant" `Quick test_unlimited_grant_has_no_bucket;
        ] );
      ( "reconfig",
        [
          Alcotest.test_case "swap service" `Quick test_reconfigure_swaps_service;
          Alcotest.test_case "offline drops" `Quick test_offline_tile_drops_traffic;
        ] );
      ( "edge_cases",
        [
          Alcotest.test_case "egress overflow" `Quick test_egress_overflow_drops_and_notifies;
          Alcotest.test_case "connect to dead tile" `Quick test_connect_to_draining_tile_fails_fast;
          Alcotest.test_case "install on service tile" `Quick test_install_on_service_tile_rejected;
          Alcotest.test_case "user tiles" `Quick test_user_tiles_excludes_services;
          Alcotest.test_case "mem tile on a 3x2 mesh" `Quick
            test_mem_tile_last_on_non_square;
          Alcotest.test_case "grant needs grant right" `Quick test_grant_mem_requires_grant_right;
          Alcotest.test_case "restart revives" `Quick test_restart_revives;
          Alcotest.test_case "busy accumulates" `Quick test_busy_accumulates;
          qc prop_wire_fuzz_never_crashes;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace flow" `Quick test_trace_records_flow;
          Alcotest.test_case "flight drop sites and notes" `Quick
            test_flight_drop_sites_and_notes;
          Alcotest.test_case "monitor latency" `Quick test_monitor_added_latency_enforce_vs_off;
        ] );
    ]
