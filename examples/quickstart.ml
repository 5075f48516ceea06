(* Quickstart: boot an Apiary board, install an accelerator, talk to it.

   Run with:  dune exec examples/quickstart.exe

   This walks the minimal lifecycle: create a simulator and kernel,
   program a tile with a behavior that registers a service, program a
   second tile that connects and sends requests, and read the client
   tile's admitted messages back from the board's flight ring. *)

module Sim = Apiary_engine.Sim
module Kernel = Apiary_core.Kernel
module Shell = Apiary_core.Shell
module Message = Apiary_core.Message
module Flight = Apiary_obs.Flight

let () =
  let sim = Sim.create () in
  let kernel = Kernel.create sim Kernel.default_config in
  (* The flight ring keeps the board's last monitor events (admit, deny,
     drop, fault, note); it records nothing until armed. *)
  Flight.set_enabled (Kernel.flight kernel) true;

  (* A tiny accelerator: upper-cases whatever it receives. *)
  let upcaser =
    Shell.behavior "upcaser"
      ~on_boot:(fun sh -> Shell.register_service sh "upcase")
      ~on_message:(fun sh msg ->
        match msg.Message.kind with
        | Message.Data _ ->
          (* Model 1 cycle of compute per 16 bytes. *)
          Shell.busy sh (Bytes.length msg.Message.payload / 16);
          Shell.respond sh msg ~opcode:1
            (Bytes.map
               (fun c -> Char.uppercase_ascii c)
               msg.Message.payload)
        | _ -> ())
  in
  Kernel.install kernel ~tile:1 upcaser;

  (* A client tile: connect by service name, fire three requests. *)
  let client =
    Shell.behavior "client" ~on_boot:(fun sh ->
        (* Give the service time to boot and register. *)
        Sim.after (Shell.sim sh) 500 (fun () ->
            Shell.connect sh ~service:"upcase" (fun r ->
                match r with
                | Error e ->
                  Printf.printf "connect failed: %s\n" (Shell.rpc_error_to_string e)
                | Ok conn ->
                  List.iter
                    (fun text ->
                      Shell.request sh conn ~opcode:1 (Bytes.of_string text)
                        (fun r ->
                          match r with
                          | Ok reply ->
                            Printf.printf "[cycle %6d] %-24s -> %s\n"
                              (Shell.now sh) text
                              (Bytes.to_string reply.Message.payload)
                          | Error e ->
                            Printf.printf "request failed: %s\n"
                              (Shell.rpc_error_to_string e)))
                    [ "hello, apiary"; "fpga operating systems"; "bees!" ])))
  in
  Kernel.install kernel ~tile:6 client;

  Sim.run_for sim 10_000;

  Printf.printf "\n--- flight ring (tile 6 admits) ---\n";
  List.iter
    (fun (e : Flight.entry) ->
      if e.Flight.tile = 6 && e.Flight.name = "admit" then
        Printf.printf "[%6d] tile%-2d %s/%s corr=%d\n" e.Flight.ts e.Flight.tile
          e.Flight.cat e.Flight.name e.Flight.corr)
    (Flight.entries (Kernel.flight kernel));
  Printf.printf "\ntotal messages on fabric: %d, denied: %d\n"
    (Kernel.total_msgs kernel) (Kernel.total_denied kernel)
