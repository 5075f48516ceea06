module Message = Apiary_core.Message
module Shell = Apiary_core.Shell

let op_echo = 1
let op_encode = 2
let op_compress = 3
let op_stream = 5

(* Encoder, compressor and pipeline stages all stream one byte per cycle:
   16 cycles per 16 input bytes. *)
let cycles_per_byte_x16 = 16

let charge sh nbytes = Shell.busy sh (cycles_per_byte_x16 * (nbytes / 16 + 1))

let echo ?(service = "echo") ?(cost = 0) () =
  Shell.behavior service
    ~on_boot:(fun sh -> Shell.register_service sh service)
    ~on_message:(fun sh msg ->
      match msg.Message.kind with
      | Message.Data _ ->
        if cost > 0 then Shell.busy sh cost;
        Shell.respond sh msg ~opcode:op_echo msg.Message.payload
      | _ -> ())

let sink ?(service = "sink") () =
  let count = ref 0 in
  ( Shell.behavior service
      ~on_boot:(fun sh -> Shell.register_service sh service)
      ~on_message:(fun _ msg ->
        match msg.Message.kind with Message.Data _ -> incr count | _ -> ()),
    fun () -> !count )

let serve ~service ~opcode ~f =
  Shell.behavior service
    ~on_boot:(fun sh -> Shell.register_service sh service)
    ~on_message:(fun sh msg ->
      match msg.Message.kind with
      | Message.Data _ ->
        charge sh (Bytes.length msg.Message.payload);
        Shell.respond sh msg ~opcode (f msg.Message.payload)
      | _ -> ())

let video_encoder ?(service = "encode") ?(q = 2) ?(width = 64) () =
  serve ~service ~opcode:op_encode ~f:(Codec.video_encode ~q ~width)

let compressor ?(service = "compress") ?(algo = `Lz) () =
  let f = match algo with `Rle -> Codec.rle_encode | `Lz -> Codec.lz_encode in
  serve ~service ~opcode:op_compress ~f

let transform_stage ~service ~next ~f () =
  let downstream = ref None in
  let connect_downstream sh =
    Shell.connect sh ~service:next (fun r ->
        match r with
        | Ok conn -> downstream := Some conn
        | Error _ ->
          (* The next stage may boot later than us; retry. *)
          Apiary_engine.Sim.after (Shell.sim sh) 2000 (fun () ->
              Shell.connect sh ~service:next (fun r ->
                  match r with
                  | Ok conn -> downstream := Some conn
                  | Error e ->
                    Shell.raise_fault sh
                      (Printf.sprintf "stage %s: cannot reach %s (%s)" service next
                         (Shell.rpc_error_to_string e)))))
  in
  Shell.behavior service
    ~on_boot:(fun sh ->
      Shell.register_service sh service;
      connect_downstream sh)
    ~on_message:(fun sh msg ->
      match (msg.Message.kind, !downstream) with
      | Message.Data _, Some conn ->
        charge sh (Bytes.length msg.Message.payload);
        let transformed = f msg.Message.payload in
        Shell.request sh conn ~opcode:op_encode transformed (fun r ->
            match r with
            | Ok reply -> Shell.respond sh msg ~opcode:op_encode reply.Message.payload
            | Error e ->
              Shell.respond sh msg ~opcode:op_encode
                (Bytes.of_string ("STAGE-ERROR:" ^ Shell.rpc_error_to_string e)))
      | Message.Data _, None ->
        Shell.respond sh msg ~opcode:op_encode (Bytes.of_string "STAGE-ERROR:not-ready")
      | _ -> ())

let load_balancer ~service ~backends () =
  let conns = Array.make (List.length backends) None in
  let next = ref 0 in
  let pick () =
    (* Round-robin over connected backends. *)
    let n = Array.length conns in
    let rec go tries =
      if tries >= n then None
      else begin
        let i = !next mod n in
        next := !next + 1;
        match conns.(i) with Some c -> Some c | None -> go (tries + 1)
      end
    in
    go 0
  in
  Shell.behavior service
    ~on_boot:(fun sh ->
      Shell.register_service sh service;
      List.iteri
        (fun i b ->
          Shell.connect sh ~service:b (fun r ->
              match r with Ok c -> conns.(i) <- Some c | Error _ -> ()))
        backends)
    ~on_message:(fun sh msg ->
      match (msg.Message.kind, pick ()) with
      | Message.Data { opcode }, Some conn ->
        Shell.request sh conn ~opcode msg.Message.payload (fun r ->
            match r with
            | Ok reply -> Shell.respond sh msg ~opcode reply.Message.payload
            | Error e ->
              Shell.respond sh msg ~opcode
                (Bytes.of_string ("LB-ERROR:" ^ Shell.rpc_error_to_string e)))
      | Message.Data { opcode }, None ->
        Shell.respond sh msg ~opcode (Bytes.of_string "LB-ERROR:no-backends")
      | _ -> ())
