module Sim = Apiary_engine.Sim
module Rng = Apiary_engine.Rng
module Rights = Apiary_cap.Rights
module Message = Apiary_core.Message
module Shell = Apiary_core.Shell

module Proto = struct
  let opcode = 0x4D56 (* "MV" *)

  let encode_req activations = activations

  let decode_resp b =
    if Bytes.length b < 1 then Error "mvm: empty response"
    else
      match Char.code (Bytes.get b 0) with
      | 0 -> Ok (Bytes.sub b 1 (Bytes.length b - 1))
      | 1 -> Error (Bytes.sub_string b 1 (Bytes.length b - 1))
      | t -> Error (Printf.sprintf "mvm: bad status %d" t)
end

let op_grant = 0x4757 (* "GW": loader hands a worker its weight grant *)

let i8 b = if b >= 128 then b - 256 else b
let clamp_i8 v = if v < -128 then -128 else if v > 127 then 127 else v

let reference ~weights ~rows ~cols x =
  assert (Bytes.length weights = rows * cols);
  assert (Bytes.length x = cols);
  let out = Bytes.create rows in
  for r = 0 to rows - 1 do
    let acc = ref 0 in
    for c = 0 to cols - 1 do
      acc :=
        !acc
        + (i8 (Char.code (Bytes.get weights ((r * cols) + c)))
          * i8 (Char.code (Bytes.get x c)))
    done;
    Bytes.set out r (Char.chr (clamp_i8 (!acc asr 7) land 0xFF))
  done;
  out

let random_weights rng ~rows ~cols = Rng.bytes rng (rows * cols)

type stats = {
  mutable inferences : int;
  mutable weight_bytes_loaded : int;
  mutable rejected : int;
}

let chunk = 1024

(* ------------------------------------------------------------------ *)
(* Loader *)

let encode_grant ~handle ~rows ~cols =
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int handle);
  Bytes.set_uint16_be b 4 rows;
  Bytes.set_uint16_be b 6 cols;
  b

let decode_grant b =
  if Bytes.length b <> 8 then Error "mvm: bad grant"
  else
    Ok
      ( Int32.to_int (Bytes.get_int32_be b 0),
        Bytes.get_uint16_be b 4,
        Bytes.get_uint16_be b 6 )

let loader ~weights ~rows ~cols ~worker_tiles () =
  assert (Bytes.length weights = rows * cols);
  let on_boot sh =
    Shell.alloc sh ~bytes:(rows * cols) (fun r ->
        match r with
        | Error e ->
          Shell.raise_fault sh
            (Printf.sprintf "mvm loader: alloc failed: %s"
               (Shell.rpc_error_to_string e))
        | Ok seg ->
          (* Upload the matrix in chunks (real DRAM writes). *)
          let total = rows * cols in
          let rec upload off =
            if off >= total then hand_out ()
            else begin
              let len = min chunk (total - off) in
              Shell.write_mem sh seg ~off (Bytes.sub weights off len) (fun r ->
                  match r with
                  | Ok () -> upload (off + len)
                  | Error e ->
                    Shell.raise_fault sh
                      (Printf.sprintf "mvm loader: upload failed: %s"
                         (Shell.rpc_error_to_string e)))
            end
          and hand_out () =
            List.iteri
              (fun idx tile ->
                match Shell.grant_mem sh seg ~to_tile:tile ~rights:Rights.ro with
                | Error e ->
                  Shell.log sh
                    (Printf.sprintf "grant to tile %d failed: %s" tile
                       (Apiary_cap.Store.error_to_string e))
                | Ok handle ->
                  let service = Printf.sprintf "mvm%d" idx in
                  let rec tell attempts =
                    Shell.connect sh ~service (fun r ->
                        match r with
                        | Ok conn ->
                          Shell.send_data sh conn ~opcode:op_grant
                            (encode_grant ~handle ~rows ~cols)
                        | Error _ when attempts > 0 ->
                          Sim.after (Shell.sim sh) 1_000 (fun () ->
                              tell (attempts - 1))
                        | Error e ->
                          Shell.log sh
                            (Printf.sprintf "cannot reach %s: %s" service
                               (Shell.rpc_error_to_string e)))
                  in
                  tell 20)
              worker_tiles
          in
          upload 0)
  in
  Shell.behavior "mvm.loader" ~on_boot

(* ------------------------------------------------------------------ *)
(* Worker *)

let worker ?(service = "mvm0") ~rows ~cols () =
  let st = { inferences = 0; weight_bytes_loaded = 0; rejected = 0 } in
  let sram : bytes option ref = ref None in
  let respond_err sh msg reason =
    st.rejected <- st.rejected + 1;
    let b = Bytes.of_string ("\001" ^ reason) in
    Shell.respond sh msg ~opcode:Proto.opcode b
  in
  let stream_in sh mh =
    (* Fetch the matrix into on-chip SRAM through capability-checked
       reads. *)
    let total = rows * cols in
    let buf = Bytes.create total in
    let rec fetch off =
      if off >= total then sram := Some buf
      else begin
        let len = min chunk (total - off) in
        Shell.read_mem sh mh ~off ~len (fun r ->
            match r with
            | Ok data ->
              Bytes.blit data 0 buf off len;
              st.weight_bytes_loaded <- st.weight_bytes_loaded + len;
              fetch (off + len)
            | Error e ->
              Shell.raise_fault sh
                (Printf.sprintf "mvm worker: weight fetch failed: %s"
                   (Shell.rpc_error_to_string e)))
      end
    in
    fetch 0
  in
  let on_message sh (msg : Message.t) =
    match msg.Message.kind with
    | Message.Data { opcode } when opcode = op_grant ->
      (match decode_grant msg.Message.payload with
      | Error _ -> ()
      | Ok (handle, r, c) ->
        if r <> rows || c <> cols then
          Shell.raise_fault sh "mvm worker: dimension mismatch with loader"
        else
          (match Shell.mem_handle_of_grant sh handle with
          | None -> Shell.raise_fault sh "mvm worker: invalid weight grant"
          | Some mh -> stream_in sh mh))
    | Message.Data { opcode } when opcode = Proto.opcode ->
      (match !sram with
      | None -> respond_err sh msg "weights not loaded"
      | Some weights ->
        let x = msg.Message.payload in
        if Bytes.length x <> cols then respond_err sh msg "bad dimension"
        else begin
          (* 64 MACs/cycle systolic array. *)
          Shell.busy sh (rows * cols / 64);
          let out = reference ~weights ~rows ~cols x in
          st.inferences <- st.inferences + 1;
          let resp = Bytes.create (1 + rows) in
          Bytes.set resp 0 '\000';
          Bytes.blit out 0 resp 1 rows;
          Shell.respond sh msg ~opcode:Proto.opcode resp
        end)
    | _ -> ()
  in
  ( Shell.behavior service
      ~on_boot:(fun sh -> Shell.register_service sh service)
      ~on_message,
    st )
