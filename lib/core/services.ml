module Sim = Apiary_engine.Sim
module Dram = Apiary_mem.Dram
module Seg_alloc = Apiary_mem.Seg_alloc
module Rights = Apiary_cap.Rights

(* ------------------------------------------------------------------ *)
(* Name service *)

let name_service () =
  let table : (string, Message.addr) Hashtbl.t = Hashtbl.create 32 in
  let on_message shell (m : Message.t) =
    match m.Message.kind with
    | Message.Control (Message.Register { name }) ->
      Hashtbl.replace table name
        { Message.tile = m.Message.src.Message.tile; ep = Message.app_ep };
      Monitor.priv_respond_control shell m Message.Register_ok
    | Message.Control (Message.Lookup { name }) ->
      Monitor.priv_respond_control shell m
        (Message.Lookup_reply { name; result = Hashtbl.find_opt table name })
    | _ -> ()
  in
  let unregister tile =
    let stale =
      Hashtbl.fold
        (fun name (a : Message.addr) acc ->
          if a.Message.tile = tile then name :: acc else acc)
        table []
    in
    List.iter (Hashtbl.remove table) stale
  in
  ( {
      Monitor.bname = "os.name";
      on_boot = (fun _ -> ());
      on_message;
      on_tick = None;
    },
    unregister )

(* ------------------------------------------------------------------ *)
(* Memory service *)

let mem_service dram alloc =
  (* base -> (owner tile, capability handle in the owner's table) *)
  let owners : (int, int * Apiary_cap.Store.handle) Hashtbl.t = Hashtbl.create 64 in
  let rec submit_with_retry shell thunk =
    (* The DRAM queue can refuse under load; hardware would assert
       backpressure, we retry a few cycles later. *)
    if not (thunk ()) then
      Sim.after (Monitor.sim shell) 4 (fun () -> submit_with_retry shell thunk)
  in
  let on_message shell (m : Message.t) =
    let requester = m.Message.src.Message.tile in
    match m.Message.kind with
    | Message.Control (Message.Alloc_req { bytes }) ->
      (match Seg_alloc.alloc alloc bytes with
      | Error `Out_of_memory ->
        Monitor.priv_respond_control shell m
          (Message.Alloc_denied { reason = "out of memory" })
      | Ok base ->
        let cap =
          Monitor.priv_mint_segment shell ~for_tile:requester ~base ~len:bytes
            ~rights:Rights.full
        in
        Hashtbl.replace owners base (requester, cap);
        Monitor.priv_respond_control shell m (Message.Alloc_ok { cap; base; bytes }))
    | Message.Control (Message.Free_req { base }) ->
      (match Hashtbl.find_opt owners base with
      | Some (owner, cap) when owner = requester ->
        Hashtbl.remove owners base;
        ignore (Monitor.priv_revoke shell ~for_tile:owner cap);
        Seg_alloc.free alloc base;
        Monitor.priv_respond_control shell m Message.Free_ok
      | Some _ ->
        Monitor.priv_respond_control shell m
          (Message.Mem_denied { reason = "not the owner" })
      | None ->
        Monitor.priv_respond_control shell m
          (Message.Mem_denied { reason = "unknown segment" }))
    | Message.Control (Message.Mem_read_req { addr; len }) ->
      (* The requesting monitor already enforced the capability; see mli. *)
      submit_with_retry shell (fun () ->
          Dram.read dram ~addr ~len (fun data ->
              Monitor.priv_respond_control shell m ~payload:data
                Message.Mem_read_ok))
    | Message.Control (Message.Mem_write_req { addr }) ->
      let data = m.Message.payload in
      submit_with_retry shell (fun () ->
          Dram.write dram ~addr data (fun () ->
              Monitor.priv_respond_control shell m Message.Mem_write_ok))
    | _ -> ()
  in
  {
    Monitor.bname = "os.mem";
    on_boot = (fun _ -> ());
    on_message;
    on_tick = None;
  }
