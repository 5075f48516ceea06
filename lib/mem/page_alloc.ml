type t = {
  base : int;
  page_bytes : int;
  free : int Queue.t;  (* free frame indices *)
}

let create ~base ~size ~page_bytes =
  assert (page_bytes > 0 && size mod page_bytes = 0);
  let nframes = size / page_bytes in
  let free = Queue.create () in
  for i = 0 to nframes - 1 do
    Queue.add i free
  done;
  { base; page_bytes; free }

let page_bytes t = t.page_bytes
let free_frames t = Queue.length t.free

module Space = struct
  type alloc = t

  type space = {
    alloc : alloc;
    table : (int, int) Hashtbl.t;  (* vpn -> frame index *)
    tlb : (int, int) Hashtbl.t;  (* small cache of the same mapping *)
    tlb_entries : int;
    tlb_order : int Queue.t;  (* FIFO eviction *)
    walk_cycles : int;
    mutable next_vpn : int;
    mutable requested : int;  (* bytes asked for by map *)
    mutable hits : int;
  }

  type t = space

  let create alloc ~tlb_entries ~walk_cycles =
    assert (tlb_entries > 0);
    {
      alloc;
      table = Hashtbl.create 64;
      tlb = Hashtbl.create 64;
      tlb_entries;
      tlb_order = Queue.create ();
      walk_cycles;
      next_vpn = 0;
      requested = 0;
      hits = 0;
    }

  let map sp n =
    let n = max 1 n in
    let pb = sp.alloc.page_bytes in
    let npages = (n + pb - 1) / pb in
    if Queue.length sp.alloc.free < npages then Error `Out_of_memory
    else begin
      let vbase = sp.next_vpn * pb in
      for i = 0 to npages - 1 do
        let frame = Queue.take sp.alloc.free in
        Hashtbl.replace sp.table (sp.next_vpn + i) frame
      done;
      sp.next_vpn <- sp.next_vpn + npages;
      sp.requested <- sp.requested + n;
      Ok vbase
    end

  let tlb_evict_if_full sp =
    if Queue.length sp.tlb_order >= sp.tlb_entries then begin
      let old = Queue.take sp.tlb_order in
      Hashtbl.remove sp.tlb old
    end

  let unmap sp ~vbase ~len =
    let pb = sp.alloc.page_bytes in
    let first = vbase / pb in
    let last = (vbase + max 1 len - 1) / pb in
    for vpn = first to last do
      match Hashtbl.find_opt sp.table vpn with
      | None -> ()
      | Some frame ->
        Hashtbl.remove sp.table vpn;
        Hashtbl.remove sp.tlb vpn;
        Queue.add frame sp.alloc.free
    done

  let translate sp vaddr =
    let pb = sp.alloc.page_bytes in
    let vpn = vaddr / pb and off = vaddr mod pb in
    let frame_to_paddr frame = sp.alloc.base + (frame * pb) + off in
    match Hashtbl.find_opt sp.tlb vpn with
    | Some frame ->
      sp.hits <- sp.hits + 1;
      Ok (frame_to_paddr frame, 1)
    | None ->
      (match Hashtbl.find_opt sp.table vpn with
      | None -> Error `Fault
      | Some frame ->
        tlb_evict_if_full sp;
        Hashtbl.replace sp.tlb vpn frame;
        Queue.add vpn sp.tlb_order;
        Ok (frame_to_paddr frame, sp.walk_cycles))

  let mapped_bytes sp = Hashtbl.length sp.table * sp.alloc.page_bytes
  let internal_fragmentation sp = mapped_bytes sp - sp.requested
  let tlb_hits sp = sp.hits
end
