(* Entries live in three parallel arrays. Sifts move a hole instead of
   swapping, so each level costs one write per array. A value slot past
   [size] holds [fill]. *)
type 'a t = {
  mutable keys : int array;
  mutable ties : int array;
  mutable vals : 'a array;
  mutable size : int;
  fill : 'a;
}

let create ~fill = { keys = [||]; ties = [||]; vals = [||]; size = 0; fill }
let length h = h.size
let is_empty h = h.size = 0

(* Typed, so each compare is one instruction rather than a call to the
   runtime's polymorphic compare. *)
let[@inline] less (k : int) (t : int) k' t' = k < k' || (k = k' && t < t')

let grow h =
  let n = h.size in
  let cap = Int.max 16 (2 * n) in
  let extend a init =
    let b = Array.make cap init in
    Array.blit a 0 b 0 n;
    b
  in
  h.keys <- extend h.keys 0;
  h.ties <- extend h.ties 0;
  h.vals <- extend h.vals h.fill

let push h key tie v =
  if h.size = Array.length h.keys then grow h;
  let keys = h.keys and ties = h.ties and vals = h.vals in
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && less key tie keys.((!i - 1) / 2) ties.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    keys.(!i) <- keys.(p);
    ties.(!i) <- ties.(p);
    vals.(!i) <- vals.(p);
    i := p
  done;
  keys.(!i) <- key;
  ties.(!i) <- tie;
  vals.(!i) <- v

let top_key h =
  if h.size = 0 then invalid_arg "Heap.top_key: empty heap";
  h.keys.(0)

let top_tie h =
  if h.size = 0 then invalid_arg "Heap.top_tie: empty heap";
  h.ties.(0)

let top h =
  if h.size = 0 then invalid_arg "Heap.top: empty heap";
  h.vals.(0)

let drop h =
  if h.size = 0 then invalid_arg "Heap.drop: empty heap";
  let n = h.size - 1 in
  h.size <- n;
  let keys = h.keys and ties = h.ties and vals = h.vals in
  let key = keys.(n) and tie = ties.(n) and v = vals.(n) in
  vals.(n) <- h.fill;
  if n > 0 then begin
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c = if r < n && less keys.(r) ties.(r) keys.(l) ties.(l) then r else l in
        if less keys.(c) ties.(c) key tie then begin
          keys.(!i) <- keys.(c);
          ties.(!i) <- ties.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
        else sifting := false
      end
    done;
    keys.(!i) <- key;
    ties.(!i) <- tie;
    vals.(!i) <- v
  end
