let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 b =
  let tbl = Lazy.force table in
  let crc = ref 0xFFFFFFFFl in
  for i = 0 to Bytes.length b - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl)
    in
    crc := Int32.logxor tbl.(idx) (Int32.shift_right_logical !crc 8)
  done;
  Int32.logxor !crc 0xFFFFFFFFl

let adler32 b =
  let modulus = 65521 in
  let a = ref 1 and s = ref 0 in
  for i = 0 to Bytes.length b - 1 do
    a := (!a + Char.code (Bytes.get b i)) mod modulus;
    s := (!s + !a) mod modulus
  done;
  Int32.of_int ((!s lsl 16) lor !a)

let self_test () =
  (* Published vectors: crc32("123456789") = 0xCBF43926,
     adler32("Wikipedia") = 0x11E60398. *)
  crc32 (Bytes.of_string "123456789") = 0xCBF43926l
  && adler32 (Bytes.of_string "Wikipedia") = 0x11E60398l
