(* Truth tables as they were built before the bit-parallel build: one
   [Tree.eval] per input.  [Tree.truth_table] and
   [Tree.packed_truth_table] must build the same tables. *)

let truth_table t =
  let size = 1 lsl Whisper_formula.Tree.leaves t in
  let table = Bytes.make size '\000' in
  for k = 0 to size - 1 do
    if Whisper_formula.Tree.eval t k then Bytes.unsafe_set table k '\001'
  done;
  table

let packed_truth_table t =
  let size = 1 lsl Whisper_formula.Tree.leaves t in
  let w = Array.make ((size + 31) lsr 5) 0 in
  for k = 0 to size - 1 do
    if Whisper_formula.Tree.eval t k then
      w.(k lsr 5) <- w.(k lsr 5) lor (1 lsl (k land 31))
  done;
  w
