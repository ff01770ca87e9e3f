(* The history windows by definition, read a bit at a time from the
   byte-per-bit [History] ring: the raw window of the last [n] outcomes
   (what the pre-rewrite generator's short-formula and context-PRF
   behaviours read), and the folded hash of the paper's history hashing
   (§III-A).  [History.Folded], the kernels' fold arrays and the
   generator's bitmap history maintain these incrementally; the tests
   check them against this definition. *)

module History = Whisper_util.History

(* the last [n <= 62] outcomes, the most recent in bit 0 *)
let raw_window t n =
  if n < 0 || n > 62 then invalid_arg "History_ref.raw_window";
  let rec go i acc =
    if i >= n then acc else go (i + 1) (acc lor (History.get t i lsl i))
  in
  go 0 0

(* the last [len] outcomes folded into [chunk] bits: the outcome of age
   [j] is XORed in at position [j mod chunk] *)
let hash_window t ~len ~chunk =
  if chunk <= 0 || chunk > 62 then invalid_arg "History_ref.hash_window";
  let acc = ref 0 in
  for j = 0 to len - 1 do
    acc := !acc lxor (History.get t j lsl (j mod chunk))
  done;
  !acc
