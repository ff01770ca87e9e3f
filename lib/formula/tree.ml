type t = { n : int; ops : Op.t array; inverted : bool }

let leaves t = t.n
let ops t = t.ops
let inverted t = t.inverted

let make ~ops ~inverted =
  let n = Array.length ops + 1 in
  if n < 2 || not (Whisper_util.Bitops.is_power_of_two n) then
    invalid_arg "Tree.make: leaves must be a power of two >= 2";
  { n; ops = Array.copy ops; inverted }

(* Node i's children are 2i+1 and 2i+2; indices >= n-1 are leaves reading
   input bit (index - (n-1)). *)
let eval t bits =
  let n = t.n in
  let rec node i =
    if i >= n - 1 then (bits lsr (i - (n - 1))) land 1 = 1
    else Op.eval t.ops.(i) (node ((2 * i) + 1)) (node ((2 * i) + 2))
  in
  let v = node 0 in
  if t.inverted then not v else v

let id_bits ~leaves =
  if leaves < 2 || not (Whisper_util.Bitops.is_power_of_two leaves) then
    invalid_arg "Tree.id_bits";
  (2 * (leaves - 1)) + 1

let space_size ~leaves = 1 lsl id_bits ~leaves

let to_id t =
  let id = ref 0 in
  Array.iteri (fun i op -> id := !id lor (Op.to_code op lsl (2 * i))) t.ops;
  if t.inverted then id := !id lor (1 lsl (2 * (t.n - 1)));
  !id

let of_id ~leaves id =
  if id < 0 || id >= space_size ~leaves then invalid_arg "Tree.of_id";
  let ops =
    Array.init (leaves - 1) (fun i -> Op.of_code ((id lsr (2 * i)) land 3))
  in
  { n = leaves; ops; inverted = (id lsr (2 * (leaves - 1))) land 1 = 1 }

let is_classic t =
  (not t.inverted)
  && Array.for_all (function Op.And | Op.Or -> true | _ -> false) t.ops

let to_classic_id t =
  if not (is_classic t) then invalid_arg "Tree.to_classic_id";
  let id = ref 0 in
  Array.iteri
    (fun i op -> if op = Op.Or then id := !id lor (1 lsl i))
    t.ops;
  !id

let classic_space_size ~leaves =
  if leaves < 2 || not (Whisper_util.Bitops.is_power_of_two leaves) then
    invalid_arg "Tree.classic_space_size";
  1 lsl (leaves - 1)

let of_classic_id ~leaves id =
  if id < 0 || id >= classic_space_size ~leaves then
    invalid_arg "Tree.of_classic_id";
  let ops =
    Array.init (leaves - 1) (fun i ->
        if (id lsr i) land 1 = 1 then Op.Or else Op.And)
  in
  { n = leaves; ops; inverted = false }

(* 32-bit packing keeps the words well inside OCaml's 63-bit native ints
   while still collapsing a 256-entry table into 8 words. *)
let packed_words ~size = (size + 31) lsr 5

(* Bit-parallel: word [w] of a table holds inputs [32w .. 32w + 31], so
   leaf [j < 5] reads the same pattern in every word (bit [m] of the
   pattern is bit [j] of [m]) and leaf [j >= 5] is all ones or all zeros
   by bit [j - 5] of [w].  Each node applies its op to whole words,
   children before parents. *)
let leaf_patterns =
  [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]

let packed_truth_table t =
  let n = t.n in
  let size = 1 lsl n in
  let valid = if size >= 32 then 0xFFFFFFFF else (1 lsl size) - 1 in
  let node = Array.make (n - 1) 0 in
  let word w i =
    if i < n - 1 then node.(i)
    else
      let j = i - (n - 1) in
      if j < 5 then Array.unsafe_get leaf_patterns j
      else -((w lsr (j - 5)) land 1)
  in
  Array.init (packed_words ~size) (fun w ->
      for i = n - 2 downto 0 do
        let a = word w ((2 * i) + 1) and b = word w ((2 * i) + 2) in
        Array.unsafe_set node i
          (match t.ops.(i) with
          | Op.And -> a land b
          | Op.Or -> a lor b
          | Op.Imp -> lnot a lor b
          | Op.Cnimp -> lnot a land b)
      done;
      (if t.inverted then lnot node.(0) else node.(0)) land valid)

let truth_table t =
  let w = packed_truth_table t in
  Bytes.init (1 lsl t.n) (fun k ->
      if (w.(k lsr 5) lsr (k land 31)) land 1 = 1 then '\001' else '\000')

let eval_tt table bits = Bytes.unsafe_get table bits <> '\000'

let eval_packed w bits =
  (Array.unsafe_get w (bits lsr 5) lsr (bits land 31)) land 1 = 1

let eval_packed_at w ~off bits =
  (Array.unsafe_get w (off + (bits lsr 5)) lsr (bits land 31)) land 1 = 1

let pack_truth_table table =
  let size = Bytes.length table in
  let w = Array.make (packed_words ~size) 0 in
  for k = 0 to size - 1 do
    if eval_tt table k then w.(k lsr 5) <- w.(k lsr 5) lor (1 lsl (k land 31))
  done;
  w

let gate_delay ~leaves =
  if leaves < 2 || not (Whisper_util.Bitops.is_power_of_two leaves) then
    invalid_arg "Tree.gate_delay";
  (5 * Whisper_util.Bitops.log2_ceil leaves) + 4

let all_ops op ~leaves =
  if leaves < 2 || not (Whisper_util.Bitops.is_power_of_two leaves) then
    invalid_arg "Tree.all_ops";
  { n = leaves; ops = Array.make (leaves - 1) op; inverted = false }

let random rng ~leaves =
  of_id ~leaves (Whisper_util.Rng.int rng (space_size ~leaves))

let rec pp_node fmt t i =
  let n = t.n in
  if i >= n - 1 then Format.fprintf fmt "b%d" (i - (n - 1))
  else begin
    Format.fprintf fmt "(";
    pp_node fmt t ((2 * i) + 1);
    Format.fprintf fmt " %s "
      (match t.ops.(i) with
      | Op.And -> "and"
      | Op.Or -> "or"
      | Op.Imp -> "imp"
      | Op.Cnimp -> "cnimp");
    pp_node fmt t ((2 * i) + 2);
    Format.fprintf fmt ")"
  end

let pp fmt t =
  if t.inverted then Format.fprintf fmt "~";
  pp_node fmt t 0

let to_string t = Format.asprintf "%a" pp t

let equal a b = a.n = b.n && a.inverted = b.inverted && a.ops = b.ops
