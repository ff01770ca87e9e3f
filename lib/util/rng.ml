(* SplitMix64.  The state is the 64-bit counter, kept unboxed in 8 bytes:
   a mutable [int64] field would box a fresh Int64 on every draw.  Every
   draw below steps the counter and mixes it in one function body, so the
   intermediate int64s stay in registers and a draw allocates nothing
   (only [next], whose result is an [int64], boxes it). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let copy t = Bytes.copy t

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] step t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

(* the top [64 - k] bits of the next output, [k >= 2] so they fit an int *)
let[@inline] top t k = Int64.to_int (Int64.shift_right_logical (step t) k)

let next t = step t
let split t = of_state (mix (step t))

let bits t n =
  if n < 0 || n > 62 then invalid_arg "Rng.bits";
  if n = 0 then 0 else top t (64 - n)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  (* Rejection sampling over 62 usable bits to avoid modulo bias. *)
  let r = ref (top t 2) in
  while !r - (!r mod bound) + (bound - 1) < 0 do
    r := top t 2
  done;
  !r mod bound

let[@inline] unit_float t = float_of_int (top t 11) /. 9007199254740992.0
let float t bound = unit_float t *. bound
let bool t = Int64.to_int (step t) land 1 = 1
let bernoulli t p = unit_float t < p

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric";
  if p = 1.0 then 0
  else
    let u = unit_float t in
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n Fun.id in
  shuffle t arr;
  arr

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose";
  arr.(int t (Array.length arr))

let sample_weighted t arr =
  let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 arr in
  if total <= 0.0 then invalid_arg "Rng.sample_weighted";
  let target = float t total in
  let rec go i acc =
    if i >= Array.length arr - 1 then snd arr.(Array.length arr - 1)
    else
      let w, v = arr.(i) in
      let acc = acc +. w in
      if target < acc then v else go (i + 1) acc
  in
  go 0 0.0

let running_sums weights =
  let acc = ref 0.0 in
  Array.map
    (fun w ->
      acc := !acc +. w;
      !acc)
    weights

let sample_cumulative t sums =
  let n = Array.length sums in
  if n = 0 || not (sums.(n - 1) > 0.0) then invalid_arg "Rng.sample_cumulative";
  let target = float t sums.(n - 1) in
  (* the first running sum above the target; the last index when rounding
     puts the target at the total, as [sample_weighted]'s scan does *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sums.(mid) > target then hi := mid else lo := mid + 1
  done;
  !lo
