open Whisper_util

type t = {
  hidden : int;
  n_lengths : int;
  n_in : int;  (* n_lengths * 8 binary inputs *)
  w1 : float array array;  (* hidden x (n_in + 1), last column = bias *)
  w2 : float array;  (* hidden + 1 *)
}

let create ?(hidden = 8) ?(n_lengths = 8) ~seed () =
  let rng = Rng.create seed in
  let n_in = n_lengths * 8 in
  let init () = Rng.float rng 0.2 -. 0.1 in
  {
    hidden;
    n_lengths;
    n_in;
    w1 = Array.init hidden (fun _ -> Array.init (n_in + 1) (fun _ -> init ()));
    w2 = Array.init (hidden + 1) (fun _ -> init ());
  }

let n_inputs t = t.n_in
let weights t = (Array.map Array.copy t.w1, Array.copy t.w2)

(* features: one hash byte per length; inputs are +-1 per bit.  A sample
   is decoded once into [x.(off) .. x.(off + n_in - 1)], branch-free:
   input [i] is bit [i land 7] of byte [i lsr 3].  The length check is
   the only guard the unsafe loops below need. *)
let decode t ~fn features x ~off =
  if Array.length features < t.n_lengths then invalid_arg fn;
  for i = 0 to t.n_in - 1 do
    let bit = (Array.unsafe_get features (i lsr 3) lsr (i land 7)) land 1 in
    Array.unsafe_set x (off + i) (float_of_int ((2 * bit) - 1))
  done

(* The hidden activations of the decoded sample at [off], four units per
   pass over the inputs.  Each unit's sum is its own dependency chain,
   started from its bias and added in input order with no fused or
   reassociated operation, so it is bit for bit the sum of a loop over
   that unit alone; the four chains overlap in the pipeline.  (Four
   chains measured faster than eight, which spill registers.) *)
let hidden_acts t x ~off acts =
  let n_in = t.n_in in
  let h = ref 0 in
  while !h + 4 <= t.hidden do
    let h0 = !h in
    let r0 = t.w1.(h0) and r1 = t.w1.(h0 + 1) in
    let r2 = t.w1.(h0 + 2) and r3 = t.w1.(h0 + 3) in
    let s0 = ref r0.(n_in) and s1 = ref r1.(n_in) in
    let s2 = ref r2.(n_in) and s3 = ref r3.(n_in) in
    for i = 0 to n_in - 1 do
      let xi = Array.unsafe_get x (off + i) in
      s0 := !s0 +. (Array.unsafe_get r0 i *. xi);
      s1 := !s1 +. (Array.unsafe_get r1 i *. xi);
      s2 := !s2 +. (Array.unsafe_get r2 i *. xi);
      s3 := !s3 +. (Array.unsafe_get r3 i *. xi)
    done;
    acts.(h0) <- tanh !s0;
    acts.(h0 + 1) <- tanh !s1;
    acts.(h0 + 2) <- tanh !s2;
    acts.(h0 + 3) <- tanh !s3;
    h := h0 + 4
  done;
  for h = !h to t.hidden - 1 do
    let r = t.w1.(h) in
    let s = ref r.(n_in) in
    for i = 0 to n_in - 1 do
      s := !s +. (Array.unsafe_get r i *. Array.unsafe_get x (off + i))
    done;
    acts.(h) <- tanh !s
  done

(* The output unit's sum, stored in [acts.(t.hidden)]: a float returned
   from a call is boxed, a float stored in a float array is not. *)
let output t acts =
  let s = ref t.w2.(t.hidden) in
  for h = 0 to t.hidden - 1 do
    s := !s +. (t.w2.(h) *. acts.(h))
  done;
  acts.(t.hidden) <- !s

type scratch = { mutable x : float array; mutable acts : float array }

let scratch () = { x = [||]; acts = [||] }

(* Leaves the output in [sc.acts.(t.hidden)]. *)
let run sc t ~features =
  if Array.length sc.x < t.n_in then sc.x <- Array.make t.n_in 0.0;
  if Array.length sc.acts <= t.hidden then
    sc.acts <- Array.make (t.hidden + 1) 0.0;
  decode t ~fn:"Model.forward" features sc.x ~off:0;
  hidden_acts t sc.x ~off:0 sc.acts;
  output t sc.acts

let forward_with sc t ~features =
  run sc t ~features;
  sc.acts.(t.hidden)

let predict_with sc t ~features =
  run sc t ~features;
  sc.acts.(t.hidden) >= 0.0

let forward t ~features = forward_with (scratch ()) t ~features
let predict t ~features = predict_with (scratch ()) t ~features

let train_sgd t ~xs ~ys ~epochs ~lr =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Model.train_sgd";
  let x = Array.make (n * t.n_in) 0.0 in
  Array.iteri
    (fun s features ->
      decode t ~fn:"Model.train_sgd" features x ~off:(s * t.n_in))
    xs;
  let acts = Array.make (t.hidden + 1) 0.0 in
  for _ = 1 to epochs do
    for s = 0 to n - 1 do
      let off = s * t.n_in in
      hidden_acts t x ~off acts;
      output t acts;
      let target = if ys.(s) then 1.0 else -1.0 in
      (* hinge-style update: only when the margin is insufficient *)
      if target *. acts.(t.hidden) < 1.0 then begin
        let g = lr *. target in
        for h = 0 to t.hidden - 1 do
          (* [gh] reads w2.(h) before this sample's update of it *)
          let gh = g *. t.w2.(h) *. (1.0 -. (acts.(h) *. acts.(h))) in
          let w = t.w1.(h) in
          for i = 0 to t.n_in - 1 do
            Array.unsafe_set w i
              (Array.unsafe_get w i +. (gh *. Array.unsafe_get x (off + i)))
          done;
          w.(t.n_in) <- w.(t.n_in) +. gh;
          t.w2.(h) <- t.w2.(h) +. (g *. acts.(h))
        done;
        t.w2.(t.hidden) <- t.w2.(t.hidden) +. g
      end
    done
  done

let storage_bytes t =
  (* 8-bit quantized weights, as BranchNet's deployed inference engine *)
  (t.hidden * (t.n_in + 1)) + t.hidden + 1
