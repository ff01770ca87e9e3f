(* The per-bit BranchNet surrogate and its training walk, as they were
   before the decode-once kernel: every [input_bit] re-reads and
   re-tests a packed feature bit, and each hidden unit's sum runs as one
   loop after the other.  The kernel must reproduce these weights bit
   for bit. *)

open Whisper_util
open Whisper_trace

module Model = struct
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

  let weights t = (Array.map Array.copy t.w1, Array.copy t.w2)

  (* features: one hash byte per length; inputs are +-1 per bit *)
  let input_bit features i =
    let byte = features.(i lsr 3) in
    if (byte lsr (i land 7)) land 1 = 1 then 1.0 else -1.0

  let hidden_acts t ~features out =
    for h = 0 to t.hidden - 1 do
      let w = t.w1.(h) in
      let s = ref w.(t.n_in) in
      for i = 0 to t.n_in - 1 do
        s := !s +. (w.(i) *. input_bit features i)
      done;
      out.(h) <- tanh !s
    done

  let forward t ~features =
    let acts = Array.make t.hidden 0.0 in
    hidden_acts t ~features acts;
    let s = ref t.w2.(t.hidden) in
    for h = 0 to t.hidden - 1 do
      s := !s +. (t.w2.(h) *. acts.(h))
    done;
    !s

  let predict t ~features = forward t ~features >= 0.0

  let train_sgd t ~xs ~ys ~epochs ~lr =
    if Array.length xs <> Array.length ys then invalid_arg "Model.train_sgd";
    let acts = Array.make t.hidden 0.0 in
    for _ = 1 to epochs do
      Array.iteri
        (fun s features ->
          hidden_acts t ~features acts;
          let out = ref t.w2.(t.hidden) in
          for h = 0 to t.hidden - 1 do
            out := !out +. (t.w2.(h) *. acts.(h))
          done;
          let target = if ys.(s) then 1.0 else -1.0 in
          (* hinge-style update: only when the margin is insufficient *)
          if target *. !out < 1.0 then begin
            let g = lr *. target in
            for h = 0 to t.hidden - 1 do
              let gh = g *. t.w2.(h) *. (1.0 -. (acts.(h) *. acts.(h))) in
              let w = t.w1.(h) in
              for i = 0 to t.n_in - 1 do
                w.(i) <- w.(i) +. (gh *. input_bit features i)
              done;
              w.(t.n_in) <- w.(t.n_in) +. gh;
              t.w2.(h) <- t.w2.(h) +. (g *. acts.(h))
            done;
            t.w2.(t.hidden) <- t.w2.(t.hidden) +. g
          end)
        xs
    done

  let storage_bytes t = (t.hidden * (t.n_in + 1)) + t.hidden + 1
end

let feature_bytes = 7

(* Gather (features, outcome) pairs from a sample half. *)
let gather profile ~pc ~part =
  let xs = ref [] and ys = ref [] in
  let i = ref 0 in
  Profile.iter_samples profile ~pc ~f:(fun ~raw8:_ ~raw56 ~hash:_ ~taken ~correct:_ ->
      let keep = if part = `Train then !i land 1 = 0 else !i land 1 = 1 in
      incr i;
      if keep then begin
        xs := Array.init feature_bytes (fun b -> (raw56 lsr (8 * b)) land 0xFF) :: !xs;
        ys := taken :: !ys
      end);
  (Array.of_list (List.rev !xs), Array.of_list (List.rev !ys))

let eval_baseline profile ~pc ~part =
  let mispred = ref 0 in
  let i = ref 0 in
  Profile.iter_samples profile ~pc ~f:(fun ~raw8:_ ~raw56:_ ~hash:_ ~taken:_ ~correct ->
      let keep = if part = `Train then !i land 1 = 0 else !i land 1 = 1 in
      incr i;
      if keep && not correct then incr mispred);
  !mispred

(* [Branchnet.train]'s walk over the profile's candidates, over the
   per-bit model: [budget] is [Some bytes] for a storage budget and
   [None] for the unlimited variant.  Returns the deployed models in
   deployment order. *)
let train ?budget ?(epochs = 12) ?(max_models = 256) ?(min_eval_gain = 2)
    profile =
  let models = ref [] and n_models = ref 0 in
  let used_bytes = ref 0 in
  let model_bytes =
    Model.storage_bytes (Model.create ~n_lengths:feature_bytes ~seed:0 ())
  in
  let budget_left () =
    match budget with
    | None -> !n_models < max_models
    | Some b -> !used_bytes + model_bytes <= b
  in
  let candidates = Profile.candidates profile in
  let i = ref 0 in
  while budget_left () && !i < Array.length candidates do
    let pc = candidates.(!i) in
    incr i;
    if Profile.n_samples profile ~pc >= 16 then begin
      let xs, ys = gather profile ~pc ~part:`Train in
      let model = Model.create ~n_lengths:feature_bytes ~seed:(pc lxor 0xB4A2) () in
      Model.train_sgd model ~xs ~ys ~epochs ~lr:0.05;
      let exs, eys = gather profile ~pc ~part:`Eval in
      let m = ref 0 in
      Array.iteri
        (fun s features ->
          if Model.predict model ~features <> eys.(s) then incr m)
        exs;
      let baseline = eval_baseline profile ~pc ~part:`Eval in
      let required = max min_eval_gain ((baseline + 9) / 10) in
      if baseline - !m >= required then begin
        models := (pc, model) :: !models;
        incr n_models;
        used_bytes := !used_bytes + model_bytes
      end
    end
  done;
  List.rev !models
