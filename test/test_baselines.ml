(* Tests for the prior-work baselines: classic ROMBF (Jiménez et al. 2001)
   and the BranchNet surrogate. *)

open Whisper_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A synthetic profile builder: outcomes as a function of raw history. *)
let synthetic_profile ~n ~gen =
  let p = Profile.create_empty ~lengths:Workloads.lengths () in
  let rng = Whisper_util.Rng.create 31 in
  let hist = ref 0 in
  for _ = 0 to n - 1 do
    let taken, correct = gen ~raw:(!hist) ~rng in
    Profile.record_event p ~pc:0x4000 ~taken ~correct ~instrs:8;
    Profile.add_sample ~raw56:(!hist land 0xFF_FFFF_FFFF_FFFF) p ~pc:0x4000
      ~raw8:(!hist land 0xFF)
      ~hashes:(Array.make 16 (!hist land 0xFF))
      ~taken ~correct;
    hist := ((!hist lsl 1) lor if taken then 1 else 0) land max_int
  done;
  p

(* ------------------------------------------------------------------ *)
(* ROMBF                                                              *)
(* ------------------------------------------------------------------ *)

let test_rombf_learns_conjunction () =
  (* taken iff the last two outcomes were both taken: expressible as a
     classic and/or tree over the raw window *)
  let p =
    synthetic_profile ~n:600 ~gen:(fun ~raw ~rng ->
        let taken =
          if raw land 3 = 3 then Whisper_util.Rng.bernoulli rng 0.2
          else Whisper_util.Rng.bernoulli rng 0.8
        in
        (taken, Whisper_util.Rng.bool rng))
  in
  let t = Whisper_rombf.Rombf.train ~n:8 p in
  check_int "one branch hinted" 1 (Whisper_rombf.Rombf.hint_count t)

let test_rombf_rejects_noise () =
  let p =
    synthetic_profile ~n:600 ~gen:(fun ~raw:_ ~rng ->
        (Whisper_util.Rng.bool rng, Whisper_util.Rng.bernoulli rng 0.6))
  in
  let t = Whisper_rombf.Rombf.train ~n:8 p in
  check_int "no hint for a coin flip" 0 (Whisper_rombf.Rombf.hint_count t)

let test_rombf_invalid_n () =
  let p = Profile.create_empty ~lengths:Workloads.lengths () in
  Alcotest.check_raises "n" (Invalid_argument "Rombf.train: n must be 4 or 8")
    (fun () -> ignore (Whisper_rombf.Rombf.train ~n:6 p))

let test_rombf_runtime_always_hint () =
  (* always-taken branch badly predicted by the baseline: ROMBF emits a
     tautology hint and the runtime must be perfect *)
  let p =
    synthetic_profile ~n:400 ~gen:(fun ~raw:_ ~rng ->
        (true, Whisper_util.Rng.bernoulli rng 0.5))
  in
  let spec = Whisper_rombf.Rombf.train ~n:4 p in
  check_int "hinted" 1 (Whisper_rombf.Rombf.hint_count spec);
  let rt =
    Whisper_rombf.Rombf.Runtime.create spec
      ~baseline:(Whisper_bpu.Predictor.always_taken ())
  in
  let correct = ref 0 in
  for i = 0 to 99 do
    let e =
      { Branch.block = 0; pc = 0x4000; taken = true; instrs = 4; next_addr = i }
    in
    if Whisper_rombf.Rombf.Runtime.exec rt e then incr correct
  done;
  check_int "all correct" 100 !correct;
  check_int "hinted predictions" 100
    (Whisper_rombf.Rombf.Runtime.hinted_predictions rt)

let test_rombf_training_time () =
  let p = synthetic_profile ~n:100 ~gen:(fun ~raw:_ ~rng -> (Whisper_util.Rng.bool rng, true)) in
  let t4 = Whisper_rombf.Rombf.train ~n:4 p in
  check_bool "time measured" true (t4.Whisper_rombf.Rombf.training_seconds >= 0.0)

(* ------------------------------------------------------------------ *)
(* BranchNet                                                          *)
(* ------------------------------------------------------------------ *)

let test_model_learns_linear () =
  (* taken iff history bit 3 is set: linearly separable *)
  let rng = Whisper_util.Rng.create 5 in
  let n = 400 in
  let xs =
    Array.init n (fun _ -> Array.init 7 (fun _ -> Whisper_util.Rng.int rng 256))
  in
  let ys = Array.map (fun x -> x.(0) land 8 <> 0) xs in
  let m = Whisper_branchnet.Model.create ~n_lengths:7 ~seed:3 () in
  Whisper_branchnet.Model.train_sgd m ~xs ~ys ~epochs:20 ~lr:0.05;
  let correct = ref 0 in
  Array.iteri
    (fun i x ->
      if Whisper_branchnet.Model.predict m ~features:x = ys.(i) then incr correct)
    xs;
  check_bool "fits" true (float_of_int !correct /. float_of_int n > 0.95)

let test_model_learns_nonlinear () =
  (* (b0 && b1) || (b2 && b3): not linearly separable; needs the hidden
     layer *)
  let rng = Whisper_util.Rng.create 6 in
  let n = 600 in
  let xs =
    Array.init n (fun _ -> Array.init 7 (fun _ -> Whisper_util.Rng.int rng 256))
  in
  let ys =
    Array.map
      (fun x ->
        let b i = x.(0) land (1 lsl i) <> 0 in
        (b 0 && b 1) || (b 2 && b 3))
      xs
  in
  let m = Whisper_branchnet.Model.create ~hidden:8 ~n_lengths:7 ~seed:9 () in
  Whisper_branchnet.Model.train_sgd m ~xs ~ys ~epochs:60 ~lr:0.05;
  let correct = ref 0 in
  Array.iteri
    (fun i x ->
      if Whisper_branchnet.Model.predict m ~features:x = ys.(i) then incr correct)
    xs;
  check_bool "fits nonlinear" true (float_of_int !correct /. float_of_int n > 0.9)

let test_model_storage () =
  let m = Whisper_branchnet.Model.create ~hidden:8 ~n_lengths:7 ~seed:1 () in
  check_int "inputs" 56 (Whisper_branchnet.Model.n_inputs m);
  (* 8*(56+1) + 8 + 1 = 465 bytes quantized *)
  check_int "bytes" 465 (Whisper_branchnet.Model.storage_bytes m)

(* Malformed shapes are refused at the boundary with the function's
   name, not as a bare index error from inside the unsafe loops. *)
let test_model_rejects_short_features () =
  let m = Whisper_branchnet.Model.create ~n_lengths:7 ~seed:2 () in
  let short = Array.make 6 0xFF in
  Alcotest.check_raises "forward" (Invalid_argument "Model.forward") (fun () ->
      ignore (Whisper_branchnet.Model.forward m ~features:short));
  Alcotest.check_raises "predict" (Invalid_argument "Model.forward")
    (fun () -> ignore (Whisper_branchnet.Model.predict m ~features:short));
  Alcotest.check_raises "train_sgd" (Invalid_argument "Model.train_sgd")
    (fun () ->
      Whisper_branchnet.Model.train_sgd m
        ~xs:[| Array.make 7 0; short |]
        ~ys:[| true; false |] ~epochs:1 ~lr:0.05);
  (* rejected before any update: the weights are the untrained ones *)
  check_bool "weights untouched" true
    (Whisper_branchnet.Model.weights m
    = Whisper_branchnet.Model.weights
        (Whisper_branchnet.Model.create ~n_lengths:7 ~seed:2 ()))

let test_branchnet_runtime_rejects_wide_model () =
  let models = Hashtbl.create 1 in
  Hashtbl.replace models 0x4000
    (Whisper_branchnet.Model.create ~n_lengths:8 ~seed:1 ());
  let spec =
    {
      Whisper_branchnet.Branchnet.models;
      budget = Unlimited;
      training_seconds = 0.0;
    }
  in
  Alcotest.check_raises "64-input model"
    (Invalid_argument "Branchnet.Runtime.create") (fun () ->
      ignore
        (Whisper_branchnet.Branchnet.Runtime.create spec
           ~baseline:(Whisper_bpu.Predictor.always_taken ())))

let test_branchnet_budget_bounds_coverage () =
  (* many predictable branches; small budgets must cover fewer *)
  let p = Profile.create_empty ~lengths:Workloads.lengths () in
  let rng = Whisper_util.Rng.create 77 in
  for b = 0 to 39 do
    let pc = 0x4000 + (b * 64) in
    for _ = 0 to 99 do
      let raw = Whisper_util.Rng.int rng 256 in
      let taken = raw land 1 = 1 in
      Profile.record_event p ~pc ~taken ~correct:(Whisper_util.Rng.bool rng)
        ~instrs:8;
      Profile.add_sample ~raw56:raw p ~pc ~raw8:raw
        ~hashes:(Array.make 16 raw) ~taken
        ~correct:(Whisper_util.Rng.bool rng)
    done
  done;
  let small =
    Whisper_branchnet.Branchnet.train
      ~budget:(Whisper_branchnet.Branchnet.Budget 2048) ~epochs:8 p
  in
  let big =
    Whisper_branchnet.Branchnet.train
      ~budget:Whisper_branchnet.Branchnet.Unlimited ~epochs:8 p
  in
  check_bool "small budget, few models" true
    (Whisper_branchnet.Branchnet.model_count small
    < Whisper_branchnet.Branchnet.model_count big);
  check_bool "budget respected" true
    (Whisper_branchnet.Branchnet.storage_bytes small <= 2048);
  check_bool "unlimited covers most" true
    (Whisper_branchnet.Branchnet.model_count big >= 30)

let test_branchnet_runtime_uses_models () =
  let p = Profile.create_empty ~lengths:Workloads.lengths () in
  let rng = Whisper_util.Rng.create 78 in
  let pc = 0x4000 in
  for _ = 0 to 299 do
    let raw = Whisper_util.Rng.int rng 256 in
    let taken = raw land 1 = 1 in
    Profile.record_event p ~pc ~taken ~correct:(Whisper_util.Rng.bool rng) ~instrs:8;
    Profile.add_sample ~raw56:raw p ~pc ~raw8:raw ~hashes:(Array.make 16 raw)
      ~taken ~correct:(Whisper_util.Rng.bool rng)
  done;
  let spec = Whisper_branchnet.Branchnet.train ~epochs:20 p in
  check_int "model trained" 1 (Whisper_branchnet.Branchnet.model_count spec);
  let rt =
    Whisper_branchnet.Branchnet.Runtime.create spec
      ~baseline:(Whisper_bpu.Predictor.always_taken ())
  in
  let correct = ref 0 and total = 200 in
  let ghist = ref 0 in
  for i = 0 to total - 1 do
    (* the model learned: taken iff previous outcome (bit 0) taken *)
    let taken = !ghist land 1 = 1 in
    let e = { Branch.block = 0; pc; taken; instrs = 4; next_addr = i } in
    if Whisper_branchnet.Branchnet.Runtime.exec rt e then incr correct;
    ghist := (!ghist lsl 1) lor (if taken then 1 else 0)
  done;
  check_int "covered" total
    (Whisper_branchnet.Branchnet.Runtime.covered_predictions rt);
  check_bool "mostly correct" true (float_of_int !correct /. float_of_int total > 0.8)

let () =
  Alcotest.run "whisper_baselines"
    [
      ( "rombf",
        Alcotest.
          [
            test_case "learns conjunction" `Quick test_rombf_learns_conjunction;
            test_case "rejects noise" `Quick test_rombf_rejects_noise;
            test_case "invalid n" `Quick test_rombf_invalid_n;
            test_case "runtime always hint" `Quick test_rombf_runtime_always_hint;
            test_case "training time" `Quick test_rombf_training_time;
          ] );
      ( "branchnet",
        Alcotest.
          [
            test_case "model linear" `Quick test_model_learns_linear;
            test_case "model nonlinear" `Quick test_model_learns_nonlinear;
            test_case "model storage" `Quick test_model_storage;
            test_case "model rejects short features" `Quick
              test_model_rejects_short_features;
            test_case "runtime rejects wide model" `Quick
              test_branchnet_runtime_rejects_wide_model;
            test_case "budget bounds coverage" `Quick
              test_branchnet_budget_bounds_coverage;
            test_case "runtime uses models" `Quick test_branchnet_runtime_uses_models;
          ] );
    ]
