open Whisper_trace

type budget = Budget of int | Unlimited

type t = {
  models : (int, Model.t) Hashtbl.t;
  budget : budget;
  training_seconds : float;
}

(* The original BranchNet convolves over raw (PC, direction) history; our
   surrogate consumes the raw last-56 outcomes as 7 feature bytes. *)
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

let train ?(budget = Unlimited) ?(epochs = 12) ?(max_models = 256)
    ?(min_eval_gain = 2) profile =
  let t0 = Unix.gettimeofday () in
  let models = Hashtbl.create 64 in
  let used_bytes = ref 0 in
  (* every model has the same shape, so once one no longer fits in the
     budget none does, and the walk stops *)
  let model_bytes =
    Model.storage_bytes (Model.create ~n_lengths:feature_bytes ~seed:0 ())
  in
  let budget_left () =
    match budget with
    | Unlimited -> Hashtbl.length models < max_models
    | Budget b -> !used_bytes + model_bytes <= b
  in
  let candidates = Profile.candidates profile in
  let scratch = Model.scratch () in
  let i = ref 0 in
  while budget_left () && !i < Array.length candidates do
    let pc = candidates.(!i) in
    incr i;
    if Profile.n_samples profile ~pc >= 16 then begin
      let xs, ys = gather profile ~pc ~part:`Train in
      let model = Model.create ~n_lengths:feature_bytes ~seed:(pc lxor 0xB4A2) () in
      Model.train_sgd model ~xs ~ys ~epochs ~lr:0.05;
      (* held-out acceptance, mirroring the other techniques *)
      let exs, eys = gather profile ~pc ~part:`Eval in
      let m = ref 0 in
      Array.iteri
        (fun s features ->
          if Model.predict_with scratch model ~features <> eys.(s) then
            incr m)
        exs;
      let baseline = eval_baseline profile ~pc ~part:`Eval in
      let required = max min_eval_gain ((baseline + 9) / 10) in
      if baseline - !m >= required then begin
        (* the budget pays for every deployed model *)
        Hashtbl.replace models pc model;
        used_bytes := !used_bytes + model_bytes
      end
    end
  done;
  { models; budget; training_seconds = Unix.gettimeofday () -. t0 }

let model_count t = Hashtbl.length t.models

let storage_bytes t =
  Hashtbl.fold (fun _ m acc -> acc + Model.storage_bytes m) t.models 0

module Runtime = struct
  type rt = {
    spec : t;
    base : Whisper_bpu.Predictor.t;
    (* the models by pc, open addressing with linear probing: slot [s]
       holds pc [keys.(s)]'s model, or [None] when free; at most half
       the slots are taken, so every probe ends at a free slot *)
    keys : int array;
    slots : Model.t option array;
    mutable ghist : int;  (* raw last-56 outcomes, newest in bit 0 *)
    features : int array;
    scratch : Model.scratch;
    mutable n_covered : int;
  }

  let[@inline] home pc mask = ((pc lsr 2) lxor (pc lsr 13)) land mask

  let[@inline] probe keys slots pc =
    let mask = Array.length keys - 1 in
    let s = ref (home pc mask) in
    while
      match Array.unsafe_get slots !s with
      | Some _ -> Array.unsafe_get keys !s <> pc
      | None -> false
    do
      s := (!s + 1) land mask
    done;
    !s

  let create spec ~baseline =
    (* [decide] feeds every model the same [feature_bytes] history
       bytes, so a model of another width is refused here rather than
       failing mid-replay *)
    Hashtbl.iter
      (fun _ m ->
        if Model.n_inputs m <> feature_bytes * 8 then
          invalid_arg "Branchnet.Runtime.create")
      spec.models;
    let size = ref 16 in
    while !size < 2 * Hashtbl.length spec.models do
      size := 2 * !size
    done;
    let keys = Array.make !size 0 and slots = Array.make !size None in
    Hashtbl.iter
      (fun pc m ->
        let s = probe keys slots pc in
        keys.(s) <- pc;
        slots.(s) <- Some m)
      spec.models;
    {
      spec;
      base = baseline;
      keys;
      slots;
      ghist = 0;
      features = Array.make feature_bytes 0;
      scratch = Model.scratch ();
      n_covered = 0;
    }

  let decide rt ~pc ~taken =
    let d =
      match Array.unsafe_get rt.slots (probe rt.keys rt.slots pc) with
      | None -> -1
      | Some model ->
          for b = 0 to feature_bytes - 1 do
            rt.features.(b) <- (rt.ghist lsr (8 * b)) land 0xFF
          done;
          rt.n_covered <- rt.n_covered + 1;
          Bool.to_int
            (Model.predict_with rt.scratch model ~features:rt.features)
    in
    rt.ghist <-
      ((rt.ghist lsl 1) lor Bool.to_int taken) land 0xFF_FFFF_FFFF_FFFF;
    d

  let exec_at rt ~pc ~taken =
    Whisper_bpu.Predictor.exec_hybrid rt.base
      ~decision:(decide rt ~pc ~taken) ~pc ~taken

  let exec rt (e : Branch.event) = exec_at rt ~pc:e.pc ~taken:e.taken

  let covered_predictions rt = rt.n_covered
end
