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

(* every model has the same shape, so a budget of [b] bytes holds
   [b / model_bytes] of them *)
let model_bytes =
  Model.storage_bytes (Model.create ~n_lengths:feature_bytes ~seed:0 ())

(* The walk over a profile's candidates, in order, extended only as far
   as some caller's budget needs.  Each model is seeded by its pc and
   trained on the same samples whatever the budget, so every budget
   deploys a prefix of one accepted sequence. *)
type walk = {
  profile : Profile.t;
  epochs : int;
  min_eval_gain : int;
  on_train : unit -> unit;
  candidates : int array;
  scratch : Model.scratch;
  lock : Mutex.t;  (* guards the fields below and [scratch] *)
  mutable next : int;  (* index of the next candidate to visit *)
  mutable accepted : (int * Model.t) list;  (* newest first *)
  mutable n_accepted : int;
}

let walk ?(epochs = 12) ?(min_eval_gain = 2) ?(on_train = ignore) profile =
  {
    profile;
    epochs;
    min_eval_gain;
    on_train;
    candidates = Profile.candidates profile;
    scratch = Model.scratch ();
    lock = Mutex.create ();
    next = 0;
    accepted = [];
    n_accepted = 0;
  }

(* Train candidate [pc]'s model; [Some model] when it beats the profiled
   baseline on the held-out half. *)
let accept w pc =
  let profile = w.profile in
  let xs, ys = gather profile ~pc ~part:`Train in
  let model = Model.create ~n_lengths:feature_bytes ~seed:(pc lxor 0xB4A2) () in
  Model.train_sgd model ~xs ~ys ~epochs:w.epochs ~lr:0.05;
  (* held-out acceptance, mirroring the other techniques *)
  let exs, eys = gather profile ~pc ~part:`Eval in
  let m = ref 0 in
  Array.iteri
    (fun s features ->
      if Model.predict_with w.scratch model ~features <> eys.(s) then incr m)
    exs;
  let baseline = eval_baseline profile ~pc ~part:`Eval in
  let required = max w.min_eval_gain ((baseline + 9) / 10) in
  if baseline - !m >= required then Some model else None

(* Visit candidates until [k] models are accepted or none is left; the
   caller holds [w.lock].  A candidate's visit updates the walk only
   once it is done, so an exception leaves the walk as it was. *)
let extend w k =
  while w.n_accepted < k && w.next < Array.length w.candidates do
    let pc = w.candidates.(w.next) in
    let model =
      if Profile.n_samples w.profile ~pc >= 16 then begin
        w.on_train ();
        accept w pc
      end
      else None
    in
    w.next <- w.next + 1;
    match model with
    | Some model ->
        w.accepted <- (pc, model) :: w.accepted;
        w.n_accepted <- w.n_accepted + 1
    | None -> ()
  done

let take ?(max_models = 256) w budget =
  let t0 = Unix.gettimeofday () in
  let k =
    match budget with
    | Budget b -> max 0 (b / model_bytes)
    | Unlimited -> max 0 max_models
  in
  let accepted =
    Mutex.protect w.lock (fun () ->
        extend w k;
        w.accepted)
  in
  let models = Hashtbl.create 64 in
  List.rev accepted
  |> List.filteri (fun i _ -> i < k)
  |> List.iter (fun (pc, model) -> Hashtbl.replace models pc model);
  { models; budget; training_seconds = Unix.gettimeofday () -. t0 }

(* a fresh walk, so [training_seconds] is this budget's own walk *)
let train ?(budget = Unlimited) ?epochs ?max_models ?min_eval_gain profile =
  let t0 = Unix.gettimeofday () in
  let t = take ?max_models (walk ?epochs ?min_eval_gain profile) budget in
  { t with training_seconds = Unix.gettimeofday () -. t0 }

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
