open Whisper_trace

type hint = Tree of Whisper_formula.Tree.t | Always | Never

type t = {
  n : int;
  hints : (int, hint) Hashtbl.t;
  training_seconds : float;
}

(* Raw-history taken/not-taken tables from a sample half, with the keys
   some sample hit, each listed once. *)
let tables_at profile ~pc ~n ~part =
  let size = 1 lsl n in
  let taken = Array.make size 0 in
  let not_taken = Array.make size 0 in
  let keys = ref [] in
  let mask = size - 1 in
  let i = ref 0 in
  Profile.iter_samples profile ~pc ~f:(fun ~raw8 ~raw56:_ ~hash:_ ~taken:tk ~correct:_ ->
      let keep = if part = `Train then !i land 1 = 0 else !i land 1 = 1 in
      incr i;
      if keep then begin
        let k = raw8 land mask in
        if taken.(k) + not_taken.(k) = 0 then keys := k :: !keys;
        if tk then taken.(k) <- taken.(k) + 1
        else not_taken.(k) <- not_taken.(k) + 1
      end);
  (taken, not_taken, Array.of_list !keys)

(* A formula's mispredictions over the sample half.  Keys no sample hit
   count zero either way, so only the occupied keys are summed; the sum
   is over integers, so it is the dense sum over all 2^n keys exactly. *)
let mispredicts_of (taken, not_taken, keys) truth =
  let m = ref 0 in
  Array.iter
    (fun k ->
      if Whisper_formula.Tree.eval_tt truth k then m := !m + not_taken.(k)
      else m := !m + taken.(k))
    keys;
  !m

let part_baseline profile ~pc ~part =
  let mispred = ref 0 and taken = ref 0 and n = ref 0 in
  let i = ref 0 in
  Profile.iter_samples profile ~pc ~f:(fun ~raw8:_ ~raw56:_ ~hash:_ ~taken:tk ~correct ->
      let keep = if part = `Train then !i land 1 = 0 else !i land 1 = 1 in
      incr i;
      if keep then begin
        incr n;
        if not correct then incr mispred;
        if tk then incr taken
      end);
  (!mispred, !taken, !n)

let train ?(n = 8) ?(min_gain = 2) profile =
  if n <> 4 && n <> 8 then invalid_arg "Rombf.train: n must be 4 or 8";
  let t0 = Unix.gettimeofday () in
  let space = Whisper_formula.Tree.classic_space_size ~leaves:n in
  let formulas =
    Array.init space (fun id ->
        let tree = Whisper_formula.Tree.of_classic_id ~leaves:n id in
        (tree, Whisper_formula.Tree.truth_table tree))
  in
  let hints = Hashtbl.create 1024 in
  Array.iter
    (fun pc ->
      if Profile.n_samples profile ~pc >= 8 then begin
        let tables = tables_at profile ~pc ~n ~part:`Train in
        let _, train_taken, train_n = part_baseline profile ~pc ~part:`Train in
        let train_nt = train_n - train_taken in
        (* exhaustive search of the classic space + the two bias hints *)
        let best = ref ((if train_taken >= train_nt then Always else Never),
                        min train_taken train_nt) in
        Array.iter
          (fun (tree, truth) ->
            let m = mispredicts_of tables truth in
            if m < snd !best then best := (Tree tree, m))
          formulas;
        (* held-out acceptance against the profiled baseline accuracy *)
        let eval_baseline, eval_taken, eval_n = part_baseline profile ~pc ~part:`Eval in
        let eval_m =
          match fst !best with
          | Always -> eval_n - eval_taken
          | Never -> eval_taken
          | Tree tree ->
              mispredicts_of
                (tables_at profile ~pc ~n ~part:`Eval)
                (Whisper_formula.Tree.truth_table tree)
        in
        let required = max min_gain ((eval_baseline + 9) / 10) in
        if eval_baseline - eval_m >= required then
          Hashtbl.replace hints pc (fst !best)
      end)
    (Profile.candidates profile);
  { n; hints; training_seconds = Unix.gettimeofday () -. t0 }

let hint_count t = Hashtbl.length t.hints

module Runtime = struct
  type rt = {
    spec : t;
    base : Whisper_bpu.Predictor.t;
    truths : (int, Bytes.t) Hashtbl.t;
    mutable ghist : int;  (* raw last-N outcomes, newest in bit 0 *)
    mutable n_hinted : int;
  }

  let create spec ~baseline =
    { spec; base = baseline; truths = Hashtbl.create 256; ghist = 0; n_hinted = 0 }

  let truth rt tree =
    let id = Whisper_formula.Tree.to_id tree in
    match Hashtbl.find_opt rt.truths id with
    | Some b -> b
    | None ->
        let b = Whisper_formula.Tree.truth_table tree in
        Hashtbl.add rt.truths id b;
        b

  let decide rt ~pc ~taken =
    let d =
      match Hashtbl.find_opt rt.spec.hints pc with
      | Some Always -> 1
      | Some Never -> 0
      | Some (Tree tree) ->
          let bits = rt.ghist land ((1 lsl rt.spec.n) - 1) in
          Bool.to_int (Whisper_formula.Tree.eval_tt (truth rt tree) bits)
      | None -> -1
    in
    if d >= 0 then rt.n_hinted <- rt.n_hinted + 1;
    rt.ghist <- (rt.ghist lsl 1) lor Bool.to_int taken;
    d

  let exec_at rt ~pc ~taken =
    Whisper_bpu.Predictor.exec_hybrid rt.base
      ~decision:(decide rt ~pc ~taken) ~pc ~taken

  let exec rt (e : Branch.event) = exec_at rt ~pc:e.pc ~taken:e.taken

  let hinted_predictions rt = rt.n_hinted
end
