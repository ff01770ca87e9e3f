(* ROMBF training as it was before occupied-key scoring: every classic
   formula is scored over all 2^n raw-history keys of the dense
   taken/not-taken tables.  [Rombf.train] must choose the same hints. *)

open Whisper_trace

type hint = Tree of Whisper_formula.Tree.t | Always | Never

(* Raw-history taken/not-taken tables from a sample half. *)
let tables_at profile ~pc ~n ~part =
  let size = 1 lsl n in
  let taken = Array.make size 0 in
  let not_taken = Array.make size 0 in
  let mask = size - 1 in
  let i = ref 0 in
  Profile.iter_samples profile ~pc ~f:(fun ~raw8 ~raw56:_ ~hash:_ ~taken:tk ~correct:_ ->
      let keep = if part = `Train then !i land 1 = 0 else !i land 1 = 1 in
      incr i;
      if keep then begin
        let k = raw8 land mask in
        if tk then taken.(k) <- taken.(k) + 1
        else not_taken.(k) <- not_taken.(k) + 1
      end);
  (taken, not_taken)

let mispredicts_of ~taken ~not_taken truth =
  let m = ref 0 in
  Array.iteri
    (fun k t ->
      if Whisper_formula.Tree.eval_tt truth k then m := !m + not_taken.(k)
      else m := !m + t)
    taken;
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

(* The hints [Rombf.train] deploys, in candidate order. *)
let train ?(n = 8) ?(min_gain = 2) profile =
  let space = Whisper_formula.Tree.classic_space_size ~leaves:n in
  let formulas =
    Array.init space (fun id ->
        let tree = Whisper_formula.Tree.of_classic_id ~leaves:n id in
        (tree, Whisper_formula.Tree.truth_table tree))
  in
  let hints = ref [] in
  Array.iter
    (fun pc ->
      if Profile.n_samples profile ~pc >= 8 then begin
        let taken, not_taken = tables_at profile ~pc ~n ~part:`Train in
        let _, train_taken, train_n = part_baseline profile ~pc ~part:`Train in
        let train_nt = train_n - train_taken in
        let best = ref ((if train_taken >= train_nt then Always else Never),
                        min train_taken train_nt) in
        Array.iter
          (fun (tree, truth) ->
            let m = mispredicts_of ~taken ~not_taken truth in
            if m < snd !best then best := (Tree tree, m))
          formulas;
        let eval_baseline, eval_taken, eval_n = part_baseline profile ~pc ~part:`Eval in
        let e_taken, e_not_taken = tables_at profile ~pc ~n ~part:`Eval in
        let eval_m =
          match fst !best with
          | Always -> eval_n - eval_taken
          | Never -> eval_taken
          | Tree tree ->
              mispredicts_of ~taken:e_taken ~not_taken:e_not_taken
                (Whisper_formula.Tree.truth_table tree)
        in
        let required = max min_gain ((eval_baseline + 9) / 10) in
        if eval_baseline - eval_m >= required then
          hints := (pc, fst !best) :: !hints
      end)
    (Profile.candidates profile);
  List.rev !hints
