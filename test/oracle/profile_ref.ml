(* LBR profile collection as it was before the dense-id passes: pass 1
   accounts every event through [Profile.record_event] (a polymorphic
   [Hashtbl] lookup per event), pass 2 tests candidacy with
   [Hashtbl.mem] per event and keeps its own history bitmap.  The
   reservoirs live here, not in the profile (the public API can only
   append samples), and are copied into it in first-occurrence order
   once the pass ends.  [Profile.collect] and [Profile.collect_arena]
   must produce the same [Profile_io] bytes. *)

open Whisper_trace
module Rng = Generator_ref.Rng

type sample = {
  raw8 : int;
  raw56 : int;
  hashes : int array;
  taken : bool;
  correct : bool;
}

type reservoir = { mutable slots : sample array; mutable n : int; mutable seen : int }

let collect_core ?(max_candidates = 2048) ?(min_mispred = 8)
    ?(max_samples = 512) ?(chunk = 8) ~lengths ~events ~iter ~make_predictor
    () =
  if chunk <= 0 || chunk > 62 || Array.exists (fun l -> l <= 0) lengths then
    invalid_arg "Profile.collect: bad chunk or length series";
  let t = Profile.create_empty ~chunk ~lengths () in
  let predict = make_predictor () in
  iter (fun ~pc ~taken ~instrs ->
      let correct = predict ~pc ~taken in
      Profile.record_event t ~pc ~taken ~correct ~instrs);
  let stats = ref [] in
  Profile.iter_stats t ~f:(fun ~pc s -> stats := (pc, s.Profile.mispred) :: !stats);
  let ranked =
    !stats
    |> List.filter (fun (_, m) -> m >= min_mispred)
    |> List.sort (fun (a, ma) (b, mb) ->
           match compare mb ma with 0 -> compare a b | c -> c)
  in
  let candidate_set = Hashtbl.create max_candidates in
  List.iteri
    (fun i (pc, _) ->
      if i < max_candidates then Hashtbl.replace candidate_set pc ())
    ranked;
  let reservoirs = Hashtbl.create 512 and order = ref [] in
  let predict = make_predictor () in
  let nl = Array.length lengths in
  let folds = Array.make nl 0 in
  let fold_mask = Whisper_util.Bitops.mask chunk in
  let out_pos = Array.map (fun len -> len mod chunk) lengths in
  let bits = Bytes.make ((max 0 events + 7) / 8) '\000' in
  let raw = ref 0 and i = ref 0 in
  let rng = Rng.create 0x5EED5 in
  iter (fun ~pc ~taken ~instrs:_ ->
      let correct = predict ~pc ~taken in
      if Hashtbl.mem candidate_set pc then begin
        let r =
          match Hashtbl.find_opt reservoirs pc with
          | Some r -> r
          | None ->
              let r = { slots = [||]; n = 0; seen = 0 } in
              Hashtbl.add reservoirs pc r;
              order := pc :: !order;
              r
        in
        let s =
          { raw8 = !raw land 0xFF; raw56 = !raw; hashes = Array.copy folds; taken; correct }
        in
        r.seen <- r.seen + 1;
        if r.n < max_samples then begin
          if r.n = Array.length r.slots then
            r.slots <- Array.append r.slots (Array.make (max 1 r.n) s);
          r.slots.(r.n) <- s;
          r.n <- r.n + 1
        end
        else begin
          let j = Rng.int rng r.seen in
          if j < max_samples then r.slots.(j) <- s
        end
      end;
      let b = Bool.to_int taken and j = !i in
      for k = 0 to nl - 1 do
        let len = lengths.(k) in
        let out =
          if j < len then 0
          else (Char.code (Bytes.get bits ((j - len) lsr 3)) lsr ((j - len) land 7)) land 1
        in
        let v = folds.(k) in
        folds.(k) <-
          ((v lsl 1) lor (v lsr (chunk - 1))) land fold_mask
          lxor b
          lxor (out lsl out_pos.(k))
      done;
      if taken then
        Bytes.set bits (j lsr 3)
          (Char.chr (Char.code (Bytes.get bits (j lsr 3)) lor (1 lsl (j land 7))));
      raw := ((!raw lsl 1) lor b) land 0xFF_FFFF_FFFF_FFFF;
      i := j + 1);
  List.iter
    (fun pc ->
      let r = Hashtbl.find reservoirs pc in
      for k = 0 to r.n - 1 do
        let s = r.slots.(k) in
        Profile.add_sample ~raw56:s.raw56 t ~pc ~raw8:s.raw8 ~hashes:s.hashes
          ~taken:s.taken ~correct:s.correct
      done)
    (List.rev !order);
  t

let collect ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths ~events
    ~make_source ~make_predictor () =
  let iter f =
    let src = make_source () in
    for _ = 1 to events do
      let e = src () in
      f ~pc:e.Branch.pc ~taken:e.Branch.taken ~instrs:e.Branch.instrs
    done
  in
  collect_core ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths
    ~events ~iter ~make_predictor ()

let collect_arena ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths
    ~events ~arena ~make_predictor () =
  if events > Arena.length arena then
    invalid_arg "Profile.collect_arena: events exceeds arena length";
  let iter f =
    for i = 0 to events - 1 do
      f ~pc:(Arena.pc arena i) ~taken:(Arena.taken arena i)
        ~instrs:(Arena.instrs arena i)
    done
  in
  collect_core ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths
    ~events ~iter ~make_predictor ()
