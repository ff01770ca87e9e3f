(* Tests for whisper_bpu: counters, bimodal, TAGE, the loop predictor,
   statistical corrector, TAGE-SC-L composition and MTAGE. *)

open Whisper_bpu

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Accuracy of a predictor over a generated (pc, taken) stream, measured
   on the second half (after warm-up). *)
let accuracy (p : Predictor.t) gen n =
  let correct = ref 0 and measured = ref 0 in
  for i = 1 to n do
    let pc, taken = gen i in
    let pred = p.Predictor.predict ~pc in
    if i > n / 2 then begin
      incr measured;
      if pred = taken || p.is_oracle then incr correct
    end;
    p.train ~pc ~taken
  done;
  float_of_int !correct /. float_of_int !measured

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  check_int "inc saturates" 3 (Counters.inc 3 ~max:3);
  check_int "inc" 2 (Counters.inc 1 ~max:3);
  check_int "dec saturates" 0 (Counters.dec 0 ~min:0);
  check_int "dec" 1 (Counters.dec 2 ~min:0);
  check_int "update up" 3 (Counters.update 2 ~taken:true ~min:0 ~max:3);
  check_int "update down" 1 (Counters.update 2 ~taken:false ~min:0 ~max:3);
  check_bool "taken_of" true (Counters.taken_of 2 ~mid:2);
  check_bool "not taken_of" false (Counters.taken_of 1 ~mid:2)

(* ------------------------------------------------------------------ *)
(* Bimodal                                                            *)
(* ------------------------------------------------------------------ *)

let test_bimodal_learns_constant () =
  let p = Bimodal.make ~log_entries:10 in
  let acc = accuracy p (fun _ -> (0x1000, true)) 100 in
  check_bool "learns always-taken" true (acc = 1.0)

let test_bimodal_tracks_bias () =
  let p = Bimodal.make ~log_entries:10 in
  (* 3-of-4 taken pattern: majority prediction is right 75% *)
  let acc = accuracy p (fun i -> (0x1000, i mod 4 <> 0)) 400 in
  check_bool "predicts majority" true (acc >= 0.70)

let test_bimodal_per_pc () =
  let p = Bimodal.make ~log_entries:10 in
  let gen i = if i mod 2 = 0 then (0x1000, true) else (0x2004, false) in
  let acc = accuracy p gen 200 in
  check_bool "separates PCs" true (acc = 1.0)

let test_bimodal_storage () =
  let p = Bimodal.make ~log_entries:10 in
  check_int "2 bits per entry" 2048 p.Predictor.storage_bits

(* ------------------------------------------------------------------ *)
(* Tage                                                               *)
(* ------------------------------------------------------------------ *)

let small_tage () =
  Tage.create
    {
      Tage.n_tables = 6;
      log_entries = 9;
      tag_bits = 10;
      min_len = 4;
      max_len = 64;
      log_bimodal = 12;
      u_reset_period = 1 lsl 18;
    }

let test_tage_history_lengths () =
  let t = small_tage () in
  let ls = Tage.history_lengths t in
  check_int "6 tables" 6 (Array.length ls);
  check_int "min" 4 ls.(0);
  check_int "max" 64 ls.(5);
  for i = 1 to 5 do
    check_bool "increasing" true (ls.(i) > ls.(i - 1))
  done

let test_tage_contract () =
  let t = small_tage () in
  ignore (Tage.predict t ~pc:0x4000);
  Alcotest.check_raises "train pc mismatch"
    (Invalid_argument "Tage.train: predict/train mismatch") (fun () ->
      Tage.train t ~pc:0x8888 ~taken:true)

let test_tage_learns_periodic () =
  (* outcome depends on position in a period-5 pattern -> needs history *)
  let pattern = [| true; true; false; true; false |] in
  let p = Tage.predictor (Tage.default_params) in
  let acc = accuracy p (fun i -> (0x4000, pattern.(i mod 5))) 4000 in
  check_bool "tage learns periodic pattern" true (acc > 0.95)

let test_tage_learns_correlation () =
  (* branch B's outcome equals branch A's outcome two executions earlier *)
  let state = Array.make 4 false in
  let rng = Whisper_util.Rng.create 42 in
  let gen i =
    if i mod 2 = 0 then begin
      let v = Whisper_util.Rng.bool rng in
      state.(i / 2 mod 4) <- v;
      (0xA000, v)
    end
    else (0xB000, state.((i / 2) mod 4))
  in
  let p = Tage.predictor Tage.default_params in
  let correct = ref 0 and total = ref 0 in
  for i = 0 to 7999 do
    let pc, taken = gen i in
    let pred = p.Predictor.predict ~pc in
    if i > 4000 && pc = 0xB000 then begin
      incr total;
      if pred = taken then incr correct
    end;
    p.train ~pc ~taken
  done;
  let acc = float_of_int !correct /. float_of_int !total in
  check_bool "correlated branch learned" true (acc > 0.9)

let test_tage_spectate_keeps_history_moving () =
  let t = small_tage () in
  (* spectating should not raise and should not corrupt later training *)
  for i = 1 to 100 do
    ignore (Tage.predict t ~pc:0x4000);
    if i mod 2 = 0 then Tage.spectate t ~pc:0x4000 ~taken:true
    else Tage.train t ~pc:0x4000 ~taken:true
  done;
  check_bool "alive" true (Tage.predict t ~pc:0x4000 || true)

let test_tage_storage_bits () =
  let t = small_tage () in
  (* 6 tables * 512 entries * (10 tag + 3 ctr + 2 u) + bimodal 2*4096 *)
  check_int "storage" ((6 * 512 * 15) + 8192) (Tage.storage_bits t)

(* ------------------------------------------------------------------ *)
(* Loop predictor                                                     *)
(* ------------------------------------------------------------------ *)

let test_loop_learns_period () =
  let lp = Loop_pred.create ~log_entries:6 in
  let period = 7 in
  let mis = ref 0 and total = ref 0 in
  for i = 0 to 999 do
    let taken = i mod period <> period - 1 in
    (match Loop_pred.predict lp ~pc:0x4000 with
    | Some pred ->
        if i > 500 then begin
          incr total;
          if pred <> taken then incr mis
        end
    | None -> ());
    Loop_pred.train lp ~pc:0x4000 ~taken ~tage_mispredicted:true
  done;
  check_bool "confident eventually" true (!total > 400);
  check_int "no mispredictions once learned" 0 !mis

let test_loop_no_false_confidence_on_random () =
  let lp = Loop_pred.create ~log_entries:6 in
  let rng = Whisper_util.Rng.create 3 in
  let confident = ref 0 in
  for _ = 0 to 999 do
    (match Loop_pred.predict lp ~pc:0x4000 with
    | Some _ -> incr confident
    | None -> ());
    Loop_pred.train lp ~pc:0x4000 ~taken:(Whisper_util.Rng.bool rng)
      ~tage_mispredicted:true
  done;
  check_bool "rarely confident on random" true (!confident < 100)

let test_loop_tag_isolation () =
  let lp = Loop_pred.create ~log_entries:4 in
  (* two PCs mapping to the same slot: second must not reuse first's entry *)
  let pc1 = 0x4000 and pc2 = 0x4000 + (4 lsl 4) in
  for i = 0 to 200 do
    ignore (Loop_pred.predict lp ~pc:pc1);
    Loop_pred.train lp ~pc:pc1 ~taken:(i mod 3 <> 2) ~tage_mispredicted:true
  done;
  Alcotest.(check (option bool)) "other pc sees no entry" None
    (Loop_pred.predict lp ~pc:pc2)

(* ------------------------------------------------------------------ *)
(* Statistical corrector                                              *)
(* ------------------------------------------------------------------ *)

let test_sc_neutral_initially () =
  let sc = Stat_corrector.create ~log_entries:8 in
  check_bool "returns tage pred (taken)" true
    (Stat_corrector.refine sc ~pc:0x4000 ~tage_pred:true);
  Stat_corrector.train sc ~pc:0x4000 ~taken:true;
  check_bool "returns tage pred (not-taken)" false
    (Stat_corrector.refine sc ~pc:0x4000 ~tage_pred:false)

let test_sc_vetoes_statistical_bias () =
  let sc = Stat_corrector.create ~log_entries:8 in
  (* TAGE keeps predicting not-taken on an always-taken branch *)
  let vetoed = ref false in
  for _ = 1 to 200 do
    let final = Stat_corrector.refine sc ~pc:0x4000 ~tage_pred:false in
    if final then vetoed := true;
    Stat_corrector.train sc ~pc:0x4000 ~taken:true
  done;
  check_bool "eventually vetoes" true !vetoed

let test_sc_respects_high_confidence () =
  let sc = Stat_corrector.create ~log_entries:8 in
  (* with a high-confidence TAGE prediction the gate is 4x: small evidence
     must not veto *)
  for _ = 1 to 8 do
    ignore (Stat_corrector.refine sc ~pc:0x4000 ~tage_pred:false);
    Stat_corrector.train sc ~pc:0x4000 ~taken:true
  done;
  let low = Stat_corrector.refine ~tage_conf:`Low sc ~pc:0x4000 ~tage_pred:false in
  Stat_corrector.train sc ~pc:0x4000 ~taken:true;
  let high = Stat_corrector.refine ~tage_conf:`High sc ~pc:0x4000 ~tage_pred:false in
  Stat_corrector.train sc ~pc:0x4000 ~taken:true;
  check_bool "low confidence vetoed" true low;
  check_bool "high confidence not vetoed" false high

let test_sc_train_contract () =
  let sc = Stat_corrector.create ~log_entries:8 in
  ignore (Stat_corrector.refine sc ~pc:0x4000 ~tage_pred:true);
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Stat_corrector.train: mismatch") (fun () ->
      Stat_corrector.train sc ~pc:0x9999 ~taken:true)

(* ------------------------------------------------------------------ *)
(* TAGE-SC-L                                                          *)
(* ------------------------------------------------------------------ *)

let test_tage_scl_learns_long_loop () =
  (* period-40 loop: beyond comfortable TAGE pattern length, the loop
     predictor component must catch it *)
  let p = Tage_scl.predictor (Sizes.for_budget ~kb:64) in
  let period = 40 in
  let acc = accuracy p (fun i -> (0x4000, i mod period <> period - 1)) 8000 in
  check_bool "catches long loop exits" true (acc > 0.99)

let test_tage_scl_name_and_storage () =
  let p = Tage_scl.predictor Sizes.standard in
  Alcotest.(check string) "name" "tage-scl-64KB" p.Predictor.name;
  let bits = p.Predictor.storage_bits in
  let kb = bits / 8192 in
  check_bool "storage within 40% of 64KB" true (kb >= 38 && kb <= 90)

(* The flat kernel's layout holds 12 tables (its hit-mask table),
   21-bit index folds and 2- to 15-bit tags; it refuses anything else,
   and every [Sizes] budget fits. *)
let test_tage_scl_fill_geometry () =
  let src =
    let i = ref 0 in
    fun () ->
      incr i;
      {
        Whisper_trace.Branch.block = 0;
        pc = 0x4000 + (4 * (!i mod 7));
        taken = !i mod 3 = 0;
        instrs = 4;
        next_addr = 0x4000;
      }
  in
  let arena = Whisper_trace.Arena.of_source ~events:1_000 src in
  let fill sizes =
    Tage_scl.fill sizes ~arena ~n:1_000
      ~covered:(Bytes.make 1_000 '\000')
      ~verdicts:(Bytes.create 1_000)
  in
  let with_tage f =
    let s = Sizes.standard in
    { s with Sizes.tage = f s.Sizes.tage }
  in
  let refused what msg f =
    Alcotest.check_raises what (Invalid_argument ("Tage_scl.fill: " ^ msg))
      (fun () -> fill (with_tage f))
  in
  refused "13 tables" "n_tables outside 1..12" (fun p ->
      { p with Tage.n_tables = 13 });
  refused "22-bit index" "log_entries outside 3..21" (fun p ->
      { p with Tage.log_entries = 22 });
  refused "1-bit tags" "tag_bits outside 2..15" (fun p ->
      { p with Tage.tag_bits = 1 });
  refused "16-bit tags" "tag_bits outside 2..15" (fun p ->
      { p with Tage.tag_bits = 16 });
  List.iter
    (fun kb -> fill (Sizes.for_budget ~kb))
    [ 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]

let test_sizes_scaling () =
  let s8 = Sizes.for_budget ~kb:8 and s64 = Sizes.for_budget ~kb:64 in
  let s1024 = Sizes.for_budget ~kb:1024 in
  check_bool "8 < 64" true (Sizes.total_bits s8 < Sizes.total_bits s64);
  check_bool "64 < 1024" true (Sizes.total_bits s64 < Sizes.total_bits s1024);
  check_int "standard is 64" 64 Sizes.standard.Sizes.budget_kb;
  Alcotest.check_raises "non power of two" (Invalid_argument "Sizes.for_budget")
    (fun () -> ignore (Sizes.for_budget ~kb:48))

let test_sizes_total_vs_budget () =
  List.iter
    (fun kb ->
      let s = Sizes.for_budget ~kb in
      let kbits = Sizes.total_bits s / 8192 in
      check_bool
        (Printf.sprintf "%dKB config sized within [0.4x, 1.6x]" kb)
        true
        (float_of_int kbits >= 0.4 *. float_of_int kb
        && float_of_int kbits <= 1.6 *. float_of_int kb))
    [ 8; 16; 32; 64; 128; 256; 512; 1024 ]

(* ------------------------------------------------------------------ *)
(* MTAGE / ideal                                                      *)
(* ------------------------------------------------------------------ *)

let test_mtage_memorizes () =
  (* a pattern with period 200 — far beyond finite-table capacity ease,
     trivial for the unlimited substream memorizer *)
  let p = Mtage.predictor () in
  let pat = Array.init 200 (fun i -> (i * 7 mod 13) < 6) in
  let acc = accuracy p (fun i -> (0x4000, pat.(i mod 200))) 30_000 in
  check_bool "memorizes long pattern" true (acc > 0.97)

(* The flat kernel reads the arena and writes the verdicts unchecked, so
   it checks [n] against both before the first event. *)
let test_mtage_fill_refuses () =
  let src =
    let i = ref 0 in
    fun () ->
      incr i;
      {
        Whisper_trace.Branch.block = 0;
        pc = 0x4000;
        taken = !i mod 3 = 0;
        instrs = 4;
        next_addr = 0x4000;
      }
  in
  let arena = Whisper_trace.Arena.of_source ~events:1_000 src in
  let fill = (Mtage.compiled ()).Predictor.Compiled.fill in
  let refused = Invalid_argument "Mtage.compiled: n outside the arena or the verdicts" in
  Alcotest.check_raises "short verdicts" refused (fun () ->
      fill ~arena ~n:1_000 ~verdicts:(Bytes.create 999));
  Alcotest.check_raises "n past the arena" refused (fun () ->
      fill ~arena ~n:5_000 ~verdicts:(Bytes.create 5_000));
  Alcotest.check_raises "negative n" refused (fun () ->
      fill ~arena ~n:(-1) ~verdicts:(Bytes.create 0));
  let verdicts = Bytes.make 1_001 '\042' in
  fill ~arena ~n:1_000 ~verdicts;
  check_bool "the byte past n is left alone" true
    (Bytes.get verdicts 1_000 = '\042')

let test_ideal () =
  let p = Predictor.ideal () in
  check_bool "oracle flag" true p.Predictor.is_oracle;
  let acc = accuracy p (fun i -> (0x4000, i mod 3 = 0)) 100 in
  check_bool "always counted correct" true (acc = 1.0)

let test_always_taken_predictor () =
  let p = Predictor.always_taken () in
  check_bool "predicts taken" true (p.Predictor.predict ~pc:0x4000);
  check_bool "not oracle" false p.Predictor.is_oracle

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "whisper_bpu"
    [
      ("counters", [ Alcotest.test_case "saturating" `Quick test_counters ]);
      ( "bimodal",
        Alcotest.
          [
            test_case "learns constant" `Quick test_bimodal_learns_constant;
            test_case "tracks bias" `Quick test_bimodal_tracks_bias;
            test_case "per pc" `Quick test_bimodal_per_pc;
            test_case "storage" `Quick test_bimodal_storage;
          ] );
      ( "tage",
        Alcotest.
          [
            test_case "history lengths" `Quick test_tage_history_lengths;
            test_case "contract" `Quick test_tage_contract;
            test_case "learns periodic" `Quick test_tage_learns_periodic;
            test_case "learns correlation" `Quick test_tage_learns_correlation;
            test_case "spectate" `Quick test_tage_spectate_keeps_history_moving;
            test_case "storage bits" `Quick test_tage_storage_bits;
          ] );
      ( "loop_pred",
        Alcotest.
          [
            test_case "learns period" `Quick test_loop_learns_period;
            test_case "no false confidence" `Quick
              test_loop_no_false_confidence_on_random;
            test_case "tag isolation" `Quick test_loop_tag_isolation;
          ] );
      ( "stat_corrector",
        Alcotest.
          [
            test_case "neutral initially" `Quick test_sc_neutral_initially;
            test_case "vetoes bias" `Quick test_sc_vetoes_statistical_bias;
            test_case "confidence gate" `Quick test_sc_respects_high_confidence;
            test_case "contract" `Quick test_sc_train_contract;
          ] );
      ( "tage_scl",
        Alcotest.
          [
            test_case "long loop" `Quick test_tage_scl_learns_long_loop;
            test_case "name/storage" `Quick test_tage_scl_name_and_storage;
            test_case "kernel refuses what its layout cannot hold" `Quick
              test_tage_scl_fill_geometry;
            test_case "sizes scaling" `Quick test_sizes_scaling;
            test_case "sizes vs budget" `Quick test_sizes_total_vs_budget;
          ] );
      ( "mtage_ideal",
        Alcotest.
          [
            test_case "mtage memorizes" `Quick test_mtage_memorizes;
            test_case "mtage kernel refuses bad n" `Quick
              test_mtage_fill_refuses;
            test_case "ideal" `Quick test_ideal;
            test_case "always taken" `Quick test_always_taken_predictor;
          ] );
    ]
